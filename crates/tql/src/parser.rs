//! Recursive-descent parser for TQL.
//!
//! The paper extends Hyrise's SQL parser; our grammar is small enough for
//! a hand-written parser (see DESIGN.md substitutions). Keywords are
//! case-insensitive; identifiers are case-sensitive.

use deeplake_tensor::SliceSpec;

use crate::ast::{BinOp, Expr, Projection, Query, SortDir};
use crate::error::TqlError;
use crate::lexer::{lex, Token};
use crate::Result;

/// Deepest an expression may go: every parenthesis, `NOT`, unary minus,
/// subscript and function call is one level, and so is every operator of
/// a chain (`a + b + c` is a left-deep tree, one level per `+`). The parser
/// recurses per nesting level and everything that later walks the tree —
/// its destructor included — recurses per tree level, while query text
/// arrives from the network: past this bound a query is a parse error, not
/// a stack overflow. The tree is then at most ~3x this deep (a level of
/// the count can put a comparison and a chain's other operand under it).
const MAX_NESTING: usize = 128;

/// Parse a full `SELECT` query.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut p = Parser::new(tokens);
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err(format!("trailing tokens after query (at token {})", p.pos)));
    }
    Ok(q)
}

/// Parse a standalone expression (used by tests and the dataloader's
/// filter hook).
pub fn parse_expr(input: &str) -> Result<Expr> {
    let tokens = lex(input)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after expression".into()));
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at `pos`.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Go one level down, or refuse at [`MAX_NESTING`]. The caller gives
    /// the level back once it has parsed what is inside; an error ends the
    /// parse, so it need not.
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!(
                "expression is more than {MAX_NESTING} levels deep (parentheses, NOT, unary \
                 minus, subscripts, function calls and chained operators each count one)"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn err(&self, message: String) -> TqlError {
        TqlError::Parse { message }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Case-insensitive keyword check (does not consume).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let mut select_all = false;
        let mut projections = Vec::new();
        if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            select_all = true;
        } else {
            loop {
                let expr = self.expr()?;
                let name = if self.eat_keyword("AS") {
                    self.ident()?
                } else {
                    synthesize_name(&expr, projections.len())
                };
                projections.push(Projection { expr, name });
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.ident()?;

        let mut version = None;
        if self.eat_keyword("AT") {
            self.expect_keyword("VERSION")?;
            version = Some(match self.next() {
                Some(Token::Str(s)) => s,
                Some(Token::Ident(s)) => s,
                other => return Err(self.err(format!("expected version ref, found {other:?}"))),
            });
        }

        let mut filter = None;
        if self.eat_keyword("WHERE") {
            filter = Some(self.expr()?);
        }

        let mut order_by = None;
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            let key = self.expr()?;
            let dir = if self.eat_keyword("DESC") {
                SortDir::Desc
            } else {
                let _ = self.eat_keyword("ASC");
                SortDir::Asc
            };
            order_by = Some((key, dir));
        }

        let mut arrange_by = None;
        if self.eat_keyword("ARRANGE") {
            self.expect_keyword("BY")?;
            arrange_by = Some(self.expr()?);
        }

        let mut limit = None;
        let mut offset = None;
        if self.eat_keyword("LIMIT") {
            limit = Some(self.number_literal()? as u64);
            if self.eat_keyword("OFFSET") {
                offset = Some(self.number_literal()? as u64);
            }
        }

        Ok(Query {
            select_all,
            projections,
            from,
            version,
            filter,
            order_by,
            arrange_by,
            limit,
            offset,
        })
    }

    fn number_literal(&mut self) -> Result<f64> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    // expression precedence: OR < AND < NOT < cmp < add < mul < unary < postfix
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            self.descend()?;
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            self.descend()?;
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            self.descend()?;
            let inner = self.not_expr()?;
            self.depth -= 1;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.descend()?;
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.descend()?;
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            self.descend()?;
            let inner = self.unary()?;
            self.depth -= 1;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut base = self.primary()?;
        // no recursion here, but like a chain's operators each subscript
        // puts the tree one level deeper
        let outer = self.depth;
        while self.peek() == Some(&Token::LBracket) {
            self.pos += 1;
            self.descend()?;
            let specs = self.subscripts()?;
            self.expect(Token::RBracket)?;
            base = Expr::Subscript {
                base: Box::new(base),
                specs,
            };
        }
        self.depth = outer;
        Ok(base)
    }

    fn subscripts(&mut self) -> Result<Vec<SliceSpec>> {
        let mut specs = Vec::new();
        loop {
            specs.push(self.subscript()?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(specs)
    }

    fn subscript(&mut self) -> Result<SliceSpec> {
        // forms: `:`, `a:`, `:b`, `a:b`, `a`
        let start = match self.peek() {
            Some(Token::Colon) => None,
            _ => Some(self.int_literal()?),
        };
        if self.peek() == Some(&Token::Colon) {
            self.pos += 1;
            let stop = match self.peek() {
                Some(Token::Comma) | Some(Token::RBracket) => None,
                _ => Some(self.int_literal()?),
            };
            if start.is_none() && stop.is_none() {
                return Ok(SliceSpec::Full);
            }
            return Ok(SliceSpec::Range { start, stop });
        }
        match start {
            Some(i) => Ok(SliceSpec::Index(i)),
            None => Err(self.err("empty subscript".into())),
        }
    }

    fn int_literal(&mut self) -> Result<i64> {
        let neg = if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        let n = self.number_literal()?;
        if n.fract() != 0.0 {
            return Err(self.err(format!("subscript must be an integer, got {n}")));
        }
        Ok(if neg { -(n as i64) } else { n as i64 })
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::LParen) => {
                self.descend()?;
                let e = self.expr()?;
                self.depth -= 1;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::LBracket) => {
                // literal array [1, 2, 3]
                let mut values = Vec::new();
                if self.peek() != Some(&Token::RBracket) {
                    loop {
                        let neg = if self.peek() == Some(&Token::Minus) {
                            self.pos += 1;
                            true
                        } else {
                            false
                        };
                        let n = self.number_literal()?;
                        values.push(if neg { -n } else { n });
                        if self.peek() == Some(&Token::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Token::RBracket)?;
                Ok(Expr::Array(values))
            }
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    self.descend()?;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Some(&Token::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.depth -= 1;
                    self.expect(Token::RParen)?;
                    Ok(Expr::Call {
                        name: name.to_ascii_uppercase(),
                        args,
                    })
                } else {
                    Ok(Expr::Column(name))
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

fn synthesize_name(expr: &Expr, index: usize) -> String {
    match expr {
        Expr::Column(c) => c.clone(),
        Expr::Subscript { base, .. } => synthesize_name(base, index),
        Expr::Call { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let q = parse(
            r#"SELECT
                 images[100:500, 100:500, 0:2] as crop,
                 NORMALIZE(boxes, [100, 100, 400, 400]) as box
               FROM dataset
               WHERE IOU(boxes, "training/boxes") > 0.95
               ORDER BY IOU(boxes, "training/boxes")
               ARRANGE BY labels"#,
        )
        .unwrap();
        assert!(!q.select_all);
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.projections[0].name, "crop");
        assert_eq!(q.projections[1].name, "box");
        assert_eq!(q.from, "dataset");
        assert!(q.filter.is_some());
        assert!(q.order_by.is_some());
        assert!(q.arrange_by.is_some());
        // crop subscripts parsed as three ranges
        match &q.projections[0].expr {
            Expr::Subscript { specs, .. } => {
                assert_eq!(specs.len(), 3);
                assert_eq!(specs[0], SliceSpec::range(100, 500));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_star_with_filter() {
        let q = parse("SELECT * FROM d WHERE labels = 3").unwrap();
        assert!(q.select_all);
        assert!(q.projections.is_empty());
        assert!(matches!(q.filter, Some(Expr::Binary { op: BinOp::Eq, .. })));
    }

    #[test]
    fn at_version() {
        let q = parse("SELECT * FROM d AT VERSION \"v000001\" WHERE labels < 2").unwrap();
        assert_eq!(q.version.as_deref(), Some("v000001"));
        let q = parse("SELECT * FROM d AT VERSION main").unwrap();
        assert_eq!(q.version.as_deref(), Some("main"));
    }

    #[test]
    fn limit_offset() {
        let q = parse("SELECT * FROM d LIMIT 10 OFFSET 5").unwrap();
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn order_desc() {
        let q = parse("SELECT * FROM d ORDER BY MEAN(images) DESC").unwrap();
        assert_eq!(q.order_by.unwrap().1, SortDir::Desc);
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        // must be 1 + (2 * 3)
        match e {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        // OR binds loosest
        assert!(matches!(e, Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn not_and_neg() {
        assert!(matches!(parse_expr("NOT a > 1").unwrap(), Expr::Not(_)));
        assert!(matches!(parse_expr("-5").unwrap(), Expr::Neg(_)));
    }

    #[test]
    fn subscript_forms() {
        let e = parse_expr("x[:, 3, 1:, :5, -2]").unwrap();
        match e {
            Expr::Subscript { specs, .. } => {
                assert_eq!(specs[0], SliceSpec::Full);
                assert_eq!(specs[1], SliceSpec::Index(3));
                assert_eq!(
                    specs[2],
                    SliceSpec::Range {
                        start: Some(1),
                        stop: None
                    }
                );
                assert_eq!(
                    specs[3],
                    SliceSpec::Range {
                        start: None,
                        stop: Some(5)
                    }
                );
                assert_eq!(specs[4], SliceSpec::Index(-2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_expr("x[1.5]").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("select * from d where a = 1 order by a limit 3").is_ok());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM d extra").is_err());
        assert!(parse("FROM d").is_err());
        assert!(parse_expr("(1 + 2").is_err());
        assert!(parse_expr("f(1,").is_err());
    }

    #[test]
    fn function_names_uppercased() {
        let e = parse_expr("iou(a, b)").unwrap();
        assert!(matches!(e, Expr::Call { ref name, .. } if name == "IOU"));
    }

    #[test]
    fn negative_array_literals() {
        let e = parse_expr("[1, -2, 3.5]").unwrap();
        assert_eq!(e, Expr::Array(vec![1.0, -2.0, 3.5]));
    }

    /// `depth` levels of each construct that deepens the tree, around a
    /// column.
    fn nested(depth: usize) -> [String; 9] {
        [
            format!("x{}", " OR x".repeat(depth)),
            format!("x{}", " AND x".repeat(depth)),
            format!("x{}", " + x".repeat(depth)),
            format!("x{}", " * x".repeat(depth)),
            format!("{}x{}", "(".repeat(depth), ")".repeat(depth)),
            format!("{}x", "NOT ".repeat(depth)),
            format!("{}x", "- ".repeat(depth)),
            format!("x{}", "[0]".repeat(depth)),
            format!("{}x{}", "ABS(".repeat(depth), ")".repeat(depth)),
        ]
    }

    #[test]
    fn nesting_is_bounded() {
        for text in nested(MAX_NESTING) {
            parse_expr(&text).unwrap();
            parse(&format!("SELECT * FROM ds WHERE {text} = 1")).unwrap();
        }
        // one past the bound, and far past where the recursion (or the
        // tree's destructor) would run off the stack
        for depth in [MAX_NESTING + 1, 1_000_000] {
            for text in nested(depth) {
                let got = parse(&format!("SELECT * FROM ds WHERE {text} = 1"));
                assert!(
                    matches!(&got, Err(TqlError::Parse { message }) if message.contains("levels deep")),
                    "{} at depth {depth}: {got:?}",
                    &text[..8]
                );
            }
        }
        // kinds mix into one count, and a closed level is given back
        let mixed = format!("{}NOT -x[0]{}", "(".repeat(125), ")".repeat(125));
        parse_expr(&mixed).unwrap();
        assert!(parse_expr(&format!("({mixed})")).is_err());
        let siblings = vec!["((x[0][1]))"; 100].join(" + ");
        parse_expr(&format!("F({siblings}, {siblings}) = ({siblings})")).unwrap();
    }
}
