//! Canonical query text — the serving tier's cache key.
//!
//! Two query strings that differ only in whitespace, keyword case,
//! comments, redundant parentheses, or synthesized-vs-explicit aliases
//! execute identically, so a version-pinned query-result cache must not
//! store them twice. [`canonical_text`] parses the input and renders the
//! AST back to a single normal form: one space between tokens, upper-case
//! keywords, every projection carrying an explicit `AS`, explicit sort
//! direction, parentheses only where precedence demands them.
//!
//! The defining properties (checked by the parser proptests):
//!
//! * **stability** — `parse(canonical_text(t))` equals `parse(t)` for
//!   every parseable `t`;
//! * **idempotence** — `canonical_text(canonical_text(t)) ==
//!   canonical_text(t)`.
//!
//! Rendering is total for every AST the parser can produce. Programmatic
//! ASTs can hold shapes the grammar cannot express — a non-finite number
//! literal, a string containing both quote characters (the lexer has no
//! escapes), an `OFFSET` without a `LIMIT` — and those render as `Err`
//! rather than as text that would re-parse differently.

use crate::ast::{BinOp, Expr, Query, SortDir};
use crate::error::TqlError;
use crate::parser::parse;
use crate::Result;
use deeplake_tensor::SliceSpec;

/// Parse `text` and render its canonical form.
pub fn canonical_text(text: &str) -> Result<String> {
    render_query(&parse(text)?)
}

/// Render a parsed [`Query`] in canonical form.
pub fn render_query(q: &Query) -> Result<String> {
    let mut out = String::with_capacity(64);
    out.push_str("SELECT ");
    if q.select_all {
        out.push('*');
    } else {
        for (i, p) in q.projections.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&render_expr_prec(&p.expr, 0)?);
            out.push_str(" AS ");
            out.push_str(&p.name);
        }
    }
    out.push_str(" FROM ");
    out.push_str(&q.from);
    if let Some(v) = &q.version {
        // always string-quoted: `AT VERSION main` and `AT VERSION "main"`
        // parse to the same AST, so they must render the same
        out.push_str(" AT VERSION ");
        out.push_str(&render_str(v)?);
    }
    if let Some(f) = &q.filter {
        out.push_str(" WHERE ");
        out.push_str(&render_expr_prec(f, 0)?);
    }
    if let Some((key, dir)) = &q.order_by {
        out.push_str(" ORDER BY ");
        out.push_str(&render_expr_prec(key, 0)?);
        out.push_str(match dir {
            SortDir::Asc => " ASC",
            SortDir::Desc => " DESC",
        });
    }
    if let Some(a) = &q.arrange_by {
        out.push_str(" ARRANGE BY ");
        out.push_str(&render_expr_prec(a, 0)?);
    }
    match (q.limit, q.offset) {
        (Some(l), Some(o)) => out.push_str(&format!(" LIMIT {l} OFFSET {o}")),
        (Some(l), None) => out.push_str(&format!(" LIMIT {l}")),
        (None, Some(_)) => {
            return Err(unrenderable("OFFSET without LIMIT is not expressible"));
        }
        (None, None) => {}
    }
    Ok(out)
}

fn unrenderable(message: impl Into<String>) -> TqlError {
    TqlError::Parse {
        message: message.into(),
    }
}

/// Binding tightness, mirroring the parser's precedence ladder
/// (`OR < AND < NOT < cmp < add < mul < unary < postfix`).
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        },
        Expr::Not(_) => 3,
        Expr::Neg(_) => 7,
        Expr::Number(_) | Expr::Str(_) | Expr::Column(_) | Expr::Array(_) => 9,
        Expr::Subscript { .. } | Expr::Call { .. } => 9,
    }
}

fn op_text(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "=",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
    }
}

/// Render `e`, parenthesizing when its binding is looser than the context
/// requires (`min`), so the output re-parses to the identical tree.
fn render_expr_prec(e: &Expr, min: u8) -> Result<String> {
    let p = prec(e);
    let body = match e {
        Expr::Number(n) => render_num(*n)?,
        Expr::Str(s) => render_str(s)?,
        Expr::Column(c) => c.clone(),
        Expr::Array(values) => {
            let parts: Result<Vec<String>> = values.iter().map(|v| render_num(*v)).collect();
            format!("[{}]", parts?.join(", "))
        }
        Expr::Subscript { base, specs } => {
            let parts: Vec<String> = specs.iter().map(render_spec).collect();
            format!("{}[{}]", render_expr_prec(base, 9)?, parts.join(", "))
        }
        Expr::Call { name, args } => {
            let parts: Result<Vec<String>> = args.iter().map(|a| render_expr_prec(a, 0)).collect();
            format!("{}({})", name, parts?.join(", "))
        }
        Expr::Binary { op, left, right } => {
            // left-associative chains render flat; comparison operands sit
            // at the additive level (the grammar is non-associative there)
            let (lmin, rmin) = match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (5, 5),
                _ => (p, p + 1),
            };
            format!(
                "{} {} {}",
                render_expr_prec(left, lmin)?,
                op_text(*op),
                render_expr_prec(right, rmin)?
            )
        }
        Expr::Neg(inner) => {
            let body = render_expr_prec(inner, 7)?;
            if body.starts_with('-') {
                // `--` would lex as a line comment: parenthesize the
                // operand of a nested negation
                format!("-({body})")
            } else {
                format!("-{body}")
            }
        }
        Expr::Not(inner) => format!("NOT {}", render_expr_prec(inner, 3)?),
    };
    Ok(if p < min { format!("({body})") } else { body })
}

fn render_num(n: f64) -> Result<String> {
    if !n.is_finite() {
        return Err(unrenderable(format!(
            "non-finite literal {n} has no text form"
        )));
    }
    // `{}` is Rust's shortest round-tripping decimal form: re-lexing it
    // recovers bit-identical f64, so the canonical text stays stable
    Ok(format!("{n}"))
}

fn render_str(s: &str) -> Result<String> {
    // the lexer has no escape sequences: pick whichever quote the string
    // does not contain
    if !s.contains('"') {
        Ok(format!("\"{s}\""))
    } else if !s.contains('\'') {
        Ok(format!("'{s}'"))
    } else {
        Err(unrenderable(
            "string containing both quote characters has no text form",
        ))
    }
}

fn render_spec(spec: &SliceSpec) -> String {
    match spec {
        SliceSpec::Index(i) => format!("{i}"),
        SliceSpec::Full => ":".to_string(),
        SliceSpec::Range { start, stop } => format!(
            "{}:{}",
            start.map(|v| v.to_string()).unwrap_or_default(),
            stop.map(|v| v.to_string()).unwrap_or_default()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(text: &str) -> String {
        canonical_text(text).unwrap()
    }

    #[test]
    fn whitespace_case_and_aliases_normalize() {
        let variants = [
            "SELECT * FROM d WHERE labels = 3",
            "select  *  from d  where labels=3",
            "SELECT * -- comment\nFROM d WHERE (labels) = 3",
        ];
        let first = canon(variants[0]);
        for v in &variants[1..] {
            assert_eq!(canon(v), first, "input {v:?}");
        }
        assert_eq!(first, "SELECT * FROM d WHERE labels = 3");
    }

    #[test]
    fn synthesized_aliases_become_explicit() {
        assert_eq!(
            canon("SELECT labels, mean(images) FROM d"),
            "SELECT labels AS labels, MEAN(images) AS mean FROM d"
        );
        // already-canonical text is a fixed point
        let c = canon("SELECT labels, mean(images) FROM d");
        assert_eq!(canon(&c), c);
    }

    #[test]
    fn precedence_needs_no_spurious_parens() {
        assert_eq!(
            canon("SELECT * FROM d WHERE a = 1 OR b = 2 AND NOT c > 3"),
            "SELECT * FROM d WHERE a = 1 OR b = 2 AND NOT c > 3"
        );
        assert_eq!(
            canon("SELECT * FROM d WHERE ((a + 2)) * 3 > 1 - 2 - 3"),
            "SELECT * FROM d WHERE (a + 2) * 3 > 1 - 2 - 3"
        );
        // right-nested same-precedence keeps its parens
        assert_eq!(
            canon("SELECT * FROM d WHERE a - (b - c) > 0"),
            "SELECT * FROM d WHERE a - (b - c) > 0"
        );
    }

    #[test]
    fn version_quoting_normalizes() {
        assert_eq!(
            canon("SELECT * FROM d AT VERSION main"),
            canon("SELECT * FROM d AT VERSION \"main\"")
        );
    }

    #[test]
    fn full_clause_set_roundtrips() {
        let text = "SELECT images[100:500, :, 0] AS crop, NORMALIZE(boxes, [1, -2.5, 3]) AS n \
                    FROM dataset AT VERSION \"v1\" WHERE IOU(boxes, \"training/boxes\") > 0.95 \
                    ORDER BY MEAN(images) DESC ARRANGE BY labels LIMIT 10 OFFSET 5";
        let c = canon(text);
        assert_eq!(parse(&c).unwrap(), parse(text).unwrap());
        assert_eq!(canon(&c), c);
    }

    #[test]
    fn sort_direction_explicit() {
        assert_eq!(
            canon("SELECT * FROM d ORDER BY labels"),
            "SELECT * FROM d ORDER BY labels ASC"
        );
    }

    #[test]
    fn string_quote_fallback() {
        assert_eq!(render_str("say \"hi\"").unwrap(), "'say \"hi\"'");
        assert!(render_str("both ' and \"").is_err());
    }

    #[test]
    fn unrenderable_programmatic_asts_error() {
        assert!(render_num(f64::NAN).is_err());
        assert!(render_num(f64::INFINITY).is_err());
        let q = Query {
            select_all: true,
            projections: vec![],
            from: "d".into(),
            version: None,
            filter: None,
            order_by: None,
            arrange_by: None,
            limit: None,
            offset: Some(3),
        };
        assert!(render_query(&q).is_err());
    }

    #[test]
    fn nested_negation_never_emits_a_comment() {
        // `--` is a line comment to the lexer; the renderer must not
        // produce one out of nested negations
        for text in [
            "SELECT * FROM d WHERE x = -(-5)",
            "SELECT * FROM d WHERE x = - - 5",
            "SELECT * FROM d WHERE x = -(-(-5))",
            "SELECT * FROM d WHERE x > -(- y)",
        ] {
            let c = canon(text);
            assert_eq!(parse(&c).unwrap(), parse(text).unwrap(), "{text}");
            assert_eq!(canon(&c), c, "{text}");
        }
        assert_eq!(
            canon("SELECT * FROM d WHERE x = -(-5)"),
            "SELECT * FROM d WHERE x = -(-5)"
        );
    }

    #[test]
    fn subscript_forms_roundtrip() {
        let text = "SELECT x[:, 3, 1:, :5, -2, 1:4] AS x FROM d";
        let c = canon(text);
        assert_eq!(parse(&c).unwrap(), parse(text).unwrap());
        assert_eq!(canon(&c), c);
    }
}
