//! Physical planning.
//!
//! The paper's query plan "generates a computational graph of tensor
//! operations" that a scheduler executes (§4.4). Our plan captures the
//! stages (scan → filter → sort/arrange → window → project) plus the two
//! optimizations that matter for object storage:
//!
//! * **column pruning** — the filter/sort/project phases fetch only the
//!   tensors their expressions reference, exploiting the columnar
//!   layout's partial row access (§3.1);
//! * **chunk-statistics predicate pushdown** — the filter AST is lowered
//!   into a [`PruneExpr`], a tri-state predicate over per-chunk
//!   min/max/constant statistics. The executor evaluates it per chunk
//!   span *before* fetching anything: a span the predicate provably
//!   rejects is skipped entirely (no storage round trip, no decode), a
//!   span it provably accepts passes whole, and everything else scans.
//!
//! The lowering is deliberately **error-preserving**: `AND`/`OR` combine
//! with the same left-to-right short-circuit order the row evaluator
//! uses, so a span is only decided when the row-at-a-time path would
//! have reached the same verdict on every row without raising an error.
//! Any subexpression the analyzer cannot bound becomes [`PruneExpr::
//! Opaque`], which never decides anything.

use std::collections::BTreeSet;

use deeplake_core::{ChunkStats, Metric};

use crate::ast::{BinOp, Expr, Query, SortDir};

/// Scalar comparison operators a [`PruneExpr`] can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A filter lowered onto chunk statistics: evaluates to `Some(false)`
/// ("no row in this span can match — prune it"), `Some(true)` ("every
/// row matches — take the span whole"), or `None` ("undecidable — scan").
#[derive(Debug, Clone, PartialEq)]
pub enum PruneExpr {
    /// `column <op> literal` (or the flipped literal-first form).
    Cmp {
        /// Scalar column the comparison reads.
        column: String,
        /// Comparison operator, normalized to column-on-the-left.
        op: CmpOp,
        /// Literal the column compares against.
        value: f64,
    },
    /// Logical AND, left-to-right short-circuit like the row evaluator.
    And(Box<PruneExpr>, Box<PruneExpr>),
    /// Logical OR, left-to-right short-circuit like the row evaluator.
    Or(Box<PruneExpr>, Box<PruneExpr>),
    /// Logical NOT.
    Not(Box<PruneExpr>),
    /// A subexpression statistics cannot bound; never decides anything.
    Opaque,
}

impl PruneExpr {
    /// Lower a filter expression. Conjunctions/disjunctions/negations of
    /// `column <op> number` comparisons (plus `CONTAINS(column, number)`,
    /// which over all-scalar chunks is equality) become decidable nodes;
    /// everything else becomes [`PruneExpr::Opaque`].
    pub fn analyze(expr: &Expr) -> PruneExpr {
        match expr {
            Expr::Binary { op, left, right } => {
                let cmp = match op {
                    BinOp::And => {
                        return PruneExpr::And(
                            Box::new(Self::analyze(left)),
                            Box::new(Self::analyze(right)),
                        )
                    }
                    BinOp::Or => {
                        return PruneExpr::Or(
                            Box::new(Self::analyze(left)),
                            Box::new(Self::analyze(right)),
                        )
                    }
                    BinOp::Eq => CmpOp::Eq,
                    BinOp::Ne => CmpOp::Ne,
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    BinOp::Ge => CmpOp::Ge,
                    _ => return PruneExpr::Opaque,
                };
                match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), Expr::Number(n)) => PruneExpr::Cmp {
                        column: c.clone(),
                        op: cmp,
                        value: *n,
                    },
                    (Expr::Number(n), Expr::Column(c)) => PruneExpr::Cmp {
                        column: c.clone(),
                        op: flip(cmp),
                        value: *n,
                    },
                    _ => PruneExpr::Opaque,
                }
            }
            Expr::Not(inner) => PruneExpr::Not(Box::new(Self::analyze(inner))),
            Expr::Call { name, args } if name == "CONTAINS" && args.len() == 2 => {
                match (&args[0], &args[1]) {
                    (Expr::Column(c), Expr::Number(n)) => PruneExpr::Cmp {
                        column: c.clone(),
                        op: CmpOp::Eq,
                        value: *n,
                    },
                    _ => PruneExpr::Opaque,
                }
            }
            _ => PruneExpr::Opaque,
        }
    }

    /// Whether the predicate has no decidable leaf (pruning can never
    /// fire; the executor skips statistics lookups entirely).
    pub fn is_opaque(&self) -> bool {
        match self {
            PruneExpr::Opaque => true,
            PruneExpr::Cmp { .. } => false,
            PruneExpr::And(l, r) | PruneExpr::Or(l, r) => l.is_opaque() && r.is_opaque(),
            PruneExpr::Not(inner) => inner.is_opaque(),
        }
    }

    /// Whether any leaf is [`PruneExpr::Opaque`]. Without one the
    /// predicate is the whole filter — its value per row is the filter's
    /// — which is what lets the executor evaluate it column-at-a-time.
    pub fn has_opaque_leaf(&self) -> bool {
        match self {
            PruneExpr::Opaque => true,
            PruneExpr::Cmp { .. } => false,
            PruneExpr::And(l, r) | PruneExpr::Or(l, r) => {
                l.has_opaque_leaf() || r.has_opaque_leaf()
            }
            PruneExpr::Not(inner) => inner.has_opaque_leaf(),
        }
    }

    /// Columns whose statistics the predicate consults, in first-use
    /// order (the executor drives its scan off the first one).
    pub fn columns(&self, out: &mut Vec<String>) {
        match self {
            PruneExpr::Cmp { column, .. } => {
                if !out.contains(column) {
                    out.push(column.clone());
                }
            }
            PruneExpr::And(l, r) | PruneExpr::Or(l, r) => {
                l.columns(out);
                r.columns(out);
            }
            PruneExpr::Not(inner) => inner.columns(out),
            PruneExpr::Opaque => {}
        }
    }

    /// Evaluate over a span given per-column statistics. `lookup` returns
    /// `None` when a column has no (complete) stats for the span — the
    /// corresponding comparison becomes undecidable.
    ///
    /// `And`/`Or` mirror the row evaluator's left-to-right short-circuit:
    /// a decided verdict is produced only along prefixes the row path
    /// would itself have evaluated, so pruning can never suppress (or
    /// invent) an evaluation error.
    pub fn evaluate(&self, lookup: &dyn Fn(&str) -> Option<ChunkStats>) -> Option<bool> {
        match self {
            PruneExpr::Opaque => None,
            PruneExpr::Cmp { column, op, value } => {
                let s = lookup(column)?;
                cmp_interval(*op, &s, *value)
            }
            PruneExpr::And(l, r) => match l.evaluate(lookup) {
                Some(false) => Some(false),
                Some(true) => r.evaluate(lookup),
                None => None,
            },
            PruneExpr::Or(l, r) => match l.evaluate(lookup) {
                Some(true) => Some(true),
                Some(false) => r.evaluate(lookup),
                None => None,
            },
            PruneExpr::Not(inner) => inner.evaluate(lookup).map(|b| !b),
        }
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Decide `column <op> value` over the span's `[min, max]` interval.
fn cmp_interval(op: CmpOp, s: &ChunkStats, v: f64) -> Option<bool> {
    let definite = s.constant; // every row holds exactly `s.min`
    match op {
        CmpOp::Eq => {
            if v < s.min || v > s.max {
                Some(false)
            } else if definite && s.min == v {
                Some(true)
            } else {
                None
            }
        }
        CmpOp::Ne => cmp_interval(CmpOp::Eq, s, v).map(|b| !b),
        CmpOp::Lt => {
            if s.max < v {
                Some(true)
            } else if s.min >= v {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Le => {
            if s.max <= v {
                Some(true)
            } else if s.min > v {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => cmp_interval(CmpOp::Le, s, v).map(|b| !b),
        CmpOp::Ge => cmp_interval(CmpOp::Lt, s, v).map(|b| !b),
    }
}

/// A query lowered onto the physical top-k similarity operator:
/// `ORDER BY COSINE_SIMILARITY(col, [..]) / L2_DISTANCE(col, [..])`
/// with a `LIMIT`, no filter and no arrange. The executor probes the
/// column's vector index (when enabled and valid) for candidate rows,
/// fetches their chunk spans in batched reads, exact-re-ranks with the
/// same row evaluator the naive path uses, and keeps the best `fetch`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKPlan {
    /// The embedding column the similarity key reads.
    pub column: String,
    /// The literal query vector.
    pub query: Vec<f64>,
    /// Similarity metric of the key function.
    pub metric: Metric,
    /// Rows the operator must produce: `LIMIT + OFFSET`.
    pub fetch: u64,
}

/// Lower a query onto [`TopKPlan`] when it has the recognized shape.
fn analyze_top_k(query: &Query) -> Option<TopKPlan> {
    if query.filter.is_some() || query.arrange_by.is_some() {
        return None;
    }
    let limit = query.limit?;
    let (key, _) = query.order_by.as_ref()?;
    let Expr::Call { name, args } = key else {
        return None;
    };
    let metric = match name.as_str() {
        "COSINE_SIMILARITY" => Metric::Cosine,
        "L2_DISTANCE" => Metric::L2,
        _ => return None,
    };
    let [Expr::Column(column), Expr::Array(values)] = args.as_slice() else {
        return None;
    };
    if values.is_empty() {
        return None;
    }
    Some(TopKPlan {
        column: column.clone(),
        query: values.clone(),
        metric,
        fetch: limit.saturating_add(query.offset.unwrap_or(0)),
    })
}

/// The planned stages of a query, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Columns the filter stage needs.
    pub filter_columns: BTreeSet<String>,
    /// Columns the order/arrange stage needs.
    pub sort_columns: BTreeSet<String>,
    /// Columns projections need.
    pub project_columns: BTreeSet<String>,
    /// Whether a filter stage exists.
    pub has_filter: bool,
    /// The filter lowered onto chunk statistics ([`PruneExpr::Opaque`]
    /// when there is no filter or nothing in it is boundable).
    pub prune: PruneExpr,
    /// Whether a sort stage exists, and its direction.
    pub sort: Option<SortDir>,
    /// Whether an arrange (group) stage exists.
    pub has_arrange: bool,
    /// `LIMIT`/`OFFSET` window.
    pub window: (Option<u64>, Option<u64>),
    /// The query lowered onto the top-k similarity operator, when it has
    /// the recognized `ORDER BY <similarity> LIMIT k` shape.
    pub top_k: Option<TopKPlan>,
}

/// Build the plan for a query.
pub fn plan(query: &Query) -> Plan {
    let mut filter_columns = BTreeSet::new();
    if let Some(f) = &query.filter {
        let mut v = Vec::new();
        f.columns(&mut v);
        filter_columns.extend(v);
    }
    let mut sort_columns = BTreeSet::new();
    if let Some((key, _)) = &query.order_by {
        let mut v = Vec::new();
        key.columns(&mut v);
        sort_columns.extend(v);
    }
    if let Some(key) = &query.arrange_by {
        let mut v = Vec::new();
        key.columns(&mut v);
        sort_columns.extend(v);
    }
    let mut project_columns = BTreeSet::new();
    for p in &query.projections {
        let mut v = Vec::new();
        p.expr.columns(&mut v);
        project_columns.extend(v);
    }
    Plan {
        filter_columns,
        sort_columns,
        project_columns,
        has_filter: query.filter.is_some(),
        prune: query
            .filter
            .as_ref()
            .map(PruneExpr::analyze)
            .unwrap_or(PruneExpr::Opaque),
        sort: query.order_by.as_ref().map(|(_, d)| *d),
        has_arrange: query.arrange_by.is_some(),
        window: (query.limit, query.offset),
        top_k: analyze_top_k(query),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn column_pruning_per_stage() {
        let q = parse(
            r#"SELECT images[0:2] FROM d
               WHERE IOU(boxes, "training/boxes") > 0.5
               ORDER BY MEAN(embeddings)
               LIMIT 7 OFFSET 2"#,
        )
        .unwrap();
        let p = plan(&q);
        assert!(p.has_filter);
        assert_eq!(
            p.filter_columns.iter().collect::<Vec<_>>(),
            vec!["boxes", "training/boxes"]
        );
        assert_eq!(
            p.sort_columns.iter().collect::<Vec<_>>(),
            vec!["embeddings"]
        );
        assert_eq!(p.project_columns.iter().collect::<Vec<_>>(), vec!["images"]);
        assert_eq!(p.window, (Some(7), Some(2)));
        assert_eq!(p.sort, Some(SortDir::Asc));
        assert!(!p.has_arrange);
    }

    #[test]
    fn arrange_columns_counted_as_sort() {
        let q = parse("SELECT * FROM d ARRANGE BY labels").unwrap();
        let p = plan(&q);
        assert!(p.has_arrange);
        assert!(p.sort_columns.contains("labels"));
        assert!(p.filter_columns.is_empty());
    }

    fn stats(min: f64, max: f64) -> ChunkStats {
        ChunkStats {
            min,
            max,
            samples: 10,
            constant: min == max,
        }
    }

    fn prune_of(query: &str) -> PruneExpr {
        plan(&parse(query).unwrap()).prune
    }

    #[test]
    fn comparisons_lower_to_prune_leaves() {
        let p = prune_of("SELECT * FROM d WHERE labels = 3");
        assert_eq!(
            p,
            PruneExpr::Cmp {
                column: "labels".into(),
                op: CmpOp::Eq,
                value: 3.0
            }
        );
        // literal-first comparisons flip the operator
        let p = prune_of("SELECT * FROM d WHERE 3 < labels");
        assert_eq!(
            p,
            PruneExpr::Cmp {
                column: "labels".into(),
                op: CmpOp::Gt,
                value: 3.0
            }
        );
        // CONTAINS over a scalar column is equality
        let p = prune_of("SELECT * FROM d WHERE CONTAINS(labels, 4)");
        assert!(matches!(p, PruneExpr::Cmp { op: CmpOp::Eq, .. }));
    }

    #[test]
    fn unboundable_expressions_are_opaque() {
        assert!(prune_of(r#"SELECT * FROM d WHERE IOU(b, "t") > 0.5"#).is_opaque());
        assert!(prune_of("SELECT * FROM d WHERE labels + 1 = 3").is_opaque());
        assert!(prune_of("SELECT * FROM d").is_opaque());
        // one boundable conjunct keeps pruning power
        let p = prune_of(r#"SELECT * FROM d WHERE IOU(b, "t") > 0.5 AND labels = 3"#);
        assert!(!p.is_opaque());
        let mut cols = Vec::new();
        p.columns(&mut cols);
        assert_eq!(cols, vec!["labels".to_string()]);
    }

    #[test]
    fn interval_decisions() {
        let p = prune_of("SELECT * FROM d WHERE labels = 3");
        assert_eq!(p.evaluate(&|_| Some(stats(5.0, 9.0))), Some(false));
        assert_eq!(p.evaluate(&|_| Some(stats(3.0, 3.0))), Some(true));
        assert_eq!(p.evaluate(&|_| Some(stats(0.0, 9.0))), None);
        assert_eq!(p.evaluate(&|_| None), None);

        let p = prune_of("SELECT * FROM d WHERE labels < 4");
        assert_eq!(p.evaluate(&|_| Some(stats(0.0, 3.0))), Some(true));
        assert_eq!(p.evaluate(&|_| Some(stats(4.0, 9.0))), Some(false));
        assert_eq!(p.evaluate(&|_| Some(stats(2.0, 6.0))), None);

        let p = prune_of("SELECT * FROM d WHERE NOT labels >= 4");
        assert_eq!(p.evaluate(&|_| Some(stats(4.0, 9.0))), Some(false));
        assert_eq!(p.evaluate(&|_| Some(stats(0.0, 3.0))), Some(true));
    }

    #[test]
    fn top_k_lowering_recognizes_similarity_order_by() {
        let p = plan(
            &parse("SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [1, 2, 3]) DESC LIMIT 5")
                .unwrap(),
        );
        let tk = p.top_k.expect("lowered");
        assert_eq!(tk.column, "emb");
        assert_eq!(tk.query, vec![1.0, 2.0, 3.0]);
        assert_eq!(tk.metric, Metric::Cosine);
        assert_eq!(tk.fetch, 5);

        let p = plan(
            &parse("SELECT * FROM d ORDER BY L2_DISTANCE(emb, [0, 0]) LIMIT 3 OFFSET 2").unwrap(),
        );
        let tk = p.top_k.expect("lowered");
        assert_eq!(tk.metric, Metric::L2);
        assert_eq!(tk.fetch, 5, "fetch covers LIMIT + OFFSET");
    }

    #[test]
    fn top_k_lowering_rejects_other_shapes() {
        // no LIMIT
        assert!(
            plan(&parse("SELECT * FROM d ORDER BY L2_DISTANCE(e, [1])").unwrap())
                .top_k
                .is_none()
        );
        // a filter forces the general pipeline
        assert!(plan(
            &parse("SELECT * FROM d WHERE labels = 1 ORDER BY L2_DISTANCE(e, [1]) LIMIT 2")
                .unwrap()
        )
        .top_k
        .is_none());
        // ARRANGE BY forces the general pipeline
        assert!(plan(
            &parse("SELECT * FROM d ORDER BY L2_DISTANCE(e, [1]) ARRANGE BY labels LIMIT 2")
                .unwrap()
        )
        .top_k
        .is_none());
        // non-similarity key
        assert!(
            plan(&parse("SELECT * FROM d ORDER BY MEAN(e) LIMIT 2").unwrap())
                .top_k
                .is_none()
        );
        // non-literal query vector
        assert!(
            plan(&parse("SELECT * FROM d ORDER BY L2_DISTANCE(e, f) LIMIT 2").unwrap())
                .top_k
                .is_none()
        );
        // empty query vector
        assert!(
            plan(&parse("SELECT * FROM d ORDER BY L2_DISTANCE(e, []) LIMIT 2").unwrap())
                .top_k
                .is_none()
        );
    }

    #[test]
    fn and_or_short_circuit_left_to_right() {
        // a decided left arm lets the right arm decide the rest
        let p = prune_of("SELECT * FROM d WHERE labels >= 0 AND labels = 7");
        assert_eq!(p.evaluate(&|_| Some(stats(1.0, 3.0))), Some(false));
        // an undecided LEFT arm blocks a decision even when the right arm
        // would be definite — the row evaluator always evaluates the left
        // arm first, and it may error there
        let p = prune_of(r#"SELECT * FROM d WHERE IOU(b, "t") > 0.5 OR labels >= 0"#);
        assert_eq!(p.evaluate(&|_| Some(stats(1.0, 3.0))), None);
        // ...but a FALSE left arm falls through to the right
        let p = prune_of("SELECT * FROM d WHERE labels > 9 OR labels = 2");
        assert_eq!(p.evaluate(&|_| Some(stats(2.0, 2.0))), Some(true));
        assert_eq!(p.evaluate(&|_| Some(stats(3.0, 4.0))), Some(false));
    }
}
