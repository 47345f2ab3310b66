//! The row evaluator: one `Sample` per referenced column per row, the
//! expression tree walked over them. It handles every expression and is
//! where every error message comes from; the kernels (`walk.rs`) must
//! agree with it.

use std::borrow::Cow;
use std::cmp::Ordering;

use deeplake_core::{Dataset, PrefetchedChunks};
use deeplake_tensor::ops::{elementwise, elementwise_scalar, slice_sample};
use deeplake_tensor::{Dtype, Sample, Shape};

use super::is_text;
use crate::ast::{BinOp, Expr};
use crate::error::TqlError;
use crate::functions;
use crate::value::Value;
use crate::Result;

/// Evaluation context: the dataset plus whatever chunks the current task
/// prefetched — the empty set on the naive path and for a lone
/// [`eval`]. Rows assemble from pinned chunks when possible and fall
/// back to the dataset's single-key path otherwise, so error semantics
/// match [`Dataset::get`] exactly.
pub(super) struct EvalCtx<'a> {
    pub ds: &'a Dataset,
    pub pinned: &'a PrefetchedChunks,
    /// The query's text columns (`Columns::text`).
    pub text: &'a [String],
}

impl EvalCtx<'_> {
    fn get(&self, tensor: &str, row: u64) -> deeplake_core::Result<Sample> {
        self.pinned.get(self.ds, tensor, row)
    }
}

/// Evaluate an expression for one dataset row.
pub fn eval(expr: &Expr, ds: &Dataset, row: u64) -> Result<Value> {
    let mut text = Vec::new();
    expr.columns(&mut text);
    text.retain(|c| is_text(ds, c));
    let ctx = EvalCtx {
        ds,
        pinned: &PrefetchedChunks::default(),
        text: &text,
    };
    eval_in(&ctx, expr, row)
}

/// Evaluate an expression for one row through an evaluation context
/// (dataset + any chunks the current task has pinned).
pub(super) fn eval_in(ctx: &EvalCtx<'_>, expr: &Expr, row: u64) -> Result<Value> {
    match expr {
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Array(values) => Ok(vector(Dtype::F64, values)),
        Expr::Column(name) => {
            let sample = ctx
                .get(name, row)
                .map_err(|_| TqlError::UnknownColumn(name.clone()))?;
            // text-htype columns are first-class strings: they compare and
            // sort lexicographically, not as byte tensors
            match ctx.text.contains(name).then(|| sample.to_text()).flatten() {
                Some(text) => Ok(Value::Str(text)),
                None => Ok(Value::Tensor(sample)),
            }
        }
        Expr::Subscript { base, specs } => match eval_in(ctx, base, row)? {
            Value::Tensor(t) => Ok(Value::Tensor(slice_sample(&t, specs)?)),
            other => Err(TqlError::Type(format!("cannot subscript {other:?}"))),
        },
        Expr::Call { name, args } => {
            // SHAPE(column) fast path: reads only the chunk directory, not
            // the payload (the paper's hidden-shape-tensor trick, §3.4)
            if let ("SHAPE", [Expr::Column(col)]) = (name.as_str(), args.as_slice()) {
                let shape = (ctx.ds.get_shape(col, row))
                    .map_err(|_| TqlError::UnknownColumn(col.clone()))?;
                let dims: Vec<f64> = shape.dims().iter().map(|&d| d as f64).collect();
                return Ok(vector(Dtype::I64, &dims));
            }
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                // IOU's string args are tensor references (paper Fig. 5:
                // IOU(boxes, "training/boxes"))
                values.push(match (name.as_str(), eval_in(ctx, a, row)?) {
                    ("IOU", Value::Str(col)) => Value::Tensor(
                        ctx.get(&col, row)
                            .map_err(|_| TqlError::UnknownColumn(col.clone()))?,
                    ),
                    (_, v) => v,
                });
            }
            functions::call(name, &values, row)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_in(ctx, left, row)?;
            if let BinOp::And | BinOp::Or = op {
                // AND stops at a false left side, OR at a true one
                if l.truthy() == (*op == BinOp::Or) {
                    return Ok(Value::Bool(l.truthy()));
                }
                return Ok(Value::Bool(eval_in(ctx, right, row)?.truthy()));
            }
            let r = eval_in(ctx, right, row)?;
            binary(*op, &l, &r)
        }
        Expr::Neg(inner) => match eval_in(ctx, inner, row)? {
            Value::Num(n) => Ok(Value::Num(-n)),
            Value::Tensor(t) => Ok(Value::Tensor(elementwise_scalar(&t, 0.0, |x, _| -x))),
            other => Err(TqlError::Type(format!("cannot negate {other:?}"))),
        },
        Expr::Not(inner) => Ok(Value::Bool(!eval_in(ctx, inner, row)?.truthy())),
    }
}

/// A rank-1 tensor of `values` as `dtype`.
fn vector(dtype: Dtype, values: &[f64]) -> Value {
    let shape = Shape::from([values.len() as u64]);
    Value::Tensor(deeplake_tensor::sample::from_f64_values(
        dtype, shape, values,
    ))
}

fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // strings compare as strings, and so does a text tensor against a
    // string literal (`text_col = "dog"`)
    fn text(v: &Value) -> Option<Cow<'_, str>> {
        match v {
            Value::Str(s) => Some(Cow::Borrowed(s)),
            Value::Tensor(t) => t.to_text().map(Cow::Owned),
            _ => None,
        }
    }
    if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
        if let (Some(a), Some(b)) = (text(l), text(r)) {
            let holds = compare(op, Some(a.cmp(&b)));
            let undefined = || TqlError::Type(format!("operator {op:?} not defined on strings"));
            return holds.map(Value::Bool).ok_or_else(undefined);
        }
    }
    let arith = matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
    );
    if let (true, Value::Tensor(a)) = (arith, l) {
        // tensor-tensor, else tensor-scalar elementwise arithmetic
        match (r, r.as_f64()) {
            (Value::Tensor(b), _) if a.num_elements() > 1 && b.num_elements() > 1 => {
                let out = elementwise(a, b, arith_fn(op))?;
                return Ok(Value::Tensor(out));
            }
            (_, Some(s)) if a.num_elements() > 1 => {
                let out = elementwise_scalar(a, s, arith_fn(op));
                return Ok(Value::Tensor(out));
            }
            _ => {}
        }
    }
    // scalar numeric
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(TqlError::Type(format!(
            "operator {op:?} not defined on {l:?} and {r:?}"
        )));
    };
    Ok(match compare(op, a.partial_cmp(&b)) {
        Some(holds) => Value::Bool(holds),
        None => Value::Num(arith_fn(op)(a, b)),
    })
}

/// Whether comparison `op` holds between operands that order as `ord`
/// (`None`: unordered, a NaN — only `!=` holds); `None` when `op` is not
/// a comparison.
fn compare(op: BinOp, ord: Option<Ordering>) -> Option<bool> {
    use Ordering::{Equal, Greater, Less};
    Some(match op {
        BinOp::Eq => ord == Some(Equal),
        BinOp::Ne => ord != Some(Equal),
        BinOp::Lt => ord == Some(Less),
        BinOp::Le => matches!(ord, Some(Less | Equal)),
        BinOp::Gt => ord == Some(Greater),
        BinOp::Ge => matches!(ord, Some(Greater | Equal)),
        _ => return None,
    })
}

fn arith_fn(op: BinOp) -> fn(f64, f64) -> f64 {
    match op {
        BinOp::Add => |x, y| x + y,
        BinOp::Sub => |x, y| x - y,
        BinOp::Mul => |x, y| x * y,
        BinOp::Div => |x, y| x / y,
        BinOp::Mod => |x, y| x % y,
        BinOp::And | BinOp::Or => unreachable!("handled short-circuit"),
        _ => unreachable!("compared, not computed"),
    }
}
