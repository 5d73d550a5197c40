//! Static worst-case instruction-cost bounds.
//!
//! The VM charges one budget unit per logical instruction — one per
//! AST-level operation, however [`crate::bytecode`] fuses or converts —
//! so a sound cost bound is a count of them along the worst path, with
//! loops multiplied by an inferred trip count (e.g. an `if` with an
//! `else` pays one extra `Jump` on the then-path; a loop pays its
//! condition once more than its body). Loops must be *affine*: an
//! integer induction variable with a known entry value, stepped by a
//! nonzero constant exactly once per iteration, compared against a
//! loop-invariant constant. Anything else — `while (1)`, float
//! induction, conditional increments, increments skippable by
//! `continue` — yields [`CostBound::Unbounded`] with the offending
//! position, and the deployment layer refuses the filter.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::BinOp;
use crate::sema::{RExpr, RExprKind, RProgram, RStmt, RStmtKind};
use crate::token::Pos;

/// Result of cost certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostBound {
    /// Worst-case VM instruction count (saturating).
    Bounded(u64),
    /// No finite bound could be proven.
    Unbounded {
        /// Position of the construct that defeated the analysis.
        pos: Pos,
        /// Why.
        reason: String,
    },
}

/// Bound guaranteeing no i64 wraparound in induction arithmetic: entry
/// value, limit, and step must all fit in +/-2^31.
const AFFINE_MAG: i128 = 1 << 31;

type ConstEnv = BTreeMap<u16, i64>;
type Unbound = (Pos, String);

/// Compute the worst-case instruction bound of a **folded** program.
pub fn bound_program(prog: &RProgram) -> CostBound {
    let mut env = ConstEnv::new();
    match cost_stmts(&prog.body, &mut env) {
        // +1 for the trailing ReturnVoid the compiler always appends.
        Ok(c) => CostBound::Bounded(c.saturating_add(1)),
        Err((pos, reason)) => CostBound::Unbounded { pos, reason },
    }
}

fn cost_stmts(stmts: &[RStmt], env: &mut ConstEnv) -> Result<u64, Unbound> {
    let mut total: u64 = 0;
    for s in stmts {
        total = total.saturating_add(cost_stmt(s, env)?);
    }
    Ok(total)
}

fn cost_stmt(stmt: &RStmt, env: &mut ConstEnv) -> Result<u64, Unbound> {
    match &stmt.kind {
        RStmtKind::Store {
            slot,
            value,
            truncate,
            ..
        } => {
            let c = expr_cost(value);
            match (!truncate).then(|| eval_const(value, env)).flatten() {
                Some(v) => {
                    env.insert(*slot, v);
                }
                None => {
                    env.remove(slot);
                }
            }
            Ok(c.saturating_add(1))
        }
        RStmtKind::OutputRecord { index, input_index } => Ok(expr_cost(index)
            .saturating_add(expr_cost(input_index))
            .saturating_add(1)),
        RStmtKind::OutputField { index, value, .. } => Ok(expr_cost(index)
            .saturating_add(expr_cost(value))
            .saturating_add(1)),
        RStmtKind::If { cond, then, else_ } => {
            let mut env_then = env.clone();
            let mut then_cost = cost_stmts(then, &mut env_then)?;
            if !else_.is_empty() {
                // The then-path executes one extra Jump over the else.
                then_cost = then_cost.saturating_add(1);
            }
            let else_cost = cost_stmts(else_, env)?;
            // Keep only facts both branches agree on.
            env.retain(|slot, v| env_then.get(slot).copied() == Some(*v));
            Ok(expr_cost(cond)
                .saturating_add(1) // JumpIfFalse
                .saturating_add(then_cost.max(else_cost)))
        }
        RStmtKind::Loop {
            init,
            cond,
            step,
            body,
        } => cost_loop(
            stmt.pos,
            init.as_deref(),
            cond.as_ref(),
            step.as_deref(),
            body,
            env,
        ),
        RStmtKind::Return(value) => Ok(value.as_ref().map_or(0, expr_cost).saturating_add(1)),
        RStmtKind::Break | RStmtKind::Continue => Ok(1),
        RStmtKind::Block(body) => cost_stmts(body, env),
    }
}

#[allow(clippy::too_many_lines)]
fn cost_loop(
    pos: Pos,
    init: Option<&RStmt>,
    cond: Option<&RExpr>,
    step: Option<&RStmt>,
    body: &[RStmt],
    env: &mut ConstEnv,
) -> Result<u64, Unbound> {
    let init_cost = match init {
        Some(init) => cost_stmt(init, env)?,
        None => 0,
    };
    let Some(cond) = cond else {
        return Err((pos, "loop has no exit condition".to_string()));
    };

    // Slots mutated anywhere inside the loop are not invariant.
    let mut assigned = BTreeSet::new();
    collect_stores(body, &mut assigned);
    if let Some(step) = step {
        collect_stores(std::slice::from_ref(step), &mut assigned);
    }
    let mut invariant = env.clone();
    invariant.retain(|slot, _| !assigned.contains(slot));

    // A truthy constant condition can only be exited via `break`, which
    // the bound does not credit — `while (1) { ... }` is uncertifiable. A
    // falsy one means the body never runs: pay init plus one check.
    let const_cond = match &cond.kind {
        RExprKind::ConstI(v) => Some(*v != 0),
        RExprKind::ConstF(v) => Some(*v != 0.0),
        _ => None,
    };
    if let Some(truthy) = const_cond {
        if truthy {
            return Err((
                cond.pos,
                "loop condition is a constant and never becomes false".to_string(),
            ));
        }
        return Ok(init_cost.saturating_add(expr_cost(cond)).saturating_add(1));
    }

    // Recognize `slot CMP limit` (or reversed) with a loop-invariant
    // constant limit.
    let (op, slot, limit) = match &cond.kind {
        RExprKind::Binary(op, l, r) => match (&l.kind, &r.kind) {
            (RExprKind::Local(s), _) if assigned.contains(s) => match eval_const(r, &invariant) {
                Some(k) => (*op, *s, k),
                None => {
                    return Err((
                        cond.pos,
                        "loop limit is not a loop-invariant constant".to_string(),
                    ))
                }
            },
            (_, RExprKind::Local(s)) if assigned.contains(s) => match eval_const(l, &invariant) {
                Some(k) => (flip(*op), *s, k),
                None => {
                    return Err((
                        cond.pos,
                        "loop limit is not a loop-invariant constant".to_string(),
                    ))
                }
            },
            _ => {
                return Err((
                    cond.pos,
                    "loop condition is not an induction-variable comparison".to_string(),
                ))
            }
        },
        _ => {
            return Err((
                cond.pos,
                "loop condition is not an induction-variable comparison".to_string(),
            ))
        }
    };

    let Some(entry) = env.get(&slot).copied() else {
        return Err((
            cond.pos,
            "induction variable has no known constant entry value".to_string(),
        ));
    };

    // Exactly one store to the induction variable, stepping it by a
    // nonzero constant. It must run on every iteration: either it is the
    // loop step (which `continue` still reaches), or it is a top-level
    // body statement in a body with no `continue`.
    let delta = find_affine_step(slot, step, body, &invariant, cond.pos)?;

    let trips = trip_count(op, entry as i128, limit as i128, delta as i128).ok_or_else(|| {
        (
            cond.pos,
            format!("induction from {entry} step {delta} never crosses limit {limit}"),
        )
    })?;

    // Cost the body/step with invariant-only facts (nested loops may
    // rely on them; mutated slots must not be trusted).
    let mut inner = invariant.clone();
    let body_cost = cost_stmts(body, &mut inner)?;
    let step_cost = match step {
        Some(step) => cost_stmt(step, &mut inner)?,
        None => 0,
    };

    // T trips execute: (T+1) condition checks (+JumpIfFalse), T bodies,
    // T steps, T back-edge Jumps.
    let per_check = expr_cost(cond).saturating_add(1);
    let per_iter = body_cost.saturating_add(step_cost).saturating_add(1);
    let total = init_cost
        .saturating_add(per_check.saturating_mul(trips.saturating_add(1)))
        .saturating_add(per_iter.saturating_mul(trips));

    // After the loop, only invariant facts survive.
    env.retain(|slot, _| !assigned.contains(slot));
    Ok(total)
}

/// Find the single affine step of the induction variable and return its
/// per-iteration delta.
fn find_affine_step(
    slot: u16,
    step: Option<&RStmt>,
    body: &[RStmt],
    invariant: &ConstEnv,
    cond_pos: Pos,
) -> Result<i64, Unbound> {
    let mut stores_in_body = BTreeSet::new();
    collect_stores(body, &mut stores_in_body);
    let mut stores_in_step = BTreeSet::new();
    if let Some(step) = step {
        collect_stores(std::slice::from_ref(step), &mut stores_in_step);
    }
    let in_body = stores_in_body.contains(&slot);
    let in_step = stores_in_step.contains(&slot);

    let candidate: &RStmt = match (in_step, in_body) {
        (true, false) => step.expect("store set nonempty implies step present"),
        (false, true) => {
            if contains_continue(body) {
                return Err((
                    cond_pos,
                    "`continue` may skip the induction-variable update".to_string(),
                ));
            }
            // Must be a top-level statement of the body (not conditional).
            body.iter()
                .find(|s| matches!(&s.kind, RStmtKind::Store { slot: st, .. } if *st == slot))
                .ok_or_else(|| {
                    (
                        cond_pos,
                        "induction-variable update is conditional".to_string(),
                    )
                })?
        }
        (true, true) => {
            return Err((
                cond_pos,
                "induction variable is updated more than once per iteration".to_string(),
            ))
        }
        (false, false) => {
            return Err((
                cond_pos,
                "loop condition reads a variable the loop never updates".to_string(),
            ))
        }
    };
    // The update must be the only store to the slot inside its container;
    // count them.
    let mut count = 0usize;
    count_stores_to(body, slot, &mut count);
    if let Some(step) = step {
        count_stores_to(std::slice::from_ref(step), slot, &mut count);
    }
    if count != 1 {
        return Err((
            cond_pos,
            "induction variable is updated more than once per iteration".to_string(),
        ));
    }

    let RStmtKind::Store {
        value, truncate, ..
    } = &candidate.kind
    else {
        return Err((
            cond_pos,
            "induction-variable update is not a store".to_string(),
        ));
    };
    if *truncate {
        return Err((
            candidate.pos,
            "induction variable is stepped through a float truncation".to_string(),
        ));
    }
    let delta = match &value.kind {
        RExprKind::Binary(BinOp::Add, l, r) => match (&l.kind, &r.kind) {
            (RExprKind::Local(s), _) if *s == slot => eval_const(r, invariant),
            (_, RExprKind::Local(s)) if *s == slot => eval_const(l, invariant),
            _ => None,
        },
        RExprKind::Binary(BinOp::Sub, l, r) => match &l.kind {
            RExprKind::Local(s) if *s == slot => eval_const(r, invariant).map(|v| -v),
            _ => None,
        },
        _ => None,
    };
    match delta {
        Some(d) if d != 0 => Ok(d),
        Some(_) => Err((
            candidate.pos,
            "induction variable is stepped by zero".to_string(),
        )),
        None => Err((
            candidate.pos,
            "induction-variable update is not `var = var +/- constant`".to_string(),
        )),
    }
}

/// Trip count of `for (s = entry; s OP limit; s += delta)`, or `None`
/// when the loop provably never terminates (or could only terminate by
/// wrapping, which the magnitude guard excludes).
fn trip_count(op: BinOp, entry: i128, limit: i128, delta: i128) -> Option<u64> {
    if entry.abs() > AFFINE_MAG || limit.abs() > AFFINE_MAG || delta.abs() > AFFINE_MAG {
        return None;
    }
    let t = |x: i128| -> Option<u64> { u64::try_from(x.max(0)).ok() };
    let ceil_div = |a: i128, b: i128| (a + b - 1) / b;
    match op {
        BinOp::Lt => {
            if entry >= limit {
                Some(0)
            } else if delta > 0 {
                t(ceil_div(limit - entry, delta))
            } else {
                None
            }
        }
        BinOp::Le => {
            if entry > limit {
                Some(0)
            } else if delta > 0 {
                t((limit - entry) / delta + 1)
            } else {
                None
            }
        }
        BinOp::Gt => {
            if entry <= limit {
                Some(0)
            } else if delta < 0 {
                t(ceil_div(entry - limit, -delta))
            } else {
                None
            }
        }
        BinOp::Ge => {
            if entry < limit {
                Some(0)
            } else if delta < 0 {
                t((entry - limit) / (-delta) + 1)
            } else {
                None
            }
        }
        BinOp::Ne => {
            let diff = limit - entry;
            if diff == 0 {
                Some(0)
            } else if diff % delta == 0 && diff / delta > 0 {
                t(diff / delta)
            } else {
                None
            }
        }
        BinOp::Eq => Some(u64::from(entry == limit)),
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn collect_stores(stmts: &[RStmt], out: &mut BTreeSet<u16>) {
    for s in stmts {
        match &s.kind {
            RStmtKind::Store { slot, .. } => {
                out.insert(*slot);
            }
            RStmtKind::If { then, else_, .. } => {
                collect_stores(then, out);
                collect_stores(else_, out);
            }
            RStmtKind::Loop {
                init, step, body, ..
            } => {
                if let Some(init) = init {
                    collect_stores(std::slice::from_ref(init), out);
                }
                if let Some(step) = step {
                    collect_stores(std::slice::from_ref(step), out);
                }
                collect_stores(body, out);
            }
            RStmtKind::Block(body) => collect_stores(body, out),
            _ => {}
        }
    }
}

fn count_stores_to(stmts: &[RStmt], slot: u16, out: &mut usize) {
    for s in stmts {
        match &s.kind {
            RStmtKind::Store { slot: st, .. } if *st == slot => {
                *out += 1;
            }
            RStmtKind::If { then, else_, .. } => {
                count_stores_to(then, slot, out);
                count_stores_to(else_, slot, out);
            }
            RStmtKind::Loop {
                init, step, body, ..
            } => {
                if let Some(init) = init {
                    count_stores_to(std::slice::from_ref(init), slot, out);
                }
                if let Some(step) = step {
                    count_stores_to(std::slice::from_ref(step), slot, out);
                }
                count_stores_to(body, slot, out);
            }
            RStmtKind::Block(body) => count_stores_to(body, slot, out),
            _ => {}
        }
    }
}

fn contains_continue(stmts: &[RStmt]) -> bool {
    stmts.iter().any(|s| match &s.kind {
        RStmtKind::Continue => true,
        RStmtKind::If { then, else_, .. } => contains_continue(then) || contains_continue(else_),
        RStmtKind::Block(body) => contains_continue(body),
        // `continue` inside a nested loop targets that loop, not ours.
        _ => false,
    })
}

/// Evaluate an integer-constant expression under known slot constants.
fn eval_const(e: &RExpr, env: &ConstEnv) -> Option<i64> {
    match &e.kind {
        RExprKind::ConstI(v) => Some(*v),
        RExprKind::Local(slot) => env.get(slot).copied(),
        RExprKind::Unary(crate::ast::UnOp::Neg, inner) => {
            eval_const(inner, env).map(i64::wrapping_neg)
        }
        RExprKind::Binary(op, l, r) => {
            let a = eval_const(l, env)?;
            let b = eval_const(r, env)?;
            match op {
                BinOp::Add => Some(a.wrapping_add(b)),
                BinOp::Sub => Some(a.wrapping_sub(b)),
                BinOp::Mul => Some(a.wrapping_mul(b)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Worst-case logical instruction count of evaluating an expression.
pub fn expr_cost(e: &RExpr) -> u64 {
    match &e.kind {
        RExprKind::ConstI(_) | RExprKind::ConstF(_) | RExprKind::Local(_) => 1,
        RExprKind::InputField(index, _) => expr_cost(index).saturating_add(1),
        RExprKind::Unary(_, inner) => expr_cost(inner).saturating_add(1),
        RExprKind::Binary(op, l, r) => {
            let base = expr_cost(l).saturating_add(expr_cost(r));
            match op {
                // Worst path: lhs, peek-jump, pop, rhs, truthy.
                BinOp::And | BinOp::Or => base.saturating_add(3),
                _ => base.saturating_add(1),
            }
        }
    }
}
