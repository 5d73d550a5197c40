//! Constant folding and dead-branch elimination on the resolved AST.
//!
//! Filters compile once and run on every polling iteration, per
//! subscriber, so shaving instructions matters. This pass:
//!
//! * folds constant arithmetic, comparisons, and logical operations
//!   (respecting C semantics: integer wrapping, promotion, short-circuit
//!   normalization to 0/1),
//! * leaves constant division/modulo *by zero* unfolded so the runtime
//!   error still fires at the right moment,
//! * prunes `if` branches with constant conditions and loops whose
//!   condition is constant-false,
//! * runs automatically inside [`crate::Filter::compile`]; correctness is
//!   pinned by the `folding_preserves_semantics` tests and the
//!   workspace-level property tests (the VM result of a folded program
//!   must match the unfolded one).

use crate::ast::{BinOp, Ty, UnOp};
use crate::sema::{RExpr, RExprKind, RProgram, RStmt, RStmtKind};
use crate::token::Pos;

/// Fold a whole program.
pub fn fold_program(prog: RProgram) -> RProgram {
    RProgram {
        body: prog.body.into_iter().flat_map(fold_stmt).collect(),
        n_locals: prog.n_locals,
        slot_names: prog.slot_names,
    }
}

/// A constant value extracted from a folded expression.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Const {
    I(i64),
    F(f64),
}

impl Const {
    fn truthy(self) -> bool {
        match self {
            Const::I(v) => v != 0,
            Const::F(v) => v != 0.0,
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Const::I(v) => v as f64,
            Const::F(v) => v,
        }
    }

    fn to_expr(self, pos: Pos) -> RExpr {
        match self {
            Const::I(v) => RExpr {
                pos,
                ty: Ty::Int,
                kind: RExprKind::ConstI(v),
            },
            Const::F(v) => RExpr {
                pos,
                ty: Ty::Double,
                kind: RExprKind::ConstF(v),
            },
        }
    }
}

fn as_const(e: &RExpr) -> Option<Const> {
    match e.kind {
        RExprKind::ConstI(v) => Some(Const::I(v)),
        RExprKind::ConstF(v) => Some(Const::F(v)),
        _ => None,
    }
}

fn fold_stmt(stmt: RStmt) -> Vec<RStmt> {
    let pos = stmt.pos;
    let rebuild = |kind: RStmtKind| RStmt { pos, kind };
    match stmt.kind {
        RStmtKind::Store {
            slot,
            value,
            truncate,
            widen,
            synthetic,
        } => {
            let value = fold_expr(value);
            // A constant double stored into an int slot can truncate now.
            if truncate {
                if let Some(c) = as_const(&value) {
                    let vpos = value.pos;
                    return vec![rebuild(RStmtKind::Store {
                        slot,
                        value: Const::I(c.as_f64().trunc() as i64).to_expr(vpos),
                        truncate: false,
                        widen,
                        synthetic,
                    })];
                }
            }
            vec![rebuild(RStmtKind::Store {
                slot,
                value,
                truncate,
                widen,
                synthetic,
            })]
        }
        RStmtKind::OutputRecord { index, input_index } => {
            vec![rebuild(RStmtKind::OutputRecord {
                index: fold_expr(index),
                input_index: fold_expr(input_index),
            })]
        }
        RStmtKind::OutputField {
            index,
            field,
            value,
        } => vec![rebuild(RStmtKind::OutputField {
            index: fold_expr(index),
            field,
            value: fold_expr(value),
        })],
        RStmtKind::If { cond, then, else_ } => {
            let cond = fold_expr(cond);
            let then: Vec<RStmt> = then.into_iter().flat_map(fold_stmt).collect();
            let else_: Vec<RStmt> = else_.into_iter().flat_map(fold_stmt).collect();
            match as_const(&cond) {
                Some(c) => {
                    if c.truthy() {
                        then
                    } else {
                        else_
                    }
                }
                None => vec![rebuild(RStmtKind::If { cond, then, else_ })],
            }
        }
        RStmtKind::Loop {
            init,
            cond,
            step,
            body,
        } => {
            let init = init.map(|s| Box::new(first_or_block(fold_stmt(*s), pos)));
            let cond = cond.map(fold_expr);
            let step = step.map(|s| Box::new(first_or_block(fold_stmt(*s), pos)));
            let body: Vec<RStmt> = body.into_iter().flat_map(fold_stmt).collect();
            // A constant-false condition never enters the loop; the init
            // still runs (its declaration scopes away, but side effects on
            // outer slots are impossible for a decl — keep it for slot
            // initialization consistency).
            if let Some(c) = cond.as_ref().and_then(as_const) {
                if !c.truthy() {
                    return match init {
                        Some(init) => vec![*init],
                        None => Vec::new(),
                    };
                }
            }
            vec![rebuild(RStmtKind::Loop {
                init,
                cond,
                step,
                body,
            })]
        }
        RStmtKind::Return(value) => vec![rebuild(RStmtKind::Return(value.map(fold_expr)))],
        RStmtKind::Break => vec![rebuild(RStmtKind::Break)],
        RStmtKind::Continue => vec![rebuild(RStmtKind::Continue)],
        RStmtKind::Block(body) => {
            let body: Vec<RStmt> = body.into_iter().flat_map(fold_stmt).collect();
            if body.is_empty() {
                Vec::new()
            } else {
                vec![rebuild(RStmtKind::Block(body))]
            }
        }
    }
}

fn first_or_block(mut stmts: Vec<RStmt>, pos: Pos) -> RStmt {
    if stmts.len() == 1 {
        stmts.remove(0)
    } else {
        RStmt {
            pos,
            kind: RStmtKind::Block(stmts),
        }
    }
}

fn fold_expr(e: RExpr) -> RExpr {
    let (pos, ty) = (e.pos, e.ty);
    match e.kind {
        RExprKind::ConstI(_) | RExprKind::ConstF(_) | RExprKind::Local(_) => e,
        RExprKind::InputField(index, field) => RExpr {
            pos,
            ty,
            kind: RExprKind::InputField(Box::new(fold_expr(*index)), field),
        },
        RExprKind::Unary(op, inner) => {
            let inner = fold_expr(*inner);
            if let Some(c) = as_const(&inner) {
                let folded = match (op, c) {
                    (UnOp::Neg, Const::I(v)) => Const::I(v.wrapping_neg()),
                    (UnOp::Neg, Const::F(v)) => Const::F(-v),
                    (UnOp::Not, c) => Const::I(!c.truthy() as i64),
                };
                return folded.to_expr(pos);
            }
            RExpr {
                pos,
                ty,
                kind: RExprKind::Unary(op, Box::new(inner)),
            }
        }
        RExprKind::Binary(op, lhs, rhs) => {
            let lhs = fold_expr(*lhs);
            let rhs = fold_expr(*rhs);
            // Short-circuit folding needs only the lhs.
            if matches!(op, BinOp::And | BinOp::Or) {
                if let Some(l) = as_const(&lhs) {
                    return match (op, l.truthy()) {
                        (BinOp::And, false) => Const::I(0).to_expr(pos),
                        (BinOp::Or, true) => Const::I(1).to_expr(pos),
                        // `const_true && rhs` = truthiness of rhs; fold if
                        // rhs is constant too, else keep the normalization.
                        _ => match as_const(&rhs) {
                            Some(r) => Const::I(r.truthy() as i64).to_expr(pos),
                            None => RExpr {
                                pos,
                                ty,
                                kind: RExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                            },
                        },
                    };
                }
            }
            if let (Some(l), Some(r)) = (as_const(&lhs), as_const(&rhs)) {
                if let Some(folded) = fold_binary(op, l, r) {
                    return folded.to_expr(pos);
                }
            }
            RExpr {
                pos,
                ty,
                kind: RExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
            }
        }
    }
}

fn fold_binary(op: BinOp, l: Const, r: Const) -> Option<Const> {
    use BinOp::*;
    // Integer lane when both are ints, float lane otherwise — mirroring
    // the VM exactly.
    if let (Const::I(a), Const::I(b)) = (l, r) {
        return Some(match op {
            Add => Const::I(a.wrapping_add(b)),
            Sub => Const::I(a.wrapping_sub(b)),
            Mul => Const::I(a.wrapping_mul(b)),
            Div => {
                if b == 0 {
                    return None; // keep the runtime error
                }
                Const::I(a.wrapping_div(b))
            }
            Rem => {
                if b == 0 {
                    return None;
                }
                Const::I(a.wrapping_rem(b))
            }
            Eq => Const::I((a == b) as i64),
            Ne => Const::I((a != b) as i64),
            Lt => Const::I((a < b) as i64),
            Le => Const::I((a <= b) as i64),
            Gt => Const::I((a > b) as i64),
            Ge => Const::I((a >= b) as i64),
            And => Const::I((a != 0 && b != 0) as i64),
            Or => Const::I((a != 0 || b != 0) as i64),
        });
    }
    let (a, b) = (l.as_f64(), r.as_f64());
    Some(match op {
        Add => Const::F(a + b),
        Sub => Const::F(a - b),
        Mul => Const::F(a * b),
        Div => Const::F(a / b),
        Rem => Const::F(a % b),
        Eq => Const::I((a == b) as i64),
        Ne => Const::I((a != b) as i64),
        Lt => Const::I((a < b) as i64),
        Le => Const::I((a <= b) as i64),
        Gt => Const::I((a > b) as i64),
        Ge => Const::I((a >= b) as i64),
        And => Const::I((a != 0.0 && b != 0.0) as i64),
        Or => Const::I((a != 0.0 || b != 0.0) as i64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile, Op};
    use crate::filter::{EnvSpec, MetricRecord};
    use crate::parser::parse;
    use crate::sema::analyze;
    use crate::vm;

    fn env() -> EnvSpec {
        EnvSpec::new(["A", "B"])
    }

    fn folded_chunk(src: &str) -> crate::bytecode::Chunk {
        compile(&fold_program(
            analyze(&parse(src).unwrap(), &env()).unwrap(),
        ))
    }

    fn unfolded_chunk(src: &str) -> crate::bytecode::Chunk {
        compile(&analyze(&parse(src).unwrap(), &env()).unwrap())
    }

    fn run_both(src: &str) -> (crate::FilterOutput, crate::FilterOutput) {
        let inputs = [MetricRecord::new(0, 3.5), MetricRecord::new(1, -2.0)];
        let a = vm::run(&unfolded_chunk(src), &inputs, 100_000).unwrap();
        let b = vm::run(&folded_chunk(src), &inputs, 100_000).unwrap();
        (a, b)
    }

    #[test]
    fn arithmetic_folds_to_single_const() {
        let c = folded_chunk("{ int x = 2 + 3 * 4 - 1; }");
        assert_eq!(
            c.ops,
            vec![Op::Block(3), Op::ConstI(13), Op::Store(0), Op::ReturnVoid]
        );
    }

    #[test]
    fn float_promotion_folds() {
        let c = folded_chunk("{ double d = 1 + 0.5; }");
        assert_eq!(
            c.ops,
            vec![Op::Block(3), Op::ConstF(1.5), Op::Store(0), Op::ReturnVoid]
        );
    }

    #[test]
    fn constant_truncation_folds() {
        let c = folded_chunk("{ int x = 7.9; }");
        assert_eq!(
            c.ops,
            vec![Op::Block(3), Op::ConstI(7), Op::Store(0), Op::ReturnVoid]
        );
    }

    #[test]
    fn division_by_zero_stays_runtime() {
        let c = folded_chunk("{ int x = 1 / 0; }");
        assert!(
            c.ops.contains(&Op::BinI(BinOp::Div)),
            "kept for the runtime error"
        );
        let err = vm::run(
            &c,
            &[MetricRecord::new(0, 0.0), MetricRecord::new(1, 0.0)],
            100,
        )
        .unwrap_err();
        assert_eq!(err, crate::RuntimeError::DivisionByZero);
    }

    #[test]
    fn dead_if_branches_pruned() {
        let c = folded_chunk("{ int x = 0; if (1 < 2) { x = 1; } else { x = 2; } }");
        assert!(!c.ops.iter().any(|op| matches!(op, Op::JumpIfFalse(_))));
        assert!(c.ops.contains(&Op::ConstI(1)));
        assert!(!c.ops.contains(&Op::ConstI(2)));
    }

    #[test]
    fn false_loop_disappears() {
        let c = folded_chunk("{ int s = 0; while (0) { s = s + 1; } }");
        assert!(!c.ops.iter().any(|op| matches!(op, Op::Jump(_))));
    }

    #[test]
    fn short_circuit_constants_fold() {
        let c = folded_chunk("{ int a = 0 && 1; int b = 1 || 0; int c = 2 && 3; }");
        let consts: Vec<i64> = c
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::ConstI(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![0, 1, 1], "normalized to 0/1");
    }

    #[test]
    fn non_constant_parts_survive() {
        let c = folded_chunk("{ double v = input[A].value * (2 + 3); }");
        assert!(c.ops.contains(&Op::ConstF(5.0)), "folded, then promoted");
        assert!(c.ops.contains(&Op::BinF(BinOp::Mul)));
        assert!(c.ops.iter().any(|op| matches!(op, Op::InputK(..))));
    }

    #[test]
    fn folding_preserves_semantics() {
        for src in [
            "{ int x = 2 + 3; output[0] = input[A]; output[0].value = x; }",
            "{ if (1 && input[A].value > 2.0) { output[0] = input[B]; } }",
            "{ int s = 0; for (int i = 0; i < 4 * 2; i = i + 1) { s = s + i; } output[0] = input[A]; output[0].value = s; }",
            "{ double d = -(3.0 * 2.0) / 4.0; output[0] = input[A]; output[0].value = d; }",
            "{ int x = !0 + !5; output[0] = input[A]; output[0].value = x; }",
            "{ while (0) { output[0] = input[A]; } }",
            "{ if (0) { output[0] = input[A]; } else { output[0] = input[B]; } }",
        ] {
            let (unopt, opt) = run_both(src);
            assert_eq!(unopt.records(), opt.records(), "src: {src}");
            assert_eq!(unopt.accept(), opt.accept(), "src: {src}");
        }
    }

    #[test]
    fn folding_never_increases_instructions() {
        for (src, env4) in [
            (crate::filter::FIG3_SOURCE, crate::filter::fig3_env()),
            ("{ int x = 1 + 2 + 3 + 4; }", env()),
            (
                "{ if (input[A].value > 1.0) { output[0] = input[A]; } }",
                env(),
            ),
        ] {
            let parsed = parse(src).unwrap();
            let resolved = analyze(&parsed, &env4).unwrap();
            let plain = compile(&resolved).len();
            let opt = compile(&fold_program(resolved)).len();
            assert!(opt <= plain, "{src}: {opt} > {plain}");
        }
    }
}
