//! Bytecode representation and the compiler from the resolved AST.
//!
//! The original E-code emits native machine code at the publishing host;
//! this reproduction emits a compact bytecode for the stack VM in
//! [`crate::vm`]. The deployment workflow is identical — source string in,
//! executable artifact out, compiled once — and `bench/benches/ecode.rs`
//! quantifies the VM-vs-native execution gap as an ablation.

use crate::ast::{BinOp, Field, UnOp};
use crate::sema::{RExpr, RExprKind, RProgram, RStmt, RStmtKind};

/// One VM instruction. Jump targets are absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push an integer constant.
    ConstI(i64),
    /// Push a float constant.
    ConstF(f64),
    /// Push a local slot's value.
    Load(u16),
    /// Pop into a local slot.
    Store(u16),
    /// Pop, truncate toward zero if float, store into a local slot.
    StoreTrunc(u16),
    /// Pop index; push `input[index].field`.
    InputField(Field),
    /// Pop input index, pop output index; copy `input[i]` into
    /// `output[o]`.
    EmitRecord,
    /// Pop value, pop output index; overwrite a field of `output[o]`.
    EmitField(Field),
    /// Arithmetic (pop rhs, pop lhs, push result).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division when both ints).
    Div,
    /// Remainder.
    Rem,
    /// Comparison; pushes Int 0/1.
    CmpEq,
    /// `!=`
    CmpNe,
    /// `<`
    CmpLt,
    /// `<=`
    CmpLe,
    /// `>`
    CmpGt,
    /// `>=`
    CmpGe,
    /// Arithmetic negation.
    Neg,
    /// Logical not; pushes Int 0/1.
    Not,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump if zero.
    JumpIfFalse(u32),
    /// Jump if top of stack is zero, *without* popping (for `&&`).
    JumpIfFalsePeek(u32),
    /// Jump if top of stack is nonzero, *without* popping (for `||`).
    JumpIfTruePeek(u32),
    /// Pop and discard.
    Pop,
    /// Normalize top of stack to Int 0/1 by truthiness (C logical results).
    Truthy,
    /// Pop the accept value and stop.
    ReturnValue,
    /// Stop, accepting the outputs.
    ReturnVoid,
}

/// A compiled filter body.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Instruction stream.
    pub ops: Vec<Op>,
    /// Number of local slots.
    pub n_locals: u16,
}

impl Chunk {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the chunk has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Human-readable disassembly (one instruction per line).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{i:4}  {op:?}");
        }
        out
    }
}

/// Compile a resolved program to bytecode.
pub fn compile(prog: &RProgram) -> Chunk {
    let mut c = Compiler {
        ops: Vec::new(),
        loops: Vec::new(),
    };
    for stmt in &prog.body {
        c.stmt(stmt);
    }
    c.ops.push(Op::ReturnVoid);
    Chunk {
        ops: c.ops,
        n_locals: prog.n_locals,
    }
}

struct LoopCtx {
    /// Placeholder indices of `break` jumps to patch to the loop end.
    break_patches: Vec<usize>,
    /// Instruction index `continue` jumps to (the step / condition check).
    continue_target_patch: Vec<usize>,
}

struct Compiler {
    ops: Vec<Op>,
    loops: Vec<LoopCtx>,
}

impl Compiler {
    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Emit a jump with a dummy target; returns its index for patching.
    fn emit_patch(&mut self, make: fn(u32) -> Op) -> usize {
        self.ops.push(make(u32::MAX));
        self.ops.len() - 1
    }

    fn patch(&mut self, idx: usize, target: u32) {
        self.ops[idx] = match self.ops[idx] {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(target),
            Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(target),
            other => panic!("patching non-jump {other:?}"),
        };
    }

    fn stmt(&mut self, stmt: &RStmt) {
        match &stmt.kind {
            RStmtKind::Store {
                slot,
                value,
                truncate,
                ..
            } => {
                self.expr(value);
                self.ops.push(if *truncate {
                    Op::StoreTrunc(*slot)
                } else {
                    Op::Store(*slot)
                });
            }
            RStmtKind::OutputRecord { index, input_index } => {
                self.expr(index);
                self.expr(input_index);
                self.ops.push(Op::EmitRecord);
            }
            RStmtKind::OutputField {
                index,
                field,
                value,
            } => {
                self.expr(index);
                self.expr(value);
                self.ops.push(Op::EmitField(*field));
            }
            RStmtKind::If { cond, then, else_ } => {
                self.expr(cond);
                let to_else = self.emit_patch(Op::JumpIfFalse);
                for s in then {
                    self.stmt(s);
                }
                if else_.is_empty() {
                    let end = self.here();
                    self.patch(to_else, end);
                } else {
                    let to_end = self.emit_patch(Op::Jump);
                    let else_start = self.here();
                    self.patch(to_else, else_start);
                    for s in else_ {
                        self.stmt(s);
                    }
                    let end = self.here();
                    self.patch(to_end, end);
                }
            }
            RStmtKind::Loop {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                let check = self.here();
                let exit_patch = cond.as_ref().map(|c| {
                    self.expr(c);
                    self.emit_patch(Op::JumpIfFalse)
                });
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_target_patch: Vec::new(),
                });
                for s in body {
                    self.stmt(s);
                }
                // `continue` jumps land here, on the step.
                let step_at = self.here();
                if let Some(step) = step {
                    self.stmt(step);
                }
                self.ops.push(Op::Jump(check));
                let end = self.here();
                let ctx = self.loops.pop().expect("loop context");
                for p in ctx.break_patches {
                    self.patch(p, end);
                }
                for p in ctx.continue_target_patch {
                    self.patch(p, step_at);
                }
                if let Some(p) = exit_patch {
                    self.patch(p, end);
                }
            }
            RStmtKind::Return(value) => match value {
                Some(v) => {
                    self.expr(v);
                    self.ops.push(Op::ReturnValue);
                }
                None => self.ops.push(Op::ReturnVoid),
            },
            RStmtKind::Break => {
                let p = self.emit_patch(Op::Jump);
                self.loops
                    .last_mut()
                    .expect("break outside loop survived sema")
                    .break_patches
                    .push(p);
            }
            RStmtKind::Continue => {
                let p = self.emit_patch(Op::Jump);
                self.loops
                    .last_mut()
                    .expect("continue outside loop survived sema")
                    .continue_target_patch
                    .push(p);
            }
            RStmtKind::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
        }
    }

    fn expr(&mut self, expr: &RExpr) {
        match &expr.kind {
            RExprKind::ConstI(v) => self.ops.push(Op::ConstI(*v)),
            RExprKind::ConstF(v) => self.ops.push(Op::ConstF(*v)),
            RExprKind::Local(slot) => self.ops.push(Op::Load(*slot)),
            RExprKind::InputField(index, field) => {
                self.expr(index);
                self.ops.push(Op::InputField(*field));
            }
            RExprKind::Unary(op, inner) => {
                self.expr(inner);
                self.ops.push(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            RExprKind::Binary(BinOp::And, lhs, rhs) => {
                // Short-circuit, then normalize: C's `&&` yields 0 or 1.
                self.expr(lhs);
                let skip = self.emit_patch(Op::JumpIfFalsePeek);
                self.ops.push(Op::Pop);
                self.expr(rhs);
                let end = self.here();
                self.patch(skip, end);
                self.ops.push(Op::Truthy);
            }
            RExprKind::Binary(BinOp::Or, lhs, rhs) => {
                self.expr(lhs);
                let skip = self.emit_patch(Op::JumpIfTruePeek);
                self.ops.push(Op::Pop);
                self.expr(rhs);
                let end = self.here();
                self.patch(skip, end);
                self.ops.push(Op::Truthy);
            }
            RExprKind::Binary(op, lhs, rhs) => {
                self.expr(lhs);
                self.expr(rhs);
                self.ops.push(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Rem => Op::Rem,
                    BinOp::Eq => Op::CmpEq,
                    BinOp::Ne => Op::CmpNe,
                    BinOp::Lt => Op::CmpLt,
                    BinOp::Le => Op::CmpLe,
                    BinOp::Gt => Op::CmpGt,
                    BinOp::Ge => Op::CmpGe,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EnvSpec;
    use crate::parser::parse;
    use crate::sema::analyze;

    fn chunk(src: &str) -> Chunk {
        let env = EnvSpec::new(["A", "B"]);
        compile(&analyze(&parse(src).unwrap(), &env).unwrap())
    }

    #[test]
    fn straight_line_code() {
        let c = chunk("{ int x = 1; x = x + 2; }");
        assert_eq!(
            c.ops,
            vec![
                Op::ConstI(1),
                Op::Store(0),
                Op::Load(0),
                Op::ConstI(2),
                Op::Add,
                Op::Store(0),
                Op::ReturnVoid,
            ]
        );
        assert_eq!(c.n_locals, 1);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn if_without_else_jumps_past_then() {
        let c = chunk("{ int x = 0; if (x > 1) x = 2; }");
        // find the conditional jump and check it targets the final return
        let jif = c
            .ops
            .iter()
            .position(|op| matches!(op, Op::JumpIfFalse(_)))
            .unwrap();
        let Op::JumpIfFalse(target) = c.ops[jif] else {
            unreachable!()
        };
        assert_eq!(target as usize, c.ops.len() - 1, "jumps to ReturnVoid");
    }

    #[test]
    fn if_else_has_two_jumps() {
        let c = chunk("{ int x = 0; if (x > 1) x = 2; else x = 3; }");
        assert!(c.ops.iter().any(|op| matches!(op, Op::Jump(_))));
        assert!(c.ops.iter().any(|op| matches!(op, Op::JumpIfFalse(_))));
    }

    #[test]
    fn and_emits_peek_jump() {
        let c = chunk("{ int x = 1 && 0; }");
        assert!(c.ops.iter().any(|op| matches!(op, Op::JumpIfFalsePeek(_))));
    }

    #[test]
    fn or_emits_peek_jump() {
        let c = chunk("{ int x = 0 || 1; }");
        assert!(c.ops.iter().any(|op| matches!(op, Op::JumpIfTruePeek(_))));
    }

    #[test]
    fn loop_back_edge_exists() {
        let c = chunk("{ for (int i = 0; i < 3; i = i + 1) { } }");
        // The last op before ReturnVoid is the back-edge Jump.
        let back = c
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Jump(t) => Some(*t),
                _ => None,
            })
            .next()
            .expect("back edge");
        assert!((back as usize) < c.ops.len());
    }

    #[test]
    fn no_unpatched_jumps_anywhere() {
        for src in [
            "{ for (int i = 0; i < 3; i = i + 1) { if (i == 1) continue; if (i == 2) break; } }",
            "{ while (1) { break; } }",
            "{ int a = 1 && 2 || 0; if (a) { a = 0; } else { a = 1; } }",
        ] {
            let c = chunk(src);
            for op in &c.ops {
                let target = match op {
                    Op::Jump(t)
                    | Op::JumpIfFalse(t)
                    | Op::JumpIfFalsePeek(t)
                    | Op::JumpIfTruePeek(t) => *t,
                    _ => continue,
                };
                assert!(
                    (target as usize) <= c.ops.len(),
                    "unpatched or wild jump in {src}: {op:?}"
                );
                assert_ne!(target, u32::MAX, "unpatched jump in {src}");
            }
        }
    }

    #[test]
    fn emit_ops_for_outputs() {
        let c = chunk("{ output[0] = input[A]; output[0].value = 1.5; }");
        assert!(c.ops.contains(&Op::EmitRecord));
        assert!(c
            .ops
            .iter()
            .any(|op| matches!(op, Op::EmitField(crate::ast::Field::Value))));
    }

    #[test]
    fn disassembly_lists_all_ops() {
        let c = chunk("{ int x = 1; }");
        let d = c.disassemble();
        assert_eq!(d.lines().count(), c.len());
        assert!(d.contains("ConstI(1)"));
    }
}
