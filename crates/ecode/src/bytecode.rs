//! Typed bytecode and the compiler from the resolved AST.
//!
//! The original E-code emits native machine code at the publishing host;
//! this reproduction emits a compact bytecode for the stack VM in
//! [`crate::vm`]. The deployment workflow is identical — source string in,
//! executable artifact out, compiled once.
//!
//! The code is typed and pre-checked, so the VM runs it without guards.
//! Sema typed every expression, so each op is `int` or `double` (a
//! conversion is an op of its own, or folded into a constant), and a
//! stack slot is untagged bits. The maximum stack depth is counted here
//! ([`Chunk::max_stack`]). And the budget is charged once per basic block:
//! every block opens with [`Op::Block`], whose weight is the block's count
//! of *logical* instructions — the ops the untyped stack machine this
//! replaced executed, which [`crate::analysis::cost`] bounds and d-mon
//! charges as CPU. Conversions weigh nothing, and a fused op weighs as
//! many as it replaces, so `executed` is the same count it always was.

use crate::ast::{BinOp, Field, Ty, UnOp};
use crate::sema::{RExpr, RExprKind, RProgram, RStmt, RStmtKind};

/// Whether comparison `op` holds between `a` and `b`.
#[inline(always)]
pub(crate) fn holds<T: PartialOrd>(op: BinOp, a: T, b: T) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// One VM instruction. Jump targets are absolute instruction indices and
/// always land on an [`Op::Block`]. Suffix `I` ops take ints, `F` ops
/// doubles; a truth value is an int 0 or 1, and a comparison is a
/// [`BinOp`] from `Eq` to `Ge`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Charge the basic block this opens, in logical instructions.
    Block(u32),
    /// Push an integer constant.
    ConstI(i64),
    /// Push a float constant.
    ConstF(f64),
    /// Push a local slot's value.
    Load(u16),
    /// Pop into a local slot.
    Store(u16),
    /// `slot = slot + k` on an int local (`Load; ConstI; BinI; Store`).
    AddLocal(u16, i64),
    /// Pop an index; push `input[index].field`.
    Input(Field),
    /// `input[k].field` for a constant `k` (`ConstI; Input`).
    InputK(i64, Field),
    /// Pop input index, pop output index; copy `input[i]` into
    /// `output[o]`.
    EmitRecord,
    /// Pop value (an int for `.id`, else a double), pop output index;
    /// overwrite a field of `output[o]`.
    EmitField(Field),
    /// An int arithmetic operator (wrapping; `/` and `%` fault on zero)
    /// or comparison: pop rhs, pop lhs, push the result.
    BinI(BinOp),
    /// A double arithmetic operator or comparison.
    BinF(BinOp),
    /// Int negation.
    NegI,
    /// Double negation.
    NegF,
    /// Logical not of an int.
    Not,
    /// Normalize an int to a truth value (C logical results).
    Truthy,
    /// Convert the top int to a double (weighs nothing).
    IToF,
    /// Convert the top double to an int, toward zero, saturating
    /// (weighs nothing).
    FToI,
    /// Replace the top double by its truth value (weighs nothing).
    FBool,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump if zero.
    JumpIfFalse(u32),
    /// Jump if the top is zero, *without* popping (for `&&`).
    JumpIfFalsePeek(u32),
    /// Jump if the top is nonzero, *without* popping (for `||`).
    JumpIfTruePeek(u32),
    /// Jump unless `slot CMP k` on an int local
    /// (`Load; ConstI; BinI; JumpIfFalse`).
    BranchI(u16, BinOp, i64, u32),
    /// A loop's back edge and its next check, `slot CMP k` on an int
    /// local: jump back into the body if it holds
    /// (`Jump; Load; ConstI; BinI; JumpIfFalse`).
    LoopI(u16, BinOp, i64, u32),
    /// Pop and discard.
    Pop,
    /// Pop the accept value and stop.
    ReturnValue,
    /// Stop, accepting the outputs.
    ReturnVoid,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// The logical instructions this op stands for.
    pub(crate) fn weight(self) -> u32 {
        match self {
            Op::Block(_) | Op::IToF | Op::FToI | Op::FBool => 0,
            Op::InputK(..) => 2,
            Op::AddLocal(..) | Op::BranchI(..) => 4,
            Op::LoopI(..) => 5,
            _ => 1,
        }
    }

    /// Net values pushed.
    fn stack_effect(self) -> i64 {
        match self {
            Op::ConstI(_) | Op::ConstF(_) | Op::Load(_) | Op::InputK(..) => 1,
            Op::EmitRecord | Op::EmitField(_) => -2,
            Op::Store(_)
            | Op::BinI(_)
            | Op::BinF(_)
            | Op::JumpIfFalse(_)
            | Op::Pop
            | Op::ReturnValue => -1,
            _ => 0,
        }
    }

    /// The jump target, if this op can jump.
    fn target(mut self) -> Option<u32> {
        self.target_mut().copied()
    }

    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfFalsePeek(t)
            | Op::JumpIfTruePeek(t)
            | Op::BranchI(.., t)
            | Op::LoopI(.., t) => Some(t),
            _ => None,
        }
    }
}

/// A compiled filter body.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Instruction stream.
    pub ops: Vec<Op>,
    /// Number of local slots.
    pub n_locals: u16,
    /// The deepest the operand stack gets on any path.
    pub max_stack: u32,
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
    let ops = blocks(&c.ops);
    let (mut depth, mut max_stack) = (0, 0);
    for op in &ops {
        depth += op.stack_effect();
        max_stack = max_stack.max(depth);
    }
    Chunk {
        ops,
        n_locals: prog.n_locals,
        max_stack: u32::try_from(max_stack).expect("stack depth fits u32"),
    }
}

/// Fuse the op sequences the deployed filters execute, open every basic
/// block with its [`Op::Block`] charge and retarget the jumps.
fn blocks(ops: &[Op]) -> Vec<Op> {
    let mut leader = vec![false; ops.len() + 1];
    leader[0] = true;
    for (i, op) in ops.iter().enumerate() {
        // A jump's target and whatever follows a jump or a return.
        if let Some(t) = op.target() {
            (leader[t as usize], leader[i + 1]) = (true, true);
        }
        if matches!(op, Op::ReturnValue | Op::ReturnVoid) {
            leader[i + 1] = true;
        }
    }
    let mut out = Vec::with_capacity(ops.len() + ops.len() / 4);
    // Where each old leader landed.
    let mut at = vec![0u32; ops.len() + 1];
    let (mut i, mut block) = (0, 0);
    while i < ops.len() {
        if leader[i] {
            (at[i], block) = (out.len() as u32, out.len());
            out.push(Op::Block(0));
        }
        // A fused sequence never spans a block boundary.
        let inside = |n: usize| !leader[i + 1..i + n].contains(&true);
        let (op, n) = match ops[i..] {
            [Op::Load(s), Op::ConstI(k), Op::BinI(c), Op::JumpIfFalse(t), ..]
                if is_cmp(c) && inside(4) =>
            {
                (Op::BranchI(s, c, k, t), 4)
            }
            [Op::Load(s), Op::ConstI(k), Op::BinI(op @ (BinOp::Add | BinOp::Sub)), Op::Store(d), ..]
                if s == d && inside(4) =>
            {
                let k = if op == BinOp::Add {
                    k
                } else {
                    k.wrapping_neg()
                };
                (Op::AddLocal(s, k), 4)
            }
            [Op::ConstI(k), Op::Input(f), ..] if inside(2) => (Op::InputK(k, f), 2),
            [op, ..] => (op, 1),
            [] => unreachable!(),
        };
        if let Op::Block(w) = &mut out[block] {
            *w += op.weight();
        }
        out.push(op);
        i += n;
    }
    for op in &mut out {
        if let Some(t) = op.target_mut() {
            *t = at[*t as usize];
        }
    }
    out
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
        *self.ops[idx].target_mut().expect("patching a jump") = target;
    }

    fn stmt(&mut self, stmt: &RStmt) {
        match &stmt.kind {
            RStmtKind::Store {
                slot,
                value,
                truncate,
                widen,
                ..
            } => {
                let ty = match (truncate, widen) {
                    (true, _) => Ty::Int,
                    (_, true) => Ty::Double,
                    _ => value.ty,
                };
                self.expr_as(value, ty);
                self.ops.push(Op::Store(*slot));
            }
            RStmtKind::OutputRecord { index, input_index } => {
                self.expr_as(index, Ty::Int);
                self.expr_as(input_index, Ty::Int);
                self.ops.push(Op::EmitRecord);
            }
            RStmtKind::OutputField {
                index,
                field,
                value,
            } => {
                self.expr_as(index, Ty::Int);
                let ty = if *field == Field::Id {
                    Ty::Int
                } else {
                    Ty::Double
                };
                self.expr_as(value, ty);
                self.ops.push(Op::EmitField(*field));
            }
            RStmtKind::If { cond, then, else_ } => {
                self.truth(cond);
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
                    self.truth(c);
                    self.emit_patch(Op::JumpIfFalse)
                });
                let body_at = self.here();
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
                // An int induction check is repeated at the bottom, so an
                // iteration is one block.
                self.ops.push(match cond.as_ref().map(|c| &c.kind) {
                    Some(RExprKind::Binary(op, l, r)) if is_cmp(*op) && l.ty == Ty::Int => {
                        match (&l.kind, &r.kind) {
                            (RExprKind::Local(s), RExprKind::ConstI(k)) => {
                                Op::LoopI(*s, *op, *k, body_at)
                            }
                            _ => Op::Jump(check),
                        }
                    }
                    _ => Op::Jump(check),
                });
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
                    self.truth(v);
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

    /// Push `expr` converted to `ty`; an int constant is converted here.
    fn expr_as(&mut self, expr: &RExpr, ty: Ty) {
        match (expr.ty, ty, &expr.kind) {
            (Ty::Int, Ty::Double, RExprKind::ConstI(v)) => self.ops.push(Op::ConstF(*v as f64)),
            (Ty::Int, Ty::Double, _) => {
                self.expr(expr);
                self.ops.push(Op::IToF);
            }
            (Ty::Double, Ty::Int, _) => {
                self.expr(expr);
                self.ops.push(Op::FToI);
            }
            _ => self.expr(expr),
        }
    }

    /// Push the truth value of `expr`.
    fn truth(&mut self, expr: &RExpr) {
        self.expr(expr);
        if expr.ty == Ty::Double {
            self.ops.push(Op::FBool);
        }
    }

    fn expr(&mut self, expr: &RExpr) {
        match &expr.kind {
            RExprKind::ConstI(v) => self.ops.push(Op::ConstI(*v)),
            RExprKind::ConstF(v) => self.ops.push(Op::ConstF(*v)),
            RExprKind::Local(slot) => self.ops.push(Op::Load(*slot)),
            RExprKind::InputField(index, field) => {
                self.expr_as(index, Ty::Int);
                self.ops.push(Op::Input(*field));
            }
            RExprKind::Unary(UnOp::Neg, inner) => {
                self.expr(inner);
                self.ops.push(match inner.ty {
                    Ty::Int => Op::NegI,
                    Ty::Double => Op::NegF,
                });
            }
            RExprKind::Unary(UnOp::Not, inner) => {
                self.truth(inner);
                self.ops.push(Op::Not);
            }
            RExprKind::Binary(op @ (BinOp::And | BinOp::Or), lhs, rhs) => {
                // Short-circuit, then normalize: C's `&&` yields 0 or 1.
                self.truth(lhs);
                let skip = self.emit_patch(if *op == BinOp::And {
                    Op::JumpIfFalsePeek
                } else {
                    Op::JumpIfTruePeek
                });
                self.ops.push(Op::Pop);
                self.truth(rhs);
                let end = self.here();
                self.patch(skip, end);
                self.ops.push(Op::Truthy);
            }
            RExprKind::Binary(op, lhs, rhs) => {
                // The operands meet in double if either is one.
                let int = lhs.ty == Ty::Int && rhs.ty == Ty::Int;
                let ty = if int { Ty::Int } else { Ty::Double };
                self.expr_as(lhs, ty);
                self.expr_as(rhs, ty);
                self.ops
                    .push(if int { Op::BinI(*op) } else { Op::BinF(*op) });
            }
        }
    }
}

/// Human-readable disassembly (one instruction per line).
#[cfg(test)]
impl Chunk {
    pub(crate) fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{i:4}  {op:?}");
        }
        out
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
                Op::Block(7),
                Op::ConstI(1),
                Op::Store(0),
                Op::AddLocal(0, 2),
                Op::ReturnVoid,
            ]
        );
        assert_eq!(c.n_locals, 1);
        assert_eq!(c.max_stack, 1);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn conversions_are_typed_and_weigh_nothing() {
        let c = chunk("{ int i = 2; double d = 3; d = i; i = d; if (d) { } }");
        assert_eq!(
            c.ops,
            vec![
                Op::Block(10),
                Op::ConstI(2),
                Op::Store(0),
                Op::ConstF(3.0),
                Op::Store(1),
                Op::Load(0),
                Op::IToF,
                Op::Store(1),
                Op::Load(1),
                Op::FToI,
                Op::Store(0),
                Op::Load(1),
                Op::FBool,
                Op::JumpIfFalse(14),
                Op::Block(1),
                Op::ReturnVoid,
            ]
        );
    }

    #[test]
    fn every_block_charges_what_it_holds() {
        for src in [
            crate::filter::FIG3_SOURCE,
            "{ double acc = 0.0; for (int i = 0; i < 40; i = i + 1) { acc = acc + input[A].value; } if (acc > 20.0) { output[0] = input[A]; } }",
            "{ int a = 1 && 2 || 0; while (a < 9) { if (a == 3) { a = a + 2; continue; } a = a + 1; if (a > 7) break; } return a; }",
        ] {
            let env = EnvSpec::new(["A", "B", "LOADAVG", "DISKUSAGE", "FREEMEM", "CACHE_MISS"]);
            let c = compile(&analyze(&parse(src).unwrap(), &env).unwrap());
            let mut blocks = c.ops.split(|op| matches!(op, Op::Block(_))).skip(1);
            for (i, op) in c.ops.iter().enumerate() {
                if let Op::Block(w) = op {
                    let held: u32 = blocks.next().unwrap().iter().map(|op| op.weight()).sum();
                    assert!(*w >= 1, "{src}: empty block at {i}");
                    assert_eq!(*w, held, "{src}: block at {i}");
                }
            }
        }
    }

    #[test]
    fn loop_check_step_and_read_fuse() {
        let c = chunk(
            "{ double s = 0.0; for (int i = 0; i < 40; i = i + 1) { s = s + input[A].value; } }",
        );
        assert!(
            c.ops
                .iter()
                .any(|op| matches!(op, Op::BranchI(1, BinOp::Lt, 40, _))),
            "{}",
            c.disassemble()
        );
        assert!(c.ops.contains(&Op::InputK(0, Field::Value)));
        assert!(c.ops.contains(&Op::AddLocal(1, 1)));
        assert!(c
            .ops
            .iter()
            .any(|op| matches!(op, Op::LoopI(1, BinOp::Lt, 40, _))));
    }

    #[test]
    fn if_without_else_jumps_past_then() {
        let c = chunk("{ int x = 0; if (x > 1) x = 2; }");
        // find the conditional jump and check it targets the final block
        let Some(&Op::BranchI(_, _, _, target)) =
            c.ops.iter().find(|op| matches!(op, Op::BranchI(..)))
        else {
            panic!("no branch: {}", c.disassemble())
        };
        assert_eq!(
            target as usize,
            c.ops.len() - 2,
            "jumps to ReturnVoid's block"
        );
    }

    #[test]
    fn if_else_has_two_jumps() {
        let c = chunk("{ int x = 0; if (x > 1) x = 2; else x = 3; }");
        assert!(c.ops.iter().any(|op| matches!(op, Op::Jump(_))));
        assert!(c.ops.iter().any(|op| matches!(op, Op::BranchI(..))));
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
        // An int induction check repeats at the bottom, as the back edge.
        let c = chunk("{ for (int i = 0; i < 3; i = i + 1) { } }");
        let Some(&Op::LoopI(0, BinOp::Lt, 3, back)) =
            c.ops.iter().find(|op| matches!(op, Op::LoopI(..)))
        else {
            panic!("no back edge: {}", c.disassemble())
        };
        let back = back as usize;
        assert_eq!(c.ops[back..back + 2], [Op::Block(9), Op::AddLocal(0, 1)]);
        // Any other condition jumps back to the check.
        let c = chunk("{ double d = 0.0; while (d < 3.0) { d = d + 1.0; } }");
        assert!(c.ops.iter().any(|op| matches!(op, Op::Jump(_))));
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
                let Some(target) = op.target() else { continue };
                assert!(
                    matches!(c.ops.get(target as usize), Some(Op::Block(_))),
                    "unpatched or wild jump in {src}: {op:?}"
                );
            }
        }
    }

    #[test]
    fn emit_ops_for_outputs() {
        let c = chunk("{ output[0] = input[A]; output[0].value = 1.5; }");
        assert!(c.ops.contains(&Op::EmitRecord));
        assert_eq!(c.max_stack, 2);
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
