//! Register assignment and type inference for the compiling backend.
//!
//! The stack VM's operand stack has a statically known depth at every
//! program point (the bytecode compiler lowers structured control flow,
//! so every join sees the same depth). That turns each stack slot into a
//! *register*: local slot `s` is register `s`, and the value at stack
//! depth `i` is register `n_locals + i`. [`map_registers`] computes the
//! depth before every instruction by abstract interpretation over the
//! CFG and refuses (returns `None`) if any join is inconsistent — the
//! caller then falls back to the interpreter, so this analysis never
//! needs to be complete, only sound.
//!
//! [`infer_types`] runs a second forward dataflow over the same CFG with
//! the per-register lattice `Bot ⊑ {I, F} ⊑ Top`, mirroring the VM's
//! dynamic tags: locals start as `I` (the VM zero-initializes them with
//! `Value::I(0)`), comparisons and `!` produce `I`, record fields produce
//! `F` (`I` for `.id`), and `(I, I)` arithmetic stays `I` while any `F`
//! operand promotes the result. Note dynamic tags are *not* the declared
//! types: `double y = 2;` stores `Value::I(2)` and `y / 2` is then
//! integer division, so the analysis tracks value provenance, never
//! declarations. A program is *monomorphic* when no reachable instruction
//! reads a register whose type is `Top`; only those programs compile to
//! the untagged executor in [`crate::compile`].

use crate::ast::Field;
use crate::bytecode::{Chunk, Op};

/// A register index: locals first, then stack slots.
pub(crate) type Reg = u16;

/// Stack depth before each instruction, plus the register-file size.
pub(crate) struct RegMap {
    /// Depth of the operand stack before `ops[pc]`; `None` = unreachable.
    pub depth_before: Vec<Option<u16>>,
    /// Number of local slots (registers `0..n_locals`).
    pub n_locals: u16,
    /// Total registers: `n_locals + max stack depth`.
    pub n_regs: u16,
}

/// Net stack effect of one opcode (pushes minus pops).
fn stack_delta(op: Op) -> i32 {
    match op {
        Op::ConstI(_) | Op::ConstF(_) | Op::Load(_) => 1,
        Op::Store(_) | Op::StoreTrunc(_) | Op::Pop | Op::JumpIfFalse(_) => -1,
        Op::InputField(_) | Op::Neg | Op::Not | Op::Truthy => 0,
        Op::EmitRecord | Op::EmitField(_) => -2,
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::CmpEq
        | Op::CmpNe
        | Op::CmpLt
        | Op::CmpLe
        | Op::CmpGt
        | Op::CmpGe => -1,
        Op::Jump(_) | Op::JumpIfFalsePeek(_) | Op::JumpIfTruePeek(_) => 0,
        Op::ReturnValue => -1,
        Op::ReturnVoid => 0,
    }
}

/// Successor pcs of `ops[pc]` (empty for returns).
fn successors(op: Op, pc: usize, out: &mut [usize; 2]) -> usize {
    match op {
        Op::Jump(t) => {
            out[0] = t as usize;
            1
        }
        Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
            out[0] = pc + 1;
            out[1] = t as usize;
            2
        }
        Op::ReturnValue | Op::ReturnVoid => 0,
        _ => {
            out[0] = pc + 1;
            1
        }
    }
}

/// Compute the stack depth before every instruction. `None` when depths
/// disagree at a join, underflow, or the stack would not fit in `u16` —
/// all of which mean "interpret this one instead".
pub(crate) fn map_registers(chunk: &Chunk) -> Option<RegMap> {
    let n = chunk.ops.len();
    let mut depth_before: Vec<Option<u16>> = vec![None; n];
    if n == 0 {
        return Some(RegMap {
            depth_before,
            n_locals: chunk.n_locals,
            n_regs: chunk.n_locals,
        });
    }
    let mut work = vec![0usize];
    depth_before[0] = Some(0);
    let mut max_depth: u16 = 0;
    while let Some(pc) = work.pop() {
        let d = depth_before[pc]? as i32;
        let op = chunk.ops[pc];
        let after = d + stack_delta(op);
        // Depth *during* the op (operands live below `d`), so `d` itself
        // bounds the register file together with push results.
        let peak = d.max(after);
        if after < 0 || peak > u16::MAX as i32 - 1 {
            return None;
        }
        max_depth = max_depth.max(peak as u16);
        let mut succ = [0usize; 2];
        let ns = successors(op, pc, &mut succ);
        for &s in &succ[..ns] {
            if s >= n {
                return None;
            }
            match depth_before[s] {
                None => {
                    depth_before[s] = Some(after as u16);
                    work.push(s);
                }
                Some(prev) => {
                    if prev as i32 != after {
                        return None;
                    }
                }
            }
        }
    }
    let n_regs = chunk.n_locals.checked_add(max_depth)?;
    Some(RegMap {
        depth_before,
        n_locals: chunk.n_locals,
        n_regs,
    })
}

/// One point in the type lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty2 {
    /// Never written on any path reaching this point.
    Bot,
    /// Always an integer value.
    I,
    /// Always a float value.
    F,
    /// Both tags reach this point — polymorphic.
    Top,
}

impl Ty2 {
    fn join(self, other: Ty2) -> Ty2 {
        match (self, other) {
            (Ty2::Bot, x) | (x, Ty2::Bot) => x,
            (a, b) if a == b => a,
            _ => Ty2::Top,
        }
    }
}

/// The type of a record field as pushed by `InputField`.
pub(crate) fn field_ty(field: Field) -> Ty2 {
    match field {
        Field::Id => Ty2::I,
        _ => Ty2::F,
    }
}

/// Per-instruction register types: `before[pc][reg]` is the type of
/// `reg` on entry to `ops[pc]` (only reachable pcs are meaningful).
pub(crate) struct TypeInfo {
    pub before: Vec<Vec<Ty2>>,
}

/// Forward type dataflow. Always succeeds; polymorphism shows up as
/// `Top` which the lowering pass then rejects on read.
pub(crate) fn infer_types(chunk: &Chunk, rm: &RegMap) -> TypeInfo {
    let n = chunk.ops.len();
    let nr = rm.n_regs as usize;
    let nl = rm.n_locals as usize;
    // Locals start as I(0); stack registers start unwritten.
    let mut entry = vec![Ty2::Bot; nr];
    entry[..nl].fill(Ty2::I);
    let mut before: Vec<Vec<Ty2>> = vec![vec![Ty2::Bot; nr]; n];
    if n == 0 {
        return TypeInfo { before };
    }
    before[0] = entry;
    let mut work = vec![0usize];
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(pc) = work.pop() {
        seen[pc] = false;
        let Some(d) = rm.depth_before[pc] else {
            continue;
        };
        let mut state = before[pc].clone();
        let op = chunk.ops[pc];
        // Registers for the top of stack before this op.
        let top = |k: u16| (nl as u16 + d - k) as usize; // k=1 → topmost
        match op {
            Op::ConstI(_) => state[nl + d as usize] = Ty2::I,
            Op::ConstF(_) => state[nl + d as usize] = Ty2::F,
            Op::Load(s) => state[nl + d as usize] = state[s as usize],
            Op::Store(s) => state[s as usize] = state[top(1)],
            Op::StoreTrunc(s) => state[s as usize] = Ty2::I,
            Op::InputField(f) => state[top(1)] = field_ty(f),
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem => {
                let a = state[top(2)];
                let b = state[top(1)];
                state[top(2)] = match (a, b) {
                    (Ty2::I, Ty2::I) => Ty2::I,
                    (Ty2::Top, _) | (_, Ty2::Top) => Ty2::Top,
                    (Ty2::Bot, _) | (_, Ty2::Bot) => Ty2::Bot,
                    _ => Ty2::F,
                };
            }
            Op::CmpEq | Op::CmpNe | Op::CmpLt | Op::CmpLe | Op::CmpGt | Op::CmpGe => {
                state[top(2)] = Ty2::I;
            }
            Op::Neg => {} // same type as operand
            Op::Not | Op::Truthy => state[top(1)] = Ty2::I,
            Op::EmitRecord
            | Op::EmitField(_)
            | Op::Jump(_)
            | Op::JumpIfFalse(_)
            | Op::JumpIfFalsePeek(_)
            | Op::JumpIfTruePeek(_)
            | Op::Pop
            | Op::ReturnValue
            | Op::ReturnVoid => {}
        }
        let mut succ = [0usize; 2];
        let ns = successors(op, pc, &mut succ);
        for &s in &succ[..ns] {
            let mut changed = false;
            for r in 0..nr {
                let j = before[s][r].join(state[r]);
                if j != before[s][r] {
                    before[s][r] = j;
                    changed = true;
                }
            }
            if changed && !seen[s] {
                seen[s] = true;
                work.push(s);
            }
        }
    }
    TypeInfo { before }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EnvSpec;
    use crate::parser::parse;
    use crate::sema::analyze;

    fn chunk(src: &str) -> Chunk {
        let env = EnvSpec::new(["A", "B", "C"]);
        crate::bytecode::compile(&analyze(&parse(src).unwrap(), &env).unwrap())
    }

    #[test]
    fn straight_line_depths() {
        let c = chunk("{ int x = 1; x = x + 2; }");
        let rm = map_registers(&c).unwrap();
        // ConstI(1)@d0, Store@d1, Load@d0, ConstI(2)@d1, Add@d2, Store@d1, Ret@d0
        let depths: Vec<u16> = rm.depth_before.iter().map(|d| d.unwrap()).collect();
        assert_eq!(depths, vec![0, 1, 0, 1, 2, 1, 0]);
        assert_eq!(rm.n_regs, rm.n_locals + 2);
    }

    #[test]
    fn joins_are_consistent_for_structured_code() {
        for src in [
            "{ int i = 0; if (input[A].value > 1) { i = 1; } else { i = 2; } }",
            "{ for (int i = 0; i < 3; i = i + 1) { output[i] = input[i]; } }",
            "{ int a = 1 && input[B].value || 0; }",
            "{ int i = 0; while (1) { if (i >= 3) break; i = i + 1; } }",
        ] {
            assert!(map_registers(&chunk(src)).is_some(), "{src}");
        }
    }

    #[test]
    fn dead_code_after_return_is_unreachable() {
        let c = chunk("{ return 1; int x = 0; }");
        let rm = map_registers(&c).unwrap();
        // Ops after ReturnValue never get a depth.
        assert!(rm.depth_before.iter().any(Option::is_none));
    }

    #[test]
    fn types_track_provenance_not_declarations() {
        // `double y = 2;` stores an *int* tag — the analysis must say I.
        let c = chunk("{ double y = 2; y = y / 2; }");
        let rm = map_registers(&c).unwrap();
        let ti = infer_types(&c, &rm);
        // Find the Div; its operands must both be I (integer division!).
        let div_pc = c.ops.iter().position(|o| matches!(o, Op::Div)).unwrap();
        let d = rm.depth_before[div_pc].unwrap() as usize;
        let nl = rm.n_locals as usize;
        assert_eq!(ti.before[div_pc][nl + d - 2], Ty2::I);
        assert_eq!(ti.before[div_pc][nl + d - 1], Ty2::I);
    }

    #[test]
    fn mixed_assignment_goes_top() {
        let c = chunk("{ double y = 2; if (input[A].value > 1) { y = 2.5; } double z = y + 1; }");
        let rm = map_registers(&c).unwrap();
        let ti = infer_types(&c, &rm);
        // After the if-join, local y (slot 0) is Top at the final Load.
        let load_pc = c
            .ops
            .iter()
            .rposition(|o| matches!(o, Op::Load(0)))
            .unwrap();
        assert_eq!(ti.before[load_pc][0], Ty2::Top);
    }

    #[test]
    fn field_types_and_cmp_results() {
        let c = chunk("{ int ok = input[A].id == 0; double v = input[B].value; }");
        let rm = map_registers(&c).unwrap();
        let ti = infer_types(&c, &rm);
        let nl = rm.n_locals as usize;
        // The CmpEq operands: .id is I, constant 0 is I.
        let cmp_pc = c.ops.iter().position(|o| matches!(o, Op::CmpEq)).unwrap();
        let d = rm.depth_before[cmp_pc].unwrap() as usize;
        assert_eq!(ti.before[cmp_pc][nl + d - 2], Ty2::I);
        // The .value store: operand is F.
        let store_pc = c
            .ops
            .iter()
            .rposition(|o| matches!(o, Op::Store(_)))
            .unwrap();
        let d = rm.depth_before[store_pc].unwrap() as usize;
        assert_eq!(ti.before[store_pc][nl + d - 1], Ty2::F);
    }
}
