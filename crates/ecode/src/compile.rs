//! The compiling backend: certified filters become specialized closures.
//!
//! The stack VM in [`crate::vm`] stays the semantic reference — this
//! module lowers a [`Chunk`] into a register-based linear form (see
//! [`crate::regalloc`] for the depth analysis that turns stack slots
//! into registers), fuses adjacent instructions into superinstructions
//! (compare-branch, field-load-arith), and executes the result over
//! untagged `u64` registers when type inference proves every value
//! monomorphic. Deployment wraps the code in a closure with the budget
//! folded in, so the hot path is `closure(inputs)` with zero setup.
//!
//! # Why this is bit-identical to the interpreter
//!
//! * **Register mapping.** The bytecode compiler only emits code whose
//!   stack depth is consistent at every join, so stack slot `i` *is*
//!   register `n_locals + i`; the lowering is one register instruction
//!   per stack instruction with the same operand order, and anything the
//!   depth analysis cannot prove falls back to the interpreter.
//! * **Budget and instruction counts.** Every superinstruction carries
//!   the summed cost of its constituents and the executor charges it
//!   atomically (`remaining < cost` ⇒ `BudgetExhausted`). Fused
//!   sequences are built only from constituents that cannot raise a
//!   runtime error (constant input indices are proven in range against
//!   the environment arity the cert's read set was checked against, and
//!   int division by a constant zero is never fused), so when the VM
//!   would exhaust its budget partway through the sequence no other
//!   error could have fired first — the only observable difference,
//!   the partial `executed` count, dies with the error (`FilterOutput`
//!   reports counts only on success, where both engines executed the
//!   identical instruction multiset).
//! * **Value representation.** Type inference tracks the VM's dynamic
//!   tags (`double y = 2;` holds an *int* and `y / 2` is integer
//!   division). Only programs where every read has a single possible
//!   tag compile; each instruction then bakes in its operand types, so
//!   raw `u64` registers (`i64` bits or `f64` bits) reproduce tagged
//!   semantics exactly, including wrapping int arithmetic, C promotion,
//!   saturating float→int casts, and NaN comparisons.
//!
//! Uncertified filters (unbounded cost), polymorphic programs, and
//! inconsistent stacks all return `None` from [`compile_filter`] and run
//! on the interpreter; the differential suite pins both engines to the
//! same outputs, errors, and instruction counts.

use std::cell::RefCell;

use crate::ast::Field;
use crate::bytecode::{Chunk, Op};
use crate::error::RuntimeError;
use crate::filter::{self, Filter, FilterOutput, MetricRecord};
use crate::regalloc::{self, Reg, RegMap, Ty2, TypeInfo};
use crate::vm::MAX_OUTPUT_SLOTS;

/// Resolved scalar type of a register read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sc {
    /// Integer bits (`i64`).
    I,
    /// Float bits (`f64`).
    F,
}

/// Binary operator kind shared by plain and fused instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bo {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Bo {
    fn is_cmp(self) -> bool {
        matches!(self, Bo::Eq | Bo::Ne | Bo::Lt | Bo::Le | Bo::Gt | Bo::Ge)
    }

    fn from_op(op: Op) -> Option<Bo> {
        Some(match op {
            Op::Add => Bo::Add,
            Op::Sub => Bo::Sub,
            Op::Mul => Bo::Mul,
            Op::Div => Bo::Div,
            Op::Rem => Bo::Rem,
            Op::CmpEq => Bo::Eq,
            Op::CmpNe => Bo::Ne,
            Op::CmpLt => Bo::Lt,
            Op::CmpLe => Bo::Le,
            Op::CmpGt => Bo::Gt,
            Op::CmpGe => Bo::Ge,
            _ => return None,
        })
    }
}

/// A constant operand captured into a fused instruction.
#[derive(Debug, Clone, Copy)]
enum KConst {
    I(i64),
    F(f64),
}

/// One register instruction. Targets index the instruction vector.
#[derive(Debug, Clone, Copy)]
enum Inst {
    ConstI {
        dst: Reg,
        v: i64,
    },
    ConstF {
        dst: Reg,
        v: f64,
    },
    Mov {
        dst: Reg,
        src: Reg,
    },
    Trunc {
        dst: Reg,
        src: Reg,
        t: Sc,
    },
    /// Dynamic input index — error-capable, never fused.
    Field {
        dst: Reg,
        idx: Reg,
        t: Sc,
        field: Field,
    },
    /// Fused `ConstI`+`InputField` with the index proven in range.
    FieldC {
        dst: Reg,
        idx: u32,
        field: Field,
    },
    /// Fused field load + constant arithmetic/comparison.
    FieldArithC {
        dst: Reg,
        idx: u32,
        field: Field,
        op: Bo,
        rhs: KConst,
    },
    Bin {
        op: Bo,
        dst: Reg,
        a: Reg,
        b: Reg,
        a_t: Sc,
        b_t: Sc,
    },
    Neg {
        dst: Reg,
        src: Reg,
        t: Sc,
    },
    Not {
        dst: Reg,
        src: Reg,
        t: Sc,
    },
    Truthy {
        dst: Reg,
        src: Reg,
        t: Sc,
    },
    EmitRecord {
        out: Reg,
        out_t: Sc,
        inp: Reg,
        inp_t: Sc,
    },
    EmitField {
        out: Reg,
        out_t: Sc,
        val: Reg,
        val_t: Sc,
        field: Field,
    },
    Jump {
        target: u32,
    },
    /// `dead` marks a consuming test (`JumpIfFalse`) whose register is
    /// free afterwards — the precondition for compare-branch fusion.
    BranchFalse {
        src: Reg,
        t: Sc,
        target: u32,
        dead: bool,
    },
    BranchTrue {
        src: Reg,
        t: Sc,
        target: u32,
    },
    /// Fused comparison + consuming false-branch.
    CmpBranchFalse {
        op: Bo,
        a: Reg,
        b: Reg,
        a_t: Sc,
        b_t: Sc,
        target: u32,
    },
    /// Fused field load + constant comparison + consuming false-branch.
    FieldCmpCBranchFalse {
        idx: u32,
        field: Field,
        op: Bo,
        rhs: KConst,
        target: u32,
    },
    /// `Pop` (still costs one instruction) and unreachable slots.
    Nop,
    ReturnValue {
        src: Reg,
        t: Sc,
    },
    ReturnVoid,
}

/// An instruction plus the number of stack-VM instructions it stands
/// for — the unit of budget charging and `executed` accounting.
#[derive(Debug, Clone, Copy)]
struct ROp {
    inst: Inst,
    cost: u8,
}

/// A lowered, fused register program.
struct RegCode {
    ops: Vec<ROp>,
    n_regs: u16,
    /// Environment arity the constant-index range proofs assume.
    n_inputs: usize,
}

/// The specialized execution closure: inputs in, output or error out,
/// budget and code captured.
type ExecFn = dyn Fn(&[MetricRecord]) -> Result<FilterOutput, RuntimeError> + Send + Sync;

/// A filter specialized into a ready-to-run closure: budget folded in,
/// registers untagged, superinstructions fused.
pub struct CompiledFilter {
    exec: Box<ExecFn>,
    n_inputs: usize,
    n_ops: usize,
    n_fused: usize,
}

impl CompiledFilter {
    /// Execute against one input record per environment metric.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the environment size —
    /// the same contract as [`Filter::run`], and the guard that makes
    /// compile-time index range proofs sound.
    pub fn run(&self, inputs: &[MetricRecord]) -> Result<FilterOutput, RuntimeError> {
        assert_eq!(
            inputs.len(),
            self.n_inputs,
            "filter expects one record per environment metric"
        );
        (self.exec)(inputs)
    }

    /// How many of them are fused superinstructions.
    pub fn superinstruction_count(&self) -> usize {
        self.n_fused
    }
}

impl std::fmt::Debug for CompiledFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledFilter")
            .field("n_inputs", &self.n_inputs)
            .field("n_ops", &self.n_ops)
            .field("n_fused", &self.n_fused)
            .finish()
    }
}

/// Compile an admitted filter into a specialized closure, or `None`
/// when it must stay on the interpreter (uncertified cost, polymorphic
/// values, or a stack shape the register mapping cannot prove).
pub fn compile_filter(f: &Filter) -> Option<CompiledFilter> {
    if f.admission_error().is_some() {
        return None;
    }
    compile_chunk(f.chunk(), f.env().len(), f.budget())
}

/// Compile a raw chunk (test/bench entry — [`compile_filter`] is the
/// deployment path, which also requires the admission cert).
pub fn compile_chunk(chunk: &Chunk, n_inputs: usize, budget: u64) -> Option<CompiledFilter> {
    let code = lower(chunk, n_inputs)?;
    let n_ops = code.ops.len();
    let n_fused = code.ops.iter().filter(|o| o.cost > 1).count();
    Some(CompiledFilter {
        exec: Box::new(move |inputs| run_code(&code, inputs, budget)),
        n_inputs,
        n_ops,
        n_fused,
    })
}

fn sc(t: Ty2) -> Option<Sc> {
    match t {
        Ty2::I => Some(Sc::I),
        Ty2::F => Some(Sc::F),
        Ty2::Bot | Ty2::Top => None,
    }
}

fn field_sc(field: Field) -> Sc {
    match field {
        Field::Id => Sc::I,
        _ => Sc::F,
    }
}

/// Lower a chunk to fused register code. `None` ⇒ interpreter fallback.
fn lower(chunk: &Chunk, n_inputs: usize) -> Option<RegCode> {
    let rm = regalloc::map_registers(chunk)?;
    let ti = regalloc::infer_types(chunk, &rm);
    let one = lower_one_to_one(chunk, &rm, &ti)?;
    let ops = fuse(chunk, one, n_inputs);
    Some(RegCode {
        ops,
        n_regs: rm.n_regs,
        n_inputs,
    })
}

/// Lower each stack op to exactly one register instruction (cost 1,
/// same indices, targets still in chunk coordinates). `None` when a
/// read operand is polymorphic (`Top`) or unwritten (`Bot`).
fn lower_one_to_one(chunk: &Chunk, rm: &RegMap, ti: &TypeInfo) -> Option<Vec<ROp>> {
    let nl = rm.n_locals;
    let mut out = Vec::with_capacity(chunk.ops.len());
    for (pc, &op) in chunk.ops.iter().enumerate() {
        let Some(d) = rm.depth_before[pc] else {
            // Unreachable: keep the slot so indices line up.
            out.push(ROp {
                inst: Inst::Nop,
                cost: 1,
            });
            continue;
        };
        let tys = &ti.before[pc];
        let top = |k: u16| nl + d - k; // k=1 → topmost operand register
        let rd = |r: Reg| sc(tys[r as usize]); // type of a read
        let inst = match op {
            Op::ConstI(v) => Inst::ConstI { dst: top(0), v },
            Op::ConstF(v) => Inst::ConstF { dst: top(0), v },
            Op::Load(s) => Inst::Mov {
                dst: top(0),
                src: s,
            },
            Op::Store(s) => Inst::Mov {
                dst: s,
                src: top(1),
            },
            Op::StoreTrunc(s) => Inst::Trunc {
                dst: s,
                src: top(1),
                t: rd(top(1))?,
            },
            Op::InputField(field) => Inst::Field {
                dst: top(1),
                idx: top(1),
                t: rd(top(1))?,
                field,
            },
            Op::EmitRecord => Inst::EmitRecord {
                out: top(2),
                out_t: rd(top(2))?,
                inp: top(1),
                inp_t: rd(top(1))?,
            },
            Op::EmitField(field) => Inst::EmitField {
                out: top(2),
                out_t: rd(top(2))?,
                val: top(1),
                val_t: rd(top(1))?,
                field,
            },
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
            | Op::CmpGe => Inst::Bin {
                op: Bo::from_op(op).expect("binary op"),
                dst: top(2),
                a: top(2),
                b: top(1),
                a_t: rd(top(2))?,
                b_t: rd(top(1))?,
            },
            Op::Neg => Inst::Neg {
                dst: top(1),
                src: top(1),
                t: rd(top(1))?,
            },
            Op::Not => Inst::Not {
                dst: top(1),
                src: top(1),
                t: rd(top(1))?,
            },
            Op::Truthy => Inst::Truthy {
                dst: top(1),
                src: top(1),
                t: rd(top(1))?,
            },
            Op::Jump(t) => Inst::Jump { target: t },
            Op::JumpIfFalse(t) => Inst::BranchFalse {
                src: top(1),
                t: rd(top(1))?,
                target: t,
                dead: true,
            },
            Op::JumpIfFalsePeek(t) => Inst::BranchFalse {
                src: top(1),
                t: rd(top(1))?,
                target: t,
                dead: false,
            },
            Op::JumpIfTruePeek(t) => Inst::BranchTrue {
                src: top(1),
                t: rd(top(1))?,
                target: t,
            },
            Op::Pop => Inst::Nop,
            Op::ReturnValue => Inst::ReturnValue {
                src: top(1),
                t: rd(top(1))?,
            },
            Op::ReturnVoid => Inst::ReturnVoid,
        };
        out.push(ROp { inst, cost: 1 });
    }
    Some(out)
}

/// Peephole fusion over the 1:1 lowering. Superinstructions never span
/// a jump target (so every target still begins an instruction) and are
/// built only from error-free constituents — see the module docs for
/// why that makes atomic budget charging exact.
fn fuse(chunk: &Chunk, one: Vec<ROp>, n_inputs: usize) -> Vec<ROp> {
    let n = one.len();
    let mut is_target = vec![false; n];
    for &op in &chunk.ops {
        match op {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t)
                if (t as usize) < n =>
            {
                is_target[t as usize] = true;
            }
            _ => {}
        }
    }
    let in_range = |v: i64| v >= 0 && (v as u64) < n_inputs as u64;
    // Int division/remainder by a constant is safe to fuse only when
    // the constant is a nonzero int or either side is a float.
    let safe_arith = |op: Bo, a_t: Sc, rhs: KConst| match op {
        Bo::Div | Bo::Rem => !(a_t == Sc::I && matches!(rhs, KConst::I(0))),
        _ => true,
    };

    let mut fused: Vec<ROp> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        map[i] = fused.len() as u32;
        let free = |k: usize| i + k < n && !is_target[i + k];
        let mut consumed = 1;
        let mut rop = one[i];
        'fused: {
            // All patterns start with a constant in-range input index
            // feeding a field load, or a comparison feeding a branch.
            if let Inst::ConstI { dst: c, v } = one[i].inst {
                if in_range(v) && free(1) {
                    if let Inst::Field {
                        dst, idx, field, ..
                    } = one[i + 1].inst
                    {
                        if dst == c && idx == c {
                            let fidx = v as u32;
                            // Try the longer field-arith forms first.
                            if free(2) && free(3) {
                                let rhs = match one[i + 2].inst {
                                    Inst::ConstI { dst, v } if dst == c + 1 => Some(KConst::I(v)),
                                    Inst::ConstF { dst, v } if dst == c + 1 => Some(KConst::F(v)),
                                    _ => None,
                                };
                                if let (Some(rhs), Inst::Bin { op, dst, a, b, .. }) =
                                    (rhs, one[i + 3].inst)
                                {
                                    if dst == c
                                        && a == c
                                        && b == c + 1
                                        && safe_arith(op, field_sc(field), rhs)
                                    {
                                        if op.is_cmp() && free(4) {
                                            if let Inst::BranchFalse {
                                                src,
                                                target,
                                                dead: true,
                                                ..
                                            } = one[i + 4].inst
                                            {
                                                if src == c {
                                                    rop = ROp {
                                                        inst: Inst::FieldCmpCBranchFalse {
                                                            idx: fidx,
                                                            field,
                                                            op,
                                                            rhs,
                                                            target,
                                                        },
                                                        cost: 5,
                                                    };
                                                    consumed = 5;
                                                    break 'fused;
                                                }
                                            }
                                        }
                                        rop = ROp {
                                            inst: Inst::FieldArithC {
                                                dst: c,
                                                idx: fidx,
                                                field,
                                                op,
                                                rhs,
                                            },
                                            cost: 4,
                                        };
                                        consumed = 4;
                                        break 'fused;
                                    }
                                }
                            }
                            rop = ROp {
                                inst: Inst::FieldC {
                                    dst: c,
                                    idx: fidx,
                                    field,
                                },
                                cost: 2,
                            };
                            consumed = 2;
                            break 'fused;
                        }
                    }
                }
            }
            if let Inst::Bin {
                op,
                dst,
                a,
                b,
                a_t,
                b_t,
            } = one[i].inst
            {
                if op.is_cmp() && free(1) {
                    if let Inst::BranchFalse {
                        src,
                        target,
                        dead: true,
                        ..
                    } = one[i + 1].inst
                    {
                        if src == dst {
                            rop = ROp {
                                inst: Inst::CmpBranchFalse {
                                    op,
                                    a,
                                    b,
                                    a_t,
                                    b_t,
                                    target,
                                },
                                cost: 2,
                            };
                            consumed = 2;
                            break 'fused;
                        }
                    }
                }
            }
        }
        for k in 1..consumed {
            map[i + k] = fused.len() as u32;
        }
        fused.push(rop);
        i += consumed;
    }
    map[n] = fused.len() as u32;
    // Rewrite targets from chunk coordinates to fused coordinates.
    for rop in &mut fused {
        let (Inst::Jump { target }
        | Inst::BranchFalse { target, .. }
        | Inst::BranchTrue { target, .. }
        | Inst::CmpBranchFalse { target, .. }
        | Inst::FieldCmpCBranchFalse { target, .. }) = &mut rop.inst
        else {
            continue;
        };
        *target = map[*target as usize];
    }
    fused
}

// ---------------------------------------------------------------------
// Execution over untagged registers.

#[inline]
fn get_i(regs: &[u64], r: Reg) -> i64 {
    regs[r as usize] as i64
}

#[inline]
fn get_f(regs: &[u64], r: Reg) -> f64 {
    f64::from_bits(regs[r as usize])
}

#[inline]
fn get_as_f(regs: &[u64], r: Reg, t: Sc) -> f64 {
    match t {
        Sc::I => get_i(regs, r) as f64,
        Sc::F => get_f(regs, r),
    }
}

/// The VM's `Value::as_index`: ints verbatim, floats via saturating cast.
#[inline]
fn get_idx(regs: &[u64], r: Reg, t: Sc) -> i64 {
    match t {
        Sc::I => get_i(regs, r),
        Sc::F => get_f(regs, r) as i64,
    }
}

#[inline]
fn truthy(regs: &[u64], r: Reg, t: Sc) -> bool {
    match t {
        Sc::I => get_i(regs, r) != 0,
        Sc::F => get_f(regs, r) != 0.0,
    }
}

#[inline]
fn set_i(regs: &mut [u64], r: Reg, v: i64) {
    regs[r as usize] = v as u64;
}

#[inline]
fn set_f(regs: &mut [u64], r: Reg, v: f64) {
    regs[r as usize] = v.to_bits();
}

#[inline]
fn field_bits(rec: &MetricRecord, field: Field) -> u64 {
    match field {
        Field::Value => rec.value.to_bits(),
        Field::LastValueSent => rec.last_value_sent.to_bits(),
        Field::Timestamp => rec.timestamp.to_bits(),
        Field::Id => (rec.id as i64) as u64,
    }
}

#[inline]
fn bin_ii(op: Bo, a: i64, b: i64) -> Result<i64, RuntimeError> {
    Ok(match op {
        Bo::Add => a.wrapping_add(b),
        Bo::Sub => a.wrapping_sub(b),
        Bo::Mul => a.wrapping_mul(b),
        Bo::Div => {
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        Bo::Rem => {
            if b == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        Bo::Eq => (a == b) as i64,
        Bo::Ne => (a != b) as i64,
        Bo::Lt => (a < b) as i64,
        Bo::Le => (a <= b) as i64,
        Bo::Gt => (a > b) as i64,
        Bo::Ge => (a >= b) as i64,
    })
}

#[inline]
fn arith_f(op: Bo, a: f64, b: f64) -> f64 {
    match op {
        Bo::Add => a + b,
        Bo::Sub => a - b,
        Bo::Mul => a * b,
        Bo::Div => a / b,
        Bo::Rem => a % b,
        _ => unreachable!("comparison routed through cmp_f"),
    }
}

#[inline]
fn cmp_f(op: Bo, a: f64, b: f64) -> bool {
    match op {
        Bo::Eq => a == b,
        Bo::Ne => a != b,
        Bo::Lt => a < b,
        Bo::Le => a <= b,
        Bo::Gt => a > b,
        Bo::Ge => a >= b,
        _ => unreachable!("arithmetic routed through arith_f"),
    }
}

/// Fused field-op-constant evaluation shared by `FieldArithC` and
/// `FieldCmpCBranchFalse`. Returns raw result bits plus its scalar type.
#[inline]
fn field_const_bin(
    rec: &MetricRecord,
    field: Field,
    op: Bo,
    rhs: KConst,
) -> Result<u64, RuntimeError> {
    match (field_sc(field), rhs) {
        (Sc::I, KConst::I(k)) => Ok(bin_ii(op, field_bits(rec, field) as i64, k)? as u64),
        (ft, rhs) => {
            let a = match ft {
                Sc::I => (field_bits(rec, field) as i64) as f64,
                Sc::F => f64::from_bits(field_bits(rec, field)),
            };
            let b = match rhs {
                KConst::I(k) => k as f64,
                KConst::F(v) => v,
            };
            Ok(if op.is_cmp() {
                (cmp_f(op, a, b) as i64) as u64
            } else {
                arith_f(op, a, b).to_bits()
            })
        }
    }
}

thread_local! {
    /// Register scratch reused across executions (the compiled-path
    /// analogue of the interpreter's VM scratch).
    static REG_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn run_code(
    code: &RegCode,
    inputs: &[MetricRecord],
    budget: u64,
) -> Result<FilterOutput, RuntimeError> {
    assert_eq!(
        inputs.len(),
        code.n_inputs,
        "filter expects one record per environment metric"
    );
    REG_SCRATCH.with(|s| {
        let mut regs = s.borrow_mut();
        regs.clear();
        regs.resize(code.n_regs as usize, 0);
        let mut outputs = filter::take_slot_buf();
        match exec(code, inputs, budget, &mut regs, &mut outputs) {
            Ok((accept, executed)) => Ok(FilterOutput::new(outputs, accept, executed)),
            Err(e) => {
                filter::put_slot_buf(outputs);
                Err(e)
            }
        }
    })
}

#[allow(clippy::too_many_lines)]
fn exec(
    code: &RegCode,
    inputs: &[MetricRecord],
    budget: u64,
    regs: &mut [u64],
    outputs: &mut Vec<Option<MetricRecord>>,
) -> Result<(bool, u64), RuntimeError> {
    let ops = &code.ops;
    let mut pc: usize = 0;
    let mut remaining = budget;
    let mut executed: u64 = 0;

    let input_at = |idx: i64| -> Result<&MetricRecord, RuntimeError> {
        if idx < 0 || idx as usize >= inputs.len() {
            return Err(RuntimeError::InputIndexOutOfRange {
                index: idx,
                len: inputs.len(),
            });
        }
        Ok(&inputs[idx as usize])
    };

    while pc < ops.len() {
        let op = ops[pc];
        let cost = op.cost as u64;
        if remaining < cost {
            return Err(RuntimeError::BudgetExhausted { budget });
        }
        remaining -= cost;
        executed += cost;
        pc += 1;
        match op.inst {
            Inst::ConstI { dst, v } => set_i(regs, dst, v),
            Inst::ConstF { dst, v } => set_f(regs, dst, v),
            Inst::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
            Inst::Trunc { dst, src, t } => {
                set_i(regs, dst, get_as_f(regs, src, t).trunc() as i64);
            }
            Inst::Field { dst, idx, t, field } => {
                let rec = input_at(get_idx(regs, idx, t))?;
                regs[dst as usize] = field_bits(rec, field);
            }
            Inst::FieldC { dst, idx, field } => {
                regs[dst as usize] = field_bits(&inputs[idx as usize], field);
            }
            Inst::FieldArithC {
                dst,
                idx,
                field,
                op,
                rhs,
            } => {
                regs[dst as usize] = field_const_bin(&inputs[idx as usize], field, op, rhs)?;
            }
            Inst::Bin {
                op,
                dst,
                a,
                b,
                a_t,
                b_t,
            } => {
                if a_t == Sc::I && b_t == Sc::I {
                    let r = bin_ii(op, get_i(regs, a), get_i(regs, b))?;
                    set_i(regs, dst, r);
                } else {
                    let x = get_as_f(regs, a, a_t);
                    let y = get_as_f(regs, b, b_t);
                    if op.is_cmp() {
                        set_i(regs, dst, cmp_f(op, x, y) as i64);
                    } else {
                        set_f(regs, dst, arith_f(op, x, y));
                    }
                }
            }
            Inst::Neg { dst, src, t } => match t {
                Sc::I => set_i(regs, dst, get_i(regs, src).wrapping_neg()),
                Sc::F => set_f(regs, dst, -get_f(regs, src)),
            },
            Inst::Not { dst, src, t } => {
                let v = !truthy(regs, src, t);
                set_i(regs, dst, v as i64);
            }
            Inst::Truthy { dst, src, t } => {
                let v = truthy(regs, src, t);
                set_i(regs, dst, v as i64);
            }
            Inst::EmitRecord {
                out,
                out_t,
                inp,
                inp_t,
            } => {
                let in_idx = get_idx(regs, inp, inp_t);
                let out_idx = get_idx(regs, out, out_t);
                if out_idx < 0 || out_idx as usize >= MAX_OUTPUT_SLOTS {
                    return Err(RuntimeError::OutputIndexOutOfRange { index: out_idx });
                }
                let rec = *input_at(in_idx)?;
                let slot = out_idx as usize;
                if outputs.len() <= slot {
                    outputs.resize(slot + 1, None);
                }
                outputs[slot] = Some(rec);
            }
            Inst::EmitField {
                out,
                out_t,
                val,
                val_t,
                field,
            } => {
                let out_idx = get_idx(regs, out, out_t);
                if out_idx < 0 || out_idx as usize >= MAX_OUTPUT_SLOTS {
                    return Err(RuntimeError::OutputIndexOutOfRange { index: out_idx });
                }
                let slot = out_idx as usize;
                let rec = outputs
                    .get_mut(slot)
                    .and_then(|r| r.as_mut())
                    .ok_or(RuntimeError::OutputSlotEmpty { index: out_idx })?;
                match field {
                    Field::Value => rec.value = get_as_f(regs, val, val_t),
                    Field::LastValueSent => rec.last_value_sent = get_as_f(regs, val, val_t),
                    Field::Timestamp => rec.timestamp = get_as_f(regs, val, val_t),
                    Field::Id => rec.id = get_idx(regs, val, val_t) as u32,
                }
            }
            Inst::Jump { target } => pc = target as usize,
            Inst::BranchFalse { src, t, target, .. } => {
                if !truthy(regs, src, t) {
                    pc = target as usize;
                }
            }
            Inst::BranchTrue { src, t, target } => {
                if truthy(regs, src, t) {
                    pc = target as usize;
                }
            }
            Inst::CmpBranchFalse {
                op,
                a,
                b,
                a_t,
                b_t,
                target,
            } => {
                let res = if a_t == Sc::I && b_t == Sc::I {
                    bin_ii(op, get_i(regs, a), get_i(regs, b))? != 0
                } else {
                    cmp_f(op, get_as_f(regs, a, a_t), get_as_f(regs, b, b_t))
                };
                if !res {
                    pc = target as usize;
                }
            }
            Inst::FieldCmpCBranchFalse {
                idx,
                field,
                op,
                rhs,
                target,
            } => {
                let bits = field_const_bin(&inputs[idx as usize], field, op, rhs)?;
                if bits == 0 {
                    pc = target as usize;
                }
            }
            Inst::Nop => {}
            Inst::ReturnValue { src, t } => {
                return Ok((truthy(regs, src, t), executed));
            }
            Inst::ReturnVoid => return Ok((true, executed)),
        }
    }
    Ok((true, executed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EnvSpec;
    use crate::parser::parse;
    use crate::sema::analyze;
    use crate::vm;

    fn chunk_for(src: &str, env: &EnvSpec) -> Chunk {
        crate::bytecode::compile(&analyze(&parse(src).unwrap(), env).unwrap())
    }

    fn recs() -> Vec<MetricRecord> {
        vec![
            MetricRecord::new(0, 5.0),
            MetricRecord::new(1, 10.0),
            MetricRecord::new(2, 0.5),
        ]
    }

    /// Run both engines and require bit-identical results: outputs,
    /// accept flag, instruction counts, and error values.
    fn differential(src: &str, inputs: &[MetricRecord], budget: u64) {
        let env = EnvSpec::new(["A", "B", "C"]);
        let chunk = chunk_for(src, &env);
        let interp = vm::run(&chunk, inputs, budget);
        let compiled =
            compile_chunk(&chunk, 3, budget).unwrap_or_else(|| panic!("expected {src} to compile"));
        let fast = compiled.run(inputs);
        assert_eq!(interp, fast, "engines diverge on {src}");
    }

    const CASES: &[&str] = &[
        "{ output[0] = input[A]; output[1] = input[B]; }",
        "{ if (input[A].value > 100) { output[0] = input[A]; } }",
        "{ for (int i = 0; i < 3; i = i + 1) { output[i] = input[i]; } }",
        "{ int i = 0; while (1) { if (i >= 3) break; if (i % 2 == 1) { i = i + 1; continue; } output[i] = input[i]; i = i + 1; } }",
        "{ output[0] = input[B]; output[0].value = input[B].value / 2; }",
        "{ output[0] = input[A]; return 0; }",
        "{ output[0] = input[A]; return 1; }",
        "{ int i = 7 / 2; double d = 7.0 / 2.0; output[0] = input[A]; output[0].value = i; output[0].last_value_sent = d; }",
        "{ int x = 1 / 0; }",
        "{ int x = 1 % 0; }",
        "{ if (0 && input[99].value > 0) { output[0] = input[A]; } }",
        "{ if (1 || input[99].value > 0) { output[0] = input[A]; } }",
        "{ double v = input[7].value; }",
        "{ output[-1] = input[A]; }",
        "{ output[10000] = input[A]; }",
        "{ output[0].value = 1; }",
        "{ int a = -5; int b = !0; int c = !3; output[0] = input[A]; output[0].value = a; output[0].last_value_sent = b + c; }",
        "{ int x = 2.9; output[0] = input[A]; output[0].value = x; }",
        "{ int x = 1; }",
        "{ output[0] = input[A]; output[0].value = input[A].timestamp + input[B].id; }",
        "{ output[0] = input[A]; output[0].id = input[B].value; }",
        "{ double v = input[-1].value; }",
        "{ int big = 1; for (int i = 0; i < 62; i = i + 1) { big = big * 2; } int t = big * big; output[0] = input[A]; output[0].value = t; }",
    ];

    #[test]
    fn differential_fixed_cases() {
        for src in CASES {
            differential(src, &recs(), vm::DEFAULT_BUDGET);
        }
    }

    #[test]
    fn differential_under_tight_budgets() {
        // Sweep every budget from 0 to enough — exercises exhaustion at
        // every instruction boundary, including mid-superinstruction.
        for src in CASES {
            for budget in 0..200 {
                differential(src, &recs(), budget);
            }
        }
    }

    #[test]
    fn budget_exhaustion_in_loop_matches() {
        let env = EnvSpec::new(["A"]);
        let chunk = chunk_for("{ while (1) { } }", &env);
        let inputs = [MetricRecord::new(0, 1.0)];
        let compiled = compile_chunk(&chunk, 1, 1000).unwrap();
        assert_eq!(
            compiled.run(&inputs).unwrap_err(),
            RuntimeError::BudgetExhausted { budget: 1000 }
        );
    }

    #[test]
    fn fig3_compiles_with_superinstructions() {
        let f = Filter::compile(crate::filter::FIG3_SOURCE, &crate::filter::fig3_env()).unwrap();
        let c = compile_filter(&f).expect("fig3 is monomorphic and certified");
        assert!(
            c.superinstruction_count() >= 2,
            "fig3 should fuse compare-branches and field loads, got {c:?}"
        );
        // And the compiled fig3 agrees with the interpreter on the
        // scenarios the filter tests pin.
        for inputs in [
            [
                MetricRecord::new(0, 1.0),
                MetricRecord::new(1, 500.0),
                MetricRecord::new(2, 400e6),
                MetricRecord::new(3, 100.0).with_last_sent(200.0),
            ],
            [
                MetricRecord::new(0, 9.0),
                MetricRecord::new(1, 99_999.0),
                MetricRecord::new(2, 1e6),
                MetricRecord::new(3, 1e9).with_last_sent(0.0),
            ],
        ] {
            assert_eq!(f.run(&inputs), c.run(&inputs));
        }
    }

    #[test]
    fn polymorphic_program_falls_back() {
        // `y` holds an int tag on one path and a float tag on the other,
        // then gets read: the type dataflow must refuse to specialize.
        let env = EnvSpec::new(["A"]);
        let chunk = chunk_for(
            "{ double y = 2; if (input[A].value > 1) { y = 2.5; } double z = y + 1; }",
            &env,
        );
        assert!(compile_chunk(&chunk, 1, vm::DEFAULT_BUDGET).is_none());
    }

    #[test]
    fn uncertified_filter_is_not_compiled() {
        // Unbounded loop: admission fails, so deployment compilation
        // must decline even though lowering itself would succeed.
        let env = EnvSpec::new(["A"]);
        let f = Filter::compile("{ while (1) { } }", &env).unwrap();
        assert!(f.admission_error().is_some());
        assert!(compile_filter(&f).is_none());
    }

    #[test]
    fn instruction_counts_match_interpreter_exactly() {
        let env = EnvSpec::new(["A", "B", "C"]);
        for src in CASES {
            let chunk = chunk_for(src, &env);
            let (Ok(i), Ok(c)) = (
                vm::run(&chunk, &recs(), vm::DEFAULT_BUDGET),
                compile_chunk(&chunk, 3, vm::DEFAULT_BUDGET)
                    .unwrap()
                    .run(&recs()),
            ) else {
                continue;
            };
            assert_eq!(i.instructions(), c.instructions(), "{src}");
        }
    }

    #[test]
    fn compiled_filter_closure_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledFilter>();
    }
}
