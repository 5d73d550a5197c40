//! The stack virtual machine: the one engine that runs every filter.
//!
//! It runs on the certificate. The bytecode is typed ([`crate::bytecode`]),
//! so a slot is untagged bits read as the int or double its op names, and
//! the stack is a frame sized at compile time, after the locals. No
//! instruction is checked for its operand types or the stack's depth. The
//! budget — a kernel running user-supplied code needs exactly this guard
//! against runaway loops — is charged once per basic block, in logical
//! instructions: their count is what d-mon charges as CPU. A block the
//! remaining budget cannot cover runs only to its first fault; the fault
//! stands if the budget reached it, and otherwise the run ends in
//! `BudgetExhausted`, exactly where charging every instruction would cut.

use crate::ast::{BinOp, Field};
use crate::bytecode::{holds, Chunk, Op};
use crate::error::RuntimeError;
use crate::filter::{FilterOutput, MetricRecord};

/// Default per-execution instruction budget.
pub const DEFAULT_BUDGET: u64 = 100_000;

/// Maximum addressable output slot.
pub const MAX_OUTPUT_SLOTS: usize = 256;

/// Frame slots (locals, then the stack) a run keeps on the native stack;
/// a chunk that needs more gets a heap frame.
const INLINE_FRAME: usize = 32;

/// Execute `chunk` against `inputs` with the given instruction budget.
pub fn run(
    chunk: &Chunk,
    inputs: &[MetricRecord],
    budget: u64,
) -> Result<FilterOutput, RuntimeError> {
    let len = usize::from(chunk.n_locals) + chunk.max_stack as usize;
    let mut inline = [0u64; INLINE_FRAME];
    let mut heap = Vec::new();
    let frame = if len <= INLINE_FRAME {
        &mut inline[..]
    } else {
        heap.resize(len, 0);
        &mut heap[..]
    };
    let mut outputs = crate::filter::take_slot_buf();
    match exec(chunk, inputs, budget, frame, &mut outputs) {
        Ok((accept, executed)) => Ok(FilterOutput::new(outputs, accept, executed)),
        Err(e) => {
            crate::filter::put_slot_buf(outputs);
            Err(e)
        }
    }
}

/// `rec.field` as slot bits.
fn field(rec: &MetricRecord, field: Field) -> u64 {
    match field {
        Field::Value => rec.value.to_bits(),
        Field::LastValueSent => rec.last_value_sent.to_bits(),
        Field::Timestamp => rec.timestamp.to_bits(),
        Field::Id => u64::from(rec.id),
    }
}

fn exec(
    chunk: &Chunk,
    inputs: &[MetricRecord],
    budget: u64,
    frame: &mut [u64],
    outputs: &mut Vec<Option<MetricRecord>>,
) -> Result<(bool, u64), RuntimeError> {
    let ops = &chunk.ops[..];
    let (mut pc, mut sp) = (0, usize::from(chunk.n_locals));
    let mut remaining = budget;
    // The block the budget could not cover: where its ops start, and how
    // many of its logical instructions the budget still reached.
    let mut cut: Option<(usize, u64)> = None;
    let exhausted = RuntimeError::BudgetExhausted { budget };
    // A fault at `ops[pc - 1]` stands only if the budget reached it.
    let fault = |e, pc: usize, cut: Option<(usize, u64)>| match cut {
        Some((start, fits))
            if ops[start..pc]
                .iter()
                .map(|op| u64::from(op.weight()))
                .sum::<u64>()
                > fits =>
        {
            RuntimeError::BudgetExhausted { budget }
        }
        _ => e,
    };
    let input = |index: i64| {
        usize::try_from(index)
            .ok()
            .and_then(|i| inputs.get(i))
            .ok_or(RuntimeError::InputIndexOutOfRange {
                index,
                len: inputs.len(),
            })
    };
    let out_slot = |index: i64| {
        usize::try_from(index)
            .ok()
            .filter(|&s| s < MAX_OUTPUT_SLOTS)
            .ok_or(RuntimeError::OutputIndexOutOfRange { index })
    };

    macro_rules! top {
        () => {
            frame[sp - 1]
        };
    }
    macro_rules! pop {
        () => {{
            sp -= 1;
            frame[sp]
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            frame[sp] = v;
            sp += 1;
        }};
    }
    macro_rules! tri {
        ($r:expr) => {
            match $r {
                Ok(v) => v,
                Err(e) => return Err(fault(e, pc, cut)),
            }
        };
    }
    // Charge the block whose ops start at `pc`.
    macro_rules! charge {
        ($w:expr) => {{
            let w = u64::from($w);
            if w <= remaining {
                remaining -= w;
            } else if remaining == 0 {
                return Err(exhausted);
            } else {
                cut = Some((pc, remaining));
                remaining = 0;
            }
        }};
    }

    loop {
        pc += 1;
        match ops[pc - 1] {
            Op::Block(w) => charge!(w),
            Op::ConstI(v) => push!(v as u64),
            Op::ConstF(v) => push!(v.to_bits()),
            Op::Load(slot) => push!(frame[usize::from(slot)]),
            Op::Store(slot) => frame[usize::from(slot)] = pop!(),
            Op::AddLocal(slot, k) => {
                let l = &mut frame[usize::from(slot)];
                *l = (*l as i64).wrapping_add(k) as u64;
            }
            Op::Input(f) => top!() = field(tri!(input(top!() as i64)), f),
            Op::InputK(k, f) => push!(field(tri!(input(k)), f)),
            Op::EmitRecord => {
                let in_idx = pop!() as i64;
                let slot = tri!(out_slot(pop!() as i64));
                let rec = *tri!(input(in_idx));
                if outputs.len() <= slot {
                    outputs.resize(slot + 1, None);
                }
                outputs[slot] = Some(rec);
            }
            Op::EmitField(f) => {
                let v = pop!();
                let index = pop!() as i64;
                let slot = tri!(out_slot(index));
                let Some(Some(rec)) = outputs.get_mut(slot) else {
                    return Err(fault(RuntimeError::OutputSlotEmpty { index }, pc, cut));
                };
                match f {
                    Field::Value => rec.value = f64::from_bits(v),
                    Field::LastValueSent => rec.last_value_sent = f64::from_bits(v),
                    Field::Timestamp => rec.timestamp = f64::from_bits(v),
                    Field::Id => rec.id = v as u32,
                }
            }
            Op::BinI(op) => {
                let r = pop!() as i64;
                let l = top!() as i64;
                top!() = match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::Div | BinOp::Rem if r == 0 => {
                        return Err(fault(RuntimeError::DivisionByZero, pc, cut));
                    }
                    BinOp::Div => l.wrapping_div(r),
                    BinOp::Rem => l.wrapping_rem(r),
                    cmp => i64::from(holds(cmp, l, r)),
                } as u64;
            }
            Op::BinF(op) => {
                let r = f64::from_bits(pop!());
                let l = f64::from_bits(top!());
                top!() = match op {
                    BinOp::Add => (l + r).to_bits(),
                    BinOp::Sub => (l - r).to_bits(),
                    BinOp::Mul => (l * r).to_bits(),
                    BinOp::Div => (l / r).to_bits(),
                    BinOp::Rem => (l % r).to_bits(),
                    cmp => u64::from(holds(cmp, l, r)),
                };
            }
            Op::NegI => top!() = (top!() as i64).wrapping_neg() as u64,
            Op::NegF => top!() = (-f64::from_bits(top!())).to_bits(),
            Op::Not => top!() = u64::from(top!() == 0),
            Op::Truthy => top!() = u64::from(top!() != 0),
            Op::IToF => top!() = (top!() as i64 as f64).to_bits(),
            Op::FToI => top!() = f64::from_bits(top!()) as i64 as u64,
            Op::FBool => top!() = u64::from(f64::from_bits(top!()) != 0.0),
            Op::Jump(t) => pc = t as usize,
            Op::JumpIfFalse(t) => {
                if pop!() == 0 {
                    pc = t as usize;
                }
            }
            Op::JumpIfFalsePeek(t) => {
                if top!() == 0 {
                    pc = t as usize;
                }
            }
            Op::JumpIfTruePeek(t) => {
                if top!() != 0 {
                    pc = t as usize;
                }
            }
            Op::BranchI(slot, c, k, t) => {
                if !holds(c, frame[usize::from(slot)] as i64, k) {
                    pc = t as usize;
                }
            }
            // Back into the body, charging it here rather than by a
            // dispatch of its `Block`.
            Op::LoopI(slot, c, k, t) => {
                if holds(c, frame[usize::from(slot)] as i64, k) {
                    pc = t as usize + 1;
                    if let Op::Block(w) = ops[pc - 1] {
                        charge!(w);
                    }
                }
            }
            Op::Pop => sp -= 1,
            Op::ReturnValue | Op::ReturnVoid if cut.is_some() => return Err(exhausted),
            Op::ReturnValue => return Ok((pop!() != 0, budget - remaining)),
            Op::ReturnVoid => return Ok((true, budget - remaining)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EnvSpec;
    use crate::parser::parse;
    use crate::sema::analyze;

    fn exec(src: &str, inputs: &[MetricRecord]) -> Result<FilterOutput, RuntimeError> {
        let env = EnvSpec::new(["A", "B", "C"]);
        let chunk = crate::bytecode::compile(&analyze(&parse(src).unwrap(), &env).unwrap());
        run(&chunk, inputs, DEFAULT_BUDGET)
    }

    fn recs() -> Vec<MetricRecord> {
        vec![
            MetricRecord::new(0, 5.0),
            MetricRecord::new(1, 10.0),
            MetricRecord::new(2, 0.5),
        ]
    }

    #[test]
    fn passthrough_filter_copies_records() {
        let out = exec("{ output[0] = input[A]; output[1] = input[B]; }", &recs()).unwrap();
        let r = out.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].value, 5.0);
        assert_eq!(r[1].value, 10.0);
        assert!(out.accept());
    }

    #[test]
    fn conditional_suppression() {
        let out = exec(
            "{ if (input[A].value > 100) { output[0] = input[A]; } }",
            &recs(),
        )
        .unwrap();
        assert!(out.records().is_empty());
    }

    #[test]
    fn for_loop_copies_all_inputs() {
        let out = exec(
            "{ for (int i = 0; i < 3; i = i + 1) { output[i] = input[i]; } }",
            &recs(),
        )
        .unwrap();
        assert_eq!(out.records().len(), 3);
        assert_eq!(out.records()[2].value, 0.5);
    }

    #[test]
    fn while_with_break_and_continue() {
        // Copy only even-indexed inputs.
        let out = exec(
            "{ int i = 0; while (1) { if (i >= 3) break; if (i % 2 == 1) { i = i + 1; continue; } output[i] = input[i]; i = i + 1; } }",
            &recs(),
        )
        .unwrap();
        let r = out.records();
        assert_eq!(r.len(), 2, "slot 1 stays empty and is skipped");
        assert_eq!(r[0].id, 0);
        assert_eq!(r[1].id, 2);
    }

    #[test]
    fn output_field_rewrite_downsamples() {
        let out = exec(
            "{ output[0] = input[B]; output[0].value = input[B].value / 2; }",
            &recs(),
        )
        .unwrap();
        assert_eq!(out.records()[0].value, 5.0);
        assert_eq!(out.records()[0].id, 1, "other fields preserved");
    }

    #[test]
    fn return_zero_suppresses() {
        let out = exec("{ output[0] = input[A]; return 0; }", &recs()).unwrap();
        assert!(!out.accept());
        assert!(out.records_if_accepted().is_empty());
        let out = exec("{ output[0] = input[A]; return 1; }", &recs()).unwrap();
        assert!(out.accept());
        assert_eq!(out.records_if_accepted().len(), 1);
    }

    #[test]
    fn integer_division_truncates_float_divides() {
        let out = exec(
            "{ int i = 7 / 2; double d = 7.0 / 2.0; output[0] = input[A]; output[0].value = i; output[0].last_value_sent = d; }",
            &recs(),
        )
        .unwrap();
        assert_eq!(out.records()[0].value, 3.0);
        assert_eq!(out.records()[0].last_value_sent, 3.5);
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        let err = exec("{ int x = 1 / 0; }", &recs()).unwrap_err();
        assert_eq!(err, RuntimeError::DivisionByZero);
        let err = exec("{ int x = 1 % 0; }", &recs()).unwrap_err();
        assert_eq!(err, RuntimeError::DivisionByZero);
    }

    #[test]
    fn short_circuit_and_skips_rhs() {
        // If && did not short-circuit, input[99] would be an index error.
        let out = exec(
            "{ if (0 && input[99].value > 0) { output[0] = input[A]; } }",
            &recs(),
        );
        assert!(out.unwrap().records().is_empty());
        let out = exec(
            "{ if (1 || input[99].value > 0) { output[0] = input[A]; } }",
            &recs(),
        );
        assert_eq!(out.unwrap().records().len(), 1);
    }

    #[test]
    fn input_index_out_of_range() {
        let err = exec("{ double v = input[7].value; }", &recs()).unwrap_err();
        assert_eq!(err, RuntimeError::InputIndexOutOfRange { index: 7, len: 3 });
        let err = exec("{ double v = input[-1].value; }", &recs()).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::InputIndexOutOfRange { index: -1, .. }
        ));
    }

    #[test]
    fn output_index_bounds() {
        let err = exec("{ output[-1] = input[A]; }", &recs()).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::OutputIndexOutOfRange { index: -1 }
        ));
        let err = exec("{ output[10000] = input[A]; }", &recs()).unwrap_err();
        assert!(matches!(err, RuntimeError::OutputIndexOutOfRange { .. }));
    }

    #[test]
    fn field_write_to_empty_slot_errors() {
        let err = exec("{ output[0].value = 1; }", &recs()).unwrap_err();
        assert_eq!(err, RuntimeError::OutputSlotEmpty { index: 0 });
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let env = EnvSpec::new(["A"]);
        let chunk =
            crate::bytecode::compile(&analyze(&parse("{ while (1) { } }").unwrap(), &env).unwrap());
        let err = run(&chunk, &[MetricRecord::new(0, 1.0)], 1000).unwrap_err();
        assert_eq!(err, RuntimeError::BudgetExhausted { budget: 1000 });
    }

    #[test]
    fn negation_and_not() {
        let out = exec(
            "{ int a = -5; int b = !0; int c = !3; output[0] = input[A]; output[0].value = a; output[0].last_value_sent = b + c; }",
            &recs(),
        )
        .unwrap();
        assert_eq!(out.records()[0].value, -5.0);
        assert_eq!(out.records()[0].last_value_sent, 1.0);
    }

    #[test]
    fn truncation_on_int_store() {
        let out = exec(
            "{ int x = 2.9; output[0] = input[A]; output[0].value = x; }",
            &recs(),
        )
        .unwrap();
        assert_eq!(out.records()[0].value, 2.0);
    }

    #[test]
    fn int_stored_into_double_local_divides_as_double() {
        let out = exec(
            "{ double d = 3; double e = 0.0; e = 7; output[0] = input[A]; output[0].value = d / 2; output[0].last_value_sent = e / 2; }",
            &recs(),
        )
        .unwrap();
        assert_eq!(out.records()[0].value, 1.5);
        assert_eq!(out.records()[0].last_value_sent, 3.5);
    }

    #[test]
    fn executed_instruction_count_reported() {
        let out = exec("{ int x = 1; }", &recs()).unwrap();
        assert_eq!(out.instructions(), 3); // ConstI, Store, ReturnVoid
    }

    #[test]
    fn timestamp_and_id_fields_readable() {
        let mut r = recs();
        r[0].timestamp = 12.5;
        let out = exec(
            "{ output[0] = input[A]; output[0].value = input[A].timestamp + input[B].id; }",
            &r,
        )
        .unwrap();
        assert_eq!(out.records()[0].value, 13.5);
    }
}
