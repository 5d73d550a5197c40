//! The stack virtual machine: the one engine that runs every filter.
//!
//! Values are dynamically typed (`Int`/`Float`) with C-style promotion;
//! the semantic pass guarantees records never reach arithmetic. Every
//! instruction decrements a budget — a kernel executing user-supplied
//! filter code needs exactly this guard against runaway loops — and
//! the count of executed instructions is what d-mon charges as CPU.

use crate::ast::Field;
use crate::bytecode::{Chunk, Op};
use crate::error::RuntimeError;
use crate::filter::{FilterOutput, MetricRecord};

/// Default per-execution instruction budget.
pub const DEFAULT_BUDGET: u64 = 100_000;

/// Maximum addressable output slot.
pub const MAX_OUTPUT_SLOTS: usize = 256;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    I(i64),
    F(f64),
}

impl Value {
    fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    fn truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }

    fn as_index(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => v as i64,
        }
    }
}

/// Reusable per-thread execution buffers — the VM runs once per
/// monitoring sample, so per-execution allocations would dominate the
/// event path.
struct VmScratch {
    stack: Vec<Value>,
    locals: Vec<Value>,
}

thread_local! {
    static VM_SCRATCH: std::cell::RefCell<VmScratch> = const {
        std::cell::RefCell::new(VmScratch {
            stack: Vec::new(),
            locals: Vec::new(),
        })
    };
}

/// Execute `chunk` against `inputs` with the given instruction budget.
pub fn run(
    chunk: &Chunk,
    inputs: &[MetricRecord],
    budget: u64,
) -> Result<FilterOutput, RuntimeError> {
    VM_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let VmScratch { stack, locals } = &mut *scratch;
        stack.clear();
        locals.clear();
        locals.resize(chunk.n_locals as usize, Value::I(0));
        let mut outputs = crate::filter::take_slot_buf();
        match run_inner(chunk, inputs, budget, stack, locals, &mut outputs) {
            Ok((accept, executed)) => Ok(FilterOutput::new(outputs, accept, executed)),
            Err(e) => {
                crate::filter::put_slot_buf(outputs);
                Err(e)
            }
        }
    })
}

fn run_inner(
    chunk: &Chunk,
    inputs: &[MetricRecord],
    budget: u64,
    stack: &mut Vec<Value>,
    locals: &mut [Value],
    outputs: &mut Vec<Option<MetricRecord>>,
) -> Result<(bool, u64), RuntimeError> {
    let mut pc: usize = 0;
    let mut remaining = budget;
    let mut executed: u64 = 0;

    macro_rules! pop {
        () => {
            stack
                .pop()
                .ok_or(RuntimeError::Internal("stack underflow"))?
        };
    }

    macro_rules! arith {
        ($int:expr, $float:expr) => {{
            let r = pop!();
            let l = pop!();
            let v = match (l, r) {
                (Value::I(a), Value::I(b)) => $int(a, b)?,
                (a, b) => Value::F($float(a.as_f64(), b.as_f64())),
            };
            stack.push(v);
        }};
    }

    macro_rules! cmp {
        ($op:tt) => {{
            let r = pop!();
            let l = pop!();
            let res = match (l, r) {
                (Value::I(a), Value::I(b)) => a $op b,
                (a, b) => a.as_f64() $op b.as_f64(),
            };
            stack.push(Value::I(res as i64));
        }};
    }

    let input_at = |idx: i64| -> Result<&MetricRecord, RuntimeError> {
        if idx < 0 || idx as usize >= inputs.len() {
            return Err(RuntimeError::InputIndexOutOfRange {
                index: idx,
                len: inputs.len(),
            });
        }
        Ok(&inputs[idx as usize])
    };

    while pc < chunk.ops.len() {
        if remaining == 0 {
            return Err(RuntimeError::BudgetExhausted { budget });
        }
        remaining -= 1;
        executed += 1;
        let op = chunk.ops[pc];
        pc += 1;
        match op {
            Op::ConstI(v) => stack.push(Value::I(v)),
            Op::ConstF(v) => stack.push(Value::F(v)),
            Op::Load(slot) => stack.push(locals[slot as usize]),
            Op::Store(slot) => {
                let v = pop!();
                locals[slot as usize] = v;
            }
            Op::StoreTrunc(slot) => {
                let v = pop!();
                locals[slot as usize] = Value::I(v.as_f64().trunc() as i64);
            }
            Op::InputField(field) => {
                let idx = pop!().as_index();
                let rec = input_at(idx)?;
                let v = match field {
                    Field::Value => Value::F(rec.value),
                    Field::LastValueSent => Value::F(rec.last_value_sent),
                    Field::Timestamp => Value::F(rec.timestamp),
                    Field::Id => Value::I(rec.id as i64),
                };
                stack.push(v);
            }
            Op::EmitRecord => {
                let in_idx = pop!().as_index();
                let out_idx = pop!().as_index();
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
            Op::EmitField(field) => {
                let value = pop!();
                let out_idx = pop!().as_index();
                if out_idx < 0 || out_idx as usize >= MAX_OUTPUT_SLOTS {
                    return Err(RuntimeError::OutputIndexOutOfRange { index: out_idx });
                }
                let slot = out_idx as usize;
                let rec = outputs
                    .get_mut(slot)
                    .and_then(|r| r.as_mut())
                    .ok_or(RuntimeError::OutputSlotEmpty { index: out_idx })?;
                match field {
                    Field::Value => rec.value = value.as_f64(),
                    Field::LastValueSent => rec.last_value_sent = value.as_f64(),
                    Field::Timestamp => rec.timestamp = value.as_f64(),
                    Field::Id => rec.id = value.as_index() as u32,
                }
            }
            Op::Add => arith!(|a: i64, b: i64| Ok(Value::I(a.wrapping_add(b))), |a, b| a
                + b),
            Op::Sub => arith!(|a: i64, b: i64| Ok(Value::I(a.wrapping_sub(b))), |a, b| a
                - b),
            Op::Mul => arith!(|a: i64, b: i64| Ok(Value::I(a.wrapping_mul(b))), |a, b| a
                * b),
            Op::Div => arith!(
                |a: i64, b: i64| {
                    if b == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(Value::I(a.wrapping_div(b)))
                    }
                },
                |a, b| a / b
            ),
            Op::Rem => arith!(
                |a: i64, b: i64| {
                    if b == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(Value::I(a.wrapping_rem(b)))
                    }
                },
                |a: f64, b: f64| a % b
            ),
            Op::CmpEq => cmp!(==),
            Op::CmpNe => cmp!(!=),
            Op::CmpLt => cmp!(<),
            Op::CmpLe => cmp!(<=),
            Op::CmpGt => cmp!(>),
            Op::CmpGe => cmp!(>=),
            Op::Neg => {
                let v = pop!();
                stack.push(match v {
                    Value::I(a) => Value::I(a.wrapping_neg()),
                    Value::F(a) => Value::F(-a),
                });
            }
            Op::Not => {
                let v = pop!();
                stack.push(Value::I(!v.truthy() as i64));
            }
            Op::Jump(t) => pc = t as usize,
            Op::JumpIfFalse(t) => {
                let v = pop!();
                if !v.truthy() {
                    pc = t as usize;
                }
            }
            Op::JumpIfFalsePeek(t) => {
                let v = *stack
                    .last()
                    .ok_or(RuntimeError::Internal("peek underflow"))?;
                if !v.truthy() {
                    pc = t as usize;
                }
            }
            Op::JumpIfTruePeek(t) => {
                let v = *stack
                    .last()
                    .ok_or(RuntimeError::Internal("peek underflow"))?;
                if v.truthy() {
                    pc = t as usize;
                }
            }
            Op::Pop => {
                pop!();
            }
            Op::Truthy => {
                let v = pop!();
                stack.push(Value::I(v.truthy() as i64));
            }
            Op::ReturnValue => {
                let v = pop!();
                return Ok((v.truthy(), executed));
            }
            Op::ReturnVoid => {
                return Ok((true, executed));
            }
        }
    }
    // Fell off the end without an explicit return: accept.
    Ok((true, executed))
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
