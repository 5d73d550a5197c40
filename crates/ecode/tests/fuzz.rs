//! Robustness properties: the compiler pipeline must never panic on
//! arbitrary input — kernels compile filter strings supplied by remote
//! applications, so every failure has to be a clean `CompileError` —
//! and a program that gets past the front end must never panic when it
//! runs, whatever the records hold: every failure there is a clean
//! `RuntimeError`.

mod common;

use common::{program_seeded, Names};
use ecode::{CostBound, EnvSpec, Filter, MetricRecord, RuntimeError};
use proptest::prelude::*;

fn env() -> EnvSpec {
    EnvSpec::new(["LOADAVG", "FREEMEM"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compile_never_panics_on_arbitrary_bytes(src in "[ -~\\n\\t]{0,256}") {
        let _ = Filter::compile(&src, &env());
    }

    #[test]
    fn compile_never_panics_on_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("int".to_string()),
                Just("double".to_string()),
                Just("if".to_string()),
                Just("else".to_string()),
                Just("for".to_string()),
                Just("while".to_string()),
                Just("return".to_string()),
                Just("break".to_string()),
                Just("continue".to_string()),
                Just("input".to_string()),
                Just("output".to_string()),
                Just("LOADAVG".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("[".to_string()),
                Just("]".to_string()),
                Just(";".to_string()),
                Just("=".to_string()),
                Just("==".to_string()),
                Just("&&".to_string()),
                Just("<".to_string()),
                Just("+".to_string()),
                Just(".".to_string()),
                Just("value".to_string()),
                Just("x".to_string()),
                Just("1".to_string()),
                Just("2.5".to_string()),
                Just("50e6".to_string()),
            ],
            0..40,
        )
    ) {
        let src = tokens.join(" ");
        let _ = Filter::compile(&src, &env());
    }

    #[test]
    fn successful_compiles_run_without_internal_errors(
        threshold in -100.0f64..100.0,
        value in -100.0f64..100.0,
    ) {
        // A family of well-formed filters over the whole parameter space:
        // execution must either succeed or fail with a *domain* error,
        // never an internal VM error.
        let src = format!(
            "{{ if (input[LOADAVG].value > {threshold:.4}) {{ output[0] = input[LOADAVG]; }} }}"
        );
        let f = Filter::compile(&src, &env()).unwrap();
        let out = f
            .run(&[MetricRecord::new(0, value), MetricRecord::new(1, 0.0)])
            .unwrap();
        prop_assert_eq!(out.records().len(), (value > threshold) as usize);
    }

    #[test]
    fn deeply_nested_expressions_compile_or_error_cleanly(depth in 1usize..200) {
        // Pathological nesting must not blow the compiler's stack in a
        // disorderly way for reasonable depths.
        let src = format!(
            "{{ int x = {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let f = Filter::compile(&src, &env());
        prop_assert!(f.is_ok(), "pure parens nest fine");
    }
}

#[test]
fn empty_and_whitespace_sources() {
    // An empty statement list is a valid (pass-nothing) filter, braced or
    // not.
    for src in ["", "   ", "\n\n", "{ }", "{\n}"] {
        let f = Filter::compile(src, &env()).expect(src);
        let out = f
            .run(&[MetricRecord::new(0, 1.0), MetricRecord::new(1, 2.0)])
            .unwrap();
        assert!(out.records().is_empty());
        assert!(out.accept());
    }
}

const NAMES: Names = &["A", "B", "C"];
const SEEDS: [&str; 3] = [
    "input[A].value",
    "input[B].last_value_sent",
    "input[C].timestamp",
];

/// A record field a hostile or broken module could report: NaN, the
/// infinities, the largest finite magnitudes, values whose float → int
/// cast saturates, and ordinary values.
fn hostile() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e308),
        Just(-1e308),
        Just(9.3e18),
        Just(-9.3e18),
        -100.0f64..100.0,
    ]
    .boxed()
}

proptest! {
    // At least 256 cases; CI asks for more through `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

    /// Past sema: a generated valid program compiles, certifies and runs
    /// on hostile records under a tight budget and under its certified
    /// bound without panicking, and never executes more than that bound.
    /// Its int locals start from record fields, so int arithmetic meets
    /// saturated casts.
    #[test]
    fn valid_programs_on_hostile_records_never_panic(
        src in program_seeded(NAMES, SEEDS),
        fields in proptest::collection::vec(hostile(), 9),
        tight in 0u64..64,
    ) {
        let env = common::env(NAMES);
        let f = Filter::compile(&src, &env).expect("generated programs are well-formed");
        let CostBound::Bounded(bound) = f.cert().cost else {
            panic!("verifier failed to certify a generated program:\n{src}");
        };
        let records: Vec<MetricRecord> = fields
            .chunks(3)
            .zip(0..)
            .map(|(v, id)| MetricRecord::new(id, v[0]).with_last_sent(v[1]).with_timestamp(v[2]))
            .collect();
        for budget in [tight, bound] {
            let f = Filter::compile_with_budget(&src, &env, budget).unwrap();
            match f.run(&records) {
                Ok(out) => prop_assert!(
                    out.instructions() <= bound.min(budget),
                    "executed {} over bound {} / budget {}:\n{}",
                    out.instructions(),
                    bound,
                    budget,
                    src,
                ),
                Err(RuntimeError::BudgetExhausted { .. }) => prop_assert!(
                    budget < bound,
                    "exhausted its certified bound {}:\n{}",
                    bound,
                    src,
                ),
                Err(e) => prop_assert!(!matches!(e, RuntimeError::Internal(_)), "{:?}:\n{}", e, src),
            }
        }
    }

    /// Out-of-range `input[i]` and `output[j]` are runtime errors, never a
    /// panic, with constant and computed indices alike; the output index
    /// is checked first.
    #[test]
    fn wild_indices_are_runtime_errors(idx in -5i64..10, out_idx in -2i64..300) {
        let want = if !(0..256).contains(&out_idx) {
            Err(RuntimeError::OutputIndexOutOfRange { index: out_idx })
        } else if !(0..3).contains(&idx) {
            Err(RuntimeError::InputIndexOutOfRange { index: idx, len: 3 })
        } else {
            Ok(())
        };
        let records = [0, 1, 2].map(|id| MetricRecord::new(id, 1.0));
        for src in [
            format!("{{ output[{out_idx}] = input[{idx}]; double v = input[{idx}].value; }}"),
            format!("{{ int i = {idx}; int j = {out_idx}; output[j] = input[i]; }}"),
        ] {
            let f = Filter::compile(&src, &common::env(NAMES)).unwrap();
            prop_assert_eq!(f.run(&records).map(drop), want.clone(), "{}", src);
        }
    }
}
