//! Soundness of the memo classification (`FilterCert::effects.memo`).
//!
//! The d-mon evaluates each deployed filter once per poll *per
//! subscriber*; the shared-filter memo collapses that to one evaluation
//! when the effect pass certifies it safe. These properties pin the
//! contract from both sides:
//!
//! - **Shared** class ⇒ a run on one subscriber's send history, with
//!   each emitted record's `last_value_sent` replaced by another
//!   subscriber's value for the record's `id`, *is* that subscriber's run,
//!   bit for bit. So one evaluation per poll may serve every subscriber.
//!   Checked on
//!   generated filters, which also exercises the classifier: a filter it
//!   wrongly calls `Shared` fails the property.
//! - The **impure** family (live `last_value_sent` reads) is certified
//!   `memo_safe = false` AND demonstrably produces different results for
//!   subscribers with different send history — the witness that the
//!   Bypass tier is necessary, not conservatism.

mod common;

use common::{bits, program, Names};
use ecode::{EnvSpec, Filter, MemoClass, MetricRecord};
use proptest::prelude::*;

fn env() -> EnvSpec {
    EnvSpec::new(["LOADAVG", "FREEMEM"])
}

/// Inputs for the two-metric environment with explicit send history.
fn inputs(v0: f64, v1: f64, last0: f64, last1: f64) -> Vec<MetricRecord> {
    vec![
        MetricRecord::new(0, v0).with_last_sent(last0),
        MetricRecord::new(1, v1).with_last_sent(last1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_class_is_invariant_under_send_history(
        threshold in -100.0f64..100.0,
        v0 in -100.0f64..100.0,
        v1 in -100.0f64..100.0,
        lastx in -1000.0f64..1000.0,
        lasty in -1000.0f64..1000.0,
    ) {
        // Non-emitting accept/reject filter: the Shared class.
        let src = format!(
            "{{ if (input[LOADAVG].value + input[FREEMEM].value > {threshold:.4}) {{ return 1; }} return 0; }}"
        );
        let f = Filter::compile(&src, &env()).unwrap();
        prop_assert_eq!(f.cert().effects.memo, MemoClass::Shared);
        prop_assert!(f.cert().memo_safe());
        // Two subscribers whose only difference is send history must see
        // the same verdict — that's what lets one evaluation serve both.
        let a = f.run(&inputs(v0, v1, lastx, lastx)).unwrap();
        let b = f.run(&inputs(v0, v1, lasty, lasty)).unwrap();
        prop_assert_eq!(a.accept(), b.accept());
        prop_assert_eq!(a.records_if_accepted(), b.records_if_accepted());
        prop_assert_eq!(a.instructions(), b.instructions());
    }

    #[test]
    fn impure_family_is_bypass_and_actually_diverges(
        value in -100.0f64..100.0,
        gap in 0.5f64..50.0,
    ) {
        // The canonical dproc delta filter: submit only when the sample
        // moved past what this subscriber last saw.
        let src = "{ if (input[LOADAVG].value > input[LOADAVG].last_value_sent) { output[0] = input[LOADAVG]; } }";
        let f = Filter::compile(src, &env()).unwrap();
        // Certified unsafe to share...
        prop_assert_eq!(f.cert().effects.memo, MemoClass::Bypass);
        prop_assert!(!f.cert().memo_safe());
        prop_assert!(f.cert().effects.reads_last_sent);
        // ...and the witness: two subscribers, send history straddling
        // the sample, observe different results from the same poll.
        let behind = f.run(&inputs(value, 0.0, value - gap, 0.0)).unwrap();
        let ahead = f.run(&inputs(value, 0.0, value + gap, 0.0)).unwrap();
        prop_assert_eq!(behind.records_if_accepted().len(), 1);
        prop_assert_eq!(ahead.records_if_accepted().len(), 0);
    }

    #[test]
    fn lvs_writes_are_bypass_even_without_reads(
        value in -100.0f64..100.0,
    ) {
        // Writing last_value_sent on an emitted record customizes the
        // subscriber's future send history — also unshareable.
        let src = "{ output[0] = input[LOADAVG]; output[0].last_value_sent = 0.0; }";
        let f = Filter::compile(src, &env()).unwrap();
        prop_assert_eq!(f.cert().effects.memo, MemoClass::Bypass);
        prop_assert!(!f.cert().memo_safe());
        prop_assert!(f.cert().effects.writes_last_sent);
        let out = f.run(&inputs(value, 0.0, 7.0, 0.0)).unwrap();
        prop_assert_eq!(out.records_if_accepted().len(), 1);
        prop_assert_eq!(out.records_if_accepted()[0].last_value_sent, 0.0);
    }

    #[test]
    fn pure_family_never_reads_send_history(
        threshold in -100.0f64..100.0,
        pick in 0usize..3,
    ) {
        // Every member of a small pure-filter family certifies memo-safe;
        // the scan is structural, so no run-time check is needed.
        let src = match pick {
            0 => format!("{{ if (input[LOADAVG].value > {threshold:.4}) {{ output[0] = input[LOADAVG]; }} }}"),
            1 => format!("{{ if (input[FREEMEM].value < {threshold:.4}) {{ return 0; }} return 1; }}"),
            _ => "{ output[0] = input[LOADAVG]; output[1] = input[FREEMEM]; }".to_string(),
        };
        let f = Filter::compile(&src, &env()).unwrap();
        prop_assert!(f.cert().memo_safe(), "{}", src);
        prop_assert!(!f.cert().effects.reads_last_sent);
        prop_assert!(!f.cert().effects.writes_last_sent);
    }
}

const NAMES: Names = &["A", "B", "C"];

/// One subscriber's last-sent value for a metric: ordinary values, the two
/// zeroes `==` confuses, NaN that `==` never matches, and infinity.
fn last_sent() -> BoxedStrategy<f64> {
    prop_oneof![
        -100.0f64..100.0,
        -100.0f64..100.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
    ]
    .boxed()
}

/// Inputs as d-mon builds them: input `i` has `id = i`, and only the
/// last-sent row differs between subscribers.
fn inputs_with(values: [f64; 3], row: &[f64; 3]) -> Vec<MetricRecord> {
    (0..3)
        .map(|i| {
            MetricRecord::new(i as u32, values[i])
                .with_last_sent(row[i])
                .with_timestamp(7.5)
        })
        .collect()
}

proptest! {
    // At least 256 cases; CI asks for more through `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

    /// The property a shared run rests on: for a filter certified
    /// `Shared`, running on subscriber A's last-sent row and stamping each
    /// emitted record with B's value for its `id` equals running on B's
    /// row — records, accept flag, instruction count and error.
    #[test]
    fn a_shared_run_stamped_with_another_row_is_that_rows_run(
        src in program(NAMES),
        values in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
        a in (last_sent(), last_sent(), last_sent()),
        b in (last_sent(), last_sent(), last_sent()),
    ) {
        let f = Filter::compile(&src, &common::env(NAMES)).expect("generated programs are well-formed");
        if f.cert().effects.memo == MemoClass::Bypass {
            return Ok(());
        }
        let values = [values.0, values.1, values.2];
        let (a, b) = ([a.0, a.1, a.2], [b.0, b.1, b.2]);
        let (on_a, on_b) = (inputs_with(values, &a), inputs_with(values, &b));
        let stamped = bits(f.run(&on_a), Some(&b));
        prop_assert_eq!(stamped, bits(f.run(&on_b), None), "on:\n{}", src);
    }
}
