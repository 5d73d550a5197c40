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
//!   bit for bit, on the interpreter and on the compiled closure alike. So
//!   one evaluation per poll may serve every subscriber. Checked on
//!   generated filters, which also exercises the classifier: a filter it
//!   wrongly calls `Shared` fails the property.
//! - The **impure** family (live `last_value_sent` reads) is certified
//!   `memo_safe = false` AND demonstrably produces different results for
//!   subscribers with different send history — the witness that the
//!   Bypass tier is necessary, not conservatism.

use ecode::{compile_filter, EnvSpec, Filter, FilterOutput, MemoClass, MetricRecord, RuntimeError};
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

/// Statements over the three-metric environment: record copies (constant
/// and dynamic indices), edits of every field of a copy, suppression,
/// loops and branches. `last_value_sent` reads and writes and `id` edits
/// make `Bypass` filters too, so the classifier is tested along with the
/// stamping.
fn stmt(depth: u32) -> BoxedStrategy<String> {
    // Edits that keep a filter `Shared` come up twice as often as the
    // ones that make it `Bypass` when they follow a copy.
    let field = || {
        let fields = [
            "value",
            "timestamp",
            "value",
            "timestamp",
            "id",
            "last_value_sent",
        ];
        (0..6usize).prop_map(move |i| fields[i])
    };
    let leaf = prop_oneof![
        (0..3u8, expr()).prop_map(|(v, e)| format!("x{v} = {e};")),
        (0..3u8, expr()).prop_map(|(v, e)| format!("d{v} = {e};")),
        // The one read that makes a filter `Bypass`.
        (0..3u8, 0..3u8).prop_map(|(v, i)| {
            let lvs = format!("input[{}].last_value_sent", NAMES[i as usize]);
            format!("if ({lvs} < d{v}) {{ x{v} = x{v} + 1; }}")
        }),
        (0..2u8, 0..3u8).prop_map(|(s, i)| format!("output[{s}] = input[{}];", NAMES[i as usize])),
        (0..2u8, 0..3u8).prop_map(|(s, v)| format!("output[{s}] = input[x{v}];")),
        (0..3u8, 0..3u8).prop_map(|(s, v)| format!("output[x{s}] = input[{}];", NAMES[v as usize])),
        // Twice: a copy with an edit is what the stamping must get right.
        (0..2u8, 0..3u8, field(), expr()).prop_map(|(s, i, f, e)| {
            format!(
                "output[{s}] = input[{}]; output[{s}].{f} = {e};",
                NAMES[i as usize]
            )
        }),
        (0..2u8, 0..3u8, field(), expr()).prop_map(|(s, i, f, e)| {
            format!(
                "output[{s}] = input[{}]; output[{s}].{f} = {e};",
                NAMES[i as usize]
            )
        }),
        (0..2u8, field(), expr()).prop_map(|(s, f, e)| format!("output[{s}].{f} = {e};")),
        Just("return x0;".to_string()),
        Just("return 0;".to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let nested = stmt(depth - 1);
    prop_oneof![
        leaf,
        (expr(), nested.clone()).prop_map(|(c, s)| format!("if ({c}) {{ {s} }}")),
        (expr(), nested.clone(), nested.clone())
            .prop_map(|(c, a, b)| format!("if ({c}) {{ {a} }} else {{ {b} }}")),
        (0..6i64, nested)
            .prop_map(|(n, s)| format!("for (int i = 0; i < {n}; i = i + 1) {{ {s} }}")),
    ]
    .boxed()
}

const NAMES: [&str; 3] = ["A", "B", "C"];

fn env3() -> EnvSpec {
    EnvSpec::new(NAMES)
}

fn atom() -> BoxedStrategy<String> {
    let field = || prop_oneof![Just("value"), Just("timestamp"), Just("id")];
    prop_oneof![
        (-5i64..5).prop_map(|v| format!("{v}")),
        (-4.0f64..4.0).prop_map(|v| format!("{v:.3}")),
        (0..3u8).prop_map(|v| format!("x{v}")),
        (0..3u8).prop_map(|v| format!("d{v}")),
        (0..3u8, field()).prop_map(|(i, f)| format!("input[{}].{f}", NAMES[i as usize])),
        (0..3u8).prop_map(|v| format!("input[x{v}].value")),
    ]
    .boxed()
}

fn expr() -> BoxedStrategy<String> {
    let op = prop_oneof![
        Just("+"),
        Just("-"),
        Just("*"),
        Just("/"),
        Just("<"),
        Just(">="),
        Just("=="),
        Just("&&"),
    ];
    prop_oneof![
        atom(),
        (atom(), op, atom()).prop_map(|(a, op, b)| format!("({a} {op} {b})")),
    ]
    .boxed()
}

fn program() -> impl Strategy<Value = String> {
    proptest::collection::vec(stmt(2), 1..6).prop_map(|body| {
        format!(
            "{{ int x0 = 0; int x1 = 1; int x2 = 2; \
               double d0 = 0.5; double d1 = 2.0; double d2 = -1.25; {} }}",
            body.join(" ")
        )
    })
}

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

/// A run, with every float as its bits: what "bit for bit" compares.
type Bits = Result<(bool, u64, Vec<(u32, [u64; 3])>), RuntimeError>;

fn bits(out: Result<FilterOutput, RuntimeError>, stamp: Option<&[f64; 3]>) -> Bits {
    let out = out?;
    let records = out.records().into_iter().map(|r| {
        // As d-mon stamps: an id with no last-sent value reads 0.0.
        let last = stamp.map_or(r.last_value_sent, |row| {
            row.get(r.id as usize).copied().unwrap_or(0.0)
        });
        (r.id, [r.value, last, r.timestamp].map(f64::to_bits))
    });
    Ok((out.accept(), out.instructions(), records.collect()))
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
    /// row — records, accept flag, instruction count and error — on both
    /// engines.
    #[test]
    fn a_shared_run_stamped_with_another_row_is_that_rows_run(
        src in program(),
        values in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
        a in (last_sent(), last_sent(), last_sent()),
        b in (last_sent(), last_sent(), last_sent()),
    ) {
        let f = Filter::compile(&src, &env3()).expect("generated programs are well-formed");
        if f.cert().effects.memo == MemoClass::Bypass {
            return Ok(());
        }
        let values = [values.0, values.1, values.2];
        let (a, b) = ([a.0, a.1, a.2], [b.0, b.1, b.2]);
        let (on_a, on_b) = (inputs_with(values, &a), inputs_with(values, &b));
        let stamped = bits(f.run(&on_a), Some(&b));
        prop_assert_eq!(&stamped, &bits(f.run(&on_b), None), "interpreter on:\n{}", src);
        if let Some(c) = compile_filter(&f) {
            prop_assert_eq!(&bits(c.run(&on_a), Some(&b)), &stamped, "compiled on:\n{}", src);
            prop_assert_eq!(&bits(c.run(&on_b), None), &stamped, "compiled on:\n{}", src);
        }
    }
}
