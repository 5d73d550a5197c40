//! Property-based tests across the workspace's core data structures and
//! invariants.

use proptest::prelude::*;

use dproc::params::{PolicySet, Rule, RuleCtx};
use ecode::{EnvSpec, Filter, MetricRecord};
use kecho::wire::{decode_event, encode_event, encoded_size};
use kecho::{ControlMsg, Event, HeartbeatPayload, MonRecord, MonitoringPayload, ParamSpec};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::ProcFs;

// ---------- wire codec ----------

fn mon_record_strategy() -> impl Strategy<Value = MonRecord> {
    (
        0u32..64,
        proptest::num::f64::NORMAL,
        proptest::num::f64::NORMAL,
        0.0f64..1e6,
    )
        .prop_map(|(metric_id, value, last_value_sent, timestamp)| MonRecord {
            metric_id,
            value,
            last_value_sent,
            timestamp,
        })
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let ext = proptest::collection::vec((5u32..64, "[A-Z_]{1,16}", "[a-z_]{1,12}"), 0..4);
    let mon = (
        0u32..8,
        any::<u64>(),
        0usize..32,
        proptest::collection::vec(mon_record_strategy(), 0..20),
        0u32..10_000,
        ext,
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |(chan, seq, sender, records, pad, ext_names, epoch, stream_seq)| {
                Event::monitoring(
                    chan,
                    seq,
                    NodeId(sender),
                    MonitoringPayload {
                        origin: NodeId(sender),
                        epoch,
                        stream_seq,
                        credit_grant: 0,
                        records,
                        pad_bytes: pad,
                        ext_names,
                    },
                )
            },
        );
    let param = prop_oneof![
        (0.01f64..100.0).prop_map(|period_s| ParamSpec::Period { period_s }),
        (0.0f64..1.0).prop_map(|fraction| ParamSpec::DeltaFraction { fraction }),
        proptest::num::f64::NORMAL.prop_map(|bound| ParamSpec::Above { bound }),
        proptest::num::f64::NORMAL.prop_map(|bound| ParamSpec::Below { bound }),
        (proptest::num::f64::NORMAL, proptest::num::f64::NORMAL).prop_map(|(a, b)| {
            ParamSpec::Range {
                lo: a.min(b),
                hi: a.max(b),
            }
        }),
    ];
    let ctl_msg = prop_oneof![
        ("[a-z*]{1,12}", param).prop_map(|(metric, param)| ControlMsg::SetParam { metric, param }),
        "[ -~]{0,200}".prop_map(|source| ControlMsg::DeployFilter { source }),
        Just(ControlMsg::RemoveFilter),
        Just(ControlMsg::Announce),
        "[ -~]{0,120}".prop_map(|reason| ControlMsg::FilterRejected { reason }),
    ];
    let ctl = (0u32..8, any::<u64>(), 0usize..32, 0usize..32, ctl_msg).prop_map(
        |(chan, seq, sender, target, msg)| {
            Event::control(chan, seq, NodeId(sender), NodeId(target), msg)
        },
    );
    let hb = (
        0u32..8,
        any::<u64>(),
        0usize..32,
        0usize..32,
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(chan, seq, sender, target, epoch, stream_seq)| {
            Event::heartbeat(
                chan,
                seq,
                NodeId(sender),
                NodeId(target),
                HeartbeatPayload {
                    origin: NodeId(sender),
                    epoch,
                    stream_seq,
                },
            )
        });
    prop_oneof![mon, ctl, hb]
}

proptest! {
    #[test]
    fn wire_roundtrip(ev in event_strategy()) {
        let bytes = encode_event(&ev);
        prop_assert_eq!(bytes.len(), encoded_size(&ev), "size formula is exact");
        let back = decode_event(bytes).unwrap();
        prop_assert_eq!(back, ev);
    }

    #[test]
    fn wire_truncation_never_panics(ev in event_strategy(), cut in 0usize..200) {
        let bytes = encode_event(&ev);
        let cut = cut.min(bytes.len());
        // Any prefix either decodes (full buffer) or errors cleanly.
        let _ = decode_event(bytes.slice(..cut));
    }
}

// ---------- E-code: VM arithmetic matches a reference evaluator ----------

#[derive(Debug, Clone)]
enum RefExpr {
    Const(i64),
    Add(Box<RefExpr>, Box<RefExpr>),
    Sub(Box<RefExpr>, Box<RefExpr>),
    Mul(Box<RefExpr>, Box<RefExpr>),
    Lt(Box<RefExpr>, Box<RefExpr>),
}

impl RefExpr {
    fn eval(&self) -> i64 {
        match self {
            RefExpr::Const(v) => *v,
            RefExpr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            RefExpr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            RefExpr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            RefExpr::Lt(a, b) => (a.eval() < b.eval()) as i64,
        }
    }

    fn source(&self) -> String {
        match self {
            RefExpr::Const(v) => {
                if *v < 0 {
                    format!("(0 - {})", v.unsigned_abs())
                } else {
                    format!("{v}")
                }
            }
            RefExpr::Add(a, b) => format!("({} + {})", a.source(), b.source()),
            RefExpr::Sub(a, b) => format!("({} - {})", a.source(), b.source()),
            RefExpr::Mul(a, b) => format!("({} * {})", a.source(), b.source()),
            RefExpr::Lt(a, b) => format!("({} < {})", a.source(), b.source()),
        }
    }
}

fn ref_expr_strategy() -> impl Strategy<Value = RefExpr> {
    let leaf = (-1000i64..1000).prop_map(RefExpr::Const);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RefExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| RefExpr::Lt(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ecode_arithmetic_matches_reference(expr in ref_expr_strategy()) {
        let env = EnvSpec::new(["X"]);
        let src = format!(
            "{{ int r = {}; output[0] = input[X]; output[0].value = r; }}",
            expr.source()
        );
        let filter = Filter::compile(&src, &env).expect("generated program compiles");
        let out = filter.run(&[MetricRecord::new(0, 0.0)]).expect("runs");
        let got = out.records()[0].value;
        let expect = expr.eval();
        // Values beyond 2^53 lose precision crossing through f64; the
        // generator's bounds keep products within range for depth 4.
        prop_assert_eq!(got, expect as f64, "src: {}", src);
    }

    #[test]
    fn ecode_for_loop_sums_match_closed_form(n in 0i64..200) {
        let env = EnvSpec::new(["X"]);
        let src = format!(
            "{{ int s = 0; for (int i = 0; i < {n}; i = i + 1) {{ s = s + i; }} output[0] = input[X]; output[0].value = s; }}"
        );
        let filter = Filter::compile(&src, &env).unwrap();
        let out = filter.run(&[MetricRecord::new(0, 0.0)]).unwrap();
        prop_assert_eq!(out.records()[0].value, (n * (n - 1) / 2) as f64);
    }
}

// ---------- SimTime / SimDur laws ----------

proptest! {
    #[test]
    fn time_arithmetic_laws(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, c in 0u64..1u64 << 40) {
        let t = SimTime::from_nanos(a);
        let d1 = SimDur::from_nanos(b);
        let d2 = SimDur::from_nanos(c);
        // (t + d1) + d2 == (t + d2) + d1
        prop_assert_eq!((t + d1) + d2, (t + d2) + d1);
        // subtraction undoes addition
        prop_assert_eq!((t + d1) - d1, t);
        // since() is the inverse of +
        prop_assert_eq!((t + d1).since(t), d1);
        // ordering is translation-invariant
        prop_assert_eq!(t + d1 <= t + d2, d1 <= d2);
    }
}

// ---------- ProcFs ----------

fn path_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z0-9_]{1,8}", 1..4)
}

proptest! {
    #[test]
    fn procfs_set_read_roundtrip(parts in path_strategy(), content in "[ -~]{0,64}") {
        let mut fs = ProcFs::new();
        let path = parts.join("/");
        fs.set(&path, content.clone()).unwrap();
        prop_assert_eq!(fs.read(&path).unwrap(), content.as_str());
        // Leading-slash and /proc/ prefixes are equivalent.
        prop_assert_eq!(fs.read(&format!("/{path}")).unwrap(), content.as_str());
        prop_assert_eq!(fs.read(&format!("/proc/{path}")).unwrap(), content.as_str());
    }

    #[test]
    fn procfs_listings_are_sorted(names in proptest::collection::hash_set("[a-z]{1,6}", 1..10)) {
        let mut fs = ProcFs::new();
        for n in &names {
            fs.set(&format!("dir/{n}"), "x").unwrap();
        }
        let listed = fs.list("dir").unwrap();
        let mut expect: Vec<String> = names.into_iter().collect();
        expect.sort();
        prop_assert_eq!(listed, expect);
    }
}

// ---------- parameter rules ----------

proptest! {
    #[test]
    fn delta_rule_is_symmetric_in_direction(
        last in 0.1f64..1e6,
        frac in 0.01f64..0.99,
        change in 0.0f64..2.0,
    ) {
        let mut p = PolicySet::new();
        p.set_rule("m", Rule::DeltaFraction(frac));
        let ctx = |value: f64| RuleCtx {
            value,
            last_sent_value: last,
            last_sent_at: Some(SimTime::ZERO),
            now: SimTime::from_secs(1),
        };
        let up = p.decide("m", &ctx(last * (1.0 + change)));
        let down = p.decide("m", &ctx(last * (1.0 - change)));
        prop_assert_eq!(up, down, "rises and falls of equal size decide alike");
        prop_assert_eq!(up, change >= frac - 1e-12);
    }

    #[test]
    fn period_rule_monotone_in_elapsed(period_s in 1u64..100, elapsed_s in 0u64..200) {
        let mut p = PolicySet::new();
        p.set_rule("m", Rule::Period(SimDur::from_secs(period_s)));
        let ctx = RuleCtx {
            value: 1.0,
            last_sent_value: 1.0,
            last_sent_at: Some(SimTime::ZERO),
            now: SimTime::from_secs(elapsed_s),
        };
        prop_assert_eq!(p.decide("m", &ctx), elapsed_s >= period_s);
    }
}

// ---------- CPU scheduler conservation ----------

proptest! {
    #[test]
    fn cpu_work_is_conserved(n_tasks in 1u32..10, n_cpus in 1u32..4, secs in 1u64..100) {
        let mut cpu = simos::CpuSched::new(n_cpus, 1e6);
        let ids: Vec<_> = (0..n_tasks)
            .map(|i| cpu.spawn_compute(SimTime::ZERO, format!("t{i}")))
            .collect();
        let end = SimTime::from_secs(secs);
        cpu.advance(end);
        let total: f64 = ids.iter().map(|&t| cpu.work_done(end, t)).sum();
        let capacity = (n_cpus.min(n_tasks)) as f64 * 1e6 * secs as f64;
        prop_assert!((total - capacity).abs() < 1.0,
            "total work {total} == usable capacity {capacity}");
        // Fair share: all tasks got the same amount.
        let first = cpu.work_done(end, ids[0]);
        for &t in &ids {
            prop_assert!((cpu.work_done(end, t) - first).abs() < 1e-6);
        }
    }
}

// ---------- stream continuity: gaps are exact ----------

proptest! {
    /// Deliver a stream with an arbitrary subset of interior sequence
    /// numbers dropped: the tracker must report exactly the dropped set —
    /// no phantom losses, no misses. (Drops before first contact or after
    /// the final arrival are unobservable by construction, so the first
    /// and last numbers always arrive.)
    #[test]
    fn gap_detection_reports_exactly_the_dropped_seqs(
        n in 2u32..200,
        drops in proptest::collection::btree_set(1u32..199, 0..40),
        epoch in 0u32..1000,
    ) {
        let dropped: std::collections::BTreeSet<u32> =
            drops.into_iter().filter(|&s| s < n - 1).collect();
        let mut tracker = kecho::StreamTracker::new();
        let mut reported = std::collections::BTreeSet::new();
        for seq in 0..n {
            if dropped.contains(&seq) {
                continue;
            }
            let obs = tracker.observe(epoch, seq);
            prop_assert!(!obs.restarted, "no epoch change in this stream");
            prop_assert!(!obs.stale, "in-order arrivals are never stale");
            if let Some((first, last)) = obs.missing {
                reported.extend(first..=last);
                prop_assert_eq!(obs.lost, u64::from(last - first + 1));
            } else {
                prop_assert_eq!(obs.lost, 0);
            }
        }
        prop_assert_eq!(&reported, &dropped);
        prop_assert_eq!(tracker.gaps(), dropped.len() as u64);
        // A restart after the loss never inflates the gap count.
        let obs = tracker.observe(epoch.wrapping_add(1), 0);
        prop_assert!(obs.restarted);
        prop_assert_eq!(tracker.gaps(), dropped.len() as u64);
    }
}
