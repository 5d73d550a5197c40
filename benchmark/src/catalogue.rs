//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction, and the two JSON documents built from it — the contract
//! (`BENCHMARK.json`) and a run's result line.

use std::fmt::Write;

use crate::pipeline::OPS;
use crate::scenario::WORKLOADS;

/// Seconds one driver run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 10;
/// Default seed, and the second seed acceptance runs use.
pub const SEEDS: [u64; 2] = [1, 2];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the parent's median by which it may worsen.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// `_sim_` in a name or `sim_` in a unit marks modelled time; everything
/// else is host time or a count.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s_per_host_s",
        unit: "sim_s/host_s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "heap_end_over_start",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "allocs_per_delivered",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "mon_latency_sim_us_p50",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "mon_latency_sim_us_p99",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "overhead_sim_us_per_poll",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wire_bytes_per_sim_s",
        unit: "B/sim_s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "delivered_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> (&'static str, &'static str, Better) {
    (name, unit, Better::Lower)
}
const fn higher(name: &'static str, unit: &'static str) -> (&'static str, &'static str, Better) {
    (name, unit, Better::Higher)
}

/// Per-layer metrics that are not spans: counters read around the run
/// (deltas over the window), values derived from them, and probes. Layer =
/// module path. For plain work counts "lower" means less work for the same
/// input; they have no bound.
const LAYER_BASE: &[(&str, &str, Better)] = &[
    // simcore
    lower("simcore.event.executed", "count"),
    lower("simcore.event.executed_per_delivered", "count"),
    lower("simcore.event.pending_p50", "count"),
    lower("simcore.event.wheel_ns_per_op", "ns"),
    higher("simcore.pdes.windows_parallel", "count"),
    lower("simcore.pdes.windows_serial", "count"),
    lower("simcore.pdes.windows_inline", "count"),
    higher("simcore.pdes.events_per_window", "count"),
    lower("simcore.pdes.sharded_over_serial", "ratio"),
    // simnet
    lower("simnet.network.deliveries", "count"),
    lower("simnet.network.payload_bytes", "B"),
    lower("simnet.network.link_drops", "count"),
    lower("simnet.network.spine_drops", "count"),
    lower("simnet.network.queue_hwm_msgs", "count"),
    lower("simnet.network.max_link_util", "ratio"),
    lower("simnet.fault.events_lost", "count"),
    lower("simnet.fault.partition_drops", "count"),
    lower("simnet.fault.loss_drops", "count"),
    lower("simnet.fault.crash_drops", "count"),
    // simos
    lower("simos.procfs.entries", "count"),
    lower("simos.procfs.write_handle_ns", "ns"),
    // ecode
    higher("ecode.filters_compiled", "count"),
    lower("ecode.interp_fallbacks", "count"),
    lower("ecode.filters_rejected", "count"),
    lower("ecode.filter_errors", "count"),
    lower("ecode.memo_bypassed", "count"),
    lower("ecode.admit_ns_per_deploy", "ns"),
    lower("ecode.run_compiled_ns", "ns"),
    lower("ecode.run_vm_ns", "ns"),
    lower("ecode.run_instr_per_run", "count"),
    // kecho
    lower("kecho.events_sent", "count"),
    lower("kecho.events_received", "count"),
    lower("kecho.bytes_sent", "B"),
    lower("kecho.heartbeats_sent", "count"),
    lower("kecho.heartbeats_received", "count"),
    lower("kecho.gaps_detected", "count"),
    lower("kecho.credits_stalled", "count"),
    lower("kecho.events_shed", "count"),
    lower("kecho.digests_sent", "count"),
    lower("kecho.digests_received", "count"),
    lower("kecho.digest_records", "count"),
    lower("kecho.wire.encode_ns", "ns"),
    lower("kecho.wire.decode_ns", "ns"),
    lower("kecho.wire.encoded_size_ns", "ns"),
    lower("kecho.wire.bytes_per_event", "B"),
    lower("kecho.directory.plan_submission_ns", "ns"),
    // dproc
    lower("dproc.dmon.polls", "count"),
    higher("dproc.dmon.modules_skipped", "count"),
    lower("dproc.dmon.ladder_transitions", "count"),
    lower("dproc.dmon.nodes_suspected", "count"),
    lower("dproc.dmon.nodes_evicted", "count"),
    lower("dproc.dmon.resyncs", "count"),
    lower("dproc.dmon.control_handled", "count"),
    lower("dproc.dmon.control_errors", "count"),
    lower("dproc.dmon.submit_sim_us_per_poll", "sim_us"),
    lower("dproc.dmon.receive_sim_us_per_poll", "sim_us"),
    lower("dproc.dmon.digest_staleness_sim_s_p95", "sim_s"),
    lower("dproc.dmon.recover_sim_s", "sim_s"),
    lower("dproc.dmon.unrecovered_cycles", "count"),
    lower("dproc.modules.collect_ns", "ns"),
    lower("dproc.params.decide_ns", "ns"),
    lower("dproc.cluster.mon_delivered", "count"),
    lower("dproc.cluster.ctl_delivered", "count"),
    lower("dproc.cluster.host_ns_per_delivered", "ns"),
    lower("dproc.cluster.host_ns_per_poll", "ns"),
    lower("dproc.cluster.glue_ns_per_delivered", "ns"),
    lower("dproc.cluster.glue_share", "ratio"),
    // smartpointer
    higher("smartpointer.app.frames_received", "count"),
    higher("smartpointer.app.frames_processed", "count"),
    lower("smartpointer.app.frame_latency_sim_s_p50", "sim_s"),
    lower("smartpointer.app.frame_latency_sim_s_p95", "sim_s"),
    lower("smartpointer.app.mode_switches", "count"),
    lower("smartpointer.app.fallbacks", "count"),
    lower("smartpointer.app.dropped", "count"),
    // the benchmark's own
    lower("bench.slice_host_ms_p50", "ms"),
    lower("bench.slice_host_ms_p75", "ms"),
    lower("bench.slice_raw_ms_p50", "ms"),
    higher("bench.machine_speed_p50", "ratio"),
    lower("bench.allocs", "count"),
    lower("bench.heap_growth_kb_per_sim_s", "KB/sim_s"),
    lower("bench.window_sim_s", "sim_s"),
    lower("bench.window_slices", "count"),
    higher("bench.nproc", "count"),
    lower("bench.trace.overhead_share", "ratio"),
    higher("bench.trace.align_ratio", "ratio"),
    lower("bench.trace.spans", "count"),
];

/// Span-derived names, three per traced operation.
const SPAN_SUFFIXES: [(&str, &str); 3] =
    [(".calls", "count"), (".self_ns", "ns"), (".share", "ratio")];

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = LAYER_BASE
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for (_, op) in OPS {
        for (suffix, unit) in SPAN_SUFFIXES {
            all.push((format!("{op}{suffix}"), unit, Better::Lower));
        }
    }
    all
}

/// The contract's rule for a name: starts with a letter or digit, at most
/// 64 of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The contract's rule for a unit.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `BENCHMARK.json`, generated so it cannot drift from the tables above.
pub fn contract_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (k, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if k + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (k, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            if k + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (k, (name, unit, better)) in layers.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{}",
            better.as_str(),
            if k + 1 == layers.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// A JSON number with all the digits measured; non-finite values (never
/// expected) become 0 so the line stays valid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object the driver reads: `metrics` holds exactly
/// the `wanted` names (value 0 where a workload has nothing to report).
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    wanted: impl Iterator<Item = (&'a str, &'a str)>,
    values: &[(String, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (k, (name, unit)) in wanted.enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if k == 0 { "" } else { ", " },
            json_num(v)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_respects_the_contract_limits() {
        assert!(END_TO_END.len() <= 16);
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{} repeated", m.name);
        }
        for (name, unit, _) in &layers {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(seen.insert(name.clone()), "{name} repeated");
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name.to_string()), "{} repeated", w.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert_eq!(setup.better, Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(contract_json().len() < 64 * 1024);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("dproc.dmon.poll.self_ns") && valid_name("star16-period"));
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("sim_s/host_s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("sim s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn committed_contract_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            contract_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --contract > BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_carries_exactly_the_wanted_metrics() {
        let values = vec![("a.b".to_string(), 1.25), ("extra".to_string(), 9.0)];
        let line = result_line(
            true,
            0,
            0,
            [("a.b", "ms"), ("absent", "count")].into_iter(),
            &values,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"absent\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
    }
}
