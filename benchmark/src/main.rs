//! The repository benchmark: seven seeded workloads, ten end-to-end
//! metrics, and per-layer counters, spans and probes — all measured from
//! outside the program, through its `pub` functions and stats.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S | --slices N] [--trace 0|1] [--out FILE]
//! ```
//!
//! Without `--workload` every workload runs, one after another, in this
//! process and on this thread. See `README.md` for the catalogue.
#![deny(unsafe_code)]

mod alloc;
mod catalogue;
mod clock;
mod measure;
mod pipeline;
mod probes;
mod scenario;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use catalogue::{per_layer, result_line, END_TO_END, SEEDS};
use measure::{
    run_engine, run_slice, Budget, Check, Harvest, Measured, WARMUP_SLICES, WINDOW_SLICES,
};
use pipeline::{trace_json, Driver, Pipeline, OPS};
use scenario::{Scenario, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Slices a traced run covers when the slice count is fixed.
const TRACE_SLICES: u32 = 10;

/// Untraced runs set up this many times and report the median.
const SETUP_REPS: u32 = 3;

/// What to run and for how long.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    /// Host seconds to measure for (`--seconds`); wins over `slices`.
    pub seconds: Option<f64>,
    /// Slices to measure (`--slices`).
    pub slices: u32,
    pub trace: bool,
    pub out: PathBuf,
    /// Minimum duration of each probe loop.
    pub probe: Duration,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workload: None,
            seed: SEEDS[0],
            seconds: None,
            slices: 2 * WINDOW_SLICES,
            trace: false,
            out: PathBuf::from("benchmark/out/result.json"),
            probe: Duration::from_millis(200),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::by_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be within (0, 60]".to_string());
                }
                o.seconds = Some(s);
            }
            "--slices" => {
                o.slices = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if o.slices == 0 {
                    return Err("--slices must be at least 1".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Everything one workload reported.
pub struct Report {
    pub workload: &'static Workload,
    pub measured: Measured,
    /// Per-layer values beyond the counters: spans, glue, probes.
    pub traced: Vec<(String, f64)>,
}

impl Report {
    pub fn checks(&self) -> &[Check] {
        &self.measured.checks
    }

    pub fn correct(&self) -> bool {
        self.checks().iter().all(|c| c.ok)
    }

    /// Every per-layer value known for this run, by name.
    fn layer_values(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .measured
            .layer
            .iter()
            .map(|&(n, x)| (n.to_string(), x))
            .collect();
        v.extend(self.traced.iter().cloned());
        v
    }

    fn e2e_values(&self) -> Vec<(String, f64)> {
        self.measured
            .e2e
            .iter()
            .map(|&(n, x)| {
                // A failed check must read as the worst possible outcome.
                let x = if n == "delivered_share" && !self.correct() {
                    0.0
                } else {
                    x
                };
                (n.to_string(), x)
            })
            .collect()
    }

    /// The driver's result line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_line(&self, trace: bool) -> String {
        let m = &self.measured;
        if trace {
            let names = per_layer();
            result_line(
                self.correct(),
                m.attempted,
                m.failed,
                names.iter().map(|(n, u, _)| (n.as_str(), *u)),
                &self.layer_values(),
            )
        } else {
            result_line(
                self.correct(),
                m.attempted,
                m.failed,
                END_TO_END.iter().map(|e| (e.name, e.unit)),
                &self.e2e_values(),
            )
        }
    }

    /// Human-readable lines: `kind workload name unit value`.
    pub fn print(&self, trace: bool) {
        let wl = self.workload.name;
        if !trace {
            let values = self.e2e_values();
            for (e, (_, v)) in END_TO_END.iter().zip(&values) {
                println!("e2e {wl} {} {} {v} bound {}", e.name, e.unit, e.bound);
            }
        }
        let values = self.layer_values();
        for (name, unit, _) in per_layer() {
            if let Some((_, v)) = values.iter().find(|(n, _)| *n == name) {
                println!("layer {wl} {name} {unit} {v}");
            }
        }
        println!("exact {wl} sim_digest {:016x}", self.measured.sim_digest);
        for c in self.checks() {
            let verdict = if c.ok { "PASS" } else { "FAIL" };
            println!("check {wl} {} {verdict} {}", c.name, c.detail);
        }
    }
}

/// Drive `wl` through the hand-driven pipeline for `slices` slices after
/// the usual warm-up; returns the pipeline and the slices' host time
/// (nanoseconds of reference time).
fn run_pipeline(wl: &'static Workload, seed: u64, slices: u32, traced: bool) -> (Pipeline, f64) {
    let (sim, mut sc) = Scenario::build(wl, seed, 1);
    let mut pipe = Pipeline::new(sim, wl.stagger);
    let mut harvest = Harvest::new();
    for _ in 0..WARMUP_SLICES {
        run_slice(&mut pipe, &mut sc, &mut harvest);
    }
    pipe.world.begin_measurement(traced);
    let mut host_ns = 0.0;
    for _ in 0..slices {
        host_ns += run_slice(&mut pipe, &mut sc, &mut harvest).ns;
    }
    (pipe, host_ns)
}

/// The traced part of a run: spans from the pipeline (where the workload
/// has one), the serial comparison for the sharded workload, and probes.
fn trace_extras(
    wl: &'static Workload,
    o: &Opts,
    m: &mut Measured,
    eng: &mut pipeline::Engine,
) -> Result<Vec<(String, f64)>, String> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let slices = m.window_slices;
    let engine_ns = m.window_ns;

    if wl.pipeline {
        let (plain, untraced) = run_pipeline(wl, o.seed, slices, false);
        let plain_delivered = plain.world.frames_delivered;
        drop(plain);
        let (piped, traced) = run_pipeline(wl, o.seed, slices, true);
        let tr = &piped.world.tr;
        // Span clocks are raw; bring their sum to the traced run's
        // reference time so shares compare with the engine's.
        let to_ref = traced / tr.self_ns.iter().sum::<u64>().max(1) as f64;
        for (op, name) in OPS {
            let (calls, ns) = (
                tr.calls[op as usize],
                tr.self_ns[op as usize] as f64 * to_ref,
            );
            out.push((format!("{name}.calls"), calls as f64));
            out.push((
                format!("{name}.self_ns"),
                if calls == 0 { 0.0 } else { ns / calls as f64 },
            ));
            out.push((format!("{name}.share"), ns / engine_ns));
        }
        let glue_ns = engine_ns - untraced;
        out.push((
            "dproc.cluster.glue_ns_per_delivered".to_string(),
            glue_ns / m.delivered.max(1) as f64,
        ));
        out.push(("dproc.cluster.glue_share".to_string(), glue_ns / engine_ns));
        out.push((
            "bench.trace.overhead_share".to_string(),
            (traced - untraced) / engine_ns,
        ));
        let align = piped.world.frames_delivered as f64 / m.delivered.max(1) as f64;
        out.push(("bench.trace.align_ratio".to_string(), align));
        out.push(("bench.trace.spans".to_string(), f64::from(tr.total_spans())));

        // Alignment: value-independent traffic must match the engine frame
        // for frame; elsewhere CPU charging shifts a few filter decisions.
        let pw = &piped.world;
        let exact =
            (pw.polls, pw.frames_sent, pw.frames_delivered) == (m.polls, m.sent, m.delivered);
        let aligned = if wl.policy_free {
            exact
        } else {
            (0.9..=1.1).contains(&align)
        };
        m.checks.push(measure::check(
            "pipeline_aligned",
            aligned && pw.unexpected == 0 && plain_delivered == pw.frames_delivered,
            format!(
                "pipeline polls/sent/delivered {}/{}/{} vs engine {}/{}/{}, {} unexpected",
                pw.polls,
                pw.frames_sent,
                pw.frames_delivered,
                m.polls,
                m.sent,
                m.delivered,
                pw.unexpected
            ),
        ));

        let path = o.out.with_file_name(format!("trace-{}.json", wl.name));
        write_file(&path, &trace_json(wl.name, o.seed, tr))?;
    }

    if wl.threads > 1 {
        // The same scenario on one thread, over the same slices.
        let (serial, _, _) = run_engine(wl, o.seed, 1, 1, Budget::Slices(slices));
        out.push((
            "simcore.pdes.sharded_over_serial".to_string(),
            engine_ns / serial.window_ns,
        ));
    }

    let pending = m
        .layer
        .iter()
        .find(|(n, _)| *n == "simcore.event.pending_p50")
        .map_or(0.0, |&(_, v)| v);
    // Sharded runs expose no scheduler depth; a poll burst in flight is it.
    let pending = if pending > 0.0 {
        pending as usize
    } else {
        wl.nodes * wl.nodes
    };
    let now = eng.now();
    let probes = probes::run_all(eng.cluster().world_mut(), now, pending, o.probe);
    out.extend(probes.into_iter().map(|(n, v)| (n.to_string(), v)));
    Ok(out)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measure one workload as `o` asks.
pub fn run_workload(wl: &'static Workload, o: &Opts) -> Result<Report, String> {
    let (reps, budget) = match (o.trace, o.seconds) {
        (false, Some(secs)) => (
            SETUP_REPS,
            Budget::Seconds {
                secs,
                min: WINDOW_SLICES,
            },
        ),
        (false, None) => (SETUP_REPS, Budget::Slices(o.slices)),
        // A traced run spends its time three ways (engine, pipeline twice)
        // plus set-ups and probes, so the engine gets a fifth of the budget.
        (true, Some(secs)) => (
            1,
            Budget::Seconds {
                secs: secs / 5.0,
                min: 2,
            },
        ),
        (true, None) => (1, Budget::Slices(o.slices.min(TRACE_SLICES))),
    };
    let (mut measured, mut eng, _sc) = run_engine(wl, o.seed, wl.threads, reps, budget);
    let traced = if o.trace {
        trace_extras(wl, o, &mut measured, &mut eng)?
    } else {
        Vec::new()
    };
    Ok(Report {
        workload: wl,
        measured,
        traced,
    })
}

/// The commit checked out in the current directory, read from `.git`
/// directly (no subprocess, nothing outside the checkout); `None` where
/// there is no repository, as in the driver's checkout.
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|c| c.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// The `--out` file: what ran, on what, and every sample.
fn result_json(o: &Opts, reports: &[Report]) -> String {
    use std::fmt::Write;
    let commit = head_commit().unwrap_or_else(|| "unknown".to_string());
    let mut s = format!(
        "{{\n  \"seed\": {},\n  \"nproc\": {},\n  \"commit\": \"{commit}\",\n  \"profile\": \"{}\",\n  \"trace\": {},\n  \"workloads\": [\n",
        o.seed,
        measure::nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        o.trace,
    );
    let nums = |v: Vec<f64>| {
        v.iter()
            .map(|x| catalogue::json_num(*x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (k, r) in reports.iter().enumerate() {
        let m = &r.measured;
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"sim_digest\": \"{:016x}\", \"window_slices\": {}, \"setup_s\": [{}], \"slice_host_ms\": [{}], \"slice_raw_ms\": [{}], \"result\": {}}}{}",
            r.workload.name,
            m.sim_digest,
            m.window_slices,
            nums(m.setup_s.clone()),
            nums(m.slices.iter().map(|t| t.ns / 1e6).collect()),
            nums(m.slices.iter().map(|t| t.raw.as_secs_f64() * 1e3).collect()),
            r.result_line(o.trace),
            if k + 1 == reports.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Why a run did not succeed; the exit code tells them apart.
#[derive(Debug, PartialEq)]
enum Failure {
    /// Bad arguments or an I/O error (exit code 2).
    Usage(String),
    /// A correctness check failed (exit code 1).
    Check(String),
}

/// `Err` naming every failed check.
fn verdict<'a>(checks: impl Iterator<Item = (&'a str, &'a Check)>) -> Result<(), Failure> {
    let failed: Vec<String> = checks
        .filter(|(_, c)| !c.ok)
        .map(|(wl, c)| format!("{wl}: {} ({})", c.name, c.detail))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(Failure::Check(failed.join("; ")))
    }
}

fn run(o: &Opts) -> Result<(), Failure> {
    clock::warm_up();
    let todo: Vec<&'static Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut reports = Vec::new();
    for wl in todo {
        let r = run_workload(wl, o).map_err(Failure::Usage)?;
        r.print(o.trace);
        reports.push(r);
    }
    write_file(&o.out, &result_json(o, &reports)).map_err(Failure::Usage)?;
    // The driver reads the last line; with several workloads there is no
    // single result, the lines above are the output.
    if let [only] = reports.as_slice() {
        println!("{}", only.result_line(o.trace));
    }
    verdict(
        reports
            .iter()
            .flat_map(|r| r.checks().iter().map(|c| (r.workload.name, c))),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--contract"] {
        print!("{}", catalogue::contract_json());
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(&args)
        .map_err(Failure::Usage)
        .and_then(|o| run(&o));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Check(what)) => {
            eprintln!("dproc-benchmark: check failed: {what}");
            ExitCode::from(1)
        }
        Err(Failure::Usage(what)) => {
            eprintln!("dproc-benchmark: {what}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short fixed-slice run writing under `benchmark/out/test/<tag>/`.
    fn smoke(tag: &str, trace: bool) -> Opts {
        Opts {
            slices: 2,
            trace,
            probe: Duration::from_millis(2),
            out: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out/test")
                .join(tag)
                .join("result.json"),
            ..Opts::default()
        }
    }

    fn assert_reports(line: &str, names: impl Iterator<Item = String>) {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        for name in names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
        }
    }

    #[test]
    fn every_workload_runs_two_slices_and_validates() {
        for wl in &WORKLOADS {
            let o = smoke(wl.name, false);
            let r = run_workload(wl, &o).expect("runs");
            for c in r.checks() {
                assert!(c.ok, "{}: {} failed: {}", wl.name, c.name, c.detail);
            }
            assert_eq!(r.measured.window_slices, 2);
            assert_eq!(r.measured.slices.len(), 2);
            for (name, v) in &r.measured.e2e {
                assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", wl.name);
            }
            assert_reports(
                &r.result_line(false),
                END_TO_END.iter().map(|e| e.name.to_string()),
            );
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric_and_writes_the_trace() {
        let wl = Workload::by_name("star16-period").unwrap();
        let o = smoke("traced", true);
        let trace_file = o.out.with_file_name("trace-star16-period.json");
        let _ = std::fs::remove_file(&trace_file);
        let r = run_workload(wl, &o).expect("runs");
        for c in r.checks() {
            assert!(c.ok, "{} failed: {}", c.name, c.detail);
        }
        assert!(r.checks().iter().any(|c| c.name == "pipeline_aligned"));
        assert_reports(&r.result_line(true), per_layer().into_iter().map(|l| l.0));
        let value = |name: &str| r.layer_values().iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(value("bench.trace.align_ratio"), 1.0);
        assert!(value("dproc.dmon.poll.calls") > 0.0);
        assert!(value("kecho.wire.encode_ns") > 0.0);
        // glue + spans - overhead is the whole of the engine time.
        let spans: f64 = OPS
            .iter()
            .map(|(_, op)| value(&format!("{op}.share")))
            .sum();
        let whole = value("dproc.cluster.glue_share") + spans - value("bench.trace.overhead_share");
        assert!((whole - 1.0).abs() < 0.03, "shares add up to {whole}");
        let text = std::fs::read_to_string(&trace_file).expect("trace written");
        assert!(
            text.starts_with("{\"workload\":\"star16-period\""),
            "{}",
            &text[..60]
        );
        assert!(text.trim_end().ends_with("]}"));
    }

    #[test]
    fn a_failing_check_fails_the_run() {
        let good = measure::check("fine", true, String::new());
        let bad = measure::check("frame_conservation", false, "3 frames missing".into());
        assert_eq!(verdict([("w", &good)].into_iter()), Ok(()));
        let err = verdict([("w", &good), ("star16-period", &bad)].into_iter()).unwrap_err();
        assert_eq!(
            err,
            Failure::Check("star16-period: frame_conservation (3 frames missing)".into())
        );
    }

    #[test]
    fn arguments_as_the_driver_passes_them() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload star16-churn --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "star16-churn");
        assert_eq!((o.seed, o.seconds, o.trace), (42, Some(10.0), true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--trace yes")).is_err());
        assert!(parse_args(&args("--slices")).is_err());
        assert!(parse_args(&args("--frobnicate 1")).is_err());
    }
}
