//! Probes: tight loops over public functions that d-mon and the engine
//! call internally, where a span cannot reach. Inputs are captured from the
//! finished workload — its events, filter sources, metric values, `/proc`
//! handles, pending depth and delay mix — so a probe times the function on
//! the data that workload feeds it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dproc::cluster::ClusterWorld;
use dproc::modules::standard_modules;
use dproc::params::{PolicySet, Rule, RuleCtx};
use ecode::{compile_filter, CompiledFilter, EnvSpec, Filter, MetricRecord};
use kecho::{wire, Event, ParamSpec};
use simcore::{HandleMsg, Sim, SimDur, SimTime};
use simnet::NodeId;

use crate::clock::timed;
use crate::measure::{check, Check};

/// Events kept from the harvest.
const MAX_EVENTS: usize = 4096;
/// Filter input vectors kept.
const MAX_INPUTS: usize = 256;

/// Run `op` over and over for at least `min`; mean nanoseconds of
/// reference time per call.
fn time_ns(min: Duration, mut op: impl FnMut(usize)) -> f64 {
    let (calls, t) = timed(|| {
        let mut calls = 0usize;
        let t0 = Instant::now();
        while t0.elapsed() < min {
            for _ in 0..256 {
                op(calls);
                calls += 1;
            }
        }
        calls
    });
    t.ns / calls as f64
}

/// The distinct filter sources deployed anywhere in the cluster, in a
/// stable order, with the environment they compile against.
fn deployed_filters(w: &ClusterWorld) -> (EnvSpec, Vec<String>) {
    let mut sources = std::collections::BTreeSet::new();
    for d in &w.dmons {
        for s in 0..w.len() {
            if let Some(f) = d.filter_for(NodeId(s)) {
                sources.insert(f.source().to_string());
            }
        }
    }
    (w.dmons[0].env().clone(), sources.into_iter().collect())
}

/// Filter inputs built from the values the cluster's d-mons hold about
/// each other: one vector per (observer, origin) view, `last_value_sent`
/// taken from the neighbouring view so differential clauses go both ways.
fn filter_inputs(w: &ClusterWorld, env: &EnvSpec) -> Vec<Vec<MetricRecord>> {
    let names: Vec<&str> = env.names().collect();
    let n = w.len();
    let mut views: Vec<Vec<(f64, f64)>> = Vec::new();
    'outer: for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let view: Vec<(f64, f64)> = names
                .iter()
                .map(|m| {
                    w.dmons[i]
                        .remote_value(NodeId(j), m)
                        .map_or((0.0, 0.0), |(v, at)| (v, at.as_secs_f64()))
                })
                .collect();
            views.push(view);
            if views.len() == MAX_INPUTS {
                break 'outer;
            }
        }
    }
    (0..views.len())
        .map(|k| {
            let last = &views[(k + 1) % views.len()];
            views[k]
                .iter()
                .zip(last)
                .enumerate()
                .map(|(id, (&(value, ts), &(last_value_sent, _)))| MetricRecord {
                    id: id as u32,
                    value,
                    last_value_sent,
                    timestamp: ts,
                })
                .collect()
        })
        .collect()
}

/// Compiled closure and stack VM must agree — outputs, instruction counts
/// and faults — on every deployed source and every captured input.
pub fn compiled_equals_vm(w: &ClusterWorld) -> Check {
    let (env, sources) = deployed_filters(w);
    let inputs = filter_inputs(w, &env);
    let mut compared = 0u64;
    let mut differing = 0u64;
    for src in &sources {
        let Ok(f) = Filter::compile(src, &env) else {
            differing += 1;
            continue;
        };
        let Some(c) = compile_filter(&f) else {
            differing += 1;
            continue;
        };
        for inp in &inputs {
            let same = match (c.run(inp), f.run(inp)) {
                (Ok(a), Ok(b)) => {
                    a.records() == b.records()
                        && a.accept() == b.accept()
                        && a.instructions() == b.instructions()
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            compared += 1;
            differing += u64::from(!same);
        }
    }
    check(
        "compiled_equals_vm",
        differing == 0 && compared > 0,
        format!(
            "{differing} of {compared} runs differ ({} sources, {} inputs)",
            sources.len(),
            inputs.len()
        ),
    )
}

/// Poll a few d-mons of the finished world once more and keep what they
/// would send: real events of this workload (record counts, pad, schema)
/// and the delivery delays the network gives them. The world is not used
/// for measurement afterwards.
fn harvest(w: &mut ClusterWorld, now: SimTime) -> (Vec<Event>, Vec<SimDur>) {
    let mut events = Vec::new();
    let mut delays = Vec::new();
    let period = w.dmons[0].poll_period();
    let at = now + period;
    for i in 0..w.len() {
        let (mon, ctl) = w.chans_of(i);
        let mut out = w.dmons[i].poll(&mut w.hosts[i], &w.dir, mon, ctl, at, &w.calib);
        // One re-arm per poll, one delivery per frame: the scheduler's mix.
        delays.push(period);
        for (hop, ev, bytes) in out.sends.drain(..) {
            let d = w.net.send(at, hop.from, hop.to, bytes);
            if d.dropped.is_none() {
                delays.push(d.deliver_at.since(at));
            }
            events.push(ev);
        }
        if events.len() >= MAX_EVENTS {
            break;
        }
    }
    events.truncate(MAX_EVENTS);
    (events, delays)
}

/// A scheduler world whose every event re-schedules itself with the next
/// delay of the captured mix: constant pending depth, realistic horizons.
struct Rearm {
    delays: Vec<SimDur>,
    next: usize,
}

impl HandleMsg<u32> for Rearm {
    fn handle(&mut self, sim: &mut Sim<Rearm, u32>, msg: u32) {
        let d = self.delays[self.next % self.delays.len()];
        self.next += 1;
        sim.schedule_msg_in(d, msg);
    }
}

/// Pop + insert cost of the scheduler at the workload's pending depth.
fn wheel_ns_per_op(min: Duration, delays: &[SimDur], depth: usize) -> f64 {
    let mut world = Rearm {
        delays: delays.to_vec(),
        next: 0,
    };
    let mut sim: Sim<Rearm, u32> = Sim::new();
    for k in 0..depth.max(1) {
        let d = world.delays[k % world.delays.len()];
        sim.schedule_msg_in(d, k as u32);
    }
    let (executed, t) = timed(|| {
        let t0 = Instant::now();
        let mut executed = 0u64;
        while t0.elapsed() < min {
            executed += sim.run_for(&mut world, SimDur::from_millis(50));
        }
        executed
    });
    if executed == 0 {
        return 0.0;
    }
    t.ns / executed as f64
}

/// Every probe, by per-layer metric name. `pending` is the workload's
/// median scheduler depth. Consumes the world's state (see [`harvest`]).
pub fn run_all(
    w: &mut ClusterWorld,
    now: SimTime,
    pending: usize,
    min: Duration,
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // ---- ecode: admission and the two executors ----
    let (env, sources) = deployed_filters(w);
    let inputs = filter_inputs(w, &env);
    if !sources.is_empty() {
        out.push((
            "ecode.admit_ns_per_deploy",
            time_ns(min, |k| {
                let f =
                    Filter::compile(&sources[k % sources.len()], &env).expect("deployed source");
                black_box(compile_filter(black_box(&f)));
            }),
        ));
        let filters: Vec<(Filter, CompiledFilter)> = sources
            .iter()
            .filter_map(|s| {
                let f = Filter::compile(s, &env).ok()?;
                let c = compile_filter(&f)?;
                Some((f, c))
            })
            .collect();
        if !filters.is_empty() && !inputs.is_empty() {
            let pick = |k: usize| {
                (
                    &filters[k % filters.len()],
                    &inputs[(k / filters.len()) % inputs.len()],
                )
            };
            let mut instructions = 0u64;
            let mut runs = 0u64;
            out.push((
                "ecode.run_compiled_ns",
                time_ns(min, |k| {
                    let ((_, c), inp) = pick(k);
                    if let Ok(o) = c.run(black_box(inp)) {
                        instructions += o.instructions();
                        runs += 1;
                        o.recycle();
                    }
                }),
            ));
            out.push((
                "ecode.run_instr_per_run",
                instructions as f64 / runs.max(1) as f64,
            ));
            out.push((
                "ecode.run_vm_ns",
                time_ns(min, |k| {
                    let ((f, _), inp) = pick(k);
                    if let Ok(o) = f.run(black_box(inp)) {
                        black_box(o.instructions());
                        o.recycle();
                    }
                }),
            ));
        }
    }

    // ---- dproc.params: one rule decision on the workload's values ----
    {
        let mut policy = PolicySet::new();
        policy.set_rule(
            "*",
            Rule::from_spec(ParamSpec::DeltaFraction { fraction: 0.15 }),
        );
        let ctxs: Vec<RuleCtx> = inputs
            .iter()
            .flatten()
            .map(|r| RuleCtx {
                value: r.value,
                last_sent_value: r.last_value_sent,
                last_sent_at: Some(now),
                now,
            })
            .collect();
        if !ctxs.is_empty() {
            out.push((
                "dproc.params.decide_ns",
                time_ns(min, |k| {
                    black_box(policy.decide("LOADAVG", black_box(&ctxs[k % ctxs.len()])));
                }),
            ));
        }
    }

    // ---- kecho.directory: the fan-out planner ----
    {
        let n = w.len();
        let chans: Vec<_> = (0..n).map(|i| w.chans_of(i).0).collect();
        let dir = &w.dir;
        out.push((
            "kecho.directory.plan_submission_ns",
            time_ns(min, |k| {
                let i = k % n;
                black_box(dir.plan_submission(chans[i], NodeId(i)));
            }),
        ));
    }

    // ---- simos.procfs: a write through an interned handle ----
    {
        let proc = &mut w.hosts[0].proc;
        let mut paths = Vec::new();
        for peer in proc.list("cluster").unwrap_or_default() {
            for file in proc.list(&format!("cluster/{peer}")).unwrap_or_default() {
                paths.push(format!("cluster/{peer}/{file}"));
            }
        }
        let handles: Vec<_> = paths.iter().filter_map(|p| proc.intern(p).ok()).collect();
        if !handles.is_empty() {
            out.push((
                "simos.procfs.write_handle_ns",
                time_ns(min, |k| {
                    let buf = proc.handle_buf(handles[k % handles.len()]);
                    buf.clear();
                    buf.push_str(black_box("cpu 0.4375 ts 1234.567"));
                }),
            ));
        }
    }

    // ---- dproc.modules: the five collect callbacks of one poll ----
    {
        let mut modules = standard_modules();
        let mut detail = String::new();
        let n = w.len();
        let hosts = &mut w.hosts;
        out.push((
            "dproc.modules.collect_ns",
            time_ns(min, |k| {
                let host = &mut hosts[k % n];
                for m in &mut modules {
                    detail.clear();
                    black_box(m.collect(host, now, &mut detail));
                }
            }),
        ));
    }

    // ---- kecho.wire and the scheduler, on harvested events ----
    let (events, delays) = harvest(w, now);
    if !events.is_empty() {
        let n = events.len();
        let encoded: Vec<_> = events.iter().map(wire::encode_event).collect();
        out.push((
            "kecho.wire.bytes_per_event",
            encoded.iter().map(|b| b.len()).sum::<usize>() as f64 / n as f64,
        ));
        out.push((
            "kecho.wire.encoded_size_ns",
            time_ns(min, |k| {
                black_box(wire::encoded_size(black_box(&events[k % n])));
            }),
        ));
        out.push((
            "kecho.wire.encode_ns",
            time_ns(min, |k| {
                black_box(wire::encode_event(black_box(&events[k % n])));
            }),
        ));
        out.push((
            "kecho.wire.decode_ns",
            time_ns(min, |k| {
                if let Ok(ev) = wire::decode_event(encoded[k % n].clone()) {
                    ev.recycle();
                }
            }),
        ));
    }
    out.push((
        "simcore.event.wheel_ns_per_op",
        wheel_ns_per_op(min, &delays, pending),
    ));
    out
}
