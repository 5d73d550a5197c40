//! The seven workloads: cluster configuration, customisation deploy, and
//! the seeded scripts (load, churn, faults, perturbation) applied while a
//! slice runs.
//!
//! Everything here only *generates inputs* and hands them to the program
//! through its public API; how the cluster is then advanced (the engine or
//! the hand-driven pipeline) is the caller's business.

use dproc::cluster::{ClusterConfig, ClusterSim};
use kecho::{ControlMsg, ParamSpec};
use simcore::{SimDur, SimTime};
use simnet::{FaultAction, FlowId, LinkSpec, NodeId};
use simos::cpu::TaskState;
use simos::disk::IoDir;
use simos::host::HostConfig;
use simos::TaskId;
use smartpointer::{FrameSpec, MonitorSet, Policy, SmartPointer, SmartPointerConfig};

use crate::util::SplitMix64;

/// What a workload runs; selects configuration, deploy and script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Period,
    Filters,
    Churn,
    Racks,
    Overload,
    Sharded,
    SmartPointer,
}

/// One benchmark workload. A slice is `steps` steps of `step` simulated
/// time; scripts act at step boundaries.
///
/// The step and slice lengths are committed constants, sized on the
/// reference box (2 cores) so that one slice takes 0.3–0.5 s of host time.
/// They are never tuned at run time: speed is work per host second at this
/// fixed input size.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    pub step: SimDur,
    pub steps: u32,
    pub stagger: SimDur,
    /// Engine worker threads (1 = the serial scheduler).
    pub threads: usize,
    /// Traced runs drive this workload through the hand-driven pipeline.
    pub pipeline: bool,
    /// No fault is injected, so nothing may be lost.
    pub fault_free: bool,
    /// No customisation: every stream carries every metric on every poll.
    pub policy_free: bool,
}

impl Workload {
    pub fn slice(&self) -> SimDur {
        self.step * u64::from(self.steps)
    }

    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

const MS: SimDur = SimDur::from_millis(1);

pub static WORKLOADS: [Workload; 7] = [
    Workload {
        name: "star16-period",
        why: "16-node star, 1 s polls, no customisation: fixed per-frame cost (glue, scheduler, poll, on_event, /proc) does all the work and ecode none; the bypass workload for filter changes",
        kind: Kind::Period,
        nodes: 16,
        step: SimDur::from_secs(1000),
        steps: 1,
        stagger: MS,
        threads: 1,
        pipeline: true,
        fault_free: true,
        policy_free: true,
    },
    Workload {
        name: "star16-filters",
        why: "same cluster, every stream customised at setup (delta rule, shared, differential and loop filters) under a seeded load script: steady-state ecode, memo, params and suppression dominate",
        kind: Kind::Filters,
        nodes: 16,
        step: SimDur::from_secs(20),
        steps: 50,
        stagger: MS,
        threads: 1,
        pipeline: true,
        fault_free: true,
        policy_free: false,
    },
    Workload {
        name: "star16-churn",
        why: "same cluster, customisations arrive at run time: every node writes one seeded control command per second, so admission (lex to compile), control drain and policy replacement dominate",
        kind: Kind::Churn,
        nodes: 16,
        step: SimDur::from_secs(1),
        steps: 500,
        stagger: MS,
        threads: 1,
        pipeline: true,
        fault_free: true,
        policy_free: false,
    },
    Workload {
        name: "racks1024-digest",
        why: "1024 nodes in 32 racks with per-rack digests over the spine: 4-hop routing, digest fold and fan-out, thousands of pending events and a working set far beyond cache; owns setup_s and peak_heap_mb",
        kind: Kind::Racks,
        nodes: 1024,
        step: SimDur::from_secs(3),
        steps: 1,
        stagger: MS,
        threads: 1,
        pipeline: true,
        fault_free: true,
        policy_free: true,
    },
    Workload {
        name: "overload8-faults",
        why: "8 nodes, 200 KB events, 7-message link queues and a repeating seeded fault cycle (degrade, crash, partition, loss): credits, shedding, the ladder, failure detector and resync, all off the fast path",
        kind: Kind::Overload,
        nodes: 8,
        step: SimDur::from_secs(1),
        steps: CYCLE_S as u32 * CYCLES_PER_SLICE,
        stagger: MS,
        threads: 1,
        pipeline: false,
        fault_free: false,
        policy_free: false,
    },
    Workload {
        name: "star64-sharded2",
        why: "64-node star on two engine shards: the only workload that runs simcore.pdes and dproc.pcluster; guards sharded speed and serial-sharded equality (no speed-up is claimed)",
        kind: Kind::Sharded,
        nodes: 64,
        step: SimDur::from_secs(35),
        steps: 1,
        stagger: SimDur::from_micros(1),
        threads: 2,
        pipeline: false,
        fault_free: true,
        policy_free: true,
    },
    Workload {
        name: "smartpointer5-adapt",
        why: "the paper's SmartPointer set-up: a server adapts three 5 Hz client streams from what d-mon delivers (CPU, network, hybrid policies) under seeded perturbation; the consumer side of monitoring",
        kind: Kind::SmartPointer,
        nodes: 5,
        step: SimDur::from_secs(25),
        steps: 240,
        stagger: MS,
        threads: 1,
        pipeline: false,
        fault_free: true,
        policy_free: false,
    },
];

// ---- star16-filters / star16-churn: the customisations -------------------

/// Parameter rule: send a metric when it moved 15 % since last sent.
const DELTA_RULE: ParamSpec = ParamSpec::DeltaFraction { fraction: 0.15 };
/// Certified `Shared`: output independent of per-subscriber state, so one
/// run per poll serves every subscriber through the memo.
const F_SHARED: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
/// Reads `last_value_sent`, so it cannot be shared: one run per subscriber.
const F_DIFF: &str = "{ int n = 0; if (input[FREEMEM].value != input[FREEMEM].last_value_sent) { output[n] = input[FREEMEM]; n = n + 1; } if (input[NET_AVAIL].value < input[NET_AVAIL].last_value_sent) { output[n] = input[NET_AVAIL]; n = n + 1; } }";
/// A bounded 40-iteration loop: instruction count, not admission, is the cost.
const F_LOOP: &str = "{ double acc = 0.0; for (int i = 0; i < 40; i = i + 1) { acc = acc + input[LOADAVG].value; } if (acc > 20.0) { output[0] = input[LOADAVG]; output[1] = input[DISKUSAGE]; } }";

/// The filter sources a churn command may deploy.
const CHURN_FILTERS: [&str; 4] = [
    F_SHARED,
    F_DIFF,
    F_LOOP,
    "{ if (input[DISKUSAGE].value > 100) { output[0] = input[DISKUSAGE]; output[1] = input[CACHE_MISS]; } }",
];

// ---- overload8-faults: the fault cycle ------------------------------------

pub const OVERLOAD_QUEUE_MSGS: usize = 7;
const CYCLE_S: u64 = 120;
const CYCLES_PER_SLICE: u32 = 32;

/// One scripted input, applied at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Run `threads` of the node's (pre-spawned) linpack threads.
    Linpack { node: usize, threads: usize },
    /// Set the UDP flood into `to` to `mbps` (0 stops it).
    Flood { to: usize, mbps: f64 },
    /// Hold `mb` of application memory on the node.
    Mem { node: usize, mb: u64 },
    /// One burst of disk writes.
    Disk { node: usize, kb: u64 },
    /// `node` writes `text` into its `/proc/cluster/<target>/control`.
    Control {
        node: usize,
        target: usize,
        text: String,
    },
    /// Inject a fault now.
    Fault(FaultAction),
}

/// Linpack threads pre-spawned (asleep) per loadable node; the script wakes
/// 0..=3 of them, so CPU load changes without growing the task table.
const LINPACK_POOL: usize = 3;

/// A built workload instance: the scripted-input generator plus the handles
/// its actions need.
pub struct Scenario {
    pub wl: &'static Workload,
    rng: SplitMix64,
    linpack: Vec<Vec<TaskId>>,
    /// Flood into node `i`, if the workload floods it.
    floods: Vec<Option<(FlowId, usize, f64)>>,
    pub app: Option<SmartPointer>,
    /// overload8-faults: when the current cycle's last fault heals, until
    /// recovery has been observed.
    healed_at: Option<SimTime>,
    /// overload8-faults: heal → (ladder 0, all Fresh, drained), for every
    /// cycle that got there before the next cycle's first fault.
    pub recover_s: Vec<f64>,
    /// overload8-faults: cycles that did not.
    pub unrecovered: u64,
}

impl Scenario {
    /// Build the cluster on `threads` engine shards and deploy the
    /// workload's customisations. Polls are not scheduled: the caller
    /// decides who drives them.
    pub fn build(wl: &'static Workload, seed: u64, threads: usize) -> (ClusterSim, Scenario) {
        let mut rng = SplitMix64::new(seed, wl.name);
        let n = wl.nodes;
        // The policy-free workloads have no script for the seed to shape;
        // 0–3 pad bytes per event keep two seeds from being byte-identical
        // runs without changing what the workload exercises.
        let jitter_pad = rng.below(4) as u32;
        let cfg = match wl.kind {
            Kind::Period | Kind::Sharded => ClusterConfig::new(n).event_pad(jitter_pad),
            Kind::Racks => ClusterConfig::new(n).racks(32).event_pad(jitter_pad),
            Kind::Filters | Kind::Churn => ClusterConfig::new(n),
            Kind::Overload => {
                let mut cfg = ClusterConfig::new(n)
                    .event_pad(200_000)
                    .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8));
                cfg.link =
                    LinkSpec::fast_ethernet().with_queue(OVERLOAD_QUEUE_MSGS, 64 * 1024 * 1024);
                cfg
            }
            Kind::SmartPointer => {
                ClusterConfig::named(&["server", "cpu-client", "net-client", "hyb-client", "iperf"])
                    .host_cfg(1, HostConfig::uniprocessor())
                    .host_cfg(2, HostConfig::uniprocessor())
                    .host_cfg(3, HostConfig::uniprocessor())
            }
        };
        let mut sim = ClusterSim::new(cfg.stagger(wl.stagger));
        sim.set_threads(threads);
        // Loss draws follow the seed too.
        let loss_seed = rng.next();
        sim.world_mut().fault.reseed(loss_seed);

        let mut sc = Scenario {
            wl,
            rng,
            linpack: vec![Vec::new(); n],
            floods: vec![None; n],
            app: None,
            healed_at: None,
            recover_s: Vec::new(),
            unrecovered: 0,
        };
        match wl.kind {
            Kind::Filters => {
                sc.spawn_load_handles(&mut sim, 0..n, |to| (to + n / 2) % n);
                deploy_round_robin(&mut sim);
            }
            Kind::SmartPointer => {
                sc.spawn_load_handles(&mut sim, 1..4, |_| 4);
                for client in 1..4 {
                    // A 5 s CPU window so the server sees load changes soon.
                    let name = sim.world().hosts[client].name.clone();
                    sim.write_control(NodeId(client), &name, "window cpu 5");
                }
                let clients = [MonitorSet::Cpu, MonitorSet::Net, MonitorSet::Hybrid]
                    .iter()
                    .enumerate()
                    .map(|(k, &set)| (NodeId(k + 1), Policy::Dynamic(set)))
                    .collect();
                sc.app = Some(SmartPointer::install(
                    &mut sim,
                    SmartPointerConfig {
                        server: NodeId(0),
                        clients,
                        spec: FrameSpec::interactive(),
                        rate_hz: 5.0,
                        write_to_disk: true,
                        queue_cap: 64,
                    },
                ));
            }
            _ => {}
        }
        (sim, sc)
    }

    /// Pre-spawn sleeping linpack threads and a zero-rate flood per node in
    /// `nodes`, so the script only flips state and never grows a table.
    fn spawn_load_handles(
        &mut self,
        sim: &mut ClusterSim,
        nodes: std::ops::Range<usize>,
        flood_from: impl Fn(usize) -> usize,
    ) {
        for i in nodes {
            let cpu = &mut sim.world_mut().hosts[i].cpu;
            for _ in 0..LINPACK_POOL {
                let t = cpu.spawn_compute(SimTime::ZERO, "linpack");
                cpu.set_state(SimTime::ZERO, t, TaskState::Sleeping);
                self.linpack[i].push(t);
            }
            let from = flood_from(i);
            let id = sim.start_iperf(NodeId(from), NodeId(i), 0.0);
            self.floods[i] = Some((id, from, 0.0));
        }
    }

    /// The scripted inputs of the next slice, one action list per step.
    /// Pure in the generator state: same seed, same script.
    pub fn next_slice(&mut self) -> Vec<Vec<Action>> {
        let wl = self.wl;
        let n = wl.nodes;
        let r = &mut self.rng;
        let mut steps: Vec<Vec<Action>> = vec![Vec::new(); wl.steps as usize];
        match wl.kind {
            Kind::Period | Kind::Racks | Kind::Sharded => {}
            Kind::Filters => {
                for actions in &mut steps {
                    for _ in 0..4 {
                        let node = r.below(n as u64) as usize;
                        actions.push(match r.below(4) {
                            0 => Action::Linpack {
                                node,
                                threads: r.below(LINPACK_POOL as u64 + 1) as usize,
                            },
                            1 => Action::Flood {
                                to: node,
                                mbps: [0.0, 20.0, 40.0, 60.0][r.below(4) as usize],
                            },
                            2 => Action::Mem {
                                node,
                                mb: 50 * r.below(9),
                            },
                            _ => Action::Disk {
                                node,
                                kb: r.range(64, 4096),
                            },
                        });
                    }
                }
            }
            Kind::Churn => {
                for actions in &mut steps {
                    for node in 0..n {
                        let target = r.peer(node, n);
                        let text = match r.below(10) {
                            0..=2 => format!("filter {}", CHURN_FILTERS[r.below(4) as usize]),
                            3 => "nofilter".to_string(),
                            4 | 5 => format!("delta * 0.{}", r.range(10, 30)),
                            6 => format!("period * {}", r.range(1, 3)),
                            7 => format!("above cpu 0.{}", r.range(1, 9)),
                            8 => format!("and below cpu {}", r.range(2, 4)),
                            _ => format!("below mem {}e6", r.range(100, 500)),
                        };
                        actions.push(Action::Control { node, target, text });
                    }
                }
            }
            Kind::Overload => {
                for c in 0..u64::from(CYCLES_PER_SLICE) {
                    // Three distinct victims per cycle; phases jitter by a
                    // few seconds so cycles do not lock to the poll grid.
                    let a = r.below(n as u64) as usize;
                    let b = (a + 1 + r.below(n as u64 - 2) as usize) % n;
                    let p = r.below(n as u64) as usize;
                    let q = r.peer(p, n);
                    let j = r.below(3);
                    let mut at = |s: u64, action: FaultAction| {
                        let t = c * CYCLE_S + s + j;
                        steps[t as usize].push(Action::Fault(action));
                    };
                    // Links at 10 % for 30 s.
                    at(2, FaultAction::Degrade(NodeId(a), 0.9));
                    at(32, FaultAction::HealLink(NodeId(a)));
                    // Crash long enough to be evicted (dead bound 8 s).
                    at(8, FaultAction::Crash(NodeId(b)));
                    at(20, FaultAction::Revive(NodeId(b)));
                    // Partition past the dead bound too: mutual eviction.
                    at(24, FaultAction::Partition(NodeId(p), NodeId(q)));
                    at(34, FaultAction::Heal(NodeId(p), NodeId(q)));
                    at(38, FaultAction::Loss(0.2));
                    at(42, FaultAction::Loss(0.0));
                    // Quiet until the cycle ends: time to re-converge.
                }
            }
            Kind::SmartPointer => {
                for actions in &mut steps {
                    // Each client is perturbed in the resource its policy
                    // watches; the hybrid client in both.
                    actions.push(match r.below(4) {
                        0 => Action::Linpack {
                            node: 1,
                            threads: r.below(LINPACK_POOL as u64 + 1) as usize,
                        },
                        1 => Action::Flood {
                            to: 2,
                            mbps: [0.0, 60.0, 99.2][r.below(3) as usize],
                        },
                        2 => Action::Linpack {
                            node: 3,
                            threads: r.below(LINPACK_POOL as u64 + 1) as usize,
                        },
                        _ => Action::Flood {
                            to: 3,
                            mbps: [0.0, 60.0, 99.2][r.below(3) as usize],
                        },
                    });
                }
            }
        }
        steps
    }

    /// Hand one step's inputs to the program, at simulated time `now`.
    pub fn apply(&mut self, sim: &mut ClusterSim, now: SimTime, actions: &[Action]) {
        for action in actions {
            match action {
                Action::Linpack { node, threads } => {
                    let cpu = &mut sim.world_mut().hosts[*node].cpu;
                    for (k, &t) in self.linpack[*node].iter().enumerate() {
                        let state = if k < *threads {
                            TaskState::Runnable
                        } else {
                            TaskState::Sleeping
                        };
                        cpu.set_state(now, t, state);
                    }
                }
                Action::Flood { to, mbps } => {
                    let slot = self.floods[*to].as_mut().expect("flooded node has a flow");
                    let (id, from, old_bps) = *slot;
                    let bps = mbps * 1e6;
                    let w = sim.world_mut();
                    w.flows.set_rate(&mut w.net, id, bps);
                    // What `start_iperf`/`stop_iperf` keep for NET MON.
                    for host in [from, *to] {
                        let seen = &mut w.hosts[host].observed_background_bps;
                        *seen = (*seen + bps - old_bps).max(0.0);
                    }
                    slot.2 = bps;
                }
                Action::Mem { node, mb } => {
                    let mem = &mut sim.world_mut().hosts[*node].mem;
                    mem.free_all("bench");
                    mem.alloc("bench", mb << 20);
                }
                Action::Disk { node, kb } => {
                    sim.world_mut().hosts[*node]
                        .disk
                        .submit(now, IoDir::Write, kb << 10);
                }
                Action::Control { node, target, text } => {
                    let target_name = sim.world().hosts[*target].name.clone();
                    sim.write_control(NodeId(*node), &target_name, text);
                }
                Action::Fault(action) => {
                    // A cycle's first fault ends the previous quiet period;
                    // its last heal starts the next recovery clock.
                    if matches!(action, FaultAction::Degrade(..)) && self.healed_at.take().is_some()
                    {
                        self.unrecovered += 1;
                    }
                    if matches!(action, FaultAction::Loss(p) if *p == 0.0) {
                        self.healed_at = Some(now);
                    }
                    let (world, sched) = sim.parts();
                    world.apply_fault(sched, action);
                }
            }
        }
    }

    /// After a step: on `overload8-faults`, note when the cluster has
    /// re-converged after the cycle's last heal.
    pub fn observe(&mut self, sim: &ClusterSim, now: SimTime) {
        let Some(healed) = self.healed_at else { return };
        if now > healed && converged(sim) {
            self.recover_s.push(now.since(healed).as_secs_f64());
            self.healed_at = None;
        }
    }
}

/// Ladder 0 everywhere, every peer Fresh, every outbox empty.
fn converged(sim: &ClusterSim) -> bool {
    let w = sim.world();
    let n = w.len();
    (0..n).all(|i| {
        let d = &w.dmons[i];
        w.is_alive(NodeId(i))
            && d.ladder_level() == 0
            && (0..n).all(|j| {
                i == j
                    || (d.outbox_len(NodeId(j)) == 0
                        && d.peer_health(NodeId(j)) == Some(dproc::PeerHealth::Fresh))
            })
    })
}

/// Give every stream one of four customisations, round-robin, straight
/// into the publishers' d-mons (admission cost lands in set-up only).
fn deploy_round_robin(sim: &mut ClusterSim) {
    let w = sim.world_mut();
    let calib = w.calib.clone();
    let n = w.len();
    for p in 0..n {
        for s in 0..n {
            if p == s {
                continue;
            }
            let msg = match (p + s) % 4 {
                0 => ControlMsg::SetParam {
                    metric: "*".to_string(),
                    param: DELTA_RULE,
                },
                1 => ControlMsg::DeployFilter {
                    source: F_SHARED.to_string(),
                },
                2 => ControlMsg::DeployFilter {
                    source: F_DIFF.to_string(),
                },
                _ => ControlMsg::DeployFilter {
                    source: F_LOOP.to_string(),
                },
            };
            w.dmons[p].on_control(NodeId(s), &msg, &calib);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(name: &str, seed: u64) -> Vec<Vec<Action>> {
        let wl = Workload::by_name(name).unwrap();
        let (_sim, mut sc) = Scenario::build(wl, seed, 1);
        let mut all = sc.next_slice();
        all.extend(sc.next_slice());
        all
    }

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for name in [
            "star16-filters",
            "star16-churn",
            "overload8-faults",
            "smartpointer5-adapt",
        ] {
            let a = script(name, 11);
            assert_eq!(a, script(name, 11), "{name}: same seed must repeat");
            assert_ne!(a, script(name, 12), "{name}: seeds must differ");
            assert!(a.iter().any(|s| !s.is_empty()), "{name}: empty script");
        }
    }

    #[test]
    fn slices_continue_the_stream_instead_of_repeating() {
        let wl = Workload::by_name("star16-churn").unwrap();
        let (_sim, mut sc) = Scenario::build(wl, 3, 1);
        assert_ne!(sc.next_slice(), sc.next_slice());
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::catalogue::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
