//! The hand-driven pipeline and its spans.
//!
//! A traced run cannot put spans inside the program, so it re-creates the
//! engine's hot loop from the layers' `pub` functions alone and wraps each
//! call: the world is built by the same code as the engine run, `start()`
//! is never called, and the benchmark drives `DMon::poll` / `poll_digest`
//! → `Network::send_class` → `Sim::schedule_msg_at` → `DMon::on_event` /
//! `on_heartbeat` / `on_digest` / `on_control` on a scheduler of its own.
//! What `ClusterWorld` adds around those calls in the real engine (CPU
//! charging and `SvcDone` events, connection tracking, meters, samplers) is
//! absent here, so engine time minus pipeline time *is* that glue.

use std::time::Instant;

use dproc::cluster::ClusterSim;
use kecho::{Event, EventKind, Hop};
use simcore::{HandleMsg, Sim, SimDur, SimTime};
use simnet::{Delivery, NodeId, TrafficClass};

/// Who advances the cluster: the engine itself or the pipeline.
pub trait Driver {
    fn cluster(&mut self) -> &mut ClusterSim;
    fn now(&self) -> SimTime;
    fn advance(&mut self, d: SimDur);
}

/// The program's own engine (`ClusterSim::run_for`).
pub struct Engine(pub ClusterSim);

impl Driver for Engine {
    fn cluster(&mut self) -> &mut ClusterSim {
        &mut self.0
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn advance(&mut self, d: SimDur) {
        self.0.run_for(d);
    }
}

/// The operations a span can name, in catalogue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Poll,
    OnEvent,
    OnHeartbeat,
    OnControl,
    PollDigest,
    OnDigest,
    Send,
    Schedule,
    Dispatch,
}

pub const OPS: [(Op, &str); 9] = [
    (Op::Poll, "dproc.dmon.poll"),
    (Op::OnEvent, "dproc.dmon.on_event"),
    (Op::OnHeartbeat, "dproc.dmon.on_heartbeat"),
    (Op::OnControl, "dproc.dmon.on_control"),
    (Op::PollDigest, "dproc.dmon.poll_digest"),
    (Op::OnDigest, "dproc.dmon.on_digest"),
    (Op::Send, "simnet.network.send"),
    (Op::Schedule, "simcore.event.schedule"),
    (Op::Dispatch, "simcore.event.dispatch"),
];

/// No causing span (a poll is a root).
const NO_SPAN: u32 = u32::MAX;

/// One recorded call (or batch of back-to-back calls into one layer).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub op: Op,
    /// Calls covered (a poll's sends share one span).
    pub calls: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The poll or delivery that caused this call.
    pub parent: u32,
    /// The originating poll: spans of one request share it.
    pub trace: u32,
}

/// Spans kept for the trace file; totals cover every span regardless.
const SPANS_KEPT: usize = 50_000;

/// In-memory span recorder. Off, it costs one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u32,
    pub calls: [u64; OPS.len()],
    pub self_ns: [u64; OPS.len()],
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: 0,
            calls: [0; OPS.len()],
            self_ns: [0; OPS.len()],
            spans: Vec::with_capacity(if on { SPANS_KEPT } else { 0 }),
        }
    }

    pub fn total_spans(&self) -> u32 {
        self.next_id
    }

    fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Close a span opened by [`Tracer::begin`]; returns its id.
    fn end(&mut self, t0: Option<Instant>, op: Op, calls: usize, parent: u32, trace: u32) -> u32 {
        let Some(t0) = t0 else { return NO_SPAN };
        let end = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let dur = end.duration_since(t0).as_nanos() as u64;
        self.calls[op as usize] += calls as u64;
        self.self_ns[op as usize] += dur;
        if self.spans.len() < SPANS_KEPT {
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                op,
                calls: calls as u32,
                start_ns,
                end_ns: start_ns + dur,
                parent,
                // A root span starts its own trace.
                trace: if trace == NO_SPAN { id } else { trace },
            });
        }
        id
    }
}

/// Typed events of the pipeline's scheduler.
pub enum PipeEv {
    Poll {
        i: usize,
    },
    Deliver {
        hop: Hop,
        ev: Event,
        bytes: usize,
        cause: u32,
        trace: u32,
    },
}

/// The world the pipeline's scheduler drives: the cluster (never started)
/// plus the recorder and the frame accounting the alignment check reads.
pub struct PipeWorld {
    cs: ClusterSim,
    pub tr: Tracer,
    pub polls: u64,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    /// Things the fault-free pipeline never expects (tail-drops, evictions,
    /// rejoin requests, control replies); the run checks this stays 0.
    pub unexpected: u64,
    deliveries: Vec<Delivery>,
}

/// Mirror of the engine's lane choice (`dproc::cluster::class_of`, which is
/// crate-private): data queues, liveness and control ride the priority lane.
fn class_of(ev: &Event) -> TrafficClass {
    match ev.kind {
        EventKind::Monitoring | EventKind::Digest => TrafficClass::Bulk,
        EventKind::Control | EventKind::Heartbeat => TrafficClass::Priority,
    }
}

impl PipeWorld {
    /// Warm-up is over: start counting frames afresh and, if `traced`,
    /// recording spans.
    pub fn begin_measurement(&mut self, traced: bool) {
        self.tr = Tracer::new(traced);
        self.polls = 0;
        self.frames_sent = 0;
        self.frames_delivered = 0;
    }

    /// Transmit a poll's planned sends: all `send_class` calls back to
    /// back (one span), then all schedules (one span). The engine
    /// interleaves the two per frame; neither reads the other's state, so
    /// the order of effects inside each layer is the same.
    fn transmit(
        &mut self,
        sim: &mut Sim<PipeWorld, PipeEv>,
        now: SimTime,
        sends: &mut Vec<(Hop, Event, usize)>,
        rearm: Option<PipeEv>,
        cause: u32,
    ) {
        let net = &mut self.cs.world_mut().net;
        self.deliveries.clear();
        let t = self.tr.begin();
        for (hop, ev, bytes) in sends.iter() {
            self.deliveries
                .push(net.send_class(now, hop.from, hop.to, *bytes, class_of(ev)));
        }
        self.tr.end(t, Op::Send, sends.len(), cause, cause);
        self.frames_sent += sends.len() as u64;

        let t = self.tr.begin();
        let mut scheduled = 0;
        for ((hop, ev, bytes), d) in sends.drain(..).zip(&self.deliveries) {
            if d.dropped.is_some() {
                self.unexpected += 1;
                continue;
            }
            scheduled += 1;
            sim.schedule_msg_at(
                d.deliver_at,
                PipeEv::Deliver {
                    hop,
                    ev,
                    bytes,
                    cause,
                    trace: cause,
                },
            );
        }
        if let Some(poll) = rearm {
            let period = self.cs.world().dmons[0].poll_period();
            sim.schedule_msg_in(period, poll);
            scheduled += 1;
        }
        self.tr.end(t, Op::Schedule, scheduled, cause, cause);
    }

    fn poll(&mut self, sim: &mut Sim<PipeWorld, PipeEv>, i: usize) {
        let now = sim.now();
        let w = self.cs.world_mut();
        let (mon, ctl) = w.chans_of(i);
        let t = self.tr.begin();
        let mut out = w.dmons[i].poll(&mut w.hosts[i], &w.dir, mon, ctl, now, &w.calib);
        let span = self.tr.end(t, Op::Poll, 1, NO_SPAN, NO_SPAN);
        self.polls += 1;
        self.unexpected += out.dead_peers.len() as u64 + u64::from(out.rejoin);
        self.transmit(sim, now, &mut out.sends, Some(PipeEv::Poll { i }), span);
        let w = self.cs.world_mut();
        w.dmons[i].recycle_sends(out.sends);

        // The aggregation tier, as `ClusterWorld::poll_node` runs it.
        let node = NodeId(i);
        let Some(dg) = w.digest_chan else { return };
        if !w.placement.is_aggregator(node) {
            return;
        }
        let rack = w.placement.rack_of(node);
        let members = w.placement.rack(rack).range();
        let t = self.tr.begin();
        let planned = w.dmons[i].poll_digest(&w.dir, dg, rack as u32, members, &[], &w.calib);
        self.tr.end(t, Op::PollDigest, 1, span, span);
        if let Some((mut sends, _cpu)) = planned {
            self.transmit(sim, now, &mut sends, None, span);
        }
    }

    fn deliver(&mut self, now: SimTime, hop: Hop, ev: Event, bytes: usize, cause: u32, trace: u32) {
        let w = self.cs.world_mut();
        let to = hop.to.0;
        let t = self.tr.begin();
        let op = match ev.kind {
            EventKind::Monitoring => {
                w.dmons[to].on_event(&mut w.hosts[to], &ev, bytes, now, &w.calib);
                ev.recycle();
                Op::OnEvent
            }
            EventKind::Heartbeat => {
                w.dmons[to].on_heartbeat(&ev, now, &w.calib);
                Op::OnHeartbeat
            }
            EventKind::Digest => {
                w.dmons[to].on_digest(&mut w.hosts[to], &ev, bytes, now, &w.calib);
                Op::OnDigest
            }
            EventKind::Control => {
                if let Some(msg) = ev.as_control() {
                    let outcome = w.dmons[to].on_control(ev.sender, msg, &w.calib);
                    // Scripts only send admissible commands: nothing to
                    // send back.
                    self.unexpected += u64::from(outcome.reply.is_some());
                }
                Op::OnControl
            }
        };
        self.tr.end(t, op, 1, cause, trace);
        self.frames_delivered += 1;
    }
}

impl HandleMsg<PipeEv> for PipeWorld {
    fn handle(&mut self, sim: &mut Sim<PipeWorld, PipeEv>, msg: PipeEv) {
        match msg {
            PipeEv::Poll { i } => self.poll(sim, i),
            PipeEv::Deliver {
                hop,
                ev,
                bytes,
                cause,
                trace,
            } => self.deliver(sim.now(), hop, ev, bytes, cause, trace),
        }
    }
}

/// The pipeline as a [`Driver`].
pub struct Pipeline {
    sim: Sim<PipeWorld, PipeEv>,
    pub world: PipeWorld,
}

impl Pipeline {
    /// Take over a built (not started) cluster; the first polls are placed
    /// exactly where `ClusterSim::start` would place them.
    pub fn new(cs: ClusterSim, stagger: SimDur) -> Self {
        let mut sim = Sim::new();
        let w = cs.world();
        let period = w.dmons[0].poll_period();
        for i in 0..w.len() {
            let first = SimTime::ZERO + period + stagger * (i as u64);
            sim.schedule_msg_at(first, PipeEv::Poll { i });
        }
        Pipeline {
            sim,
            world: PipeWorld {
                cs,
                tr: Tracer::new(false),
                polls: 0,
                frames_sent: 0,
                frames_delivered: 0,
                unexpected: 0,
                deliveries: Vec::new(),
            },
        }
    }
}

impl Driver for Pipeline {
    fn cluster(&mut self) -> &mut ClusterSim {
        &mut self.world.cs
    }
    fn now(&self) -> SimTime {
        self.sim.now()
    }
    /// One `run_until` is one dispatch span: its self time is the loop
    /// outside every layer call (wheel pop + handler dispatch).
    fn advance(&mut self, d: SimDur) {
        let until = self.sim.now() + d;
        let tr = &self.world.tr;
        let t = tr.begin();
        let inner_before: u64 = tr.self_ns.iter().sum();
        let executed = self.sim.run_until(&mut self.world, until);
        let tr = &mut self.world.tr;
        let inner: u64 = tr.self_ns.iter().sum::<u64>() - inner_before;
        tr.end(t, Op::Dispatch, executed as usize, NO_SPAN, NO_SPAN);
        // `end` booked the whole interval; keep only the part no child covers.
        tr.self_ns[Op::Dispatch as usize] -= inner.min(tr.self_ns[Op::Dispatch as usize]);
    }
}

/// Write the kept spans as one JSON object (compact rows; see the README).
pub fn trace_json(workload: &str, seed: u64, tr: &Tracer) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(tr.spans.len() * 48 + 512);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_total\":{},\"spans_kept\":{},\"ops\":[",
        tr.total_spans(),
        tr.spans.len()
    );
    for (k, (_, name)) in OPS.iter().enumerate() {
        let _ = write!(s, "{}\"{name}\"", if k == 0 { "" } else { "," });
    }
    s.push_str("],\"columns\":[\"id\",\"op\",\"calls\",\"start_ns\",\"end_ns\",\"parent\",\"trace\"],\"spans\":[\n");
    for (k, sp) in tr.spans.iter().enumerate() {
        let parent = if sp.parent == NO_SPAN {
            "null".to_string()
        } else {
            sp.parent.to_string()
        };
        let _ = writeln!(
            s,
            "{}[{},{},{},{},{},{},{}]",
            if k == 0 { "" } else { "," },
            sp.id,
            sp.op as usize,
            sp.calls,
            sp.start_ns,
            sp.end_ns,
            parent,
            sp.trace
        );
    }
    s.push_str("]}\n");
    s
}
