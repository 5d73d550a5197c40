//! Sharded parallel execution of the cluster simulation on the
//! [`simcore::pdes`] engine. The event handlers are the serial engine's
//! ([`crate::node`]); this module only decides where state lives and who
//! may touch it when.
//!
//! # Who owns what during a run
//!
//! Each node's columns ([`Nodes`]: host, d-mon, service queue, uplink
//! port, downlink) move to the node's shard for the length of a
//! [`ParallelDriver::run_until`] call: round-robin on a star, whole racks
//! to one shard on a hierarchy, so rack-local traffic stays shard-local.
//! What remains of the [`ClusterWorld`] — directory, spine links, fault
//! state, samplers, counters — is the shards' shared state. A handler
//! reads it through a [`View`](crate::node::View) and writes it only by
//! emitting an [`Fx`], which [`PCoord::apply`] replays in exact serial
//! order through the same appliers the serial engine uses.
//!
//! # Which effects are deferred
//!
//! All of them, to the end of the window; the replay merge restores the
//! serial `(time, seq)` order, so link reservations, sampler contents and
//! sequence numbers come out identical. Ledger effects commute with the
//! handler that emitted them (no handler reads the ledger). Membership
//! effects do not, which is why the serial engine also applies them only
//! after the emitting handler has returned.
//!
//! A frame that leaves its sender's uplink is not an [`Fx`] but a post to
//! its receiver's shard ([`Wire`]): the merge gives it its sequence
//! number and crosses the spine legs of a cross-rack frame
//! ([`PCoord::route`]) in serial position, and the receiving shard then
//! reserves its own node's downlink and schedules the delivery
//! ([`PShard::receive`]), in the merge's order, in parallel with the
//! other shards. No handler and no `Fx` touches a downlink inside a
//! parallel window — link faults go serial — so each downlink takes its
//! reservations in the serial order restricted to it, and that is all its
//! arithmetic depends on.
//!
//! # Why parallel windows are safe
//!
//! During a parallel window every shard reads the shared state through
//! `&ClusterWorld`. [`PCoord::plan`] guarantees that nothing a handler
//! reads can change inside the window, by going serial whenever:
//!
//! * a fault action falls inside the window (`alive`/links/partitions
//!   change),
//! * probabilistic loss or a partition is active (`should_drop` consumes
//!   RNG draws in delivery order),
//! * a revived node has not yet re-registered (its next poll writes the
//!   directory), or
//! * any live failure detector could reach a Dead verdict inside the
//!   window (an eviction writes the directory).
//!
//! The last two take a walk over every node to see, so `plan` keeps what
//! the last walk found (`PlanCache`) and walks again only where that can
//! have changed; in a debug build it checks every verdict against the walk.
//!
//! In a serial window the coordinating thread runs one event at a time
//! and replays its effects before the next, which is the serial engine's
//! behaviour exactly.

use std::collections::BTreeSet;
use std::sync::Arc;

use kecho::RecordPool;
use simcore::pdes::{
    Coordinator, Emit, Engine, Receipt, Sched, ShardWorld, SharedView, WindowMode, Worlds,
};
use simcore::{SimDur, SimTime};
use simnet::{Delivery, DirLink, FaultState, Leg, NodeId, Placement};

use crate::cluster::{ClusterEvent, ClusterWorld, Frame};
use crate::dmon::DMon;
use crate::node::{landed, view_of, Fx, Member, Node, NodeSet, Nodes, Sink};

/// One worker shard's world: the columns of the nodes it owns, and the
/// record buffers their handlers reuse.
pub(crate) struct PShard {
    nodes: Nodes,
    /// Cluster-wide node id → index in `nodes` (`usize::MAX` for nodes on
    /// other shards).
    local: Vec<usize>,
    /// Cluster-wide node id → shard, the coordinator's.
    shard_of: Arc<[u32]>,
    /// Lent to whichever thread runs a handler of this shard, so the
    /// buffers stay with the shard and not with the thread that claimed it.
    pool: RecordPool,
}

/// A frame on its way to its receiver's shard, as it left its sender's
/// uplink. The merge replaces `path` with the spine's verdict on a
/// cross-rack frame; the receiving shard crosses the downlink.
pub(crate) struct Wire {
    frame: Frame,
    path: Result<Leg, Delivery>,
}

/// A shard's sink: everything is logged for replay, and a frame is posted
/// to its receiver's shard. Only a serial window has the fault state to
/// answer `should_drop` from.
struct ShardSink<'a, 'e> {
    out: &'a mut Emit<'e, PShard>,
    fault: Option<&'a mut FaultState>,
    shard_of: &'a [u32],
}

impl Sink for ShardSink<'_, '_> {
    fn schedule_at(&mut self, at: SimTime, ev: ClusterEvent) {
        self.out.schedule_at(at, ev);
    }

    fn wire_send(&mut self, frame: Frame, leg: Leg) {
        let shard = self.shard_of[frame.hop.to.0] as usize;
        let path = Ok(leg);
        self.out.post(shard, Wire { frame, path });
    }

    fn fx(&mut self, fx: Fx) {
        self.out.fx(fx);
    }

    fn should_drop(&mut self, from: NodeId, to: NodeId) -> bool {
        // A parallel window only runs under a quiet fault state, where
        // the query is pure and says no.
        let fault = self.fault.as_mut();
        fault.is_some_and(|f| f.should_drop(from, to).is_some())
    }
}

impl ShardWorld for PShard {
    type Ev = ClusterEvent;
    type Fx = Fx;
    type Post = Wire;
    type Shared = ClusterWorld;

    // detlint: shard-entry
    fn execute(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut Emit<'_, PShard>,
        shared: &mut SharedView<'_, ClusterWorld>,
    ) {
        let (view, fault) = match shared {
            SharedView::Frozen(w) => {
                debug_assert!(
                    w.fault.loss_prob() == 0.0 && w.fault.partitions().is_empty(),
                    "parallel window with active loss/partition"
                );
                (view_of!(w), None)
            }
            SharedView::Exclusive(w) => (view_of!(w), Some(&mut w.fault)),
        };
        let mut node = Node::at(self.local[ev.node()], self.nodes.cols());
        let shard_of = &self.shard_of;
        let sink = &mut ShardSink {
            out,
            fault,
            shard_of,
        };
        let _lent = self.pool.lend();
        match ev {
            ClusterEvent::Poll { token, .. } => node.tick(now, token, &view, sink),
            ClusterEvent::Deliver(frame) => node.deliver(now, frame, &view, sink),
            ClusterEvent::Fault { k } => sink.fx(Fx::Member(Member::FaultAction { k })),
        }
    }

    /// The end of a frame's path: the receiver's downlink, then the
    /// delivery, scheduled under the number the merge gave the frame. A
    /// frame a switch dropped gives its buffer to this shard's pool.
    // detlint: shard-entry
    fn receive(&mut self, _now: SimTime, wire: Wire, receipt: Receipt<'_, ClusterEvent>) {
        let Wire { frame, path } = wire;
        let down = &mut self.nodes.downs[self.local[frame.hop.to.0]];
        let d = path.map_or_else(|dropped| dropped, |leg| leg.land(down));
        let _lent = d.dropped.is_some().then(|| self.pool.lend());
        landed(frame, d, |at, ev| receipt.schedule_at(at, ev));
    }
}

/// Every shard's nodes, by cluster-wide id.
struct ShardNodes<'a, 's, 'g> {
    worlds: &'a mut Worlds<'s, 'g, PShard>,
    shard_of: &'a [u32],
}

impl NodeSet for ShardNodes<'_, '_, '_> {
    fn node(&mut self, id: NodeId) -> Node<'_> {
        let w = &mut self.worlds[self.shard_of[id.0] as usize];
        Node::at(w.local[id.0], w.nodes.cols())
    }

    fn links(&mut self, id: NodeId) -> (&mut DirLink, &mut DirLink) {
        let w = &mut self.worlds[self.shard_of[id.0] as usize];
        w.nodes.links(w.local[id.0])
    }
}

/// The coordinator: hazard planning + effect application.
pub(crate) struct PCoord {
    /// `(time, index)` of fault actions not yet applied, for the
    /// imminent-fault hazard check.
    fault_pending: BTreeSet<(SimTime, usize)>,
    /// Node → shard assignment.
    shard_of: Arc<[u32]>,
    /// What `plan` remembers of its last look at every node, so that a
    /// window is planned without one.
    cache: PlanCache,
}

/// The two hazards that take a walk over every node to see, as of the last
/// walk. Both can only change where [`PlanCache::STALE`] is set again: a
/// membership effect (liveness, eviction and rejoin bits, a Dead record
/// rewritten by `on_peer_rejoin`, a revived d-mon's emptied peer table) and
/// the start of a `run_until` (between runs the caller may have changed
/// anything, failure bounds included) — or, for the horizon, by time
/// reaching it.
struct PlanCache {
    /// H-rejoin: some live node is still evicted.
    rejoining: bool,
    /// H-evict: no live failure detector reaches a Dead verdict before
    /// this instant. Taken at a window start `t`, it is the earliest
    /// `last_heard + dead_after` over the live d-mons' peers, capped at
    /// `t + dead_after`: a record's `last_heard` only moves later, and a
    /// peer first heard — or heard again after a Dead verdict — after `t`
    /// has `t + dead_after` at the least ([`DMon::dead_horizon`]). A
    /// window whose bound stays before it cannot hold an eviction; one
    /// that reaches it looks again.
    ///
    /// [`DMon::dead_horizon`]: crate::dmon::DMon::dead_horizon
    evict_horizon: SimTime,
}

impl PlanCache {
    /// A horizon every window reaches: the next `plan` walks the nodes.
    const STALE: PlanCache = PlanCache {
        rejoining: true,
        evict_horizon: SimTime::ZERO,
    };
}

/// H-rejoin, looked up: a revived-but-unregistered node's next poll writes
/// the directory.
fn rejoin_hazard(shared: &ClusterWorld) -> bool {
    let mut members = shared.alive.iter().zip(&shared.evicted);
    members.any(|(&alive, &evicted)| alive && evicted)
}

/// The live nodes' d-mons, shard by shard.
fn live_dmons<'a>(
    shared: &'a ClusterWorld,
    worlds: &'a Worlds<'_, '_, PShard>,
) -> impl Iterator<Item = &'a DMon> {
    let dmons = worlds.iter().flat_map(|w| &w.nodes.dmons);
    dmons.filter(|dmon| shared.alive[dmon.node().0])
}

/// H-evict, looked up: a live failure detector could reach a Dead verdict
/// (a directory eviction) at a poll inside the window. `last_heard` only
/// moves later during a window, so this is conservative.
fn evict_hazard(shared: &ClusterWorld, worlds: &Worlds<'_, '_, PShard>, bound: SimTime) -> bool {
    live_dmons(shared, worlds).any(|dmon| dmon.next_dead_deadline().is_some_and(|d| d <= bound))
}

impl Coordinator<PShard> for PCoord {
    fn plan(
        &mut self,
        shared: &ClusterWorld,
        worlds: &Worlds<'_, '_, PShard>,
        t0: SimTime,
        bound: SimTime,
    ) -> WindowMode {
        // H-fault: a fault action inside the window flips alive bits,
        // partitions, loss, or link capacities mid-window.
        if self.fault_pending.first().is_some_and(|&(t, _)| t <= bound) {
            return WindowMode::Serial;
        }
        // H-loss: active loss consumes RNG draws in delivery order; an
        // active partition bumps drop counters in delivery order.
        if shared.fault.loss_prob() > 0.0 || !shared.fault.partitions().is_empty() {
            return WindowMode::Serial;
        }
        let evicting = bound >= self.cache.evict_horizon && {
            let horizons = live_dmons(shared, worlds).map(|dmon| dmon.dead_horizon(t0));
            self.cache = PlanCache {
                rejoining: rejoin_hazard(shared),
                evict_horizon: horizons.min().unwrap_or(SimTime::MAX),
            };
            evict_hazard(shared, worlds, bound)
        };
        debug_assert_eq!(
            (self.cache.rejoining, evicting),
            (rejoin_hazard(shared), evict_hazard(shared, worlds, bound)),
            "plan cache went stale: horizon {} at a window to {bound}",
            self.cache.evict_horizon
        );
        if self.cache.rejoining || evicting {
            WindowMode::Serial
        } else {
            WindowMode::Parallel
        }
    }

    // detlint: replay-only
    fn apply(
        &mut self,
        now: SimTime,
        fx: Fx,
        shared: &mut ClusterWorld,
        worlds: &mut Worlds<'_, '_, PShard>,
        sched: &mut Sched<'_, '_, ClusterEvent>,
    ) {
        let Some(m) = shared.split().2.post(fx) else {
            return;
        };
        if let Member::FaultAction { k } = m {
            self.fault_pending.remove(&(now, k));
        }
        self.cache = PlanCache::STALE;
        let shard_of = &self.shard_of[..];
        let mut arm = |at: SimTime, ev: ClusterEvent| {
            sched.schedule(shard_of[ev.node()] as usize, at, ev);
        };
        let mut nodes = ShardNodes { worlds, shard_of };
        shared.apply_member(now, m, &mut nodes, &mut arm);
    }

    /// A frame's spine legs, crossed in serial order: the spine is the one
    /// part of a path that senders on every shard share.
    fn route(&mut self, _now: SimTime, wire: &mut Wire, shared: &mut ClusterWorld) {
        if !shared.net.is_hierarchical() {
            return;
        }
        let Wire { frame, path } = wire;
        if let Ok(leg) = *path {
            let fabric = shared.net.split().2;
            *path = fabric.cross_spine(frame.hop.from, frame.hop.to, leg);
        }
    }
}

/// The parallel driver owned by `ClusterSim` when `threads > 1`: the pdes
/// engine, the coordinator, and the (empty between runs) shards.
pub(crate) struct ParallelDriver {
    /// Read by `ClusterSim` for shard count, time and counters.
    pub engine: Engine<PShard>,
    coord: PCoord,
    shards: Vec<PShard>,
}

impl ParallelDriver {
    /// Build a driver for the placement's nodes over `threads` shards
    /// (clamped to the node count), with the network's link lookahead.
    /// Star placements partition round-robin; hierarchical placements
    /// assign whole racks to shards, so rack-local pub-sub traffic stays
    /// shard-local and only spine digests cross shard boundaries.
    pub(crate) fn new(placement: &Placement, threads: usize, lookahead: SimDur) -> Self {
        let n = placement.len();
        let shards = threads.min(n).max(1);
        let star = placement.is_star();
        let key = |i| {
            if star {
                i
            } else {
                placement.rack_of(NodeId(i))
            }
        };
        let shard_of: Arc<[u32]> = (0..n).map(|i| (key(i) % shards) as u32).collect();
        let mut worlds: Vec<PShard> = (0..shards)
            .map(|_| PShard {
                nodes: Nodes::default(),
                local: vec![usize::MAX; n],
                shard_of: shard_of.clone(),
                pool: RecordPool::default(),
            })
            .collect();
        let mut sizes = vec![0; shards];
        for (i, &s) in shard_of.iter().enumerate() {
            worlds[s as usize].local[i] = sizes[s as usize];
            sizes[s as usize] += 1;
        }
        ParallelDriver {
            engine: Engine::new(shards, lookahead),
            coord: PCoord {
                fault_pending: BTreeSet::new(),
                shard_of,
                cache: PlanCache::STALE,
            },
            shards: worlds,
        }
    }

    /// Seed an event on its node's shard. Seeding consumes sequence
    /// numbers in call order, like the serial scheduler.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: ClusterEvent) {
        if let ClusterEvent::Fault { k } = ev {
            self.coord.fault_pending.insert((at, k));
        }
        let shard = self.coord.shard_of[ev.node()] as usize;
        self.engine.schedule(shard, at, ev);
    }

    /// Run the cluster to `until` on the worker shards: deal the world's
    /// per-node columns to the shards, run, and put them back. Rows move
    /// between columns that keep their capacity, so a call allocates
    /// nothing for them once every column has held its nodes.
    pub(crate) fn run_until(&mut self, world: &mut ClusterWorld, until: SimTime) {
        let mut nodes = world.take_nodes();
        for (row, &s) in nodes.drain_rows().zip(self.coord.shard_of.iter()) {
            self.shards[s as usize].nodes.push(row);
        }
        self.coord.cache = PlanCache::STALE;
        let shards = std::mem::take(&mut self.shards);
        self.shards = self.engine.run_until(shards, world, &mut self.coord, until);
        // Each shard holds its nodes in id order, so walking the
        // assignment backwards and taking each shard's last node restores
        // the order, reversed.
        for &s in self.coord.shard_of.iter().rev() {
            let row = self.shards[s as usize].nodes.pop();
            nodes.push(row.expect("every node is on its shard"));
        }
        nodes.reverse();
        world.restore_nodes(nodes);
    }
}

#[cfg(test)]
mod tests {
    //! The three ways the planner's kept horizon could go stale. In a debug
    //! build `plan` itself compares every verdict with the walk it replaces
    //! and panics on a difference; a release build would show one here as
    //! an eviction replayed at the end of a parallel window, which the
    //! serial engine applies at once.

    use super::*;
    use crate::cluster::{ClusterConfig, ClusterSim};
    use simnet::FaultPlan;

    const TIGHT: (SimDur, SimDur) = (SimDur::from_millis(400), SimDur::from_millis(900));

    /// What a run leaves behind that a misplaced eviction would move.
    fn outcome(sim: &ClusterSim) -> (u64, u64, u64, u64, Vec<String>) {
        let w = sim.world();
        (
            w.dmon_total(|s| s.nodes_evicted),
            w.dmon_total(|s| s.resyncs),
            w.mon_delivered,
            w.mon_latency_us.mean().to_bits(),
            w.hosts.iter().map(|h| h.proc.render_tree()).collect(),
        )
    }

    /// Drive the same script on the serial engine and on two shards: the
    /// same outcome, and the sharded run's window counts.
    fn on_both_engines(script: impl Fn(&mut ClusterSim)) -> simcore::pdes::EngineStats {
        let run = |threads| {
            let mut sim = ClusterSim::new(ClusterConfig::new(4));
            sim.set_threads(threads);
            sim.start();
            script(&mut sim);
            sim
        };
        let (serial, sharded) = (run(1), run(2));
        assert!(outcome(&serial).0 > 0, "nobody was evicted — vacuous");
        assert_eq!(outcome(&serial), outcome(&sharded));
        sharded.parallel_stats().expect("parallel driver")
    }

    fn set_bounds(sim: &mut ClusterSim, (stale, dead): (SimDur, SimDur)) {
        for dmon in &mut sim.world_mut().dmons {
            dmon.set_failure_bounds(stale, dead);
        }
    }

    #[test]
    fn a_peer_first_heard_after_the_walk_is_inside_the_horizon() {
        // The first window's walk finds no peer record at all: there is no
        // deadline, and only the cap (that walk's time + `dead_after`)
        // brings the planner back before the first verdict — which, with a
        // Dead bound under the polling period, comes at the second poll,
        // with no membership effect and no run boundary before it.
        let stats = on_both_engines(|sim| {
            set_bounds(sim, TIGHT);
            sim.run_until(SimTime::from_secs(4));
        });
        assert!(stats.windows_serial > 0 && stats.windows_parallel > 0);
    }

    #[test]
    fn bounds_shrunk_between_two_runs_are_seen_by_the_next() {
        // Five quiet seconds leave a horizon some eight seconds out; the
        // caller then tightens the bounds, and the very next polls evict.
        let stats = on_both_engines(|sim| {
            sim.run_until(SimTime::from_secs(5));
            set_bounds(sim, TIGHT);
            sim.run_until(SimTime::from_secs(8));
        });
        assert!(stats.windows_serial > 0);
    }

    #[test]
    fn a_rejoin_brings_the_planner_back_to_parallel_windows() {
        // Crash, Dead verdict, eviction, revival, rejoin: the rejoin turns
        // every peer's Dead record of the node into a Stale one heard
        // "now", and clears the last evicted-but-alive bit. Both are
        // membership effects, so the planner looks again — and from then
        // on plans parallel windows, which it would never do on the
        // hazards it kept from before.
        let mut sim = ClusterSim::new(
            ClusterConfig::new(4).failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4)),
        );
        sim.set_threads(2);
        sim.start();
        let faults = FaultPlan::new(3)
            .crash_at(SimTime::from_secs(2), NodeId(1))
            .revive_at(SimTime::from_secs(8), NodeId(1));
        sim.apply_fault_plan(&faults);
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.world().dmon_total(|s| s.nodes_evicted) > 0);
        assert!(sim.world().evicted.iter().all(|&e| !e), "node 1 rejoined");
        let before = sim.parallel_stats().expect("parallel driver");
        sim.run_until(SimTime::from_secs(13));
        let after = sim.parallel_stats().expect("parallel driver");
        assert_eq!(after.windows_serial, before.windows_serial);
        assert!(after.windows_parallel > before.windows_parallel);
    }
}
