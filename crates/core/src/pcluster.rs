//! Sharded parallel execution of the cluster simulation on the
//! [`simcore::pdes`] engine. The event handlers are the serial engine's
//! ([`crate::node`]); this module only decides where state lives and who
//! may touch it when.
//!
//! # Who owns what during a run
//!
//! Each node's columns ([`Nodes`]: host, d-mon, service queue, uplink
//! port) move to the node's shard for the length of a
//! [`ParallelDriver::run_until`] call: round-robin on a star, whole racks
//! to one shard on a hierarchy, so rack-local traffic stays shard-local.
//! What remains of the [`ClusterWorld`] — directory, switch-side links,
//! fault state, samplers, counters — is the shards' shared state. A
//! handler reads it through a [`View`](crate::node::View) and writes it
//! only by emitting an [`Fx`], which [`PCoord::apply`] replays in exact
//! serial order through the same appliers the serial engine uses.
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
//! In a serial window the coordinating thread runs one event at a time
//! and replays its effects before the next, which is the serial engine's
//! behaviour exactly.

use std::collections::BTreeSet;

use simcore::pdes::{Coordinator, Emit, Engine, Sched, ShardWorld, SharedView, WindowMode};
use simcore::{SimDur, SimTime};
use simnet::{FaultState, NodeId, Placement};

use crate::cluster::{ClusterEvent, ClusterWorld};
use crate::node::{view_of, Fx, Member, Node, NodeSet, Nodes, Sink};

/// One worker shard's world: the columns of the nodes it owns.
pub(crate) struct PShard {
    nodes: Nodes,
    /// Cluster-wide node id → index in `nodes` (`usize::MAX` for nodes on
    /// other shards).
    local: Vec<usize>,
}

/// A shard's sink: everything is logged for replay. Only a serial window
/// has the fault state to answer `should_drop` from.
struct ShardSink<'a, 'e> {
    out: &'a mut Emit<'e, ClusterEvent, Fx>,
    fault: Option<&'a mut FaultState>,
}

impl Sink for ShardSink<'_, '_> {
    fn schedule_at(&mut self, at: SimTime, ev: ClusterEvent) {
        self.out.schedule_at(at, ev);
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
    type Shared = ClusterWorld;

    // detlint: shard-entry
    fn execute(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut Emit<'_, ClusterEvent, Fx>,
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
        let sink = &mut ShardSink { out, fault };
        match ev {
            ClusterEvent::Poll { token, .. } => node.tick(now, token, &view, sink),
            ClusterEvent::Deliver(frame) => node.deliver(now, frame, &view, sink),
            ClusterEvent::Fault { k } => sink.fx(Fx::Member(Member::FaultAction { k })),
        }
    }
}

/// Every shard's nodes, by cluster-wide id.
struct ShardNodes<'a, 'w> {
    worlds: &'a mut [&'w mut PShard],
    shard_of: &'a [u32],
}

impl NodeSet for ShardNodes<'_, '_> {
    fn node(&mut self, id: NodeId) -> Node<'_> {
        let w = &mut *self.worlds[self.shard_of[id.0] as usize];
        Node::at(w.local[id.0], w.nodes.cols())
    }
}

/// The coordinator: hazard planning + effect application.
pub(crate) struct PCoord {
    /// `(time, index)` of fault actions not yet applied, for the
    /// imminent-fault hazard check.
    fault_pending: BTreeSet<(SimTime, usize)>,
    /// Node → shard assignment.
    shard_of: Vec<u32>,
}

impl Coordinator<PShard> for PCoord {
    fn plan(
        &mut self,
        shared: &ClusterWorld,
        worlds: &[&PShard],
        _t0: SimTime,
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
        // H-rejoin: a revived-but-unregistered node's next poll writes
        // the directory.
        let mut members = shared.alive.iter().zip(&shared.evicted);
        if members.any(|(&alive, &evicted)| alive && evicted) {
            return WindowMode::Serial;
        }
        // H-evict: a live failure detector could reach a Dead verdict (a
        // directory eviction) at a poll inside the window. `last_heard`
        // only moves later during a window, so this is conservative.
        let hazard = worlds.iter().flat_map(|w| &w.nodes.dmons).any(|dmon| {
            let deadline = dmon.next_dead_deadline();
            shared.alive[dmon.node().0] && deadline.is_some_and(|d| d <= bound)
        });
        if hazard {
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
        worlds: &mut [&mut PShard],
        sched: &mut Sched<'_, '_, ClusterEvent>,
    ) {
        let shard_of = &self.shard_of[..];
        let mut arm = |at: SimTime, ev: ClusterEvent| {
            sched.schedule(shard_of[ev.node()] as usize, at, ev);
        };
        if let Some(m) = shared.split().2.post(fx, &mut arm) {
            if let Member::FaultAction { k } = m {
                self.fault_pending.remove(&(now, k));
            }
            let mut nodes = ShardNodes { worlds, shard_of };
            shared.apply_member(now, m, &mut nodes, &mut arm);
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
        let shard_of: Vec<u32> = (0..n).map(|i| (key(i) % shards) as u32).collect();
        let mut worlds: Vec<PShard> = (0..shards)
            .map(|_| PShard {
                nodes: Nodes::default(),
                local: vec![usize::MAX; n],
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
    /// per-node columns to the shards, run, and put them back.
    pub(crate) fn run_until(&mut self, world: &mut ClusterWorld, until: SimTime) {
        for (row, &s) in world.take_nodes().into_rows().zip(&self.coord.shard_of) {
            self.shards[s as usize].nodes.push(row);
        }
        let shards = std::mem::take(&mut self.shards);
        self.shards = self.engine.run_until(shards, world, &mut self.coord, until);
        // Each shard holds its nodes in id order, so walking the
        // assignment and taking each shard's next node restores the order.
        let take_rows = |s: &mut PShard| std::mem::take(&mut s.nodes).into_rows();
        let mut rows: Vec<_> = self.shards.iter_mut().map(take_rows).collect();
        let mut nodes = Nodes::default();
        for &s in &self.coord.shard_of {
            let row = rows[s as usize].next();
            nodes.push(row.expect("every node is on its shard"));
        }
        world.restore_nodes(nodes);
    }
}
