//! Fault injection: scheduled crashes, partitions, message loss, and
//! link degradation.
//!
//! A [`FaultPlan`] is a declarative, time-ordered schedule of
//! [`FaultAction`]s plus the seed for any probabilistic loss. The plan is
//! pure data; the cluster glue walks it and schedules each action into the
//! discrete-event loop. At run time a [`FaultState`] holds the live fault
//! configuration — which node pairs are partitioned, the current loss
//! probability, which links are degraded — and the delivery path consults
//! it for every hop. Determinism: loss draws come from a [`SimRng`] seeded
//! from the plan, so the same seed + same plan reproduces the same drops.

use std::collections::{BTreeMap, BTreeSet};

use simcore::{SimRng, SimTime};

use crate::link::DirLink;
use crate::network::{Network, NodeId};

/// One scheduled fault directive.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Crash-stop a node: it stops polling, sending, and receiving. Its
    /// volatile d-mon state (filters, parameters, remote views) is lost.
    Crash(NodeId),
    /// Restart a crashed node with a fresh incarnation (epoch bump); it
    /// rejoins the registry and peers re-deploy their customizations.
    Revive(NodeId),
    /// Block all traffic between two nodes, both directions. Messages
    /// in flight at partition time are dropped at delivery.
    Partition(NodeId, NodeId),
    /// Remove the partition between two nodes.
    Heal(NodeId, NodeId),
    /// Drop each delivered message with this probability (0.0..=1.0),
    /// network-wide. `Loss(0.0)` turns loss back off.
    Loss(f64),
    /// Consume `fraction` (0.0..=1.0) of a node's uplink and downlink
    /// capacity, modeling a degraded NIC or congested edge port.
    Degrade(NodeId, f64),
    /// Restore a degraded node's links to full capacity.
    HealLink(NodeId),
}

/// A seeded, time-ordered schedule of fault directives.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan whose loss draws use `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            actions: Vec::new(),
        }
    }

    /// The seed for probabilistic loss.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule an arbitrary action.
    #[must_use]
    pub fn at(mut self, t: SimTime, action: FaultAction) -> Self {
        self.actions.push((t, action));
        self
    }

    /// Crash `node` at `t`.
    #[must_use]
    pub fn crash_at(self, t: SimTime, node: NodeId) -> Self {
        self.at(t, FaultAction::Crash(node))
    }

    /// Revive `node` at `t`.
    #[must_use]
    pub fn revive_at(self, t: SimTime, node: NodeId) -> Self {
        self.at(t, FaultAction::Revive(node))
    }

    /// Partition `a` from `b` at `t`.
    #[must_use]
    pub fn partition_at(self, t: SimTime, a: NodeId, b: NodeId) -> Self {
        self.at(t, FaultAction::Partition(a, b))
    }

    /// Heal the `a`–`b` partition at `t`.
    #[must_use]
    pub fn heal_at(self, t: SimTime, a: NodeId, b: NodeId) -> Self {
        self.at(t, FaultAction::Heal(a, b))
    }

    /// Set the network-wide loss probability at `t`.
    #[must_use]
    pub fn loss_at(self, t: SimTime, prob: f64) -> Self {
        self.at(t, FaultAction::Loss(prob))
    }

    /// Degrade `node`'s links by `fraction` at `t`.
    #[must_use]
    pub fn degrade_at(self, t: SimTime, node: NodeId, fraction: f64) -> Self {
        self.at(t, FaultAction::Degrade(node, fraction))
    }

    /// Restore `node`'s links at `t`.
    #[must_use]
    pub fn heal_link_at(self, t: SimTime, node: NodeId) -> Self {
        self.at(t, FaultAction::HealLink(node))
    }

    /// The scheduled actions in time order (stable for equal times, so a
    /// heal listed after a partition at the same instant wins).
    #[must_use]
    pub fn actions(&self) -> Vec<(SimTime, FaultAction)> {
        let mut out = self.actions.clone();
        out.sort_by_key(|a| a.0);
        out
    }
}

/// Why a delivery was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The endpoints are partitioned.
    Partition,
    /// The loss draw came up unlucky.
    Loss,
}

/// Counters for every fault-induced drop, one per failure path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total messages destroyed by any fault (partition + loss + crash).
    pub events_lost: u64,
    /// Messages dropped because the endpoints were partitioned.
    pub partition_drops: u64,
    /// Messages dropped by probabilistic loss.
    pub loss_drops: u64,
    /// Messages delivered into a crashed node's NIC.
    pub crash_drops: u64,
}

/// Live fault configuration consulted on the delivery path.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Severed pairs, stored normalized (lo, hi).
    partitions: BTreeSet<(usize, usize)>,
    /// Network-wide per-message loss probability.
    loss: f64,
    rng: SimRng,
    /// Background bps actually applied per degraded node, so a heal
    /// removes exactly what was added.
    degraded: BTreeMap<usize, f64>,
    /// Drop counters.
    pub stats: FaultStats,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::new(0)
    }
}

fn norm(a: NodeId, b: NodeId) -> (usize, usize) {
    (a.0.min(b.0), a.0.max(b.0))
}

impl FaultState {
    /// A fault-free state whose loss draws use `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultState {
            partitions: BTreeSet::new(),
            loss: 0.0,
            rng: SimRng::seed_from_u64(seed),
            degraded: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// Re-seed the loss RNG (done once when a plan is applied).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SimRng::seed_from_u64(seed);
    }

    /// Is the `a`–`b` path currently severed? Pure check: consumes no
    /// randomness, so side channels (e.g. application streams) can ask
    /// without perturbing the loss draw sequence.
    #[must_use]
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.partitions.contains(&norm(a, b))
    }

    /// Pairs currently partitioned.
    #[must_use]
    pub fn partitions(&self) -> Vec<(NodeId, NodeId)> {
        self.partitions
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect()
    }

    /// Current network-wide loss probability.
    #[must_use]
    pub fn loss_prob(&self) -> f64 {
        self.loss
    }

    /// Decide the fate of one delivery. Draws from the loss RNG whenever
    /// a loss probability is active, and bumps the drop counters.
    pub fn should_drop(&mut self, from: NodeId, to: NodeId) -> Option<DropReason> {
        if self.is_partitioned(from, to) {
            self.stats.partition_drops += 1;
            self.stats.events_lost += 1;
            return Some(DropReason::Partition);
        }
        if self.loss > 0.0 && from != to && self.rng.chance(self.loss) {
            self.stats.loss_drops += 1;
            self.stats.events_lost += 1;
            return Some(DropReason::Loss);
        }
        None
    }

    /// Record a delivery destroyed because the receiver had crashed.
    pub fn note_crash_drop(&mut self) {
        self.stats.crash_drops += 1;
        self.stats.events_lost += 1;
    }

    /// Apply one network-level action. `Crash`/`Revive` are node-lifecycle
    /// actions the cluster glue owns; passing one here is a no-op.
    pub fn apply(&mut self, net: &mut Network, action: &FaultAction) {
        let links = match *action {
            FaultAction::Degrade(node, _) | FaultAction::HealLink(node) => {
                Some(net.links_mut(node))
            }
            _ => None,
        };
        self.apply_links(action, links);
    }

    /// Same transition as [`FaultState::apply`] for a network whose ports
    /// have been moved out for sharded execution (see
    /// `Network::take_ports`): when the action targets a node's links
    /// (`Degrade`/`HealLink`), the caller passes that node's
    /// `(uplink, downlink)` pair; other actions ignore `links`.
    pub fn apply_links(
        &mut self,
        action: &FaultAction,
        links: Option<(&mut DirLink, &mut DirLink)>,
    ) {
        match *action {
            FaultAction::Partition(a, b) => {
                if a != b {
                    self.partitions.insert(norm(a, b));
                }
            }
            FaultAction::Heal(a, b) => {
                self.partitions.remove(&norm(a, b));
            }
            FaultAction::Loss(p) => {
                self.loss = p.clamp(0.0, 1.0);
            }
            FaultAction::Degrade(node, fraction) => {
                let (up, down) = links.expect("degrade needs the node's links");
                // Replace any previous degradation rather than stacking.
                if let Some(bps) = self.degraded.remove(&node.0) {
                    up.remove_background(bps);
                    down.remove_background(bps);
                }
                let bps = up.spec().bandwidth_bps * fraction.clamp(0.0, 1.0);
                up.add_background(bps);
                down.add_background(bps);
                self.degraded.insert(node.0, bps);
            }
            FaultAction::HealLink(node) => {
                if let Some(bps) = self.degraded.remove(&node.0) {
                    let (up, down) = links.expect("heal-link needs the node's links");
                    up.remove_background(bps);
                    down.remove_background(bps);
                }
            }
            FaultAction::Crash(_) | FaultAction::Revive(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use simcore::SimDur;

    fn net() -> Network {
        Network::new(4, LinkSpec::fast_ethernet())
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let mut n = net();
        let mut f = FaultState::new(1);
        f.apply(&mut n, &FaultAction::Partition(NodeId(0), NodeId(2)));
        assert_eq!(
            f.should_drop(NodeId(0), NodeId(2)),
            Some(DropReason::Partition)
        );
        assert_eq!(
            f.should_drop(NodeId(2), NodeId(0)),
            Some(DropReason::Partition)
        );
        assert_eq!(f.should_drop(NodeId(0), NodeId(1)), None);
        f.apply(&mut n, &FaultAction::Heal(NodeId(2), NodeId(0)));
        assert_eq!(f.should_drop(NodeId(0), NodeId(2)), None);
        assert_eq!(f.stats.partition_drops, 2);
        assert_eq!(f.stats.events_lost, 2);
    }

    #[test]
    fn loss_drops_roughly_the_requested_fraction() {
        let mut n = net();
        let mut f = FaultState::new(7);
        f.apply(&mut n, &FaultAction::Loss(0.3));
        let dropped = (0..10_000)
            .filter(|_| f.should_drop(NodeId(0), NodeId(1)).is_some())
            .count();
        assert!((2_700..3_300).contains(&dropped), "dropped {dropped}");
        f.apply(&mut n, &FaultAction::Loss(0.0));
        assert_eq!(f.should_drop(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let mut n = net();
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let mut f = FaultState::new(42);
                f.apply(&mut n, &FaultAction::Loss(0.5));
                (0..100)
                    .map(|_| f.should_drop(NodeId(0), NodeId(1)).is_some())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn degrade_slows_delivery_and_heal_restores_it() {
        let mut n = net();
        let mut f = FaultState::new(0);
        let t0 = SimTime::ZERO;
        let clean = n.send(t0, NodeId(0), NodeId(1), 10_000).wire;
        f.apply(&mut n, &FaultAction::Degrade(NodeId(0), 0.9));
        let later = t0 + SimDur::from_secs_f64(1.0);
        let slow = n.send(later, NodeId(0), NodeId(1), 10_000).wire;
        assert!(
            slow > clean.mul_f64(5.0),
            "degraded wire {slow:?} vs clean {clean:?}"
        );
        f.apply(&mut n, &FaultAction::HealLink(NodeId(0)));
        let healed_at = later + SimDur::from_secs_f64(1.0);
        let healed = n.send(healed_at, NodeId(0), NodeId(1), 10_000).wire;
        assert_eq!(healed, clean);
    }

    #[test]
    fn plan_orders_actions_by_time() {
        let t = |s: f64| SimTime::ZERO + SimDur::from_secs_f64(s);
        let plan = FaultPlan::new(9)
            .heal_at(t(30.0), NodeId(0), NodeId(1))
            .crash_at(t(10.0), NodeId(3))
            .partition_at(t(20.0), NodeId(0), NodeId(1));
        let acts = plan.actions();
        assert_eq!(acts[0], (t(10.0), FaultAction::Crash(NodeId(3))));
        assert_eq!(
            acts[1],
            (t(20.0), FaultAction::Partition(NodeId(0), NodeId(1)))
        );
        assert_eq!(acts[2], (t(30.0), FaultAction::Heal(NodeId(0), NodeId(1))));
    }

    #[test]
    fn loopback_is_never_dropped() {
        let mut n = net();
        let mut f = FaultState::new(3);
        f.apply(&mut n, &FaultAction::Loss(1.0));
        assert_eq!(f.should_drop(NodeId(1), NodeId(1)), None);
    }
}
