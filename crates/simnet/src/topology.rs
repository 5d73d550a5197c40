//! Config-driven topology resolution: which rack every node lives in.
//!
//! The paper's testbed is one switch; production fabrics are racks of
//! nodes behind top-of-rack switches uplinked to a spine. A
//! [`TopologySpec`] describes the shape declaratively and resolves to a
//! [`Placement`] — the node → rack map the network, channel directory,
//! and cluster glue all share. Racks are *contiguous node-id ranges*, so
//! per-rack state anywhere in the stack can be a dense slice instead of a
//! hash map, and the single-rack case degenerates to exactly the old
//! star: every consumer that asks "is this a star?" gets the same answer
//! from the same resolver. The placement also owns *routing between
//! hosts*: [`Placement::next_hop`] is the one place that knows through
//! whom a frame travels.

use crate::network::NodeId;

/// Declarative shape of the cluster fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// Every node on one switch — the paper's testbed and the degenerate
    /// 1-rack case of the hierarchy.
    Star,
    /// Equal racks of `rack_size` nodes behind top-of-rack switches, each
    /// uplinked to one spine switch. The last rack takes the remainder
    /// when `rack_size` does not divide the node count.
    Racks {
        /// Nodes per rack (≥ 1).
        rack_size: usize,
    },
    /// Explicit rack sizes, in node-id order (for irregular fabrics and
    /// the topology proptests).
    RackList {
        /// Nodes in each rack, front to back.
        sizes: Vec<usize>,
    },
    /// One switch like [`TopologySpec::Star`], but every frame between two
    /// other nodes is relayed by the `hub` host: the Supermon-style central
    /// collector the paper argues against, kept as the ablation baseline.
    Hub {
        /// The relaying node.
        hub: NodeId,
    },
}

impl TopologySpec {
    /// Resolve the spec against a concrete node count.
    ///
    /// # Panics
    ///
    /// Panics when a rack size is zero or an explicit rack list does not
    /// sum to `n` — both are configuration errors, not runtime states.
    pub fn resolve(&self, n: usize) -> Placement {
        match self {
            TopologySpec::Star => Placement::star(n),
            TopologySpec::Racks { rack_size } => {
                assert!(*rack_size > 0, "rack_size must be positive");
                let sizes: Vec<usize> = (0..n)
                    .step_by(*rack_size)
                    .map(|start| (*rack_size).min(n - start).max(1))
                    .collect();
                Placement::from_sizes(if sizes.is_empty() { vec![n] } else { sizes })
            }
            TopologySpec::RackList { sizes } => {
                assert!(sizes.iter().all(|&s| s > 0), "rack sizes must be positive");
                assert_eq!(
                    sizes.iter().sum::<usize>(),
                    n,
                    "rack list must cover every node"
                );
                Placement::from_sizes(sizes.clone())
            }
            TopologySpec::Hub { hub } => {
                assert!(hub.0 < n, "the hub must be a cluster node");
                Placement {
                    relay: Some(*hub),
                    ..Placement::star(n)
                }
            }
        }
    }
}

/// One rack: a contiguous node-id range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rack {
    /// First node id in the rack.
    pub start: usize,
    /// Node count.
    pub len: usize,
}

impl Rack {
    /// The rack's node-id range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A resolved node → rack map. Cheap to clone-share behind an `Arc`;
/// racks are contiguous id ranges by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    racks: Vec<Rack>,
    rack_of: Vec<usize>,
    /// The host every frame between two other nodes detours through.
    relay: Option<NodeId>,
}

impl Placement {
    /// Everything in one rack (the star).
    pub fn star(n: usize) -> Self {
        Placement {
            racks: vec![Rack { start: 0, len: n }],
            rack_of: vec![0; n],
            relay: None,
        }
    }

    fn from_sizes(sizes: Vec<usize>) -> Self {
        let mut racks = Vec::with_capacity(sizes.len());
        let mut rack_of = Vec::with_capacity(sizes.iter().sum());
        let mut start = 0;
        for (k, len) in sizes.into_iter().enumerate() {
            racks.push(Rack { start, len });
            rack_of.extend(std::iter::repeat_n(k, len));
            start += len;
        }
        Placement {
            racks,
            rack_of,
            relay: None,
        }
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.rack_of.len()
    }

    /// True when the placement covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.rack_of.is_empty()
    }

    /// Number of racks.
    pub fn n_racks(&self) -> usize {
        self.racks.len()
    }

    /// True for the degenerate single-switch case: no spine, no digest
    /// tier, every path is the paper's two-hop star path.
    pub fn is_star(&self) -> bool {
        self.racks.len() <= 1
    }

    /// Which rack a node lives in.
    pub fn rack_of(&self, node: NodeId) -> usize {
        self.rack_of[node.0]
    }

    /// The rack at index `k`.
    pub fn rack(&self, k: usize) -> Rack {
        self.racks[k]
    }

    /// Iterate racks front to back.
    pub fn racks(&self) -> impl Iterator<Item = Rack> + '_ {
        self.racks.iter().copied()
    }

    /// The rack's aggregator/relay node: its first member. Deterministic
    /// and derivable from the placement alone, so every layer (directory,
    /// cluster glue, shards) agrees without coordination.
    pub fn aggregator(&self, rack: usize) -> NodeId {
        NodeId(self.racks[rack].start)
    }

    /// True when `node` is its rack's aggregator.
    pub fn is_aggregator(&self, node: NodeId) -> bool {
        !self.is_star() && self.racks[self.rack_of[node.0]].start == node.0
    }

    /// The node `from` hands a frame for `to` to: `to` itself on switched
    /// fabrics (the switches route), the hub when one relays and neither
    /// endpoint is it.
    #[inline]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        match self.relay {
            Some(hub) if from != hub && to != hub => hub,
            _ => to,
        }
    }

    /// Store-and-forward hop count (link traversals) between two nodes:
    /// 0 loopback, 2 within a rack (node→switch→node), 4 across racks
    /// (node→rack switch→spine→rack switch→node).
    pub fn hops(&self, from: NodeId, to: NodeId) -> usize {
        if from == to {
            0
        } else if self.rack_of[from.0] == self.rack_of[to.0] {
            2
        } else {
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_one_rack() {
        let p = TopologySpec::Star.resolve(8);
        assert!(p.is_star());
        assert_eq!(p.n_racks(), 1);
        assert_eq!(p.len(), 8);
        assert_eq!(p.rack_of(NodeId(7)), 0);
        assert!(!p.is_aggregator(NodeId(0)), "stars have no aggregators");
        assert_eq!(p.hops(NodeId(0), NodeId(7)), 2);
    }

    #[test]
    fn equal_racks_with_remainder() {
        let p = TopologySpec::Racks { rack_size: 3 }.resolve(8);
        assert_eq!(p.n_racks(), 3);
        assert_eq!(p.rack(0).range(), 0..3);
        assert_eq!(p.rack(1).range(), 3..6);
        assert_eq!(p.rack(2).range(), 6..8);
        assert_eq!(p.rack_of(NodeId(5)), 1);
        assert_eq!(p.aggregator(2), NodeId(6));
        assert!(p.is_aggregator(NodeId(3)));
        assert!(!p.is_aggregator(NodeId(4)));
        assert_eq!(p.hops(NodeId(0), NodeId(2)), 2);
        assert_eq!(p.hops(NodeId(0), NodeId(7)), 4);
        assert_eq!(p.hops(NodeId(4), NodeId(4)), 0);
    }

    #[test]
    fn rack_list_is_explicit() {
        let p = TopologySpec::RackList {
            sizes: vec![1, 4, 2],
        }
        .resolve(7);
        assert_eq!(p.n_racks(), 3);
        assert_eq!(p.rack(1).range(), 1..5);
        assert_eq!(p.aggregator(1), NodeId(1));
        assert_eq!(p.racks().count(), 3);
    }

    #[test]
    fn hub_is_a_star_with_a_host_level_detour() {
        let p = TopologySpec::Hub { hub: NodeId(2) }.resolve(4);
        assert!(p.is_star());
        assert!(!p.is_aggregator(NodeId(2)));
        assert_eq!(p.next_hop(NodeId(0), NodeId(3)), NodeId(2));
        assert_eq!(p.next_hop(NodeId(2), NodeId(3)), NodeId(3));
        assert_eq!(p.next_hop(NodeId(0), NodeId(2)), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "must be a cluster node")]
    fn hub_must_be_in_the_cluster() {
        TopologySpec::Hub { hub: NodeId(4) }.resolve(4);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn rack_list_must_cover() {
        TopologySpec::RackList { sizes: vec![2, 2] }.resolve(5);
    }
}
