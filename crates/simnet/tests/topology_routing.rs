//! Routing properties of resolved topologies: every placement the spec
//! resolver can produce must route every node pair (through the hub host
//! only when the shape has one), charge latency that
//! matches the tree depth of the path, and — for the single-rack
//! degenerate case — reproduce the star network bit for bit.

use proptest::prelude::*;
use simcore::{SimDur, SimTime};
use simnet::link::LinkSpec;
use simnet::{Network, NodeId, TopologySpec};

fn sizes_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..5, 1..5)
}

proptest! {
    #[test]
    fn placement_covers_every_node_exactly_once(sizes in sizes_strategy()) {
        let n: usize = sizes.iter().sum();
        let p = TopologySpec::RackList { sizes: sizes.clone() }.resolve(n);
        prop_assert_eq!(p.len(), n);
        prop_assert_eq!(p.n_racks(), sizes.len());
        prop_assert_eq!(p.is_star(), sizes.len() <= 1);
        let mut seen = 0;
        for (k, rack) in p.racks().enumerate() {
            prop_assert_eq!(rack.start, seen, "racks must be contiguous");
            prop_assert_eq!(rack.len, sizes[k]);
            for i in rack.range() {
                prop_assert_eq!(p.rack_of(NodeId(i)), k);
            }
            prop_assert_eq!(p.aggregator(k), NodeId(rack.start));
            prop_assert_eq!(p.is_aggregator(NodeId(rack.start)), !p.is_star());
            seen += rack.len;
        }
        prop_assert_eq!(seen, n);
    }

    #[test]
    fn next_hop_is_the_destination_unless_a_hub_relays(
        sizes in sizes_strategy(),
        hub in 0usize..16,
    ) {
        let n: usize = sizes.iter().sum();
        let hub = NodeId(hub % n);
        let racks = TopologySpec::RackList { sizes }.resolve(n);
        let star = TopologySpec::Star.resolve(n);
        let relayed = TopologySpec::Hub { hub }.resolve(n);
        prop_assert!(relayed.is_star(), "a hub is a host, not a second switch");
        for (from, to) in (0..n).flat_map(|f| (0..n).map(move |t| (NodeId(f), NodeId(t)))) {
            prop_assert_eq!(racks.next_hop(from, to), to);
            prop_assert_eq!(star.next_hop(from, to), to);
            let via = if from == hub || to == hub { to } else { hub };
            prop_assert_eq!(relayed.next_hop(from, to), via);
        }
    }

    #[test]
    fn every_pair_is_reachable_with_tree_depth_hops(
        sizes in sizes_strategy(),
        bytes in 1usize..100_000,
    ) {
        let n: usize = sizes.iter().sum();
        let p = TopologySpec::RackList { sizes }.resolve(n);
        let spec = LinkSpec::fast_ethernet();
        for from in 0..n {
            for to in 0..n {
                // A fresh network per probe, so every path sees idle links
                // and the latency is pure wire time.
                let mut net = Network::hierarchical(&p, spec, spec);
                let d = net.send(SimTime::ZERO, NodeId(from), NodeId(to), bytes);
                prop_assert_eq!(d.dropped, None, "{from}->{to} dropped");
                prop_assert_eq!(d.queued, SimDur::ZERO);
                let hops = p.hops(NodeId(from), NodeId(to));
                if from == to {
                    prop_assert_eq!(hops, 0);
                    continue;
                }
                // Packet-pipelined store-and-forward: each extra link adds
                // one first-packet serialization plus its propagation
                // delay to the unloaded latency.
                let first_pkt = bytes.min(spec.mtu_payload);
                let t_all = net.uplink(NodeId(from)).tx_time_now(bytes);
                let t_first = net.uplink(NodeId(from)).tx_time_now(first_pkt);
                let expect = t_all
                    + (t_first + spec.latency) * (hops as u64 - 1)
                    + spec.latency;
                let got = d.latency(SimTime::ZERO);
                let diff = if got > expect { got - expect } else { expect - got };
                prop_assert!(
                    diff < SimDur::from_nanos(hops as u64),
                    "{from}->{to}: {hops} hops, latency {got} vs expected {expect}"
                );
            }
        }
    }

    #[test]
    fn one_rack_hierarchy_is_bit_identical_to_the_star(
        n in 1usize..8,
        sends in proptest::collection::vec(
            (0usize..8, 0usize..8, 1usize..2_000_000, 0u64..5_000),
            1..30,
        ),
    ) {
        let p = TopologySpec::RackList { sizes: vec![n] }.resolve(n);
        let mut star = Network::new(n, LinkSpec::fast_ethernet());
        let mut hier = Network::hierarchical(
            &p,
            LinkSpec::fast_ethernet(),
            LinkSpec::fast_ethernet(),
        );
        prop_assert!(!hier.is_hierarchical());
        let mut t = SimTime::ZERO;
        for (from, to, bytes, gap_us) in sends {
            let (from, to) = (NodeId(from % n), NodeId(to % n));
            t += SimDur::from_micros(gap_us);
            let a = star.send(t, from, to, bytes);
            let b = hier.send(t, from, to, bytes);
            prop_assert_eq!(a, b, "{}->{} {}B diverged", from, to, bytes);
        }
        prop_assert_eq!(star.deliveries(), hier.deliveries());
        prop_assert_eq!(star.payload_bytes(), hier.payload_bytes());
        prop_assert_eq!(star.queue_hwm(), hier.queue_hwm());
    }
}
