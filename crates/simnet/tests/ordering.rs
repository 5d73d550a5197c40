//! Delivery-order invariants of the network model. KECho rides on
//! TCP-like kernel messaging: events between one (sender, receiver) pair
//! must arrive in submission order, whatever their sizes and timing.

use proptest::prelude::*;
use simcore::{SimDur, SimTime};
use simnet::link::{DirLink, LinkSpec};
use simnet::{Network, NodeId, TopologySpec, TrafficClass};

proptest! {
    #[test]
    fn same_pair_messages_deliver_in_order(
        msgs in proptest::collection::vec((0u64..1000, 1usize..2_000_000), 1..40)
    ) {
        let mut net = Network::new(2, LinkSpec::fast_ethernet());
        let mut t = SimTime::ZERO;
        let mut last_delivery = SimTime::ZERO;
        for (gap_us, bytes) in msgs {
            t += SimDur::from_micros(gap_us);
            let d = net.send(t, NodeId(0), NodeId(1), bytes);
            prop_assert!(
                d.deliver_at > last_delivery,
                "delivery regressed: {} after {}",
                d.deliver_at,
                last_delivery
            );
            last_delivery = d.deliver_at;
        }
    }

    #[test]
    fn delivery_never_precedes_send(
        from in 0usize..4,
        to in 0usize..4,
        bytes in 0usize..5_000_000,
        at_ms in 0u64..10_000,
    ) {
        let mut net = Network::new(4, LinkSpec::fast_ethernet());
        let t = SimTime::from_millis(at_ms);
        let d = net.send(t, NodeId(from), NodeId(to), bytes);
        prop_assert!(d.deliver_at > t);
        // latency decomposition is consistent
        prop_assert_eq!(d.queued + d.wire, d.deliver_at - t);
    }

    #[test]
    fn pipelining_never_slower_than_double_serialization(
        bytes in 1usize..5_000_000,
        background in 0.0f64..80e6,
    ) {
        let spec = LinkSpec::fast_ethernet();
        let mut net = Network::new(2, spec);
        net.uplink_mut(NodeId(0)).add_background(background);
        net.downlink_mut(NodeId(1)).add_background(background);
        let d = net.send(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let tx_slow = net.uplink(NodeId(0)).tx_time_now(bytes);
        // Upper bound: two full serializations plus slack; lower: one.
        let upper = tx_slow * 2 + SimDur::from_millis(1);
        let lower = tx_slow;
        let latency = d.deliver_at - SimTime::ZERO;
        prop_assert!(latency <= upper, "latency {latency} > upper {upper}");
        prop_assert!(latency >= lower, "latency {latency} < lower {lower}");
    }

    #[test]
    fn queueing_conserves_work(
        sizes in proptest::collection::vec(1usize..500_000, 2..20)
    ) {
        // All messages sent at t=0 from the same node: the last delivery
        // must be at least the sum of serialization times (the uplink is a
        // serial resource).
        let mut net = Network::new(2, LinkSpec::fast_ethernet());
        let spec = *net.spec();
        let mut last = SimTime::ZERO;
        let mut total_tx = SimDur::ZERO;
        for &b in &sizes {
            let d = net.send(SimTime::ZERO, NodeId(0), NodeId(1), b);
            last = last.max(d.deliver_at);
            total_tx += spec.tx_time(b);
        }
        prop_assert!(last >= SimTime::ZERO + total_tx);
    }

    #[test]
    fn send_is_the_uplink_leg_then_the_remaining_legs(
        racks in any::<bool>(),
        msgs in proptest::collection::vec(
            (0u64..400, 0usize..6, 0usize..6, 1usize..40_000, any::<bool>()),
            1..60,
        )
    ) {
        // A sharded run sends in two steps — the sender's port on its
        // shard, the fabric on the coordinator — and must see exactly what
        // `send_class` computes in one: same deliveries, same drops at the
        // same bounded queues, same per-link accounting.
        let spec = LinkSpec::fast_ethernet().with_queue(2, 30_000);
        let build = || {
            if racks {
                let placement = TopologySpec::Racks { rack_size: 2 }.resolve(6);
                Network::hierarchical(&placement, spec, spec)
            } else {
                Network::new(6, spec)
            }
        };
        let (mut whole, mut halves) = (build(), build());
        let mut t = SimTime::ZERO;
        for (gap_us, from, to, bytes, priority) in msgs {
            t += SimDur::from_micros(gap_us);
            let (from, to) = (NodeId(from), NodeId(to));
            let class = if priority { TrafficClass::Priority } else { TrafficClass::Bulk };
            let one = whole.send_class(t, from, to, bytes, class);
            let (ports, fabric) = halves.split();
            let two = match ports[from.0].send(t, from == to, bytes, class) {
                Ok(leg) => fabric.finish(from, to, leg),
                Err(done) => done,
            };
            prop_assert_eq!(one, two);
        }
        let counters = |l: &DirLink| (l.messages(), l.bytes(), l.drops());
        for i in (0..6).map(NodeId) {
            prop_assert_eq!(counters(whole.uplink(i)), counters(halves.uplink(i)));
            prop_assert_eq!(counters(whole.downlink(i)), counters(halves.downlink(i)));
        }
        for r in 0..if racks { 3 } else { 0 } {
            let (a, b) = (whole.switch_uplink(r), halves.switch_uplink(r));
            prop_assert_eq!(counters(a), counters(b));
            let (a, b) = (whole.switch_downlink(r), halves.switch_downlink(r));
            prop_assert_eq!(counters(a), counters(b));
        }
        prop_assert_eq!(whole.deliveries(), halves.deliveries());
        prop_assert_eq!(whole.payload_bytes(), halves.payload_bytes());
    }
}

#[test]
fn cross_pair_ordering_not_required_but_fifo_per_direction() {
    // A big message from 0→1 delays a later small 2→1 message (shared
    // downlink), but not a 2→3 message (disjoint).
    let mut net = Network::new(4, LinkSpec::fast_ethernet());
    let _big = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 3_000_000);
    let blocked = net.send(SimTime::from_micros(10), NodeId(2), NodeId(1), 100);
    let free = net.send(SimTime::from_micros(10), NodeId(3), NodeId(2), 100);
    assert!(blocked.deliver_at > free.deliver_at);
    assert!(blocked.queued > SimDur::from_millis(100));
    assert_eq!(free.queued, SimDur::ZERO);
}
