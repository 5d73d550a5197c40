//! Completeness properties of the channel directory: every subscriber
//! (except the publisher) is planned exactly once, and nobody else is.

use std::collections::BTreeSet;

use kecho::Directory;
use proptest::prelude::*;
use simnet::NodeId;

fn subscribers_strategy() -> impl Strategy<Value = BTreeSet<usize>> {
    proptest::collection::btree_set(0usize..16, 0..12)
}

proptest! {
    #[test]
    fn p2p_reaches_all_subscribers_exactly_once(
        subs in subscribers_strategy(),
        publisher in 0usize..16,
    ) {
        let mut dir = Directory::default();
        let chan = dir.open("mon");
        for &s in &subs {
            dir.subscribe(chan, NodeId(s));
        }
        let hops = dir.plan_submission(chan, NodeId(publisher));
        let reached: BTreeSet<usize> = hops.iter().map(|h| h.to.0).collect();
        let mut expected = subs.clone();
        expected.remove(&publisher);
        prop_assert_eq!(reached, expected);
        prop_assert_eq!(hops.len(), {
            let mut e = subs.clone();
            e.remove(&publisher);
            e.len()
        }, "no duplicates");
        prop_assert!(hops.iter().all(|h| h.from.0 == publisher));
    }

    #[test]
    fn open_is_idempotent_and_names_stable(names in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
        let mut dir = Directory::default();
        let ids: Vec<_> = names.iter().map(|n| dir.open(n)).collect();
        for (name, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(dir.open(name), id);
            prop_assert_eq!(dir.lookup(name), Some(id));
            prop_assert_eq!(dir.name(id), name.as_str());
        }
    }
}
