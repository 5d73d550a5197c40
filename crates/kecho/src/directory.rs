//! The channel registry and subscription state.
//!
//! The paper: "d-mon modules use a channel registry, which is a user-level
//! channel directory server, to register new channels and to find existing
//! channels. The first d-mon module to contact the registry will create
//! the two channels. All other d-mon modules ... retrieve the channel
//! identifiers from the registry and subscribe."
//!
//! [`Directory`] is that registry plus the per-channel subscriber lists,
//! and nothing else: who subscribes to what. Through whom a frame travels
//! on its way to a subscriber is the fabric's business
//! ([`simnet::Placement::next_hop`]), not the registry's.

use std::collections::BTreeSet;
use std::collections::HashMap;

use simnet::NodeId;

/// Identifier of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

/// One network hop of a planned submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
}

#[derive(Debug)]
struct ChannelInfo {
    name: String,
    subscribers: BTreeSet<NodeId>,
}

/// The channel directory server.
#[derive(Debug, Default)]
pub struct Directory {
    channels: Vec<ChannelInfo>,
    by_name: HashMap<String, ChannelId>,
}

impl Directory {
    /// Look up a channel by name, creating it if absent — the "first
    /// d-mon to contact the registry creates the channels" behaviour.
    pub fn open(&mut self, name: &str) -> ChannelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(ChannelInfo {
            name: name.to_string(),
            subscribers: BTreeSet::new(),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up an existing channel.
    pub fn lookup(&self, name: &str) -> Option<ChannelId> {
        self.by_name.get(name).copied()
    }

    /// Channel name.
    pub fn name(&self, id: ChannelId) -> &str {
        &self.channels[id.0 as usize].name
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if no channels exist.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Subscribe a node. Idempotent.
    pub fn subscribe(&mut self, id: ChannelId, node: NodeId) {
        self.channels[id.0 as usize].subscribers.insert(node);
    }

    /// Unsubscribe a node. Idempotent.
    pub fn unsubscribe(&mut self, id: ChannelId, node: NodeId) {
        self.channels[id.0 as usize].subscribers.remove(&node);
    }

    /// Current subscribers, in node order (deterministic).
    pub fn subscribers(&self, id: ChannelId) -> impl Iterator<Item = NodeId> + '_ {
        self.channels[id.0 as usize].subscribers.iter().copied()
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self, id: ChannelId) -> usize {
        self.channels[id.0 as usize].subscribers.len()
    }

    /// Whether `node` subscribes to `id`.
    pub fn is_subscribed(&self, id: ChannelId, node: NodeId) -> bool {
        self.channels[id.0 as usize].subscribers.contains(&node)
    }

    /// The hops for `from` publishing on channel `id`: one per remote
    /// subscriber, in node order. The publisher never sends to itself (its
    /// d-mon consumes locally).
    pub fn plan_submission(&self, id: ChannelId, from: NodeId) -> Vec<Hop> {
        self.subscribers(id)
            .filter(|&n| n != from)
            .map(|to| Hop { from, to })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_is_create_or_lookup() {
        let mut d = Directory::default();
        assert!(d.is_empty());
        let a = d.open("dproc-monitoring");
        let b = d.open("dproc-control");
        assert_ne!(a, b);
        assert_eq!(d.open("dproc-monitoring"), a, "reopen returns same id");
        assert_eq!(d.lookup("dproc-control"), Some(b));
        assert_eq!(d.lookup("nope"), None);
        assert_eq!(d.len(), 2);
        assert_eq!(d.name(a), "dproc-monitoring");
    }

    #[test]
    fn subscription_lifecycle() {
        let mut d = Directory::default();
        let c = d.open("mon");
        d.subscribe(c, NodeId(1));
        d.subscribe(c, NodeId(2));
        d.subscribe(c, NodeId(1)); // idempotent
        assert_eq!(d.subscriber_count(c), 2);
        assert!(d.is_subscribed(c, NodeId(1)));
        d.unsubscribe(c, NodeId(1));
        assert!(!d.is_subscribed(c, NodeId(1)));
        assert_eq!(d.subscribers(c).collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn p2p_plan_skips_self() {
        let mut d = Directory::default();
        let c = d.open("mon");
        for n in 0..4 {
            d.subscribe(c, NodeId(n));
        }
        let hops = d.plan_submission(c, NodeId(2));
        assert_eq!(hops.len(), 3);
        assert!(hops
            .iter()
            .all(|h| h.from == NodeId(2) && h.to != NodeId(2)));
        // deterministic order
        assert_eq!(
            hops.iter().map(|h| h.to).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
    }
}
