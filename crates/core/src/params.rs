//! The parameter engine: update periods, thresholds, and combinations.
//!
//! The paper distinguishes two parameter families — update periods and
//! thresholds — and allows combining them ("update the CPU information
//! once every 2 seconds IF the CPU utilization is above 80%"). Threshold
//! comparisons can be percentage limits relative to the last measurement,
//! relative-value bounds, or min/max ranges. All of those are [`Rule`]s;
//! a metric's rules are ANDed.
//!
//! Parameters are "cheaper" than an equivalent E-code filter — no VM
//! dispatch, minimal book-keeping — which the `params_vs_filter` ablation
//! bench quantifies.

use std::collections::HashMap;

use kecho::ParamSpec;
use simcore::{SimDur, SimTime};

/// One admission rule for a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Send at most once per `period` (elapsed-time gate).
    Period(SimDur),
    /// Send only if the value moved at least `fraction` relative to the
    /// last *sent* value (the paper's differential filter). A zero last
    /// value passes whenever the value changed at all.
    DeltaFraction(f64),
    /// Send only while the value exceeds the bound.
    Above(f64),
    /// Send only while the value is below the bound.
    Below(f64),
    /// Send only while the value lies within `[lo, hi]`.
    Range(f64, f64),
}

impl Rule {
    /// Convert from the wire-level parameter spec.
    pub fn from_spec(spec: ParamSpec) -> Rule {
        match spec {
            ParamSpec::Period { period_s } => Rule::Period(SimDur::from_secs_f64(period_s)),
            ParamSpec::DeltaFraction { fraction } => Rule::DeltaFraction(fraction),
            ParamSpec::Above { bound } => Rule::Above(bound),
            ParamSpec::Below { bound } => Rule::Below(bound),
            ParamSpec::Range { lo, hi } => Rule::Range(lo, hi),
        }
    }

    /// Evaluate against the current sample.
    pub(crate) fn admits(&self, ctx: &RuleCtx) -> bool {
        match *self {
            Rule::Period(period) => match ctx.last_sent_at {
                None => true,
                Some(t) => ctx.now.since(t) >= period,
            },
            Rule::DeltaFraction(fraction) => {
                let last = ctx.last_sent_value;
                let delta = (ctx.value - last).abs();
                if last == 0.0 {
                    delta != 0.0
                } else {
                    delta >= fraction * last.abs()
                }
            }
            Rule::Above(bound) => ctx.value > bound,
            Rule::Below(bound) => ctx.value < bound,
            Rule::Range(lo, hi) => ctx.value >= lo && ctx.value <= hi,
        }
    }
}

/// Evaluation context for one metric decision.
#[derive(Debug, Clone, Copy)]
pub struct RuleCtx {
    /// Current sampled value.
    pub value: f64,
    /// Last value actually sent to this subscriber (0 if never).
    pub last_sent_value: f64,
    /// When a value was last sent to this subscriber.
    pub last_sent_at: Option<SimTime>,
    /// Current time.
    pub now: SimTime,
}

/// The rules one subscriber configured at a publisher: per metric name,
/// with `"*"` as the any-metric fallback. A metric keeps its entry, and the
/// entry its buffer, when its rules are cleared, so replacing a rule for a
/// metric seen before allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    per_metric: HashMap<String, Vec<Rule>>,
    wildcard: Vec<Rule>,
}

impl PolicySet {
    /// Empty policy: every metric is sent on every poll.
    pub fn new() -> Self {
        PolicySet::default()
    }

    /// Add a rule for `metric` (`"*"` = all metrics). Rules accumulate
    /// and are ANDed; [`PolicySet::clear_metric`] resets.
    pub fn add_rule(&mut self, metric: &str, rule: Rule) {
        if metric == "*" {
            self.wildcard.push(rule);
        } else if let Some(rules) = self.per_metric.get_mut(metric) {
            rules.push(rule);
        } else {
            self.per_metric.insert(metric.to_string(), vec![rule]);
        }
    }

    /// Drop all rules for a metric (or the wildcard set for `"*"`).
    pub fn clear_metric(&mut self, metric: &str) {
        if metric == "*" {
            self.wildcard.clear();
        } else if let Some(rules) = self.per_metric.get_mut(metric) {
            rules.clear();
        }
    }

    /// Replace the rules for a metric with a single rule — what a fresh
    /// `period`/`delta` control write does.
    pub fn set_rule(&mut self, metric: &str, rule: Rule) {
        self.clear_metric(metric);
        self.add_rule(metric, rule);
    }

    /// Rules that apply to `metric`: its own if any, else the wildcard.
    pub(crate) fn rules_for(&self, metric: &str) -> &[Rule] {
        match self.per_metric.get(metric) {
            Some(rules) if !rules.is_empty() => rules,
            _ => &self.wildcard,
        }
    }

    /// Decide whether to send `metric` under this policy. With no
    /// applicable rules the default is to send (every poll).
    pub fn decide(&self, metric: &str, ctx: &RuleCtx) -> bool {
        self.rules_for(metric).iter().all(|r| r.admits(ctx))
    }

    /// Number of rules that would run for `metric` (cost accounting).
    pub fn rule_count(&self, metric: &str) -> usize {
        self.rules_for(metric).len()
    }

    /// True if no rules are configured at all.
    pub fn is_empty(&self) -> bool {
        // detlint: allow(unordered-iter) all() is order-insensitive
        self.wildcard.is_empty() && self.per_metric.values().all(std::vec::Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(value: f64, last: f64, last_at: Option<u64>, now: u64) -> RuleCtx {
        RuleCtx {
            value,
            last_sent_value: last,
            last_sent_at: last_at.map(SimTime::from_secs),
            now: SimTime::from_secs(now),
        }
    }

    #[test]
    fn empty_policy_always_sends() {
        let p = PolicySet::new();
        assert!(p.is_empty());
        assert!(p.decide("cpu", &ctx(0.0, 0.0, None, 0)));
        assert!(p.decide("anything", &ctx(5.0, 5.0, Some(0), 1)));
    }

    #[test]
    fn period_gates_by_elapsed_time() {
        let mut p = PolicySet::new();
        p.set_rule("cpu", Rule::Period(SimDur::from_secs(2)));
        // never sent: admit
        assert!(p.decide("cpu", &ctx(1.0, 0.0, None, 0)));
        // sent at t=10: reject at t=11, admit at t=12
        assert!(!p.decide("cpu", &ctx(1.0, 1.0, Some(10), 11)));
        assert!(p.decide("cpu", &ctx(1.0, 1.0, Some(10), 12)));
    }

    #[test]
    fn delta_fraction_is_relative_to_last_sent() {
        let mut p = PolicySet::new();
        p.set_rule("*", Rule::DeltaFraction(0.15));
        assert!(!p.decide("cpu", &ctx(1.10, 1.0, Some(0), 1)), "10% < 15%");
        assert!(p.decide("cpu", &ctx(1.20, 1.0, Some(0), 1)), "20% > 15%");
        assert!(
            p.decide("cpu", &ctx(0.80, 1.0, Some(0), 1)),
            "drop counts too"
        );
        // zero last value: any change admits, no change rejects
        assert!(p.decide("cpu", &ctx(0.01, 0.0, None, 1)));
        assert!(!p.decide("cpu", &ctx(0.0, 0.0, None, 1)));
    }

    #[test]
    fn bounds_and_ranges() {
        let mut p = PolicySet::new();
        p.set_rule("load", Rule::Above(2.0));
        assert!(p.decide("load", &ctx(2.5, 0.0, None, 0)));
        assert!(!p.decide("load", &ctx(2.0, 0.0, None, 0)));

        p.set_rule("mem", Rule::Below(100.0));
        assert!(p.decide("mem", &ctx(50.0, 0.0, None, 0)));
        assert!(!p.decide("mem", &ctx(100.0, 0.0, None, 0)));

        p.set_rule("disk", Rule::Range(1.0, 2.0));
        assert!(p.decide("disk", &ctx(1.5, 0.0, None, 0)));
        assert!(p.decide("disk", &ctx(1.0, 0.0, None, 0)));
        assert!(!p.decide("disk", &ctx(2.1, 0.0, None, 0)));
    }

    #[test]
    fn combination_is_and() {
        // the paper's example: every 2 s IF above 80%.
        let mut p = PolicySet::new();
        p.add_rule("cpu", Rule::Period(SimDur::from_secs(2)));
        p.add_rule("cpu", Rule::Above(0.8));
        // high value but too soon
        assert!(!p.decide("cpu", &ctx(0.9, 0.9, Some(10), 11)));
        // long enough but low value
        assert!(!p.decide("cpu", &ctx(0.5, 0.9, Some(10), 20)));
        // both satisfied
        assert!(p.decide("cpu", &ctx(0.9, 0.9, Some(10), 20)));
        assert_eq!(p.rule_count("cpu"), 2);
    }

    #[test]
    fn specific_rules_shadow_wildcard() {
        let mut p = PolicySet::new();
        p.set_rule("*", Rule::Above(100.0));
        p.set_rule("cpu", Rule::Above(1.0));
        assert!(
            p.decide("cpu", &ctx(2.0, 0.0, None, 0)),
            "cpu uses own rule"
        );
        assert!(
            !p.decide("mem", &ctx(2.0, 0.0, None, 0)),
            "mem falls to wildcard"
        );
        p.clear_metric("cpu");
        assert!(
            !p.decide("cpu", &ctx(2.0, 0.0, None, 0)),
            "back to wildcard"
        );
    }

    #[test]
    fn a_cleared_metric_keeps_its_buffer_and_reads_as_unset() {
        let mut p = PolicySet::new();
        p.set_rule("*", Rule::Above(100.0));
        p.add_rule("cpu", Rule::Above(1.0));
        p.add_rule("cpu", Rule::Below(5.0));
        let buf = p.per_metric["cpu"].as_ptr();
        p.clear_metric("cpu");
        assert_eq!(p.rule_count("cpu"), 1, "the wildcard applies again");
        assert!(!p.decide("cpu", &ctx(2.0, 0.0, None, 0)));
        p.clear_metric("*");
        assert!(p.is_empty(), "an emptied entry is no rule");
        p.set_rule("cpu", Rule::Below(3.0));
        p.add_rule("cpu", Rule::Above(1.0));
        assert_eq!(p.per_metric["cpu"].as_ptr(), buf, "the same buffer");
        assert_eq!(p.rule_count("cpu"), 2);
        assert!(p.decide("cpu", &ctx(2.0, 0.0, None, 0)));
        // Clearing a metric never seen adds no entry.
        p.clear_metric("mem");
        assert!(!p.per_metric.contains_key("mem"));
    }

    #[test]
    fn set_rule_replaces() {
        let mut p = PolicySet::new();
        p.add_rule("cpu", Rule::Above(1.0));
        p.add_rule("cpu", Rule::Below(5.0));
        assert_eq!(p.rule_count("cpu"), 2);
        p.set_rule("cpu", Rule::Above(2.0));
        assert_eq!(p.rule_count("cpu"), 1);
    }

    #[test]
    fn from_spec_conversions() {
        assert_eq!(
            Rule::from_spec(ParamSpec::Period { period_s: 2.0 }),
            Rule::Period(SimDur::from_secs(2))
        );
        assert_eq!(
            Rule::from_spec(ParamSpec::DeltaFraction { fraction: 0.15 }),
            Rule::DeltaFraction(0.15)
        );
        assert_eq!(
            Rule::from_spec(ParamSpec::Above { bound: 1.0 }),
            Rule::Above(1.0)
        );
        assert_eq!(
            Rule::from_spec(ParamSpec::Below { bound: 1.0 }),
            Rule::Below(1.0)
        );
        assert_eq!(
            Rule::from_spec(ParamSpec::Range { lo: 1.0, hi: 2.0 }),
            Rule::Range(1.0, 2.0)
        );
    }
}
