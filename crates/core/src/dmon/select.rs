//! Stage 2, *decide* (the policy/filter share of Figs. 6–7): what each
//! subscriber configured here — parameter rules or a deployed E-code
//! filter — and the per-poll memo that lets subscribers with the same
//! filter share one run. In: this poll's samples and the subscriber's
//! last-sent row; out: the records to ship to it.

use std::collections::HashMap;

use ecode::{
    compile_filter, CompiledFilter, EnvSpec, Filter, FilterOutput, MemoClass, MetricRecord,
    RuntimeError,
};
use kecho::{ControlMsg, MonRecord, ParamSpec, RecordArena, RecordSpan};
use simcore::SimTime;
use simnet::NodeId;

use super::sample::Sample;
use super::{DMon, DmonStats, PollCx};
use crate::params::{PolicySet, Rule, RuleCtx};

/// One memoized filter evaluation within the current poll, keyed by the
/// dense filter id (a hit is a u32 compare, no hashing on the poll path)
/// and by what the filter's effect certificate proved.
/// `MemoClass::Bypass` filters never reach this table.
struct MemoEntry {
    id: u32,
    /// `None` for `MemoClass::Shared`: the output is provably independent
    /// of per-subscriber state, so the id alone keys the entry. `Some` for
    /// `MemoClass::SnapshotKeyed`: emitted records copy per-subscriber
    /// `last_value_sent`, so a hit also needs an equal input snapshot.
    inputs: Option<Vec<MetricRecord>>,
    /// Accepted records (a span in the per-poll [`RecordArena`], see
    /// [`materialize`]) + executed instructions, or `None` for a VM fault.
    result: Option<(RecordSpan, u64)>,
}

/// A filter admitted at deploy time, with everything the per-poll path
/// needs resolved at admission.
pub(super) struct DeployedFilter {
    pub(super) filter: Filter,
    /// The memo key: see [`Select::filter_ids`].
    id: u32,
    /// How the effect certificate lets runs be shared within a poll.
    memo: MemoClass,
    /// Specialized register closure; `None` ⇒ interpreter fallback.
    compiled: Option<CompiledFilter>,
}

impl DeployedFilter {
    /// One evaluation: the compiled closure when available, the stack
    /// VM otherwise. The two are bit-identical — outputs, budget
    /// exhaustion, and runtime faults — pinned by the
    /// `compiled_differential` proptests in the `ecode` crate.
    fn run(&self, inputs: &[MetricRecord]) -> Result<FilterOutput, RuntimeError> {
        match &self.compiled {
            Some(c) => c.run(inputs),
            None => self.filter.run(inputs),
        }
    }
}

/// The per-poll filter memo: its entries, the SoA arena backing their
/// record spans (filter outputs are materialized there once per distinct
/// run; per-subscriber payloads gather spans out of it) and the filter
/// input vector reused across subscribers and polls.
#[derive(Default)]
struct Memo {
    entries: Vec<MemoEntry>,
    arena: RecordArena,
    inputs: Vec<MetricRecord>,
}

impl Memo {
    /// Evaluate `df` for one subscriber, sharing the run with earlier
    /// subscribers of this poll when its effect certificate allows. How a
    /// run may be shared was decided at deploy time, so it costs a field
    /// read here.
    fn run(
        &mut self,
        df: &DeployedFilter,
        last_sent: &[Option<(f64, SimTime)>],
        samples: &[Option<f64>],
        now: SimTime,
        stats: &mut DmonStats,
    ) -> Option<(RecordSpan, u64)> {
        // Skipped slots get a zero placeholder: a module is only skipped
        // when every deployed filter's certificate proves it unread, so
        // the placeholder is unobservable.
        self.inputs.clear();
        for (i, s) in samples.iter().enumerate() {
            let last = last_sent.get(i).copied().flatten();
            self.inputs.push(MetricRecord {
                id: i as u32,
                value: s.unwrap_or(0.0),
                last_value_sent: last.map_or(0.0, |(v, _)| v),
                timestamp: now.as_secs_f64(),
            });
        }
        if df.memo == MemoClass::Bypass {
            // Per-subscriber state feeds the output: one run per
            // subscriber, observable via `memo_bypassed`.
            stats.memo_bypassed += 1;
            return materialize(&mut self.arena, df.run(&self.inputs));
        }
        let key = (df.memo == MemoClass::SnapshotKeyed).then_some(&self.inputs);
        let mut entries = self.entries.iter();
        if let Some(m) = entries.find(|m| m.id == df.id && m.inputs.as_ref() == key) {
            return m.result;
        }
        let result = materialize(&mut self.arena, df.run(&self.inputs));
        let (id, inputs) = (df.id, key.cloned());
        self.entries.push(MemoEntry { id, inputs, result });
        result
    }
}

/// One encode: a run's accepted records are pushed into the per-poll SoA
/// arena exactly once; the span (Copy) is what the memo stores and what
/// every sharing subscriber gathers from.
fn materialize(
    arena: &mut RecordArena,
    out: Result<FilterOutput, RuntimeError>,
) -> Option<(RecordSpan, u64)> {
    let out = out.ok()?;
    let mark = arena.mark();
    for r in out.iter_accepted() {
        arena.push(r.id, r.value, r.last_value_sent, r.timestamp);
    }
    let result = (arena.span_since(mark), out.instructions());
    out.recycle();
    Some(result)
}

#[derive(Default)]
pub(super) struct Select {
    policies: HashMap<NodeId, PolicySet>,
    pub(super) filters: HashMap<NodeId, DeployedFilter>,
    /// Dense filter id per distinct deployed source (deploy-time only).
    /// Identical sources share an id so the per-poll memo can share
    /// their runs; ids survive removals and restarts — they only need
    /// to be dense enough to stay cheap, not compact.
    filter_ids: HashMap<String, u32>,
    memo: Memo,
}

impl Select {
    pub(super) fn on_revive(&mut self) {
        self.policies.clear();
        self.filters.clear();
    }

    /// Apply a `SetParam` from `from`: `clear:<metric>` drops its rules,
    /// `and:<metric>` stacks one, a bare metric replaces them.
    pub(super) fn set_param(&mut self, from: NodeId, metric: &str, param: ParamSpec, s: &Sample) {
        let policy = self.policies.entry(from).or_default();
        if let Some(rest) = metric.strip_prefix("clear:") {
            policy.clear_metric(s.metric_name_of(rest));
        } else if let Some(rest) = metric.strip_prefix("and:") {
            policy.add_rule(s.metric_name_of(rest), Rule::from_spec(param));
        } else {
            policy.set_rule(s.metric_name_of(metric), Rule::from_spec(param));
        }
    }

    /// Compile and admit a filter for `from`. Admission control: a filter
    /// only runs if the static verifier produced a finite worst-case
    /// instruction bound that fits the VM budget. A rejected filter is
    /// never installed (any previously deployed filter stays in force)
    /// and the subscriber is told why through the returned reply.
    pub(super) fn deploy(
        &mut self,
        from: NodeId,
        source: &str,
        env: &EnvSpec,
        stats: &mut DmonStats,
    ) -> Option<ControlMsg> {
        let Ok(f) = Filter::compile(source, env) else {
            stats.filter_errors += 1;
            return None;
        };
        if let Some(reason) = f.admission_error() {
            stats.filters_rejected += 1;
            return Some(ControlMsg::FilterRejected { reason });
        }
        self.install(from, f, stats);
        None
    }

    /// The environment grew: recompile every deployed filter against it.
    pub(super) fn recompile(&mut self, env: &EnvSpec, stats: &mut DmonStats) {
        // detlint: allow(unordered-iter) sorted before use on the next line
        let mut sources: Vec<(NodeId, String)> = self
            .filters
            .iter()
            .map(|(&sub, f)| (sub, f.filter.source().to_string()))
            .collect();
        sources.sort_by_key(|&(sub, _)| sub);
        for (sub, source) in sources {
            if let Ok(f) = Filter::compile(&source, env) {
                self.install(sub, f, stats);
            }
        }
    }

    /// Install an admitted filter for `sub`: assign its dense id and
    /// specialize it into a register closure (interpreter fallback when
    /// the lowering declines the chunk).
    fn install(&mut self, sub: NodeId, filter: Filter, stats: &mut DmonStats) {
        let id = match self.filter_ids.get(filter.source()) {
            Some(&id) => id,
            None => {
                let id = self.filter_ids.len() as u32;
                self.filter_ids.insert(filter.source().to_string(), id);
                id
            }
        };
        let compiled = compile_filter(&filter);
        match compiled {
            Some(_) => stats.filters_compiled += 1,
            None => stats.interp_fallbacks += 1,
        }
        let df = DeployedFilter {
            memo: filter.cert().effects.memo,
            filter,
            id,
            compiled,
        };
        self.filters.insert(sub, df);
    }

    /// Forget the previous poll's memo.
    pub(super) fn begin_poll(&mut self) {
        self.memo.entries.clear();
        self.memo.arena.clear();
    }

    /// Decide which metric records to send to one subscriber. A deployed
    /// filter takes over the decision entirely; otherwise the
    /// subscriber's parameter rules (or the send-everything default) do.
    #[inline]
    pub(super) fn records(
        &mut self,
        sub: NodeId,
        last_sent: &[Option<(f64, SimTime)>],
        sample: &Sample,
        cx: &mut PollCx<'_>,
    ) -> Vec<MonRecord> {
        let Some(df) = self.filters.get(&sub) else {
            return by_policy(self.policies.get(&sub), last_sent, sample, cx);
        };
        let memo = &mut self.memo;
        match memo.run(df, last_sent, &sample.latest, cx.now, cx.stats) {
            Some((span, instructions)) => {
                // The modeled cost is charged per logical run — the
                // figures measure what a kernel would spend, not what the
                // memo saves the simulator.
                cx.out.cpu += cx.calib.ecode_instr * instructions;
                // N enqueues: gather the span into a pooled payload
                // buffer — a columnar copy, no allocation in steady
                // state.
                let mut records = kecho::take_record_buf();
                memo.arena.gather_into(span, &mut records);
                records
            }
            None => {
                // A faulting filter sends nothing (a kernel would also
                // disable it; we keep it and count the fault — per
                // subscriber, even when the run itself was memoized).
                cx.stats.filter_errors += 1;
                Vec::new()
            }
        }
    }
}

impl DMon {
    /// The policy a subscriber currently has configured here.
    pub fn policy_for(&self, subscriber: NodeId) -> Option<&PolicySet> {
        self.select.policies.get(&subscriber)
    }

    /// Whether a subscriber has a filter deployed here.
    pub fn has_filter(&self, subscriber: NodeId) -> bool {
        self.select.filters.contains_key(&subscriber)
    }

    /// The deployed filter of a subscriber, certificate included.
    pub fn filter_for(&self, subscriber: NodeId) -> Option<&Filter> {
        self.select.filters.get(&subscriber).map(|df| &df.filter)
    }
}

/// The parameter path: every sampled metric passes the subscriber's rules
/// for it, or goes out unconditionally when there are none.
fn by_policy(
    policy: Option<&PolicySet>,
    last_sent: &[Option<(f64, SimTime)>],
    sample: &Sample,
    cx: &mut PollCx<'_>,
) -> Vec<MonRecord> {
    let (now, calib) = (cx.now, cx.calib);
    // Recycled from delivered events (the delivery paths call
    // `Event::recycle`), so the steady state allocates nothing.
    let mut records = kecho::take_record_buf();
    records.reserve(sample.latest.len());
    for (i, (s, module)) in sample.latest.iter().zip(&sample.modules).enumerate() {
        // A subscriber without a filter makes `mark_needed` sample every
        // module, so no slot is a skipped one here.
        debug_assert!(s.is_some(), "module {i} skipped under a policy subscriber");
        let value = s.unwrap_or(0.0);
        let last = last_sent.get(i).copied().flatten();
        let last_value = last.map_or(0.0, |(v, _)| v);
        let ctx = RuleCtx {
            value,
            last_sent_value: last_value,
            last_sent_at: last.map(|(_, t)| t),
            now,
        };
        // A subscriber with no policy is charged one evaluation per
        // metric and gets everything.
        let metric = || module.metric_name();
        let rules = policy.map_or(1, |p| p.rule_count(metric()).max(1) as u64);
        cx.out.cpu += calib.policy_eval * rules;
        if policy.is_none_or(|p| p.decide(metric(), &ctx)) {
            records.push(MonRecord {
                metric_id: i as u32,
                value,
                last_value_sent: last_value,
                timestamp: now.as_secs_f64(),
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn policy_gates_metrics_per_subscriber() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Subscriber 1 wants load only above 100 (never true here);
        // subscriber 2 keeps defaults.
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::Above { bound: 1e18 },
            },
            &calib,
        );
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        let data: Vec<_> = out
            .sends
            .iter()
            .filter(|(_, ev, _)| ev.as_monitoring().is_some())
            .collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].0.to, NodeId(2));
        // The gated subscriber still hears a liveness beacon.
        let hb: Vec<_> = out
            .sends
            .iter()
            .filter(|(_, ev, _)| ev.as_heartbeat().is_some())
            .collect();
        assert_eq!(hb.len(), 1);
        assert_eq!(hb[0].0.to, NodeId(1));
        assert_eq!(dmon.stats.heartbeats_sent, 1);
    }

    #[test]
    fn period_parameter_halves_send_rate() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            dmon.on_control(
                sub,
                &ControlMsg::SetParam {
                    metric: "*".into(),
                    param: ParamSpec::Period { period_s: 2.0 },
                },
                &calib,
            );
        }
        let mut sent = 0;
        for s in 1..=10 {
            let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(s), &calib);
            sent += data_sends(&out);
        }
        // 10 polls at 1 Hz, 2 s period, 2 subscribers => ~10 data events.
        assert!((8..=12).contains(&sent), "sent {sent}");
        // Data every 2 s never opens a heartbeat-worthy silence window:
        // the cadence itself proves liveness, so heartbeats cost nothing.
        assert_eq!(dmon.stats.heartbeats_sent, 0);
    }

    #[test]
    fn additive_rules_compose_over_the_wire() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 },
            },
            &calib,
        );
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "and:cpu".into(),
                param: ParamSpec::Above { bound: 0.8 },
            },
            &calib,
        );
        // `cpu` translates to the module's metric constant.
        let p = dmon.policy_for(NodeId(1)).unwrap();
        assert_eq!(p.rule_count("LOADAVG"), 2);
        // clear: prefix resets (by metric-constant name).
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "clear:LOADAVG".into(),
                param: ParamSpec::Period { period_s: 1.0 },
            },
            &calib,
        );
        assert_eq!(dmon.policy_for(NodeId(1)).unwrap().rule_count("LOADAVG"), 0);
    }

    fn deploy(dmon: &mut super::super::DMon, sub: NodeId, source: &str) -> Option<ControlMsg> {
        let msg = ControlMsg::DeployFilter {
            source: source.into(),
        };
        dmon.on_control(sub, &msg, &crate::Calib::default()).reply
    }

    #[test]
    fn deployed_filter_controls_stream() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Filter for subscriber 1: only send LOADAVG when > 2 (never here).
        let src = "{ if (input[LOADAVG].value > 2.0) { output[0] = input[LOADAVG]; } }";
        deploy(&mut dmon, NodeId(1), src);
        assert!(dmon.has_filter(NodeId(1)));
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(data_sends(&out), 1, "only the unfiltered subscriber");
        // Load the machine: filter should open up.
        host.cpu.spawn_compute(SimTime::from_secs(1), "a");
        host.cpu.spawn_compute(SimTime::from_secs(1), "b");
        host.cpu.spawn_compute(SimTime::from_secs(1), "c");
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(100), &calib);
        assert_eq!(data_sends(&out), 2);
        let to1 = out
            .sends
            .iter()
            .find(|(h, _, _)| h.to == NodeId(1))
            .unwrap();
        assert_eq!(
            to1.1.as_monitoring().unwrap().records.len(),
            1,
            "filtered to LOADAVG"
        );
    }

    #[test]
    fn bad_filter_counts_error_and_keeps_old_behaviour() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        deploy(&mut dmon, NodeId(1), "{ this is not e-code }");
        assert_eq!(dmon.stats.filter_errors, 1);
        assert!(!dmon.has_filter(NodeId(1)));
        // RemoveFilter on nothing is fine.
        dmon.on_control(NodeId(1), &ControlMsg::RemoveFilter, &calib);
    }

    #[test]
    fn unbounded_filter_rejected_before_reaching_vm() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        let reply = deploy(&mut dmon, NodeId(1), "{ while (1) { } }");
        assert_eq!(dmon.stats.filters_rejected, 1);
        assert_eq!(
            dmon.stats.filter_errors, 0,
            "it compiles; the verifier refused it"
        );
        assert!(
            !dmon.has_filter(NodeId(1)),
            "rejected filter never installed"
        );
        let Some(ControlMsg::FilterRejected { reason }) = reply else {
            panic!("expected a FilterRejected reply, got {reply:?}");
        };
        assert!(reason.contains("unbounded"), "reason: {reason}");
    }

    #[test]
    fn rejected_filter_keeps_previously_deployed_one() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        let src = "{ if (input[LOADAVG].value > 2.0) { output[0] = input[LOADAVG]; } }";
        deploy(&mut dmon, NodeId(1), src);
        assert!(dmon.has_filter(NodeId(1)));
        let old_reads = dmon.filter_for(NodeId(1)).unwrap().cert().reads.clone();
        deploy(
            &mut dmon,
            NodeId(1),
            "{ int i; for (i = 0; 1; i = i + 0) { } }",
        );
        assert_eq!(dmon.stats.filters_rejected, 1);
        assert!(dmon.has_filter(NodeId(1)), "old filter stays in force");
        assert_eq!(dmon.filter_for(NodeId(1)).unwrap().cert().reads, old_reads);
    }

    #[test]
    fn fig3_filter_certifies_and_deploys() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        assert!(deploy(&mut dmon, NodeId(1), ecode::FIG3_SOURCE).is_none());
        assert_eq!(dmon.stats.filters_rejected, 0);
        assert!(dmon.has_filter(NodeId(1)));
        let cert = dmon.filter_for(NodeId(1)).unwrap().cert();
        assert!(cert.is_certified());
        assert!(cert.bound().unwrap() <= ecode::vm::DEFAULT_BUDGET);
    }

    /// Source of a filter whose decision depends on per-subscriber
    /// `last_value_sent` — the effect pass must classify it Bypass.
    const IMPURE_SRC: &str =
        "{ if (input[LOADAVG].value > input[LOADAVG].last_value_sent) { output[0] = input[LOADAVG]; } }";

    /// Source of a pure passthrough filter — SnapshotKeyed class.
    const PURE_SRC: &str = "{ output[0] = input[LOADAVG]; }";

    #[test]
    fn impure_filter_bypasses_memo_per_subscriber() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, IMPURE_SRC);
            assert!(!dmon.filter_for(sub).unwrap().cert().memo_safe);
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        // Both subscribers got their own VM run despite identical source.
        assert_eq!(dmon.stats.memo_bypassed, 2);
        assert!(
            dmon.select.memo.entries.is_empty(),
            "bypassed runs never populate the memo"
        );
    }

    #[test]
    fn impure_filter_diverges_per_subscriber_state() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, IMPURE_SRC);
        }
        // Make LOADAVG visibly nonzero, poll once so the last-sent rows
        // exist, then desync the two subscribers' state by hand: sub 1
        // believes nothing was ever sent, sub 2 believes a huge value was.
        host.cpu.spawn_compute(SimTime::from_secs(1), "a");
        host.cpu.spawn_compute(SimTime::from_secs(1), "b");
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(100), &calib);
        for (sub, believed) in [(1, 0.0), (2, 1e12)] {
            let row = &mut dmon.peers.get_mut(NodeId(sub)).unwrap().last_sent;
            row[0] = Some((believed, SimTime::from_secs(100)));
        }
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(101), &calib);
        let recs = |to: NodeId| {
            out.sends
                .iter()
                .filter(|(h, _, _)| h.to == to)
                .filter_map(|(_, ev, _)| ev.as_monitoring().map(|m| m.records.len()))
                .sum::<usize>()
        };
        // Subscriber 1's threshold is still beatable, subscriber 2's is
        // not: same filter, same samples, different per-subscriber result.
        assert!(recs(NodeId(1)) > 0, "sub 1 should receive data");
        assert_eq!(recs(NodeId(2)), 0, "sub 2's last-sent gate stays shut");
        assert!(dmon.stats.memo_bypassed >= 4);
    }

    #[test]
    fn pure_filter_shares_one_memo_entry() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, PURE_SRC);
            let cert = dmon.filter_for(sub).unwrap().cert();
            assert!(cert.memo_safe);
            assert_eq!(cert.effects.memo, MemoClass::SnapshotKeyed);
        }
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.memo_bypassed, 0);
        let entries = &dmon.select.memo.entries;
        assert_eq!(entries.len(), 1, "one shared entry for both subscribers");
        let per_sub: Vec<_> = out
            .sends
            .iter()
            .filter_map(|(_, ev, _)| ev.as_monitoring())
            .collect();
        assert_eq!(per_sub.len(), 2);
        assert_eq!(per_sub[0].records, per_sub[1].records);
    }

    #[test]
    fn non_emitting_filter_memoizes_on_fingerprint_alone() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, "{ int x = 0; }");
            assert_eq!(
                dmon.filter_for(sub).unwrap().cert().effects.memo,
                MemoClass::Shared
            );
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        let entries = &dmon.select.memo.entries;
        assert_eq!(entries.len(), 1);
        assert!(
            entries[0].inputs.is_none(),
            "fingerprint-only entries never clone the input snapshot"
        );
        assert_eq!(dmon.stats.memo_bypassed, 0);
    }

    #[test]
    fn identical_sources_share_a_dense_id_and_compile_once_each() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, PURE_SRC);
        }
        // Same source → same memo id, so the per-poll memo shares runs
        // on a u32 compare.
        let id_of = |dmon: &super::super::DMon, sub: usize| dmon.select.filters[&NodeId(sub)].id;
        assert_eq!(id_of(&dmon, 1), id_of(&dmon, 2));
        deploy(&mut dmon, NodeId(2), IMPURE_SRC);
        // Distinct sources never share an id: ids are keyed on the exact
        // source text, not on a hash of it.
        assert_ne!(id_of(&dmon, 1), id_of(&dmon, 2));
        // Every admission was specialized into a register closure.
        assert_eq!(dmon.stats.filters_compiled, 3);
        assert_eq!(dmon.stats.interp_fallbacks, 0);
        assert!(dmon.select.filters[&NodeId(1)].compiled.is_some());
    }
}
