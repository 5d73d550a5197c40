//! Stage 2, *decide* (the policy/filter share of Figs. 6–7): the E-code
//! filters subscribers deployed here, each distinct source admitted once
//! and kept while a slot of the table holds it — past its last user, until
//! a new source needs the slot — and the per-poll memo that lets
//! subscribers with the same filter share one run. What each subscriber
//! configured — parameter rules or the slot of its filter — is in its row
//! ([`crate::peers::Custom`]). In: this poll's samples and the
//! subscriber's row; out: the records to ship to it.

use std::collections::HashMap;

use ecode::{EnvSpec, Filter, MemoClass, MetricRecord, MetricSet};
use kecho::{ControlMsg, MonRecord};
use simcore::SimTime;
use simnet::NodeId;

use super::sample::Sample;
use super::{DMon, DmonStats, PollCx};
use crate::params::{PolicySet, RuleCtx};
use crate::peers::{MetricRow, PeerState, Stamped};

/// One memoized filter evaluation within the current poll, keyed by the
/// dense filter id alone (a hit is a u32 compare, no hashing on the poll
/// path): its effect certificate proved that everything a run produces is
/// the same for every subscriber but the emitted records'
/// `last_value_sent`, which `Memo::run` stamps per subscriber.
/// `MemoClass::Bypass` filters never reach this table.
struct MemoEntry {
    id: u32,
    /// Accepted records (offsets into [`Memo::arena`]) + executed
    /// instructions, or `None` for a VM fault.
    result: Option<(Span, u64)>,
}

/// Where one run's accepted records lie in [`Memo::arena`].
type Span = (usize, usize);

/// One distinct filter source in use here, admitted once for every
/// subscriber that deploys it: its certificate already says what the
/// per-poll path needs (read set, how runs may be shared).
struct Admitted {
    filter: Filter,
    /// Subscribers whose stream this artefact decides.
    users: u32,
}

impl Admitted {
    /// The only place d-mon runs the E-code front end. Admission control:
    /// a filter only runs if the static verifier produced a finite
    /// worst-case instruction bound that fits the VM budget. `Err(None)`
    /// is a compile error, `Err(Some(reason))` the verifier's refusal.
    fn new(source: &str, env: &EnvSpec) -> Result<Admitted, Option<String>> {
        let filter = Filter::compile(source, env).map_err(|_| None)?;
        if let Some(reason) = filter.admission_error() {
            return Err(Some(reason));
        }
        Ok(Admitted { filter, users: 0 })
    }
}

/// The per-poll filter memo: its entries, the accepted records they point
/// into (each written once per distinct run, in the shape the wire
/// carries) and the filter input vector reused across runs and polls.
#[derive(Default)]
struct Memo {
    entries: Vec<MemoEntry>,
    arena: Vec<MonRecord>,
    inputs: Vec<MetricRecord>,
}

impl Memo {
    /// Evaluate slot `id`'s filter for one subscriber, sharing the run
    /// with earlier subscribers of this poll when its effect certificate
    /// allows. How a run may be shared was decided at deploy time, so it
    /// costs a field read here.
    fn run(
        &mut self,
        id: u32,
        df: &Admitted,
        last_sent: &MetricRow<Stamped>,
        samples: &[Option<f64>],
        now: SimTime,
        stats: &mut DmonStats,
    ) -> Option<(Span, u64)> {
        let last = |i: u32| last_sent.get(i).map_or(0.0, |(v, _)| v);
        if df.filter.cert().effects.memo == MemoClass::Bypass {
            // Per-subscriber state feeds the output: one run per
            // subscriber, observable via `memo_bypassed`.
            stats.memo_bypassed += 1;
        } else if let Some(m) = self.entries.iter().find(|m| m.id == id) {
            // A shared run's records differ between subscribers only in
            // `last_value_sent`, and a record's `id` names the input it
            // was copied from: stamp this subscriber's value in place.
            if let Some(((start, end), _)) = m.result {
                for r in &mut self.arena[start..end] {
                    r.last_value_sent = last(r.metric_id);
                }
            }
            return m.result;
        }
        // A run: the input vector is built for it, and what it accepts is
        // written to the arena once, as the wire carries it. Skipped
        // slots get a zero placeholder: a module is only skipped when
        // every deployed filter's certificate proves it unread, so the
        // placeholder is unobservable.
        self.inputs.clear();
        let input = |(i, s): (usize, &Option<f64>)| MetricRecord {
            id: i as u32,
            value: s.unwrap_or(0.0),
            last_value_sent: last(i as u32),
            timestamp: now.as_secs_f64(),
        };
        self.inputs.extend(samples.iter().enumerate().map(input));
        let start = self.arena.len();
        let result = df.filter.run(&self.inputs).ok().map(|out| {
            self.arena.extend(out.iter_accepted().map(|r| MonRecord {
                metric_id: r.id,
                value: r.value,
                last_value_sent: r.last_value_sent,
                timestamp: r.timestamp,
            }));
            let instructions = out.instructions();
            out.recycle();
            ((start, self.arena.len()), instructions)
        });
        if df.filter.cert().effects.memo != MemoClass::Bypass {
            self.entries.push(MemoEntry { id, result });
        }
        result
    }
}

/// The admitted artefacts here. Which subscriber uses which slot is in
/// the subscriber's row, and the table's methods take that slot.
#[derive(Default)]
struct Table {
    /// One artefact per distinct source, indexed by the dense id that keys
    /// the per-poll memo; `None` is a free slot. An artefact whose last
    /// user left stays in its slot, *idle*, so deploying its source again
    /// is a lookup; a new source takes the lowest free or idle slot. A new
    /// slot is made only when every slot is in use, so the table never
    /// outgrows the number of subscribers with a filter.
    slots: Vec<Option<Admitted>>,
    /// Source → slot, for exactly the occupied slots, idle ones included
    /// (deploy-time only).
    filter_ids: HashMap<String, u32>,
}

impl Table {
    /// The artefact in a subscriber's slot, if it has one.
    #[inline]
    fn of(&self, slot: Option<u32>) -> Option<(u32, &Admitted)> {
        let id = slot?;
        Some((id, self.slots[id as usize].as_ref()?))
    }

    /// Store a fresh artefact in the lowest slot that is free or idle,
    /// evicting the idle artefact.
    fn occupy(&mut self, admitted: Admitted) -> u32 {
        let free = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_none_or(|a| a.users == 0));
        let id = free.unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if let Some(idle) = self.slots[id].take() {
            self.filter_ids.remove(idle.filter.source());
        }
        let source = admitted.filter.source().to_string();
        self.filter_ids.insert(source, id as u32);
        self.slots[id] = Some(admitted);
        id as u32
    }

    /// The subscriber whose slot is `slot` uses `id` from now on, and no
    /// longer whatever it used before.
    fn enter(&mut self, slot: &mut Option<u32>, id: u32) {
        if *slot != Some(id) {
            self.leave(slot);
            *slot = Some(id);
            if let Some(admitted) = &mut self.slots[id as usize] {
                admitted.users += 1;
            }
        }
    }

    /// A subscriber stops using its slot, if it has one; after the last
    /// user the artefact stays, idle. Its id may name another source by
    /// the next poll, once a new source evicts it: memo entries are read
    /// only between `begin_poll`, which clears them, and the end of that
    /// poll's subscriber loop, and no control message is handled in
    /// between, so a recycled id never meets a run of the source it used
    /// to name.
    fn leave(&mut self, slot: &mut Option<u32>) {
        let Some(id) = slot.take() else {
            return;
        };
        if let Some(admitted) = &mut self.slots[id as usize] {
            admitted.users -= 1;
        }
    }
}

#[derive(Default)]
pub(super) struct Select {
    table: Table,
    memo: Memo,
    /// What the parameter path decided for the subscriber at hand.
    decided: Vec<MonRecord>,
}

impl Select {
    /// The rows' slots are forgotten with the rows (`PeerState::on_revive`).
    pub(super) fn on_revive(&mut self) {
        self.table = Table::default();
    }

    /// Put the stream of the subscriber whose slot is `slot` under the
    /// filter `source`. A source the table holds, in use or idle, is a
    /// lookup; any other is admitted first. A source that does not
    /// compile or that the verifier refuses changes nothing (any
    /// previously deployed filter stays in force) and the subscriber is
    /// told why through the returned reply.
    pub(super) fn deploy(
        &mut self,
        slot: &mut Option<u32>,
        source: &str,
        env: &EnvSpec,
        stats: &mut DmonStats,
    ) -> Option<ControlMsg> {
        let table = &mut self.table;
        let id = match table.filter_ids.get(source) {
            Some(&id) => id,
            None => match Admitted::new(source, env) {
                // Leave first: a lone user's replacement reuses its slot.
                Ok(admitted) => {
                    table.leave(slot);
                    table.occupy(admitted)
                }
                Err(None) => {
                    stats.filter_errors += 1;
                    return None;
                }
                Err(Some(reason)) => {
                    stats.filters_rejected += 1;
                    return Some(ControlMsg::FilterRejected { reason });
                }
            },
        };
        table.enter(slot, id);
        stats.filters_compiled += 1;
        None
    }

    /// `RemoveFilter` from the subscriber whose slot is `slot`: its
    /// parameter rules decide again.
    pub(super) fn remove(&mut self, slot: &mut Option<u32>) {
        self.table.leave(slot);
    }

    /// What the filter in `slot` may read; `None` without a filter.
    pub(super) fn reads_of(&self, slot: Option<u32>) -> Option<&MetricSet> {
        self.table.of(slot).map(|(_, a)| &a.filter.cert().reads)
    }

    /// The environment grew: admit every source in use again against it,
    /// once each, and count the deployment for each of its subscribers. A
    /// source that no longer compiles keeps its old artefact. Idle
    /// artefacts were admitted against the old environment, so they go.
    pub(super) fn recompile(&mut self, env: &EnvSpec, stats: &mut DmonStats) {
        let Table { slots, filter_ids } = &mut self.table;
        for entry in slots.iter_mut() {
            let Some(slot) = entry else { continue };
            if slot.users == 0 {
                filter_ids.remove(slot.filter.source());
                *entry = None;
            } else if let Ok(fresh) = Admitted::new(slot.filter.source(), env) {
                let users = slot.users;
                stats.filters_compiled += u64::from(users);
                *slot = Admitted { users, ..fresh };
            }
        }
    }

    /// Forget the previous poll's memo.
    pub(super) fn begin_poll(&mut self) {
        self.memo.entries.clear();
        self.memo.arena.clear();
    }

    /// Decide which metric records to send to one subscriber. A deployed
    /// filter takes over the decision entirely; otherwise the
    /// subscriber's parameter rules (or the send-everything default) do.
    /// The records are this stage's until the next call.
    #[inline]
    pub(super) fn records(
        &mut self,
        sub: &PeerState,
        sample: &Sample,
        cx: &mut PollCx<'_>,
    ) -> &[MonRecord] {
        let last_sent = &sub.last_sent;
        let Some((id, df)) = self.table.of(sub.filter_slot()) else {
            let policy = sub.custom.as_ref().and_then(|c| c.policy.as_ref());
            by_policy(policy, last_sent, sample, cx, &mut self.decided);
            return &self.decided;
        };
        let memo = &mut self.memo;
        match memo.run(id, df, last_sent, &sample.latest, cx.now, cx.stats) {
            Some(((start, end), instructions)) => {
                // The modeled cost is charged per logical run — the
                // figures measure what a kernel would spend, not what the
                // memo saves the simulator.
                cx.out.cpu += cx.calib.ecode_instr * instructions;
                &memo.arena[start..end]
            }
            None => {
                // A faulting filter sends nothing (a kernel would also
                // disable it; we keep it and count the fault — per
                // subscriber, even when the run itself was memoized).
                cx.stats.filter_errors += 1;
                &[]
            }
        }
    }
}

impl DMon {
    /// The policy a subscriber currently has configured here.
    pub fn policy_for(&self, subscriber: NodeId) -> Option<&PolicySet> {
        self.peers.get(subscriber)?.custom.as_ref()?.policy.as_ref()
    }

    /// Whether a subscriber has a filter deployed here.
    pub fn has_filter(&self, subscriber: NodeId) -> bool {
        self.filter_for(subscriber).is_some()
    }

    /// The deployed filter of a subscriber, certificate included.
    pub fn filter_for(&self, subscriber: NodeId) -> Option<&Filter> {
        let slot = self.peers.get(subscriber)?.filter_slot();
        self.select.table.of(slot).map(|(_, a)| &a.filter)
    }
}

/// The parameter path: every sampled metric passes the subscriber's rules
/// for it, or goes out unconditionally when there are none.
fn by_policy(
    policy: Option<&PolicySet>,
    last_sent: &MetricRow<Stamped>,
    sample: &Sample,
    cx: &mut PollCx<'_>,
    decided: &mut Vec<MonRecord>,
) {
    let (now, calib) = (cx.now, cx.calib);
    decided.clear();
    for (i, (s, module)) in sample.latest.iter().zip(&sample.modules).enumerate() {
        // A subscriber without a filter makes `mark_needed` sample every
        // module, so no slot is a skipped one here.
        debug_assert!(s.is_some(), "module {i} skipped under a policy subscriber");
        let value = s.unwrap_or(0.0);
        let last = last_sent.get(i as u32);
        let last_value = last.map_or(0.0, |(v, _)| v);
        let ctx = RuleCtx {
            value,
            last_sent_value: last_value,
            last_sent_at: last.map(|(_, t)| t),
            now,
        };
        // A subscriber with no policy is charged one evaluation per
        // metric and gets everything.
        let rules = policy.map(|p| p.rules_for(module.metric_name()));
        cx.out.cpu += calib.policy_eval * rules.map_or(1, |r| r.len().max(1) as u64);
        if rules.is_none_or(|r| r.iter().all(|rule| rule.admits(&ctx))) {
            decided.push(MonRecord {
                metric_id: i as u32,
                value,
                last_value_sent: last_value,
                timestamp: now.as_secs_f64(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use kecho::ParamSpec;
    use simcore::SimDur;

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

    /// Source of a pure passthrough filter — Shared class.
    const PURE_SRC: &str = "{ output[0] = input[LOADAVG]; }";

    #[test]
    fn impure_filter_bypasses_memo_per_subscriber() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, IMPURE_SRC);
            assert!(!dmon.filter_for(sub).unwrap().cert().memo_safe());
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
            row.set(0, (believed, SimTime::from_secs(100)));
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
            assert!(cert.memo_safe());
            assert_eq!(cert.effects.memo, MemoClass::Shared);
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
        assert_eq!(dmon.select.memo.entries.len(), 1);
        assert_eq!(dmon.stats.memo_bypassed, 0);
    }

    #[test]
    fn one_run_serves_every_subscriber_with_its_own_last_sent_values() {
        let (dmon, ..) = setup();
        // Copies records out of slot order, some of them twice, and edits
        // the copies' other fields: only `last_value_sent` may differ
        // between subscribers.
        let src = "{ for (int i = 0; i < 5; i = i + 1) { \
                     if (input[i].value > 0.0) { output[4 - i] = input[i]; \
                       output[4 - i].value = input[i].value * 2.0; } } \
                   output[5] = input[CACHE_MISS]; \
                   output[5].timestamp = input[LOADAVG].value; \
                   if (input[FREEMEM].value < -0.9) { return 0; } }";
        let Ok(df) = Admitted::new(src, &dmon.sample.env) else {
            panic!("the record-copying filter is admitted");
        };
        assert_eq!(df.filter.cert().effects.memo, MemoClass::Shared);
        let n = dmon.sample.env.len();
        let mut rng = simcore::SimRng::seed_from_u64(0x000A_11CE);
        let mut stats = DmonStats::default();
        let mut memo = Memo::default();
        let drawn = [0.0, -0.0, 1.0, 2.5, f64::NAN, f64::INFINITY];
        let bits = |r: &MonRecord| {
            let f = [r.value, r.last_value_sent, r.timestamp].map(f64::to_bits);
            (r.metric_id, f)
        };
        let mut emitted = 0;
        for poll in 0..50u64 {
            let now = SimTime::from_secs(poll);
            let samples: Vec<_> = (0..n).map(|_| Some(rng.range_f64(-1.0, 1.0))).collect();
            memo.entries.clear();
            memo.arena.clear();
            for sub in 0..12u64 {
                // A row of the subscriber's own: unset slots read as 0.0,
                // and the two zeroes, NaN and infinity turn up.
                let mut row = MetricRow::<Stamped>::default();
                for id in 0..n as u32 {
                    if rng.chance(0.9) {
                        let v = if rng.chance(0.5) {
                            *rng.pick(&drawn)
                        } else {
                            (sub * 100 + u64::from(id)) as f64
                        };
                        row.set(id, (v, now));
                    }
                }
                let inputs: Vec<_> = (0..n)
                    .map(|i| MetricRecord {
                        id: i as u32,
                        value: samples[i].unwrap_or(0.0),
                        last_value_sent: row.get(i as u32).map_or(0.0, |(v, _)| v),
                        timestamp: now.as_secs_f64(),
                    })
                    .collect();
                let own = df.filter.run(&inputs).expect("the filter cannot fault");
                let want: Vec<_> = own
                    .iter_accepted()
                    .map(|r| MonRecord {
                        metric_id: r.id,
                        value: r.value,
                        last_value_sent: r.last_value_sent,
                        timestamp: r.timestamp,
                    })
                    .collect();
                let result = memo.run(0, &df, &row, &samples, now, &mut stats);
                let at = format!("poll {poll} subscriber {sub}");
                let Some(((start, end), instructions)) = result else {
                    panic!("{at}: the shared run faulted");
                };
                assert_eq!(instructions, own.instructions(), "{at}");
                let got = &memo.arena[start..end];
                assert_eq!(
                    got.iter().map(bits).collect::<Vec<_>>(),
                    want.iter().map(bits).collect::<Vec<_>>(),
                    "{at}"
                );
                assert_eq!(memo.entries.len(), 1, "{at}: one run for the poll");
                emitted += got.len();
            }
        }
        assert_eq!(stats.memo_bypassed, 0);
        assert!(emitted > 1000, "{emitted} records compared");
    }

    /// Occupied slots and `filter_ids` entries of a d-mon's table.
    fn table_size(dmon: &super::super::DMon) -> (usize, usize) {
        let t = &dmon.select.table;
        (t.slots.iter().flatten().count(), t.filter_ids.len())
    }

    fn slot_id(dmon: &super::super::DMon, sub: usize) -> u32 {
        dmon.peers.get(NodeId(sub)).unwrap().filter_slot().unwrap()
    }

    #[test]
    fn a_known_source_is_admitted_once_and_counted_per_deploy() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, PURE_SRC);
        }
        // Same source → same slot, hence same memo id and the very same
        // artefact, while every admitted deploy is counted.
        assert_eq!(slot_id(&dmon, 1), slot_id(&dmon, 2));
        let (a, b) = (dmon.filter_for(NodeId(1)), dmon.filter_for(NodeId(2)));
        assert!(std::ptr::eq(a.unwrap(), b.unwrap()));
        assert_eq!(table_size(&dmon), (1, 1));
        assert_eq!(dmon.stats.filters_compiled, 2);
        // Deploying what one already runs changes nothing but the count.
        deploy(&mut dmon, NodeId(2), PURE_SRC);
        let slot = Some(slot_id(&dmon, 2));
        assert_eq!(dmon.select.table.of(slot).unwrap().1.users, 2);
        assert_eq!(dmon.stats.filters_compiled, 3);
        deploy(&mut dmon, NodeId(2), IMPURE_SRC);
        // Distinct sources never share a slot: slots are keyed on the
        // exact source text, not on a hash of it.
        assert_ne!(slot_id(&dmon, 1), slot_id(&dmon, 2));
        assert_eq!(table_size(&dmon), (2, 2));
        // Every deploy was admitted and counted; the fallback counter
        // never moves.
        assert_eq!(dmon.stats.filters_compiled, 4);
        assert_eq!(dmon.stats.interp_fallbacks, 0);
    }

    /// The users of the artefact in slot `id`.
    fn users(dmon: &super::super::DMon, id: u32) -> u32 {
        dmon.select.table.slots[id as usize].as_ref().unwrap().users
    }

    #[test]
    fn the_last_user_leaves_the_artefact_idle_and_its_source_comes_back_to_it() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            deploy(&mut dmon, sub, PURE_SRC);
        }
        let artefact = dmon.filter_for(NodeId(1)).unwrap() as *const Filter;
        dmon.on_control(NodeId(1), &ControlMsg::RemoveFilter, &calib);
        assert!(!dmon.has_filter(NodeId(1)));
        assert_eq!(dmon.filter_for(NodeId(2)).unwrap().source(), PURE_SRC);
        assert_eq!((table_size(&dmon), users(&dmon, 0)), ((1, 1), 1));
        dmon.on_control(NodeId(2), &ControlMsg::RemoveFilter, &calib);
        assert!(!dmon.has_filter(NodeId(2)));
        assert_eq!(table_size(&dmon), (1, 1), "the last one leaves it idle");
        assert_eq!(users(&dmon, 0), 0);
        // Removing twice, or with nothing deployed, is harmless.
        dmon.on_control(NodeId(2), &ControlMsg::RemoveFilter, &calib);
        assert_eq!((table_size(&dmon), users(&dmon, 0)), ((1, 1), 0));
        // Deploying the source again enters the same artefact, unadmitted,
        // and counts the deployment.
        deploy(&mut dmon, NodeId(1), PURE_SRC);
        assert!(std::ptr::eq(dmon.filter_for(NodeId(1)).unwrap(), artefact));
        assert_eq!((slot_id(&dmon, 1), users(&dmon, 0)), (0, 1));
        assert_eq!(dmon.stats.filters_compiled, 3);
    }

    /// A new source takes the lowest slot that is free or idle, and the
    /// table holds exactly as many slots as when the last user freed a
    /// slot: the most distinct sources ever in use at once.
    #[test]
    fn a_new_source_takes_the_lowest_idle_slot_and_the_table_grows_no_larger() {
        let names = (0..8).map(|i| format!("n{i}")).collect();
        let modules = crate::modules::standard_modules();
        let mut dmon = super::super::DMon::new(NodeId(0), names, modules, SimDur::from_secs(1));
        let source = |k: u64| {
            format!("{{ if (input[LOADAVG].value > {k}) {{ output[0] = input[LOADAVG]; }} }}")
        };
        // Slots 0, 1, 2 for three sources; the first two go idle.
        for (sub, k) in [(1, 0), (2, 1), (3, 2)] {
            deploy(&mut dmon, NodeId(sub), &source(k));
        }
        let calib = crate::Calib::default();
        for sub in [2, 1] {
            dmon.on_control(NodeId(sub), &ControlMsg::RemoveFilter, &calib);
        }
        assert_eq!(table_size(&dmon), (3, 3));
        deploy(&mut dmon, NodeId(4), &source(3));
        assert_eq!(slot_id(&dmon, 4), 0, "the lowest idle slot");
        assert!(!dmon.select.table.filter_ids.contains_key(&source(0)));
        deploy(&mut dmon, NodeId(5), &source(0));
        assert_eq!(slot_id(&dmon, 5), 1, "an evicted source is admitted again");
        assert_eq!(dmon.select.table.slots.len(), 3);

        // Seeded churn over seven subscribers and six sources.
        let mut rng = simcore::SimRng::seed_from_u64(0x5107);
        let mut deployed: [Option<u64>; 8] =
            [None, None, None, Some(2), Some(3), Some(0), None, None];
        let mut most_in_use = 3;
        for step in 0..2000 {
            let sub = 1 + rng.below(7) as usize;
            if rng.chance(0.3) {
                dmon.on_control(NodeId(sub), &ControlMsg::RemoveFilter, &calib);
                deployed[sub] = None;
            } else {
                let k = rng.below(6);
                deploy(&mut dmon, NodeId(sub), &source(k));
                deployed[sub] = Some(k);
            }
            let mut in_use: Vec<_> = deployed.iter().flatten().collect();
            in_use.sort_unstable();
            in_use.dedup();
            most_in_use = most_in_use.max(in_use.len());
            let table = &dmon.select.table;
            assert_eq!(table.slots.len(), most_in_use, "step {step}");
            let used = table.slots.iter().flatten().filter(|a| a.users > 0).count();
            assert_eq!(used, in_use.len(), "step {step}");
            for (sub, k) in deployed.iter().enumerate() {
                let got = dmon.filter_for(NodeId(sub)).map(Filter::source);
                assert_eq!(got, k.map(source).as_deref(), "step {step} sub {sub}");
            }
        }
    }

    #[test]
    fn recompile_drops_idle_artefacts_and_never_brings_one_back() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        deploy(&mut dmon, NodeId(1), PURE_SRC);
        deploy(&mut dmon, NodeId(2), IMPURE_SRC);
        dmon.on_control(NodeId(1), &ControlMsg::RemoveFilter, &calib);
        assert_eq!(table_size(&dmon), (2, 2), "PURE_SRC idle");
        dmon.register_module(Box::new(crate::modules::PowerMon));
        // The idle artefact knew five metrics: it is gone, not recompiled;
        // the one in use knows six now.
        assert_eq!(table_size(&dmon), (1, 1));
        assert!(!dmon.select.table.filter_ids.contains_key(PURE_SRC));
        assert_eq!(dmon.filter_for(NodeId(2)).unwrap().env().len(), 6);
        deploy(&mut dmon, NodeId(1), PURE_SRC);
        assert_eq!(dmon.filter_for(NodeId(1)).unwrap().env().len(), 6);
        assert_eq!(slot_id(&dmon, 1), 0, "admitted again into the freed slot");
    }

    #[test]
    fn a_refused_replacement_frees_nothing() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        deploy(&mut dmon, NodeId(1), PURE_SRC);
        let before = dmon.filter_for(NodeId(1)).unwrap() as *const Filter;
        deploy(&mut dmon, NodeId(1), "{ while (1) { } }");
        deploy(&mut dmon, NodeId(1), "{ this is not e-code }");
        assert_eq!(dmon.stats.filters_rejected, 1);
        assert_eq!(dmon.stats.filter_errors, 1);
        assert_eq!(dmon.stats.filters_compiled, 1);
        assert!(std::ptr::eq(dmon.filter_for(NodeId(1)).unwrap(), before));
        assert_eq!(table_size(&dmon), (1, 1));
        assert!(!dmon
            .select
            .table
            .filter_ids
            .contains_key("{ while (1) { } }"));
    }

    #[test]
    fn a_subscriber_with_a_changing_constant_holds_one_slot() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        deploy(&mut dmon, NodeId(2), PURE_SRC);
        for k in 0..1000 {
            let src =
                format!("{{ if (input[LOADAVG].value > {k}) {{ output[0] = input[LOADAVG]; }} }}");
            deploy(&mut dmon, NodeId(1), &src);
            assert_eq!(dmon.filter_for(NodeId(1)).unwrap().source(), src);
            // Sub 2 keeps slot 0; sub 1's slot is freed and taken again.
            assert_eq!((slot_id(&dmon, 2), slot_id(&dmon, 1)), (0, 1));
            assert_eq!(dmon.select.table.slots.len(), 2);
            assert_eq!(table_size(&dmon), (2, 2));
        }
        assert_eq!(dmon.stats.filters_compiled, 1001);
        // A recycled id never meets a memoized run of the source it used
        // to name: the threshold-999 filter suppresses, then the
        // passthrough deployed into its slot sends, poll after poll.
        let to1 = |out: &super::super::PollOutcome| {
            let mut sends = out.sends.iter().filter(|(h, _, _)| h.to == NodeId(1));
            sends.any(|(_, ev, _)| ev.as_monitoring().is_some())
        };
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(!to1(&out));
        deploy(&mut dmon, NodeId(1), "{ output[0] = input[FREEMEM]; }");
        assert_eq!(slot_id(&dmon, 1), 1);
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(2), &calib);
        assert!(to1(&out));
    }

    #[test]
    fn revive_empties_the_table() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        deploy(&mut dmon, NodeId(1), PURE_SRC);
        deploy(&mut dmon, NodeId(2), IMPURE_SRC);
        dmon.on_revive();
        assert!(!dmon.has_filter(NodeId(1)) && !dmon.has_filter(NodeId(2)));
        assert_eq!(table_size(&dmon), (0, 0));
        assert!(dmon.select.table.slots.is_empty());
        // Lifetime stats survive, and the next deploy starts at slot 0.
        assert_eq!(dmon.stats.filters_compiled, 2);
        deploy(&mut dmon, NodeId(2), PURE_SRC);
        assert_eq!(slot_id(&dmon, 2), 0);
    }
}
