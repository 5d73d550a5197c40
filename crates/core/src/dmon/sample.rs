//! Stage 1, *collect* (the sampling share of Figs. 6–7): the registered
//! modules, the metric environment they define, the mask of modules some
//! subscriber can consume this poll, and this node's own
//! `/proc/cluster/<own>/` files — each stored as the record its module's
//! `sample` filled, which the module's renderer turns into text when the
//! file is read. Out: `latest`, this poll's sample per module, for
//! `select`; `own_latest` for the rack digest.

use ecode::{EnvSpec, MetricSet};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::{Host, ProcHandle};

use super::select::Select;
use super::{cluster_file, DMon, PollCx};
use crate::modules::MonitorModule;
use crate::peers::{PeerState, PeerTable, INLINE_METRICS, SPILL_METRICS};

/// Most modules one d-mon runs: every metric id it sends has a slot in
/// each subscriber's last-sent row.
const MAX_MODULES: usize = INLINE_METRICS + SPILL_METRICS;

pub(super) struct Sample {
    pub(super) modules: Vec<Box<dyn MonitorModule>>,
    pub(super) env: EnvSpec,
    /// Number of modules present at construction (the cluster-wide
    /// standard set); ids beyond this need schema info on the wire.
    base_modules: usize,
    /// Wire schema blocks for run-time-registered modules, rebuilt when
    /// the module set changes instead of per subscriber per poll.
    pub(super) ext_schema: Vec<(u32, String, String)>,
    /// Which modules at least one remote subscriber's stream can consume,
    /// rebuilt every poll.
    needed: Vec<bool>,
    /// This poll's sample per module; `None` where the module was skipped.
    pub(super) latest: Vec<Option<f64>>,
    /// The words of the module being sampled, copied from here into its
    /// own-metric `/proc` slot; reused across modules and polls.
    rec: Vec<u64>,
    /// Interned `/proc` handles for this node's own metric files, by
    /// module index; resolved on first write, O(1) afterwards.
    file_handles: Vec<Option<ProcHandle>>,
    /// Interned handle for `cluster/<own>/control`.
    ctl_handle: Option<ProcHandle>,
    /// This node's own latest sample per metric id, kept so an
    /// aggregator's digest folds its own host alongside its rack peers'
    /// remote views.
    pub(super) own_latest: Vec<Option<(f64, SimTime)>>,
}

impl Sample {
    pub(super) fn new(modules: Vec<Box<dyn MonitorModule>>) -> Self {
        let n = modules.len();
        assert!(n <= MAX_MODULES, "more modules than a peer row holds");
        Sample {
            env: EnvSpec::new(modules.iter().map(|m| m.metric_name().to_string())),
            modules,
            base_modules: n,
            ext_schema: Vec::new(),
            needed: Vec::new(),
            latest: Vec::new(),
            rec: Vec::new(),
            file_handles: vec![None; n],
            ctl_handle: None,
            own_latest: vec![None; n],
        }
    }

    /// The `/proc` file name of standard metric `id`; ids beyond the
    /// standard set resolve through the schema their origin shipped.
    pub(super) fn base_file_name(&self, id: usize) -> Option<&'static str> {
        let base = &self.modules[..self.base_modules];
        base.get(id).map(|m| m.file_name())
    }

    /// The E-code metric constant for a name a control message used:
    /// control files name metrics by their `/proc` file names (`cpu`,
    /// `mem`, ...); policies are keyed by the metric constants
    /// (`LOADAVG`, ...). Either is accepted.
    pub(super) fn metric_name_of<'a>(&self, name: &'a str) -> &'a str {
        let by_file = self.modules.iter().find(|m| m.file_name() == name);
        by_file.map_or(name, |m| m.metric_name())
    }

    /// `window` control: retune the averaging window of the module behind
    /// `file`.
    pub(super) fn set_window(&mut self, file: &str, secs: f64) {
        let window = SimDur::from_secs_f64(secs);
        for m in &mut self.modules {
            if m.file_name() == file {
                m.set_window(window);
            }
        }
    }

    pub(super) fn on_revive(&mut self) {
        self.own_latest.fill(None);
    }

    /// Collect one sample per module some subscriber can actually consume
    /// (certified filter read sets prove the rest unread) and refresh the
    /// local /proc views.
    pub(super) fn collect(
        &mut self,
        host: &mut Host,
        own: &str,
        subs: impl Iterator<Item = NodeId>,
        peers: &PeerTable,
        select: &Select,
        cx: &mut PollCx<'_>,
    ) {
        self.mark_needed(subs, peers, select);
        self.latest.clear();
        for (i, module) in self.modules.iter_mut().enumerate() {
            if !self.needed[i] {
                cx.stats.modules_skipped += 1;
                self.latest.push(None);
                continue;
            }
            self.rec.clear();
            let value = module.sample(host, cx.now, &mut self.rec);
            cx.out.cpu += cx.calib.collect_per_module;
            let slot = &mut self.file_handles[i];
            if let Some(h) = cluster_file(slot, &mut host.proc, own, module.file_name()) {
                host.proc.set_record(h, module.renderer(), &self.rec);
            }
            self.own_latest[i] = Some((value, cx.now));
            self.latest.push(Some(value));
        }
        // `control` only has to exist: a write to it is queued for the
        // next poll, never stored, so the file is always empty.
        cluster_file(&mut self.ctl_handle, &mut host.proc, own, "control");
    }

    /// Which modules at least one remote subscriber's stream can consume.
    /// A subscriber with a certified filter consumes exactly the filter's
    /// read set; any other subscriber (parameter rules or defaults)
    /// receives every metric. With no remote subscribers everything is
    /// collected so local `/proc` views stay fresh.
    fn mark_needed(
        &mut self,
        subs: impl Iterator<Item = NodeId>,
        peers: &PeerTable,
        select: &Select,
    ) {
        let n = self.modules.len();
        self.needed.clear();
        self.needed.resize(n, false);
        let mut any_remote = false;
        for sub in subs {
            any_remote = true;
            match select.reads_of(peers.get(sub).and_then(PeerState::filter_slot)) {
                Some(MetricSet::Fixed(set)) => {
                    for &i in set {
                        if i < n {
                            self.needed[i] = true;
                        }
                    }
                }
                Some(MetricSet::All) | None => {
                    self.needed.fill(true);
                    return;
                }
            }
        }
        if !any_remote {
            self.needed.fill(true);
        }
    }
}

impl DMon {
    /// The filter environment (metric constants) of this publisher.
    pub fn env(&self) -> &EnvSpec {
        &self.sample.env
    }

    /// Number of registered monitoring modules.
    pub fn module_count(&self) -> usize {
        self.sample.modules.len()
    }

    /// Register a monitoring module at run time — the paper's
    /// extensibility: "new monitoring functionality can be added
    /// dynamically ... without the need to recompile or restart the
    /// running dproc mechanisms". The metric environment grows
    /// append-only, so filters compiled against the old environment keep
    /// their indices.
    pub fn register_module(&mut self, module: Box<dyn MonitorModule>) {
        let s = &mut self.sample;
        assert!(
            s.env.index_of(module.metric_name()).is_none(),
            "metric `{}` already registered",
            module.metric_name()
        );
        assert!(
            s.modules.len() < MAX_MODULES,
            "more modules than a peer row holds"
        );
        let mut names: Vec<String> = s.env.names().map(str::to_string).collect();
        names.push(module.metric_name().to_string());
        s.modules.push(module);
        s.env = EnvSpec::new(names);
        s.file_handles.resize(s.modules.len(), None);
        s.own_latest.resize(s.modules.len(), None);
        let ext = s.modules.iter().enumerate().skip(s.base_modules);
        s.ext_schema = ext
            .map(|(id, m)| (id as u32, m.metric_name().into(), m.file_name().into()))
            .collect();
        // Filters were compiled against the shorter environment; they stay
        // valid (indices are stable) but cannot see the new metric until
        // redeployed. Recompile in place so subscribers pick it up.
        self.select.recompile(&s.env, &mut self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use kecho::{ControlMsg, ParamSpec};
    use simcore::SimTime;
    use simnet::NodeId;

    #[test]
    fn poll_updates_own_proc_tree() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(host
            .proc
            .read("cluster/alan/cpu")
            .unwrap()
            .contains("loadavg"));
        assert!(host.proc.exists("cluster/alan/control"));
        assert!(host
            .proc
            .read("cluster/alan/mem")
            .unwrap()
            .contains("free_bytes"));
    }

    #[test]
    fn readset_skips_modules_no_subscriber_consumes() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Both remote subscribers deploy filters whose certified read set
        // is exactly {LOADAVG} — the other four modules are provably
        // unread, so d-mon must not sample them.
        for sub in [NodeId(1), NodeId(2)] {
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: "{ output[0] = input[LOADAVG]; }".into(),
                },
                &calib,
            );
        }
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.modules_skipped, 4, "mem/disk/net/pmc skipped");
        assert!(
            host.proc.exists("cluster/alan/cpu"),
            "consumed module still sampled"
        );
        assert!(
            !host.proc.exists("cluster/alan/mem"),
            "unread module never collected"
        );
        assert!(!host.proc.exists("cluster/alan/pmc"));
        // The streams themselves still flow.
        assert_eq!(out.sends.len(), 2);
        for (_, ev, _) in &out.sends {
            let recs = &ev.as_monitoring().unwrap().records;
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].metric_id, 0);
        }
        // Removing one filter widens the need back to everything.
        dmon.on_control(NodeId(2), &ControlMsg::RemoveFilter, &calib);
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(2), &calib);
        assert_eq!(
            dmon.stats.modules_skipped, 4,
            "no new skips once a default subscriber exists"
        );
        assert!(host.proc.exists("cluster/alan/mem"));
    }

    #[test]
    fn one_subscriber_without_a_filter_forces_every_module() {
        // `by_policy` reads `latest[i]` unguarded, on this: a subscriber
        // with the defaults or with parameter rules gets every metric,
        // however narrow the read sets the others deployed.
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        let narrow = ControlMsg::DeployFilter {
            source: "{ output[0] = input[LOADAVG]; }".into(),
        };
        dmon.on_control(NodeId(1), &narrow, &calib);
        let rule = ControlMsg::SetParam {
            metric: "cpu".into(),
            param: ParamSpec::Above { bound: 1e18 },
        };
        for (t, rules) in [(1, None), (2, Some(&rule))] {
            if let Some(msg) = rules {
                dmon.on_control(NodeId(2), msg, &calib);
            }
            dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(t), &calib);
            assert!(dmon.sample.needed.iter().all(|&n| n));
            assert!(dmon.sample.latest.iter().all(Option::is_some));
        }
        assert_eq!(dmon.stats.modules_skipped, 0);
    }

    #[test]
    fn dynamic_read_filter_keeps_all_modules_sampled() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    // Dynamic input index => read set is All.
                    source: "{ int i; i = 2; output[0] = input[i]; }".into(),
                },
                &calib,
            );
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.modules_skipped, 0);
    }
}
