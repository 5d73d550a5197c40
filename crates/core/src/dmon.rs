//! d-mon: the distributed-monitor kernel module.
//!
//! One d-mon runs per node (Figure 2). Every polling period it retrieves
//! samples from the registered monitoring modules via their callbacks,
//! decides per subscriber — by parameter rules or a deployed E-code
//! filter — which metrics to ship, and submits events on the monitoring
//! channel. Incoming monitoring events populate the local
//! `/proc/cluster/<node>/...` tree; incoming control events reconfigure
//! the stream the sending subscriber receives (parameters, dynamic filter
//! compilation and deployment).
//!
//! d-mon itself is pure: [`DMon::poll`] returns the planned events plus
//! the CPU cost to charge; the cluster glue executes sends and schedules
//! deliveries.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use ecode::{
    compile_filter, CompiledFilter, EnvSpec, Filter, FilterOutput, MemoClass, MetricRecord,
    MetricSet, RuntimeError,
};
use kecho::{
    ChannelId, ControlMsg, CreditWindow, DigestPayload, DigestRecord, Directory, Event,
    HeartbeatPayload, Hop, MonRecord, MonitoringPayload, Observation, ParamSpec, StreamTracker,
    GRANT_THRESHOLD, OUTBOX_CAP,
};
use simcore::fastfmt;
use simcore::stats::Sampler;
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::{Host, ProcHandle};

use crate::calib::Calib;
use crate::control::parse_control;
use crate::modules::MonitorModule;
use crate::params::{PolicySet, Rule, RuleCtx};
use crate::peers::{OutboxEntry, PeerRecord, PeerTable};

/// Counters and samplers a d-mon keeps about itself — the numbers behind
/// Figures 6–8.
#[derive(Debug, Default)]
pub struct DmonStats {
    /// Completed polling iterations.
    pub iterations: u64,
    /// Monitoring events submitted.
    pub events_sent: u64,
    /// Monitoring payload bytes submitted.
    pub bytes_sent: u64,
    /// Monitoring events received.
    pub events_received: u64,
    /// Monitoring payload bytes received.
    pub bytes_received: u64,
    /// Control messages handled.
    pub control_handled: u64,
    /// Filter deployments that failed to compile.
    pub filter_errors: u64,
    /// Filter deployments that compiled but were refused by the static
    /// verifier (unbounded or over-budget worst-case cost).
    pub filters_rejected: u64,
    /// Admitted deployments the register compiler specialized into a
    /// closure (the stack-VM interpreter stays available as the
    /// differential oracle).
    pub filters_compiled: u64,
    /// Admitted deployments that stayed on the stack-VM interpreter
    /// because the register lowering declined the chunk.
    pub interp_fallbacks: u64,
    /// Module samplings skipped because no subscriber's stream could
    /// consume the metric (read-set-driven sampling).
    pub modules_skipped: u64,
    /// Filter evaluations that bypassed the shared memo because the
    /// effect pass could not prove the filter memo-safe (it reads or
    /// writes per-subscriber `last_value_sent` state), so it ran once
    /// per subscriber.
    pub memo_bypassed: u64,
    /// Malformed control-file writes.
    pub control_errors: u64,
    /// Heartbeats submitted (to subscribers whose stream had no data).
    pub heartbeats_sent: u64,
    /// Heartbeats received.
    pub heartbeats_received: u64,
    /// Sequence numbers proven lost across all incoming streams.
    pub gaps_detected: u64,
    /// Failure-detector checks that found a peer silent past its expected
    /// cadence (ticks once per poll per overdue peer).
    pub heartbeats_missed: u64,
    /// Fresh → Stale transitions observed by the failure detector.
    pub nodes_suspected: u64,
    /// Stale → Dead transitions (the peer is then evicted from the
    /// registry by the glue).
    pub nodes_evicted: u64,
    /// Recoveries: a Dead peer spoke again, or a publisher restarted with
    /// a new epoch; counted when this node replays its customizations.
    pub resyncs: u64,
    /// Monitoring events shed (oldest-first) from a stalled subscriber's
    /// bounded outbox, plus events discarded when their subscriber was
    /// evicted as Dead. Shed events never consumed a `stream_seq`, so they
    /// create no gap on the subscriber side — the counter here is the only
    /// record of them.
    pub events_shed: u64,
    /// Polls during which at least one event stayed parked because a
    /// subscriber's credit window was empty (one tick per stalled
    /// subscriber per poll).
    pub credits_stalled: u64,
    /// Degradation-ladder level changes, in either direction.
    pub ladder_transitions: u64,
    /// Rack digests submitted (aggregators only).
    pub digests_sent: u64,
    /// Rack digests received on the spine digest channel.
    pub digests_received: u64,
    /// Per-metric summary records carried by those digests (a digest
    /// folds one record per metric that had at least one sample). Pure
    /// sim output — the bench exact-gates it to pin the aggregation
    /// tier's payload shape.
    pub digest_records: u64,
    /// Digest freshness at arrival: seconds between the newest sample a
    /// digest folded and the moment it landed here. The hierarchy's
    /// staleness cost — what the aggregation tier trades for rack-local
    /// monitoring traffic.
    pub digest_staleness_s: Sampler,
    /// Per-iteration event-submission CPU cost in microseconds (what the
    /// paper measures with rdtsc for Figs. 6–7).
    pub submit_cost_us: Sampler,
    /// Per-iteration event-receiving CPU cost in microseconds (Fig. 8).
    pub receive_cost_us: Sampler,
    /// Receive cost accumulated since the last poll closed the iteration.
    pending_receive: SimDur,
    /// Submit cost accumulated within the current iteration.
    pending_submit: SimDur,
}

/// What one polling iteration wants the glue to do.
#[derive(Debug)]
pub struct PollOutcome {
    /// Events to transmit: `(hop, event, payload_bytes)`.
    pub sends: Vec<(Hop, Event, usize)>,
    /// Total CPU time to charge to this host for the iteration (module
    /// collection + policy/filter evaluation + submission handlers +
    /// kernel network path).
    pub cpu_cost: SimDur,
    /// Peers the failure detector newly declared Dead this iteration. The
    /// glue evicts them from the shared registry so every publisher stops
    /// sampling/filtering/transmitting for them.
    pub dead_peers: Vec<NodeId>,
    /// This node found itself missing from the monitoring channel (a peer
    /// evicted it while it was unreachable). The glue re-registers it —
    /// the paper's registry re-bootstrap.
    pub rejoin: bool,
}

/// What handling one control message wants the glue to do.
#[derive(Debug)]
pub struct ControlOutcome {
    /// CPU cost of the handler (compilation is expensive; parameter
    /// updates are cheap).
    pub cpu: SimDur,
    /// A message to send back to the originator — e.g.
    /// [`ControlMsg::FilterRejected`] when a deployment fails the static
    /// verifier.
    pub reply: Option<ControlMsg>,
}

impl ControlOutcome {
    fn cost(cpu: SimDur) -> Self {
        ControlOutcome { cpu, reply: None }
    }
}

/// Health of a remote peer as judged by the local failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Heard from within the staleness bound.
    Fresh,
    /// Silent past the staleness bound — its `/proc/cluster` view may no
    /// longer reflect reality.
    Stale,
    /// Silent past the death bound — treated as crashed and evicted from
    /// the registry until it speaks again.
    Dead,
}

impl PeerHealth {
    fn label(self) -> &'static str {
        match self {
            PeerHealth::Fresh => "fresh",
            PeerHealth::Stale => "stale",
            PeerHealth::Dead => "dead",
        }
    }
}

/// One memoized filter evaluation within the current poll, keyed by the
/// dense filter id assigned at admission (identical sources share an
/// id, distinct sources never do — so a hit is a u32 compare, with no
/// hashing on the poll path). How a hit is keyed further depends on
/// what the filter's effect certificate proved:
///
/// * `MemoClass::Shared` (`snapshot == false`): the output is provably
///   independent of per-subscriber state, so the filter id alone keys
///   the entry — no input clone, no snapshot compare.
/// * `MemoClass::SnapshotKeyed` (`snapshot == true`): emitted records
///   copy per-subscriber `last_value_sent`, so a hit additionally
///   requires full input-snapshot equality.
///
/// `MemoClass::Bypass` filters never reach this table.
struct FilterMemo {
    id: u32,
    /// True when a hit must also compare the input snapshot.
    snapshot: bool,
    /// The input snapshot for snapshot-keyed entries; empty for
    /// id-only entries.
    inputs: Vec<MetricRecord>,
    /// Accepted records (a span in the per-poll [`kecho::RecordArena`])
    /// + executed instructions, or `None` for a VM fault. Storing a span
    /// instead of an owned vector is what makes fan-out batched: the
    /// run's records are materialized once into the arena, and every
    /// subscriber sharing the hit gathers the span into its own pooled
    /// payload buffer — one encode, N enqueues, zero clones.
    result: Option<(kecho::RecordSpan, u64)>,
}

/// A filter admitted at deploy time, with everything the per-poll path
/// needs pre-resolved at admission: the dense memo id, the specialized
/// closure (when the register compiler accepted the chunk), and the
/// memo class already folded with the fingerprint-collision
/// quarantine. The poll path never re-hashes source text or re-reads
/// the certificate.
struct DeployedFilter {
    filter: Filter,
    /// Dense per-node filter id — the memo key. Assigned per distinct
    /// source at admission.
    id: u32,
    /// Specialized register closure; `None` ⇒ interpreter fallback.
    compiled: Option<CompiledFilter>,
    /// Effect-certificate memo class, demoted to `Bypass` at deploy
    /// time when the source's fingerprint is collision-tainted.
    memo_class: MemoClass,
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

/// FNV-1a over a filter's source — a cheap, deterministic fingerprint
/// used only at deploy time. Distinct deployed sources with colliding
/// fingerprints are quarantined in [`DMon::fp_tainted`], which demotes
/// the deployment's memo class to `Bypass` at admission; the per-poll
/// memo itself keys on dense filter ids (one per distinct source), so
/// a clash costs VM runs, never wrong data — and costs nothing on the
/// poll path.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Data-plane stretch multiplier per degradation-ladder level: at level
/// `L` a node builds data events only every `LADDER_STRETCH[L]`-th poll.
/// Heartbeats and control traffic are never stretched.
const LADDER_STRETCH: [u64; 5] = [1, 2, 2, 4, 4];

/// Highest ladder level (summary-only digest).
const LADDER_TOP: u8 = 4;

/// Consecutive stalled polls before the ladder steps down one level.
const LADDER_DOWN_AFTER: u32 = 3;

/// Consecutive clear polls (and drained outboxes) before the ladder
/// steps back up one level — the hysteresis that stops a borderline load
/// from flapping the level every poll.
const LADDER_UP_AFTER: u32 = 5;

/// Relative-change gate applied to records at ladder level 2 and above:
/// a sample within this fraction of the last value sent is coarsened
/// away.
const LADDER_DELTA_GATE: f64 = 0.10;

/// Longest a stream stays parked after consecutive uplink tail-drops
/// (in polls). Kept at the failure detector's default dead bound so even
/// the deepest backoff re-probes within one detection window — heartbeats
/// keep flowing every `heartbeat_every` during a park, so liveness never
/// depends on the retry.
const CHOKE_PARK_CAP: u32 = 8;

/// The d-mon module of one node.
pub struct DMon {
    node: NodeId,
    /// Hostname per NodeId index — the `/proc/cluster/<name>` directory
    /// names. Shared across every d-mon in the cluster (at 4096 nodes a
    /// per-node clone of the name table would dwarf the monitor state).
    cluster_names: Arc<Vec<String>>,
    modules: Vec<Box<dyn MonitorModule>>,
    env: EnvSpec,
    poll_period: SimDur,
    /// Extra payload bytes per event (models larger event bodies; Fig. 7
    /// uses ~5 KB).
    event_pad: u32,
    policies: HashMap<NodeId, PolicySet>,
    filters: HashMap<NodeId, DeployedFilter>,
    /// Dense filter id per distinct deployed source (deploy-time only).
    /// Identical sources share an id so the per-poll memo can share
    /// their runs; ids survive removals and restarts — they only need
    /// to be dense enough to stay cheap, not compact.
    filter_ids: HashMap<String, u32>,
    /// Next dense filter id to hand out.
    next_filter_id: u32,
    /// Everything this node remembers per peer — stream positions, last
    /// values sent and received, detector verdicts, credit windows,
    /// outboxes, interned `/proc` handles — one slot per node of the
    /// home range (the rack, or the whole cluster on a star), so per-node
    /// state and every per-peer loop is O(rack), not O(cluster).
    peers: PeerTable,
    /// Frames dropped because they named an origin outside the cluster,
    /// and records skipped because their file name could not be a leaf of
    /// `cluster/<origin>/` (kept off [`DmonStats`], whose `Debug` text is
    /// part of recorded run fingerprints).
    events_rejected: u64,
    /// Learned schema extensions: metric/file names for foreign ids beyond
    /// the standard module set, per origin. Ordered so name lookups scan
    /// an origin's range deterministically.
    remote_ext: BTreeMap<(NodeId, u32), (String, String)>,
    /// Number of modules present at construction (the cluster-wide
    /// standard set); ids beyond this need schema info on the wire.
    base_modules: usize,
    /// Why a remote publisher last refused this node's filter, keyed by
    /// publisher (populated by incoming [`ControlMsg::FilterRejected`]).
    rejections: HashMap<NodeId, String>,
    seq: u64,
    /// This node's incarnation; bumped by [`DMon::on_revive`] so peers can
    /// tell a restart from a gap.
    epoch: u32,
    /// Silence bound for Fresh → Stale.
    stale_after: SimDur,
    /// Silence bound for Stale → Dead.
    dead_after: SimDur,
    /// Minimum silence on a subscriber stream before a heartbeat rides it.
    /// Kept under `stale_after` so a fully-filtered publisher stays Fresh,
    /// but well above the polling period so heartbeats stay cheap.
    heartbeat_every: SimDur,
    /// Customizations this node deployed on remote publishers, replayed on
    /// resync when a publisher restarts (its volatile policy/filter state
    /// died with it).
    deployed_ctl: HashMap<NodeId, Vec<ControlMsg>>,
    /// Peers that recovered since the last poll and need re-deployment.
    pending_resync: Vec<NodeId>,
    /// Interned `/proc` handles for this node's own metric files, by
    /// module index; resolved on first write, O(1) afterwards.
    own_file_handles: Vec<Option<ProcHandle>>,
    /// Interned handle for `cluster/<own>/control`.
    own_ctl_handle: Option<ProcHandle>,
    /// Wire schema blocks for run-time-registered modules, rebuilt when
    /// the module set changes instead of per subscriber per poll.
    ext_schema: Vec<(u32, String, String)>,
    /// Scratch filter-input vector, reused across subscribers and polls.
    filter_inputs: Vec<MetricRecord>,
    /// Scratch per-module sample vector, reused across polls.
    sample_buf: Vec<Option<f64>>,
    /// Scratch detail string rotated through the own-metric `/proc`
    /// slots via `swap_handle`, so module collection reuses the slots'
    /// own capacity instead of allocating.
    detail_buf: String,
    /// Scratch needed-modules mask, reused across polls.
    needed_buf: Vec<bool>,
    /// Scratch credit-grant list, reused across polls.
    grant_buf: Vec<(NodeId, u32)>,
    /// Spare `PollOutcome::sends` vector, returned by the glue via
    /// [`DMon::recycle_sends`] after transmitting so the steady-state
    /// poll allocates no fresh send list.
    send_buf: Vec<(Hop, Event, usize)>,
    /// Per-poll filter memo table (cleared at the top of every poll).
    memo: Vec<FilterMemo>,
    /// SoA arena backing the memo entries' record spans, cleared with
    /// the memo. Filter outputs are materialized here once per distinct
    /// run; per-subscriber payloads gather spans out of it.
    record_arena: kecho::RecordArena,
    /// Source text per deployed-filter fingerprint, kept to detect FNV
    /// collisions between *distinct* sources at deploy time. Bounded by
    /// the number of distinct filter sources ever deployed here.
    fp_sources: BTreeMap<u64, String>,
    /// Fingerprints two distinct sources have hashed to. The memo skips
    /// these permanently — correctness must not hinge on a 64-bit hash.
    fp_tainted: BTreeSet<u64>,
    /// Whether this node's own uplink queue tail-dropped any frame since
    /// the previous poll. A local qdisc drop is the most direct overload
    /// evidence a node has — credit stalls can lag it by many polls when
    /// grant trickle keeps the window half-open — so the degradation
    /// ladder counts a drop-marred poll as stalled.
    wire_dropped_since_poll: bool,
    /// Degradation-ladder level (0 = full fidelity .. [`LADDER_TOP`]).
    ladder: u8,
    /// Consecutive polls with a credit-stalled subscriber.
    stall_run: u32,
    /// Consecutive polls with no stalled subscriber.
    clear_run: u32,
    /// Interned handle for `cluster/<own>/overload`.
    overload_handle: Option<ProcHandle>,
    /// This node's own latest sample per metric id, kept so an
    /// aggregator's digest folds its own host alongside its rack peers'
    /// remote views.
    own_latest: Vec<Option<(f64, SimTime)>>,
    /// Latest digest received per rack (spine subscribers only) — the
    /// observability surface behind the shell's `racks` command.
    rack_digests: BTreeMap<u32, DigestPayload>,
    /// Interned handles for `cluster/rack<k>/<file>`, by rack and metric
    /// id.
    digest_handles: BTreeMap<(u32, u32), ProcHandle>,
    /// Self-observability.
    pub stats: DmonStats,
}

impl DMon {
    /// Create the d-mon for `node`. `cluster_names[i]` names `NodeId(i)`.
    pub fn new(
        node: NodeId,
        cluster_names: Vec<String>,
        modules: Vec<Box<dyn MonitorModule>>,
        poll_period: SimDur,
    ) -> Self {
        let home = 0..cluster_names.len();
        Self::new_shared(node, Arc::new(cluster_names), home, modules, poll_period)
    }

    /// Create the d-mon for `node` with a shared name table — the cluster
    /// glue hands every d-mon the same `Arc`, so a 4096-node run holds
    /// one name table, not 4096 copies — and `home`, the contiguous
    /// node-id range of its rack (the whole cluster on a star), as its
    /// neighbourhood: per-peer state is allocated for that range only.
    pub fn new_shared(
        node: NodeId,
        cluster_names: Arc<Vec<String>>,
        home: Range<usize>,
        modules: Vec<Box<dyn MonitorModule>>,
        poll_period: SimDur,
    ) -> Self {
        assert!(!poll_period.is_zero(), "zero poll period");
        assert!(home.contains(&node.0), "node outside its home range");
        let env = EnvSpec::new(modules.iter().map(|m| m.metric_name().to_string()));
        let base_modules = modules.len();
        let peers = PeerTable::new(home, cluster_names.len());
        DMon {
            node,
            cluster_names,
            modules,
            env,
            poll_period,
            event_pad: 0,
            policies: HashMap::new(),
            filters: HashMap::new(),
            filter_ids: HashMap::new(),
            next_filter_id: 0,
            peers,
            events_rejected: 0,
            remote_ext: BTreeMap::new(),
            base_modules,
            rejections: HashMap::new(),
            seq: 0,
            epoch: 0,
            stale_after: poll_period.mul_f64(3.0),
            dead_after: poll_period.mul_f64(8.0),
            heartbeat_every: poll_period.mul_f64(2.0),
            deployed_ctl: HashMap::new(),
            pending_resync: Vec::new(),
            own_file_handles: vec![None; base_modules],
            own_ctl_handle: None,
            ext_schema: Vec::new(),
            filter_inputs: Vec::new(),
            sample_buf: Vec::new(),
            detail_buf: String::new(),
            needed_buf: Vec::new(),
            grant_buf: Vec::new(),
            send_buf: Vec::new(),
            memo: Vec::new(),
            record_arena: kecho::RecordArena::new(),
            fp_sources: BTreeMap::new(),
            fp_tainted: BTreeSet::new(),
            wire_dropped_since_poll: false,
            ladder: 0,
            stall_run: 0,
            clear_run: 0,
            overload_handle: None,
            own_latest: vec![None; base_modules],
            rack_digests: BTreeMap::new(),
            digest_handles: BTreeMap::new(),
            stats: DmonStats::default(),
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The polling period.
    pub fn poll_period(&self) -> SimDur {
        self.poll_period
    }

    /// The filter environment (metric constants) of this publisher.
    pub fn env(&self) -> &EnvSpec {
        &self.env
    }

    /// Set the extra payload size per event.
    pub fn set_event_pad(&mut self, pad: u32) {
        self.event_pad = pad;
    }

    /// Register a monitoring module at run time — the paper's
    /// extensibility: "new monitoring functionality can be added
    /// dynamically ... without the need to recompile or restart the
    /// running dproc mechanisms". The metric environment grows
    /// append-only, so filters compiled against the old environment keep
    /// their indices.
    pub fn register_module(&mut self, module: Box<dyn MonitorModule>) {
        assert!(
            self.env.index_of(module.metric_name()).is_none(),
            "metric `{}` already registered",
            module.metric_name()
        );
        let mut names: Vec<String> = self.env.names().map(str::to_string).collect();
        names.push(module.metric_name().to_string());
        self.modules.push(module);
        self.env = EnvSpec::new(names);
        // Filters were compiled against the shorter environment; they stay
        // valid (indices are stable) but cannot see the new metric until
        // redeployed. Recompile in place so subscribers pick it up.
        // detlint: allow(unordered-iter) sorted before use on the next line
        let mut sources: Vec<(NodeId, String)> = self
            .filters
            .iter()
            .map(|(&sub, f)| (sub, f.filter.source().to_string()))
            .collect();
        sources.sort_by_key(|&(sub, _)| sub);
        for (sub, source) in sources {
            if let Ok(f) = Filter::compile(&source, &self.env) {
                self.install_filter(sub, f);
            }
        }
        self.own_file_handles.resize(self.modules.len(), None);
        self.own_latest.resize(self.modules.len(), None);
        // Wire schema blocks for every run-time-registered module, built
        // once here instead of per subscriber per poll.
        self.ext_schema = self.modules[self.base_modules..]
            .iter()
            .enumerate()
            .map(|(k, m)| {
                (
                    (self.base_modules + k) as u32,
                    m.metric_name().to_string(),
                    m.file_name().to_string(),
                )
            })
            .collect();
    }

    /// Number of registered monitoring modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Hostname of a node id.
    pub fn name_of(&self, node: NodeId) -> &str {
        &self.cluster_names[node.0]
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.cluster_names
            .iter()
            .position(|n| n == name)
            .map(NodeId)
    }

    /// Last value received from `origin` for the metric named `metric` —
    /// the programmatic fast path next to the `/proc` text interface.
    pub fn remote_value(&self, origin: NodeId, metric: &str) -> Option<(f64, SimTime)> {
        if let Some(idx) = self.env.index_of(metric) {
            return self.remote_value_at(origin, idx as u32);
        }
        // A metric this node has no module for: resolve through the
        // schema the origin shipped with its events. The map is ordered
        // by (origin, id), so this scans exactly the origin's ids in
        // ascending order.
        let (&(_, idx), _) = self
            .remote_ext
            .range((origin, 0)..=(origin, u32::MAX))
            .find(|(_, (name, _))| name == metric)?;
        self.remote_value_at(origin, idx)
    }

    fn remote_value_at(&self, origin: NodeId, idx: u32) -> Option<(f64, SimTime)> {
        *self.peers.get(origin)?.remote_values.get(idx as usize)?
    }

    /// The policy a subscriber currently has configured here.
    pub fn policy_for(&self, subscriber: NodeId) -> Option<&PolicySet> {
        self.policies.get(&subscriber)
    }

    /// Whether a subscriber has a filter deployed here.
    pub fn has_filter(&self, subscriber: NodeId) -> bool {
        self.filters.contains_key(&subscriber)
    }

    /// The deployed filter of a subscriber, certificate included.
    pub fn filter_for(&self, subscriber: NodeId) -> Option<&Filter> {
        self.filters.get(&subscriber).map(|df| &df.filter)
    }

    /// Whether a subscriber's deployed filter runs as a specialized
    /// register closure (vs the stack-VM interpreter fallback).
    pub fn filter_is_compiled(&self, subscriber: NodeId) -> bool {
        self.filters
            .get(&subscriber)
            .is_some_and(|df| df.compiled.is_some())
    }

    /// Why `publisher` last refused this node's filter deployment, if it
    /// did (cleared by a subsequent successful deployment).
    pub fn filter_rejection(&self, publisher: NodeId) -> Option<&str> {
        self.rejections.get(&publisher).map(String::as_str)
    }

    /// Configure the failure detector's silence bounds. Defaults are
    /// 3× / 8× the polling period.
    pub fn set_failure_bounds(&mut self, stale_after: SimDur, dead_after: SimDur) {
        assert!(
            !stale_after.is_zero() && stale_after < dead_after,
            "need 0 < stale_after < dead_after"
        );
        self.stale_after = stale_after;
        self.dead_after = dead_after;
        // Heartbeats must outpace the stale bound, whatever it is.
        self.heartbeat_every = self
            .poll_period
            .mul_f64(2.0)
            .min(stale_after.mul_f64(2.0 / 3.0));
    }

    /// The failure detector's `(stale_after, dead_after)` silence bounds.
    pub fn failure_bounds(&self) -> (SimDur, SimDur) {
        (self.stale_after, self.dead_after)
    }

    /// Health of a remote peer; `None` until first contact.
    pub fn peer_health(&self, peer: NodeId) -> Option<PeerHealth> {
        self.peers.get(peer)?.record.map(|r| r.health)
    }

    /// When a remote peer was last heard from; `None` until first contact.
    pub fn peer_last_heard(&self, peer: NodeId) -> Option<SimTime> {
        self.peers.get(peer)?.record.map(|r| r.last_heard)
    }

    /// Earliest future instant at which a currently-tracked peer could be
    /// declared `Dead` by a poll: `last_heard + dead_after`, minimized over
    /// peers not already dead. `None` when no verdict is pending. Used by
    /// the parallel scheduler to decide whether a time window could contain
    /// an eviction (a shared-registry mutation).
    pub fn next_dead_deadline(&self) -> Option<SimTime> {
        self.peers
            .iter()
            .filter_map(|p| p.record)
            .filter(|r| r.health != PeerHealth::Dead)
            .map(|r| r.last_heard + self.dead_after)
            .min()
    }

    /// This node's incarnation number.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Events (data + heartbeats) this publisher has submitted to one
    /// subscriber over its lifetime.
    pub fn sent_to(&self, subscriber: NodeId) -> u64 {
        self.peers.get(subscriber).map_or(0, |p| p.sent)
    }

    /// Number of customization messages queued for replay to `target` if
    /// it restarts (bounded by compaction in [`DMon::record_deployment`]).
    pub fn deployed_ctl_len(&self, target: NodeId) -> usize {
        self.deployed_ctl.get(&target).map_or(0, Vec::len)
    }

    /// Length of the last-sent row held for `subscriber` — zero once a
    /// Dead eviction reaps it, non-zero again after publication resumes.
    pub fn last_sent_len(&self, subscriber: NodeId) -> usize {
        self.peers.get(subscriber).map_or(0, |p| p.last_sent.len())
    }

    /// Current degradation-ladder level (0 = full fidelity, 4 =
    /// summary-only digest).
    pub fn ladder_level(&self) -> u8 {
        self.ladder
    }

    /// Events parked for `sub` awaiting credits.
    pub fn outbox_len(&self, sub: NodeId) -> usize {
        self.peers.get(sub).map_or(0, |p| p.outbox.len())
    }

    /// Credits currently available toward `sub`.
    pub fn credits_for(&self, sub: NodeId) -> u32 {
        self.peers.get(sub).map_or(0, |p| p.credit.available())
    }

    /// The full credit window toward `sub` (granted/consumed counters
    /// included), for observability surfaces.
    pub fn credit_window(&self, sub: NodeId) -> Option<&CreditWindow> {
        self.peers.get(sub).map(|p| &p.credit)
    }

    /// Peers this d-mon holds state for: its home range plus any
    /// out-of-rack cluster member that has legitimately shown up.
    pub fn tracked_peers(&self) -> usize {
        self.peers.len()
    }

    /// Frames dropped because their origin named no node of this cluster,
    /// plus records skipped because a peer supplied an unusable file name.
    pub fn events_rejected(&self) -> u64 {
        self.events_rejected
    }

    /// The kernel's own uplink queue tail-dropped a data frame bound for
    /// `sub`. Unlike in-network loss, this IS locally observable (a real
    /// qdisc reports the drop), so react immediately: choke the stream
    /// for the next poll — sending again into the same full queue would
    /// burn another credit — and erase the stream-send timestamp so that
    /// poll emits a heartbeat on the priority lane instead. The subscriber
    /// keeps its liveness proof and sees the gap the dropped frame left;
    /// the poll after that re-probes the path (under sustained overload
    /// each retry's drop re-chokes, halving the burn rate).
    pub fn on_wire_drop(&mut self, sub: NodeId) {
        let Some(p) = self.peers.touch(sub) else {
            return;
        };
        p.choke_run = p.choke_run.saturating_add(1);
        p.choke_park = (1u32 << u32::from(p.choke_run - 1).min(3)).min(CHOKE_PARK_CAP);
        p.stream_last_send = None;
        self.wire_dropped_since_poll = true;
    }

    /// Whether the stream toward `sub` is currently parked by a local
    /// uplink tail-drop backoff.
    pub fn choked_toward(&self, sub: NodeId) -> bool {
        self.peers.get(sub).is_some_and(|p| p.choke_park > 0)
    }

    /// Read access to the stream tracker observing `peer`'s stream
    /// (tests, probes).
    pub fn stream_tracker(&self, peer: NodeId) -> Option<&StreamTracker> {
        self.peers.get(peer).map(|p| &p.tracker)
    }

    /// Crash-stop restart: volatile state (deployed policies/filters,
    /// remote views, stream positions, detector state) is lost; the
    /// incarnation is bumped so peers recognize the restart. Lifetime
    /// stats survive — they model the observer, not the kernel.
    pub fn on_revive(&mut self) {
        self.epoch += 1;
        self.policies.clear();
        self.filters.clear();
        self.remote_ext.clear();
        self.rejections.clear();
        self.deployed_ctl.clear();
        self.pending_resync.clear();
        // Per-peer stream, detector and flow-control state is volatile
        // too: windows reopen full, parked payloads died with the kernel.
        // Interned status/control paths survive — the host (and its proc
        // tree) persists across a crash-restart in this model.
        self.peers.iter_mut().for_each(|(_, p)| p.on_revive());
        // The ladder restarts at full fidelity.
        self.wire_dropped_since_poll = false;
        self.ladder = 0;
        self.stall_run = 0;
        self.clear_run = 0;
        self.own_latest.fill(None);
        self.rack_digests.clear();
    }

    /// Fold a liveness proof from `origin` into the detector + trackers.
    /// Returns the stream observation so callers can react to gaps, or
    /// `None` (counted in `events_rejected`) when `origin` names no node
    /// of this cluster — such a frame must be dropped, not indexed.
    fn note_alive(
        &mut self,
        origin: NodeId,
        epoch: u32,
        stream_seq: u32,
        now: SimTime,
    ) -> Option<Observation> {
        if origin == self.node {
            return Some(Observation::default());
        }
        let Some(p) = self.peers.touch(origin) else {
            self.events_rejected += 1;
            return None;
        };
        let obs = p.tracker.observe(epoch, stream_seq);
        self.stats.gaps_detected += obs.lost;
        // A proven-lost frame spent one of the publisher's credits but
        // consumed none of our receive capacity: repay it, so the window
        // bounds in-flight plus not-yet-revealed loss instead of deflating
        // permanently. Wire loss still throttles the stream for exactly
        // the reveal lag — a loss is only repaid once a later arrival or
        // heartbeat proves the gap — which is the backpressure the choke
        // and ladder key on. Once the path heals, the repayments walk the
        // window back to full strength; absorbed-data grants alone are
        // one-for-one and would leave a post-overload stream limping on a
        // deflated window forever.
        p.repay = p
            .repay
            .saturating_add(u32::try_from(obs.lost).unwrap_or(u32::MAX));
        if obs.healed {
            // A straggler disproved an earlier loss accusation (see
            // `Observation::healed`); keep the counter exact — and take
            // back the credit the false accusation minted (the arrival
            // itself earns the ordinary absorbed-data credit in
            // `on_event`).
            self.stats.gaps_detected = self.stats.gaps_detected.saturating_sub(1);
            p.repay = p.repay.saturating_sub(1);
        }
        let rec = p.record.get_or_insert(PeerRecord {
            last_heard: now,
            health: PeerHealth::Fresh,
            epoch,
        });
        let recovered = rec.health == PeerHealth::Dead || obs.restarted;
        rec.last_heard = now;
        rec.health = PeerHealth::Fresh;
        rec.epoch = epoch;
        if recovered && !self.pending_resync.contains(&origin) {
            self.pending_resync.push(origin);
        }
        Some(obs)
    }

    /// The channel registry announced that `peer` (re-)subscribed. A
    /// membership event proves the process is reachable even though
    /// nothing has arrived on its stream yet, so a Dead verdict is
    /// downgraded to Stale: publication toward the peer resumes, and its
    /// own stream re-proves freshness from there. Without this, two nodes
    /// that evicted each other during a partition would skip each other as
    /// subscribers forever — neither ever sending the event that would
    /// prove the other alive.
    pub fn on_peer_rejoin(&mut self, peer: NodeId, now: SimTime) {
        if peer == self.node {
            return;
        }
        if let Some(rec) = self.peers.get_mut(peer).and_then(|p| p.record.as_mut()) {
            if rec.health == PeerHealth::Dead {
                rec.health = PeerHealth::Stale;
                rec.last_heard = now;
            }
        }
    }

    /// Advance the failure detector to `now`: age every tracked peer,
    /// refresh `/proc/cluster/<peer>/status`, and return peers newly
    /// declared Dead.
    fn check_peers(&mut self, host: &mut Host, now: SimTime) -> Vec<NodeId> {
        let mut dead = Vec::new();
        let stats = &mut self.stats;
        let cluster_names = &self.cluster_names;
        let (stale_after, dead_after) = (self.stale_after, self.dead_after);
        for (peer, p) in self.peers.iter_mut() {
            let Some(rec) = p.record.as_mut() else {
                continue;
            };
            let age = now.since(rec.last_heard);
            if rec.health != PeerHealth::Dead {
                if age >= dead_after {
                    rec.health = PeerHealth::Dead;
                    stats.nodes_evicted += 1;
                    dead.push(peer);
                } else if age >= stale_after {
                    if rec.health == PeerHealth::Fresh {
                        stats.nodes_suspected += 1;
                    }
                    rec.health = PeerHealth::Stale;
                }
                // Past the stale bound at least one heartbeat interval
                // has gone unanswered; count one miss per silent check.
                if age >= stale_after {
                    stats.heartbeats_missed += 1;
                }
            }
            let h = match p.status_handle {
                Some(h) => h,
                None => {
                    let name = &cluster_names[peer.0];
                    let h = host
                        .proc
                        .intern(&format!("cluster/{name}/status"))
                        .expect("status path");
                    p.status_handle = Some(h);
                    h
                }
            };
            // Piecewise assembly with the exact-output fast formatters;
            // equivalent to
            // `"{} last_update {:.3} age {:.3} epoch {}"` via `format!`.
            let buf = host.proc.handle_buf(h);
            buf.clear();
            buf.push_str(rec.health.label());
            buf.push_str(" last_update ");
            fastfmt::push_f64_fixed3(buf, rec.last_heard.as_secs_f64());
            buf.push_str(" age ");
            fastfmt::push_f64_fixed3(buf, age.as_secs_f64());
            buf.push_str(" epoch ");
            fastfmt::push_u64(buf, rec.epoch as u64);
        }
        dead
    }

    /// Build a targeted control event from this node (allocates the next
    /// sequence number).
    pub fn make_control_event(
        &mut self,
        ctl_chan: ChannelId,
        target: NodeId,
        msg: ControlMsg,
    ) -> Event {
        self.seq += 1;
        Event::control(ctl_chan.0, self.seq, self.node, target, msg)
    }

    /// Hand back a drained [`PollOutcome::sends`] vector for reuse. The
    /// glue calls this after transmitting so the steady-state poll path
    /// never allocates a fresh send list.
    pub fn recycle_sends(&mut self, mut sends: Vec<(Hop, Event, usize)>) {
        sends.clear();
        self.send_buf = sends;
    }

    /// One polling iteration at `now`: collect, decide, build events.
    /// Also drains pending `/proc` control-file writes on this host into
    /// outgoing control events (that is how applications reach remote
    /// d-mons).
    pub fn poll(
        &mut self,
        host: &mut Host,
        dir: &Directory,
        mon_chan: ChannelId,
        ctl_chan: ChannelId,
        now: SimTime,
        calib: &Calib,
    ) -> PollOutcome {
        let mut cpu = SimDur::ZERO;
        // Recycled by the glue via `recycle_sends` once transmitted, so
        // the steady state reuses one send list per d-mon.
        let mut sends: Vec<(Hop, Event, usize)> = std::mem::take(&mut self.send_buf);
        sends.clear();
        self.memo.clear();
        self.record_arena.clear();

        // 1. Collect one sample per module some subscriber can actually
        // consume (certified filter read sets prove the rest unread) and
        // refresh local /proc views. The detail text is moved — not
        // copied — into the interned /proc slot.
        let needed = self.needed_modules(dir, mon_chan);
        let mut samples: Vec<Option<f64>> = std::mem::take(&mut self.sample_buf);
        samples.clear();
        for (i, (module, &need)) in self.modules.iter_mut().zip(&needed).enumerate() {
            if !need {
                self.stats.modules_skipped += 1;
                samples.push(None);
                continue;
            }
            let mut detail = std::mem::take(&mut self.detail_buf);
            detail.clear();
            let value = module.collect(host, now, &mut detail);
            cpu += calib.collect_per_module;
            let h = match self.own_file_handles[i] {
                Some(h) => h,
                None => {
                    let own = &self.cluster_names[self.node.0];
                    let h = host
                        .proc
                        .intern(&format!("cluster/{own}/{}", module.file_name()))
                        .expect("own cluster path");
                    self.own_file_handles[i] = Some(h);
                    h
                }
            };
            // Swap the assembled text into the /proc slot and keep the
            // displaced buffer for the next module — no copy, no alloc.
            self.detail_buf = host.proc.swap_handle(h, detail);
            if let Some(slot) = self.own_latest.get_mut(i) {
                *slot = Some((value, now));
            }
            samples.push(Some(value));
        }
        self.needed_buf = needed;
        let ctl_h = match self.own_ctl_handle {
            Some(h) => h,
            None => {
                let own = &self.cluster_names[self.node.0];
                let h = host
                    .proc
                    .intern(&format!("cluster/{own}/control"))
                    .expect("own control path");
                self.own_ctl_handle = Some(h);
                h
            }
        };
        host.proc.handle_buf(ctl_h).clear();

        // 2. Age the failure detector: transitions, status files, and the
        // peers to evict from the registry this iteration. An evicted
        // subscriber's per-stream send state is reaped here — its stream
        // is over; a later recovery starts from a clean slate — while
        // lifetime counters (`sent_per_sub`) and the replay log
        // (`deployed_ctl`, bounded by compaction) deliberately survive.
        let dead_peers = self.check_peers(host, now);
        for &peer in &dead_peers {
            // Flow-control state dies with the stream: parked payloads
            // for a dead subscriber are shed, its window reopens full for
            // a possible recovery, grant accounting toward it resets.
            self.stats.events_shed += self.peers[peer].reap();
        }

        // 3. Per subscriber: parameters or filter decide what to send; a
        // stream with no data this round carries a heartbeat instead, so
        // silence-by-filter stays distinguishable from death. Peers this
        // detector already declared Dead get nothing — that is the point.
        //
        // Data events pass through the subscriber's credit window first:
        // a payload is parked in the bounded outbox and only leaves when
        // a credit is available (oldest-first; overflow sheds oldest).
        // Heartbeats never consume credits — a stalled stream still
        // proves this node alive.
        let stretch = LADDER_STRETCH[self.ladder as usize];
        let data_poll = self.stats.iterations.is_multiple_of(stretch);
        let mut stalled_any = false;
        for sub in dir.subscribers(mon_chan) {
            if sub == self.node {
                continue;
            }
            // A registry entry naming no node of this cluster gets no
            // stream; every other subscriber has a slot from here on.
            let Some(p) = self.peers.touch(sub) else {
                continue;
            };
            if p.record.is_some_and(|r| r.health == PeerHealth::Dead) {
                continue;
            }
            let mut records = if data_poll {
                self.select_records(sub, &samples, now, calib, &mut cpu)
            } else {
                // Stretched-away poll: the ladder trades update rate for
                // relief; liveness rides on heartbeats below.
                Vec::new()
            };
            // Ladder levels 2+ coarsen: only meaningfully-changed samples
            // survive. Levels 3+ shed low-priority modules entirely; the
            // top level keeps a single-metric digest.
            if self.ladder >= 2 {
                records.retain(|r| {
                    (r.value - r.last_value_sent).abs()
                        > LADDER_DELTA_GATE * r.last_value_sent.abs()
                });
            }
            if self.ladder >= 3 {
                let keep = if self.ladder >= LADDER_TOP { 1 } else { 2 };
                records.retain(|r| (r.metric_id as usize) < keep);
            }
            let p = &mut self.peers[sub];
            if !records.is_empty() {
                let row = &mut p.last_sent;
                if row.len() < self.modules.len() {
                    row.resize(self.modules.len(), None);
                }
                for r in &records {
                    if let Some(slot) = row.get_mut(r.metric_id as usize) {
                        *slot = Some((r.value, now));
                    }
                }
                // Records for run-time-registered modules carry their
                // schema (metric + /proc file names) so any subscriber can
                // interpret them — ECho's typed events, in miniature. The
                // schema text lives in `ext_schema` (rebuilt on
                // registration); the common all-base-modules case stays
                // allocation-free.
                let ext_names: Vec<(u32, String, String)> = if self.ext_schema.is_empty() {
                    Vec::new()
                } else {
                    self.ext_schema
                        .iter()
                        .filter(|(id, _, _)| records.iter().any(|r| r.metric_id == *id))
                        .cloned()
                        .collect()
                };
                p.outbox.push_back(OutboxEntry { records, ext_names });
                if p.outbox.len() > OUTBOX_CAP {
                    let e = p.outbox.pop_front().expect("outbox over cap");
                    kecho::put_record_buf(e.records);
                    self.stats.events_shed += 1;
                }
            }
            // Drain the outbox as far as credits allow. Sequence numbers
            // are stamped here, at the actual send, so parked or shed
            // payloads leave no hole in the stream.
            // A tail-drop park is evidence about the uplink queue, not a
            // standing verdict: it always expires (counting down here),
            // after which the stream re-probes the path, so no external
            // frame is ever required to reopen it. Holding the choke until
            // a grant arrived would deadlock now that grants piggyback on
            // reverse data — a peer with zero grant debt has no frame to
            // unchoke with.
            let choked = p.choke_park > 0;
            if choked {
                p.choke_park -= 1;
            }
            let mut sent_data = false;
            while !choked && !p.outbox.is_empty() {
                if !p.credit.try_consume() {
                    break;
                }
                let e = p.outbox.pop_front().expect("checked non-empty");
                self.seq += 1;
                // Piggyback this node's grant debt for the reverse stream:
                // a subscriber that also publishes tops its peers up on
                // data it was sending anyway, so steady-state flow control
                // in a bidirectional mesh adds no standalone Credit frames
                // (which are charged per event by the NIC-interrupt
                // interference model the Iperf probe reproduces). The wire
                // byte is a *cumulative* counter, not the increment: if
                // this frame tail-drops, the next surviving frame's byte
                // re-delivers the grant, so a write-off here can never
                // strand credits. Streams whose own spend toward the peer
                // is going unacknowledged skip the attach — their bulk
                // frames are probably dying, so the debt is left for the
                // loss-immune priority-lane Credit frame instead.
                if !p.credit.grant_overdue() {
                    let mut grant = p.ungranted.min(u32::from(u8::MAX));
                    if grant > 0 && p.grant_cum.wrapping_add(grant as u8) == 0 {
                        // The counter never rests on 0 (0 on the wire
                        // means "no grant info"): defer one credit so the
                        // cursor arithmetic stays unambiguous.
                        grant -= 1;
                    }
                    p.grant_cum = p.grant_cum.wrapping_add(grant as u8);
                    p.ungranted -= grant;
                }
                let grant = u32::from(p.grant_cum);
                let mut ev = Event::monitoring(
                    mon_chan.0,
                    self.seq,
                    self.node,
                    MonitoringPayload {
                        origin: self.node,
                        epoch: self.epoch,
                        stream_seq: p.next_stream_seq(),
                        credit_grant: grant,
                        records: e.records,
                        pad_bytes: self.event_pad,
                        ext_names: e.ext_names,
                    },
                );
                // Streams are customized per subscriber, so every
                // monitoring event is addressed — the central-concentrator
                // topology needs the final destination to relay.
                ev.target = Some(sub);
                let bytes = kecho::wire::encoded_size(&ev);
                let handler = calib.submit_cost(bytes);
                cpu += handler + calib.kernel_path_send;
                self.stats.events_sent += 1;
                self.stats.bytes_sent += bytes as u64;
                self.stats.submit_cost_partial(handler);
                p.sent += 1;
                p.stream_last_send = Some(now);
                sent_data = true;
                sends.push((
                    Hop {
                        from: self.node,
                        to: sub,
                    },
                    ev,
                    bytes,
                ));
            }
            if !p.outbox.is_empty() {
                self.stats.credits_stalled += 1;
                stalled_any = true;
            }
            // A grant is overdue when the stream has spent well past the
            // grant threshold without hearing back — the subscriber has
            // stopped absorbing, which under bounded link queues means
            // the data frames are probably dying in the network. Data
            // sends normally substitute for heartbeats, but frames that
            // never arrive prove nothing: pair the stream with explicit
            // priority-lane heartbeats until a grant lands, so the
            // subscriber keeps its liveness proof (and its gap
            // accounting) however lossy the bulk lane is.
            let overdue = p.credit.grant_overdue();
            if !sent_data || overdue {
                // Heartbeats are rate-limited to `heartbeat_every`, not
                // one per poll: a preformatted liveness packet only needs
                // to outpace the peer's stale bound, and Figs. 4/6 depend
                // on filtered streams staying nearly free. A
                // credit-stalled stream reaches here too — the subscriber
                // keeps hearing the publisher is alive even while it
                // cannot absorb data. An overdue stream skips the rate
                // limit: its own data sends reset the silence clock while
                // proving nothing.
                let silence = p.stream_last_send.map_or(SimDur::MAX, |t| now.since(t));
                if !overdue && silence < self.heartbeat_every {
                    continue;
                }
                self.seq += 1;
                let ev = Event::heartbeat(
                    mon_chan.0,
                    self.seq,
                    self.node,
                    sub,
                    HeartbeatPayload {
                        origin: self.node,
                        epoch: self.epoch,
                        stream_seq: p.next_stream_seq(),
                    },
                );
                let bytes = kecho::wire::encoded_size(&ev);
                cpu += calib.heartbeat_cost + calib.heartbeat_path_send;
                self.stats.heartbeats_sent += 1;
                p.sent += 1;
                p.stream_last_send = Some(now);
                sends.push((
                    Hop {
                        from: self.node,
                        to: sub,
                    },
                    ev,
                    bytes,
                ));
            }
        }

        // 3b. Subscriber side of flow control: top up publishers whose
        // data this node has absorbed since its last grant. Decided at
        // poll time (not per arrival), so grants are replay-safe and
        // batch to about one control frame per window half.
        let mut grants: Vec<(NodeId, u32)> = std::mem::take(&mut self.grant_buf);
        grants.clear();
        for (publisher, p) in self.peers.iter_mut() {
            // Batch absorbed-data grants behind the threshold — but flush
            // any remainder when the publisher's data stream has gone
            // quiet: a stalled publisher trickling below the threshold
            // would otherwise never be topped back up (credit deadlock
            // after wire loss).
            let pending = p.ungranted;
            let quiet_debt = pending > 0 && !p.data_since_poll;
            p.data_since_poll = false;
            let absorbed = if pending >= GRANT_THRESHOLD || quiet_debt {
                pending
            } else {
                0
            };
            // Loss repayments ship immediately, never batched: they exist
            // precisely while the publisher's bulk frames are dying, when
            // a starved window is the bottleneck and a piggybacked grant
            // would die with its carrier. The standalone frame rides the
            // priority lane, so it is loss-immune.
            let credits = absorbed + p.repay;
            if credits > 0 {
                grants.push((publisher, credits));
                p.ungranted -= absorbed;
                p.repay = 0;
            }
        }
        for (publisher, credits) in grants.drain(..) {
            self.seq += 1;
            let ev = Event::control(
                ctl_chan.0,
                self.seq,
                self.node,
                publisher,
                ControlMsg::Credit { credits },
            );
            let bytes = kecho::wire::encoded_size(&ev);
            cpu += calib.submit_cost(bytes) + calib.kernel_path_send;
            sends.push((
                Hop {
                    from: self.node,
                    to: publisher,
                },
                ev,
                bytes,
            ));
        }

        // 4. Resync recovered publishers: replay the customizations this
        // node had deployed on them (their volatile state died with them).
        for peer in std::mem::take(&mut self.pending_resync) {
            self.stats.resyncs += 1;
            for msg in self.deployed_ctl.get(&peer).cloned().unwrap_or_default() {
                self.seq += 1;
                let ev = Event::control(ctl_chan.0, self.seq, self.node, peer, msg);
                let bytes = kecho::wire::encoded_size(&ev);
                cpu += calib.submit_cost(bytes) + calib.kernel_path_send;
                sends.push((
                    Hop {
                        from: self.node,
                        to: peer,
                    },
                    ev,
                    bytes,
                ));
            }
        }

        // 5. Drain application control-file writes into control events.
        for (path, data) in host.proc.drain_writes() {
            match self.route_control_write(&path, &data, ctl_chan, calib) {
                Ok(Some((hop, ev))) => {
                    let bytes = kecho::wire::encoded_size(&ev);
                    cpu += calib.submit_cost(bytes) + calib.kernel_path_send;
                    sends.push((hop, ev, bytes));
                }
                Ok(None) => {} // applied locally
                Err(()) => self.stats.control_errors += 1,
            }
        }

        // 5b. Degradation ladder: sustained credit stalls step this node
        // down one level at a time (stretch the update period → coarsen
        // thresholds → drop low-priority modules → summary-only digest);
        // stepping back up needs a hysteresis run of clear polls AND fully
        // drained outboxes, so a borderline load cannot flap the level.
        let outboxes_empty = self.peers.iter().all(|p| p.outbox.is_empty());
        // A poll marred by a local uplink tail-drop counts as stalled even
        // if every outbox drained: the NIC is refusing this node's own
        // output, which is overload however healthy the credit windows
        // still look (grant trickle from delivered frames can hold them
        // half-open for many polls).
        let stalled_any = stalled_any || std::mem::take(&mut self.wire_dropped_since_poll);
        if stalled_any {
            self.stall_run += 1;
            self.clear_run = 0;
        } else {
            self.clear_run += 1;
            self.stall_run = 0;
        }
        if self.stall_run >= LADDER_DOWN_AFTER && self.ladder < LADDER_TOP {
            self.ladder += 1;
            self.stats.ladder_transitions += 1;
            self.stall_run = 0;
        }
        if self.clear_run >= LADDER_UP_AFTER && self.ladder > 0 && outboxes_empty {
            self.ladder -= 1;
            self.stats.ladder_transitions += 1;
            self.clear_run = 0;
        }
        let oh = match self.overload_handle {
            Some(h) => h,
            None => {
                let own = &self.cluster_names[self.node.0];
                let h = host
                    .proc
                    .intern(&format!("cluster/{own}/overload"))
                    .expect("own overload path");
                self.overload_handle = Some(h);
                h
            }
        };
        let buf = host.proc.handle_buf(oh);
        buf.clear();
        buf.push_str("level ");
        fastfmt::push_u64(buf, u64::from(self.ladder));
        buf.push_str(" events_shed ");
        fastfmt::push_u64(buf, self.stats.events_shed);
        buf.push_str(" credits_stalled ");
        fastfmt::push_u64(buf, self.stats.credits_stalled);
        buf.push_str(" ladder_transitions ");
        fastfmt::push_u64(buf, self.stats.ladder_transitions);

        // 6. Close the iteration's books.
        self.grant_buf = grants;
        self.sample_buf = samples;
        cpu += calib.receive_poll_cost;
        self.stats.iterations += 1;
        self.stats.close_iteration(calib.receive_poll_cost);
        PollOutcome {
            sends,
            cpu_cost: cpu,
            dead_peers,
            rejoin: !dir.is_subscribed(mon_chan, self.node),
        }
    }

    /// Which modules at least one remote subscriber's stream can consume.
    /// A subscriber with a certified filter consumes exactly the filter's
    /// read set; any other subscriber (parameter rules or defaults)
    /// receives every metric. With no remote subscribers everything is
    /// collected so local `/proc` views stay fresh.
    /// The caller returns the vector to `needed_buf` after use, so the
    /// steady-state poll builds the mask without allocating.
    fn needed_modules(&mut self, dir: &Directory, mon_chan: ChannelId) -> Vec<bool> {
        let n = self.modules.len();
        let mut needed = std::mem::take(&mut self.needed_buf);
        needed.clear();
        needed.resize(n, false);
        let mut any_remote = false;
        for sub in dir.subscribers(mon_chan) {
            if sub == self.node {
                continue;
            }
            any_remote = true;
            match self.filters.get(&sub).map(|f| &f.filter.cert().reads) {
                Some(MetricSet::Fixed(set)) => {
                    for &i in set {
                        if i < n {
                            needed[i] = true;
                        }
                    }
                }
                Some(MetricSet::All) | None => {
                    needed.fill(true);
                    return needed;
                }
            }
        }
        if !any_remote {
            needed.fill(true);
        }
        needed
    }

    /// Record a deployed filter source's fingerprint and report whether
    /// it is (now) collision-tainted. When two distinct sources ever
    /// hash to the same FNV-1a value on this node, the fingerprint is
    /// permanently tainted and deployments under it are demoted to
    /// `MemoClass::Bypass` at admission — sharing must rest on the
    /// effect certificate, never on a 64-bit hash being collision-free.
    /// This runs at deploy time only; the poll path keys the memo on
    /// dense filter ids and never hashes source text.
    fn note_filter_fingerprint(&mut self, source: &str) -> bool {
        let fp = fnv1a(source.as_bytes());
        match self.fp_sources.get(&fp) {
            None => {
                self.fp_sources.insert(fp, source.to_string());
            }
            Some(prev) if prev == source => {}
            Some(_) => {
                self.fp_tainted.insert(fp);
            }
        }
        self.fp_tainted.contains(&fp)
    }

    /// Dense per-node id for a filter source, assigned at admission.
    /// Identical sources share an id — that is what lets the per-poll
    /// memo share their runs on a u32 compare — while distinct sources
    /// never do, even under a fingerprint collision.
    fn filter_id_for(&mut self, source: &str) -> u32 {
        if let Some(&id) = self.filter_ids.get(source) {
            return id;
        }
        let id = self.next_filter_id;
        self.next_filter_id += 1;
        self.filter_ids.insert(source.to_string(), id);
        id
    }

    /// Install an admitted filter for `sub`: assign its dense id, fold
    /// the collision quarantine into its memo class, and specialize it
    /// into a register closure (interpreter fallback when the lowering
    /// declines the chunk). Everything the poll path needs is decided
    /// here, once.
    fn install_filter(&mut self, sub: NodeId, f: Filter) {
        let tainted = self.note_filter_fingerprint(f.source());
        let id = self.filter_id_for(f.source());
        let memo_class = if tainted {
            MemoClass::Bypass
        } else {
            f.cert().effects.memo
        };
        let compiled = compile_filter(&f);
        match compiled {
            Some(_) => self.stats.filters_compiled += 1,
            None => self.stats.interp_fallbacks += 1,
        }
        self.filters.insert(
            sub,
            DeployedFilter {
                filter: f,
                id,
                compiled,
                memo_class,
            },
        );
    }

    /// Decide which metric records to send to one subscriber.
    fn select_records(
        &mut self,
        sub: NodeId,
        samples: &[Option<f64>],
        now: SimTime,
        calib: &Calib,
        cpu: &mut SimDur,
    ) -> Vec<MonRecord> {
        if let Some(df) = self.filters.get(&sub) {
            // A deployed filter takes over the decision entirely. Skipped
            // slots get a zero placeholder: a module is only skipped when
            // every deployed filter's certificate proves it unread, so the
            // placeholder is unobservable.
            let mut inputs = std::mem::take(&mut self.filter_inputs);
            inputs.clear();
            let row = &self.peers[sub].last_sent;
            for (i, s) in samples.iter().enumerate() {
                let last = row.get(i).and_then(|o| o.as_ref()).map_or(0.0, |&(v, _)| v);
                inputs.push(MetricRecord {
                    id: i as u32,
                    value: s.unwrap_or(0.0),
                    last_value_sent: last,
                    timestamp: now.as_secs_f64(),
                });
            }
            // The memo class (collision quarantine included) and the
            // dense memo id were folded at deploy time, so deciding how
            // this run may be shared with other subscribers within the
            // poll costs a field read. The modeled cost is still charged
            // per logical run — the figures measure what a kernel would
            // spend, not what the memo saves the simulator.
            // One encode: a run's accepted records are pushed into the
            // per-poll SoA arena exactly once; the span (Copy) is what
            // the memo stores and what every sharing subscriber gathers
            // from — the old per-hit record-vector clone is gone.
            let run_one =
                |arena: &mut kecho::RecordArena, out: Result<FilterOutput, RuntimeError>| match out
                {
                    Ok(out) => {
                        let mark = arena.mark();
                        for r in out.iter_accepted() {
                            arena.push(r.id, r.value, r.last_value_sent, r.timestamp);
                        }
                        let r = Some((arena.span_since(mark), out.instructions()));
                        out.recycle();
                        r
                    }
                    Err(_) => None,
                };
            let result = match df.memo_class {
                MemoClass::Bypass => {
                    // Per-subscriber state feeds the output: one run
                    // per subscriber, observable via `memo_bypassed`.
                    self.stats.memo_bypassed += 1;
                    run_one(&mut self.record_arena, df.run(&inputs))
                }
                MemoClass::Shared | MemoClass::SnapshotKeyed => {
                    let snapshot = df.memo_class == MemoClass::SnapshotKeyed;
                    let id = df.id;
                    let hit = self.memo.iter().position(|m| {
                        m.id == id && m.snapshot == snapshot && (!snapshot || m.inputs == inputs)
                    });
                    match hit {
                        Some(i) => self.memo[i].result,
                        None => {
                            let result = run_one(&mut self.record_arena, df.run(&inputs));
                            self.memo.push(FilterMemo {
                                id,
                                snapshot,
                                inputs: if snapshot { inputs.clone() } else { Vec::new() },
                                result,
                            });
                            result
                        }
                    }
                }
            };
            self.filter_inputs = inputs;
            match result {
                Some((span, instructions)) => {
                    *cpu += calib.ecode_instr * instructions;
                    // N enqueues: gather the span into a pooled payload
                    // buffer — a columnar copy, no allocation in steady
                    // state.
                    let mut records = kecho::take_record_buf();
                    self.record_arena.gather_into(span, &mut records);
                    records
                }
                None => {
                    // A faulting filter sends nothing (a kernel would also
                    // disable it; we keep it and count the fault — per
                    // subscriber, even when the run itself was memoized).
                    self.stats.filter_errors += 1;
                    Vec::new()
                }
            }
        } else {
            let policy = self.policies.get(&sub);
            let row = &self.peers[sub].last_sent;
            // Recycled from delivered events (the delivery paths call
            // `Event::recycle`), so the steady state allocates nothing.
            let mut records = kecho::take_record_buf();
            records.reserve(samples.len());
            for (i, (sample, module)) in samples.iter().zip(&self.modules).enumerate() {
                // Policy-driven subscribers force every module to be
                // sampled; `None` only defends against future callers.
                let Some(value) = *sample else { continue };
                let (last_value, last_at) = row
                    .get(i)
                    .and_then(|o| o.as_ref())
                    .map_or((0.0, None), |&(v, t)| (v, Some(t)));
                let ctx = RuleCtx {
                    value,
                    last_sent_value: last_value,
                    last_sent_at: last_at,
                    now,
                };
                let admit = match policy {
                    Some(p) => {
                        *cpu +=
                            calib.policy_eval * (p.rule_count(module.metric_name()).max(1) as u64);
                        p.decide(module.metric_name(), &ctx)
                    }
                    None => {
                        *cpu += calib.policy_eval;
                        true
                    }
                };
                if admit {
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
    }

    /// Turn a `/proc` control-file write into a control event (or apply it
    /// locally when it targets this node).
    fn route_control_write(
        &mut self,
        path: &str,
        data: &str,
        ctl_chan: ChannelId,
        calib: &Calib,
    ) -> Result<Option<(Hop, Event)>, ()> {
        // Expected: cluster/<name>/control
        let parts: Vec<&str> = path.split('/').collect();
        let ["cluster", name, "control"] = parts[..] else {
            return Err(());
        };
        let target = self.node_by_name(name).ok_or(())?;
        let directive = parse_control(data).map_err(|_| ())?;
        let msg = if directive.additive {
            // The additive flag travels as a metric-name prefix.
            match directive.msg {
                ControlMsg::SetParam { metric, param } => ControlMsg::SetParam {
                    metric: format!("and:{metric}"),
                    param,
                },
                other => other,
            }
        } else {
            directive.msg
        };
        if target == self.node {
            let outcome = self.on_control(self.node, &msg, calib);
            if let Some(reply) = outcome.reply {
                // Self-directed control short-circuits the wire, so any
                // rejection reply is applied locally too.
                self.on_control(self.node, &reply, calib);
            }
            return Ok(None);
        }
        self.record_deployment(target, &msg);
        self.seq += 1;
        let ev = Event::control(ctl_chan.0, self.seq, self.node, target, msg);
        Ok(Some((
            Hop {
                from: self.node,
                to: target,
            },
            ev,
        )))
    }

    /// Remember a customization sent to `target` so it can be replayed in
    /// order if the target restarts. The log is compacted so it stays
    /// bounded under steady reconfiguration: a fresh `DeployFilter`
    /// supersedes the previous one (`RemoveFilter` supersedes both), and a
    /// non-additive `SetParam` for a metric supersedes every earlier rule
    /// for the same metric root — only `and:` rules stack, because that is
    /// their replay semantic.
    fn record_deployment(&mut self, target: NodeId, msg: &ControlMsg) {
        /// A rule's metric root: what a replacing `SetParam` or a `clear:`
        /// supersedes. `and:`/`clear:` prefixes are transparent; `window:`
        /// keys module state, not rules, so it roots separately.
        fn root(metric: &str) -> &str {
            metric
                .strip_prefix("and:")
                .or_else(|| metric.strip_prefix("clear:"))
                .unwrap_or(metric)
        }
        let log = self.deployed_ctl.entry(target).or_default();
        match msg {
            ControlMsg::SetParam { metric, .. } => {
                if metric.starts_with("and:") {
                    // Additive rules stack on the target; every one is
                    // needed to rebuild the composed rule set.
                    log.push(msg.clone());
                    return;
                }
                let slot = root(metric);
                log.retain(|m| match m {
                    ControlMsg::SetParam { metric: old, .. } => root(old) != slot,
                    _ => true,
                });
                // `clear:` is kept too (it replays as a cheap no-op on a
                // blank restart) because metric aliases — /proc file names
                // vs E-code constants — can hide a rule it must still undo.
                log.push(msg.clone());
            }
            ControlMsg::DeployFilter { .. } | ControlMsg::RemoveFilter => {
                log.retain(|m| {
                    !matches!(
                        m,
                        ControlMsg::DeployFilter { .. } | ControlMsg::RemoveFilter
                    )
                });
                if matches!(msg, ControlMsg::DeployFilter { .. }) {
                    log.push(msg.clone());
                }
            }
            ControlMsg::Announce
            | ControlMsg::FilterRejected { .. }
            | ControlMsg::Credit { .. } => {}
        }
    }

    /// Handle an incoming monitoring event: update the `/proc/cluster`
    /// tree and the fast-path store. A record whose file name (learned
    /// from the frame's schema block) cannot be a leaf of
    /// `cluster/<origin>/` is skipped and counted in `events_rejected`.
    /// Returns the d-mon handler CPU cost (kernel network-path cost is
    /// charged by the glue on top).
    pub fn on_event(
        &mut self,
        host: &mut Host,
        ev: &Event,
        bytes: usize,
        now: SimTime,
        calib: &Calib,
    ) -> SimDur {
        let Some(payload) = ev.as_monitoring() else {
            return SimDur::ZERO;
        };
        let origin = payload.origin;
        let Some(obs) = self.note_alive(origin, payload.epoch, payload.stream_seq, now) else {
            return SimDur::ZERO;
        };
        let p = &mut self.peers[origin];
        if origin != self.node {
            // Grant accounting: this arrival consumed one of the credits
            // we granted the publisher; the next poll tops it back up once
            // enough have accumulated.
            p.ungranted = p.ungranted.saturating_add(1);
            p.data_since_poll = true;
            // The piggybacked-grant counter for our reverse stream. Only
            // stream-advancing arrivals move the cursor: a reordered
            // straggler carries an outdated counter whose wrapping delta
            // would read as a huge bogus grant. A restarted publisher
            // starts a fresh counter, so the cursor restarts with it.
            if obs.restarted {
                p.grant_seen = 0;
            }
            let cum = payload.credit_grant.min(u32::from(u8::MAX)) as u8;
            if cum != 0 && !obs.stale {
                let delta = cum.wrapping_sub(p.grant_seen);
                p.grant_seen = cum;
                if delta > 0 {
                    p.grant(u32::from(delta));
                }
            }
        }
        for (id, metric, file) in &payload.ext_names {
            let known = self
                .remote_ext
                .get(&(origin, *id))
                .is_some_and(|(m, f)| m == metric && f == file);
            if !known {
                // A changed file name (the origin restarted with another
                // module layout) invalidates the cached /proc handle.
                if let Some(slot) = p.file_handles.get_mut(*id as usize) {
                    *slot = None;
                }
                self.remote_ext
                    .insert((origin, *id), (metric.clone(), file.clone()));
            }
        }
        for r in &payload.records {
            let id = r.metric_id as usize;
            let handles = &mut p.file_handles;
            if handles.len() <= id {
                handles.resize(id + 1, None);
            }
            let h = match handles[id] {
                Some(h) => h,
                None => {
                    let file: &str = if id < self.base_modules {
                        self.modules.get(id).map_or("extra", |m| m.file_name())
                    } else {
                        self.remote_ext
                            .get(&(origin, r.metric_id))
                            .map_or("extra", |(_, f)| f.as_str())
                    };
                    let origin_name = &self.cluster_names[origin.0];
                    let interned = remote_file_name_ok(file)
                        .then(|| host.proc.intern(&format!("cluster/{origin_name}/{file}")));
                    let Some(Ok(h)) = interned else {
                        self.events_rejected += 1;
                        continue;
                    };
                    handles[id] = Some(h);
                    h
                }
            };
            let values = &mut p.remote_values;
            if values.len() <= id {
                values.resize(id + 1, None);
            }
            values[id] = Some((r.value, now));
            // Numbers only: the file renders `"<file> <value> ts <ts>"`
            // when somebody reads it.
            host.proc.set_sample(h, r.value, r.timestamp);
        }
        // Make sure the control file for that node exists so applications
        // can customize it.
        if !p.ctl_ready {
            let ctl = format!("cluster/{}/control", self.cluster_names[origin.0]);
            match host.proc.intern(&ctl) {
                Ok(_) => p.ctl_ready = true,
                Err(_) => self.events_rejected += 1,
            }
        }
        let handler = calib.receive_cost(bytes);
        self.stats.events_received += 1;
        self.stats.bytes_received += bytes as u64;
        self.stats.pending_receive += handler;
        handler
    }

    /// Handle an incoming heartbeat: pure liveness, no data. Returns the
    /// handler CPU cost. Heartbeats are deliberately cheap and stay out
    /// of the Fig. 8 receive-cost sampler — they are the failure
    /// detector's overhead, not monitoring work.
    pub fn on_heartbeat(&mut self, ev: &Event, now: SimTime, calib: &Calib) -> SimDur {
        let Some(hb) = ev.as_heartbeat() else {
            return SimDur::ZERO;
        };
        // Loss repayment happens inside `note_alive`: a heartbeat that
        // reveals a gap proves the publisher alive with its data dying on
        // the wire, and the repaid credits let it re-probe the path
        // without waiting a full round-trip of absorbed data.
        if self
            .note_alive(hb.origin, hb.epoch, hb.stream_seq, now)
            .is_none()
        {
            return SimDur::ZERO;
        }
        self.stats.heartbeats_received += 1;
        calib.heartbeat_cost
    }

    /// Handle an incoming control event sent by subscriber `from`.
    /// Returns the CPU cost (compilation is expensive; parameter updates
    /// are cheap) plus an optional reply for the glue to send back.
    pub fn on_control(&mut self, from: NodeId, msg: &ControlMsg, calib: &Calib) -> ControlOutcome {
        if from.0 >= self.cluster_names.len() {
            // A sender outside the cluster owns no stream here to
            // configure or top up: count the frame and drop it.
            self.stats.control_errors += 1;
            return ControlOutcome::cost(SimDur::ZERO);
        }
        self.stats.control_handled += 1;
        match msg {
            ControlMsg::SetParam { metric, param } => {
                if let Some(rest) = metric.strip_prefix("clear:") {
                    let name = self
                        .modules
                        .iter()
                        .find(|m| m.file_name() == rest)
                        .map_or_else(|| rest.to_string(), |m| m.metric_name().to_string());
                    self.policies.entry(from).or_default().clear_metric(&name);
                    return ControlOutcome::cost(calib.policy_eval);
                }
                if let Some(rest) = metric.strip_prefix("window:") {
                    let window = match param {
                        ParamSpec::Period { period_s } => SimDur::from_secs_f64(*period_s),
                        _ => SimDur::ZERO,
                    };
                    for m in &mut self.modules {
                        if m.file_name() == rest {
                            m.set_window(window);
                        }
                    }
                    return ControlOutcome::cost(calib.policy_eval);
                }
                let (metric, additive) = match metric.strip_prefix("and:") {
                    Some(rest) => (rest, true),
                    None => (metric.as_str(), false),
                };
                // Control files name metrics by their /proc file names
                // (`cpu`, `mem`, ...); policies are keyed by the E-code
                // metric constants (`LOADAVG`, ...). Accept either.
                let metric = self
                    .modules
                    .iter()
                    .find(|m| m.file_name() == metric)
                    .map_or_else(|| metric.to_string(), |m| m.metric_name().to_string());
                let metric = metric.as_str();
                let rule = Rule::from_spec(*param);
                let policy = self.policies.entry(from).or_default();
                if additive {
                    policy.add_rule(metric, rule);
                } else {
                    policy.set_rule(metric, rule);
                }
                ControlOutcome::cost(calib.policy_eval)
            }
            ControlMsg::DeployFilter { source } => {
                match Filter::compile(source, &self.env) {
                    Ok(f) => {
                        // Admission control: a filter only runs if the static
                        // verifier produced a finite worst-case instruction
                        // bound that fits the VM budget. A rejected filter is
                        // never installed (any previously deployed filter
                        // stays in force) and the subscriber is told why.
                        if let Some(reason) = f.admission_error() {
                            self.stats.filters_rejected += 1;
                            return ControlOutcome {
                                cpu: calib.filter_compile,
                                reply: Some(ControlMsg::FilterRejected { reason }),
                            };
                        }
                        self.install_filter(from, f);
                    }
                    Err(_) => {
                        self.stats.filter_errors += 1;
                    }
                }
                ControlOutcome::cost(calib.filter_compile)
            }
            ControlMsg::RemoveFilter => {
                self.filters.remove(&from);
                ControlOutcome::cost(calib.policy_eval)
            }
            ControlMsg::Announce => ControlOutcome::cost(SimDur::ZERO),
            ControlMsg::Credit { credits } => {
                // We are the publisher: the subscriber absorbed data and
                // reopens our window toward it. A grant is also fresh
                // evidence the path works, so a choked stream reopens.
                if let Some(p) = self.peers.touch(from) {
                    p.grant(*credits);
                }
                ControlOutcome::cost(calib.policy_eval)
            }
            ControlMsg::FilterRejected { reason } => {
                // We are the subscriber: a publisher refused our filter.
                self.rejections.insert(from, reason.clone());
                ControlOutcome::cost(calib.policy_eval)
            }
        }
    }

    /// The aggregator tier's polling step: fold this rack's latest member
    /// samples (own host included) into one bounded per-metric digest and
    /// submit it to every digest-channel subscriber. Digests are
    /// summaries, not streams — they carry no `stream_seq`, consume no
    /// credits, and skip the outbox: a lost digest is simply superseded
    /// by the next one, so the whole credit/loss machinery would only add
    /// latency. Returns the planned sends plus the CPU cost to charge;
    /// `None` while no member has produced a sample yet.
    pub fn poll_digest(
        &mut self,
        dir: &Directory,
        digest_chan: ChannelId,
        rack: u32,
        members: std::ops::Range<usize>,
        skip: &[NodeId],
        calib: &Calib,
    ) -> Option<(Vec<(Hop, Event, usize)>, SimDur)> {
        let n_metrics = self.modules.len();
        // (min, max, sum, count, newest_ts) per metric id.
        let mut acc = vec![
            (
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0f64,
                0u32,
                f64::NEG_INFINITY
            );
            n_metrics
        ];
        let mut cpu = SimDur::ZERO;
        let mut member_count = 0u32;
        for m in members {
            let mut contributed = false;
            for (id, slot) in acc.iter_mut().enumerate() {
                let sample = if m == self.node.0 {
                    self.own_latest.get(id).copied().flatten()
                } else {
                    self.peers
                        .get(NodeId(m))
                        .and_then(|p| p.remote_values.get(id))
                        .copied()
                        .flatten()
                };
                let Some((value, ts)) = sample else { continue };
                contributed = true;
                slot.0 = slot.0.min(value);
                slot.1 = slot.1.max(value);
                slot.2 += value;
                slot.3 += 1;
                slot.4 = slot.4.max(ts.as_secs_f64());
            }
            if contributed {
                member_count += 1;
            }
            // The fold reads the same per-member state a policy check
            // would; charge it at the policy-evaluation rate.
            cpu += calib.policy_eval;
        }
        let records: Vec<DigestRecord> = acc
            .iter()
            .enumerate()
            .filter(|(_, a)| a.3 > 0)
            .map(|(id, a)| DigestRecord {
                metric_id: id as u32,
                min: a.0,
                max: a.1,
                mean: a.2 / f64::from(a.3),
                count: a.3,
                newest_ts: a.4,
            })
            .collect();
        if records.is_empty() {
            return None;
        }
        let payload = DigestPayload {
            rack,
            origin: self.node,
            members: member_count,
            records,
        };
        let mut sends = Vec::new();
        for sub in dir.subscribers(digest_chan) {
            // `skip` carries peers this same polling step just evicted:
            // the serial engine has already removed them from the
            // directory (the skip is a no-op there), while the parallel
            // mirror defers the directory write to effect replay — the
            // skip makes both read the same effective subscriber set.
            if sub == self.node || skip.contains(&sub) {
                continue;
            }
            self.seq += 1;
            let mut ev = Event::digest(digest_chan.0, self.seq, self.node, payload.clone());
            // Digest consumers are enumerated per send (like monitoring
            // streams), so the central-concentrator topology can relay.
            ev.target = Some(sub);
            let bytes = kecho::wire::encoded_size(&ev);
            cpu += calib.submit_cost(bytes) + calib.kernel_path_send;
            self.stats.digests_sent += 1;
            sends.push((
                Hop {
                    from: self.node,
                    to: sub,
                },
                ev,
                bytes,
            ));
        }
        if sends.is_empty() {
            return None;
        }
        Some((sends, cpu))
    }

    /// Handle an incoming rack digest: record freshness, refresh the
    /// `/proc/cluster/rack<k>/...` summary files, and keep the latest
    /// payload per rack for observability surfaces. Returns the handler
    /// CPU cost. Digests stay out of the Fig. 8 receive-cost sampler —
    /// like heartbeats, they are infrastructure overhead, not the
    /// monitoring workload the figure measures.
    pub fn on_digest(
        &mut self,
        host: &mut Host,
        ev: &Event,
        bytes: usize,
        now: SimTime,
        calib: &Calib,
    ) -> SimDur {
        let Some(payload) = ev.as_digest() else {
            return SimDur::ZERO;
        };
        self.stats.digests_received += 1;
        self.stats.digest_records += payload.records.len() as u64;
        let newest = payload
            .records
            .iter()
            .map(|r| r.newest_ts)
            .fold(f64::NEG_INFINITY, f64::max);
        if newest.is_finite() {
            self.stats
                .digest_staleness_s
                .add((now.as_secs_f64() - newest).max(0.0));
        }
        for r in &payload.records {
            let h = match self.digest_handles.get(&(payload.rack, r.metric_id)) {
                Some(&h) => h,
                None => {
                    let file = self
                        .modules
                        .get(r.metric_id as usize)
                        .map_or("extra", |m| m.file_name());
                    let h = host
                        .proc
                        .intern(&format!("cluster/rack{}/{file}", payload.rack))
                        .expect("rack digest path");
                    self.digest_handles.insert((payload.rack, r.metric_id), h);
                    h
                }
            };
            let text = host.proc.handle_buf(h);
            text.clear();
            text.push_str("min ");
            fastfmt::push_f64_display(text, r.min);
            text.push_str(" max ");
            fastfmt::push_f64_display(text, r.max);
            text.push_str(" mean ");
            fastfmt::push_f64_display(text, r.mean);
            text.push_str(" count ");
            fastfmt::push_u64(text, u64::from(r.count));
            text.push_str(" ts ");
            fastfmt::push_f64_fixed3(text, r.newest_ts);
        }
        match self.rack_digests.get_mut(&payload.rack) {
            Some(kept) => {
                let DigestPayload {
                    rack,
                    origin,
                    members,
                    records,
                } = payload;
                (kept.rack, kept.origin, kept.members) = (*rack, *origin, *members);
                kept.records.clone_from(records);
            }
            None => {
                self.rack_digests.insert(payload.rack, payload.clone());
            }
        }
        calib.receive_cost(bytes)
    }

    /// The latest digest received for `rack`, if any.
    pub fn rack_digest(&self, rack: u32) -> Option<&DigestPayload> {
        self.rack_digests.get(&rack)
    }

    /// Iterate the latest digest per rack, in rack order.
    pub fn rack_digests(&self) -> impl Iterator<Item = (u32, &DigestPayload)> {
        self.rack_digests.iter().map(|(&k, v)| (k, v))
    }
}

/// Whether `name` may become the file `cluster/<origin>/<name>`: extension
/// file names arrive in a peer's frames, so anything but a single path
/// component is refused, and so are the leaves d-mon itself keeps in that
/// directory.
fn remote_file_name_ok(name: &str) -> bool {
    !name.is_empty() && !name.contains('/') && !matches!(name, "control" | "status" | "overload")
}

impl DmonStats {
    /// Zero all counters and samplers — used by the harness to discard a
    /// warm-up window before measuring.
    pub fn reset(&mut self) {
        *self = DmonStats::default();
    }

    fn submit_cost_partial(&mut self, cost: SimDur) {
        // Submission samples accumulate within the iteration; the sampler
        // takes the per-iteration total at close.
        self.pending_submit += cost;
    }

    fn close_iteration(&mut self, poll_floor: SimDur) {
        let submit = std::mem::take(&mut self.pending_submit);
        self.submit_cost_us.add(submit.as_micros_f64());
        let recv = std::mem::take(&mut self.pending_receive) + poll_floor;
        self.receive_cost_us.add(recv.as_micros_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::standard_modules;
    use simos::host::HostConfig;

    fn names() -> Vec<String> {
        vec!["alan".into(), "maui".into(), "etna".into()]
    }

    fn setup() -> (DMon, Host, Directory, ChannelId, ChannelId, Calib) {
        let node = NodeId(0);
        let dmon = DMon::new(node, names(), standard_modules(), SimDur::from_secs(1));
        let host = Host::new("alan", node, &HostConfig::testbed());
        let mut dir = Directory::default();
        let mon = dir.open("dproc-monitoring");
        let ctl = dir.open("dproc-control");
        for n in 0..3 {
            dir.subscribe(mon, NodeId(n));
            dir.subscribe(ctl, NodeId(n));
        }
        (dmon, host, dir, mon, ctl, Calib::default())
    }

    #[test]
    fn poll_sends_to_all_other_subscribers() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(out.sends.len(), 2, "two remote subscribers");
        for (hop, ev, bytes) in &out.sends {
            assert_eq!(hop.from, NodeId(0));
            assert_ne!(hop.to, NodeId(0));
            let m = ev.as_monitoring().unwrap();
            assert_eq!(m.records.len(), 5, "all five metrics by default");
            assert!(*bytes > 50);
        }
        assert!(out.cpu_cost > SimDur::ZERO);
        assert_eq!(dmon.stats.events_sent, 2);
        assert_eq!(dmon.stats.iterations, 1);
    }

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
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::Period { period_s: 2.0 },
            },
            &calib,
        );
        dmon.on_control(
            NodeId(2),
            &ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::Period { period_s: 2.0 },
            },
            &calib,
        );
        let mut sent = 0;
        for s in 1..=10 {
            let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(s), &calib);
            sent += out
                .sends
                .iter()
                .filter(|(_, ev, _)| ev.as_monitoring().is_some())
                .count();
        }
        // 10 polls at 1 Hz, 2 s period, 2 subscribers => ~10 data events.
        assert!((8..=12).contains(&sent), "sent {sent}");
        // Data every 2 s never opens a heartbeat-worthy silence window:
        // the cadence itself proves liveness, so heartbeats cost nothing.
        assert_eq!(dmon.stats.heartbeats_sent, 0);
    }

    #[test]
    fn deployed_filter_controls_stream() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Filter for subscriber 1: only send LOADAVG when > 2 (never here).
        dmon.on_control(
            NodeId(1),
            &ControlMsg::DeployFilter {
                source: "{ if (input[LOADAVG].value > 2.0) { output[0] = input[LOADAVG]; } }"
                    .into(),
            },
            &calib,
        );
        assert!(dmon.has_filter(NodeId(1)));
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        let data = |out: &PollOutcome| {
            out.sends
                .iter()
                .filter(|(_, ev, _)| ev.as_monitoring().is_some())
                .count()
        };
        assert_eq!(data(&out), 1, "only the unfiltered subscriber");
        // Load the machine: filter should open up.
        host.cpu.spawn_compute(SimTime::from_secs(1), "a");
        host.cpu.spawn_compute(SimTime::from_secs(1), "b");
        host.cpu.spawn_compute(SimTime::from_secs(1), "c");
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(100), &calib);
        assert_eq!(data(&out), 2);
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
        dmon.on_control(
            NodeId(1),
            &ControlMsg::DeployFilter {
                source: "{ this is not e-code }".into(),
            },
            &calib,
        );
        assert_eq!(dmon.stats.filter_errors, 1);
        assert!(!dmon.has_filter(NodeId(1)));
        // RemoveFilter on nothing is fine.
        dmon.on_control(NodeId(1), &ControlMsg::RemoveFilter, &calib);
    }

    #[test]
    fn unbounded_filter_rejected_before_reaching_vm() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        let out = dmon.on_control(
            NodeId(1),
            &ControlMsg::DeployFilter {
                source: "{ while (1) { } }".into(),
            },
            &calib,
        );
        assert_eq!(dmon.stats.filters_rejected, 1);
        assert_eq!(
            dmon.stats.filter_errors, 0,
            "it compiles; the verifier refused it"
        );
        assert!(
            !dmon.has_filter(NodeId(1)),
            "rejected filter never installed"
        );
        let Some(ControlMsg::FilterRejected { reason }) = out.reply else {
            panic!("expected a FilterRejected reply, got {:?}", out.reply);
        };
        assert!(reason.contains("unbounded"), "reason: {reason}");
    }

    #[test]
    fn rejected_filter_keeps_previously_deployed_one() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        dmon.on_control(
            NodeId(1),
            &ControlMsg::DeployFilter {
                source: "{ if (input[LOADAVG].value > 2.0) { output[0] = input[LOADAVG]; } }"
                    .into(),
            },
            &calib,
        );
        assert!(dmon.has_filter(NodeId(1)));
        let old_reads = dmon.filter_for(NodeId(1)).unwrap().cert().reads.clone();
        dmon.on_control(
            NodeId(1),
            &ControlMsg::DeployFilter {
                source: "{ int i; for (i = 0; 1; i = i + 0) { } }".into(),
            },
            &calib,
        );
        assert_eq!(dmon.stats.filters_rejected, 1);
        assert!(dmon.has_filter(NodeId(1)), "old filter stays in force");
        assert_eq!(dmon.filter_for(NodeId(1)).unwrap().cert().reads, old_reads);
    }

    #[test]
    fn fig3_filter_certifies_and_deploys() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        let out = dmon.on_control(
            NodeId(1),
            &ControlMsg::DeployFilter {
                source: ecode::FIG3_SOURCE.into(),
            },
            &calib,
        );
        assert!(out.reply.is_none());
        assert_eq!(dmon.stats.filters_rejected, 0);
        assert!(dmon.has_filter(NodeId(1)));
        let cert = dmon.filter_for(NodeId(1)).unwrap().cert();
        assert!(cert.is_certified());
        assert!(cert.bound().unwrap() <= ecode::vm::DEFAULT_BUDGET);
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

    #[test]
    fn self_deploy_rejection_recorded_locally() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/alan/control", "").unwrap();
        host.proc
            .write("cluster/alan/control", "filter { while (1) { } }")
            .unwrap();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.filters_rejected, 1);
        let reason = dmon
            .filter_rejection(NodeId(0))
            .expect("self rejection recorded");
        assert!(reason.contains("unbounded"));
    }

    #[test]
    fn on_event_populates_cluster_tree_and_fast_path() {
        let (mut dmon, mut host, _dir, mon, _ctl, calib) = setup();
        let ev = Event::monitoring(
            mon.0,
            1,
            NodeId(2),
            MonitoringPayload {
                origin: NodeId(2),
                epoch: 0,
                stream_seq: 0,
                credit_grant: 0,
                records: vec![MonRecord {
                    metric_id: 0,
                    value: 2.5,
                    last_value_sent: 1.0,
                    timestamp: 3.0,
                }],
                pad_bytes: 0,
                ext_names: Vec::new(),
            },
        );
        let cost = dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(3), &calib);
        assert!(cost >= calib.receive_base);
        assert!(host.proc.read("cluster/etna/cpu").unwrap().contains("2.5"));
        assert!(host.proc.exists("cluster/etna/control"));
        let (v, t) = dmon.remote_value(NodeId(2), "LOADAVG").unwrap();
        assert_eq!(v, 2.5);
        assert_eq!(t, SimTime::from_secs(3));
        assert_eq!(dmon.stats.events_received, 1);
    }

    #[test]
    fn control_file_write_routes_to_target() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // First poll creates remote control files? No — remote entries
        // appear on first received event; create manually as the app would
        // find them after an event.
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "period cpu 2")
            .unwrap();
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        let ctl_sends: Vec<_> = out
            .sends
            .iter()
            .filter(|(_, ev, _)| ev.as_control().is_some())
            .collect();
        assert_eq!(ctl_sends.len(), 1);
        assert_eq!(ctl_sends[0].0.to, NodeId(1));
        assert_eq!(
            ctl_sends[0].1.as_control().unwrap(),
            &ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 }
            }
        );
    }

    #[test]
    fn control_write_to_self_applies_locally() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/alan/control", "").unwrap();
        host.proc
            .write("cluster/alan/control", "window cpu 5")
            .unwrap();
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(out.sends.iter().all(|(_, ev, _)| ev.as_control().is_none()));
        assert_eq!(dmon.stats.control_handled, 1);
    }

    #[test]
    fn malformed_control_write_counts_error() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "gibberish")
            .unwrap();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.control_errors, 1);
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

    #[test]
    fn submit_stats_track_iteration_costs() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for s in 1..=5 {
            dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(s), &calib);
        }
        assert_eq!(dmon.stats.submit_cost_us.len(), 5);
        // 2 events of ~190B each: ~2*245us
        let mean = dmon.stats.submit_cost_us.mean();
        assert!(mean > 400.0 && mean < 700.0, "mean {mean}");
    }

    fn mon_from(origin: NodeId, mon: ChannelId, epoch: u32, sseq: u32) -> Event {
        let mut ev = Event::monitoring(
            mon.0,
            1,
            origin,
            MonitoringPayload {
                origin,
                epoch,
                stream_seq: sseq,
                credit_grant: 0,
                records: vec![MonRecord {
                    metric_id: 0,
                    value: 1.0,
                    last_value_sent: 0.0,
                    timestamp: 0.0,
                }],
                pad_bytes: 0,
                ext_names: Vec::new(),
            },
        );
        ev.target = Some(NodeId(0));
        ev
    }

    #[test]
    fn detector_walks_fresh_stale_dead_and_updates_status() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Defaults: stale at 3 s, dead at 8 s (1 s poll period).
        let ev = mon_from(NodeId(1), mon, 0, 0);
        dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));

        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(2), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));
        assert!(host
            .proc
            .read("cluster/maui/status")
            .unwrap()
            .starts_with("fresh"));

        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(5), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Stale));
        assert_eq!(dmon.stats.nodes_suspected, 1);
        assert!(out.dead_peers.is_empty());
        assert!(host
            .proc
            .read("cluster/maui/status")
            .unwrap()
            .starts_with("stale"));

        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(10), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Dead));
        assert_eq!(out.dead_peers, vec![NodeId(1)]);
        assert_eq!(dmon.stats.nodes_evicted, 1);
        assert!(host
            .proc
            .read("cluster/maui/status")
            .unwrap()
            .starts_with("dead"));
        assert!(dmon.stats.heartbeats_missed > 0);
        // A Dead subscriber gets no traffic even while still registered.
        assert!(out.sends.iter().all(|(h, _, _)| h.to != NodeId(1)));
    }

    #[test]
    fn dead_peer_speaking_again_triggers_resync_replay() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // This node customized publisher 1 earlier.
        host.proc.set("cluster/maui/control", "").unwrap();
        host.proc
            .write("cluster/maui/control", "period cpu 2")
            .unwrap();
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);

        let ev = mon_from(NodeId(1), mon, 0, 0);
        dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(10), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Dead));

        // The publisher restarts: new epoch, stream reset.
        let ev = mon_from(NodeId(1), mon, 1, 0);
        dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(11), &calib);
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(12), &calib);
        assert_eq!(dmon.stats.resyncs, 1);
        let replayed: Vec<_> = out
            .sends
            .iter()
            .filter(|(h, ev, _)| h.to == NodeId(1) && ev.as_control().is_some())
            .collect();
        assert_eq!(replayed.len(), 1, "customization replayed");
        assert_eq!(
            replayed[0].1.as_control().unwrap(),
            &ControlMsg::SetParam {
                metric: "cpu".into(),
                param: ParamSpec::Period { period_s: 2.0 }
            }
        );
    }

    #[test]
    fn gap_detection_counts_dropped_stream_positions() {
        let (mut dmon, mut host, _dir, mon, _ctl, calib) = setup();
        for sseq in [0, 1, 4, 5] {
            let ev = mon_from(NodeId(2), mon, 0, sseq);
            dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(1), &calib);
        }
        assert_eq!(dmon.stats.gaps_detected, 2, "positions 2 and 3 lost");
    }

    #[test]
    fn revive_clears_volatile_state_and_bumps_epoch() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        dmon.on_control(
            NodeId(1),
            &ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::Period { period_s: 2.0 },
            },
            &calib,
        );
        assert!(dmon.policy_for(NodeId(1)).is_some());
        let before = dmon.stats.control_handled;
        dmon.on_revive();
        assert_eq!(dmon.epoch(), 1);
        assert!(dmon.policy_for(NodeId(1)).is_none());
        assert_eq!(dmon.peer_health(NodeId(1)), None);
        assert_eq!(dmon.stats.control_handled, before, "stats survive");
    }

    #[test]
    fn heartbeat_refreshes_peer_without_data() {
        let (mut dmon, _host, _dir, mon, _ctl, calib) = setup();
        let hb = Event::heartbeat(
            mon.0,
            1,
            NodeId(1),
            NodeId(0),
            kecho::HeartbeatPayload {
                origin: NodeId(1),
                epoch: 0,
                stream_seq: 0,
            },
        );
        let cost = dmon.on_heartbeat(&hb, SimTime::from_secs(1), &calib);
        assert!(cost > SimDur::ZERO);
        assert_eq!(dmon.stats.heartbeats_received, 1);
        assert_eq!(dmon.stats.events_received, 0, "no data counted");
        assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Fresh));
    }

    /// Node 0 of a six-node cluster whose rack is nodes 0..3.
    fn racked() -> (DMon, Host, ChannelId, Calib) {
        let names = ["alan", "maui", "etna", "fuji", "hood", "zao"].map(String::from);
        let dmon = DMon::new_shared(
            NodeId(0),
            Arc::new(names.to_vec()),
            0..3,
            standard_modules(),
            SimDur::from_secs(1),
        );
        let host = Host::new("alan", NodeId(0), &HostConfig::testbed());
        (dmon, host, ChannelId(0), Calib::default())
    }

    fn hb_from(origin: NodeId, mon: ChannelId) -> Event {
        let payload = HeartbeatPayload {
            origin,
            epoch: 0,
            stream_seq: 0,
        };
        Event::heartbeat(mon.0, 1, origin, NodeId(0), payload)
    }

    /// A cluster member outside the rack, and two ids that name no node.
    const FAR: NodeId = NodeId(4);
    const BOGUS: [NodeId; 2] = [NodeId(6), NodeId(usize::MAX)];

    #[test]
    fn events_from_outside_the_rack_spill_and_unknown_origins_are_dropped() {
        let (mut dmon, mut host, mon, calib) = racked();
        assert_eq!(dmon.tracked_peers(), 3, "the home rack");
        let now = SimTime::from_secs(1);
        let cost = dmon.on_event(&mut host, &mon_from(FAR, mon, 0, 0), 90, now, &calib);
        assert!(cost > SimDur::ZERO);
        assert_eq!(dmon.tracked_peers(), 4, "first touch spills one slot");
        assert_eq!(dmon.peer_health(FAR), Some(PeerHealth::Fresh));
        assert!(dmon.remote_value(FAR, "LOADAVG").is_some());
        assert!(host.proc.exists("cluster/hood/cpu"));
        for (k, origin) in BOGUS.into_iter().enumerate() {
            let ev = mon_from(origin, mon, 0, 0);
            assert_eq!(dmon.on_event(&mut host, &ev, 90, now, &calib), SimDur::ZERO);
            assert_eq!(dmon.events_rejected(), k as u64 + 1);
            assert_eq!(dmon.peer_health(origin), None);
        }
        assert_eq!(dmon.stats.events_received, 1, "only the real frame counted");
        assert_eq!(dmon.tracked_peers(), 4);
    }

    /// A frame from etna carrying one record of extension metric 7, which
    /// its schema block binds to the file name `file`.
    fn ext_frame(mon: ChannelId, sseq: u32, file: &str) -> Event {
        let payload = MonitoringPayload {
            origin: NodeId(2),
            epoch: 0,
            stream_seq: sseq,
            credit_grant: 0,
            records: vec![MonRecord {
                metric_id: 7,
                value: 4.0,
                last_value_sent: 0.0,
                timestamp: 1.0,
            }],
            pad_bytes: 0,
            ext_names: vec![(7, "EXT".to_string(), file.to_string())],
        };
        Event::monitoring(mon.0, 1, NodeId(2), payload)
    }

    #[test]
    fn peer_supplied_file_names_cannot_panic_or_clobber() {
        let (mut dmon, mut host, mon, calib) = racked();
        let now = SimTime::from_secs(1);
        // The peer's status and control files exist before the hostile
        // frames arrive, as they do on a running node.
        dmon.on_event(&mut host, &mon_from(NodeId(2), mon, 0, 0), 90, now, &calib);
        host.proc.set("cluster/etna/status", "fresh").unwrap();
        let listing = host.proc.list("cluster/etna").unwrap();
        for (k, file) in ["", "a//b", "x/y", "control", "status", "overload"]
            .into_iter()
            .enumerate()
        {
            let ev = ext_frame(mon, 1 + k as u32, file);
            assert!(dmon.on_event(&mut host, &ev, 90, now, &calib) > SimDur::ZERO);
            assert_eq!(dmon.events_rejected(), 1 + k as u64, "{file:?} counted");
            assert_eq!(host.proc.list("cluster/etna").unwrap(), listing, "{file:?}");
            assert!(host.proc.is_dir("cluster/etna"));
            assert_eq!(host.proc.read("cluster/etna/control").unwrap(), "");
            assert_eq!(host.proc.read("cluster/etna/status").unwrap(), "fresh");
            assert_eq!(dmon.remote_value(NodeId(2), "EXT"), None, "record skipped");
        }
        assert_eq!(dmon.stats.events_received, 7, "the frames themselves count");

        let ev = ext_frame(mon, 7, "power");
        dmon.on_event(&mut host, &ev, 90, now, &calib);
        assert_eq!(dmon.events_rejected(), 6);
        assert_eq!(
            host.proc.read("cluster/etna/power").unwrap(),
            "power 4 ts 1.000"
        );
        assert_eq!(dmon.remote_value(NodeId(2), "EXT"), Some((4.0, now)));
    }

    #[test]
    fn heartbeats_from_outside_the_rack_spill_and_unknown_origins_are_dropped() {
        let (mut dmon, _host, mon, calib) = racked();
        let now = SimTime::from_secs(1);
        assert!(dmon.on_heartbeat(&hb_from(FAR, mon), now, &calib) > SimDur::ZERO);
        assert_eq!(dmon.peer_health(FAR), Some(PeerHealth::Fresh));
        for origin in BOGUS {
            let cost = dmon.on_heartbeat(&hb_from(origin, mon), now, &calib);
            assert_eq!(cost, SimDur::ZERO);
        }
        assert_eq!(dmon.stats.heartbeats_received, 1);
        assert_eq!(dmon.events_rejected(), 2);
        assert_eq!(dmon.tracked_peers(), 4);
    }

    #[test]
    fn credit_from_outside_the_rack_spills_and_unknown_senders_are_errors() {
        let (mut dmon, _host, _mon, calib) = racked();
        let credit = ControlMsg::Credit { credits: 4 };
        dmon.on_control(FAR, &credit, &calib);
        assert_eq!(dmon.tracked_peers(), 4);
        assert_eq!(dmon.credits_for(FAR), kecho::INITIAL_CREDITS);
        for from in BOGUS {
            let out = dmon.on_control(from, &credit, &calib);
            assert_eq!(out.cpu, SimDur::ZERO);
            assert!(out.reply.is_none());
            assert_eq!(dmon.credits_for(from), 0);
        }
        assert_eq!(dmon.stats.control_handled, 1);
        assert_eq!(dmon.stats.control_errors, 2);
        assert_eq!(dmon.tracked_peers(), 4);
    }

    #[test]
    fn wire_drop_outside_the_rack_spills_and_unknown_targets_are_ignored() {
        let (mut dmon, _host, _mon, _calib) = racked();
        dmon.on_wire_drop(FAR);
        assert!(dmon.choked_toward(FAR));
        assert_eq!(dmon.tracked_peers(), 4);
        for sub in BOGUS {
            dmon.on_wire_drop(sub);
            assert!(!dmon.choked_toward(sub));
        }
        assert_eq!(dmon.tracked_peers(), 4);
    }

    #[test]
    fn event_pad_inflates_bytes() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        dmon.set_event_pad(5000);
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(out.sends[0].2 > 5000);
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
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: IMPURE_SRC.into(),
                },
                &calib,
            );
            assert!(!dmon.filter_for(sub).unwrap().cert().memo_safe);
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        // Both subscribers got their own VM run despite identical source.
        assert_eq!(dmon.stats.memo_bypassed, 2);
        assert!(
            dmon.memo.is_empty(),
            "bypassed runs never populate the memo"
        );
    }

    #[test]
    fn impure_filter_diverges_per_subscriber_state() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: IMPURE_SRC.into(),
                },
                &calib,
            );
        }
        // Make LOADAVG visibly nonzero, poll once so the last-sent rows
        // exist, then desync the two subscribers' state by hand: sub 1
        // believes nothing was ever sent, sub 2 believes a huge value was.
        host.cpu.spawn_compute(SimTime::from_secs(1), "a");
        host.cpu.spawn_compute(SimTime::from_secs(1), "b");
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(100), &calib);
        if let Some(slot) = dmon.peers[NodeId(1)].last_sent.first_mut() {
            *slot = Some((0.0, SimTime::from_secs(100)));
        }
        if let Some(slot) = dmon.peers[NodeId(2)].last_sent.first_mut() {
            *slot = Some((1e12, SimTime::from_secs(100)));
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
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: PURE_SRC.into(),
                },
                &calib,
            );
            let cert = dmon.filter_for(sub).unwrap().cert();
            assert!(cert.memo_safe);
            assert_eq!(cert.effects.memo, MemoClass::SnapshotKeyed);
        }
        let out = dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.stats.memo_bypassed, 0);
        assert_eq!(dmon.memo.len(), 1, "one shared entry for both subscribers");
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
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: "{ int x = 0; }".into(),
                },
                &calib,
            );
            assert_eq!(
                dmon.filter_for(sub).unwrap().cert().effects.memo,
                MemoClass::Shared
            );
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert_eq!(dmon.memo.len(), 1);
        assert!(
            dmon.memo[0].inputs.is_empty(),
            "fingerprint-only entries never clone the input snapshot"
        );
        assert_eq!(dmon.stats.memo_bypassed, 0);
    }

    #[test]
    fn tainted_fingerprint_disables_sharing() {
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Simulate an FNV collision between distinct sources: a real one
        // is infeasible to construct, so file a different source under
        // PURE_SRC's fingerprint before it deploys. Admission detects
        // the collision and demotes the deployment to Bypass — the
        // quarantine is a deploy-time decision, never a per-poll check.
        dmon.fp_sources
            .insert(fnv1a(PURE_SRC.as_bytes()), "{ something else }".into());
        for sub in [NodeId(1), NodeId(2)] {
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: PURE_SRC.into(),
                },
                &calib,
            );
        }
        dmon.poll(&mut host, &dir, mon, ctl, SimTime::from_secs(1), &calib);
        assert!(dmon.memo.is_empty());
        assert_eq!(dmon.stats.memo_bypassed, 2);
    }

    #[test]
    fn fingerprint_collision_detection_is_exact() {
        let (mut dmon, _host, _dir, _mon, _ctl, _calib) = setup();
        assert!(!dmon.note_filter_fingerprint("{ int a = 1; }"));
        // Same source again: no taint.
        assert!(!dmon.note_filter_fingerprint("{ int a = 1; }"));
        assert!(dmon.fp_tainted.is_empty());
        // A different source with a different fingerprint: no taint.
        assert!(!dmon.note_filter_fingerprint("{ int b = 2; }"));
        assert!(dmon.fp_tainted.is_empty());
        // Force the pathological case: a second source filed under the
        // first one's fingerprint.
        let fp = fnv1a(b"{ int a = 1; }");
        dmon.fp_sources.insert(fp, "{ something else }".into());
        assert!(dmon.note_filter_fingerprint("{ int a = 1; }"));
        assert!(dmon.fp_tainted.contains(&fp));
    }

    #[test]
    fn identical_sources_share_a_dense_id_and_compile_once_each() {
        let (mut dmon, _host, _dir, _mon, _ctl, calib) = setup();
        for sub in [NodeId(1), NodeId(2)] {
            dmon.on_control(
                sub,
                &ControlMsg::DeployFilter {
                    source: PURE_SRC.into(),
                },
                &calib,
            );
        }
        // Same source → same memo id, so the per-poll memo shares runs
        // on a u32 compare.
        assert_eq!(dmon.filters[&NodeId(1)].id, dmon.filters[&NodeId(2)].id);
        dmon.on_control(
            NodeId(2),
            &ControlMsg::DeployFilter {
                source: IMPURE_SRC.into(),
            },
            &calib,
        );
        // Distinct sources never share an id, even if their
        // fingerprints were to collide.
        assert_ne!(dmon.filters[&NodeId(1)].id, dmon.filters[&NodeId(2)].id);
        // Every admission was specialized into a register closure.
        assert_eq!(dmon.stats.filters_compiled, 3);
        assert_eq!(dmon.stats.interp_fallbacks, 0);
        assert!(dmon.filter_is_compiled(NodeId(1)));
    }

    #[test]
    fn stalled_outbox_sheds_oldest_and_drains_on_grant() {
        use kecho::INITIAL_CREDITS;
        let (mut dmon, mut host, dir, mon, ctl, calib) = setup();
        // Keep the failure detector out of the picture: this test never
        // delivers a frame, and eviction would reap the outboxes we are
        // trying to overflow.
        dmon.set_failure_bounds(SimDur::from_secs(100_000), SimDur::from_secs(200_000));

        // No grant ever arrives, so each stream burns its initial window
        // and parks events. The credit famine also walks the ladder down —
        // stretched polls plus the change-coarsening gate slow production,
        // so the load must keep moving for the digest records to keep
        // passing the gate and overflow the bounded outbox. A period-3
        // run-queue sawtooth (coprime with the top rung's stretch of 4)
        // guarantees every stretched sample sees a >10 % swing; polls sit
        // 120 s apart so the 60 s loadavg window settles between them.
        let polls = 220u64;
        let t = |s: u64| SimTime::from_secs(120 * s);
        let mut burst: Vec<simos::cpu::TaskId> = Vec::new();
        for s in 1..=polls {
            if s % 3 == 0 {
                for id in burst.drain(..) {
                    host.cpu.kill(t(s), id);
                }
            } else {
                for k in 0..4 {
                    burst.push(host.cpu.spawn_compute(t(s), format!("burst{s}-{k}")));
                }
            }
            dmon.poll(&mut host, &dir, mon, ctl, t(s), &calib);
            for peer in [NodeId(1), NodeId(2)] {
                assert!(dmon.outbox_len(peer) <= OUTBOX_CAP, "outbox over cap");
            }
        }
        assert_eq!(dmon.outbox_len(NodeId(1)), OUTBOX_CAP, "backlog at cap");
        assert_eq!(dmon.outbox_len(NodeId(2)), OUTBOX_CAP, "backlog at cap");
        assert_eq!(dmon.credits_for(NodeId(1)), 0, "window exhausted");
        assert!(dmon.stats.events_shed > 0, "overflow shed nothing");
        assert!(dmon.stats.credits_stalled > 0, "stall polls were counted");
        assert!(dmon.ladder_level() > 0, "famine never engaged the ladder");
        assert_eq!(
            dmon.stats.events_sent,
            2 * u64::from(INITIAL_CREDITS),
            "nothing left this node once the windows emptied"
        );

        // A grant from one subscriber reopens exactly that stream: the
        // backlog drains oldest-first up to the granted budget while the
        // other stream stays parked at the cap.
        dmon.on_control(
            NodeId(1),
            &ControlMsg::Credit {
                credits: INITIAL_CREDITS,
            },
            &calib,
        );
        let out = dmon.poll(&mut host, &dir, mon, ctl, t(polls + 1), &calib);
        let to1 = out
            .sends
            .iter()
            .filter(|(h, ev, _)| h.to == NodeId(1) && ev.as_monitoring().is_some())
            .count();
        assert_eq!(to1 as u32, INITIAL_CREDITS, "drained the granted budget");
        assert!(dmon.outbox_len(NodeId(1)) < OUTBOX_CAP);
        assert_eq!(dmon.outbox_len(NodeId(2)), OUTBOX_CAP, "no cross-talk");
    }
}
