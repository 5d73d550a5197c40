//! The receive path moves numbers, not text: `DMon::on_event` on warmed
//! `/proc` handles stores a `(value, ts)` sample per record and allocates
//! nothing; the text exists only in what a reader is handed. And the
//! submit path takes a payload buffer only for a payload: a poll whose
//! streams are suppressed or gated calls the allocator no more than one
//! whose streams all send.

use dproc::dmon::DMon;
use dproc::modules::standard_modules;
use dproc::Calib;
use dproc_bench::alloc::{self, Counting};
use kecho::credit::GrantCounter;
use kecho::{
    ChannelId, ControlMsg, Directory, Event, HeartbeatPayload, MonRecord, MonitoringPayload,
    ParamSpec,
};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::host::{Host, HostConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One frame from node 1 carrying all five standard metrics.
fn frame(sseq: u32, value: f64, ts: f64) -> Event {
    let records = (0..5)
        .map(|metric_id| MonRecord {
            metric_id,
            value,
            last_value_sent: 0.0,
            timestamp: ts,
        })
        .collect();
    let payload = MonitoringPayload {
        origin: NodeId(1),
        epoch: 0,
        stream_seq: sseq,
        credit_grant: 0,
        records,
        pad_bytes: 0,
        ext_names: Vec::new(),
    };
    Event::monitoring(0, u64::from(sseq), NodeId(1), payload)
}

#[test]
fn on_event_on_warmed_handles_allocates_nothing_and_stores_no_text() {
    let names = vec!["alan".to_string(), "maui".to_string()];
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    let mut host = Host::new("alan", NodeId(0), &HostConfig::testbed());
    let calib = Calib::default();

    // Warm: the first frame interns the five files and the control file.
    // Its values render short ("cpu 1 ts 0.000"), so a slot that kept
    // text could not hold the long renderings below without growing.
    dmon.on_event(&mut host, &frame(0, 1.0, 0.0), 90, SimTime::ZERO, &calib);

    let frames: Vec<Event> = (1..=1000u32)
        .map(|k| frame(k, f64::from(k) + 0.123_456_789_012, f64::from(k) * 1e6))
        .collect();
    let before = alloc::calls();
    for (k, ev) in frames.iter().enumerate() {
        let now = SimTime::from_secs(1 + k as u64);
        dmon.on_event(&mut host, ev, 90, now, &calib);
    }
    assert_eq!(alloc::calls() - before, 0, "allocator calls");
    assert_eq!(dmon.stats.events_received, 1001);

    // A reader gets the text, rendered into a copy of its own ...
    let text = host.proc.read("cluster/maui/cpu").unwrap().into_owned();
    assert_eq!(text, "cpu 1000.123456789012 ts 1000000000.000");
    // ... and the slot still holds numbers: the next, longer sample costs
    // no allocation either.
    let ev = frame(1001, 1e15 + 0.125, 1e12);
    let before = alloc::calls();
    dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(2000), &calib);
    assert_eq!(alloc::calls() - before, 0, "allocator calls");
    assert_eq!(
        host.proc.read("cluster/maui/mem").unwrap(),
        "mem 1000000000000000.1 ts 1000000000000.000"
    );
}

/// Node 0 of a 16-node star as a publisher: every other node subscribes,
/// stays alive by heartbeat and grants back each credit it is sent.
struct Star16 {
    dmon: DMon,
    host: Host,
    dir: Directory,
    mon: ChannelId,
    ctl: ChannelId,
    calib: Calib,
    round: u32,
    /// Each subscriber's grant counter toward node 0.
    grants: [GrantCounter; 16],
}

impl Star16 {
    fn new() -> Star16 {
        let names = (0..16).map(|i| format!("n{i}")).collect();
        let dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
        let host = Host::new("n0", NodeId(0), &HostConfig::testbed());
        let mut dir = Directory::default();
        let (mon, ctl) = (dir.open("mon"), dir.open("ctl"));
        for n in 0..16 {
            dir.subscribe(mon, NodeId(n));
            dir.subscribe(ctl, NodeId(n));
        }
        Star16 {
            dmon,
            host,
            dir,
            mon,
            ctl,
            calib: Calib::default(),
            round: 0,
            grants: [GrantCounter::default(); 16],
        }
    }

    fn control(&mut self, from: usize, msg: ControlMsg) {
        self.dmon.on_control(NodeId(from), &msg, &self.calib);
    }

    /// One poll with its frames delivered, as the cluster glue would;
    /// returns the allocator calls `(alloc + realloc, dealloc)` of it all
    /// and the data frames the poll sent.
    fn round(&mut self) -> ((u64, u64), usize) {
        self.round += 1;
        let now = SimTime::from_secs(u64::from(self.round));
        let calls = || (alloc::calls(), alloc::frees());
        let before = calls();
        for sub in 1..16 {
            let proof = HeartbeatPayload {
                origin: NodeId(sub),
                epoch: 0,
                stream_seq: self.round,
            };
            let hb = Event::heartbeat(self.mon.0, 0, NodeId(sub), NodeId(0), proof);
            self.dmon.on_heartbeat(&hb, now, &self.calib);
        }
        let (host, dir) = (&mut self.host, &self.dir);
        let mut out = self
            .dmon
            .poll(host, dir, self.mon, self.ctl, now, &self.calib);
        let mut data = 0;
        for (hop, ev, _) in out.sends.drain(..) {
            if ev.as_monitoring().is_some() {
                data += 1;
                // The subscriber absorbs the frame and grants it back.
                let grants = &mut self.grants[hop.to.0];
                grants.owe(1);
                if let Some(credits) = grants.fold() {
                    let grant = ControlMsg::Credit { credits };
                    self.dmon.on_control(hop.to, &grant, &self.calib);
                }
            }
            ev.recycle();
        }
        self.dmon.recycle_sends(out.sends);
        let after = calls();
        ((after.0 - before.0, after.1 - before.1), data)
    }

    /// Poll up to round 40. `DmonStats` keeps two cost samples per
    /// iteration in vectors that double at the 33rd and again at the 65th,
    /// so the twenty rounds after this see neither.
    fn warm_up(&mut self, check: impl Fn(usize)) {
        while self.round < 40 {
            check(self.round().1);
        }
    }
}

#[test]
fn a_poll_of_suppressed_streams_makes_no_allocator_call() {
    let mut star = Star16::new();
    // Every stream sends for a while, so the record pool holds buffers a
    // careless taker could drop.
    for _ in 0..3 {
        assert_eq!(star.round().1, 15);
    }
    // Then every subscriber deploys a filter that emits nothing here: one
    // run a poll, keyed by last-sent values, and fourteen hits on it.
    let source = "{ if (input[LOADAVG].value > 1000000.0) { output[0] = input[LOADAVG]; } }";
    for sub in 1..16 {
        let source = source.to_string();
        star.control(sub, ControlMsg::DeployFilter { source });
    }
    // Warm-up: the memo's vectors and the heartbeat cadence settle.
    star.warm_up(|data| assert_eq!(data, 0));
    for poll in 0..20 {
        let (calls, data) = star.round();
        assert_eq!((calls, data), ((0, 0), 0), "poll {poll}");
    }
    assert!(star.dmon.stats.heartbeats_sent >= 15 * 10);
    assert_eq!(star.dmon.stats.filter_errors, 0);
}

#[test]
fn a_poll_with_half_its_streams_gated_makes_no_allocator_call() {
    let mut star = Star16::new();
    // Odd subscribers want a metric only when it moved a billionfold
    // since they last got it: once, and never again.
    for sub in (1..16).step_by(2) {
        star.control(
            sub,
            ControlMsg::SetParam {
                metric: "*".into(),
                param: ParamSpec::DeltaFraction { fraction: 1e9 },
            },
        );
    }
    assert_eq!(star.round().1, 15, "nothing was ever sent: all pass");
    star.warm_up(|data| assert_eq!(data, 7));
    for poll in 0..20 {
        let (calls, data) = star.round();
        assert_eq!((calls, data), ((0, 0), 7), "poll {poll}");
    }
}
