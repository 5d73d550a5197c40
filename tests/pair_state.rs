//! The state one node keeps per peer — a connection's byte window, its row
//! in the connection table, the per-metric rows of the d-mon peer table —
//! checked against the plain structures it replaced, and against a peer
//! that picks its metric ids, schema names and digest racks to hurt.
//!
//! Every case is drawn from a fixed seed and there is a fixed number of
//! them, so a failure reproduces by running the test again.

use std::collections::{BTreeMap, VecDeque};

use dproc::dmon::DMon;
use dproc::modules::{standard_modules, MonitorModule, PowerMon};
use dproc::{Calib, PeerHealth};
use dproc_bench::alloc::{self, Counting};
use kecho::credit::GrantCounter;
use kecho::{
    ChannelId, ControlMsg, DigestPayload, DigestRecord, Directory, Event, MonRecord,
    MonitoringPayload,
};
use simcore::{SimDur, SimRng, SimTime};
use simnet::conn::Proto;
use simnet::link::{Entry, SlidingWindow, Spill, WindowStore};
use simnet::{ConnId, ConnTrack, NodeId};
use simos::host::{Host, HostConfig};
use simos::RecordRender;

#[global_allocator]
static GLOBAL: Counting = Counting;

// ---------- BytesWindow ≡ a deque of (time, bytes) ----------

/// The window as it was: every entry in one deque.
struct DequeWindow {
    window: SimDur,
    entries: VecDeque<(SimTime, u64)>,
    total: u64,
}

impl DequeWindow {
    fn prune(&mut self, now: SimTime) {
        let cutoff = now - self.window;
        while let Some(&(t, b)) = self.entries.front() {
            if t >= cutoff {
                break;
            }
            self.entries.pop_front();
            self.total -= b;
        }
    }
    fn record(&mut self, now: SimTime, bytes: u64) {
        self.prune(now);
        self.entries.push_back((now, bytes));
        self.total += bytes;
    }
    fn bytes(&mut self, now: SimTime) -> u64 {
        self.prune(now);
        self.total
    }
}

#[test]
fn bytes_window_matches_a_deque_across_its_inline_capacity() {
    window_matches_a_deque::<Spill>(0x000B_17E5);
    window_matches_a_deque::<VecDeque<Entry>>(0x000B_17E6);
}

/// One layout against the deque that prunes on every record: a read
/// after every record, then runs of records with no read in between (the
/// store fills and prunes in bulk, or grows), bursts at one instant.
fn window_matches_a_deque<S: WindowStore>(seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..200 {
        let window = SimDur::from_millis(rng.range_u64(1, 2000));
        let mut real = SlidingWindow::<S>::new(window);
        let mut model = DequeWindow {
            window,
            entries: VecDeque::new(),
            total: 0,
        };
        // Start past one window so `now - window` never clamps at zero.
        let mut now = SimTime::from_secs(2);
        // Bursts that pile entries far past what the struct holds inline,
        // trickles of one or two entries per window (a connection at
        // 1 Hz), and silences long enough for everything to slide off.
        for step in 0..300 {
            now += match rng.below(10) {
                0 => window.mul_f64(2.5),
                1..=3 => window.mul_f64(rng.range_f64(0.3, 1.2)),
                _ => window.mul_f64(rng.range_f64(0.0, 0.05)),
            };
            let at = format!("case {case} step {step} window {window}");
            match rng.below(6) {
                0 => assert_eq!(real.bytes(now), model.bytes(now), "{at}"),
                1 => {
                    let want = model.bytes(now) as f64 * 8.0 / window.as_secs_f64();
                    assert_eq!(real.bps(now).to_bits(), want.to_bits(), "{at}");
                }
                2 => {
                    // A run with no read: up to a few windows' worth of
                    // records, some of them at one instant.
                    for _ in 0..rng.below(400) {
                        if rng.below(3) != 0 {
                            now += window.mul_f64(rng.range_f64(0.0, 0.02));
                        }
                        let bytes = rng.below(1 << 20);
                        real.record(now, bytes);
                        model.record(now, bytes);
                    }
                    assert_eq!(real.bytes(now), model.bytes(now), "{at}: after a run");
                }
                3 => {
                    // A burst at one instant, read or not.
                    for _ in 0..rng.range_u64(2, 40) {
                        let bytes = rng.below(1 << 20);
                        real.record(now, bytes);
                        model.record(now, bytes);
                    }
                    if rng.below(2) == 0 {
                        assert_eq!(real.bytes(now), model.bytes(now), "{at}: after a burst");
                    }
                }
                _ => {
                    let bytes = rng.below(1 << 20);
                    real.record(now, bytes);
                    model.record(now, bytes);
                    assert_eq!(real.bytes(now), model.total, "{at}");
                }
            }
        }
        now += window.mul_f64(1.5);
        assert_eq!(real.bytes(now), 0, "case {case}: everything slides off");
    }
}

/// A window written and never read prunes only when its store fills, so
/// it holds at most about twice one window's entries however long it
/// runs: 100 records a second for 10^4 simulated seconds.
#[test]
fn an_unread_window_holds_at_most_twice_one_windows_entries() {
    fn most_held<S: WindowStore>() -> usize {
        let mut meter = SlidingWindow::<S>::new(SimDur::from_secs(1));
        let mut most = 0;
        for k in 0..1_000_000 {
            meter.record(SimTime::from_millis(10 * k), 1);
            most = most.max(meter.held());
        }
        assert_eq!(meter.bytes(SimTime::from_secs(10_000)), 100);
        most
    }
    // Records at t - 1 s .. t: one window holds 101 entries.
    let one_window = 101;
    for (layout, most) in [
        ("spill", most_held::<Spill>()),
        ("deque", most_held::<VecDeque<Entry>>()),
    ] {
        assert!(
            most <= 2 * one_window,
            "{layout}: held {most} entries, one window is {one_window}"
        );
    }
}

// ---------- ConnTrack: positions are hints ----------

fn conn(local: usize, remote: usize, tag: u32) -> ConnId {
    ConnId {
        local: NodeId(local),
        remote: NodeId(remote),
        proto: Proto::Tcp,
        tag,
    }
}

/// `(messages, bytes, retransmissions)` of every connection, as the table
/// iterates them.
fn tally(ct: &ConnTrack) -> Vec<(ConnId, (u64, u64, u64))> {
    ct.iter()
        .map(|(id, s)| (*id, (s.messages(), s.bytes_total(), s.retransmissions())))
        .collect()
}

#[test]
fn conn_track_never_credits_the_wrong_connection_whatever_position_it_is_handed() {
    let mut rng = SimRng::seed_from_u64(0x00C0_22AC);
    for case in 0..100 {
        // Two hosts' tables, so a position can come from the other one.
        let mut tables = [ConnTrack::new(), ConnTrack::new()];
        let mut model = [BTreeMap::new(), BTreeMap::new()];
        // The position each caller kept per connection.
        let mut kept: [BTreeMap<ConnId, u32>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut now = SimTime::ZERO;
        for step in 0..400 {
            now += SimDur::from_millis(rng.range_u64(1, 50));
            let host = rng.below(2) as usize;
            let id = conn(host, rng.below(12) as usize, rng.below(2) as u32);
            let at = format!("case {case} step {step}");
            if rng.below(8) == 0 {
                // Close: every later position in this table goes stale.
                let closed = tables[host].close(id);
                assert_eq!(closed.is_some(), model[host].remove(&id).is_some(), "{at}");
                continue;
            }
            let hint = match rng.below(6) {
                0 => u32::MAX,
                1 => rng.below(16) as u32,
                2 => kept[1 - host].values().next().copied().unwrap_or(7),
                _ => kept[host].get(&id).copied().unwrap_or(u32::MAX),
            };
            let (bytes, retx) = (rng.below(5000), rng.below(4) == 0);
            let one_way = SimDur::from_micros(rng.range_u64(100, 900));
            let pos = tables[host].record_delivery(hint, id, now, bytes, one_way, retx);
            kept[host].insert(id, pos);
            let m: &mut (u64, u64, u64) = model[host].entry(id).or_default();
            *m = (m.0 + 1, m.1 + bytes, m.2 + u64::from(retx));
            // Exactly the named connection moved, in the named table, and
            // the walk stays ascending by id.
            for h in 0..2 {
                let want: Vec<_> = model[h].iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(tally(&tables[h]), want, "{at} host {h}");
            }
            let (found, _) = tables[host].iter().nth(pos as usize).expect("a row");
            assert_eq!(*found, id, "{at}: the position returned is the row's");
        }
    }
}

// ---------- the d-mon peer table's per-metric rows ----------

/// A module registered at run time, for metric ids past the standard set.
struct Extra(&'static str, &'static str);

impl MonitorModule for Extra {
    fn file_name(&self) -> &'static str {
        self.1
    }
    fn metric_name(&self) -> &'static str {
        self.0
    }
    fn sample(&mut self, _: &mut Host, now: SimTime, rec: &mut Vec<u64>) -> f64 {
        rec.push(now.as_nanos());
        now.as_secs_f64()
    }
    fn renderer(&self) -> RecordRender {
        |rec, out| out.push_str(&format!("{rec:?}"))
    }
}

const EXTRAS: [(&str, &str); 3] = [("X_ONE", "xone"), ("X_TWO", "xtwo"), ("X_THREE", "xthree")];

/// Node 0 of a three-node star running the five standard modules, POWER
/// MON and [`EXTRAS`]: nine metric ids, five of them standard.
fn nine_metric_dmon() -> (DMon, Host, Directory, ChannelId, ChannelId) {
    let names = ["alan", "maui", "etna"].map(String::from).to_vec();
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    dmon.register_module(Box::new(PowerMon));
    for (metric, file) in EXTRAS {
        dmon.register_module(Box::new(Extra(metric, file)));
    }
    let host = Host::new("alan", NodeId(0), &HostConfig::testbed());
    let mut dir = Directory::default();
    let (mon, ctl) = (dir.open("mon"), dir.open("ctl"));
    for n in 0..3 {
        dir.subscribe(mon, NodeId(n));
        dir.subscribe(ctl, NodeId(n));
    }
    (dmon, host, dir, mon, ctl)
}

/// A data frame from node 1 at stream position `sseq` carrying `records`
/// as `(metric id, value)`, with the schema block a publisher running
/// [`nine_metric_dmon`]'s modules would attach.
fn frame_from_1(mon: ChannelId, sseq: u32, records: &[(u32, f64)]) -> Event {
    let ext_names = [("BATTERY", "power")].into_iter().chain(EXTRAS);
    let ext_names = (5u32..)
        .zip(ext_names)
        .filter(|(id, _)| records.iter().any(|r| r.0 == *id))
        .map(|(id, (metric, file))| (id, metric.to_string(), file.to_string()))
        .collect();
    frame_with_schema(mon, sseq, records, ext_names)
}

/// A data frame from node 1 whose schema block is the caller's to write.
fn frame_with_schema(
    mon: ChannelId,
    sseq: u32,
    records: &[(u32, f64)],
    ext_names: Vec<(u32, String, String)>,
) -> Event {
    let payload = MonitoringPayload {
        origin: NodeId(1),
        epoch: 0,
        stream_seq: sseq,
        credit_grant: 0,
        records: records
            .iter()
            .map(|&(metric_id, value)| MonRecord {
                metric_id,
                value,
                last_value_sent: 0.0,
                timestamp: 0.5,
            })
            .collect(),
        pad_bytes: 0,
        ext_names,
    };
    Event::monitoring(mon.0, u64::from(sseq), NodeId(1), payload)
}

const METRICS: [&str; 9] = [
    "LOADAVG",
    "FREEMEM",
    "DISKUSAGE",
    "NET_AVAIL",
    "CACHE_MISS",
    "BATTERY",
    "X_ONE",
    "X_TWO",
    "X_THREE",
];

#[test]
fn per_metric_rows_match_a_vector_by_id_through_publication_eviction_and_restart() {
    let (mut dmon, mut host, dir, mon, ctl) = nine_metric_dmon();
    let calib = Calib::default();
    let mut rng = SimRng::seed_from_u64(0x0005_E17D);
    // What a `Vec<Option<_>>` indexed by metric id would hold of node 1's
    // values: the structure the rows replaced.
    let mut heard: Vec<Option<(f64, SimTime)>> = vec![None; METRICS.len()];
    let mut sseq = 0;
    let mut hear = |dmon: &mut DMon, host: &mut Host, heard: &mut Vec<_>, now: SimTime| {
        let n = rng.range_u64(1, 6) as usize;
        let records: Vec<(u32, f64)> = (0..n)
            .map(|_| (rng.below(9) as u32, rng.range_f64(-5.0, 5.0)))
            .collect();
        dmon.on_event(host, &frame_from_1(mon, sseq, &records), 120, now, &calib);
        sseq += 1;
        for (id, value) in records {
            heard[id as usize] = Some((value, now));
        }
    };
    let secs = SimTime::from_secs;
    // A poll, with both subscribers granting what they absorbed first: a
    // publisher nobody grants credits walks its degradation ladder down
    // and stops sending unchanged values, and this is not about that.
    let mut grants = [GrantCounter::default(); 2];
    let mut poll = |dmon: &mut DMon, host: &mut Host, now: SimTime| {
        for (sub, grants) in [1, 2].into_iter().zip(&mut grants) {
            grants.owe(1);
            if let Some(credits) = grants.fold() {
                dmon.on_control(NodeId(sub), &ControlMsg::Credit { credits }, &calib);
            }
        }
        dmon.poll(host, &dir, mon, ctl, now, &calib);
    };
    // Publication: every poll sends all nine metrics to each subscriber,
    // and frames from node 1 land under ids on both sides of the row's
    // inline capacity.
    for t in 1..=20 {
        poll(&mut dmon, &mut host, secs(t));
        assert_eq!(dmon.last_sent_len(NodeId(1)), METRICS.len(), "poll {t}");
        hear(
            &mut dmon,
            &mut host,
            &mut heard,
            secs(t) + SimDur::from_millis(300),
        );
        for (id, name) in METRICS.iter().enumerate() {
            assert_eq!(
                dmon.remote_value(NodeId(1), name),
                heard[id],
                "{name} at {t}"
            );
        }
    }
    assert!(heard.iter().all(Option::is_some), "every id was exercised");
    assert_eq!(dmon.events_rejected(), 0);
    assert!(host
        .proc
        .read("cluster/maui/xthree")
        .unwrap()
        .starts_with("xthree "));

    // Eviction: node 1 falls silent, its last-sent row is reaped whole,
    // what was heard from it stays readable.
    for t in 21..=30 {
        poll(&mut dmon, &mut host, secs(t));
    }
    assert_eq!(dmon.peer_health(NodeId(1)), Some(PeerHealth::Dead));
    assert_eq!(dmon.last_sent_len(NodeId(1)), 0);
    assert_eq!(
        dmon.last_sent_len(NodeId(2)),
        METRICS.len(),
        "only the dead peer's"
    );
    for (id, name) in METRICS.iter().enumerate() {
        assert_eq!(
            dmon.remote_value(NodeId(1), name),
            heard[id],
            "{name} after eviction"
        );
    }
    // It speaks again: publication toward it resumes and rebuilds the row.
    hear(&mut dmon, &mut host, &mut heard, secs(31));
    poll(&mut dmon, &mut host, secs(32));
    assert_eq!(dmon.last_sent_len(NodeId(1)), METRICS.len());

    // Restart: every row empties, and refills from the next frames with
    // the same files behind the same ids.
    dmon.on_revive();
    heard.fill(None);
    for peer in [1, 2] {
        assert_eq!(dmon.last_sent_len(NodeId(peer)), 0);
    }
    for name in METRICS {
        assert_eq!(
            dmon.remote_value(NodeId(1), name),
            None,
            "{name} after restart"
        );
    }
    for t in 33..=40 {
        hear(&mut dmon, &mut host, &mut heard, secs(t));
        poll(&mut dmon, &mut host, secs(t));
        // The schema is relearned from the frames; until an extension
        // id's name arrives again its metric resolves to nothing.
        for (id, name) in METRICS.iter().enumerate() {
            assert_eq!(
                dmon.remote_value(NodeId(1), name),
                heard[id],
                "{name} at {t}"
            );
        }
    }
    assert_eq!(dmon.last_sent_len(NodeId(2)), METRICS.len());
}

// ---------- a peer that chooses its metric ids ----------

#[test]
fn hostile_metric_ids_cost_a_bounded_row_and_leave_standard_records_alone() {
    let names = ["alan", "maui"].map(String::from).to_vec();
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    let mut host = Host::new("alan", NodeId(0), &HostConfig::testbed());
    let calib = Calib::default();
    let mon = ChannelId(0);
    // Warm: the peer's row, its five standard files and `control` exist.
    let standard: Vec<(u32, f64)> = (0..5).map(|id| (id, 1.0)).collect();
    let now = SimTime::from_secs(1);
    dmon.on_event(
        &mut host,
        &frame_from_1(mon, 0, &standard),
        120,
        now,
        &calib,
    );

    let before = alloc::live();
    // `output[0].id = 1048576;` is valid, certifiable E-code: any
    // application that can write a control file makes a publisher emit
    // it. One such frame, then ten thousand with two new ids each. (All
    // stay near 2^20, so that where an id still sizes a vector the test
    // fails on tens of megabytes and not on the machine's memory.)
    let hostile = (1..=10_000u32).map(|k| ((1 << 20) + k, (1 << 21) - k));
    for (k, ids) in std::iter::once((1 << 20, 1 << 20))
        .chain(hostile)
        .enumerate()
    {
        let value = k as f64;
        let records = [(ids.0, -1.0), (2, value), (ids.1, -2.0), (4, value)];
        let ev = frame_from_1(mon, 1 + k as u32, &records);
        dmon.on_event(&mut host, &ev, 120, now, &calib);
        // The standard records of the same frame land.
        assert_eq!(
            dmon.remote_value(NodeId(1), "DISKUSAGE"),
            Some((value, now))
        );
        assert_eq!(
            dmon.remote_value(NodeId(1), "CACHE_MISS"),
            Some((value, now))
        );
        // A few slots past the standard set and one shared `extra` file,
        // however many ids and however large: at the parent commit the
        // first of these frames grew two vectors to a million entries
        // each (40 MB).
        let grown = alloc::live() - before;
        assert!(
            grown < 4096,
            "frame {k}: {grown} bytes held for a peer's choice of ids"
        );
    }
    assert_eq!(dmon.stats.events_received, 10_002);
    let rejected = dmon.events_rejected();
    assert!(
        (19_900..=20_002).contains(&rejected),
        "{rejected} records refused: all but the few that found a slot"
    );
    assert_eq!(
        host.proc.list("cluster/maui").unwrap(),
        ["control", "cpu", "disk", "extra", "mem", "net", "pmc"]
    );
}

// ---------- a peer that chooses what its schema blocks and digests name ----------

#[test]
fn hostile_schema_blocks_cost_a_bounded_table_and_leave_learned_names_alone() {
    let names = ["alan", "maui"].map(String::from).to_vec();
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    let mut host = Host::new("alan", NodeId(0), &HostConfig::testbed());
    let calib = Calib::default();
    let mon = ChannelId(0);
    // Warm: the peer's row, its standard files, and one name honestly
    // learned — POWER MON's, which this node has no module for.
    let warm: Vec<(u32, f64)> = (0..6).map(|id| (id, 1.0)).collect();
    let now = SimTime::from_secs(1);
    dmon.on_event(&mut host, &frame_from_1(mon, 0, &warm), 120, now, &calib);
    assert_eq!(dmon.remote_value(NodeId(1), "BATTERY"), Some((1.0, now)));

    let before = alloc::live();
    // Ten thousand frames, each naming two ids nobody has heard of: at the
    // parent commit every one of the twenty thousand names was kept.
    for k in 1..=10_000u32 {
        let value = f64::from(k);
        let schema = [k, 20_000 + k]
            .map(|id| ((1 << 20) + id, format!("M_{id}"), format!("f{id}")))
            .to_vec();
        let records = [(2, value), (5, value)];
        let ev = frame_with_schema(mon, k, &records, schema);
        dmon.on_event(&mut host, &ev, 120, now, &calib);
        drop(ev);
        // The records of the same frame land, under the learned name too.
        assert_eq!(
            dmon.remote_value(NodeId(1), "DISKUSAGE"),
            Some((value, now))
        );
        assert_eq!(dmon.remote_value(NodeId(1), "BATTERY"), Some((value, now)));
        let grown = alloc::live() - before;
        assert!(
            grown < 8192,
            "frame {k}: {grown} bytes held for a peer's choice of names"
        );
    }
    // A row has sixteen slots past the standard set, so an origin gets
    // sixteen names: POWER MON's and the first fifteen of these.
    assert_eq!(dmon.events_rejected(), 20_000 - 15);
    assert_eq!(
        host.proc.list("cluster/maui").unwrap(),
        ["control", "cpu", "disk", "mem", "net", "pmc", "power"]
    );
}

#[test]
fn schema_names_longer_than_a_proc_leaf_are_refused_and_hold_no_heap() {
    let names = ["alan", "maui"].map(String::from).to_vec();
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    let mut host = Host::new("alan", NodeId(0), &HostConfig::testbed());
    let calib = Calib::default();
    let mon = ChannelId(0);
    // Warm, as above: POWER MON's name honestly learned.
    let warm: Vec<(u32, f64)> = (0..6).map(|id| (id, 1.0)).collect();
    let now = SimTime::from_secs(1);
    dmon.on_event(&mut host, &frame_from_1(mon, 0, &warm), 120, now, &calib);
    let listing = host.proc.list("cluster/maui").unwrap();

    let before = alloc::live();
    // Sixteen ids, each named in 64 KB — a frame has room for that. At
    // the parent commit the table kept fifteen of them, metric and file
    // names both: close to two megabytes for one peer.
    let long = |c: char, id: u32| format!("{c}{id}{}", "x".repeat(64 << 10));
    for k in 1..=8u32 {
        let value = f64::from(k);
        let schema = (0..16u32)
            .map(|i| ((1 << 20) + i, long('M', i), long('f', i)))
            .collect();
        let records = [(2, value), (5, value)];
        let ev = frame_with_schema(mon, k, &records, schema);
        dmon.on_event(&mut host, &ev, 120, now, &calib);
        drop(ev);
        // The valid records of the same frame land.
        assert_eq!(
            dmon.remote_value(NodeId(1), "DISKUSAGE"),
            Some((value, now))
        );
        assert_eq!(dmon.remote_value(NodeId(1), "BATTERY"), Some((value, now)));
        assert_eq!(dmon.remote_value(NodeId(1), &long('M', 0)), None);
        let grown = alloc::live() - before;
        assert!(
            grown < 8192,
            "frame {k}: {grown} bytes held for a peer's choice of names"
        );
    }
    assert_eq!(
        dmon.events_rejected(),
        8 * 16,
        "every long name, every frame"
    );
    assert_eq!(host.proc.list("cluster/maui").unwrap(), listing);
}

#[test]
fn hostile_digests_cost_bounded_tables_and_leave_the_racks_that_exist_alone() {
    let names = ["alan", "maui", "etna"].map(String::from).to_vec();
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    let mut host = Host::new("alan", NodeId(0), &HostConfig::testbed());
    let calib = Calib::default();
    let record = |metric_id, mean| DigestRecord {
        metric_id,
        min: mean,
        max: mean,
        mean,
        count: 1,
        // No sample time, so no freshness sample: that sampler keeps one
        // value per digest received, whoever sent it.
        newest_ts: f64::NEG_INFINITY,
    };
    let digest = |seq: u32, rack, records| {
        let payload = DigestPayload {
            rack,
            origin: NodeId(1),
            members: 1,
            records,
        };
        Event::digest(2, u64::from(seq), NodeId(1), payload)
    };
    let now = SimTime::from_secs(1);
    // Warm: rack 0's directory and its `cpu` summary exist.
    let warm = digest(0, 0, vec![record(0, 0.0)]);
    dmon.on_digest(&mut host, &warm, 100, now, &calib);

    let before = alloc::live();
    // Ten thousand digests. The even ones are rack 0's, each with a metric
    // id of its own next to the real one; the odd ones each name a rack of
    // their own, which a three-node cluster cannot have. At the parent
    // commit every rack kept a payload and every (rack, id) a handle.
    for k in 1..=10_000u32 {
        let value = f64::from(k);
        let rack = if k % 2 == 0 { 0 } else { 1000 + k };
        let ev = digest(k, rack, vec![record(0, value), record(100 + k, -1.0)]);
        dmon.on_digest(&mut host, &ev, 100, now, &calib);
        drop(ev);
        if rack == 0 {
            let text = host.proc.read("cluster/rack0/cpu").unwrap();
            assert!(text.contains(&format!("mean {value} ")), "{k}: {text}");
            assert_eq!(dmon.rack_digest(0).unwrap().records[0].mean, value);
        }
        let grown = alloc::live() - before;
        assert!(
            grown < 8192,
            "digest {k}: {grown} bytes held for a peer's choice of racks and ids"
        );
    }
    assert!(dmon.rack_digest(1001).is_none());
    assert_eq!(dmon.stats.digests_received, 1 + 5000);
    // Five thousand digests for racks that cannot be, and all but twenty
    // of rack 0's five thousand strange ids: its directory holds
    // twenty-one files' worth of ids, and `cpu` has one.
    assert_eq!(dmon.events_rejected(), 5000 + (5000 - 20));
    assert_eq!(host.proc.list("cluster/rack0").unwrap(), ["cpu", "extra"]);
    assert!(host.proc.list("cluster/rack1001").is_err());
}

#[test]
fn a_digests_record_count_costs_a_bounded_kept_payload_per_rack() {
    // 64 nodes, so 64 rack numbers a digest may name.
    let names: Vec<String> = (0..64).map(|k| format!("n{k}")).collect();
    let racks = names.len() as u32;
    let mut dmon = DMon::new(NodeId(0), names, standard_modules(), SimDur::from_secs(1));
    let mut host = Host::new("n0", NodeId(0), &HostConfig::testbed());
    let calib = Calib::default();
    let now = SimTime::from_secs(1);
    let digest = |seq: u64, rack, records| {
        let payload = DigestPayload {
            rack,
            origin: NodeId(1),
            members: 1,
            records,
        };
        Event::digest(2, seq, NodeId(1), payload)
    };
    let record = |metric_id, mean| DigestRecord {
        metric_id,
        min: mean,
        max: mean,
        mean,
        count: 1,
        newest_ts: f64::NEG_INFINITY,
    };

    let before = alloc::live();
    // Every rack number, three times over, in digests of 255 records (a
    // frame has room for them) that name ids 0..128 and then most of them
    // again. At the parent commit each rack kept the whole payload, 10 200
    // bytes of records a rack: 42 MB per spine subscriber at 4096 nodes.
    let mut seq = 0;
    for _ in 0..3 {
        for rack in 0..racks {
            let records = (0..255u32).map(|i| record(i % 128, f64::from(i))).collect();
            seq += 1;
            dmon.on_digest(&mut host, &digest(seq, rack, records), 100, now, &calib);
        }
    }
    let grown = alloc::live() - before;
    let per_rack = grown / i64::from(racks);
    assert!(
        per_rack < 4096,
        "{per_rack} bytes held per rack for a peer's record count ({grown} in all)"
    );
    assert_eq!(dmon.stats.digest_records, 3 * 255 * u64::from(racks));
    // One record per id the directory has a file for, the last one sent.
    for rack in 0..racks {
        let kept = &dmon.rack_digest(rack).expect("a kept digest").records;
        let ids: Vec<u32> = kept.iter().map(|r| r.metric_id).collect();
        assert_eq!(ids, (0..21).collect::<Vec<_>>(), "rack {rack}");
        assert!(kept.iter().all(|r| r.mean == f64::from(128 + r.metric_id)));
    }
    // A valid digest, one record per standard metric, is kept whole.
    let valid: Vec<_> = (0..5).map(|id| record(id, 0.5)).collect();
    let ev = digest(seq + 1, 7, valid);
    dmon.on_digest(&mut host, &ev, 100, now, &calib);
    assert_eq!(dmon.rack_digest(7), ev.as_digest());
    let text = host.proc.read("cluster/rack7/cpu").unwrap();
    assert!(
        text.starts_with("min 0.5 max 0.5 mean 0.5 count 1"),
        "{text}"
    );
}
