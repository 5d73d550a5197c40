//! The monitoring modules.
//!
//! Each module registers with d-mon and is polled through a callback at
//! every iteration — exactly the paper's `register_service(callback)`
//! design. A module produces one headline metric value (what travels in
//! monitoring events and what E-code filters see) plus a detail *record*:
//! the numbers behind this node's own `/proc/cluster/<node>/<file>` entry.
//!
//! The contract of [`MonitorModule`] is the kernel's for a pseudo-file:
//! [`MonitorModule::sample`] is the poll callback and moves numbers only
//! — it fills a few `u64` words and formats nothing; the function
//! [`MonitorModule::renderer`] names turns such a record into the file's
//! text, and runs when somebody reads the file (`simos::ProcFs` keeps the
//! words and the function, see its module docs), so a reader pays for
//! presentation and a poll does not. [`MonitorModule::collect`], sample
//! and render in one call, is a shim for the frozen benchmark probe.
//!
//! The five modules of the paper:
//!
//! | module   | `/proc` file | E-code constant | value                          |
//! |----------|--------------|-----------------|--------------------------------|
//! | CPU MON  | `cpu`        | `LOADAVG`       | run-queue average over window  |
//! | MEM MON  | `mem`        | `FREEMEM`       | free memory in bytes           |
//! | DISK MON | `disk`       | `DISKUSAGE`     | sectors moved in window        |
//! | NET MON  | `net`        | `NET_AVAIL`     | available bandwidth, bps       |
//! | PMC      | `pmc`        | `CACHE_MISS`    | cumulative cache misses        |
//!
//! [`PowerMon`] (`power` / `BATTERY`) is the run-time-deployable sixth
//! module for mobile hosts.

use std::fmt::Write;

use simcore::{SimDur, SimTime};
use simos::pmc::PmcEvent;
use simos::{Host, RecordRender};

/// A monitoring module registered with d-mon. `Send` so a node's d-mon
/// (modules included) can live on a worker shard of the parallel scheduler.
pub trait MonitorModule: Send + Sync {
    /// `/proc/cluster/<node>/<file_name>` leaf name.
    fn file_name(&self) -> &'static str;
    /// Name of the metric constant in E-code filter environments.
    fn metric_name(&self) -> &'static str;
    /// The d-mon poll callback: append the words of the `/proc` detail
    /// record to `rec` (handed in cleared, reused across polls so
    /// steady-state sampling allocates nothing) and return the headline
    /// value that travels on the channel and that filters compare.
    /// Numbers only — text is the [`MonitorModule::renderer`]'s job.
    fn sample(&mut self, host: &mut Host, now: SimTime, rec: &mut Vec<u64>) -> f64;
    /// The function that turns a record [`MonitorModule::sample`] filled
    /// into the file's text. It runs when the file is read, on the words
    /// alone, so everything the text shows must be in the record.
    fn renderer(&self) -> RecordRender;
    /// Sample and render in one call, appending the text to `detail`.
    /// Kept only because the frozen `benchmark/src/probes.rs` times it
    /// (`dproc.modules.collect_ns`); d-mon never calls it. ROADMAP item
    /// 2(d)'s `benchmark/`-scoped PR re-points that probe at `sample` and
    /// deletes this method.
    fn collect(&mut self, host: &mut Host, now: SimTime, detail: &mut String) -> f64 {
        let mut rec = Vec::new();
        let value = self.sample(host, now, &mut rec);
        self.renderer()(&rec, detail);
        value
    }
    /// Change the module's averaging window, when it has one (the paper's
    /// CPU MON takes an application-specified period). Default: ignored.
    fn set_window(&mut self, _window: SimDur) {}
}

/// CPU MON: average run-queue length over an application-specified window
/// (default 1 minute, like `/proc/loadavg`'s shortest).
#[derive(Debug)]
pub struct CpuMon {
    window: SimDur,
}

impl CpuMon {
    /// Default 60 s window.
    pub fn new() -> Self {
        CpuMon {
            window: SimDur::from_secs(60),
        }
    }

    /// The record is `[loadavg bits, window_s, runnable, cpus]`.
    fn render(rec: &[u64], out: &mut String) {
        let &[la, window_s, runnable, cpus] = rec else {
            return;
        };
        let la = f64::from_bits(la);
        let _ = write!(
            out,
            "loadavg {la:.2} window_s {window_s} runnable {runnable} cpus {cpus}"
        );
    }
}

impl Default for CpuMon {
    fn default() -> Self {
        Self::new()
    }
}

impl MonitorModule for CpuMon {
    fn file_name(&self) -> &'static str {
        "cpu"
    }
    fn metric_name(&self) -> &'static str {
        "LOADAVG"
    }
    fn sample(&mut self, host: &mut Host, now: SimTime, rec: &mut Vec<u64>) -> f64 {
        host.cpu.advance(now);
        let la = host.cpu.loadavg(now, self.window);
        let (runnable, cpus) = (host.cpu.runnable(), host.cpu.n_cpus());
        rec.extend([
            la.to_bits(),
            self.window.as_secs(),
            runnable as u64,
            cpus as u64,
        ]);
        la
    }
    fn renderer(&self) -> RecordRender {
        Self::render
    }
    fn set_window(&mut self, window: SimDur) {
        if !window.is_zero() {
            self.window = window;
        }
    }
}

/// MEM MON: free memory via `nr_free_pages`.
#[derive(Debug, Default)]
pub struct MemMon;

impl MemMon {
    fn render(rec: &[u64], out: &mut String) {
        let &[free, free_pages, total_pages] = rec else {
            return;
        };
        let _ = write!(
            out,
            "free_bytes {free} free_pages {free_pages} total_pages {total_pages}"
        );
    }
}

impl MonitorModule for MemMon {
    fn file_name(&self) -> &'static str {
        "mem"
    }
    fn metric_name(&self) -> &'static str {
        "FREEMEM"
    }
    fn sample(&mut self, host: &mut Host, _now: SimTime, rec: &mut Vec<u64>) -> f64 {
        let free = host.mem.free_bytes();
        rec.extend([free, host.mem.nr_free_pages(), host.mem.total_pages()]);
        free as f64
    }
    fn renderer(&self) -> RecordRender {
        Self::render
    }
}

/// DISK MON: sectors read+written over its window (default 1 s).
#[derive(Debug)]
pub struct DiskMon;

impl DiskMon {
    fn render(rec: &[u64], out: &mut String) {
        let &[window, reads, writes, read, written] = rec else {
            return;
        };
        let _ = write!(
            out,
            "sectors_window {window} reads {reads} writes {writes} \
             sectors_read {read} sectors_written {written}"
        );
    }
}

impl MonitorModule for DiskMon {
    fn file_name(&self) -> &'static str {
        "disk"
    }
    fn metric_name(&self) -> &'static str {
        "DISKUSAGE"
    }
    fn sample(&mut self, host: &mut Host, now: SimTime, rec: &mut Vec<u64>) -> f64 {
        let sr = host.disk.sectors_read_rate(now);
        let sw = host.disk.sectors_written_rate(now);
        let d = &host.disk;
        rec.extend([
            sr + sw,
            d.reads(),
            d.writes(),
            d.sectors_read(),
            d.sectors_written(),
        ]);
        (sr + sw) as f64
    }
    fn renderer(&self) -> RecordRender {
        Self::render
    }
}

/// NET MON: available network bandwidth (bps), estimated from interface
/// counters (line rate minus background minus tracked-connection
/// throughput), plus per-connection detail (RTT, retransmissions, losses).
/// The headline value is what the SmartPointer server consumes to size a
/// client's stream.
#[derive(Debug, Default)]
pub struct NetMon;

impl NetMon {
    /// The record is `[avail bits, used bits]`, then six words per
    /// connection (`NodeId` displays as `n<index>`). The connection lines
    /// are listed sorted *as strings* (`n10` before `n2`), which is not
    /// the record's connection-id order.
    fn render(rec: &[u64], out: &mut String) {
        let Some((&[avail, used], conns)) = rec.split_first_chunk() else {
            return;
        };
        let (avail, used) = (f64::from_bits(avail), f64::from_bits(used));
        let (conns, _) = conns.as_chunks::<6>();
        let mut lines: Vec<String> = conns
            .iter()
            .map(|[local, remote, tag, rtt_us, retx, lost]| {
                format!(
                    "conn n{local}->n{remote} tag {tag} rtt_us {rtt_us} retx {retx} lost {lost}"
                )
            })
            .collect();
        lines.sort_unstable();
        let _ = write!(
            out,
            "avail_bps {avail:.0} used_bps {used:.0}\n{}",
            lines.join("\n")
        );
    }
}

impl MonitorModule for NetMon {
    fn file_name(&self) -> &'static str {
        "net"
    }
    fn metric_name(&self) -> &'static str {
        "NET_AVAIL"
    }
    fn sample(&mut self, host: &mut Host, now: SimTime, rec: &mut Vec<u64>) -> f64 {
        // One walk: the rows, and the used-bandwidth sum in connection-id
        // order, as `ConnTrack::total_used_bps` adds it.
        let head = rec.len();
        rec.extend([0, 0]);
        let mut total = 0.0;
        for (id, st) in host.conns.iter_mut() {
            total += st.used_bps(now);
            rec.extend([
                id.local.0 as u64,
                id.remote.0 as u64,
                u64::from(id.tag),
                st.rtt().map_or(0, simcore::SimDur::as_micros),
                st.retransmissions(),
                0, // lost: a UDP figure, and every tracked connection is TCP
            ]);
        }
        let avail = host.available_bps(total);
        rec[head..head + 2].copy_from_slice(&[avail.to_bits(), total.to_bits()]);
        avail
    }
    fn renderer(&self) -> RecordRender {
        Self::render
    }
}

/// PMC: cumulative cache-miss counter.
#[derive(Debug, Default)]
pub struct PmcMon;

impl PmcMon {
    fn render(rec: &[u64], out: &mut String) {
        let &[misses, instructions, cycles] = rec else {
            return;
        };
        let _ = write!(
            out,
            "cache_misses {misses} instructions {instructions} cycles {cycles}"
        );
    }
}

impl MonitorModule for PmcMon {
    fn file_name(&self) -> &'static str {
        "pmc"
    }
    fn metric_name(&self) -> &'static str {
        "CACHE_MISS"
    }
    fn sample(&mut self, host: &mut Host, _now: SimTime, rec: &mut Vec<u64>) -> f64 {
        let misses = host.pmc.read(PmcEvent::CacheMisses);
        rec.extend([
            misses,
            host.pmc.read(PmcEvent::Instructions),
            host.pmc.read(PmcEvent::Cycles),
        ]);
        misses as f64
    }
    fn renderer(&self) -> RecordRender {
        Self::render
    }
}

/// POWER MON: remaining battery fraction — the paper's example of a
/// monitoring capability "available in the remote kernel but not directly
/// supported in dproc", deployable at run time on mobile hosts
/// ([`crate::DMon::register_module`]). Reports 1.0 on mains-powered hosts.
#[derive(Debug, Default)]
pub struct PowerMon;

impl PowerMon {
    /// The record is `[fraction bits, level_j bits, empty]`, or empty on
    /// a mains-powered host.
    fn render(rec: &[u64], out: &mut String) {
        let &[fraction, level_j, empty] = rec else {
            out.push_str("mains_powered");
            return;
        };
        let (fraction, level_j) = (f64::from_bits(fraction), f64::from_bits(level_j));
        let empty = empty != 0;
        let _ = write!(
            out,
            "battery_fraction {fraction:.4} level_j {level_j:.1} empty {empty}"
        );
    }
}

impl MonitorModule for PowerMon {
    fn file_name(&self) -> &'static str {
        "power"
    }
    fn metric_name(&self) -> &'static str {
        "BATTERY"
    }
    fn sample(&mut self, host: &mut Host, now: SimTime, rec: &mut Vec<u64>) -> f64 {
        host.advance(now);
        let Some(b) = &host.battery else { return 1.0 };
        rec.extend([
            b.fraction().to_bits(),
            b.level_j().to_bits(),
            u64::from(b.is_empty()),
        ]);
        b.fraction()
    }
    fn renderer(&self) -> RecordRender {
        Self::render
    }
}

/// The paper's full module set, in E-code environment order.
pub fn standard_modules() -> Vec<Box<dyn MonitorModule>> {
    vec![
        Box::new(CpuMon::new()),
        Box::new(MemMon),
        Box::new(DiskMon),
        Box::new(NetMon),
        Box::new(PmcMon),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmon::testkit::{edge_f64, rendered};
    use simnet::NodeId;
    use simos::host::HostConfig;

    fn host() -> Host {
        Host::new("t", NodeId(0), &HostConfig::testbed())
    }

    /// One poll callback and what a reader of its record would see:
    /// `(value, detail)`.
    fn collect(m: &mut dyn MonitorModule, h: &mut Host, now: SimTime) -> (f64, String) {
        let mut rec = Vec::new();
        let value = m.sample(h, now, &mut rec);
        (value, rendered(m.renderer(), &rec))
    }

    #[test]
    fn collect_shim_is_sample_then_render() {
        let (mut a, mut b) = (host(), host());
        for mut m in standard_modules() {
            let mut text = String::from("kept ");
            let value = m.collect(&mut a, SimTime::from_secs(1), &mut text);
            let (want, detail) = collect(&mut *m, &mut b, SimTime::from_secs(1));
            assert_eq!((value, text), (want, format!("kept {detail}")));
        }
    }

    proptest::proptest! {
        /// NET MON over 0–40 connections, node ids past 9 and 99: the
        /// listing is sorted as strings, whatever order the record has.
        #[test]
        fn net_renderer_lists_connections_sorted_as_strings(
            avail in edge_f64(),
            used in edge_f64(),
            conns in proptest::collection::vec(
                (0u64..300, 0u64..300, 0u64..4, proptest::any::<u64>(), 0u64..1000, 0u64..1000),
                0..41,
            ),
        ) {
            let mut rec = vec![avail.to_bits(), used.to_bits()];
            let mut lines = Vec::new();
            for &(l, r, tag, rtt, retx, lost) in &conns {
                rec.extend([l, r, tag, rtt, retx, lost]);
                lines.push(format!(
                    "conn n{l}->n{r} tag {tag} rtt_us {rtt} retx {retx} lost {lost}"
                ));
            }
            lines.sort();
            let want = format!("avail_bps {avail:.0} used_bps {used:.0}\n{}", lines.join("\n"));
            proptest::prop_assert_eq!(rendered(NetMon::render, &rec), want);
        }
    }

    #[test]
    fn net_mon_lists_n10_before_n2() {
        let mut h = host();
        for remote in [2, 10] {
            let id = simnet::ConnId {
                local: NodeId(0),
                remote: NodeId(remote),
                proto: simnet::conn::Proto::Tcp,
                tag: 0,
            };
            h.conns.open(id);
        }
        let mut rec = Vec::new();
        NetMon.sample(&mut h, SimTime::ZERO, &mut rec);
        assert_eq!((rec[3], rec[9]), (2, 10), "id order");
        let text = rendered(NetMon::render, &rec);
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert!(lines[0].starts_with("conn n0->n10 ") && lines[1].starts_with("conn n0->n2 "));
    }

    #[test]
    fn standard_set_has_five_modules() {
        let mods = standard_modules();
        assert_eq!(mods.len(), 5);
        let names: Vec<&str> = mods.iter().map(|m| m.file_name()).collect();
        assert_eq!(names, vec!["cpu", "mem", "disk", "net", "pmc"]);
        let metrics: Vec<&str> = mods.iter().map(|m| m.metric_name()).collect();
        assert_eq!(
            metrics,
            vec!["LOADAVG", "FREEMEM", "DISKUSAGE", "NET_AVAIL", "CACHE_MISS"]
        );
    }

    #[test]
    fn cpu_mon_windows() {
        let mut h = host();
        let mut m = CpuMon::new();
        let hog = h.cpu.spawn_compute(SimTime::ZERO, "hog");
        // after 60s of 1 runnable task, the 60s window reads 1.0
        let (value, _) = collect(&mut m, &mut h, SimTime::from_secs(60));
        assert!((value - 1.0).abs() < 1e-9, "{value}");
        // a 10s window at t=65 with the task killed at 60 reads 0.5
        h.cpu.kill(SimTime::from_secs(60), hog);
        m.set_window(SimDur::from_secs(10));
        let (value, _) = collect(&mut m, &mut h, SimTime::from_secs(65));
        assert!((value - 0.5).abs() < 1e-9, "{value}");
        // zero window ignored
        m.set_window(SimDur::ZERO);
        let _ = collect(&mut m, &mut h, SimTime::from_secs(65));
    }

    #[test]
    fn mem_mon_tracks_allocations() {
        let mut h = host();
        let mut m = MemMon;
        let (before, _) = collect(&mut m, &mut h, SimTime::ZERO);
        h.mem.alloc("x", 64 * 1024 * 1024);
        let (after, detail) = collect(&mut m, &mut h, SimTime::ZERO);
        assert_eq!(before - after, (64 * 1024 * 1024) as f64);
        assert!(detail.contains("free_pages"));
    }

    #[test]
    fn disk_mon_counts_window_sectors() {
        let mut h = host();
        let mut m = DiskMon;
        h.disk
            .submit(SimTime::ZERO, simos::disk::IoDir::Write, 512 * 20);
        h.disk
            .submit(SimTime::ZERO, simos::disk::IoDir::Read, 512 * 5);
        let (value, _) = collect(&mut m, &mut h, SimTime::from_millis(100));
        assert_eq!(value, 25.0);
        // window slides off
        let (value, _) = collect(&mut m, &mut h, SimTime::from_secs(5));
        assert_eq!(value, 0.0);
    }

    #[test]
    fn net_mon_reports_available_bandwidth_and_connections() {
        let mut h = host();
        let mut m = NetMon;
        let id = simnet::ConnId {
            local: NodeId(0),
            remote: NodeId(1),
            proto: simnet::conn::Proto::Tcp,
            tag: 7,
        };
        h.conns.open(id);
        h.conns
            .record_delivery(0, id, SimTime::ZERO, 125_000, SimDur::from_millis(2), false);
        let (value, detail) = collect(&mut m, &mut h, SimTime::from_millis(500));
        // 100 Mbps line rate - 1 Mbps connection throughput.
        assert!((value - 99e6).abs() < 1.0, "{value}");
        assert!(detail.contains("tag 7"));
        assert!(detail.contains("rtt_us 4000"));
        // An Iperf flood visible at the NIC shrinks the estimate.
        h.observed_background_bps = 80e6;
        let (value, _) = collect(&mut m, &mut h, SimTime::from_millis(500));
        assert!((value - 19e6).abs() < 1.0, "{value}");
    }

    #[test]
    fn pmc_mon_is_cumulative() {
        let mut h = host();
        let mut m = PmcMon;
        h.pmc.on_data_moved(3200);
        let (first, _) = collect(&mut m, &mut h, SimTime::ZERO);
        assert_eq!(first, 100.0);
        h.pmc.on_data_moved(3200);
        let (second, _) = collect(&mut m, &mut h, SimTime::ZERO);
        assert_eq!(second, 200.0);
    }
}
