//! The monitoring modules.
//!
//! Each module registers with d-mon and is polled through a callback at
//! every iteration — exactly the paper's `register_service(callback)`
//! design. A module produces one headline metric value (what travels in
//! monitoring events and what E-code filters see) plus a detail string
//! (what appears in the remote `/proc/cluster/<node>/<file>` entry).
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

use simcore::fastfmt;
use simcore::{SimDur, SimTime};
use simos::pmc::PmcEvent;
use simos::Host;

/// A monitoring module registered with d-mon. `Send` so a node's d-mon
/// (modules included) can live on a worker shard of the parallel scheduler.
pub trait MonitorModule: Send + Sync {
    /// `/proc/cluster/<node>/<file_name>` leaf name.
    fn file_name(&self) -> &'static str;
    /// Name of the metric constant in E-code filter environments.
    fn metric_name(&self) -> &'static str;
    /// The d-mon poll callback: append the `/proc` detail text to
    /// `detail` (handed in cleared, reused across polls so steady-state
    /// collection allocates nothing) and return the headline value that
    /// travels on the channel and that filters compare.
    fn collect(&mut self, host: &mut Host, now: SimTime, detail: &mut String) -> f64;
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
    fn collect(&mut self, host: &mut Host, now: SimTime, detail: &mut String) -> f64 {
        host.cpu.advance(now);
        let la = host.cpu.loadavg(now, self.window);
        // Piecewise assembly with the exact-output fast formatters;
        // equivalent to
        // `"loadavg {:.2} window_s {} runnable {} cpus {}"` via `format!`.
        detail.push_str("loadavg ");
        fastfmt::push_f64_fixed(detail, la, 2);
        detail.push_str(" window_s ");
        fastfmt::push_u64(detail, self.window.as_secs());
        detail.push_str(" runnable ");
        fastfmt::push_u64(detail, host.cpu.runnable() as u64);
        detail.push_str(" cpus ");
        fastfmt::push_u64(detail, host.cpu.n_cpus() as u64);
        la
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

impl MonitorModule for MemMon {
    fn file_name(&self) -> &'static str {
        "mem"
    }
    fn metric_name(&self) -> &'static str {
        "FREEMEM"
    }
    fn collect(&mut self, host: &mut Host, _now: SimTime, detail: &mut String) -> f64 {
        let free = host.mem.free_bytes();
        // Equivalent to
        // `"free_bytes {} free_pages {} total_pages {}"` via `format!`.
        detail.push_str("free_bytes ");
        fastfmt::push_u64(detail, free);
        detail.push_str(" free_pages ");
        fastfmt::push_u64(detail, host.mem.nr_free_pages());
        detail.push_str(" total_pages ");
        fastfmt::push_u64(detail, host.mem.total_pages());
        free as f64
    }
}

/// DISK MON: sectors read+written over its window (default 1 s).
#[derive(Debug)]
pub struct DiskMon;

impl MonitorModule for DiskMon {
    fn file_name(&self) -> &'static str {
        "disk"
    }
    fn metric_name(&self) -> &'static str {
        "DISKUSAGE"
    }
    fn collect(&mut self, host: &mut Host, now: SimTime, detail: &mut String) -> f64 {
        let sr = host.disk.sectors_read_rate(now);
        let sw = host.disk.sectors_written_rate(now);
        // Equivalent to `"sectors_window {} reads {} writes {} sectors_read
        // {} sectors_written {}"` via `format!`.
        detail.push_str("sectors_window ");
        fastfmt::push_u64(detail, sr + sw);
        detail.push_str(" reads ");
        fastfmt::push_u64(detail, host.disk.reads());
        detail.push_str(" writes ");
        fastfmt::push_u64(detail, host.disk.writes());
        detail.push_str(" sectors_read ");
        fastfmt::push_u64(detail, host.disk.sectors_read());
        detail.push_str(" sectors_written ");
        fastfmt::push_u64(detail, host.disk.sectors_written());
        (sr + sw) as f64
    }
}

/// NET MON: available network bandwidth (bps), estimated from interface
/// counters (line rate minus background minus tracked-connection
/// throughput), plus per-connection detail (RTT, retransmissions, losses).
/// The headline value is what the SmartPointer server consumes to size a
/// client's stream.
#[derive(Debug, Default)]
pub struct NetMon {
    /// Reused per-connection line buffers: formatting the connection table
    /// every poll is the single hottest formatting site in the pipeline,
    /// so lines are assembled with the exact-output fast formatters into
    /// pooled `String`s instead of fresh `format!` allocations.
    line_pool: Vec<String>,
}

impl MonitorModule for NetMon {
    fn file_name(&self) -> &'static str {
        "net"
    }
    fn metric_name(&self) -> &'static str {
        "NET_AVAIL"
    }
    fn collect(&mut self, host: &mut Host, now: SimTime, detail: &mut String) -> f64 {
        let avail = host.available_bps(now);
        let total = host.conns.total_used_bps(now);
        // Each line is byte-identical to the old
        // `"conn {}->{} tag {} rtt_us {} retx {} lost {}"` formatting
        // (NodeId displays as `n<index>`).
        let mut used = 0;
        // detlint: allow(unordered-iter) ConnTrack::iter walks its sorted index
        for (id, st) in host.conns.iter() {
            if self.line_pool.len() == used {
                self.line_pool.push(String::with_capacity(48));
            }
            let s = &mut self.line_pool[used];
            used += 1;
            s.clear();
            s.push_str("conn n");
            fastfmt::push_u64(s, id.local.0 as u64);
            s.push_str("->n");
            fastfmt::push_u64(s, id.remote.0 as u64);
            s.push_str(" tag ");
            fastfmt::push_u64(s, id.tag as u64);
            s.push_str(" rtt_us ");
            fastfmt::push_u64(s, st.rtt().map_or(0, simcore::SimDur::as_micros));
            s.push_str(" retx ");
            fastfmt::push_u64(s, st.retransmissions());
            s.push_str(" lost ");
            fastfmt::push_u64(s, st.losses());
        }
        // Sorting the pool slice keeps the listing deterministic (the
        // connection table iterates in hash order); buffer ownership just
        // moves within the pool.
        self.line_pool[..used].sort_unstable();
        detail.reserve(28 + used * 48);
        detail.push_str("avail_bps ");
        fastfmt::push_f64_fixed(detail, avail, 0);
        detail.push_str(" used_bps ");
        fastfmt::push_f64_fixed(detail, total, 0);
        detail.push('\n');
        for (i, line) in self.line_pool[..used].iter().enumerate() {
            if i > 0 {
                detail.push('\n');
            }
            detail.push_str(line);
        }
        avail
    }
}

/// PMC: cumulative cache-miss counter.
#[derive(Debug, Default)]
pub struct PmcMon;

impl MonitorModule for PmcMon {
    fn file_name(&self) -> &'static str {
        "pmc"
    }
    fn metric_name(&self) -> &'static str {
        "CACHE_MISS"
    }
    fn collect(&mut self, host: &mut Host, _now: SimTime, detail: &mut String) -> f64 {
        let misses = host.pmc.read(PmcEvent::CacheMisses);
        // Equivalent to
        // `"cache_misses {} instructions {} cycles {}"` via `format!`.
        detail.push_str("cache_misses ");
        fastfmt::push_u64(detail, misses);
        detail.push_str(" instructions ");
        fastfmt::push_u64(detail, host.pmc.read(PmcEvent::Instructions));
        detail.push_str(" cycles ");
        fastfmt::push_u64(detail, host.pmc.read(PmcEvent::Cycles));
        misses as f64
    }
}

/// POWER MON: remaining battery fraction — the paper's example of a
/// monitoring capability "available in the remote kernel but not directly
/// supported in dproc", deployable at run time on mobile hosts
/// ([`crate::DMon::register_module`]). Reports 1.0 on mains-powered hosts.
#[derive(Debug, Default)]
pub struct PowerMon;

impl MonitorModule for PowerMon {
    fn file_name(&self) -> &'static str {
        "power"
    }
    fn metric_name(&self) -> &'static str {
        "BATTERY"
    }
    fn collect(&mut self, host: &mut Host, now: SimTime, detail: &mut String) -> f64 {
        use std::fmt::Write;
        host.advance(now);
        match &host.battery {
            Some(b) => {
                let _ = write!(
                    detail,
                    "battery_fraction {:.4} level_j {:.1} empty {}",
                    b.fraction(),
                    b.level_j(),
                    b.is_empty()
                );
                b.fraction()
            }
            None => {
                detail.push_str("mains_powered");
                1.0
            }
        }
    }
}

impl NetMon {
    /// Test helper: collect and return just the detail text.
    #[doc(hidden)]
    pub fn collect_for_test(&mut self, host: &mut Host, now: SimTime) -> String {
        let mut detail = String::new();
        self.collect(host, now, &mut detail);
        detail
    }
}

/// The paper's full module set, in E-code environment order.
pub fn standard_modules() -> Vec<Box<dyn MonitorModule>> {
    vec![
        Box::new(CpuMon::new()),
        Box::new(MemMon),
        Box::new(DiskMon),
        Box::new(NetMon::default()),
        Box::new(PmcMon),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;
    use simos::host::HostConfig;

    fn host() -> Host {
        Host::new("t", NodeId(0), &HostConfig::testbed())
    }

    /// Collect into a throwaway buffer, returning `(value, detail)`.
    fn collect(m: &mut dyn MonitorModule, h: &mut Host, now: SimTime) -> (f64, String) {
        let mut detail = String::new();
        let value = m.collect(h, now, &mut detail);
        (value, detail)
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
        let mut m = NetMon::default();
        let id = simnet::ConnId {
            local: NodeId(0),
            remote: NodeId(1),
            proto: simnet::conn::Proto::Tcp,
            tag: 7,
        };
        h.conns.open(id, SimTime::ZERO);
        h.conns
            .record_delivery(id, SimTime::ZERO, 125_000, SimDur::from_millis(2));
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
