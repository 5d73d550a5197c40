//! One simulated machine: CPU scheduler, memory, disk, PMCs, connection
//! table, and its `/proc` filesystem.

use simcore::{SimDur, SimTime};
use simnet::{ConnTrack, NodeId};

use crate::cpu::CpuSched;
use crate::disk::Disk;
use crate::mem::Memory;
use crate::pmc::{Pmc, PmcEvent};
use crate::procfs::ProcFs;

/// Static configuration of a host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Number of processors.
    pub n_cpus: u32,
    /// Peak flops of one processor.
    pub flops_per_sec: f64,
    /// RAM in bytes.
    pub ram_bytes: u64,
}

impl HostConfig {
    /// The paper's testbed node: quad Pentium Pro 200 MHz, 512 MB RAM,
    /// 17.4 Mflops linpack per CPU.
    pub fn testbed() -> Self {
        HostConfig {
            n_cpus: 4,
            flops_per_sec: 17.4e6,
            ram_bytes: 512 * 1024 * 1024,
        }
    }

    /// A uniprocessor variant, used for display-class client nodes.
    pub fn uniprocessor() -> Self {
        HostConfig {
            n_cpus: 1,
            flops_per_sec: 17.4e6,
            ram_bytes: 512 * 1024 * 1024,
        }
    }

    /// An iPAQ-class handheld: one slow CPU (~1/6 of a testbed node) and
    /// 64 MB of RAM — the paper's resource-constrained wireless client.
    pub fn handheld() -> Self {
        HostConfig {
            n_cpus: 1,
            flops_per_sec: 3e6,
            ram_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A simulated machine.
pub struct Host {
    /// Hostname (e.g. `alan`, `maui`, `etna`).
    pub name: String,
    /// Position on the network.
    pub node: NodeId,
    /// CPU scheduler.
    pub cpu: CpuSched,
    /// Physical memory.
    pub mem: Memory,
    /// Disk device.
    pub disk: Disk,
    /// Performance counters.
    pub pmc: Pmc,
    /// Kernel connection table.
    pub conns: ConnTrack,
    /// The `/proc` filesystem.
    pub proc: ProcFs,
    /// NIC line rate, bits/sec (what interface counters are measured
    /// against).
    pub link_capacity_bps: f64,
    /// Background traffic currently crossing this host's NIC that does not
    /// belong to tracked connections (e.g. an Iperf flood) — the interface
    /// counters see it even though the connection table does not.
    pub observed_background_bps: f64,
    /// Battery, for mobile/embedded hosts (None on mains-powered nodes).
    pub battery: Option<crate::power::Battery>,
}

// Hosts sit back to back in one vector, one per node, and a delivered
// frame reads four or five fields spread across this one (scheduler,
// battery, connection table, proc arena): ten and a half cache lines.
// Eight bytes more once moved which fields share a line on every node
// and cost the receive path 6 % for no visible reason; a size that changes
// is to be changed here on purpose, with the benchmark run beside it.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Host>() == 664);

impl Host {
    /// Build a host attached to network node `node`.
    pub fn new(name: impl Into<String>, node: NodeId, cfg: &HostConfig) -> Self {
        Host {
            name: name.into(),
            node,
            cpu: CpuSched::new(cfg.n_cpus, cfg.flops_per_sec),
            mem: Memory::new(cfg.ram_bytes),
            disk: Disk::testbed(),
            pmc: Pmc::new(),
            conns: ConnTrack::new(),
            proc: ProcFs::new(),
            link_capacity_bps: 100e6,
            observed_background_bps: 0.0,
            battery: None,
        }
    }

    /// Bill NIC traffic to the battery, if any.
    pub fn on_net_bytes(&mut self, bytes: u64) {
        if let Some(b) = &mut self.battery {
            b.on_net_bytes(bytes);
        }
    }

    /// Available network bandwidth as the kernel can estimate it from its
    /// interface counters: line rate minus background traffic minus the
    /// tracked connections' recent throughput. Never negative.
    pub fn available_bps(&mut self, now: SimTime) -> f64 {
        let used = self.conns.total_used_bps(now);
        (self.link_capacity_bps - self.observed_background_bps - used).max(0.0)
    }

    /// Advance internal clocks (CPU accounting, battery drain) to `now`.
    pub fn advance(&mut self, now: SimTime) {
        self.cpu.advance(now);
        if let Some(b) = &mut self.battery {
            b.advance(now, self.cpu.busy_cpu_seconds());
        }
    }

    /// Refresh the host's *local* `/proc` entries from live kernel state —
    /// what stock Linux entries (`loadavg`, `meminfo`, ...) show before
    /// dproc adds the `cluster/` subtree.
    pub fn refresh_local_proc(&mut self, now: SimTime) {
        self.advance(now);
        let la1 = self.cpu.loadavg(now, SimDur::from_secs(60));
        let la5 = self.cpu.loadavg(now, SimDur::from_secs(300));
        let la15 = self.cpu.loadavg(now, SimDur::from_secs(900));
        self.proc
            .set("loadavg", format!("{la1:.2} {la5:.2} {la15:.2}"))
            .expect("static path");
        self.proc
            .set(
                "meminfo",
                format!(
                    "MemTotal: {} kB\nMemFree: {} kB",
                    self.mem.total_pages() * 4,
                    self.mem.nr_free_pages() * 4
                ),
            )
            .expect("static path");
        let sectors_r = self.disk.sectors_read_rate(now);
        let sectors_w = self.disk.sectors_written_rate(now);
        self.proc
            .set(
                "diskstats",
                format!(
                    "reads {} writes {} sectors_read {} sectors_written {} sec_r_rate {} sec_w_rate {}",
                    self.disk.reads(),
                    self.disk.writes(),
                    self.disk.sectors_read(),
                    self.disk.sectors_written(),
                    sectors_r,
                    sectors_w
                ),
            )
            .expect("static path");
        let total_bps = self.conns.total_used_bps(now);
        self.proc
            .set(
                "netstat",
                format!("connections {} used_bps {:.0}", self.conns.len(), total_bps),
            )
            .expect("static path");
        self.proc
            .set(
                "pmc",
                format!(
                    "cache_misses {} instructions {} cycles {}",
                    self.pmc.read(PmcEvent::CacheMisses),
                    self.pmc.read(PmcEvent::Instructions),
                    self.pmc.read(PmcEvent::Cycles)
                ),
            )
            .expect("static path");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_host_has_paper_specs() {
        let h = Host::new("alan", NodeId(0), &HostConfig::testbed());
        assert_eq!(h.cpu.n_cpus(), 4);
        assert_eq!(h.mem.free_bytes(), 512 * 1024 * 1024);
        assert_eq!(h.name, "alan");
        assert_eq!(h.node, NodeId(0));
    }

    #[test]
    fn refresh_populates_standard_entries() {
        let mut h = Host::new("alan", NodeId(0), &HostConfig::testbed());
        h.cpu.spawn_compute(SimTime::ZERO, "burn");
        h.refresh_local_proc(SimTime::from_secs(60));
        let la = h.proc.read("loadavg").unwrap();
        assert!(la.starts_with("1.00"), "loadavg {la}");
        assert!(h.proc.read("meminfo").unwrap().contains("MemFree"));
        assert!(h.proc.read("diskstats").unwrap().contains("reads 0"));
        assert!(h.proc.read("netstat").unwrap().contains("connections 0"));
        assert!(h.proc.read("pmc").unwrap().contains("cache_misses"));
    }

    #[test]
    fn available_bps_subtracts_background_and_connections() {
        let mut h = Host::new("x", NodeId(0), &HostConfig::testbed());
        assert_eq!(h.available_bps(SimTime::ZERO), 100e6);
        h.observed_background_bps = 60e6;
        assert_eq!(h.available_bps(SimTime::ZERO), 40e6);
        h.observed_background_bps = 200e6;
        assert_eq!(h.available_bps(SimTime::ZERO), 0.0);
    }

    #[test]
    fn refresh_reflects_activity() {
        let mut h = Host::new("etna", NodeId(1), &HostConfig::uniprocessor());
        h.mem.alloc("app", 1024 * 1024);
        h.disk
            .submit(SimTime::ZERO, crate::disk::IoDir::Write, 4096);
        h.pmc.on_data_moved(4096);
        h.refresh_local_proc(SimTime::from_secs(1));
        assert!(h.proc.read("diskstats").unwrap().contains("writes 1"));
        let pmc = h.proc.read("pmc").unwrap();
        assert!(pmc.contains("cache_misses 128"), "pmc: {pmc}");
    }
}
