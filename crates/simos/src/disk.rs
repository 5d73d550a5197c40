//! Disk model: a FIFO device with seek + transfer service times and the
//! counters DISK_MON reports (reads, writes, sectors read/written, over a
//! configurable window).

use simcore::{SimDur, SimTime};

use simnet::link::BytesWindow;

/// Sector size in bytes (classic 512-byte sectors, as Linux 2.4 counted).
pub const SECTOR_SIZE: u64 = 512;

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Read from the platter.
    Read,
    /// Write to the platter.
    Write,
}

/// One host's disk.
#[derive(Debug)]
pub struct Disk {
    /// Sustained transfer rate, bytes/sec.
    transfer_bps: f64,
    /// Fixed per-request positioning cost.
    seek: SimDur,
    busy_until: SimTime,
    reads: u64,
    writes: u64,
    sectors_read: u64,
    sectors_written: u64,
    read_window: BytesWindow,
    write_window: BytesWindow,
}

impl Disk {
    /// A disk with the given sustained transfer rate and per-request seek
    /// cost; windowed rates use `window`.
    pub fn new(transfer_bytes_per_sec: f64, seek: SimDur, window: SimDur) -> Self {
        assert!(
            transfer_bytes_per_sec > 0.0,
            "transfer rate must be positive"
        );
        Disk {
            transfer_bps: transfer_bytes_per_sec,
            seek,
            busy_until: SimTime::ZERO,
            reads: 0,
            writes: 0,
            sectors_read: 0,
            sectors_written: 0,
            read_window: BytesWindow::new(window),
            write_window: BytesWindow::new(window),
        }
    }

    /// A disk of the paper's era: ~20 MB/s sustained, 8 ms seek, 1 s window
    /// (DISK_MON's default period).
    pub fn testbed() -> Self {
        Disk::new(20e6, SimDur::from_millis(8), SimDur::from_secs(1))
    }

    /// Submit an I/O of `bytes`; returns `(start, finish)` — FIFO behind
    /// earlier requests.
    pub fn submit(&mut self, now: SimTime, dir: IoDir, bytes: u64) -> (SimTime, SimTime) {
        let sectors = bytes.div_ceil(SECTOR_SIZE);
        let service = self.seek + SimDur::from_secs_f64(bytes as f64 / self.transfer_bps);
        let start = self.busy_until.max(now);
        let finish = start + service;
        self.busy_until = finish;
        match dir {
            IoDir::Read => {
                self.reads += 1;
                self.sectors_read += sectors;
                self.read_window.record(now, sectors);
            }
            IoDir::Write => {
                self.writes += 1;
                self.sectors_written += sectors;
                self.write_window.record(now, sectors);
            }
        }
        (start, finish)
    }

    /// Pending work: time until the disk is idle.
    pub fn backlog(&self, now: SimTime) -> SimDur {
        self.busy_until.since(now)
    }

    /// Lifetime read-request count.
    pub fn reads(&self) -> u64 {
        self.reads
    }
    /// Lifetime write-request count.
    pub fn writes(&self) -> u64 {
        self.writes
    }
    /// Lifetime sectors read.
    pub fn sectors_read(&self) -> u64 {
        self.sectors_read
    }
    /// Lifetime sectors written.
    pub fn sectors_written(&self) -> u64 {
        self.sectors_written
    }

    /// Sectors read within the sliding window ending at `now`.
    pub fn sectors_read_rate(&mut self, now: SimTime) -> u64 {
        self.read_window.bytes(now)
    }

    /// Sectors written within the sliding window ending at `now`.
    pub fn sectors_written_rate(&mut self, now: SimTime) -> u64 {
        self.write_window.bytes(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(20e6, SimDur::from_millis(8), SimDur::from_secs(1))
    }

    #[test]
    fn counters_accumulate() {
        let mut d = disk();
        d.submit(SimTime::ZERO, IoDir::Read, 4096);
        d.submit(SimTime::ZERO, IoDir::Write, 1024);
        d.submit(SimTime::ZERO, IoDir::Write, 100);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 2);
        assert_eq!(d.sectors_read(), 8);
        assert_eq!(d.sectors_written(), 2 + 1);
    }

    #[test]
    fn service_time_is_seek_plus_transfer() {
        let mut d = disk();
        let (s, f) = d.submit(SimTime::ZERO, IoDir::Read, 2_000_000);
        assert_eq!(s, SimTime::ZERO);
        // 8ms seek + 100ms transfer
        assert_eq!(f, SimTime::from_millis(108));
    }

    #[test]
    fn fifo_queueing() {
        let mut d = disk();
        let (_, f1) = d.submit(SimTime::ZERO, IoDir::Read, 2_000_000);
        let (s2, _) = d.submit(SimTime::ZERO, IoDir::Write, 100);
        assert_eq!(s2, f1);
        assert!(d.backlog(SimTime::ZERO) > SimDur::from_millis(100));
    }

    #[test]
    fn windowed_rates_slide() {
        let mut d = disk();
        d.submit(SimTime::ZERO, IoDir::Read, 512 * 100);
        assert_eq!(d.sectors_read_rate(SimTime::from_millis(500)), 100);
        assert_eq!(d.sectors_read_rate(SimTime::from_secs(2)), 0);
        d.submit(SimTime::from_secs(2), IoDir::Write, 512 * 10);
        assert_eq!(d.sectors_written_rate(SimTime::from_secs(2)), 10);
    }

    #[test]
    fn testbed_has_sane_defaults() {
        let mut d = Disk::testbed();
        let (_, f) = d.submit(SimTime::ZERO, IoDir::Write, 20_000_000);
        assert!(f > SimTime::from_millis(1000) && f < SimTime::from_millis(1100));
    }
}
