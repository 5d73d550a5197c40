//! The receive path moves numbers, not text: `DMon::on_event` on warmed
//! `/proc` handles stores a `(value, ts)` sample per record and allocates
//! nothing; the text exists only in what a reader is handed.

// The counting allocator needs `unsafe` to wrap the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dproc::dmon::DMon;
use dproc::modules::standard_modules;
use dproc::Calib;
use kecho::{Event, MonRecord, MonitoringPayload};
use simcore::{SimDur, SimTime};
use simnet::NodeId;
use simos::host::{Host, HostConfig};

/// Counts this thread's allocator calls (the test harness's own threads
/// must not show up in the figure).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never influences the result.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

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
    let before = ALLOCS.with(Cell::get);
    for (k, ev) in frames.iter().enumerate() {
        let now = SimTime::from_secs(1 + k as u64);
        dmon.on_event(&mut host, ev, 90, now, &calib);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "allocator calls");
    assert_eq!(dmon.stats.events_received, 1001);

    // A reader gets the text, rendered into a copy of its own ...
    let text = host.proc.read("cluster/maui/cpu").unwrap().into_owned();
    assert_eq!(text, "cpu 1000.123456789012 ts 1000000000.000");
    // ... and the slot still holds numbers: the next, longer sample costs
    // no allocation either.
    let ev = frame(1001, 1e15 + 0.125, 1e12);
    let before = ALLOCS.with(Cell::get);
    dmon.on_event(&mut host, &ev, 90, SimTime::from_secs(2000), &calib);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "allocator calls");
    assert_eq!(
        host.proc.read("cluster/maui/mem").unwrap(),
        "mem 1000000000000000.1 ts 1000000000000.000"
    );
}
