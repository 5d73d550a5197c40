//! SmartPointer's frame path allocates nothing once warm: the emitter's
//! tick, each frame's send, arrival, queueing and processing on a 4-node
//! star whose server streams to three clients at 5 Hz, under a raw, a
//! static and a dynamic policy. A frame's events are calls of the one
//! handler the application registered (`simcore::Sim::call_at`), the frame
//! waits in its client's FIFOs and its mode is logged as a value, so the
//! only calls left are the doublings of the vectors that log every frame,
//! and the window counted below holds none.

use dproc::cluster::{ClusterConfig, ClusterSim};
use dproc_bench::alloc::{self, Counting};
use dproc_bench::scenario::{assert_no_sampler_doubled, samplers};
use simcore::SimTime;
use simnet::NodeId;
use smartpointer::policy::{MonitorSet, Policy};
use smartpointer::{FrameSpec, SmartPointer, SmartPointerConfig, StreamMode};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The lengths of every vector the run appends to: the cluster's samplers,
/// then per client its latency samples, its `(time, latency)` log and its
/// mode log.
fn logs(sim: &ClusterSim, app: &SmartPointer) -> Vec<usize> {
    let mut lens = samplers(sim.world());
    for k in 0..app.client_count() {
        let st = app.client_stats(k);
        lens.extend([st.latency_s.len(), st.log.len(), st.mode_log.len()]);
    }
    lens
}

/// Frames processed by every client.
fn processed(app: &SmartPointer) -> u64 {
    (0..app.client_count())
        .map(|k| app.client_stats(k).processed)
        .sum()
}

#[test]
fn a_warm_smartpointer_frame_makes_no_allocator_call() {
    let mut sim = ClusterSim::new(ClusterConfig::new(4));
    sim.start();
    let app = SmartPointer::install(
        &mut sim,
        SmartPointerConfig {
            server: NodeId(0),
            clients: vec![
                (NodeId(1), Policy::NoFilter),
                (NodeId(2), Policy::Static(StreamMode::SubSample(2))),
                (NodeId(3), Policy::Dynamic(MonitorSet::Hybrid)),
            ],
            spec: FrameSpec::interactive(),
            rate_hz: 5.0,
            write_to_disk: true,
            queue_cap: 64,
        },
    );
    // Warm-up: each host's run-queue history spans a quarter of an hour,
    // and the wheel's slot buffers, the FIFOs and the connection tables
    // grow to size. The window after it is placed between doublings: about
    // 1 040 to 1 270 samples per cost sampler, 12 500 to 15 300 frame
    // latencies and 5 200 to 6 350 entries per app log.
    sim.run_until(SimTime::from_secs(1040));
    let (start, frames) = (logs(&sim, &app), processed(&app));
    let before = alloc::calls();
    sim.run_until(SimTime::from_secs(1270));
    let calls = alloc::calls() - before;
    assert_no_sampler_doubled(&start, &logs(&sim, &app));
    let frames = processed(&app) - frames;
    assert!(frames > 3 * 5 * 220, "{frames} frames processed");
    assert_eq!(
        calls,
        0,
        "{:.3} allocator calls per frame ({calls} over {frames} frames)",
        calls as f64 / frames as f64
    );
}
