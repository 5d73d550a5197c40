//! E-code compiler and VM microbenchmarks: admission of Figure 3, the
//! VM running Figure 3 beside a hand-written native Rust filter doing the
//! same work (what the original's native code generation would buy), and
//! the VM running the benchmark's loop and differential filters, the two
//! that dominate the instructions `star16-filters` executes.
//!
//! Run with `cargo bench -p dproc-bench --bench ecode`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecode::{fig3_env, EnvSpec, Filter, MetricRecord, FIG3_SOURCE};

fn fig3_inputs() -> [MetricRecord; 4] {
    [
        MetricRecord::new(0, 3.0),
        MetricRecord::new(1, 20_000.0),
        MetricRecord::new(2, 10e6),
        MetricRecord::new(3, 5000.0).with_last_sent(100.0),
    ]
}

/// The native-Rust equivalent of the paper's Figure 3 filter.
fn fig3_native(inputs: &[MetricRecord]) -> Vec<MetricRecord> {
    let mut out = Vec::new();
    if inputs[0].value > 2.0 {
        out.push(inputs[0]);
    }
    if inputs[1].value > 10_000.0 && inputs[2].value < 50e6 {
        out.push(inputs[1]);
        out.push(inputs[2]);
    }
    if inputs[3].value > inputs[3].last_value_sent {
        out.push(inputs[3]);
    }
    out
}

fn bench_compile(c: &mut Criterion) {
    let env = fig3_env();
    c.bench_function("ecode/compile_fig3", |b| {
        b.iter(|| Filter::compile(black_box(FIG3_SOURCE), &env).unwrap());
    });
}

fn bench_execute(c: &mut Criterion) {
    let env = fig3_env();
    let filter = Filter::compile(FIG3_SOURCE, &env).unwrap();
    let inputs = fig3_inputs();
    let mut group = c.benchmark_group("ecode/execute_fig3");
    group.bench_function("vm", |b| b.iter(|| filter.run(black_box(&inputs)).unwrap()));
    group.bench_function("native_rust", |b| {
        b.iter(|| fig3_native(black_box(&inputs)));
    });
    group.finish();
}

fn bench_loop_heavy(c: &mut Criterion) {
    // A filter dominated by loop iterations, the VM's worst case.
    let env = EnvSpec::new(["X"]);
    let src = "{ int s = 0; for (int i = 0; i < 1000; i = i + 1) { s = s + i; } if (s > 0) { output[0] = input[X]; } }";
    let filter = Filter::compile(src, &env).unwrap();
    let inputs = [MetricRecord::new(0, 1.0)];
    c.bench_function("ecode/loop_1000_iters", |b| {
        b.iter(|| filter.run(black_box(&inputs)).unwrap());
    });
}

/// The five standard metrics, in the order d-mon registers them.
const STANDARD: [&str; 5] = ["LOADAVG", "FREEMEM", "DISKUSAGE", "NET_AVAIL", "CACHE_MISS"];

/// The benchmark's 40-iteration loop filter (`F_LOOP`), as text.
const F_LOOP: &str = "{ double acc = 0.0; for (int i = 0; i < 40; i = i + 1) { acc = acc + input[LOADAVG].value; } if (acc > 20.0) { output[0] = input[LOADAVG]; output[1] = input[DISKUSAGE]; } }";

/// The benchmark's differential filter (`F_DIFF`), as text.
const F_DIFF: &str = "{ int n = 0; if (input[FREEMEM].value != input[FREEMEM].last_value_sent) { output[n] = input[FREEMEM]; n = n + 1; } if (input[NET_AVAIL].value < input[NET_AVAIL].last_value_sent) { output[n] = input[NET_AVAIL]; n = n + 1; } }";

/// A busy sample: the loop filter's accumulator crosses its threshold
/// and both of the differential filter's clauses fire.
fn standard_inputs() -> [MetricRecord; 5] {
    [
        MetricRecord::new(0, 3.0).with_last_sent(1.0),
        MetricRecord::new(1, 10e6).with_last_sent(12e6),
        MetricRecord::new(2, 20_000.0).with_last_sent(19_000.0),
        MetricRecord::new(3, 5e5).with_last_sent(6e5),
        MetricRecord::new(4, 5000.0).with_last_sent(100.0),
    ]
}

fn bench_benchmark_filters(c: &mut Criterion) {
    let env = EnvSpec::new(STANDARD);
    let inputs = standard_inputs();
    for (name, src) in [
        ("ecode/execute_loop40", F_LOOP),
        ("ecode/execute_diff", F_DIFF),
    ] {
        let filter = Filter::compile(src, &env).unwrap();
        c.bench_function(name, |b| {
            b.iter(|| filter.run(black_box(&inputs)).unwrap().recycle());
        });
    }
}

criterion_group!(
    benches,
    bench_compile,
    bench_execute,
    bench_loop_heavy,
    bench_benchmark_filters
);
criterion_main!(benches);
