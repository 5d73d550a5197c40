//! E-code compiler/VM microbenchmarks, including the DESIGN.md ablation:
//! bytecode-VM execution vs. a hand-written native Rust filter doing the
//! same work (quantifying what the original's native code generation
//! would buy).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecode::{compile_filter, fig3_env, EnvSpec, Filter, MetricRecord, FIG3_SOURCE};

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

/// Admission-time specialization latency: lowering an already-admitted
/// filter's stack chunk to fused register code and boxing the closure.
/// This is the cost `DeployFilter` pays once per admission so that
/// millions of per-sample executions run register code — it must stay
/// trivially small next to parse+certify (`ecode/compile_fig3`).
fn bench_specialize(c: &mut Criterion) {
    let env = fig3_env();
    let filter = Filter::compile(FIG3_SOURCE, &env).unwrap();
    c.bench_function("ecode/specialize_fig3", |b| {
        b.iter(|| compile_filter(black_box(&filter)).expect("fig3 compiles"));
    });
}

fn bench_execute(c: &mut Criterion) {
    let env = fig3_env();
    let filter = Filter::compile(FIG3_SOURCE, &env).unwrap();
    let compiled = compile_filter(&filter).expect("fig3 compiles");
    let inputs = fig3_inputs();
    let mut group = c.benchmark_group("ecode/execute_fig3");
    group.bench_function("vm", |b| b.iter(|| filter.run(black_box(&inputs)).unwrap()));
    group.bench_function("compiled", |b| {
        b.iter(|| compiled.run(black_box(&inputs)).unwrap());
    });
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

criterion_group!(
    benches,
    bench_compile,
    bench_specialize,
    bench_execute,
    bench_loop_heavy
);
criterion_main!(benches);
