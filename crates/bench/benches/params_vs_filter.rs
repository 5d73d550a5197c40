//! The paper claims parameters are "cheaper" than equivalent E-code
//! filters (less book-keeping, no dynamic code generation). This ablation
//! measures both implementations of the same differential rule.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dproc::params::{PolicySet, Rule};
use ecode::{EnvSpec, Filter, MetricRecord};
use simcore::SimTime;

fn bench_parameter_rule(c: &mut Criterion) {
    let mut policy = PolicySet::new();
    policy.set_rule("*", Rule::DeltaFraction(0.15));
    let ctx = dproc::params::RuleCtx {
        value: 1.3,
        last_sent_value: 1.0,
        last_sent_at: Some(SimTime::from_secs(1)),
        now: SimTime::from_secs(2),
    };
    c.bench_function("customization/parameter_delta15", |b| {
        b.iter(|| policy.decide(black_box("LOADAVG"), black_box(&ctx)));
    });
}

fn bench_equivalent_filter(c: &mut Criterion) {
    let env = EnvSpec::new(["LOADAVG"]);
    let src = r#"
{
    double last = input[LOADAVG].last_value_sent;
    double delta = input[LOADAVG].value - last;
    if (delta < 0.0) { delta = 0.0 - delta; }
    if (delta >= last * 0.15) {
        output[0] = input[LOADAVG];
    }
}
"#;
    let filter = Filter::compile(src, &env).unwrap();
    let inputs = [MetricRecord::new(0, 1.3).with_last_sent(1.0)];
    c.bench_function("customization/ecode_delta15", |b| {
        b.iter(|| filter.run(black_box(&inputs)).unwrap());
    });
}

fn bench_filter_deployment(c: &mut Criterion) {
    // The one-time cost the parameter path never pays.
    let env = EnvSpec::new(["LOADAVG"]);
    let src = "{ if (input[LOADAVG].value > 2.0) { output[0] = input[LOADAVG]; } }";
    c.bench_function("customization/filter_compile", |b| {
        b.iter(|| Filter::compile(black_box(src), &env).unwrap());
    });
}

criterion_group!(
    benches,
    bench_parameter_rule,
    bench_equivalent_filter,
    bench_filter_deployment
);
criterion_main!(benches);
