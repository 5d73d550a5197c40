//! A pinned run corpus: the filters the paper and the benchmark deploy,
//! run on fixed inputs — ordinary, NaN, infinite and saturating — with
//! every result written down as a literal. Each row is the accept flag,
//! the instructions executed and every emitted record's fields as bits
//! (or the runtime error), so a change to how filters execute that moves
//! one bit or one counted instruction fails here by name.
//!
//! The benchmark's four filter shapes are copied as text, not imported,
//! so this file pins them even if the benchmark changes its own.
//!
//! Run with `cargo test -p ecode --test run_corpus`.

use ecode::{fig3_env, vm, EnvSpec, Filter, MetricRecord, RuntimeError, FIG3_SOURCE};

/// The five standard metrics, in the order d-mon registers them.
const STANDARD: [&str; 5] = ["LOADAVG", "FREEMEM", "DISKUSAGE", "NET_AVAIL", "CACHE_MISS"];

const F_SHARED: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
const F_DIFF: &str = "{ int n = 0; if (input[FREEMEM].value != input[FREEMEM].last_value_sent) { output[n] = input[FREEMEM]; n = n + 1; } if (input[NET_AVAIL].value < input[NET_AVAIL].last_value_sent) { output[n] = input[NET_AVAIL]; n = n + 1; } }";
const F_LOOP: &str = "{ double acc = 0.0; for (int i = 0; i < 40; i = i + 1) { acc = acc + input[LOADAVG].value; } if (acc > 20.0) { output[0] = input[LOADAVG]; output[1] = input[DISKUSAGE]; } }";
const F_DISK: &str = "{ if (input[DISKUSAGE].value > 100) { output[0] = input[DISKUSAGE]; output[1] = input[CACHE_MISS]; } }";
const LOOP_1000: &str = "{ int s = 0; for (int i = 0; i < 1000; i = i + 1) { s = s + i; } if (s > 0) { output[0] = input[LOADAVG]; } }";
/// An int stored into a `double` local is a double from then on (C's
/// assignment conversion), so `d / 2` divides as doubles.
const WIDEN: &str = "{ double d = 3; double e = 0.0; e = 7; output[0] = input[LOADAVG]; output[0].value = d / 2; output[0].last_value_sent = e / 2; }";
/// Every conversion a record field can meet: truncation into an int,
/// a double remainder, an int written to `.id`, `!` and `&&` on doubles
/// and a computed accept value.
const CASTS: &str = "{ int t = input[LOADAVG].value; double q = input[FREEMEM].value % 3.0; output[0] = input[CACHE_MISS]; output[0].id = t; output[0].value = -q; output[0].timestamp = t * 2 + q; if (!(input[DISKUSAGE].value)) { return 0; } return input[NET_AVAIL].value && t || q; }";

/// Input sets: `(value, last_value_sent)` per metric; every timestamp is
/// 12.5.
const INPUTS: [(&str, [(f64, f64); 5]); 6] = [
    (
        "quiet",
        [
            (0.1, 0.1),
            (400e6, 400e6),
            (500.0, 500.0),
            (1e6, 1e6),
            (100.0, 200.0),
        ],
    ),
    (
        "busy",
        [
            (3.0, 1.0),
            (10e6, 12e6),
            (20_000.0, 19_000.0),
            (5e5, 6e5),
            (5000.0, 100.0),
        ],
    ),
    ("nan", [(f64::NAN, f64::NAN); 5]),
    (
        "inf",
        [
            (f64::INFINITY, 0.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
            (f64::INFINITY, f64::INFINITY),
        ],
    ),
    (
        "saturating",
        [
            (9.3e18, -9.3e18),
            (-9.3e18, 9.3e18),
            (1e308, -1e308),
            (-1e308, 1e308),
            (1e308, 1e308),
        ],
    ),
    (
        "signed_zero",
        [
            (-0.0, 0.0),
            (0.0, -0.0),
            (-0.0, -0.0),
            (0.0, 0.0),
            (-0.0, 0.0),
        ],
    ),
];

fn records(set: &[(f64, f64); 5], n: usize) -> Vec<MetricRecord> {
    set[..n]
        .iter()
        .zip(0..)
        .map(|(&(v, last), id)| {
            MetricRecord::new(id, v)
                .with_last_sent(last)
                .with_timestamp(12.5)
        })
        .collect()
}

/// One run as text: `accept executed [id:value/last/ts ...]` with the
/// floats as hex bits, or the error.
fn row(out: Result<ecode::FilterOutput, RuntimeError>) -> String {
    match out {
        Ok(out) => {
            let recs: Vec<String> = out
                .records()
                .iter()
                .map(|r| {
                    format!(
                        "{}:{:x}/{:x}/{:x}",
                        r.id,
                        r.value.to_bits(),
                        r.last_value_sent.to_bits(),
                        r.timestamp.to_bits()
                    )
                })
                .collect();
            format!(
                "{} {} [{}]",
                out.accept(),
                out.instructions(),
                recs.join(" ")
            )
        }
        Err(e) => format!("err {e:?}"),
    }
}

/// Every row of the corpus, in a fixed order.
fn corpus() -> Vec<String> {
    let standard = EnvSpec::new(STANDARD);
    let programs: [(&str, &str, EnvSpec); 8] = [
        ("fig3", FIG3_SOURCE, fig3_env()),
        ("shared", F_SHARED, standard.clone()),
        ("diff", F_DIFF, standard.clone()),
        ("loop40", F_LOOP, standard.clone()),
        ("disk", F_DISK, standard.clone()),
        ("loop1000", LOOP_1000, standard.clone()),
        ("widen", WIDEN, standard.clone()),
        ("casts", CASTS, standard.clone()),
    ];
    let mut rows = Vec::new();
    for (name, src, env) in &programs {
        let f = Filter::compile(src, env).expect("corpus filters compile");
        for (set_name, set) in &INPUTS {
            let inputs = records(set, env.len());
            rows.push(format!("{name} {set_name} {}", row(f.run(&inputs))));
        }
    }
    // The budget cuts exactly where the run's own cost ends.
    let f = Filter::compile(F_LOOP, &standard).unwrap();
    let busy = records(&INPUTS[1].1, 5);
    for budget in [0, 1, 2, 100, 301, 578, 579] {
        rows.push(format!(
            "loop40 budget={budget} {}",
            row(vm::run(f.chunk(), &busy, budget))
        ));
    }
    // A fault and the budget: whichever comes first wins.
    let faults = [
        (
            "div0",
            "{ int z = 0; int x = 1 / z; output[0] = input[LOADAVG]; }",
        ),
        ("badindex", "{ int k = 9; output[0] = input[k]; }"),
        ("emptyslot", "{ output[1].value = 2.0; }"),
    ];
    for (name, src) in faults {
        let f = Filter::compile(src, &standard).unwrap();
        for budget in [2, 3, 4, 5, 100] {
            rows.push(format!(
                "{name} budget={budget} {}",
                row(vm::run(f.chunk(), &busy, budget))
            ));
        }
    }
    // A fault in the middle of a block, a loop or a fused op: the lowest
    // budget that reaches it, and the results one below that and at it.
    let ladder = [
        (
            "loop_index",
            "{ double acc = 0.0; for (int i = 0; i < 10; i = i + 1) { acc = acc + input[i].value; } }",
        ),
        (
            "const_index",
            "{ int n = 0; n = n + 1; output[0] = input[LOADAVG]; double v = input[9].value; }",
        ),
        (
            "cond_div",
            "{ for (int i = 0; i < 10 / (3 - i); i = i + 1) { } }",
        ),
        (
            "and_div",
            "{ int z = 0; if (input[LOADAVG].value > 0.0 && 1 / z > 0) { output[0] = input[LOADAVG]; } }",
        ),
        (
            "loop_slot",
            "{ for (int i = 0; i < 4; i = i + 1) { output[i] = input[i]; if (i == 2) { output[i + 1].value = 2.0; } } }",
        ),
        (
            "out_range",
            "{ for (int i = 250; i < 260; i = i + 1) { output[i] = input[LOADAVG]; } }",
        ),
    ];
    for (name, src) in ladder {
        let f = Filter::compile(src, &standard).unwrap();
        let run = |budget| row(vm::run(f.chunk(), &busy, budget));
        let natural = (1..10_000)
            .find(|&b| !run(b).starts_with("err BudgetExhausted"))
            .unwrap();
        rows.push(format!(
            "{name} natural={natural} below={} at={}",
            run(natural - 1),
            run(natural)
        ));
    }
    rows
}

const PINNED: &str = "\
fig3 quiet true 40 [1:41b7d78400000000/41b7d78400000000/4029000000000000 2:407f400000000000/407f400000000000/4029000000000000]\n\
fig3 busy true 47 [0:4008000000000000/3ff0000000000000/4029000000000000 1:416312d000000000/4166e36000000000/4029000000000000 2:40d3880000000000/40d28e0000000000/4029000000000000]\n\
fig3 nan true 21 []\n\
fig3 inf true 28 [0:7ff0000000000000/0/4029000000000000]\n\
fig3 saturating true 28 [0:43e02207973f6440/c3e02207973f6440/4029000000000000]\n\
fig3 signed_zero true 21 []\n\
shared quiet true 6 []\n\
shared busy true 9 [0:4008000000000000/3ff0000000000000/4029000000000000]\n\
shared nan true 6 []\n\
shared inf true 9 [0:7ff0000000000000/0/4029000000000000]\n\
shared saturating true 9 [0:43e02207973f6440/c3e02207973f6440/4029000000000000]\n\
shared signed_zero true 6 []\n\
diff quiet true 15 []\n\
diff busy true 29 [1:416312d000000000/4166e36000000000/4029000000000000 3:411e848000000000/41224f8000000000/4029000000000000]\n\
diff nan true 22 [1:7ff8000000000000/7ff8000000000000/4029000000000000]\n\
diff inf true 22 [1:fff0000000000000/7ff0000000000000/4029000000000000]\n\
diff saturating true 29 [1:c3e02207973f6440/43e02207973f6440/4029000000000000 3:ffe1ccf385ebc8a0/7fe1ccf385ebc8a0/4029000000000000]\n\
diff signed_zero true 15 []\n\
loop40 quiet true 573 []\n\
loop40 busy true 579 [0:4008000000000000/3ff0000000000000/4029000000000000 2:40d3880000000000/40d28e0000000000/4029000000000000]\n\
loop40 nan true 573 []\n\
loop40 inf true 579 [0:7ff0000000000000/0/4029000000000000 2:7ff0000000000000/fff0000000000000/4029000000000000]\n\
loop40 saturating true 579 [0:43e02207973f6440/c3e02207973f6440/4029000000000000 2:7fe1ccf385ebc8a0/ffe1ccf385ebc8a0/4029000000000000]\n\
loop40 signed_zero true 573 []\n\
disk quiet true 12 [2:407f400000000000/407f400000000000/4029000000000000 4:4059000000000000/4069000000000000/4029000000000000]\n\
disk busy true 12 [2:40d3880000000000/40d28e0000000000/4029000000000000 4:40b3880000000000/4059000000000000/4029000000000000]\n\
disk nan true 6 []\n\
disk inf true 12 [2:7ff0000000000000/fff0000000000000/4029000000000000 4:7ff0000000000000/7ff0000000000000/4029000000000000]\n\
disk saturating true 12 [2:7fe1ccf385ebc8a0/ffe1ccf385ebc8a0/4029000000000000 4:7fe1ccf385ebc8a0/7fe1ccf385ebc8a0/4029000000000000]\n\
disk signed_zero true 6 []\n\
loop1000 quiet true 13016 [0:3fb999999999999a/3fb999999999999a/4029000000000000]\n\
loop1000 busy true 13016 [0:4008000000000000/3ff0000000000000/4029000000000000]\n\
loop1000 nan true 13016 [0:7ff8000000000000/7ff8000000000000/4029000000000000]\n\
loop1000 inf true 13016 [0:7ff0000000000000/0/4029000000000000]\n\
loop1000 saturating true 13016 [0:43e02207973f6440/c3e02207973f6440/4029000000000000]\n\
loop1000 signed_zero true 13016 [0:8000000000000000/0/4029000000000000]\n\
widen quiet true 20 [0:3ff8000000000000/400c000000000000/4029000000000000]\n\
widen busy true 20 [0:3ff8000000000000/400c000000000000/4029000000000000]\n\
widen nan true 20 [0:3ff8000000000000/400c000000000000/4029000000000000]\n\
widen inf true 20 [0:3ff8000000000000/400c000000000000/4029000000000000]\n\
widen saturating true 20 [0:3ff8000000000000/400c000000000000/4029000000000000]\n\
widen signed_zero true 20 [0:3ff8000000000000/400c000000000000/4029000000000000]\n\
casts quiet true 40 [0:bff0000000000000/4069000000000000/3ff0000000000000]\n\
casts busy true 38 [3:bff0000000000000/4059000000000000/401c000000000000]\n\
casts nan true 40 [0:fff8000000000000/7ff8000000000000/7ff8000000000000]\n\
casts inf true 38 [4294967295:7ff8000000000000/7ff0000000000000/fff8000000000000]\n\
casts saturating true 38 [4294967295:0/7fe1ccf385ebc8a0/c000000000000000]\n\
casts signed_zero false 31 [0:8000000000000000/0/0]\n\
loop40 budget=0 err BudgetExhausted { budget: 0 }\n\
loop40 budget=1 err BudgetExhausted { budget: 1 }\n\
loop40 budget=2 err BudgetExhausted { budget: 2 }\n\
loop40 budget=100 err BudgetExhausted { budget: 100 }\n\
loop40 budget=301 err BudgetExhausted { budget: 301 }\n\
loop40 budget=578 err BudgetExhausted { budget: 578 }\n\
loop40 budget=579 true 579 [0:4008000000000000/3ff0000000000000/4029000000000000 2:40d3880000000000/40d28e0000000000/4029000000000000]\n\
div0 budget=2 err BudgetExhausted { budget: 2 }\n\
div0 budget=3 err BudgetExhausted { budget: 3 }\n\
div0 budget=4 err BudgetExhausted { budget: 4 }\n\
div0 budget=5 err DivisionByZero\n\
div0 budget=100 err DivisionByZero\n\
badindex budget=2 err BudgetExhausted { budget: 2 }\n\
badindex budget=3 err BudgetExhausted { budget: 3 }\n\
badindex budget=4 err BudgetExhausted { budget: 4 }\n\
badindex budget=5 err InputIndexOutOfRange { index: 9, len: 5 }\n\
badindex budget=100 err InputIndexOutOfRange { index: 9, len: 5 }\n\
emptyslot budget=2 err BudgetExhausted { budget: 2 }\n\
emptyslot budget=3 err OutputSlotEmpty { index: 1 }\n\
emptyslot budget=4 err OutputSlotEmpty { index: 1 }\n\
emptyslot budget=5 err OutputSlotEmpty { index: 1 }\n\
emptyslot budget=100 err OutputSlotEmpty { index: 1 }\n\
loop_index natural=81 below=err BudgetExhausted { budget: 80 } at=err InputIndexOutOfRange { index: 5, len: 5 }\n\
const_index natural=11 below=err BudgetExhausted { budget: 10 } at=err InputIndexOutOfRange { index: 9, len: 5 }\n\
cond_div natural=47 below=err BudgetExhausted { budget: 46 } at=err DivisionByZero\n\
and_div natural=11 below=err BudgetExhausted { budget: 10 } at=err DivisionByZero\n\
loop_slot natural=50 below=err BudgetExhausted { budget: 49 } at=err OutputSlotEmpty { index: 3 }\n\
out_range natural=81 below=err BudgetExhausted { budget: 80 } at=err OutputIndexOutOfRange { index: 256 }\n";

#[test]
fn the_corpus_runs_as_pinned() {
    let got = corpus();
    let want: Vec<&str> = PINNED.lines().collect();
    assert_eq!(got.len(), want.len(), "rows:\n{}", got.join("\n"));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "row {i} moved");
    }
}
