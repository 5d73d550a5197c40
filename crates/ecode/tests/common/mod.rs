//! One generator of well-formed filters for the `ecode` property suites,
//! over whatever environment a suite passes in.
//!
//! A program declares int locals `x0..x2` and double locals `d0..d2`
//! (`d1` seeded with an int, so a double-declared local can hold an int
//! tag), then runs generated statements: record copies with constant and
//! dynamic indices, edits of every field of a copy, `last_value_sent`
//! reads and writes, suppression, branches, and `for` / `while` loops with
//! constant trip counts. Every loop it writes is one the verifier can
//! bound, so every program it yields certifies. Expressions use the whole
//! C operator set, so [`program`]s also divide by zero, index out of range
//! and write fields of empty slots at run time; [`total_program`]s leave
//! out exactly those shapes.

#![allow(dead_code)]

use ecode::{EnvSpec, FilterOutput, RuntimeError};
use proptest::prelude::*;
use proptest::Union;

/// An environment's metric names, in index order.
pub type Names = &'static [&'static str];

pub fn env(names: Names) -> EnvSpec {
    EnvSpec::new(names.iter().copied())
}

/// Whole programs over `names`, their int locals starting at 0, 1 and 2.
pub fn program(names: Names) -> BoxedStrategy<String> {
    program_seeded(names, ["0", "1", "2"])
}

/// Whole programs over `names` whose int locals `x0..x2` start at the
/// expressions `seeds`.
pub fn program_seeded(names: Names, seeds: [&'static str; 3]) -> BoxedStrategy<String> {
    Gen {
        names,
        faults: true,
    }
    .program(seeds)
}

/// Whole programs over `names` without the shapes that can fault at run
/// time (computed indices, `/` and `%`, a field write to a slot no copy
/// filled): every run ends in a result or in `BudgetExhausted`.
pub fn total_program(names: Names) -> BoxedStrategy<String> {
    Gen {
        names,
        faults: false,
    }
    .program(["0", "1", "2"])
}

/// The environment, and whether shapes that can fault are generated.
#[derive(Clone, Copy)]
struct Gen {
    names: Names,
    faults: bool,
}

impl Gen {
    fn program(self, seeds: [&'static str; 3]) -> BoxedStrategy<String> {
        let [s0, s1, s2] = seeds;
        proptest::collection::vec(self.stmt(2), 1..6)
            .prop_map(move |body| {
                format!(
                    "{{ int x0 = {s0}; int x1 = {s1}; int x2 = {s2}; \
                       double d0 = 0.5; double d1 = 2; double d2 = -1.25; {} }}",
                    body.join(" ")
                )
            })
            .boxed()
    }

    /// A metric name of the environment.
    fn metric(self) -> BoxedStrategy<&'static str> {
        let names = self.names;
        (0..names.len()).prop_map(move |i| names[i]).boxed()
    }

    /// Statements, nested at most `depth` deep. Edits that keep a filter
    /// memo-`Shared` come up twice as often as the ones that make it
    /// `Bypass`, so both classes are well represented.
    fn stmt(self, depth: u32) -> BoxedStrategy<String> {
        let field = || {
            let fields = [
                "value",
                "timestamp",
                "value",
                "timestamp",
                "id",
                "last_value_sent",
            ];
            (0..6usize).prop_map(move |i| fields[i])
        };
        let e = || self.expr();
        let m = || self.metric();
        let mut leaves = vec![
            (0..3u8, e())
                .prop_map(|(v, e)| format!("x{v} = {e};"))
                .boxed(),
            (0..3u8, e())
                .prop_map(|(v, e)| format!("d{v} = {e};"))
                .boxed(),
            // A truncating store: a huge or non-finite field saturates.
            (0..3u8, m())
                .prop_map(|(v, n)| format!("x{v} = input[{n}].value;"))
                .boxed(),
            // The one read that makes a filter `Bypass`.
            (0..3u8, m())
                .prop_map(|(v, n)| {
                    format!("if (input[{n}].last_value_sent < d{v}) {{ x{v} = x{v} + 1; }}")
                })
                .boxed(),
            (0..2u8, m())
                .prop_map(|(s, n)| format!("output[{s}] = input[{n}];"))
                .boxed(),
            Just("return x0;".to_string()).boxed(),
            Just("return 0;".to_string()).boxed(),
            Just("return 1;".to_string()).boxed(),
        ];
        // Twice: a copy with an edit is what memo stamping must get right.
        for _ in 0..2 {
            leaves.push(
                (0..2u8, m(), field(), e())
                    .prop_map(|(s, n, f, e)| {
                        format!("output[{s}] = input[{n}]; output[{s}].{f} = {e};")
                    })
                    .boxed(),
            );
        }
        if self.faults {
            leaves.extend([
                (0..2u8, 0..3u8)
                    .prop_map(|(s, v)| format!("output[{s}] = input[x{v}];"))
                    .boxed(),
                (0..3u8, m())
                    .prop_map(|(v, n)| format!("output[x{v}] = input[{n}];"))
                    .boxed(),
                (0..2u8, field(), e())
                    .prop_map(|(s, f, e)| format!("output[{s}].{f} = {e};"))
                    .boxed(),
            ]);
        }
        let leaf = Union::new(leaves);
        if depth == 0 {
            return leaf.boxed();
        }
        let nested = self.stmt(depth - 1);
        prop_oneof![
            leaf,
            (e(), nested.clone()).prop_map(|(c, s)| format!("if ({c}) {{ {s} }}")),
            (e(), nested.clone(), nested.clone())
                .prop_map(|(c, a, b)| format!("if ({c}) {{ {a} }} else {{ {b} }}")),
            (0..20i64, nested.clone())
                .prop_map(|(n, s)| format!("for (int i = 0; i < {n}; i = i + 1) {{ {s} }}")),
            // Own block so sibling fragments don't redeclare `j`, and the
            // decrement always targets *this* loop's variable even when a
            // nested fragment shadows the name.
            (1..15i64, 1..4i64, nested).prop_map(|(n, step, s)| {
                format!("{{ int j = {n}; while (j > 0) {{ {s} j = j - {step}; }} }}")
            }),
        ]
        .boxed()
    }

    fn atom(self) -> BoxedStrategy<String> {
        let field = || prop_oneof![Just("value"), Just("timestamp"), Just("id")];
        let mut atoms = vec![
            // Int constants in -50..50, two thirds of them in -5..5.
            prop_oneof![-5i64..5, -5i64..5, -50i64..50]
                .prop_map(|v| format!("{v}"))
                .boxed(),
            (-4.0f64..4.0).prop_map(|v| format!("{v:.3}")).boxed(),
            (0..3u8).prop_map(|v| format!("x{v}")).boxed(),
            (0..3u8).prop_map(|v| format!("d{v}")).boxed(),
            (self.metric(), field())
                .prop_map(|(n, f)| format!("input[{n}].{f}"))
                .boxed(),
        ];
        if self.faults {
            atoms.push((0..3u8).prop_map(|v| format!("input[x{v}].value")).boxed());
        }
        Union::new(atoms).boxed()
    }

    fn expr(self) -> BoxedStrategy<String> {
        let mut ops = vec!["+", "-", "*", "<", "<=", ">", ">=", "==", "!=", "&&", "||"];
        if self.faults {
            ops.extend(["/", "%"]);
        }
        let op = (0..ops.len()).prop_map(move |i| ops[i]);
        let a = || self.atom();
        prop_oneof![
            a(),
            (a(), op, a()).prop_map(|(a, op, b)| format!("({a} {op} {b})")),
            a().prop_map(|a| format!("(-{a})")),
            a().prop_map(|a| format!("(!{a})")),
        ]
        .boxed()
    }
}

/// A run, with every float as its bits: what "bit for bit" compares.
pub type Bits = Result<(bool, u64, Vec<(u32, [u64; 3])>), RuntimeError>;

/// `out` as [`Bits`]. With `stamp`, each emitted record's
/// `last_value_sent` is replaced by the row's value for its `id` (0.0 when
/// the row has none), as d-mon stamps a shared run for a subscriber.
pub fn bits(out: Result<FilterOutput, RuntimeError>, stamp: Option<&[f64]>) -> Bits {
    let out = out?;
    let records = out.records().into_iter().map(|r| {
        let last = stamp.map_or(r.last_value_sent, |row| {
            row.get(r.id as usize).copied().unwrap_or(0.0)
        });
        (r.id, [r.value, last, r.timestamp].map(f64::to_bits))
    });
    Ok((out.accept(), out.instructions(), records.collect()))
}
