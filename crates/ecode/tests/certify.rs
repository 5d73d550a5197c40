//! Soundness of the static cost certificate: for any filter the
//! verifier certifies, the proven worst-case instruction bound must
//! dominate what the VM actually executes — on any input. That is the
//! property deployment relies on when it admits a filter whose bound
//! fits the budget, so it gets the adversarial treatment: generated
//! programs mix loops, branches, and arithmetic specifically to stress
//! the trip-count inference and the per-op cost model.

mod common;

use common::{bits, env, program, total_program, Names};
use ecode::{vm, CostBound, Filter, MetricRecord, RuntimeError};
use proptest::prelude::*;

const NAMES: Names = &["A", "B"];

fn inputs(a: f64, b: f64) -> [MetricRecord; 2] {
    [
        MetricRecord::new(0, a).with_timestamp(1.5),
        MetricRecord::new(1, b).with_last_sent(a),
    ]
}

proptest! {
    // At least 256 cases; CI asks for more through `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig { cases: ProptestConfig::default().cases.max(256) })]

    /// The certified bound dominates actual execution, and therefore a
    /// certified filter run under a budget >= its bound can never die of
    /// `BudgetExhausted`. The programs cannot fault, so every case runs to
    /// its end.
    #[test]
    fn certified_bound_covers_actual_execution(
        src in total_program(NAMES),
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
    ) {
        let f = Filter::compile(&src, &env(NAMES)).expect("generated programs are well-formed");
        let CostBound::Bounded(bound) = f.cert().cost else {
            // The generator only emits loops the verifier can bound.
            panic!("verifier failed to certify a generated program:\n{src}");
        };
        // Re-compile with the proven bound as the budget: the certificate
        // claims this can never be exhausted.
        let tight = Filter::compile_with_budget(&src, &env(NAMES), bound).unwrap();
        match tight.run(&inputs(a, b)) {
            Ok(out) => prop_assert!(
                out.instructions() <= bound,
                "executed {} > certified bound {} for:\n{src}",
                out.instructions(),
                bound,
            ),
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "{e:?} under its own bound {bound}:\n{src}"
                )));
            }
        }
    }

    /// The budget cuts exactly at a program's natural cost — the
    /// instructions its run executes, to a result or to a runtime fault.
    /// Every budget below it ends in `BudgetExhausted` with that budget,
    /// and every budget at or above it gives the default-budget result
    /// bit for bit.
    #[test]
    fn the_budget_cuts_exactly_at_the_natural_cost(
        src in program(NAMES),
        a in -10.0f64..10.0,
    ) {
        let f = Filter::compile(&src, &env(NAMES)).unwrap();
        let recs = inputs(a, -a);
        let run = |budget| bits(vm::run(f.chunk(), &recs, budget), None);
        let want = bits(f.run(&recs), None);
        let exhausted = |budget| Err(RuntimeError::BudgetExhausted { budget });
        prop_assert!(want != exhausted(f.budget()), "certified, yet exhausted:\n{}", src);
        // The lowest budget that does not exhaust.
        let (mut natural, mut hi) = (0, f.budget());
        while natural < hi {
            let mid = natural + (hi - natural) / 2;
            if run(mid) == exhausted(mid) {
                natural = mid + 1;
            } else {
                hi = mid;
            }
        }
        if let Ok((_, executed, _)) = want {
            prop_assert_eq!(executed, natural, "on:\n{}", src);
        }
        let edge = [natural.saturating_sub(1), natural, natural + 1, 2 * natural, natural + 1000];
        for budget in (0..natural.min(150) + 2).chain(edge) {
            let expect = if budget < natural { exhausted(budget) } else { want.clone() };
            prop_assert_eq!(run(budget), expect, "budget {} on:\n{}", budget, src);
        }
        // `Filter` runs the same VM under the budget it was compiled with.
        for budget in [natural.saturating_sub(1), natural] {
            let tight = Filter::compile_with_budget(&src, &env(NAMES), budget).unwrap();
            prop_assert_eq!(bits(tight.run(&recs), None), run(budget));
        }
    }

    /// Certification is deterministic: the same source always yields the
    /// same bound and read set (deployment decisions must be stable).
    #[test]
    fn certification_is_deterministic(src in program(NAMES)) {
        let f1 = Filter::compile(&src, &env(NAMES)).unwrap();
        let f2 = Filter::compile(&src, &env(NAMES)).unwrap();
        prop_assert_eq!(f1.cert(), f2.cert());
    }
}
