use super::*;
use crate::filter::{fig3_env, EnvSpec, MetricRecord, FIG3_SOURCE};
use crate::opt::fold_program;
use crate::parser::parse;
use crate::sema::analyze;
use crate::vm;

fn env() -> EnvSpec {
    EnvSpec::new(["A", "B", "C"])
}

fn resolved(src: &str) -> RProgram {
    analyze(&parse(src).unwrap(), &env()).unwrap()
}

fn lints(src: &str) -> Vec<Diagnostic> {
    lint(&resolved(src))
}

fn deploy_cert(src: &str) -> FilterCert {
    certify(&fold_program(resolved(src)))
}

fn find(diags: &[Diagnostic], kind: LintKind) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.kind == kind).collect()
}

// ---- dataflow lints -------------------------------------------------

#[test]
fn use_before_init_flagged_with_span() {
    let src =
        "{ int x;\n  if (input[A].value > 1) { x = 1; }\n  int y = x;\n  output[0] = input[A]; }";
    let diags = lints(src);
    let hits = find(&diags, LintKind::UseBeforeInit);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].pos.line, 3, "the read of x is on line 3");
    assert!(hits[0].message.contains("`x`"), "{}", hits[0].message);
}

#[test]
fn initialized_on_all_paths_is_clean() {
    let src = "{ int x;\n  if (input[A].value > 1) { x = 1; } else { x = 2; }\n  output[0] = input[A];\n  output[0].value = x; }";
    assert!(find(&lints(src), LintKind::UseBeforeInit).is_empty());
}

#[test]
fn assignment_before_read_is_clean() {
    let src = "{ int x; x = 5; output[0] = input[A]; output[0].value = x; }";
    assert!(find(&lints(src), LintKind::UseBeforeInit).is_empty());
}

#[test]
fn unreachable_after_return_flagged_with_span() {
    let src = "{ output[0] = input[A];\n  return 1;\n  output[1] = input[B]; }";
    let diags = lints(src);
    let hits = find(&diags, LintKind::UnreachableCode);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].pos.line, 3);
}

#[test]
fn unreachable_region_reported_once() {
    let src = "{ output[0] = input[A];\n  return 1;\n  int a = 1;\n  int b = 2;\n  a = b; }";
    let hits_count = find(&lints(src), LintKind::UnreachableCode).len();
    assert_eq!(hits_count, 1, "one report per unreachable region");
}

#[test]
fn code_after_infinite_loop_is_unreachable() {
    let src = "{ while (1) { output[0] = input[A]; }\n  output[1] = input[B]; }";
    let hits = find(&lints(src), LintKind::UnreachableCode).len();
    assert_eq!(hits, 1);
}

#[test]
fn dead_store_flagged_with_span() {
    let src = "{ int x = 1;\n  x = 2;\n  output[0] = input[A];\n  output[0].value = x; }";
    let diags = lints(src);
    let hits = find(&diags, LintKind::DeadStore);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].pos.line, 1, "the overwritten store is on line 1");
    assert_eq!(hits[0].severity, Severity::Note);
}

#[test]
fn store_read_on_one_path_is_not_dead() {
    let src = "{ int x = 1;\n  if (input[A].value > 1) { output[0] = input[A]; output[0].value = x; }\n  x = 2;\n  output[1] = input[B];\n  output[1].value = x; }";
    assert!(find(&lints(src), LintKind::DeadStore).is_empty());
}

#[test]
fn store_reaching_program_end_is_not_dead() {
    // The trailing `i = i + 1` never gets read again, but it survives to
    // program exit — flagging it would make Figure 3 noisy.
    let src = "{ int i = 0; output[0] = input[A]; i = i + 1; }";
    assert!(find(&lints(src), LintKind::DeadStore).is_empty());
}

#[test]
fn never_emits_flagged() {
    let diags = lints("{ int x = 1; x = x + 1; }");
    assert_eq!(find(&diags, LintKind::NeverEmits).len(), 1);
}

#[test]
fn emitting_filter_not_flagged() {
    let diags = lints("{ output[0] = input[A]; }");
    assert!(find(&diags, LintKind::NeverEmits).is_empty());
}

#[test]
fn emit_only_in_dead_branch_still_counts_as_never_emits() {
    let diags = lints("{ if (0) { output[0] = input[A]; } }");
    assert_eq!(find(&diags, LintKind::NeverEmits).len(), 1, "{diags:?}");
}

// ---- interval lints -------------------------------------------------

#[test]
fn derived_constant_condition_flagged_with_span() {
    let src = "{ int x = 5;\n  if (x > 3) { output[0] = input[A]; } }";
    let diags = lints(src);
    let hits = find(&diags, LintKind::ConstantCondition);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].pos.line, 2);
    assert!(
        hits[0].message.contains("always true"),
        "{}",
        hits[0].message
    );
}

#[test]
fn always_false_condition_flagged() {
    let src = "{ int x = 1; int y = 2;\n  if (x + 1 > y + 5) { output[0] = input[A]; } }";
    let hits_msgs: Vec<String> = find(&lints(src), LintKind::ConstantCondition)
        .iter()
        .map(|d| d.message.clone())
        .collect();
    assert_eq!(hits_msgs.len(), 1);
    assert!(hits_msgs[0].contains("always false"));
}

#[test]
fn data_dependent_condition_not_flagged() {
    let src = "{ if (input[A].value > 2) { output[0] = input[A]; } }";
    assert!(find(&lints(src), LintKind::ConstantCondition).is_empty());
}

#[test]
fn loop_modified_variable_not_assumed_constant() {
    // i changes in the loop; `if (i > 2)` inside must not be "constant".
    let src = "{ for (int i = 0; i < 5; i = i + 1) { if (i > 2) { output[0] = input[A]; } } }";
    assert!(find(&lints(src), LintKind::ConstantCondition).is_empty());
}

#[test]
fn literal_division_by_zero_is_warning_with_span() {
    let src = "{ output[0] = input[A];\n  int x = 7 / 0;\n  output[0].value = x; }";
    let diags = lints(src);
    let hits = find(&diags, LintKind::PossibleDivisionByZero);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].severity, Severity::Warning);
    assert_eq!(hits[0].pos.line, 2);
}

#[test]
fn zero_containing_range_divisor_is_note() {
    let src = "{ int n = 0;\n  if (input[A].value > 1) { n = 2; }\n  int y = 4 / n;\n  output[0] = input[A];\n  output[0].value = y; }";
    let diags = lints(src);
    let hits = find(&diags, LintKind::PossibleDivisionByZero);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].severity, Severity::Note);
    assert_eq!(hits[0].pos.line, 3);
}

#[test]
fn nonzero_divisor_not_flagged() {
    let src = "{ int n = 2;\n  if (input[A].value > 1) { n = 4; }\n  int y = 8 / n;\n  output[0] = input[A];\n  output[0].value = y; }";
    assert!(find(&lints(src), LintKind::PossibleDivisionByZero).is_empty());
}

#[test]
fn float_division_by_zero_not_flagged() {
    // The VM's float lane divides by zero without error (IEEE inf).
    let src = "{ double d = 1.0 / 0.0; output[0] = input[A]; output[0].value = d; }";
    assert!(find(&lints(src), LintKind::PossibleDivisionByZero).is_empty());
}

#[test]
fn fig3_lints_clean() {
    let p = analyze(&parse(FIG3_SOURCE).unwrap(), &fig3_env()).unwrap();
    let diags = lint(&p);
    assert!(diags.is_empty(), "Figure 3 must lint clean: {diags:?}");
}

// ---- cost certification ---------------------------------------------

/// Worst-case observed instruction count must never exceed the bound.
fn assert_bound_covers(src: &str, env: &EnvSpec, input_sets: &[Vec<MetricRecord>]) -> u64 {
    let unfolded = analyze(&parse(src).unwrap(), env).unwrap();
    let folded = fold_program(unfolded);
    let cert = certify(&folded);
    let bound = cert
        .bound()
        .unwrap_or_else(|| panic!("{src} must certify: {:?}", cert.cost));
    let chunk = crate::bytecode::compile(&folded);
    for inputs in input_sets {
        let out = vm::run(&chunk, inputs, bound.max(1))
            .unwrap_or_else(|e| panic!("certified filter failed under its own bound: {e} ({src})"));
        assert!(
            out.instructions() <= bound,
            "{src}: executed {} > bound {bound}",
            out.instructions()
        );
    }
    bound
}

fn abc_inputs() -> Vec<Vec<MetricRecord>> {
    vec![
        vec![
            MetricRecord::new(0, 0.0),
            MetricRecord::new(1, 0.0),
            MetricRecord::new(2, 0.0),
        ],
        vec![
            MetricRecord::new(0, 100.0),
            MetricRecord::new(1, -3.0),
            MetricRecord::new(2, 7.5),
        ],
    ]
}

#[test]
fn straight_line_bound_is_exact() {
    let src = "{ int x = 1; output[0] = input[A]; }";
    let folded = fold_program(resolved(src));
    let cert = certify(&folded);
    // ConstI, Store, ConstI, ConstI, EmitRecord, ReturnVoid = 6.
    assert_eq!(cert.bound(), Some(6));
}

#[test]
fn for_loop_bound_covers_execution() {
    let src = "{ int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } output[0] = input[A]; output[0].value = s; }";
    assert_bound_covers(src, &env(), &abc_inputs());
}

#[test]
fn while_loop_with_affine_induction_certifies() {
    let src = "{ int i = 0; while (i < 3) { output[i] = input[i]; i = i + 1; } }";
    assert_bound_covers(src, &env(), &abc_inputs());
}

#[test]
fn countdown_loop_certifies() {
    let src = "{ int i = 3; while (i > 0) { i = i - 1; } output[0] = input[A]; }";
    assert_bound_covers(src, &env(), &abc_inputs());
}

#[test]
fn nested_loops_multiply() {
    let src = "{ int s = 0; for (int i = 0; i < 4; i = i + 1) { for (int j = 0; j < 5; j = j + 1) { s = s + 1; } } output[0] = input[A]; output[0].value = s; }";
    let bound = assert_bound_covers(src, &env(), &abc_inputs());
    assert!(bound >= 20, "at least the 4x5 inner bodies: {bound}");
}

#[test]
fn loop_limit_from_earlier_constant_certifies() {
    let src = "{ int n = 6; int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } output[0] = input[A]; output[0].value = s; }";
    assert_bound_covers(src, &env(), &abc_inputs());
}

#[test]
fn continue_with_step_update_certifies() {
    let src = "{ int s = 0; for (int i = 0; i < 6; i = i + 1) { if (i % 2 == 0) { continue; } s = s + 1; } output[0] = input[A]; output[0].value = s; }";
    assert_bound_covers(src, &env(), &abc_inputs());
}

#[test]
fn fig3_certifies_within_default_budget() {
    let unfolded = analyze(&parse(FIG3_SOURCE).unwrap(), &fig3_env()).unwrap();
    let folded = fold_program(unfolded);
    let cert = certify(&folded);
    let bound = cert.bound().expect("Figure 3 must certify");
    assert!(
        bound <= vm::DEFAULT_BUDGET,
        "Figure 3 bound {bound} must fit the default budget"
    );
    assert!(cert.admission_error(vm::DEFAULT_BUDGET).is_none());
    // And the bound covers real executions, including the all-clauses-fire
    // case.
    let chunk = crate::bytecode::compile(&fold_program(
        analyze(&parse(FIG3_SOURCE).unwrap(), &fig3_env()).unwrap(),
    ));
    let busy = [
        MetricRecord::new(0, 9.0),
        MetricRecord::new(1, 99_999.0),
        MetricRecord::new(2, 1e6),
        MetricRecord::new(3, 1e9),
    ];
    let out = vm::run(&chunk, &busy, bound).unwrap();
    assert!(out.instructions() <= bound);
}

#[test]
fn infinite_while_is_unbounded_with_position() {
    let src = "{\n  while (1) { }\n}";
    let folded = fold_program(resolved(src));
    let cert = certify(&folded);
    let CostBound::Unbounded { pos, reason } = &cert.cost else {
        panic!("while(1) must not certify");
    };
    assert_eq!(pos.line, 2);
    assert!(reason.contains("constant"), "{reason}");
    assert!(cert.admission_error(vm::DEFAULT_BUDGET).is_some());
}

#[test]
fn conditional_induction_update_is_unbounded() {
    let src = "{ int i = 0; while (i < 10) { if (input[A].value > 1) { i = i + 1; } } }";
    assert!(!deploy_cert(src).is_certified());
}

#[test]
fn continue_skipping_body_update_is_unbounded() {
    let src = "{ int i = 0; while (i < 10) { if (input[A].value > 1) { continue; } i = i + 1; } }";
    assert!(!deploy_cert(src).is_certified());
}

#[test]
fn wrong_direction_step_is_unbounded() {
    let src = "{ for (int i = 0; i < 10; i = i - 1) { } }";
    assert!(!deploy_cert(src).is_certified());
}

#[test]
fn non_constant_limit_is_unbounded() {
    let src = "{ int i = 0; while (i < input[A].id) { i = i + 1; } }";
    assert!(!deploy_cert(src).is_certified());
}

#[test]
fn zero_trip_loop_certifies_cheap() {
    let src = "{ for (int i = 5; i < 5; i = i + 1) { output[0] = input[A]; } }";
    let folded = fold_program(resolved(src));
    let cert = certify(&folded);
    let bound = cert.bound().expect("zero-trip loop is bounded");
    // init + one condition check + jump bookkeeping + final return only.
    assert!(bound < 12, "{bound}");
}

#[test]
fn over_budget_bound_is_rejected_by_admission() {
    // 5000 iterations: bounded (~65k ops), but far beyond a budget of 100.
    let src =
        "{ int s = 0; for (int i = 0; i < 5000; i = i + 1) { s = s + 1; } output[0] = input[A]; }";
    let cert = deploy_cert(src);
    assert!(cert.is_certified());
    let err = cert.admission_error(100).expect("must exceed budget 100");
    assert!(err.contains("exceeds"), "{err}");
    assert!(cert.admission_error(vm::DEFAULT_BUDGET).is_none());
}

// ---- read sets ------------------------------------------------------

#[test]
fn fig3_read_set_is_all_four_metrics() {
    let folded = fold_program(analyze(&parse(FIG3_SOURCE).unwrap(), &fig3_env()).unwrap());
    let cert = certify(&folded);
    assert!(cert.emits());
    let MetricSet::Fixed(s) = &cert.reads else {
        panic!("Figure 3 indices are constants");
    };
    let got: Vec<usize> = s.iter().copied().collect();
    assert_eq!(got, vec![0, 1, 2, 3]);
}

#[test]
fn partial_read_set_lists_only_touched_metrics() {
    let src = "{ if (input[C].value > 2) { output[0] = input[C]; } }";
    let cert = deploy_cert(src);
    assert!(cert.reads.contains(2));
    assert!(!cert.reads.contains(0));
    assert!(!cert.reads.contains(1));
}

#[test]
fn dynamic_index_collapses_to_all() {
    let src = "{ for (int i = 0; i < 3; i = i + 1) { output[i] = input[i]; } }";
    let cert = deploy_cert(src);
    assert_eq!(cert.reads, MetricSet::All);
    assert!(cert.reads.contains(17));
}

#[test]
fn no_input_reads_is_empty_set() {
    let cert = deploy_cert("{ int x = 1; x = x + 1; }");
    assert_eq!(cert.reads, MetricSet::empty());
    assert!(!cert.reads.contains(0));
    assert!(!cert.emits());
}

#[test]
fn dead_branch_reads_drop_out_after_folding() {
    // Certification runs on the folded program: the read inside `if (0)`
    // is gone, so the read set is empty.
    let cert = deploy_cert("{ if (0) { output[0] = input[B]; } }");
    assert_eq!(cert.reads, MetricSet::empty());
    assert!(!cert.emits());
}

/// What `readset::scan`, the walk `effects::scan` absorbed, returned at
/// its last commit for every filter source in this file, plus a dynamic
/// and two negative constant indices (`None` is [`MetricSet::All`]).
#[test]
fn merged_walk_reads_what_the_separate_read_set_walk_read() {
    type Case = (&'static str, Option<&'static [usize]>, bool);
    let cases: &[Case] = &[
        ("{ int x;\n  if (input[A].value > 1) { x = 1; }\n  int y = x;\n  output[0] = input[A]; }", Some(&[0]), true),
        ("{}", Some(&[]), false),
        ("{ int x;\n  if (input[A].value > 1) { x = 1; } else { x = 2; }\n  output[0] = input[A];\n  output[0].value = x; }", Some(&[0]), true),
        ("{ int x; x = 5; output[0] = input[A]; output[0].value = x; }", Some(&[0]), true),
        ("{ output[0] = input[A];\n  return 1;\n  output[1] = input[B]; }", Some(&[0, 1]), true),
        ("{ output[0] = input[A];\n  return 1;\n  int a = 1;\n  int b = 2;\n  a = b; }", Some(&[0]), true),
        ("{ while (1) { output[0] = input[A]; }\n  output[1] = input[B]; }", Some(&[0, 1]), true),
        ("{ int x = 1;\n  x = 2;\n  output[0] = input[A];\n  output[0].value = x; }", Some(&[0]), true),
        ("{ int x = 1;\n  if (input[A].value > 1) { output[0] = input[A]; output[0].value = x; }\n  x = 2;\n  output[1] = input[B];\n  output[1].value = x; }", Some(&[0, 1]), true),
        ("{ int i = 0; output[0] = input[A]; i = i + 1; }", Some(&[0]), true),
        ("{ int x = 1; x = x + 1; }", Some(&[]), false),
        ("{ output[0] = input[A]; }", Some(&[0]), true),
        ("{ if (0) { output[0] = input[A]; } }", Some(&[]), false),
        ("{ int x = 5;\n  if (x > 3) { output[0] = input[A]; } }", Some(&[0]), true),
        ("{ int x = 1; int y = 2;\n  if (x + 1 > y + 5) { output[0] = input[A]; } }", Some(&[0]), true),
        ("{ if (input[A].value > 2) { output[0] = input[A]; } }", Some(&[0]), true),
        ("{ for (int i = 0; i < 5; i = i + 1) { if (i > 2) { output[0] = input[A]; } } }", Some(&[0]), true),
        ("{ output[0] = input[A];\n  int x = 7 / 0;\n  output[0].value = x; }", Some(&[0]), true),
        ("{ int n = 0;\n  if (input[A].value > 1) { n = 2; }\n  int y = 4 / n;\n  output[0] = input[A];\n  output[0].value = y; }", Some(&[0]), true),
        ("{ int n = 2;\n  if (input[A].value > 1) { n = 4; }\n  int y = 8 / n;\n  output[0] = input[A];\n  output[0].value = y; }", Some(&[0]), true),
        ("{ double d = 1.0 / 0.0; output[0] = input[A]; output[0].value = d; }", Some(&[0]), true),
        ("{ int x = 1; output[0] = input[A]; }", Some(&[0]), true),
        ("{ int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } output[0] = input[A]; output[0].value = s; }", Some(&[0]), true),
        ("{ int i = 0; while (i < 3) { output[i] = input[i]; i = i + 1; } }", None, true),
        ("{ int i = 3; while (i > 0) { i = i - 1; } output[0] = input[A]; }", Some(&[0]), true),
        ("{ int s = 0; for (int i = 0; i < 4; i = i + 1) { for (int j = 0; j < 5; j = j + 1) { s = s + 1; } } output[0] = input[A]; output[0].value = s; }", Some(&[0]), true),
        ("{ int n = 6; int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } output[0] = input[A]; output[0].value = s; }", Some(&[0]), true),
        ("{ int s = 0; for (int i = 0; i < 6; i = i + 1) { if (i % 2 == 0) { continue; } s = s + 1; } output[0] = input[A]; output[0].value = s; }", Some(&[0]), true),
        ("{\n  while (1) { }\n}", Some(&[]), false),
        ("{ int i = 0; while (i < 10) { if (input[A].value > 1) { i = i + 1; } } }", Some(&[0]), false),
        ("{ int i = 0; while (i < 10) { if (input[A].value > 1) { continue; } i = i + 1; } }", Some(&[0]), false),
        ("{ for (int i = 0; i < 10; i = i - 1) { } }", Some(&[]), false),
        ("{ int i = 0; while (i < input[A].id) { i = i + 1; } }", Some(&[0]), false),
        ("{ for (int i = 5; i < 5; i = i + 1) { output[0] = input[A]; } }", Some(&[0]), true),
        ("{ int s = 0; for (int i = 0; i < 5000; i = i + 1) { s = s + 1; } output[0] = input[A]; }", Some(&[0]), true),
        ("{ if (input[C].value > 2) { output[0] = input[C]; } }", Some(&[2]), true),
        ("{ for (int i = 0; i < 3; i = i + 1) { output[i] = input[i]; } }", None, true),
        ("{ if (0) { output[0] = input[B]; } }", Some(&[]), false),
        ("{ int x = 1; x = 2;\n  if (0) { output[0] = input[A]; } }", Some(&[]), false),
        ("{ int x = 0; if (input[A].value > 1) { x = 2; } }", Some(&[0]), false),
        ("{ if (input[A].value > 1) { output[0] = input[A]; } }", Some(&[0]), true),
        ("{ if (input[A].value > input[A].last_value_sent) { output[0] = input[A]; } }", Some(&[0]), true),
        ("{ output[0] = input[A]; output[0].last_value_sent = 5.0; }", Some(&[0]), true),
        ("{ if (input[B].value > 1e18) { int x = input[A].last_value_sent; } }", Some(&[0, 1]), false),
        ("{ int i; for (i = 0; i < 2; i = i + 1) { output[i] = input[A]; } }", Some(&[0]), true),
        ("{ output[0] = input[A]; output[0].value = input[B].last_value_sent; }", Some(&[0, 1]), true),
        ("{ int i = 0; if (input[i].value > 1) { output[0] = input[A]; } }", None, true),
        ("{ output[0] = input[0 - 1]; }", None, true),
        ("{ if (input[0-1].value > 1) { output[0] = input[B]; } }", None, true),
    ];
    for &(src, reads, emits) in cases {
        let cert = deploy_cert(src);
        let want = reads.map_or(MetricSet::All, |r| {
            MetricSet::Fixed(r.iter().copied().collect())
        });
        assert_eq!(cert.reads, want, "{src}");
        assert_eq!(cert.emits(), emits, "{src}");
    }
}

// ---- plumbing -------------------------------------------------------

#[test]
fn diagnostics_sorted_and_deduped() {
    let src = "{ int x = 1; x = 2;\n  if (0) { output[0] = input[A]; } }";
    let diags = lints(src);
    for w in diags.windows(2) {
        assert!(
            (w[0].pos.line, w[0].pos.col) <= (w[1].pos.line, w[1].pos.col),
            "sorted by position"
        );
    }
}

#[test]
fn diagnostic_display_format() {
    let d = Diagnostic {
        pos: Pos::new(3, 7),
        kind: LintKind::DeadStore,
        severity: Severity::Note,
        message: "value stored to `x` is overwritten".to_string(),
    };
    let s = d.to_string();
    assert!(s.contains("note[dead-store]"), "{s}");
    assert!(s.contains("3:7"), "{s}");
}

#[test]
fn cert_attached_by_filter_compile() {
    let f = crate::Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
    assert!(f.cert().is_certified());
    assert!(f.cert().emits());
}

#[test]
fn lint_findings_come_from_the_report_not_from_admission() {
    // Dead store, constant condition, unreachable code, never emits: the
    // certificate a publisher admits on carries none of it, and the
    // report made from the same source lists all of it.
    let src = "{ int x = 1;\n  x = 2;\n  if (x > 1) { return 1; }\n  x = 3; }";
    let f = crate::Filter::compile(src, &env()).unwrap();
    assert_eq!(*f.cert(), deploy_cert(src));
    let (report, admitted) = lint_report(f.source(), f.env(), f.budget()).unwrap();
    assert!(admitted);
    for kind in ["dead-store", "constant-condition", "never-emits"] {
        assert!(report.contains(kind), "{kind} missing from:\n{report}");
    }
    let found = lints(src);
    assert!(found.len() >= 3, "{found:?}");
    assert!(found.iter().all(|d| report.contains(&d.to_string())));
    assert!(report.ends_with("verdict: admitted"), "{report}");
}

#[test]
fn report_renders_the_whole_certificate() {
    let (report, admitted) = lint_report("{ output[1] = input[B]; }", &env(), 3).unwrap();
    assert!(!admitted, "bound 4 over a budget of 3");
    let want = "cost: at most 4 VM instructions (budget 3)\n\
                reads: B\n\
                writes: output[1]\n\
                emits: yes\n\
                memo: shared (one run serves every subscriber, stamped with its last_value_sent); \
                memo_safe = true\n\
                verdict: rejected — filter worst-case cost 4 exceeds the instruction budget 3";
    assert_eq!(report, want);
    let (dynamic, _) = lint_report(
        "{ int i; for (i = 0; i < 2; i = i + 1) { output[i] = input[i]; } }",
        &env(),
        999,
    )
    .unwrap();
    assert!(
        dynamic.contains("reads: all metrics (dynamic input index)"),
        "{dynamic}"
    );
    assert!(
        dynamic.contains("writes: all output slots (dynamic index)"),
        "{dynamic}"
    );
    let (none, _) = lint_report("{ int x = 0; }", &env(), 999).unwrap();
    assert!(
        none.contains("reads: nothing\nwrites: nothing\nemits: no"),
        "{none}"
    );
    assert!(lint_report("{ nonsense", &env(), 999).is_err());
}

// ---- effect pass ----------------------------------------------------

#[test]
fn pure_non_emitting_filter_is_shared_class() {
    let cert = deploy_cert("{ int x = 0; if (input[A].value > 1) { x = 2; } }");
    assert!(cert.memo_safe());
    assert_eq!(cert.effects.memo, MemoClass::Shared);
    assert!(!cert.effects.reads_last_sent);
    assert!(!cert.effects.copies_records);
    assert_eq!(cert.effects.writes, MetricSet::empty());
}

#[test]
fn record_emitting_filter_is_shared_class() {
    let cert = deploy_cert("{ if (input[A].value > 1) { output[0] = input[A]; } }");
    assert!(cert.memo_safe());
    assert_eq!(cert.effects.memo, MemoClass::Shared);
    assert!(cert.effects.copies_records);
    assert!(!cert.effects.writes_id);
    let MetricSet::Fixed(writes) = &cert.effects.writes else {
        panic!("constant slot index should stay fixed");
    };
    assert_eq!(writes.iter().copied().collect::<Vec<_>>(), vec![0]);
}

#[test]
fn last_value_sent_read_forces_bypass() {
    let cert =
        deploy_cert("{ if (input[A].value > input[A].last_value_sent) { output[0] = input[A]; } }");
    assert!(!cert.memo_safe());
    assert_eq!(cert.effects.memo, MemoClass::Bypass);
    assert!(cert.effects.reads_last_sent);
}

#[test]
fn last_value_sent_write_forces_bypass() {
    let cert = deploy_cert("{ output[0] = input[A]; output[0].last_value_sent = 5.0; }");
    assert!(!cert.memo_safe());
    assert!(cert.effects.writes_last_sent);
    assert!(!cert.effects.reads_last_sent);
}

#[test]
fn never_taken_last_value_sent_read_still_forces_bypass() {
    // Conservative: a syntactic occurrence in the folded program
    // suffices; the pass never reasons about which branches run. (A
    // constant-false branch is different — the folder erases it before
    // certification, and with it the read.)
    let cert = deploy_cert("{ if (input[B].value > 1e18) { int x = input[A].last_value_sent; } }");
    assert!(!cert.memo_safe());
}

#[test]
fn dynamic_output_slot_collapses_write_set() {
    let cert = deploy_cert("{ int i; for (i = 0; i < 2; i = i + 1) { output[i] = input[A]; } }");
    assert_eq!(cert.effects.writes, MetricSet::All);
    assert_eq!(cert.effects.memo, MemoClass::Shared);
}

#[test]
fn renaming_a_copied_record_forces_bypass() {
    // The copy's `id` no longer names its source, so a shared run could
    // not stamp it with the subscriber's last-sent value for that source.
    let cert = deploy_cert("{ output[0] = input[A]; output[0].id = 3; }");
    assert!(!cert.memo_safe());
    assert_eq!(cert.effects.memo, MemoClass::Bypass);
    assert!(cert.effects.copies_records && cert.effects.writes_id);
    assert!(!cert.effects.reads_last_sent && !cert.effects.writes_last_sent);
    // Without a copy an `id` assignment meets an empty slot and faults
    // the same way for every subscriber.
    let cert = deploy_cert("{ output[0].id = 3; }");
    assert_eq!(cert.effects.memo, MemoClass::Shared);
    assert!(cert.effects.writes_id);
}

#[test]
fn fig3_is_bypass_class() {
    // Figure 3's CACHE_MISS clause compares against last_value_sent, so
    // the whole filter is per-subscriber.
    let f = crate::Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
    assert!(!f.cert().memo_safe());
    assert_eq!(f.cert().effects.memo, MemoClass::Bypass);
}

#[test]
fn output_field_value_read_of_state_is_caught() {
    // The state read hides inside an output-field value expression.
    let cert = deploy_cert("{ output[0] = input[A]; output[0].value = input[B].last_value_sent; }");
    assert!(!cert.memo_safe());
    assert!(cert.effects.reads_last_sent);
}
