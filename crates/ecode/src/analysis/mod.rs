//! Static analysis over the resolved filter IR: cost certification,
//! metric read-set and effect extraction, and dataflow diagnostics.
//!
//! The paper compiles operator-supplied E-code and runs it inside the
//! monitoring path — kernel-resident in the original dproc. Running
//! untrusted code there needs the same discipline an in-kernel eBPF
//! verifier applies: prove, *before* admission, that every execution
//! terminates within a budget, and learn what the program touches so the
//! host can specialize around it. This module is that verifier:
//!
//! * [`certify`] runs on the **folded** program (exactly what the
//!   bytecode compiler sees) and produces a [`FilterCert`]: a worst-case
//!   instruction bound mirroring the VM's per-op budget accounting, and —
//!   from one syntactic walk — the metric indices the filter reads, the
//!   output slots it writes and how its runs may be shared. Loops must
//!   have inferable trip counts (affine induction variables over constant
//!   bounds); anything else is [`CostBound::Unbounded`] and the deployment
//!   layer rejects it. [`crate::Filter::compile`] runs it and attaches the
//!   result to the [`crate::Filter`]; admission needs nothing else.
//! * [`lint`] runs on the **unfolded** program (so constant conditions
//!   the optimizer would erase are still visible) and reports
//!   [`Diagnostic`]s with source positions: use of a variable before
//!   initialization, unreachable statements, always-true/false
//!   conditions, possible integer division by zero, stores whose value
//!   is overwritten before any use, and filters that can never emit.
//!   Diagnostics are advisory, so no publisher computes them: they are
//!   produced by [`lint_report`], when a person asks for one.

mod cfg;
mod cost;
mod dataflow;
mod effects;
mod interval;

use std::collections::BTreeSet;
use std::fmt;

use crate::error::CompileError;
use crate::filter::EnvSpec;
use crate::sema::RProgram;
use crate::token::Pos;

pub use cost::CostBound;
pub use effects::{EffectSummary, MemoClass};

/// How serious a diagnostic is. Lints never block deployment (that is
/// the cost certificate's job); severity is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Almost certainly a mistake.
    Warning,
    /// Worth a look.
    Note,
}

/// What a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// A variable may be read while still holding its implicit zero.
    UseBeforeInit,
    /// Statement can never execute.
    UnreachableCode,
    /// `if` condition is provably always true or always false.
    ConstantCondition,
    /// Integer division or modulo whose divisor may be zero.
    PossibleDivisionByZero,
    /// Stored value is overwritten on every path before being read.
    DeadStore,
    /// The filter contains no reachable `output[...] = input[...];`.
    NeverEmits,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::UseBeforeInit => "use-before-init",
            LintKind::UnreachableCode => "unreachable-code",
            LintKind::ConstantCondition => "constant-condition",
            LintKind::PossibleDivisionByZero => "possible-division-by-zero",
            LintKind::DeadStore => "dead-store",
            LintKind::NeverEmits => "never-emits",
        };
        f.write_str(s)
    }
}

/// One finding, anchored to a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Where in the filter source.
    pub pos: Pos,
    /// Category.
    pub kind: LintKind,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        write!(f, "{sev}[{}] at {}: {}", self.kind, self.pos, self.message)
    }
}

/// The set of metric input indices a filter reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSet {
    /// At least one `input[...]` index is not a compile-time constant —
    /// assume everything is read.
    All,
    /// Exactly these indices (empty = reads nothing).
    Fixed(BTreeSet<usize>),
}

impl MetricSet {
    /// The empty read set.
    pub fn empty() -> Self {
        MetricSet::Fixed(BTreeSet::new())
    }

    /// Whether metric `index` may be read.
    pub fn contains(&self, index: usize) -> bool {
        match self {
            MetricSet::All => true,
            MetricSet::Fixed(s) => s.contains(&index),
        }
    }

    /// Render for a report: `all` when the set collapsed, `nothing` when
    /// it is empty, else the members through `name`, comma-separated.
    fn describe(&self, all: &str, name: impl Fn(usize) -> String) -> String {
        match self {
            MetricSet::All => all.to_string(),
            MetricSet::Fixed(s) if s.is_empty() => "nothing".to_string(),
            MetricSet::Fixed(s) => s.iter().map(|&i| name(i)).collect::<Vec<_>>().join(", "),
        }
    }

    /// Add one index.
    pub fn insert(&mut self, index: usize) {
        if let MetricSet::Fixed(s) = self {
            s.insert(index);
        }
    }

    /// Collapse to [`MetricSet::All`].
    pub fn make_all(&mut self) {
        *self = MetricSet::All;
    }
}

/// The certificate attached to every compiled filter.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterCert {
    /// Worst-case VM instruction count, or why none could be proven.
    pub cost: CostBound,
    /// Metric indices the filter may read.
    pub reads: MetricSet,
    /// Write-set, state-dependence flags, and the sharing class.
    pub effects: EffectSummary,
}

impl FilterCert {
    /// Whether any statement emits an output record.
    pub fn emits(&self) -> bool {
        self.effects.copies_records
    }

    /// Whether the publisher's shared-filter memo may serve this filter
    /// at all: false when the filter reads or writes the per-subscriber
    /// `last_value_sent` state or renames a copied record, in which case
    /// it must be evaluated once per subscriber.
    pub fn memo_safe(&self) -> bool {
        self.effects.memo != MemoClass::Bypass
    }

    /// True when a finite worst-case instruction bound was proven.
    pub fn is_certified(&self) -> bool {
        matches!(self.cost, CostBound::Bounded(_))
    }

    /// The proven bound, if any.
    pub fn bound(&self) -> Option<u64> {
        match self.cost {
            CostBound::Bounded(n) => Some(n),
            CostBound::Unbounded { .. } => None,
        }
    }

    /// Why this filter must be refused under `budget`, or `None` when it
    /// is admissible. The string is what travels back over the control
    /// channel on rejection.
    pub fn admission_error(&self, budget: u64) -> Option<String> {
        match &self.cost {
            CostBound::Unbounded { pos, reason } => {
                Some(format!("filter cost is unbounded (at {pos}): {reason}"))
            }
            CostBound::Bounded(n) if *n > budget => Some(format!(
                "filter worst-case cost {n} exceeds the instruction budget {budget}"
            )),
            CostBound::Bounded(_) => None,
        }
    }
}

/// Lint a resolved (unfolded) program. Runs the CFG/dataflow pass and
/// the interval walk, merges their findings, and sorts by position.
pub fn lint(prog: &RProgram) -> Vec<Diagnostic> {
    let graph = cfg::Cfg::build(prog);
    let mut diags = dataflow::lint(prog, &graph);
    diags.extend(interval::lint(prog));
    diags.sort_by_key(|d| (d.pos.line, d.pos.col, d.kind));
    diags.dedup_by(|a, b| a.pos == b.pos && a.kind == b.kind);
    diags
}

/// Certify a **folded** program: worst-case cost bound plus read set
/// and effects. Run this on exactly the program the bytecode compiler
/// compiles, or the bound will not cover the emitted instruction stream.
pub fn certify(prog: &RProgram) -> FilterCert {
    let (reads, effects) = effects::scan(prog);
    FilterCert {
        cost: cost::bound_program(prog),
        reads,
        effects,
    }
}

/// Everything the verifier can say about `source`, as text, and whether
/// a publisher with `budget` would admit it: the lint findings on the
/// unfolded program, then the certificate of the folded one (cost, read
/// and write sets, emit flag, memo class) and the verdict. What
/// `ecode-lint` and the shell's `lint` print.
pub fn lint_report(
    source: &str,
    env: &EnvSpec,
    budget: u64,
) -> Result<(String, bool), CompileError> {
    let resolved = crate::sema::analyze(&crate::parser::parse(source)?, env)?;
    let mut lines: Vec<String> = lint(&resolved).iter().map(ToString::to_string).collect();
    let cert = certify(&crate::opt::fold_program(resolved));
    lines.push(match &cert.cost {
        CostBound::Bounded(n) => format!("cost: at most {n} VM instructions (budget {budget})"),
        CostBound::Unbounded { pos, reason } => format!("cost: unbounded (at {pos}): {reason}"),
    });
    let (fx, unnamed) = (&cert.effects, |i| format!("#{i}"));
    let metric = |i| env.name_of(i).map_or_else(|| unnamed(i), str::to_string);
    let reads = cert
        .reads
        .describe("all metrics (dynamic input index)", metric);
    let slot = |i| format!("output[{i}]");
    let writes = fx.writes.describe("all output slots (dynamic index)", slot);
    let emits = if cert.emits() { "yes" } else { "no" };
    lines.push(format!("reads: {reads}\nwrites: {writes}\nemits: {emits}"));
    let (label, safe) = (fx.memo.label(), cert.memo_safe());
    let note = match fx.memo {
        MemoClass::Shared => "one run serves every subscriber, stamped with its last_value_sent",
        MemoClass::Bypass => "touches last_value_sent or renames a copy — run per subscriber",
    };
    lines.push(format!("memo: {label} ({note}); memo_safe = {safe}"));
    let verdict = cert.admission_error(budget);
    lines.push(match &verdict {
        None => "verdict: admitted".to_string(),
        Some(reason) => format!("verdict: rejected — {reason}"),
    });
    Ok((lines.join("\n"), verdict.is_none()))
}

#[cfg(test)]
mod tests;
