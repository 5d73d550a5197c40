//! The syntactic walk behind a certificate: metric read-set, output
//! write-set, state-dependence, and the memo classification that gates
//! the publisher's shared-filter memo.
//!
//! **Read and write sets.** Indices that are compile-time constants go
//! into a [`MetricSet::Fixed`]; a single dynamic or negative index (e.g.
//! `input[i]` in a loop) collapses the set to [`MetricSet::All`]. d-mon
//! uses the read set to skip sampling modules no deployed filter reads.
//!
//! **Memo class.** The VM itself is a pure function of its inputs — a
//! filter cannot touch anything outside its locals and output slots. The
//! *only* per-subscriber state a publisher feeds in is each metric's
//! `last_value_sent`, which differs between subscribers of the same
//! channel. An output slot only comes into existence by copying an input
//! record (`output[k] = input[j]`; assigning a field of an empty slot is
//! a runtime error), and input `j` carries `id = j`. So unless the filter
//! touches `last_value_sent` or assigns an output `id`, everything it
//! produces — records, accept flag, instruction count, error — is the
//! same for every subscriber of a poll, except that an emitted record
//! carries the subscriber's own `last_value_sent` for the record's `id`.
//! One run, stamped per subscriber, serves them all. This pass proves
//! that, or refuses to.
//!
//! Two classes fall out of the walk:
//!
//! * [`MemoClass::Shared`] — the filter neither reads nor writes
//!   `last_value_sent`, and does not both copy records and assign an
//!   output `id`. One run per poll serves every subscriber; d-mon stamps
//!   each emitted record with that subscriber's last-sent value for its
//!   `id`.
//! * [`MemoClass::Bypass`] — the filter reads or writes
//!   `last_value_sent`, or copies records and assigns an output `id` (the
//!   one way `id` stops naming the record's source). Its behaviour is
//!   per-subscriber and the memo is bypassed entirely.
//!
//! The walk is conservative: any syntactic occurrence counts, reachable
//! or not. A dead `last_value_sent` read costs sharing, never
//! soundness.

use super::MetricSet;
use crate::ast::Field;
use crate::sema::{RExpr, RExprKind, RProgram, RStmt, RStmtKind};

/// How a publisher may share one evaluation of this filter across the
/// subscribers that deployed identical source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoClass {
    /// Output provably the same for every subscriber but for each emitted
    /// record's `last_value_sent`, which is the subscriber's own for the
    /// record's `id`: one run per poll, stamped per subscriber.
    Shared,
    /// Reads or writes per-subscriber state, or renames a copied record:
    /// never share.
    Bypass,
}

impl MemoClass {
    /// Human-readable label (shell `lint` output).
    pub fn label(self) -> &'static str {
        match self {
            MemoClass::Shared => "shared",
            MemoClass::Bypass => "per-subscriber",
        }
    }
}

/// What a filter can do to the world, as proven by the static walk.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectSummary {
    /// Output slot indices the filter may write (`output[i] = ...` and
    /// `output[i].field = ...`). [`MetricSet::All`] when any slot index
    /// is not a compile-time constant.
    pub writes: MetricSet,
    /// Reads `input[...].last_value_sent` somewhere.
    pub reads_last_sent: bool,
    /// Writes `output[...].last_value_sent` somewhere.
    pub writes_last_sent: bool,
    /// Emits a whole input record (`output[i] = input[j];`), which
    /// copies the per-subscriber `last_value_sent` field verbatim.
    pub copies_records: bool,
    /// Assigns `output[...].id` somewhere.
    pub writes_id: bool,
    /// The sharing verdict derived from the flags above.
    pub memo: MemoClass,
}

/// `(reads, effects)` of a folded program, from one walk.
pub fn scan(prog: &RProgram) -> (MetricSet, EffectSummary) {
    let mut scanner = Scanner {
        reads: MetricSet::empty(),
        fx: EffectSummary {
            writes: MetricSet::empty(),
            reads_last_sent: false,
            writes_last_sent: false,
            copies_records: false,
            writes_id: false,
            memo: MemoClass::Shared,
        },
    };
    scanner.stmts(&prog.body);
    let Scanner { reads, mut fx } = scanner;
    if fx.reads_last_sent || fx.writes_last_sent || (fx.copies_records && fx.writes_id) {
        fx.memo = MemoClass::Bypass;
    }
    (reads, fx)
}

struct Scanner {
    reads: MetricSet,
    fx: EffectSummary,
}

impl Scanner {
    fn stmts(&mut self, stmts: &[RStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &RStmt) {
        match &stmt.kind {
            RStmtKind::Store { value, .. } => self.expr(value),
            RStmtKind::OutputRecord { index, input_index } => {
                self.fx.copies_records = true;
                self.index(index, false);
                self.index(input_index, true);
            }
            RStmtKind::OutputField {
                index,
                field,
                value,
            } => {
                match field {
                    Field::LastValueSent => self.fx.writes_last_sent = true,
                    Field::Id => self.fx.writes_id = true,
                    Field::Value | Field::Timestamp => {}
                }
                self.index(index, false);
                self.expr(value);
            }
            RStmtKind::If { cond, then, else_ } => {
                self.expr(cond);
                self.stmts(then);
                self.stmts(else_);
            }
            RStmtKind::Loop {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(cond) = cond {
                    self.expr(cond);
                }
                if let Some(step) = step {
                    self.stmt(step);
                }
                self.stmts(body);
            }
            RStmtKind::Return(value) => {
                if let Some(v) = value {
                    self.expr(v);
                }
            }
            RStmtKind::Break | RStmtKind::Continue => {}
            RStmtKind::Block(body) => self.stmts(body),
        }
    }

    fn expr(&mut self, e: &RExpr) {
        match &e.kind {
            RExprKind::ConstI(_) | RExprKind::ConstF(_) | RExprKind::Local(_) => {}
            RExprKind::InputField(index, field) => {
                if *field == Field::LastValueSent {
                    self.fx.reads_last_sent = true;
                }
                self.index(index, true);
            }
            RExprKind::Binary(_, l, r) => {
                self.expr(l);
                self.expr(r);
            }
            RExprKind::Unary(_, inner) => self.expr(inner),
        }
    }

    /// Record a read of `input[index]` (whole record or field) or a
    /// write to `output[index]`.
    fn index(&mut self, index: &RExpr, read: bool) {
        let set = if read {
            &mut self.reads
        } else {
            &mut self.fx.writes
        };
        match index.kind {
            RExprKind::ConstI(v) if v >= 0 => set.insert(v as usize),
            // Dynamic or negative index: assume any slot may be touched.
            _ => {
                set.make_all();
                self.expr(index);
            }
        }
    }
}
