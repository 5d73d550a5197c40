//! `ecode` — a compiler and virtual machine for the E-code filter
//! language.
//!
//! The paper deploys *dynamic filters*: functions written in E-code — "a
//! small subset of the C programming language, supporting the C operators,
//! for loops, if statements, and return statements" — shipped as source
//! strings over dproc's control channel and compiled at the publishing
//! host, then executed before every event submission to transform or
//! suppress outgoing monitoring data.
//!
//! This crate is that compiler. The original E-code generates native
//! binary code; we compile to a compact bytecode executed by one engine,
//! a stack VM with an instruction budget (a kernel would want the same
//! guard), after a static verifier has certified the program's
//! worst-case cost. The latency structure is identical: compile once at
//! deployment, execute per submission.
//!
//! # Language
//!
//! * types: `int` (64-bit) and `double`, with implicit `int → double`
//!   promotion; metric *records* flow between `input[]` and `output[]`,
//! * statements: declarations, assignments, `if`/`else`, `for`, `while`,
//!   `break`/`continue`, `return`, blocks,
//! * expressions: the C arithmetic (`+ - * / %`), comparison
//!   (`< <= > >= == !=`), logical (`&& || !`) and unary (`-`) operators,
//!   parenthesized grouping, integer and floating literals (including
//!   scientific notation like `50e6`),
//! * the filter ABI: `input[METRIC]` reads the pending monitoring record
//!   for a metric (named constants such as `LOADAVG` come from the
//!   [`EnvSpec`]); records expose `.value`, `.last_value_sent`,
//!   `.timestamp` and `.id`; assigning `output[i] = input[j];` emits a
//!   record, and `output[i].value = expr;` rewrites an emitted record's
//!   value (data transformation).
//!
//! The paper's Figure 3 filter compiles and runs verbatim — see
//! `tests::fig3` in [`filter`].
//!
//! # Example
//!
//! ```
//! use ecode::{EnvSpec, Filter, MetricRecord};
//!
//! let env = EnvSpec::new(["LOADAVG", "FREEMEM"]);
//! let filter = Filter::compile(
//!     "{ if (input[LOADAVG].value > 2.0) { output[0] = input[LOADAVG]; } }",
//!     &env,
//! ).unwrap();
//!
//! let quiet = [MetricRecord::new(0, 1.0), MetricRecord::new(1, 9e6)];
//! assert!(filter.run(&quiet).unwrap().records().is_empty());
//!
//! let busy = [MetricRecord::new(0, 3.5), MetricRecord::new(1, 9e6)];
//! let out = filter.run(&busy).unwrap();
//! assert_eq!(out.records().len(), 1);
//! assert_eq!(out.records()[0].value, 3.5);
//! ```

pub mod analysis;
pub mod ast;
pub mod bytecode;
pub mod error;
pub mod filter;
pub mod lexer;
pub mod opt;
pub mod parser;
pub mod sema;
pub mod token;
pub mod vm;

pub use analysis::{
    lint_report, CostBound, Diagnostic, EffectSummary, FilterCert, LintKind, MemoClass, MetricSet,
    Severity,
};
pub use error::{CompileError, RuntimeError};
pub use filter::{
    compile_filter, fig3_env, CompiledFilter, EnvSpec, Filter, FilterOutput, MetricRecord,
    FIG3_SOURCE,
};
