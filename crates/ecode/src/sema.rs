//! Semantic analysis: scope resolution, metric-constant binding, and type
//! checking. Produces a *resolved AST* the bytecode compiler consumes.
//!
//! Rules enforced here:
//!
//! * every variable is declared before use; re-declaration in the same
//!   scope is an error; inner scopes may shadow,
//! * bare identifiers that are not variables resolve to metric constants
//!   of the [`crate::EnvSpec`] (e.g. `LOADAVG` → its input index) — and
//!   anything else is an "unknown identifier" error,
//! * whole records (`input[i]`) may only appear as the right-hand side of
//!   `output[j] = ...`; everywhere else a `.field` projection is required,
//! * arithmetic follows C: if either operand is `double` the operation is
//!   `double`; storing a `double` into an `int` variable truncates, and
//!   storing an `int` into a `double` variable widens,
//! * `break`/`continue` only inside loops.

use crate::ast::{BinOp, Expr, ExprKind, Field, Program, Stmt, StmtKind, Ty, UnOp};
use crate::error::CompileError;
use crate::filter::EnvSpec;
use crate::token::Pos;

/// A resolved expression with its computed type and source position.
#[derive(Debug, Clone, PartialEq)]
pub struct RExpr {
    /// Source position (for diagnostics).
    pub pos: Pos,
    /// Result type.
    pub ty: Ty,
    /// The resolved expression.
    pub kind: RExprKind,
}

/// Resolved expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum RExprKind {
    /// Integer constant (literals and metric constants).
    ConstI(i64),
    /// Float constant.
    ConstF(f64),
    /// Local variable slot.
    Local(u16),
    /// `input[index].field`.
    InputField(Box<RExpr>, Field),
    /// Binary operation.
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    /// Unary operation.
    Unary(UnOp, Box<RExpr>),
}

/// A resolved statement: a source position plus the statement itself.
///
/// Positions survive resolution so the static analyzer
/// ([`crate::analysis`]) can report diagnostics with spans against the
/// original filter source.
#[derive(Debug, Clone, PartialEq)]
pub struct RStmt {
    /// Source position (for diagnostics).
    pub pos: Pos,
    /// The statement.
    pub kind: RStmtKind,
}

/// Resolved statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmtKind {
    /// Store into a local slot; `truncate` if an int target receives a
    /// double, `widen` if a double target receives an int.
    Store {
        /// Target slot.
        slot: u16,
        /// Value to store.
        value: RExpr,
        /// Apply C truncation (double → int).
        truncate: bool,
        /// Apply C widening (int → double).
        widen: bool,
        /// True for the implicit zero-initialization of a declaration
        /// without an initializer (`int x;`); lets the analyzer
        /// distinguish "never explicitly assigned" from real stores.
        synthetic: bool,
    },
    /// `output[index] = input[input_index];`
    OutputRecord {
        /// Output slot expression.
        index: RExpr,
        /// Input record index expression.
        input_index: RExpr,
    },
    /// `output[index].field = value;`
    OutputField {
        /// Output slot expression.
        index: RExpr,
        /// Field to overwrite.
        field: Field,
        /// New value.
        value: RExpr,
    },
    /// Conditional.
    If {
        /// Condition (numeric; nonzero = true).
        cond: RExpr,
        /// Then branch.
        then: Vec<RStmt>,
        /// Else branch.
        else_: Vec<RStmt>,
    },
    /// Unified loop (`for` and `while` both lower here).
    Loop {
        /// Runs once before the loop.
        init: Option<Box<RStmt>>,
        /// Checked before each iteration (absent = infinite).
        cond: Option<RExpr>,
        /// Runs after each iteration (and on `continue`).
        step: Option<Box<RStmt>>,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// Return, optionally with an accept/suppress value.
    Return(Option<RExpr>),
    /// Break out of the innermost loop.
    Break,
    /// Continue the innermost loop.
    Continue,
    /// Statement sequence (scope already resolved away).
    Block(Vec<RStmt>),
}

/// A fully resolved filter program.
#[derive(Debug, Clone, PartialEq)]
pub struct RProgram {
    /// Statements.
    pub body: Vec<RStmt>,
    /// Number of local slots to allocate.
    pub n_locals: u16,
    /// Source name of each slot, indexed by slot number (slots are never
    /// reused, so this is one entry per declaration). Diagnostics use
    /// these to talk about variables instead of slot numbers.
    pub slot_names: Vec<String>,
}

struct Scope {
    /// (name, slot, ty) triples; inner scopes push, leaving drops.
    vars: Vec<(String, u16, Ty)>,
    /// Stack of scope start indices.
    marks: Vec<usize>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            vars: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn enter(&mut self) {
        self.marks.push(self.vars.len());
    }

    fn leave(&mut self) {
        let mark = self.marks.pop().expect("scope underflow");
        self.vars.truncate(mark);
    }

    fn declare(&mut self, name: &str, slot: u16, ty: Ty) -> bool {
        let mark = self.marks.last().copied().unwrap_or(0);
        if self.vars[mark..].iter().any(|(n, _, _)| n == name) {
            return false;
        }
        self.vars.push((name.to_string(), slot, ty));
        true
    }

    fn lookup(&self, name: &str) -> Option<(u16, Ty)> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|&(_, slot, ty)| (slot, ty))
    }
}

struct Analyzer<'a> {
    env: &'a EnvSpec,
    scope: Scope,
    next_slot: u16,
    loop_depth: u32,
    slot_names: Vec<String>,
}

/// Analyze a parsed program against a metric environment.
pub fn analyze(prog: &Program, env: &EnvSpec) -> Result<RProgram, CompileError> {
    let mut a = Analyzer {
        env,
        scope: Scope::new(),
        next_slot: 0,
        loop_depth: 0,
        slot_names: Vec::new(),
    };
    let body = a.stmts(&prog.body)?;
    Ok(RProgram {
        body,
        n_locals: a.next_slot,
        slot_names: a.slot_names,
    })
}

impl<'a> Analyzer<'a> {
    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<RStmt>, CompileError> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<RStmt, CompileError> {
        match &stmt.kind {
            StmtKind::Decl { ty, name, init } => {
                let slot = self.next_slot;
                self.next_slot = self
                    .next_slot
                    .checked_add(1)
                    .ok_or_else(|| CompileError::new(stmt.pos, "too many local variables"))?;
                self.slot_names.push(name.clone());
                let (value, synthetic) = match init {
                    Some(e) => (self.expr(e)?, false),
                    None => (
                        RExpr {
                            pos: stmt.pos,
                            ty: *ty,
                            kind: match ty {
                                Ty::Int => RExprKind::ConstI(0),
                                Ty::Double => RExprKind::ConstF(0.0),
                            },
                        },
                        true,
                    ),
                };
                if !self.scope.declare(name, slot, *ty) {
                    return Err(CompileError::new(
                        stmt.pos,
                        format!("variable `{name}` already declared in this scope"),
                    ));
                }
                let truncate = *ty == Ty::Int && value.ty == Ty::Double;
                let widen = *ty == Ty::Double && value.ty == Ty::Int;
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Store {
                        slot,
                        value,
                        truncate,
                        widen,
                        synthetic,
                    },
                })
            }
            StmtKind::Assign { name, value } => {
                let (slot, ty) = self.scope.lookup(name).ok_or_else(|| {
                    CompileError::new(
                        stmt.pos,
                        format!("assignment to undeclared variable `{name}`"),
                    )
                })?;
                let value = self.expr(value)?;
                let truncate = ty == Ty::Int && value.ty == Ty::Double;
                let widen = ty == Ty::Double && value.ty == Ty::Int;
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Store {
                        slot,
                        value,
                        truncate,
                        widen,
                        synthetic: false,
                    },
                })
            }
            StmtKind::OutputRecord { index, record } => {
                let index = self.numeric(index, "output index")?;
                // The rhs must be a whole input record.
                let ExprKind::InputRecord(input_index) = &record.kind else {
                    return Err(CompileError::new(
                        record.pos,
                        "the right-hand side of `output[...] = ...` must be `input[...]`",
                    ));
                };
                let input_index = self.numeric(input_index, "input index")?;
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::OutputRecord { index, input_index },
                })
            }
            StmtKind::OutputField {
                index,
                field,
                value,
            } => {
                let index = self.numeric(index, "output index")?;
                let value = self.numeric(value, "field value")?;
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::OutputField {
                        index,
                        field: *field,
                        value,
                    },
                })
            }
            StmtKind::If { cond, then, else_ } => {
                let cond = self.numeric(cond, "if condition")?;
                self.scope.enter();
                let then = self.stmts(then)?;
                self.scope.leave();
                self.scope.enter();
                let else_ = self.stmts(else_)?;
                self.scope.leave();
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::If { cond, then, else_ },
                })
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // The init declaration scopes over cond/step/body.
                self.scope.enter();
                let init = match init {
                    Some(s) => Some(Box::new(self.stmt(s)?)),
                    None => None,
                };
                let cond = match cond {
                    Some(c) => Some(self.numeric(c, "for condition")?),
                    None => None,
                };
                let step = match step {
                    Some(s) => Some(Box::new(self.stmt(s)?)),
                    None => None,
                };
                self.loop_depth += 1;
                self.scope.enter();
                let body = self.stmts(body)?;
                self.scope.leave();
                self.loop_depth -= 1;
                self.scope.leave();
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Loop {
                        init,
                        cond,
                        step,
                        body,
                    },
                })
            }
            StmtKind::While { cond, body } => {
                let cond = self.numeric(cond, "while condition")?;
                self.loop_depth += 1;
                self.scope.enter();
                let body = self.stmts(body)?;
                self.scope.leave();
                self.loop_depth -= 1;
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Loop {
                        init: None,
                        cond: Some(cond),
                        step: None,
                        body,
                    },
                })
            }
            StmtKind::Return(value) => {
                let value = match value {
                    Some(e) => Some(self.numeric(e, "return value")?),
                    None => None,
                };
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Return(value),
                })
            }
            StmtKind::Break => {
                if self.loop_depth == 0 {
                    return Err(CompileError::new(stmt.pos, "`break` outside of a loop"));
                }
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Break,
                })
            }
            StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(CompileError::new(stmt.pos, "`continue` outside of a loop"));
                }
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Continue,
                })
            }
            StmtKind::Block(stmts) => {
                self.scope.enter();
                let body = self.stmts(stmts)?;
                self.scope.leave();
                Ok(RStmt {
                    pos: stmt.pos,
                    kind: RStmtKind::Block(body),
                })
            }
        }
    }

    /// Resolve an expression that must be numeric (not a whole record).
    fn numeric(&mut self, expr: &Expr, what: &str) -> Result<RExpr, CompileError> {
        if let ExprKind::InputRecord(_) = expr.kind {
            return Err(CompileError::new(
                expr.pos,
                format!(
                    "{what} must be a number; `input[...]` is a whole record — project a field like `.value`"
                ),
            ));
        }
        self.expr(expr)
    }

    fn expr(&mut self, expr: &Expr) -> Result<RExpr, CompileError> {
        let pos = expr.pos;
        match &expr.kind {
            ExprKind::IntLit(v) => Ok(RExpr {
                pos,
                ty: Ty::Int,
                kind: RExprKind::ConstI(*v),
            }),
            ExprKind::FloatLit(v) => Ok(RExpr {
                pos,
                ty: Ty::Double,
                kind: RExprKind::ConstF(*v),
            }),
            ExprKind::Var(name) => {
                if let Some((slot, ty)) = self.scope.lookup(name) {
                    return Ok(RExpr {
                        pos,
                        ty,
                        kind: RExprKind::Local(slot),
                    });
                }
                if let Some(idx) = self.env.index_of(name) {
                    return Ok(RExpr {
                        pos,
                        ty: Ty::Int,
                        kind: RExprKind::ConstI(idx as i64),
                    });
                }
                Err(CompileError::new(
                    expr.pos,
                    format!(
                        "unknown identifier `{name}` (not a variable, not a metric of this environment)"
                    ),
                ))
            }
            ExprKind::InputRecord(_) => Err(CompileError::new(
                expr.pos,
                "`input[...]` is a whole record and can only be assigned to `output[...]`",
            )),
            ExprKind::InputField(index, field) => {
                let index = self.numeric(index, "input index")?;
                let ty = match field {
                    Field::Id => Ty::Int,
                    _ => Ty::Double,
                };
                Ok(RExpr {
                    pos,
                    ty,
                    kind: RExprKind::InputField(Box::new(index), *field),
                })
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.numeric(lhs, "operand")?;
                let r = self.numeric(rhs, "operand")?;
                let ty = match op {
                    BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
                    | BinOp::And
                    | BinOp::Or => Ty::Int,
                    _ => {
                        if l.ty == Ty::Double || r.ty == Ty::Double {
                            Ty::Double
                        } else {
                            Ty::Int
                        }
                    }
                };
                Ok(RExpr {
                    pos,
                    ty,
                    kind: RExprKind::Binary(*op, Box::new(l), Box::new(r)),
                })
            }
            ExprKind::Unary(op, inner) => {
                let i = self.numeric(inner, "operand")?;
                let ty = match op {
                    UnOp::Not => Ty::Int,
                    UnOp::Neg => i.ty,
                };
                Ok(RExpr {
                    pos,
                    ty,
                    kind: RExprKind::Unary(*op, Box::new(i)),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn env() -> EnvSpec {
        EnvSpec::new(["LOADAVG", "DISKUSAGE", "FREEMEM", "CACHE_MISS"])
    }

    fn check(src: &str) -> Result<RProgram, CompileError> {
        analyze(&parse(src).unwrap(), &env())
    }

    #[test]
    fn resolves_metric_constants() {
        let p = check("{ int x = LOADAVG; }").unwrap();
        let RStmtKind::Store { value, .. } = &p.body[0].kind else {
            panic!()
        };
        assert_eq!(value.kind, RExprKind::ConstI(0));
        let p = check("{ int x = CACHE_MISS; }").unwrap();
        let RStmtKind::Store { value, .. } = &p.body[0].kind else {
            panic!()
        };
        assert_eq!(value.kind, RExprKind::ConstI(3));
    }

    #[test]
    fn unknown_identifier_errors() {
        let err = check("{ int x = NOT_A_METRIC; }").unwrap_err();
        assert!(err.message.contains("unknown identifier"));
    }

    #[test]
    fn undeclared_assignment_errors() {
        let err = check("{ x = 1; }").unwrap_err();
        assert!(err.message.contains("undeclared"));
    }

    #[test]
    fn duplicate_declaration_same_scope_errors() {
        let err = check("{ int x = 1; int x = 2; }").unwrap_err();
        assert!(err.message.contains("already declared"));
    }

    #[test]
    fn shadowing_in_inner_scope_is_fine() {
        let p = check("{ int x = 1; { int x = 2; x = 3; } x = 4; }").unwrap();
        assert_eq!(p.n_locals, 2);
        // The final `x = 4` must target slot 0.
        let RStmtKind::Store { slot, .. } = &p.body[2].kind else {
            panic!()
        };
        assert_eq!(*slot, 0);
    }

    #[test]
    fn variable_out_of_scope_after_block() {
        let err = check("{ { int y = 1; } y = 2; }").unwrap_err();
        assert!(err.message.contains("undeclared"));
    }

    #[test]
    fn for_init_variable_scopes_over_body_only() {
        assert!(check("{ for (int i = 0; i < 3; i = i + 1) { int t = i; } }").is_ok());
        let err = check("{ for (int i = 0; i < 3; i = i + 1) { } i = 9; }").unwrap_err();
        assert!(err.message.contains("undeclared"));
    }

    #[test]
    fn record_only_assignable_to_output() {
        let err = check("{ int x = input[0] + 1; }").unwrap_err();
        assert!(err.message.contains("whole record"));
        let err = check("{ if (input[0]) { } }").unwrap_err();
        assert!(err.message.contains("whole record"));
        assert!(check("{ output[0] = input[0]; }").is_ok());
    }

    #[test]
    fn output_rhs_must_be_record() {
        let err = check("{ output[0] = 5; }").unwrap_err();
        assert!(err.message.contains("must be `input[...]`"));
    }

    #[test]
    fn int_from_double_truncates() {
        let p = check("{ int x = 2.7; }").unwrap();
        let RStmtKind::Store { truncate, .. } = &p.body[0].kind else {
            panic!()
        };
        assert!(truncate);
        let p = check("{ double y = 2; }").unwrap();
        let RStmtKind::Store { truncate, .. } = &p.body[0].kind else {
            panic!()
        };
        assert!(!truncate);
    }

    #[test]
    fn double_from_int_widens() {
        let p = check("{ double y = 2; y = 3; y = 1.5; int x = 4; }").unwrap();
        let widens: Vec<bool> = p
            .body
            .iter()
            .map(|s| match &s.kind {
                RStmtKind::Store { widen, .. } => *widen,
                _ => panic!(),
            })
            .collect();
        assert_eq!(widens, [true, true, false, false]);
    }

    #[test]
    fn break_outside_loop_errors() {
        let err = check("{ break; }").unwrap_err();
        assert!(err.message.contains("outside of a loop"));
        let err = check("{ continue; }").unwrap_err();
        assert!(err.message.contains("outside of a loop"));
        assert!(check("{ while (1) { break; } }").is_ok());
    }

    #[test]
    fn arithmetic_type_promotion() {
        let p = check("{ double d = 1 + 2.5; int i = 1 + 2; }").unwrap();
        let RStmtKind::Store { value, .. } = &p.body[0].kind else {
            panic!()
        };
        assert_eq!(value.ty, Ty::Double);
        let RStmtKind::Store { value, .. } = &p.body[1].kind else {
            panic!()
        };
        assert_eq!(value.ty, Ty::Int);
    }

    #[test]
    fn comparisons_are_int() {
        let p = check("{ int b = 1.5 > 1.0; }").unwrap();
        let RStmtKind::Store {
            value, truncate, ..
        } = &p.body[0].kind
        else {
            panic!()
        };
        assert_eq!(value.ty, Ty::Int);
        assert!(!truncate);
    }

    #[test]
    fn field_types() {
        let p = check("{ int i = input[0].id; double v = input[0].value; }").unwrap();
        let RStmtKind::Store { value, .. } = &p.body[0].kind else {
            panic!()
        };
        assert_eq!(value.ty, Ty::Int);
    }

    #[test]
    fn fig3_analyzes_clean() {
        let src = r#"
{
    int i = 0;
    if(input[LOADAVG].value > 2){
        output[i] = input[LOADAVG];
        i = i + 1;
    }
    if(input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6){
        output[i] = input[DISKUSAGE];
        i = i + 1;
        output[i] = input[FREEMEM];
        i = i + 1;
    }
    if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){
        output[i] = input[CACHE_MISS];
        i = i + 1;
    }
}
"#;
        let p = check(src).unwrap();
        assert_eq!(p.n_locals, 1);
    }
}
