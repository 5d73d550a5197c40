//! Compile-time and run-time error types.

use std::fmt;

use crate::token::Pos;

/// Error produced while compiling an E-code filter (lexing, parsing, or
/// semantic analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Where in the source the problem is.
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl CompileError {
    /// Construct an error at a position.
    pub fn new(pos: Pos, message: impl Into<String>) -> Self {
        CompileError {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e-code compile error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Error produced while executing a compiled filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The instruction budget was exhausted (runaway loop).
    BudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// `input[i]` with `i` outside the provided record set.
    InputIndexOutOfRange {
        /// The offending index.
        index: i64,
        /// Number of provided input records.
        len: usize,
    },
    /// `output[i]` with a negative or absurdly large index.
    OutputIndexOutOfRange {
        /// The offending index.
        index: i64,
    },
    /// `output[i].field = ...` before `output[i]` was assigned a record.
    OutputSlotEmpty {
        /// The offending slot.
        index: i64,
    },
    /// Integer division or modulo by zero.
    DivisionByZero,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::BudgetExhausted { budget } => {
                write!(f, "filter exceeded its instruction budget of {budget}")
            }
            RuntimeError::InputIndexOutOfRange { index, len } => {
                write!(f, "input[{index}] out of range (have {len} records)")
            }
            RuntimeError::OutputIndexOutOfRange { index } => {
                write!(f, "output[{index}] out of range")
            }
            RuntimeError::OutputSlotEmpty { index } => {
                write!(
                    f,
                    "output[{index}] written by field before being assigned a record"
                )
            }
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_error_displays_position() {
        let e = CompileError::new(Pos::new(2, 7), "unexpected token");
        assert_eq!(
            e.to_string(),
            "e-code compile error at 2:7: unexpected token"
        );
    }

    #[test]
    fn runtime_errors_display() {
        assert!(RuntimeError::BudgetExhausted { budget: 10 }
            .to_string()
            .contains("budget of 10"));
        assert!(RuntimeError::InputIndexOutOfRange { index: 9, len: 4 }
            .to_string()
            .contains("input[9]"));
        assert!(RuntimeError::DivisionByZero.to_string().contains("zero"));
        assert!(RuntimeError::OutputSlotEmpty { index: 2 }
            .to_string()
            .contains("output[2]"));
    }
}
