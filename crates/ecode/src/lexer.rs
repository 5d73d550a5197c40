//! Hand-written lexer for E-code.

use crate::error::CompileError;
use crate::token::{Pos, Tok, Token};

/// Tokenize `src`, producing a token stream ending with [`Tok::Eof`].
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Token>, CompileError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let pos = self.pos();
            let Some(c) = self.peek() else {
                out.push(Token { tok: Tok::Eof, pos });
                return Ok(out);
            };
            let tok = if c.is_ascii_digit() {
                self.number(pos)?
            } else if c.is_ascii_alphabetic() || c == '_' {
                self.ident()
            } else {
                self.symbol(pos)?
            };
            out.push(Token { tok, pos });
        }
    }

    /// Skip whitespace and both comment styles (`//` and `/* */`).
    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(CompileError::new(start, "unterminated comment"));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self, pos: Pos) -> Result<Tok, CompileError> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        // Fractional part — but not `.field` access on an int literal
        // (E-code has no methods on ints, so `1.value` is not a thing; a
        // dot followed by a digit is fractional).
        if self.peek() == Some('.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        // Exponent: `50e6`, `1.5E-3`
        if matches!(self.peek(), Some('e') | Some('E')) {
            let has_sign = matches!(self.peek2(), Some('+') | Some('-'));
            let digit_at = if has_sign { self.i + 2 } else { self.i + 1 };
            if matches!(self.chars.get(digit_at), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                self.bump(); // e
                if has_sign {
                    self.bump();
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text: String = self.chars[start..self.i].iter().collect();
        if is_float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|_| CompileError::new(pos, format!("bad float literal `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|_| CompileError::new(pos, format!("integer literal `{text}` overflows")))
        }
    }

    fn ident(&mut self) -> Tok {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            self.bump();
        }
        let text: String = self.chars[start..self.i].iter().collect();
        match text.as_str() {
            "int" => Tok::KwInt,
            "double" => Tok::KwDouble,
            "if" => Tok::KwIf,
            "else" => Tok::KwElse,
            "for" => Tok::KwFor,
            "while" => Tok::KwWhile,
            "return" => Tok::KwReturn,
            "break" => Tok::KwBreak,
            "continue" => Tok::KwContinue,
            "input" => Tok::KwInput,
            "output" => Tok::KwOutput,
            _ => Tok::Ident(text),
        }
    }

    fn symbol(&mut self, pos: Pos) -> Result<Tok, CompileError> {
        let c = self.bump().expect("symbol() called at eof");
        let two = |lexer: &mut Lexer, tok: Tok| {
            lexer.bump();
            Ok(tok)
        };
        match c {
            '(' => Ok(Tok::LParen),
            ')' => Ok(Tok::RParen),
            '{' => Ok(Tok::LBrace),
            '}' => Ok(Tok::RBrace),
            '[' => Ok(Tok::LBracket),
            ']' => Ok(Tok::RBracket),
            ';' => Ok(Tok::Semi),
            ',' => Ok(Tok::Comma),
            '.' => Ok(Tok::Dot),
            '+' if self.peek() == Some('=') => two(self, Tok::PlusAssign),
            '+' => Ok(Tok::Plus),
            '-' if self.peek() == Some('=') => two(self, Tok::MinusAssign),
            '-' => Ok(Tok::Minus),
            '*' if self.peek() == Some('=') => two(self, Tok::StarAssign),
            '*' => Ok(Tok::Star),
            '/' if self.peek() == Some('=') => two(self, Tok::SlashAssign),
            '/' => Ok(Tok::Slash),
            '%' if self.peek() == Some('=') => two(self, Tok::PercentAssign),
            '%' => Ok(Tok::Percent),
            '=' if self.peek() == Some('=') => two(self, Tok::Eq),
            '=' => Ok(Tok::Assign),
            '!' if self.peek() == Some('=') => two(self, Tok::Ne),
            '!' => Ok(Tok::Not),
            '<' if self.peek() == Some('=') => two(self, Tok::Le),
            '<' => Ok(Tok::Lt),
            '>' if self.peek() == Some('=') => two(self, Tok::Ge),
            '>' => Ok(Tok::Gt),
            '&' if self.peek() == Some('&') => two(self, Tok::AndAnd),
            '|' if self.peek() == Some('|') => two(self, Tok::OrOr),
            other => Err(CompileError::new(
                pos,
                format!("unexpected character `{other}`"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_fig3_fragment() {
        let t = toks("if(input[LOADAVG].value > 2){ output[i] = input[LOADAVG]; }");
        assert_eq!(
            t,
            vec![
                Tok::KwIf,
                Tok::LParen,
                Tok::KwInput,
                Tok::LBracket,
                Tok::Ident("LOADAVG".into()),
                Tok::RBracket,
                Tok::Dot,
                Tok::Ident("value".into()),
                Tok::Gt,
                Tok::Int(2),
                Tok::RParen,
                Tok::LBrace,
                Tok::KwOutput,
                Tok::LBracket,
                Tok::Ident("i".into()),
                Tok::RBracket,
                Tok::Assign,
                Tok::KwInput,
                Tok::LBracket,
                Tok::Ident("LOADAVG".into()),
                Tok::RBracket,
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(toks("50e6")[0], Tok::Float(50e6));
        assert_eq!(toks("1.5E-3")[0], Tok::Float(1.5e-3));
        assert_eq!(toks("2e+2")[0], Tok::Float(200.0));
        // `e` not followed by digits is separate ident
        assert_eq!(toks("2e")[..2], [Tok::Int(2), Tok::Ident("e".into())]);
    }

    #[test]
    fn floats_and_ints() {
        assert_eq!(toks("3.25")[0], Tok::Float(3.25));
        assert_eq!(toks("42")[0], Tok::Int(42));
        // `1.` without digits is int then dot (field access style)
        assert_eq!(
            toks("1.x")[..3],
            [Tok::Int(1), Tok::Dot, Tok::Ident("x".into())]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("== != <= >= && || = < > !")[..10],
            [
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Assign,
                Tok::Lt,
                Tok::Gt,
                Tok::Not
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("1 // line comment\n /* block\n comment */ 2");
        assert_eq!(t, vec![Tok::Int(1), Tok::Int(2), Tok::Eof]);
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = lex("/* never ends").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn unexpected_char_errors_with_pos() {
        let err = lex("int x = 1;\n@").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.col, 1);
        assert!(err.message.contains('@'));
    }

    #[test]
    fn positions_track_lines_and_cols() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!(tokens[0].pos, Pos::new(1, 1));
        assert_eq!(tokens[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn keywords_vs_identifiers() {
        let t = toks("if iffy int integer input inputs");
        assert_eq!(
            t[..6],
            [
                Tok::KwIf,
                Tok::Ident("iffy".into()),
                Tok::KwInt,
                Tok::Ident("integer".into()),
                Tok::KwInput,
                Tok::Ident("inputs".into())
            ]
        );
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let err = lex("99999999999999999999999").unwrap_err();
        assert!(err.message.contains("overflows"));
    }
}
