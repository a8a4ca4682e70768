//! Tokenizer for the Datalog dialect.

/// Tokens.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Lowercase identifier (relation / aggregate name).
    Ident(String),
    /// Uppercase identifier (variable).
    Var(String),
    /// Integer literal.
    Int(i64),
    /// String literal (double-quoted).
    Str(String),
    /// `:-`
    Turnstile,
    /// `:=`
    Assign,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `|`
    Pipe,
    /// `,`
    Comma,
    /// `;` (disjunction)
    Semi,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (also accepts `=`)
    EqEq,
    /// `!=`
    Ne,
    /// `+`
    Plus,
}

/// Lexer error: unexpected character with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub ch: char,
    /// Byte offset.
    pub at: usize,
}

/// Tokenize `src`; `%` and `//` start line comments.
pub fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '%' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                out.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Tok::RBracket);
                i += 1;
            }
            '|' => {
                out.push(Tok::Pipe);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '@' => {
                out.push(Tok::At);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&'-') {
                    out.push(Tok::Turnstile);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&'=') {
                    out.push(Tok::Assign);
                    i += 2;
                } else {
                    return Err(LexError { ch: ':', at: i });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Tok::Le);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Tok::EqEq);
                    i += 2;
                } else {
                    out.push(Tok::EqEq);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(LexError { ch: '!', at: i });
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError { ch: '"', at: i });
                }
                out.push(Tok::Str(bytes[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let s: String = bytes[start..i].iter().collect();
                match s.parse::<i64>() {
                    Ok(v) => out.push(Tok::Int(v)),
                    Err(_) => return Err(LexError { ch: c, at: start }),
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let s: String = bytes[start..i].iter().collect();
                if c.is_uppercase() {
                    out.push(Tok::Var(s));
                } else {
                    out.push(Tok::Ident(s));
                }
            }
            other => return Err(LexError { ch: other, at: i }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_rule() {
        let toks = lex("reachable(@X, Y) :- link(@X, Z, 5), X != Y. % comment").unwrap();
        assert!(toks.contains(&Tok::Turnstile));
        assert!(toks.contains(&Tok::At));
        assert!(toks.contains(&Tok::Ne));
        assert!(toks.contains(&Tok::Int(5)));
        assert_eq!(toks.last(), Some(&Tok::Dot));
    }

    #[test]
    fn lexes_lists_assignment_and_strings() {
        let toks = lex(r#"P := [X | P1], Q := [A, "hi"], C := C0 + C1"#).unwrap();
        assert!(toks.contains(&Tok::Assign));
        assert!(toks.contains(&Tok::Pipe));
        assert!(toks.contains(&Tok::Plus));
        assert!(toks.contains(&Tok::Str("hi".into())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a # b").is_err());
        assert!(lex("a : b").is_err());
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn comments_and_negatives() {
        let toks = lex("// full line\nx(-3).").unwrap();
        assert!(toks.contains(&Tok::Int(-3)));
    }
}
