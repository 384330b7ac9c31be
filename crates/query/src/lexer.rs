//! MLQL lexer: case-insensitive keywords, `'…'` string literals, numbers,
//! comparison operators and punctuation.

use crate::error::QueryError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Case-normalised keyword or bare identifier (upper-cased).
    Word(String),
    /// Quoted string literal (contents, unquoted).
    Str(String),
    /// Numeric literal.
    Number(f64),
    /// `=`.
    Eq,
    /// `!=` / `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
}

impl Token {
    /// Human-readable form for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Word(w) => w.clone(),
            Token::Str(s) => format!("'{s}'"),
            Token::Number(n) => n.to_string(),
            Token::Eq => "=".into(),
            Token::Ne => "!=".into(),
            Token::Lt => "<".into(),
            Token::Le => "<=".into(),
            Token::Gt => ">".into(),
            Token::Ge => ">=".into(),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::Comma => ",".into(),
        }
    }
}

/// Tokenises an MLQL string.
pub fn lex(input: &str) -> Result<Vec<Token>, QueryError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(QueryError::Lex {
                        position: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Token::Le);
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Token::Ne);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(QueryError::Lex {
                        position: i,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && ((bytes[j] as char).is_ascii_digit() || bytes[j] == b'.') {
                    j += 1;
                }
                let text = &input[start..j];
                let n: f64 = text.parse().map_err(|_| QueryError::Lex {
                    position: start,
                    message: format!("bad number '{text}'"),
                })?;
                tokens.push(Token::Number(n));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'-')
                {
                    j += 1;
                }
                tokens.push(Token::Word(input[start..j].to_ascii_uppercase()));
                i = j;
            }
            other => {
                return Err(QueryError::Lex {
                    position: i,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_strings() {
        let t = lex("FIND models WHERE domain = 'legal'").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Word("FIND".into()),
                Token::Word("MODELS".into()),
                Token::Word("WHERE".into()),
                Token::Word("DOMAIN".into()),
                Token::Eq,
                Token::Str("legal".into()),
            ]
        );
    }

    #[test]
    fn operators() {
        let t = lex("a <= 2 b >= 3 c != 4 d <> 5 e < 6 f > 7").unwrap();
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Lt));
        assert!(t.contains(&Token::Gt));
        assert_eq!(t.iter().filter(|x| **x == Token::Ne).count(), 2);
    }

    #[test]
    fn numbers_and_parens() {
        let t = lex("score('b') >= 0.85 LIMIT 10").unwrap();
        assert!(t.contains(&Token::Number(0.85)));
        assert!(t.contains(&Token::Number(10.0)));
        assert!(t.contains(&Token::LParen));
        assert!(t.contains(&Token::RParen));
    }

    #[test]
    fn string_preserves_case_and_dashes() {
        let t = lex("'Legal-Tab-V1'").unwrap();
        assert_eq!(t, vec![Token::Str("Legal-Tab-V1".into())]);
    }

    #[test]
    fn lex_errors() {
        assert!(matches!(lex("'unterminated"), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("a ! b"), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("a # b"), Err(QueryError::Lex { .. })));
        assert!(matches!(lex("1.2.3"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn describe_tokens() {
        assert_eq!(Token::Str("x".into()).describe(), "'x'");
        assert_eq!(Token::Le.describe(), "<=");
        assert_eq!(Token::Comma.describe(), ",");
    }
}
