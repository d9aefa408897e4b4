//! Tokenizer for approXQL.

use std::fmt;

/// A token of the approXQL grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// A name selector (`cd`, `track-list`, …).
    Name(String),
    /// A quoted text selector, raw (not yet word-normalized).
    Str(String),
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// keyword `and`
    And,
    /// keyword `or`
    Or,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Name(n) => write!(f, "`{n}`"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::And => write!(f, "`and`"),
            Token::Or => write!(f, "`or`"),
        }
    }
}

/// A token plus the byte offset where it starts (for error messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    pub token: Token,
    pub offset: usize,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub offset: usize,
    pub message: String,
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_continue(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, LexError> {
    let mut tokens = Vec::new();
    let mut iter = input.char_indices().peekable();
    while let Some(&(offset, c)) = iter.peek() {
        match c {
            c if c.is_whitespace() => {
                iter.next();
            }
            '[' => {
                iter.next();
                tokens.push(Spanned {
                    token: Token::LBracket,
                    offset,
                });
            }
            ']' => {
                iter.next();
                tokens.push(Spanned {
                    token: Token::RBracket,
                    offset,
                });
            }
            '(' => {
                iter.next();
                tokens.push(Spanned {
                    token: Token::LParen,
                    offset,
                });
            }
            ')' => {
                iter.next();
                tokens.push(Spanned {
                    token: Token::RParen,
                    offset,
                });
            }
            quote @ ('"' | '\'') => {
                iter.next();
                let mut s = String::new();
                let mut closed = false;
                for (_, c) in iter.by_ref() {
                    if c == quote {
                        closed = true;
                        break;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(LexError {
                        offset,
                        message: "unterminated string literal".to_owned(),
                    });
                }
                tokens.push(Spanned {
                    token: Token::Str(s),
                    offset,
                });
            }
            c if is_name_start(c) => {
                let mut name = String::new();
                while let Some(&(_, c)) = iter.peek() {
                    if is_name_continue(c) {
                        name.push(c);
                        iter.next();
                    } else {
                        break;
                    }
                }
                let token = match name.as_str() {
                    "and" => Token::And,
                    "or" => Token::Or,
                    _ => Token::Name(name),
                };
                tokens.push(Spanned { token, offset });
            }
            other => {
                return Err(LexError {
                    offset,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn paper_query_tokenizes() {
        let t = toks(r#"cd[title["piano" and "concerto"] and composer["rachmaninov"]]"#);
        assert_eq!(
            t,
            vec![
                Token::Name("cd".into()),
                Token::LBracket,
                Token::Name("title".into()),
                Token::LBracket,
                Token::Str("piano".into()),
                Token::And,
                Token::Str("concerto".into()),
                Token::RBracket,
                Token::And,
                Token::Name("composer".into()),
                Token::LBracket,
                Token::Str("rachmaninov".into()),
                Token::RBracket,
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn single_quotes_work() {
        assert_eq!(toks("'sonata'"), vec![Token::Str("sonata".into())]);
    }

    #[test]
    fn keywords_are_not_names() {
        assert_eq!(
            toks("and or android"),
            vec![Token::And, Token::Or, Token::Name("android".into())]
        );
    }

    #[test]
    fn names_allow_xml_punctuation() {
        assert_eq!(
            toks("track-list a.b ns:tag _x"),
            vec![
                Token::Name("track-list".into()),
                Token::Name("a.b".into()),
                Token::Name("ns:tag".into()),
                Token::Name("_x".into())
            ]
        );
    }

    #[test]
    fn parens_and_whitespace() {
        assert_eq!(
            toks("( a  or\n b )"),
            vec![
                Token::LParen,
                Token::Name("a".into()),
                Token::Or,
                Token::Name("b".into()),
                Token::RParen
            ]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = tokenize(r#"cd["piano]"#).unwrap_err();
        assert_eq!(err.offset, 3);
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn stray_character_is_an_error() {
        let err = tokenize("cd & dvd").unwrap_err();
        assert!(err.message.contains('&'));
    }

    #[test]
    fn offsets_are_byte_positions() {
        let spanned = tokenize("ab [x]").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 3);
        assert_eq!(spanned[2].offset, 4);
    }
}
