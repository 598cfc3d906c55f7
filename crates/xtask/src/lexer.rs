//! A comment- and string-aware Rust tokenizer.
//!
//! The analyzer needs far less than a real parser: identifier/punctuation
//! streams with exact line:column spans, string-literal values (for the
//! phase-label rule), and the comment text attached to each line (for
//! `// DURABILITY:` and `allow_invariant(...)` markers). A hand-rolled lexer
//! covers that without pulling a parsing crate into the offline build —
//! the build environment has no registry access, so `syn` is not an
//! option (see shims/README.md for the same constraint on other deps).
//!
//! The token model deliberately ignores everything the rules never look
//! at: numeric literal values, operator clustering (`::` is two `:`
//! tokens), and macro expansion. Spans are 1-based, in bytes within the
//! line (good enough for terminal `file:line:col` links).

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unsafe`, `fn`, `raw`, ...).
    Ident(String),
    /// A single punctuation byte (`.`, `(`, `{`, `#`, `:`, ...).
    Punct(char),
    /// A string literal (`"..."`, `r#"..."#`, `b"..."`); the unescaped-ish
    /// raw contents between the quotes (escape sequences are left as-is —
    /// the phase rule only compares plain ASCII labels, which never need
    /// escapes).
    Str(String),
    /// A numeric or char literal (value unused by every rule).
    Lit,
    /// A lifetime (`'a`) — kept distinct so it is never confused with a
    /// char literal.
    Lifetime,
}

/// One token with its 1-based source position.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token kind and payload.
    pub kind: TokKind,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (byte offset within the line).
    pub col: u32,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(i) if i == s)
    }
}

/// A comment with its position. Block comments contribute one entry per
/// line they span, so line-proximity lookups stay uniform.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment text sits on.
    pub line: u32,
    /// The text after the comment marker, trimmed.
    pub text: String,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in order.
    pub tokens: Vec<Tok>,
    /// All comments (line and block), one entry per source line touched.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Comment text on the given 1-based line, if any (first match).
    pub fn comment_on(&self, line: u32) -> Option<&str> {
        self.comments
            .iter()
            .find(|c| c.line == line)
            .map(|c| c.text.as_str())
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`, producing the code-token stream and the comment map.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                let start = cur.pos + 2;
                while cur.peek(0).is_some_and(|c| c != b'\n') {
                    cur.bump();
                }
                let text = src[start..cur.pos].trim_start_matches('/').trim();
                out.comments.push(Comment {
                    line,
                    text: text.to_string(),
                });
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut seg_start = cur.pos;
                let mut seg_line = cur.line;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'\n'), _) => {
                            out.comments.push(Comment {
                                line: seg_line,
                                text: src[seg_start..cur.pos].trim_matches(['*', ' ']).to_string(),
                            });
                            cur.bump();
                            seg_start = cur.pos;
                            seg_line = cur.line;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                let end = cur.pos.saturating_sub(2).max(seg_start);
                out.comments.push(Comment {
                    line: seg_line,
                    text: src[seg_start..end].trim_matches(['*', ' ']).to_string(),
                });
            }
            b'"' => {
                let text = lex_string(&mut cur, src);
                out.tokens.push(Tok {
                    kind: TokKind::Str(text),
                    line,
                    col,
                });
            }
            b'r' | b'b' if starts_prefixed_string(&cur) => {
                // br"", rb is not legal; handle r"", r#""#, b"", br#""#.
                while matches!(cur.peek(0), Some(b'r' | b'b')) {
                    cur.bump();
                }
                let mut hashes = 0usize;
                while cur.peek(0) == Some(b'#') {
                    hashes += 1;
                    cur.bump();
                }
                let text = if hashes == 0 {
                    lex_string(&mut cur, src)
                } else {
                    lex_raw_string(&mut cur, src, hashes)
                };
                out.tokens.push(Tok {
                    kind: TokKind::Str(text),
                    line,
                    col,
                });
            }
            b'\'' => {
                // Lifetime vs char literal: a lifetime is `'ident` NOT
                // followed by a closing quote; a char literal always
                // closes (`'a'`, `'\n'`, `'\u{1F600}'`).
                let mut ahead = 1usize;
                while cur.peek(ahead).is_some_and(is_ident_continue) {
                    ahead += 1;
                }
                if ahead > 1 && cur.peek(ahead) != Some(b'\'') {
                    for _ in 0..ahead {
                        cur.bump();
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        line,
                        col,
                    });
                } else {
                    cur.bump(); // opening quote
                    while let Some(c) = cur.peek(0) {
                        if c == b'\\' {
                            cur.bump();
                            cur.bump();
                        } else if c == b'\'' {
                            cur.bump();
                            break;
                        } else {
                            cur.bump();
                        }
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lit,
                        line,
                        col,
                    });
                }
            }
            _ if is_ident_start(b) => {
                let start = cur.pos;
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident(src[start..cur.pos].to_string()),
                    line,
                    col,
                });
            }
            _ if b.is_ascii_digit() => {
                // Numbers (including float exponents and type suffixes);
                // the rules never read the value.
                while cur
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                {
                    // Don't swallow `..` range punctuation or a method call
                    // on a literal.
                    if cur.peek(0) == Some(b'.') && !cur.peek(1).is_some_and(|c| c.is_ascii_digit())
                    {
                        break;
                    }
                    cur.bump();
                }
                out.tokens.push(Tok {
                    kind: TokKind::Lit,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.tokens.push(Tok {
                    kind: TokKind::Punct(b as char),
                    line,
                    col,
                });
            }
        }
    }
    out
}

fn starts_prefixed_string(cur: &Cursor<'_>) -> bool {
    // At a `r` or `b`: is this a raw/byte string rather than an ident?
    let mut ahead = 0usize;
    while matches!(cur.peek(ahead), Some(b'r' | b'b')) {
        ahead += 1;
        if ahead > 2 {
            return false;
        }
    }
    let mut hashes = ahead;
    while cur.peek(hashes) == Some(b'#') {
        hashes += 1;
    }
    cur.peek(hashes) == Some(b'"') && (hashes > ahead || cur.peek(ahead) == Some(b'"'))
}

fn lex_string(cur: &mut Cursor<'_>, src: &str) -> String {
    cur.bump(); // opening quote
    let start = cur.pos;
    while let Some(c) = cur.peek(0) {
        if c == b'\\' {
            cur.bump();
            cur.bump();
        } else if c == b'"' {
            break;
        } else {
            cur.bump();
        }
    }
    let text = src[start..cur.pos].to_string();
    cur.bump(); // closing quote
    text
}

fn lex_raw_string(cur: &mut Cursor<'_>, src: &str, hashes: usize) -> String {
    cur.bump(); // opening quote
    let start = cur.pos;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let mut end = cur.pos;
    'outer: while cur.peek(0).is_some() {
        if cur.peek(0) == Some(b'"') {
            for (i, &cb) in closer.iter().enumerate() {
                if cur.peek(i) != Some(cb) {
                    cur.bump();
                    continue 'outer;
                }
            }
            end = cur.pos;
            for _ in 0..closer.len() {
                cur.bump();
            }
            break;
        }
        cur.bump();
        end = cur.pos;
    }
    src[start..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_puncts_with_spans() {
        let l = lex("fn main() {\n    x.raw();\n}");
        let raw = l.tokens.iter().find(|t| t.is_ident("raw")).unwrap();
        assert_eq!((raw.line, raw.col), (2, 7));
        assert!(l.tokens.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn comments_do_not_produce_tokens() {
        let l = lex("// SAFETY: fine\nlet x = 1; /* unsafe in comment */\n");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unsafe")));
        assert_eq!(l.comment_on(1), Some("SAFETY: fine"));
        assert!(l.comment_on(2).unwrap().contains("unsafe in comment"));
    }

    #[test]
    fn strings_are_opaque_and_kept() {
        let l = lex(r#"span("select"); s = "unsafe { }";"#);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["select", "unsafe { }"]);
        assert!(!l.tokens.iter().any(|t| t.is_ident("unsafe")));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let l = lex(r##"let s = r#"quote " inside"#; fn f<'a>(x: &'a str) {} let c = 'x';"##);
        let strs = l
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Str(_)))
            .count();
        assert_eq!(strs, 1);
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert!(l.tokens.iter().any(|t| t.is_ident("let")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("inner")));
    }

    #[test]
    fn char_literal_is_not_a_lifetime() {
        let l = lex("let c = 'a'; let nl = '\\n';");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Lit).count(),
            2
        );
    }
}
