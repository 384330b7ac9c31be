//! A lightweight Rust scanner: just enough lexing for the lint passes.
//!
//! The scanner separates a source file into *code tokens* (identifiers,
//! string literals, punctuation) and *comments*, each tagged with a
//! 1-based line number. It is not a full Rust lexer — it has no keyword
//! table and no number semantics — but it gets the hard parts right for
//! static analysis: nested block comments, raw strings (so fixture code
//! embedded in `r#"…"#` literals is never mistaken for real code),
//! escapes, and the lifetime-vs-char-literal ambiguity.

/// One code token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Token payload.
    pub kind: TokKind,
}

/// Code token payload. Numbers, lifetimes and whitespace are consumed but
/// not emitted — no pass needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Any string/byte-string literal (normal or raw); contents dropped.
    StrLit,
    /// Single punctuation character.
    Punct(char),
}

/// One comment (line or block), with its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: usize,
    /// Comment text without delimiters.
    pub text: String,
}

/// A scanned source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Code tokens in order.
    pub tokens: Vec<Tok>,
    /// Comments in order.
    pub comments: Vec<Comment>,
    /// Line ranges (inclusive) of `#[cfg(test)]` items: each region spans
    /// from the attribute to the closing brace of the item it annotates
    /// (usually `mod tests { … }`). A region with no following brace block
    /// extends to the end of the file. Regions need not be last in the
    /// file — code after a test module is still library code.
    pub test_regions: Vec<(usize, usize)>,
}

impl Scanned {
    /// True when `line` falls inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// True when any comment overlapping lines `[lo, hi]` contains `needle`.
    pub fn comment_near(&self, lo: usize, hi: usize, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= hi && c.text.contains(needle))
    }
}

/// Scans `src` into tokens and comments.
pub fn scan(src: &str) -> Scanned {
    let mut out = Scanned::default();
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1usize;

    // Advances past `k` chars, tracking newlines.
    macro_rules! bump {
        ($k:expr) => {{
            for _ in 0..$k {
                if i < n {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < n {
        let c = b[i];
        // ---- whitespace --------------------------------------------------
        if c.is_whitespace() {
            bump!(1);
            continue;
        }
        // ---- comments ----------------------------------------------------
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = line;
            let mut text = String::new();
            while i < n && b[i] != '\n' {
                text.push(b[i]);
                i += 1;
            }
            out.comments.push(Comment {
                line: start,
                end_line: start,
                text,
            });
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = line;
            let mut depth = 0usize;
            let mut text = String::new();
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    bump!(2);
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    text.push_str("*/");
                    bump!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(b[i]);
                    bump!(1);
                }
            }
            out.comments.push(Comment {
                line: start,
                end_line: line,
                text,
            });
            continue;
        }
        // ---- identifiers (and raw/byte string prefixes) ------------------
        if c.is_alphabetic() || c == '_' {
            let start = line;
            let mut ident = String::new();
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                ident.push(b[i]);
                i += 1;
            }
            // Raw strings: r"…", r#"…"#, br"…", br#"…"# — skip verbatim.
            let is_raw_prefix = matches!(ident.as_str(), "r" | "br" | "rb" | "cr");
            if is_raw_prefix && i < n && (b[i] == '"' || b[i] == '#') {
                let mut hashes = 0usize;
                while i < n && b[i] == '#' {
                    hashes += 1;
                    bump!(1);
                }
                if i < n && b[i] == '"' {
                    bump!(1);
                    // Scan until `"` followed by `hashes` hash marks.
                    'raw: while i < n {
                        if b[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                bump!(1 + hashes);
                                break 'raw;
                            }
                        }
                        bump!(1);
                    }
                    out.tokens.push(Tok {
                        line: start,
                        kind: TokKind::StrLit,
                    });
                    continue;
                }
                // `r#ident` raw identifier or stray hashes: emit what we
                // consumed as punctuation-free best effort and move on.
                out.tokens.push(Tok {
                    line: start,
                    kind: TokKind::Ident(ident),
                });
                continue;
            }
            // Byte strings / byte chars: `b"…"`, `b'…'` — fall through to
            // the string/char scanners below on the next loop iteration.
            out.tokens.push(Tok {
                line: start,
                kind: TokKind::Ident(ident),
            });
            continue;
        }
        // ---- string literals --------------------------------------------
        if c == '"' {
            let start = line;
            bump!(1);
            while i < n {
                if b[i] == '\\' {
                    bump!(2);
                } else if b[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    bump!(1);
                }
            }
            out.tokens.push(Tok {
                line: start,
                kind: TokKind::StrLit,
            });
            continue;
        }
        // ---- lifetimes vs char literals ---------------------------------
        if c == '\'' {
            // `'a` / `'static` (lifetime or loop label): quote followed by
            // ident-start NOT closed by another quote right after.
            if i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
                let closes = i + 2 < n && b[i + 2] == '\'';
                if !closes {
                    bump!(2);
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    continue;
                }
            }
            // Char literal: 'x', '\n', '\u{1F4A9}'.
            bump!(1);
            while i < n {
                if b[i] == '\\' {
                    bump!(2);
                } else if b[i] == '\'' {
                    bump!(1);
                    break;
                } else {
                    bump!(1);
                }
            }
            continue;
        }
        // ---- numbers (consumed, not emitted) ----------------------------
        if c.is_ascii_digit() {
            while i < n
                && (b[i].is_alphanumeric()
                    || b[i] == '_'
                    || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            continue;
        }
        // ---- punctuation -------------------------------------------------
        out.tokens.push(Tok {
            line,
            kind: TokKind::Punct(c),
        });
        bump!(1);
    }

    out.test_regions = find_test_regions(&out.tokens, line);
    out
}

/// Index of the token closing the group opened at `open` (which must be
/// `open_ch`), honouring nesting. `None` when unbalanced.
fn matching_close(tokens: &[Tok], open: usize, open_ch: char, close_ch: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match &t.kind {
            TokKind::Punct(p) if *p == open_ch => depth += 1,
            TokKind::Punct(p) if *p == close_ch => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Line ranges of every `#[cfg(test)]`-annotated item. Each range runs from
/// the attribute to the close of the item's brace block (skipping any
/// further attributes in between); items with no brace block before a `;`
/// get just the attribute's own lines, and an unterminated item extends to
/// `last_line` (the file's final line).
fn find_test_regions(tokens: &[Tok], last_line: usize) -> Vec<(usize, usize)> {
    let pat: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut regions = Vec::new();
    let mut idx = 0usize;
    'outer: while idx < tokens.len() {
        let t = &tokens[idx];
        if !matches!(&t.kind, TokKind::Punct('#')) {
            idx += 1;
            continue;
        }
        for (k, want) in pat.iter().enumerate() {
            let Some(tok) = tokens.get(idx + k) else {
                idx += 1;
                continue 'outer;
            };
            let matches = match &tok.kind {
                TokKind::Ident(s) => s == want,
                TokKind::Punct(p) => want.len() == 1 && want.starts_with(*p),
                TokKind::StrLit => false,
            };
            if !matches {
                idx += 1;
                continue 'outer;
            }
        }
        // Matched `#[cfg(test)]` at idx; walk past any further attributes,
        // then to the item's opening brace (or a `;` for brace-less items).
        let start_line = t.line;
        let mut j = idx + pat.len();
        while punct_at(tokens, j, '#') && punct_at(tokens, j + 1, '[') {
            match matching_close(tokens, j + 1, '[', ']') {
                Some(close) => j = close + 1,
                None => break,
            }
        }
        let mut open = None;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokKind::Punct('{') => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => j += 1,
            }
        }
        let end_line = match open {
            Some(o) => match matching_close(tokens, o, '{', '}') {
                Some(close) => tokens[close].line,
                None => last_line,
            },
            None => tokens.get(j).map(|t| t.line).unwrap_or(last_line),
        };
        regions.push((start_line, end_line.max(start_line)));
        idx = match open {
            Some(o) => matching_close(tokens, o, '{', '}')
                .map(|c| c + 1)
                .unwrap_or(tokens.len()),
            None => j + 1,
        };
    }
    regions
}

fn punct_at(tokens: &[Tok], idx: usize, c: char) -> bool {
    matches!(tokens.get(idx), Some(Tok { kind: TokKind::Punct(p), .. }) if *p == c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(s: &Scanned) -> Vec<&str> {
        s.tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(i) => Some(i.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let s = scan("// unsafe unwrap\nlet x = \"panic!()\"; /* todo!() */\n");
        assert!(!idents(&s).contains(&"unsafe"));
        assert!(!idents(&s).contains(&"panic"));
        assert!(!idents(&s).contains(&"todo"));
        assert_eq!(s.comments.len(), 2);
        assert!(s.comments[0].text.contains("unsafe unwrap"));
    }

    #[test]
    fn raw_strings_skipped_verbatim() {
        let s = scan("let f = r#\"fn bad() { x.unwrap() }\"#;\nlet y = 1;");
        assert!(!idents(&s).contains(&"unwrap"));
        assert!(idents(&s).contains(&"y"));
        // The raw string still produced one StrLit token.
        assert!(s.tokens.iter().any(|t| t.kind == TokKind::StrLit));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let s = scan("fn f<'a>(x: &'a str) -> char { 'x' }");
        let ids = idents(&s);
        assert!(ids.contains(&"str"));
        assert!(ids.contains(&"char"));
        assert!(!ids.contains(&"a"));
        assert!(!ids.contains(&"x") || ids.iter().filter(|i| **i == "x").count() == 1);
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ fn real() {}");
        assert!(idents(&s).contains(&"real"));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn cfg_test_region_detected() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n";
        let s = scan(src);
        assert_eq!(s.test_regions, vec![(2, 5)]);
        assert!(!s.in_test_region(1));
        assert!(s.in_test_region(2));
        assert!(s.in_test_region(4));
        assert!(s.in_test_region(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let s = scan("#[cfg(not(test))]\nfn lib() {}\n");
        assert!(s.test_regions.is_empty());
    }

    #[test]
    fn cfg_test_region_not_last_does_not_exempt_trailing_code() {
        // A test module in the *middle* of a file must not swallow the
        // library code after it — the call graph depends on this.
        let src = "fn before() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let s = scan(src);
        assert_eq!(s.test_regions, vec![(2, 5)]);
        assert!(!s.in_test_region(1));
        assert!(s.in_test_region(4));
        assert!(!s.in_test_region(6));
    }

    #[test]
    fn multiple_cfg_test_regions_and_stacked_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod a {\n fn t() {}\n}\nfn lib() {}\n#[cfg(test)]\nmod b {}\n";
        let s = scan(src);
        assert_eq!(s.test_regions, vec![(1, 5), (7, 8)]);
        assert!(!s.in_test_region(6));
    }

    #[test]
    fn cfg_test_on_braceless_item_covers_only_the_item() {
        // `#[cfg(test)] use …;` has no brace block; the region must not
        // swallow the rest of the file.
        let src =
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib(x: Option<u8>) -> u8 { 0 }\n";
        let s = scan(src);
        assert_eq!(s.test_regions.len(), 1);
        assert!(!s.in_test_region(3));
    }

    #[test]
    fn byte_strings_and_byte_chars_are_literals_not_code() {
        let s = scan("let a = b\"unwrap()\"; let c = b'x'; let d = 1;");
        assert!(!idents(&s).contains(&"unwrap"));
        assert!(idents(&s).contains(&"d"));
        // The byte-string prefix ident is consumed separately from the
        // literal; the literal itself never leaks code tokens.
        assert!(s.tokens.iter().any(|t| t.kind == TokKind::StrLit));
    }

    #[test]
    fn raw_byte_strings_with_hash_fences_skip_embedded_quotes() {
        let s = scan("let x = br##\"inner \"# quote panic!()\"##;\nlet y = 2;");
        assert!(!idents(&s).contains(&"panic"));
        assert!(idents(&s).contains(&"y"));
    }

    #[test]
    fn raw_string_fence_count_must_match() {
        // `r#"…"#` terminates only on `"#`, not on a bare quote.
        let s = scan("let x = r#\"a \" b\"#; let tail = 3;");
        assert!(idents(&s).contains(&"tail"));
        assert_eq!(
            s.tokens
                .iter()
                .filter(|t| t.kind == TokKind::StrLit)
                .count(),
            1
        );
    }

    #[test]
    fn lifetime_before_char_literal_disambiguates() {
        // `'a` is a lifetime; `'a'` is a char literal. Both in one line.
        let s = scan("fn f<'a>(x: &'a u8) -> char { 'a' }\nfn g() -> u8 { 1 }");
        assert!(idents(&s).contains(&"g"));
        assert!(idents(&s).contains(&"char"));
        // The lifetime ident never becomes a code identifier token.
        assert!(!idents(&s).contains(&"a"));
    }

    #[test]
    fn static_lifetime_and_loop_labels_are_consumed() {
        let s = scan("fn f(s: &'static str) { 'outer: loop { break 'outer; } }");
        assert!(!idents(&s).contains(&"static"));
        assert!(!idents(&s).contains(&"outer"));
        assert!(idents(&s).contains(&"loop"));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "let a = \"two\nline string\";\nlet b = 1;";
        let s = scan(src);
        let b_tok = s
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, TokKind::Ident(i) if i == "b"))
            .expect("b token");
        assert_eq!(b_tok.line, 3);
    }
}
