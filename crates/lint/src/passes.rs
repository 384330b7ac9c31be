//! The per-file lint passes (DESIGN.md §10).
//!
//! Every pass walks the token/comment streams of one [`Scanned`] file and
//! emits [`Finding`]s. Paths are workspace-relative with forward slashes;
//! path-scoped rules (which crates a pass applies to) live here so the
//! whole policy is in one place.
//!
//! | id             | rule                                                        |
//! |----------------|-------------------------------------------------------------|
//! | `unsafe-safety`| every `unsafe` block/fn/impl carries a `// SAFETY:` comment |
//! | `no-panic`     | no `unwrap()/expect("…")/panic!/todo!/unimplemented!` in lib, unless annotated `// lint: panic-ok <why>` |
//! | `no-wallclock` | no `Instant`/`SystemTime` outside `mlake-obs` and `bench` |
//! | `facade-span`  | every `pub fn` on a facade type (`ModelLake` in core; `Wal`/`Recovery` in wal; `Api` in server) opens an obs span |
//! | `lock-order`   | `.lock()`/`.read()`/`.write()` in index/par/wal/server carries a `// lock-order: N` comment |
//!
//! Test code is exempt everywhere: files under `tests/` or `examples/`, the
//! `mlake-bench` crate, and the trailing `#[cfg(test)]` region of library
//! files.

use crate::lexer::{Scanned, Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Pass identifier (stable).
    pub pass: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
    /// Whole-program call chain leading to the finding (empty for
    /// per-file passes): rendered `crate::Type::fn (path:line)` hops
    /// ending at the offending site.
    pub chain: Vec<String>,
}

impl Finding {
    fn new(pass: &'static str, path: &str, line: usize, message: String) -> Finding {
        Finding {
            pass,
            path: path.to_string(),
            line,
            message,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.message
        )
    }
}

/// Lines of leading comment tolerated between an annotation comment and the
/// construct it annotates.
const SAFETY_WINDOW: usize = 4;
pub(crate) const ANNOTATION_WINDOW: usize = 3;
const LOCK_WINDOW: usize = 2;

/// True for paths whose whole file is test/example or binary scaffolding,
/// or part of the experiment harness. `src/bin/` holds ad-hoc driver
/// binaries (panicking on bad CLI args is their error reporting), in any
/// crate and at the root.
pub fn exempt_path(path: &str) -> bool {
    path.starts_with("crates/bench/")
        || path.contains("/tests/")
        || path.contains("/examples/")
        || path.contains("/src/bin/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("src/bin/")
}

fn ident(t: Option<&Tok>) -> Option<&str> {
    match t {
        Some(Tok {
            kind: TokKind::Ident(s),
            ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: Option<&Tok>, c: char) -> bool {
    matches!(t, Some(Tok { kind: TokKind::Punct(p), .. }) if *p == c)
}

fn strlit(t: Option<&Tok>) -> bool {
    matches!(
        t,
        Some(Tok {
            kind: TokKind::StrLit,
            ..
        })
    )
}

/// Runs every pass applicable to `path` over one scanned file.
pub fn run_all(path: &str, s: &Scanned) -> Vec<Finding> {
    let mut out = Vec::new();
    if exempt_path(path) {
        return out;
    }
    unsafe_safety(path, s, &mut out);
    no_panic(path, s, &mut out);
    no_wallclock(path, s, &mut out);
    facade_span(path, s, &mut out);
    lock_order(path, s, &mut out);
    out
}

/// `unsafe-safety`: every `unsafe` keyword (block, fn, impl, trait) must
/// have a comment containing `SAFETY:` on its line or within
/// [`SAFETY_WINDOW`] lines above.
fn unsafe_safety(path: &str, s: &Scanned, out: &mut Vec<Finding>) {
    for t in &s.tokens {
        if ident(Some(t)) != Some("unsafe") || s.in_test_region(t.line) {
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_WINDOW);
        if !s.comment_near(lo, t.line, "SAFETY:") {
            out.push(Finding::new(
                "unsafe-safety",
                path,
                t.line,
                "`unsafe` without a `// SAFETY:` comment justifying the invariant".into(),
            ));
        }
    }
}

/// What a panic site is, for `no-panic` and `transitive-panic` alike:
/// `.unwrap()`, `.expect("…")`, `panic!`, `todo!` or `unimplemented!` at
/// token `i`, outside a test region. `.expect(` with a
/// non-string-literal argument is not one (e.g. a parser method named
/// `expect`). Returns the site as messages render it.
pub(crate) fn panic_site(s: &Scanned, i: usize) -> Option<&'static str> {
    let toks = &s.tokens;
    let t = toks.get(i)?;
    let prev = i.checked_sub(1).and_then(|k| toks.get(k));
    let call = punct(prev, '.') && punct(toks.get(i + 1), '(');
    let bang = punct(toks.get(i + 1), '!');
    let what = match ident(Some(t))? {
        "unwrap" if call && punct(toks.get(i + 2), ')') => ".unwrap()",
        "expect" if call && strlit(toks.get(i + 2)) => ".expect(\"…\")",
        "panic" if bang => "panic!",
        "todo" if bang => "todo!",
        "unimplemented" if bang => "unimplemented!",
        _ => return None,
    };
    (!s.in_test_region(t.line)).then_some(what)
}

/// What excuses a panic site, in both panic passes: a
/// `// lint: panic-ok <why>` comment on its line or within
/// [`ANNOTATION_WINDOW`] lines above, with a reason after the tag. A bare
/// `// lint: panic-ok` excuses nothing.
pub(crate) fn panic_excused(s: &Scanned, line: usize) -> bool {
    let lo = line.saturating_sub(ANNOTATION_WINDOW);
    s.comments.iter().any(|c| {
        c.end_line >= lo
            && c.line <= line
            && c.text
                .split_once("lint: panic-ok")
                .is_some_and(|(_, why)| !why.trim_end_matches("*/").trim().is_empty())
    })
}

/// `no-panic`: no [`panic_site`] in non-test library code unless
/// [`panic_excused`].
fn no_panic(path: &str, s: &Scanned, out: &mut Vec<Finding>) {
    for (i, t) in s.tokens.iter().enumerate() {
        let Some(what) = panic_site(s, i) else {
            continue;
        };
        if !panic_excused(s, t.line) {
            out.push(Finding::new(
                "no-panic",
                path,
                t.line,
                format!(
                    "{what} in non-test library code — return an error or annotate the site `// lint: panic-ok <why>`"
                ),
            ));
        }
    }
}

/// `no-wallclock`: `Instant`/`SystemTime` only inside `mlake-obs` (the
/// process's one physical clock) and the bench crate. Everything else
/// must stay deterministic.
fn no_wallclock(path: &str, s: &Scanned, out: &mut Vec<Finding>) {
    if path.starts_with("crates/obs/") {
        return;
    }
    for t in &s.tokens {
        let Some(name) = ident(Some(t)) else { continue };
        if (name == "Instant" || name == "SystemTime") && !s.in_test_region(t.line) {
            out.push(Finding::new(
                "no-wallclock",
                path,
                t.line,
                format!("`{name}` outside mlake-obs/bench breaks the determinism guard — time through mlake-obs instead"),
            ));
        }
    }
}

/// The facade types whose public methods must open obs spans (and, in the
/// whole-program [`crate::wpa`] passes, must not reach panic sites), per
/// crate. Adding a crate here is how a new subsystem opts into both rules.
pub(crate) fn facade_targets(path: &str) -> &'static [&'static str] {
    if path.starts_with("crates/core/") {
        &["ModelLake"]
    } else if path.starts_with("crates/wal/") {
        &["Wal", "Recovery"]
    } else if path.starts_with("crates/server/") {
        &["Api"]
    } else if path.starts_with("crates/text/") {
        &["TextIndex"]
    } else {
        &[]
    }
}

/// `facade-span`: inside `impl <FacadeType>` blocks (see
/// [`facade_targets`]), every `pub fn` body must call `…span(` or the
/// signature must be annotated `// lint: no-span` within
/// [`ANNOTATION_WINDOW`] lines above.
fn facade_span(path: &str, s: &Scanned, out: &mut Vec<Finding>) {
    let targets = facade_targets(path);
    if targets.is_empty() {
        return;
    }
    let toks = &s.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        // Find `impl <Target>` (not `impl Trait for <Target>`).
        if ident(toks.get(i)) == Some("impl")
            && ident(toks.get(i + 1)).is_some_and(|name| targets.contains(&name))
            && ident(toks.get(i + 2)) != Some("for")
        {
            // Advance to the impl block's opening brace and remember where
            // the block ends.
            let mut j = i + 2;
            while j < toks.len() && !punct(toks.get(j), '{') {
                j += 1;
            }
            let block_end = match matching_brace(toks, j) {
                Some(e) => e,
                None => toks.len(),
            };
            scan_impl_block(path, s, j + 1, block_end, out);
            i = block_end + 1;
            continue;
        }
        i += 1;
    }
}

/// Index of the `}` matching the `{` at `open` (tokens), if any.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
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

/// Checks every top-level `pub fn` in the token range `[start, end)`.
fn scan_impl_block(path: &str, s: &Scanned, start: usize, end: usize, out: &mut Vec<Finding>) {
    let toks = &s.tokens;
    let mut i = start;
    while i < end {
        if ident(toks.get(i)) == Some("pub") && ident(toks.get(i + 1)) == Some("fn") {
            let fn_line = toks[i].line;
            let fn_name = ident(toks.get(i + 2)).unwrap_or("?").to_string();
            // Body = first brace block after the signature.
            let mut j = i + 2;
            while j < end && !punct(toks.get(j), '{') {
                j += 1;
            }
            let body_end = matching_brace(toks, j).unwrap_or(end).min(end);
            let opens_span = (j..body_end)
                .any(|k| ident(toks.get(k)) == Some("span") && punct(toks.get(k + 1), '('));
            let annotated = s.comment_near(
                fn_line.saturating_sub(ANNOTATION_WINDOW),
                fn_line,
                "lint: no-span",
            );
            if !opens_span && !annotated && !s.in_test_region(fn_line) {
                out.push(Finding::new(
                    "facade-span",
                    path,
                    fn_line,
                    format!(
                        "facade method `{fn_name}` opens no obs span and is not annotated `// lint: no-span`"
                    ),
                ));
            }
            i = body_end + 1;
            continue;
        }
        i += 1;
    }
}

/// What a lock acquisition is, for `lock-order` and the whole-program
/// acquisition scan alike: a zero-argument `.lock()`, `.read()` or
/// `.write()` call at token `i`, outside a test region. Matching is
/// purely syntactic, which is the point: a reader that *looks* like a
/// lock acquisition should be annotated or renamed. Returns the lock
/// kind as messages render it.
pub(crate) fn lock_acquisition(s: &Scanned, i: usize) -> Option<&'static str> {
    let toks = &s.tokens;
    let t = toks.get(i)?;
    let kind = match ident(Some(t))? {
        "lock" => "Mutex::lock",
        "read" | "write" => "RwLock::read/write",
        _ => return None,
    };
    let prev = i.checked_sub(1).and_then(|k| toks.get(k));
    let zero_arg = punct(prev, '.') && punct(toks.get(i + 1), '(') && punct(toks.get(i + 2), ')');
    (zero_arg && !s.in_test_region(t.line)).then_some(kind)
}

/// Parses `lock-order: N (name)` out of a comment near `line`, taking the
/// nearest matching comment within [`LOCK_WINDOW`] lines above. The name
/// is empty when the annotation has none.
pub(crate) fn rank_annotation(s: &Scanned, line: usize) -> Option<(u32, String)> {
    let lo = line.saturating_sub(LOCK_WINDOW);
    let mut best: Option<(usize, (u32, String))> = None;
    for c in &s.comments {
        if c.end_line < lo || c.line > line {
            continue;
        }
        let Some(at) = c.text.find("lock-order:") else {
            continue;
        };
        let rest = c.text[at + "lock-order:".len()..].trim_start();
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let Ok(rank) = digits.parse::<u32>() else {
            continue;
        };
        let name = rest[digits.len()..]
            .trim_start()
            .strip_prefix('(')
            .and_then(|r| r.split(')').next())
            .unwrap_or("")
            .to_string();
        if best.as_ref().is_none_or(|(l, _)| c.line >= *l) {
            best = Some((c.line, (rank, name)));
        }
    }
    best.map(|(_, r)| r)
}

/// `lock-order`: in `mlake-index`/`mlake-par`/`mlake-wal`/`mlake-server`
/// and core's store, every [`lock_acquisition`] must carry a
/// `// lock-order: N` comment (see [`rank_annotation`]) stating its rank
/// in the DESIGN.md §10 lock hierarchy.
fn lock_order(path: &str, s: &Scanned, out: &mut Vec<Finding>) {
    if !(path.starts_with("crates/index/")
        || path.starts_with("crates/par/")
        || path.starts_with("crates/wal/")
        || path.starts_with("crates/server/")
        || path.starts_with("crates/core/src/store"))
    {
        return;
    }
    for (i, t) in s.tokens.iter().enumerate() {
        let Some(kind) = lock_acquisition(s, i) else {
            continue;
        };
        if rank_annotation(s, t.line).is_none() {
            out.push(Finding::new(
                "lock-order",
                path,
                t.line,
                format!("`{kind}` without a `// lock-order: N` rank annotation (DESIGN.md §10)"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        run_all(path, &scan(src))
    }

    fn passes(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.pass).collect()
    }

    // ---- unsafe-safety -------------------------------------------------

    #[test]
    fn unsafe_without_safety_fires() {
        let f = findings(
            "crates/x/src/lib.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }",
        );
        assert_eq!(passes(&f), vec!["unsafe-safety"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_with_safety_comment_clean() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_test_region_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 { unsafe { *p } }\n}";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    // ---- no-panic ------------------------------------------------------

    #[test]
    fn unwrap_and_macros_fire() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\") }\nfn h() { todo!() }";
        let f = findings("crates/x/src/lib.rs", src);
        assert_eq!(passes(&f), vec!["no-panic", "no-panic", "no-panic"]);
    }

    #[test]
    fn expect_with_string_literal_fires_but_parser_method_does_not() {
        let flagged = findings(
            "crates/x/src/lib.rs",
            "fn f(x: Option<u8>) -> u8 { x.expect(\"msg\") }",
        );
        assert_eq!(passes(&flagged), vec!["no-panic"]);
        // A parser's own `expect(&Token::…)` method is not Option::expect.
        let clean = findings(
            "crates/x/src/lib.rs",
            "fn f(p: &mut P) -> R { p.expect(&Token::LParen) }",
        );
        assert!(clean.is_empty());
    }

    #[test]
    fn unwrap_variants_not_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 1) }";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tests_benches_and_bench_crate_exempt() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(findings("crates/x/tests/api.rs", src).is_empty());
        assert!(findings("crates/bench/src/lib.rs", src).is_empty());
        assert!(findings("examples/quickstart.rs", src).is_empty());
        // Binary scaffolding under src/bin/ is exempt in every crate and
        // at the workspace root — but src/ library code is not.
        assert!(findings("crates/x/src/bin/driver.rs", src).is_empty());
        assert!(findings("src/bin/tool.rs", src).is_empty());
        assert!(!findings("crates/x/src/binary.rs", src).is_empty());
        let in_tests =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}";
        assert!(findings("crates/x/src/lib.rs", in_tests).is_empty());
    }

    #[test]
    fn panic_ok_with_a_reason_excuses_and_a_bare_tag_does_not() {
        let excused = "fn f(x: Option<u8>) -> u8 {\n    // lint: panic-ok init cannot fail here\n    x.expect(\"set\")\n}";
        assert!(findings("crates/x/src/lib.rs", excused).is_empty());
        let bare = "fn f(x: Option<u8>) -> u8 {\n    // lint: panic-ok\n    x.expect(\"set\")\n}";
        let f = findings("crates/x/src/lib.rs", bare);
        assert_eq!(passes(&f), vec!["no-panic"]);
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("lint: panic-ok <why>"),
            "{}",
            f[0].message
        );
    }

    // ---- no-wallclock --------------------------------------------------

    #[test]
    fn wallclock_fires_outside_obs_and_bench() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }";
        let f = findings("crates/par/src/lib.rs", src);
        assert_eq!(passes(&f), vec!["no-wallclock", "no-wallclock"]);
        assert!(findings("crates/obs/src/span.rs", src).is_empty());
        assert!(findings("crates/bench/src/bin/guard.rs", src).is_empty());
        // The HTTP client crate times nothing; it gets no exemption.
        assert!(!findings("crates/load/src/lib.rs", src).is_empty());
        let st = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }";
        assert_eq!(passes(&findings("crates/core/src/lake.rs", st)).len(), 2);
    }

    // ---- facade-span ---------------------------------------------------

    #[test]
    fn facade_pub_fn_without_span_fires() {
        let src = "impl ModelLake {\n    pub fn naked(&self) -> usize { self.len }\n}";
        let f = findings("crates/core/src/lake.rs", src);
        assert_eq!(passes(&f), vec!["facade-span"]);
        assert!(f[0].message.contains("naked"));
    }

    #[test]
    fn facade_span_or_annotation_clean() {
        let spanned = "impl ModelLake {\n    pub fn traced(&self) {\n        let _span = mlake_obs::span(\"lake.traced\");\n    }\n}";
        assert!(findings("crates/core/src/lake.rs", spanned).is_empty());
        let annotated = "impl ModelLake {\n    // lint: no-span — trivial accessor\n    pub fn len(&self) -> usize { self.n }\n}";
        assert!(findings("crates/core/src/lake.rs", annotated).is_empty());
    }

    #[test]
    fn facade_ignores_other_impls_and_private_fns() {
        let src = "impl QueryTarget for ModelLake {\n    fn all_models(&self) -> Vec<u64> { vec![] }\n}\nimpl ModelLake {\n    fn private_helper(&self) {}\n    pub(crate) fn crate_helper(&self) {}\n}";
        assert!(findings("crates/core/src/lake.rs", src).is_empty());
    }

    #[test]
    fn facade_covers_wal_and_recovery_types() {
        let src = "impl Wal {\n    pub fn naked(&self) -> usize { 0 }\n}\nimpl Recovery {\n    pub fn also_naked() -> usize { 0 }\n}";
        let f = findings("crates/wal/src/wal.rs", src);
        assert_eq!(passes(&f), vec!["facade-span", "facade-span"]);
        // The same types in a crate with no facade targets are untouched.
        assert!(findings("crates/index/src/hnsw.rs", src).is_empty());
        // ModelLake is not a facade type inside crates/wal.
        let other = "impl ModelLake {\n    pub fn naked(&self) -> usize { 0 }\n}";
        assert!(findings("crates/wal/src/wal.rs", other).is_empty());
    }

    #[test]
    fn facade_covers_server_api_type() {
        let src = "impl Api {\n    pub fn naked(&self) -> usize { 0 }\n}";
        let f = findings("crates/server/src/api.rs", src);
        assert_eq!(passes(&f), vec!["facade-span"]);
        // Api is not a facade type outside crates/server.
        assert!(findings("crates/core/src/lake.rs", src).is_empty());
    }

    #[test]
    fn facade_skips_trait_impls_on_target_types() {
        let src = "impl Drop for Wal {\n    fn drop(&mut self) {}\n}\nimpl Wal for Compat {\n    pub fn shim(&self) -> usize { 0 }\n}";
        assert!(findings("crates/wal/src/wal.rs", src).is_empty());
    }

    // ---- lock-order ----------------------------------------------------

    #[test]
    fn lock_without_rank_fires_in_par_and_index_only() {
        let src = "fn f(m: &Mutex<u8>) { let _g = m.lock(); }";
        assert_eq!(
            passes(&findings("crates/par/src/lib.rs", src)),
            vec!["lock-order"]
        );
        assert_eq!(
            passes(&findings("crates/index/src/hnsw.rs", src)),
            vec!["lock-order"]
        );
        assert_eq!(
            passes(&findings("crates/wal/src/wal.rs", src)),
            vec!["lock-order"]
        );
        assert!(findings("crates/obs/src/recorder.rs", src).is_empty());
        assert_eq!(
            passes(&findings("crates/server/src/server.rs", src)),
            vec!["lock-order"]
        );
    }

    #[test]
    fn lock_with_rank_annotation_clean() {
        let src =
            "fn f(m: &Mutex<u8>) {\n    // lock-order: 30 (hnsw.entry)\n    let _g = m.lock();\n}";
        assert!(findings("crates/index/src/hnsw.rs", src).is_empty());
    }

    #[test]
    fn field_named_lock_is_not_a_lock_call() {
        let src = "fn f(l: &Latch) { let _v = l.lock.lock.x; }";
        assert!(findings("crates/par/src/lib.rs", src).is_empty());
    }

    #[test]
    fn rwlock_read_write_without_rank_fire() {
        let src = "fn f(l: &RwLock<u8>) { let _a = l.read(); let _b = l.write(); }";
        assert_eq!(
            passes(&findings("crates/index/src/hnsw.rs", src)),
            vec!["lock-order", "lock-order"]
        );
        assert_eq!(passes(&findings("crates/par/src/lib.rs", src)).len(), 2);
        // Out-of-scope crates are untouched (core's registry.read() etc.).
        assert!(findings("crates/core/src/lake.rs", src).is_empty());
    }

    #[test]
    fn rwlock_read_write_with_rank_annotation_clean() {
        let src = "fn f(l: &RwLock<Vec<u32>>) {\n    // lock-order: 40 (hnsw.node)\n    let _g = l.write();\n}";
        assert!(findings("crates/index/src/hnsw.rs", src).is_empty());
    }

    #[test]
    fn read_with_arguments_is_not_an_acquisition() {
        // io::Read-style calls take arguments; only zero-arg `.read()` /
        // `.write()` look like RwLock acquisitions.
        let src = "fn f(r: &mut impl Read, buf: &mut [u8]) { r.read(buf); }";
        assert!(findings("crates/par/src/lib.rs", src).is_empty());
    }
}
