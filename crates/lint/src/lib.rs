//! # mlake-lint
//!
//! Zero-dependency static analysis for the model-lake workspace
//! (DESIGN.md §10). A lightweight Rust scanner ([`lexer`]) feeds five
//! per-file passes ([`passes`]) that machine-enforce the invariants PR
//! review used to carry alone:
//!
//! * `unsafe-safety` — every `unsafe` carries a `// SAFETY:` comment;
//! * `no-panic` — no `unwrap()/expect("…")/panic!/todo!/unimplemented!`
//!   in non-test library code, unless annotated `// lint: panic-ok <why>`;
//! * `no-wallclock` — `Instant`/`SystemTime` only in `mlake-obs` and the
//!   bench crate (determinism guard);
//! * `facade-span` — every `pub fn` on the `ModelLake` facade opens an
//!   obs span or is annotated `// lint: no-span`;
//! * `lock-order` — `Mutex::lock` in `mlake-index`/`mlake-par` carries a
//!   `// lock-order: N` rank annotation matching the runtime tracker in
//!   `mlake_par::lockorder`.
//!
//! A symbol table ([`resolve`]) and call graph ([`callgraph`]) feed three
//! whole-program passes ([`wpa`]): `lock-cycle`, `transitive-panic` and
//! `blocking-under-lock`. Findings print as `file:line: [pass] message`;
//! any finding fails the run. Run with:
//!
//! ```text
//! cargo run -p mlake-lint --release -- crates src
//! ```

pub mod callgraph;
pub mod lexer;
pub mod passes;
pub mod resolve;
pub mod wpa;

pub use passes::{run_all, Finding};

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Directories never scanned (build output, vendored shims, VCS).
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// Recursively collects `.rs` files under `root`, sorted for determinism.
/// Paths are returned relative to `base` with forward slashes.
pub fn collect_rs_files(base: &Path, root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path.strip_prefix(base).unwrap_or(&path).to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Normalises a path to the workspace-relative forward-slash form the
/// passes key on.
pub fn norm_path(p: &Path) -> String {
    p.components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect::<Vec<_>>()
        .join("/")
}

/// The lock-rank table: rank → (lock names, acquisition-site count), from
/// `// lock-order:` annotations plus guard-returning fn transfers.
pub type RankTable = BTreeMap<u32, (BTreeSet<String>, usize)>;

/// What one run found.
pub struct Report {
    /// Every finding, sorted by (path, line, pass).
    pub findings: Vec<Finding>,
    /// The rank table, from the same whole-program analysis.
    pub ranks: RankTable,
}

/// Runs the full pipeline — per-file passes on every file, then the
/// whole-program passes ([`wpa`]) over the non-exempt subset — on
/// in-memory sources. `direct_deps` is the crate dependency map (see
/// [`resolve::crate_deps_from_manifests`] / [`resolve::deps_all`]); it
/// bounds cross-crate call resolution.
pub fn lint_files(
    sources: Vec<(String, String)>,
    direct_deps: &HashMap<String, Vec<String>>,
) -> Report {
    let mut findings = Vec::new();
    let mut workspace_sources = Vec::new();
    for (path, src) in sources {
        let scanned = lexer::scan(&src);
        findings.extend(passes::run_all(&path, &scanned));
        if !passes::exempt_path(&path) {
            workspace_sources.push((path, scanned));
        }
    }
    let ws = resolve::Workspace::build(workspace_sources, direct_deps);
    let cg = callgraph::CallGraph::build(&ws);
    let wpa = wpa::Wpa::build(&ws, &cg);
    findings.extend(wpa.run());
    findings.sort_by(|a, b| (&a.path, a.line, a.pass).cmp(&(&b.path, b.line, b.pass)));
    Report {
        findings,
        ranks: wpa.rank_table(),
    }
}

/// Lints every `.rs` file under `roots` (resolved against `base`) with
/// the full pipeline, reading crate dependencies from the workspace
/// manifests.
pub fn lint_tree(base: &Path, roots: &[&Path]) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for root in roots {
        let abs = base.join(root);
        for rel in collect_rs_files(base, &abs)? {
            let src = std::fs::read_to_string(base.join(&rel))?;
            sources.push((norm_path(&rel), src));
        }
    }
    let deps = resolve::crate_deps_from_manifests(base)?;
    Ok(lint_files(sources, &deps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::deps_all;

    /// The whole workspace must lint clean — the acceptance criterion of
    /// the lint layer, enforced on every `cargo test` run, not just in CI.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report =
            lint_tree(&root, &[Path::new("crates"), Path::new("src")]).expect("scan workspace");
        assert!(
            report.findings.is_empty(),
            "lint findings:\n{}",
            report
                .findings
                .iter()
                .map(Finding::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    fn lint(path: &str, src: &str) -> Report {
        let krate = resolve::crate_of_path(path);
        lint_files(
            vec![(path.into(), src.into())],
            &deps_all(&[krate.as_str()]),
        )
    }

    fn lines_of(report: &Report, pass: &str) -> Vec<usize> {
        let hits = report.findings.iter().filter(|f| f.pass == pass);
        hits.map(|f| f.line).collect()
    }

    /// `no-panic` and `transitive-panic` see the same panic sites: one
    /// facade method per fn, each fn holding one candidate, so every site
    /// `no-panic` flags is the end of exactly one `transitive-panic` chain.
    #[test]
    fn both_panic_passes_see_the_same_sites() {
        let bodies = [
            "x.unwrap()",
            "x.expect(\"m\")",
            "panic!(\"m\")",
            "todo!()",
            "unimplemented!()",
            "x.unwrap_or(0)",
            "x.unwrap(y)",
            "p.expect(&Tok::LParen)",
            "// lint: panic-ok abort is the contract\n    x.unwrap()",
            "// lint: panic-ok\n    x.unwrap()",
        ];
        let mut src = String::from("impl ModelLake {\n");
        for k in 0..bodies.len() {
            src += &format!("    // lint: no-span\n    pub fn m{k}(&self) {{ f{k}(); }}\n");
        }
        src += "}\n";
        for (k, body) in bodies.iter().enumerate() {
            src += &format!("fn f{k}(x: Option<u8>) {{\n    {body}\n}}\n");
        }
        let report = lint("crates/core/src/lake.rs", &src);
        let per_file: Vec<String> = lines_of(&report, "no-panic")
            .iter()
            .map(|l| format!("crates/core/src/lake.rs:{l}"))
            .collect();
        let whole_program: Vec<String> = report
            .findings
            .iter()
            .filter(|f| f.pass == "transitive-panic")
            .filter_map(|f| Some(f.chain.last()?.rsplit_once(" at ")?.1.to_string()))
            .collect();
        assert_eq!(per_file.len(), 6, "{:?}", report.findings);
        assert_eq!(per_file, whole_program);
    }

    /// An acquisition is one thing for `lock-order` and `lock-cycle`: an
    /// unannotated one is a `lock-order` finding and no rank, an annotated
    /// one a rank and no finding, and a call with arguments neither.
    #[test]
    fn both_lock_passes_see_the_same_acquisitions() {
        let path = "crates/par/src/lib.rs";
        let bare = lint(path, "fn f(m: &Mutex<u8>) { let _g = m.lock(); }");
        assert_eq!(lines_of(&bare, "lock-order"), vec![1]);
        assert_eq!(bare.findings.len(), 1);
        assert!(bare.ranks.is_empty(), "{:?}", bare.ranks);

        let unranked = lint(
            path,
            "fn f(m: &Mutex<u8>) {\n    // lock-order: high\n    let _g = m.lock();\n}",
        );
        assert_eq!(lines_of(&unranked, "lock-order"), vec![3]);
        assert!(unranked.ranks.is_empty(), "{:?}", unranked.ranks);

        let annotated = lint(
            path,
            "fn f(m: &Mutex<u8>) {\n    // lock-order: 10 (par.queue)\n    let _g = m.lock();\n}",
        );
        assert!(annotated.findings.is_empty(), "{:?}", annotated.findings);
        let names = BTreeSet::from(["par.queue".to_string()]);
        assert_eq!(annotated.ranks, RankTable::from([(10, (names, 1))]));

        let io = lint(path, "fn f(r: &mut R, buf: &mut [u8]) {\n    // lock-order: 10 (par.queue)\n    r.read(buf);\n}");
        assert!(io.findings.is_empty() && io.ranks.is_empty());
    }
}
