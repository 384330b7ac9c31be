//! Whole-program passes over the call graph (DESIGN.md §10).
//!
//! | id                    | rule                                                  |
//! |-----------------------|-------------------------------------------------------|
//! | `lock-cycle`          | the static lock-acquisition graph is strictly rank-increasing (strict monotonicity implies acyclicity, so one check subsumes both inversion and cycle detection); ranks and names are a bijection |
//! | `transitive-panic`    | no facade `pub fn`'s call chain reaches a panic site  |
//! | `blocking-under-lock` | no fsync / `accept()` / `join()` while a lock rank is held |
//!
//! The analysis is built on three conservative models:
//!
//! * **Guard regions.** A lock acquired at token `t` is modelled as held
//!   until the `}` of the innermost block containing `t`. The workspace
//!   convention of scoping guards into `{ … }` blocks (par, hnsw,
//!   server) makes this precise in practice; an acquisition at
//!   fn top level is held to the end of the fn — over-approximate when
//!   the guard is `drop`ped early, which only produces extra edges, never
//!   missed ones (modulo the call-resolution gaps listed in
//!   [`crate::resolve`]).
//! * **Guard-returning fns.** A fn whose return type mentions a `*Guard`
//!   ident and that acquires a rank (directly or via another such fn)
//!   transfers the acquisition to its call sites — this is how
//!   `Wal::lock_inner` makes `append`'s fsync-under-lock visible.
//! * **Fixpoint summaries.** `ranks_in(f)`, `panics(f)` and `blocks(f)`
//!   are propagated over the call graph to a fixpoint, so chains of any
//!   depth are covered. Reported chains are BFS-shortest.
//!
//! What a panic site, a lock acquisition and a rank annotation are is
//! decided in [`crate::passes`], once for the per-file and whole-program
//! passes. Escape hatches: `// lint: panic-ok <why>` excuses a
//! deliberate-abort panic site from both panic passes;
//! `// lint: blocking-ok <why>` accepts a blocking call under a lock
//! (e.g. the WAL's commit fsync).

use crate::callgraph::CallGraph;
use crate::lexer::Scanned;
use crate::passes::{
    facade_targets, lock_acquisition, panic_excused, panic_site, rank_annotation, Finding,
    ANNOTATION_WINDOW,
};
use crate::resolve::{ident_at, punct_at, FnId, Workspace};
use crate::RankTable;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

/// One lock acquisition attributed to a fn.
#[derive(Debug, Clone)]
struct Acq {
    /// Token index of the acquisition (or of the guard-fn call).
    tok: usize,
    /// 1-based line.
    line: usize,
    /// Annotated rank.
    rank: u32,
    /// Annotated lock name (empty when the annotation has none).
    name: String,
    /// Token index of the `}` closing the guard's region.
    region_end: usize,
}

/// A panic or blocking site attributed to a fn.
#[derive(Debug, Clone)]
struct Site {
    /// 1-based line.
    line: usize,
    /// What the site is (`panic!`, `fsync`, …) for messages.
    what: &'static str,
}

/// The assembled whole-program analysis state.
pub struct Wpa<'a> {
    ws: &'a Workspace,
    cg: &'a CallGraph,
    /// Per-fn acquisitions: direct plus guard-fn-call transfers.
    acqs: Vec<Vec<Acq>>,
    /// Per-fn direct panic sites (minus `panic-ok`).
    panics: Vec<Vec<Site>>,
    /// Per-fn direct blocking sites (minus `blocking-ok`).
    blocks: Vec<Vec<Site>>,
    /// Rank transferred to callers, for guard-returning fns.
    guard_rank: Vec<Option<(u32, String)>>,
    /// Fixpoint: every rank fn may acquire, transitively.
    ranks_in: Vec<BTreeSet<u32>>,
    /// Fixpoint: fn may reach a panic site.
    panic_reach: Vec<bool>,
    /// Fixpoint: fn may reach a blocking site.
    block_reach: Vec<bool>,
}

/// True when the construct at `line` carries a `// lint: <tag>` annotation
/// within [`ANNOTATION_WINDOW`] lines above (or on the line itself).
fn annotated(s: &Scanned, line: usize, tag: &str) -> bool {
    s.comment_near(line.saturating_sub(ANNOTATION_WINDOW), line, tag)
}

/// A blocking site at token `i`, outside a test region: an fsync-class
/// call, `.accept()` or `.join()`. Returns the site as messages render it.
fn blocking_site(s: &Scanned, i: usize) -> Option<&'static str> {
    let toks = &s.tokens;
    let line = toks.get(i)?.line;
    let fsync_call = punct_at(toks, i + 1, '(') && ident_at(toks, i.wrapping_sub(1)) != Some("fn");
    let zero_arg_method = i > 0
        && punct_at(toks, i - 1, '.')
        && punct_at(toks, i + 1, '(')
        && punct_at(toks, i + 2, ')');
    let what = match ident_at(toks, i)? {
        "sync_all" if fsync_call => "sync_all() (fsync-class I/O)",
        "sync_data" if fsync_call => "sync_data() (fsync-class I/O)",
        "fsync" if fsync_call => "fsync() (fsync-class I/O)",
        "accept" if zero_arg_method => "TcpListener::accept()",
        "join" if zero_arg_method => "JoinHandle::join()",
        _ => return None,
    };
    (!s.in_test_region(line)).then_some(what)
}

impl<'a> Wpa<'a> {
    /// Builds all summaries for the workspace.
    pub fn build(ws: &'a Workspace, cg: &'a CallGraph) -> Wpa<'a> {
        let n = ws.fns.len();
        let mut wpa = Wpa {
            ws,
            cg,
            acqs: vec![Vec::new(); n],
            panics: vec![Vec::new(); n],
            blocks: vec![Vec::new(); n],
            guard_rank: vec![None; n],
            ranks_in: vec![BTreeSet::new(); n],
            panic_reach: vec![false; n],
            block_reach: vec![false; n],
        };
        wpa.collect_direct_sites();
        wpa.resolve_guard_fns();
        wpa.transfer_guard_acquisitions();
        wpa.fixpoints();
        wpa
    }

    /// Innermost non-test fn whose body contains token `tok` of file `fi`.
    fn owner_at(&self, fi: usize, tok: usize) -> Option<FnId> {
        let mut best: Option<(usize, FnId)> = None;
        for (id, f) in self.ws.fns.iter().enumerate() {
            if f.file != fi {
                continue;
            }
            if let Some((open, close)) = f.body {
                if open < tok && tok < close && best.is_none_or(|(o, _)| open > o) {
                    best = Some((open, id));
                }
            }
        }
        best.map(|(_, id)| id)
            .filter(|&id| !self.ws.fns[id].in_test)
    }

    /// Walks every non-exempt file once, attributing acquisition, panic
    /// and blocking sites to their enclosing non-test fns.
    fn collect_direct_sites(&mut self) {
        for (fi, file) in self.ws.files.iter().enumerate() {
            let s = &file.scanned;
            for (i, t) in s.tokens.iter().enumerate() {
                if lock_acquisition(s, i).is_some() {
                    // Only an annotated acquisition has a rank to order;
                    // `lock-order` reports the others.
                    let rank = rank_annotation(s, t.line);
                    if let (Some(owner), Some((rank, name))) = (self.owner_at(fi, i), rank) {
                        self.acqs[owner].push(Acq {
                            tok: i,
                            line: t.line,
                            rank,
                            name,
                            region_end: file.enclosing_block_end(i),
                        });
                    }
                } else if let Some(what) = panic_site(s, i) {
                    if panic_excused(s, t.line) {
                        continue;
                    }
                    if let Some(owner) = self.owner_at(fi, i) {
                        self.panics[owner].push(Site { line: t.line, what });
                    }
                } else if let Some(what) = blocking_site(s, i) {
                    if annotated(s, t.line, "lint: blocking-ok") {
                        continue;
                    }
                    if let Some(owner) = self.owner_at(fi, i) {
                        self.blocks[owner].push(Site { line: t.line, what });
                    }
                }
            }
        }
    }

    /// Fixpoint for guard-returning fns: a fn whose return type mentions
    /// `*Guard` and that acquires a rank (directly or via another guard
    /// fn) transfers that rank to its callers.
    fn resolve_guard_fns(&mut self) {
        let returns_guard: Vec<bool> = self
            .ws
            .fns
            .iter()
            .map(|f| f.ret_idents.iter().any(|r| r.contains("Guard")))
            .collect();
        loop {
            let mut changed = false;
            for (id, &rg) in returns_guard.iter().enumerate() {
                if !rg || self.guard_rank[id].is_some() {
                    continue;
                }
                let found = self.acqs[id]
                    .first()
                    .map(|a| (a.rank, a.name.clone()))
                    .or_else(|| {
                        self.cg.edges[id]
                            .iter()
                            .find_map(|s| self.guard_rank[s.callee].clone())
                    });
                if found.is_some() {
                    self.guard_rank[id] = found;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Adds a synthetic acquisition at every call site of a guard-
    /// returning fn, scoped to the caller's innermost block.
    fn transfer_guard_acquisitions(&mut self) {
        let mut extra: Vec<(FnId, Acq)> = Vec::new();
        for (id, f) in self.ws.fns.iter().enumerate() {
            for site in &self.cg.edges[id] {
                if let Some((rank, name)) = &self.guard_rank[site.callee] {
                    let file = &self.ws.files[f.file];
                    extra.push((
                        id,
                        Acq {
                            tok: site.tok,
                            line: site.line,
                            rank: *rank,
                            name: name.clone(),
                            region_end: file.enclosing_block_end(site.tok),
                        },
                    ));
                }
            }
        }
        for (id, acq) in extra {
            self.acqs[id].push(acq);
        }
        for a in &mut self.acqs {
            a.sort_by_key(|x| x.tok);
        }
    }

    /// Propagates rank / panic / blocking summaries over the call graph.
    fn fixpoints(&mut self) {
        for id in 0..self.ws.fns.len() {
            self.ranks_in[id] = self.acqs[id].iter().map(|a| a.rank).collect();
            self.panic_reach[id] = !self.panics[id].is_empty();
            self.block_reach[id] = !self.blocks[id].is_empty();
        }
        loop {
            let mut changed = false;
            for id in 0..self.ws.fns.len() {
                for site in &self.cg.edges[id] {
                    let callee_ranks: Vec<u32> =
                        self.ranks_in[site.callee].iter().copied().collect();
                    for r in callee_ranks {
                        if self.ranks_in[id].insert(r) {
                            changed = true;
                        }
                    }
                    if self.panic_reach[site.callee] && !self.panic_reach[id] {
                        self.panic_reach[id] = true;
                        changed = true;
                    }
                    if self.block_reach[site.callee] && !self.block_reach[id] {
                        self.block_reach[id] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// BFS-shortest call path from `start` to a fn satisfying `hit`,
    /// following only fns satisfying `via`. Returns the FnId path
    /// including both endpoints.
    fn chain_to(
        &self,
        start: FnId,
        via: impl Fn(FnId) -> bool,
        hit: impl Fn(FnId) -> bool,
    ) -> Option<Vec<FnId>> {
        if hit(start) {
            return Some(vec![start]);
        }
        let mut parent: Vec<Option<FnId>> = vec![None; self.ws.fns.len()];
        let mut seen = vec![false; self.ws.fns.len()];
        let mut q = VecDeque::new();
        seen[start] = true;
        q.push_back(start);
        while let Some(f) = q.pop_front() {
            for site in &self.cg.edges[f] {
                let c = site.callee;
                if seen[c] {
                    continue;
                }
                seen[c] = true;
                parent[c] = Some(f);
                if hit(c) {
                    let mut path = vec![c];
                    let mut cur = c;
                    while let Some(p) = parent[cur] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                if via(c) {
                    q.push_back(c);
                }
            }
        }
        None
    }

    /// `crate::Type::fn (path:line)` for chain rendering.
    fn fn_label(&self, id: FnId) -> String {
        let f = &self.ws.fns[id];
        let file = &self.ws.files[f.file];
        format!(
            "mlake-{}::{} ({}:{})",
            file.crate_name,
            f.qual_name(),
            file.path,
            f.line
        )
    }

    fn finding(
        &self,
        pass: &'static str,
        fid: FnId,
        line: usize,
        message: String,
        chain: Vec<String>,
    ) -> Finding {
        let file = &self.ws.files[self.ws.fns[fid].file];
        Finding {
            pass,
            path: file.path.clone(),
            line,
            message,
            chain,
        }
    }

    /// Runs all three whole-program passes.
    pub fn run(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.lock_cycle(&mut out);
        self.transitive_panic(&mut out);
        self.blocking_under_lock(&mut out);
        let mut seen = HashSet::new();
        out.retain(|f| seen.insert((f.pass, f.path.clone(), f.line, f.message.clone())));
        out.sort_by(|a, b| (&a.path, a.line, a.pass).cmp(&(&b.path, b.line, b.pass)));
        out
    }

    /// The reconstructed rank table: rank → (names, acquisition count),
    /// the DESIGN.md §10 hierarchy every run prints.
    pub fn rank_table(&self) -> RankTable {
        let mut table = RankTable::new();
        for acqs in &self.acqs {
            for a in acqs {
                let entry = table.entry(a.rank).or_default();
                if !a.name.is_empty() {
                    entry.0.insert(a.name.clone());
                }
                entry.1 += 1;
            }
        }
        table
    }

    /// `lock-cycle`: every acquisition made while a rank is held must be
    /// strictly greater; ranks and names must map one-to-one.
    fn lock_cycle(&self, out: &mut Vec<Finding>) {
        // Rank/name bijection over the annotated sites.
        let mut by_rank: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        for (id, acqs) in self.acqs.iter().enumerate() {
            for a in acqs {
                if a.name.is_empty() {
                    continue;
                }
                by_rank.entry(a.rank).or_default().insert(a.name.clone());
                by_name.entry(a.name.clone()).or_default().insert(a.rank);
                if by_rank[&a.rank].len() > 1 || by_name[&a.name].len() > 1 {
                    out.push(self.finding(
                        "lock-cycle",
                        id,
                        a.line,
                        format!(
                            "rank/name mismatch: rank {} is annotated as {:?} elsewhere, `{}` as rank {:?}",
                            a.rank, by_rank[&a.rank], a.name, by_name[&a.name]
                        ),
                        Vec::new(),
                    ));
                }
            }
        }

        for (id, acqs) in self.acqs.iter().enumerate() {
            for (ai, a) in acqs.iter().enumerate() {
                // Direct nested acquisitions inside a's guard region.
                for b in &acqs[ai + 1..] {
                    if b.tok > a.region_end {
                        break;
                    }
                    if b.rank <= a.rank {
                        out.push(self.finding(
                            "lock-cycle",
                            id,
                            a.line,
                            format!(
                                "lock rank {} ({}) held here while acquiring rank {} ({}) at line {} — acquisition order must be strictly increasing (DESIGN.md §10)",
                                a.rank, a.name, b.rank, b.name, b.line
                            ),
                            vec![self.fn_label(id)],
                        ));
                    }
                }
                // Acquisitions reached through calls inside the region.
                for site in self.cg.sites_in_range(id, a.tok, a.region_end + 1) {
                    for &r in &self.ranks_in[site.callee] {
                        if r > a.rank {
                            continue;
                        }
                        let chain = self
                            .chain_to(
                                site.callee,
                                |_| true,
                                |f| self.acqs[f].iter().any(|x| x.rank == r),
                            )
                            .unwrap_or_else(|| vec![site.callee]);
                        let mut rendered = vec![self.fn_label(id)];
                        rendered.extend(chain.iter().map(|&f| self.fn_label(f)));
                        out.push(self.finding(
                            "lock-cycle",
                            id,
                            a.line,
                            format!(
                                "lock rank {} ({}) held here while the call at line {} can acquire rank {r} — acquisition order must be strictly increasing (DESIGN.md §10)",
                                a.rank, a.name, site.line
                            ),
                            rendered,
                        ));
                    }
                }
            }
        }
    }

    /// `transitive-panic`: no facade `pub fn` may reach a panic site.
    fn transitive_panic(&self, out: &mut Vec<Finding>) {
        for (id, f) in self.ws.fns.iter().enumerate() {
            if !f.is_pub || f.in_test || f.trait_impl {
                continue;
            }
            let file = &self.ws.files[f.file];
            let Some(ty) = &f.impl_type else { continue };
            if !facade_targets(&file.path).contains(&ty.as_str()) {
                continue;
            }
            if !self.panic_reach[id] {
                continue;
            }
            let Some(chain) = self.chain_to(id, |_| true, |g| !self.panics[g].is_empty()) else {
                continue;
            };
            let last = *chain.last().unwrap_or(&id);
            let site = &self.panics[last][0];
            let mut rendered: Vec<String> = chain.iter().map(|&g| self.fn_label(g)).collect();
            rendered.push(format!(
                "{} at {}:{}",
                site.what, self.ws.files[self.ws.fns[last].file].path, site.line
            ));
            out.push(self.finding(
                "transitive-panic",
                id,
                f.line,
                format!(
                    "facade method `{}` can reach {} via {} call(s) — convert the chain to Result or annotate the site `// lint: panic-ok <why>`",
                    f.qual_name(),
                    site.what,
                    chain.len().saturating_sub(1)
                ),
                rendered,
            ));
        }
    }

    /// `blocking-under-lock`: no fsync-class I/O, `accept()` or `join()`
    /// while any lock rank is held.
    fn blocking_under_lock(&self, out: &mut Vec<Finding>) {
        for (id, acqs) in self.acqs.iter().enumerate() {
            let f = &self.ws.fns[id];
            let file = &self.ws.files[f.file];
            let toks = &file.scanned.tokens;
            for a in acqs {
                // Direct blocking sites textually inside the guard region.
                for b in &self.blocks[id] {
                    let in_region = toks
                        .iter()
                        .enumerate()
                        .any(|(k, t)| k > a.tok && k <= a.region_end && t.line == b.line);
                    if in_region {
                        out.push(self.finding(
                            "blocking-under-lock",
                            id,
                            b.line,
                            format!(
                                "{} while holding lock rank {} ({}) acquired at line {} — move it out of the guard region or annotate `// lint: blocking-ok <why>`",
                                b.what, a.rank, a.name, a.line
                            ),
                            vec![self.fn_label(id)],
                        ));
                    }
                }
                // Blocking reached through calls made inside the region.
                for site in self.cg.sites_in_range(id, a.tok, a.region_end + 1) {
                    if !self.block_reach[site.callee] {
                        continue;
                    }
                    if annotated(&file.scanned, site.line, "lint: blocking-ok") {
                        continue;
                    }
                    let Some(chain) =
                        self.chain_to(site.callee, |_| true, |g| !self.blocks[g].is_empty())
                    else {
                        continue;
                    };
                    let last = *chain.last().unwrap_or(&site.callee);
                    let b = &self.blocks[last][0];
                    let mut rendered = vec![self.fn_label(id)];
                    rendered.extend(chain.iter().map(|&g| self.fn_label(g)));
                    rendered.push(format!(
                        "{} at {}:{}",
                        b.what, self.ws.files[self.ws.fns[last].file].path, b.line
                    ));
                    out.push(self.finding(
                        "blocking-under-lock",
                        id,
                        site.line,
                        format!(
                            "call while holding lock rank {} ({}) can reach {} — move it out of the guard region or annotate `// lint: blocking-ok <why>`",
                            a.rank, a.name, b.what
                        ),
                        rendered,
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::resolve::deps_all;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources = files
            .iter()
            .map(|(p, s)| (p.to_string(), scan(s)))
            .collect();
        let crates: Vec<&str> = files
            .iter()
            .map(|(p, _)| Box::leak(crate::resolve::crate_of_path(p).into_boxed_str()) as &str)
            .collect();
        let ws = Workspace::build(sources, &deps_all(&crates));
        let cg = CallGraph::build(&ws);
        Wpa::build(&ws, &cg).run()
    }

    fn by_pass<'f>(f: &'f [Finding], pass: &str) -> Vec<&'f Finding> {
        f.iter().filter(|x| x.pass == pass).collect()
    }

    // ---- lock-cycle ----------------------------------------------------

    #[test]
    fn increasing_acquisition_order_is_clean() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M) {\n    // lock-order: 10 (a.low)\n    let _g = m.lock();\n    {\n        // lock-order: 20 (a.high)\n        let _h = m.lock();\n    }\n}",
        )]);
        assert!(by_pass(&f, "lock-cycle").is_empty(), "{f:?}");
    }

    #[test]
    fn direct_inversion_fires() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M) {\n    // lock-order: 20 (a.high)\n    let _g = m.lock();\n    // lock-order: 10 (a.low)\n    let _h = m.lock();\n}",
        )]);
        let hits = by_pass(&f, "lock-cycle");
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("rank 20"));
        assert!(hits[0].message.contains("rank 10"));
    }

    #[test]
    fn scoped_guard_release_is_respected() {
        // The first guard's block closes before the second acquisition, so
        // there is no inversion even though ranks descend textually.
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M) {\n    {\n        // lock-order: 20 (a.high)\n        let _g = m.lock();\n    }\n    // lock-order: 10 (a.low)\n    let _h = m.lock();\n}",
        )]);
        assert!(by_pass(&f, "lock-cycle").is_empty(), "{f:?}");
    }

    #[test]
    fn cross_fn_inversion_fires_with_chain() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn outer(m: &M) {\n    // lock-order: 20 (a.high)\n    let _g = m.lock();\n    inner(m);\n}\nfn inner(m: &M) {\n    middle(m);\n}\nfn middle(m: &M) {\n    // lock-order: 10 (a.low)\n    let _h = m.lock();\n}",
        )]);
        let hits = by_pass(&f, "lock-cycle");
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].chain.len() >= 3, "chain: {:?}", hits[0].chain);
        assert!(hits[0].chain.iter().any(|c| c.contains("middle")));
    }

    #[test]
    fn same_rank_reacquisition_fires() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M) {\n    // lock-order: 10 (a.q)\n    let _g = m.lock();\n    // lock-order: 10 (a.q)\n    let _h = m.lock();\n}",
        )]);
        assert_eq!(by_pass(&f, "lock-cycle").len(), 1);
    }

    #[test]
    fn rank_name_mismatch_fires() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M) {\n    // lock-order: 10 (a.q)\n    let _g = m.lock();\n}\nfn g(m: &M) {\n    // lock-order: 10 (a.other)\n    let _g = m.lock();\n}",
        )]);
        assert!(!by_pass(&f, "lock-cycle").is_empty());
    }

    #[test]
    fn guard_returning_fn_transfers_acquisition() {
        // `locked` returns a guard; the caller holds rank 20 and then
        // acquires rank 10 through it in a nested call — inversion.
        let f = run(&[(
            "crates/a/src/lib.rs",
            "struct W;\nimpl W {\n    fn locked(&self) -> InnerGuard<'_> {\n        // lock-order: 10 (a.inner)\n        self.m.lock()\n    }\n    fn caller(&self, m: &M) {\n        // lock-order: 20 (a.outer)\n        let _g = m.lock();\n        let _inner = self.locked();\n    }\n}",
        )]);
        let hits = by_pass(&f, "lock-cycle");
        assert!(!hits.is_empty(), "{f:?}");
    }

    // ---- transitive-panic ----------------------------------------------

    #[test]
    fn facade_chain_to_panic_fires_with_full_path() {
        let f = run(&[
            (
                "crates/core/src/lake.rs",
                "use mlake_nn::step_two;\nimpl ModelLake {\n    pub fn ingest(&self) {\n        let _span = span(\"x\");\n        step_two();\n    }\n}\nfn span(_: &str) {}",
            ),
            (
                "crates/nn/src/lib.rs",
                "pub fn step_two() { step_three(); }\nfn step_three(x: Option<u8>) -> u8 { x.unwrap() }",
            ),
        ]);
        let hits = by_pass(&f, "transitive-panic");
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("ingest"));
        assert_eq!(hits[0].path, "crates/core/src/lake.rs");
        // Chain: ingest → step_two → step_three → site.
        assert!(hits[0].chain.len() == 4, "chain: {:?}", hits[0].chain);
        assert!(hits[0].chain[3].contains("crates/nn/src/lib.rs"));
    }

    #[test]
    fn non_facade_and_private_fns_are_not_roots() {
        let f = run(&[(
            "crates/core/src/lake.rs",
            "impl ModelLake {\n    fn private(&self) { boom(); }\n}\nimpl Other {\n    pub fn public(&self) { boom(); }\n}\nfn boom() { panic!(\"x\") }",
        )]);
        assert!(by_pass(&f, "transitive-panic").is_empty(), "{f:?}");
    }

    #[test]
    fn panic_ok_annotation_excludes_site() {
        let f = run(&[(
            "crates/core/src/lake.rs",
            "impl ModelLake {\n    pub fn ingest(&self) { boom(); }\n}\nfn boom() {\n    // lint: panic-ok deliberate abort on poisoned invariant\n    panic!(\"x\")\n}",
        )]);
        assert!(by_pass(&f, "transitive-panic").is_empty(), "{f:?}");
    }

    #[test]
    fn bare_panic_ok_excuses_nothing() {
        let f = run(&[(
            "crates/core/src/lake.rs",
            "impl ModelLake {\n    pub fn ingest(&self) { boom(); }\n}\nfn boom() {\n    // lint: panic-ok\n    panic!(\"x\")\n}",
        )]);
        let hits = by_pass(&f, "transitive-panic");
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(
            hits[0].chain[2].ends_with("lake.rs:6"),
            "chain: {:?}",
            hits[0].chain
        );
    }

    #[test]
    fn facade_direct_panic_is_its_own_chain() {
        let f = run(&[(
            "crates/wal/src/wal.rs",
            "impl Wal {\n    pub fn append(&self) { panic!(\"no\") }\n}",
        )]);
        let hits = by_pass(&f, "transitive-panic");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].chain.len(), 2, "chain: {:?}", hits[0].chain);
    }

    // ---- blocking-under-lock -------------------------------------------

    #[test]
    fn fsync_under_lock_fires() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M, file: &File) {\n    // lock-order: 50 (a.inner)\n    let _g = m.lock();\n    file.sync_all();\n}",
        )]);
        let hits = by_pass(&f, "blocking-under-lock");
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("rank 50"));
    }

    #[test]
    fn fsync_after_guard_scope_is_clean() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M, file: &File) {\n    {\n        // lock-order: 50 (a.inner)\n        let _g = m.lock();\n    }\n    file.sync_all();\n}",
        )]);
        assert!(by_pass(&f, "blocking-under-lock").is_empty(), "{f:?}");
    }

    #[test]
    fn blocking_ok_annotation_suppresses() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M, file: &File) {\n    // lock-order: 50 (a.inner)\n    let _g = m.lock();\n    // lint: blocking-ok group commit fsyncs under the lock by design\n    file.sync_all();\n}",
        )]);
        assert!(by_pass(&f, "blocking-under-lock").is_empty(), "{f:?}");
    }

    #[test]
    fn join_reached_through_call_fires_with_chain() {
        let f = run(&[(
            "crates/a/src/lib.rs",
            "fn f(m: &M) {\n    // lock-order: 7 (a.conns)\n    let _g = m.lock();\n    drain();\n}\nfn drain() { handle.join(); }",
        )]);
        let hits = by_pass(&f, "blocking-under-lock");
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].chain.iter().any(|c| c.contains("drain")));
    }

    // ---- rank table ----------------------------------------------------

    #[test]
    fn rank_table_reconstructs_hierarchy() {
        let sources = vec![(
            "crates/a/src/lib.rs".to_string(),
            scan("fn f(m: &M) {\n    // lock-order: 10 (a.q)\n    let _g = m.lock();\n}\nfn g(m: &M) {\n    // lock-order: 20 (a.latch)\n    let _h = m.read();\n}"),
        )];
        let ws = Workspace::build(sources, &deps_all(&["a"]));
        let cg = CallGraph::build(&ws);
        let wpa = Wpa::build(&ws, &cg);
        let table = wpa.rank_table();
        assert_eq!(table.len(), 2);
        assert!(table[&10].0.contains("a.q"));
        assert!(table[&20].0.contains("a.latch"));
    }
}
