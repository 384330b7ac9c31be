//! The resolution layer: from per-file token streams to an approximate
//! whole-workspace symbol table (DESIGN.md §10).
//!
//! This is deliberately *not* a Rust front-end. It recovers just enough
//! structure for conservative whole-program analysis:
//!
//! * a **crate map** — `crates/<name>/…` → crate `<name>`, `src/…` → the
//!   umbrella `root` crate — plus the crate **dependency graph** parsed
//!   from each `Cargo.toml` (`mlake-x` entries only; the vendored shims
//!   are opaque);
//! * **fn items** — free functions, inherent methods (`impl Type`), trait
//!   methods (`impl Trait for Type`, `trait T { fn … }`), each with its
//!   body token range, visibility, and return-type idents;
//! * per-file **imports** — `use mlake_x::…` leaf-name → crate mapping
//!   used to resolve bare cross-crate calls.
//!
//! Approximations (also documented in DESIGN.md §10): generics and trait
//! dispatch are resolved by *name*, not by type inference; function
//! pointers, closures passed across functions, and macro-generated code
//! are invisible; `use …::*` glob imports are ignored. The call graph
//! built on top ([`crate::callgraph`]) inherits these properties and is
//! over-approximate for method names and under-approximate for dynamic
//! dispatch.

use crate::lexer::{Scanned, Tok, TokKind};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// One scanned source file plus its crate attribution.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Crate key: the directory under `crates/`, or `root` for `src/`.
    pub crate_name: String,
    /// Token/comment streams.
    pub scanned: Scanned,
    /// Leaf import name → crate key (from `use` items).
    pub imports: HashMap<String, String>,
    /// `{`-token-index → matching `}`-token-index, for block scoping.
    pub blocks: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Token index of the `}` closing the innermost block containing
    /// token `idx` (the whole file when `idx` is at the top level).
    pub fn enclosing_block_end(&self, idx: usize) -> usize {
        let mut best_open = 0usize;
        let mut best_close = usize::MAX;
        let mut found = false;
        for &(open, close) in &self.blocks {
            if open < idx && idx < close && (!found || open > best_open) {
                best_open = open;
                best_close = close;
                found = true;
            }
        }
        if found {
            best_close
        } else {
            self.scanned.tokens.len()
        }
    }
}

/// Identifier of a [`FnItem`] in [`Workspace::fns`].
pub type FnId = usize;

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// True when declared inside `impl Trait for Type` or a `trait`
    /// block (resolved only via an explicit receiver type, never by bare
    /// name — see module docs).
    pub trait_impl: bool,
    /// `pub fn` (strict adjacency, matching the facade-span pass).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the body braces `(open, close)`, `None` for
    /// body-less trait signatures.
    pub body: Option<(usize, usize)>,
    /// Identifier tokens of the return type (guard-detection heuristic).
    pub ret_idents: Vec<String>,
    /// Parameter count excluding the receiver, `None` when the list
    /// could not be delimited. Used to narrow the by-name fallback.
    pub arity: Option<usize>,
    /// Declared inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Type::name` or plain `name`, for chain rendering.
    pub fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The resolved workspace: files, fn items, symbol indexes, crate deps.
pub struct Workspace {
    /// Scanned files.
    pub files: Vec<SourceFile>,
    /// All fn items.
    pub fns: Vec<FnItem>,
    /// Transitive dependency closure per crate key (includes the crate
    /// itself).
    pub dep_closure: HashMap<String, HashSet<String>>,
    free_by_name: HashMap<String, Vec<FnId>>,
    methods_by_name: HashMap<String, Vec<FnId>>,
    methods_by_type: HashMap<(String, String), Vec<FnId>>,
    /// `(struct, field)` → idents of the declared field type, from struct
    /// (and enum-variant) bodies. Used to type `self.field.m(…)`
    /// receivers.
    field_types: HashMap<(String, String), Vec<String>>,
    /// field name → union of every declared type for that name, for
    /// receivers whose owner is a local variable.
    fields_by_name: HashMap<String, Vec<String>>,
}

/// Crate key for a workspace-relative path.
pub fn crate_of_path(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "root".to_string()
}

/// Maps a `use`d crate identifier (`mlake_wal`, `crate`, …) to a crate
/// key, or `None` for external crates.
fn crate_key_of_ident(ident: &str, own: &str) -> Option<String> {
    if let Some(rest) = ident.strip_prefix("mlake_") {
        return Some(rest.replace('_', "-"));
    }
    if ident == "crate" || ident == "self" || ident == "super" {
        return Some(own.to_string());
    }
    None
}

/// Parses the direct `mlake-*` dependencies of every `crates/*/Cargo.toml`
/// under `base`. The umbrella `root` crate depends on everything.
pub fn crate_deps_from_manifests(base: &Path) -> std::io::Result<HashMap<String, Vec<String>>> {
    let mut deps: HashMap<String, Vec<String>> = HashMap::new();
    let crates_dir = base.join("crates");
    let mut names = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let dir = entry.path();
            let manifest = dir.join("Cargo.toml");
            let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
                continue;
            };
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                continue;
            };
            names.push(name.clone());
            deps.insert(name.clone(), parse_manifest_deps(&text));
        }
    }
    deps.insert("root".to_string(), names);
    Ok(deps)
}

/// Extracts `mlake-x` keys from the `[dependencies]` section of one
/// manifest (dev-dependencies only affect test code, which is exempt).
fn parse_manifest_deps(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some(rest) = line.strip_prefix("mlake-") {
            if let Some(end) = rest.find(['.', ' ', '=']) {
                out.push(rest[..end].to_string());
            }
        }
    }
    out
}

/// A dependency map where every crate depends on every other — the
/// over-approximate default for in-memory fixtures with no manifests.
pub fn deps_all(crates: &[&str]) -> HashMap<String, Vec<String>> {
    crates
        .iter()
        .map(|c| {
            (
                c.to_string(),
                crates.iter().map(|d| d.to_string()).collect(),
            )
        })
        .collect()
}

/// Keywords never treated as call names.
const KEYWORDS: [&str; 22] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "where", "let", "mut", "ref", "move", "unsafe", "fn", "impl", "use", "mod", "pub",
];

pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

pub(crate) fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some(Tok {
            kind: TokKind::Ident(s),
            ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Tok { kind: TokKind::Punct(p), .. }) if *p == c)
}

/// `(open, close)` pairs for every brace block in `toks`.
fn brace_pairs(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut pairs = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => stack.push(i),
            TokKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    pairs.push((open, i));
                }
            }
            _ => {}
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Matching `}` for the `{` at `open`, using the precomputed pairs.
fn close_of(pairs: &[(usize, usize)], open: usize) -> Option<usize> {
    pairs
        .binary_search_by_key(&open, |&(o, _)| o)
        .ok()
        .map(|k| pairs[k].1)
}

impl Workspace {
    /// Builds the symbol table over `files` (path, source) with the given
    /// direct-dependency map (see [`crate_deps_from_manifests`] /
    /// [`deps_all`]).
    pub fn build(
        sources: Vec<(String, Scanned)>,
        direct_deps: &HashMap<String, Vec<String>>,
    ) -> Workspace {
        let mut files = Vec::new();
        for (path, scanned) in sources {
            let crate_name = crate_of_path(&path);
            let blocks = brace_pairs(&scanned.tokens);
            let imports = parse_imports(&scanned.tokens, &crate_name);
            files.push(SourceFile {
                path,
                crate_name,
                scanned,
                imports,
                blocks,
            });
        }

        let mut fns = Vec::new();
        let mut field_types: HashMap<(String, String), Vec<String>> = HashMap::new();
        let mut fields_by_name: HashMap<String, Vec<String>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            extract_items(fi, file, &mut fns);
            extract_fields(file, &mut field_types, &mut fields_by_name);
        }

        let mut free_by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut methods_by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        let mut methods_by_type: HashMap<(String, String), Vec<FnId>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            match &f.impl_type {
                Some(t) => {
                    methods_by_type
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    if !f.trait_impl {
                        methods_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                }
                None => free_by_name.entry(f.name.clone()).or_default().push(id),
            }
        }

        // Transitive dependency closure (includes self).
        let mut dep_closure: HashMap<String, HashSet<String>> = HashMap::new();
        let crates: HashSet<String> = files.iter().map(|f| f.crate_name.clone()).collect();
        for c in &crates {
            let mut seen: HashSet<String> = HashSet::new();
            let mut stack = vec![c.clone()];
            while let Some(k) = stack.pop() {
                if !seen.insert(k.clone()) {
                    continue;
                }
                if let Some(ds) = direct_deps.get(&k) {
                    for d in ds {
                        stack.push(d.clone());
                    }
                }
            }
            dep_closure.insert(c.clone(), seen);
        }

        Workspace {
            files,
            fns,
            dep_closure,
            free_by_name,
            methods_by_name,
            methods_by_type,
            field_types,
            fields_by_name,
        }
    }

    /// Idents of the declared type of `field` — on `owner` when known
    /// (`self.field`), else the union over every struct declaring a field
    /// with that name. `None` when no such field is declared anywhere.
    pub fn field_type_idents(&self, owner: Option<&str>, field: &str) -> Option<&[String]> {
        if let Some(o) = owner {
            if let Some(t) = self.field_types.get(&(o.to_string(), field.to_string())) {
                return Some(t);
            }
        }
        self.fields_by_name.get(field).map(Vec::as_slice)
    }

    /// True when `target` is in `from`'s dependency closure (or the
    /// closure is unknown, the over-approximate default).
    fn crate_visible(&self, from: &str, target: &str) -> bool {
        match self.dep_closure.get(from) {
            Some(set) => set.contains(target),
            None => true,
        }
    }

    /// Free functions named `name` visible from crate `from`; same-crate
    /// definitions win outright when they exist (Rust would require a
    /// `use` to shadow them anyway).
    pub fn resolve_free(&self, from: &str, name: &str) -> Vec<FnId> {
        let Some(cands) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        let same: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&id| self.files[self.fns[id].file].crate_name == from)
            .collect();
        if !same.is_empty() {
            return same;
        }
        cands
            .iter()
            .copied()
            .filter(|&id| self.crate_visible(from, &self.files[self.fns[id].file].crate_name))
            .collect()
    }

    /// Free functions named `name` in a specific crate.
    pub fn resolve_free_in(&self, krate: &str, name: &str) -> Vec<FnId> {
        self.free_by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| self.files[self.fns[id].file].crate_name == krate)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Methods `Type::name` (any crate in `from`'s closure).
    pub fn resolve_method_on(&self, from: &str, ty: &str, name: &str) -> Vec<FnId> {
        self.methods_by_type
            .get(&(ty.to_string(), name.to_string()))
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| {
                        self.crate_visible(from, &self.files[self.fns[id].file].crate_name)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All inherent methods named `name` visible from crate `from` — the
    /// over-approximate fallback when the receiver type is unknown.
    /// `args` (the call-site argument count, when delimitable) filters
    /// out candidates of a different arity, so `cvar.wait(&mut s)` does
    /// not resolve to a zero-argument `Latch::wait`.
    pub fn resolve_method_by_name(&self, from: &str, name: &str, args: Option<usize>) -> Vec<FnId> {
        self.methods_by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| {
                        self.crate_visible(from, &self.files[self.fns[id].file].crate_name)
                    })
                    .filter(|&id| match (args, self.fns[id].arity) {
                        (Some(a), Some(b)) => a == b,
                        _ => true,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True when `name` is a known impl-target type.
    pub fn is_known_type(&self, name: &str) -> bool {
        self.methods_by_type.keys().any(|(t, _)| t == name)
    }
}

/// Collects `use` leaf-name → crate-key mappings from one token stream.
fn parse_imports(toks: &[Tok], own_crate: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("use") {
            i += 1;
            continue;
        }
        // First path segment decides the crate.
        let Some(first) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        let Some(krate) = crate_key_of_ident(first, own_crate) else {
            // External crate (std, serde, …) — skip to the `;`.
            while i < toks.len() && !punct_at(toks, i, ';') {
                i += 1;
            }
            continue;
        };
        // Collect leaf idents until `;`: last ident of each `::` path,
        // every ident inside `{…}` groups, and `as` aliases.
        let mut j = i + 1;
        let mut prev_ident: Option<String> = None;
        while j < toks.len() && !punct_at(toks, j, ';') {
            match &toks[j].kind {
                TokKind::Ident(s) if s == "as" => {
                    if let Some(alias) = ident_at(toks, j + 1) {
                        out.insert(alias.to_string(), krate.clone());
                        prev_ident = None;
                        j += 2;
                        continue;
                    }
                }
                TokKind::Ident(s) => prev_ident = Some(s.clone()),
                TokKind::Punct(',') | TokKind::Punct('}') => {
                    if let Some(p) = prev_ident.take() {
                        out.insert(p, krate.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(p) = prev_ident.take() {
            out.insert(p, krate.clone());
        }
        i = j + 1;
    }
    out
}

/// Extracts fn items from one file, attributing methods to their
/// enclosing `impl`/`trait` block.
fn extract_items(fi: usize, file: &SourceFile, fns: &mut Vec<FnItem>) {
    let toks = &file.scanned.tokens;
    let pairs = &file.blocks;
    // Stack of (type name, trait_impl, close token idx).
    let mut ctx: Vec<(String, bool, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(_, _, close)) = ctx.last() {
            if i > close {
                ctx.pop();
            } else {
                break;
            }
        }
        match ident_at(toks, i) {
            Some("impl") => {
                if let Some((ty, trait_impl, open)) = parse_impl_header(toks, i) {
                    if let Some(close) = close_of(pairs, open) {
                        ctx.push((ty, trait_impl, close));
                        i = open + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Some("trait") => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let name = name.to_string();
                    let mut j = i + 2;
                    while j < toks.len() && !punct_at(toks, j, '{') && !punct_at(toks, j, ';') {
                        j += 1;
                    }
                    if punct_at(toks, j, '{') {
                        if let Some(close) = close_of(pairs, j) {
                            // Trait-block methods are interface decls:
                            // excluded from by-name fallback like trait
                            // impls (dispatch isn't resolvable by name).
                            ctx.push((name, true, close));
                            i = j + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            Some("fn") => {
                let Some(name) = ident_at(toks, i + 1) else {
                    i += 1;
                    continue;
                };
                let line = toks[i].line;
                let is_pub = i > 0 && ident_at(toks, i - 1) == Some("pub");
                let (body, ret_idents, next) = parse_fn_signature(toks, pairs, i + 2);
                fns.push(FnItem {
                    file: fi,
                    name: name.to_string(),
                    impl_type: ctx.last().map(|(t, _, _)| t.clone()),
                    trait_impl: ctx.last().is_some_and(|&(_, ti, _)| ti),
                    is_pub,
                    line,
                    body,
                    ret_idents,
                    arity: count_params(toks, i + 2),
                    in_test: file.scanned.in_test_region(line),
                });
                // Do NOT skip the body: nested fn/impl items inside it
                // must still be recorded. The call graph handles nesting.
                i = next.min(body.map(|(o, _)| o + 1).unwrap_or(next));
            }
            _ => i += 1,
        }
    }
}

/// Collects `field: Type` declarations from `struct`/`enum` bodies into
/// the field-type maps. Type idents are everything up to the `,` (or
/// closing brace) at field depth, so `Box<dyn VFile>` yields
/// `[Box, dyn, VFile]`.
fn extract_fields(
    file: &SourceFile,
    field_types: &mut HashMap<(String, String), Vec<String>>,
    fields_by_name: &mut HashMap<String, Vec<String>>,
) {
    let toks = &file.scanned.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let kw = ident_at(toks, i);
        if kw != Some("struct") && kw != Some("enum") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        let name = name.to_string();
        // Find the body `{` (skipping generics / where clauses); tuple
        // structs and unit structs end at `;` with no named fields.
        let mut j = i + 2;
        let mut angle = 0usize;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('{') if angle == 0 => break,
                TokKind::Punct(';') if angle == 0 => break,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !punct_at(toks, j.wrapping_sub(1), '-') => {
                    angle = angle.saturating_sub(1)
                }
                _ => {}
            }
            j += 1;
        }
        if !punct_at(toks, j, '{') {
            i = j + 1;
            continue;
        }
        let close = close_of(&file.blocks, j).unwrap_or(toks.len());
        // Walk `field : Type ,` items (also matches enum-variant fields —
        // harmless extra entries). Nested braces (enum variants) are
        // walked through; angle depth guards the commas.
        let mut k = j + 1;
        while k < close {
            let is_field = ident_at(toks, k).is_some()
                && punct_at(toks, k + 1, ':')
                && !punct_at(toks, k + 2, ':')
                && !punct_at(toks, k.wrapping_sub(1), ':');
            if !is_field {
                k += 1;
                continue;
            }
            let field = ident_at(toks, k).unwrap_or_default().to_string();
            let mut idents = Vec::new();
            let mut t = k + 2;
            let mut depth = 0usize;
            while t < close {
                match &toks[t].kind {
                    TokKind::Punct(',') if depth == 0 => break,
                    TokKind::Punct('{') | TokKind::Punct('}') if depth == 0 => break,
                    TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct('>') if punct_at(toks, t.wrapping_sub(1), '-') => {}
                    TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => {
                        depth = depth.saturating_sub(1)
                    }
                    TokKind::Ident(s) => idents.push(s.clone()),
                    _ => {}
                }
                t += 1;
            }
            if !idents.is_empty() {
                field_types
                    .entry((name.clone(), field.clone()))
                    .or_insert_with(|| idents.clone());
                fields_by_name.entry(field).or_default().extend(idents);
            }
            k = t + 1;
        }
        i = close + 1;
    }
}

/// Parses an `impl` header starting at the `impl` token. Returns
/// `(type name, is_trait_impl, '{' token index)`.
fn parse_impl_header(toks: &[Tok], at: usize) -> Option<(String, bool, usize)> {
    let mut j = at + 1;
    // Skip generic parameters `<…>` (nesting-aware; `->` cannot appear
    // in an impl header).
    if punct_at(toks, j, '<') {
        let mut depth = 0usize;
        while j < toks.len() {
            if punct_at(toks, j, '<') {
                depth += 1;
            } else if punct_at(toks, j, '>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Walk segments until `{`; remember the last ident before generics,
    // and whether a `for` splits trait from type.
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut depth = 0usize;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('{') if depth == 0 => {
                let ty = if saw_for { after_for } else { last_ident };
                return ty.map(|t| (t, saw_for, j));
            }
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => depth = depth.saturating_sub(1),
            TokKind::Ident(s) if depth == 0 => {
                if s == "for" {
                    saw_for = true;
                } else if s == "where" {
                    // Type name is fixed by now; keep scanning to `{`.
                } else if saw_for {
                    // Later path segments (after `::`) replace earlier ones,
                    // so `crate::module::Type` resolves to `Type`.
                    if after_for.is_none() || punct_at(toks, j - 1, ':') {
                        after_for = Some(s.clone());
                    }
                } else {
                    last_ident = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Counts the parameters of the fn whose tokens resume at `j` (just
/// after the name: optional generics, then the parameter list). The
/// receiver (`self` anywhere in the first parameter, covering `&self`,
/// `mut self` and `self: Arc<Self>`) is not counted. `None` when the
/// list cannot be delimited.
fn count_params(toks: &[Tok], mut j: usize) -> Option<usize> {
    // Skip generics. `Fn(…)` bounds keep their parens inside the angle
    // depth; `->` inside a bound must not close an angle.
    let mut angle = 0usize;
    loop {
        match &toks.get(j)?.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !punct_at(toks, j.wrapping_sub(1), '-') => {
                angle = angle.saturating_sub(1)
            }
            TokKind::Punct('(') if angle == 0 => break,
            TokKind::Punct('{') | TokKind::Punct(';') => return None,
            _ => {}
        }
        j += 1;
    }
    let mut depth = 1usize; // parens, starting inside the list
    let mut angle = 0usize;
    let mut bracket = 0usize;
    let mut brace = 0usize;
    let mut segs = 0usize;
    let mut seg_tokens = 0usize;
    let mut first_has_self = false;
    loop {
        j += 1;
        let t = toks.get(j)?;
        match &t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket = bracket.saturating_sub(1),
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace = brace.saturating_sub(1),
            TokKind::Punct('<') if depth == 1 && bracket == 0 && brace == 0 => angle += 1,
            TokKind::Punct('>')
                if depth == 1
                    && bracket == 0
                    && brace == 0
                    && !punct_at(toks, j.wrapping_sub(1), '-') =>
            {
                angle = angle.saturating_sub(1)
            }
            TokKind::Punct(',') if depth == 1 && angle == 0 && bracket == 0 && brace == 0 => {
                if seg_tokens > 0 {
                    segs += 1;
                }
                seg_tokens = 0;
                continue;
            }
            TokKind::Ident(s) if segs == 0 && s == "self" => first_has_self = true,
            _ => {}
        }
        seg_tokens += 1;
    }
    if seg_tokens > 0 {
        segs += 1;
    }
    Some(segs.saturating_sub(first_has_self as usize))
}

/// Parses a fn signature from just after the name. Returns the body
/// brace range (if any), the return-type idents, and the token index to
/// resume scanning from.
fn parse_fn_signature(
    toks: &[Tok],
    pairs: &[(usize, usize)],
    mut j: usize,
) -> (Option<(usize, usize)>, Vec<String>, usize) {
    let mut ret_idents = Vec::new();
    let mut in_ret = false;
    let mut paren = 0usize;
    let mut bracket = 0usize;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren = paren.saturating_sub(1),
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket = bracket.saturating_sub(1),
            TokKind::Punct('>') if punct_at(toks, j.wrapping_sub(1), '-') => in_ret = true,
            TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                let close = close_of(pairs, j).unwrap_or(toks.len().saturating_sub(1));
                return (Some((j, close)), ret_idents, close + 1);
            }
            TokKind::Punct(';') if paren == 0 && bracket == 0 => {
                return (None, ret_idents, j + 1);
            }
            TokKind::Ident(s) if in_ret => {
                if s == "where" {
                    in_ret = false;
                } else {
                    ret_idents.push(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (None, ret_idents, toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources = files
            .iter()
            .map(|(p, s)| (p.to_string(), scan(s)))
            .collect();
        let crates: Vec<&str> = files
            .iter()
            .map(|(p, _)| {
                let c = crate_of_path(p);
                Box::leak(c.into_boxed_str()) as &str
            })
            .collect();
        Workspace::build(sources, &deps_all(&crates))
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of_path("crates/core/src/lake.rs"), "core");
        assert_eq!(crate_of_path("src/lib.rs"), "root");
        assert_eq!(crate_of_path("crates/wal/src/vfs.rs"), "wal");
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn free_one() {}\nimpl Widget {\n    pub fn method_one(&self) {}\n    fn private_m(&self) {}\n}\nimpl Drop for Widget {\n    fn drop(&mut self) {}\n}",
        )]);
        assert_eq!(w.resolve_free("a", "free_one").len(), 1);
        assert_eq!(w.resolve_method_on("a", "Widget", "method_one").len(), 1);
        assert_eq!(w.resolve_method_by_name("a", "private_m", None).len(), 1);
        // Trait-impl methods resolve by explicit type, never by bare name.
        assert_eq!(w.resolve_method_on("a", "Widget", "drop").len(), 1);
        assert!(w.resolve_method_by_name("a", "drop", None).is_empty());
        assert!(w.is_known_type("Widget"));
    }

    #[test]
    fn impl_headers_with_generics_and_paths() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl<'a, T: Clone> Holder<T> {\n    fn held(&self) {}\n}\nimpl std::fmt::Display for Holder<u8> {\n    fn fmt(&self, f: &mut F) -> R { todo!() }\n}",
        )]);
        assert_eq!(w.resolve_method_on("a", "Holder", "held").len(), 1);
        assert_eq!(w.resolve_method_on("a", "Holder", "fmt").len(), 1);
    }

    #[test]
    fn dep_closure_limits_cross_crate_resolution() {
        let sources = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                scan("pub fn shared_name() {}"),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                scan("pub fn shared_name() {}"),
            ),
            ("crates/c/src/lib.rs".to_string(), scan("pub fn f() {}")),
        ];
        let mut deps = HashMap::new();
        deps.insert("c".to_string(), vec!["a".to_string()]);
        let w = Workspace::build(sources, &deps);
        // c sees a's fn (dependency) but not b's (unrelated crate).
        let ids = w.resolve_free("c", "shared_name");
        assert_eq!(ids.len(), 1);
        assert_eq!(w.files[w.fns[ids[0]].file].crate_name, "a");
    }

    #[test]
    fn same_crate_free_fn_shadows_dependencies() {
        let sources = vec![
            ("crates/a/src/lib.rs".to_string(), scan("pub fn f() {}")),
            ("crates/b/src/lib.rs".to_string(), scan("pub fn f() {}")),
        ];
        let mut deps = HashMap::new();
        deps.insert("b".to_string(), vec!["a".to_string()]);
        let w = Workspace::build(sources, &deps);
        let ids = w.resolve_free("b", "f");
        assert_eq!(ids.len(), 1);
        assert_eq!(w.files[w.fns[ids[0]].file].crate_name, "b");
    }

    #[test]
    fn imports_map_leaf_names_to_crates() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "use mlake_wal::{Wal, Recovery};\nuse mlake_obs as obs;\nuse std::collections::HashMap;\nfn f() {}",
        )]);
        let file = &w.files[0];
        assert_eq!(file.imports.get("Wal").map(String::as_str), Some("wal"));
        assert_eq!(
            file.imports.get("Recovery").map(String::as_str),
            Some("wal")
        );
        assert_eq!(file.imports.get("obs").map(String::as_str), Some("obs"));
        assert!(!file.imports.contains_key("HashMap"));
    }

    #[test]
    fn test_region_fns_are_excluded_from_resolution() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )]);
        assert_eq!(w.resolve_free("a", "lib_fn").len(), 1);
        assert!(w.resolve_free("a", "helper").is_empty());
    }

    #[test]
    fn fn_body_ranges_and_return_idents() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn with_sig(x: [u8; 4]) -> MutexGuard<'_, u8> { inner() }\nfn inner() {}",
        )]);
        let f = w
            .fns
            .iter()
            .find(|f| f.name == "with_sig")
            .expect("with_sig item");
        assert!(f.body.is_some());
        assert!(f.ret_idents.iter().any(|r| r == "MutexGuard"));
    }

    #[test]
    fn manifest_dep_parsing() {
        let deps = parse_manifest_deps(
            "[package]\nname = \"mlake-core\"\n[dependencies]\nmlake-obs.workspace = true\nmlake-wal = { path = \"../wal\" }\nserde.workspace = true\n[dev-dependencies]\nmlake-par.workspace = true\n",
        );
        assert_eq!(deps, vec!["obs".to_string(), "wal".to_string()]);
    }
}
