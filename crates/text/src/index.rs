//! Inverted index + Okapi BM25 scoring.
//!
//! Postings are the classic triple `(doc id, term frequency, field)`;
//! each card section / metadata item indexes under its own [`Field`] so
//! scoring can weight a name hit above a notes hit. All state lives in
//! `BTreeMap`s and postings vectors stay sorted by `(doc, field)`, which
//! makes iteration order — and therefore floating-point accumulation
//! order — deterministic, and the whole index serde-serializable in a
//! stable form (the §15 block kind `TextIndex`).

use crate::tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which part of a model's documentation a posting came from. Weights
/// bias BM25 toward identity-bearing fields without hiding body text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Field {
    /// Registered model name.
    Name,
    /// Architecture signature.
    Arch,
    /// Card task tags.
    Tags,
    /// Card domains.
    Domains,
    /// Training-algorithm description.
    Algorithm,
    /// Lineage claims (base model, transform, second parent).
    Lineage,
    /// Training-data dataset names.
    Datasets,
    /// Benchmark names from reported metrics.
    Benchmarks,
    /// Free-form notes.
    Notes,
}

impl Field {
    /// Term-frequency multiplier applied at query time.
    pub fn weight(self) -> f32 {
        match self {
            Field::Name => 3.0,
            Field::Tags | Field::Domains => 2.0,
            _ => 1.0,
        }
    }
}

/// One posting: `term` occurs `tf` times in field `field` of doc `doc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// Document (lake-local model id).
    pub doc: u64,
    /// Term frequency within that field.
    pub tf: u32,
    /// Field the term occurred in.
    pub field: Field,
}

/// Okapi BM25 parameters. `k1` saturates term frequency; `b` scales the
/// document-length penalty. The defaults are the literature's standard
/// operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bm25Params {
    /// Term-frequency saturation (typical 1.2–2.0).
    pub k1: f32,
    /// Length normalization in `[0, 1]`.
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Bm25Params {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// The inverted index. Mutation is single-writer (the lake serializes
/// mutating ops); searches are pure reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextIndex {
    tokenizer: Tokenizer,
    params: Bm25Params,
    /// term → postings sorted by `(doc, field)`.
    terms: BTreeMap<String, Vec<Posting>>,
    /// doc → its distinct terms, sorted and joined by spaces (the
    /// tokenizer splits on them, so no term holds one): the postings lists
    /// `remove` edits, in one allocation per doc.
    doc_terms: BTreeMap<u64, String>,
    /// doc → total token count across all fields (BM25 document length).
    doc_len: BTreeMap<u64, u32>,
    /// Sum of all document lengths (for the average).
    total_len: u64,
}

impl Default for TextIndex {
    fn default() -> TextIndex {
        TextIndex::new(Bm25Params::default())
    }
}

impl TextIndex {
    /// An empty index with the default tokenizer.
    // lint: no-span — constructor; nothing to measure
    pub fn new(params: Bm25Params) -> TextIndex {
        TextIndex::with_tokenizer(params, Tokenizer::default())
    }

    /// An empty index with a custom tokenizer (stopwords, term cap).
    // lint: no-span — constructor; nothing to measure
    pub fn with_tokenizer(params: Bm25Params, tokenizer: Tokenizer) -> TextIndex {
        TextIndex {
            tokenizer,
            params,
            terms: BTreeMap::new(),
            doc_terms: BTreeMap::new(),
            doc_len: BTreeMap::new(),
            total_len: 0,
        }
    }

    /// Number of indexed documents.
    // lint: no-span — trivial accessor
    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// `true` when nothing is indexed.
    // lint: no-span — trivial accessor
    pub fn is_empty(&self) -> bool {
        self.doc_len.is_empty()
    }

    /// Number of distinct terms in the dictionary.
    // lint: no-span — trivial accessor
    pub fn vocab_size(&self) -> usize {
        self.terms.len()
    }

    /// Whether `doc` is indexed.
    // lint: no-span — trivial accessor
    pub fn contains(&self, doc: u64) -> bool {
        self.doc_len.contains_key(&doc)
    }

    /// The scoring parameters.
    // lint: no-span — trivial accessor
    pub fn params(&self) -> Bm25Params {
        self.params
    }

    /// (Re-)indexes `doc` from its fielded text. An existing document
    /// with the same id is replaced atomically from the caller's view —
    /// this is the `CardUpdated` path.
    pub fn insert(&mut self, doc: u64, fields: &[(Field, String)]) {
        let _span = mlake_obs::span("text.insert");
        self.remove(doc);
        let mut counts: BTreeMap<(String, Field), u32> = BTreeMap::new();
        let mut len = 0u32;
        for (field, text) in fields {
            for term in self.tokenizer.tokenize(text) {
                *counts.entry((term, *field)).or_insert(0) += 1;
                len = len.saturating_add(1);
            }
        }
        let (mut distinct, mut last) = (String::new(), 0);
        for ((term, field), tf) in counts {
            // Terms are never empty, so the first one always differs.
            if distinct[last..] != term {
                if !distinct.is_empty() {
                    distinct.push(' ');
                }
                last = distinct.len();
                distinct.push_str(&term);
            }
            let postings = self.terms.entry(term).or_default();
            let at = postings
                .binary_search_by(|p| (p.doc, p.field).cmp(&(doc, field)))
                .unwrap_or_else(|i| i);
            postings.insert(at, Posting { doc, tf, field });
        }
        self.doc_terms.insert(doc, distinct);
        self.doc_len.insert(doc, len);
        self.total_len += u64::from(len);
    }

    /// Drops `doc` from the index; `true` if it was present.
    pub fn remove(&mut self, doc: u64) -> bool {
        let _span = mlake_obs::span("text.remove");
        let Some(len) = self.doc_len.remove(&doc) else {
            return false;
        };
        self.total_len -= u64::from(len);
        let doc_terms = self.doc_terms.remove(&doc).unwrap_or_default();
        for term in doc_terms.split(' ') {
            let Some(postings) = self.terms.get_mut(term) else {
                continue;
            };
            // The doc's postings are one run: one per field it used.
            let from = postings.partition_point(|p| p.doc < doc);
            let to = from + postings[from..].partition_point(|p| p.doc == doc);
            postings.drain(from..to);
            if postings.is_empty() {
                self.terms.remove(term);
            }
        }
        true
    }

    /// BM25 top-`k` for a free-text query: scores every document that
    /// shares at least one query term, best first, ties broken on
    /// ascending doc id. Query terms go through the same tokenizer as
    /// documents; duplicates in the query are collapsed.
    ///
    /// Deterministic by construction: terms are visited in sorted order
    /// and postings in `(doc, field)` order, so score accumulation is the
    /// same sequence of float adds on every run and at every thread
    /// count.
    pub fn search(&self, query: &str, k: usize) -> Vec<(u64, f32)> {
        let _span = mlake_obs::span("text.search");
        let n = self.doc_len.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let query_terms: std::collections::BTreeSet<String> =
            self.tokenizer.tokenize(query).into_iter().collect();
        let avgdl = (self.total_len as f32 / n as f32).max(1.0);
        let Bm25Params { k1, b } = self.params;
        let mut scores: BTreeMap<u64, f32> = BTreeMap::new();
        for term in &query_terms {
            let Some(postings) = self.terms.get(term) else {
                continue;
            };
            // Postings are sorted by (doc, field): fold consecutive
            // same-doc runs into one weighted term frequency.
            let df = {
                let mut df = 0usize;
                let mut last = None;
                for p in postings {
                    if last != Some(p.doc) {
                        df += 1;
                        last = Some(p.doc);
                    }
                }
                df
            };
            let idf = (((n as f32 - df as f32 + 0.5) / (df as f32 + 0.5)) + 1.0).ln();
            let mut i = 0usize;
            while i < postings.len() {
                let doc = postings[i].doc;
                let mut wtf = 0.0f32;
                while i < postings.len() && postings[i].doc == doc {
                    wtf += postings[i].field.weight() * postings[i].tf as f32;
                    i += 1;
                }
                let dl = self.doc_len.get(&doc).copied().unwrap_or(0) as f32;
                let norm = k1 * (1.0 - b + b * dl / avgdl);
                *scores.entry(doc).or_insert(0.0) += idf * (wtf * (k1 + 1.0)) / (wtf + norm);
            }
        }
        let mut ranked: Vec<(u64, f32)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(index: &mut TextIndex, id: u64, name: &str, notes: &str) {
        index.insert(
            id,
            &[
                (Field::Name, name.to_string()),
                (Field::Notes, notes.to_string()),
            ],
        );
    }

    #[test]
    fn exact_term_ranks_matching_doc_first() {
        let mut idx = TextIndex::default();
        doc(&mut idx, 0, "legal-base", "trained for legal contracts");
        doc(&mut idx, 1, "medical-base", "trained for medical triage");
        doc(&mut idx, 2, "news-lm", "summarizes news articles");
        let hits = idx.search("medical", 10);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits.len(), 1);
        let hits = idx.search("trained", 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn name_field_outweighs_notes() {
        let mut idx = TextIndex::default();
        doc(&mut idx, 0, "quant", "nothing here");
        doc(&mut idx, 1, "other", "quant quant mentioned only as body text");
        let hits = idx.search("quant", 10);
        // Name weight 3 vs notes tf 2 at weight 1: the name doc wins.
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn tie_breaks_on_ascending_doc_id() {
        let mut idx = TextIndex::default();
        doc(&mut idx, 7, "alpha", "same text body");
        doc(&mut idx, 3, "alpha", "same text body");
        let hits = idx.search("alpha", 10);
        assert_eq!(hits[0].0, 3);
        assert_eq!(hits[1].0, 7);
        assert_eq!(hits[0].1, hits[1].1);
    }

    #[test]
    fn empty_doc_and_empty_query() {
        let mut idx = TextIndex::default();
        idx.insert(0, &[]);
        idx.insert(1, &[(Field::Notes, "!!! ...".to_string())]);
        assert_eq!(idx.doc_count(), 2);
        assert!(idx.search("anything", 10).is_empty());
        assert!(idx.search("", 10).is_empty());
        assert!(idx.search("...", 10).is_empty());
        // k = 0 and empty index both short-circuit.
        doc(&mut idx, 2, "x", "y");
        assert!(idx.search("x", 0).is_empty());
        assert!(TextIndex::default().search("x", 5).is_empty());
    }

    #[test]
    fn reinsert_replaces_old_postings() {
        let mut idx = TextIndex::default();
        doc(&mut idx, 0, "legal-base", "first draft");
        assert_eq!(idx.search("draft", 10).len(), 1);
        doc(&mut idx, 0, "legal-base", "final text");
        assert!(idx.search("draft", 10).is_empty());
        assert_eq!(idx.search("final", 10).len(), 1);
        assert_eq!(idx.doc_count(), 1);
    }

    #[test]
    fn remove_purges_dictionary() {
        let mut idx = TextIndex::default();
        doc(&mut idx, 0, "solo", "unique-term-here");
        assert!(idx.vocab_size() > 0);
        assert!(idx.remove(0));
        assert!(!idx.remove(0));
        assert_eq!(idx.vocab_size(), 0);
        assert!(idx.is_empty());
        assert!(!idx.contains(0));
    }

    #[test]
    fn multi_term_query_accumulates() {
        let mut idx = TextIndex::default();
        doc(&mut idx, 0, "a", "legal contracts europe");
        doc(&mut idx, 1, "b", "legal contracts");
        doc(&mut idx, 2, "c", "legal");
        let hits = idx.search("legal contracts europe", 10);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits.len(), 3);
        assert!(hits[0].1 > hits[1].1 && hits[1].1 > hits[2].1);
    }

    #[test]
    fn serde_round_trip_preserves_results_bit_identically() {
        let mut idx = TextIndex::default();
        for i in 0..20u64 {
            doc(
                &mut idx,
                i,
                &format!("model-{i}"),
                &format!("family f{} depth {} vocabulary word{}", i % 4, i % 3, i % 4),
            );
        }
        let json = serde_json::to_string(&idx).expect("encode");
        let back: TextIndex = serde_json::from_str(&json).expect("decode");
        assert_eq!(idx, back);
        for q in ["family f1", "word3 depth 2", "model-7"] {
            let a = idx.search(q, 10);
            let b = back.search(q, 10);
            assert_eq!(a, b, "query '{q}' differs after round-trip");
            for ((d0, s0), (d1, s1)) in a.iter().zip(&b) {
                assert_eq!(d0, d1);
                assert_eq!(s0.to_bits(), s1.to_bits(), "score bits differ");
            }
        }
    }

    #[test]
    fn insertion_order_does_not_change_results() {
        let fields = |i: u64| {
            vec![
                (Field::Name, format!("m{i}")),
                (Field::Notes, format!("shared tokens plus t{}", i % 5)),
            ]
        };
        let mut a = TextIndex::default();
        for i in 0..12u64 {
            a.insert(i, &fields(i));
        }
        let mut b = TextIndex::default();
        for i in (0..12u64).rev() {
            b.insert(i, &fields(i));
        }
        assert_eq!(a, b);
        assert_eq!(a.search("shared t3", 10), b.search("shared t3", 10));
    }
}
