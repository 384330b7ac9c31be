//! E5 — Indexer scaling (§5 Indexer; Malkov & Yashunin). HNSW vs the
//! exact flat scan over synthetic model embeddings: recall@10, query
//! latency, build time — the sublinear-vs-linear crossover the paper's
//! indexer component banks on — plus the HNSW `ef` recall/latency knob and
//! the per-insert build cost over a size ladder.

use super::median_time;
use crate::table::{f3, metrics_tables, ms, Table};
use mlake_index::{recall_at_k, FlatIndex, HnswConfig, HnswIndex, VectorIndex};
use mlake_tensor::Pcg64;
use std::time::{Duration, Instant};

/// Clustered synthetic "model embeddings": base-family centroids plus
/// derivation-scale noise — the geometry real fingerprints have.
pub fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Pcg64::new(seed);
    let clusters = (n / 16).clamp(4, 64);
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.normal() * 3.0).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centers[i % clusters];
            c.iter().map(|&x| x + rng.normal() * 0.4).collect()
        })
        .collect()
}

struct IndexRun {
    build: Duration,
    query: Duration,
    recall: f32,
}

fn run_index(
    index: &mut dyn VectorIndex,
    vectors: &[Vec<f32>],
    queries: &[Vec<f32>],
    truth: &FlatIndex,
) -> IndexRun {
    let t0 = Instant::now();
    for (i, v) in vectors.iter().enumerate() {
        index.insert(i as u64, v).expect("insert");
    }
    let build = t0.elapsed();
    let t0 = Instant::now();
    index.search_many(queries, 10).expect("search");
    let query = t0.elapsed() / queries.len().max(1) as u32;
    let recall = recall_at_k(index, truth, queries, 10).expect("recall");
    IndexRun {
        build,
        query,
        recall,
    }
}

/// Runs E5.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[500, 2_000]
    } else {
        &[1_000, 5_000, 20_000, 50_000]
    };
    let dim = 64;
    let num_queries = if quick { 20 } else { 50 };
    // Start from a clean slate so the trailing metrics tables describe
    // exactly this experiment's index traffic.
    mlake_obs::registry().reset();

    let mut t = Table::new(
        format!("E5a: index scaling (d={dim}, k=10, {num_queries} queries)"),
        &["n", "index", "build", "query", "recall@10"],
    )
    .timing(&["build", "query"]);
    for &n in sizes {
        let vectors = embeddings(n, dim, 31);
        let mut qrng = Pcg64::new(32);
        let queries: Vec<Vec<f32>> = (0..num_queries)
            .map(|i| {
                vectors[(i * 37) % n]
                    .iter()
                    .map(|&x| x + qrng.normal() * 0.1)
                    .collect()
            })
            .collect();
        let mut truth = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            truth.insert(i as u64, v).expect("insert");
        }

        let mut flat = FlatIndex::new();
        let r = run_index(&mut flat, &vectors, &queries, &truth);
        t.row(vec![n.to_string(), "flat (exact)".into(), ms(r.build), ms(r.query), f3(r.recall)]);

        let mut hnsw = HnswIndex::new(HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 5,
            ..Default::default()
        });
        let r = run_index(&mut hnsw, &vectors, &queries, &truth);
        t.row(vec![n.to_string(), "hnsw".into(), ms(r.build), ms(r.query), f3(r.recall)]);
    }

    // ---- ef sweep --------------------------------------------------------
    // Unstructured (pure Gaussian) vectors: the hard regime where the beam
    // width genuinely trades recall for latency. (Clustered embeddings are
    // easy enough that even ef=8 saturates.)
    let n = if quick { 2_000 } else { 20_000 };
    let mut vrng = Pcg64::new(33);
    let vectors: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| vrng.normal()).collect())
        .collect();
    let mut qrng = Pcg64::new(34);
    let queries: Vec<Vec<f32>> = (0..num_queries)
        .map(|_| (0..dim).map(|_| qrng.normal()).collect())
        .collect();
    let mut truth = FlatIndex::new();
    for (i, v) in vectors.iter().enumerate() {
        truth.insert(i as u64, v).expect("insert");
    }
    // Precompute the exact answers outside any timed region.
    let exact: Vec<std::collections::HashSet<u64>> = queries
        .iter()
        .map(|q| {
            truth
                .search(q, 10)
                .expect("truth")
                .iter()
                .map(|h| h.id)
                .collect()
        })
        .collect();
    let mut hnsw = HnswIndex::new(HnswConfig {
        m: 16,
        ef_construction: 100,
        ef_search: 8,
        seed: 5,
        ..Default::default()
    });
    for (i, v) in vectors.iter().enumerate() {
        hnsw.insert(i as u64, v).expect("insert");
    }
    let mut t2 = Table::new(
        format!("E5b: HNSW recall/latency vs ef (n={n}, unstructured vectors)"),
        &["ef", "query", "recall@10"],
    )
    .timing(&["query"]);
    for &ef in &[8usize, 16, 32, 64, 128, 256] {
        // Time the searches alone; grade recall outside the timed region.
        let t0 = Instant::now();
        let results: Vec<Vec<mlake_index::Hit>> = queries
            .iter()
            .map(|q| hnsw.search_ef(q, 10, ef).expect("search"))
            .collect();
        let per_query = t0.elapsed() / queries.len().max(1) as u32;
        let mut acc = 0.0f32;
        for (hits, truth_set) in results.iter().zip(&exact) {
            acc += hits.iter().filter(|h| truth_set.contains(&h.id)).count() as f32
                / truth_set.len().max(1) as f32;
        }
        t2.row(vec![
            ef.to_string(),
            ms(per_query),
            f3(acc / queries.len() as f32),
        ]);
    }
    let mut tables = vec![t, t2, build_ladder(quick)];
    // Observability readout: HNSW search latency distributions,
    // per-layer visit counters and beam expansions collected by mlake-obs
    // while the experiment ran. Empty (and therefore omitted) when
    // MLAKE_OBS=off — recall/latency numbers above are unaffected.
    tables.extend(metrics_tables("E5c", &mlake_obs::registry().snapshot()));
    tables
}

/// E5d: HNSW build cost over a size ladder at the lake's narrowest and
/// widest fingerprint widths (64 and 136), so the indexer has a scaling
/// exponent and not a point: a whole build of the default-config graph, one
/// insert at a time, reported as µs per insert. The quick run keeps the
/// smallest rung.
fn build_ladder(quick: bool) -> Table {
    let sizes: &[usize] = if quick { &[600] } else { &[600, 2_400, 9_600] };
    let reps = if quick { 1 } else { 3 };
    let mut t = Table::new(
        "E5d: HNSW build cost by size (median wall-clock)",
        &["d", "n", "µs/insert"],
    )
    .timing(&["µs/insert"]);
    for dim in [64usize, 136] {
        for &n in sizes {
            let vectors = embeddings(n, dim, 1);
            let build = median_time(reps, || {
                let mut index = HnswIndex::new(HnswConfig::default());
                let t0 = Instant::now();
                for (i, v) in vectors.iter().enumerate() {
                    index.insert(i as u64, v).expect("insert");
                }
                t0.elapsed()
            });
            let per_insert = build.as_secs_f64() * 1e6 / n as f64;
            t.row(vec![dim.to_string(), n.to_string(), format!("{per_insert:.1}")]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_hnsw_has_high_recall() {
        let tables = run(true);
        let t = &tables[0];
        // Rows come in pairs (flat, hnsw) per size; recall is the last
        // column.
        let flat_recall: f32 = t.rows[0][4].parse().unwrap();
        assert!((flat_recall - 1.0).abs() < 1e-6);
        let hnsw_recall: f32 = t.rows[1][4].parse().unwrap();
        assert!(hnsw_recall > 0.85, "hnsw recall {hnsw_recall}");
        // ef sweep is monotone-ish: recall at ef=256 >= recall at ef=8.
        let t2 = &tables[1];
        let lo: f32 = t2.rows[0][2].parse().unwrap();
        let hi: f32 = t2.rows[5][2].parse().unwrap();
        assert!(hi >= lo);
        crate::exp::golden::assert_quick("e5", &tables);
    }
}
