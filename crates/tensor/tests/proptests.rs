//! Property-based invariants for the tensor substrate.

use mlake_tensor::{linalg, stats, vector, Matrix, Pcg64};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_right(m in small_matrix(8)) {
        let id = Matrix::identity(m.cols());
        let p = m.matmul(&id).unwrap();
        prop_assert!(mlake_tensor::approx_eq_slice(p.as_slice(), m.as_slice(), 1e-4));
    }

    #[test]
    fn matmul_transpose_identity(a in small_matrix(6), b in small_matrix(6)) {
        // (A B)ᵀ = Bᵀ Aᵀ whenever shapes allow.
        if a.cols() == b.rows() {
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn add_commutes(a in small_matrix(6)) {
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(mlake_tensor::approx_eq_slice(ab.as_slice(), ba.as_slice(), 1e-5));
    }

    #[test]
    fn cosine_similarity_bounded(xs in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
        let ys: Vec<f32> = xs.iter().map(|x| x * 0.3 + 1.0).collect();
        let c = vector::cosine_similarity(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn softmax_is_distribution(xs in proptest::collection::vec(-30.0f32..30.0, 1..16)) {
        let p = vector::softmax(&xs);
        let total: f32 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn ranks_are_permutation_sums(xs in proptest::collection::vec(-50.0f32..50.0, 2..20)) {
        let r = stats::ranks(&xs);
        let total: f32 = r.iter().sum();
        let n = xs.len() as f32;
        // Sum of 1..=n is preserved under tie averaging.
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-3);
    }

    #[test]
    fn spearman_invariant_under_monotone_map(xs in proptest::collection::vec(-50.0f32..50.0, 3..20)) {
        // Skip degenerate all-equal vectors.
        let distinct = xs.iter().any(|&x| x != xs[0]);
        if distinct {
            let ys: Vec<f32> = xs.iter().map(|&x| x.exp().min(1e30)).collect();
            if let (Some(s), Some(p)) = (stats::spearman(&xs, &ys), stats::spearman(&xs, &xs)) {
                prop_assert!((s - p).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn quantile_within_range(xs in proptest::collection::vec(-50.0f32..50.0, 1..30), q in 0.0f32..1.0) {
        let v = stats::quantile(&xs, q).unwrap();
        let lo = xs.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        let hi = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
    }

    #[test]
    fn cg_solves_spd_system(diag in proptest::collection::vec(0.5f32..5.0, 2..8)) {
        let n = diag.len();
        let a = Matrix::from_fn(n, n, |r, c| if r == c { diag[r] } else { 0.0 });
        let b: Vec<f32> = (0..n).map(|i| (i as f32) - 1.5).collect();
        let x = linalg::conjugate_gradient(&a, &b, 0.0, 200, 1e-7).unwrap();
        for i in 0..n {
            prop_assert!((x[i] - b[i] / diag[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn pcg_uniform_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Pcg64::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn sample_indices_distinct(seed in any::<u64>(), n in 1usize..200, k in 0usize..50) {
        let mut rng = Pcg64::new(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        for w in s.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(s.iter().all(|&i| i < n));
    }

    #[test]
    fn frobenius_norm_scales(m in small_matrix(6), alpha in -4.0f32..4.0) {
        let scaled = m.scale(alpha);
        let expected = m.frobenius_norm() * alpha.abs();
        prop_assert!((scaled.frobenius_norm() - expected).abs() < 1e-2);
    }

    /// The batched one-to-many kernel is `dot`, bit for bit, for every row:
    /// widths 0–150 (non-multiples of 4 included) and 0–9 rows per call, so
    /// both the four-at-a-time path and its 1–3 row remainder run.
    #[test]
    fn dot_rows_returns_dot_bits(d in 0usize..=150, count in 0usize..=9, seed in any::<u64>()) {
        let mut rng = Pcg64::new(seed);
        let arena: Vec<f32> = (0..12 * d).map(|_| rng.normal_with(0.0, 3.0)).collect();
        let q: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
        let rows: Vec<u32> = (0..count).map(|_| rng.index(12) as u32).collect();
        let mut out = vec![f32::NAN; 3];
        vector::dot_rows(&q, &arena, &rows, &mut out);
        prop_assert_eq!(out.len(), count);
        for (&r, got) in rows.iter().zip(&out) {
            let want = vector::dot(&q, &arena[r as usize * d..(r as usize + 1) * d]);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "d={} row {} of {:?}", d, r, rows);
        }
    }
}
