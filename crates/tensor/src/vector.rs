//! Free functions over `&[f32]` slices.
//!
//! Hot paths throughout the workspace (fingerprint distances, HNSW search,
//! gradient updates) operate on plain slices to avoid any wrapper overhead;
//! accumulation happens in `f64` where it guards against cancellation.

/// Dot product. Panics in debug builds on length mismatch; in release the
/// shorter length governs (callers validate shapes at the matrix level).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    // Manual 4-way unroll: keeps four independent dependency chains which the
    // compiler turns into SIMD on x86-64.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    for i in chunks * 4..a.len().min(b.len()) {
        acc += a[i] * b[i];
    }
    acc + s0 + s1 + s2 + s3
}

/// One query against many rows of a row-major arena: clears `out`, then
/// pushes `dot(q, row)` for every index in `rows`, in order, where row `r`
/// is `arena[r·d..(r+1)·d]` and `d = q.len()`.
///
/// **Bit-equality contract:** each result is computed with exactly
/// [`dot`]'s summation order — four lane sums over the 4-element chunks, a
/// tail sum, then `tail + s0 + s1 + s2 + s3` — so
/// `out[i].to_bits() == dot(q, row_i).to_bits()` for every input (pinned by
/// a property test). Only the schedule differs: rows are taken four at a
/// time with their accumulation chains interleaved, so one row's adds run
/// in the shadow of the others' latency instead of waiting on a single
/// chain (≈ 2× per dot at d = 64–136); a remainder of 1–3 rows goes
/// through [`dot`] itself. Panics when a row index lies outside the arena.
pub fn dot_rows(q: &[f32], arena: &[f32], rows: &[u32], out: &mut Vec<f32>) {
    let d = q.len();
    let row = |r: u32| &arena[r as usize * d..(r as usize + 1) * d];
    let chunks = d / 4;
    out.clear();
    let mut quads = rows.chunks_exact(4);
    for quad in &mut quads {
        let r = [row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3])];
        let mut s = [[0.0f32; 4]; 4];
        for i in 0..chunks {
            let j = i * 4;
            let a = &q[j..j + 4];
            for (sr, rr) in s.iter_mut().zip(&r) {
                let b = &rr[j..j + 4];
                for l in 0..4 {
                    sr[l] += a[l] * b[l];
                }
            }
        }
        for (sr, rr) in s.iter().zip(&r) {
            let mut acc = 0.0f32;
            for i in chunks * 4..d {
                acc += q[i] * rr[i];
            }
            out.push(acc + sr[0] + sr[1] + sr[2] + sr[3]);
        }
    }
    for &r in quads.remainder() {
        out.push(dot(q, row(r)));
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt() as f32
}

/// Squared Euclidean distance.
///
/// Four independent `f64` accumulation chains (summed lane 0 → 3 at the
/// end) keep the FP pipeline busy and vectorize to 256-bit lanes; `f64`
/// accumulation still guards against cancellation.
#[inline]
pub fn l2_distance_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let chunks = n / 4;
    let mut s = [0.0f64; 4];
    for i in 0..chunks {
        let j = i * 4;
        for (l, sl) in s.iter_mut().enumerate() {
            let d = f64::from(a[j + l]) - f64::from(b[j + l]);
            *sl += d * d;
        }
    }
    let mut tail = 0.0f64;
    for i in chunks * 4..n {
        let d = f64::from(a[i]) - f64::from(b[i]);
        tail += d * d;
    }
    (s[0] + s[1] + s[2] + s[3] + tail) as f32
}

/// Euclidean distance.
#[inline]
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    l2_distance_sq(a, b).sqrt()
}

/// Cosine similarity in `[-1, 1]`; returns 0 when either vector is all-zero.
///
/// Fused single pass: the dot product and both squared norms come out of
/// one traversal (this is the hot distance of the vector indexes, so one
/// memory sweep instead of three matters more than the extra registers).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let chunks = n / 4;
    let mut d = [0.0f32; 4];
    let mut qa = [0.0f64; 4];
    let mut qb = [0.0f64; 4];
    for i in 0..chunks {
        let j = i * 4;
        for l in 0..4 {
            let (x, y) = (a[j + l], b[j + l]);
            d[l] += x * y;
            qa[l] += f64::from(x) * f64::from(x);
            qb[l] += f64::from(y) * f64::from(y);
        }
    }
    let mut dt = 0.0f32;
    let (mut qat, mut qbt) = (0.0f64, 0.0f64);
    for i in chunks * 4..n {
        let (x, y) = (a[i], b[i]);
        dt += x * y;
        qat += f64::from(x) * f64::from(x);
        qbt += f64::from(y) * f64::from(y);
    }
    let na = (qa[0] + qa[1] + qa[2] + qa[3] + qat).sqrt() as f32;
    let nb = (qb[0] + qb[1] + qb[2] + qb[3] + qbt).sqrt() as f32;
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot = dt + d[0] + d[1] + d[2] + d[3];
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine *distance* `1 - cosine_similarity`, the metric used by the indexes.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// In-place `a += alpha * b`.
#[inline]
pub fn axpy(alpha: f32, b: &[f32], a: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x += alpha * y;
    }
}

/// In-place scalar multiply.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    for x in a {
        *x *= alpha;
    }
}

/// Normalises to unit L2 norm in place; a zero vector is left unchanged.
pub fn normalize(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > 0.0 {
        scale(a, 1.0 / n);
    }
}

/// Index of the maximum element (first on ties); `None` when empty.
pub fn argmax(a: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in a.iter().enumerate() {
        match best {
            Some((_, bx)) if bx >= x => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Numerically stable softmax into a fresh vector.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let exps: Vec<f64> = logits.iter().map(|&x| f64::from(x - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| (e / total) as f32).collect()
}

/// Numerically stable log-sum-exp.
pub fn log_sum_exp(logits: &[f32]) -> f32 {
    if logits.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let s: f64 = logits.iter().map(|&x| f64::from(x - max).exp()).sum();
    max + s.ln() as f32
}

/// Arithmetic mean (0 when empty).
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        (a.iter().map(|&x| f64::from(x)).sum::<f64>() / a.len() as f64) as f32
    }
}

/// Sum in `f64` accumulation.
pub fn sum(a: &[f32]) -> f32 {
    a.iter().map(|&x| f64::from(x)).sum::<f64>() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn norms() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((l2_distance(&a, &b) - 5.0).abs() < 1e-6);
        assert!((l2_distance_sq(&a, &b) - 25.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_extremes() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine_distance(&[1.0, 1.0], &[1.0, 1.0])).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let total: f32 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability under large logits.
        let q = softmax(&[1000.0, 1000.0]);
        assert!((q[0] - 0.5).abs() < 1e-5);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn log_sum_exp_stable() {
        let lse = log_sum_exp(&[1000.0, 1000.0]);
        assert!((lse - (1000.0 + std::f32::consts::LN_2)).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn argmax_ties_and_empty() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn normalize_unit_or_noop() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut a);
        assert_eq!(a, vec![21.0, 42.0]);
        scale(&mut a, 0.5);
        assert_eq!(a, vec![10.5, 21.0]);
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-6);
    }
}
