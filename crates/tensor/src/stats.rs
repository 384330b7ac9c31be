//! Descriptive statistics used by fingerprints, version heuristics and
//! experiment reporting.
//!
//! Weight-distribution moments (variance, skewness, kurtosis) are the raw
//! material of intrinsic fingerprints and of the fine-tuning direction
//! heuristic (Horwitz et al. observe kurtosis drift under fine-tuning);
//! rank correlations score attribution estimators against exact ground truth.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    crate::vector::mean(xs)
}

/// Population variance; 0 for slices with fewer than 2 elements.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = f64::from(mean(xs));
    let ss: f64 = xs.iter().map(|&x| (f64::from(x) - m).powi(2)).sum();
    (ss / xs.len() as f64) as f32
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Skewness (third standardised moment); 0 when variance is 0.
pub fn skewness(xs: &[f32]) -> f32 {
    let m = f64::from(mean(xs));
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let var: f64 = xs.iter().map(|&x| (f64::from(x) - m).powi(2)).sum::<f64>() / n;
    if var <= 0.0 {
        return 0.0;
    }
    let m3: f64 = xs.iter().map(|&x| (f64::from(x) - m).powi(3)).sum::<f64>() / n;
    (m3 / var.powf(1.5)) as f32
}

/// Excess kurtosis (fourth standardised moment minus 3); 0 when variance is 0.
pub fn kurtosis(xs: &[f32]) -> f32 {
    let m = f64::from(mean(xs));
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let var: f64 = xs.iter().map(|&x| (f64::from(x) - m).powi(2)).sum::<f64>() / n;
    if var <= 0.0 {
        return 0.0;
    }
    let m4: f64 = xs.iter().map(|&x| (f64::from(x) - m).powi(4)).sum::<f64>() / n;
    (m4 / (var * var) - 3.0) as f32
}

/// Linear-interpolated quantile, `q ∈ [0, 1]`. Returns `None` when empty.
pub fn quantile(xs: &[f32], q: f32) -> Option<f32> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(f32::total_cmp);
    Some(quantile_of_sorted(&sorted, q))
}

/// [`quantile`] of a non-empty slice already sorted by `f32::total_cmp`.
fn quantile_of_sorted(sorted: &[f32], q: f32) -> f32 {
    let q = q.clamp(0.0, 1.0);
    let pos = q as f64 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = (pos - lo as f64) as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median (0.5 quantile).
pub fn median(xs: &[f32]) -> Option<f32> {
    quantile(xs, 0.5)
}

/// Pearson correlation coefficient; `None` when either side is constant or
/// lengths differ / are < 2.
pub fn pearson(xs: &[f32], ys: &[f32]) -> Option<f32> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = f64::from(mean(xs));
    let my = f64::from(mean(ys));
    let (mut sxy, mut sxx, mut syy) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = f64::from(x) - mx;
        let dy = f64::from(y) - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some((sxy / (sxx.sqrt() * syy.sqrt())) as f32)
}

/// Fractional ranks with ties averaged (1-based ranks).
pub fn ranks(xs: &[f32]) -> Vec<f32> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0f32; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank across the tie block (ranks are 1-based).
        let avg = (i + j) as f32 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation; `None` under the same conditions as [`pearson`].
pub fn spearman(xs: &[f32], ys: &[f32]) -> Option<f32> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Equal-width histogram over `[lo, hi]` with `bins` buckets; values outside
/// the range are clamped into the edge buckets.
pub fn histogram(xs: &[f32], lo: f32, hi: f32, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    let mut counts = vec![0usize; bins];
    if hi <= lo {
        counts[0] = xs.len();
        return counts;
    }
    let width = (hi - lo) / bins as f32;
    for &x in xs {
        let b = (((x - lo) / width) as isize).clamp(0, bins as isize - 1) as usize;
        counts[b] += 1;
    }
    counts
}

/// Summary of a weight distribution: the building block of intrinsic
/// fingerprints.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MomentSummary {
    /// Mean of the values.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Skewness.
    pub skew: f32,
    /// Excess kurtosis.
    pub kurtosis: f32,
    /// 5th percentile.
    pub q05: f32,
    /// Median.
    pub q50: f32,
    /// 95th percentile.
    pub q95: f32,
    /// L2 norm of the values.
    pub l2: f32,
}

impl MomentSummary {
    /// Computes the summary; an empty slice yields all zeros.
    ///
    /// Bit for bit what [`mean`], [`std_dev`], [`skewness`], [`kurtosis`],
    /// [`quantile`] and `l2_norm` return, with the work they share done
    /// once: one mean, one squared-deviation sum (the same `Sum` fold, in
    /// the same element order) and one sorted copy for all three quantiles.
    pub fn of(xs: &[f32]) -> MomentSummary {
        let mean = mean(xs);
        let (std, skew, kurtosis) = if xs.len() < 2 {
            (0.0, 0.0, 0.0)
        } else {
            let m = f64::from(mean);
            let n = xs.len() as f64;
            let var = xs.iter().map(|&x| (f64::from(x) - m).powi(2)).sum::<f64>() / n;
            let std = (var as f32).sqrt();
            if var <= 0.0 {
                (std, 0.0, 0.0)
            } else {
                let m3 = xs.iter().map(|&x| (f64::from(x) - m).powi(3)).sum::<f64>() / n;
                let m4 = xs.iter().map(|&x| (f64::from(x) - m).powi(4)).sum::<f64>() / n;
                (
                    std,
                    (m3 / var.powf(1.5)) as f32,
                    (m4 / (var * var) - 3.0) as f32,
                )
            }
        };
        let (q05, q50, q95) = if xs.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            // `total_cmp` orders by bits, so ties are identical values and
            // an unstable sort leaves the same slice as `quantile`'s.
            let mut sorted = xs.to_vec();
            sorted.sort_unstable_by(f32::total_cmp);
            (
                quantile_of_sorted(&sorted, 0.05),
                quantile_of_sorted(&sorted, 0.50),
                quantile_of_sorted(&sorted, 0.95),
            )
        };
        MomentSummary {
            mean,
            std,
            skew,
            kurtosis,
            q05,
            q50,
            q95,
            l2: crate::vector::l2_norm(xs),
        }
    }

    /// Flattens into an 8-element feature vector.
    pub fn to_features(&self) -> [f32; 8] {
        [
            self.mean,
            self.std,
            self.skew,
            self.kurtosis,
            self.q05,
            self.q50,
            self.q95,
            self.l2,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        assert!((variance(&xs) - 4.0).abs() < 1e-5);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn skewness_sign() {
        let right = [1.0, 1.0, 1.0, 2.0, 10.0];
        assert!(skewness(&right) > 0.5);
        let left = [-10.0, -2.0, -1.0, -1.0, -1.0];
        assert!(skewness(&left) < -0.5);
        assert_eq!(skewness(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn kurtosis_of_uniformish_negative() {
        let xs: Vec<f32> = (0..1000).map(|i| i as f32 / 999.0).collect();
        // Uniform distribution has excess kurtosis -1.2.
        assert!((kurtosis(&xs) + 1.2).abs() < 0.1);
        assert_eq!(kurtosis(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!((median(&xs).unwrap() - 2.5).abs() < 1e-6);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn pearson_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-6);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&xs, &[1.0]), None);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0]; // nonlinear but monotone
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_buckets_and_clamping() {
        let h = histogram(&[-1.0, 0.1, 0.5, 0.9, 2.0], 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 3]);
        let degenerate = histogram(&[1.0, 2.0], 5.0, 5.0, 3);
        assert_eq!(degenerate, vec![2, 0, 0]);
    }

    /// `MomentSummary::of` against the per-statistic functions, compared
    /// as bits, on the shapes real weights take.
    #[test]
    fn moment_summary_matches_free_functions_bitwise() {
        let mut rng = crate::rng::Pcg64::new(35);
        let mut inputs: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.7],
            vec![-0.0],
            vec![1.25; 9],
            vec![0.0; 16],
            vec![-0.0; 16],
            vec![0.0, -0.0, 0.0, -0.0, 0.0],
        ];
        for len in [2, 3, 17, 100, 1000, 4099] {
            let mut xs = vec![0.0; len];
            rng.fill_normal(&mut xs);
            // Pruned: mostly zeros, of both signs.
            let pruned = xs
                .iter()
                .map(|&x| match rng.index(10) {
                    0..=7 => 0.0,
                    8 => -0.0,
                    _ => x,
                })
                .collect();
            // Quantised: a handful of distinct levels.
            let quantised = xs.iter().map(|&x| (x * 4.0).round() / 4.0).collect();
            let shifted = xs.iter().map(|&x| 3.0 + 0.001 * x).collect();
            inputs.extend([xs, pruned, quantised, shifted]);
        }
        for xs in &inputs {
            let got = MomentSummary::of(xs).to_features().map(f32::to_bits);
            let want = [
                mean(xs),
                std_dev(xs),
                skewness(xs),
                kurtosis(xs),
                quantile(xs, 0.05).unwrap_or(0.0),
                quantile(xs, 0.50).unwrap_or(0.0),
                quantile(xs, 0.95).unwrap_or(0.0),
                crate::vector::l2_norm(xs),
            ]
            .map(f32::to_bits);
            assert_eq!(
                got,
                want,
                "{} values starting {:?}",
                xs.len(),
                &xs[..xs.len().min(4)]
            );
        }
    }

    #[test]
    fn moment_summary_features() {
        let s = MomentSummary::of(&[1.0, 2.0, 3.0]);
        let f = s.to_features();
        assert!((f[0] - 2.0).abs() < 1e-6);
        assert_eq!(f.len(), 8);
        let empty = MomentSummary::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.l2, 0.0);
    }
}
