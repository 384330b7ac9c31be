//! Raw-sample statistics: the benchmark keeps every latency it measures and
//! reads exact order statistics off the sorted samples — no histogram
//! buckets between a measurement and the number reported.

/// Latency samples of one client (or one embedded loop), in nanoseconds and
/// in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

/// Number of equal slices a phase is cut into. A reported percentile is the
/// mean of the per-slice percentiles after dropping the lowest and the
/// highest slice: one stalled (or one lucky) stretch cannot move it, and when
/// the machine's speed flips between two levels during a run — the reference
/// VM's cores do, see README.md — the value follows the time spent at each
/// level smoothly, where a median of slices would jump from one level to the
/// other.
pub const SLICES: usize = 10;

impl Samples {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn push_duration(&mut self, d: std::time::Duration) {
        self.0.push(d.as_nanos() as u64);
    }
}

/// Exact nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `q` of all samples are ≤ it. `q` is clamped to
/// `(0, 1]`; an empty slice yields 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of floats (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `q` of the whole sample set, in nanoseconds.
pub fn whole(clients: &[&Samples], q: f64) -> f64 {
    let mut all: Vec<u64> = clients.iter().flat_map(|s| s.0.iter().copied()).collect();
    all.sort_unstable();
    percentile(&all, q) as f64
}

/// Trimmed mean over [`SLICES`] equal slices of the per-slice percentile `q`,
/// in nanoseconds. Slice `k` is the union of every client's `k`-th tenth (by
/// sample count — the clients run side by side for the same time, so that is
/// the phase's `k`-th tenth). With fewer than `SLICES` samples per client it
/// falls back to [`whole`].
pub fn sliced(clients: &[&Samples], q: f64) -> f64 {
    if clients.iter().any(|s| s.len() < SLICES) {
        return whole(clients, q);
    }
    let mut per_slice: Vec<f64> = (0..SLICES)
        .map(|k| {
            let mut slice: Vec<u64> = Vec::new();
            for s in clients {
                let n = s.len();
                slice.extend_from_slice(&s.0[k * n / SLICES..(k + 1) * n / SLICES]);
            }
            slice.sort_unstable();
            percentile(&slice, q) as f64
        })
        .collect();
    per_slice.sort_by(f64::total_cmp);
    let kept = &per_slice[1..SLICES - 1];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Total sample count over all clients.
pub fn count(clients: &[&Samples]) -> usize {
    clients.iter().map(|s| s.len()).sum()
}

/// Deterministic 64-bit generator (SplitMix64): every op stream is a pure
/// function of `(seed, stream tag, client, iteration)`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The generator for iteration `iter` of client `client` in stream `tag`.
    pub fn for_op(seed: u64, tag: u64, client: usize, iter: usize) -> SplitMix {
        let mut s = SplitMix(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let a = s.next_u64();
        let mut s = SplitMix(a ^ ((client as u64) << 48) ^ iter as u64);
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.01), 7);
        assert_eq!(percentile(&[7], 1.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.001), 1);
        // Nearest rank never interpolates: p50 of four samples is the 2nd.
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sliced_percentile_drops_the_extreme_slices() {
        // 100 samples: the fourth tenth is a stall, the rest sit at 10.
        let mut s = Samples::default();
        for i in 0..100 {
            s.0.push(if (30..40).contains(&i) { 1000 } else { 10 });
        }
        assert_eq!(sliced(&[&s], 0.99), 10.0);
        assert_eq!(whole(&[&s], 0.99), 1000.0);
        // Two speed levels, 30 % of the run at the slow one: the value sits
        // between the levels in proportion, it does not pick one.
        let mut two = Samples::default();
        for i in 0..100 {
            two.0.push(if i < 30 { 22 } else { 18 });
        }
        assert_eq!(sliced(&[&two], 0.5), (2.0 * 22.0 + 6.0 * 18.0) / 8.0);
        // Two clients: slice k joins both clients' k-th tenths.
        let mut t = Samples::default();
        for _ in 0..100 {
            t.0.push(20);
        }
        assert_eq!(sliced(&[&s, &t], 0.5), 10.0);
        assert_eq!(count(&[&s, &t]), 200);
        // Too few samples to slice: the whole set is used.
        let few = Samples(vec![5, 9]);
        assert_eq!(sliced(&[&few], 1.0), 9.0);
    }

    #[test]
    fn op_generator_is_a_function_of_its_arguments() {
        let a: Vec<u64> = (0..8)
            .map(|i| SplitMix::for_op(3, 1, 0, i).next_u64())
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|i| SplitMix::for_op(3, 1, 0, i).next_u64())
            .collect();
        assert_eq!(a, b);
        let other_client: Vec<u64> = (0..8)
            .map(|i| SplitMix::for_op(3, 1, 1, i).next_u64())
            .collect();
        let other_seed: Vec<u64> = (0..8)
            .map(|i| SplitMix::for_op(4, 1, 0, i).next_u64())
            .collect();
        assert_ne!(a, other_client);
        assert_ne!(a, other_seed);
        assert!(SplitMix::for_op(1, 1, 0, 0).below(10) < 10);
    }
}
