//! The machine's speed while a run measures, and times corrected for it.
//!
//! The reference VM shares its cores with other tenants, and its speed moves
//! between levels up to 1.9× apart for seconds to minutes at a time (see
//! README.md): two runs of the same code differ by 20–30 %, whatever their
//! length, which is more than any bound a benchmark may set. So the benchmark
//! carries a reference of its own through every run: a few times a second the
//! measuring thread hands a token to a helper thread and back [`TRIPS`] times
//! and notes how long a round trip took. That time depends on the machine and
//! not on the program under test — no program thread runs during a sample —
//! and it followed the workloads' own speed (correlation 0.9 over 5 s
//! windows) where an arithmetic loop, a pointer chase and a write + fsync did
//! not.
//!
//! A time `d` measured at instant `t` is reported as `d × nominal ÷ trip(t)`:
//! what it would have been on the reference box at its usual speed. The
//! correction is the same for every program, so a faster program still reads
//! faster by its full share; the uncorrected values are reported next to the
//! corrected ones as `raw.*`.

use crate::stats::{median, Samples};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Round trips per sample: about 1.5 ms.
const TRIPS: u32 = 400;
/// Time between samples while a phase is measured (0.6 % of the phase).
const EVERY: Duration = Duration::from_millis(250);
/// A round trip on the reference box at its usual speed, in nanoseconds.
/// It only fixes the scale: corrected times come out near the measured ones.
const NOMINAL_TRIP_NS: f64 = 4000.0;
/// A sample is smoothed by the median of itself and this many neighbours on
/// either side (1.25 s in a measured phase): one sample is 1.5 ms of a
/// machine whose speed flickers.
const SMOOTH: usize = 2;

struct Helper {
    to: Sender<u32>,
    from: Receiver<u32>,
    thread: JoinHandle<()>,
}

/// One sample of the reference.
struct Sample {
    start: Instant,
    end: Instant,
    trip_ns: f64,
}

/// Samples the reference on the thread that measures.
pub struct Meter {
    /// `None`: the meter is off, no sample is taken and no time corrected.
    helper: Option<Helper>,
    samples: Vec<Sample>,
    due: Instant,
}

impl Meter {
    /// Starts the helper thread (it inherits this thread's CPU mask). A run
    /// that is not pinned to one CPU passes `on = false`: a hand-over that
    /// crosses cores measures the scheduler's placement, not the machine.
    pub fn start(on: bool) -> Meter {
        let helper = on.then(|| {
            let (to, rx) = channel::<u32>();
            let (tx, from) = channel::<u32>();
            let thread = std::thread::spawn(move || {
                while let Ok(token) = rx.recv() {
                    if tx.send(token).is_err() {
                        break;
                    }
                }
            });
            Helper { to, from, thread }
        });
        Meter {
            helper,
            samples: Vec::new(),
            due: Instant::now(),
        }
    }

    /// Takes one sample now.
    pub fn sample(&mut self) {
        let Some(helper) = &self.helper else { return };
        let start = Instant::now();
        for token in 0..TRIPS {
            helper.to.send(token).expect("speed helper receives");
            std::hint::black_box(helper.from.recv().expect("speed helper answers"));
        }
        let end = Instant::now();
        self.samples.push(Sample {
            start,
            end,
            trip_ns: (end - start).as_nanos() as f64 / f64::from(TRIPS),
        });
        self.due = end + EVERY;
    }

    /// Takes a sample if one is due at `now`; called between operations.
    pub fn poll(&mut self, now: Instant) {
        if now >= self.due {
            self.sample();
        }
    }

    /// The speed as sampled so far.
    pub fn speed(&self) -> Speed {
        let trips: Vec<f64> = self.samples.iter().map(|s| s.trip_ns).collect();
        let factor = (0..trips.len())
            .map(|i| {
                let near = &trips[i.saturating_sub(SMOOTH)..(i + SMOOTH + 1).min(trips.len())];
                NOMINAL_TRIP_NS / median(near)
            })
            .collect();
        Speed {
            at: self.samples.iter().map(|s| (s.start, s.end)).collect(),
            factor,
            trip_us: median(&trips) / 1e3,
        }
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        if let Some(Helper { to, from, thread }) = self.helper.take() {
            // The helper leaves its loop when its channel closes.
            drop((to, from));
            let _ = thread.join();
        }
    }
}

/// The correction factor over time: `nominal ÷ smoothed round trip` at each
/// sample. With no samples (meter off) every factor is 1.
pub struct Speed {
    /// When each sample started and ended, in time order.
    at: Vec<(Instant, Instant)>,
    factor: Vec<f64>,
    /// Median round trip over all samples, in µs (0 when off).
    pub trip_us: f64,
}

impl Speed {
    /// The factor of the sample nearest to `t`.
    fn factor_at(&self, t: Instant) -> f64 {
        let after = self.at.partition_point(|(start, _)| *start <= t);
        let nearest = match (after.checked_sub(1), self.at.get(after)) {
            (None, None) => return 1.0,
            (Some(before), None) => before,
            (None, Some(_)) => after,
            (Some(before), Some((next, _))) => {
                if t.saturating_duration_since(self.at[before].1) <= *next - t {
                    before
                } else {
                    after
                }
            }
        };
        self.factor[nearest]
    }

    /// `samples` (taken at `starts`, one instant each) at the reference speed.
    pub fn correct(&self, samples: &Samples, starts: &[Instant]) -> Samples {
        assert_eq!(samples.len(), starts.len(), "one start per sample");
        Samples(
            samples
                .0
                .iter()
                .zip(starts)
                .map(|(ns, at)| (*ns as f64 * self.factor_at(*at)).round() as u64)
                .collect(),
        )
    }

    /// Length of `from..to` in seconds at the reference speed; the time the
    /// meter's own samples took is left out, and a stretch between two
    /// samples takes the mean of their factors. Returns it with the
    /// uncorrected length (samples left out too).
    pub fn secs(&self, from: Instant, to: Instant) -> (f64, f64) {
        let (mut corrected, mut raw) = (0.0, 0.0);
        let mut piece = |a: Instant, b: Instant| {
            let len = b.saturating_duration_since(a).as_secs_f64();
            corrected += len * (self.factor_at(a) + self.factor_at(b)) / 2.0;
            raw += len;
        };
        let mut cursor = from;
        for (start, end) in &self.at {
            if *end <= from || *start >= to {
                continue;
            }
            piece(cursor, *start);
            cursor = (*end).max(cursor);
        }
        piece(cursor, to);
        (corrected, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(samples: &[(u64, u64, f64)], epoch: Instant) -> Speed {
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        Speed {
            at: samples.iter().map(|(a, b, _)| (at(*a), at(*b))).collect(),
            factor: samples.iter().map(|(_, _, f)| *f).collect(),
            trip_us: 0.0,
        }
    }

    #[test]
    fn a_meter_that_is_off_changes_nothing() {
        let mut meter = Meter::start(false);
        meter.sample();
        let s = meter.speed();
        let t = Instant::now();
        assert_eq!(s.trip_us, 0.0);
        assert_eq!(s.correct(&Samples(vec![10, 20]), &[t, t]).0, vec![10, 20]);
        let (corrected, raw) = s.secs(t, t + Duration::from_secs(2));
        assert_eq!((corrected, raw), (2.0, 2.0));
    }

    #[test]
    fn a_running_meter_samples_and_smooths() {
        let mut meter = Meter::start(true);
        for _ in 0..5 {
            meter.sample();
        }
        let now = Instant::now();
        meter.poll(now); // not due yet
        assert_eq!(meter.samples.len(), 5);
        meter.poll(now + EVERY);
        assert_eq!(meter.samples.len(), 6);
        let s = meter.speed();
        assert!(s.trip_us > 0.0);
        assert!(s.factor.iter().all(|f| f.is_finite() && *f > 0.0));
    }

    #[test]
    fn times_take_the_factor_of_the_nearest_sample() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        // Samples at 100–102 ms (machine at half speed: factor 2 would be a
        // fast machine; 0.5 a slow one) and 300–302 ms.
        let s = speed(&[(100, 102, 0.5), (300, 302, 2.0)], epoch);
        let got = s.correct(
            &Samples(vec![1000, 1000, 1000, 1000]),
            &[at(0), at(190), at(210), at(400)],
        );
        assert_eq!(got.0, vec![500, 500, 2000, 2000]);
    }

    #[test]
    fn a_stretch_is_cut_at_the_samples_and_leaves_them_out() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let s = speed(&[(100, 110, 0.5), (300, 310, 2.0)], epoch);
        // 0–100 at 0.5, 110–300 at the mean of both, 310–400 at 2.0.
        let (corrected, raw) = s.secs(at(0), at(400));
        assert!((raw - 0.380).abs() < 1e-9);
        assert!((corrected - (0.100 * 0.5 + 0.190 * 1.25 + 0.090 * 2.0)).abs() < 1e-9);
        // A stretch between two samples touches neither.
        let (corrected, raw) = s.secs(at(120), at(150));
        assert!((raw - 0.030).abs() < 1e-9 && (corrected - 0.015).abs() < 1e-9);
    }
}
