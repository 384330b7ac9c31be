//! Open-loop pacing: requests leave on a fixed schedule whatever the server
//! does, and each one is timed from the instant it was *due*, so a stall
//! charges the requests queued behind it as well.

use crate::stats::Samples;
use std::time::{Duration, Instant};

/// When request `j` of client `client` is due, as an offset from the leg's
/// start: the clients interleave so the global rate is `rate` per second.
pub fn due_offset(client: usize, clients: usize, j: usize, rate: f64) -> Duration {
    Duration::from_secs_f64((j * clients + client) as f64 / rate)
}

/// What one paced client measured.
#[derive(Debug, Default)]
pub struct PacedLog {
    /// Completion time minus due time, per request.
    pub latency: Samples,
    /// Send time minus due time, per request: how late the generator ran.
    pub late: Samples,
    pub failed: u64,
}

/// Sends requests on this client's schedule until `duration` has passed.
/// `send(j)` performs request `j` and says whether it succeeded. A client
/// that has fallen behind sends at once and keeps its place in the schedule.
pub fn run_client(
    start: Instant,
    duration: Duration,
    client: usize,
    clients: usize,
    rate: f64,
    mut send: impl FnMut(usize) -> bool,
) -> PacedLog {
    let mut log = PacedLog::default();
    for j in 0.. {
        let offset = due_offset(client, clients, j, rate);
        if offset >= duration {
            break;
        }
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        log.late
            .push_duration(Instant::now().saturating_duration_since(due));
        if !send(j) {
            log.failed += 1;
        }
        log.latency
            .push_duration(Instant::now().saturating_duration_since(due));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_clients_at_the_global_rate() {
        // 1000/s over two clients: client 0 at 0, 2, 4 ms; client 1 at 1, 3 ms.
        assert_eq!(due_offset(0, 2, 0, 1000.0), Duration::ZERO);
        assert_eq!(due_offset(1, 2, 0, 1000.0), Duration::from_millis(1));
        assert_eq!(due_offset(0, 2, 1, 1000.0), Duration::from_millis(2));
        assert_eq!(due_offset(1, 2, 1, 1000.0), Duration::from_millis(3));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // 100/s for 50 ms = 5 requests; the first send stalls 30 ms, so the
        // second and third were already due and are charged the wait.
        let start = Instant::now();
        let log = run_client(start, Duration::from_millis(50), 0, 1, 100.0, |j| {
            if j == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            j != 4
        });
        assert_eq!(log.latency.len(), 5);
        assert_eq!(log.failed, 1);
        assert!(log.latency.0[0] >= 30_000_000);
        assert!(
            log.latency.0[1] >= 20_000_000,
            "queued request not charged: {:?}",
            log.latency
        );
        assert!(log.late.0[1] >= 20_000_000);
        assert!(log.late.0[4] < 10_000_000);
    }
}
