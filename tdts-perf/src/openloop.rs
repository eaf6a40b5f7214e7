//! Open-loop request timing.
//!
//! An open loop sends request `k` when it is due, whether or not earlier
//! requests have been answered. Each request is timed from its due time, so
//! when the generator stalls the wait it imposes on later requests counts
//! against the service's latency; how late the generator ran is reported
//! beside it, so a late generator is visible.

/// A fixed-rate arrival schedule, in seconds since the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_s: f64,
}

impl Schedule {
    /// When request `k` is due.
    pub fn due(&self, k: u64) -> f64 {
        k as f64 / self.rate_per_s
    }
}

/// The timeline of one open-loop request, in seconds on one clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTiming {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator started the submit call.
    pub sent: f64,
    /// Duration of the submit call.
    pub submit: f64,
    /// Enqueue-to-response time the service reported, `None` when the
    /// request was refused or answered with an error.
    pub waited: Option<f64>,
}

impl RequestTiming {
    /// Seconds from the due time to the response. A failed or refused
    /// request never meets a latency limit, so it counts as `miss`.
    pub fn latency(&self, miss: f64) -> f64 {
        match self.waited {
            Some(waited) => (self.sent - self.due).max(0.0) + self.submit + waited,
            None => miss,
        }
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// The interval during which the request was outstanding, for
    /// matching it against concurrent window advances.
    pub fn outstanding(&self) -> (f64, f64) {
        (self.sent, self.sent + self.submit + self.waited.unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_through_a_stalled_generator() {
        let schedule = Schedule { rate_per_s: 1_000.0 };
        // The generator sends on time, then stalls for 50 ms after request
        // 2 and sends requests 3..=5 back to back when it resumes at 52 ms.
        let sent_at = |k: u64| if k < 3 { schedule.due(k) } else { 0.052 };
        let timings: Vec<RequestTiming> = (0..6)
            .map(|k| RequestTiming {
                due: schedule.due(k),
                sent: sent_at(k),
                submit: 0.0,
                waited: Some(0.002),
            })
            .collect();
        let latency: Vec<f64> = timings.iter().map(|t| t.latency(f64::INFINITY)).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // On-time requests take just the service time.
        assert!(close(latency[0], 0.002) && close(latency[2], 0.002));
        // Request 3 was due at 3 ms, sent at 52 ms: 49 ms late + 2 ms served.
        assert!(close(latency[3], 0.051));
        assert!(close(latency[5], 0.049));
        assert!(close(timings[3].lateness(), 0.049));
        assert_eq!(timings[0].lateness(), 0.0);
    }

    #[test]
    fn failures_count_as_misses_and_early_sends_are_not_credited() {
        let refused = RequestTiming { due: 1.0, sent: 1.0, submit: 1e-6, waited: None };
        assert_eq!(refused.latency(9.0), 9.0);
        // A send before its due time (clock jitter) gains nothing.
        let early = RequestTiming { due: 1.0, sent: 0.999, submit: 0.0, waited: Some(0.004) };
        assert_eq!(early.latency(9.0), 0.004);
        assert_eq!(early.lateness(), 0.0);
        assert_eq!(early.outstanding(), (0.999, 1.003));
    }
}
