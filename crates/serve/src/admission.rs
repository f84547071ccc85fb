//! Admission control: token-bucket rate limiting and load shedding.
//!
//! Both checks run on the connection thread **before** a request is
//! prepared or queued, so refused work costs almost nothing:
//!
//! * **Load shedding** — when the aggregate queue depth across every
//!   replica crosses a watermark, new work is refused outright. The
//!   queues themselves still bound memory; the watermark keeps *queueing
//!   delay* bounded, refusing work that would only wait.
//! * **Rate limiting** — a token bucket refilled at `rate` tokens/second
//!   up to `burst`. Each admitted request spends one token; an empty
//!   bucket refuses the request.
//!
//! Every refusal carries a `retry_after_ms` hint so clients can back off
//! intelligently instead of hammering: the rate limiter reports when the
//! next token will exist, the shedder a multiple of the expected service
//! time. Refusals are wire-visible (`"error":"rate limited"` /
//! `"overloaded"` plus `"retry_after_ms"`), and the load generator uses
//! the hints to classify shed traffic separately from failures.
//!
//! Time is injected into the core (`admit_at`) so tests drive the bucket
//! deterministically; the serving path uses [`Admission::admit`], which
//! stamps [`Instant::now`].

use std::sync::Mutex;
use std::time::Instant;

/// Admission knobs. The default admits everything (no rate limit, no
/// shedding) — identical to the pre-admission-control server.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Steady-state admitted request rate in requests/second
    /// (`None` = unlimited).
    pub rate: Option<f64>,
    /// Token-bucket capacity: how many requests may arrive back-to-back
    /// before the rate limit bites. Clamped to at least 1 token.
    pub burst: f64,
    /// Refuse new work while the aggregate queue depth (all replicas of
    /// the target model) is at or above this watermark (`None` = never).
    pub shed_depth: Option<usize>,
    /// `retry_after_ms` hint attached to shed refusals; pick roughly a
    /// queue-drain time for the deployment.
    pub shed_retry_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate: None,
            burst: 16.0,
            shed_depth: None,
            shed_retry_ms: 50,
        }
    }
}

/// Why a request was refused at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Denied {
    /// The token bucket is empty; a token arrives in ~`retry_after_ms`.
    RateLimited {
        /// Milliseconds until the bucket refills one token (at least 1).
        retry_after_ms: u64,
    },
    /// Aggregate queue depth crossed the shed watermark.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
}

impl Denied {
    /// The backoff hint, whatever the reason.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        match *self {
            Denied::RateLimited { retry_after_ms } | Denied::Overloaded { retry_after_ms } => {
                retry_after_ms
            }
        }
    }

    /// The wire error string (`"rate limited"` / `"overloaded"`).
    pub(crate) fn reason(&self) -> &'static str {
        match self {
            Denied::RateLimited { .. } => "rate limited",
            Denied::Overloaded { .. } => "overloaded",
        }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Shared admission state; one per server, checked by every connection
/// thread under a short lock.
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    bucket: Mutex<Bucket>,
}

impl Admission {
    /// Build the gate; the bucket starts full (a quiet server admits an
    /// initial burst).
    pub(crate) fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst.max(1.0),
                last: Instant::now(),
            }),
        }
    }

    /// The configuration this gate enforces.
    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Admit or refuse one request given the target pool's current
    /// aggregate queue depth.
    pub(crate) fn admit(&self, queue_depth: usize) -> Result<(), Denied> {
        self.admit_at(queue_depth, Instant::now())
    }

    /// [`Admission::admit`] with the clock injected — the deterministic
    /// core the tests drive.
    fn admit_at(&self, queue_depth: usize, now: Instant) -> Result<(), Denied> {
        // Shed first: when the system is drowning, spending rate-limit
        // tokens on doomed requests would punish the clients that backed
        // off properly.
        if let Some(watermark) = self.cfg.shed_depth {
            if queue_depth >= watermark {
                lttf_obs::counter!("serve.admission_shed", 1);
                return Err(Denied::Overloaded {
                    retry_after_ms: self.cfg.shed_retry_ms.max(1),
                });
            }
        }
        let Some(rate) = self.cfg.rate else {
            return Ok(());
        };
        let rate = rate.max(1e-9);
        let cap = self.cfg.burst.max(1.0);
        let mut b = self.bucket.lock().unwrap_or_else(|e| e.into_inner());
        let dt = now.saturating_duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + dt * rate).min(cap);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            lttf_obs::counter!("serve.admission_rate_limited", 1);
            let wait_s = (1.0 - b.tokens) / rate;
            Err(Denied::RateLimited {
                retry_after_ms: (wait_s * 1e3).ceil().max(1.0) as u64,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gate(rate: Option<f64>, burst: f64, shed: Option<usize>) -> Admission {
        Admission::new(AdmissionConfig {
            rate,
            burst,
            shed_depth: shed,
            shed_retry_ms: 40,
        })
    }

    #[test]
    fn default_config_admits_everything() {
        let a = Admission::new(AdmissionConfig::default());
        for depth in [0, 10, 10_000] {
            assert_eq!(a.admit(depth), Ok(()));
        }
    }

    #[test]
    fn burst_is_admitted_then_rate_limited() {
        let a = gate(Some(10.0), 3.0, None);
        let t0 = Instant::now();
        for i in 0..3 {
            assert_eq!(a.admit_at(0, t0), Ok(()), "burst request {i}");
        }
        let denied = a.admit_at(0, t0).unwrap_err();
        match denied {
            Denied::RateLimited { retry_after_ms } => {
                // 10 req/s → next token in 100ms.
                assert!((90..=110).contains(&retry_after_ms), "{retry_after_ms}");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        assert_eq!(denied.reason(), "rate limited");
    }

    #[test]
    fn tokens_refill_over_time() {
        let a = gate(Some(10.0), 1.0, None);
        let t0 = Instant::now();
        assert_eq!(a.admit_at(0, t0), Ok(()));
        assert!(a.admit_at(0, t0).is_err());
        // 100ms later exactly one token has refilled.
        let t1 = t0 + Duration::from_millis(100);
        assert_eq!(a.admit_at(0, t1), Ok(()));
        assert!(a.admit_at(0, t1).is_err());
    }

    #[test]
    fn refill_never_exceeds_burst() {
        let a = gate(Some(100.0), 2.0, None);
        let t0 = Instant::now();
        // A long idle period must not bank more than `burst` tokens.
        let t1 = t0 + Duration::from_secs(60);
        assert_eq!(a.admit_at(0, t1), Ok(()));
        assert_eq!(a.admit_at(0, t1), Ok(()));
        assert!(a.admit_at(0, t1).is_err());
    }

    #[test]
    fn shed_watermark_refuses_with_hint() {
        let a = gate(None, 1.0, Some(8));
        assert_eq!(a.admit(7), Ok(()));
        let denied = a.admit(8).unwrap_err();
        assert_eq!(denied, Denied::Overloaded { retry_after_ms: 40 });
        assert_eq!(denied.reason(), "overloaded");
        assert_eq!(denied.retry_after_ms(), 40);
        assert!(a.admit(9_999).is_err());
    }

    #[test]
    fn shed_outranks_rate_limit_and_spends_no_token() {
        let a = gate(Some(1.0), 1.0, Some(4));
        let t0 = Instant::now();
        // Overloaded refusals must not drain the bucket...
        for _ in 0..5 {
            assert!(matches!(
                a.admit_at(4, t0),
                Err(Denied::Overloaded { .. })
            ));
        }
        // ...so once depth recovers, the banked token is still there.
        assert_eq!(a.admit_at(0, t0), Ok(()));
    }
}
