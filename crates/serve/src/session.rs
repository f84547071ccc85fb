//! Stateful streaming sessions: per-client rolling windows with TTL
//! eviction.
//!
//! A session is the server-side state behind the `open`/`push`/`close`
//! wire commands: the client streams raw observation rows and the server
//! keeps the trailing `lx` of them, so each push can answer with a fresh
//! horizon forecast without the client re-sending the whole window.
//!
//! Three properties keep the table safe under untrusted clients:
//!
//! * **Bounded.** At most `max_sessions` live at once; an `open` beyond
//!   the cap is refused (`"session table full"`) rather than silently
//!   evicting someone else's stream.
//! * **TTL-evicted.** Every table operation first sweeps sessions idle
//!   longer than `ttl_ms`; an abandoned connection cannot pin memory
//!   forever. A push against an evicted id gets `"unknown session"` and
//!   the client re-opens.
//! * **Generation-free.** Sessions bind a model *name*, never a
//!   generation or an `Arc` to a pool, so a hot reload (or an adapter
//!   publish) is invisible: the next push simply resolves the current
//!   entry and forecasts on it.
//!
//! Time is injected, as in `admission.rs`: the `*_at` methods take a
//! millisecond clock so the eviction logic is unit-testable without
//! sleeping, and the server-facing wrappers read the table's
//! [`SessionClock`] — monotonic in production, manual when a test drives
//! a live server past the TTL.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The session table's time source, in milliseconds since the clock was
/// made.
///
/// `SessionClock::monotonic` is wall time and what servers run on. A
/// [`SessionClock::manual`] clock moves only when [`SessionClock::advance`]
/// says so: a test can step a live server past the idle TTL without
/// sleeping, and a loaded host cannot age its sessions early.
#[derive(Clone)]
pub struct SessionClock(Arc<Source>);

enum Source {
    Monotonic(Instant),
    Manual(AtomicU64),
}

impl SessionClock {
    /// Wall time, anchored now.
    pub(crate) fn monotonic() -> SessionClock {
        SessionClock(Arc::new(Source::Monotonic(Instant::now())))
    }

    /// A clock that stands at 0 until advanced.
    pub fn manual() -> SessionClock {
        SessionClock(Arc::new(Source::Manual(AtomicU64::new(0))))
    }

    /// Move a manual clock forward by `ms`.
    ///
    /// # Panics
    /// Panics on a monotonic clock, which only wall time moves.
    pub fn advance(&self, ms: u64) {
        match &*self.0 {
            Source::Manual(now) => {
                now.fetch_add(ms, Ordering::SeqCst);
            }
            Source::Monotonic(_) => panic!("advance on a monotonic session clock"),
        }
    }

    /// Milliseconds since the clock was made (or the manual total).
    pub(crate) fn now_ms(&self) -> u64 {
        match &*self.0 {
            Source::Monotonic(epoch) => epoch.elapsed().as_millis() as u64,
            Source::Manual(now) => now.load(Ordering::SeqCst),
        }
    }
}

/// Session-table knobs.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Maximum concurrently open sessions; `open` beyond this is refused.
    pub max_sessions: usize,
    /// Idle time after which a session is evicted, milliseconds.
    pub ttl_ms: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_sessions: 256,
            ttl_ms: 600_000,
        }
    }
}

/// The shape of the model a session streams against, captured at `open`
/// time and re-checked on every push (a hot reload may swap in a model
/// with different dimensions; the session then errors instead of feeding
/// misaligned rows to the new network).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionShape {
    /// Values per observation row (`c_in`).
    pub c_in: usize,
    /// Rows the forecast window needs (`lx`).
    pub window_rows: usize,
    /// Rows retained beyond the window for adaptation examples
    /// (`lx + ly` total when the adapter is on, `lx` otherwise).
    pub keep_rows: usize,
}

struct Session {
    model: String,
    shape: SessionShape,
    /// Trailing rows, flattened `[row][variable]`, at most
    /// `shape.keep_rows * shape.c_in` values.
    rows: Vec<f32>,
    /// Unix seconds of the first row ever pushed.
    t0: i64,
    /// Seconds between rows.
    dt: i64,
    /// Total rows pushed over the session's lifetime.
    pushed_rows: u64,
    /// Forecasts answered over the session's lifetime.
    forecasts: u64,
    last_touch_ms: u64,
}

/// What one push produced, before any model work happens.
#[derive(Debug)]
pub struct PushOutcome {
    /// Rows still needed before forecasts flow (`0` = window ready).
    pub(crate) pending: usize,
    /// The full forecast window when ready: flattened `lx * c_in`
    /// values plus the unix timestamp of the window's first row.
    pub window: Option<(Vec<f32>, i64)>,
    /// The trailing `lx + ly` rows when the session retains enough for
    /// an adaptation example: flattened values plus the timestamp of
    /// the example's first row.
    pub(crate) example: Option<(Vec<f32>, i64)>,
    /// Seconds between rows (echoed from `open`).
    pub(crate) dt: i64,
}

/// Lifetime counts returned by `close`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSummary {
    /// Total observation rows pushed.
    pub(crate) pushed_rows: u64,
    /// Forecasts answered.
    pub(crate) forecasts: u64,
}

/// The bounded, TTL-evicted session table; one per server, shared by
/// every connection thread.
pub struct SessionTable {
    cfg: SessionConfig,
    clock: SessionClock,
    inner: Mutex<Inner>,
    opened: AtomicU64,
    evicted: AtomicU64,
}

struct Inner {
    map: HashMap<u64, Session>,
    next_id: u64,
}

impl SessionTable {
    /// An empty table enforcing `cfg` on a monotonic clock.
    pub fn new(cfg: SessionConfig) -> SessionTable {
        SessionTable::with_clock(cfg, SessionClock::monotonic())
    }

    /// An empty table enforcing `cfg`, aging sessions on `clock`.
    pub(crate) fn with_clock(cfg: SessionConfig, clock: SessionClock) -> SessionTable {
        SessionTable {
            cfg,
            clock,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                next_id: 1,
            }),
            opened: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    fn sweep(&self, inner: &mut Inner, now_ms: u64) {
        if inner.map.is_empty() {
            return;
        }
        let ttl = self.cfg.ttl_ms;
        let before = inner.map.len();
        inner
            .map
            .retain(|_, s| now_ms.saturating_sub(s.last_touch_ms) < ttl);
        let evicted = before - inner.map.len();
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
            lttf_obs::counter!("serve.session.evicted", evicted as u64);
        }
    }

    /// Open a session against `model` with the given shape and stream
    /// timing; returns the assigned session id.
    pub fn open(
        &self,
        model: &str,
        shape: SessionShape,
        t0: i64,
        dt: i64,
    ) -> Result<u64, String> {
        self.open_at(model, shape, t0, dt, self.now_ms())
    }

    /// [`SessionTable::open`] with the clock injected (tests).
    pub(crate) fn open_at(
        &self,
        model: &str,
        shape: SessionShape,
        t0: i64,
        dt: i64,
        now_ms: u64,
    ) -> Result<u64, String> {
        if dt <= 0 {
            return Err("dt must be positive".to_string());
        }
        assert!(shape.c_in > 0 && shape.window_rows > 0, "degenerate session shape");
        assert!(shape.keep_rows >= shape.window_rows, "keep_rows < window_rows");
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.sweep(&mut inner, now_ms);
        if inner.map.len() >= self.cfg.max_sessions {
            return Err("session table full".to_string());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.map.insert(
            id,
            Session {
                model: model.to_string(),
                shape,
                rows: Vec::new(),
                t0,
                dt,
                pushed_rows: 0,
                forecasts: 0,
                last_touch_ms: now_ms,
            },
        );
        self.opened.fetch_add(1, Ordering::Relaxed);
        lttf_obs::counter!("serve.session.opened", 1);
        Ok(id)
    }

    /// Append observation rows to a session. `current_shape` is the shape
    /// of the model entry *currently* serving the session's name — a
    /// mismatch with the shape captured at `open` means a reload swapped
    /// in an incompatible model, which errors rather than misfeeds.
    pub fn push(
        &self,
        id: u64,
        values: &[f32],
        current_shape: SessionShape,
    ) -> Result<PushOutcome, String> {
        self.push_at(id, values, current_shape, self.now_ms())
    }

    /// [`SessionTable::push`] with the clock injected (tests).
    pub(crate) fn push_at(
        &self,
        id: u64,
        values: &[f32],
        current_shape: SessionShape,
        now_ms: u64,
    ) -> Result<PushOutcome, String> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.sweep(&mut inner, now_ms);
        let s = inner.map.get_mut(&id).ok_or("unknown session")?;
        if s.shape.c_in != current_shape.c_in || s.shape.window_rows != current_shape.window_rows
        {
            return Err("model shape changed since open; close and re-open".to_string());
        }
        // The adapter may have been toggled between open and now; honor
        // the larger retention so examples become available.
        s.shape.keep_rows = s.shape.keep_rows.max(current_shape.keep_rows);
        let c = s.shape.c_in;
        if values.len() % c != 0 {
            return Err(format!(
                "push length {} is not a multiple of c_in {c}",
                values.len()
            ));
        }
        let new_rows = values.len() / c;
        s.rows.extend_from_slice(values);
        let cap = s.shape.keep_rows * c;
        if s.rows.len() > cap {
            s.rows.drain(..s.rows.len() - cap);
        }
        s.pushed_rows += new_rows as u64;
        s.last_touch_ms = now_ms;
        lttf_obs::counter!("serve.session.pushes", 1);

        let have_rows = s.rows.len() / c;
        let need = s.shape.window_rows;
        // Timestamp of a trailing slice's first row: the stream started
        // at t0 and has advanced one dt per pushed row.
        let slice_t0 = |rows_back: usize| {
            s.t0 + s.dt * (s.pushed_rows as i64 - rows_back as i64)
        };
        let window = (have_rows >= need).then(|| {
            s.forecasts += 1;
            let tail = &s.rows[s.rows.len() - need * c..];
            (tail.to_vec(), slice_t0(need))
        });
        let pending = need.saturating_sub(have_rows);
        let example = (s.shape.keep_rows > need && have_rows >= s.shape.keep_rows).then(|| {
            let rows = s.shape.keep_rows;
            (s.rows.clone(), slice_t0(rows))
        });
        Ok(PushOutcome {
            pending,
            window,
            example,
            dt: s.dt,
        })
    }

    /// Drop a session, returning its lifetime counts.
    pub fn close(&self, id: u64) -> Result<SessionSummary, String> {
        self.close_at(id, self.now_ms())
    }

    /// [`SessionTable::close`] with the clock injected (tests).
    pub(crate) fn close_at(&self, id: u64, now_ms: u64) -> Result<SessionSummary, String> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.sweep(&mut inner, now_ms);
        let s = inner.map.remove(&id).ok_or("unknown session")?;
        lttf_obs::counter!("serve.session.closed", 1);
        Ok(SessionSummary {
            pushed_rows: s.pushed_rows,
            forecasts: s.forecasts,
        })
    }

    /// The model name a session streams against (`None` for unknown or
    /// evicted ids). Read-only: does not touch the idle clock.
    pub(crate) fn model_of(&self, id: u64) -> Option<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(&id)
            .map(|s| s.model.clone())
    }

    /// Sessions currently open.
    pub(crate) fn open_count(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// Sessions opened since startup.
    pub(crate) fn opened_total(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Sessions evicted by the TTL sweep since startup.
    pub(crate) fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(c: usize, lx: usize, keep: usize) -> SessionShape {
        SessionShape { c_in: c, window_rows: lx, keep_rows: keep }
    }

    fn table(max: usize, ttl: u64) -> SessionTable {
        SessionTable::new(SessionConfig { max_sessions: max, ttl_ms: ttl })
    }

    #[test]
    fn manual_clock_ages_sessions_only_when_advanced() {
        let clock = SessionClock::manual();
        let t = SessionTable::with_clock(
            SessionConfig {
                max_sessions: 4,
                ttl_ms: 1_000,
            },
            clock.clone(),
        );
        let sh = shape(1, 2, 2);
        let id = t.open("m", sh, 0, 1).unwrap();
        clock.advance(999);
        assert!(
            t.push(id, &[1.0], sh).is_ok(),
            "999 ms idle is within the TTL"
        );
        clock.advance(1_000);
        assert_eq!(t.push(id, &[2.0], sh).unwrap_err(), "unknown session");
        assert_eq!(t.evicted_total(), 1);
    }

    #[test]
    #[should_panic(expected = "advance on a monotonic session clock")]
    fn monotonic_clock_cannot_be_advanced() {
        SessionClock::monotonic().advance(1);
    }

    #[test]
    fn window_fills_then_slides() {
        let t = table(4, 1_000);
        let sh = shape(2, 3, 3);
        let id = t.open_at("m", sh, 100, 10, 0).unwrap();
        // Two rows: still pending one.
        let out = t.push_at(id, &[1.0, 2.0, 3.0, 4.0], sh, 1).unwrap();
        assert_eq!(out.pending, 1);
        assert!(out.window.is_none());
        // Third row completes the window [r1 r2 r3] starting at t0.
        let out = t.push_at(id, &[5.0, 6.0], sh, 2).unwrap();
        assert_eq!(out.pending, 0);
        let (w, wt0) = out.window.unwrap();
        assert_eq!(w, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(wt0, 100);
        // Fourth row slides the window to [r2 r3 r4], one dt later.
        let out = t.push_at(id, &[7.0, 8.0], sh, 3).unwrap();
        let (w, wt0) = out.window.unwrap();
        assert_eq!(w, vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(wt0, 110);
        let sum = t.close_at(id, 4).unwrap();
        // Three pushes, but only the last two had a full window.
        assert_eq!(sum, SessionSummary { pushed_rows: 4, forecasts: 2 });
    }

    #[test]
    fn examples_need_keep_rows() {
        let t = table(4, 1_000);
        // lx 2, keep 4 (ly 2): examples appear once 4 rows are retained.
        let sh = shape(1, 2, 4);
        let id = t.open_at("m", sh, 0, 60, 0).unwrap();
        let out = t.push_at(id, &[1.0, 2.0, 3.0], sh, 1).unwrap();
        assert!(out.window.is_some());
        assert!(out.example.is_none(), "only 3 rows retained");
        let out = t.push_at(id, &[4.0, 5.0], sh, 2).unwrap();
        let (ex, ex_t0) = out.example.unwrap();
        assert_eq!(ex, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(ex_t0, 60, "5 rows pushed, trailing 4 start one dt in");
    }

    #[test]
    fn ttl_evicts_idle_sessions() {
        let t = table(4, 100);
        let sh = shape(1, 2, 2);
        let idle = t.open_at("m", sh, 0, 1, 0).unwrap();
        let live = t.open_at("m", sh, 0, 1, 0).unwrap();
        assert_eq!(t.open_count(), 2);
        // `live` is touched at 80ms; `idle` is not.
        t.push_at(live, &[1.0], sh, 80).unwrap();
        // At 150ms the sweep drops `idle` (idle 150ms) but not `live`
        // (idle 70ms).
        let err = t.push_at(idle, &[1.0], sh, 150).unwrap_err();
        assert_eq!(err, "unknown session");
        assert_eq!(t.open_count(), 1);
        assert_eq!(t.evicted_total(), 1);
        assert!(t.push_at(live, &[1.0], sh, 150).is_ok());
    }

    #[test]
    fn capacity_is_enforced_after_sweep() {
        let t = table(2, 100);
        let sh = shape(1, 2, 2);
        t.open_at("m", sh, 0, 1, 0).unwrap();
        t.open_at("m", sh, 0, 1, 0).unwrap();
        let err = t.open_at("m", sh, 0, 1, 50).unwrap_err();
        assert_eq!(err, "session table full");
        // Once the TTL passes, the sweep frees capacity.
        assert!(t.open_at("m", sh, 0, 1, 200).is_ok());
        assert_eq!(t.evicted_total(), 2);
        assert_eq!(t.opened_total(), 3);
    }

    #[test]
    fn shape_change_is_refused() {
        let t = table(2, 1_000);
        let sh = shape(2, 3, 3);
        let id = t.open_at("m", sh, 0, 1, 0).unwrap();
        let err = t.push_at(id, &[1.0, 2.0], shape(3, 3, 3), 1).unwrap_err();
        assert!(err.contains("shape changed"), "{err}");
        let err = t.push_at(id, &[1.0], sh, 1).unwrap_err();
        assert!(err.contains("not a multiple"), "{err}");
    }

    #[test]
    fn unknown_ids_error() {
        let t = table(2, 1_000);
        assert_eq!(t.push_at(9, &[1.0], shape(1, 1, 1), 0).unwrap_err(), "unknown session");
        assert_eq!(t.close_at(9, 0).unwrap_err(), "unknown session");
        assert!(t.open_at("m", shape(1, 1, 1), 0, 0, 0).is_err(), "dt must be positive");
    }
}
