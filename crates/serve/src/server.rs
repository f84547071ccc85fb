//! The std-only TCP front end, replicated edition.
//!
//! Newline-delimited JSON over plain TCP: each connection writes one
//! request per line and reads one response per line (see
//! [`crate::protocol`]). A thread per connection parses and prepares
//! windows, passes the admission gate, then hands them to the target
//! model's [`ReplicaPool`]; actual forward passes happen on the replica
//! batcher threads, so slow clients never stall inference.
//!
//! ## Routing table and hot reload
//!
//! Models live in a versioned routing table: `name → Arc<ModelEntry>`,
//! where an entry is one *generation* of a model (checkpoint + replica
//! pool + generation number). A `reload` command loads the new
//! checkpoint and starts its pool **before** touching the table, then
//! swaps the entry in under a write lock — a single atomic pointer
//! update from the perspective of connection threads — and only then
//! drains the old generation. In-flight requests on the old generation
//! complete (drain answers everything queued); a request that races the
//! swap and hits the drained pool gets its window handed back with
//! `Closed` and resubmits against the table, landing on the new
//! generation. No request is dropped across a reload.
//!
//! ## Admission
//!
//! Before any work is done for a forecast, the connection thread asks
//! the [`Admission`] gate (token-bucket rate limit + queue-depth load
//! shedding). Refusals answer immediately with a `retry_after_ms` hint
//! and cost no model work at all.
//!
//! ## Hardening
//!
//! * request lines are capped at [`MAX_LINE`] bytes — an over-long line
//!   gets a protocol error naming the cap and the connection closes
//!   (the buffer is never grown without bound);
//! * error replies to unparseable lines carry the client's `id` when one
//!   can be textually extracted ([`crate::protocol::extract_id`]);
//! * connection threads are detached and counted, not kept as join
//!   handles: a finished thread releases its resources at once, however
//!   long the server stays idle.
//!
//! Shutdown is graceful by construction: stop accepting (the accept loop
//! blocks in `accept`, and shutdown wakes it with a connection to the
//! server's own address), wait until every connection thread has
//! finished the request it is waiting on, then drain every pool so the
//! batchers answer everything still queued before exiting.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::adapt::{self, AdaptConfig, AdaptShared, AdaptState, Example, ExampleBuffer};
use crate::admission::{Admission, AdmissionConfig};
use crate::dispatch::{ModelEntry, Policy, PoolConfig};
use crate::drift::DriftConfig;
use crate::engine::{BatchConfig, Reject};
use crate::metrics::{self, ServerGauges};
use crate::protocol::{
    extract_id, format_close_ok, format_err, format_metrics, format_ok, format_open_ok,
    format_push_ok, format_push_pending, format_reject, format_reload_ok, parse_command, Command,
};
use crate::registry::{LoadedModel, Registry};
use crate::session::{SessionClock, SessionConfig, SessionShape, SessionTable};
use crate::stats::{FlowStats, LatencySummary};

/// How often blocked connection reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Hard cap on one request line (bytes, newline included). A client that
/// exceeds it gets a protocol error and the connection closes; nothing
/// past the cap is buffered.
pub(crate) const MAX_LINE: usize = 1 << 20;

/// How many times a forecast resubmits after racing a reload before
/// giving up. One retry suffices for a single swap; the margin covers
/// back-to-back reloads.
const RELOAD_RETRIES: usize = 8;

/// Everything `serve` needs beyond an address: batching, replication,
/// and admission knobs. The default is one replica, round-robin, no
/// admission limits — wire-compatible with the pre-replication server.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Per-replica micro-batching knobs.
    pub batch: BatchConfig,
    /// Replicas per model (each model gets its own pool of this size).
    pub replicas: usize,
    /// Dispatch policy across a pool's replicas.
    pub policy: Policy,
    /// Forward-pass thread budget per replica (`None` = inherit
    /// `LTTF_THREADS`). With `Some(k)`, replicas never contend for more
    /// than `replicas * k` threads.
    pub threads_per_replica: Option<usize>,
    /// Seeds the round-robin dispatch offset (reproducible assignment).
    pub seed: u64,
    /// Rate-limit / load-shed gate, applied before any model work.
    pub admission: AdmissionConfig,
    /// Input-drift monitor knobs (window, alert threshold, minimum
    /// sample count) for every model's [`crate::DriftMonitor`].
    pub drift: DriftConfig,
    /// Streaming-session table knobs (capacity, idle TTL).
    pub session: SessionConfig,
    /// Online test-time adaptation knobs. Disabled by default; when
    /// enabled, a background adapter thread fine-tunes the default model
    /// on recent session data whenever the drift monitor alerts.
    pub adapt: AdaptConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchConfig::default(),
            replicas: 1,
            policy: Policy::RoundRobin,
            threads_per_replica: None,
            seed: 0,
            admission: AdmissionConfig::default(),
            drift: DriftConfig::default(),
            session: SessionConfig::default(),
            adapt: AdaptConfig::default(),
        }
    }
}

impl ServeConfig {
    fn pool_cfg(&self) -> PoolConfig {
        PoolConfig {
            batch: self.batch,
            replicas: self.replicas.max(1),
            policy: self.policy,
            threads_per_replica: self.threads_per_replica,
            seed: self.seed,
            drift: self.drift,
        }
    }
}

struct Shared {
    /// The versioned routing table. Swapped under a short write lock by
    /// reload; everything else takes read locks.
    table: RwLock<HashMap<String, Arc<ModelEntry>>>,
    default: String,
    stop: AtomicBool,
    /// Connection threads still running; shutdown waits for zero.
    conns: LiveCount,
    cfg: ServeConfig,
    admission: Admission,
    /// Windowed shed / queue-full / resubmit counters — the flows that
    /// never reach a replica's latency stats.
    flow: FlowStats,
    /// Serializes reloads; a reload in progress must fully drain the old
    /// generation before the next may retire it again. The adapter's
    /// publish path takes the same lock, so an adapted generation and a
    /// checkpoint reload can never retire each other mid-drain.
    reload_lock: Mutex<()>,
    /// The streaming-session table (bounded, TTL-evicted).
    sessions: SessionTable,
    /// Adapter telemetry (state machine + lifetime counters), rendered
    /// by `metrics` whether or not adaptation is enabled.
    adapt: AdaptShared,
    /// Recent session examples the adapter fine-tunes on. Only fed when
    /// adaptation is enabled.
    examples: ExampleBuffer,
}

impl Shared {
    fn entry(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.table
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    fn entries(&self) -> Vec<Arc<ModelEntry>> {
        let mut v: Vec<Arc<ModelEntry>> = self
            .table
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        v.sort_by(|a, b| a.name().cmp(b.name()));
        v
    }

    /// The retention a session needs under the current config: the
    /// forecast window, plus the horizon when the adapter harvests
    /// supervised examples.
    fn session_shape(&self, entry: &ModelEntry) -> SessionShape {
        let cfg = entry.model().cfg();
        let keep = if self.cfg.adapt.enabled { cfg.lx + cfg.ly } else { cfg.lx };
        SessionShape {
            c_in: cfg.c_in,
            window_rows: cfg.lx,
            keep_rows: keep,
        }
    }

    fn gauges(&self) -> ServerGauges {
        ServerGauges {
            sessions_open: self.sessions.open_count() as u64,
            sessions_opened: self.sessions.opened_total(),
            session_evictions: self.sessions.evicted_total(),
            adapt_enabled: self.cfg.adapt.enabled,
            // Only the adapter thread moves the state off `Off`.
            adapt_state: self.adapt.state(),
            adapt_steps: self.adapt.steps(),
            adapt_rollbacks: self.adapt.rollbacks(),
            adapt_publishes: self.adapt.publishes(),
            adapt_cpu_ns: self.adapt.cpu_ns(),
            adapt_alloc_bytes: self.adapt.alloc_bytes(),
        }
    }
}

/// A running server; dropping it without calling [`ServerHandle::shutdown`]
/// detaches the threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    /// The online-adaptation thread, present only when
    /// [`AdaptConfig::enabled`] was set.
    adapter: Option<JoinHandle<()>>,
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
/// every model in `registry`, each behind its own replica pool.
pub fn serve(registry: Registry, addr: &str, cfg: ServeConfig) -> io::Result<ServerHandle> {
    serve_with_clock(registry, addr, cfg, SessionClock::monotonic())
}

/// [`serve`] with the session table aging its sessions on `clock`: a
/// [`SessionClock::manual`] clock lets a test step the server past the
/// session TTL instead of sleeping through it.
pub fn serve_with_clock(
    registry: Registry,
    addr: &str,
    cfg: ServeConfig,
    clock: SessionClock,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let pool_cfg = cfg.pool_cfg();
    let mut table = HashMap::new();
    for name in registry.names() {
        let model = Arc::clone(registry.get(Some(name)).unwrap());
        table.insert(
            name.to_string(),
            Arc::new(ModelEntry::start(name, 1, model, &pool_cfg)),
        );
    }
    let shared = Arc::new(Shared {
        table: RwLock::new(table),
        default: registry.default_name().to_string(),
        stop: AtomicBool::new(false),
        conns: LiveCount::default(),
        cfg,
        admission: Admission::new(cfg.admission),
        flow: FlowStats::new(),
        reload_lock: Mutex::new(()),
        sessions: SessionTable::with_clock(cfg.session, clock),
        adapt: AdaptShared::new(),
        examples: ExampleBuffer::new(cfg.adapt.buffer),
    });
    let shared2 = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("lttf-accept".to_string())
        .spawn(move || accept_loop(listener, shared2))
        .expect("spawn accept thread");
    // The adapter thread only exists when adaptation is on; a disabled
    // server has no background writer and stays bit-reproducible.
    let adapter = cfg.adapt.enabled.then(|| {
        shared.adapt.set_state(AdaptState::Idle);
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("lttf-adapt".to_string())
            .spawn(move || adapter_loop(shared))
            .expect("spawn adapter thread")
    });
    Ok(ServerHandle { addr, shared, accept, adapter })
}

impl ServerHandle {
    /// The bound address (port is concrete even when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight and queued work, and return each
    /// model's latency summary (current generation only — generations
    /// retired by reload reported their counts in the reload response).
    pub fn shutdown(self) -> Vec<(String, LatencySummary)> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`: a connection of our own
        // wakes it to see the flag. It then waits for every connection
        // thread before returning. (If the connect fails, the listener is
        // already broken and the loop has stopped accepting.)
        let _ = TcpStream::connect(wake_addr(self.addr));
        self.accept.join().expect("accept thread panicked");
        // The adapter must stop before the pools drain: a publish racing
        // the final drain would start a pool nobody shuts down.
        if let Some(h) = self.adapter {
            h.join().expect("adapter thread panicked");
        }
        let mut out = Vec::new();
        for entry in self.shared.entries() {
            out.push((entry.name().to_string(), entry.pool().drain()));
        }
        out
    }
}

/// The address shutdown connects to: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A count of running connection threads that can be waited down to zero.
#[derive(Default)]
struct LiveCount {
    n: Mutex<usize>,
    zero: Condvar,
}

impl LiveCount {
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.n.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn exit(&self) {
        let mut n = self.lock();
        *n -= 1;
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut n = self.lock();
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One counted connection thread: counted in when made, out when dropped
/// at the thread's end, panicking or not.
struct Leave(Arc<Shared>);

impl Leave {
    fn enter(shared: &Arc<Shared>) -> Leave {
        *shared.conns.lock() += 1;
        Leave(Arc::clone(shared))
    }
}

impl Drop for Leave {
    fn drop(&mut self) {
        self.0.conns.exit();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                lttf_obs::counter!("serve.connections", 1);
                let leave = Leave::enter(&shared);
                let shared = Arc::clone(&shared);
                let conn = move || {
                    let _leave = leave;
                    handle_conn(stream, shared)
                };
                // Detached: the live count, not a join handle, is what
                // shutdown waits on.
                let spawned = thread::Builder::new()
                    .name("lttf-conn".to_string())
                    .spawn(conn);
                if let Err(e) = spawned {
                    // The closure, and with it `leave`, is dropped: the
                    // count is already back.
                    eprintln!("serve: cannot spawn connection thread: {e}");
                }
            }
            // Out of descriptors or a similar transient error: back off
            // instead of spinning on it.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    shared.conns.wait_zero();
}

fn handle_conn(stream: TcpStream, shared: Arc<Shared>) {
    // Finite read timeouts turn a blocking read loop into a poll loop on
    // the shutdown flag.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Responses are single small lines; without TCP_NODELAY, Nagle +
    // delayed ACKs add tens of milliseconds per round trip.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // `read_line` keeps partially-read bytes in `line` across timeout
        // errors, so resuming with the same buffer is lossless.
        match reader.read_line(&mut line) {
            Ok(0) => break, // client closed
            Ok(_) => {
                if line.len() > MAX_LINE {
                    oversize_reject(&mut writer, &line);
                    break;
                }
                let response = answer(line.trim_end(), &shared);
                line.clear();
                if writeln!(writer, "{response}").and_then(|_| writer.flush()).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // A partial line that already exceeds the cap will never
                // become a valid request — refuse it without waiting for
                // the newline (which may be many megabytes away).
                if line.len() > MAX_LINE {
                    oversize_reject(&mut writer, &line);
                    break;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Answer an over-long request line with a protocol error (best-effort
/// id) — the caller closes the connection, since the line's framing can
/// no longer be trusted.
fn oversize_reject(writer: &mut TcpStream, line: &str) {
    lttf_obs::counter!("serve.line_too_long", 1);
    let id = extract_id(line).unwrap_or(0);
    let msg = format!("request line exceeds {MAX_LINE} bytes; closing connection");
    let _ = writeln!(writer, "{}", format_err(id, &msg)).and_then(|_| writer.flush());
}

/// Process one request line into one response line.
fn answer(line: &str, shared: &Shared) -> String {
    let _span = lttf_obs::span!("serve.request");
    lttf_obs::counter!("serve.requests", 1);
    if line.is_empty() {
        return format_err(0, "empty request line");
    }
    let req = match parse_command(line) {
        Ok(Command::Forecast(r)) => r,
        Ok(Command::Metrics { id }) => {
            let text =
                metrics::render(&shared.entries(), &shared.flow.rates(), &shared.gauges());
            return format_metrics(id, &text);
        }
        Ok(Command::Reload { id, model, path }) => {
            return reload(id, model.as_deref(), &path, shared);
        }
        Ok(Command::Open { id, model, t0, dt }) => {
            let name = model.as_deref().unwrap_or(&shared.default);
            let Some(entry) = shared.entry(name) else {
                return format_err(id, &format!("unknown model '{name}'"));
            };
            let shape = shared.session_shape(&entry);
            return match shared.sessions.open(name, shape, t0, dt) {
                Ok(session) => format_open_ok(id, session, shape.window_rows),
                Err(e) => format_err(id, &e),
            };
        }
        Ok(Command::Push { id, session, values }) => {
            return push_session(id, session, &values, shared);
        }
        Ok(Command::Close { id, session }) => {
            return match shared.sessions.close(session) {
                Ok(sum) => format_close_ok(id, session, sum.pushed_rows, sum.forecasts),
                Err(e) => format_err(id, &e),
            };
        }
        // Unparseable line — still try to salvage the client's id so the
        // error can be correlated, instead of a blanket id 0.
        Err(e) => {
            let id = extract_id(line).unwrap_or(0);
            return format_err(id, &format!("bad request: {e}"));
        }
    };
    let name = req.model.as_deref().unwrap_or(&shared.default);
    let Some(entry) = shared.entry(name) else {
        return format_err(req.id, &format!("unknown model '{name}'"));
    };
    // Admission runs before window preparation: refused work should cost
    // as close to nothing as possible.
    if let Err(denied) = shared.admission.admit(entry.pool().queue_depth()) {
        shared.flow.shed();
        return format_reject(req.id, denied.reason(), denied.retry_after_ms());
    }
    // Only admitted traffic is sketched: refused requests never reach the
    // model, so they should not move its input-distribution estimate.
    entry.drift().observe_input(&req.values);
    let deadline = req
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    match run_forecast(entry, &req.values, req.t0, req.dt, deadline, shared) {
        ForecastOutcome::Done { forecast, entry } => {
            format_ok(req.id, entry.generation(), &forecast)
        }
        ForecastOutcome::QueueFull => {
            // Aggregate queue capacity exhausted — same backoff hint
            // as a shed, since both mean "come back after a drain".
            shared.flow.rejected();
            format_reject(
                req.id,
                &Reject::QueueFull.to_string(),
                shared.admission.config().shed_retry_ms.max(1),
            )
        }
        ForecastOutcome::Failed(e) => format_err(req.id, &e),
    }
}

/// How one forecast fared against the replica pools.
enum ForecastOutcome {
    /// Answered; `entry` is the generation that actually served it
    /// (relevant after a mid-flight reload or adapter publish).
    Done {
        forecast: Vec<f32>,
        entry: Arc<ModelEntry>,
    },
    /// Aggregate queue capacity exhausted; the caller formats a reject
    /// with a retry hint.
    QueueFull,
    Failed(String),
}

/// Forecast the raw window `values` (first step at `t0`, `dt` seconds
/// apart), retrying across generation swaps: a pool drained under us (hot
/// reload, adapter publish, or shutdown) refuses the window, and a new
/// generation in the table means resubmit there. Each generation prepares
/// its own window from the raw values, with its own scaler and shape: a
/// window the retired generation scaled is never fed to its successor.
fn run_forecast(
    mut entry: Arc<ModelEntry>,
    values: &[f32],
    t0: i64,
    dt: i64,
    deadline: Option<Instant>,
    shared: &Shared,
) -> ForecastOutcome {
    for _ in 0..=RELOAD_RETRIES {
        let window = match entry.model().make_window(values, t0, dt) {
            Ok(w) => w,
            Err(e) => return ForecastOutcome::Failed(e),
        };
        let reply_rx = match entry.pool().submit(window, deadline) {
            Ok(rx) => rx,
            Err((_, Reject::QueueFull)) => return ForecastOutcome::QueueFull,
            Err((_, Reject::Closed)) => {
                // Re-read the table: a new generation means retry there;
                // the same one means the server is going away for real.
                match shared.entry(entry.name()) {
                    Some(cur) if cur.generation() != entry.generation() => {
                        lttf_obs::counter!("serve.reload_resubmit", 1);
                        shared.flow.resubmitted();
                        entry = cur;
                        continue;
                    }
                    _ => return ForecastOutcome::Failed(Reject::Closed.to_string()),
                }
            }
        };
        // The batcher answers every accepted job, even during drain; a
        // recv error means it died, which is a server bug worth surfacing.
        return match reply_rx.recv() {
            Ok(Ok(forecast)) => {
                entry.drift().observe_prediction(&forecast);
                ForecastOutcome::Done { forecast, entry }
            }
            Ok(Err(e)) => ForecastOutcome::Failed(e),
            Err(_) => ForecastOutcome::Failed("internal error: batcher gone".to_string()),
        };
    }
    ForecastOutcome::Failed("reload storm: retries exhausted".to_string())
}

/// Handle one `push`: append rows to the session, and when the rolling
/// window is full, forecast it through the same admission gate, drift
/// sketch, and micro-batching path as a one-shot request — so with
/// adaptation disabled a push forecast is bit-identical to a `forecast`
/// of the same window. When the adapter is enabled and the session
/// retains `lx + ly` rows, the trailing slice is harvested as a
/// supervised example.
fn push_session(id: u64, session: u64, values: &[f32], shared: &Shared) -> String {
    let Some(name) = shared.sessions.model_of(session) else {
        return format_err(id, "unknown session");
    };
    let Some(entry) = shared.entry(&name) else {
        return format_err(id, &format!("unknown model '{name}'"));
    };
    // Same gate as one-shot forecasts: refused pushes cost no model work
    // and are not appended (the client retries the same rows).
    if let Err(denied) = shared.admission.admit(entry.pool().queue_depth()) {
        shared.flow.shed();
        return format_reject(id, denied.reason(), denied.retry_after_ms());
    }
    let shape = shared.session_shape(&entry);
    let outcome = match shared.sessions.push(session, values, shape) {
        Ok(o) => o,
        Err(e) => return format_err(id, &e),
    };
    // Sketch the new rows (each row exactly once — windows overlap, so
    // sketching whole windows would double-count the stream).
    entry.drift().observe_input(values);
    if shared.cfg.adapt.enabled {
        if let Some((ex_values, ex_t0)) = outcome.example {
            shared.examples.push(Example {
                values: ex_values,
                t0: ex_t0,
                dt: outcome.dt,
            });
        }
    }
    let Some((win_values, win_t0)) = outcome.window else {
        return format_push_pending(id, session, outcome.pending);
    };
    match run_forecast(entry, &win_values, win_t0, outcome.dt, None, shared) {
        ForecastOutcome::Done { forecast, entry } => {
            format_push_ok(id, session, entry.generation(), entry.adapted(), &forecast)
        }
        ForecastOutcome::QueueFull => {
            shared.flow.rejected();
            format_reject(
                id,
                &Reject::QueueFull.to_string(),
                shared.admission.config().shed_retry_ms.max(1),
            )
        }
        ForecastOutcome::Failed(e) => format_err(id, &e),
    }
}

/// Handle a `reload` command: load the checkpoint, start the next
/// generation's pool, swap it into the routing table, drain the retired
/// generation. Failures leave the current generation serving untouched.
fn reload(id: u64, model: Option<&str>, path: &str, shared: &Shared) -> String {
    let _guard = shared.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
    let name = model.unwrap_or(&shared.default).to_string();
    let Some(old) = shared.entry(&name) else {
        return format_err(id, &format!("unknown model '{name}'"));
    };
    let loaded = match LoadedModel::load(path) {
        Ok(m) => m,
        Err(e) => return format_err(id, &format!("reload failed: {e}")),
    };
    let next_gen = old.generation() + 1;
    let entry = Arc::new(ModelEntry::start(
        &name,
        next_gen,
        Arc::new(loaded),
        &shared.cfg.pool_cfg(),
    ));
    let replicas = entry.pool().replicas();
    // The swap: one write-locked map insert. Connection threads that
    // read the table after this point route to the new generation.
    shared
        .table
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.clone(), entry);
    // Drain the retired generation only after the swap, so its queued
    // requests finish while new traffic already flows to the new one.
    let summary = old.pool().drain();
    lttf_obs::counter!("serve.reloads", 1);
    format_reload_ok(id, next_gen, replicas, summary.count as u64)
}

/// The online-adaptation thread body: poll the default model's drift
/// monitor; while it alerts and enough examples are buffered, fine-tune
/// a copy of the live model and publish it as a new generation (or roll
/// back on a watchdog trip). See `crate::adapt` for the tune/rollback
/// contract and DESIGN.md §12 for the state machine.
fn adapter_loop(shared: Arc<Shared>) {
    let cfg = shared.cfg.adapt;
    let tick = Duration::from_millis(cfg.interval_ms.clamp(10, 60_000));
    let mut round: u64 = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        thread::sleep(tick);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Some(entry) = shared.entry(&shared.default) else {
            continue;
        };
        // Triggered, not periodic: only an input-distribution alert
        // (with enough harvested examples) starts a round.
        if !entry.drift().status().alert || shared.examples.len() < cfg.min_examples.max(1) {
            continue;
        }
        shared.adapt.set_state(AdaptState::Adapting);
        round += 1;
        let examples = shared.examples.recent(cfg.batch.max(1));
        let seed = shared.cfg.seed.wrapping_add(round);
        // Cost-attribute the fine-tune round so `metrics`/`watch` can show
        // what online adaptation steals from serving. Process-CPU, like
        // the request path: the round's forwards and backwards run on
        // the shared pool.
        let round_span = lttf_obs::span!("serve.adapt.round");
        let cpu_before = lttf_obs::cputime::process_cpu_ns();
        let alloc_before = lttf_obs::alloc::alloc_bytes_total();
        let outcome = adapt::fine_tune(entry.model(), &examples, &cfg, seed, &shared.adapt);
        shared.adapt.add_cost(
            lttf_obs::cputime::process_cpu_ns().saturating_sub(cpu_before),
            lttf_obs::alloc::alloc_bytes_total().saturating_sub(alloc_before),
        );
        drop(round_span);
        match outcome {
            Ok((tuned, loss)) => {
                if publish_adapted(&entry, tuned, &shared) {
                    shared.adapt.add_publish();
                    if !lttf_obs::env::quiet() {
                        eprintln!(
                            "[adapt] published generation for '{}' (round {round}, loss {loss:.4})",
                            entry.name()
                        );
                    }
                } else {
                    // A reload raced the round; the tuned copy was based
                    // on retired parameters and is simply dropped.
                    shared.adapt.set_state(AdaptState::Idle);
                }
            }
            Err(e) => {
                shared.adapt.add_rollback();
                if !lttf_obs::env::quiet() {
                    eprintln!("[adapt] rolled back round {round}: {e}");
                }
            }
        }
    }
}

/// Swap a fine-tuned model in as the next generation of `old`'s name —
/// the same swap-then-drain dance as `reload`, under the same lock.
/// Returns false (publishing nothing) when a reload retired `old` while
/// the round was running: the tuned parameters would be based on a stale
/// generation.
fn publish_adapted(old: &Arc<ModelEntry>, tuned: lttf_eval::TrainedModel, shared: &Shared) -> bool {
    let _guard = shared.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
    let Some(cur) = shared.entry(old.name()) else {
        return false;
    };
    if cur.generation() != old.generation() {
        lttf_obs::counter!("serve.adapt.stale_round", 1);
        return false;
    }
    let loaded = Arc::new(cur.model().with_model(tuned));
    let entry = Arc::new(ModelEntry::start_tagged(
        old.name(),
        cur.generation() + 1,
        loaded,
        &shared.cfg.pool_cfg(),
        true,
    ));
    shared
        .table
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .insert(old.name().to_string(), entry);
    cur.pool().drain();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{format_request, parse_reload_response, parse_response_meta, Request};
    use crate::registry::tiny_model;
    use lttf_tensor::{Rng, Tensor};

    fn request(id: u64, values: &[f32]) -> Request {
        Request {
            id,
            values: values.to_vec(),
            t0: 1_700_000_000,
            dt: 3600,
            deadline_ms: None,
            model: None,
        }
    }

    fn request_line(id: u64, values: &[f32]) -> String {
        format_request(&request(id, values))
    }

    fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(resp.trim_end().to_string());
        }
        out
    }

    #[test]
    fn tcp_round_trip_and_shutdown_summary() {
        let model = tiny_model();
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(11))
            .data()
            .to_vec();
        let expect = model.forecast_one(&raw, 1_700_000_000, 3600).unwrap();
        let reg = Registry::single("demo", model);
        let handle = serve(reg, "127.0.0.1:0", ServeConfig::default()).unwrap();

        let responses = roundtrip(handle.addr(), &[request_line(5, &raw)]);
        let meta = parse_response_meta(&responses[0]).unwrap();
        assert_eq!(meta.id, 5);
        assert_eq!(meta.generation, Some(1), "first generation must stamp gen 1");
        assert_eq!(meta.result.unwrap(), expect, "wire forecast != direct forward");

        let bad = roundtrip(handle.addr(), &["{\"id\":9,\"t0\":0}".to_string()]);
        let meta = parse_response_meta(&bad[0]).unwrap();
        assert_eq!(meta.id, 9, "parse-failure replies must echo the extracted id");
        assert!(meta.result.unwrap_err().contains("bad request"));

        let summaries = handle.shutdown();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].0, "demo");
        assert_eq!(summaries[0].1.count, 1);
    }

    /// Connection threads are counted out as they end, with no new
    /// connection to prompt it, and shutdown waits for an open client's
    /// thread while the accept loop, blocked in `accept`, is woken.
    #[test]
    fn connection_threads_are_counted_out_and_shutdown_waits_for_them() {
        let model = tiny_model();
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(12))
            .data()
            .to_vec();
        let handle = serve(
            Registry::single("demo", model),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .unwrap();
        let live = |h: &ServerHandle| *h.shared.conns.lock();
        roundtrip(handle.addr(), &[request_line(1, &raw)]);
        // The client closed: its thread ends within a read poll.
        let t0 = Instant::now();
        while live(&handle) > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "finished thread still counted"
            );
            thread::sleep(Duration::from_millis(5));
        }
        // An idle client holds its thread until shutdown stops it.
        let idle = TcpStream::connect(handle.addr()).unwrap();
        let t0 = Instant::now();
        while live(&handle) == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "connection never accepted"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let shared = Arc::clone(&handle.shared);
        let summaries = handle.shutdown();
        assert_eq!(
            *shared.conns.lock(),
            0,
            "shutdown returned before its connections ended"
        );
        assert_eq!(summaries[0].1.count, 1);
        drop(idle);
    }

    #[test]
    fn replicated_server_serves_identically() {
        let model = tiny_model();
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(31))
            .data()
            .to_vec();
        let expect = model.forecast_one(&raw, 1_700_000_000, 3600).unwrap();
        let reg = Registry::single("demo", model);
        let cfg = ServeConfig {
            replicas: 3,
            policy: Policy::LeastQueueDepth,
            threads_per_replica: Some(1),
            ..ServeConfig::default()
        };
        let handle = serve(reg, "127.0.0.1:0", cfg).unwrap();
        let lines: Vec<String> = (0..6).map(|i| request_line(i, &raw)).collect();
        for resp in roundtrip(handle.addr(), &lines) {
            assert_eq!(parse_response_meta(&resp).unwrap().result.unwrap(), expect);
        }
        let summaries = handle.shutdown();
        assert_eq!(summaries[0].1.count, 6);
    }

    #[test]
    fn metrics_request_reports_live_state() {
        let model = tiny_model();
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(21))
            .data()
            .to_vec();
        let reg = Registry::single("demo", model);
        let handle = serve(reg, "127.0.0.1:0", ServeConfig::default()).unwrap();

        let lines = [
            request_line(1, &raw),
            "{\"id\":2,\"cmd\":\"metrics\"}".to_string(),
        ];
        let responses = roundtrip(handle.addr(), &lines);
        let (id, text) = crate::protocol::parse_metrics_response(&responses[1]).unwrap();
        assert_eq!(id, 2);
        let text = text.unwrap();
        assert!(text.contains("lttf_up 1\n"), "{text}");
        assert!(
            text.contains("lttf_serve_requests_served_total{model=\"demo\"} 1\n"),
            "live latency must already count the first request: {text}"
        );
        assert!(
            text.contains("lttf_serve_latency_seconds{model=\"demo\",gen=\"1\",quantile=\"0.5\"}"),
            "windowed quantiles must carry the generation label: {text}"
        );
        assert!(text.contains("lttf_serve_replicas{model=\"demo\"} 1\n"), "{text}");
        assert!(text.contains("lttf_serve_generation{model=\"demo\"} 1\n"), "{text}");
        assert!(text.contains("lttf_health_diverged"), "{text}");
        lttf_obs::metrics::validate(&text).expect("live exposition must validate");

        // The same exposition, read through the validated lookup.
        let doc = lttf_obs::metrics::validate(&text).unwrap();
        let demo = [("model", "demo")];
        assert_eq!(doc.get("lttf_serve_generation", &demo), Some(1.0));
        assert_eq!(doc.get("lttf_serve_requests_served_total", &demo), Some(1.0));
        let gen1 = [("model", "demo"), ("gen", "1")];
        assert!(doc.get("lttf_serve_window_requests", &gen1).unwrap() >= 1.0, "{text}");
        let p = |q| {
            let labels = [("model", "demo"), ("gen", "1"), ("quantile", q)];
            doc.get("lttf_serve_latency_seconds", &labels).unwrap()
        };
        assert!(p("0.5") > 0.0 && p("0.5") <= p("0.99"), "{text}");
        let available = doc.get("lttf_drift_available", &demo);
        assert_eq!(available, Some(0.0), "tiny model carries no profile");
        assert_eq!(doc.get("lttf_drift_alert", &demo), Some(0.0));
        assert_eq!(doc.get("lttf_adapt_state", &[("state", "off")]), Some(1.0));

        // `stats` is an unknown command; the refusal echoes its id.
        let bad = roundtrip(handle.addr(), &["{\"id\":4,\"cmd\":\"stats\"}".to_string()]);
        let meta = parse_response_meta(&bad[0]).unwrap();
        assert_eq!(meta.id, 4);
        assert_eq!(meta.result.unwrap_err(), "bad request: unknown cmd 'stats'");
        handle.shutdown();
    }

    /// A forecast that races a swap is resubmitted as raw values: the
    /// generation that serves it prepares the window with its own scaler,
    /// and one whose input shape changed refuses it with the shape error.
    /// Deterministic: the test drains the old pool and swaps the table
    /// itself, then resubmits through the retired entry.
    #[test]
    fn resubmitted_forecast_is_prepared_by_the_serving_generation() {
        use lttf_conformer::ConformerConfig;
        use lttf_data::StandardScaler;
        use lttf_eval::TrainedModel;

        let (t0, dt) = (1_700_000_000, 3600);
        let model = tiny_model();
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(51))
            .data()
            .to_vec();
        let old_forecast = model.forecast_one(&raw, t0, dt).unwrap();
        // The same parameters behind another scaler.
        let cfg = ConformerConfig::tiny(2, 8, 4);
        let fit_on = Tensor::randn(&[64, 2], &mut Rng::seed(10)).mul_scalar(0.5);
        let scaler = StandardScaler::fit(&fit_on);
        let trained = TrainedModel::from_conformer(&cfg, 3);
        let rescaled = LoadedModel::from_parts(trained, cfg, scaler, "OT".to_string(), 1);
        let new_forecast = rescaled.forecast_one(&raw, t0, dt).unwrap();
        assert_ne!(new_forecast, old_forecast, "the scalers must disagree");

        let handle = serve(
            Registry::single("demo", model),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .unwrap();
        let shared = &handle.shared;
        // Swap `next` in as the next generation and drain the current one,
        // as a reload does; returns the retired entry.
        let swap = |next: LoadedModel| {
            let old = shared.entry("demo").unwrap();
            let gen = old.generation() + 1;
            let entry = ModelEntry::start("demo", gen, Arc::new(next), &shared.cfg.pool_cfg());
            shared.table.write().unwrap().insert("demo".to_string(), Arc::new(entry));
            old.pool().drain();
            old
        };

        let retired = swap(rescaled);
        match run_forecast(retired, &raw, t0, dt, None, shared) {
            ForecastOutcome::Done { forecast, entry } => {
                assert_eq!(entry.generation(), 2);
                assert_eq!(forecast, new_forecast, "scaled by the retired generation's scaler");
            }
            ForecastOutcome::QueueFull => panic!("queue full"),
            ForecastOutcome::Failed(e) => panic!("resubmit failed: {e}"),
        }

        let retired = swap(crate::registry::tiny_model_with_c_in(3));
        match run_forecast(retired, &raw, t0, dt, None, shared) {
            ForecastOutcome::Failed(e) => {
                assert_eq!(e, "expected 24 values (lx 8 x c_in 3), got 16");
            }
            ForecastOutcome::Done { .. } => panic!("a 2-variable window fed a 3-variable model"),
            ForecastOutcome::QueueFull => panic!("queue full"),
        }
        handle.shutdown();
    }

    #[test]
    fn unknown_model_is_rejected() {
        let model = tiny_model();
        let raw = vec![0.5f32; model.window_len()];
        let reg = Registry::single("demo", model);
        let handle = serve(reg, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let line = format_request(&Request {
            model: Some("nope".to_string()),
            ..request(1, &raw)
        });
        let responses = roundtrip(handle.addr(), &[line]);
        let res = parse_response_meta(&responses[0]).unwrap().result;
        assert!(res.unwrap_err().contains("unknown model"));
        handle.shutdown();
    }

    #[test]
    fn oversize_line_gets_protocol_error_and_close() {
        let model = tiny_model();
        let reg = Registry::single("demo", model);
        let handle = serve(reg, "127.0.0.1:0", ServeConfig::default()).unwrap();

        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // id first so the error reply can echo it even though the line is
        // rejected long before the closing brace.
        write!(writer, "{{\"id\":77,\"values\":[").unwrap();
        let filler = "1.0,".repeat(64 * 1024); // 256 KiB per chunk
        let mut written = 22;
        while written <= MAX_LINE {
            write!(writer, "{filler}").unwrap();
            written += filler.len();
        }
        writeln!(writer, "1.0]}}").unwrap();
        writer.flush().unwrap();

        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let meta = parse_response_meta(resp.trim_end()).unwrap();
        assert_eq!(meta.id, 77, "oversize reject must carry the extracted id");
        assert!(meta.result.unwrap_err().contains("exceeds"), "{resp}");
        // The server closes the connection after the reject.
        let mut next = String::new();
        assert_eq!(reader.read_line(&mut next).unwrap_or(0), 0, "connection must be closed");
        handle.shutdown();
    }

    #[test]
    fn rate_limit_refuses_with_retry_hint() {
        let model = tiny_model();
        let raw = vec![0.25f32; model.window_len()];
        let reg = Registry::single("demo", model);
        let cfg = ServeConfig {
            admission: AdmissionConfig {
                rate: Some(0.001), // one token per ~17 minutes
                burst: 2.0,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        };
        let handle = serve(reg, "127.0.0.1:0", cfg).unwrap();
        let lines: Vec<String> = (0..3).map(|i| request_line(i, &raw)).collect();
        let responses = roundtrip(handle.addr(), &lines);
        for resp in &responses[..2] {
            let res = parse_response_meta(resp).unwrap().result;
            assert!(res.is_ok(), "burst capacity must admit: {resp}");
        }
        let meta = parse_response_meta(&responses[2]).unwrap();
        assert_eq!(meta.result.unwrap_err(), "rate limited");
        assert!(meta.retry_after_ms.unwrap() >= 1, "hint must be present");
        handle.shutdown();
    }

    #[test]
    fn reload_swaps_generation_on_the_wire() {
        let dir = std::env::temp_dir().join(format!(
            "lttf-reload-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ckpt");
        let base = base.to_str().unwrap();

        let model = tiny_model();
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(41))
            .data()
            .to_vec();
        model.save(base).unwrap();
        let reg = Registry::single("demo", model);
        let handle = serve(reg, "127.0.0.1:0", ServeConfig::default()).unwrap();

        let reload_line = crate::protocol::format_reload(50, Some("demo"), base);
        let lines = [
            request_line(1, &raw),
            reload_line,
            request_line(2, &raw),
            crate::protocol::format_reload(51, None, &format!("{base}-missing")),
            request_line(3, &raw),
        ];
        let responses = roundtrip(handle.addr(), &lines);

        let before = parse_response_meta(&responses[0]).unwrap();
        assert_eq!(before.generation, Some(1));
        let (id, info) = parse_reload_response(&responses[1]).unwrap();
        assert_eq!(id, 50);
        let info = info.unwrap();
        assert_eq!(info.generation, 2);
        assert_eq!(info.replicas, 1);
        assert_eq!(info.drained, 1, "gen 1 served exactly one request");
        let after = parse_response_meta(&responses[2]).unwrap();
        assert_eq!(after.generation, Some(2), "post-reload traffic must hit gen 2");
        assert_eq!(after.result.unwrap(), before.result.unwrap(), "same checkpoint, same bits");
        // A failed reload must leave the current generation serving.
        let (_, bad) = parse_reload_response(&responses[3]).unwrap();
        assert!(bad.unwrap_err().contains("reload failed"));
        let still = parse_response_meta(&responses[4]).unwrap();
        assert_eq!(still.generation, Some(2));

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
