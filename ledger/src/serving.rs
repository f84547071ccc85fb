//! The serving workloads: `tcp_mixed` over the socket front end, and
//! `engine_light` / `engine_heavy` in process on `ReplicaPool::submit`.
//! All three are closed loops.
//!
//! Load limit: the host this benchmark targets has two cores, so the
//! generator uses at most one thread and one connection.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lttf::serve::protocol::{
    format_close, format_open, format_push, parse_close_response, parse_open_response,
    parse_push_response, parse_response_meta, PushReply,
};
use lttf::serve::{
    serve, BatchConfig, LoadedModel, ModelEntry, PoolConfig, Registry, Reply, ServeConfig,
    ServerHandle,
};

use crate::affinity;
use crate::host;
use crate::inputs::{OneShot, Prepared, SESSIONS, SESSION_PUSHES};
use crate::meter::{Measured, Meter, Phase};
use crate::metrics::{same_bits, Checks};

/// Requests `engine_heavy` keeps in flight: two full batches, one being
/// served while the next waits.
pub const HEAVY_OUTSTANDING: usize = 16;
/// The latency percentile the serving workloads report as
/// `latency_tail_ms`.
pub const TAIL: f64 = 0.99;
/// Upper bound on completions per second, sizing sample buffers before
/// timing starts.
const MAX_RATE: f64 = 20_000.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// tcp_mixed
// ---------------------------------------------------------------------------

/// One blocking connection speaking the line protocol.
pub(crate) struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: String,
    reply: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // As the server does: without it Nagle and delayed ACKs add tens
        // of milliseconds per round trip.
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            out: String::new(),
            reply: String::new(),
        })
    }

    /// Send one request line and wait for its reply; returns the round
    /// trip. The reply is left in `self.reply`.
    fn call(&mut self, line: &str) -> io::Result<Duration> {
        self.out.clear();
        self.out.push_str(line);
        self.out.push('\n');
        self.reply.clear();
        let t = Instant::now();
        self.writer.write_all(self.out.as_bytes())?;
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(t.elapsed())
    }

    /// Send one-shot request `i` and check its reply against the
    /// precomputed forecast; returns the round trip.
    pub(crate) fn oneshot(
        &mut self,
        p: &Prepared,
        i: usize,
        checks: &mut Checks,
    ) -> io::Result<Duration> {
        let req = &p.oneshot[i];
        let d = self.call(&req.line)?;
        let ok = match parse_response_meta(self.reply.trim_end()) {
            Ok(m) => {
                m.id == i as u64
                    && m.generation == Some(1)
                    && m.result
                        .as_deref()
                        .is_ok_and(|f| same_bits(f, &req.expected))
            }
            Err(_) => false,
        };
        checks.check(ok, || {
            format!("one-shot {i}: unexpected reply {}", self.reply.trim_end())
        });
        Ok(d)
    }
}

/// Start a `tcp_mixed` server on the checkpoint (`max_batch 1`, other
/// settings default), connect, and take the first, cold one-shot reply;
/// returns the server and the connection, and the seconds all that took.
pub(crate) fn start_tcp(
    p: &Prepared,
    checks: &mut Checks,
) -> io::Result<((ServerHandle, Client), f64)> {
    let cfg = ServeConfig {
        batch: BatchConfig {
            max_batch: 1,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let t = Instant::now();
    let model = LoadedModel::load(&p.base)?;
    let handle = serve(Registry::single("ledger", model), "127.0.0.1:0", cfg)?;
    let mut client = Client::connect(handle.addr())?;
    client.oneshot(p, 0, checks)?;
    Ok(((handle, client), t.elapsed().as_secs_f64()))
}

/// Where the round trips of a measured burst go, in ms.
struct Tally<'a> {
    /// Replies carrying a forecast.
    forecast: &'a mut Vec<f64>,
    /// Pending pushes, opens and closes.
    write: &'a mut Vec<f64>,
}

/// File one round trip as a forecast or a write. Nothing is recorded
/// during warm-up.
fn record(rec: &mut Option<Tally<'_>>, d: Duration, forecast: bool) {
    if let Some(t) = rec {
        if forecast {
            t.forecast.push(ms(d));
        } else {
            t.write.push(ms(d));
        }
    }
}

/// Where the `[forecast, push, push, push]` stream stands.
struct Mix<'a> {
    p: &'a Prepared,
    client: Client,
    /// Server session id per slot.
    sessions: Vec<u64>,
    /// Rows pushed into each slot's current session.
    pushed: Vec<usize>,
    step: u64,
    next_slot: usize,
    next_oneshot: usize,
    id: u64,
}

impl Mix<'_> {
    fn next_id(&mut self) -> u64 {
        self.id += 1;
        self.id
    }

    fn open(
        &mut self,
        slot: usize,
        rec: &mut Option<Tally<'_>>,
        checks: &mut Checks,
    ) -> io::Result<()> {
        let s = &self.p.streams[slot];
        let id = self.next_id();
        let line = format_open(id, None, s.t0, self.p.plan.dt);
        let d = self.client.call(&line)?;
        let lx = self.p.model.cfg().lx;
        let session = match parse_open_response(self.client.reply.trim_end()) {
            Ok((rid, Ok((session, window)))) if rid == id && window == lx => Some(session),
            _ => None,
        };
        checks.check(session.is_some(), || {
            format!("open: unexpected reply {}", self.client.reply.trim_end())
        });
        self.sessions[slot] = session.unwrap_or(0);
        self.pushed[slot] = 0;
        record(rec, d, false);
        Ok(())
    }

    fn close(
        &mut self,
        slot: usize,
        rec: &mut Option<Tally<'_>>,
        checks: &mut Checks,
    ) -> io::Result<()> {
        let id = self.next_id();
        let d = self.client.call(&format_close(id, self.sessions[slot]))?;
        let lx = self.p.model.cfg().lx;
        let want = (SESSION_PUSHES as u64, (SESSION_PUSHES + 1 - lx) as u64);
        let ok = matches!(parse_close_response(self.client.reply.trim_end()), Ok((rid, Ok(got))) if rid == id && got == want);
        checks.check(ok, || {
            format!("close: unexpected reply {}", self.client.reply.trim_end())
        });
        record(rec, d, false);
        Ok(())
    }

    /// One step of the stream: a one-shot forecast every fourth step, a
    /// push to the next session slot otherwise (closing and reopening a
    /// session that has taken `SESSION_PUSHES` rows first).
    fn step(&mut self, rec: &mut Option<Tally<'_>>, checks: &mut Checks) -> io::Result<()> {
        let p = self.p;
        let step = self.step;
        self.step += 1;
        if step.is_multiple_of(4) {
            let i = self.next_oneshot;
            self.next_oneshot = (i + 1) % p.oneshot.len();
            let d = self.client.oneshot(p, i, checks)?;
            record(rec, d, true);
            return Ok(());
        }
        let slot = self.next_slot;
        self.next_slot = (slot + 1) % SESSIONS;
        if self.pushed[slot] == SESSION_PUSHES {
            self.close(slot, rec, checks)?;
            self.open(slot, rec, checks)?;
        }
        let (c, lx) = (p.model.cfg().c_in, p.model.cfg().lx);
        let k = self.pushed[slot];
        self.pushed[slot] += 1;
        let stream = &p.streams[slot];
        let id = self.next_id();
        let line = format_push(id, self.sessions[slot], &stream.rows[k * c..(k + 1) * c]);
        let d = self.client.call(&line)?;
        let have = k + 1;
        let (ok, forecast) = match parse_push_response(self.client.reply.trim_end()) {
            Ok((rid, Ok(PushReply::Pending(n)))) => {
                (rid == id && have < lx && n == lx - have, false)
            }
            Ok((
                rid,
                Ok(PushReply::Forecast {
                    generation,
                    adapted,
                    forecast,
                }),
            )) => (
                rid == id
                    && have >= lx
                    && generation == 1
                    && !adapted
                    && same_bits(&forecast, &stream.expected[have - lx]),
                true,
            ),
            _ => (false, false),
        };
        checks.check(ok, || {
            format!(
                "push {k} on slot {slot}: unexpected reply {}",
                self.client.reply.trim_end()
            )
        });
        record(rec, d, forecast);
        Ok(())
    }
}

/// What one `tcp_mixed` run measured.
pub struct TcpRun {
    /// End-to-end numbers; the unit of work is a reply carrying a
    /// forecast, the throughput counts every reply.
    pub measured: Measured,
    /// Latency of every pending push, open and close, ms.
    pub write: Vec<f64>,
    /// Replies carrying a forecast, over every burst.
    pub forecasts: usize,
    /// Checks of every reply.
    pub checks: Checks,
}

/// `tcp_mixed`: one connection, closed loop, against a server with
/// `max_batch 1` and otherwise default settings.
///
/// Client and server share one core. Every request crosses four threads
/// (client, connection, batcher, back); on the two-vCPU host this
/// benchmark was built on, a wakeup across vCPUs costs a variable 0.1 to
/// 0.5 ms, which split runs between two latency modes (p50 spread 38%
/// over six seeds unpinned, 6% pinned).
pub fn tcp_mixed(p: &Prepared, phase: Phase) -> io::Result<TcpRun> {
    let cpus = host::cpus(1);
    affinity::pinned(&cpus, || tcp_mixed_pinned(p, phase, cpus.first().copied()))
}

fn tcp_mixed_pinned(p: &Prepared, phase: Phase, cpu: Option<usize>) -> io::Result<TcpRun> {
    let mut checks = Checks::default();
    let capacity = (phase.seconds * MAX_RATE) as usize;
    // `max_batch 1`: every batch flushes at once, no timer wait.
    let mut m = Meter::new(cpu, 0.0, phase, capacity);
    let (handle, client) = m.setup(|| start_tcp(p, &mut checks))?;
    let mut mix = Mix {
        p,
        client,
        sessions: vec![0; SESSIONS],
        pushed: vec![0; SESSIONS],
        step: 0,
        next_slot: 0,
        next_oneshot: 1,
        id: 1 << 32,
    };
    for slot in 0..SESSIONS {
        mix.open(slot, &mut None, &mut checks)?;
    }
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < phase.warmup {
        mix.step(&mut None, &mut checks)?;
    }
    let mut write = Vec::with_capacity(capacity);
    m.reserve(&write);
    let mut forecasts = 0;
    while m.measuring() {
        if m.setup_due() {
            m.setup(|| {
                let ((handle, client), secs) = start_tcp(p, &mut checks)?;
                drop(client);
                handle.shutdown();
                Ok(((), secs))
            })?;
        }
        m.burst(|latency, len| {
            let (f0, w0) = (latency.len(), write.len());
            let mut rec = Some(Tally {
                forecast: latency,
                write: &mut write,
            });
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < len {
                mix.step(&mut rec, &mut checks)?;
            }
            let f = rec.as_ref().map_or(0, |r| r.forecast.len()) - f0;
            forecasts += f;
            Ok(f + write.len() - w0)
        })?;
    }
    let measured = m.finish(TAIL);
    drop(mix);
    handle.shutdown();
    Ok(TcpRun {
        measured,
        write,
        forecasts,
        checks,
    })
}

// ---------------------------------------------------------------------------
// engine_light / engine_heavy
// ---------------------------------------------------------------------------

/// The connection-thread path minus the socket: sketch the input, prepare
/// the window, submit it to the pool.
fn submit(entry: &ModelEntry, req: &OneShot, dt: i64) -> Result<Receiver<Reply>, String> {
    entry.drift().observe_input(&req.values);
    let window = entry.model().make_window(&req.values, req.t0, dt)?;
    entry
        .pool()
        .submit(window, None)
        .map_err(|(_, r)| r.to_string())
}

/// Wait for one reply, sketch the prediction, check it.
fn collect(
    entry: &ModelEntry,
    sub: Result<Receiver<Reply>, String>,
    i: usize,
    req: &OneShot,
    checks: &mut Checks,
) {
    let reply = sub.and_then(|rx| rx.recv().map_err(|_| "batcher gone".to_string())?);
    match reply {
        Ok(forecast) => {
            entry.drift().observe_prediction(&forecast);
            checks.check(same_bits(&forecast, &req.expected), || {
                format!("engine request {i}: wrong forecast")
            });
        }
        Err(e) => checks.fail(format!("engine request {i}: {e}")),
    }
}

/// What one engine workload measured.
pub struct EngineRun {
    /// End-to-end numbers; the unit of work is a request, timed from
    /// submit to reply.
    pub measured: Measured,
    /// Median queue wait from the pool's `ServeStats`, ms.
    pub queue_wait_p50_ms: f64,
    /// Median batch service time from the pool's `ServeStats`, ms.
    pub service_p50_ms: f64,
    /// Requests per batch (`total.count / service.count`).
    pub batch_size_mean: f64,
    /// Checks of every reply.
    pub checks: Checks,
}

/// Load the checkpoint, start a pool on it with `cfg` and serve a first,
/// cold batch of `max_batch` requests, all on the calling thread's CPU;
/// returns the pool and the seconds that took. A full batch flushes
/// without waiting out `max_wait_ms`, so the set-up is work on that CPU
/// alone.
fn start_engine(
    p: &Prepared,
    cfg: &PoolConfig,
    checks: &mut Checks,
) -> io::Result<(ModelEntry, f64)> {
    let t = Instant::now();
    let model = LoadedModel::load(&p.base)?;
    let entry = ModelEntry::start("ledger", 1, Arc::new(model), cfg);
    let cold: Vec<_> = (0..cfg.batch.max_batch)
        .map(|i| submit(&entry, &p.oneshot[i], p.plan.dt))
        .collect();
    for (i, sub) in cold.into_iter().enumerate() {
        collect(&entry, sub, i, &p.oneshot[i], checks);
    }
    Ok((entry, t.elapsed().as_secs_f64()))
}

/// Keep `outstanding` requests in flight from one thread for `len`
/// seconds; appends each request's latency from submit to reply, in ms,
/// and returns the requests completed.
fn closed_loop(
    entry: &ModelEntry,
    p: &Prepared,
    (outstanding, len): (usize, f64),
    next: &mut usize,
    latency: &mut Vec<f64>,
    checks: &mut Checks,
) -> usize {
    let dt = p.plan.dt;
    let n = p.oneshot.len();
    let start = Instant::now();
    let mut inflight = VecDeque::with_capacity(outstanding);
    let mut issue = |inflight: &mut VecDeque<_>| {
        let i = *next;
        *next += 1;
        let sent = Instant::now();
        inflight.push_back((i, sent, submit(entry, &p.oneshot[i % n], dt)));
    };
    for _ in 0..outstanding {
        issue(&mut inflight);
    }
    let mut done = 0;
    // One replica and a FIFO queue: the oldest request completes first.
    while let Some((i, sent, sub)) = inflight.pop_front() {
        collect(entry, sub, i, &p.oneshot[i % n], checks);
        latency.push(ms(sent.elapsed()));
        done += 1;
        if start.elapsed().as_secs_f64() < len {
            issue(&mut inflight);
        }
    }
    done
}

/// `engine_light`: one request at a time on the default `PoolConfig`, so
/// every request is a batch of one that waits out `max_wait_ms` before
/// its forward. Pool and client share one CPU.
pub fn engine_light(p: &Prepared, phase: Phase) -> io::Result<EngineRun> {
    let cpu = host::cpus(1);
    engine(p, phase, 1, (&cpu, &cpu))
}

/// `engine_heavy`: `HEAVY_OUTSTANDING` requests in flight on the default
/// `PoolConfig`, so every batch is full and the batch-8 forward sets the
/// pace. The pool's threads run on one CPU, started from a thread pinned
/// there, and the client on the other, so the probes time the CPU the
/// forwards run on.
pub fn engine_heavy(p: &Prepared, phase: Phase) -> io::Result<EngineRun> {
    let cpus = host::cpus(2);
    let (client, pool) = cpus.split_at(cpus.len() / 2);
    engine(p, phase, HEAVY_OUTSTANDING, (client, pool))
}

fn engine(
    p: &Prepared,
    phase: Phase,
    outstanding: usize,
    (client, pool): (&[usize], &[usize]),
) -> io::Result<EngineRun> {
    affinity::pinned(client, || {
        let cfg = PoolConfig::default();
        // One request alone in its batch waits out the flush timer; a
        // full batch flushes at once.
        let timer_ms = if outstanding < cfg.batch.max_batch {
            cfg.batch.max_wait_ms as f64
        } else {
            0.0
        };
        let mut checks = Checks::default();
        let capacity = (phase.seconds * MAX_RATE) as usize;
        let mut m = Meter::new(pool.first().copied(), timer_ms, phase, capacity);
        let start = |checks: &mut Checks| affinity::pinned(pool, || start_engine(p, &cfg, checks));
        let entry = m.setup(|| start(&mut checks))?;
        let mut next = 0;
        let mut warm = Vec::new();
        closed_loop(
            &entry,
            p,
            (outstanding, phase.warmup),
            &mut next,
            &mut warm,
            &mut checks,
        );
        while m.measuring() {
            if m.setup_due() {
                m.setup(|| {
                    let (extra, secs) = start(&mut checks)?;
                    extra.pool().drain();
                    Ok(((), secs))
                })?;
            }
            m.burst(|latency, len| {
                let load = (outstanding, len);
                Ok(closed_loop(
                    &entry,
                    p,
                    load,
                    &mut next,
                    latency,
                    &mut checks,
                ))
            })?;
        }
        let measured = m.finish(TAIL);
        let stats = entry.pool().stats().windowed();
        entry.pool().drain();
        let ms_of = |ns: u64| ns as f64 / 1e6;
        Ok(EngineRun {
            measured,
            queue_wait_p50_ms: ms_of(stats.queue.quantile(0.5)),
            service_p50_ms: ms_of(stats.service.quantile(0.5)),
            batch_size_mean: stats.total.count() as f64 / stats.service.count().max(1) as f64,
            checks,
        })
    })
}
