//! Event-level timeline tracing: per-thread lock-free ring buffers of span
//! begin/end and instant events, exported as Chrome `trace_event` JSON
//! (load the file in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! # Design
//!
//! Tracing is **off by default**: one relaxed [`AtomicBool`] load per
//! (already telemetry-gated) span is the only cost until
//! [`set_enabled`]`(true)`, which `lttf trace <cmd>` flips for the inner
//! command's duration. This keeps the `bench_check.sh` <3% overhead gate
//! honest while the tracing code is always compiled in with `telemetry`.
//!
//! Each thread owns a leaked ring of fixed-size slots (capacity
//! [`crate::env::trace_buf`] events, newest win on wrap). A slot is four
//! `AtomicU64`s guarded by a per-slot sequence number: the writer
//! invalidates `seq`, stores the payload, then publishes `seq = index + 1`
//! with release ordering; the exporting reader re-checks `seq` after
//! reading and discards slots that changed underneath it. Events carry an
//! **interned name index** rather than a pointer, so a torn read can never
//! produce a wild reference — at worst a garbled event that fails the
//! post-read `seq` check or the export-time nesting pass.
//!
//! Cross-thread request traces use Chrome *async* events (`ph` `b`/`n`/`e`)
//! connected by a process-unique id from [`next_id`]: `serve::Engine`
//! stamps each request at submit time and re-emits the id from the batcher
//! thread, so one request's enqueue → batch → forward → reply path renders
//! as a single connected track.
//!
//! The export is the Chrome *JSON Array Format* written one event object
//! per line, which lets [`validate_chrome`] check every line with the
//! strict flat-object parser in [`crate::jsonl`] and then assert that
//! begin/end events nest per thread.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::jsonl::{self, escape, JsonValue};

/// Event kinds stored in the low byte of a slot's `meta` word. The
/// numeric values are internal; [`ph`] maps them to Chrome phase letters.
const K_BEGIN: u64 = 1; // ph "B": synchronous slice open
const K_END: u64 = 2; // ph "E": synchronous slice close
const K_INSTANT: u64 = 3; // ph "i": point event
const K_ASYNC_BEGIN: u64 = 4; // ph "b": async slice open (cat+id keyed)
const K_ASYNC_INSTANT: u64 = 5; // ph "n": async point event
const K_ASYNC_END: u64 = 6; // ph "e": async slice close

fn ph(kind: u64) -> &'static str {
    match kind {
        K_BEGIN => "B",
        K_END => "E",
        K_INSTANT => "i",
        K_ASYNC_BEGIN => "b",
        K_ASYNC_INSTANT => "n",
        K_ASYNC_END => "e",
        _ => "?",
    }
}

/// The one category used for async events; Chrome keys async tracks by
/// `(cat, id)`, and ids from [`next_id`] are already process-unique.
const ASYNC_CAT: &str = "req";

static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// Is event recording currently on? One relaxed load — callers on hot
/// paths check this before doing any other tracing work.
#[inline]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Turn event recording on or off. Spans that straddle a toggle produce
/// unpaired begin/end events; [`export_chrome`] repairs those.
pub fn set_enabled(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// Monotonic nanoseconds since the first tracing call in this process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Allocate a process-unique id for connecting async events (one id per
/// serve request). Starts at 1; 0 is reserved for "no id".
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------------

struct Names {
    map: HashMap<String, u32>,
    list: Vec<String>,
}

fn names() -> &'static Mutex<Names> {
    static NAMES: OnceLock<Mutex<Names>> = OnceLock::new();
    NAMES.get_or_init(|| {
        Mutex::new(Names {
            map: HashMap::new(),
            list: Vec::new(),
        })
    })
}

/// Intern `name`, returning a stable index usable in events. Pays one
/// mutex lock; call sites cache the result (e.g. in a `OnceLock`, or via
/// the per-`SpanStats` cache in [`crate::registry`]).
pub fn intern(name: &str) -> u32 {
    let mut n = names().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&idx) = n.map.get(name) {
        return idx;
    }
    let idx = n.list.len() as u32;
    n.list.push(name.to_string());
    n.map.insert(name.to_string(), idx);
    idx
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

struct Slot {
    /// 0 = never written; `i + 1` = holds the event at global position `i`.
    seq: AtomicU64,
    ts_ns: AtomicU64,
    /// `name_idx << 8 | kind`.
    meta: AtomicU64,
    /// Async connection id (0 for sync events).
    id: AtomicU64,
}

struct Ring {
    /// Export-stable thread ordinal (registration order).
    tid: u64,
    /// Thread name at registration time ("main", "lttf-par-3", …).
    thread_name: String,
    /// Total events ever written by this thread; slot `i % cap` holds
    /// event `i`, so the ring keeps the newest `cap` events.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn cap(&self) -> u64 {
        self.slots.len() as u64
    }
}

fn rings() -> &'static Mutex<Vec<&'static Ring>> {
    static RINGS: OnceLock<Mutex<Vec<&'static Ring>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The calling thread's ring, created and registered on first use. Rings
/// are leaked: a short-lived thread's events stay exportable after it
/// exits, and pool workers live for the process anyway.
fn ring() -> &'static Ring {
    thread_local! {
        static RING: Cell<Option<&'static Ring>> = const { Cell::new(None) };
    }
    RING.with(|r| {
        if let Some(ring) = r.get() {
            return ring;
        }
        let cap = crate::env::trace_buf();
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts_ns: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                id: AtomicU64::new(0),
            })
            .collect();
        let mut all = rings().lock().unwrap_or_else(|e| e.into_inner());
        let ring: &'static Ring = Box::leak(Box::new(Ring {
            tid: all.len() as u64,
            thread_name: std::thread::current()
                .name()
                .unwrap_or("thread")
                .to_string(),
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }));
        all.push(ring);
        drop(all);
        r.set(Some(ring));
        ring
    })
}

fn emit(kind: u64, name_idx: u32, id: u64) {
    if !enabled() {
        return;
    }
    let ts = now_ns();
    let ring = ring();
    let i = ring.head.load(Ordering::Relaxed); // single writer: this thread
    let slot = &ring.slots[(i % ring.cap()) as usize];
    // Seqlock write: invalidate, store payload, publish. A reader that
    // overlaps us sees seq != i+1 on one of its two checks and discards.
    slot.seq.store(0, Ordering::Relaxed);
    fence(Ordering::Release);
    slot.ts_ns.store(ts, Ordering::Relaxed);
    slot.meta.store(((name_idx as u64) << 8) | kind, Ordering::Relaxed);
    slot.id.store(id, Ordering::Relaxed);
    slot.seq.store(i + 1, Ordering::Release);
    ring.head.store(i + 1, Ordering::Release);
}

/// Record a synchronous slice open (Chrome `ph:"B"`) on this thread.
pub fn begin(name_idx: u32) {
    emit(K_BEGIN, name_idx, 0);
}

/// Record a synchronous slice close (Chrome `ph:"E"`) on this thread.
pub fn end(name_idx: u32) {
    emit(K_END, name_idx, 0);
}

/// Record a point event (Chrome `ph:"i"`) on this thread.
pub fn instant(name_idx: u32) {
    emit(K_INSTANT, name_idx, 0);
}

/// Open an async slice (Chrome `ph:"b"`) connected by `id` across threads.
pub fn async_begin(name_idx: u32, id: u64) {
    emit(K_ASYNC_BEGIN, name_idx, id);
}

/// Record a point on an open async slice (Chrome `ph:"n"`).
pub fn async_instant(name_idx: u32, id: u64) {
    emit(K_ASYNC_INSTANT, name_idx, id);
}

/// Close an async slice (Chrome `ph:"e"`).
pub fn async_end(name_idx: u32, id: u64) {
    emit(K_ASYNC_END, name_idx, id);
}

/// Drop all recorded events (interned names and registered rings persist).
/// Call while no traced work is running.
pub fn clear() {
    let all = rings().lock().unwrap_or_else(|e| e.into_inner());
    for ring in all.iter() {
        for slot in ring.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        ring.head.store(0, Ordering::Relaxed);
    }
}

/// Events lost to ring wrap-around across all threads so far — the same
/// quantity [`export_chrome`] reports as `dropped`, computable without
/// building an export. The metrics endpoint exposes this as
/// `lttf_trace_dropped_total` so silent trace loss is visible live.
pub fn dropped_total() -> u64 {
    let all = rings().lock().unwrap_or_else(|e| e.into_inner());
    all.iter()
        .map(|ring| ring.head.load(Ordering::Acquire).saturating_sub(ring.cap()))
        .sum()
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// One decoded event, used during export.
struct Event {
    tid: u64,
    ts_ns: u64,
    kind: u64,
    name_idx: u32,
    id: u64,
}

/// Result of [`export_chrome`]: the JSON document plus what went into it.
pub struct Export {
    /// Chrome JSON Array Format document, one event per line.
    pub json: String,
    /// Events exported (excluding thread-name metadata lines).
    pub events: usize,
    /// Threads that recorded at least one event.
    pub threads: usize,
    /// Events lost to ring wrap-around across all threads (oldest-first).
    /// Raise `LTTF_TRACE_BUF` if this is nonzero and the tail matters.
    pub dropped: u64,
}

/// Snapshot every thread's ring and render a Chrome `trace_event` JSON
/// document. Safe to call while traced threads are idle-but-alive; slots
/// overwritten mid-read are discarded by their sequence check. Unpaired
/// begin/end events (ring wrap, spans still open) are repaired so the
/// output always passes [`validate_chrome`].
pub fn export_chrome() -> Export {
    let name_list: Vec<String> = {
        let n = names().lock().unwrap_or_else(|e| e.into_inner());
        n.list.clone()
    };
    let all = rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events: Vec<Event> = Vec::new();
    let mut dropped = 0u64;
    let mut thread_names: Vec<(u64, String)> = Vec::new();
    for ring in all.iter() {
        let head = ring.head.load(Ordering::Acquire);
        if head == 0 {
            continue;
        }
        thread_names.push((ring.tid, ring.thread_name.clone()));
        dropped += head.saturating_sub(ring.cap());
        let lo = head.saturating_sub(ring.cap());
        for i in lo..head {
            let slot = &ring.slots[(i % ring.cap()) as usize];
            if slot.seq.load(Ordering::Acquire) != i + 1 {
                continue;
            }
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let id = slot.id.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != i + 1 {
                continue; // overwritten while we read it
            }
            events.push(Event {
                tid: ring.tid,
                ts_ns,
                kind: meta & 0xff,
                name_idx: (meta >> 8) as u32,
                id,
            });
        }
    }
    drop(all);

    // Stable sort: ties keep per-thread ring order, which is the order
    // the events actually happened on that thread.
    events.sort_by_key(|e| e.ts_ns);

    // Repair nesting per thread. The surviving window of a wrapped ring
    // is a contiguous suffix of a well-nested stream, so unmatched ends
    // cluster at the front (begin lost) and unmatched begins at the back
    // (span still open at export): drop the former, close the latter at
    // export time.
    let mut stacks: HashMap<u64, Vec<u32>> = HashMap::new();
    // Async slices need the same repair: a begin whose end was never
    // recorded (tracing toggled off mid-request, ring wrap) is closed at
    // export, and an end whose begin was lost is dropped.
    let mut open_async: HashMap<(u32, u64), u64> = HashMap::new();
    let mut keep: Vec<Event> = Vec::with_capacity(events.len());
    for e in events {
        match e.kind {
            K_BEGIN => {
                stacks.entry(e.tid).or_default().push(e.name_idx);
                keep.push(e);
            }
            K_END => {
                let stack = stacks.entry(e.tid).or_default();
                if stack.last() == Some(&e.name_idx) {
                    stack.pop();
                    keep.push(e);
                } // else: orphan end, its begin was overwritten — drop
            }
            K_ASYNC_BEGIN => {
                *open_async.entry((e.name_idx, e.id)).or_insert(0) += 1;
                keep.push(e);
            }
            K_ASYNC_END => match open_async.get_mut(&(e.name_idx, e.id)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    keep.push(e);
                }
                _ => {} // orphan async end — drop
            },
            _ => keep.push(e),
        }
    }
    let close_ts = now_ns();
    let mut open: Vec<(u32, u64, u64)> = open_async
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|((name_idx, id), n)| (name_idx, id, n))
        .collect();
    open.sort_unstable();
    for (name_idx, id, n) in open {
        for _ in 0..n {
            keep.push(Event {
                tid: 0,
                ts_ns: close_ts,
                kind: K_ASYNC_END,
                name_idx,
                id,
            });
        }
    }
    let mut tids: Vec<u64> = stacks
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(&t, _)| t)
        .collect();
    tids.sort_unstable();
    for tid in tids {
        let stack = stacks.get_mut(&tid).unwrap();
        while let Some(name_idx) = stack.pop() {
            keep.push(Event {
                tid,
                ts_ns: close_ts,
                kind: K_END,
                name_idx,
                id: 0,
            });
        }
    }

    let name_of = |idx: u32| -> &str {
        name_list
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    };
    let mut json = String::from("[\n");
    let mut lines: Vec<String> = Vec::with_capacity(keep.len() + thread_names.len());
    for (tid, tname) in &thread_names {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(tname)
        ));
    }
    for e in &keep {
        let ts_us = e.ts_ns as f64 / 1000.0;
        let name = escape(name_of(e.name_idx));
        let mut line = format!(
            "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us},\"name\":\"{name}\"",
            ph(e.kind),
            e.tid
        );
        if matches!(e.kind, K_ASYNC_BEGIN | K_ASYNC_INSTANT | K_ASYNC_END) {
            line.push_str(&format!(",\"cat\":\"{ASYNC_CAT}\",\"id\":\"{:#x}\"", e.id));
        }
        line.push('}');
        lines.push(line);
    }
    let n = lines.len();
    for (i, line) in lines.into_iter().enumerate() {
        json.push_str(&line);
        json.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    json.push_str("]\n");
    Export {
        json,
        events: keep.len(),
        threads: thread_names.len(),
        dropped,
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What [`validate_chrome`] learned about a trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace events (excluding metadata lines).
    pub events: usize,
    /// Distinct thread ids seen.
    pub threads: usize,
    /// Completed synchronous B/E slice pairs.
    pub slices: usize,
    /// Async begin events (`ph:"b"`), i.e. connected request traces.
    pub async_slices: usize,
}

/// Strictly validate a Chrome trace document produced by
/// [`export_chrome`]: array framing, one flat event object per line
/// (checked with [`crate::jsonl::parse_object`]), required fields per
/// phase, per-thread B/E nesting with matching names, and async b/e
/// pairing by id. Returns a summary or the first error.
pub fn validate_chrome(text: &str) -> Result<TraceSummary, String> {
    let body = text
        .strip_prefix("[\n")
        .ok_or("trace must start with '[' on its own line")?;
    let body = body
        .strip_suffix("]\n")
        .or_else(|| body.strip_suffix(']'))
        .ok_or("trace must end with ']'")?;
    let mut summary = TraceSummary {
        events: 0,
        threads: 0,
        slices: 0,
        async_slices: 0,
    };
    let mut tids: Vec<f64> = Vec::new();
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut open_async: HashMap<(String, String), u64> = HashMap::new();
    for (lineno, raw) in body.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.strip_suffix(',').unwrap_or(raw);
        // Metadata events carry a nested args object the flat parser
        // rejects; neutralize it (the args payload is free-form anyway).
        let flat = flatten_args(line);
        let fields = jsonl::parse_object(&flat)
            .map_err(|e| format!("line {lineno}: {e}"))?;
        let get_str = |k: &str| -> Result<&str, String> {
            jsonl::field(&fields, k)
                .and_then(JsonValue::as_str)
                .ok_or(format!("line {lineno}: missing string field {k:?}"))
        };
        let get_num = |k: &str| -> Result<f64, String> {
            jsonl::field(&fields, k)
                .and_then(JsonValue::as_num)
                .ok_or(format!("line {lineno}: missing number field {k:?}"))
        };
        let ph = get_str("ph")?;
        get_num("pid")?;
        let tid = get_num("tid")?;
        let name = get_str("name")?.to_string();
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        if ph == "M" {
            continue; // metadata: no ts, doesn't count as an event
        }
        let ts = get_num("ts")?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("line {lineno}: bad ts {ts}"));
        }
        summary.events += 1;
        let tid_key = tid as u64;
        match ph {
            "B" => stacks.entry(tid_key).or_default().push(name),
            "E" => {
                let stack = stacks.entry(tid_key).or_default();
                match stack.pop() {
                    Some(top) if top == name => summary.slices += 1,
                    Some(top) => {
                        return Err(format!(
                            "line {lineno}: end of {name:?} but {top:?} is open on tid {tid_key}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {lineno}: end of {name:?} with no open span on tid {tid_key}"
                        ))
                    }
                }
            }
            "b" | "n" | "e" => {
                get_str("cat")?;
                let id = get_str("id")?.to_string();
                let key = (name.clone(), id);
                match ph {
                    "b" => {
                        summary.async_slices += 1;
                        *open_async.entry(key).or_insert(0) += 1;
                    }
                    "e" => match open_async.get_mut(&key) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => {
                            return Err(format!(
                                "line {lineno}: async end of {:?} id {:?} never began",
                                key.0, key.1
                            ))
                        }
                    },
                    _ => {} // "n": instants may outlive validation scope
                }
            }
            "i" => {}
            other => return Err(format!("line {lineno}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(top) = stack.last() {
            return Err(format!("span {top:?} still open on tid {tid} at end of trace"));
        }
    }
    if let Some(((name, id), _)) = open_async.iter().find(|(_, &n)| n > 0) {
        return Err(format!("async span {name:?} id {id:?} never ended"));
    }
    summary.threads = tids.len();
    Ok(summary)
}

/// Replace a trailing flat `"args":{...}` object with `"args":null` so
/// the strict flat parser can handle metadata lines. Only the final,
/// non-nested args object of an `M` event is rewritten.
fn flatten_args(line: &str) -> String {
    let Some(start) = line.find("\"args\":{") else {
        return line.to_string();
    };
    let after = &line[start + "\"args\":{".len()..];
    let Some(close) = after.find('}') else {
        return line.to_string();
    };
    format!(
        "{}\"args\":null{}",
        &line[..start],
        &after[close + 1..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    // Recording is process-global, and the span tests elsewhere in this
    // crate emit trace events while it is on: every test that toggles or
    // reads the ring holds the crate-wide lock.
    use crate::exclusive;

    #[test]
    fn disabled_records_nothing() {
        let _g = exclusive();
        clear();
        set_enabled(false);
        begin(intern("t_off"));
        end(intern("t_off"));
        let e = export_chrome();
        assert_eq!(e.events, 0);
    }

    #[test]
    fn sync_and_async_events_round_trip() {
        let _g = exclusive();
        clear();
        set_enabled(true);
        let outer = intern("t_outer");
        let inner = intern("t_inner");
        let evt = intern("t_evt");
        let req = intern("t_req");
        let id = next_id();
        async_begin(req, id);
        begin(outer);
        begin(inner);
        instant(evt);
        end(inner);
        end(outer);
        let handle = std::thread::spawn(move || {
            begin(inner);
            async_instant(req, id);
            end(inner);
        });
        handle.join().unwrap();
        async_end(req, id);
        set_enabled(false);

        let e = export_chrome();
        assert!(e.threads >= 2, "main + spawned, got {}", e.threads);
        assert_eq!(e.dropped, 0);
        let summary = validate_chrome(&e.json).expect("valid trace");
        assert_eq!(summary.slices, 3, "{}", e.json);
        assert_eq!(summary.async_slices, 1);
        assert!(summary.threads >= 2);
        assert!(e.json.contains("\"thread_name\""));
        clear();
    }

    #[test]
    fn wrap_keeps_newest_and_still_nests() {
        let _g = exclusive();
        clear();
        set_enabled(true);
        let name = intern("t_wrap");
        let cap = crate::env::trace_buf() as u64;
        // Write well past capacity; only the newest window survives, and
        // the repair pass must keep it well-nested.
        for _ in 0..(cap + 100) {
            begin(name);
            end(name);
        }
        begin(name); // left open at export: exporter must close it
        set_enabled(false);
        let e = export_chrome();
        assert!(e.dropped > 0, "expected wrap, head only {}", e.dropped);
        validate_chrome(&e.json).expect("repaired trace validates");
        end(name); // tidy the thread-local stack for later tests
        clear();
    }

    #[test]
    fn unpaired_async_events_are_repaired() {
        let _g = exclusive();
        clear();
        set_enabled(true);
        let req = intern("t_async_repair");
        let id = next_id();
        async_begin(req, id); // end never recorded: tracing stops first
        set_enabled(false);
        async_end(req, id); // dropped while disabled
        let e = export_chrome();
        let summary = validate_chrome(&e.json).expect("repaired async validates");
        assert_eq!(summary.async_slices, 1);
        clear();
    }

    #[test]
    fn validator_rejects_broken_nesting() {
        let bad = "[\n{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"}\n]\n";
        assert!(validate_chrome(bad).unwrap_err().contains("no open span"));
        let bad = "[\n{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"}\n]\n";
        assert!(validate_chrome(bad).unwrap_err().contains("still open"));
        let bad = concat!(
            "[\n",
            "{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"},\n",
            "{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2,\"name\":\"y\"}\n",
            "]\n"
        );
        assert!(validate_chrome(bad).unwrap_err().contains("is open"));
        let bad = "[\n{\"ph\":\"e\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\",\
                   \"cat\":\"req\",\"id\":\"0x1\"}\n]\n";
        assert!(validate_chrome(bad).unwrap_err().contains("never began"));
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("[\nnot json\n]\n").is_err());
    }

    #[test]
    fn intern_dedups() {
        assert_eq!(intern("t_same"), intern("t_same"));
        assert_ne!(intern("t_a_name"), intern("t_b_name"));
    }
}
