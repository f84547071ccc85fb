//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both flat JSON objects
//! (the [`lttf_obs::jsonl`] dialect: string/number scalars plus flat
//! number arrays, no nesting). Floats use shortest round-trip
//! formatting, so an `f32` survives the wire bit-for-bit.
//!
//! **The envelope.** Every request carries `id`, a client-chosen
//! correlation number that must be an integer in `0..2^53` (the range an
//! `f64` holds exactly; session ids obey the same rule). Every response
//! echoes it next to `ok`:
//!
//! * success — `{"id":…,"ok":true,…}` followed by the command's fields;
//! * failure — `{"id":…,"ok":false,"error":"…"}`. Refusals from
//!   admission control or a saturated queue add `"retry_after_ms"`: a
//!   backoff hint, not a promise. A line that does not parse, including
//!   one whose id is out of range, is answered with the id
//!   [`extract_id`] finds in its text.
//!
//! [`parse_command`] reads a request line once; each client-side
//! `parse_*_response` reads the envelope once and then only its
//! command's fields.
//!
//! **Forecast** (no `cmd` field; [`format_request`] writes one):
//! `values` holds the raw (unscaled) input window, `lx * c_in` numbers in
//! row-major `[time][variable]` order; `t0` is the unix timestamp
//! (seconds) of the first step and `dt` the seconds between steps
//! (default 3600). Optional `deadline_ms` rejects a request that cannot
//! be answered within that many milliseconds of arrival instead of
//! serving it late; optional `model` names a registry entry (default:
//! the server's default model). The answer carries `"gen"`, the
//! generation that served it (bumped by every hot reload), and
//! `"forecast"`, `ly` raw-space values of the model's target variable.
//!
//! **Streaming sessions**, keyed by model *name* so they survive hot
//! reloads (the first push after a swap forecasts on the new
//! generation):
//!
//! * `open` (`model`, `t0`, `dt` optional) → `"session":S,"window":W`,
//!   a server-assigned session id and the `lx` rows the rolling window
//!   needs before forecasts flow;
//! * `push` (`session`, `values`: one or more raw rows of `c_in` values)
//!   → `"session":S,"pending":K` while the window fills, then
//!   `"session":S,"gen":G,"adapted":B,"forecast":[…]` through the same
//!   micro-batching engine one-shot requests use. `adapted` is `true`
//!   when the serving generation was published by the online adapter;
//! * `close` (`session`) → `"session":S,"pushed":P,"forecasts":F`.
//!
//! Idle sessions are evicted after the server's TTL; a push against an
//! evicted or unknown id gets `"error":"unknown session"` and the client
//! re-opens.
//!
//! **Control commands:**
//!
//! * `metrics` ([`format_metrics_request`]) → `"metrics":"…"`, a
//!   Prometheus-style text exposition (newlines escaped as `\n`); see
//!   [`crate::metrics`]. It is the server's one live-telemetry reply:
//!   clients read it with [`lttf_obs::metrics::validate`] and look up
//!   the series they need.
//! * `reload` (`path`, `model` optional) → `"gen":…,"replicas":…,
//!   "drained":…`: loads the checkpoint at `path` as a new generation,
//!   swaps it into the routing table, and drains the old generation,
//!   reporting how many requests that generation answered.

use lttf_obs::jsonl::{field, parse_object, JsonObj, JsonValue};

/// A parsed inference request; [`format_request`] writes one.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed back in the response.
    pub id: u64,
    /// Raw input window, `lx * c_in` values, row-major `[time][variable]`.
    pub values: Vec<f32>,
    /// Unix timestamp (seconds) of the first window step.
    pub t0: i64,
    /// Seconds between consecutive steps.
    pub dt: i64,
    /// Optional deadline in milliseconds from arrival.
    pub deadline_ms: Option<u64>,
    /// Optional registry model name (`None` = server default).
    pub model: Option<String>,
}

/// Largest accepted `values` length; guards against a client line that
/// would allocate without bound.
pub const MAX_VALUES: usize = 1 << 22;

/// Ids travel as JSON numbers and are parsed as `f64`, which holds every
/// integer only below 2^53.
const ID_LIMIT: f64 = 9_007_199_254_740_992.0;

/// One parsed request line: a forecast, or a control command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// An inference request (the default when no `cmd` field is present).
    Forecast(Request),
    /// `{"id":…,"cmd":"metrics"}` — return the live metrics exposition.
    Metrics {
        /// Client correlation id, echoed back.
        id: u64,
    },
    /// `{"id":…,"cmd":"reload","path":…[,"model":…]}` — hot-swap a model
    /// to a new checkpoint generation.
    Reload {
        /// Client correlation id, echoed back.
        id: u64,
        /// Registry name to reload (`None` = server default model).
        model: Option<String>,
        /// Checkpoint base path (`<base>.params` + `<base>.config`).
        path: String,
    },
    /// `{"id":…,"cmd":"open"[,"model":…][,"t0":…][,"dt":…]}` — open a
    /// streaming session.
    Open {
        /// Client correlation id, echoed back.
        id: u64,
        /// Registry name the session forecasts on (`None` = default).
        model: Option<String>,
        /// Unix timestamp (seconds) of the first observation row.
        t0: i64,
        /// Seconds between consecutive observation rows.
        dt: i64,
    },
    /// `{"id":…,"cmd":"push","session":…,"values":[…]}` — append
    /// observation rows to a session; answers with a forecast once the
    /// rolling window is full.
    Push {
        /// Client correlation id, echoed back.
        id: u64,
        /// Server-assigned session id from the `open` response.
        session: u64,
        /// Raw observation rows, each `c_in` values, row-major.
        values: Vec<f32>,
    },
    /// `{"id":…,"cmd":"close","session":…}` — drop a session.
    Close {
        /// Client correlation id, echoed back.
        id: u64,
        /// Server-assigned session id from the `open` response.
        session: u64,
    },
}

/// The fields of one parsed line, with the typed readers every request
/// and response reader shares.
struct Fields(Vec<(String, JsonValue)>);

impl Fields {
    fn get(&self, k: &str) -> Option<&JsonValue> {
        field(&self.0, k)
    }

    fn num(&self, k: &str) -> Option<f64> {
        self.get(k).and_then(JsonValue::as_num)
    }

    fn need(&self, k: &str) -> Result<f64, String> {
        self.num(k).ok_or_else(|| format!("missing numeric '{k}'"))
    }

    /// An optional count, 0 when absent.
    fn count(&self, k: &str) -> u64 {
        self.num(k).unwrap_or(0.0) as u64
    }

    fn str(&self, k: &str) -> Option<&str> {
        self.get(k).and_then(JsonValue::as_str)
    }

    fn string(&self, k: &str) -> Option<String> {
        self.str(k).map(str::to_string)
    }

    fn flag(&self, k: &str) -> bool {
        self.get(k).and_then(JsonValue::as_bool).unwrap_or(false)
    }

    fn floats(&self, k: &str) -> Option<Vec<f32>> {
        let arr = self.get(k)?.as_arr()?;
        Some(arr.iter().map(|&v| v as f32).collect())
    }

    /// The one id reader (`id`, `session`): an integer in `0..2^53`. A
    /// larger, negative or fractional id is an error, never a rounded,
    /// clamped or truncated echo.
    fn id(&self, k: &str) -> Result<u64, String> {
        let v = self.need(k)?;
        if (0.0..ID_LIMIT).contains(&v) && v.fract() == 0.0 {
            Ok(v as u64)
        } else {
            Err(format!("'{k}' must be an integer in 0..2^53"))
        }
    }

    /// The one `values` check: an array of at most [`MAX_VALUES`]
    /// entries, non-empty, and finite once narrowed to `f32` (a non-finite
    /// input must be caught before it reaches the model).
    fn values(&self) -> Result<Vec<f32>, String> {
        let raw = self
            .get("values")
            .and_then(JsonValue::as_arr)
            .ok_or("missing array 'values'")?;
        if raw.len() > MAX_VALUES {
            return Err(format!("'values' too long ({} > {MAX_VALUES})", raw.len()));
        }
        if raw.is_empty() {
            return Err("'values' must be non-empty".to_string());
        }
        let values: Vec<f32> = raw.iter().map(|&v| v as f32).collect();
        if values.iter().any(|v| !v.is_finite()) {
            return Err("'values' contains a non-finite entry".to_string());
        }
        Ok(values)
    }
}

/// Parse one request line into a [`Command`]. Lines without a `cmd`
/// field are forecasts; unknown commands are errors. Errors are
/// human-readable strings that go straight into the `error` field of the
/// reject response.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let f = Fields(parse_object(line)?);
    let id = f.id("id")?;
    Ok(match f.str("cmd") {
        None => Command::Forecast(Request {
            id,
            values: f.values()?,
            t0: f.need("t0")? as i64,
            dt: f.num("dt").unwrap_or(3600.0) as i64,
            deadline_ms: f.num("deadline_ms").map(|v| v as u64),
            model: f.string("model"),
        }),
        Some("metrics") => Command::Metrics { id },
        Some("reload") => Command::Reload {
            id,
            model: f.string("model"),
            path: f.string("path").ok_or("reload requires a string 'path'")?,
        },
        Some("open") => Command::Open {
            id,
            model: f.string("model"),
            t0: f.num("t0").unwrap_or(0.0) as i64,
            dt: f.num("dt").unwrap_or(3600.0) as i64,
        },
        Some("push") => Command::Push {
            id,
            session: f.id("session")?,
            values: f.values()?,
        },
        Some("close") => Command::Close {
            id,
            session: f.id("session")?,
        },
        Some(other) => return Err(format!("unknown cmd '{other}'")),
    })
}

/// One response line's `(id, retry_after_ms, result)`.
type Envelope<T> = (u64, Option<u64>, Result<T, String>);

/// The response envelope reader: parses the line once and reads `id` and
/// `ok`. On success it hands the fields to `body` for the command's own
/// fields (a `body` error means a malformed line); on failure it reads
/// `error` and the optional `retry_after_ms` hint.
fn read_envelope<T>(
    line: &str,
    body: impl FnOnce(&Fields) -> Result<T, String>,
) -> Result<Envelope<T>, String> {
    let f = Fields(parse_object(line)?);
    let id = f.id("id")?;
    match f.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok((id, None, Ok(body(&f)?))),
        Some(false) => {
            let error = f.str("error").unwrap_or("unknown").to_string();
            Ok((id, f.num("retry_after_ms").map(|v| v as u64), Err(error)))
        }
        None => Err("missing 'ok'".to_string()),
    }
}

/// [`read_envelope`] for the replies that carry no backoff hint.
fn read_reply<T>(
    line: &str,
    body: impl FnOnce(&Fields) -> Result<T, String>,
) -> Result<(u64, Result<T, String>), String> {
    read_envelope(line, body).map(|(id, _, result)| (id, result))
}

/// A request line's header: the correlation id and the command name.
fn command(id: u64, cmd: &str) -> JsonObj {
    JsonObj::new().int("id", id).str("cmd", cmd)
}

/// A response line's header: the echoed id and `ok`.
fn header(id: u64, ok: bool) -> JsonObj {
    JsonObj::new().int("id", id).bool("ok", ok)
}

/// Append `"model"` when a registry name is given.
fn with_model(o: JsonObj, model: Option<&str>) -> JsonObj {
    match model {
        Some(m) => o.str("model", m),
        None => o,
    }
}

/// Format a forecast request line (client side): the inverse of
/// [`parse_command`] on a line without `cmd`.
pub fn format_request(r: &Request) -> String {
    let o = with_model(JsonObj::new().int("id", r.id), r.model.as_deref())
        .nums("values", r.values.iter().copied())
        .num("t0", r.t0 as f64)
        .num("dt", r.dt as f64);
    match r.deadline_ms {
        Some(ms) => o.int("deadline_ms", ms),
        None => o,
    }
    .finish()
}

/// Format a success response carrying the forecast values, stamped with
/// the generation of the model that produced them.
pub fn format_ok(id: u64, generation: u64, forecast: &[f32]) -> String {
    header(id, true)
        .int("gen", generation)
        .nums("forecast", forecast.iter().copied())
        .finish()
}

/// Format a reject/error response.
pub fn format_err(id: u64, error: &str) -> String {
    header(id, false).str("error", error).finish()
}

/// Format an admission/backpressure refusal: an error response with a
/// `retry_after_ms` backoff hint.
pub fn format_reject(id: u64, error: &str, retry_after_ms: u64) -> String {
    header(id, false)
        .str("error", error)
        .int("retry_after_ms", retry_after_ms)
        .finish()
}

/// Format a reload request line (client side).
pub fn format_reload(id: u64, model: Option<&str>, path: &str) -> String {
    with_model(command(id, "reload").str("path", path), model).finish()
}

/// Format a successful reload response: the new generation, its replica
/// count, and the number of requests the drained generation served.
pub fn format_reload_ok(id: u64, generation: u64, replicas: usize, drained: u64) -> String {
    header(id, true)
        .int("gen", generation)
        .int("replicas", replicas as u64)
        .int("drained", drained)
        .finish()
}

/// The client-side view of one reload response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReloadInfo {
    /// Generation number now serving the model.
    pub generation: u64,
    /// Replica count of the new generation's pool.
    pub replicas: usize,
    /// Requests the retired generation answered over its lifetime.
    pub drained: u64,
}

/// Parse a reload response into `(id, Result<info, error>)`.
pub fn parse_reload_response(line: &str) -> Result<(u64, Result<ReloadInfo, String>), String> {
    read_reply(line, |f| {
        Ok(ReloadInfo {
            generation: f.need("gen")? as u64,
            replicas: f.need("replicas")? as usize,
            drained: f.count("drained"),
        })
    })
}

/// Format an `open` request line (client side).
pub fn format_open(id: u64, model: Option<&str>, t0: i64, dt: i64) -> String {
    with_model(command(id, "open"), model)
        .num("t0", t0 as f64)
        .num("dt", dt as f64)
        .finish()
}

/// Format a successful `open` response: the assigned session id and the
/// number of observation rows the window needs before forecasts flow.
pub fn format_open_ok(id: u64, session: u64, window_rows: usize) -> String {
    header(id, true)
        .int("session", session)
        .int("window", window_rows as u64)
        .finish()
}

/// Format a `push` request line (client side).
pub fn format_push(id: u64, session: u64, values: &[f32]) -> String {
    command(id, "push")
        .int("session", session)
        .nums("values", values.iter().copied())
        .finish()
}

/// Format a `push` response while the rolling window is still filling:
/// `pending` rows are still needed before forecasts flow.
pub fn format_push_pending(id: u64, session: u64, pending: usize) -> String {
    header(id, true)
        .int("session", session)
        .int("pending", pending as u64)
        .finish()
}

/// Format a `push` response carrying a fresh horizon forecast. `adapted`
/// marks generations published by the online adapter.
pub fn format_push_ok(
    id: u64,
    session: u64,
    generation: u64,
    adapted: bool,
    forecast: &[f32],
) -> String {
    header(id, true)
        .int("session", session)
        .int("gen", generation)
        .bool("adapted", adapted)
        .nums("forecast", forecast.iter().copied())
        .finish()
}

/// Format a `close` request line (client side).
pub fn format_close(id: u64, session: u64) -> String {
    command(id, "close").int("session", session).finish()
}

/// Format a successful `close` response echoing the session's lifetime
/// counts.
pub fn format_close_ok(id: u64, session: u64, pushed: u64, forecasts: u64) -> String {
    header(id, true)
        .int("session", session)
        .int("pushed", pushed)
        .int("forecasts", forecasts)
        .finish()
}

/// The client-side view of one `push` response.
#[derive(Clone, Debug, PartialEq)]
pub enum PushReply {
    /// The window is still filling; this many rows are still needed.
    Pending(usize),
    /// The window is full and every push answers with a forecast.
    Forecast {
        /// Generation of the model that computed the forecast.
        generation: u64,
        /// True when the generation was published by the online adapter.
        adapted: bool,
        /// `ly` raw-space values of the model's target variable.
        forecast: Vec<f32>,
    },
}

/// Parse an `open` response into `(id, Result<(session, window_rows), error>)`.
pub fn parse_open_response(line: &str) -> Result<(u64, Result<(u64, usize), String>), String> {
    read_reply(line, |f| Ok((f.id("session")?, f.need("window")? as usize)))
}

/// Parse a `push` response into `(id, Result<PushReply, error>)`.
pub fn parse_push_response(line: &str) -> Result<(u64, Result<PushReply, String>), String> {
    read_reply(line, |f| {
        Ok(match f.floats("forecast") {
            Some(forecast) => PushReply::Forecast {
                generation: f.need("gen")? as u64,
                adapted: f.flag("adapted"),
                forecast,
            },
            None => PushReply::Pending(f.need("pending")? as usize),
        })
    })
}

/// Parse a `close` response into `(id, Result<(pushed, forecasts), error>)`.
pub fn parse_close_response(line: &str) -> Result<(u64, Result<(u64, u64), String>), String> {
    read_reply(line, |f| Ok((f.count("pushed"), f.count("forecasts"))))
}

/// Best-effort extraction of the `id` field from a request line that may
/// be malformed, truncated, or too long to parse — so even a reject
/// response can carry the client's correlation id instead of a useless
/// `0`. Scans for an `"id"` key textually; returns `None` when no
/// plausible numeric id exists.
pub fn extract_id(line: &str) -> Option<u64> {
    let ws = |c: char| c.is_ascii_whitespace();
    line.match_indices("\"id\"").find_map(|(pos, key)| {
        let rest = line[pos + key.len()..].trim_start_matches(ws);
        let rest = rest.strip_prefix(':')?.trim_start_matches(ws);
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        rest[..digits].parse().ok()
    })
}

/// Format a metrics request line (client side).
pub fn format_metrics_request(id: u64) -> String {
    command(id, "metrics").finish()
}

/// Format a metrics response: the exposition text rides in a JSON string
/// (its newlines become `\n` escapes, keeping the response one line).
pub fn format_metrics(id: u64, text: &str) -> String {
    header(id, true).str("metrics", text).finish()
}

/// Parse a metrics response back into `(id, Result<text, error>)` — the
/// client half of the `"metrics"` command.
pub fn parse_metrics_response(line: &str) -> Result<(u64, Result<String, String>), String> {
    read_reply(line, |f| {
        f.string("metrics")
            .ok_or_else(|| "ok response missing 'metrics'".to_string())
    })
}

/// Everything a client can learn from one forecast response line.
#[derive(Clone, Debug)]
pub struct ResponseMeta {
    /// Echoed correlation id.
    pub id: u64,
    /// Generation of the serving model (successful forecasts only).
    pub generation: Option<u64>,
    /// Backoff hint attached to admission/backpressure refusals.
    pub retry_after_ms: Option<u64>,
    /// The forecast, or the server's error string.
    pub result: Result<Vec<f32>, String>,
}

/// Parse a forecast response line with its metadata (generation stamp,
/// backoff hint) — the client half of a one-shot forecast. The load
/// generator uses `retry_after_ms` to tell shed traffic from hard
/// failures, and the reload e2e uses `generation` to prove no
/// mixed-generation batches.
pub fn parse_response_meta(line: &str) -> Result<ResponseMeta, String> {
    let mut generation = None;
    let (id, retry_after_ms, result) = read_envelope(line, |f| {
        generation = f.num("gen").map(|v| v as u64);
        f.floats("forecast")
            .ok_or_else(|| "ok response missing 'forecast'".to_string())
    })?;
    Ok(ResponseMeta {
        id,
        generation,
        retry_after_ms,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> Request {
        Request {
            id,
            values: vec![1.5, -2.25, 0.125],
            t0: 1_700_000_000,
            dt: 60,
            deadline_ms: Some(250),
            model: None,
        }
    }

    #[test]
    fn request_round_trip() {
        let line = format_request(&request(7));
        let Command::Forecast(r) = parse_command(&line).unwrap() else {
            panic!("expected Forecast from {line}");
        };
        assert_eq!(r.id, 7);
        assert_eq!(r.values, vec![1.5, -2.25, 0.125]);
        assert_eq!(r.t0, 1_700_000_000);
        assert_eq!(r.dt, 60);
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.model.is_none());

        // The optional fields, and a t0 before the epoch, survive too.
        let r = Request {
            t0: -3600,
            deadline_ms: None,
            model: Some("demo".to_string()),
            ..request(8)
        };
        assert_eq!(
            parse_command(&format_request(&r)).unwrap(),
            Command::Forecast(r)
        );
    }

    #[test]
    fn ids_outside_the_exact_f64_range_are_rejected() {
        // An `as u64` cast of the parsed f64 would echo each of these as
        // a different id: rounded to 2^53, clamped to u64::MAX, clamped
        // to 0, truncated to 1.
        for id in ["9007199254740993", "18446744073709551614", "-1", "1.5"] {
            for line in [
                format!("{{\"id\":{id},\"t0\":0,\"values\":[1]}}"),
                format!("{{\"id\":{id},\"cmd\":\"metrics\"}}"),
                format!("{{\"id\":1,\"cmd\":\"close\",\"session\":{id}}}"),
                format!("{{\"id\":{id},\"ok\":false,\"error\":\"x\"}}"),
            ] {
                let err = if line.contains("\"ok\"") {
                    parse_response_meta(&line).unwrap_err()
                } else {
                    parse_command(&line).unwrap_err()
                };
                let want = "must be an integer in 0..2^53";
                assert!(err.contains(want), "{line}: {err}");
            }
        }
        // The largest exact id round-trips unchanged.
        let max = (1u64 << 53) - 1;
        let line = format_request(&request(max));
        assert!(matches!(parse_command(&line).unwrap(), Command::Forecast(r) if r.id == max));
        assert_eq!(parse_response_meta(&format_err(max, "x")).unwrap().id, max);
        // The server answers an out-of-range id with the exact text id.
        assert_eq!(
            extract_id("{\"id\":9007199254740993,\"cmd\":\"metrics\"}"),
            Some(9_007_199_254_740_993)
        );
    }

    #[test]
    fn response_round_trip_is_bit_exact() {
        let forecast = vec![0.1f32, -3.5e-5, 1.0e8, f32::MIN_POSITIVE];
        let meta = parse_response_meta(&format_ok(42, 3, &forecast)).unwrap();
        assert_eq!(meta.id, 42);
        assert_eq!(meta.result.unwrap(), forecast);
        assert_eq!(meta.generation, Some(3));
        assert_eq!(meta.retry_after_ms, None);

        let meta = parse_response_meta(&format_err(9, "queue full")).unwrap();
        assert_eq!(meta.id, 9);
        assert_eq!(meta.result.unwrap_err(), "queue full");
    }

    #[test]
    fn reject_carries_retry_hint() {
        let meta = parse_response_meta(&format_reject(5, "overloaded", 40)).unwrap();
        assert_eq!(meta.id, 5);
        assert_eq!(meta.retry_after_ms, Some(40));
        assert_eq!(meta.result.unwrap_err(), "overloaded");
    }

    #[test]
    fn reload_round_trip() {
        let line = format_reload(11, Some("demo"), "/tmp/ckpt");
        match parse_command(&line).unwrap() {
            Command::Reload { id, model, path } => {
                assert_eq!(id, 11);
                assert_eq!(model.as_deref(), Some("demo"));
                assert_eq!(path, "/tmp/ckpt");
            }
            other => panic!("expected Reload, got {other:?}"),
        }
        // model defaults to the server default when omitted
        match parse_command(&format_reload(12, None, "/tmp/c2")).unwrap() {
            Command::Reload { model, .. } => assert!(model.is_none()),
            other => panic!("expected Reload, got {other:?}"),
        }
        // path is mandatory
        assert!(parse_command("{\"id\":1,\"cmd\":\"reload\"}")
            .unwrap_err()
            .contains("path"));

        let (id, info) = parse_reload_response(&format_reload_ok(11, 2, 4, 137)).unwrap();
        assert_eq!(id, 11);
        assert_eq!(
            info.unwrap(),
            ReloadInfo { generation: 2, replicas: 4, drained: 137 }
        );
        let (_, info) = parse_reload_response(&format_err(11, "no such model")).unwrap();
        assert_eq!(info.unwrap_err(), "no such model");
    }

    #[test]
    fn extract_id_survives_malformed_lines() {
        // well-formed
        assert_eq!(extract_id("{\"id\":42,\"values\":[1]}"), Some(42));
        // whitespace around the colon
        assert_eq!(extract_id("{\"id\" : 7}"), Some(7));
        // truncated mid-line (e.g. an over-long line cut at the cap)
        assert_eq!(extract_id("{\"id\":9,\"values\":[1,2,3"), Some(9));
        // id not first
        assert_eq!(extract_id("{\"t0\":0,\"id\":3}"), Some(3));
        // a non-numeric "id" is skipped, a later numeric one found
        assert_eq!(extract_id("{\"id\":\"x\",\"id\":5}"), Some(5));
        // nothing plausible
        assert_eq!(extract_id("not json at all"), None);
        assert_eq!(extract_id("{\"id\":\"abc\"}"), None);
        assert_eq!(extract_id(""), None);
    }

    #[test]
    fn metrics_command_round_trip() {
        match parse_command(&format_metrics_request(3)).unwrap() {
            Command::Metrics { id } => assert_eq!(id, 3),
            other => panic!("expected Metrics, got {other:?}"),
        }
        for cmd in ["nope", "stats"] {
            let line = format!("{{\"id\":3,\"cmd\":\"{cmd}\"}}");
            let err = parse_command(&line).unwrap_err();
            assert_eq!(err, format!("unknown cmd '{cmd}'"));
        }
        // Lines without cmd parse as forecasts.
        let line = "{\"id\":1,\"t0\":0,\"values\":[1,2]}";
        assert!(matches!(parse_command(line).unwrap(), Command::Forecast(_)));

        let text = "lttf_up 1\nlttf_serve_queue_depth{model=\"demo\"} 0\n";
        let (id, res) = parse_metrics_response(&format_metrics(3, text)).unwrap();
        assert_eq!(id, 3);
        assert_eq!(res.unwrap(), text, "newlines survive the one-line framing");
    }

    #[test]
    fn session_command_round_trips() {
        match parse_command(&format_open(1, Some("demo"), 1_700_000_000, 60)).unwrap() {
            Command::Open { id, model, t0, dt } => {
                assert_eq!(id, 1);
                assert_eq!(model.as_deref(), Some("demo"));
                assert_eq!(t0, 1_700_000_000);
                assert_eq!(dt, 60);
            }
            other => panic!("expected Open, got {other:?}"),
        }
        // model/t0/dt are all optional on open
        match parse_command("{\"id\":2,\"cmd\":\"open\"}").unwrap() {
            Command::Open { model, t0, dt, .. } => {
                assert!(model.is_none());
                assert_eq!((t0, dt), (0, 3600));
            }
            other => panic!("expected Open, got {other:?}"),
        }

        match parse_command(&format_push(3, 17, &[1.5, -2.25])).unwrap() {
            Command::Push { id, session, values } => {
                assert_eq!((id, session), (3, 17));
                assert_eq!(values, vec![1.5, -2.25]);
            }
            other => panic!("expected Push, got {other:?}"),
        }
        assert!(parse_command("{\"id\":1,\"cmd\":\"push\",\"values\":[1]}")
            .unwrap_err()
            .contains("session"));
        assert!(parse_command("{\"id\":1,\"cmd\":\"push\",\"session\":1}")
            .unwrap_err()
            .contains("values"));
        assert!(parse_command("{\"id\":1,\"cmd\":\"push\",\"session\":1,\"values\":[]}")
            .unwrap_err()
            .contains("non-empty"));
        assert!(
            parse_command("{\"id\":1,\"cmd\":\"push\",\"session\":1,\"values\":[1,null]}")
                .unwrap_err()
                .contains("non-finite")
        );

        match parse_command(&format_close(4, 17)).unwrap() {
            Command::Close { id, session } => assert_eq!((id, session), (4, 17)),
            other => panic!("expected Close, got {other:?}"),
        }
        assert!(parse_command("{\"id\":1,\"cmd\":\"close\"}")
            .unwrap_err()
            .contains("session"));
    }

    #[test]
    fn session_response_round_trips() {
        let (id, res) = parse_open_response(&format_open_ok(5, 42, 16)).unwrap();
        assert_eq!(id, 5);
        assert_eq!(res.unwrap(), (42, 16));
        let (_, res) = parse_open_response(&format_err(5, "session table full")).unwrap();
        assert!(res.unwrap_err().contains("full"));

        let (id, res) = parse_push_response(&format_push_pending(6, 42, 9)).unwrap();
        assert_eq!(id, 6);
        assert_eq!(res.unwrap(), PushReply::Pending(9));

        let forecast = vec![0.1f32, -3.5e-5, f32::MIN_POSITIVE];
        let (id, res) = parse_push_response(&format_push_ok(7, 42, 3, true, &forecast)).unwrap();
        assert_eq!(id, 7);
        assert_eq!(
            res.unwrap(),
            PushReply::Forecast { generation: 3, adapted: true, forecast },
            "forecast floats survive the wire bit-for-bit"
        );
        let (_, res) = parse_push_response(&format_err(7, "unknown session")).unwrap();
        assert!(res.unwrap_err().contains("unknown session"));

        let (id, res) = parse_close_response(&format_close_ok(8, 42, 20, 5)).unwrap();
        assert_eq!(id, 8);
        assert_eq!(res.unwrap(), (20, 5));
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(parse_command("not json").is_err());
        assert!(parse_command("{\"values\":[1,2]}").is_err()); // no id
        assert!(parse_command("{\"id\":1,\"t0\":0}").is_err()); // no values
        // non-finite input must be caught before it reaches the model,
        // including a finite f64 that overflows f32
        let line = "{\"id\":1,\"t0\":0,\"values\":[1,null,2]}";
        assert!(parse_command(line).unwrap_err().contains("non-finite"));
        let line = "{\"id\":1,\"t0\":0,\"values\":[1,1e39]}";
        assert!(parse_command(line).unwrap_err().contains("non-finite"));
    }
}
