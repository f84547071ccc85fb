//! # lttf-serve
//!
//! Zero-dependency batched inference serving for the Conformer
//! reproduction: a model [`Registry`] that round-trips checkpoints plus
//! scaler state, a work-conserving micro-batching [`Engine`] (bounded
//! queue; each batch takes what is queued, up to `max_batch`, as soon as
//! the replica is free), a replicated [`ReplicaPool`]
//! dispatcher with [`Admission`] control, and a std-only TCP front end
//! speaking newline-delimited JSON (see [`protocol`]).
//!
//! Requests carry **raw** input windows; the server scales them with the
//! training scaler stored in the checkpoint metadata, batches concurrent
//! requests into one no-grad forward pass, and answers in raw units.
//! Batching and replication are invisible to correctness: every kernel
//! on the forward path is row-independent, so a forecast is bit-identical
//! no matter which replica or batch served it.
//!
//! The topology scales out in two directions:
//!
//! * **replicas** — each model runs `replicas` engines behind a
//!   deterministic dispatcher ([`Policy`]), each replica optionally
//!   pinned to a disjoint `LTTF_THREADS` share;
//! * **generations** — the `reload` wire command loads a new checkpoint
//!   generation, atomically swaps the routing table, and drains the old
//!   generation without dropping a single in-flight request.
//!
//! Beyond one-shot forecasts, the server speaks a **streaming session**
//! mode (`open`/`push`/`close`): it keeps a per-client rolling window in
//! a bounded, TTL-evicted [`SessionTable`] and answers each push with a
//! horizon forecast through the same micro-batching path — bit-identical
//! to a one-shot `forecast` of the same window while adaptation is off.
//! With [`AdaptConfig::enabled`], a background adapter thread fine-tunes
//! a *copy* of the live model on recent session data whenever the
//! [`DriftMonitor`] alerts, health-gates every update with the
//! [`lttf_obs::Watchdog`] (a NaN or divergent round is dropped, leaving
//! the serving parameters untouched), and publishes healthy updates as a
//! new generation stamped `"adapted":true` (see `crate::adapt`).
//!
//! ```
//! use lttf_serve::{serve, LoadedModel, Registry, ServeConfig};
//! use lttf_conformer::ConformerConfig;
//! use lttf_data::StandardScaler;
//! use lttf_eval::TrainedModel;
//! use std::io::{BufRead, BufReader, Write};
//!
//! // A tiny in-memory model (real servers load `lttf train` checkpoints
//! // via `LoadedModel::load`).
//! let cfg = ConformerConfig::tiny(1, 8, 4);
//! let model = TrainedModel::from_conformer(&cfg, 0);
//! let scaler = StandardScaler::from_parts(vec![0.0], vec![1.0]);
//! let loaded = LoadedModel::from_parts(model, cfg, scaler, "y".into(), 0);
//!
//! let handle = serve(
//!     Registry::single("demo", loaded),
//!     "127.0.0.1:0", // ephemeral port
//!     ServeConfig { replicas: 2, ..ServeConfig::default() },
//! )
//! .unwrap();
//!
//! let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
//! let mut w = stream.try_clone().unwrap();
//! writeln!(w, r#"{{"id":1,"values":[0,1,2,3,4,5,6,7],"t0":0,"dt":3600}}"#).unwrap();
//! let mut line = String::new();
//! BufReader::new(stream).read_line(&mut line).unwrap();
//! assert!(line.contains(r#""ok":true"#), "{line}");
//! assert!(line.contains(r#""gen":1"#), "{line}");
//!
//! let summaries = handle.shutdown(); // drains in-flight work
//! assert_eq!(summaries[0].1.count, 1);
//! ```

#![deny(missing_docs)]

pub mod adapt;
mod admission;
mod dispatch;
mod drift;
mod engine;
pub mod metrics;
pub mod protocol;
mod registry;
mod server;
mod session;
mod stats;

pub use adapt::{AdaptConfig, AdaptShared, AdaptState, Example, ExampleBuffer};
pub use admission::{Admission, AdmissionConfig, Denied};
pub use dispatch::{ModelEntry, Policy, PoolConfig, ReplicaPool};
pub use drift::{DriftConfig, DriftMonitor, DriftStatus};
pub use engine::{BatchConfig, Engine, Reject, Reply, Submitter};
pub use metrics::ServerGauges;
pub use registry::{scaler_from_meta, scaler_meta, LoadedModel, Registry, Window};
pub use server::{serve, ServeConfig, ServerHandle, MAX_LINE};
pub use session::{
    PushOutcome, SessionConfig, SessionShape, SessionSummary, SessionTable,
};
pub use stats::{
    FlowRates, FlowStats, LatencySummary, ServeStats, WindowSnapshot, WINDOW_BUCKETS,
    WINDOW_BUCKET_MS,
};
