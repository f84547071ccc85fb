//! Allocation accounting against real workload memory, in a test binary
//! of its own: the allocator's counters are process-global, and any other
//! test in the same process would allocate and free concurrently with the
//! measurement.

use lttf::conformer::ConformerConfig;
use lttf::data::StandardScaler;
use lttf::eval::TrainedModel;
use lttf::serve::{
    protocol, serve_with_clock, LoadedModel, Registry, ServeConfig, SessionClock, SessionConfig,
};
use lttf::tensor::{Rng, Tensor};

mod common;
use common::{ask_metrics, SessionClient};

#[test]
fn allocation_accounting_sees_session_buffers_grow_and_shrink() {
    // End-to-end check of the instrumented allocator against real
    // workload memory: session ring buffers are the dominant per-client
    // state in the server, so buffering rows into many sessions must
    // grow the process's live-byte count by at least the buffered
    // payload, and the TTL sweep must hand most of it back. Counters are
    // process-global: this binary holds this one test, so no other test
    // allocates or frees while it measures.
    if lttf::obs::alloc::snapshot().allocs == 0 {
        // Telemetry compiled out: the allocator is installed for its
        // heap policy only, and every counter reads zero — nothing to
        // measure.
        return;
    }
    // lx=2048 windows of 8 features: each session buffers up to 64 KiB
    // of f32 rows, far above cross-test allocator noise.
    let cfg = ConformerConfig::tiny(8, 2048, 8);
    let model = TrainedModel::from_conformer(&cfg, 9);
    let fit_on = Tensor::randn(&[64, 8], &mut Rng::seed(10)).mul_scalar(2.0);
    let scaler = StandardScaler::fit(&fit_on);
    let loaded = LoadedModel::from_parts(model, cfg, scaler, "OT".to_string(), 1);
    // Sessions age on a manual clock: however long the pushes below take
    // on a loaded host, none is evicted before the test moves time on.
    let clock = SessionClock::manual();
    let handle = serve_with_clock(
        Registry::single("m", loaded),
        "127.0.0.1:0",
        ServeConfig {
            session: SessionConfig {
                max_sessions: 64,
                ttl_ms: 1_200,
            },
            ..ServeConfig::default()
        },
        clock.clone(),
    )
    .expect("bind");
    let mut client = SessionClient::connect(handle.addr());

    // 2040 rows per session stays one row short of the 2048-row window,
    // so nothing ever reaches the forward pass — this test is about the
    // buffers, not the model.
    const SESSIONS: usize = 32;
    const ROWS: usize = 2_040;
    const PER_SESSION_FLOOR: u64 = (ROWS * 8 * 4) as u64; // f32 payload actually buffered
    let payload: Vec<f32> = Tensor::randn(&[ROWS * 8], &mut Rng::seed(11))
        .data()
        .to_vec();
    let live0 = lttf::obs::alloc::live_bytes();
    let mut last = live0;
    let mut handles = Vec::new();
    for batch in 0..4u64 {
        for i in 0..(SESSIONS as u64 / 4) {
            let id = batch * 100 + i + 1;
            let (session, _) = client.open(id);
            handles.push(session);
            let reply = client
                .push(1_000 + id, session, &payload)
                .expect("push buffered");
            assert!(
                matches!(reply, protocol::PushReply::Pending(_)),
                "short-of-window push must not forecast"
            );
        }
        // Live bytes must climb batch over batch while the buffers pile
        // up — half the payload floor leaves room for the server threads'
        // own churn.
        let now = lttf::obs::alloc::live_bytes();
        assert!(
            now >= last + (SESSIONS as u64 / 4) * PER_SESSION_FLOOR / 2,
            "live bytes did not grow with session buffers: batch {batch}, {last} -> {now}"
        );
        last = now;
    }
    let grown = lttf::obs::alloc::live_bytes();
    assert!(
        grown >= live0 + SESSIONS as u64 * PER_SESSION_FLOOR / 2,
        "session buffers invisible to the allocator: {live0} -> {grown}"
    );

    // Let every session idle past the TTL, then force a sweep with a
    // table operation: a push against a known-but-idle id runs the sweep
    // before the lookup, so the reply itself proves the eviction.
    clock.advance(1_600);
    let err = client
        .push(9_999, handles[0], &payload[..8])
        .expect_err("an idle session past its TTL must be gone");
    assert!(err.contains("unknown session"), "unexpected error: {err}");
    let doc = ask_metrics(handle.addr(), 10_000);
    let open = doc.get("lttf_sessions_open", &[]);
    assert_eq!(open, Some(0.0), "sweep left sessions behind");
    let evictions = doc.get("lttf_session_evictions_total", &[]).unwrap();
    assert!(evictions >= SESSIONS as f64, "{evictions} evictions");
    // The exposition's own buffers are not the server's to hand back.
    drop(doc);
    let after = lttf::obs::alloc::live_bytes();
    assert!(
        after <= grown.saturating_sub(SESSIONS as u64 * PER_SESSION_FLOOR / 2),
        "TTL sweep reclaimed too little: {grown} -> {after}"
    );
    handle.shutdown();
}
