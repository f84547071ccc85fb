//! The traced run: the seeded inputs replayed through each layer's public
//! functions inside the benchmark's own spans, plus short untraced probes
//! of the three serving workloads for the numbers only a running system
//! has (queue wait, batch size, the TCP residual).

use std::hint::black_box;
use std::io;
use std::time::Instant;

use lttf::autograd::Graph;
use lttf::conformer::{
    Decoder, Encoder, FlowMode, HiddenFeed, InputRepresentation, NormalizingFlow, SirnLayer,
};
use lttf::data::Batch;
use lttf::eval::TrainedModel;
use lttf::nn::{Fwd, ParamSet};
use lttf::obs::{alloc, registry};
use lttf::serve::protocol::{format_ok, parse_command, Command};
use lttf::serve::{
    DriftConfig, DriftMonitor, LoadedModel, SessionConfig, SessionShape, SessionTable, Window,
};
use lttf::tensor::{Rng, Tensor};

use crate::inputs::{Prepared, MODEL_SEED, SESSION_PUSHES};
use crate::meter::Phase;
use crate::metrics::{same_bits, Checks, Outcome, PER_LAYER};
use crate::serving;
use crate::stats::{quartiles, Summary};
use crate::trace::Tracer;
use crate::train::{check_losses, Trainer};

/// Span names of one batch size's core replay.
struct CoreNames {
    forward: &'static str,
    enc_repr: &'static str,
    encoder: &'static str,
    sirn: &'static str,
    dec_repr: &'static str,
    decoder: &'static str,
    flow: &'static str,
    teardown: &'static str,
}

const B1: CoreNames = CoreNames {
    forward: "core.forward.b1",
    enc_repr: "core.enc_repr.b1",
    encoder: "core.encoder.b1",
    sirn: "core.sirn.b1",
    dec_repr: "core.dec_repr.b1",
    decoder: "core.decoder.b1",
    flow: "core.flow.b1",
    teardown: "autograd.teardown.b1",
};

const B8: CoreNames = CoreNames {
    forward: "core.forward.b8",
    enc_repr: "core.enc_repr.b8",
    encoder: "core.encoder.b8",
    sirn: "core.sirn.b8",
    dec_repr: "core.dec_repr.b8",
    decoder: "core.decoder.b8",
    flow: "core.flow.b8",
    teardown: "autograd.teardown.b8",
};

/// The Conformer's layers built one by one from the served config and
/// seed, in `Conformer::new`'s order so parameter ids line up with the
/// checkpoint; plus a standalone encoder-shaped SIRN layer and the
/// `predict_batch` reference the composition must equal.
struct Layers {
    ps: ParamSet,
    lambda: f32,
    mark_dim: usize,
    enc_repr: InputRepresentation,
    dec_repr: InputRepresentation,
    encoder: Encoder,
    decoder: Decoder,
    flow: NormalizingFlow,
    sirn_ps: ParamSet,
    sirn: SirnLayer,
    reference: TrainedModel,
}

impl Layers {
    fn new(model: &LoadedModel) -> Layers {
        let cfg = model.cfg();
        assert!(
            cfg.flow_mode == FlowMode::Full && cfg.hidden_feed == HiddenFeed::LastEncLastDec,
            "the replay composes the default flow and hidden feed"
        );
        let snapshot = model.params_snapshot();
        let mut ps = ParamSet::new();
        let rng = &mut Rng::seed(MODEL_SEED);
        let repr = |ps: &mut ParamSet, rng: &mut Rng, name: &str, len: usize| {
            InputRepresentation::new(
                ps,
                name,
                cfg.input_repr,
                cfg.c_in,
                cfg.d_model,
                len,
                &cfg.multiscale_strides,
                cfg.mark_dim,
                rng,
            )
        };
        let enc_repr = repr(&mut ps, rng, "enc_repr", cfg.lx);
        let dec_repr = repr(&mut ps, rng, "dec_repr", cfg.dec_len());
        let encoder = Encoder::new(&mut ps, cfg, rng);
        let decoder = Decoder::new(&mut ps, cfg, rng);
        let flow = NormalizingFlow::new(
            &mut ps,
            "flow",
            cfg.flow_mode,
            cfg.d_model,
            cfg.ly,
            cfg.c_out,
            cfg.flow_steps,
            rng,
        );
        ps.restore(&snapshot);
        let mut sirn_ps = ParamSet::new();
        let sirn = SirnLayer::new(
            &mut sirn_ps,
            "encoder.l0",
            cfg.d_model,
            cfg.n_heads,
            cfg.attention,
            cfg.enc_rnn_layers,
            cfg.eta,
            cfg.moving_avg,
            cfg.dropout,
            false,
            &mut Rng::seed(MODEL_SEED),
        );
        let mut reference = TrainedModel::from_conformer(cfg, MODEL_SEED);
        reference.params_mut().restore(&snapshot);
        Layers {
            ps,
            lambda: cfg.lambda,
            mark_dim: cfg.mark_dim,
            enc_repr,
            dec_repr,
            encoder,
            decoder,
            flow,
            sirn_ps,
            sirn,
            reference,
        }
    }

    /// `Conformer::predict`, one layer per span; returns the prediction
    /// and the encoder's input (for the standalone SIRN call).
    fn forward(&self, t: &mut Tracer, n: &CoreNames, batch: &Batch) -> (Tensor, Tensor) {
        t.span(n.forward, |t| {
            let g = Graph::inference();
            let out = {
                let cx = Fwd::new(&g, &self.ps, false, 0);
                let marks = |m: &Tensor| (self.mark_dim > 0).then(|| g.leaf(m.clone()));
                let (x, xm) = (g.leaf(batch.x.clone()), marks(&batch.x_mark));
                let (dec, dm) = (g.leaf(batch.dec.clone()), marks(&batch.dec_mark));
                let enc_in = t.span(n.enc_repr, |_| self.enc_repr.forward(&cx, x, xm));
                let enc = t.span(n.encoder, |_| self.encoder.forward(&cx, enc_in));
                let dec_in = t.span(n.dec_repr, |_| self.dec_repr.forward(&cx, dec, dm));
                let dec_out = t.span(n.decoder, |_| self.decoder.forward(&cx, dec_in, enc.out));
                let h_e = *enc.hiddens.last().expect("encoder layer");
                let h_d = *dec_out.hiddens.last().expect("decoder layer");
                let z = t.span(n.flow, |_| self.flow.forward(&cx, h_e, h_d, false));
                let pred = dec_out
                    .y
                    .value()
                    .mul_scalar(self.lambda)
                    .add(&z.value().mul_scalar(1.0 - self.lambda));
                (pred, enc_in.value())
            };
            t.span(n.teardown, |_| drop(g));
            out
        })
    }

    /// One `SirnLayer::forward` at the encoder's input shape.
    fn sirn(&self, t: &mut Tracer, n: &CoreNames, input: &Tensor) {
        let g = Graph::inference();
        let cx = Fwd::new(&g, &self.sirn_ps, false, 0);
        let x = g.leaf(input.clone());
        t.span(n.sirn, |_| black_box(self.sirn.forward(&cx, x, None).out));
    }
}

/// Served-path cost of one `forecast_rows` call: time and the allocator
/// counter deltas across it.
struct ForwardCost {
    us: f64,
    allocs: f64,
    kb: f64,
}

fn forecast_rows_cost(model: &LoadedModel, windows: &[&Window]) -> ForwardCost {
    let (a0, b0) = (alloc::allocs_total(), alloc::alloc_bytes_total());
    let t = Instant::now();
    black_box(model.forecast_rows(windows));
    let us = t.elapsed().as_secs_f64() * 1e6;
    ForwardCost {
        us,
        allocs: (alloc::allocs_total() - a0) as f64,
        kb: (alloc::alloc_bytes_total() - b0) as f64 / 1e3,
    }
}

/// Parallel regions one `forecast_rows` dispatches at the host's default
/// thread budget. The workloads run forwards on `FORWARD_THREADS`, which
/// at one thread dispatches none; this counts what a multi-core
/// deployment would.
fn regions_at_default_threads(model: &LoadedModel, windows: &[&Window]) -> f64 {
    lttf::parallel::set_threads_override(None);
    let r0 = registry::calls("", "pool.regions");
    black_box(model.forecast_rows(windows));
    let regions = registry::calls("", "pool.regions") - r0;
    crate::limit_forward_threads();
    regions as f64
}

/// Concatenate single-window batches along the batch axis, as
/// `forecast_rows` stacks windows.
fn stack(batches: &[Batch]) -> Batch {
    let cat =
        |f: fn(&Batch) -> &Tensor| Tensor::concat(&batches.iter().map(f).collect::<Vec<_>>(), 0);
    Batch {
        x: cat(|b| &b.x),
        x_mark: cat(|b| &b.x_mark),
        dec: cat(|b| &b.dec),
        dec_mark: cat(|b| &b.dec_mark),
        y: cat(|b| &b.y),
    }
}

fn median(v: &[f64]) -> Summary {
    Summary::percentile(v, 0.5)
}

/// Mean of `v[i]` over the indices in `keep`, with their count and IQR.
fn mean_over(v: &[f64], keep: &[usize]) -> Summary {
    let kept: Vec<f64> = keep.iter().map(|&i| v[i]).collect();
    let (q1, _, q3) = quartiles(&kept);
    Summary {
        value: kept.iter().sum::<f64>() / kept.len() as f64,
        n: kept.len(),
        iqr: q3 - q1,
    }
}

/// Replay every one-shot line through what a connection thread does
/// with it (parse, drift sketch, window preparation, the served forward,
/// reply formatting), then send the same line to a live `tcp_mixed`
/// server, on one core as that workload runs. Returns each request's
/// round trip less its replayed stages, in microseconds: what the
/// socket, threads and queues add. Taken back to back, the two share
/// the host's speed of the moment.
fn replay_front_end(p: &Prepared, t: &mut Tracer, checks: &mut Checks) -> io::Result<Vec<f64>> {
    let model = &p.model;
    let drift = DriftMonitor::new(
        model.profile().cloned(),
        model.target_col(),
        DriftConfig::default(),
    );
    crate::affinity::pinned(&crate::host::cpus(1), || {
        let ((handle, mut client), _) = serving::start_tcp(p, checks)?;
        let mut residual = Vec::with_capacity(p.oneshot.len());
        for (i, req) in p.oneshot.iter().enumerate() {
            let replayed = t.span("serve.request", |t| {
                let parsed = t.span("serve.protocol.parse", |_| parse_command(&req.line));
                let Ok(Command::Forecast(r)) = parsed else {
                    return Err(format!(
                        "replayed line did not parse as a forecast: {parsed:?}"
                    ));
                };
                t.span("serve.drift.observe", |_| drift.observe_input(&r.values));
                let w = t.span("serve.registry.make_window", |_| {
                    model.make_window(&r.values, r.t0, r.dt)
                })?;
                let forecast = t.span("serve.forward", |_| model.forecast_rows(&[&w]));
                black_box(t.span("serve.protocol.format", |_| {
                    format_ok(r.id, 1, &forecast[0])
                }));
                Ok(forecast)
            });
            match replayed {
                Ok(f) => checks.check(same_bits(&f[0], &req.expected), || {
                    format!("replayed one-shot {i}: wrong forecast")
                }),
                Err(e) => checks.fail(e),
            }
            let stages = *t.total_us("serve.request").last().expect("the span closed");
            let rtt = client.oneshot(p, i, checks)?;
            residual.push(rtt.as_secs_f64() * 1e6 - stages);
        }
        drop(client);
        handle.shutdown();
        Ok(residual)
    })
}

/// Push every session stream row by row into a fresh table.
fn replay_sessions(p: &Prepared, t: &mut Tracer, checks: &mut Checks) -> io::Result<()> {
    let cfg = p.model.cfg();
    let (c, lx, dt) = (cfg.c_in, cfg.lx, p.plan.dt);
    let table = SessionTable::new(SessionConfig::default());
    let shape = SessionShape {
        c_in: c,
        window_rows: lx,
        keep_rows: lx,
    };
    for s in &p.streams {
        let id = table
            .open("ledger", shape, s.t0, dt)
            .map_err(io::Error::other)?;
        for k in 0..SESSION_PUSHES {
            let out = t.span("serve.session.push", |_| {
                table.push(id, &s.rows[k * c..(k + 1) * c], shape)
            });
            let have = k + 1;
            let want = (have >= lx).then(|| {
                (
                    &s.rows[(have - lx) * c..have * c],
                    s.t0 + dt * (have - lx) as i64,
                )
            });
            let ok =
                out.is_ok_and(|o| o.window.as_ref().map(|(v, t0)| (v.as_slice(), *t0)) == want);
            checks.check(ok, || format!("session push {k} returned the wrong window"));
        }
        table.close(id).map_err(io::Error::other)?;
    }
    Ok(())
}

/// At batch 1 and batch 8, for `budget` seconds each: the served
/// `forecast_rows` untraced for time and counts, then the same inputs
/// through each layer. Returns the core, autograd and parallel metrics.
fn replay_core(
    p: &Prepared,
    t: &mut Tracer,
    checks: &mut Checks,
    budget: f64,
) -> io::Result<Vec<(String, Summary)>> {
    let model = &p.model;
    let cfg = model.cfg();
    let (lx, ly, dt, n) = (cfg.lx, cfg.ly, p.plan.dt, p.oneshot.len());
    let layers = Layers::new(model);
    let mut batches = Vec::with_capacity(n);
    let mut windows = Vec::with_capacity(n);
    for (req, &start) in p.oneshot.iter().zip(&p.plan.windows) {
        let rows = p.plan.rows(start, lx + ly);
        batches.push(
            model
                .make_train_batch(&rows, req.t0, dt)
                .map_err(io::Error::other)?,
        );
        windows.push(
            model
                .make_window(&req.values, req.t0, dt)
                .map_err(io::Error::other)?,
        );
    }
    let mut values = Vec::new();
    for (names, b, tag) in [(&B1, 1usize, "b1"), (&B8, 8, "b8")] {
        let start = Instant::now();
        let mut costs = Vec::new();
        let mut i = 0;
        while costs.len() < 10 || start.elapsed().as_secs_f64() < budget {
            let lo = (i * b) % (n - n % b);
            i += 1;
            let refs: Vec<&Window> = windows[lo..lo + b].iter().collect();
            costs.push(forecast_rows_cost(model, &refs));
            let batch = stack(&batches[lo..lo + b]);
            let (pred, enc_in) = layers.forward(t, names, &batch);
            let want = layers.reference.predict_batch(&batch);
            checks.check(same_bits(pred.data(), want.data()), || {
                format!("composed layers differ from predict_batch at b{b}")
            });
            layers.sirn(t, names, &enc_in);
        }
        let of = |f: fn(&ForwardCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
        // Every time row is a mean over the same iterations, so the rows
        // add up exactly; medians of separately noisy rows do not, and
        // their residual can go negative. The iterations kept are the
        // middle half by served plus composed forward time, which drops
        // those a host stall hit.
        let rows_us: Vec<f64> = costs.iter().map(|c| c.us).collect();
        let keys: Vec<f64> = rows_us
            .iter()
            .zip(t.total_us(names.forward))
            .map(|(r, f)| r + f)
            .collect();
        let (q1, _, q3) = quartiles(&keys);
        let keep: Vec<usize> = (0..keys.len())
            .filter(|&i| (q1..=q3).contains(&keys[i]))
            .collect();
        let mut unattributed = rows_us.clone();
        for (layer, span) in [
            ("enc_repr", names.enc_repr),
            ("encoder", names.encoder),
            ("dec_repr", names.dec_repr),
            ("decoder", names.decoder),
            ("flow", names.flow),
            ("sirn", names.sirn),
        ] {
            let s = t.self_us(span);
            // `sirn` is a component of `encoder`, so it is not subtracted.
            if layer != "sirn" {
                for (u, x) in unattributed.iter_mut().zip(&s) {
                    *u -= x;
                }
            }
            values.push((format!("core.{layer}.{tag}_us"), mean_over(&s, &keep)));
        }
        values.push((
            format!("core.forecast_rows.{tag}_us"),
            mean_over(&rows_us, &keep),
        ));
        values.push((
            format!("core.unattributed.{tag}_us"),
            mean_over(&unattributed, &keep),
        ));
        values.push((
            format!("autograd.teardown.{tag}_us"),
            mean_over(&t.self_us(names.teardown), &keep),
        ));
        values.push((
            format!("autograd.allocs_per_forward.{tag}"),
            of(|c| c.allocs),
        ));
        values.push((format!("autograd.alloc_kb_per_forward.{tag}"), of(|c| c.kb)));
        // A batch-1 forward is too small to dispatch any parallel region:
        // its count is always 0, and no metric may read 0.
        if b > 1 {
            let refs: Vec<&Window> = windows[..b].iter().collect();
            let regions = regions_at_default_threads(model, &refs);
            values.push((
                format!("parallel.regions_per_forward.{tag}"),
                Summary::single(regions),
            ));
        }
    }
    Ok(values)
}

/// Untraced and traced training steps alternating on one model for
/// `budget` seconds, so the tracing overhead compares like with like.
fn replay_train(
    p: &Prepared,
    t: &mut Tracer,
    checks: &mut Checks,
    budget: f64,
) -> Vec<(String, Summary)> {
    let mut trainer = Trainer::new(&p.plan);
    let mut off = Tracer::off();
    let (mut untraced_ms, mut step_allocs, mut losses) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced_ms.len() < 6 || start.elapsed().as_secs_f64() < budget {
        let a0 = alloc::allocs_total();
        let s = Instant::now();
        losses.push(trainer.step(&mut off));
        untraced_ms.push(s.elapsed().as_secs_f64() * 1e3);
        step_allocs.push((alloc::allocs_total() - a0) as f64);
        losses.push(trainer.step(t));
    }
    check_losses(&losses, checks);
    let mut values: Vec<(String, Summary)> = [
        ("data.batch_ms", "data.batch"),
        ("eval.batch_loss_ms", "eval.batch_loss"),
        ("autograd.backward_ms", "autograd.backward"),
        ("nn.grads_ms", "nn.grads"),
        ("nn.optim_ms", "nn.optim"),
        ("train.unattributed_ms", "train.step"),
    ]
    .iter()
    .map(|&(metric, span)| (metric.to_string(), median(&t.self_us(span)).scale(1e-3)))
    .collect();
    values.push(("autograd.allocs_per_step".to_string(), median(&step_allocs)));
    let traced = median(&t.total_us("train.step")).value / 1e3;
    let untraced = median(&untraced_ms);
    let overhead = (traced / untraced.value - 1.0) * 100.0;
    values.push((
        "trace.overhead_pct".to_string(),
        Summary {
            value: overhead,
            n: untraced.n,
            iqr: 0.0,
        },
    ));
    values
}

/// The traced run. A quarter of `seconds` goes to each serving probe
/// and a quarter to the replay.
pub fn traced(p: &Prepared, seconds: f64) -> io::Result<(Outcome, String)> {
    let q = seconds / 4.0;
    let probe = Phase {
        warmup: q / 4.0,
        seconds: q,
    };
    let tcp = serving::tcp_mixed(p, probe)?;
    let light = serving::engine_light(p, probe)?;
    let heavy = serving::engine_heavy(p, probe)?;

    let mut checks = Checks::default();
    let mut t = Tracer::on();
    let residual = replay_front_end(p, &mut t, &mut checks)?;
    replay_sessions(p, &mut t, &mut checks)?;
    let core = replay_core(p, &mut t, &mut checks, q * 0.35)?;
    let train = replay_train(p, &mut t, &mut checks, q * 0.3);

    let stage = |span: &str| median(&t.self_us(span));
    let front_end = [
        ("serve.protocol.parse_us", "serve.protocol.parse"),
        ("serve.protocol.format_us", "serve.protocol.format"),
        ("serve.drift.observe_us", "serve.drift.observe"),
        (
            "serve.registry.make_window_us",
            "serve.registry.make_window",
        ),
        ("serve.session.push_us", "serve.session.push"),
    ];
    let replies = tcp.forecasts + tcp.write.len();
    // The probes: what only a running system has.
    let probes = [
        ("serve.tcp.residual_us", median(&residual)),
        (
            "serve.session.forecast_share",
            Summary::single(tcp.forecasts as f64 / replies.max(1) as f64),
        ),
        (
            "serve.session.write_p50_ms",
            Summary::percentile(&tcp.write, 0.5),
        ),
        (
            "serve.session.write_p99_ms",
            Summary::percentile(&tcp.write, 0.99),
        ),
        (
            "serve.engine.queue_wait_p50_ms",
            Summary::single(light.queue_wait_p50_ms),
        ),
        (
            "serve.engine.service_p50_ms",
            Summary::single(heavy.service_p50_ms),
        ),
        (
            "serve.engine.batch_size_mean",
            Summary::single(heavy.batch_size_mean),
        ),
    ];
    let values = front_end
        .iter()
        .map(|&(metric, span)| (metric.to_string(), stage(span)))
        .chain(
            probes
                .into_iter()
                .map(|(metric, s)| (metric.to_string(), s)),
        )
        .chain(core)
        .chain(train)
        .collect();
    for run in [tcp.checks, light.checks, heavy.checks] {
        checks.merge(run);
    }
    Ok((Outcome::new(checks, &PER_LAYER, values), t.chrome_json()))
}
