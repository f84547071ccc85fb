#!/usr/bin/env bash
# Tier-1 verification, fully offline: build, test, and bench-compile with
# no registry access. Run from the repository root:
#
#   scripts/ci.sh
#
# The workspace has zero external dependencies (see DESIGN.md "Zero
# external dependencies"), so a cold cargo home with no network must
# pass. `--locked` additionally pins the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --locked --no-default-features  (telemetry compiled out)"
cargo build --release --offline --locked --no-default-features

# Prove the compile-out is real. The stripped binary still installs
# the #[global_allocator] (src/lib.rs: its heap policy is not telemetry),
# but every allocator counter must compile out and read zero, and
# `lttf flame` must report the flame as unavailable rather than silently
# writing an empty one.
echo "==> compile-out proof  (stripped binary: allocator installed, counters read 0, flame unavailable)"
grep -B1 -A1 '^#\[global_allocator\]' src/lib.rs | grep -q 'cfg(feature' \
    && { echo "FAIL: the allocator (and its heap policy) is gated on a feature" >&2; exit 1; }
STRIPPED_OUT=$(mktemp -d)
target/release/lttf bench-serve --mode memory --threads 2 --requests 2 \
    --out-dir "$STRIPPED_OUT" | tee /tmp/lttf_stripped_mem.out
grep -q "allocator accounting compiled out" /tmp/lttf_stripped_mem.out \
    && grep -Fq "| 0 allocs/req, - per request" /tmp/lttf_stripped_mem.out \
    || { echo "FAIL: no-default-features build still counts allocations" >&2; exit 1; }
target/release/lttf flame --flame-out "$STRIPPED_OUT/flame.txt" \
    bench-serve --mode memory --threads 1 --requests 1 --out-dir "$STRIPPED_OUT" \
    2>&1 | tee /tmp/lttf_stripped_flame.out >/dev/null || true
grep -q "flame unavailable" /tmp/lttf_stripped_flame.out \
    || { echo "FAIL: no-default-features build did not report the flame as compiled out" >&2; exit 1; }
rm -rf "$STRIPPED_OUT"

echo "==> cargo test -q --offline -p lttf-obs --no-default-features  (obs's own tests, compiled out)"
# Each span/counter test asserts that the stripped build records nothing,
# and the compile-out tests (the rendered flame is empty, allocator
# counters read zero) run only in this build.
cargo test -q --offline -p lttf-obs --no-default-features

echo "==> cargo build --release --offline --locked"
cargo build --release --offline --locked

echo "==> cargo test -q --offline  (LTTF_THREADS=1 LTTF_SIMD=0, serial + scalar kernels)"
LTTF_QUIET=1 LTTF_THREADS=1 LTTF_SIMD=0 cargo test -q --offline

echo "==> cargo test -q --offline  (LTTF_THREADS=4 LTTF_SIMD=1, pooled + SIMD dispatch)"
LTTF_QUIET=1 LTTF_THREADS=4 LTTF_SIMD=1 cargo test -q --offline

echo "==> libm_exp == f32::exp on every non-positive float  (release; tier-1 runs a sample)"
# The window attention's lane kernel ports glibc's expf; this pins the
# port to the platform libm bit for bit over all 2^31 inputs.
cargo test --release -q --offline --test libm_exp -- --ignored

echo "==> ledger unit tests + --smoke run  (the benchmark package has its own workspace)"
LTTF_QUIET=1 cargo test -q --offline --manifest-path ledger/Cargo.toml

echo "==> determinism + forward/train/baseline digests + serve e2e under the full LTTF_SIMD x LTTF_THREADS matrix"
# The scalar fallback must never rot, and neither backend may depend on
# the thread count (DESIGN.md §8) — sweep the suites over all four cells.
# forward_digest pins the canonical model's forecast bits per backend,
# train_digest its parameter bits after seeded Adam steps, baseline_digest
# the convolutional and windowed baselines' forecast and gradient bits.
for simd in 0 1; do
    for threads in 1 4; do
        echo "    LTTF_SIMD=$simd LTTF_THREADS=$threads"
        LTTF_QUIET=1 LTTF_SIMD=$simd LTTF_THREADS=$threads \
            cargo test -q --offline --test determinism --test forward_digest --test train_digest \
                --test baseline_digest --test serve_e2e
    done
done

echo "==> cargo doc --no-deps --offline  (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "==> cargo bench --no-run --offline  (compile-only check of crates/bench)"
cargo bench --no-run --offline

echo "==> lttf profile --smoke  (telemetry end-to-end: span table + JSONL run log)"
LTTF_QUIET=1 target/release/lttf profile --smoke --name ci_smoke | tee /tmp/lttf_profile_smoke.out
for row in matmul conv1d window_attn backward "pool utilization"; do
    grep -q "$row" /tmp/lttf_profile_smoke.out \
        || { echo "FAIL: profile output missing '$row'" >&2; exit 1; }
done
# Allocation attribution: the span table must carry the alloc columns and
# at least one hot span must have charged a non-trivial byte volume.
grep -q "alloc_bytes" /tmp/lttf_profile_smoke.out \
    || { echo "FAIL: profile table is missing the alloc_bytes column" >&2; exit 1; }
grep -Eq "matmul .*[0-9.]+[KMG]iB" /tmp/lttf_profile_smoke.out \
    || { echo "FAIL: matmul span shows no attributed allocations" >&2; exit 1; }

echo "==> lttf trace  (Chrome trace export: record, parse, assert events nest)"
LTTF_QUIET=1 target/release/lttf trace --trace-out /tmp/lttf_trace_smoke.json \
    profile --smoke --name ci_trace_smoke | tee /tmp/lttf_trace_smoke.out
grep -q "^trace: /tmp/lttf_trace_smoke.json" /tmp/lttf_trace_smoke.out \
    || { echo "FAIL: lttf trace printed no trace summary" >&2; exit 1; }
# jsonl_check --trace re-validates from disk: strict per-line JSON, B/E
# nesting per thread, async b/e pairing by id.
cargo run -q --release --offline -p lttf-obs --bin jsonl_check -- --trace /tmp/lttf_trace_smoke.json

echo "==> lttf flame  (span-path self-time: collapsed-stack export + validator)"
# Every span path's exact self-time, weighted in ns; the exported
# collapsed text must satisfy the strict in-repo parser (positive
# weights, no duplicate stacks, trailing newline).
LTTF_QUIET=1 target/release/lttf flame \
    --flame-out /tmp/lttf_flame_smoke.txt profile --smoke --name ci_flame_smoke \
    | tee /tmp/lttf_flame_smoke.out
grep -Eq "^flame: [1-9][0-9]* ns self-time" /tmp/lttf_flame_smoke.out \
    || { echo "FAIL: lttf flame recorded no self-time" >&2; exit 1; }
cargo run -q --release --offline -p lttf-obs --bin jsonl_check -- --flame /tmp/lttf_flame_smoke.txt

echo "==> jsonl_check  (validate every run log under results/runs/ and committed bench files)"
for f in results/runs/*.jsonl; do
    [[ -f "$f" ]] && cargo run -q --release --offline -p lttf-obs --bin jsonl_check -- "$f"
done
for f in results/BENCH_*.json; do
    [[ -f "$f" ]] && cargo run -q --release --offline -p lttf-obs --bin jsonl_check -- "$f"
done

echo "==> live serve scrape  (train tiny checkpoint, serve it, drive traffic, validate exposition)"
SCRATCH=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

LTTF_QUIET=1 target/release/lttf generate --dataset ettm1 --len 400 --seed 7 \
    --out "$SCRATCH/ettm1.csv" >/dev/null
LTTF_QUIET=1 LTTF_THREADS=2 target/release/lttf train --data "$SCRATCH/ettm1.csv" --target OT \
    --lx 16 --ly 8 --d-model 8 --epochs 1 --out "$SCRATCH/ckpt" | tee "$SCRATCH/train.out" >/dev/null
grep -q "drift reference:" "$SCRATCH/train.out" \
    || { echo "FAIL: lttf train did not fit a drift reference profile" >&2; exit 1; }

# The server exits on stdin EOF, so park a fifo on its stdin and keep the
# write end open for the duration of the scrape.
PORT=17878
mkfifo "$SCRATCH/ctl"
LTTF_QUIET=1 target/release/lttf serve --model "$SCRATCH/ckpt" --port $PORT \
    < "$SCRATCH/ctl" > "$SCRATCH/serve.out" 2>&1 &
SERVE_PID=$!
exec 9> "$SCRATCH/ctl"
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then break; fi
    kill -0 "$SERVE_PID" 2>/dev/null \
        || { echo "FAIL: lttf serve exited early:" >&2; cat "$SCRATCH/serve.out" >&2; exit 1; }
    sleep 0.1
done
grep -q "drift monitor armed" "$SCRATCH/serve.out" \
    || { echo "FAIL: server did not arm the drift monitor from the checkpoint" >&2; exit 1; }
grep -q "max_wait 0 ms" "$SCRATCH/serve.out" \
    || { echo "FAIL: lttf serve does not ship the work-conserving default (max_wait 0 ms)" >&2; exit 1; }

# One watch tick before any traffic: the trailing window is empty, so the
# exposition carries no quantile series, and every dashboard line must
# still render (an absent quantile reads 0).
LTTF_QUIET=1 target/release/lttf watch --port $PORT --iters 1 --no-clear \
    | tee "$SCRATCH/watch_idle.out"
for line in "served 0 lifetime, 0 in last" "latency   p50 0.00 ms" "phases    " "cost      " \
    "memory    " "flows     " "drift     ok" "sessions  0 open" "adapt     off"; do
    grep -qF "$line" "$SCRATCH/watch_idle.out" \
        || { echo "FAIL: idle watch tick did not render '$line'" >&2; exit 1; }
done

# Drive real traffic so the trailing-window series are populated. Each
# request's raw window is a different lx=16 row slice from the TRAIN
# region of the CSV (first 70% of 400 rows), so the aggregate traffic
# matches the drift reference and the monitor must stay quiet.
exec 8<>"/dev/tcp/127.0.0.1/$PORT"
for i in $(seq 1 8); do
    awk -F, -v id="$i" -v r0="$((2 + (i - 1) * 33))" 'NR > 1 { rows[NR] = $0 } END {
        printf "{\"id\":%d,\"t0\":1700000000,\"dt\":3600,\"values\":[", id
        sep = ""
        for (r = r0; r < r0 + 16; r++) {
            m = split(rows[r], f, ",")
            for (j = 2; j <= m; j++) { printf "%s%s", sep, f[j]; sep = "," }
        }
        print "]}"
    }' "$SCRATCH/ettm1.csv" >&8
    IFS= read -r resp <&8
    case "$resp" in
        *'"error"'*) echo "FAIL: forecast request $i refused: $resp" >&2; exit 1 ;;
    esac
done
exec 8>&-

# Two watch ticks render the dashboard and append one period-stamped
# scrape snapshot each — the file must accumulate history, not hold only
# the last exposition (that was the old overwrite bug).
LTTF_QUIET=1 target/release/lttf watch --port $PORT --iters 2 --interval-ms 300 --no-clear \
    --scrape-out "$SCRATCH/metrics.jsonl" | tee "$SCRATCH/watch.out"
grep -q "drift     ok" "$SCRATCH/watch.out" \
    || { echo "FAIL: watch dashboard did not report a quiet drift monitor" >&2; exit 1; }
grep -q "sessions  " "$SCRATCH/watch.out" \
    || { echo "FAIL: watch dashboard did not render the sessions line" >&2; exit 1; }
grep -q "adapt     off" "$SCRATCH/watch.out" \
    || { echo "FAIL: watch dashboard did not report the adapter as off" >&2; exit 1; }
grep -q "memory    " "$SCRATCH/watch.out" \
    || { echo "FAIL: watch dashboard did not render the memory line" >&2; exit 1; }
grep -q "cost      " "$SCRATCH/watch.out" \
    || { echo "FAIL: watch dashboard did not render the per-request cost line" >&2; exit 1; }

# Strict exposition check: every snapshot in the scrape history must be a
# fully valid exposition (parseable throughout, histogram families
# complete and ordered); the --require series — trailing-window quantiles,
# per-request cost, and process memory — are asserted on the latest one.
cargo run -q --release --offline -p lttf-obs --bin metrics_check -- "$SCRATCH/metrics.jsonl" \
    | tee "$SCRATCH/metrics_check.out"
grep -q "2 metrics snapshots" "$SCRATCH/metrics_check.out" \
    || { echo "FAIL: scrape file did not accumulate one snapshot per watch tick" >&2; exit 1; }
cargo run -q --release --offline -p lttf-obs --bin metrics_check -- "$SCRATCH/metrics.jsonl" \
    --require 'lttf_serve_latency_seconds{model="ckpt",gen="1",quantile="0.5"}' \
    --require 'lttf_serve_latency_seconds{model="ckpt",gen="1",quantile="0.99"}' \
    --require 'lttf_serve_queue_wait_seconds{model="ckpt",gen="1",quantile="0.5"}' \
    --require 'lttf_serve_service_time_seconds{model="ckpt",gen="1",quantile="0.5"}' \
    --require 'lttf_serve_latency_hist_seconds_bucket{model="ckpt",le="+Inf"}' \
    --require 'lttf_serve_replica_served_total{model="ckpt",replica="0"}' \
    --require 'lttf_serve_forward_panics_total{model="ckpt"} 0' \
    --require 'lttf_drift_available{model="ckpt"} 1' \
    --require 'lttf_drift_alert{model="ckpt"} 0' \
    --require 'lttf_serve_shed_per_second' \
    --require 'lttf_sessions_open 0' \
    --require 'lttf_sessions_opened_total 0' \
    --require 'lttf_adapt_enabled 0' \
    --require 'lttf_adapt_state{state="off"} 1' \
    --require 'lttf_adapt_rollbacks_total 0' \
    --require 'lttf_trace_dropped_total' \
    --require 'lttf_request_cpu_ns{model="ckpt",gen="1",quantile="0.5"}' \
    --require 'lttf_request_alloc_bytes{model="ckpt",gen="1",quantile="0.5"}' \
    --require 'lttf_mem_live_bytes' \
    --require 'lttf_mem_peak_bytes'

echo quit >&9
exec 9>&-
wait "$SERVE_PID"
SERVE_PID=""

echo "==> session smoke  (open/push/close over TCP at LTTF_THREADS=1 and 4)"
# A full streaming session against the same checkpoint: open, 17 pushes
# of real CSV rows (the window is lx=16, so pushes 16 and 17 must answer
# with forecasts), then close and check the summary counters — once
# serial, once pooled.
for threads in 1 4; do
    SPORT=$((17900 + threads))
    mkfifo "$SCRATCH/ctl_$threads"
    LTTF_QUIET=1 LTTF_THREADS=$threads target/release/lttf serve --model "$SCRATCH/ckpt" \
        --port $SPORT --sessions 8 < "$SCRATCH/ctl_$threads" > "$SCRATCH/serve_$threads.out" 2>&1 &
    SERVE_PID=$!
    exec 9> "$SCRATCH/ctl_$threads"
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$SPORT") 2>/dev/null; then break; fi
        kill -0 "$SERVE_PID" 2>/dev/null \
            || { echo "FAIL: lttf serve exited early:" >&2; cat "$SCRATCH/serve_$threads.out" >&2; exit 1; }
        sleep 0.1
    done
    exec 8<>"/dev/tcp/127.0.0.1/$SPORT"
    echo '{"id":1,"cmd":"open","t0":1700000000,"dt":3600}' >&8
    IFS= read -r resp <&8
    session=$(printf '%s' "$resp" | sed -n 's/.*"session":\([0-9][0-9]*\).*/\1/p')
    [[ "$resp" == *'"ok":true'* && -n "$session" ]] \
        || { echo "FAIL: open refused at LTTF_THREADS=$threads: $resp" >&2; exit 1; }
    awk -F, -v sid="$session" 'NR >= 2 && NR <= 18 {
        printf "{\"id\":%d,\"cmd\":\"push\",\"session\":%s,\"values\":[", NR + 100, sid
        sep = ""
        for (j = 2; j <= NF; j++) { printf "%s%s", sep, $j; sep = "," }
        print "]}"
    }' "$SCRATCH/ettm1.csv" > "$SCRATCH/pushes_$threads.jsonl"
    while IFS= read -r line; do
        printf '%s\n' "$line" >&8
        IFS= read -r resp <&8
        case "$resp" in
            *'"error"'*) echo "FAIL: push refused at LTTF_THREADS=$threads: $resp" >&2; exit 1 ;;
        esac
    done < "$SCRATCH/pushes_$threads.jsonl"
    case "$resp" in
        *'"forecast"'*'"gen":1'*|*'"gen":1'*'"forecast"'*) ;;
        *) echo "FAIL: full window did not forecast at LTTF_THREADS=$threads: $resp" >&2; exit 1 ;;
    esac
    echo "{\"id\":999,\"cmd\":\"close\",\"session\":$session}" >&8
    IFS= read -r resp <&8
    case "$resp" in
        *'"pushed":17'*'"forecasts":2'*) ;;
        *) echo "FAIL: close summary wrong at LTTF_THREADS=$threads: $resp" >&2; exit 1 ;;
    esac
    # An id past 2^53 does not survive the f64 parse: the server must
    # refuse it and echo the id exactly as sent, not a rounded one.
    echo '{"id":9007199254740993,"cmd":"metrics"}' >&8
    IFS= read -r resp <&8
    case "$resp" in
        *'"id":9007199254740993,"ok":false'*) ;;
        *) echo "FAIL: out-of-range id not refused with its exact echo at LTTF_THREADS=$threads: $resp" >&2; exit 1 ;;
    esac
    exec 8>&-
    echo quit >&9
    exec 9>&-
    wait "$SERVE_PID"
    SERVE_PID=""
done

echo "==> OK: build, tests, bench compilation, telemetry smoke, live scrape, and session smoke all passed offline"
