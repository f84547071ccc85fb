#!/usr/bin/env bash
# Performance regression gates. Each gate measures a fresh run; the
# committed results/ files are baselines and records, never the fresh
# side, and are never overwritten here.
#
#   1. kernels     each kernel's fresh median within 2x of the committed
#                  results/BENCH_kernels.json median;
#   2. telemetry   the span instrumentation costs at most 3% on the kernels
#                  suite: the median, over 5 interleaved rounds, of the
#                  per-round on/off ratio of the suite's summed medians;
#   3. scaling     a fresh `lttf bench-serve --mode scaling` has rows for
#                  1, 2 and 4 replicas, zero failed requests, and a 4-over-1
#                  replica speedup of at least 2x;
#   4. stream      a fresh `lttf bench-serve --mode stream` has both rows,
#                  zero failed pushes, at least one published adaptation,
#                  and adapted post-shift MSE at most the frozen one;
#   5. latency     single-request forward speed vs the frozen pre-SIMD
#                  results/BENCH_parallel_scaling_pr6_baseline.json;
#   6. memory      serve peak bytes and allocs/request within 1.25x of
#                  results/BENCH_memory.json.
#
# Every gate is evaluated even when an earlier one fails; the script exits
# 1 at the end and names each gate that failed. Refresh a baseline
# deliberately when a change to it is intended, e.g.
# `BENCH_OUT=results cargo bench -p lttf-bench --bench kernels`.
#
#   scripts/bench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH_DIR=$(mktemp -d)
trap 'rm -rf "$FRESH_DIR"' EXIT

failed=()
# fail GATE MESSAGE: report a failed check and remember its gate.
fail() {
    echo "FAIL  $1: $2" >&2
    failed+=("$1")
}

# Extract "bench name -> median_ns" pairs from a JSON-lines bench file.
medians() {
    sed -n 's/.*"bench":"\([^"]*\)".*"median_ns":\([0-9]*\).*/\1 \2/p' "$1"
}

# The value of numeric field $3 on the row whose bench is $2 in file $1.
field() {
    sed -n "s/.*\"bench\":\"$2\".*\"$3\":\([0-9.eE+-]*\).*/\1/p" "$1"
}

# kernels_run OUT_DIR [cargo flags]: one run of the kernels suite; its
# table goes to the terminal only when the run fails.
kernels_run() {
    local out=$1
    shift
    BENCH_OUT="$out" cargo bench --offline -q -p lttf-bench --bench kernels "$@" \
        >/dev/null 2>"$FRESH_DIR/kernels.err" && [[ -f "$out/BENCH_kernels.json" ]] \
        || { cat "$FRESH_DIR/kernels.err" >&2; return 1; }
}

cargo build -q --release --offline --locked

echo "==> kernels suite: 5 interleaved rounds, telemetry on and compiled out (--no-default-features)"
ratios=()
for r in 1 2 3 4 5; do
    if kernels_run "$FRESH_DIR/on_$r" && kernels_run "$FRESH_DIR/off_$r" --no-default-features; then
        on=$(medians "$FRESH_DIR/on_$r/BENCH_kernels.json" | awk '{s += $2} END {print s}')
        off=$(medians "$FRESH_DIR/off_$r/BENCH_kernels.json" | awk '{s += $2} END {print s}')
        ratio=$(awk -v on="$on" -v off="$off" 'BEGIN { printf "%.4f", on / off }')
        echo "round $r: sum of medians on ${on}ns, off ${off}ns, on/off $ratio"
        ratios+=("$ratio")
    else
        echo "round $r: a kernels suite run failed" >&2
    fi
done

BASELINE=results/BENCH_kernels.json
FRESH="$FRESH_DIR/on_1/BENCH_kernels.json"
if [[ ! -f "$BASELINE" ]]; then
    echo "no committed baseline at $BASELINE; skipping the kernels gate" >&2
elif [[ ! -f "$FRESH" ]]; then
    fail kernels "the first telemetry-on kernels run produced no $FRESH"
else
    echo "==> kernels gate (round 1 vs $BASELINE)"
    while read -r name base_med; do
        fresh_med=$(medians "$FRESH" | awk -v n="$name" '$1 == n {print $2}')
        if [[ -z "$fresh_med" ]]; then
            echo "WARN  $name: present in baseline but missing from fresh run"
        elif ((fresh_med > 2 * base_med)); then
            fail kernels "$name: fresh median ${fresh_med}ns > 2x baseline ${base_med}ns"
        else
            printf 'ok    %-28s baseline %10dns  fresh %10dns\n' "$name" "$base_med" "$fresh_med"
        fi
    done < <(medians "$BASELINE")
fi

echo "==> telemetry-overhead gate (median on/off ratio of ${#ratios[@]} rounds <= 1.03)"
if ((${#ratios[@]} < 5)); then
    fail telemetry "only ${#ratios[@]} of 5 rounds completed"
else
    printf '%s\n' "${ratios[@]}" | sort -g | awk 'NR == 3 {
        printf "telemetry overhead: %+.2f%% (median round)\n", ($1 - 1) * 100;
        exit ($1 <= 1.03) ? 0 : 1;
    }' || fail telemetry "median on/off ratio exceeds 1.03 on the kernels suite"
fi

# no_failures GATE FILE: fail GATE if a row of FILE recorded a failed
# request or push.
no_failures() {
    ! grep -o '"failed":[0-9]*' "$2" | grep -qv '"failed":0' \
        || fail "$1" "$2 recorded failed requests"
}

# Serving-tier scaling gate: the replica curve (DESIGN.md §10) runs with
# a service-time floor, so it holds even on single-core hosts (the floor
# and host_cores are recorded in each row).
echo "==> serve replica-scaling gate (fresh lttf bench-serve --mode scaling)"
SERVE="$FRESH_DIR/scaling/BENCH_serve.json"
if LTTF_QUIET=1 target/release/lttf bench-serve --mode scaling --out-dir "$FRESH_DIR/scaling" >/dev/null; then
    for r in 1 2 4; do
        grep -q "\"bench\":\"open_loop_[a-z]*/replicas_$r\"" "$SERVE" \
            || fail scaling "$SERVE missing open-loop entry for replicas_$r"
    done
    no_failures scaling "$SERVE"
    speedup=$(field "$SERVE" replica_speedup speedup)
    if [[ -z "$speedup" ]]; then
        fail scaling "$SERVE has no replica_speedup entry"
    else
        echo "replica speedup ${speedup}x (gate >= 2x)"
        awk -v s="$speedup" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' \
            || fail scaling "replica speedup ${speedup}x below the 2x gate"
    fi
else
    fail scaling "lttf bench-serve --mode scaling exited non-zero"
fi

# Streaming-session gate (online test-time adaptation, DESIGN.md §12).
# Which generation answers a push depends on thread timing, so the
# adapted MSE moves run to run; the bound is relative to the frozen run.
echo "==> serve streaming-adaptation gate (fresh lttf bench-serve --mode stream)"
STREAM="$FRESH_DIR/stream/BENCH_serve.json"
if LTTF_QUIET=1 target/release/lttf bench-serve --mode stream --out-dir "$FRESH_DIR/stream" >/dev/null; then
    no_failures stream "$STREAM"
    frozen_mse=$(field "$STREAM" stream_frozen post_shift_mse)
    adapted_mse=$(field "$STREAM" stream_adapted post_shift_mse)
    publishes=$(field "$STREAM" stream_adapted publishes)
    if [[ -z "$frozen_mse" || -z "$adapted_mse" ]]; then
        fail stream "$STREAM missing stream_frozen/stream_adapted rows"
    else
        if [[ -z "$publishes" || "$publishes" -lt 1 ]]; then
            fail stream "stream_adapted never published an adapted generation"
        fi
        awk -v f="$frozen_mse" -v a="$adapted_mse" -v p="$publishes" 'BEGIN {
            printf "post-shift mse: frozen %.4f, adapted %.4f (%.2fx), %d publishes\n",
                f, a, f / (a > 0 ? a : 1e-9), p;
            exit (a <= f) ? 0 : 1;
        }' || fail stream "adapted post-shift MSE ${adapted_mse} exceeds frozen ${frozen_mse}"
    fi
else
    fail stream "lttf bench-serve --mode stream exited non-zero"
fi

# Single-request latency gates. Fresh parallel_scaling run, compared
# against the *frozen* pre-SIMD medians in
# results/BENCH_parallel_scaling_pr6_baseline.json (a historical
# snapshot — never regenerate it):
#
#   1. On AVX2+FMA hosts, model_forward/threads=1 must stay >= 1.8x faster
#      than the pre-SIMD median.
#   2. On hosts with >= 4 cores, the batch=1 row must actually scale:
#      model_forward_b1 threads=4 must beat threads=1 by >= 1.4x.
#
# Each gate is skipped (loudly) on hosts that cannot express it.
FROZEN=results/BENCH_parallel_scaling_pr6_baseline.json
PSCALE="$FRESH_DIR/BENCH_parallel_scaling.json"
if [[ ! -f "$FROZEN" ]]; then
    echo "no frozen pre-SIMD baseline at $FROZEN; skipping latency gates" >&2
elif ! BENCH_OUT="$FRESH_DIR" cargo bench --offline -q -p lttf-bench --bench parallel_scaling \
    >/dev/null || [[ ! -f "$PSCALE" ]]; then
    fail latency "parallel_scaling run produced no $PSCALE"
else
    echo "==> single-request latency gates (fresh parallel_scaling vs $FROZEN)"
    if grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | grep -qw avx2 \
        && grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | grep -qw fma; then
        base_fwd=$(medians "$FROZEN" | awk '$1 == "model_forward/threads=1" {print $2}')
        fresh_fwd=$(medians "$PSCALE" | awk '$1 == "model_forward/threads=1" {print $2}')
        if [[ -z "$base_fwd" || -z "$fresh_fwd" ]]; then
            fail latency "model_forward/threads=1 missing from $FROZEN or fresh run"
        else
            awk -v b="$base_fwd" -v f="$fresh_fwd" 'BEGIN {
                printf "model_forward/threads=1: pre-SIMD %dns, fresh %dns (%.2fx)\n", b, f, b / f;
                exit (b >= 1.8 * f) ? 0 : 1;
            }' || fail latency "model_forward median no longer >= 1.8x faster than the pre-SIMD baseline"
        fi
    else
        echo "host lacks AVX2+FMA; skipping the 1.8x SIMD speedup gate" >&2
    fi

    cores=$(nproc 2>/dev/null || echo 1)
    if ((cores >= 4)); then
        b1_t1=$(medians "$PSCALE" | awk '$1 == "model_forward_b1/threads=1" {print $2}')
        b1_t4=$(medians "$PSCALE" | awk '$1 == "model_forward_b1/threads=4" {print $2}')
        if [[ -z "$b1_t1" || -z "$b1_t4" ]]; then
            fail latency "model_forward_b1 rows missing from fresh parallel_scaling run"
        else
            awk -v t1="$b1_t1" -v t4="$b1_t4" 'BEGIN {
                printf "model_forward_b1: threads=1 %dns, threads=4 %dns (%.2fx)\n", t1, t4, t1 / t4;
                exit (t1 >= 1.4 * t4) ? 0 : 1;
            }' || fail latency "batch=1 forward no longer scales >= 1.4x from 1 to 4 threads"
        fi
    else
        echo "host has $cores core(s); skipping the 4-thread batch=1 scaling gate" >&2
    fi
fi

# Peak-memory regression gate (allocation accounting): fails when fresh
# peak bytes or allocs per request grow past 1.25x the committed values —
# the gate that catches a per-request allocation leak or an accidental
# working-set blow-up. Refresh the baseline deliberately
# (target/release/lttf bench-serve --mode memory --out-dir results) when
# an allocation-rate change is intended.
MEMBASE=results/BENCH_memory.json
MEMFRESH="$FRESH_DIR/memory/BENCH_memory.json"
if [[ ! -f "$MEMBASE" ]]; then
    echo "no committed memory baseline at $MEMBASE; skipping peak-memory gate" >&2
elif ! LTTF_QUIET=1 target/release/lttf bench-serve --mode memory --out-dir "$FRESH_DIR/memory" >/dev/null \
    || [[ ! -f "$MEMFRESH" ]]; then
    fail memory "memory bench produced no $MEMFRESH"
else
    echo "==> serve peak-memory gate (fresh lttf bench-serve --mode memory vs $MEMBASE)"
    memfield() { sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$1" | head -n 1; }
    base_peak=$(memfield "$MEMBASE" peak_bytes)
    base_allocs=$(memfield "$MEMBASE" allocs_per_request)
    fresh_peak=$(memfield "$MEMFRESH" peak_bytes)
    fresh_allocs=$(memfield "$MEMFRESH" allocs_per_request)
    if [[ -z "$base_peak" || -z "$base_allocs" ]]; then
        fail memory "$MEMBASE has no peak_bytes/allocs_per_request fields"
    elif [[ "$fresh_peak" == 0 || "$fresh_allocs" == 0 ]]; then
        echo "SKIP: fresh memory bench read zeroed counters (allocator compiled out?);" \
             "peak-memory gate not evaluated" >&2
    else
        awk -v bp="$base_peak" -v fp="$fresh_peak" -v ba="$base_allocs" -v fa="$fresh_allocs" 'BEGIN {
            printf "peak bytes: baseline %d, fresh %d (%.2fx); allocs/request: baseline %d, fresh %d (%.2fx)\n",
                bp, fp, fp / bp, ba, fa, fa / ba;
            exit (fp <= 1.25 * bp && fa <= 1.25 * ba) ? 0 : 1;
        }' || fail memory "serve memory footprint regressed past 1.25x the committed baseline"
    fi
fi

if ((${#failed[@]})); then
    echo "==> bench_check: FAILED gates: $(printf '%s\n' "${failed[@]}" | sort -u | tr '\n' ' ')" >&2
    exit 1
fi
echo "==> bench_check: all gates passed"
