//! Runtime-dispatched SIMD microkernels with scalar fallbacks.
//!
//! Every hot inner loop in this crate (gemm micro-tiles, conv axpy ranges,
//! block reductions, transcendental maps, the fused GRU gate math) funnels
//! through the free functions in this module. Each function picks a
//! **backend** once per call:
//!
//! - `avx2+fma` — explicit `std::arch` intrinsics, used when the CPU
//!   supports AVX2 and FMA (detected once per process via
//!   `is_x86_feature_detected!`) and the user has not opted out.
//! - `scalar`   — the portable Rust loops that were previously the only
//!   implementation. Always available, always the fallback.
//!
//! Selection order: [`set_simd_override`] (tests/benches) outranks the
//! `LTTF_SIMD` environment variable (`LTTF_SIMD=0` forces scalar), which
//! outranks auto-detection. The decision is process-global, so a kernel
//! never mixes backends across the parallel pool's chunk boundaries.
//!
//! # Determinism contract (see DESIGN.md §8)
//!
//! Lane-parallel operations (element-wise arithmetic) produce **bit
//! -identical** results on both backends: each output element is computed
//! by the same IEEE operations in the same order. Operations that fuse
//! multiply-add (gemm, conv, axpy) or reshape reduction trees (dot, sum)
//! or replace `libm` transcendentals with polynomial kernels (exp,
//! sigmoid, tanh, gelu) may differ from the scalar backend in the last
//! ulp. Within **one** backend every kernel remains a pure function of its
//! operands and shapes — bit-identical across runs and thread counts.

use std::sync::atomic::{AtomicI8, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

/// Process-wide backend override: `-1` unset, `0` force scalar, `1`
/// prefer SIMD (subject to hardware detection).
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// True when this CPU can run the AVX2+FMA kernels (cached detection).
fn hw_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static V: OnceLock<bool> = OnceLock::new();
        *V.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The `LTTF_SIMD`-aware default (parsed once per process).
fn env_default() -> bool {
    static V: OnceLock<bool> = OnceLock::new();
    *V.get_or_init(|| match lttf_obs::env::simd() {
        Some(false) => false,
        _ => hw_supported(),
    })
}

/// True when kernels should take the AVX2+FMA path for this call.
#[inline]
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => hw_supported(),
        _ => env_default(),
    }
}

/// Set (or clear) the backend override. `Some(false)` forces the scalar
/// kernels exactly like `LTTF_SIMD=0`; `Some(true)` asks for the SIMD
/// kernels (still gated on hardware support); `None` restores the
/// environment/auto default.
///
/// The override is **process-global** (kernels run on pool worker
/// threads, so a thread-local override could mix backends within one
/// tensor). Tests that flip it must serialize against other tests that
/// depend on the backend — see `tests/determinism.rs`'s `exclusive()`
/// pattern and this crate's [`test_lock`].
pub fn set_simd_override(v: Option<bool>) {
    let enc = match v {
        None => -1,
        Some(false) => 0,
        Some(true) => 1,
    };
    OVERRIDE.store(enc, Ordering::Relaxed);
}

/// Name of the backend [`enabled`] resolves to right now, for report
/// headers: `"avx2+fma"`, `"scalar"` (hardware cannot do better), or
/// `"scalar (forced)"` (hardware could, but `LTTF_SIMD=0` or an override
/// said no).
pub fn backend_name() -> &'static str {
    if enabled() {
        "avx2+fma"
    } else if hw_supported() {
        "scalar (forced)"
    } else {
        "scalar"
    }
}

/// Serializes tests that flip [`set_simd_override`] (or compare backends)
/// within one test binary. Lock poisoning is ignored — a failed test must
/// not cascade into every later backend test.
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` under the forced-scalar then the forced-AVX2 backend, returning
/// `(scalar, simd)`: the harness of the workspace's cross-backend property
/// tests. Holds this crate's override lock for the duration, so two such
/// runs never interleave, and restores the environment's default even if
/// `f` panics. On hosts without AVX2 both runs take the scalar path.
pub fn on_both_backends<T>(f: impl Fn() -> T) -> (T, T) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_simd_override(None);
        }
    }
    let _guard = test_lock();
    let _restore = Restore;
    set_simd_override(Some(false));
    let scalar = f();
    set_simd_override(Some(true));
    let simd = f();
    (scalar, simd)
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of a slice with pairwise (cascade) error growth.
///
/// Scalar backend: recursive halving with a 32-element sequential base.
/// SIMD backend: recursive halving to 256-element blocks reduced by a
/// 4-accumulator AVX2 loop. Both trees depend only on the length.
#[inline]
pub fn sum(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        return unsafe { avx2::sum(x) };
    }
    scalar::sum(x)
}

/// Dot product with pairwise error growth; same tree shapes as [`sum`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        return unsafe { avx2::dot(a, b) };
    }
    scalar::dot(a, b)
}

/// `y[i] += a * x[i]` (the conv/attention accumulation primitive).
#[inline]
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::axpy(y, a, x) };
        return;
    }
    scalar::axpy(y, a, x);
}

// ---------------------------------------------------------------------------
// gemm micro-tiles
// ---------------------------------------------------------------------------

/// `out[0..m, 0..n] += a[0..m, 0..k] @ b[0..k, 0..n]` over strided
/// operands: `a[i, p]` is `a[i * lda + p * acs]`, and `b`/`out` are
/// row-major with row strides `ldb`/`ldo`, so callers can point into
/// larger matrices or a packed panel, and read `a` transposed in place
/// (`lda = 1`, `acs` = its row length).
///
/// Dispatches to the AVX2+FMA register-blocked micro-tile when enabled,
/// else to a portable i-k-j loop. Within each backend the accumulation
/// order per output element is a pure function of `(k, n)`: neither `m`
/// nor the strides change it, so a block of rows gives every row the bits
/// it gets alone.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn gemm_block(
    a: &[f32],
    lda: usize,
    acs: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(
        a.len() > (m - 1) * lda + (k - 1) * acs,
        "gemm_block: a too short"
    );
    assert!(b.len() >= (k - 1) * ldb + n, "gemm_block: b too short");
    assert!(out.len() >= (m - 1) * ldo + n, "gemm_block: out too short");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: bounds checked above; `enabled()` implies AVX2+FMA.
        unsafe { avx2::gemm_block(a, lda, acs, b, ldb, out, ldo, m, k, n) };
        return;
    }
    scalar::gemm_block(a, lda, acs, b, ldb, out, ldo, m, k, n);
}

// ---------------------------------------------------------------------------
// Element-wise slice kernels
// ---------------------------------------------------------------------------

/// Which lane-parallel binary operation [`binary`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// `out[i] = a[i] op b[i]`. Lane-parallel IEEE operations — bit-identical
/// on both backends; the SIMD path only widens the stride.
#[inline]
pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::binary(op, a, b, out) };
        return;
    }
    scalar::binary(op, a, b, out);
}

/// Which transcendental map [`unary`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `e^x`
    Exp,
    /// `1 / (1 + e^{-x})`
    Sigmoid,
    /// `tanh x`
    Tanh,
    /// GELU, tanh approximation (transformer convention)
    Gelu,
}

/// `out[i] = f(x[i])` for the transcendental maps the models lean on.
///
/// The SIMD backend uses a degree-5 polynomial `exp` (≈2 ulp) instead of
/// `libm`, so results differ from the scalar backend in the last ulps;
/// each backend alone is a pure function of the input bytes.
#[inline]
pub fn unary(op: UnOp, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::unary(op, x, out) };
        return;
    }
    scalar::unary(op, x, out);
}

// ---------------------------------------------------------------------------
// Fused GRU gates
// ---------------------------------------------------------------------------

/// Fused GRU gate math for one batch row of `h` lanes.
///
/// Inputs are the pre-activation gate rows `gi = x_t W_ih + b_ih` and
/// `gh = h_{t-1} W_hh + b_hh`, both laid out `[r | z | n]` (PyTorch
/// order), plus the previous hidden state row. Computes
///
/// ```text
/// r = σ(gi_r + gh_r)    z = σ(gi_z + gh_z)
/// n = tanh(gi_n + r ⊙ gh_n)
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
///
/// When `stash` is given, the gate activations `(r, z, n, gh_n)` are
/// recorded for the hand-written backward pass
/// ([`crate::gru_layer_backward`]).
pub fn gru_gates_row(
    gi: &[f32],
    gh: &[f32],
    h: &[f32],
    out: &mut [f32],
    stash: Option<(&mut [f32], &mut [f32], &mut [f32], &mut [f32])>,
) {
    let hs = h.len();
    debug_assert_eq!(gi.len(), 3 * hs);
    debug_assert_eq!(gh.len(), 3 * hs);
    debug_assert_eq!(out.len(), hs);
    if let Some((r, z, n, ghn)) = &stash {
        debug_assert!(r.len() == hs && z.len() == hs && n.len() == hs && ghn.len() == hs);
    }
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::gru_gates_row(gi, gh, h, out, stash) };
        return;
    }
    scalar::gru_gates_row(gi, gh, h, out, stash);
}

/// Gate backward of [`gru_gates_row`] for one batch row of `h` lanes at
/// one step of backprop-through-time.
///
/// Reads the upstream gradient row `go`, the previous hidden state row
/// `h_prev`, the stashed `[r, z, n, gh_n]` rows, and the carry `dh`
/// (∂L/∂h_t from later steps). With `d = go + dh` it writes
///
/// ```text
/// dn = (1 − n²)(1 − z) d          dz = z(1 − z) · (h_prev − n) d
/// dr = r(1 − r) · (dn ⊙ gh_n)
/// dgi = [dr | dz | dn]            dgh = [dr | dz | dn ⊙ r]
/// ```
///
/// and overwrites `dh` with the direct carry term `z ⊙ d` (the recurrent
/// gemm adds `dgh W_hhᵀ` to it). Lane-parallel multiplies, adds and
/// subtracts with no fused multiply-add, so both backends produce the
/// same bits.
pub fn gru_gates_row_backward(
    go: &[f32],
    h_prev: &[f32],
    gates: [&[f32]; 4],
    dh: &mut [f32],
    dgi: &mut [f32],
    dgh: &mut [f32],
) {
    let hs = dh.len();
    assert!(
        go.len() == hs && h_prev.len() == hs,
        "gate backward: row length mismatch"
    );
    assert!(
        gates.iter().all(|g| g.len() == hs),
        "gate backward: stash row length mismatch"
    );
    assert!(
        dgi.len() == 3 * hs && dgh.len() == 3 * hs,
        "gate backward: gate row length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: lengths checked above; `enabled()` implies AVX2+FMA.
        unsafe { avx2::gru_gates_row_backward(go, h_prev, gates, dh, dgi, dgh) };
        return;
    }
    scalar::gru_gates_row_backward(go, h_prev, gates, dh, dgi, dgh);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_name_is_consistent_with_enabled() {
        let _guard = test_lock();
        set_simd_override(Some(false));
        assert!(!enabled());
        assert!(backend_name().starts_with("scalar"));
        set_simd_override(Some(true));
        assert_eq!(enabled(), hw_supported());
        set_simd_override(None);
    }

    #[test]
    fn binary_ops_bit_identical_across_backends() {
        let _guard = test_lock();
        let a: Vec<f32> = (0..133).map(|i| (i as f32 * 0.37).sin() * 8.0).collect();
        let b: Vec<f32> = (0..133)
            .map(|i| (i as f32 * 0.53).cos() * 2.0 + 0.5)
            .collect();
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            let mut scalar_out = vec![0.0f32; a.len()];
            set_simd_override(Some(false));
            binary(op, &a, &b, &mut scalar_out);
            let mut simd_out = vec![0.0f32; a.len()];
            set_simd_override(Some(true));
            binary(op, &a, &b, &mut simd_out);
            set_simd_override(None);
            for (i, (s, v)) in scalar_out.iter().zip(&simd_out).enumerate() {
                assert_eq!(s.to_bits(), v.to_bits(), "{op:?} lane {i}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn unary_ops_close_across_backends() {
        let _guard = test_lock();
        let x: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.11).collect();
        for op in [UnOp::Exp, UnOp::Sigmoid, UnOp::Tanh, UnOp::Gelu] {
            let mut scalar_out = vec![0.0f32; x.len()];
            set_simd_override(Some(false));
            unary(op, &x, &mut scalar_out);
            let mut simd_out = vec![0.0f32; x.len()];
            set_simd_override(Some(true));
            unary(op, &x, &mut simd_out);
            set_simd_override(None);
            for (i, (s, v)) in scalar_out.iter().zip(&simd_out).enumerate() {
                let tol = 4e-6 * s.abs().max(1.0);
                assert!(
                    (s - v).abs() <= tol,
                    "{op:?} at x={}: scalar {s} vs simd {v}",
                    x[i]
                );
            }
        }
    }

    #[test]
    fn reductions_close_across_backends() {
        let _guard = test_lock();
        for n in [0usize, 1, 7, 31, 32, 33, 255, 256, 257, 1000, 8192] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos() * 2.0).collect();
            set_simd_override(Some(false));
            let (s_sum, s_dot) = (sum(&a), dot(&a, &b));
            set_simd_override(Some(true));
            let (v_sum, v_dot) = (sum(&a), dot(&a, &b));
            set_simd_override(None);
            assert!(
                (s_sum - v_sum).abs() <= 1e-4 * s_sum.abs().max(1.0),
                "sum len {n}: {s_sum} vs {v_sum}"
            );
            assert!(
                (s_dot - v_dot).abs() <= 1e-4 * s_dot.abs().max(1.0),
                "dot len {n}: {s_dot} vs {v_dot}"
            );
        }
    }
}
