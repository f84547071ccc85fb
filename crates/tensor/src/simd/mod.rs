//! Runtime-dispatched SIMD microkernels with scalar fallbacks.
//!
//! Every hot inner loop in this crate (gemm micro-tiles, conv rows and
//! strided dots, block reductions, transcendental maps, the fused GRU
//! gate math) funnels through the free functions in this module. Each
//! function picks a **backend** once per call:
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
// Channels-last convolution
// ---------------------------------------------------------------------------

/// Consecutive output rows of a channels-last convolution (or of its
/// input gradient). Each of the `rows` rows of `out` (`n = out.len() /
/// rows` lanes apiece) starts as `init` (or `+0.0`); then for each source
/// channel `c < n_ch` and each tap `t < taps` in that order, row `r` adds
/// `src[s_rt + c] · w[(c·k + kk0 + t)·n + j]` to lane `j`. Tap `t` of row
/// `r` reads the source row at `s_rt = first + r·rstep + t·step` (`step`
/// is negative when the taps walk the source backwards), and `w` is packed
/// `[n_ch, k, n]` so a tap's weights are one contiguous row.
///
/// Each output lane accumulates its taps in the same order as an [`axpy`]
/// per tap would. With `fused` on the AVX2 backend each step is one FMA,
/// as [`axpy`] does it; otherwise, and on the scalar backend, multiply
/// then add.
///
/// # Panics
/// Panics if `out` does not split into `rows` rows, or a tap row, a weight
/// row or `init` falls outside its slice.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn conv_rows(
    src: &[f32],
    first: usize,
    rstep: usize,
    step: isize,
    taps: usize,
    n_ch: usize,
    w: &[f32],
    k: usize,
    kk0: usize,
    init: Option<&[f32]>,
    out: &mut [f32],
    rows: usize,
    fused: bool,
) {
    if rows == 0 {
        return;
    }
    assert_eq!(out.len() % rows, 0, "conv_rows: ragged rows");
    let n = out.len() / rows;
    if taps > 0 && n_ch > 0 {
        let span = (taps - 1) as isize * step;
        let last_row = first + (rows - 1) * rstep;
        assert!(
            first as isize + span.min(0) >= 0
                && (last_row as isize + span.max(0)) as usize + n_ch <= src.len(),
            "conv_rows: tap row out of range"
        );
    }
    assert!(
        kk0 + taps <= k && w.len() >= n_ch * k * n,
        "conv_rows: weights too short"
    );
    assert!(init.is_none_or(|b| b.len() == n), "conv_rows: init length");
    #[cfg(target_arch = "x86_64")]
    if fused && enabled() {
        // SAFETY: bounds checked above; `enabled()` implies AVX2+FMA.
        unsafe {
            avx2::conv_rows_fma(
                src, first, rstep, step, taps, n_ch, w, k, kk0, init, out, rows,
            )
        };
        return;
    }
    scalar::conv_rows(
        src, first, rstep, step, taps, n_ch, w, k, kk0, init, out, rows,
    );
}

/// Strided [`dot`]s added to `out`, bit-identical to adding [`dot`] of
/// gathered copies: `out[l] += dot(a_s, b_l)` for each lane `l <
/// out.len()`, with `a_s[i] = a[i·sa]` and `b_l[i] = b[i·sb + l]` for `i <
/// n`.
///
/// On the AVX2 backend up to eight lanes run [`dot`]'s schedule side by
/// side in one register, reading both operands in place. The scalar
/// backend walks [`dot`]'s pairwise tree over the strided operands
/// directly, its lanes side by side.
///
/// # Panics
/// Panics if more than eight lanes are asked for or an operand is too
/// short.
pub(crate) fn dot_strided(a: &[f32], sa: usize, b: &[f32], sb: usize, n: usize, out: &mut [f32]) {
    let lanes = out.len();
    assert!(lanes <= 8, "dot_strided: at most 8 lanes");
    if n == 0 || lanes == 0 {
        return;
    }
    assert!(a.len() > (n - 1) * sa, "dot_strided: a too short");
    assert!(b.len() >= (n - 1) * sb + lanes, "dot_strided: b too short");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: bounds checked above; `enabled()` implies AVX2+FMA.
        unsafe { avx2::dot_lanes_acc(a, sa, b, sb, n, out) };
        return;
    }
    let d = scalar::dot_lanes(a, sa, b, sb, n, lanes);
    for (o, d) in out.iter_mut().zip(d) {
        *o += d;
    }
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

/// [`binary`] of a full operand and a repeated row: `out[i] = full[i] op
/// row[(phase + i) mod w]`, or `row[…] op full[i]` when `row_left`, for
/// `w = row.len()`. One call covers a run of rows that may start and end
/// mid-row; each element gets the bits [`binary`] gives it.
///
/// # Panics
/// Panics if `row` is empty or `phase` is not inside it, or if `full` and
/// `out` differ in length.
pub fn binary_rows(
    op: BinOp,
    full: &[f32],
    row: &[f32],
    phase: usize,
    row_left: bool,
    out: &mut [f32],
) {
    assert!(phase < row.len(), "binary rows: phase outside the row");
    assert_eq!(full.len(), out.len(), "binary rows: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::binary_rows(op, full, row, phase, row_left, out) };
        return;
    }
    row_pieces(full, row, phase, row_left, out, |a, b, o| {
        scalar::binary(op, a, b, o)
    });
}

/// The walk of [`binary_rows`], for both backends: `piece(a, b, out)` on
/// each run of `out` that stays inside one row, with `a` and `b` in the
/// operation's order.
#[inline(always)]
fn row_pieces(
    full: &[f32],
    row: &[f32],
    phase: usize,
    row_left: bool,
    out: &mut [f32],
    mut piece: impl FnMut(&[f32], &[f32], &mut [f32]),
) {
    let (mut i, mut c) = (0, phase);
    while i < out.len() {
        let w = (row.len() - c).min(out.len() - i);
        let (x, r, o) = (&full[i..i + w], &row[c..c + w], &mut out[i..i + w]);
        if row_left {
            piece(r, x, o);
        } else {
            piece(x, r, o);
        }
        (i, c) = (i + w, 0);
    }
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

/// A strided run of rows: row `i` starts at `data[i * stride]`. Stride 0
/// reads one row for every index.
pub type Strided<'a> = (&'a [f32], usize);

/// Ask the cache for `rows` rows of `width` floats, row `i` from
/// `data[i * stride..]`, ahead of their use. A hint only: it reads and
/// changes nothing, and rows past the end of `data` are skipped.
pub(crate) fn prefetch_rows(data: &[f32], stride: usize, rows: usize, width: usize) {
    #[cfg(target_arch = "x86_64")]
    for i in 0..rows {
        let Some(row) = data.get(i * stride..i * stride + width) else {
            return;
        };
        for line in row.chunks(16) {
            // SAFETY: a prefetch of an address inside a live slice; SSE is
            // part of the x86-64 baseline.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    line.as_ptr().cast(),
                )
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, stride, rows, width);
}

/// Fused GRU gate math for one step of `rows` batch rows of `hs` lanes.
///
/// Inputs are the step's pre-activation gate rows `gi = x_t W_ih + b_ih`
/// and `gh = h_{t-1} W_hh + b_hh`, `[rows, 3·hs]` with each row laid out
/// `[r | z | n]` (PyTorch order), and the hidden state `h`, `[rows, hs]`.
/// Per row it computes
///
/// ```text
/// r = σ(gi_r + gh_r)    z = σ(gi_z + gh_z)
/// n = tanh(gi_n + r ⊙ gh_n)
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
///
/// and writes `h'` over `h` and to row `i` of `out`, at `out[i ·
/// out_stride..]`. `gi` is scratch: the kernel may leave anything in it.
/// When `stash` is given, the gate activations `(r, z, n, gh_n)` are
/// recorded, `[rows, hs]` each, for the hand-written backward pass
/// ([`crate::gru_layer_backward`]).
///
/// # Panics
/// Panics if an operand is shorter than its rows.
pub fn gru_gates_rows(
    hs: usize,
    gi: &mut [f32],
    gh: &[f32],
    h: &mut [f32],
    (out, out_stride): (&mut [f32], usize),
    stash: Option<[&mut [f32]; 4]>,
) {
    if hs == 0 {
        return;
    }
    let rows = h.len() / hs;
    assert!(
        h.len() == rows * hs && gi.len() == 3 * h.len() && gh.len() == 3 * h.len(),
        "gate rows: operand length mismatch"
    );
    assert!(
        rows == 0 || out.len() >= (rows - 1) * out_stride + hs,
        "gate rows: out too short"
    );
    assert!(
        stash
            .as_ref()
            .is_none_or(|s| s.iter().all(|s| s.len() == h.len())),
        "gate rows: stash length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: lengths checked above; `enabled()` implies AVX2+FMA.
        unsafe { avx2::gru_gates_rows(hs, gi, gh, h, (out, out_stride), stash) };
        return;
    }
    scalar::gru_gates_rows(hs, gi, gh, h, (out, out_stride), stash);
}

/// Gate backward of [`gru_gates_rows`] for one step of backprop-through-
/// time over `rows` batch rows of `hs` lanes.
///
/// Reads row `i` of the upstream gradient `go` and of the previous hidden
/// state `h_prev` from their strided runs, the step's stashed `[r, z, n,
/// gh_n]` rows and the carry `dh` (∂L/∂h_t from later steps), `[rows,
/// hs]` each. With `d = go + dh` it writes, per row,
///
/// ```text
/// dn = (1 − n²)(1 − z) d          dz = z(1 − z) · (h_prev − n) d
/// dr = r(1 − r) · (dn ⊙ gh_n)
/// dgi = [dr | dz | dn]            dgh = [dr | dz | dn ⊙ r]
/// ```
///
/// into row `i` of `dgi`, at `dgi[i · dgi_stride..]`, and of the
/// `[rows, 3·hs]` `dgh`, and overwrites `dh` with the direct carry term
/// `z ⊙ d` (the recurrent gemm adds `dgh W_hhᵀ` to it).
/// Lane-parallel multiplies, adds and subtracts with no fused
/// multiply-add, so both backends produce the same bits.
///
/// # Panics
/// Panics if an operand is shorter than its rows.
pub fn gru_gates_rows_backward(
    hs: usize,
    go: Strided<'_>,
    h_prev: Strided<'_>,
    gates: [&[f32]; 4],
    dh: &mut [f32],
    (dgi, dgi_stride): (&mut [f32], usize),
    dgh: &mut [f32],
) {
    if hs == 0 {
        return;
    }
    let rows = dh.len() / hs;
    assert!(
        dh.len() == rows * hs && dgh.len() == 3 * dh.len(),
        "gate rows backward: gradient length mismatch"
    );
    assert!(
        dgi_stride >= 3 * hs && (rows == 0 || dgi.len() >= (rows - 1) * dgi_stride + 3 * hs),
        "gate rows backward: dgi too short"
    );
    assert!(
        gates.iter().all(|g| g.len() == dh.len()),
        "gate rows backward: stash length mismatch"
    );
    for (what, (data, stride)) in [("go", go), ("h_prev", h_prev)] {
        assert!(
            rows == 0 || data.len() >= (rows - 1) * stride + hs,
            "gate rows backward: {what} too short"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: lengths checked above; `enabled()` implies AVX2+FMA.
        unsafe { avx2::gru_gates_rows_backward(hs, go, h_prev, gates, dh, (dgi, dgi_stride), dgh) };
        return;
    }
    scalar::gru_gates_rows_backward(hs, go, h_prev, gates, dh, (dgi, dgi_stride), dgh);
}

// ---------------------------------------------------------------------------
// Banded softmax attention
// ---------------------------------------------------------------------------

/// Banded softmax self-attention over one batch row of the window
/// attention: `len` queries over the same `len` keys in each of `heads`
/// heads, query `i` attending to keys `[i − half, i + half]` clipped to
/// `[0, len)`.
///
/// The operands are `[len, heads·dh]` (q, k and their gradients) and
/// `[len, heads·dv]` (v, the output gradient, the output and dV) rows:
/// head `h` is the `dh` (or `dv`) columns from `h·dh` (or `h·dv`).
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// Queries, and keys.
    pub len: usize,
    /// Keys on each side of a query: `w / 2`.
    pub half: usize,
    /// Heads per row.
    pub heads: usize,
    /// Width of a head's q/k columns.
    pub dh: usize,
    /// Width of a head's v columns.
    pub dv: usize,
    /// Score scale, `1/√dh`.
    pub scale: f32,
}

impl Band {
    /// True when [`band_attention_forward`] and [`band_attention_backward`]
    /// run: the AVX2 backend, and heads narrower than one vector, where
    /// [`dot`] is a sequential FMA chain and [`axpy`] one FMA per element.
    pub fn lanes(&self) -> bool {
        enabled() && self.narrow()
    }

    fn narrow(&self) -> bool {
        (1..8).contains(&self.dh) && (1..8).contains(&self.dv)
    }

    /// Floats per staged channel: the length rounded up to 8, plus a
    /// window's reach on each side.
    fn stride(&self) -> usize {
        self.len.next_multiple_of(8) + 2 * self.half
    }

    /// Channels staged per operand: the wider head, zero-padded to 4 or 8.
    fn width(&self) -> usize {
        if self.dh.max(self.dv) <= 4 {
            4
        } else {
            8
        }
    }

    /// Work floats [`band_attention_forward`] needs: one head's staged q,
    /// k and v, and one block's softmax numerators.
    pub fn forward_work(&self) -> usize {
        3 * self.width() * self.stride() + 8 * (2 * self.half + 1)
    }

    /// Work floats [`band_attention_backward`] needs: one head's staged q,
    /// k, v and output gradient, its per-(slot, query) weights and score
    /// gradients, and one block's scratch.
    pub fn backward_work(&self) -> usize {
        let slots = 2 * self.half + 1;
        (4 * self.width() + 2 * slots) * self.stride() + 16 * slots
    }

    fn check(&self, work: usize, need: usize, operands: &[(&str, usize, usize)]) {
        // The hardware, not the backend: a call keeps the kernel it chose
        // even if a test flips the override meanwhile.
        assert!(
            hw_supported() && self.narrow(),
            "band attention: needs AVX2+FMA and heads of 1 to 7 floats"
        );
        assert!(work >= need, "band attention: work too short");
        for &(what, len, d) in operands {
            assert!(
                len >= self.len * self.heads * d,
                "band attention: {what} too short"
            );
        }
    }
}

/// `out[i] = x[i].exp()` bit for bit, for `x[i] ≤ 0` and NaN: the
/// softmax `exp` of [`band_attention_forward`] and its backward, over a
/// slice. The AVX2 backend runs the vector port of glibc 2.36's `expf`
/// eight lanes at a time; it matches `f32::exp` only where the platform
/// libm is that algorithm, which `tests/libm_exp.rs` checks. The scalar
/// backend calls `f32::exp`. Positive inputs are outside the port's
/// contract.
pub fn libm_exp(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "libm_exp: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2+FMA were detected at runtime.
        unsafe { avx2::libm_exp(x, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.exp();
    }
}

/// Banded softmax attention of one [`Band`] batch row, 8 queries to a
/// register: head `h` of `out` row `i` gets `Σ_j softmax_j(q_i·k_j ·
/// scale) v_j` over query `i`'s keys, from head `h` of each operand. Each
/// lane repeats the per-query loop of a [`dot`]/[`axpy`] kernel bit for
/// bit, with `f32::exp`'s bits for the softmax `exp` (see DESIGN.md §8,
/// "Window attention in lanes"). `work` is scratch for one head.
///
/// # Panics
/// Panics unless the CPU has AVX2+FMA and both head widths are 1 to 7
/// floats (which [`Band::lanes`] checks, with the backend), or if `work`
/// is shorter than [`Band::forward_work`] or an operand than its rows.
pub fn band_attention_forward(
    band: &Band,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    work: &mut [f32],
    out: &mut [f32],
) {
    let (dh, dv) = (band.dh, band.dv);
    band.check(
        work.len(),
        band.forward_work(),
        &[
            ("q", q.len(), dh),
            ("k", k.len(), dh),
            ("v", v.len(), dv),
            ("out", out.len(), dv),
        ],
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `check` bounds every operand and implies AVX2+FMA.
    unsafe {
        avx2::band_attention_forward(band, q, k, v, work, out)
    };
}

/// Gradients of [`band_attention_forward`] for the output gradient `g`:
/// `gq`, `gk` and `gv` are overwritten with dQ, dK and dV. Per head the
/// softmax is recomputed, then two passes run: lanes over queries for the
/// weights, the score gradients and dQ, then lanes over keys for dK and
/// dV, each key summing its queries in ascending order. A pair whose
/// score gradient is `±0` adds nothing to dQ or dK.
///
/// # Panics
/// As [`band_attention_forward`], with [`Band::backward_work`].
#[allow(clippy::too_many_arguments)]
pub fn band_attention_backward(
    band: &Band,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    g: &[f32],
    work: &mut [f32],
    gq: &mut [f32],
    gk: &mut [f32],
    gv: &mut [f32],
) {
    let (dh, dv) = (band.dh, band.dv);
    band.check(
        work.len(),
        band.backward_work(),
        &[
            ("q", q.len(), dh),
            ("k", k.len(), dh),
            ("v", v.len(), dv),
            ("g", g.len(), dv),
            ("gq", gq.len(), dh),
            ("gk", gk.len(), dh),
            ("gv", gv.len(), dv),
        ],
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `check` bounds every operand and implies AVX2+FMA.
    unsafe {
        avx2::band_attention_backward(band, q, k, v, g, work, gq, gk, gv)
    };
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
