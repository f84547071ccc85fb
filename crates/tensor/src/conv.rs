//! 1-D convolution, the workhorse of the models' embedding layers.
//!
//! Activations are channels-last, `[batch, len, channels]` — the layout
//! every caller already holds — so no kernel transposes its input or its
//! output. The weight stays `[out_ch, in_ch, k]` (checkpoints and parameter
//! digests do not see the layout) and is repacked per call, a few hundred
//! floats, so each tap's weights are one contiguous row.
//!
//! * The forward pass and the input gradient compute blocks of output
//!   rows: four rows at a time keep their channels' accumulators in
//!   registers while the kernel walks the taps
//!   ([`crate::simd::conv_rows`]).
//! * The weight gradient runs each tap's dot over time for eight channels
//!   at once ([`crate::simd::dot_strided`]), reading the activations in
//!   place.
//!
//! Every output element sees the same operations in the same order as the
//! channels-first axpy/dot kernels kept as `#[cfg(test)]` references
//! below (with `to_bits()` property tests on both backends): taps in
//! `(in_ch, tap)` order from the bias, fused on the AVX2 backend exactly
//! where the reference's axpy fuses. Padding taps are skipped, never added
//! as `0·w`, which would turn a `-0.0` sum into `+0.0`. Rows are
//! distributed over the worker pool without changing any result bytes.

use crate::tensor::Tensor;
use lttf_parallel::par_chunks_mut;

/// Approximate multiply-add count per parallel task for conv kernels.
const PAR_GRAIN: usize = 64 * 1024;

/// Packed weights up to this many floats stay on the stack.
const PACK_STACK: usize = 1024;

/// Output rows per kernel call: the AVX2 kernel takes them four at a
/// time in registers; the scalar one slices each tap's weights once per
/// block.
const ROW_BLOCK: usize = 16;

/// Run `f` on the weight `w` (`[cout, cin, k]`) repacked so that element
/// `(oc, ic, kk)` sits at `at(oc, ic, kk)`.
fn with_packed<R>(
    w: &[f32],
    (cout, cin, k): (usize, usize, usize),
    at: impl Fn(usize, usize, usize) -> usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    let mut stack = [0.0f32; PACK_STACK];
    let mut heap = Vec::new();
    let buf = if w.len() <= PACK_STACK {
        &mut stack[..w.len()]
    } else {
        heap.resize(w.len(), 0.0);
        &mut heap[..]
    };
    for oc in 0..cout {
        for ic in 0..cin {
            for kk in 0..k {
                buf[at(oc, ic, kk)] = w[(oc * cin + ic) * k + kk];
            }
        }
    }
    f(buf)
}

/// Taps `kk` in `[lo, hi)` whose input position `start + kk - padding`
/// lies inside `0..len`.
fn valid_taps(start: usize, padding: usize, len: usize, k: usize) -> (usize, usize) {
    let lo = padding.saturating_sub(start).min(k);
    let hi = (padding + len).saturating_sub(start).min(k);
    (lo, hi.max(lo))
}

/// Walk the rows of `chunk` (`width` floats each, the first being flat
/// row `r0` of a `[batch, rows_per_batch, width]` output) in blocks of up
/// to [`ROW_BLOCK`] consecutive rows of one batch that share a tap range,
/// calling `f(first_row, taps, block, rows_in_block)`. `taps(t)` is the
/// tap range of position `t` within its batch. A block never changes a
/// row's arithmetic, only how many rows one kernel call carries.
fn for_row_blocks(
    r0: usize,
    chunk: &mut [f32],
    width: usize,
    rows_per_batch: usize,
    taps: impl Fn(usize) -> (usize, usize),
    mut f: impl FnMut(usize, (usize, usize), &mut [f32], usize),
) {
    let n_rows = chunk.len() / width;
    let mut j = 0;
    while j < n_rows {
        let t = (r0 + j) % rows_per_batch;
        let range = taps(t);
        let mut m = 1;
        while m < ROW_BLOCK && j + m < n_rows && t + m < rows_per_batch && taps(t + m) == range {
            m += 1;
        }
        f(r0 + j, range, &mut chunk[j * width..(j + m) * width], m);
        j += m;
    }
}

impl Tensor {
    /// 1-D cross-correlation (the deep-learning "convolution") over
    /// channels-last activations.
    ///
    /// * `self`: input of shape `[batch, len, in_ch]`
    /// * `weight`: kernel of shape `[out_ch, in_ch, k]`
    /// * `bias`: optional `[out_ch]`
    /// * `padding`: zeros added to both ends of the length axis
    /// * `stride`: step between output positions
    ///
    /// Output shape: `[batch, (len + 2*padding - k)/stride + 1, out_ch]`.
    ///
    /// # Panics
    /// Panics on rank/channel mismatches or if the kernel does not fit the
    /// padded input.
    pub fn conv1d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        padding: usize,
        stride: usize,
    ) -> Tensor {
        assert_eq!(
            self.ndim(),
            3,
            "conv1d input must be [batch, len, in_ch], got {}",
            self.shape
        );
        assert_eq!(
            weight.ndim(),
            3,
            "conv1d weight must be [out_ch, in_ch, k], got {}",
            weight.shape
        );
        assert!(stride >= 1, "conv1d stride must be >= 1");
        let (b, len, cin) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (cout, cin_w, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        assert_eq!(
            cin, cin_w,
            "conv1d channel mismatch: input has {cin}, weight expects {cin_w}"
        );
        if let Some(bias) = bias {
            assert_eq!(
                bias.shape(),
                &[cout],
                "conv1d bias must be [out_ch={cout}], got {}",
                bias.shape
            );
        }
        let padded_len = len + 2 * padding;
        assert!(
            padded_len >= k,
            "conv1d kernel of size {k} does not fit padded input of length {padded_len}"
        );
        let out_len = (padded_len - k) / stride + 1;
        let span = lttf_obs::span!(
            "conv1d",
            b * cout * out_len * cin * k >= crate::obs_min_work()
        );
        span.bytes((self.numel() + weight.numel() + b * cout * out_len) * 4);
        let mut out = vec![0.0f32; b * out_len * cout];
        if !out.is_empty() {
            let x = &self.data;
            let init = bias.map(|bv| &bv.data[..]);
            // The reference fuses only its contiguous stride-1 axpy spans.
            let fused = stride == 1;
            let per = lttf_parallel::items_per_task(cin * k * cout, PAR_GRAIN);
            let at = |oc, ic, kk| (ic * k + kk) * cout + oc;
            with_packed(&weight.data, (cout, cin, k), at, |wp| {
                par_chunks_mut(&mut out, per * cout, |ci, chunk| {
                    let taps = |ot: usize| valid_taps(ot * stride, padding, len, k);
                    for_row_blocks(
                        ci * per,
                        chunk,
                        cout,
                        out_len,
                        taps,
                        |r, (lo, hi), block, rows| {
                            let (bi, start) = (r / out_len, (r % out_len) * stride);
                            let first = if hi > lo {
                                (bi * len + start + lo - padding) * cin
                            } else {
                                0
                            };
                            crate::simd::conv_rows(
                                x,
                                first,
                                stride * cin,
                                cin as isize,
                                hi - lo,
                                cin,
                                wp,
                                k,
                                lo,
                                init,
                                block,
                                rows,
                                fused,
                            );
                        },
                    );
                });
            });
        }
        Tensor::from_vec(out, &[b, out_len, cout])
    }

    /// Gradient of `conv1d` with respect to its input.
    ///
    /// `grad_out` has the shape of the forward output, `[batch, out_len,
    /// out_ch]`. Returns a tensor shaped like the forward input,
    /// `input_shape = [batch, len, in_ch]`.
    pub fn conv1d_backward_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, len, cin) = (input_shape[0], input_shape[1], input_shape[2]);
        let (cout, _, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        let out_len = grad_out.shape()[1];
        let _span = lttf_obs::span!(
            "conv1d_bwd_input",
            b * cout * out_len * cin * k >= crate::obs_min_work()
        );
        let mut gin = vec![0.0f32; b * len * cin];
        if gin.is_empty() || out_len == 0 {
            return Tensor::from_vec(gin, input_shape);
        }
        let go = &grad_out.data;
        let per = lttf_parallel::items_per_task(cout * k * cin, PAR_GRAIN);
        if stride == 1 {
            // Input position `pos` takes tap `kk` from output `pos + padding
            // - kk`: per out-channel the taps walk the gradient rows
            // backwards, in the reference's `(oc, kk)` axpy order.
            let at = |oc, ic, kk| (oc * k + kk) * cin + ic;
            with_packed(&weight.data, (cout, cin, k), at, |wq| {
                par_chunks_mut(&mut gin, per * cin, |ci, chunk| {
                    let taps = |pos: usize| {
                        let top = pos + padding;
                        let lo = (top + 1).saturating_sub(out_len).min(k);
                        (lo, (top + 1).min(k).max(lo))
                    };
                    for_row_blocks(
                        ci * per,
                        chunk,
                        cin,
                        len,
                        taps,
                        |r, (lo, hi), block, rows| {
                            let (bi, top) = (r / len, r % len + padding);
                            let first = if hi > lo {
                                (bi * out_len + top - lo) * cout
                            } else {
                                0
                            };
                            crate::simd::conv_rows(
                                go,
                                first,
                                cout,
                                -(cout as isize),
                                hi - lo,
                                cout,
                                wq,
                                k,
                                lo,
                                None,
                                block,
                                rows,
                                true,
                            );
                        },
                    );
                });
            });
        } else {
            // The reference's strided scatter order: per out-channel,
            // outputs ascending, zero gradients skipped.
            let w = &weight.data;
            par_chunks_mut(&mut gin, per * cin, |ci, chunk| {
                for (j, row) in chunk.chunks_mut(cin).enumerate() {
                    let r = ci * per + j;
                    let (bi, top) = (r / len, r % len + padding);
                    let ot_lo = (top + 1).saturating_sub(k).div_ceil(stride);
                    let ot_hi = (top / stride + 1).min(out_len);
                    for oc in 0..cout {
                        for ot in ot_lo..ot_hi {
                            let g = go[(bi * out_len + ot) * cout + oc];
                            if g == 0.0 {
                                continue;
                            }
                            let kk = top - ot * stride;
                            for (ic, o) in row.iter_mut().enumerate() {
                                *o += g * w[(oc * cin + ic) * k + kk];
                            }
                        }
                    }
                }
            });
        }
        Tensor::from_vec(gin, input_shape)
    }

    /// Gradient of `conv1d` with respect to its weight, from the forward
    /// input `[batch, len, in_ch]` and output gradient `[batch, out_len,
    /// out_ch]`.
    pub fn conv1d_backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, len, cin) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (cout, _, k) = (weight_shape[0], weight_shape[1], weight_shape[2]);
        let out_len = grad_out.shape()[1];
        let _span = lttf_obs::span!(
            "conv1d_bwd_weight",
            b * cout * out_len * cin * k >= crate::obs_min_work()
        );
        let (go, x) = (&grad_out.data, &input.data);
        let mut gw = vec![0.0f32; cout * cin * k];
        if stride == 1 && out_len > 0 && b > 0 {
            // Each tap is one dot over time per (oc, ic), summed over the
            // batch. The dots run eight channels abreast along the wider
            // channel axis, whose eight values at one time step are
            // contiguous; the other axis broadcasts.
            let lanes_in = cin >= cout;
            let (n_o, n_l) = if lanes_in { (cout, cin) } else { (cin, cout) };
            let mut taps = vec![0.0f32; n_o * k * n_l];
            let per = lttf_parallel::items_per_task(b * k * out_len * n_l, PAR_GRAIN);
            if !taps.is_empty() {
                // Batches outermost, so one batch's rows stay in cache
                // while every tap reads them; each tap still sums its
                // batches in order from zero.
                par_chunks_mut(&mut taps, per * k * n_l, |ci, chunk| {
                    for bi in 0..b {
                        for (j, plane) in chunk.chunks_mut(k * n_l).enumerate() {
                            let o = ci * per + j;
                            for (kk, tap) in plane.chunks_mut(n_l).enumerate() {
                                let ot_lo = padding.saturating_sub(kk);
                                let ot_hi = (len + padding).saturating_sub(kk).min(out_len);
                                if ot_lo >= ot_hi {
                                    continue;
                                }
                                let go_row = (bi * out_len + ot_lo) * cout;
                                let x_row = (bi * len + ot_lo + kk - padding) * cin;
                                for (lb, lanes) in tap.chunks_mut(8).enumerate() {
                                    let l = lb * 8;
                                    let ((a, sa), (v, sv)) = if lanes_in {
                                        ((&go[go_row + o..], cout), (&x[x_row + l..], cin))
                                    } else {
                                        ((&x[x_row + o..], cin), (&go[go_row + l..], cout))
                                    };
                                    crate::simd::dot_strided(a, sa, v, sv, ot_hi - ot_lo, lanes);
                                }
                            }
                        }
                    }
                });
                for (o, plane) in taps.chunks(k * n_l).enumerate() {
                    for (kk, tap) in plane.chunks(n_l).enumerate() {
                        for (l, &v) in tap.iter().enumerate() {
                            let (oc, ic) = if lanes_in { (o, l) } else { (l, o) };
                            gw[(oc * cin + ic) * k + kk] = v;
                        }
                    }
                }
            }
        } else {
            for bi in 0..b {
                for oc in 0..cout {
                    for ot in 0..out_len {
                        let g = go[(bi * out_len + ot) * cout + oc];
                        if g == 0.0 {
                            continue;
                        }
                        let start = ot * stride;
                        let (lo, hi) = valid_taps(start, padding, len, k);
                        for ic in 0..cin {
                            let w_base = (oc * cin + ic) * k;
                            for kk in lo..hi {
                                let pos = start + kk - padding;
                                gw[w_base + kk] += g * x[(bi * len + pos) * cin + ic];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gw, weight_shape)
    }
}

/// The channels-first kernels these replaced: an `axpy` per `(in_ch,
/// tap)` range in the forward, per `(out_ch, tap)` in the input gradient,
/// a [`crate::simd::dot`] per weight tap, and the strided scatters. Kept
/// (serial, otherwise as they were) so the property tests can pin the
/// channels-last kernels to them bit for bit on both backends.
#[cfg(test)]
mod reference {
    use crate::tensor::Tensor;

    #[allow(clippy::too_many_arguments)]
    fn conv1d_one(
        x: &[f32],
        w: &[f32],
        bias_v: f32,
        out: &mut [f32],
        cin: usize,
        len: usize,
        k: usize,
        padding: usize,
        stride: usize,
    ) {
        let out_len = out.len();
        out.fill(bias_v);
        if len == 0 {
            return;
        }
        for ic in 0..cin {
            let xrow = &x[ic * len..(ic + 1) * len];
            let wrow = &w[ic * k..(ic + 1) * k];
            for (kk, &wv) in wrow.iter().enumerate() {
                let ot_min = if padding > kk {
                    (padding - kk).div_ceil(stride)
                } else {
                    0
                };
                let hi = padding + len - 1;
                if hi < kk {
                    continue;
                }
                let ot_max = ((hi - kk) / stride).min(out_len.wrapping_sub(1));
                if out_len == 0 || ot_min > ot_max {
                    continue;
                }
                if stride == 1 {
                    let x0 = ot_min + kk - padding;
                    let span = ot_max - ot_min + 1;
                    crate::simd::axpy(&mut out[ot_min..ot_min + span], wv, &xrow[x0..x0 + span]);
                } else {
                    for ot in ot_min..=ot_max {
                        out[ot] += xrow[ot * stride + kk - padding] * wv;
                    }
                }
            }
        }
    }

    /// `[b, cin, len] * [cout, cin, k] → [b, cout, out_len]`.
    pub(super) fn conv1d(
        x: &Tensor,
        w: &Tensor,
        bias: Option<&Tensor>,
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, cin, len) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (cout, k) = (w.shape()[0], w.shape()[2]);
        let out_len = (len + 2 * padding - k) / stride + 1;
        let mut out = vec![0.0f32; b * cout * out_len];
        for (flat, o) in out.chunks_mut(out_len.max(1)).enumerate() {
            let (bi, oc) = (flat / cout, flat % cout);
            let bias_v = bias.map_or(0.0, |bv| bv.data()[oc]);
            conv1d_one(
                &x.data()[bi * cin * len..(bi + 1) * cin * len],
                &w.data()[oc * cin * k..(oc + 1) * cin * k],
                bias_v,
                o,
                cin,
                len,
                k,
                padding,
                stride,
            );
        }
        Tensor::from_vec(out, &[b, cout, out_len])
    }

    /// Input gradient, `grad_out` `[b, cout, out_len]` → `[b, cin, len]`.
    pub(super) fn backward_input(
        grad_out: &Tensor,
        w: &Tensor,
        input_shape: &[usize],
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, cin, len) = (input_shape[0], input_shape[1], input_shape[2]);
        let (cout, k) = (w.shape()[0], w.shape()[2]);
        let out_len = grad_out.shape()[2];
        let mut gin = vec![0.0f32; b * cin * len];
        let (go_all, w) = (grad_out.data(), w.data());
        if stride == 1 {
            for (flat, row) in gin.chunks_mut(len.max(1)).enumerate() {
                let (bi, ic) = (flat / cin, flat % cin);
                for oc in 0..cout {
                    let go = &go_all[(bi * cout + oc) * out_len..(bi * cout + oc + 1) * out_len];
                    let wrow = &w[(oc * cin + ic) * k..(oc * cin + ic) * k + k];
                    for (kk, &wv) in wrow.iter().enumerate() {
                        let ot_lo = padding.saturating_sub(kk);
                        let ot_hi = (len + padding).saturating_sub(kk).min(out_len);
                        if ot_lo >= ot_hi {
                            continue;
                        }
                        let span = ot_hi - ot_lo;
                        let x0 = ot_lo + kk - padding;
                        crate::simd::axpy(&mut row[x0..x0 + span], wv, &go[ot_lo..ot_hi]);
                    }
                }
            }
        } else {
            for (bi, plane) in gin.chunks_mut((cin * len).max(1)).enumerate() {
                for oc in 0..cout {
                    for ot in 0..out_len {
                        let go = go_all[(bi * cout + oc) * out_len + ot];
                        if go == 0.0 {
                            continue;
                        }
                        let start = ot * stride;
                        for ic in 0..cin {
                            let w_base = (oc * cin + ic) * k;
                            let g_base = ic * len;
                            for kk in 0..k {
                                let pos = start + kk;
                                if pos < padding || pos >= padding + len {
                                    continue;
                                }
                                plane[g_base + pos - padding] += go * w[w_base + kk];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gin, input_shape)
    }

    /// Weight gradient from `grad_out` `[b, cout, out_len]` and the input
    /// `[b, cin, len]`.
    pub(super) fn backward_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_shape: &[usize],
        padding: usize,
        stride: usize,
    ) -> Tensor {
        let (b, cin, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (cout, k) = (weight_shape[0], weight_shape[2]);
        let out_len = grad_out.shape()[2];
        let mut gw = vec![0.0f32; cout * cin * k];
        let (go_all, x_all) = (grad_out.data(), input.data());
        if stride == 1 && out_len > 0 {
            for (oc, wplane) in gw.chunks_mut((cin * k).max(1)).enumerate() {
                for bi in 0..b {
                    let go = &go_all[(bi * cout + oc) * out_len..(bi * cout + oc + 1) * out_len];
                    for ic in 0..cin {
                        let xrow = &x_all[(bi * cin + ic) * len..(bi * cin + ic + 1) * len];
                        for kk in 0..k {
                            let ot_lo = padding.saturating_sub(kk);
                            let ot_hi = (len + padding).saturating_sub(kk).min(out_len);
                            if ot_lo >= ot_hi {
                                continue;
                            }
                            let span = ot_hi - ot_lo;
                            let x0 = ot_lo + kk - padding;
                            wplane[ic * k + kk] +=
                                crate::simd::dot(&go[ot_lo..ot_hi], &xrow[x0..x0 + span]);
                        }
                    }
                }
            }
        } else {
            for bi in 0..b {
                for oc in 0..cout {
                    for ot in 0..out_len {
                        let go = go_all[(bi * cout + oc) * out_len + ot];
                        if go == 0.0 {
                            continue;
                        }
                        let start = ot * stride;
                        for ic in 0..cin {
                            let in_base = (bi * cin + ic) * len;
                            let w_base = (oc * cin + ic) * k;
                            for kk in 0..k {
                                let pos = start + kk;
                                if pos < padding || pos >= padding + len {
                                    continue;
                                }
                                gw[w_base + kk] += go * x_all[in_base + pos - padding];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gw, weight_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::on_both_backends;
    use lttf_testkit::prop::Gen;
    use lttf_testkit::properties;

    #[test]
    fn conv1d_identity_kernel() {
        // 1x1 kernel of value 1 reproduces the input.
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 4, 1]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_moving_sum() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 4, 1]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 1, 2]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.shape(), &[1, 3, 1]);
        assert_eq!(y.data(), &[3., 5., 7.]);
    }

    #[test]
    fn conv1d_padding_same() {
        // kernel 3, padding 1 keeps the length ("same" convolution).
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 4, 1]);
        let w = Tensor::from_vec(vec![0., 1., 0.], &[1, 1, 3]);
        let y = x.conv1d(&w, None, 1, 1);
        assert_eq!(y.shape(), &[1, 4, 1]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_stride() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5.], &[1, 5, 1]);
        let w = Tensor::from_vec(vec![1.], &[1, 1, 1]);
        let y = x.conv1d(&w, None, 0, 2);
        assert_eq!(y.data(), &[1., 3., 5.]);
    }

    #[test]
    fn conv1d_multi_channel() {
        // 2 input channels summed by a kernel of ones.
        let x = Tensor::from_vec(vec![1., 10., 2., 20.], &[1, 2, 2]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 2, 1]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.data(), &[11., 22.]);
    }

    #[test]
    fn conv1d_bias() {
        let x = Tensor::from_vec(vec![1., 2.], &[1, 2, 1]);
        let w = Tensor::from_vec(vec![1.], &[1, 1, 1]);
        let b = Tensor::from_slice(&[100.0]);
        let y = x.conv1d(&w, Some(&b), 0, 1);
        assert_eq!(y.data(), &[101., 102.]);
    }

    #[test]
    fn conv1d_batched() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2, 1]);
        let w = Tensor::from_vec(vec![2.], &[1, 1, 1]);
        let y = x.conv1d(&w, None, 0, 1);
        assert_eq!(y.shape(), &[2, 2, 1]);
        assert_eq!(y.data(), &[2., 4., 6., 8.]);
    }

    /// Numerical check of the input gradient: perturb each input element and
    /// compare the finite-difference slope of sum(conv) to the analytic one.
    #[test]
    fn conv1d_input_gradient_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.2, -0.7], &[1, 2, 3]).swap_axes(1, 2);
        let w = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.5, 0.7, 0.9], &[2, 2, 2]);
        let pad = 1;
        let stride = 1;
        let y = x.conv1d(&w, None, pad, stride);
        let go = y.ones_like();
        let gin = Tensor::conv1d_backward_input(&go, &w, x.shape(), pad, stride);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (xp.conv1d(&w, None, pad, stride).sum()
                - xm.conv1d(&w, None, pad, stride).sum())
                / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 1e-2,
                "input grad mismatch at {i}: numeric {num} vs analytic {}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn conv1d_weight_gradient_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.2, -0.7], &[1, 2, 3]).swap_axes(1, 2);
        let w = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.5, 0.7, 0.9], &[2, 2, 2]);
        let pad = 0;
        let stride = 1;
        let y = x.conv1d(&w, None, pad, stride);
        let go = y.ones_like();
        let gw = Tensor::conv1d_backward_weight(&go, &x, w.shape(), pad, stride);
        let eps = 1e-3;
        for i in 0..w.numel() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (x.conv1d(&wp, None, pad, stride).sum()
                - x.conv1d(&wm, None, pad, stride).sum())
                / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 1e-2,
                "weight grad mismatch at {i}: numeric {num} vs analytic {}",
                gw.data()[i]
            );
        }
    }

    /// The kernel must be bit-for-bit identical to the textbook
    /// per-output accumulation loop, across strides and padding. The
    /// contract holds for the scalar backend (the AVX2 kernel fuses the
    /// multiply-add and may differ in the last ulp — DESIGN.md §8), so the
    /// kernel choice is pinned for the duration of the test.
    #[test]
    fn conv1d_matches_reference_bit_for_bit() {
        let _guard = crate::simd::test_lock();
        crate::simd::set_simd_override(Some(false));
        let (b, cin, len, cout, k) = (3, 4, 29, 5, 3);
        let x = Tensor::from_vec(
            (0..b * cin * len)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013)
                .collect(),
            &[b, cin, len],
        );
        let w = Tensor::from_vec(
            (0..cout * cin * k)
                .map(|i| ((i * 53 % 67) as f32 - 33.0) * 0.021)
                .collect(),
            &[cout, cin, k],
        );
        let bias = Tensor::from_vec((0..cout).map(|i| i as f32 * 0.1).collect(), &[cout]);
        for &(padding, stride) in &[(0usize, 1usize), (2, 1), (1, 2), (3, 3)] {
            let got = x
                .swap_axes(1, 2)
                .conv1d(&w, Some(&bias), padding, stride)
                .swap_axes(1, 2);
            let out_len = (len + 2 * padding - k) / stride + 1;
            let mut want = vec![0.0f32; b * cout * out_len];
            for bi in 0..b {
                for oc in 0..cout {
                    for ot in 0..out_len {
                        let mut acc = bias.data()[oc];
                        for ic in 0..cin {
                            for kk in 0..k {
                                let pos = ot * stride + kk;
                                if pos < padding || pos >= padding + len {
                                    continue;
                                }
                                acc += x.data()[(bi * cin + ic) * len + pos - padding]
                                    * w.data()[(oc * cin + ic) * k + kk];
                            }
                        }
                        want[(bi * cout + oc) * out_len + ot] = acc;
                    }
                }
            }
            for (i, (&g, &e)) in got.data().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "pad={padding} stride={stride}: mismatch at {i}: {g} vs {e}"
                );
            }
        }
        crate::simd::set_simd_override(None);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv1d_channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 4, 2]);
        let w = Tensor::zeros(&[1, 3, 2]);
        x.conv1d(&w, None, 0, 1);
    }

    /// One convolution problem for the reference properties.
    #[derive(Clone, Debug)]
    struct Case {
        b: usize,
        cin: usize,
        cout: usize,
        len: usize,
        k: usize,
        padding: usize,
        stride: usize,
        bias: bool,
        seed: u64,
    }

    /// Channel counts on both sides of one AVX2 vector and of two, kernel
    /// widths 1/3/5, padding 0/1, stride 1/2, and lengths from below `k +
    /// 2` up to past the 256-element pairwise split of the weight
    /// gradient's dots.
    fn arb_case() -> Gen<Case> {
        Gen::new(|rng| {
            let pick = |rng: &mut lttf_testkit::Xoshiro256PlusPlus, xs: &[usize]| {
                xs[rng.usize_in(0, xs.len())]
            };
            let k = pick(rng, &[1, 3, 5]);
            let padding = pick(rng, &[0, 1]);
            let long = rng.usize_in(0, 6) == 0;
            let len = if long {
                rng.usize_in(250, 600)
            } else {
                rng.usize_in((k + 1).saturating_sub(2 * padding).max(1), k + 6)
            };
            Case {
                b: rng.usize_in(1, 4),
                cin: pick(rng, &[1, 3, 8, 16, 17]),
                cout: pick(rng, &[1, 3, 8, 16, 17]),
                len,
                k,
                padding,
                stride: pick(rng, &[1, 2]),
                bias: rng.usize_in(0, 2) == 0,
                seed: rng.next_u64(),
            }
        })
    }

    /// Values of both signs and a wide spread, with `+0.0` and `-0.0`
    /// sprinkled in so a reordered or extra add shows in the bits.
    fn signed_values(rng: &mut crate::Rng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.normal() * rng.uniform(1.0, 10.0),
            })
            .collect()
    }

    fn same_bits(what: &str, got: &Tensor, want: &Tensor) -> Result<(), String> {
        if got.shape() != want.shape() {
            return Err(format!(
                "{what}: shape {:?} vs {:?}",
                got.shape(),
                want.shape()
            ));
        }
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!("{what}: element {i} is {x:e}, reference {y:e}"));
            }
        }
        Ok(())
    }

    properties! {
        cases = 96;

        // The channels-last kernels against the channels-first ones they
        // replaced, on transposed copies of the same operands.
        fn conv1d_kernels_match_the_channels_first_reference(case in arb_case()) {
            let Case { b, cin, cout, len, k, padding, stride, bias, seed } = case;
            let rng = &mut crate::Rng::seed(seed);
            let x = Tensor::from_vec(signed_values(rng, b * cin * len), &[b, cin, len]);
            let w = Tensor::from_vec(signed_values(rng, cout * cin * k), &[cout, cin, k]);
            let bias = bias.then(|| Tensor::from_vec(signed_values(rng, cout), &[cout]));
            let out_len = (len + 2 * padding - k) / stride + 1;
            let go = Tensor::from_vec(signed_values(rng, b * cout * out_len), &[b, cout, out_len]);
            let (x_cl, go_cl) = (x.swap_axes(1, 2), go.swap_axes(1, 2));
            let (scalar, simd) = on_both_backends(|| -> Result<(), String> {
                same_bits(
                    "forward",
                    &x_cl.conv1d(&w, bias.as_ref(), padding, stride).swap_axes(1, 2),
                    &reference::conv1d(&x, &w, bias.as_ref(), padding, stride),
                )?;
                same_bits(
                    "input gradient",
                    &Tensor::conv1d_backward_input(&go_cl, &w, &[b, len, cin], padding, stride)
                        .swap_axes(1, 2),
                    &reference::backward_input(&go, &w, &[b, cin, len], padding, stride),
                )?;
                same_bits(
                    "weight gradient",
                    &Tensor::conv1d_backward_weight(&go_cl, &x_cl, w.shape(), padding, stride),
                    &reference::backward_weight(&go, &x, w.shape(), padding, stride),
                )
            });
            scalar.map_err(|e| format!("scalar backend: {e}"))?;
            simd.map_err(|e| format!("simd backend: {e}"))?;
        }
    }
}
