//! The FNV-1a hash behind the golden-digest test binaries
//! (`forward_digest`, `train_digest`, `baseline_digest`).

use lttf::tensor::Tensor;

/// FNV-1a over the shape and the little-endian bits of every value of
/// every tensor, in order.
pub fn fnv1a<'a>(ts: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in ts {
        for &d in t.shape() {
            eat(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}
