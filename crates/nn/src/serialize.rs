//! Checkpointing: save and load a [`ParamSet`] in a simple self-describing
//! binary format, with an optional metadata section for deployment state
//! (scaler statistics, target column, model family — whatever the serving
//! layer needs to round-trip raw inputs).
//!
//! Format (little-endian):
//! ```text
//! magic "LTTF" | u32 version
//! version 2 only: u32 n_meta
//!                 per entry: u32 key_len | key bytes | u32 val_len | val bytes
//! u32 n_params
//! per param: u32 name_len | name bytes (utf-8)
//!            u32 ndim | u32 × ndim shape | f32 × numel data
//! ```
//!
//! Version 1 files (no metadata section) still load. All length fields are
//! validated against hard caps **before** any allocation, so a truncated
//! or corrupted file fails with a clear [`io::ErrorKind::InvalidData`]
//! error instead of an abort-by-OOM.

use crate::param::ParamSet;
use lttf_tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"LTTF";
const VERSION: u32 = 2;

/// Longest accepted parameter name, in bytes.
const MAX_NAME_LEN: usize = 4096;
/// Most dimensions a checkpointed tensor may have.
const MAX_NDIM: usize = 8;
/// Largest accepted single dimension.
const MAX_DIM: usize = 1 << 28;
/// Most metadata entries a checkpoint may carry.
const MAX_META: usize = 4096;
/// Longest accepted metadata key or value, in bytes.
const MAX_META_LEN: usize = 1 << 20;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialize a parameter set with a metadata section to a writer.
///
/// Metadata is free-form `(key, value)` string pairs, written in the given
/// order. The serving registry stores scaler statistics and the target
/// column here so a checkpoint is self-contained at inference time.
pub fn write_params_with_meta<W: Write>(
    ps: &ParamSet,
    meta: &[(String, String)],
    mut w: W,
) -> io::Result<()> {
    assert!(meta.len() <= MAX_META, "too many metadata entries");
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(meta.len() as u32).to_le_bytes())?;
    for (k, v) in meta {
        for s in [k, v] {
            assert!(s.len() <= MAX_META_LEN, "metadata entry too long");
            w.write_all(&(s.len() as u32).to_le_bytes())?;
            w.write_all(s.as_bytes())?;
        }
    }
    w.write_all(&(ps.len() as u32).to_le_bytes())?;
    for id in ps.ids() {
        let name = ps.name(id).as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        let t = ps.value(id);
        w.write_all(&(t.ndim() as u32).to_le_bytes())?;
        for &d in t.shape() {
            w.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in t.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Serialize a parameter set to a writer (no metadata).
pub fn write_params<W: Write>(ps: &ParamSet, w: W) -> io::Result<()> {
    write_params_with_meta(ps, &[], w)
}

/// Save a parameter set and metadata to a file.
pub fn save_params_with_meta(
    ps: &ParamSet,
    meta: &[(String, String)],
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_params_with_meta(ps, meta, io::BufWriter::new(f))
}

/// Save a parameter set to a file (no metadata).
pub fn save_params(ps: &ParamSet, path: impl AsRef<Path>) -> io::Result<()> {
    save_params_with_meta(ps, &[], path)
}

/// `read_exact` with a clear "truncated checkpoint" error on EOF.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            bad(format!("truncated checkpoint while reading {what}"))
        } else {
            e
        }
    })
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> io::Result<u32> {
    let mut b = [0u8; 4];
    fill(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

/// Read a length-prefixed UTF-8 string, validating the length against
/// `max` before allocating.
fn read_string<R: Read>(r: &mut R, max: usize, what: &str) -> io::Result<String> {
    let len = read_u32(r, what)? as usize;
    if len > max {
        return Err(bad(format!("{what} length {len} exceeds cap {max}")));
    }
    let mut buf = vec![0u8; len];
    fill(r, &mut buf, what)?;
    String::from_utf8(buf).map_err(|e| bad(format!("{what} is not utf-8: {e}")))
}

/// Deserialize parameter values from a reader **into an existing set**,
/// returning the checkpoint's metadata (empty for version-1 files).
///
/// The set must have been built by constructing the same model: names,
/// order, and shapes must match, or an error is returned. This
/// load-into-structure design avoids any reflection machinery.
///
/// Every length field is checked against a hard cap before allocation, so
/// hostile or corrupted input fails fast with [`io::ErrorKind::InvalidData`].
pub fn read_params_with_meta<R: Read>(
    ps: &mut ParamSet,
    mut r: R,
) -> io::Result<Vec<(String, String)>> {
    let mut magic = [0u8; 4];
    fill(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = read_u32(&mut r, "version")?;
    if version != 1 && version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    let mut meta = Vec::new();
    if version >= 2 {
        let n_meta = read_u32(&mut r, "metadata count")? as usize;
        if n_meta > MAX_META {
            return Err(bad(format!("metadata count {n_meta} exceeds cap {MAX_META}")));
        }
        for _ in 0..n_meta {
            let k = read_string(&mut r, MAX_META_LEN, "metadata key")?;
            let v = read_string(&mut r, MAX_META_LEN, "metadata value")?;
            meta.push((k, v));
        }
    }
    let n = read_u32(&mut r, "param count")? as usize;
    if n != ps.len() {
        return Err(bad(format!(
            "checkpoint has {n} params, model has {}",
            ps.len()
        )));
    }
    for id in ps.ids().collect::<Vec<_>>() {
        let name = read_string(&mut r, MAX_NAME_LEN, "param name")?;
        if name != ps.name(id) {
            return Err(bad(format!(
                "param name mismatch: checkpoint '{name}' vs model '{}'",
                ps.name(id)
            )));
        }
        let ndim = read_u32(&mut r, "ndim")? as usize;
        if ndim > MAX_NDIM {
            return Err(bad(format!("param '{name}' ndim {ndim} exceeds cap {MAX_NDIM}")));
        }
        let mut shape = Vec::with_capacity(ndim);
        let mut numel = 1usize;
        for _ in 0..ndim {
            let d = read_u32(&mut r, "shape")? as usize;
            if d > MAX_DIM {
                return Err(bad(format!("param '{name}' dimension {d} exceeds cap {MAX_DIM}")));
            }
            numel = numel
                .checked_mul(d)
                .filter(|&n| n <= MAX_DIM)
                .ok_or_else(|| bad(format!("param '{name}' element count overflows cap")))?;
            shape.push(d);
        }
        if shape != ps.value(id).shape() {
            return Err(bad(format!(
                "param '{name}' shape mismatch: checkpoint {shape:?} vs model {:?}",
                ps.value(id).shape()
            )));
        }
        let numel = numel.max(1);
        let mut bytes = vec![0u8; numel * 4];
        fill(&mut r, &mut bytes, "param data")?;
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        *ps.value_mut(id) = Tensor::from_vec(data, &shape);
    }
    Ok(meta)
}

/// Deserialize parameter values from a reader, discarding any metadata.
/// See [`read_params_with_meta`] for the validation contract.
pub fn read_params<R: Read>(ps: &mut ParamSet, r: R) -> io::Result<()> {
    read_params_with_meta(ps, r).map(|_| ())
}

/// Load parameter values and metadata from a file into an existing set.
pub fn load_params_with_meta(
    ps: &mut ParamSet,
    path: impl AsRef<Path>,
) -> io::Result<Vec<(String, String)>> {
    let f = std::fs::File::open(path)?;
    read_params_with_meta(ps, io::BufReader::new(f))
}

/// Load parameter values from a file into an existing set.
pub fn load_params(ps: &mut ParamSet, path: impl AsRef<Path>) -> io::Result<()> {
    load_params_with_meta(ps, path).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_tensor::{Rng, Tensor};
    use lttf_testkit::{prop_assert, properties};

    fn sample_set(seed: u64) -> ParamSet {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(seed);
        ps.add("a.weight", Tensor::randn(&[3, 4], &mut rng));
        ps.add("a.bias", Tensor::randn(&[4], &mut rng));
        ps.add("b.gamma", Tensor::randn(&[2, 2, 2], &mut rng));
        ps
    }

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        write_params(&sample_set(1), &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_values() {
        let src = sample_set(1);
        let mut buf = Vec::new();
        write_params(&src, &mut buf).unwrap();
        let mut dst = sample_set(2); // same structure, different values
        read_params(&mut dst, buf.as_slice()).unwrap();
        for (a, b) in src.ids().zip(dst.ids()) {
            src.value(a).assert_close(dst.value(b), 0.0);
        }
    }

    #[test]
    fn metadata_round_trips() {
        let src = sample_set(1);
        let meta = vec![
            ("target".to_string(), "OT".to_string()),
            ("scaler.mean".to_string(), "1.5,-2,0.25".to_string()),
        ];
        let mut buf = Vec::new();
        write_params_with_meta(&src, &meta, &mut buf).unwrap();
        let mut dst = sample_set(2);
        let got = read_params_with_meta(&mut dst, buf.as_slice()).unwrap();
        assert_eq!(got, meta);
        for (a, b) in src.ids().zip(dst.ids()) {
            src.value(a).assert_close(dst.value(b), 0.0);
        }
    }

    #[test]
    fn version1_files_still_load() {
        // Hand-write a v1 file (no metadata section) for one parameter.
        let mut ps = ParamSet::new();
        ps.add("w", Tensor::zeros(&[2]));
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTTF");
        buf.extend_from_slice(&1u32.to_le_bytes()); // version 1
        buf.extend_from_slice(&1u32.to_le_bytes()); // n_params
        buf.extend_from_slice(&1u32.to_le_bytes()); // name_len
        buf.extend_from_slice(b"w");
        buf.extend_from_slice(&1u32.to_le_bytes()); // ndim
        buf.extend_from_slice(&2u32.to_le_bytes()); // shape [2]
        buf.extend_from_slice(&3.0f32.to_le_bytes());
        buf.extend_from_slice(&4.0f32.to_le_bytes());
        let meta = read_params_with_meta(&mut ps, buf.as_slice()).unwrap();
        assert!(meta.is_empty());
        assert_eq!(ps.value(ps.ids().next().unwrap()).data(), &[3.0, 4.0]);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut dst = sample_set(1);
        let err = read_params(&mut dst, &b"NOPE0000"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_param_count_mismatch() {
        let buf = sample_bytes();
        let mut dst = ParamSet::new();
        dst.add("a.weight", Tensor::zeros(&[3, 4]));
        let err = read_params(&mut dst, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("params"));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let buf = sample_bytes();
        let mut dst = ParamSet::new();
        dst.add("a.weight", Tensor::zeros(&[4, 3])); // transposed shape
        dst.add("a.bias", Tensor::zeros(&[4]));
        dst.add("b.gamma", Tensor::zeros(&[2, 2, 2]));
        let err = read_params(&mut dst, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn rejects_absurd_lengths_without_allocating() {
        // A header claiming a ~4 GiB name must fail on the cap, not OOM.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTTF");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // n_meta
        buf.extend_from_slice(&3u32.to_le_bytes()); // n_params
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd name_len
        let err = read_params(&mut sample_set(1), buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        // Absurd metadata count.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTTF");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd n_meta
        let err = read_params(&mut sample_set(1), buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        // Absurd ndim and dimension values.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LTTF");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // n_meta
        buf.extend_from_slice(&3u32.to_le_bytes()); // n_params
        buf.extend_from_slice(&8u32.to_le_bytes()); // name_len
        buf.extend_from_slice(b"a.weight");
        buf.extend_from_slice(&1000u32.to_le_bytes()); // absurd ndim
        let err = read_params(&mut sample_set(1), buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("ndim"), "{err}");
    }

    #[test]
    fn truncated_file_reports_clearly() {
        let buf = sample_bytes();
        for cut in [0, 3, 4, 8, 11, 20, buf.len() / 2, buf.len() - 1] {
            let err = read_params(&mut sample_set(1), &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(
                err.to_string().contains("truncated") || err.to_string().contains("magic"),
                "cut at {cut}: {err}"
            );
        }
    }

    properties! {
        cases = 64;

        /// Any truncation of a valid checkpoint errors — never panics,
        /// never reads garbage into the model.
        fn truncation_always_errors(frac in 0.0f64..1.0) {
            let buf = sample_bytes();
            let cut = ((buf.len() - 1) as f64 * frac) as usize;
            prop_assert!(read_params(&mut sample_set(1), &buf[..cut]).is_err());
        }

        /// Random 4-byte patches anywhere in the file either load cleanly
        /// (data-only damage) or error — never panic, never mass-allocate.
        fn corruption_never_panics(off in 0usize..200, word in 0u32..u32::MAX) {
            let mut buf = sample_bytes();
            let off = off.min(buf.len().saturating_sub(4));
            buf[off..off + 4].copy_from_slice(&word.to_le_bytes());
            let _ = read_params(&mut sample_set(1), buf.as_slice());
            prop_assert!(true);
        }
    }

    /// A checkpoint is read from disk or a reload request, so it is
    /// outside input. Every single-byte XOR (masks 1..=255 at every
    /// offset) of a v2 file with metadata and three params must come back
    /// `Err` or `Ok` — never a panic — and neither outcome may change the
    /// model's parameter names or shapes. Each case draws the parameter
    /// values and the metadata, so the flipped bytes differ between cases.
    #[test]
    fn every_byte_flip_errors_or_keeps_the_structure() {
        lttf_testkit::prop::check(
            "serialize::every_byte_flip_errors_or_keeps_the_structure",
            lttf_testkit::prop::cases_or(2),
            &lttf_testkit::prop::u64s(0..u64::MAX),
            |&seed| {
                let meta = vec![
                    ("target".to_string(), format!("col{}", seed % 7)),
                    ("scaler.mean".to_string(), format!("{},-2", seed % 1000)),
                ];
                let mut buf = Vec::new();
                write_params_with_meta(&sample_set(seed), &meta, &mut buf).unwrap();
                let structure = |ps: &ParamSet| -> Vec<(String, Vec<usize>)> {
                    ps.ids()
                        .map(|id| (ps.name(id).to_string(), ps.value(id).shape().to_vec()))
                        .collect()
                };
                let want = structure(&sample_set(0));
                for pos in 0..buf.len() {
                    for mask in 1..=255u8 {
                        let mut bytes = buf.clone();
                        bytes[pos] ^= mask;
                        let mut ps = sample_set(0);
                        let _ = read_params_with_meta(&mut ps, bytes.as_slice());
                        prop_assert!(
                            structure(&ps) == want,
                            "byte {pos} ^ {mask:#04x} changed the model's names or shapes"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn file_round_trip() {
        let src = sample_set(3);
        let dir = std::env::temp_dir().join("lttf_ser_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        save_params(&src, &path).unwrap();
        let mut dst = sample_set(4);
        load_params(&mut dst, &path).unwrap();
        for (a, b) in src.ids().zip(dst.ids()) {
            src.value(a).assert_close(dst.value(b), 0.0);
        }
        let _ = std::fs::remove_file(path);
    }
}
