//! Property-based tests for the data substrate.

use crate::synth::{Dataset, SynthSpec};
use crate::{Split, StandardScaler, WindowDataset};
use lttf_tensor::{Rng, Tensor};
use lttf_testkit::{prop_assert, prop_assert_eq, properties};

properties! {
    cases = 32;

    // The scaler inverse is an exact inverse on arbitrary data.
    fn scaler_round_trip(seed in 0u64..1000, len in 10usize..100, dims in 1usize..6) {
        let x = Tensor::randn(&[len, dims], &mut Rng::seed(seed))
            .mul_scalar(13.0)
            .add_scalar(-4.0);
        let sc = StandardScaler::fit(&x);
        sc.inverse_transform(&sc.transform(&x)).assert_close(&x, 1e-2);
    }

    // Window counts: every split can produce its windows without panicking
    // and batches have consistent shapes.
    fn windows_are_well_formed(seed in 0u64..100, lx in 4usize..16, ly in 2usize..8) {
        let series = Dataset::Etth1.generate(SynthSpec { len: 400, dims: Some(3), seed });
        for split in [Split::Train, Split::Val, Split::Test] {
            let ds = WindowDataset::new(&series, split, (0.6, 0.2), lx, ly, ly.min(lx));
            prop_assert!(!ds.is_empty());
            let b = ds.batch(&[0, ds.len() - 1]);
            prop_assert_eq!(b.x.shape(), &[2, lx, 3]);
            prop_assert_eq!(b.y.shape(), &[2, ly, 3]);
            prop_assert_eq!(b.dec.shape(), &[2, ly.min(lx) + ly, 3]);
            prop_assert!(!b.x.has_non_finite());
        }
    }

    // The last label_len rows of the encoder input equal the decoder warm
    // start (they are the same time steps).
    fn decoder_warm_start_matches_input_tail(seed in 0u64..50) {
        let series = Dataset::Wind.generate(SynthSpec { len: 300, dims: Some(2), seed });
        let ds = WindowDataset::new(&series, Split::Train, (0.7, 0.1), 12, 6, 6);
        let b = ds.batch(&[3]);
        let tail = b.x.narrow(1, 6, 6);
        let warm = b.dec.narrow(1, 0, 6);
        tail.assert_close(&warm, 1e-6);
    }

    // All generators stay finite at any length.
    fn generators_finite(seed in 0u64..30, len in 32usize..256) {
        for ds in Dataset::ALL {
            let s = ds.generate(SynthSpec { len, dims: Some(3), seed });
            prop_assert!(!s.values.has_non_finite(), "{:?}", ds);
            prop_assert_eq!(s.len(), len);
        }
    }
}
