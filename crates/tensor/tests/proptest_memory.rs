//! Memory accounting: tensor storage returns the live-byte gauge to its
//! baseline when dropped.
//!
//! `memory::live_bytes` is process-wide, so this test is a binary of its
//! own: any other test allocating tensors at the same time would move the
//! gauge under it.

use cem_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #[test]
    fn live_bytes_return_to_baseline(n in 1usize..2000) {
        let before = cem_tensor::memory::live_bytes();
        {
            let _t = Tensor::zeros(&[n]);
            prop_assert!(cem_tensor::memory::live_bytes() >= before + n * 4);
        }
        prop_assert_eq!(cem_tensor::memory::live_bytes(), before);
    }
}
