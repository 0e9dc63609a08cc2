//! Property-based tests over the tensor engine: algebraic identities of the
//! forward ops and gradient-checking of the backward ops against central
//! finite differences.

use cem_tensor::Tensor;
use proptest::prelude::*;

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, len)
}

/// Central finite differences of `f` at `x`.
fn finite_diff(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Vec<f32> {
    let base = x.to_vec();
    (0..base.len())
        .map(|i| {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            (f(&Tensor::from_vec(plus, x.dims())) - f(&Tensor::from_vec(minus, x.dims())))
                / (2.0 * eps)
        })
        .collect()
}

fn grads_close(analytic: &[f32], numeric: &[f32], tol: f32) -> bool {
    analytic.iter().zip(numeric).all(|(a, n)| {
        let scale = 1.0f32.max(a.abs()).max(n.abs());
        (a - n).abs() / scale < tol
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- algebraic identities ----------

    #[test]
    fn mul_is_commutative(a in vec_f32(8), b in vec_f32(8)) {
        let ta = Tensor::from_vec(a, &[8]);
        let tb = Tensor::from_vec(b, &[8]);
        prop_assert_eq!(ta.mul(&tb).to_vec(), tb.mul(&ta).to_vec());
    }

    #[test]
    fn add_has_zero_identity(a in vec_f32(10)) {
        let t = Tensor::from_vec(a.clone(), &[2, 5]);
        let z = Tensor::zeros(&[2, 5]);
        prop_assert_eq!(t.add(&z).to_vec(), a);
    }

    #[test]
    fn neg_is_involutive(a in vec_f32(6)) {
        let t = Tensor::from_vec(a.clone(), &[6]);
        let back = t.neg().neg().to_vec();
        for (x, y) in back.iter().zip(&a) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn exp_ln_inverse_for_positive(a in prop::collection::vec(0.1f32..5.0, 7)) {
        let t = Tensor::from_vec(a.clone(), &[7]);
        let round = t.ln().exp().to_vec();
        for (x, y) in round.iter().zip(&a) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_identity_is_noop(a in vec_f32(12)) {
        let t = Tensor::from_vec(a.clone(), &[3, 4]);
        let out = t.matmul(&Tensor::eye(4)).to_vec();
        for (x, y) in out.iter().zip(&a) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_equals_mean_times_numel(a in vec_f32(9)) {
        let t = Tensor::from_vec(a, &[9]);
        prop_assert!((t.sum().item() - t.mean().item() * 9.0).abs() < 1e-3);
    }

    #[test]
    fn gather_then_stack_matches_rows(a in vec_f32(12), idx in prop::collection::vec(0usize..4, 1..6)) {
        let t = Tensor::from_vec(a, &[4, 3]);
        let g = t.gather_rows(&idx);
        for (pos, &i) in idx.iter().enumerate() {
            for c in 0..3 {
                prop_assert_eq!(g.at2(pos, c), t.at2(i, c));
            }
        }
    }

    #[test]
    fn softmax_preserves_argmax(a in vec_f32(10)) {
        let t = Tensor::from_vec(a, &[2, 5]);
        let s = t.softmax_rows();
        prop_assert_eq!(t.argmax_rows(), s.argmax_rows());
    }

    // ---------- gradient checks ----------

    #[test]
    fn grad_check_mul(a in vec_f32(5), b in vec_f32(5)) {
        let ta = Tensor::from_vec(a, &[5]).requires_grad();
        let tb = Tensor::from_vec(b, &[5]);
        ta.mul(&tb).sum().backward();
        let fd = finite_diff(|t| t.mul(&tb).sum().item(), &ta, 1e-2);
        prop_assert!(grads_close(&ta.grad().unwrap(), &fd, 0.05));
    }

    #[test]
    fn grad_check_matmul(a in vec_f32(6), b in vec_f32(6)) {
        let ta = Tensor::from_vec(a, &[2, 3]).requires_grad();
        let tb = Tensor::from_vec(b, &[3, 2]);
        ta.matmul(&tb).sum().backward();
        let fd = finite_diff(|t| t.matmul(&tb).sum().item(), &ta, 1e-2);
        prop_assert!(grads_close(&ta.grad().unwrap(), &fd, 0.05));
    }

    #[test]
    fn grad_check_tanh(a in vec_f32(6)) {
        let t = Tensor::from_vec(a, &[6]).requires_grad();
        t.tanh().sum().backward();
        let fd = finite_diff(|x| x.tanh().sum().item(), &t, 1e-2);
        prop_assert!(grads_close(&t.grad().unwrap(), &fd, 0.05));
    }

    #[test]
    fn grad_check_softmax(a in vec_f32(8)) {
        let t = Tensor::from_vec(a, &[2, 4]).requires_grad();
        let w = Tensor::from_vec((0..8).map(|i| i as f32 * 0.3 - 1.0).collect(), &[2, 4]);
        t.softmax_rows().mul(&w).sum().backward();
        let fd = finite_diff(|x| x.softmax_rows().mul(&w).sum().item(), &t, 1e-2);
        prop_assert!(grads_close(&t.grad().unwrap(), &fd, 0.08));
    }

    #[test]
    fn grad_check_l2_normalize(a in prop::collection::vec(0.2f32..3.0, 6)) {
        let t = Tensor::from_vec(a, &[2, 3]).requires_grad();
        let w = Tensor::from_vec(vec![1.0, -0.5, 0.3, 0.7, 0.2, -0.9], &[2, 3]);
        t.l2_normalize_rows().mul(&w).sum().backward();
        let fd = finite_diff(|x| x.l2_normalize_rows().mul(&w).sum().item(), &t, 1e-2);
        prop_assert!(grads_close(&t.grad().unwrap(), &fd, 0.08));
    }

    #[test]
    fn grad_check_cross_entropy(a in vec_f32(9), target in 0usize..3) {
        let t = Tensor::from_vec(a, &[3, 3]).requires_grad();
        let targets = [target, (target + 1) % 3, (target + 2) % 3];
        t.cross_entropy_rows(&targets).backward();
        let fd = finite_diff(|x| x.cross_entropy_rows(&targets).item(), &t, 1e-2);
        prop_assert!(grads_close(&t.grad().unwrap(), &fd, 0.08));
    }

    // ---------- autograd structure ----------

    #[test]
    fn grad_accumulates_linearly_across_uses(a in vec_f32(4), k in 1usize..5) {
        // y = k · sum(a) via k separate additions -> grad = k per element.
        let t = Tensor::from_vec(a, &[4]).requires_grad();
        let mut acc = Tensor::zeros(&[4]);
        for _ in 0..k {
            acc = acc.add(&t);
        }
        acc.sum().backward();
        let g = t.grad().unwrap();
        for v in g {
            prop_assert!((v - k as f32).abs() < 1e-5);
        }
    }

    #[test]
    fn no_grad_blocks_all_recording(a in vec_f32(4)) {
        let t = Tensor::from_vec(a, &[4]).requires_grad();
        let y = cem_tensor::no_grad(|| t.mul_scalar(2.0).relu().sum());
        prop_assert!(!y.has_grad_fn());
    }
}
