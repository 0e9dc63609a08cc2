//! First-order optimisers over collections of leaf tensors.
//!
//! The paper trains with AdamW (lr = 5e-4). Optimisers hold their state
//! keyed by parameter position, so the same `Vec<Tensor>` must be passed to
//! every call (which is what [`crate::optim::Optimizer::step`] consumes).

use crate::io::{CheckpointError, StateDict};
use crate::tensor::Tensor;

/// Common optimiser interface: one `step` consumes the accumulated grads of
/// the registered parameters and then the caller usually calls `zero_grad`.
pub trait Optimizer {
    /// Apply one update using each parameter's accumulated gradient.
    /// Parameters without a gradient are skipped.
    fn step(&mut self);

    /// Clear all parameter gradients.
    fn zero_grad(&mut self);

    /// The registered parameters.
    fn params(&self) -> &[Tensor];

    /// Clip gradients to a maximum global L2 norm; returns the pre-clip norm.
    /// Reads and scales each gradient buffer in place.
    fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let mut total = 0.0f64;
        for p in self.params() {
            if let Some(g) = p.grad_ref() {
                total += g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
            }
        }
        let norm = (total.sqrt()) as f32;
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in self.params() {
                if let Some(mut g) = p.grad_mut() {
                    g.iter_mut().for_each(|x| *x *= scale);
                }
            }
        }
        norm
    }
}

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Sgd::with_momentum(params, lr, 0.0)
    }

    pub fn with_momentum(params: Vec<Tensor>, lr: f32, momentum: f32) -> Self {
        let velocity = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        Sgd { params, lr, momentum, velocity }
    }

    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for (p, v) in self.params.iter().zip(self.velocity.iter_mut()) {
            let Some(g) = p.grad_ref() else { continue };
            let mut data = p.data_mut();
            if self.momentum > 0.0 {
                for ((w, vel), gi) in data.as_mut_slice().iter_mut().zip(v.iter_mut()).zip(g.iter())
                {
                    *vel = self.momentum * *vel + *gi;
                    *w -= self.lr * *vel;
                }
            } else {
                for (w, gi) in data.as_mut_slice().iter_mut().zip(g.iter()) {
                    *w -= self.lr * *gi;
                }
            }
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

/// Adam (Kingma & Ba) without decoupled weight decay.
pub struct Adam {
    inner: AdamW,
}

impl Adam {
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Adam { inner: AdamW::with_config(params, lr, 0.9, 0.999, 1e-8, 0.0) }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.inner.step();
    }
    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }
    fn params(&self) -> &[Tensor] {
        self.inner.params()
    }
}

/// AdamW: Adam with decoupled weight decay (the paper's optimiser).
pub struct AdamW {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step_count: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl AdamW {
    /// AdamW with the paper's defaults except learning rate.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        AdamW::with_config(params, lr, 0.9, 0.999, 1e-8, 0.01)
    }

    pub fn with_config(
        params: Vec<Tensor>,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        let m = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        AdamW { params, lr, beta1, beta2, eps, weight_decay, step_count: 0, m, v }
    }

    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Snapshot the optimiser state (first/second moments, step count,
    /// learning rate) into a [`StateDict`]. Together with the parameter
    /// values this makes training resume bit-faithful: restoring the
    /// moments preserves the exact effective per-parameter step sizes.
    pub fn state_dict(&self) -> StateDict {
        let mut dict = StateDict::new();
        for (i, (m, v)) in self.m.iter().zip(&self.v).enumerate() {
            dict.insert(format!("m.{i}"), Tensor::from_vec(m.clone(), &[m.len()]));
            dict.insert(format!("v.{i}"), Tensor::from_vec(v.clone(), &[v.len()]));
        }
        dict.insert_meta("step_count", self.step_count);
        dict.insert_meta("lr", f32::to_bits(self.lr) as u64);
        dict.insert_meta("param_count", self.params.len() as u64);
        dict
    }

    /// Restore state captured by [`AdamW::state_dict`]. The registered
    /// parameter list must match the one the snapshot was taken from.
    pub fn load_state_dict(&mut self, dict: &StateDict) -> Result<(), CheckpointError> {
        let stored = dict.meta("param_count").ok_or_else(|| CheckpointError::InvalidEntry {
            context: "optimizer state missing param_count".into(),
        })? as usize;
        if stored != self.params.len() {
            return Err(CheckpointError::InvalidEntry {
                context: format!(
                    "optimizer state holds {stored} parameters, live optimizer has {}",
                    self.params.len()
                ),
            });
        }
        for (i, (m, v)) in self.m.iter_mut().zip(self.v.iter_mut()).enumerate() {
            for (slot, key) in [(&mut *m, format!("m.{i}")), (&mut *v, format!("v.{i}"))] {
                let saved = dict.get(&key).ok_or_else(|| CheckpointError::InvalidEntry {
                    context: format!("optimizer state missing {key:?}"),
                })?;
                if saved.numel() != slot.len() {
                    return Err(CheckpointError::ShapeMismatch {
                        name: key,
                        expected: vec![slot.len()],
                        found: saved.dims().to_vec(),
                    });
                }
                slot.copy_from_slice(&saved.to_vec());
            }
        }
        self.step_count = dict.meta("step_count").ok_or_else(|| CheckpointError::InvalidEntry {
            context: "optimizer state missing step_count".into(),
        })?;
        if let Some(bits) = dict.meta("lr") {
            self.lr = f32::from_bits(bits as u32);
        }
        Ok(())
    }
}

impl Optimizer for AdamW {
    fn step(&mut self) {
        self.step_count += 1;
        let bias1 = 1.0 - self.beta1.powi(self.step_count as i32);
        let bias2 = 1.0 - self.beta2.powi(self.step_count as i32);
        // The sign of a zero gradient element cannot move a weight. The
        // first moment starts at +0 and never becomes −0: a sum is −0 only
        // when both terms are, and `β₁·m` is −0 only when `m` is. So adding
        // `(1−β₁)·(±0)` leaves `m` as it was, and `g·g` is +0 either way.
        // Backward passes that add only into the rows they touched may
        // flip the sign of an exact zero gradient element (see
        // `ops::structure`); every update stays bit-identical.
        for ((p, m), v) in self.params.iter().zip(self.m.iter_mut()).zip(self.v.iter_mut()) {
            let Some(g) = p.grad_ref() else { continue };
            let mut data = p.data_mut();
            for (((w, mi), vi), gi) in
                data.as_mut_slice().iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g.iter())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * *gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * *gi * *gi;
                let mhat = *mi / bias1;
                let vhat = *vi / bias2;
                // Decoupled weight decay (applied to the weight, not the grad).
                *w -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * *w);
            }
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimise (w - 3)^2 and check convergence.
    fn quadratic_converges(mut opt: impl Optimizer, w: Tensor, steps: usize) -> f32 {
        for _ in 0..steps {
            opt.zero_grad();
            let loss = w.add_scalar(-3.0).square().sum();
            loss.backward();
            opt.step();
        }
        w.item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = Tensor::scalar(0.0).requires_grad();
        let final_w = quadratic_converges(Sgd::new(vec![w.clone()], 0.1), w, 100);
        assert!((final_w - 3.0).abs() < 1e-3, "got {final_w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = Tensor::scalar(0.0).requires_grad();
        let final_w =
            quadratic_converges(Sgd::with_momentum(vec![w.clone()], 0.05, 0.9), w, 200);
        assert!((final_w - 3.0).abs() < 1e-2, "got {final_w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Tensor::scalar(0.0).requires_grad();
        let final_w = quadratic_converges(Adam::new(vec![w.clone()], 0.1), w, 300);
        assert!((final_w - 3.0).abs() < 1e-2, "got {final_w}");
    }

    #[test]
    fn adamw_converges_and_decays() {
        let w = Tensor::scalar(0.0).requires_grad();
        let final_w = quadratic_converges(AdamW::new(vec![w.clone()], 0.1), w, 300);
        // With weight decay the optimum is slightly below 3.
        assert!((final_w - 3.0).abs() < 0.1, "got {final_w}");
    }

    #[test]
    fn params_without_grad_are_skipped() {
        let w = Tensor::scalar(5.0).requires_grad();
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        opt.step(); // no grad accumulated
        assert_eq!(w.item(), 5.0);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let w = Tensor::from_vec(vec![0.0, 0.0], &[2]).requires_grad();
        w.accumulate_grad(&[3.0, 4.0]); // norm 5
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        let pre = opt.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = w.grad().unwrap();
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_scales_in_place_bit_identically() {
        let w = Tensor::zeros(&[4]).requires_grad();
        let g = [3.0, -4.0, 1.0e-3, -0.0];
        w.accumulate_grad(&g);
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        let scale = 0.5 / opt.clip_grad_norm(0.5);
        let want: Vec<u32> = g.iter().map(|x| (x * scale).to_bits()).collect();
        let got: Vec<u32> = w.grad().unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn clip_grad_norm_leaves_small_grads_untouched() {
        let w = Tensor::from_vec(vec![0.0], &[1]).requires_grad();
        w.accumulate_grad(&[0.5]);
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        opt.clip_grad_norm(1.0);
        assert_eq!(w.grad().unwrap(), vec![0.5]);
    }

    /// Run `steps` AdamW steps of (w - 3)^2 on `w`.
    fn adamw_steps(opt: &mut AdamW, w: &Tensor, steps: usize) {
        for _ in 0..steps {
            opt.zero_grad();
            let loss = w.add_scalar(-3.0).square().sum();
            loss.backward();
            opt.step();
        }
    }

    #[test]
    fn adamw_state_dict_resume_is_bit_faithful() {
        // Uninterrupted: 40 steps straight.
        let w_ref = Tensor::scalar(0.0).requires_grad();
        let mut opt_ref = AdamW::new(vec![w_ref.clone()], 0.1);
        adamw_steps(&mut opt_ref, &w_ref, 40);

        // Interrupted: 15 steps, snapshot, fresh optimiser, restore, 25 more.
        let w = Tensor::scalar(0.0).requires_grad();
        let mut opt = AdamW::new(vec![w.clone()], 0.1);
        adamw_steps(&mut opt, &w, 15);
        let snapshot = opt.state_dict();
        let w_values = w.to_vec();

        let w2 = Tensor::from_vec(w_values, &[1]).requires_grad();
        let mut opt2 = AdamW::new(vec![w2.clone()], 999.0); // lr restored from snapshot
        opt2.load_state_dict(&snapshot).unwrap();
        assert_eq!(opt2.lr(), 0.1);
        adamw_steps(&mut opt2, &w2, 25);

        assert_eq!(w_ref.to_vec(), w2.to_vec(), "resume diverged from uninterrupted run");
    }

    #[test]
    fn adamw_load_rejects_mismatched_state() {
        let w = Tensor::scalar(0.0).requires_grad();
        let opt = AdamW::new(vec![w.clone()], 0.1);
        let snapshot = opt.state_dict();

        // Wrong parameter count.
        let a = Tensor::scalar(0.0).requires_grad();
        let b = Tensor::scalar(0.0).requires_grad();
        let mut opt2 = AdamW::new(vec![a, b], 0.1);
        assert!(opt2.load_state_dict(&snapshot).is_err());

        // Wrong parameter shape.
        let wide = Tensor::zeros(&[3]).requires_grad();
        let mut opt3 = AdamW::new(vec![wide], 0.1);
        assert!(opt3.load_state_dict(&snapshot).is_err());
    }
}
