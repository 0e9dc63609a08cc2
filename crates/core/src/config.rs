//! Configuration types for CrossEM / CrossEM⁺ training.

/// Which prompt generation mechanism to use (paper Sec. III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptKind {
    /// `"a photo of {label}"` — the Sec. II-B baseline.
    Baseline,
    /// Hard-encoding prompt `f_pro^h` (Eq. 5).
    Hard,
    /// Soft prompt `f_pro^s` (Eq. 6–7).
    Soft,
}

impl PromptKind {
    pub fn label(&self) -> &'static str {
        match self {
            PromptKind::Baseline => "baseline",
            PromptKind::Hard => "hard",
            PromptKind::Soft => "soft",
        }
    }
}

/// Which graph aggregator backs the soft prompt (the paper uses GNN for
/// CUB/SUN and GraphSAGE for the FB15K-derived graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftBackend {
    Gnn,
    GraphSage,
}

/// Which text-side parameters prompt tuning updates. `Head` (projection
/// head + input embeddings) is the safer default for the unsupervised
/// objective: the pre-trained tower body stays frozen, matching prompt
/// tuning's "quick adaptation, low overfitting risk" framing (Sec. II-B).
///
/// Gradient tracking follows the scope: for the length of a
/// `train_with_options` call, text-tower parameters outside it have
/// `requires_grad` off, so backward carries gradients through the frozen
/// body to the prompts and embeddings without computing weight gradients
/// no optimiser reads. Each flag is restored when the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneScope {
    /// Tune the full text tower (fine-tuning-like).
    Full,
    /// Tune only the projection head and input embeddings.
    Head,
}

/// Divergence-guard policy: after every optimisation step the trainer
/// checks loss/gradient finiteness (and optionally a loss-spike EWMA);
/// a tripped guard skips the poisoned step, rolls parameters and optimiser
/// state back to the last good snapshot, and halves the learning rate,
/// with a bounded retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Master switch. When off, batches are applied unconditionally
    /// (pre-guard behaviour).
    pub enabled: bool,
    /// Trip when `loss > spike_factor × EWMA(loss)`. Values ≤ 1.0 disable
    /// spike detection; non-finite checks stay active. Off by default so
    /// noisy-but-healthy runs reproduce the recorded seed results.
    pub spike_factor: f32,
    /// EWMA smoothing weight for the running loss (weight of the newest
    /// observation).
    pub ewma_alpha: f32,
    /// Healthy batches to observe before spike detection arms.
    pub warmup_batches: usize,
    /// Rollbacks allowed per run before the trainer gives up and reports
    /// the run as diverged.
    pub max_retries: usize,
    /// Multiplier applied to the learning rate on each rollback.
    pub lr_backoff: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            enabled: true,
            spike_factor: 0.0,
            ewma_alpha: 0.2,
            warmup_batches: 8,
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

impl GuardConfig {
    /// Guard tuned for fault drills: spike detection armed.
    pub fn strict() -> Self {
        GuardConfig { spike_factor: 8.0, ..GuardConfig::default() }
    }

    pub fn disabled() -> Self {
        GuardConfig { enabled: false, ..GuardConfig::default() }
    }

    pub fn validate(&self) {
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "guard ewma_alpha must be in (0,1]"
        );
        assert!(
            self.lr_backoff > 0.0 && self.lr_backoff <= 1.0,
            "guard lr_backoff must be in (0,1]"
        );
        assert!(
            !self.spike_factor.is_nan(),
            "guard spike_factor must not be NaN"
        );
    }
}

/// Training hyper-parameters shared by CrossEM and CrossEM⁺.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub prompt: PromptKind,
    /// Neighbourhood radius `d` for structure-aware prompts.
    pub hops: usize,
    /// Cap on hard-prompt neighbouring sub-prompts. Star-shaped attribute
    /// graphs tolerate many; KG-shaped graphs (whose neighbours are whole
    /// entities) pollute the prompt quickly, so FB harnesses set this low.
    pub max_subprompts: usize,
    /// Entities per mini-batch (`N1`).
    pub batch_vertices: usize,
    /// Images per mini-batch (`N2`).
    pub batch_images: usize,
    pub epochs: usize,
    pub lr: f32,
    /// Gradient clipping (global L2 norm).
    pub clip_norm: f32,
    /// Soft prompt aggregation weight α (Eq. 6).
    pub alpha: f32,
    /// Loss mixing weight β (Eq. 10); 1.0 disables the orthogonal
    /// constraint entirely.
    pub beta: f32,
    /// Soft prompt aggregator.
    pub soft_backend: SoftBackend,
    /// Prepend `"a photo of"` to textual prompts (matches the pre-training
    /// caption distribution).
    pub photo_prefix: bool,
    /// Maximum token length for textual prompts. Stock CLIP is 77; the
    /// paper extends to 512 during prompt learning.
    pub max_prompt_len: usize,
    /// Which text-side parameters to tune (the image tower and temperature
    /// are always frozen per Sec. II-C).
    pub tune_scope: TuneScope,
    /// Weight of the frozen zero-shot prior added to live scores when
    /// mining pseudo-positives. High values anchor mining to the
    /// pre-trained model (right when names are informative, e.g. FB);
    /// low values let structure-aware prompts override it (right when
    /// names are opaque, e.g. SUN).
    pub mining_prior_weight: f32,
    /// Divergence detection + rollback policy.
    pub guard: GuardConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            prompt: PromptKind::Hard,
            hops: 2,
            max_subprompts: 12,
            batch_vertices: 8,
            batch_images: 32,
            epochs: 3,
            lr: 5e-4,
            clip_norm: 5.0,
            alpha: 0.5,
            beta: 0.8,
            soft_backend: SoftBackend::Gnn,
            photo_prefix: true,
            max_prompt_len: 77,
            tune_scope: TuneScope::Head,
            mining_prior_weight: 0.5,
            guard: GuardConfig::default(),
        }
    }
}

impl TrainConfig {
    pub fn with_prompt(mut self, prompt: PromptKind) -> Self {
        self.prompt = prompt;
        self
    }

    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    pub fn validate(&self) {
        assert!(self.batch_vertices >= 1, "batch_vertices must be positive");
        assert!(self.batch_images >= 2, "need at least 2 images per batch for negatives");
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0,1]");
        assert!((0.0..=1.0).contains(&self.beta), "beta must be in [0,1]");
        assert!(self.max_prompt_len >= 4, "prompt budget too small");
        self.guard.validate();
    }
}

/// CrossEM⁺ optimisation parameters (Sec. IV).
#[derive(Debug, Clone, Copy)]
pub struct PlusConfig {
    /// Enable PCP mini-batch generation (MBG).
    pub minibatch_generation: bool,
    /// Enable property-based negative sampling (NS).
    pub negative_sampling: bool,
    /// Enable the orthogonal prompt constraint (OPC; only affects the soft
    /// prompt).
    pub orthogonal_constraint: bool,
    /// Number of vertex subsets `k1` (Alg. 2).
    pub vertex_subsets: usize,
    /// Number of image clusters `k2` per vertex subset (Alg. 2).
    pub image_clusters: usize,
    /// Fraction of lowest-proximity images pruned per vertex subset
    /// (the threshold θ of Alg. 2 line 14, expressed as a quantile).
    pub prune_quantile: f32,
    /// Top-k pool for hard negative sampling (Alg. 3 line 9 draws a random
    /// k; this is its upper bound).
    pub negative_top_k: usize,
}

impl Default for PlusConfig {
    fn default() -> Self {
        PlusConfig {
            minibatch_generation: true,
            negative_sampling: true,
            orthogonal_constraint: true,
            vertex_subsets: 4,
            image_clusters: 4,
            prune_quantile: 0.3,
            negative_top_k: 8,
        }
    }
}

impl PlusConfig {
    pub fn without_mbg(mut self) -> Self {
        self.minibatch_generation = false;
        self
    }

    pub fn without_ns(mut self) -> Self {
        self.negative_sampling = false;
        self
    }

    pub fn without_opc(mut self) -> Self {
        self.orthogonal_constraint = false;
        self
    }

    pub fn validate(&self) {
        assert!(self.vertex_subsets >= 1, "need at least one vertex subset");
        assert!(self.image_clusters >= 1, "need at least one image cluster");
        assert!((0.0..1.0).contains(&self.prune_quantile), "prune_quantile in [0,1)");
        assert!(self.negative_top_k >= 1, "negative_top_k must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        TrainConfig::default().validate();
        PlusConfig::default().validate();
    }

    #[test]
    fn builders_set_fields() {
        let c = TrainConfig::default().with_prompt(PromptKind::Soft).with_epochs(9);
        assert_eq!(c.prompt, PromptKind::Soft);
        assert_eq!(c.epochs, 9);
    }

    #[test]
    fn ablation_toggles() {
        let p = PlusConfig::default().without_mbg().without_ns().without_opc();
        assert!(!p.minibatch_generation);
        assert!(!p.negative_sampling);
        assert!(!p.orthogonal_constraint);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let c = TrainConfig { alpha: 1.5, ..TrainConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least 2 images")]
    fn single_image_batch_rejected() {
        let c = TrainConfig { batch_images: 1, ..TrainConfig::default() };
        c.validate();
    }
}
