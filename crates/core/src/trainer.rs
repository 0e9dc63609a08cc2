//! Algorithm 1: the CrossEM prompt-tuning loop.
//!
//! Entity pairs are split into random mini-batches; each batch builds
//! prompts for its vertices, encodes them with the (trainable) text tower,
//! pairs them against frozen image embeddings, and optimises the
//! unsupervised contrastive loss. The image tower and temperature are
//! frozen (Sec. II-C), so image embeddings are computed once up front —
//! exactly the optimisation the frozen tower licenses.
//!
//! The loop is wrapped in a resilience layer (see DESIGN.md, "Failure
//! handling & resume"):
//!
//! * a [`DivergenceGuard`] inspects every batch's loss and pre-clip
//!   gradient norm; a tripped guard skips the poisoned step, rolls the
//!   parameters and optimiser back to the last good in-memory snapshot,
//!   and backs off the learning rate, with a bounded retry budget;
//! * [`TrainOptions::checkpoints`] turns on durable end-of-epoch
//!   checkpoints (CEMT v2, atomic rename, rotating `latest`/`prev`) that
//!   capture parameters, AdamW moments, and the run seed — a killed run
//!   resumed via [`CrossEm::train_with_options`] replays the exact epoch
//!   shuffles the uninterrupted run would have used and reaches the same
//!   parameters;
//! * [`TrainOptions::injector`] is the deterministic fault-injection seam
//!   the `cem-bench` fault drills use.

use std::collections::HashSet;
use std::time::Instant;

use cem_clip::{Clip, TextEncoder, Tokenizer};
use cem_obs::{cem_debug, cem_info, Event, ObsSession};
use cem_data::EmDataset;
use cem_nn::Module;
use cem_tensor::io::StateDict;
use cem_tensor::optim::{AdamW, Optimizer};
use cem_tensor::{memory, no_grad, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{
    apply_train_state, config_fingerprint, derive_seed, encode_train_state, CheckpointManager,
    ResumeError,
};
use crate::config::{PromptKind, TrainConfig};
use crate::guard::{DivergenceGuard, EpochAction, FaultInjector};
use crate::loss::{combined_loss, orthogonal_loss, unsupervised_contrastive_loss};
use crate::matcher::rank_images;
use crate::metrics::{evaluate_rankings, Metrics};
use crate::prompt::{baseline_prompt, hard_prompt, HardPromptOptions, SoftPromptGenerator};

/// Per-epoch measurements (drives the paper's Table III / Figure 8).
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    pub seconds: f64,
    /// Peak live tensor bytes during the epoch (the GPU-memory proxy).
    pub peak_bytes: usize,
    /// Mean loss over the *healthy* batches of the epoch.
    pub mean_loss: f32,
    /// Batches whose optimisation step was applied.
    pub batches: usize,
    /// Batches skipped because loss or gradients were non-finite.
    pub nan_batches: usize,
    /// Guard-triggered rollbacks to the last good snapshot.
    pub rollbacks: usize,
}

/// Outcome of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    /// When the run resumed from a checkpoint: the number of epochs that
    /// had already completed before this process started.
    pub resumed_from: Option<usize>,
    /// The divergence guard exhausted its retry budget and stopped the run
    /// early; parameters are rolled back to the last good snapshot.
    pub diverged: bool,
}

impl TrainReport {
    /// Average seconds per epoch ("T" in the paper's tables).
    pub fn avg_epoch_seconds(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.seconds).sum::<f64>() / self.epochs.len() as f64
    }

    /// Maximum peak memory across epochs ("Mem").
    pub fn peak_bytes(&self) -> usize {
        self.epochs.iter().map(|e| e.peak_bytes).max().unwrap_or(0)
    }

    /// Mean loss of the last epoch, or `None` for a run that recorded no
    /// epochs (distinguishable from a diverged run's NaN).
    pub fn final_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.mean_loss)
    }

    /// Total batches skipped for non-finite loss/gradients.
    pub fn nan_batches(&self) -> usize {
        self.epochs.iter().map(|e| e.nan_batches).sum()
    }

    /// Total guard-triggered rollbacks.
    pub fn rollbacks(&self) -> usize {
        self.epochs.iter().map(|e| e.rollbacks).sum()
    }
}

/// Run-time knobs that don't change *what* is learned, only how the run
/// survives faults. The default (no checkpoints, no injector) trains
/// exactly like the pre-resilience loop.
#[derive(Default)]
pub struct TrainOptions<'h> {
    /// Write a rotating durable checkpoint after every epoch, and resume
    /// from the freshest intact one when the directory already holds
    /// training state for this configuration.
    pub checkpoints: Option<&'h CheckpointManager>,
    /// Deterministic fault-injection hooks (testing only).
    pub injector: Option<&'h mut dyn FaultInjector>,
    /// Kernel thread budget for this run (`None` = inherit the process
    /// default: `CEM_THREADS` or the machine's parallelism). Any value
    /// produces bit-identical training results; this knob only trades wall
    /// clock.
    pub threads: Option<usize>,
    /// Telemetry session this run publishes epoch/batch events into
    /// (`None` = no structured events). Purely observational: training
    /// results are bit-identical with or without a session.
    pub obs: Option<&'h ObsSession>,
}

/// Gradient tracking follows the optimiser while this lives: every
/// text-tower parameter outside the trainable set stops requiring
/// gradients, and drop restores each flag, on early returns too (like
/// [`cem_tensor::par::ThreadsGuard`] for the thread budget). Backward still
/// carries dX through the frozen blocks to the prompts and embeddings; it
/// only stops computing weight, bias and LayerNorm γ/β gradients that no
/// optimiser reads. Under `TuneScope::Full` nothing is frozen. Every
/// [`TrainEngine`] owns one, so the flags follow its optimiser for exactly
/// as long as the engine lives.
struct FrozenTextScope {
    restore: Vec<(Tensor, bool)>,
}

impl FrozenTextScope {
    fn new(text: &TextEncoder, trained: &[Tensor]) -> Self {
        let trained: HashSet<u64> = trained.iter().map(Tensor::id).collect();
        let restore = text
            .params()
            .into_iter()
            .filter(|p| !trained.contains(&p.id()))
            .map(|p| {
                let was = p.requires_grad_enabled();
                p.set_requires_grad(false);
                (p, was)
            })
            .collect();
        FrozenTextScope { restore }
    }
}

impl Drop for FrozenTextScope {
    fn drop(&mut self) {
        for (p, was) in &self.restore {
            p.set_requires_grad(*was);
        }
    }
}

/// The optimisation engine shared by CrossEM (Alg. 1) and CrossEM⁺: owns
/// the optimiser, the divergence guard, the in-memory good-state snapshot
/// used for rollback, and the scope that freezes gradient tracking for the
/// text-tower parameters the optimiser does not train.
pub(crate) struct TrainEngine {
    pub(crate) opt: AdamW,
    params: Vec<Tensor>,
    _frozen: FrozenTextScope,
    guard: DivergenceGuard,
    base_lr: f32,
    lr_scale: f32,
    lr_backoff: f32,
    retries_left: usize,
    clip_norm: f32,
    global_batch: usize,
    diverged: bool,
    nan_batches: usize,
    rollbacks: usize,
    snapshot_params: Vec<Vec<f32>>,
    snapshot_opt: StateDict,
}

impl TrainEngine {
    /// An engine training `params`; until it drops, every parameter of
    /// `text` outside `params` stops tracking gradients.
    pub(crate) fn new(params: Vec<Tensor>, text: &TextEncoder, config: &TrainConfig) -> Self {
        let opt = AdamW::new(params.clone(), config.lr);
        let mut engine = TrainEngine {
            opt,
            _frozen: FrozenTextScope::new(text, &params),
            params,
            guard: DivergenceGuard::new(config.guard),
            base_lr: config.lr,
            lr_scale: 1.0,
            lr_backoff: config.guard.lr_backoff,
            retries_left: config.guard.max_retries,
            clip_norm: config.clip_norm,
            global_batch: 0,
            diverged: false,
            nan_batches: 0,
            rollbacks: 0,
            snapshot_params: Vec::new(),
            snapshot_opt: StateDict::new(),
        };
        engine.take_snapshot();
        engine
    }

    pub(crate) fn params(&self) -> &[Tensor] {
        &self.params
    }

    pub(crate) fn diverged(&self) -> bool {
        self.diverged
    }

    pub(crate) fn nan_batches(&self) -> usize {
        self.nan_batches
    }

    pub(crate) fn rollbacks(&self) -> usize {
        self.rollbacks
    }

    /// Restore parameters + optimiser state from a checkpoint and make the
    /// restored state the rollback target. Returns the resume cursor.
    pub(crate) fn resume_from(
        &mut self,
        dict: &StateDict,
        fingerprint: u64,
    ) -> Result<crate::checkpoint::ResumeState, ResumeError> {
        let state = apply_train_state(dict, &self.params, &mut self.opt, fingerprint)?;
        self.take_snapshot();
        Ok(state)
    }

    /// Record the current parameters + optimiser state as the rollback
    /// target. Called at run start, after a resume, and at the end of
    /// every healthy epoch.
    pub(crate) fn take_snapshot(&mut self) {
        cem_obs::span!("phase.snapshot");
        self.snapshot_params = self.params.iter().map(|p| p.to_vec()).collect();
        self.snapshot_opt = self.opt.state_dict();
    }

    /// Reset the per-epoch fault counters.
    pub(crate) fn begin_epoch(&mut self) {
        self.nan_batches = 0;
        self.rollbacks = 0;
    }

    fn rollback(&mut self) {
        for (p, saved) in self.params.iter().zip(&self.snapshot_params) {
            p.copy_from_slice(saved);
        }
        self.opt
            .load_state_dict(&self.snapshot_opt)
            .expect("in-memory snapshot always matches its own optimiser");
        self.lr_scale *= self.lr_backoff;
        self.opt.set_lr(self.base_lr * self.lr_scale);
    }

    /// Backprop `loss`, let the injector tamper, clip, and — if the guard
    /// approves — apply the optimisation step. Returns the loss value for
    /// healthy batches, `None` for skipped ones. A tripped guard restores
    /// the last good snapshot and backs off the learning rate; once the
    /// retry budget is spent it marks the run diverged instead.
    pub(crate) fn apply(
        &mut self,
        loss: Tensor,
        injector: Option<&mut (dyn FaultInjector + '_)>,
    ) -> Option<f32> {
        cem_obs::span!("phase.step");
        let value = loss.item();
        self.opt.zero_grad();
        {
            // Nested inside `phase.step` (outside obs_report's leaf families).
            cem_obs::span!("step.backward");
            loss.backward();
        }
        if let Some(inj) = injector {
            inj.after_backward(self.global_batch, &self.params);
        }
        self.global_batch += 1;
        let grad_norm = {
            cem_obs::span!("step.clip");
            self.opt.clip_grad_norm(self.clip_norm)
        };
        let verdict = self.guard.observe(value, grad_norm);
        if verdict.is_healthy() {
            cem_obs::span!("step.update");
            self.opt.step();
            return Some(value);
        }
        if verdict.is_non_finite() {
            self.nan_batches += 1;
        }
        self.rollbacks += 1;
        self.rollback();
        if self.retries_left == 0 {
            self.diverged = true;
        } else {
            self.retries_left -= 1;
        }
        cem_obs::counter_add!("guard.trips", 1);
        cem_obs::emit(|| {
            Event::new("guard_trip")
                .field("verdict", verdict.label())
                .field("loss", value as f64)
                .field("diverged", self.diverged)
        });
        cem_info!(
            "guard trip: verdict={} loss={value} diverged={}",
            verdict.label(),
            self.diverged
        );
        None
    }
}

/// The CrossEM matcher: prompt construction + trainable text side + frozen
/// image side.
pub struct CrossEm<'a> {
    clip: &'a Clip,
    tokenizer: &'a Tokenizer,
    dataset: &'a EmDataset,
    config: TrainConfig,
    /// Token ids per entity: full prompt for baseline/hard, bare label for
    /// soft (whose prompt is continuous).
    prompt_ids: Vec<Vec<usize>>,
    soft: Option<SoftPromptGenerator>,
    /// `[n_entities, d_model]` frozen mean label-token embeddings (Eq. 7's
    /// `h(l_v)`); populated in soft mode.
    label_means: Option<Tensor>,
    /// `[|I|, embed_dim]` precomputed normalised image embeddings.
    image_embeddings: Tensor,
    /// `[n_entities, |I|]` zero-shot similarity prior from the *pre-trained*
    /// model with the baseline prompt, frozen at construction. Pseudo-
    /// positive mining adds it to the live scores so early tuning steps
    /// (when structure-aware prompts are still off-distribution) do not
    /// lock in arbitrary matches.
    prior_logits: Tensor,
    /// Apply the orthogonal prompt constraint (CrossEM⁺'s OPC; off for
    /// plain CrossEM).
    pub(crate) orthogonal: bool,
}

impl<'a> CrossEm<'a> {
    /// Prepare a matcher: build prompts, freeze the image tower, and
    /// precompute image embeddings.
    pub fn new<R: Rng>(
        clip: &'a Clip,
        tokenizer: &'a Tokenizer,
        dataset: &'a EmDataset,
        config: TrainConfig,
        rng: &mut R,
    ) -> Self {
        config.validate();
        clip.freeze_image_tower();

        let max_len = config.max_prompt_len.min(clip.text.max_len());
        let prompt_ids: Vec<Vec<usize>> = {
            cem_obs::span!("setup.prompts");
            match config.prompt {
                PromptKind::Baseline => (0..dataset.entity_count())
                    .map(|e| {
                        let text = baseline_prompt(dataset.entity_label(e), config.photo_prefix);
                        tokenizer.encode(&text, max_len).0
                    })
                    .collect(),
                PromptKind::Hard => {
                    let options = HardPromptOptions {
                        hops: config.hops,
                        photo_prefix: config.photo_prefix,
                        max_subprompts: config.max_subprompts,
                    };
                    dataset
                        .entities
                        .iter()
                        .map(|&v| {
                            let text = hard_prompt(&dataset.graph, v, &options);
                            tokenizer.encode(&text, max_len).0
                        })
                        .collect()
                }
                PromptKind::Soft => (0..dataset.entity_count())
                    .map(|e| tokenizer.encode(dataset.entity_label(e), max_len).0)
                    .collect(),
            }
        };

        let (soft, label_means) = if config.prompt == PromptKind::Soft {
            cem_obs::span!("setup.soft");
            let generator = SoftPromptGenerator::new(
                &dataset.graph,
                &clip.text,
                tokenizer,
                config.soft_backend,
                config.alpha,
                rng,
            );
            let labels: Vec<Vec<usize>> = (0..dataset.entity_count())
                .map(|e| tokenizer.tokenize(dataset.entity_label(e)))
                .collect();
            let means =
                no_grad(|| clip.text.token_embedding_table().segment_mean_rows(&labels)).detach();
            (Some(generator), Some(means))
        } else {
            (None, None)
        };

        let image_embeddings = no_grad(|| {
            cem_obs::span!("setup.images");
            let refs: Vec<&cem_clip::Image> = dataset.images.iter().collect();
            let mut parts = Vec::new();
            for chunk in refs.chunks(64) {
                parts.push(clip.encode_images(chunk));
            }
            Tensor::concat_rows(&parts)
        })
        .detach();

        let prior_logits = no_grad(|| {
            cem_obs::span!("setup.prior");
            let prompts: Vec<Vec<usize>> = (0..dataset.entity_count())
                .map(|e| {
                    let text = baseline_prompt(dataset.entity_label(e), config.photo_prefix);
                    tokenizer.encode(&text, max_len).0
                })
                .collect();
            let mut parts = Vec::new();
            for chunk in prompts.chunks(32) {
                parts.push(clip.encode_texts(chunk));
            }
            let text_emb = Tensor::concat_rows(&parts);
            clip.similarity_logits(&text_emb, &image_embeddings)
        })
        .detach();

        CrossEm {
            clip,
            tokenizer,
            dataset,
            config,
            prompt_ids,
            soft,
            label_means,
            image_embeddings,
            prior_logits,
            orthogonal: false,
        }
    }

    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    pub(crate) fn dataset(&self) -> &EmDataset {
        self.dataset
    }

    pub(crate) fn clip(&self) -> &Clip {
        self.clip
    }

    pub(crate) fn tokenizer(&self) -> &Tokenizer {
        self.tokenizer
    }

    /// The precomputed normalised image embeddings `[|I|, embed_dim]`.
    pub fn image_embeddings(&self) -> &Tensor {
        &self.image_embeddings
    }

    /// Encode a batch of entity indices into normalised joint-space vectors
    /// `[B, embed_dim]`. For soft prompts, also returns the raw prompt
    /// matrix `[B, d_model]` the orthogonal constraint applies to.
    pub(crate) fn encode_entities(&self, batch: &[usize]) -> (Tensor, Option<Tensor>) {
        assert!(!batch.is_empty(), "empty entity batch");
        match &self.soft {
            None => {
                let rows: Vec<Tensor> =
                    batch.iter().map(|&e| self.clip.text.encode_ids(&self.prompt_ids[e])).collect();
                (Tensor::stack_rows(&rows).l2_normalize_rows(), None)
            }
            Some(generator) => {
                let vertex_ids: Vec<usize> =
                    batch.iter().map(|&e| self.dataset.entities[e].0).collect();
                let prompts = generator.prompts_for(&vertex_ids);
                let means =
                    self.label_means.as_ref().expect("soft mode has label means").gather_rows(batch);
                let injected = generator.input_tokens(&means, &prompts); // [B, d_model]
                let rows: Vec<Tensor> = batch
                    .iter()
                    .enumerate()
                    .map(|(bi, &e)| {
                        let ids = &self.prompt_ids[e];
                        let emb = self.clip.text.embed_ids(ids); // [T, d]
                        let t = emb.shape().dim(0);
                        // Splice the prompt token between [CLS] and the rest.
                        let seq = Tensor::concat_rows(&[
                            emb.slice_rows(0, 1),
                            injected.slice_rows(bi, bi + 1),
                            emb.slice_rows(1, t),
                        ]);
                        self.clip.text.forward_embeddings(&seq)
                    })
                    .collect();
                (Tensor::stack_rows(&rows).l2_normalize_rows(), Some(prompts))
            }
        }
    }

    /// Trainable parameters: the selected text-side scope plus soft-prompt
    /// state.
    pub fn trainable_params(&self) -> Vec<Tensor> {
        let mut params = Vec::new();
        match self.config.tune_scope {
            crate::config::TuneScope::Full => params.extend(self.clip.text.params()),
            crate::config::TuneScope::Head => {
                params.extend(self.clip.text.head_params());
                params.extend(self.clip.text.embedding_params());
            }
        }
        if let Some(generator) = &self.soft {
            params.extend(generator.params());
        }
        params
    }

    /// The loss of one explicit `(vertices, images)` mini-batch; shared by
    /// Algorithm 1 and the CrossEM⁺ trainer. The caller backprops and
    /// steps through [`TrainEngine::apply`].
    ///
    /// The positive set `X_p` is "collected from the pairs with top
    /// similarity" (Sec. II-B): each vertex's best-matching image over the
    /// *whole* repository (cheap — image embeddings are frozen and
    /// precomputed) is injected into the batch as its pseudo-positive; the
    /// remaining batch images act as `X_n`. Mining globally rather than
    /// within the random batch keeps self-training from reinforcing
    /// arbitrary in-batch matches.
    pub(crate) fn batch_loss(&self, vertex_batch: &[usize], image_batch: &[usize]) -> Tensor {
        let (text_emb, prompts) = {
            cem_obs::span!("phase.encode");
            self.encode_entities(vertex_batch)
        };

        // Mine global pseudo-positives with the current prompts, anchored
        // by the frozen zero-shot prior (no grad).
        let mined: Vec<usize> = {
            cem_obs::span!("phase.mine");
            no_grad(|| {
                let live = self
                    .clip
                    .similarity_logits(&text_emb.detach(), &self.image_embeddings);
                let prior = self
                    .prior_logits
                    .gather_rows(vertex_batch)
                    .mul_scalar(self.config.mining_prior_weight);
                live.add(&prior).argmax_rows()
            })
        };
        cem_obs::span!("phase.loss");
        let mut images: Vec<usize> = image_batch.to_vec();
        let mut targets = Vec::with_capacity(vertex_batch.len());
        for &img in &mined {
            match images.iter().position(|&x| x == img) {
                Some(pos) => targets.push(pos),
                None => {
                    images.push(img);
                    targets.push(images.len() - 1);
                }
            }
        }

        let image_emb = self.image_embeddings.gather_rows(&images);
        let logits = self.clip.similarity_logits(&text_emb, &image_emb);
        let l_con = unsupervised_contrastive_loss(&logits, &targets);
        if self.orthogonal {
            combined_loss(l_con, prompts.as_ref().map(orthogonal_loss), self.config.beta)
        } else {
            l_con
        }
    }

    /// Algorithm 1: random mini-batch prompt tuning.
    pub fn train<R: Rng>(&self, rng: &mut R) -> TrainReport {
        self.train_with_options(rng, TrainOptions::default())
            .expect("training without checkpoints has no resume path to fail")
    }

    /// Algorithm 1 with the resilience layer: optional durable end-of-epoch
    /// checkpoints (with automatic resume) and fault injection.
    ///
    /// When checkpointing is on, epoch shuffles are derived from a run seed
    /// stored in the checkpoint rather than from `rng`'s evolving stream, so
    /// a killed-and-resumed run replays exactly the batches the
    /// uninterrupted run would have seen. Without checkpoints the RNG usage
    /// is byte-identical to the original loop.
    pub fn train_with_options<R: Rng>(
        &self,
        rng: &mut R,
        mut options: TrainOptions<'_>,
    ) -> Result<TrainReport, ResumeError> {
        let _threads = options.threads.map(cem_tensor::par::ThreadsGuard::new);
        let mut engine = TrainEngine::new(self.trainable_params(), &self.clip.text, &self.config);
        let fingerprint = config_fingerprint(&self.config);
        let mut report = TrainReport::default();
        let mut start_epoch = 0usize;

        let run_seed: Option<u64> = match options.checkpoints {
            None => None,
            Some(manager) => Some(match manager.load()? {
                Some((dict, _source)) => {
                    let state = engine.resume_from(&dict, fingerprint)?;
                    start_epoch = state.epochs_done.min(self.config.epochs);
                    report.resumed_from = Some(state.epochs_done);
                    state.seed
                }
                None => rng.gen::<u64>(),
            }),
        };

        if let Some(from) = report.resumed_from {
            cem_info!("resuming CrossEM run at epoch {from}");
        }
        cem_info!(
            "CrossEM training: {} epochs, {} entities, {} images",
            self.config.epochs,
            self.dataset.entity_count(),
            self.dataset.image_count()
        );

        let mut entity_order: Vec<usize> = (0..self.dataset.entity_count()).collect();
        let mut image_order: Vec<usize> = (0..self.dataset.image_count()).collect();

        'epochs: for epoch in start_epoch..self.config.epochs {
            memory::reset_peak();
            let start = Instant::now();
            if let Some(session) = options.obs {
                session.emit(Event::new("epoch_start").field("epoch", epoch as f64));
            }
            match run_seed {
                // Legacy stream: persistent orders, cumulative shuffles.
                None => {
                    entity_order.shuffle(rng);
                    image_order.shuffle(rng);
                }
                // Resumable stream: the epoch's shuffle depends only on
                // (run_seed, epoch), never on how we got here.
                Some(seed) => {
                    let mut epoch_rng = StdRng::seed_from_u64(derive_seed(seed, epoch as u64));
                    reset_identity(&mut entity_order);
                    reset_identity(&mut image_order);
                    entity_order.shuffle(&mut epoch_rng);
                    image_order.shuffle(&mut epoch_rng);
                }
            }
            engine.begin_epoch();
            let mut loss_sum = 0.0f32;
            let mut batches = 0usize;
            let mut batch_idx = 0usize;
            'batches: for vertex_chunk in entity_order.chunks(self.config.batch_vertices) {
                for image_chunk in image_order.chunks(self.config.batch_images) {
                    if image_chunk.len() < 2 {
                        continue;
                    }
                    let loss = self.batch_loss(vertex_chunk, image_chunk);
                    let applied = engine.apply(loss, options.injector.as_deref_mut());
                    if let Some(session) = options.obs {
                        session.emit(
                            Event::new("batch")
                                .field("epoch", epoch as f64)
                                .field("batch", batch_idx as f64)
                                .field("loss", applied.map_or(f64::NAN, |v| v as f64))
                                .field("healthy", applied.is_some()),
                        );
                    }
                    if let Some(value) = applied {
                        cem_debug!("epoch {epoch} batch {batch_idx}: loss={value}");
                        loss_sum += value;
                        batches += 1;
                    }
                    batch_idx += 1;
                    if engine.diverged() {
                        break 'batches;
                    }
                }
            }
            let stats = EpochStats {
                seconds: start.elapsed().as_secs_f64(),
                peak_bytes: memory::peak_bytes(),
                mean_loss: if batches > 0 { loss_sum / batches as f32 } else { f32::NAN },
                batches,
                nan_batches: engine.nan_batches(),
                rollbacks: engine.rollbacks(),
            };
            if let Some(session) = options.obs {
                session.emit(epoch_end_event(epoch, &stats));
            }
            cem_info!(
                "epoch {epoch}: mean_loss={} batches={} ({:.2}s)",
                stats.mean_loss,
                stats.batches,
                stats.seconds
            );
            report.epochs.push(stats);
            if engine.diverged() {
                report.diverged = true;
                break 'epochs;
            }
            engine.take_snapshot();
            if let (Some(manager), Some(seed)) = (options.checkpoints, run_seed) {
                let dict =
                    encode_train_state(engine.params(), &engine.opt, epoch + 1, seed, fingerprint);
                manager.save(&dict)?;
            }
            if let Some(inj) = options.injector.as_deref_mut() {
                if inj.after_epoch(epoch) == EpochAction::Abort {
                    break 'epochs;
                }
            }
        }
        Ok(report)
    }

    /// Matching probabilities (Eq. 4) for all entities against all images:
    /// `[n_entities, n_images]`.
    pub fn matching_matrix(&self) -> Tensor {
        cem_obs::span!("phase.match");
        no_grad(|| {
            let all: Vec<usize> = (0..self.dataset.entity_count()).collect();
            let mut parts = Vec::new();
            for chunk in all.chunks(self.config.batch_vertices.max(8)) {
                let (emb, _) = self.encode_entities(chunk);
                parts.push(emb);
            }
            let text_emb = Tensor::concat_rows(&parts);
            self.clip.matching_probabilities(&text_emb, &self.image_embeddings)
        })
    }

    /// Rank all images per entity and compute Hits@k / MRR against the
    /// dataset's gold pairs.
    pub fn evaluate(&self) -> Metrics {
        let probabilities = self.matching_matrix();
        cem_obs::span!("phase.rank");
        let rankings = rank_images(&probabilities, 0);
        evaluate_rankings(&rankings, |entity, image| self.dataset.is_match(entity, image))
    }
}

/// Render one epoch's stats as the `epoch_end` event (shared by both
/// trainers so the schema stays in one place).
pub(crate) fn epoch_end_event(epoch: usize, stats: &EpochStats) -> Event {
    Event::new("epoch_end")
        .field("epoch", epoch as f64)
        .field("seconds", stats.seconds)
        .field("mean_loss", stats.mean_loss as f64)
        .field("batches", stats.batches as f64)
        .field("nan_batches", stats.nan_batches as f64)
        .field("rollbacks", stats.rollbacks as f64)
        .field("peak_bytes", stats.peak_bytes as f64)
}

/// Reset a permutation buffer to `0..n` in place.
pub(crate) fn reset_identity(order: &mut [usize]) {
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cem_clip::{ClipConfig, Image};
    use cem_data::AttributePool;
    use cem_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A micro dataset (2 entities, 4 images) and an untrained tiny CLIP —
    /// enough to exercise every code path cheaply. End-to-end learning
    /// tests live in the workspace `tests/` directory.
    fn micro() -> (Clip, Tokenizer, EmDataset, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut graph = Graph::new();
        let a = graph.add_vertex("white bird");
        let b = graph.add_vertex("black bird");
        let white = graph.add_vertex("white");
        let black = graph.add_vertex("black");
        graph.add_edge(a, white, "has color");
        graph.add_edge(b, black, "has color");
        let tokenizer =
            Tokenizer::build(["a photo of white black bird has color in and"]);
        let mk_img = |seed: f32| {
            Image::from_patches(vec![vec![seed; 6], vec![seed * 0.5; 6], vec![-seed; 6]])
        };
        let dataset = EmDataset {
            name: "micro".into(),
            graph,
            entities: vec![a, b],
            classes: vec![
                cem_data::ClassSpec { name: "white bird".into(), signature: vec![], name_reveals: 0 },
                cem_data::ClassSpec { name: "black bird".into(), signature: vec![], name_reveals: 0 },
            ],
            images: vec![mk_img(1.0), mk_img(-1.0), mk_img(0.8), mk_img(-0.7)],
            image_gold: vec![0, 1, 0, 1],
            pool: AttributePool::synthesize(2, 2),
        };
        dataset.validate();
        let clip = Clip::new(ClipConfig::tiny(tokenizer.vocab_size(), 6), &mut rng);
        (clip, tokenizer, dataset, rng)
    }

    fn config(prompt: PromptKind) -> TrainConfig {
        TrainConfig {
            prompt,
            epochs: 1,
            batch_vertices: 2,
            batch_images: 4,
            ..TrainConfig::default()
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cem_trainer_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn baseline_and_hard_prompts_tokenised() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let baseline = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Baseline), &mut rng);
        let hard = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Hard), &mut rng);
        // Hard prompts include neighbour structure -> longer than baseline.
        assert!(hard.prompt_ids[0].len() > baseline.prompt_ids[0].len());
    }

    #[test]
    fn encode_entities_shapes() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        for kind in [PromptKind::Baseline, PromptKind::Hard, PromptKind::Soft] {
            let m = CrossEm::new(&clip, &tokenizer, &dataset, config(kind), &mut rng);
            let (emb, prompts) = m.encode_entities(&[0, 1]);
            assert_eq!(emb.dims(), &[2, clip.embed_dim()]);
            assert_eq!(prompts.is_some(), kind == PromptKind::Soft);
        }
    }

    #[test]
    fn train_runs_and_records_stats() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Hard), &mut rng);
        let report = m.train(&mut rng);
        assert_eq!(report.epochs.len(), 1);
        let stats = report.epochs[0];
        assert!(stats.batches >= 1);
        assert!(stats.mean_loss.is_finite());
        assert!(stats.peak_bytes > 0);
        assert_eq!(stats.nan_batches, 0);
        assert_eq!(stats.rollbacks, 0);
        assert!(!report.diverged);
        assert_eq!(report.resumed_from, None);
        assert!(report.avg_epoch_seconds() > 0.0);
    }

    #[test]
    fn soft_training_touches_soft_params() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Soft), &mut rng);
        let before: Vec<f32> = m.soft.as_ref().unwrap().params()[0].to_vec();
        m.train(&mut rng);
        let after: Vec<f32> = m.soft.as_ref().unwrap().params()[0].to_vec();
        assert!(before.iter().zip(&after).any(|(x, y)| (x - y).abs() > 1e-7));
    }

    #[test]
    fn matching_matrix_rows_are_distributions() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Baseline), &mut rng);
        let p = m.matching_matrix();
        assert_eq!(p.dims(), &[2, 4]);
        for r in 0..2 {
            let s: f32 = (0..4).map(|c| p.at2(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn evaluate_produces_metrics() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Baseline), &mut rng);
        let metrics = m.evaluate();
        assert_eq!(metrics.queries, 2);
        assert!(metrics.mrr > 0.0); // ranking always finds the gold eventually
        assert!(metrics.hits_at_5 >= metrics.hits_at_3);
        assert!(metrics.hits_at_3 >= metrics.hits_at_1);
    }

    #[test]
    fn image_tower_stays_frozen_through_training() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Hard), &mut rng);
        let before: Vec<f32> = clip.image.params()[0].to_vec();
        m.train(&mut rng);
        let after: Vec<f32> = clip.image.params()[0].to_vec();
        assert_eq!(before, after);
    }

    /// Poisons the gradients of one chosen batch with NaN.
    struct NanAt(usize);

    impl FaultInjector for NanAt {
        fn after_backward(&mut self, global_batch: usize, params: &[Tensor]) {
            if global_batch == self.0 {
                let p = &params[0];
                p.set_grad(&vec![f32::NAN; p.numel()]);
            }
        }
    }

    /// Simulates a crash right after epoch `k`'s checkpoint is written.
    struct CrashAfterEpoch(usize);

    impl FaultInjector for CrashAfterEpoch {
        fn after_epoch(&mut self, epoch: usize) -> EpochAction {
            if epoch == self.0 {
                EpochAction::Abort
            } else {
                EpochAction::Continue
            }
        }
    }

    #[test]
    fn nan_injection_rolls_back_and_recovers() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        // Small batches -> 4 batches per epoch, so a healthy batch follows
        // the poisoned one within each epoch.
        let cfg = TrainConfig {
            epochs: 2,
            batch_vertices: 1,
            batch_images: 2,
            ..config(PromptKind::Hard)
        };
        let m = CrossEm::new(&clip, &tokenizer, &dataset, cfg, &mut rng);
        let mut injector = NanAt(1);
        let report = m
            .train_with_options(
                &mut rng,
                TrainOptions { checkpoints: None, injector: Some(&mut injector), ..Default::default() },
            )
            .unwrap();
        assert_eq!(report.nan_batches(), 1);
        assert_eq!(report.rollbacks(), 1);
        assert!(!report.diverged);
        // The run survived: the last epoch's mean loss is finite, and no
        // NaN ever reached the parameters.
        assert!(report.final_loss().unwrap().is_finite());
        for p in m.trainable_params() {
            assert!(p.to_vec().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn relentless_nans_exhaust_retries_and_mark_divergence() {
        struct AlwaysNan;
        impl FaultInjector for AlwaysNan {
            fn after_backward(&mut self, _global_batch: usize, params: &[Tensor]) {
                let p = &params[0];
                p.set_grad(&vec![f32::NAN; p.numel()]);
            }
        }
        let (clip, tokenizer, dataset, mut rng) = micro();
        // 4 batches per epoch: enough trips to exhaust the retry budget.
        let cfg = TrainConfig {
            batch_vertices: 1,
            batch_images: 2,
            ..config(PromptKind::Hard)
        };
        let m = CrossEm::new(&clip, &tokenizer, &dataset, cfg, &mut rng);
        let mut injector = AlwaysNan;
        let report = m
            .train_with_options(
                &mut rng,
                TrainOptions { checkpoints: None, injector: Some(&mut injector), ..Default::default() },
            )
            .unwrap();
        assert!(report.diverged);
        // max_retries(3) rollbacks + the final trip that exhausted them.
        assert_eq!(report.rollbacks(), m.config().guard.max_retries + 1);
        assert_eq!(report.epochs.len(), 1, "run stops at the diverged epoch");
        // Parameters are rolled back to the pristine snapshot, not NaN.
        for p in m.trainable_params() {
            assert!(p.to_vec().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn crash_and_resume_matches_uninterrupted_run() {
        let cfg = TrainConfig { epochs: 3, ..config(PromptKind::Hard) };

        // Uninterrupted run with checkpointing on.
        let dir_a = tmp_dir("uninterrupted");
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, cfg, &mut rng);
        let manager = CheckpointManager::new(&dir_a).unwrap();
        let full = m
            .train_with_options(
                &mut rng,
                TrainOptions { checkpoints: Some(&manager), injector: None, ..Default::default() },
            )
            .unwrap();
        assert_eq!(full.epochs.len(), 3);
        let want: Vec<Vec<f32>> = m.trainable_params().iter().map(|p| p.to_vec()).collect();
        drop(m);

        // Same world, killed after epoch 1's checkpoint.
        let dir_b = tmp_dir("crashed");
        let manager_b = CheckpointManager::new(&dir_b).unwrap();
        {
            let (clip, tokenizer, dataset, mut rng) = micro();
            let m = CrossEm::new(&clip, &tokenizer, &dataset, cfg, &mut rng);
            let mut injector = CrashAfterEpoch(1);
            let partial = m
                .train_with_options(
                    &mut rng,
                    TrainOptions { checkpoints: Some(&manager_b), injector: Some(&mut injector), ..Default::default() },
                )
                .unwrap();
            assert_eq!(partial.epochs.len(), 2, "aborted after epoch index 1");
        }

        // "New process": rebuild the world from the same seed and resume.
        let (clip, tokenizer, dataset, mut rng) = micro();
        let m = CrossEm::new(&clip, &tokenizer, &dataset, cfg, &mut rng);
        let resumed = m
            .train_with_options(
                &mut rng,
                TrainOptions { checkpoints: Some(&manager_b), injector: None, ..Default::default() },
            )
            .unwrap();
        assert_eq!(resumed.resumed_from, Some(2));
        assert_eq!(resumed.epochs.len(), 1, "only the remaining epoch runs");

        let got: Vec<Vec<f32>> = m.trainable_params().iter().map(|p| p.to_vec()).collect();
        assert_eq!(want, got, "resumed run must be bit-faithful to the uninterrupted one");

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn resume_rejects_checkpoint_from_different_config() {
        let dir = tmp_dir("fingerprint");
        let manager = CheckpointManager::new(&dir).unwrap();
        {
            let (clip, tokenizer, dataset, mut rng) = micro();
            let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Hard), &mut rng);
            m.train_with_options(
                &mut rng,
                TrainOptions { checkpoints: Some(&manager), injector: None, ..Default::default() },
            )
            .unwrap();
        }
        let (clip, tokenizer, dataset, mut rng) = micro();
        let other = TrainConfig { lr: 1e-3, ..config(PromptKind::Hard) };
        let m = CrossEm::new(&clip, &tokenizer, &dataset, other, &mut rng);
        let err = m
            .train_with_options(
                &mut rng,
                TrainOptions { checkpoints: Some(&manager), injector: None, ..Default::default() },
            )
            .unwrap_err();
        assert!(matches!(err, ResumeError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every text-tower parameter with its `requires_grad` flag.
    fn text_flags(clip: &Clip) -> Vec<(String, bool)> {
        clip.text.named_params().into_iter().map(|(n, p)| (n, p.requires_grad_enabled())).collect()
    }

    /// The text-tower parameters `trainable` leaves out.
    fn frozen_text_params(clip: &Clip, trainable: &[Tensor]) -> Vec<(String, Tensor)> {
        let trained: HashSet<u64> = trainable.iter().map(Tensor::id).collect();
        clip.text.named_params().into_iter().filter(|(_, p)| !trained.contains(&p.id())).collect()
    }

    #[test]
    fn frozen_scope_restores_text_flags_on_success_and_on_error() {
        let dir = tmp_dir("frozen_flags");
        let manager = CheckpointManager::new(&dir).unwrap();
        let (clip, tokenizer, dataset, mut rng) = micro();
        // A mixed pattern, so restoring means "as before", not "all on".
        clip.text.named_params()[3].1.set_requires_grad(false);
        let before = text_flags(&clip);
        let m = CrossEm::new(&clip, &tokenizer, &dataset, config(PromptKind::Hard), &mut rng);
        m.train_with_options(
            &mut rng,
            TrainOptions { checkpoints: Some(&manager), ..Default::default() },
        )
        .unwrap();
        assert_eq!(text_flags(&clip), before, "flags after a completed run");

        let other = TrainConfig { lr: 1e-3, ..config(PromptKind::Hard) };
        let m = CrossEm::new(&clip, &tokenizer, &dataset, other, &mut rng);
        let err = m
            .train_with_options(
                &mut rng,
                TrainOptions { checkpoints: Some(&manager), ..Default::default() },
            )
            .unwrap_err();
        assert!(matches!(err, ResumeError::FingerprintMismatch { .. }), "{err}");
        assert_eq!(text_flags(&clip), before, "flags after the FingerprintMismatch return");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Checks, after every backward, that the frozen text parameters still
    /// hold the sentinel gradient planted before the run and do not track
    /// gradients, while the trained ones did receive gradients.
    struct FrozenGradWatch {
        frozen: Vec<(String, Tensor, Vec<f32>)>,
        batches: usize,
    }

    impl FaultInjector for FrozenGradWatch {
        fn after_backward(&mut self, _global_batch: usize, params: &[Tensor]) {
            for (name, p, sentinel) in &self.frozen {
                assert!(!p.requires_grad_enabled(), "{name} tracks gradients during the run");
                assert_eq!(p.grad().as_ref(), Some(sentinel), "{name}'s gradient changed");
            }
            assert!(
                params.iter().any(|p| p.grad().is_some()),
                "no trained parameter got a gradient"
            );
            self.batches += 1;
        }
    }

    #[test]
    fn frozen_text_params_get_no_gradient_during_a_run() {
        for kind in [PromptKind::Hard, PromptKind::Soft] {
            let (clip, tokenizer, dataset, mut rng) = micro();
            let m = CrossEm::new(&clip, &tokenizer, &dataset, config(kind), &mut rng);
            let frozen: Vec<(String, Tensor, Vec<f32>)> =
                frozen_text_params(&clip, &m.trainable_params())
                    .into_iter()
                    .map(|(name, p)| {
                        let sentinel: Vec<f32> =
                            (0..p.numel()).map(|i| i as f32 * 0.25 - 1.0).collect();
                        p.set_grad(&sentinel);
                        (name, p, sentinel)
                    })
                    .collect();
            assert!(frozen.iter().any(|(name, ..)| name.starts_with("transformer.")));
            let mut watch = FrozenGradWatch { frozen, batches: 0 };
            m.train_with_options(
                &mut rng,
                TrainOptions { injector: Some(&mut watch), ..Default::default() },
            )
            .unwrap();
            assert!(watch.batches > 0);
            for (name, p, sentinel) in &watch.frozen {
                assert!(p.requires_grad_enabled(), "{name} not restored");
                assert_eq!(p.grad().as_ref(), Some(sentinel), "{name}'s gradient changed");
            }
        }
    }

    #[test]
    fn full_scope_freezes_nothing_and_updates_the_transformer() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let cfg =
            TrainConfig { tune_scope: crate::config::TuneScope::Full, ..config(PromptKind::Hard) };
        let m = CrossEm::new(&clip, &tokenizer, &dataset, cfg, &mut rng);
        assert!(frozen_text_params(&clip, &m.trainable_params()).is_empty());
        let transformer: Vec<(String, Tensor, Vec<f32>)> = clip
            .text
            .named_params()
            .into_iter()
            .filter(|(name, _)| name.starts_with("transformer."))
            .map(|(name, p)| {
                let before = p.to_vec();
                (name, p, before)
            })
            .collect();
        m.train(&mut rng);
        for (name, p, _) in &transformer {
            assert!(p.requires_grad_enabled(), "{name} frozen under TuneScope::Full");
        }
        let moved = transformer.iter().filter(|(_, p, before)| p.to_vec() != *before).count();
        assert!(
            moved > transformer.len() / 2,
            "only {moved} of {} transformer tensors moved",
            transformer.len()
        );
    }
}
