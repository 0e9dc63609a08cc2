//! The CrossEM⁺ training loop: Algorithm 1 with PCP partitions, hard
//! negative sampling, and the orthogonal prompt constraint.

use std::rc::Rc;
use std::time::Instant;

use cem_clip::{Clip, Tokenizer};
use cem_data::EmDataset;
use cem_obs::{cem_debug, cem_info, Event};
use cem_tensor::memory;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::cache::FeatureCache;
use crate::checkpoint::{derive_seed, encode_train_state, plus_fingerprint, ResumeError};
use crate::config::{PlusConfig, TrainConfig};
use crate::guard::EpochAction;
use crate::metrics::Metrics;
use crate::plus::minibatch::{partition_by_proximity, random_partitions, Partition};
use crate::plus::negsample::negative_sampling;
use crate::trainer::{
    epoch_end_event, reset_identity, CrossEm, EpochStats, TrainEngine, TrainOptions, TrainReport,
};

/// RNG stream index reserved for partition preparation; epoch shuffles use
/// the epoch number, which never reaches `u64::MAX`.
const PREP_STREAM: u64 = u64::MAX;

/// Training outcome including the one-time preprocessing cost.
#[derive(Debug, Clone)]
pub struct PlusReport {
    pub train: TrainReport,
    /// Seconds spent in mini-batch generation + negative sampling.
    pub prep_seconds: f64,
    /// Candidate pairs per epoch after pruning (vs. `|V|·|I|` for plain
    /// CrossEM) — the quantity behind the paper's complexity claim.
    pub pairs_per_epoch: usize,
    pub partitions: usize,
}

/// CrossEM⁺: wraps the base matcher with the Sec. IV optimisations.
pub struct CrossEmPlus<'a> {
    base: CrossEm<'a>,
    plus: PlusConfig,
    /// Frozen-feature/proximity cache: partition preparation reads from it
    /// instead of re-encoding every vertex and patch on each call. Shareable
    /// across trainers over the same pre-trained model (see
    /// [`FeatureCache`]).
    cache: Rc<FeatureCache>,
}

impl<'a> CrossEmPlus<'a> {
    pub fn new<R: Rng>(
        clip: &'a Clip,
        tokenizer: &'a Tokenizer,
        dataset: &'a EmDataset,
        config: TrainConfig,
        plus: PlusConfig,
        rng: &mut R,
    ) -> Self {
        Self::with_feature_cache(
            clip,
            tokenizer,
            dataset,
            config,
            plus,
            Rc::new(FeatureCache::new()),
            rng,
        )
    }

    /// Like [`CrossEmPlus::new`] but reusing an external feature cache, so
    /// repeated runs (epoch restarts, ablation sweeps over the same frozen
    /// model) skip the phase-1 encoder passes entirely.
    pub fn with_feature_cache<R: Rng>(
        clip: &'a Clip,
        tokenizer: &'a Tokenizer,
        dataset: &'a EmDataset,
        config: TrainConfig,
        plus: PlusConfig,
        cache: Rc<FeatureCache>,
        rng: &mut R,
    ) -> Self {
        plus.validate();
        let mut base = CrossEm::new(clip, tokenizer, dataset, config, rng);
        base.orthogonal = plus.orthogonal_constraint;
        CrossEmPlus { base, plus, cache }
    }

    pub fn base(&self) -> &CrossEm<'a> {
        &self.base
    }

    pub fn plus_config(&self) -> &PlusConfig {
        &self.plus
    }

    /// The feature cache backing partition preparation.
    pub fn feature_cache(&self) -> &Rc<FeatureCache> {
        &self.cache
    }

    /// Build the training partitions according to the enabled
    /// optimisations. Returns the partitions and the proximity matrix (if
    /// it was needed).
    fn prepare_partitions<R: Rng>(&self, rng: &mut R) -> Vec<Partition> {
        let dataset = self.base.dataset();
        let needs_proximity = self.plus.minibatch_generation || self.plus.negative_sampling;
        let proximity = if needs_proximity {
            cem_obs::span!("prep.proximity");
            Some(self.cache.proximity(
                self.base.clip(),
                self.base.tokenizer(),
                dataset,
                self.base.config().hops,
            ))
        } else {
            None
        };

        let mut partitions = {
            cem_obs::span!("prep.partition");
            if self.plus.minibatch_generation {
                partition_by_proximity(proximity.as_ref().unwrap(), &self.plus, rng).partitions
            } else {
                random_partitions(dataset.entity_count(), dataset.image_count(), &self.plus, rng)
            }
        };

        if self.plus.negative_sampling {
            cem_obs::span!("prep.negsample");
            negative_sampling(
                &mut partitions,
                proximity.as_ref().unwrap(),
                self.base.config().batch_images,
                self.plus.negative_top_k,
                rng,
            );
        }
        partitions
    }

    /// Run the CrossEM⁺ training loop.
    pub fn train<R: Rng>(&self, rng: &mut R) -> PlusReport {
        self.train_with_options(rng, TrainOptions::default())
            .expect("training without checkpoints has no resume path to fail")
    }

    /// Algorithm 2/3 training with the resilience layer (see
    /// [`CrossEm::train_with_options`]). When checkpointing is on, both the
    /// one-time partition preparation and the per-epoch partition order are
    /// derived from the stored run seed, so a resumed run sees exactly the
    /// mini-batches the uninterrupted run would have.
    pub fn train_with_options<R: Rng>(
        &self,
        rng: &mut R,
        mut options: TrainOptions<'_>,
    ) -> Result<PlusReport, ResumeError> {
        let _threads = options.threads.map(cem_tensor::par::ThreadsGuard::new);
        let config = *self.base.config();
        let mut engine =
            TrainEngine::new(self.base.trainable_params(), &self.base.clip().text, &config);
        let fingerprint = plus_fingerprint(&config, &self.plus);
        let mut train = TrainReport::default();
        let mut start_epoch = 0usize;

        // Partition preparation computes proximity from the *pristine*
        // pre-trained weights, so it must run before the checkpoint's
        // trained parameters are applied — otherwise a resumed run would
        // build different partitions than the uninterrupted run did. Only
        // the run seed is read from the checkpoint up front.
        let loaded = match options.checkpoints {
            None => None,
            Some(manager) => manager.load()?,
        };
        let run_seed: Option<u64> = match (options.checkpoints, &loaded) {
            (None, _) => None,
            (Some(_), Some((dict, _source))) => Some(
                dict.meta("seed")
                    .ok_or_else(|| ResumeError::MissingEntry("seed".into()))?,
            ),
            (Some(_), None) => Some(rng.gen::<u64>()),
        };

        let prep_start = Instant::now();
        let partitions = match run_seed {
            None => self.prepare_partitions(rng),
            Some(seed) => {
                let mut prep_rng = StdRng::seed_from_u64(derive_seed(seed, PREP_STREAM));
                self.prepare_partitions(&mut prep_rng)
            }
        };
        let prep_seconds = prep_start.elapsed().as_secs_f64();

        if let Some((dict, _source)) = &loaded {
            let state = engine.resume_from(dict, fingerprint)?;
            start_epoch = state.epochs_done.min(config.epochs);
            train.resumed_from = Some(state.epochs_done);
            cem_info!("resuming CrossEM+ run at epoch {}", state.epochs_done);
        }
        let pairs_per_epoch: usize = partitions.iter().map(Partition::pair_count).sum();
        if let Some(session) = options.obs {
            session.emit(
                Event::new("prep_end")
                    .field("seconds", prep_seconds)
                    .field("partitions", partitions.len() as f64)
                    .field("pairs_per_epoch", pairs_per_epoch as f64),
            );
        }
        cem_info!(
            "CrossEM+ prep: {} partitions, {} pairs/epoch ({:.2}s)",
            partitions.len(),
            pairs_per_epoch,
            prep_seconds
        );

        let mut order: Vec<usize> = (0..partitions.len()).collect();

        'epochs: for epoch in start_epoch..config.epochs {
            memory::reset_peak();
            let start = Instant::now();
            match run_seed {
                // Legacy stream: cumulative shuffles (shuffling the index
                // vector draws the same random numbers as shuffling the
                // partitions themselves used to).
                None => order.shuffle(rng),
                // Resumable stream: order depends only on (run_seed, epoch).
                Some(seed) => {
                    let mut epoch_rng = StdRng::seed_from_u64(derive_seed(seed, epoch as u64));
                    reset_identity(&mut order);
                    order.shuffle(&mut epoch_rng);
                }
            }
            if let Some(session) = options.obs {
                session.emit(Event::new("epoch_start").field("epoch", epoch as f64));
            }
            engine.begin_epoch();
            let mut loss_sum = 0.0f32;
            let mut batches = 0usize;
            let mut batch_idx = 0usize;
            'batches: for &pi in &order {
                let partition = &partitions[pi];
                for vertex_chunk in partition.vertices.chunks(config.batch_vertices) {
                    for image_chunk in partition.images.chunks(config.batch_images) {
                        if image_chunk.len() < 2 {
                            continue;
                        }
                        let loss = self.base.batch_loss(vertex_chunk, image_chunk);
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
            train.epochs.push(stats);
            if engine.diverged() {
                train.diverged = true;
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

        Ok(PlusReport { train, prep_seconds, pairs_per_epoch, partitions: partitions.len() })
    }

    /// Evaluate with the tuned prompts (same protocol as CrossEM).
    pub fn evaluate(&self) -> Metrics {
        self.base.evaluate()
    }

    /// Full matching-probability matrix (Eq. 4).
    pub fn matching_matrix(&self) -> cem_tensor::Tensor {
        self.base.matching_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PromptKind;
    use cem_clip::ClipConfig;
    use cem_data::AttributePool;
    use cem_graph::Graph;
    use cem_nn::Module;
    use cem_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn micro() -> (Clip, Tokenizer, EmDataset, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut graph = Graph::new();
        let mut entities = Vec::new();
        let mut classes = Vec::new();
        for (name, attr) in
            [("white bird", "white"), ("black bird", "black"), ("grey bird", "grey")]
        {
            let v = graph.add_vertex(name);
            let a = graph.add_vertex(attr);
            graph.add_edge(v, a, "has color");
            entities.push(v);
            classes.push(cem_data::ClassSpec {
                name: name.into(),
                signature: vec![("color".into(), attr.into())],
                name_reveals: 1,
            });
        }
        let tokenizer =
            Tokenizer::build(["a photo of white black grey bird has color in and"]);
        let mk_img = |seed: f32| {
            cem_clip::Image::from_patches(vec![vec![seed; 6], vec![-seed * 0.3; 6]])
        };
        let images: Vec<cem_clip::Image> =
            (0..9).map(|i| mk_img((i as f32 - 4.0) * 0.5)).collect();
        let image_gold = (0..9).map(|i| i % 3).collect();
        let dataset = EmDataset {
            name: "micro+".into(),
            graph,
            entities,
            classes,
            images,
            image_gold,
            pool: AttributePool::synthesize(2, 2),
        };
        dataset.validate();
        let clip = Clip::new(ClipConfig::tiny(tokenizer.vocab_size(), 6), &mut rng);
        (clip, tokenizer, dataset, rng)
    }

    fn train_config() -> TrainConfig {
        TrainConfig {
            prompt: PromptKind::Soft,
            epochs: 1,
            batch_vertices: 2,
            batch_images: 4,
            ..TrainConfig::default()
        }
    }

    fn plus_config() -> PlusConfig {
        PlusConfig {
            vertex_subsets: 2,
            image_clusters: 2,
            prune_quantile: 0.2,
            negative_top_k: 3,
            ..PlusConfig::default()
        }
    }

    #[test]
    fn full_plus_pipeline_runs() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let plus =
            CrossEmPlus::new(&clip, &tokenizer, &dataset, train_config(), plus_config(), &mut rng);
        let report = plus.train(&mut rng);
        assert_eq!(report.train.epochs.len(), 1);
        assert!(report.partitions > 0);
        assert!(report.pairs_per_epoch > 0);
        assert!(report.prep_seconds >= 0.0);
        let metrics = plus.evaluate();
        assert_eq!(metrics.queries, 3);
    }

    #[test]
    fn mbg_prunes_candidate_pairs() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let with_mbg =
            CrossEmPlus::new(&clip, &tokenizer, &dataset, train_config(), plus_config(), &mut rng);
        let report_mbg = with_mbg.train(&mut rng);

        let without = CrossEmPlus::new(
            &clip,
            &tokenizer,
            &dataset,
            train_config(),
            plus_config().without_mbg().without_ns(),
            &mut rng,
        );
        let report_rand = without.train(&mut rng);
        // Random partitioning covers every pair; MBG must not exceed it
        // (NS padding can add a few back, hence <=).
        assert!(report_mbg.pairs_per_epoch <= report_rand.pairs_per_epoch + 9);
        assert_eq!(report_rand.pairs_per_epoch, 3 * 9);
    }

    #[test]
    fn ablations_all_run() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        for plus in [
            plus_config().without_mbg(),
            plus_config().without_ns(),
            plus_config().without_opc(),
        ] {
            let trainer =
                CrossEmPlus::new(&clip, &tokenizer, &dataset, train_config(), plus, &mut rng);
            let report = trainer.train(&mut rng);
            assert!(report.train.final_loss().expect("epochs ran").is_finite());
        }
    }

    #[test]
    fn frozen_scope_restores_text_flags_on_success_and_on_error() {
        let flags = |clip: &Clip| -> Vec<bool> {
            clip.text.params().iter().map(Tensor::requires_grad_enabled).collect()
        };
        let dir =
            std::env::temp_dir().join(format!("cem_plus_frozen_flags_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let manager = crate::CheckpointManager::new(&dir).unwrap();
        let (clip, tokenizer, dataset, mut rng) = micro();
        clip.text.params()[2].set_requires_grad(false);
        let before = flags(&clip);
        let trainer =
            CrossEmPlus::new(&clip, &tokenizer, &dataset, train_config(), plus_config(), &mut rng);
        let options = || TrainOptions { checkpoints: Some(&manager), ..Default::default() };
        trainer.train_with_options(&mut rng, options()).unwrap();
        assert_eq!(flags(&clip), before, "flags after a completed run");

        let other = TrainConfig { lr: 1e-3, ..train_config() };
        let trainer = CrossEmPlus::new(&clip, &tokenizer, &dataset, other, plus_config(), &mut rng);
        let err = trainer.train_with_options(&mut rng, options()).unwrap_err();
        assert!(matches!(err, ResumeError::FingerprintMismatch { .. }), "{err}");
        assert_eq!(flags(&clip), before, "flags after the FingerprintMismatch return");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn opc_flag_propagates_to_base() {
        let (clip, tokenizer, dataset, mut rng) = micro();
        let with = CrossEmPlus::new(&clip, &tokenizer, &dataset, train_config(), plus_config(), &mut rng);
        assert!(with.base().orthogonal);
        let without = CrossEmPlus::new(
            &clip,
            &tokenizer,
            &dataset,
            train_config(),
            plus_config().without_opc(),
            &mut rng,
        );
        assert!(!without.base().orthogonal);
    }
}
