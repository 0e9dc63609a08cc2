//! Frozen-feature cache for the CrossEM⁺ preprocessing pipeline.
//!
//! PCP's proximity matrix (Alg. 2 phases 1–2) is computed from the *frozen*
//! towers: label features come from the pristine pre-trained text encoder
//! (proximity is built before tuning touches it) and patch features from
//! the image tower, which stays frozen for the whole run. Nothing about
//! them changes across epochs, partitioning calls, or even across trainers
//! sharing the same pre-trained model — yet the seed implementation
//! re-encoded every vertex and every patch on each `prepare_partitions`
//! call.
//!
//! [`FeatureCache`] memoises both stages:
//!
//! * phase-1 [`FrozenFeatures`] keyed by a fingerprint of the (model,
//!   dataset) pair, and
//! * the derived [`ProximityMatrix`] keyed by (fingerprint, hops).
//!
//! The fingerprint is a CRC-64-style hash (two CRC-32 lanes over the same
//! stream) covering the dataset identity (name, counts, labels, patch
//! bytes) *and* the current bytes of every encoder parameter — so a cache
//! shared across trainers returns stale features only if the weights are
//! truly unchanged, and tuning the text tower mid-run yields a different
//! key rather than a wrong hit.
//!
//! Caching is behavioural lock-step with the seed path: the cached value is
//! the exact output of [`frozen_features`]/[`proximity_from_features`], so
//! training results are bit-identical with or without the cache.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use cem_clip::{Clip, Tokenizer};
use cem_data::EmDataset;
use cem_nn::Module;
use cem_tensor::crc::Hasher;

use crate::plus::minibatch::{
    frozen_features, proximity_from_features, FrozenFeatures, ProximityMatrix,
};

/// Memoises frozen property features and proximity matrices per (model,
/// dataset) pair. Single-threaded interior mutability (`RefCell`) — the
/// trainers drive it from the main thread; parallelism lives inside the
/// kernels the cached computation calls.
#[derive(Default)]
pub struct FeatureCache {
    features: RefCell<HashMap<u64, Rc<FrozenFeatures>>>,
    proximity: RefCell<HashMap<(u64, usize), Rc<ProximityMatrix>>>,
    hits: Cell<usize>,
    misses: Cell<usize>,
}

impl FeatureCache {
    pub fn new() -> Self {
        FeatureCache::default()
    }

    /// Phase-1 features, computed at most once per fingerprint.
    pub fn features(
        &self,
        clip: &Clip,
        tokenizer: &Tokenizer,
        dataset: &EmDataset,
    ) -> Rc<FrozenFeatures> {
        let key = fingerprint(clip, dataset);
        if let Some(found) = self.features.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            record_lookup("features", "hit");
            return Rc::clone(found);
        }
        self.misses.set(self.misses.get() + 1);
        record_lookup("features", "miss");
        let computed = Rc::new(frozen_features(clip, tokenizer, dataset));
        self.features.borrow_mut().insert(key, Rc::clone(&computed));
        computed
    }

    /// Pairwise proximity (Alg. 2 phases 1–2), computed at most once per
    /// (fingerprint, hops).
    pub fn proximity(
        &self,
        clip: &Clip,
        tokenizer: &Tokenizer,
        dataset: &EmDataset,
        hops: usize,
    ) -> Rc<ProximityMatrix> {
        let key = (fingerprint(clip, dataset), hops);
        if let Some(found) = self.proximity.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            record_lookup("proximity", "hit");
            return Rc::clone(found);
        }
        self.misses.set(self.misses.get() + 1);
        record_lookup("proximity", "miss");
        let features = self.features(clip, tokenizer, dataset);
        let computed = Rc::new(proximity_from_features(&features, dataset, hops));
        self.proximity.borrow_mut().insert(key, Rc::clone(&computed));
        computed
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.get()
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> usize {
        self.misses.get()
    }

    /// Drop every cached entry (counters are kept).
    pub fn clear(&self) {
        let evicted =
            self.features.borrow().len() as u64 + self.proximity.borrow().len() as u64;
        cem_obs::counter_add!("cache.evict", evicted);
        cem_obs::emit(|| {
            cem_obs::Event::new("cache")
                .field("stage", "all")
                .field("outcome", "evict")
                .field("entries", evicted as f64)
        });
        self.features.borrow_mut().clear();
        self.proximity.borrow_mut().clear();
    }
}

/// Publish one cache lookup into the registry + event stream. The counter
/// names are `cache.features.hit`, `cache.features.miss`,
/// `cache.proximity.hit`, `cache.proximity.miss`.
fn record_lookup(stage: &'static str, outcome: &'static str) {
    if !cem_obs::enabled() {
        return;
    }
    match (stage, outcome) {
        ("features", "hit") => cem_obs::counter_add!("cache.features.hit", 1),
        ("features", "miss") => cem_obs::counter_add!("cache.features.miss", 1),
        ("proximity", "hit") => cem_obs::counter_add!("cache.proximity.hit", 1),
        _ => cem_obs::counter_add!("cache.proximity.miss", 1),
    }
    cem_obs::emit(|| {
        cem_obs::Event::new("cache").field("stage", stage).field("outcome", outcome)
    });
}

/// Hash the (model, dataset) identity the frozen features depend on.
fn fingerprint(clip: &Clip, dataset: &EmDataset) -> u64 {
    let mut lo = Hasher::new();
    let mut hi = Hasher::new();
    // The hi lane hashes every fed item byte-reversed (an f32 value
    // big-endian), so the two lanes see different streams. One scratch
    // buffer holds the reversed bytes for every feed.
    let mut reversed = Vec::new();
    let mut feed = |bytes: &[u8]| {
        lo.update(bytes);
        reversed.clear();
        reversed.extend(bytes.iter().rev());
        hi.update(&reversed);
    };

    feed(dataset.name.as_bytes());
    feed(&(dataset.entity_count() as u64).to_le_bytes());
    feed(&(dataset.image_count() as u64).to_le_bytes());
    for v in dataset.graph.vertices() {
        feed(dataset.graph.vertex_label(v).as_bytes());
    }
    // Values are fed a slice at a time: the same byte streams as feeding
    // each value on its own.
    let mut feed_values = |values: &[f32]| {
        lo.update_f32s(values);
        reversed.clear();
        reversed.extend(values.iter().flat_map(|v| v.to_be_bytes()));
        hi.update(&reversed);
    };
    for image in &dataset.images {
        for p in 0..image.n_patches() {
            feed_values(image.patch(p));
        }
    }
    // Encoder weights: frozen features depend on the *current* parameter
    // values, so mutated weights miss rather than alias a stale entry.
    for params in [clip.text.params(), clip.image.params()] {
        for p in params {
            feed_values(&p.to_vec());
        }
    }
    ((hi.finalize() as u64) << 32) | lo.finalize() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cem_clip::ClipConfig;
    use cem_data::{generate, DatasetKind, DatasetScale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (Clip, Tokenizer, EmDataset) {
        let mut rng = StdRng::seed_from_u64(7);
        let (_, dataset) = generate(
            DatasetKind::Cub,
            DatasetScale { classes: 3, images_per_class: 2 },
            &mut rng,
        );
        let mut texts: Vec<String> = dataset
            .graph
            .vertices()
            .map(|v| dataset.graph.vertex_label(v).to_string())
            .collect();
        texts.push("a photo of with and in has".into());
        let tokenizer = Tokenizer::build(texts.iter().map(String::as_str));
        let clip = Clip::new(ClipConfig::tiny(tokenizer.vocab_size(), 16), &mut rng);
        (clip, tokenizer, dataset)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_matrix() {
        let (clip, tokenizer, dataset) = world();
        let cache = FeatureCache::new();
        let first = cache.proximity(&clip, &tokenizer, &dataset, 1);
        // proximity() computes features too: two misses, no hits yet.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        let second = cache.proximity(&clip, &tokenizer, &dataset, 1);
        assert_eq!(cache.hits(), 1);
        assert!(Rc::ptr_eq(&first, &second), "cache must share, not recompute");
    }

    #[test]
    fn cached_proximity_matches_direct_computation() {
        let (clip, tokenizer, dataset) = world();
        let cache = FeatureCache::new();
        let cached = cache.proximity(&clip, &tokenizer, &dataset, 1);
        let direct = crate::plus::minibatch::pairwise_proximity(&clip, &tokenizer, &dataset, 1);
        assert_eq!(*cached, direct, "cache changed the computed proximity");
    }

    #[test]
    fn hop_count_is_part_of_the_key() {
        let (clip, tokenizer, dataset) = world();
        let cache = FeatureCache::new();
        let one = cache.proximity(&clip, &tokenizer, &dataset, 1);
        let two = cache.proximity(&clip, &tokenizer, &dataset, 2);
        assert!(!Rc::ptr_eq(&one, &two));
        // Features are shared across hop counts: 3 misses total
        // (features, proximity@1, proximity@2), 1 feature hit.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn weight_changes_invalidate_the_key() {
        let (clip, tokenizer, dataset) = world();
        let cache = FeatureCache::new();
        cache.proximity(&clip, &tokenizer, &dataset, 1);
        // Nudge one text-tower weight: the next lookup must miss.
        let params = clip.text.params();
        let mut values = params[0].to_vec();
        values[0] += 1.0;
        params[0].copy_from_slice(&values);
        cache.proximity(&clip, &tokenizer, &dataset, 1);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4, "expected feature+proximity misses for both keys");
    }

    /// Pinned at the value the per-feed-allocating hash produced, so the
    /// scratch-buffer rewrite keeps every existing cache key.
    #[test]
    fn fingerprint_is_pinned() {
        let (clip, _, dataset) = world();
        assert_eq!(fingerprint(&clip, &dataset), 0xD840_9C7E_EE62_E671);
    }

    #[test]
    fn clear_forces_recompute() {
        let (clip, tokenizer, dataset) = world();
        let cache = FeatureCache::new();
        cache.proximity(&clip, &tokenizer, &dataset, 1);
        cache.clear();
        cache.proximity(&clip, &tokenizer, &dataset, 1);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
    }
}
