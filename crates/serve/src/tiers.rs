//! The graceful-degradation ladder and the precomputed score index behind
//! it.
//!
//! Each tier is one way to score an entity against the image repository,
//! ordered richest-first:
//!
//! 1. [`Tier::Full`] — the tuned CrossEM⁺ soft-prompt matching matrix;
//! 2. [`Tier::Cached`] — frozen-feature proximity from
//!    [`crossem::FeatureCache`] (PCP Alg. 2 phases 1–2, pristine towers);
//! 3. [`Tier::Hard`] — hard-encoding prompt scores (Eq. 5 / Example 2);
//! 4. [`Tier::Zero`] — the Eq. 4 zero-shot floor, `"a photo of {label}"`.
//!
//! [`ServeIndex`] holds one flat `[entities × images]` `f32` matrix per
//! tier plus a CRC-32 per row. Flat vectors — not [`cem_tensor::Tensor`],
//! which is `Rc<RefCell<…>>` and not `Send` — so worker threads can score
//! against shared borrows, and per-row checksums let the cached tier detect
//! storage corruption before it serves garbage.

use cem_clip::{Clip, Image, Tokenizer};
use cem_data::EmDataset;
use cem_tensor::crc::Hasher;
use cem_tensor::{no_grad, Tensor};
use crossem::prompt::{baseline_prompt, hard_prompt, HardPromptOptions};
use crossem::FeatureCache;

use crate::breaker::Component;

/// One rung of the degradation ladder, richest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Tuned CrossEM⁺ soft-prompt matching.
    Full,
    /// Frozen-feature proximity served from the feature cache.
    Cached,
    /// Hard-encoding prompt scores.
    Hard,
    /// Zero-shot baseline (Eq. 4) — the infallible floor.
    Zero,
}

impl Tier {
    pub const COUNT: usize = 4;
    /// Degradation order: a request walks this list front to back.
    pub const ALL: [Tier; Tier::COUNT] = [Tier::Full, Tier::Cached, Tier::Hard, Tier::Zero];

    pub fn index(self) -> usize {
        match self {
            Tier::Full => 0,
            Tier::Cached => 1,
            Tier::Hard => 2,
            Tier::Zero => 3,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Cached => "cached",
            Tier::Hard => "hard",
            Tier::Zero => "zero",
        }
    }

    /// The breaker-guarded component this tier depends on. `None` for the
    /// zero-shot floor: it must stay reachable no matter what is tripped.
    pub fn component(self) -> Option<Component> {
        match self {
            Tier::Full => Some(Component::SoftEncoder),
            Tier::Cached => Some(Component::FeatureCache),
            Tier::Hard => Some(Component::Prep),
            Tier::Zero => None,
        }
    }
}

/// Precomputed per-tier score matrices with per-row checksums. Built once
/// on the main thread (tier construction runs the non-`Send` model); served
/// read-only from worker threads.
pub struct ServeIndex {
    entities: usize,
    images: usize,
    data: [Vec<f32>; Tier::COUNT],
    row_crc: [Vec<u32>; Tier::COUNT],
}

impl ServeIndex {
    /// Assemble the index from one `[entities × images]` row-major matrix
    /// per tier (ladder order: full, cached, hard, zero).
    pub fn new(entities: usize, images: usize, matrices: [Vec<f32>; Tier::COUNT]) -> Self {
        assert!(entities > 0 && images > 0, "ServeIndex: empty catalogue");
        for (tier, matrix) in Tier::ALL.iter().zip(&matrices) {
            assert_eq!(
                matrix.len(),
                entities * images,
                "ServeIndex: {} tier matrix shape mismatch",
                tier.label()
            );
        }
        let row_crc = std::array::from_fn(|t| {
            matrices[t].chunks_exact(images).map(row_checksum).collect()
        });
        ServeIndex { entities, images, data: matrices, row_crc }
    }

    pub fn entities(&self) -> usize {
        self.entities
    }

    pub fn images(&self) -> usize {
        self.images
    }

    /// The score row for `entity` at `tier`.
    pub fn row(&self, tier: Tier, entity: usize) -> &[f32] {
        let start = entity * self.images;
        &self.data[tier.index()][start..start + self.images]
    }

    /// The checksum recorded for `entity`'s row at `tier` when the index
    /// was built.
    pub fn row_crc(&self, tier: Tier, entity: usize) -> u32 {
        self.row_crc[tier.index()][entity]
    }

    /// Whether `row` still matches the checksum recorded at build time.
    pub fn verify_row(&self, tier: Tier, entity: usize, row: &[f32]) -> bool {
        row_checksum(row) == self.row_crc(tier, entity)
    }

    /// The full `[entities × images]` matrix of one tier as a tensor
    /// (reporting/accuracy paths; the hot path reads [`ServeIndex::row`]).
    pub fn tier_matrix(&self, tier: Tier) -> Tensor {
        Tensor::from_vec(self.data[tier.index()].clone(), &[self.entities, self.images])
    }

    /// The raw row-major matrix of one tier (generation serialisation).
    pub fn tier_rows(&self, tier: Tier) -> &[f32] {
        &self.data[tier.index()]
    }
}

/// CRC-32 over a score row's little-endian f32 bytes.
pub fn row_checksum(row: &[f32]) -> u32 {
    let mut hasher = Hasher::new();
    hasher.update_f32s(row);
    hasher.finalize()
}

/// Score every entity prompt against every image with the frozen dual
/// encoder, returning the row-major `[entities × images]` matrix.
fn prompt_scores(clip: &Clip, tokenizer: &Tokenizer, dataset: &EmDataset, prompts: &[String]) -> Vec<f32> {
    no_grad(|| {
        let encoded: Vec<Vec<usize>> =
            prompts.iter().map(|p| tokenizer.encode(p, 77).0).collect();
        let text = clip.encode_texts(&encoded);
        let refs: Vec<&Image> = dataset.images.iter().collect();
        let mut parts = Vec::new();
        for chunk in refs.chunks(64) {
            parts.push(clip.encode_images(chunk));
        }
        let images = Tensor::concat_rows(&parts);
        clip.similarity_logits(&text, &images).to_vec()
    })
}

/// [`Tier::Zero`] scores: the Eq. 4 `"a photo of {label}"` baseline,
/// identical to the `cem-baselines` CLIP row by construction.
pub fn zero_shot_scores(clip: &Clip, tokenizer: &Tokenizer, dataset: &EmDataset) -> Vec<f32> {
    let prompts: Vec<String> = (0..dataset.entity_count())
        .map(|e| baseline_prompt(dataset.entity_label(e), true))
        .collect();
    prompt_scores(clip, tokenizer, dataset, &prompts)
}

/// [`Tier::Hard`] scores: each entity queried with its hard-encoding
/// prompt `f_pro^h(v)` over the d-hop neighbourhood.
pub fn hard_prompt_scores(
    clip: &Clip,
    tokenizer: &Tokenizer,
    dataset: &EmDataset,
    options: &HardPromptOptions,
) -> Vec<f32> {
    let prompts: Vec<String> = dataset
        .entities
        .iter()
        .map(|&v| hard_prompt(&dataset.graph, v, options))
        .collect();
    prompt_scores(clip, tokenizer, dataset, &prompts)
}

/// [`Tier::Cached`] scores: the frozen-feature proximity matrix out of the
/// feature cache. Compute this with the *pristine* pre-trained model
/// (before tuning mutates the text tower) so the cache fingerprint matches
/// the entries the CrossEM⁺ preprocessing already populated.
pub fn cached_proximity_scores(
    cache: &FeatureCache,
    clip: &Clip,
    tokenizer: &Tokenizer,
    dataset: &EmDataset,
    hops: usize,
) -> Vec<f32> {
    cache.proximity(clip, tokenizer, dataset, hops).data().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_index() -> ServeIndex {
        let m = |b: f32| (0..6).map(|i| b + i as f32).collect::<Vec<f32>>();
        ServeIndex::new(2, 3, [m(0.0), m(10.0), m(20.0), m(30.0)])
    }

    #[test]
    fn ladder_order_and_components() {
        assert_eq!(Tier::ALL[0], Tier::Full);
        assert_eq!(Tier::ALL[3], Tier::Zero);
        assert_eq!(Tier::Zero.component(), None, "the floor must be breaker-free");
        for tier in Tier::ALL {
            assert_eq!(Tier::ALL[tier.index()], tier);
        }
    }

    #[test]
    fn rows_slice_the_right_tier() {
        let index = tiny_index();
        assert_eq!(index.row(Tier::Full, 1), &[3.0, 4.0, 5.0]);
        assert_eq!(index.row(Tier::Zero, 0), &[30.0, 31.0, 32.0]);
    }

    #[test]
    fn checksums_catch_corruption() {
        let index = tiny_index();
        let clean = index.row(Tier::Cached, 0).to_vec();
        assert!(index.verify_row(Tier::Cached, 0, &clean));
        let mut corrupt = clean;
        let bits = corrupt[1].to_bits() ^ 0x0040_0000;
        corrupt[1] = f32::from_bits(bits);
        assert!(!index.verify_row(Tier::Cached, 0, &corrupt));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_is_rejected() {
        let m = vec![0.0f32; 6];
        ServeIndex::new(2, 3, [m.clone(), m.clone(), m, vec![0.0; 5]]);
    }
}
