//! Matching probabilities (Eq. 4), image ranking, and matching-set
//! extraction (Def. 2's set `S`).
//!
//! # Ranking kernel
//!
//! Every ranking in the workspace — a dense score row ([`rank_row`]), the
//! candidates of a probed shard wave, the centroids a probe keeps — uses
//! one order: score descending under [`score_cmp`] (NaN last), then id
//! ascending. That order has one integer form. `score_key` maps a score
//! to an order-preserving `u32` (every NaN to 0, every other score through
//! the `total_cmp` bit trick), and [`rank_key`] packs a candidate into one
//! `u64`: the score key in the high half, the inverted id in the low half.
//! A larger key ranks first, and equal scores rank the lower id first.
//! [`select_top`] ranks a buffer of keys with `select_nth_unstable` and a
//! sort of the `keep` survivors. Ids are unique, so no two keys are equal
//! and the unstable algorithms give one answer for any input, poisoned or
//! not.

use std::cmp::Ordering;

use cem_tensor::Tensor;

/// Deterministic total order over scores: every NaN sinks below every
/// finite (and infinite) score, and finite scores compare by
/// [`f32::total_cmp`]. Ranking a poisoned score matrix therefore never
/// promotes a NaN entry and never depends on comparator call order the way
/// `partial_cmp(..).unwrap_or(Equal)` did.
pub fn score_cmp(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// The order of [`score_cmp`] as a `u32`:
/// `score_cmp(a, b) == score_key(a).cmp(&score_key(b))`. Every NaN maps to
/// 0. Any other score keeps its bits with the sign bit set when it is
/// positive and has all bits flipped when it is negative, so −0.0 ranks
/// below +0.0 and no non-NaN score maps to 0.
#[inline]
fn score_key(score: f32) -> u32 {
    let bits = score.to_bits();
    let key = bits ^ ((((bits as i32) >> 31) as u32) | (1 << 31));
    if score.is_nan() {
        0
    } else {
        key
    }
}

/// One candidate's ranking key: `score_key` in the high half and the
/// inverted `id` in the low half, so a larger key ranks first and equal
/// scores rank the lower id first. Ids must fit in a `u32`.
#[inline]
pub fn rank_key(score: f32, id: usize) -> u64 {
    debug_assert!(u32::try_from(id).is_ok(), "rank_key: id {id} does not fit in u32");
    (u64::from(score_key(score)) << 32) | u64::from(!(id as u32))
}

/// The id a [`rank_key`] carries.
#[inline]
pub fn key_id(key: u64) -> usize {
    !(key as u32) as usize
}

/// Whether the score a [`rank_key`] was made from is finite.
pub fn key_is_finite(key: u64) -> bool {
    let score = (key >> 32) as u32;
    score > score_key(f32::NEG_INFINITY) && score < score_key(f32::INFINITY)
}

/// Rank [`rank_key`]s best first, truncated to `top_k` (0 = keep all):
/// moves the best `keep` keys to the front of `keys` in ranking order and
/// returns them. One partition pass finds the survivors; only they are
/// sorted.
pub fn select_top(keys: &mut [u64], top_k: usize) -> &[u64] {
    let keep = if top_k == 0 { keys.len() } else { top_k.min(keys.len()) };
    let best_first = |a: &u64, b: &u64| b.cmp(a);
    if keep < keys.len() {
        keys.select_nth_unstable_by(keep - 1, best_first);
    }
    let top = &mut keys[..keep];
    top.sort_unstable_by(best_first);
    top
}

/// Rank the image indices of one score row, best first, truncated to
/// `top_k` (0 = keep all). NaN scores sort last; ties keep index order, so
/// the ranking is a deterministic permutation prefix for *any* input,
/// poisoned or not. The result is allocated at exactly its length.
pub fn rank_row(row: &[f32], top_k: usize) -> Vec<usize> {
    assert!(row.len() as u64 <= 1 << 32, "rank_row: a row holds at most 2^32 images");
    let mut keys: Vec<u64> = row.iter().enumerate().map(|(i, &s)| rank_key(s, i)).collect();
    select_top(&mut keys, top_k).iter().map(|&key| key_id(key)).collect()
}

/// Rank image indices for every query row of a score matrix `[N, M]`,
/// best first, truncated to `top_k` (0 = keep all).
pub fn rank_images(scores: &Tensor, top_k: usize) -> Vec<Vec<usize>> {
    let (n, m) = scores.shape().as_matrix();
    let data = scores.data();
    (0..n).map(|r| rank_row(&data[r * m..(r + 1) * m], top_k)).collect()
}

/// The extracted matching set `S = {(x_i, x_j)}` with scores.
#[derive(Debug, Clone)]
pub struct MatchingSet {
    /// `(entity index, image index, matching probability)`.
    pub pairs: Vec<(usize, usize, f32)>,
}

impl MatchingSet {
    /// Take the top-1 image per entity from a matching-probability matrix
    /// (Eq. 4 output) — the "matching pair" decision of Def. 1.
    pub fn top1(probabilities: &Tensor) -> MatchingSet {
        let (n, m) = probabilities.shape().as_matrix();
        let data = probabilities.data();
        let pairs = (0..n)
            .map(|r| {
                let row = &data[r * m..(r + 1) * m];
                let mut best = 0usize;
                for (j, v) in row.iter().enumerate() {
                    if score_cmp(*v, row[best]) == Ordering::Greater {
                        best = j;
                    }
                }
                (r, best, row[best])
            })
            .collect();
        MatchingSet { pairs }
    }

    /// Keep all pairs whose matching probability exceeds `threshold`.
    pub fn thresholded(probabilities: &Tensor, threshold: f32) -> MatchingSet {
        let (n, m) = probabilities.shape().as_matrix();
        let data = probabilities.data();
        let mut pairs = Vec::new();
        for r in 0..n {
            for j in 0..m {
                let p = data[r * m + j];
                // NaN never clears a threshold under the total order.
                if score_cmp(p, threshold) == Ordering::Greater {
                    pairs.push((r, j, p));
                }
            }
        }
        MatchingSet { pairs }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Precision against a gold predicate.
    pub fn precision(&self, mut is_gold: impl FnMut(usize, usize) -> bool) -> f32 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let correct = self.pairs.iter().filter(|&&(e, i, _)| is_gold(e, i)).count();
        correct as f32 / self.pairs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scores() -> Tensor {
        Tensor::from_vec(vec![0.1, 0.7, 0.2, 0.5, 0.3, 0.2], &[2, 3])
    }

    #[test]
    fn ranking_orders_descending() {
        let r = rank_images(&scores(), 0);
        assert_eq!(r[0], vec![1, 2, 0]);
        assert_eq!(r[1], vec![0, 1, 2]);
    }

    #[test]
    fn ranking_truncates() {
        let r = rank_images(&scores(), 2);
        assert_eq!(r[0], vec![1, 2]);
    }

    #[test]
    fn top1_picks_row_max() {
        let s = MatchingSet::top1(&scores());
        assert_eq!(s.pairs[0].0, 0);
        assert_eq!(s.pairs[0].1, 1);
        assert_eq!(s.pairs[1].1, 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn threshold_filters_pairs() {
        let s = MatchingSet::thresholded(&scores(), 0.45);
        assert_eq!(s.len(), 2); // 0.7 and 0.5
        assert!(s.pairs.iter().all(|&(_, _, p)| p > 0.45));
    }

    #[test]
    fn score_cmp_is_a_total_order_with_nan_at_the_bottom() {
        assert_eq!(score_cmp(f32::NAN, f32::NAN), Ordering::Equal);
        assert_eq!(score_cmp(f32::NAN, f32::NEG_INFINITY), Ordering::Less);
        assert_eq!(score_cmp(f32::INFINITY, f32::NAN), Ordering::Greater);
        assert_eq!(score_cmp(-0.0, 0.0), Ordering::Less, "total_cmp separates signed zero");
        assert_eq!(score_cmp(0.3, 0.7), Ordering::Less);
    }

    #[test]
    fn nan_poisoned_rows_rank_deterministically() {
        // Row 0: NaN in the middle must sink below every finite score.
        // Row 1: all-NaN must still yield a full, stable permutation.
        let poisoned = Tensor::from_vec(
            vec![0.1, f32::NAN, 0.2, f32::NAN, f32::NAN, f32::NAN],
            &[2, 3],
        );
        let r = rank_images(&poisoned, 0);
        assert_eq!(r[0], vec![2, 0, 1]);
        assert_eq!(r[1], vec![0, 1, 2]);

        let s = MatchingSet::top1(&poisoned);
        assert_eq!(s.pairs[0].1, 2, "top1 must never pick a NaN over a finite score");
        assert_eq!(s.pairs[1].1, 0, "all-NaN row falls back to the first index");

        let t = MatchingSet::thresholded(&poisoned, 0.0);
        assert_eq!(t.len(), 2, "NaN never clears a threshold");
    }

    #[test]
    fn rank_row_matches_rank_images_and_truncates() {
        let row = [0.5, f32::NAN, 0.9, 0.5];
        assert_eq!(rank_row(&row, 0), vec![2, 0, 3, 1]);
        assert_eq!(rank_row(&row, 2), vec![2, 0]);
    }

    /// The independent oracle: every index, stable-sorted by [`score_cmp`]
    /// descending, so equal scores keep ascending index order.
    fn reference(row: &[f32]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| score_cmp(row[b], row[a]));
        idx
    }

    /// NaN payloads of both signs, both zeros, both infinities, a
    /// subnormal and a few ordinary scores: the values a poisoned or tied
    /// row is made of.
    const PALETTE: [f32; 12] = [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001),
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        0.5,
        -0.5,
        1.0,
        f32::MAX,
    ];

    /// A row of palette entries (many duplicates) and arbitrary bit
    /// patterns.
    fn row_of(picks: &[(usize, u32)]) -> Vec<f32> {
        picks
            .iter()
            .map(|&(i, bits)| PALETTE.get(i).copied().unwrap_or(f32::from_bits(bits)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn rank_row_is_the_reference_prefix_for_every_k(
            picks in prop::collection::vec((0usize..16, 0u32..=u32::MAX), 0..48),
        ) {
            let row = row_of(&picks);
            let full = reference(&row);
            for k in 0..=row.len() {
                let ranking = rank_row(&row, k);
                let keep = if k == 0 { row.len() } else { k };
                prop_assert_eq!(&ranking[..], &full[..keep], "k = {}, row = {:?}", k, row);
                prop_assert_eq!(ranking.capacity(), ranking.len());
            }
        }

        #[test]
        fn score_keys_order_like_score_cmp(
            a in (0usize..16, 0u32..=u32::MAX),
            b in (0usize..16, 0u32..=u32::MAX),
        ) {
            let (x, y) = (row_of(&[a])[0], row_of(&[b])[0]);
            prop_assert_eq!(score_key(x).cmp(&score_key(y)), score_cmp(x, y), "{} vs {}", x, y);
            prop_assert_eq!(key_is_finite(rank_key(x, 7)), x.is_finite());
            prop_assert_eq!(key_id(rank_key(y, 3_000_000)), 3_000_000);
        }
    }

    /// Whole rows of one score or of NaN, a NaN every fifth index, signed
    /// zeros between infinities: every cutoff `k` is the oracle's prefix.
    #[test]
    fn adversarial_rows_match_the_reference_for_every_k() {
        let mut rows: Vec<Vec<f32>> = vec![
            vec![0.5; 64],
            (0..64).map(|i| (i as f32 * 0.37).sin()).collect(),
            (0..64).map(|i| if i % 5 == 0 { f32::NAN } else { i as f32 % 7.0 }).collect(),
            vec![f32::NAN; 64],
        ];
        let mut zeros: Vec<f32> = (0..64).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect();
        zeros[10] = f32::INFINITY;
        zeros[11] = f32::NEG_INFINITY;
        rows.push(zeros);
        for row in &rows {
            let full = reference(row);
            for k in 1..=row.len() {
                assert_eq!(rank_row(row, k), full[..k].to_vec(), "k={k} row={row:?}");
            }
        }
    }

    #[test]
    fn score_keys_pin_the_edges() {
        assert_eq!(score_key(f32::NAN), 0);
        assert_eq!(score_key(-f32::NAN), 0, "every NaN maps to 0");
        assert!(score_key(f32::NEG_INFINITY) > 0, "no other score maps to 0");
        assert!(score_key(-0.0) < score_key(0.0));
        assert_eq!(score_key(f32::INFINITY), u32::MAX - 0x7F_FFFF);
        assert!(rank_key(0.5, 3) > rank_key(0.5, 4), "ties rank the lower id first");
        assert!(rank_key(0.5, u32::MAX as usize) > rank_key(0.25, 0));
    }

    #[test]
    fn rankings_are_allocated_at_their_length() {
        let row: Vec<f32> = (0..192).map(|i| (i as f32 * 0.37).sin()).collect();
        for k in [1, 10, 48, 191, 192, 0] {
            let ranking = rank_row(&row, k);
            assert_eq!(ranking.capacity(), ranking.len(), "k = {k}");
        }
    }

    #[test]
    fn precision_counts_gold() {
        let s = MatchingSet::top1(&scores());
        let p = s.precision(|e, i| e == 0 && i == 1);
        assert!((p - 0.5).abs() < 1e-6);
        assert_eq!(MatchingSet { pairs: vec![] }.precision(|_, _| true), 0.0);
    }
}
