//! Every input the workloads feed the program, generated from `--seed`.
//!
//! The generators live here rather than in the repository's drills and
//! load generators so that editing those cannot change what the benchmark
//! measures. Each input kind draws from its own splitmix64 stream of the
//! seed, so the same seed always yields the same inputs.

use cem_serve::{splitmix64, Arrival, MatchRequest, Tier};

/// Independent streams of one seed, one per input kind.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Gallery,
    Queries,
    Entities,
    Burst,
    Tiers,
}

pub fn derive(seed: u64, stream: Stream) -> u64 {
    splitmix64(seed, 0xBE7C_0000 + stream as u64)
}

/// Uniform in `[0, 1)` from draw `i` of stream `seed`.
fn unit(seed: u64, i: u64) -> f32 {
    (splitmix64(seed, i) >> 40) as f32 / (1u64 << 24) as f32
}

/// Uniform in `(0, 1]` from draw `i` of stream `seed` (finite `ln`).
fn unit_open(seed: u64, i: u64) -> f64 {
    ((splitmix64(seed, i) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

fn normalized(row: Vec<f32>) -> impl Iterator<Item = f32> {
    let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
    row.into_iter().map(move |v| v / norm)
}

/// A mixture of unit-sphere blobs: the clustered geometry of real image
/// embeddings, which is what makes cluster pruning worth doing.
#[derive(Debug, Clone, Copy)]
pub struct Blobs {
    pub dim: usize,
    pub blobs: usize,
    pub noise: f32,
}

impl Blobs {
    fn center(&self, seed: u64, blob: usize) -> Vec<f32> {
        let first = (blob * self.dim) as u64;
        normalized(
            (0..self.dim as u64)
                .map(|d| unit(seed, first + d) - 0.5)
                .collect(),
        )
        .collect()
    }

    /// `n` rows `[n × dim]`: row `i` sits near the blob drawn for it from
    /// `seed`'s stream `kind`, with isotropic noise.
    pub fn rows(&self, n: usize, seed: u64, kind: Stream) -> Vec<f32> {
        let center_seed = derive(seed, Stream::Gallery) ^ 0xC0;
        let centers: Vec<Vec<f32>> = (0..self.blobs)
            .map(|b| self.center(center_seed, b))
            .collect();
        let draws = derive(seed, kind);
        let mut out = Vec::with_capacity(n * self.dim);
        for i in 0..n {
            let center = &centers[(splitmix64(draws, !(i as u64)) % self.blobs as u64) as usize];
            let first = (i * self.dim) as u64;
            let row = center
                .iter()
                .zip(first..)
                .map(|(&c, k)| c + self.noise * (unit(draws, k) - 0.5))
                .collect();
            out.extend(normalized(row));
        }
        out
    }
}

/// `n` entities drawn uniformly from `0..entities`.
pub fn uniform_entities(n: usize, entities: usize, seed: u64, call: u64) -> Vec<usize> {
    let stream = splitmix64(derive(seed, Stream::Entities), call);
    (0..n as u64)
        .map(|i| (splitmix64(stream, i) % entities as u64) as usize)
        .collect()
}

fn request(id: u64, entity: usize, seed: u64) -> MatchRequest {
    MatchRequest {
        id,
        entity,
        seed: splitmix64(seed, id),
    }
}

/// One wave of requests for `entities`, all due at virtual time zero, with
/// ids starting at `first_id`.
pub fn due_now(entities: &[usize], first_id: u64, seed: u64) -> Vec<Arrival> {
    entities
        .iter()
        .zip(first_id..)
        .map(|(&entity, id)| Arrival {
            at: 0,
            request: request(id, entity, seed),
        })
        .collect()
}

/// Open-loop arrivals: Poisson at `base_rate` requests per virtual unit,
/// multiplied by `multiplier` inside `[burst_start, burst_end)`.
#[derive(Debug, Clone, Copy)]
pub struct BurstShape {
    pub arrivals: usize,
    pub base_rate: f64,
    pub burst_start: u64,
    pub burst_end: u64,
    pub multiplier: f64,
}

/// Segment `segment` of the bursty schedule: arrival times, uniformly drawn
/// entities, and ids that continue across segments.
pub fn burst_segment(shape: &BurstShape, entities: usize, seed: u64, segment: u64) -> Vec<Arrival> {
    let stream = splitmix64(derive(seed, Stream::Burst), segment);
    let first_id = segment * shape.arrivals as u64;
    let mut at = 0u64;
    (0..shape.arrivals as u64)
        .map(|i| {
            let burst = (shape.burst_start..shape.burst_end).contains(&at);
            let rate = if burst {
                shape.base_rate * shape.multiplier
            } else {
                shape.base_rate
            };
            at += (-unit_open(stream, i).ln() / rate).round() as u64;
            let entity = (splitmix64(stream, !i) % entities as u64) as usize;
            Arrival {
                at,
                request: request(first_id + i, entity, seed),
            }
        })
        .collect()
}

/// Seeded `[entities × images]` score matrices for the four dense tiers,
/// tie-free with overwhelming probability.
pub fn synthetic_tiers(entities: usize, images: usize, seed: u64) -> [Vec<f32>; Tier::COUNT] {
    let stream = derive(seed, Stream::Tiers);
    Tier::ALL.map(|tier| {
        let tier_stream = splitmix64(stream, tier.index() as u64);
        (0..(entities * images) as u64)
            .map(|i| unit(tier_stream, i))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> BurstShape {
        BurstShape {
            arrivals: 500,
            base_rate: 0.01,
            burst_start: 5_000,
            burst_end: 15_000,
            multiplier: 4.0,
        }
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        let blobs = Blobs {
            dim: 8,
            blobs: 4,
            noise: 0.25,
        };
        assert_eq!(
            blobs.rows(50, 7, Stream::Gallery),
            blobs.rows(50, 7, Stream::Gallery)
        );
        assert_ne!(
            blobs.rows(50, 7, Stream::Gallery),
            blobs.rows(50, 8, Stream::Gallery)
        );
        assert_ne!(
            blobs.rows(50, 7, Stream::Gallery),
            blobs.rows(50, 7, Stream::Queries)
        );

        assert_eq!(
            uniform_entities(64, 10, 7, 3),
            uniform_entities(64, 10, 7, 3)
        );
        assert_ne!(
            uniform_entities(64, 10, 7, 3),
            uniform_entities(64, 10, 7, 4)
        );
        assert_ne!(
            uniform_entities(64, 10, 7, 3),
            uniform_entities(64, 10, 8, 3)
        );

        assert_eq!(
            burst_segment(&shape(), 12, 7, 2),
            burst_segment(&shape(), 12, 7, 2)
        );
        assert_ne!(
            burst_segment(&shape(), 12, 7, 2),
            burst_segment(&shape(), 12, 8, 2)
        );
        assert_ne!(
            burst_segment(&shape(), 12, 7, 2),
            burst_segment(&shape(), 12, 7, 3)
        );

        let tiers = synthetic_tiers(3, 5, 7);
        assert_eq!(tiers, synthetic_tiers(3, 5, 7));
        let other = synthetic_tiers(3, 5, 8);
        for (tier, matrix) in tiers.iter().enumerate() {
            assert_eq!(matrix.len(), 15);
            assert_ne!(*matrix, other[tier]);
        }
    }

    #[test]
    fn generated_inputs_are_well_formed() {
        let rows = Blobs {
            dim: 8,
            blobs: 4,
            noise: 0.25,
        }
        .rows(20, 1, Stream::Queries);
        for row in rows.chunks_exact(8) {
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4);
        }
        assert!(uniform_entities(256, 10, 1, 0).iter().all(|&e| e < 10));

        let segment = burst_segment(&shape(), 12, 1, 3);
        assert!(segment.windows(2).all(|w| w[0].at <= w[1].at));
        let ids: Vec<u64> = segment.iter().map(|a| a.request.id).collect();
        assert_eq!(ids, (1500..2000).collect::<Vec<u64>>());
        let in_burst = segment
            .iter()
            .filter(|a| (5_000..15_000).contains(&a.at))
            .count();
        assert!(
            in_burst as f64 / 10_000.0 > 0.025,
            "the burst window runs near 4× the base rate"
        );

        let wave = due_now(&[2, 0, 2], 40, 1);
        assert!(wave.iter().all(|a| a.at == 0));
        assert_eq!(
            wave.iter().map(|a| a.request.id).collect::<Vec<_>>(),
            vec![40, 41, 42]
        );
    }
}
