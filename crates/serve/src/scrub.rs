//! Online integrity scrubbing: a budgeted background pass over every
//! CRC-covered section the service depends on (DESIGN.md §14).
//!
//! Bit rot does not wait for a request to probe the damaged bytes. The
//! scrubber walks a fixed circular section layout — dense tier rows, shards
//! (posting list + embeddings; the packed GEMM panel derived from them is
//! not CRC-covered), then the on-disk latest/prev generation files —
//! verifying up to [`ServeConfig::scrub_sections_per_wave`](crate::ServeConfig)
//! sections at each wave boundary, so corruption is *found* within one full
//! cycle instead of whenever traffic happens to touch it.
//!
//! Determinism contract: the scrub cursor advances purely with wave
//! boundaries (never wall clock), the section layout is a pure function of
//! the index shape, and scrubbing only ever *reads* scored state. Findings
//! feed the quarantine/repair machinery in [`crate::MatchService`]; the
//! scrubber itself never mutates what requests score, so responses stay
//! bit-identical at any thread count whatever the scrub budget is.

use std::collections::BTreeSet;

use crate::hotswap::{GenerationStore, StoreFile};
use crate::shard::ShardedIndex;
use crate::tiers::{ServeIndex, Tier};

/// One damaged section discovered by a scrub tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubFinding {
    /// A dense tier row no longer matches its build-time CRC.
    DenseRow { tier: Tier, entity: usize },
    /// A shard's posting list or embeddings fail its checksum.
    ShardCluster { cluster: usize },
    /// An on-disk generation file fails its container CRCs or decode.
    DiskGeneration { file: StoreFile },
}

impl ScrubFinding {
    /// Stable label for counters, events, and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ScrubFinding::DenseRow { .. } => "dense_row",
            ScrubFinding::ShardCluster { .. } => "shard_cluster",
            ScrubFinding::DiskGeneration { .. } => "disk_generation",
        }
    }
}

/// Scrub progress counters (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// CRC sections verified (quarantined shards count as scanned).
    pub sections: u64,
    /// Damaged sections found.
    pub corruptions: u64,
    /// Full passes over the section layout completed.
    pub cycles: u64,
}

/// The budgeted background scrubber: a circular cursor over the section
/// layout. One instance lives inside [`crate::MatchService`] and ticks at
/// wave boundaries.
#[derive(Debug, Clone, Default)]
pub struct Scrubber {
    cursor: usize,
    stats: ScrubStats,
}

impl Scrubber {
    pub fn new() -> Scrubber {
        Scrubber::default()
    }

    pub fn stats(&self) -> ScrubStats {
        self.stats
    }

    /// Sections in one full cycle for the given world shape: every dense
    /// tier row, every shard cluster, then the two durable files.
    pub fn cycle_sections(
        index: &ServeIndex,
        shards: Option<&ShardedIndex>,
        store_attached: bool,
    ) -> usize {
        let dense = Tier::COUNT * index.entities();
        let clusters = shards.map_or(0, ShardedIndex::nclusters);
        let disk = if store_attached { 2 } else { 0 };
        dense + clusters + disk
    }

    /// Verify up to `budget` sections starting at the cursor, wrapping at
    /// the end of the layout, and return every damaged section found.
    ///
    /// Already-quarantined clusters count as scanned but are not
    /// re-reported — they are known-bad until repaired. Disk sections probe
    /// the store strictly ([`GenerationStore::verify_file`]): a missing
    /// file is healthy (nothing published yet), a decode or CRC failure is
    /// a finding.
    pub fn tick(
        &mut self,
        budget: usize,
        index: &ServeIndex,
        shards: Option<&ShardedIndex>,
        quarantined: &BTreeSet<usize>,
        store: Option<&GenerationStore>,
    ) -> Vec<ScrubFinding> {
        let total = Scrubber::cycle_sections(index, shards, store.is_some());
        if budget == 0 || total == 0 {
            return Vec::new();
        }
        let dense = Tier::COUNT * index.entities();
        let clusters = shards.map_or(0, ShardedIndex::nclusters);
        let mut findings = Vec::new();
        for _ in 0..budget.min(total) {
            let section = self.cursor % total;
            let finding = if section < dense {
                let tier = Tier::ALL[section / index.entities()];
                let entity = section % index.entities();
                let row = index.row(tier, entity);
                (!index.verify_row(tier, entity, row))
                    .then_some(ScrubFinding::DenseRow { tier, entity })
            } else if section < dense + clusters {
                let cluster = section - dense;
                let shards = shards.expect("cluster sections exist only with shards");
                (!quarantined.contains(&cluster) && !shards.shard(cluster).verify())
                    .then_some(ScrubFinding::ShardCluster { cluster })
            } else {
                let file =
                    if section == dense + clusters { StoreFile::Latest } else { StoreFile::Prev };
                let store = store.expect("disk sections exist only with a store");
                store
                    .verify_file(file)
                    .is_err()
                    .then_some(ScrubFinding::DiskGeneration { file })
            };
            self.stats.sections += 1;
            self.cursor += 1;
            if self.cursor >= total {
                self.cursor = 0;
                self.stats.cycles += 1;
                cem_obs::counter_add!("serve.scrub.cycles", 1);
            }
            if let Some(finding) = finding {
                self.stats.corruptions += 1;
                cem_obs::counter_add!("serve.scrub.corruptions", 1);
                cem_obs::events::emit(|| {
                    let event = cem_obs::Event::new("scrub_corruption")
                        .field("section", finding.label());
                    match &finding {
                        ScrubFinding::DenseRow { tier, entity } => event
                            .field("tier", tier.label())
                            .field("entity", *entity as f64),
                        ScrubFinding::ShardCluster { cluster } => {
                            event.field("cluster", *cluster as f64)
                        }
                        ScrubFinding::DiskGeneration { file } => {
                            event.field("file", file.label())
                        }
                    }
                });
                findings.push(finding);
            }
        }
        cem_obs::counter_add!("serve.scrub.sections", budget.min(total) as u64);
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotswap::Generation;
    use crate::retry::splitmix64;

    fn unit(seed: u64, i: u64) -> f32 {
        (splitmix64(seed, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 40) as f32
            / (1u64 << 24) as f32
    }

    fn world(entities: usize, images: usize, dim: usize, nclusters: usize) -> (ServeIndex, ShardedIndex) {
        let embeddings: Vec<f32> = (0..images * dim).map(|i| unit(3, i as u64)).collect();
        let queries: Vec<f32> = (0..entities * dim).map(|i| unit(4, i as u64)).collect();
        let shards = ShardedIndex::build(
            queries.clone(),
            entities,
            &embeddings,
            images,
            dim,
            nclusters,
            8,
            7,
        );
        let full = shards.dense_scores(1);
        let index = ServeIndex::new(entities, images, [full.clone(), full.clone(), full.clone(), full]);
        (index, shards)
    }

    #[test]
    fn clean_world_scrubs_clean_and_cycles() {
        let (index, shards) = world(3, 30, 4, 3);
        let mut scrubber = Scrubber::new();
        let total = Scrubber::cycle_sections(&index, Some(&shards), false);
        assert_eq!(total, 4 * 3 + 3);
        let quarantined = BTreeSet::new();
        let findings = scrubber.tick(total, &index, Some(&shards), &quarantined, None);
        assert!(findings.is_empty());
        assert_eq!(scrubber.stats(), ScrubStats { sections: total as u64, corruptions: 0, cycles: 1 });
    }

    #[test]
    fn a_rotted_shard_is_found_within_one_cycle_and_not_rereported_when_quarantined() {
        let (index, mut shards) = world(3, 30, 4, 3);
        let victim = (0..shards.nclusters()).find(|&c| !shards.shard(c).is_empty()).unwrap();
        shards.corrupt_shard_for_tests(victim);
        let mut scrubber = Scrubber::new();
        let total = Scrubber::cycle_sections(&index, Some(&shards), false);
        let mut quarantined = BTreeSet::new();
        // Budget of 1 per tick: the finding still lands within one cycle.
        let mut found = Vec::new();
        for _ in 0..total {
            found.extend(scrubber.tick(1, &index, Some(&shards), &quarantined, None));
        }
        assert_eq!(found, vec![ScrubFinding::ShardCluster { cluster: victim }]);
        // Once quarantined, the next cycle stays silent about it.
        quarantined.insert(victim);
        let findings = scrubber.tick(total, &index, Some(&shards), &quarantined, None);
        assert!(findings.is_empty());
        assert_eq!(scrubber.stats().corruptions, 1);
    }

    #[test]
    fn disk_sections_probe_the_store_strictly() {
        let dir = std::env::temp_dir()
            .join(format!("cem_scrub_disk_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (index, shards) = world(3, 30, 4, 3);
        let store = GenerationStore::new(&dir).unwrap();
        // Nothing published yet: both files missing, still healthy.
        let mut scrubber = Scrubber::new();
        let total = Scrubber::cycle_sections(&index, Some(&shards), true);
        assert_eq!(total, 4 * 3 + 3 + 2);
        let quarantined = BTreeSet::new();
        let findings = scrubber.tick(total, &index, Some(&shards), &quarantined, Some(&store));
        assert!(findings.is_empty());
        // Publish, then rot the latest file on disk: the disk section errs.
        let generation = Generation::new(1, ServeIndex::new(
            index.entities(),
            index.images(),
            [
                index.tier_rows(Tier::Full).to_vec(),
                index.tier_rows(Tier::Cached).to_vec(),
                index.tier_rows(Tier::Hard).to_vec(),
                index.tier_rows(Tier::Zero).to_vec(),
            ],
        ));
        store.publish(&generation).unwrap();
        let latest = store.latest_path();
        let bytes = std::fs::read(&latest).unwrap();
        let mut rotted = bytes.clone();
        rotted[bytes.len() / 2] ^= 0x10;
        std::fs::write(&latest, rotted).unwrap();
        let findings = scrubber.tick(total, &index, Some(&shards), &quarantined, Some(&store));
        assert_eq!(findings, vec![ScrubFinding::DiskGeneration { file: StoreFile::Latest }]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_budget_is_a_no_op() {
        let (index, shards) = world(2, 20, 4, 2);
        let mut scrubber = Scrubber::new();
        let findings = scrubber.tick(0, &index, Some(&shards), &BTreeSet::new(), None);
        assert!(findings.is_empty());
        assert_eq!(scrubber.stats(), ScrubStats::default());
    }
}
