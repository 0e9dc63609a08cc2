//! Sharded cluster-pruned ANN index: sub-quadratic serving over the image
//! gallery (DESIGN.md §13).
//!
//! The dense [`ServeIndex`](crate::ServeIndex) scores every request against
//! every image — O(entities × images) memory and a full scan per request,
//! which cannot reach gallery sizes in the hundreds of thousands. This
//! module generalises the paper's PCP machinery (k-means partitions +
//! proximity pruning, Alg. 2) into an IVF-style inverted index:
//!
//! * **Build**: image embeddings are clustered with
//!   [`crossem::kmeans::kmeans_flat_seeded`]. Each cluster becomes a
//!   [`Shard`]: a posting list of image ids plus the member embeddings,
//!   packed once into a resident GEMM panel
//!   ([`cem_tensor::pack::pack_b_t`]) and covered by a CRC-32.
//! * **Probe**: a query scores every cluster centroid (cheap — `nclusters`
//!   dot products) and keeps the top-`nprobe` clusters by
//!   (score desc, cluster asc). Probing is a pure function of
//!   `(query, index, config)` — no clocks, no thread count — so replay is
//!   bit-identical.
//! * **Wave-batched scoring**: [`ShardedIndex::score_wave`] takes a whole
//!   wave of dequeued requests, groups them by probed cluster, and issues
//!   **one** query-matrix × shard-panel GEMM per (cluster, wave) through
//!   [`cem_tensor::kernels::gemm_prepacked_with_threads`]. The packed
//!   kernel's per-element schedule depends only on `k = dim`, so the
//!   coalesced batch is bit-identical to per-request scoring — batching is
//!   purely a throughput lever (it amortises panel traffic across the
//!   wave), never a value change.
//! * **Selection**: per-request candidates are ranked by the ranking
//!   kernel of [`crossem::matcher`] — score descending by
//!   [`score_cmp`](crossem::matcher::score_cmp) (NaN sinks), image id
//!   ascending on ties, as one `u64` key per candidate — the order of
//!   [`crossem::matcher::rank_row`], so with `nprobe = nclusters` the IVF
//!   result is bit-identical to the dense scan. Probes rank centroids the
//!   same way.
//! * **Durability**: shards serialise as CRC'd CEMT v2 entries
//!   (`shard.<i>.ids` / `shard.<i>.emb` plus a stored per-shard checksum)
//!   and ride inside the existing [`Generation`](crate::Generation)
//!   container, so they publish through the hot-swap path. A shard whose
//!   checksum fails — at decode or at serve time — yields a typed
//!   [`ShardError`] and the service falls back to the dense tier.
//! * **Incremental rebuild**: [`ShardedIndex::add_images`] assigns new
//!   images to their nearest centroid (the exact Lloyd assignment rule via
//!   [`crossem::kmeans::nearest_centroid`]) and repacks only the touched
//!   shards.

use std::collections::BTreeMap;
use std::fmt;

use cem_tensor::io::StateDict;
use cem_tensor::kernels::{dot, gemm_prepacked_with_threads};
use cem_tensor::pack::{pack_b_t, PackedB};
use cem_tensor::Tensor;
use crossem::checkpoint::{shard_entry_key, shard_schema_of, stamp_shard_schema};
use crossem::kmeans::{kmeans_flat_seeded, nearest_centroid};
use crossem::matcher::{key_id, key_is_finite, rank_key, select_top};

/// Schema version of the shard sections inside a CEMT container.
pub const SHARD_SCHEMA: u64 = 1;

/// Image ids are stored as exactly-representable `f32` tensor entries in
/// the CEMT container, which is lossless only below 2²⁴.
const MAX_IMAGES: usize = 1 << 24;

/// Why a sharded index could not be built, decoded, or served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard's recomputed checksum does not match its stored CRC — the
    /// posting list or embeddings are damaged. Serving falls back to the
    /// dense tier.
    Corrupt { shard: usize },
    /// The container parsed but lacks a required shard entry or meta key.
    MissingEntry(String),
    /// The container's shard sections use a different layout version.
    Schema { expected: u64, found: u64 },
    /// An entry's element count disagrees with the recorded layout.
    Shape { what: &'static str, expected: usize, found: usize },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Corrupt { shard } => {
                write!(f, "shard {shard} failed its checksum (corrupt posting list or embeddings)")
            }
            ShardError::MissingEntry(name) => {
                write!(f, "shard sections are missing required entry {name:?}")
            }
            ShardError::Schema { expected, found } => {
                write!(f, "shard schema {found} does not match this build ({expected})")
            }
            ShardError::Shape { what, expected, found } => {
                write!(f, "shard entry {what} has {found} elements, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One cluster's slice of the gallery: the posting list of image ids, the
/// member embeddings (row-major `[len × dim]`), a CRC-32 over both, and the
/// embeddings re-packed once into a resident panel for the packed GEMM.
/// The panel is derived from the embeddings and not covered by the CRC.
pub struct Shard {
    ids: Vec<u32>,
    embeddings: Vec<f32>,
    crc: u32,
    panel: PackedB,
}

impl Shard {
    fn new(ids: Vec<u32>, embeddings: Vec<f32>, dim: usize) -> Shard {
        debug_assert_eq!(embeddings.len(), ids.len() * dim);
        let crc = shard_checksum(&ids, &embeddings);
        let panel = pack_b_t(&embeddings, ids.len(), dim);
        Shard { ids, embeddings, crc, panel }
    }

    /// Images in this shard.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Posting list of image ids, in ascending id order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Stored CRC-32 over the posting list and embeddings.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Recompute the checksum and compare against the stored CRC.
    pub fn verify(&self) -> bool {
        shard_checksum(&self.ids, &self.embeddings) == self.crc
    }
}

/// CRC-32 over a shard's posting list and embedding payload (LE bytes).
fn shard_checksum(ids: &[u32], embeddings: &[f32]) -> u32 {
    let mut hasher = cem_tensor::crc::Hasher::new();
    hasher.update_u32s(ids);
    hasher.update_f32s(embeddings);
    hasher.finalize()
}

/// One request's ANN ranking: top-k image ids, best first, plus whether the
/// best score was finite (a NaN-topped ranking must degrade exactly like
/// the dense tier's poisoned-row path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRanking {
    pub ids: Vec<usize>,
    pub finite: bool,
}

/// Aggregate result of scoring one wave through the shard index.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveScore {
    /// Per input slot, in input order.
    pub rankings: Vec<ShardRanking>,
    /// Total (slot, cluster) probe pairs in the wave.
    pub probed_clusters: u64,
    /// Distinct clusters the wave touched (each verified + scored once).
    pub distinct_clusters: u64,
    /// Total candidate images scored across all slots.
    pub candidates: u64,
    /// Coalesced multi-row GEMM calls issued.
    pub batched_gemms: u64,
    /// Single-row GEMM calls issued (groups below `min_batch`).
    pub single_gemms: u64,
    /// Mean fraction of the gallery scored per request
    /// (`candidates / (slots × images)`); the dense scan is 1.0.
    pub probed_fraction: f64,
}

/// The sharded ANN index: query embeddings, cluster centroids, and one
/// [`Shard`] per cluster. Everything a probe decision reads is immutable
/// between waves, so probe schedules are pure functions of
/// `(query, index, config)`.
pub struct ShardedIndex {
    dim: usize,
    entities: usize,
    images: usize,
    /// Entity/query embeddings, row-major `[entities × dim]`.
    queries: Vec<f32>,
    /// Cluster centroids, row-major `[nclusters × dim]`.
    centroids: Vec<f32>,
    shards: Vec<Shard>,
}

impl ShardedIndex {
    /// Cluster `embeddings` (`[images × dim]`, row-major) into `nclusters`
    /// shards with seeded k-means and pack each shard's panel. `queries`
    /// are the entity embeddings requests score with (`[entities × dim]`).
    ///
    /// `nclusters` is clamped to the image count. Posting lists come out in
    /// ascending image-id order (the k-means assignment scan is in id
    /// order), which the dense-equivalence selection rule relies on.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        queries: Vec<f32>,
        entities: usize,
        embeddings: &[f32],
        images: usize,
        dim: usize,
        nclusters: usize,
        kmeans_iters: usize,
        seed: u64,
    ) -> ShardedIndex {
        assert!(dim > 0, "shard build: zero-dimensional embeddings");
        assert!(entities > 0, "shard build: no query entities");
        assert!(images > 0, "shard build: no images");
        assert!(images < MAX_IMAGES, "shard build: image ids must stay below 2^24");
        assert_eq!(queries.len(), entities * dim, "shard build: queries shape");
        assert_eq!(embeddings.len(), images * dim, "shard build: embeddings shape");
        let result =
            kmeans_flat_seeded(embeddings, images, dim, nclusters.max(1), kmeans_iters, seed);
        let k = result.k;
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, &c) in result.assignments.iter().enumerate() {
            members[c].push(i as u32);
        }
        let shards = members
            .into_iter()
            .map(|ids| {
                let mut rows = Vec::with_capacity(ids.len() * dim);
                for &id in &ids {
                    let id = id as usize;
                    rows.extend_from_slice(&embeddings[id * dim..(id + 1) * dim]);
                }
                Shard::new(ids, rows, dim)
            })
            .collect();
        cem_obs::counter_add!("serve.shard.build", 1);
        ShardedIndex { dim, entities, images, queries, centroids: result.centroids, shards }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn entities(&self) -> usize {
        self.entities
    }

    pub fn images(&self) -> usize {
        self.images
    }

    pub fn nclusters(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, cluster: usize) -> &Shard {
        &self.shards[cluster]
    }

    /// Entity query embedding row.
    pub fn query(&self, entity: usize) -> &[f32] {
        &self.queries[entity * self.dim..(entity + 1) * self.dim]
    }

    /// Verify every shard's checksum; `Err` names the first damaged shard.
    pub fn verify(&self) -> Result<(), ShardError> {
        for (c, shard) in self.shards.iter().enumerate() {
            if !shard.verify() {
                return Err(ShardError::Corrupt { shard: c });
            }
        }
        Ok(())
    }

    /// Top-`nprobe` clusters for `entity` by centroid score, ranked
    /// (score desc via [`score_cmp`](crossem::matcher::score_cmp), cluster
    /// asc) by [`select_top`]. Pure function of
    /// `(query, index, nprobe)`: no clocks, no thread count, no mutation —
    /// the replay-determinism contract for probe schedules.
    pub fn probe(&self, entity: usize, nprobe: usize) -> Vec<usize> {
        let q = self.query(entity);
        let mut keys: Vec<u64> = self
            .centroids
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(c, centroid)| rank_key(dot(q, centroid), c))
            .collect();
        let keep = nprobe.clamp(1, self.nclusters());
        select_top(&mut keys, keep).iter().map(|&key| key_id(key)).collect()
    }

    /// Score one wave of requests (`entities[slot]` per wave slot) through
    /// the probed shards, coalescing each cluster's slots into one batched
    /// GEMM against the resident panel when the group reaches `min_batch`
    /// rows. Returns per-slot top-`top_k` rankings (`top_k = 0` keeps all
    /// candidates) in input order.
    ///
    /// Every probed shard's CRC is verified once per wave before any
    /// scoring; a damaged shard fails the whole wave with a typed error so
    /// the caller can fall back to the dense tier.
    ///
    /// Determinism: probe order, group composition, and candidate order are
    /// derived purely from slot/cluster indices; the packed kernel's
    /// schedule depends only on `dim`; final selection uses the strict
    /// total order (score desc, id asc). Results are bit-identical at any
    /// thread count and to per-request (`min_batch = ∞`) scoring.
    pub fn score_wave(
        &self,
        entities: &[usize],
        nprobe: usize,
        min_batch: usize,
        top_k: usize,
        threads: usize,
    ) -> Result<WaveScore, ShardError> {
        let probes: Vec<Vec<usize>> = entities.iter().map(|&e| self.probe(e, nprobe)).collect();
        // Group wave slots by probed cluster: BTreeMap iterates clusters in
        // ascending order, slots were pushed in ascending slot order.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (slot, probe) in probes.iter().enumerate() {
            for &c in probe {
                groups.entry(c).or_default().push(slot);
            }
        }
        for &c in groups.keys() {
            if !self.shards[c].verify() {
                return Err(ShardError::Corrupt { shard: c });
            }
        }
        let mut candidates: Vec<Vec<u64>> = entities
            .iter()
            .map(|_| Vec::with_capacity(nprobe * self.images / self.nclusters().max(1) + 1))
            .collect();
        let dim = self.dim;
        let mut batched_gemms = 0u64;
        let mut single_gemms = 0u64;
        let mut q_buf: Vec<f32> = Vec::new();
        for (&c, slots) in &groups {
            let shard = &self.shards[c];
            let len = shard.len();
            if len == 0 {
                continue;
            }
            let b = slots.len();
            q_buf.clear();
            for &slot in slots {
                q_buf.extend_from_slice(self.query(entities[slot]));
            }
            let mut out = vec![0.0f32; b * len];
            if b >= min_batch.max(1) {
                gemm_prepacked_with_threads(&q_buf, &shard.panel, &mut out, b, threads);
                batched_gemms += 1;
            } else {
                for (bi, row) in out.chunks_exact_mut(len).enumerate() {
                    gemm_prepacked_with_threads(
                        &q_buf[bi * dim..(bi + 1) * dim],
                        &shard.panel,
                        row,
                        1,
                        threads,
                    );
                }
                single_gemms += b as u64;
            }
            for (bi, &slot) in slots.iter().enumerate() {
                let row = &out[bi * len..(bi + 1) * len];
                candidates[slot]
                    .extend(shard.ids.iter().zip(row).map(|(&id, &s)| rank_key(s, id as usize)));
            }
        }
        let mut total_candidates = 0u64;
        let rankings: Vec<ShardRanking> = candidates
            .into_iter()
            .map(|mut c| {
                total_candidates += c.len() as u64;
                take_top_k(&mut c, top_k)
            })
            .collect();
        let probed_clusters: u64 = probes.iter().map(|p| p.len() as u64).sum();
        let probed_fraction = if entities.is_empty() {
            0.0
        } else {
            total_candidates as f64 / (entities.len() as f64 * self.images as f64)
        };
        cem_obs::counter_add!("serve.probe.clusters", probed_clusters);
        cem_obs::counter_add!("serve.probe.candidates", total_candidates);
        cem_obs::counter_add!("serve.probe.batched_gemm", batched_gemms);
        cem_obs::counter_add!("serve.probe.single_gemm", single_gemms);
        cem_obs::gauge_set!("serve.probe.fraction", probed_fraction);
        Ok(WaveScore {
            rankings,
            probed_clusters,
            distinct_clusters: groups.len() as u64,
            candidates: total_candidates,
            batched_gemms,
            single_gemms,
            probed_fraction,
        })
    }

    /// The full dense score matrix `[entities × images]`, computed through
    /// the same resident shard panels as [`score_wave`] — one
    /// all-entities GEMM per shard, scattered into image-id columns. Since
    /// the packed kernel's per-element schedule depends only on `dim`,
    /// every score here is bit-identical to the wave-batched path: this is
    /// the dense oracle for recall measurement and the verify/fallback
    /// tier's Full matrix.
    pub fn dense_scores(&self, threads: usize) -> Vec<f32> {
        let mut matrix = vec![0.0f32; self.entities * self.images];
        let mut out: Vec<f32> = Vec::new();
        for shard in &self.shards {
            let len = shard.len();
            if len == 0 {
                continue;
            }
            out.clear();
            out.resize(self.entities * len, 0.0);
            gemm_prepacked_with_threads(&self.queries, &shard.panel, &mut out, self.entities, threads);
            for (e, row) in out.chunks_exact(len).enumerate() {
                let dst = &mut matrix[e * self.images..(e + 1) * self.images];
                for (&id, &s) in shard.ids.iter().zip(row) {
                    dst[id as usize] = s;
                }
            }
        }
        matrix
    }

    /// One request's dense scan: score `entity` against every image through
    /// the shard panels and rank the full row — the per-request cost the
    /// probed path is measured against.
    pub fn dense_rank(&self, entity: usize, top_k: usize, threads: usize) -> Vec<usize> {
        let mut row = vec![0.0f32; self.images];
        let mut out: Vec<f32> = Vec::new();
        for shard in &self.shards {
            let len = shard.len();
            if len == 0 {
                continue;
            }
            out.clear();
            out.resize(len, 0.0);
            gemm_prepacked_with_threads(self.query(entity), &shard.panel, &mut out, 1, threads);
            for (&id, &s) in shard.ids.iter().zip(&out) {
                row[id as usize] = s;
            }
        }
        crossem::matcher::rank_row(&row, top_k)
    }

    /// Assign new images (`[count × dim]`, ids continuing from the current
    /// gallery) to their nearest centroids and rebuild only the touched
    /// shards' checksums and panels. Returns the touched cluster indices,
    /// ascending. Centroids are left as built — probes stay pure functions
    /// of the (now larger) index.
    pub fn add_images(&mut self, new_embeddings: &[f32]) -> Vec<usize> {
        assert_eq!(new_embeddings.len() % self.dim, 0, "add_images: ragged embeddings");
        let count = new_embeddings.len() / self.dim;
        assert!(self.images + count < MAX_IMAGES, "add_images: image ids must stay below 2^24");
        let k = self.nclusters();
        let mut staged: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for j in 0..count {
            let p = &new_embeddings[j * self.dim..(j + 1) * self.dim];
            let c = nearest_centroid(p, &self.centroids, k, self.dim);
            staged.entry(c).or_default().push(j);
        }
        let touched: Vec<usize> = staged.keys().copied().collect();
        for (&c, rows) in &staged {
            let shard = &mut self.shards[c];
            for &j in rows {
                shard.ids.push((self.images + j) as u32);
                shard
                    .embeddings
                    .extend_from_slice(&new_embeddings[j * self.dim..(j + 1) * self.dim]);
            }
            shard.crc = shard_checksum(&shard.ids, &shard.embeddings);
            shard.panel = pack_b_t(&shard.embeddings, shard.ids.len(), self.dim);
        }
        self.images += count;
        cem_obs::counter_add!("serve.shard.incremental_rebuild", touched.len() as u64);
        touched
    }

    /// Write the shard sections into an existing CEMT dict (the
    /// [`Generation`](crate::Generation) container): schema + layout meta,
    /// query/centroid tensors, and per-shard posting/embedding entries with
    /// a stored CRC. Empty shards write only their `len = 0` meta.
    pub fn write_state_dict(&self, dict: &mut StateDict) {
        stamp_shard_schema(dict, SHARD_SCHEMA);
        dict.insert_meta("shard.nclusters", self.nclusters() as u64);
        dict.insert_meta("shard.dim", self.dim as u64);
        dict.insert_meta("shard.entities", self.entities as u64);
        dict.insert_meta("shard.images", self.images as u64);
        dict.insert(
            "shard.queries",
            Tensor::from_vec(self.queries.clone(), &[self.entities, self.dim]),
        );
        dict.insert(
            "shard.centroids",
            Tensor::from_vec(self.centroids.clone(), &[self.nclusters(), self.dim]),
        );
        for (c, shard) in self.shards.iter().enumerate() {
            dict.insert_meta(shard_entry_key(c, "len"), shard.len() as u64);
            dict.insert_meta(shard_entry_key(c, "crc"), shard.crc as u64);
            if shard.is_empty() {
                continue;
            }
            let ids: Vec<f32> = shard.ids.iter().map(|&id| id as f32).collect();
            dict.insert(shard_entry_key(c, "ids"), Tensor::from_vec(ids, &[shard.len()]));
            dict.insert(
                shard_entry_key(c, "emb"),
                Tensor::from_vec(shard.embeddings.clone(), &[shard.len(), self.dim]),
            );
        }
    }

    /// Decode shard sections from a CEMT dict. `Ok(None)` when the dict
    /// carries no shard sections at all (pre-shard generations stay
    /// loadable); otherwise every section must parse, shapes must agree
    /// with the recorded layout, and each shard's recomputed checksum must
    /// match its stored CRC ([`ShardError::Corrupt`] otherwise — defense in
    /// depth on top of the container's per-entry CRC).
    pub fn read_state_dict(dict: &StateDict) -> Result<Option<ShardedIndex>, ShardError> {
        let schema = match shard_schema_of(dict) {
            None => return Ok(None),
            Some(s) => s,
        };
        if schema != SHARD_SCHEMA {
            return Err(ShardError::Schema { expected: SHARD_SCHEMA, found: schema });
        }
        let meta = |name: &str| {
            dict.meta(name).ok_or_else(|| ShardError::MissingEntry(name.to_string()))
        };
        let nclusters = meta("shard.nclusters")? as usize;
        let dim = meta("shard.dim")? as usize;
        let entities = meta("shard.entities")? as usize;
        let images = meta("shard.images")? as usize;
        let tensor = |name: String, want: usize| -> Result<Vec<f32>, ShardError> {
            let t = dict.get(&name).ok_or_else(|| ShardError::MissingEntry(name.clone()))?;
            let data = t.to_vec();
            if data.len() != want {
                return Err(ShardError::Shape {
                    what: "tensor entry",
                    expected: want,
                    found: data.len(),
                });
            }
            Ok(data)
        };
        let queries = tensor("shard.queries".into(), entities * dim)?;
        let centroids = tensor("shard.centroids".into(), nclusters * dim)?;
        let mut shards = Vec::with_capacity(nclusters);
        let mut total = 0usize;
        for c in 0..nclusters {
            let len = meta(&shard_entry_key(c, "len"))? as usize;
            let stored_crc = meta(&shard_entry_key(c, "crc"))? as u32;
            total += len;
            let (ids, embeddings) = if len == 0 {
                (Vec::new(), Vec::new())
            } else {
                let raw_ids = tensor(shard_entry_key(c, "ids"), len)?;
                let ids: Vec<u32> = raw_ids.iter().map(|&v| v as u32).collect();
                let embeddings = tensor(shard_entry_key(c, "emb"), len * dim)?;
                (ids, embeddings)
            };
            let shard = Shard::new(ids, embeddings, dim);
            if shard.crc != stored_crc {
                return Err(ShardError::Corrupt { shard: c });
            }
            shards.push(shard);
        }
        if total != images {
            return Err(ShardError::Shape { what: "posting lists", expected: images, found: total });
        }
        Ok(Some(ShardedIndex { dim, entities, images, queries, centroids, shards }))
    }

    /// Serialise into a standalone CEMT dict (shards only).
    pub fn to_state_dict(&self) -> StateDict {
        let mut dict = StateDict::new();
        self.write_state_dict(&mut dict);
        dict
    }

    /// Decode a standalone shard dict; missing sections are an error here.
    pub fn from_state_dict(dict: &StateDict) -> Result<ShardedIndex, ShardError> {
        ShardedIndex::read_state_dict(dict)?
            .ok_or_else(|| ShardError::MissingEntry("shard.schema".into()))
    }

    /// Rebuild one damaged shard from a donor index (typically a freshly
    /// decoded durable generation): clone the donor's posting list and
    /// embeddings, recompute the CRC, and repack the panel — the exact
    /// repack discipline of [`add_images`](Self::add_images). The donor
    /// must share this index's layout and the donor shard must itself
    /// verify, so a repair can never launder corruption back into serving.
    /// Untouched shards keep their bytes, panels, and CRCs, which is what
    /// makes a heal invisible to replay: probe schedules and scores after
    /// repair are bit-identical to a never-corrupted index.
    pub fn repair_shard_from(
        &mut self,
        cluster: usize,
        donor: &ShardedIndex,
    ) -> Result<(), ShardError> {
        assert!(cluster < self.nclusters(), "repair_shard_from: cluster out of range");
        if donor.dim != self.dim
            || donor.nclusters() != self.nclusters()
            || donor.images != self.images
        {
            return Err(ShardError::Shape {
                what: "repair donor layout",
                expected: self.images,
                found: donor.images,
            });
        }
        let source = &donor.shards[cluster];
        if !source.verify() {
            return Err(ShardError::Corrupt { shard: cluster });
        }
        let shard = &mut self.shards[cluster];
        shard.ids = source.ids.clone();
        shard.embeddings = source.embeddings.clone();
        shard.crc = shard_checksum(&shard.ids, &shard.embeddings);
        shard.panel = pack_b_t(&shard.embeddings, shard.ids.len(), self.dim);
        cem_obs::counter_add!("serve.shard.repair", 1);
        Ok(())
    }

    /// Flip a bit in one shard's embeddings without updating its CRC, so
    /// tests and drills can exercise the corrupt-shard → dense-fallback
    /// path. Not part of the serving API.
    #[doc(hidden)]
    pub fn corrupt_shard_for_tests(&mut self, cluster: usize) {
        let shard = &mut self.shards[cluster];
        assert!(!shard.is_empty(), "cannot corrupt an empty shard");
        let flipped = f32::from_bits(shard.embeddings[0].to_bits() ^ 1);
        shard.embeddings[0] = flipped;
        shard.panel = pack_b_t(&shard.embeddings, shard.ids.len(), self.dim);
    }
}

/// Keep the best `k` candidates (`k = 0` keeps all), given as
/// [`rank_key`]s of their scores and image ids: the ranking order of
/// [`crossem::matcher::rank_row`], so dense and probed rankings agree
/// whenever they see the same candidate scores.
fn take_top_k(candidates: &mut [u64], k: usize) -> ShardRanking {
    let top = select_top(candidates, k);
    ShardRanking {
        ids: top.iter().map(|&key| key_id(key)).collect(),
        finite: top.first().is_none_or(|&key| key_is_finite(key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::splitmix64;
    use cem_tensor::crc::LANE_MIN_BYTES;

    /// Deterministic clustered embeddings: `centers` Gaussian-ish blobs on
    /// the unit sphere, `n` points cycling through them.
    fn blobs(n: usize, dim: usize, centers: usize, seed: u64) -> Vec<f32> {
        let mut centroid = vec![0.0f32; centers * dim];
        for (j, v) in centroid.iter_mut().enumerate() {
            *v = unit(seed ^ 0xC0FFEE, j as u64) * 2.0 - 1.0;
        }
        let mut out = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = i % centers;
            let base = &centroid[c * dim..(c + 1) * dim];
            let mut row: Vec<f32> = base
                .iter()
                .enumerate()
                .map(|(d, &b)| b + 0.1 * (unit(seed, (i * dim + d) as u64) - 0.5))
                .collect();
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            row.iter_mut().for_each(|v| *v /= norm);
            out.extend_from_slice(&row);
        }
        out
    }

    fn unit(seed: u64, i: u64) -> f32 {
        (splitmix64(seed, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 40) as f32
            / (1u64 << 24) as f32
    }

    fn small_index() -> ShardedIndex {
        let (images, entities, dim) = (200, 12, 8);
        let embeddings = blobs(images, dim, 5, 11);
        let queries = blobs(entities, dim, 5, 12);
        ShardedIndex::build(queries, entities, &embeddings, images, dim, 5, 12, 7)
    }

    #[test]
    fn build_partitions_the_gallery() {
        let index = small_index();
        assert_eq!(index.images(), 200);
        let total: usize = (0..index.nclusters()).map(|c| index.shard(c).len()).sum();
        assert_eq!(total, 200);
        index.verify().unwrap();
        // Posting lists are ascending (k-means assignment scans in id order).
        for c in 0..index.nclusters() {
            let ids = index.shard(c).ids();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "cluster {c} ids not ascending");
        }
    }

    #[test]
    fn probe_is_pure_and_bounded() {
        let index = small_index();
        for e in 0..index.entities() {
            let a = index.probe(e, 2);
            let b = index.probe(e, 2);
            assert_eq!(a, b);
            assert_eq!(a.len(), 2);
            let all = index.probe(e, usize::MAX);
            assert_eq!(all.len(), index.nclusters(), "nprobe clamps to nclusters");
        }
    }

    /// The clusters a probe keeps, and their order, are the prefix of a
    /// reference sort: every centroid scored with `dot`, stable-sorted by
    /// `score_cmp` descending. Tied centroids (a duplicated centroid) rank
    /// the lower cluster first, and a NaN query ranks clusters in order.
    #[test]
    fn probe_matches_a_reference_sort_of_centroid_scores() {
        use crossem::matcher::score_cmp;
        let mut index = small_index();
        let dim = index.dim;
        index.centroids.copy_within(dim..2 * dim, 3 * dim);
        index.queries[..dim].fill(f32::NAN);
        for e in 0..index.entities() {
            let scores: Vec<f32> =
                index.centroids.chunks_exact(dim).map(|c| dot(index.query(e), c)).collect();
            let mut reference: Vec<usize> = (0..scores.len()).collect();
            reference.sort_by(|&a, &b| score_cmp(scores[b], scores[a]));
            for nprobe in 1..=index.nclusters() {
                assert_eq!(index.probe(e, nprobe), reference[..nprobe], "entity {e}");
            }
        }
        assert_eq!(index.probe(0, 3), [0, 1, 2], "a NaN query keeps cluster order");
    }

    #[test]
    fn take_top_k_flags_a_non_finite_best_score() {
        let keys = |scores: &[f32]| -> Vec<u64> {
            scores.iter().enumerate().map(|(id, &s)| rank_key(s, id)).collect()
        };
        let ranked = take_top_k(&mut keys(&[0.5, f32::NAN, 0.9, 0.5]), 3);
        assert_eq!(ranked, ShardRanking { ids: vec![2, 0, 3], finite: true });
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let ranked = take_top_k(&mut keys(&[poison, poison]), 0);
            assert_eq!(ranked, ShardRanking { ids: vec![0, 1], finite: false }, "{poison}");
        }
        assert_eq!(take_top_k(&mut [], 5), ShardRanking { ids: vec![], finite: true });
    }

    /// nprobe = nclusters covers every image, so the IVF ranking must be
    /// bit-identical to the dense scan through the same panels.
    #[test]
    fn full_probe_equals_dense_scan() {
        let index = small_index();
        let slots: Vec<usize> = (0..index.entities()).collect();
        let wave = index.score_wave(&slots, index.nclusters(), 2, 10, 1).unwrap();
        for (e, ranking) in wave.rankings.iter().enumerate() {
            assert_eq!(ranking.ids, index.dense_rank(e, 10, 1), "entity {e}");
            assert!(ranking.finite);
        }
        assert!((wave.probed_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wave_scoring_is_batch_and_thread_invariant() {
        let index = small_index();
        let slots: Vec<usize> = (0..index.entities()).chain(0..index.entities()).collect();
        let base = index.score_wave(&slots, 2, 2, 5, 1).unwrap();
        for threads in [2usize, 4] {
            let got = index.score_wave(&slots, 2, 2, 5, threads).unwrap();
            assert_eq!(base.rankings, got.rankings, "threads={threads}");
        }
        // min_batch beyond any group size forces per-request GEMMs — same bits.
        let unbatched = index.score_wave(&slots, 2, usize::MAX, 5, 3).unwrap();
        assert_eq!(base.rankings, unbatched.rankings);
        assert_eq!(unbatched.batched_gemms, 0);
        assert!(unbatched.single_gemms > 0);
    }

    #[test]
    fn cemt_round_trip_preserves_everything() {
        let index = small_index();
        let decoded = ShardedIndex::from_state_dict(&index.to_state_dict()).unwrap();
        assert_eq!(decoded.dim(), index.dim());
        assert_eq!(decoded.images(), index.images());
        assert_eq!(decoded.nclusters(), index.nclusters());
        for c in 0..index.nclusters() {
            assert_eq!(decoded.shard(c).ids(), index.shard(c).ids());
            assert_eq!(decoded.shard(c).crc(), index.shard(c).crc());
        }
        let slots: Vec<usize> = (0..index.entities()).collect();
        let a = index.score_wave(&slots, 3, 2, 10, 2).unwrap();
        let b = decoded.score_wave(&slots, 3, 2, 10, 2).unwrap();
        assert_eq!(a.rankings, b.rankings, "decoded index must serve identical rankings");
    }

    #[test]
    fn tampered_payload_is_a_typed_corrupt_error() {
        let mut index = small_index();
        // Damage one embedding value without refreshing the stored CRC; the
        // container then carries a stale checksum over tampered payload.
        let victim = (0..index.nclusters()).find(|&c| !index.shard(c).is_empty()).unwrap();
        index.corrupt_shard_for_tests(victim);
        let dict = index.to_state_dict();
        let err = ShardedIndex::from_state_dict(&dict).map(|_| ()).unwrap_err();
        assert_eq!(err, ShardError::Corrupt { shard: victim });
    }

    #[test]
    fn runtime_corruption_fails_the_wave() {
        let mut index = small_index();
        let victim = (0..index.nclusters()).find(|&c| !index.shard(c).is_empty()).unwrap();
        index.corrupt_shard_for_tests(victim);
        let slots: Vec<usize> = (0..index.entities()).collect();
        let err = index.score_wave(&slots, index.nclusters(), 2, 10, 1).unwrap_err();
        assert_eq!(err, ShardError::Corrupt { shard: victim });
    }

    /// Shard CRCs pinned at the bytewise kernel the word-hashing path
    /// replaced: stored `shard.<i>.crc` values keep validating.
    #[test]
    fn shard_crcs_are_pinned() {
        let index = small_index();
        let crcs: Vec<u32> = (0..index.nclusters()).map(|c| index.shard(c).crc()).collect();
        assert_eq!(crcs, [0x6E4A_0862, 0x2B86_B74E, 0x6E83_3BAE, 0xF50E_6A51, 0x36C1_67BB]);
    }

    /// Shards big enough for the CRC's three-lane path (at least
    /// [`LANE_MIN_BYTES`] per `update`): one flipped bit inside any lane's
    /// third of the embedding payload fails the wave and the decode.
    #[test]
    fn a_flipped_bit_in_every_crc_lane_is_caught() {
        let build = || {
            let (images, entities, dim) = (600, 4, 16);
            let embeddings = blobs(images, dim, 3, 31);
            let queries = blobs(entities, dim, 3, 32);
            ShardedIndex::build(queries, entities, &embeddings, images, dim, 3, 8, 9)
        };
        let slots: Vec<usize> = (0..4).collect();
        for lane in 0..3 {
            let mut index = build();
            let victim = (0..index.nclusters()).max_by_key(|&c| index.shard(c).len()).unwrap();
            let embeddings = &mut index.shards[victim].embeddings;
            assert!(
                embeddings.len() * 4 >= LANE_MIN_BYTES,
                "payload below the three-lane threshold"
            );
            let at = lane * embeddings.len() / 3 + embeddings.len() / 6;
            embeddings[at] = f32::from_bits(embeddings[at].to_bits() ^ (1 << (at % 32)));
            assert_eq!(
                index.score_wave(&slots, index.nclusters(), 2, 10, 1).unwrap_err(),
                ShardError::Corrupt { shard: victim },
                "lane {lane}: score_wave"
            );
            assert_eq!(
                ShardedIndex::from_state_dict(&index.to_state_dict()).map(|_| ()).unwrap_err(),
                ShardError::Corrupt { shard: victim },
                "lane {lane}: read_state_dict"
            );
        }
    }

    #[test]
    fn add_images_rebuilds_only_touched_shards() {
        let mut index = small_index();
        let before: Vec<u32> = (0..index.nclusters()).map(|c| index.shard(c).crc()).collect();
        let extra = blobs(7, index.dim(), 2, 99);
        let touched = index.add_images(&extra);
        assert!(!touched.is_empty());
        assert_eq!(index.images(), 207);
        index.verify().unwrap();
        for (c, &was) in before.iter().enumerate() {
            let changed = index.shard(c).crc() != was;
            assert_eq!(changed, touched.contains(&c), "cluster {c}");
        }
        // New ids are probeable: a full probe covers the grown gallery.
        let slots: Vec<usize> = (0..index.entities()).collect();
        let wave = index.score_wave(&slots, index.nclusters(), 2, 0, 1).unwrap();
        for r in &wave.rankings {
            assert_eq!(r.ids.len(), 207);
        }
    }

    /// A corrupted shard healed from a pristine donor must be
    /// indistinguishable from one that was never damaged: CRC-clean and
    /// bit-identical rankings.
    #[test]
    fn repair_restores_bit_identical_serving() {
        let donor = small_index();
        let mut index = small_index();
        let victim = (0..index.nclusters()).find(|&c| !index.shard(c).is_empty()).unwrap();
        index.corrupt_shard_for_tests(victim);
        assert_eq!(index.verify(), Err(ShardError::Corrupt { shard: victim }));
        index.repair_shard_from(victim, &donor).unwrap();
        index.verify().unwrap();
        let slots: Vec<usize> = (0..index.entities()).collect();
        let healed = index.score_wave(&slots, index.nclusters(), 2, 10, 1).unwrap();
        let pristine = donor.score_wave(&slots, donor.nclusters(), 2, 10, 1).unwrap();
        assert_eq!(healed.rankings, pristine.rankings);
    }

    /// A damaged donor must never launder corruption into the serving
    /// index, and a layout mismatch is a typed error.
    #[test]
    fn repair_refuses_bad_donors() {
        let mut donor = small_index();
        let mut index = small_index();
        let victim = (0..index.nclusters()).find(|&c| !index.shard(c).is_empty()).unwrap();
        index.corrupt_shard_for_tests(victim);
        donor.corrupt_shard_for_tests(victim);
        assert_eq!(
            index.repair_shard_from(victim, &donor),
            Err(ShardError::Corrupt { shard: victim })
        );
        let mut grown = small_index();
        let extra = blobs(3, grown.dim(), 2, 42);
        grown.add_images(&extra);
        assert!(matches!(
            index.repair_shard_from(victim, &grown),
            Err(ShardError::Shape { .. })
        ));
    }

    #[test]
    fn nan_poisoned_queries_are_flagged_not_ranked_first() {
        let (images, entities, dim) = (50, 2, 4);
        let embeddings = blobs(images, dim, 3, 21);
        let mut queries = blobs(entities, dim, 3, 22);
        queries[0] = f32::NAN;
        let index = ShardedIndex::build(queries, entities, &embeddings, images, dim, 3, 8, 5);
        let wave = index.score_wave(&[0, 1], index.nclusters(), 1, 5, 1).unwrap();
        assert!(!wave.rankings[0].finite, "NaN query must be flagged");
        assert!(wave.rankings[1].finite);
    }
}
