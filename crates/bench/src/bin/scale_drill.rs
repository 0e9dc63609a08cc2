//! Sub-quadratic serving drill (`cem-serve::shard`, DESIGN.md §13): builds
//! a cluster-pruned ANN index over **≥100k synthetic image embeddings** and
//! measures what the pruning buys against the dense scan:
//!
//! 1. **Cost** — per-request candidates scored and wall latency for the
//!    probed wave path vs the dense per-request scan. The probed fraction
//!    must be sub-linear (≪ 1.0): a request touches `nprobe` posting lists,
//!    not the gallery.
//! 2. **Recall** — top-10 overlap between the pruned ranking and the dense
//!    oracle over every query entity; gated at ≥ 0.95. The synthetic
//!    gallery is a mixture of unit-sphere blobs, mirroring the clustered
//!    geometry real image embeddings have (on uniform noise no sane probe
//!    budget can beat the gate — and pruning would be pointless anyway).
//! 3. **Determinism** — probe schedules and wave scores replayed at 1 vs 4
//!    threads, coalesced vs row-wise (`min_batch = ∞`), must be
//!    bit-identical, and `nprobe = nclusters` must equal the dense scan.
//! 4. **Service e2e** — at reduced scale, a [`MatchService::with_shards`]
//!    burst must serve bit-identically to the dense service at full probe,
//!    and shard sections must survive a [`GenerationStore`] hot-swap
//!    round-trip.
//!
//! Results land in `BENCH_scale.json` (`"harness": "scale_drill"`).
//! Honours `--smoke` / `--quick` (smaller dim/clusters, still ≥100k
//! images). Exits non-zero if any gate fails.

use std::time::Instant;

use cem_bench::report;
use cem_obs::{Object, Value};
use cem_serve::{
    splitmix64, Generation, GenerationStore, MatchRequest, MatchService, NoFaults, ServeConfig,
    ServeIndex, ShardedIndex, TraceStats,
};
use cem_tensor::par::ThreadsGuard;

struct Scale {
    images: usize,
    entities: usize,
    dim: usize,
    nclusters: usize,
    nprobe: usize,
    kmeans_iters: usize,
    /// Blob count for the synthetic mixture (≤ nclusters).
    nblobs: usize,
    /// Wave width for the batched-scoring measurement.
    wave: usize,
}

impl Scale {
    fn standard() -> Self {
        Scale {
            images: 120_000,
            entities: 512,
            dim: 64,
            nclusters: 256,
            nprobe: 16,
            kmeans_iters: 8,
            nblobs: 64,
            wave: 64,
        }
    }

    /// Smoke keeps the ≥100k-image floor — the whole point is scale — but
    /// trims dim, clusters, and queries so CI finishes in seconds.
    fn smoke() -> Self {
        Scale {
            images: 100_000,
            entities: 128,
            dim: 32,
            nclusters: 128,
            nprobe: 8,
            kmeans_iters: 4,
            nblobs: 32,
            wave: 64,
        }
    }
}

fn unit(seed: u64, i: u64) -> f32 {
    (splitmix64(seed, i) >> 40) as f32 / (1u64 << 24) as f32
}

/// A mixture of `nblobs` unit-sphere blobs: row `i` sits near blob
/// `i % nblobs` with small isotropic noise, then is re-normalised.
fn blobs(n: usize, dim: usize, nblobs: usize, noise: f32, seed: u64) -> Vec<f32> {
    let mut centers = Vec::with_capacity(nblobs * dim);
    for b in 0..nblobs {
        let row: Vec<f32> =
            (0..dim).map(|d| unit(seed ^ 0xC0, (b * dim + d) as u64) - 0.5).collect();
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        centers.extend(row.into_iter().map(|v| v / norm));
    }
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        let center = &centers[(i % nblobs) * dim..(i % nblobs + 1) * dim];
        let row: Vec<f32> = center
            .iter()
            .enumerate()
            .map(|(d, &c)| c + noise * (unit(seed, (i * dim + d) as u64) - 0.5))
            .collect();
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        out.extend(row.into_iter().map(|v| v / norm));
    }
    out
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Reduced-scale service e2e: full-probe `with_shards` must serve
/// bit-identically to the dense service over the same full-tier matrix —
/// including the tail-sampling trace stats, which observe latencies and
/// outcomes and so must not see the probed path differently.
fn service_e2e() -> (bool, TraceStats) {
    let (entities, images, dim, nclusters) = (24, 3_000, 16, 8);
    let queries = blobs(entities, dim, 8, 0.1, 0x51);
    let embeddings = blobs(images, dim, 8, 0.1, 0x1E);
    let shards =
        ShardedIndex::build(queries, entities, &embeddings, images, dim, nclusters, 6, 7);
    let full = shards.dense_scores(1);
    let filler = |offset: f32| {
        (0..entities * images).map(|i| i as f32 * 1e-4 + offset).collect::<Vec<f32>>()
    };
    let index =
        ServeIndex::new(entities, images, [full, filler(0.1), filler(0.2), filler(0.3)]);
    let config = ServeConfig { top_k: 10, nclusters, nprobe: nclusters, ..ServeConfig::default() };
    let requests = MatchRequest::stream(256, entities, 13);

    let mut dense = MatchService::new(config, &index);
    let want = dense.run(&requests, &NoFaults);
    let mut probed = MatchService::with_shards(config, &index, &shards);
    let got = probed.run(&requests, &NoFaults);
    let pass = got == want
        && probed.stats().ann_requests == requests.len() as u64
        && dense.trace_stats() == probed.trace_stats();
    (pass, probed.trace_stats())
}

/// Shard sections published through the generation store must survive the
/// CEMT round-trip and serve the same rankings after promotion.
fn hotswap_e2e() -> (bool, TraceStats) {
    let (entities, images, dim, nclusters) = (12, 2_000, 16, 6);
    let queries = blobs(entities, dim, 6, 0.1, 0x91);
    let embeddings = blobs(images, dim, 6, 0.1, 0x9E);
    let shards =
        ShardedIndex::build(queries, entities, &embeddings, images, dim, nclusters, 6, 3);
    let full = shards.dense_scores(1);
    let filler = |offset: f32| {
        (0..entities * images).map(|i| i as f32 * 1e-4 + offset).collect::<Vec<f32>>()
    };
    let index =
        ServeIndex::new(entities, images, [full.clone(), filler(0.1), filler(0.2), filler(0.3)]);
    let generation = match Generation::with_shards(3, index, shards) {
        Ok(g) => g,
        Err(_) => return (false, TraceStats::default()),
    };

    let dir = std::env::temp_dir().join(format!("cem_scale_drill_{}", std::process::id()));
    if std::fs::create_dir_all(&dir).is_err() {
        return (false, TraceStats::default());
    }
    let result = (|| {
        let store = GenerationStore::new(&dir).ok()?;
        store.publish(&generation).ok()?;
        let loaded = store.load().ok()?;
        let config =
            ServeConfig { top_k: 10, nclusters, nprobe: nclusters, ..ServeConfig::default() };
        let requests = MatchRequest::stream(128, entities, 17);
        let mut direct = MatchService::with_generation(config, generation);
        let want = direct.run(&requests, &NoFaults);
        let mut swapped = MatchService::with_generation(config, loaded);
        let got = swapped.run(&requests, &NoFaults);
        let pass = got == want
            && swapped.generation() == 3
            && swapped.stats().ann_requests == requests.len() as u64
            && swapped.stats().cluster_fallbacks == 0
            && swapped.stats().wave_fallbacks == 0
            && direct.trace_stats() == swapped.trace_stats();
        pass.then(|| swapped.trace_stats())
    })();
    std::fs::remove_dir_all(&dir).ok();
    match result {
        Some(stats) => (true, stats),
        None => (false, TraceStats::default()),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let scale = if quick { Scale::smoke() } else { Scale::standard() };
    let _obs = cem_obs::force_enable();
    assert!(scale.images >= 100_000, "the drill's floor is 100k images");

    eprintln!(
        "[scale_drill] {} images × dim {}, {} queries, {} clusters, nprobe {} …",
        scale.images, scale.dim, scale.entities, scale.nclusters, scale.nprobe
    );
    let embeddings = blobs(scale.images, scale.dim, scale.nblobs, 0.25, 0xA11CE);
    let queries = blobs(scale.entities, scale.dim, scale.nblobs, 0.25, 0xB0B);

    let built = Instant::now();
    let index = ShardedIndex::build(
        queries,
        scale.entities,
        &embeddings,
        scale.images,
        scale.dim,
        scale.nclusters,
        scale.kmeans_iters,
        42,
    );
    let build_seconds = built.elapsed().as_secs_f64();
    drop(embeddings);
    eprintln!("[build] sharded index in {build_seconds:.1}s");

    // ---------------------------------------------------------------
    // Dense oracle: per-request scan cost and the reference top-10.
    // ---------------------------------------------------------------
    let started = Instant::now();
    let oracle: Vec<Vec<usize>> =
        (0..scale.entities).map(|e| index.dense_rank(e, 10, 1)).collect();
    let dense_nanos = started.elapsed().as_nanos() as f64 / scale.entities as f64;
    eprintln!("[dense] {:.0} µs/request, {} candidates each", dense_nanos / 1e3, scale.images);

    // ---------------------------------------------------------------
    // Probed waves: cost, recall@10, and the coalescing split.
    // ---------------------------------------------------------------
    let slots: Vec<usize> = (0..scale.entities).collect();
    let started = Instant::now();
    let mut rankings = Vec::with_capacity(scale.entities);
    let mut candidates: u64 = 0;
    let mut batched: u64 = 0;
    let mut single: u64 = 0;
    for wave in slots.chunks(scale.wave) {
        let score = index.score_wave(wave, scale.nprobe, 2, 10, 1).expect("intact shards");
        candidates += score.candidates;
        batched += score.batched_gemms;
        single += score.single_gemms;
        rankings.extend(score.rankings);
    }
    let ivf_nanos = started.elapsed().as_nanos() as f64 / scale.entities as f64;
    let probed_fraction = candidates as f64 / (scale.entities as f64 * scale.images as f64);
    let candidates_per_request = candidates as f64 / scale.entities as f64;

    let mut overlap = 0usize;
    for (ranking, dense) in rankings.iter().zip(&oracle) {
        overlap += ranking.ids.iter().filter(|id| dense.contains(id)).count();
    }
    let recall = overlap as f64 / (10 * scale.entities) as f64;
    let speedup = dense_nanos / ivf_nanos.max(1.0);
    eprintln!(
        "[ivf] {:.0} µs/request, {:.0} candidates ({:.4} of gallery), recall@10 {:.4}, \
         {batched} batched / {single} single GEMMs",
        ivf_nanos / 1e3,
        candidates_per_request,
        probed_fraction,
        recall
    );

    let sublinear_pass = probed_fraction < 0.5;
    let recall_pass = recall >= 0.95;
    println!(
        "[cost] probed fraction {probed_fraction:.4} (< 0.5), wall speedup {speedup:.1}× → {}",
        verdict(sublinear_pass)
    );
    println!("[recall] recall@10 {recall:.4} (≥ 0.95) → {}", verdict(recall_pass));

    // ---------------------------------------------------------------
    // Determinism: threads × batching × full probe ≡ dense.
    // ---------------------------------------------------------------
    eprintln!("[determinism] 1 vs 4 threads, coalesced vs row-wise, full probe vs dense …");
    let sample: Vec<usize> = (0..scale.wave.min(scale.entities)).collect();
    let run_with = |threads: usize, min_batch: usize| {
        let _guard = ThreadsGuard::new(threads);
        let probes: Vec<Vec<usize>> =
            sample.iter().map(|&e| index.probe(e, scale.nprobe)).collect();
        let wave = index.score_wave(&sample, scale.nprobe, min_batch, 10, threads).unwrap();
        (probes, wave.rankings)
    };
    let (p1, r1) = run_with(1, 2);
    let (p4, r4) = run_with(4, 2);
    let (_, rows) = run_with(1, usize::MAX);
    let full_probe = index.score_wave(&sample, scale.nclusters, 2, 10, 4).unwrap();
    let dense_match = sample
        .iter()
        .zip(&full_probe.rankings)
        .all(|(&e, r)| r.ids == oracle[e]);
    let determinism_pass = p1 == p4 && r1 == r4 && r1 == rows && dense_match;
    println!(
        "[determinism] probe schedules {}, wave bits {}, full-probe ≡ dense {} → {}",
        p1 == p4,
        r1 == r4 && r1 == rows,
        dense_match,
        verdict(determinism_pass)
    );

    // ---------------------------------------------------------------
    // Service e2e + hot-swap at reduced scale.
    // ---------------------------------------------------------------
    eprintln!("[service] full-probe with_shards vs dense service …");
    let (service_pass, service_trace) = service_e2e();
    println!("[service] bitwise dense equivalence → {}", verdict(service_pass));
    eprintln!("[hotswap] shard sections through the generation store …");
    let (hotswap_pass, hotswap_trace) = hotswap_e2e();
    println!("[hotswap] round-trip serve equivalence → {}", verdict(hotswap_pass));
    let mut trace = service_trace;
    trace.merge(&hotswap_trace);
    println!(
        "[trace] {} requests seen, {} sampled ({} flagged / {} tail / {} baseline)",
        trace.seen, trace.sampled, trace.sampled_flagged, trace.sampled_tail,
        trace.sampled_baseline
    );

    let all_pass =
        sublinear_pass && recall_pass && determinism_pass && service_pass && hotswap_pass;
    println!(
        "\nscale drill: {} images, probed fraction {:.4}, recall@10 {:.4} → {}",
        scale.images,
        probed_fraction,
        recall,
        if all_pass { "ALL PASS" } else { "FAILURES" }
    );

    let dense = Object::new()
        .field("candidates_per_request", scale.images)
        .field("per_request_nanos", Value::fixed(dense_nanos, 0));
    let ivf = Object::new()
        .field("candidates_per_request", Value::fixed(candidates_per_request, 0))
        .field("per_request_nanos", Value::fixed(ivf_nanos, 0))
        .field("probed_fraction", Value::fixed(probed_fraction, 4))
        .field("batched_gemms", batched)
        .field("single_gemms", single);
    let summary = Object::new()
        .field("harness", "scale_drill")
        .field("scale", if quick { "smoke" } else { "standard" })
        .field("images", scale.images)
        .field("entities", scale.entities)
        .field("dim", scale.dim)
        .field("nclusters", scale.nclusters)
        .field("nprobe", scale.nprobe)
        .field("build_seconds", Value::fixed(build_seconds, 2))
        .field("dense", dense)
        .field("ivf", ivf)
        .field("wall_speedup", Value::fixed(speedup, 2))
        .field("trace", report::trace_stats(&trace))
        .field("recall_at_10", Value::fixed(recall, 4))
        .field("sublinear_pass", sublinear_pass)
        .field("recall_pass", recall_pass)
        .field("determinism_pass", determinism_pass)
        .field("service_e2e_pass", service_pass)
        .field("hotswap_pass", hotswap_pass)
        .field("all_pass", all_pass);
    report::publish("BENCH_scale.json", summary);

    if !all_pass {
        std::process::exit(1);
    }
}
