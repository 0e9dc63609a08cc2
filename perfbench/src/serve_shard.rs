//! `serve_shard`: matching at the 100k-image scale through the sharded
//! index.
//!
//! 100k blob-mixture images at dim 64 in 256 clusters, 64 query entities
//! with dense fallback tiers, `nprobe` 16. Set-up is a server's cold boot:
//! `ShardedIndex::build` → `Generation::with_shards` →
//! `GenerationStore::publish` → `load` → `MatchService::with_generation`,
//! then one warm-up call. Publish and load sit inside set-up, so a gain on
//! the read side that costs CEMT write or read time shows in `setup_s`.
//!
//! `setup_s` is the median of several boots in one process. Each boot's
//! gallery and queries are generated before its clock starts, and each
//! boot reuses memory the previous one freed: it is a warm re-boot, not the
//! span from process start.
//!
//! Each measured call hands `run_open_loop` one full-tier wave of requests,
//! all due at virtual time zero, for entities drawn uniformly from the seed;
//! the next call starts when the previous returns. Probing, the per-wave
//! shard CRC check, the packed GEMM and top-k do nearly all the work.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use cem_serve::{
    Arrival, Generation, GenerationStore, MatchService, NoFaults, Outcome, ServeConfig, ServeIndex,
    ShardedIndex, Tier,
};

use crate::inputs::{derive, due_now, uniform_entities, Blobs, Stream};
use crate::record::Report;
use crate::serve_burst::Counts;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{gemm_counts, Plan, GEMM_METRICS, MB};

const IMAGES: usize = 100_000;
const ENTITIES: usize = 64;
const BLOBS: Blobs = Blobs {
    dim: 64,
    blobs: 64,
    noise: 0.25,
};
const NCLUSTERS: usize = 256;
const NPROBE: usize = 16;
const KMEANS_ITERS: usize = 2;
/// Measured calls: about ten seconds on a 2-vCPU x86-64 host at one
/// thread, and enough for a p95 with ten beyond it.
const CALLS: u64 = 300;
/// Set-ups per run; `setup_s` is their median.
const BOOTS: u64 = 3;

pub fn config() -> ServeConfig {
    ServeConfig {
        nclusters: NCLUSTERS,
        nprobe: NPROBE,
        ..crate::serve_config()
    }
}

/// Requests one full-tier wave executes: the wave's work budget over the
/// full tier's cost, capped by the wave width.
pub fn full_wave(config: &ServeConfig) -> usize {
    let per_wave = config.wave_budget_units() / config.tier_cost[Tier::Full.index()];
    (per_wave as usize).min(config.wave)
}

struct Booted {
    service: MatchService<'static>,
    /// The shard index as built, before its CEMT round trip: the replay
    /// and recall oracle read it.
    shards: ShardedIndex,
    /// Build, tier, publish and load seconds, and the published file's MB.
    phases: [f64; 5],
}

/// One boot's inputs, generated from the seed before its clock starts.
/// The boot drops the gallery once the shards are built, as a server that
/// read it would: keeping it alive across boots made the peak RSS of one
/// seed differ by 15 % from run to run.
struct BootInputs {
    gallery: Vec<f32>,
    queries: Vec<f32>,
    kmeans_seed: u64,
    warmup: Vec<Arrival>,
}

impl BootInputs {
    fn new(seed: u64) -> BootInputs {
        let wave = full_wave(&config());
        BootInputs {
            gallery: BLOBS.rows(IMAGES, seed, Stream::Gallery),
            queries: BLOBS.rows(ENTITIES, seed, Stream::Queries),
            kmeans_seed: derive(seed, Stream::Gallery),
            warmup: due_now(
                &uniform_entities(wave, ENTITIES, seed, u64::MAX),
                u64::MAX / 2,
                seed,
            ),
        }
    }
}

fn boot(inputs: BootInputs, dir: &Path, tracer: &mut Tracer, boot: u64) -> Booted {
    let BootInputs {
        gallery,
        queries,
        kmeans_seed,
        warmup,
    } = inputs;
    let span = tracer.open("serve_shard.boot", None, boot);
    let (shards, build_s) = tracer.time("serve.shard.build", span, boot, || {
        ShardedIndex::build(
            queries,
            ENTITIES,
            &gallery,
            IMAGES,
            BLOBS.dim,
            NCLUSTERS,
            KMEANS_ITERS,
            kmeans_seed,
        )
    });
    drop(gallery);
    let (tiers, tiers_s) = tracer.time("serve.tiers.build", span, boot, || {
        let full = shards.dense_scores(1);
        ServeIndex::new(
            ENTITIES,
            IMAGES,
            [full.clone(), full.clone(), full.clone(), full],
        )
    });
    let generation =
        Generation::with_shards(1, tiers, shards).expect("shards cover the tier catalogue");

    std::fs::create_dir_all(dir).expect("create the generation store directory");
    let store = GenerationStore::new(dir).expect("open the generation store");
    let (published, publish_s) = tracer.time("serve.hotswap.publish", span, boot, || {
        store.publish(&generation)
    });
    published.expect("publish the generation");
    let file_mb = std::fs::metadata(store.latest_path())
        .expect("published file")
        .len() as f64
        / MB;
    // The server gets the loaded copy; the shards as built stay for the
    // replay and the recall oracle.
    let Generation { shards, .. } = generation;
    let shards = shards.expect("the generation was built with shards");
    let (loaded, load_s) = tracer.time("serve.hotswap.load", span, boot, || store.load());
    let loaded = loaded.expect("load the published generation");
    std::fs::remove_dir_all(dir).expect("remove the generation store directory");

    let mut service = MatchService::with_generation(config(), loaded);
    tracer.time("serve.run_open_loop", span, boot, || {
        service.run_open_loop(&warmup, &NoFaults)
    });
    tracer.close(span);
    Booted {
        service,
        shards,
        phases: [build_s, tiers_s, publish_s, load_s, file_mb],
    }
}

/// One served response's check: full tier, `top_k` distinct in-range ids.
fn check_response(outcome: &Outcome, top_k: usize) -> Result<&[usize], String> {
    match outcome {
        Outcome::Served {
            tier: Tier::Full,
            ranking,
        } => {
            let distinct: BTreeSet<usize> = ranking.iter().copied().collect();
            if ranking.len() != top_k || distinct.len() != top_k {
                return Err(format!("ranking {ranking:?} is not {top_k} distinct ids"));
            }
            if ranking.iter().any(|&id| id >= IMAGES) {
                return Err(format!("ranking {ranking:?} leaves the gallery"));
            }
            Ok(ranking)
        }
        other => Err(format!("outcome {other:?} instead of a full-tier answer")),
    }
}

#[derive(Default)]
struct Replay {
    probe_s: f64,
    verify_s: f64,
    score_wave_s: f64,
    verified_bytes: f64,
    distinct: u64,
    candidates: u64,
    batched: u64,
    single: u64,
    /// GEMM tier counters over the timed calls only.
    gemm: [u64; 3],
}

pub fn run(plan: &Plan, tracer: &mut Tracer, report: &mut Report) {
    let config = config();
    let wave = full_wave(&config);
    report.info("images", IMAGES);
    report.info("dim", BLOBS.dim);
    report.info("entities", ENTITIES);
    report.info("nclusters", NCLUSTERS);
    report.info("nprobe", NPROBE);
    report.info("calls", CALLS);
    report.info("requests_per_call", wave);

    let mut boots = Vec::new();
    let mut phases: Vec<[f64; 5]> = Vec::new();
    let mut booted = None;
    for b in 0..BOOTS {
        // One server alive at a time.
        drop(booted.take());
        let dir = plan
            .out_dir
            .join(format!("serve_shard-store-{}-{b}", std::process::id()));
        let inputs = BootInputs::new(plan.seed);
        let started = Instant::now();
        let fresh = boot(inputs, &dir, tracer, b);
        boots.push(started.elapsed().as_secs_f64());
        phases.push(fresh.phases);
        booted = Some(fresh);
    }
    let Booted {
        mut service,
        shards,
        ..
    } = booted.expect("at least one boot");
    let boots = Samples::new(boots);
    report.metric("setup_s", boots.median(), "s", boots.count());

    let before = Counts::of(service.stats());
    let mut call_secs = Vec::with_capacity(CALLS as usize);
    let mut served: Vec<(usize, Vec<usize>)> = Vec::with_capacity(CALLS as usize * wave);
    let mut replay = Replay::default();
    for call in 0..CALLS {
        let entities = uniform_entities(wave, ENTITIES, plan.seed, call);
        let arrivals = due_now(&entities, call * wave as u64, plan.seed);
        let span = tracer.open("serve_shard.call", None, call);
        let gemm_before = gemm_counts();
        let (responses, secs) = tracer.time("serve.run_open_loop", span, call, || {
            service.run_open_loop(&arrivals, &NoFaults)
        });
        let gemm_after = gemm_counts();
        for (sum, (after, before)) in replay
            .gemm
            .iter_mut()
            .zip(gemm_after.iter().zip(gemm_before))
        {
            *sum += after - before;
        }
        call_secs.push(secs);
        report.attempted += arrivals.len() as u64;
        report.check(responses.len() == arrivals.len(), || {
            format!(
                "call {call}: {} responses to {} requests",
                responses.len(),
                arrivals.len()
            )
        });
        for response in &responses {
            match check_response(&response.outcome, config.top_k) {
                Ok(ranking) => served.push((response.entity, ranking.to_vec())),
                Err(why) => report.check(false, || {
                    format!("call {call}, request {}: {why}", response.id)
                }),
            }
        }
        if tracer.traced() {
            replay_call(&shards, &entities, &config, tracer, span, call, &mut replay);
        }
        tracer.close(span);
    }
    let counts = Counts::of(service.stats()).since(before);

    // Recall against the dense scan, outside every timed region.
    let oracle: Vec<Vec<usize>> = (0..ENTITIES)
        .map(|e| shards.dense_rank(e, config.top_k, 1))
        .collect();
    let overlap: usize = served
        .iter()
        .map(|(entity, ranking)| {
            ranking
                .iter()
                .filter(|id| oracle[*entity].contains(id))
                .count()
        })
        .sum();
    let recall = overlap as f64 / (served.len().max(1) * config.top_k) as f64;

    let calls_ms = Samples::new(call_secs.iter().map(|s| s * 1e3).collect());
    let rates = Samples::new(call_secs.iter().map(|s| wave as f64 / s).collect());
    let (p50, p95) = crate::p50_p95(&calls_ms);
    report.metric("throughput_per_s", rates.median(), "1/s", rates.count());
    report.metric("requests_per_s", rates.median(), "1/s", rates.count());
    report.metric("latency_ms_p50", p50, "ms", calls_ms.count());
    report.metric("latency_ms_p95", p95, "ms", calls_ms.count());
    report.metric("quality", recall, "fraction", served.len());
    report.metric("recall_at_10", recall, "fraction", served.len());
    report.metric("measured_s", calls_ms.sum() / 1e3, "s", calls_ms.count());
    report.shares(counts.failed());
    if !tracer.traced() {
        return;
    }

    let per_call = |x: f64| x / CALLS as f64;
    let requests = (CALLS * wave as u64) as f64;
    let boot_metrics = [
        ("serve.shard.build_s", "s"),
        ("serve.tiers.build_s", "s"),
        ("serve.hotswap.publish_s", "s"),
        ("serve.hotswap.load_s", "s"),
        ("serve.hotswap.file_mb", "MB"),
    ];
    for (i, (name, unit)) in boot_metrics.into_iter().enumerate() {
        let per_boot = Samples::new(phases.iter().map(|p| p[i]).collect());
        report.metric(name, per_boot.median(), unit, per_boot.count());
    }
    report.metric(
        "serve.shard.probe_us_per_request",
        replay.probe_s * 1e6 / requests,
        "us",
        CALLS as usize,
    );
    report.metric(
        "serve.shard.verify_ms_per_call",
        per_call(replay.verify_s * 1e3),
        "ms",
        CALLS as usize,
    );
    report.metric(
        "serve.shard.distinct_clusters_per_call",
        per_call(replay.distinct as f64),
        "count",
        CALLS as usize,
    );
    report.metric(
        "tensor.crc_mb_per_s",
        replay.verified_bytes / MB / replay.verify_s,
        "MB/s",
        CALLS as usize,
    );
    report.metric(
        "serve.shard.score_wave_ms_per_call",
        per_call(replay.score_wave_s * 1e3),
        "ms",
        CALLS as usize,
    );
    let gemm_topk_s = replay.score_wave_s - replay.verify_s - replay.probe_s;
    report.metric(
        "serve.shard.gemm_topk_ms_per_call",
        per_call(gemm_topk_s * 1e3),
        "ms",
        CALLS as usize,
    );
    report.metric(
        "serve.shard.candidates_per_request",
        replay.candidates as f64 / requests,
        "count",
        CALLS as usize,
    );
    report.metric(
        "serve.shard.batched_gemms",
        replay.batched as f64,
        "count",
        1,
    );
    report.metric("serve.shard.single_gemms", replay.single as f64, "count", 1);
    for (name, count) in GEMM_METRICS.iter().zip(replay.gemm) {
        report.metric(name, count as f64, "count", 1);
    }
    let other_s = calls_ms.sum() / 1e3 - replay.score_wave_s;
    report.metric(
        "serve.service.other_us_per_request",
        other_s * 1e6 / requests,
        "us",
        CALLS as usize,
    );
    counts.report(report);
    report.metric(
        "tensor.peak_live_mb",
        cem_tensor::memory::peak_bytes() as f64 / MB,
        "MB",
        1,
    );
    let share = |s: f64| 100.0 * s / (calls_ms.sum() / 1e3);
    eprintln!(
        "[serve_shard] call time: probe {:.1}% + verify {:.1}% + gemm/top-k {:.1}% + other service {:.1}% \
         (replayed score_wave is {:.1}%)",
        share(replay.probe_s),
        share(replay.verify_s),
        share(gemm_topk_s),
        share(other_s),
        share(replay.score_wave_s),
    );
}

/// Replay a measured call's scoring through the shard index's public
/// calls, outside the timed call: the probe of every request, the CRC
/// check of every distinct probed cluster, and the whole `score_wave`.
fn replay_call(
    shards: &ShardedIndex,
    entities: &[usize],
    config: &ServeConfig,
    tracer: &mut Tracer,
    span: Option<usize>,
    call: u64,
    replay: &mut Replay,
) {
    let (probes, probe_s) = tracer.time("serve.shard.probe", span, call, || {
        entities
            .iter()
            .map(|&e| shards.probe(e, config.nprobe))
            .collect::<Vec<_>>()
    });
    let distinct: BTreeSet<usize> = probes.iter().flatten().copied().collect();
    let (intact, verify_s) = tracer.time("serve.shard.verify", span, call, || {
        distinct.iter().all(|&c| shards.shard(c).verify())
    });
    assert!(intact, "an in-memory shard failed its CRC");
    let (score, score_wave_s) = tracer.time("serve.shard.score_wave", span, call, || {
        shards.score_wave(entities, config.nprobe, config.min_batch, config.top_k, 1)
    });
    let score = score.expect("intact shards score");
    replay.probe_s += probe_s;
    replay.verify_s += verify_s;
    replay.score_wave_s += score_wave_s;
    replay.verified_bytes += distinct
        .iter()
        .map(|&c| (shards.shard(c).len() * (1 + BLOBS.dim) * 4) as f64)
        .sum::<f64>();
    replay.distinct += score.distinct_clusters;
    replay.candidates += score.candidates;
    replay.batched += score.batched_gemms;
    replay.single += score.single_gemms;
}
