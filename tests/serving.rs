//! End-to-end degraded-mode serving: with every richer tier scripted to
//! fail, the service must land on the zero-shot floor and answer *exactly*
//! what the `cem-baselines` CLIP zero-shot baseline would — the floor is
//! not a stub, it is Eq. 4 served under a different name.
//!
//! Also pins the shard-corruption fallback granularity: a quarantined
//! cluster degrades only the requests whose probe schedule touches it
//! (`cluster_fallbacks`), never the whole wave (`wave_fallbacks` stays 0).

use std::rc::Rc;

use cem_data::{BundleConfig, DatasetBundle, DatasetKind};
use cem_nn::Module;
use cem_serve::{
    cached_proximity_scores, hard_prompt_scores, splitmix64, zero_shot_scores, FaultKind,
    MatchRequest, MatchService, NoFaults, Outcome, ServeConfig, ServeFault, ServeIndex,
    ShardedIndex, Tier,
};
use cem_tensor::par::ThreadsGuard;
use crossem::config::PlusConfig;
use crossem::matcher::rank_images;
use crossem::plus::CrossEmPlus;
use crossem::prompt::HardPromptOptions;
use crossem::{FeatureCache, PromptKind, TrainConfig};

/// Every breaker-guarded tier fails on every attempt; only the floor is
/// reachable.
struct AllTiersDown;

impl ServeFault for AllTiersDown {
    fn inject(&self, _request_id: u64, tier: Tier, _attempt: u32) -> Option<FaultKind> {
        match tier {
            Tier::Full | Tier::Hard => Some(FaultKind::NanFeatures),
            Tier::Cached => Some(FaultKind::CorruptCache),
            Tier::Zero => None,
        }
    }
}

/// Build the four-tier index over the quickstart (smoke) bundle: frozen
/// tiers from the pristine pre-trained towers, the full tier from a short
/// CrossEM⁺ tuning run sharing the same feature cache.
fn build_world() -> (DatasetBundle, ServeIndex) {
    let bundle = DatasetBundle::prepare(BundleConfig::smoke(DatasetKind::Cub));
    let dataset = &bundle.dataset;
    let config = TrainConfig {
        prompt: PromptKind::Soft,
        hops: 1,
        epochs: 2,
        batch_vertices: 4,
        batch_images: 8,
        ..TrainConfig::default()
    };

    let zero = zero_shot_scores(&bundle.clip, &bundle.tokenizer, dataset);
    let hard = hard_prompt_scores(
        &bundle.clip,
        &bundle.tokenizer,
        dataset,
        &HardPromptOptions { hops: config.hops, ..HardPromptOptions::default() },
    );
    let cache = Rc::new(FeatureCache::new());
    let cached =
        cached_proximity_scores(&cache, &bundle.clip, &bundle.tokenizer, dataset, config.hops);

    // Tune the soft prompt for the full tier, then restore the pristine
    // towers so the baseline comparison below sees pre-trained weights.
    let snapshot = bundle.clip.state_dict();
    let mut rng = bundle.stage_rng(41);
    let trainer = CrossEmPlus::with_feature_cache(
        &bundle.clip,
        &bundle.tokenizer,
        dataset,
        config,
        PlusConfig { vertex_subsets: 2, image_clusters: 2, ..PlusConfig::default() },
        Rc::clone(&cache),
        &mut rng,
    );
    trainer.train(&mut rng);
    let full = trainer.matching_matrix().to_vec();
    bundle.clip.set_trainable(true);
    bundle.clip.load_state_dict(&snapshot);

    let index = ServeIndex::new(dataset.entity_count(), dataset.image_count(), [
        full, cached, hard, zero,
    ]);
    (bundle, index)
}

fn hits_at_10(rankings: &[Vec<usize>], dataset: &cem_data::EmDataset) -> f64 {
    let hits = rankings
        .iter()
        .enumerate()
        .filter(|(e, ranking)| ranking.iter().take(10).any(|&i| dataset.is_match(*e, i)))
        .count();
    hits as f64 / rankings.len() as f64
}

#[test]
fn degraded_service_serves_the_zero_shot_baseline_exactly() {
    let (bundle, index) = build_world();
    let dataset = &bundle.dataset;
    let entities = dataset.entity_count();

    let config = ServeConfig { seed: 17, top_k: 10, wave: 4, ..ServeConfig::default() };
    let mut service = MatchService::new(config, &index);
    // One request per entity (the stream walks entities round-robin).
    let requests = MatchRequest::stream(entities, entities, 17);
    let responses = service.run(&requests, &AllTiersDown);

    // Every request degrades all the way down — and resolves.
    let mut served: Vec<Vec<usize>> = vec![Vec::new(); entities];
    for (request, response) in requests.iter().zip(&responses) {
        match &response.outcome {
            Outcome::Served { tier, ranking } => {
                assert_eq!(*tier, Tier::Zero, "req {} did not reach the floor", response.id);
                served[request.entity] = ranking.clone();
            }
            other => panic!("req {} failed to resolve: {other:?}", response.id),
        }
    }
    assert_eq!(service.stats().served[Tier::Zero.index()], entities as u64);

    // The floor's answers are bit-identical to the cem-baselines CLIP
    // zero-shot ranking (same pristine weights, same Eq. 4 prompt).
    let baseline = cem_baselines::clip_zeroshot::score_matrix(
        &bundle.clip,
        &bundle.tokenizer,
        dataset,
    );
    let expected: Vec<Vec<usize>> = rank_images(&baseline, 0)
        .into_iter()
        .map(|mut r| {
            r.truncate(10);
            r
        })
        .collect();
    assert_eq!(served, expected, "degraded serving diverged from the zero-shot baseline");

    // And the degraded tier's quality matches the seed baseline: identical
    // Hits@10, well above a coin flip on the quickstart data.
    let served_h10 = hits_at_10(&served, dataset);
    let baseline_h10 = hits_at_10(&expected, dataset);
    assert!((served_h10 - baseline_h10).abs() < 1e-12);
    assert!(served_h10 > 0.5, "zero-shot floor Hits@10 {served_h10} is below tolerance");
}

/// Pins the fallback-granularity contract from DESIGN.md §14: when a
/// shard cluster is corrupt, only the requests whose probe schedule
/// touches it degrade to the dense tier (`stats.cluster_fallbacks`); the
/// rest of the wave keeps its probed rankings and `stats.wave_fallbacks`
/// stays zero. Every response — degraded or not — must be bit-identical
/// to an uncorrupted dense control.
#[test]
fn shard_corruption_degrades_clusters_not_waves() {
    let (entities, images, dim, nclusters) = (6usize, 40usize, 8usize, 4usize);
    let unit_rows = |n: usize, seed: u64| {
        let mut out = Vec::with_capacity(n * dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|d| {
                    (splitmix64(seed, (i * dim + d) as u64) >> 40) as f32 / (1u64 << 24) as f32
                        - 0.5
                })
                .collect();
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            out.extend(row.into_iter().map(|v| v / norm));
        }
        out
    };
    let queries = unit_rows(entities, 5);
    let embeddings = unit_rows(images, 6);
    let mut shards =
        ShardedIndex::build(queries, entities, &embeddings, images, dim, nclusters, 8, 7);
    // The full tier serves the shard panels' own dense scores, so probed
    // and fallback answers are comparable bitwise; other tiers are filler.
    let full = shards.dense_scores(1);
    let alt =
        |offset: f32| (0..entities * images).map(|i| i as f32 * 0.01 + offset).collect::<Vec<_>>();
    let index = ServeIndex::new(entities, images, [full, alt(0.1), alt(0.2), alt(0.3)]);

    // With nprobe = 1, some entities probe the victim cluster and some
    // avoid it — compute the split before corrupting anything.
    let nprobe = 1;
    let victim = (0..nclusters).find(|&c| !shards.shard(c).is_empty()).unwrap();
    let probing =
        (0..entities).filter(|&e| shards.probe(e, nprobe).contains(&victim)).count() as u64;
    let avoiding = entities as u64 - probing;
    assert!(probing > 0 && avoiding > 0, "fixture must split on cluster {victim}");
    shards.corrupt_shard_for_tests(victim);

    let config = ServeConfig {
        top_k: 10,
        wave: entities,
        nclusters,
        nprobe,
        ..ServeConfig::default()
    };
    // One request per entity, all in a single wave.
    let requests: Vec<MatchRequest> = MatchRequest::stream(entities, entities, 7)
        .into_iter()
        .enumerate()
        .map(|(i, request)| MatchRequest { entity: i, ..request })
        .collect();

    let mut dense = MatchService::new(config, &index);
    let dense_responses = dense.run(&requests, &NoFaults);

    let mut probed = MatchService::with_shards(config, &index, &shards);
    let probed_responses = probed.run(&requests, &NoFaults);

    // Degraded slots must serve the dense answer bitwise — corruption
    // costs the ANN speedup, never a wrong response. Healthy slots keep
    // their (narrower) nprobe = 1 rankings and merely have to resolve.
    for (request, (got, want)) in
        requests.iter().zip(probed_responses.iter().zip(&dense_responses))
    {
        assert!(matches!(got.outcome, Outcome::Served { .. }), "req {} unresolved", got.id);
        if shards.probe(request.entity, nprobe).contains(&victim) {
            assert_eq!(got, want, "degraded slot for entity {} diverged", request.entity);
        }
    }
    let stats = probed.stats();
    assert_eq!(stats.shards_quarantined, 1, "exactly the victim cluster is quarantined");
    assert_eq!(
        stats.cluster_fallbacks, probing,
        "only probe schedules touching cluster {victim} may degrade"
    );
    assert_eq!(stats.ann_requests, avoiding, "slots avoiding the victim stay on the ANN path");
    assert_eq!(stats.wave_fallbacks, 0, "corruption must never fail the whole wave");
    assert_eq!(dense.stats().ann_requests, 0, "the dense control never probes");
}

#[test]
fn degraded_service_is_thread_count_invariant() {
    let (_bundle, index) = build_world();
    let entities = index.entities();
    let requests = MatchRequest::stream(3 * entities, entities, 23);
    let run_with = |threads: usize| {
        let _guard = ThreadsGuard::new(threads);
        let mut service =
            MatchService::new(ServeConfig { seed: 23, wave: 4, ..ServeConfig::default() }, &index);
        let responses = service.run(&requests, &AllTiersDown);
        (responses, service.stats().clone(), service.trace_stats())
    };
    let (r1, s1, x1) = run_with(1);
    let (r4, s4, x4) = run_with(4);
    assert_eq!(r1, r4);
    assert_eq!(s1, s4);
    assert_eq!(x1, x4);
}
