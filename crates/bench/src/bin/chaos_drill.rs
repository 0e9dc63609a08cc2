//! Chaos drills for the serving path (`cem-serve`, DESIGN.md §11). The
//! drill builds the full four-tier [`ServeIndex`] from a trained world,
//! then drives [`MatchService`] through scripted fault storms — every
//! request must resolve as served, shed, or deadline-exceeded; a process
//! abort is an automatic failure. Six drills plus a determinism check:
//!
//! 1. **Latency spikes** — severe spikes blow the attempt timeout, retry
//!    to the cap, and degrade; mild spikes slow the request but still
//!    serve the full tier.
//! 2. **Worker panics** — panics are caught at the pool boundary, retried,
//!    and a panic storm trips the soft-encoder breaker; after the cooldown
//!    a probe recovers the tier.
//! 3. **NaN-poisoned features** — the non-finite top-score check degrades
//!    the request; the served ranking is exactly the clean next tier's.
//! 4. **Corrupted cache rows** — per-row CRC-32 verification catches the
//!    damage and degrades past the cached tier without retrying.
//! 5. **Overload** — bursts beyond the queue depth shed the tail
//!    deterministically at admission.
//! 6. **Disk faults on the generation store** — a scripted torn-rename
//!    publish (with transient EIOs absorbed by virtual-clock retry) must
//!    leave the previous generation recoverable, and the service must
//!    hot-swap to it and keep serving the full tier.
//!
//! The determinism check replays a combined fault storm at 1 and 4 worker
//! threads and requires bit-identical responses, stats, and trace stats.
//!
//! Per-tier wall latency (p50/p99 from the `serve.match.<tier>` spans),
//! shed rate, breaker trips, and degraded-tier accuracy vs. the full tier
//! are written to `BENCH_chaos.json`. Honours `--quick` / `--smoke`.

use std::rc::Rc;
use std::sync::Arc;

use cem_bench::faults::{DiskFaultPlan, ServeFaultPlan};
use cem_bench::{default_plus, prepare, report, HarnessConfig};
use cem_data::DatasetKind;
use cem_obs::{Object, Value};
use cem_serve::{
    cached_proximity_scores, hard_prompt_scores, silence_injected_panics, zero_shot_scores,
    BreakerConfig, BreakerState, Component, FaultKind, Generation, GenerationStore, MatchRequest,
    MatchService, Outcome, Response, ServeConfig, ServeIndex, ServeStats, Tier, TraceStats,
};
use cem_tensor::par::ThreadsGuard;
use crossem::io::{DiskFault, DiskOp, DiskRetryConfig, Storage};
use crossem::matcher::{rank_images, rank_row};
use crossem::metrics::{evaluate_rankings, Metrics};
use crossem::prompt::HardPromptOptions;
use crossem::plus::CrossEmPlus;
use crossem::{FeatureCache, PromptKind};

/// Stage index for the drill RNG (distinct from the table harness stages).
const DRILL_STAGE: u64 = 88;

/// Requests per drill stream. Long enough for a breaker to trip, cool
/// down (8..=12 ticks), half-open, and recover within one stream.
fn stream_len(quick: bool) -> usize {
    if quick {
        32
    } else {
        96
    }
}

fn serve_config(seed: u64, images: usize) -> ServeConfig {
    ServeConfig { seed, top_k: images.min(10), wave: 8, ..ServeConfig::default() }
}

/// The expected ranking a clean serve of `tier` must return — computed
/// straight off the index, independent of the service pipeline.
fn expected_ranking(index: &ServeIndex, tier: Tier, entity: usize, top_k: usize) -> Vec<usize> {
    rank_row(index.row(tier, entity), top_k)
}

fn served_tier(response: &Response) -> Option<Tier> {
    response.outcome.served_tier()
}

/// Every response must resolve to a terminal state. (The enum makes this
/// structural; the assertion documents the invariant, and burst-mode
/// drills must additionally never see the open-loop-only or internal-error
/// outcomes.)
fn assert_all_resolved(tag: &str, responses: &[Response]) {
    for r in responses {
        match &r.outcome {
            Outcome::Served { .. } | Outcome::Shed | Outcome::DeadlineExceeded => {}
            Outcome::Expired => panic!("[{tag}] req {}: queue expiry in burst mode", r.id),
            Outcome::InternalError => panic!("[{tag}] req {}: internal error", r.id),
        }
    }
    eprintln!("[{tag}] {} requests, all resolved", responses.len());
}

fn main() {
    silence_injected_panics();
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let config = if quick { HarnessConfig::quick() } else { HarnessConfig::standard() };
    let n = stream_len(quick);

    // ---------------------------------------------------------------
    // Build the four-tier index. The zero/hard/cached tiers score with
    // the *pristine* pre-trained towers (the cache fingerprint covers the
    // encoder weights, and prompt tuning mutates the text tower), so they
    // are computed before training; the full tier is the tuned CrossEM⁺
    // matching matrix.
    // ---------------------------------------------------------------
    let prepared = prepare(DatasetKind::Cub, &config);
    let bundle = &prepared.bundle;
    let dataset = &bundle.dataset;
    let train_config = prepared.train_config(PromptKind::Soft, config.em_epochs);

    eprintln!("[index] scoring zero-shot / hard-prompt / cached tiers (pristine towers) …");
    prepared.reset_clip();
    let zero = zero_shot_scores(&bundle.clip, &bundle.tokenizer, dataset);
    let hard = hard_prompt_scores(
        &bundle.clip,
        &bundle.tokenizer,
        dataset,
        &HardPromptOptions {
            hops: train_config.hops,
            max_subprompts: train_config.max_subprompts,
            ..HardPromptOptions::default()
        },
    );
    let cache = Rc::new(FeatureCache::new());
    let cached =
        cached_proximity_scores(&cache, &bundle.clip, &bundle.tokenizer, dataset, train_config.hops);

    eprintln!("[index] training CrossEM⁺ for the full tier ({} epochs) …", config.em_epochs);
    let mut rng = bundle.stage_rng(DRILL_STAGE);
    let trainer = CrossEmPlus::with_feature_cache(
        &bundle.clip,
        &bundle.tokenizer,
        dataset,
        train_config,
        default_plus(),
        Rc::clone(&cache),
        &mut rng,
    );
    trainer.train(&mut rng);
    let full = trainer.matching_matrix().to_vec();

    let entities = dataset.entity_count();
    let images = dataset.image_count();
    let index = ServeIndex::new(entities, images, [full, cached, hard, zero]);

    // Per-tier accuracy straight off the index: what each rung of the
    // ladder costs in ranking quality when the service degrades to it.
    let tier_metrics: [Metrics; Tier::COUNT] = std::array::from_fn(|t| {
        let rankings = rank_images(&index.tier_matrix(Tier::ALL[t]), 0);
        evaluate_rankings(&rankings, |e, i| dataset.is_match(e, i))
    });
    let full_mrr = tier_metrics[Tier::Full.index()].mrr as f64;
    for tier in Tier::ALL {
        eprintln!("[accuracy] {:<6} {}", tier.label(), tier_metrics[tier.index()].row());
    }

    // Telemetry on for the serving phase; span deltas taken at the end.
    let _obs = cem_obs::force_enable();
    let obs_before = cem_obs::global().snapshot();
    let base = serve_config(config.seed, images);
    let mut total = ServeStats::default();
    // Sampler/SLO totals across drills. No JSONL sink is installed here, so
    // sampled traces are counted but not written — the stats still pin the
    // deterministic sampling behaviour under fault storms.
    let mut trace_total = TraceStats::default();

    // ---------------------------------------------------------------
    // Drill 1: latency spikes. Breaker threshold is lifted out of the way
    // so the verdict isolates timeout/retry/degrade behaviour.
    // ---------------------------------------------------------------
    eprintln!("[drill 1] latency spikes (severe time out, mild serve) …");
    let severe = n / 4;
    let mild = n / 2;
    let mut plan = ServeFaultPlan::new();
    for id in 0..severe as u64 {
        plan = plan.fault_all_attempts(id, Tier::Full, FaultKind::LatencySpike { units: 10_000 });
    }
    for id in severe as u64..mild as u64 {
        plan = plan.fault_all_attempts(id, Tier::Full, FaultKind::LatencySpike { units: 100 });
    }
    let lifted = BreakerConfig { failure_threshold: u32::MAX, ..base.breaker };
    let mut service =
        MatchService::new(ServeConfig { breaker: lifted, ..base }, &index);
    let responses = service.run(&MatchRequest::stream(n, entities, config.seed), &plan);
    assert_all_resolved("drill 1", &responses);
    let drill1_pass = responses.iter().all(|r| {
        let id = r.id as usize;
        if id < severe {
            // Severe: every attempt times out → retried to the cap, then
            // served from the cached tier.
            served_tier(r) == Some(Tier::Cached) && r.retries == base.retry.max_retries
        } else if id < mild {
            // Mild: slowed but under the attempt timeout → full tier,
            // with the spike charged to the virtual clock.
            served_tier(r) == Some(Tier::Full)
                && r.cost_units == base.tier_cost[Tier::Full.index()] + 100
        } else {
            served_tier(r) == Some(Tier::Full)
        }
    }) && service.stats().breaker_trips == 0;
    total_add(&mut total, service.stats());
    trace_total.merge(&service.trace_stats());
    println!("[drill 1] latency spikes → {}", verdict(drill1_pass));

    // ---------------------------------------------------------------
    // Drill 2: worker panic storm trips the breaker; a probe recovers it.
    // ---------------------------------------------------------------
    eprintln!("[drill 2] panic storm → breaker trip → probe recovery …");
    let storm = 6u64;
    let mut plan = ServeFaultPlan::new();
    for id in 0..storm {
        plan = plan.fault_all_attempts(id, Tier::Full, FaultKind::WorkerPanic);
    }
    let mut service = MatchService::new(base, &index);
    let responses = service.run(&MatchRequest::stream(n, entities, config.seed), &plan);
    assert_all_resolved("drill 2", &responses);
    let tripped = service.breaker_trips(Component::SoftEncoder) >= 1;
    // A request outside the storm served cached on its first attempt at
    // exactly the cached tier's cost never tried full: only an open breaker
    // skips a tier that way.
    let skipped = responses.iter().any(|r| {
        r.id >= storm
            && served_tier(r) == Some(Tier::Cached)
            && r.retries == 0
            && r.cost_units == base.tier_cost[Tier::Cached.index()]
    });
    // Tripped, yet closed at the end: a half-open probe recovered it.
    let recovered =
        tripped && service.breaker_state(Component::SoftEncoder) == BreakerState::Closed;
    let storm_degraded = responses
        .iter()
        .take(storm as usize)
        .all(|r| served_tier(r) == Some(Tier::Cached));
    let tail_full = served_tier(responses.last().unwrap()) == Some(Tier::Full);
    let drill2_pass = tripped && skipped && recovered && storm_degraded && tail_full;
    total_add(&mut total, service.stats());
    trace_total.merge(&service.trace_stats());
    println!(
        "[drill 2] trips {} skipped {skipped} recovered {recovered} → {}",
        service.breaker_trips(Component::SoftEncoder),
        verdict(drill2_pass)
    );

    // ---------------------------------------------------------------
    // Drill 3: NaN-poisoned features degrade without retry and never leak
    // a garbage ranking — the served ranking is the clean cached tier's.
    // ---------------------------------------------------------------
    eprintln!("[drill 3] NaN-poisoned full-tier features …");
    let poisoned = n / 3;
    let mut plan = ServeFaultPlan::new();
    for id in 0..poisoned as u64 {
        plan = plan.fault_all_attempts(id, Tier::Full, FaultKind::NanFeatures);
    }
    let mut service =
        MatchService::new(ServeConfig { breaker: lifted, ..base }, &index);
    let requests = MatchRequest::stream(n, entities, config.seed);
    let responses = service.run(&requests, &plan);
    assert_all_resolved("drill 3", &responses);
    let drill3_pass = responses.iter().zip(&requests).all(|(r, q)| {
        let want = if (r.id as usize) < poisoned { Tier::Cached } else { Tier::Full };
        match &r.outcome {
            Outcome::Served { tier, ranking } => {
                *tier == want
                    && r.retries == 0
                    && *ranking == expected_ranking(&index, want, q.entity, base.top_k)
            }
            _ => false,
        }
    });
    total_add(&mut total, service.stats());
    trace_total.merge(&service.trace_stats());
    println!("[drill 3] NaN features → {}", verdict(drill3_pass));

    // ---------------------------------------------------------------
    // Drill 4: corrupted cache rows. NaN kills the full tier, the CRC
    // check kills the cached tier, so the storm lands on the hard tier.
    // ---------------------------------------------------------------
    eprintln!("[drill 4] corrupted cache rows under a NaN-poisoned full tier …");
    let corrupted = n / 3;
    let mut plan = ServeFaultPlan::new();
    for id in 0..corrupted as u64 {
        plan = plan
            .fault_all_attempts(id, Tier::Full, FaultKind::NanFeatures)
            .fault_all_attempts(id, Tier::Cached, FaultKind::CorruptCache);
    }
    let mut service =
        MatchService::new(ServeConfig { breaker: lifted, ..base }, &index);
    let responses = service.run(&MatchRequest::stream(n, entities, config.seed), &plan);
    assert_all_resolved("drill 4", &responses);
    // Served hard without a single retry: the NaN check and the row CRC
    // each degraded on the spot (a panic or timeout would have retried).
    let drill4_pass = responses.iter().all(|r| {
        let want = if (r.id as usize) < corrupted { Tier::Hard } else { Tier::Full };
        served_tier(r) == Some(want) && r.retries == 0
    });
    total_add(&mut total, service.stats());
    trace_total.merge(&service.trace_stats());
    println!("[drill 4] corrupt cache → {}", verdict(drill4_pass));

    // ---------------------------------------------------------------
    // Drill 5: overload sheds the tail at admission, nothing else.
    // ---------------------------------------------------------------
    eprintln!("[drill 5] overload burst past the queue depth …");
    let depth = n / 2;
    let mut service =
        MatchService::new(ServeConfig { max_queue_depth: depth, ..base }, &index);
    let responses = service.run(
        &MatchRequest::stream(n, entities, config.seed),
        &ServeFaultPlan::new(),
    );
    assert_all_resolved("drill 5", &responses);
    let drill5_pass = service.stats().shed == (n - depth) as u64
        && service.stats().admitted == depth as u64
        && responses[..depth].iter().all(|r| served_tier(r) == Some(Tier::Full))
        && responses[depth..].iter().all(|r| r.outcome == Outcome::Shed);
    total_add(&mut total, service.stats());
    trace_total.merge(&service.trace_stats());
    println!(
        "[drill 5] shed {}/{} → {}",
        service.stats().shed,
        n,
        verdict(drill5_pass)
    );

    // ---------------------------------------------------------------
    // Drill 6: disk faults on the generation store. The publish of
    // generation 2 absorbs two transient EIOs on the incoming fsync
    // (bounded virtual-clock retry), then dies on a torn promote rename —
    // generation 1 must remain loadable from `prev`, and the service must
    // hot-swap to it and serve the full tier cleanly.
    // ---------------------------------------------------------------
    eprintln!("[drill 6] torn generation publish → prev recovery → hot-swap …");
    let dir_disk =
        std::env::temp_dir().join(format!("cem_chaos_disk_{}", std::process::id()));
    std::fs::remove_dir_all(&dir_disk).ok();
    let clone_index = || {
        ServeIndex::new(
            entities,
            images,
            std::array::from_fn(|t| index.tier_rows(Tier::ALL[t]).to_vec()),
        )
    };
    let clean_store = GenerationStore::new(&dir_disk).expect("scratch dir");
    clean_store.publish(&Generation::new(1, clone_index())).expect("gen 1 publish");
    let disk_plan = DiskFaultPlan::new()
        .fault_at(DiskOp::Fsync, "ckpt-incoming.cemt", 0, DiskFault::TransientEio)
        .fault_at(DiskOp::Fsync, "ckpt-incoming.cemt", 1, DiskFault::TransientEio)
        .fault_at(DiskOp::Rename, "ckpt-latest.cemt", 0, DiskFault::TornRename { keep: 64 });
    let faulty_store = GenerationStore::with_storage(
        &dir_disk,
        Storage::with_injector(Arc::new(disk_plan), DiskRetryConfig::default()),
    )
    .expect("scratch dir");
    let torn_publish = faulty_store.publish(&Generation::new(2, clone_index())).is_err();
    let transients_absorbed =
        faulty_store.storage().retries() == 2 && faulty_store.storage().backoff_units() == 24;
    let recovered = clean_store.load().map(|g| g.id).unwrap_or(0) == 1;
    let mut service = MatchService::new(base, &index);
    let staged =
        clean_store.load().map(|g| service.stage(g).is_ok()).unwrap_or(false);
    let requests = MatchRequest::stream(n, entities, config.seed);
    let responses = service.run(&requests, &ServeFaultPlan::new());
    assert_all_resolved("drill 6", &responses);
    let served_clean = service.generation() == 1
        && responses.iter().zip(&requests).all(|(r, q)| match &r.outcome {
            Outcome::Served { tier, ranking } => {
                *tier == Tier::Full
                    && *ranking == expected_ranking(&index, Tier::Full, q.entity, base.top_k)
            }
            _ => false,
        });
    let drill6_pass =
        torn_publish && transients_absorbed && recovered && staged && served_clean;
    total_add(&mut total, service.stats());
    trace_total.merge(&service.trace_stats());
    std::fs::remove_dir_all(&dir_disk).ok();
    println!(
        "[drill 6] torn publish {torn_publish}, retries absorbed {transients_absorbed}, \
         prev recovered {recovered} → {}",
        verdict(drill6_pass)
    );

    // ---------------------------------------------------------------
    // Determinism: a combined storm replayed at 1 and 4 threads must be
    // bit-identical — responses, stats, and trace stats.
    // ---------------------------------------------------------------
    eprintln!("[determinism] combined storm at 1 vs 4 threads …");
    let mut storm_plan = ServeFaultPlan::new();
    for id in 0..(n / 6) as u64 {
        storm_plan = storm_plan.fault_all_attempts(id, Tier::Full, FaultKind::WorkerPanic);
    }
    for id in (n / 6) as u64..(n / 3) as u64 {
        storm_plan = storm_plan
            .fault_all_attempts(id, Tier::Full, FaultKind::LatencySpike { units: 10_000 })
            .fault_all_attempts(id, Tier::Cached, FaultKind::CorruptCache);
    }
    for id in (n / 3) as u64..(n / 2) as u64 {
        storm_plan = storm_plan.fault_all_attempts(id, Tier::Full, FaultKind::NanFeatures);
    }
    let requests = MatchRequest::stream(n, entities, config.seed.wrapping_add(1));
    let run_with = |threads: usize| {
        let _guard = ThreadsGuard::new(threads);
        let mut service = MatchService::new(base, &index);
        let responses = service.run(&requests, &storm_plan);
        (responses, service.stats().clone(), service.trace_stats())
    };
    let (r1, s1, x1) = run_with(1);
    let (r4, s4, x4) = run_with(4);
    let determinism_pass = r1 == r4 && s1 == s4 && x1 == x4;
    total_add(&mut total, &s1);
    total_add(&mut total, &s4);
    trace_total.merge(&x1);
    trace_total.merge(&x4);
    println!("[determinism] 1 vs 4 threads → {}", verdict(determinism_pass));

    // ---------------------------------------------------------------
    // Summary + BENCH_chaos.json
    // ---------------------------------------------------------------
    let obs_after = cem_obs::global().snapshot();
    let window = obs_after.delta_since(&obs_before);
    let latency_ms = |tier: Tier, q: f64| -> f64 {
        window
            .span(&format!("serve.match.{}", tier.label()))
            .map_or(0.0, |s| s.approx_quantile(q) / 1e6)
    };

    let all_pass = drill1_pass
        && drill2_pass
        && drill3_pass
        && drill4_pass
        && drill5_pass
        && drill6_pass
        && determinism_pass;
    let processed = total.admitted + total.shed;
    let shed_rate = if processed == 0 { 0.0 } else { total.shed as f64 / processed as f64 };
    println!(
        "\nserving: {} requests, shed rate {:.3}, {} breaker trips, {} retries, \
         {} deadline-exceeded",
        processed, shed_rate, total.breaker_trips, total.retries, total.deadline_exceeded
    );
    println!("chaos drill: {}", if all_pass { "ALL PASS" } else { "FAILURES" });

    let tiers = Tier::ALL.iter().fold(Object::new(), |tiers, tier| {
        let m = &tier_metrics[tier.index()];
        let served = total.served[tier.index()];
        // A tier that served nothing has no accuracy sample; null beats a
        // fabricated 0.0 that downstream dashboards would average in.
        let accuracy = |x: f64| (served > 0).then(|| Value::fixed(x, 4));
        let row = Object::new()
            .field("served", served)
            .field("latency_p50_ms", Value::fixed(latency_ms(*tier, 0.5), 4))
            .field("latency_p99_ms", Value::fixed(latency_ms(*tier, 0.99), 4))
            .field("hits_at_1", accuracy(m.hits_at_1 as f64))
            .field("mrr", accuracy(m.mrr as f64))
            .field("mrr_vs_full", accuracy(m.mrr as f64 / full_mrr.max(1e-9)));
        tiers.field(tier.label(), row)
    });
    let summary = Object::new()
        .field("harness", "chaos_drill")
        .field("scale", if quick { "quick" } else { "standard" })
        .field("entities", entities)
        .field("images", images)
        .field("requests_per_drill", n)
        .field("tiers", tiers)
        .field("shed_rate", Value::fixed(shed_rate, 4))
        .field("breaker_trips", total.breaker_trips)
        .field("retries", total.retries)
        .field("deadline_exceeded", total.deadline_exceeded)
        .field("trace", report::trace_stats(&trace_total))
        .field("drill1_latency_pass", drill1_pass)
        .field("drill2_panic_breaker_pass", drill2_pass)
        .field("drill3_nan_pass", drill3_pass)
        .field("drill4_corrupt_cache_pass", drill4_pass)
        .field("drill5_shed_pass", drill5_pass)
        .field("drill6_disk_fault_pass", drill6_pass)
        .field("determinism_pass", determinism_pass)
        .field("all_pass", all_pass);
    report::publish("BENCH_chaos.json", summary);

    if !all_pass {
        std::process::exit(1);
    }
}

fn total_add(total: &mut ServeStats, stats: &ServeStats) {
    total.admitted += stats.admitted;
    total.shed += stats.shed;
    total.expired += stats.expired;
    for t in 0..Tier::COUNT {
        total.served[t] += stats.served[t];
        total.brownout_waves[t] += stats.brownout_waves[t];
    }
    total.deadline_exceeded += stats.deadline_exceeded;
    total.internal_errors += stats.internal_errors;
    total.retries += stats.retries;
    total.breaker_trips += stats.breaker_trips;
    total.waves += stats.waves;
    total.hotswap_promotes += stats.hotswap_promotes;
    total.hotswap_rejects += stats.hotswap_rejects;
    total.ann_requests += stats.ann_requests;
    total.cluster_fallbacks += stats.cluster_fallbacks;
    total.wave_fallbacks += stats.wave_fallbacks;
    total.shards_quarantined += stats.shards_quarantined;
    total.shards_repaired += stats.shards_repaired;
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}
