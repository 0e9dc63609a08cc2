//! End-to-end contracts of the serving trace pipeline (`cem_serve::trace` +
//! `cem_obs::{trace, sampler, slo}`):
//!
//! 1. **Tracing is invisible** — responses, stats, and SLO totals are
//!    bit-identical with tracing on vs off.
//! 2. **The stream is deterministic** — the `trace`/`slo_alert` lines and
//!    the service's `breaker_transition`/`brownout_shift`/`repair_failed`
//!    events (wall timestamps stripped) are byte-identical at 1 vs 4
//!    worker threads, across a mid-run hot-swap boundary.
//! 3. **Span trees record the fault path** — a request that panics through
//!    its retries and degrades past a corrupt cache carries every attempt,
//!    backoff, and cause in its sampled tree.
//! 4. **Tail sampling keeps what matters** — every flagged (shed, retried,
//!    slow, deadline) request and every top-latency-decile request of an
//!    overloaded run appears in the stream.
//! 5. **Service events are exact** — breaker trips and recoveries,
//!    brownout shifts, and failed repairs each emit one typed line with
//!    the expected fields, in order.
//!
//! Observability state (enable flag, registry, sink) is process-global, so
//! every test serialises on a mutex.

use std::path::PathBuf;
use std::sync::Mutex;

use cem_obs::{Object, ObsSession, RunManifest};
use cem_serve::{
    silence_injected_panics, splitmix64, trace_id, Arrival, BreakerConfig, BreakerState,
    BrownoutConfig, Component, FaultKind, Generation, GenerationStore, MatchRequest, MatchService,
    NoFaults, Outcome, Response, ServeConfig, ServeFault, ServeIndex, ServeStats, ShardedIndex,
    Tier,
};
use cem_tensor::par::ThreadsGuard;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

const ENTITIES: usize = 16;
const IMAGES: usize = 64;

/// Seeded synthetic four-tier index (same construction as the load drill):
/// deterministic and tie-free, so rankings are stable across runs.
fn synthetic_index(seed: u64) -> ServeIndex {
    let matrix = |tier: u64| -> Vec<f32> {
        (0..ENTITIES * IMAGES)
            .map(|i| {
                let bits = splitmix64(seed ^ (0x51C3 + tier), i as u64);
                ((bits >> 40) as f32) / (1u64 << 24) as f32
            })
            .collect()
    };
    ServeIndex::new(ENTITIES, IMAGES, [matrix(0), matrix(1), matrix(2), matrix(3)])
}

/// A uniformly spaced arrival schedule; `spacing` below 50 units overloads
/// the default config (full-tier saturation is one request per 50 units).
fn arrivals(n: usize, spacing: u64, seed: u64) -> Vec<Arrival> {
    MatchRequest::stream(n, ENTITIES, seed)
        .into_iter()
        .enumerate()
        .map(|(i, request)| Arrival { at: i as u64 * spacing, request })
        .collect()
}

fn scratch_jsonl(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cem_tracing_test_{tag}_{}.jsonl", std::process::id()))
}

/// The service's typed event kinds (span trees aside).
const SERVICE_EVENTS: [&str; 3] = ["breaker_transition", "brownout_shift", "repair_failed"];

/// The deterministic subset of a stream: `trace`, `slo_alert`, and service
/// event lines with the wall-clock `t_ms` field stripped (it is pushed last
/// by the sink, so a plain suffix cut recovers the deterministic prefix).
fn deterministic_lines(path: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("stream was written");
    text.lines()
        .filter(|line| {
            let parsed = Object::parse(line).expect("valid stream line");
            let kind = parsed.str("type").unwrap_or("");
            kind == "trace" || kind == "slo_alert" || SERVICE_EVENTS.contains(&kind)
        })
        .map(|line| match line.rfind(",\"t_ms\":") {
            Some(cut) => format!("{}{}", &line[..cut], "}"),
            None => line.to_string(),
        })
        .collect()
}

/// Run an overloaded open-loop schedule with a mid-run hot-swap under an
/// obs session at `threads` workers; return the deterministic artefacts.
fn traced_swap_run(
    tag: &str,
    threads: usize,
    schedule: &[Arrival],
) -> (Vec<Response>, ServeStats, Vec<String>) {
    let path = scratch_jsonl(tag);
    let session = ObsSession::begin(&path, &RunManifest::new(tag).threads(threads))
        .expect("temp dir is writable");
    let _guard = ThreadsGuard::new(threads);
    let config = ServeConfig::default();
    let mut service = MatchService::with_generation(config, Generation::new(1, synthetic_index(7)));
    let swap_wave = schedule[schedule.len() / 2].at / config.wave_units;
    service.schedule_swap(swap_wave, Ok(Generation::new(2, synthetic_index(7 ^ 0x5A))));
    let responses = service.run_open_loop(schedule, &NoFaults);
    let stats = service.stats().clone();
    session.finish(&[]);
    let lines = deterministic_lines(&path);
    let _ = std::fs::remove_file(&path);
    assert!(!lines.is_empty(), "an overloaded traced run must sample traces");
    (responses, stats, lines)
}

/// Contract 2: the sampled stream is byte-identical at 1 vs 4 threads, on a
/// schedule that crosses a hot-swap boundary mid-run — brownout shifts
/// included.
#[test]
fn sampled_stream_is_bit_identical_across_threads_and_hotswap() {
    let _guard = lock();
    let schedule = arrivals(1_500, 12, 0xACE);
    let (r1, s1, lines1) = traced_swap_run("stream_t1", 1, &schedule);
    let (r4, s4, lines4) = traced_swap_run("stream_t4", 4, &schedule);
    assert_eq!(r1, r4, "responses diverged across thread counts");
    assert_eq!(s1, s4, "stats diverged across thread counts");
    assert_eq!(lines1, lines4, "sampled trace stream diverged across thread counts");
    assert!(s1.hotswap_promotes >= 1, "the schedule must cross a swap boundary");
    assert!(
        lines1.iter().any(|line| line.contains("\"type\":\"brownout_shift\"")),
        "the overload must shift the brownout cap"
    );
}

/// Contract 1: tracing observes, never participates. The same schedule with
/// no obs session (tracing off) and with one (tracing on) produces equal
/// responses, stats, and SLO totals (the SLO monitor counts either way).
#[test]
fn tracing_is_invisible_to_responses_trace_and_stats() {
    let _guard = lock();
    let schedule = arrivals(800, 12, 0xBEE);
    let index = synthetic_index(9);
    let run = |session: Option<&PathBuf>| {
        let _sink = session.map(|path| {
            ObsSession::begin(path, &RunManifest::new("invisible")).expect("writable")
        });
        let mut service = MatchService::new(ServeConfig::default(), &index);
        let responses = service.run_open_loop(&schedule, &NoFaults);
        let x = service.trace_stats();
        let slo = (x.slo_good, x.slo_bad, x.slo_alerts, x.slo_burn_peak);
        (responses, service.stats().clone(), slo)
    };
    let plain = run(None);
    let path = scratch_jsonl("invisible");
    let traced = run(Some(&path));
    let _ = std::fs::remove_file(&path);
    assert_eq!(plain.0, traced.0, "responses diverged under tracing");
    assert_eq!(plain.1, traced.1, "stats diverged under tracing");
    assert_eq!(plain.2, traced.2, "SLO totals diverged under tracing");
}

/// Transient faults on the richer tiers: panics on the full tier force the
/// retry/backoff path, cache corruption forces degradation.
struct FlakyTiers;

impl ServeFault for FlakyTiers {
    fn inject(&self, request_id: u64, tier: Tier, attempt: u32) -> Option<FaultKind> {
        match tier {
            // id 0 (and every 6th) exhausts the full tier's retry budget and
            // falls through to a corrupt cache; other multiples of 3 recover
            // on their last retry.
            Tier::Full if request_id.is_multiple_of(6) => Some(FaultKind::WorkerPanic),
            Tier::Full if request_id.is_multiple_of(3) && attempt < 2 => {
                Some(FaultKind::WorkerPanic)
            }
            Tier::Cached if request_id.is_multiple_of(6) => Some(FaultKind::CorruptCache),
            _ => None,
        }
    }
}

/// Contract 3: request 0 of a `FlakyTiers` burst panics through every full
/// attempt, degrades past a corrupt cache, and is served by the hard tier;
/// its sampled span tree records each step with its cause.
#[test]
fn span_tree_records_retries_and_degradation() {
    let _guard = lock();
    silence_injected_panics();
    let path = scratch_jsonl("fault_path");
    let session =
        ObsSession::begin(&path, &RunManifest::new("fault_path")).expect("temp dir is writable");
    let index = synthetic_index(3);
    let config = ServeConfig::default();
    let mut service = MatchService::new(config, &index);
    let requests = MatchRequest::stream(64, ENTITIES, 0xFA);
    let responses = service.run(&requests, &FlakyTiers);
    session.finish(&[]);
    let text = std::fs::read_to_string(&path).expect("stream was written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(responses.len(), 64);
    assert_eq!(responses[0].outcome.served_tier(), Some(Tier::Hard));

    let id = format!("{:016x}", trace_id(&requests[0]));
    let spans: Vec<Object> = text
        .lines()
        .map(|line| Object::parse(line).expect("valid stream line"))
        .filter(|event| event.str("type") == Some("trace") && event.str("trace_id") == Some(&id))
        .collect();
    assert!(!spans.is_empty(), "request 0 is flagged, so its tree must be sampled");
    assert_eq!(spans[0].num("req"), Some(0.0));
    assert_eq!(spans[0].str("tier"), Some("hard"));
    let count = |name: &str, tier: Option<&str>, cause: Option<&str>| {
        spans
            .iter()
            .filter(|s| {
                s.str("span") == Some(name)
                    && (tier.is_none() || s.str("tier") == tier)
                    && s.str("cause") == cause
            })
            .count()
    };
    let max_retries = config.retry.max_retries as usize;
    assert_eq!(count("attempt", Some("full"), Some("panic")), max_retries + 1);
    assert_eq!(count("retry_backoff", Some("full"), None), max_retries);
    assert_eq!(count("attempt", Some("cached"), Some("crc_fallback")), 1);
    assert_eq!(count("attempt", Some("hard"), None), 1, "served hard attempt");
    assert_eq!(count("rank", None, None), 1);
}

/// Contract 4: everything flagged and everything in the top latency decile
/// of an overloaded run is in the stream, and roots are schema-complete.
#[test]
fn tail_sampling_keeps_flagged_and_top_decile_requests() {
    let _guard = lock();
    let schedule = arrivals(1_200, 10, 0xDECE);
    let path = scratch_jsonl("tail");
    let session =
        ObsSession::begin(&path, &RunManifest::new("tail")).expect("temp dir is writable");
    let index = synthetic_index(5);
    let config = ServeConfig::default();
    let mut service = MatchService::new(config, &index);
    let responses = service.run_open_loop(&schedule, &NoFaults);
    let stats = service.trace_stats();
    session.finish(&[]);

    let text = std::fs::read_to_string(&path).expect("stream was written");
    let _ = std::fs::remove_file(&path);
    let mut sampled_reqs: Vec<u64> = Vec::new();
    let mut sampled_ids: Vec<String> = Vec::new();
    for line in text.lines() {
        let event = Object::parse(line).expect("valid stream line");
        if event.str("type") != Some("trace") || event.num("idx") != Some(0.0) {
            continue;
        }
        sampled_reqs.push(event.num("req").expect("root line carries req") as u64);
        sampled_ids.push(event.str("trace_id").expect("root line carries trace_id").to_string());
    }
    assert_eq!(sampled_reqs.len() as u64, stats.sampled, "stream matches sampler stats");

    // Every flagged request (with NoFaults: shed, expired, deadline,
    // retried, or over the latency SLO) must be in the stream …
    let slo = config.trace.slo_latency_units;
    for response in &responses {
        let flagged = !matches!(response.outcome, Outcome::Served { .. })
            || response.retries > 0
            || response.latency_units() > slo;
        if flagged {
            assert!(
                sampled_reqs.contains(&response.id),
                "flagged request {} (latency {}) missing from the stream",
                response.id,
                response.latency_units()
            );
        }
    }

    // … and so must every request in the top latency decile of the run.
    let mut latencies: Vec<u64> = responses.iter().map(Response::latency_units).collect();
    latencies.sort_unstable();
    let p90 = latencies[(latencies.len() * 9) / 10];
    for response in &responses {
        if response.latency_units() >= p90 {
            assert!(
                sampled_reqs.contains(&response.id),
                "top-decile request {} (latency {} >= p90 {p90}) missing from the stream",
                response.id,
                response.latency_units()
            );
        }
    }

    // Trace ids in the stream match the deterministic derivation.
    let requests: std::collections::HashMap<u64, MatchRequest> =
        schedule.iter().map(|a| (a.request.id, a.request)).collect();
    for (req, id_hex) in sampled_reqs.iter().zip(&sampled_ids) {
        let expect = format!("{:016x}", trace_id(&requests[req]));
        assert_eq!(*id_hex, expect, "trace id mismatch for request {req}");
    }
}

/// A shard index over the synthetic catalogue (4 clusters), for the
/// repair scenario.
fn synthetic_shards(seed: u64) -> ShardedIndex {
    let dim = 8;
    let rows = |n: usize, stream: u64| -> Vec<f32> {
        (0..n * dim)
            .map(|i| (splitmix64(seed ^ stream, i as u64) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect()
    };
    ShardedIndex::build(rows(ENTITIES, 1), ENTITIES, &rows(IMAGES, 2), IMAGES, dim, 4, 8, 7)
}

/// Contract 5: breaker transitions, brownout shifts, and failed repairs each
/// emit exactly one typed line, with the expected fields and order.
#[test]
fn service_events_record_breakers_brownout_and_failed_repairs() {
    let _guard = lock();
    silence_injected_panics();
    let path = scratch_jsonl("service_events");
    let session = ObsSession::begin(&path, &RunManifest::new("service_events"))
        .expect("temp dir is writable");

    // 1. Request 0 panics through all three full-tier attempts, meeting the
    // threshold: soft_encoder trips at tick 1. The cooldown ends at tick 5,
    // so request 5's slot-0 probe (fault-free) folds at tick 6 and recovers
    // it; request 3 never reaches the open tier.
    let breaker = BreakerConfig { failure_threshold: 3, cooldown_base: 4, cooldown_jitter: 0 };
    let index = synthetic_index(11);
    let mut service =
        MatchService::new(ServeConfig { wave: 1, breaker, ..ServeConfig::default() }, &index);
    service.run(&MatchRequest::stream(6, ENTITIES, 0xB4), &FlakyTiers);
    assert_eq!(service.breaker_trips(Component::SoftEncoder), 1);
    assert_eq!(service.breaker_state(Component::SoftEncoder), BreakerState::Closed);

    // 2. A saturating burst fills the queue (demote at wave 0); the calm
    // tail restores the cap. The promotion lands on the first wave after
    // the ones spent at the cached cap.
    let config = ServeConfig {
        wave: 32,
        queue_capacity: 64,
        brownout: BrownoutConfig { recovery_waves: 2, ..BrownoutConfig::default() },
        ..ServeConfig::default()
    };
    let mut schedule = arrivals(64, 0, 0xB5);
    for (i, request) in MatchRequest::stream(12, ENTITIES, 0xB6).into_iter().enumerate() {
        let request = MatchRequest { id: 100 + i as u64, ..request };
        schedule.push(Arrival { at: 2_000 + i as u64 * 400, request });
    }
    let mut service = MatchService::new(config, &index);
    service.run_open_loop(&schedule, &NoFaults);
    let cached_waves = service.stats().brownout_waves[Tier::Cached.index()];
    assert!(cached_waves > 0);
    assert_eq!(service.brownout_cap(), Tier::Full);

    // 3. A quarantined shard cannot heal while the store holds generation
    // 2 and generation 1 serves: one donor_mismatch per wave boundary.
    let dir = std::env::temp_dir().join(format!("cem_tracing_donor_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = synthetic_shards(13);
    let victim = (0..shards.nclusters()).find(|&c| !shards.shard(c).is_empty()).unwrap();
    let store = GenerationStore::new(&dir).expect("temp dir is writable");
    store.publish(&Generation::new(2, synthetic_index(13))).expect("publish generation 2");
    let config = ServeConfig {
        wave: 4,
        nclusters: shards.nclusters(),
        nprobe: shards.nclusters(),
        // One full scrub cycle per boundary: dense rows, clusters, two files.
        scrub_sections_per_wave: Tier::COUNT * ENTITIES + shards.nclusters() + 2,
        ..ServeConfig::default()
    };
    let generation =
        Generation::with_shards(1, synthetic_index(13), shards).expect("same catalogue");
    let mut service = MatchService::with_generation(config, generation);
    service.attach_store(store);
    service.corrupt_owned_shard_for_tests(victim);
    let bursts = 3;
    for _ in 0..bursts {
        service.run(&MatchRequest::stream(config.wave, ENTITIES, 0xB7), &NoFaults);
    }
    assert_eq!(service.quarantined().iter().copied().collect::<Vec<_>>(), vec![victim]);
    assert_eq!(service.stats().shards_repaired, 0);
    std::fs::remove_dir_all(&dir).ok();

    session.finish(&[]);
    let text = std::fs::read_to_string(&path).expect("stream was written");
    let _ = std::fs::remove_file(&path);
    let events: Vec<Object> = text
        .lines()
        .map(|line| {
            let event = Object::parse(line).expect("every line parses flat");
            assert!(event.str("type").is_some(), "untyped line {line}");
            event
        })
        .filter(|event| SERVICE_EVENTS.contains(&event.str("type").unwrap()))
        .collect();
    let rendered: Vec<String> = events
        .iter()
        .map(|e| match e.str("type").unwrap() {
            "breaker_transition" => format!(
                "breaker_transition {} {} {}",
                e.str("component").unwrap(),
                e.str("transition").unwrap(),
                e.num("tick").unwrap()
            ),
            "brownout_shift" => format!(
                "brownout_shift {} {} {}",
                e.str("from").unwrap(),
                e.str("to").unwrap(),
                e.num("wave").unwrap()
            ),
            _ => format!("repair_failed {} {}", e.str("stage").unwrap(), e.str("error").unwrap()),
        })
        .collect();
    let mut expected = vec![
        "breaker_transition soft_encoder tripped 1".to_string(),
        "breaker_transition soft_encoder recovered 6".to_string(),
        "brownout_shift full cached 0".to_string(),
        format!("brownout_shift cached full {cached_waves}"),
    ];
    for _ in 0..bursts {
        expected.push(
            "repair_failed donor_mismatch donor generation 2 does not match serving 1".to_string(),
        );
    }
    assert_eq!(rendered, expected);
}
