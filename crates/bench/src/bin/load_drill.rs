//! Open-loop load drills for the overload-resilience subsystem
//! (`cem-serve`, DESIGN.md §12). Unlike `chaos_drill` (closed-loop fault
//! storms over a trained index), this harness drives 10⁵+ *synthetic*
//! requests through [`MatchService::run_open_loop`] on generated arrival
//! schedules — the index is synthesised from a seeded score stream, so the
//! drill isolates scheduling behaviour and runs in seconds. Five scenarios:
//!
//! 1. **Baseline** — Poisson arrivals at half the full-tier saturation
//!    rate: everything serves from the full tier, p99 virtual latency well
//!    inside the deadline, loss rate ≈ 0.
//! 2. **Saturation burst** — a 2×-saturation burst window, run twice on
//!    the *identical* schedule with brownout on and off. The brownout run
//!    must keep served p99 within the deadline SLO, lose (shed + expire)
//!    fewer requests than the control, and actually spend waves browned
//!    out.
//! 3. **Diurnal + hot keys** — a sinusoidally ramping rate with 80% of
//!    traffic on 4 hot entities: every arrival resolves, no internal
//!    errors.
//! 4. **Mid-run hot-swap** — generations published through a
//!    [`GenerationStore`]; a corrupt container is rejected at the CRC
//!    mid-run, a good one promotes at a wave boundary with zero dropped
//!    and zero generation-mixed responses and no downtime waves.
//! 5. **Determinism** — the burst scenario replayed at 1 and 4 worker
//!    threads must produce bit-identical responses, stats, and trace stats.
//!
//! Throughput, latency percentiles (virtual units), loss rates,
//! brownout-tier wave occupancy, and swap outcomes are written to
//! `BENCH_serving.json` (`"harness": "load_drill"`). Honours `--smoke` /
//! `--quick`.

use cem_bench::load::{bursty, diurnal, poisson, with_hot_keys, BurstSpec};
use cem_bench::report;
use cem_obs::{Object, ObsSession, RunManifest, Value};
use cem_serve::{
    splitmix64, Arrival, Generation, GenerationStore, MatchService, NoFaults, Outcome, Response,
    ServeConfig, ServeIndex, ServeStats, Tier, TraceStats,
};
use cem_tensor::par::ThreadsGuard;
use crossem::matcher::rank_row;

const ENTITIES: usize = 48;
const IMAGES: usize = 192;

/// Synthesise a four-tier score index from a seeded stream: deterministic,
/// tie-free with overwhelming probability, and distinguishable per seed —
/// two generations built from different seeds rank differently, which is
/// what lets the swap drill detect generation mixing.
fn synthetic_index(seed: u64) -> ServeIndex {
    let matrix = |tier: u64| -> Vec<f32> {
        (0..ENTITIES * IMAGES)
            .map(|i| {
                let bits = splitmix64(seed ^ (0x7134 + tier), i as u64);
                ((bits >> 40) as f32) / (1u64 << 24) as f32
            })
            .collect()
    };
    ServeIndex::new(ENTITIES, IMAGES, [matrix(0), matrix(1), matrix(2), matrix(3)])
}

fn drill_config() -> ServeConfig {
    ServeConfig::default()
}

/// Scenario sizes. Standard drives ~190k requests total; smoke ~19k.
struct Scale {
    baseline_n: usize,
    burst_n: usize,
    burst: BurstSpec,
    diurnal_n: usize,
    diurnal_period: u64,
    swap_n: usize,
}

impl Scale {
    fn standard() -> Self {
        Scale {
            baseline_n: 40_000,
            burst_n: 30_000,
            burst: BurstSpec { start: 200_000, end: 1_000_000, multiplier: 4.0 },
            diurnal_n: 20_000,
            diurnal_period: 100_000,
            swap_n: 10_000,
        }
    }

    fn smoke() -> Self {
        Scale {
            baseline_n: 4_000,
            burst_n: 3_000,
            burst: BurstSpec { start: 40_000, end: 160_000, multiplier: 4.0 },
            diurnal_n: 2_000,
            diurnal_period: 40_000,
            swap_n: 1_000,
        }
    }
}

/// Everything one scenario run reports.
struct Report {
    requests: usize,
    stats: ServeStats,
    /// p50/p99/p999 of served end-to-end virtual latency.
    p50: u64,
    p99: u64,
    p999: u64,
    /// Wall-clock requests per second over the whole run.
    throughput_rps: f64,
    /// shed + expired over all arrivals.
    loss_rate: f64,
    /// Sampler + SLO totals for the run (deterministic).
    trace: TraceStats,
}

fn run_scenario(
    service: &mut MatchService<'_>,
    arrivals: &[Arrival],
) -> (Vec<Response>, Report) {
    let started = std::time::Instant::now();
    let responses = service.run_open_loop(arrivals, &NoFaults);
    let elapsed = started.elapsed().as_secs_f64();
    let stats = service.stats().clone();
    let trace = service.trace_stats();
    let mut latencies: Vec<u64> = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Served { .. }))
        .map(|r| r.latency_units())
        .collect();
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        latencies[((latencies.len() - 1) as f64 * q).round() as usize]
    };
    let lost = stats.shed + stats.expired;
    let report = Report {
        requests: arrivals.len(),
        p50: pct(0.50),
        p99: pct(0.99),
        p999: pct(0.999),
        throughput_rps: if elapsed > 0.0 { arrivals.len() as f64 / elapsed } else { 0.0 },
        loss_rate: lost as f64 / arrivals.len().max(1) as f64,
        stats,
        trace,
    };
    (responses, report)
}

fn scenario(r: &Report, pass: bool) -> Object {
    let brownout_waves = Tier::ALL
        .iter()
        .fold(Object::new(), |o, t| o.field(t.label(), r.stats.brownout_waves[t.index()]));
    Object::new()
        .field("requests", r.requests)
        .field("served", r.stats.served_total())
        .field("shed", r.stats.shed)
        .field("expired", r.stats.expired)
        .field("deadline_exceeded", r.stats.deadline_exceeded)
        .field("internal_errors", r.stats.internal_errors)
        .field("loss_rate", Value::fixed(r.loss_rate, 4))
        .field("latency_units_p50", r.p50)
        .field("latency_units_p99", r.p99)
        .field("latency_units_p999", r.p999)
        .field("throughput_rps", Value::fixed(r.throughput_rps, 0))
        .field("waves", r.stats.waves)
        .field("brownout_waves", brownout_waves)
        .field("trace", report::trace_stats(&r.trace))
        .field("pass", pass)
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let mut trace_out = String::from("BENCH_load_trace.jsonl");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--trace-out" {
            match iter.next() {
                Some(path) => trace_out = path.clone(),
                None => {
                    eprintln!("load_drill: --trace-out needs a path");
                    std::process::exit(2);
                }
            }
        }
    }
    let scale = if quick { Scale::smoke() } else { Scale::standard() };
    let config = drill_config();
    let seed = 1717u64;
    let index = synthetic_index(seed);

    // Full-tier saturation: requests one wave can execute per virtual unit.
    let full_per_wave =
        (config.wave_budget_units() / config.tier_cost[Tier::Full.index()]).min(config.wave as u64);
    let saturation = full_per_wave as f64 / config.wave_units as f64;
    eprintln!(
        "[load_drill] full-tier saturation {:.4} req/unit ({} per {}-unit wave)",
        saturation, full_per_wave, config.wave_units
    );
    // One obs session for the whole drill: every scenario's sampled span
    // trees, SLO alerts, and summary lines land in a single JSONL stream
    // that `trace_report` validates and renders.
    let manifest = RunManifest::new("load_drill")
        .seed(seed)
        .threads(cem_tensor::par::max_threads())
        .dataset("synthetic", ENTITIES, IMAGES);
    let session = ObsSession::begin(&trace_out, &manifest).expect("begin obs session");
    eprintln!("[load_drill] tracing to {trace_out}");

    // ---------------------------------------------------------------
    // Scenario 1: baseline Poisson at half saturation.
    // ---------------------------------------------------------------
    eprintln!("[baseline] Poisson at 0.5× saturation, {} requests …", scale.baseline_n);
    let schedule = poisson(scale.baseline_n, saturation * 0.5, ENTITIES, seed);
    let mut service = MatchService::new(config, &index);
    let (responses, baseline) = run_scenario(&mut service, &schedule);
    // SLO: everything serves from the full tier within the deadline; loss
    // under 1%; p99 within three waves (queue never builds).
    // … and the SLO burn monitor must stay silent on a healthy run.
    let baseline_pass = responses.len() == scale.baseline_n
        && baseline.loss_rate < 0.01
        && baseline.stats.served[Tier::Full.index()] == baseline.stats.served_total()
        && baseline.p99 <= 3 * config.wave_units + config.tier_cost[Tier::Full.index()]
        && baseline.stats.internal_errors == 0
        && baseline.trace.slo_alerts == 0;
    println!(
        "[baseline] p50/p99/p999 = {}/{}/{} units, loss {:.4}, {:.0} req/s, slo_alerts {} → {}",
        baseline.p50,
        baseline.p99,
        baseline.p999,
        baseline.loss_rate,
        baseline.throughput_rps,
        baseline.trace.slo_alerts,
        verdict(baseline_pass)
    );

    // ---------------------------------------------------------------
    // Scenario 2: 2×-saturation burst, brownout on vs off on the SAME
    // schedule.
    // ---------------------------------------------------------------
    eprintln!(
        "[burst] 2×-saturation window [{}, {}), {} requests, brownout on vs off …",
        scale.burst.start, scale.burst.end, scale.burst_n
    );
    let schedule = bursty(scale.burst_n, saturation * 0.5, scale.burst, ENTITIES, seed ^ 0xB);
    let mut browned = MatchService::new(config, &index);
    let (_, on) = run_scenario(&mut browned, &schedule);
    let off_config = ServeConfig {
        brownout: cem_serve::BrownoutConfig { enabled: false, ..config.brownout },
        ..config
    };
    let mut control = MatchService::new(off_config, &index);
    let (_, off) = run_scenario(&mut control, &schedule);
    let browned_waves: u64 = on
        .stats
        .brownout_waves
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != Tier::Full.index())
        .map(|(_, &w)| w)
        .sum();
    // The sustained 2×-saturation window must trip the multi-window burn
    // monitor at least once — the alert the drill exists to exercise.
    let burst_pass = on.p99 <= config.deadline_units
        && on.loss_rate < off.loss_rate
        && browned_waves > 0
        && on.stats.internal_errors == 0
        && off.stats.internal_errors == 0
        && on.trace.slo_alerts >= 1;
    println!(
        "[burst] brownout ON:  p99 {} units, loss {:.4}, browned-out waves {}, \
         slo_alerts {} (peak burn {:.1})",
        on.p99, on.loss_rate, browned_waves, on.trace.slo_alerts, on.trace.slo_burn_peak
    );
    println!(
        "[burst] brownout OFF: p99 {} units, loss {:.4} → {}",
        off.p99,
        off.loss_rate,
        verdict(burst_pass)
    );

    // ---------------------------------------------------------------
    // Scenario 3: diurnal ramp with hot-key skew.
    // ---------------------------------------------------------------
    eprintln!(
        "[diurnal] sinusoidal rate (period {}), 80% on 4 hot keys, {} requests …",
        scale.diurnal_period, scale.diurnal_n
    );
    let mut schedule = diurnal(
        scale.diurnal_n,
        saturation * 0.6,
        0.8,
        scale.diurnal_period,
        ENTITIES,
        seed ^ 0xD,
    );
    with_hot_keys(&mut schedule, ENTITIES, 4, 0.8, seed ^ 0xD);
    let mut service = MatchService::new(config, &index);
    let (responses, diurnal_report) = run_scenario(&mut service, &schedule);
    let diurnal_pass = responses.len() == scale.diurnal_n
        && diurnal_report.stats.internal_errors == 0
        && diurnal_report.stats.served_total() > 0;
    println!(
        "[diurnal] p99 {} units, loss {:.4} → {}",
        diurnal_report.p99,
        diurnal_report.loss_rate,
        verdict(diurnal_pass)
    );

    // ---------------------------------------------------------------
    // Scenario 4: mid-run hot-swap through the durable generation store.
    // ---------------------------------------------------------------
    eprintln!("[hotswap] publish → corrupt reject → promote mid-run, {} requests …", scale.swap_n);
    let dir = std::env::temp_dir().join(format!("cem_load_drill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create generation dir");
    let store = GenerationStore::new(&dir).expect("open generation store");
    store.publish(&Generation::new(1, synthetic_index(seed))).expect("publish generation 1");
    store.publish(&Generation::new(2, synthetic_index(seed ^ 0x5A))).expect("publish generation 2");

    // Bit-rot the latest (generation 2) file: the strict load path must
    // reject it at the container CRC.
    let latest = store.latest_path();
    let mut bytes = std::fs::read(&latest).expect("read latest generation");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&latest, &bytes).expect("corrupt latest generation");
    let corrupt_load = Generation::load_path(&latest);
    let corrupt_rejected = corrupt_load.is_err();
    // The store's fallback still serves the previous intact generation.
    let serving = store.load().expect("fallback generation");
    let fallback_id = serving.id;
    // Re-publish an intact generation 2 for the mid-run promotion.
    store.publish(&Generation::new(2, synthetic_index(seed ^ 0x5A))).expect("republish");
    let incoming = Generation::load_path(store.latest_path());

    let schedule = poisson(scale.swap_n, saturation * 0.6, ENTITIES, seed ^ 0xE);
    let swap_wave = schedule[scale.swap_n / 2].at / config.wave_units;
    let mut service = MatchService::with_generation(config, serving);
    service.schedule_swap(swap_wave / 2, corrupt_load);
    service.schedule_swap(swap_wave, incoming);
    let (responses, swap_report) = run_scenario(&mut service, &schedule);

    // Zero mixed: every full-tier response ranks exactly as its own
    // generation's index says it should.
    let gen_index = [synthetic_index(seed), synthetic_index(seed ^ 0x5A)];
    let mixed = responses
        .iter()
        .filter(|r| match &r.outcome {
            Outcome::Served { tier: Tier::Full, ranking } => {
                let expect = match r.generation {
                    1 => rank_row(gen_index[0].row(Tier::Full, r.entity), config.top_k),
                    2 => rank_row(gen_index[1].row(Tier::Full, r.entity), config.top_k),
                    _ => return true,
                };
                *ranking != expect
            }
            _ => false,
        })
        .count();
    let dropped = scale.swap_n - responses.len();
    let misses = swap_report.stats.expired + swap_report.stats.deadline_exceeded;
    // At 0.6× saturation a boundary-promoted swap must cost nothing: no
    // wave goes idle, nothing expires, nothing misses its deadline.
    let swap_downtime_waves = misses.div_ceil(full_per_wave.max(1));
    let before_swap = responses.iter().filter(|r| r.generation == fallback_id).count();
    let after_swap = responses.iter().filter(|r| r.generation == 2).count();
    let swap_pass = corrupt_rejected
        && fallback_id == 1
        && swap_report.stats.hotswap_promotes == 1
        && swap_report.stats.hotswap_rejects == 1
        && mixed == 0
        && dropped == 0
        && swap_downtime_waves == 0
        && before_swap > 0
        && after_swap > 0;
    println!(
        "[hotswap] promotes {} rejects {} mixed {} dropped {} downtime-waves {} → {}",
        swap_report.stats.hotswap_promotes,
        swap_report.stats.hotswap_rejects,
        mixed,
        dropped,
        swap_downtime_waves,
        verdict(swap_pass)
    );
    std::fs::remove_dir_all(&dir).ok();

    // ---------------------------------------------------------------
    // Scenario 5: the burst schedule replayed at 1 vs 4 threads.
    // ---------------------------------------------------------------
    eprintln!("[determinism] burst schedule at 1 vs 4 threads …");
    let schedule = bursty(scale.burst_n, saturation * 0.5, scale.burst, ENTITIES, seed ^ 0xB);
    let run_with = |threads: usize| {
        let _guard = ThreadsGuard::new(threads);
        let mut service = MatchService::new(config, &index);
        let responses = service.run_open_loop(&schedule, &NoFaults);
        (responses, service.stats().clone(), service.trace_stats())
    };
    let (r1, s1, x1) = run_with(1);
    let (r4, s4, x4) = run_with(4);
    let determinism_pass = r1 == r4 && s1 == s4 && x1 == x4;
    println!("[determinism] 1 vs 4 threads → {}", verdict(determinism_pass));

    // ---------------------------------------------------------------
    // Summary + BENCH_serving.json
    // ---------------------------------------------------------------
    let all_pass =
        baseline_pass && burst_pass && diurnal_pass && swap_pass && determinism_pass;
    let total_requests = scale.baseline_n
        + 2 * scale.burst_n
        + scale.diurnal_n
        + scale.swap_n
        + 2 * scale.burst_n;
    println!(
        "\nload drill: {} requests total → {}",
        total_requests,
        if all_pass { "ALL PASS" } else { "FAILURES" }
    );

    let hotswap = Object::new()
        .field("requests", scale.swap_n)
        .field("promotes", swap_report.stats.hotswap_promotes)
        .field("rejects", swap_report.stats.hotswap_rejects)
        .field("mixed", mixed)
        .field("dropped", dropped)
        .field("swap_downtime_waves", swap_downtime_waves)
        .field("pass", swap_pass);
    let summary = Object::new()
        .field("harness", "load_drill")
        .field("scale", if quick { "smoke" } else { "standard" })
        .field("entities", ENTITIES)
        .field("images", IMAGES)
        .field("requests_total", total_requests)
        .field("saturation_req_per_unit", Value::fixed(saturation, 4))
        .field("baseline", scenario(&baseline, baseline_pass))
        .field("burst_brownout_on", scenario(&on, burst_pass))
        .field("burst_brownout_off", scenario(&off, burst_pass))
        .field("diurnal_hotkey", scenario(&diurnal_report, diurnal_pass))
        .field("hotswap", hotswap)
        .field("slo_alerts_baseline", baseline.trace.slo_alerts)
        .field("slo_alerts_burst", on.trace.slo_alerts)
        .field("trace_stream", trace_out.as_str())
        .field("baseline_pass", baseline_pass)
        .field("burst_brownout_pass", burst_pass)
        .field("diurnal_hotkey_pass", diurnal_pass)
        .field("hotswap_pass", swap_pass)
        .field("determinism_pass", determinism_pass)
        .field("all_pass", all_pass);
    report::publish("BENCH_serving.json", summary);

    session.finish(&[
        ("slo_alerts_baseline", Value::Num(baseline.trace.slo_alerts as f64)),
        ("slo_alerts_burst", Value::Num(on.trace.slo_alerts as f64)),
        ("all_pass", Value::Bool(all_pass)),
    ]);

    if !all_pass {
        std::process::exit(1);
    }
}
