//! `serve_burst`: the service's own machinery under a bursty open loop.
//!
//! A narrow synthetic four-tier index (48 entities × 192 images) driven
//! through `run_open_loop` in fixed segments of a bursty schedule with no
//! faults: Poisson arrivals at half the full-tier saturation rate with a
//! window at four times that (twice saturation), brownout on. Scoring one
//! request takes a few microseconds, so most of the time goes to the
//! admission queue, EDF expiry, brownout, wave dispatch, the fold, and the
//! legacy trace, which grows across segments because one service serves
//! them all. A `serve_shard` call spends about 1 % of its time here; `train`
//! none.
//!
//! The service runs the library's default admission and brownout policy.
//! Under it the burst window outruns the full tier faster than brownout
//! sheds work to the cheaper tiers, so queued requests wait out their
//! deadline and expire: about 2 % of arrivals. Admission, expiry and
//! brownout run on the service's virtual clock, so that loss repeats bit
//! for bit at a seed and shows in `failed_share` and `answered_share`; a
//! change to the admission or brownout policy moves them.

use cem_serve::{
    Arrival, Generation, MatchService, NoFaults, Outcome, ServeConfig, ServeIndex, ServeStats, Tier,
};
use crossem::rank_row;

use crate::inputs::{burst_segment, synthetic_tiers, BurstShape};
use crate::record::Report;
use crate::serve_shard::full_wave;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{gemm_counts, Plan, GEMM_METRICS, MB};

const ENTITIES: usize = 48;
const IMAGES: usize = 192;
const ARRIVALS_PER_SEGMENT: usize = 4_000;
/// Measured segments: about 20 seconds on a 2-vCPU x86-64 host at one
/// thread.
const SEGMENTS: u64 = 800;
const WARMUP_SEGMENTS: u64 = 8;
/// Set-ups per run; `setup_s` is their median. One takes about 0.2 s, so
/// the median needs many to ride out seconds-long host slowdowns. The
/// first set-up's service serves every measured segment, a share after
/// each set-up, so the segments spread across the run and average more of
/// the host's drift; the later services are timed and dropped.
const BOOTS: u64 = 25;
const _: () = assert!(SEGMENTS % BOOTS == 0);

pub fn config() -> ServeConfig {
    crate::serve_config()
}

/// A segment: 400 arrivals at the base rate, a 150-wave burst window, then
/// the base rate again until the segment's arrivals are used up.
pub fn shape(config: &ServeConfig) -> BurstShape {
    let saturation = full_wave(config) as f64 / config.wave_units as f64;
    BurstShape {
        arrivals: ARRIVALS_PER_SEGMENT,
        base_rate: 0.5 * saturation,
        burst_start: 100 * config.wave_units,
        burst_end: 250 * config.wave_units,
        multiplier: 4.0,
    }
}

/// The serve counters the benchmark reports, over a window of calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub admitted: u64,
    pub shed: u64,
    pub expired: u64,
    pub served: [u64; Tier::COUNT],
    pub deadline_exceeded: u64,
    pub internal_errors: u64,
    pub waves: u64,
    pub brownout_waves: [u64; Tier::COUNT],
}

impl Counts {
    pub fn of(stats: &ServeStats) -> Counts {
        Counts {
            admitted: stats.admitted,
            shed: stats.shed,
            expired: stats.expired,
            served: stats.served,
            deadline_exceeded: stats.deadline_exceeded,
            internal_errors: stats.internal_errors,
            waves: stats.waves,
            brownout_waves: stats.brownout_waves,
        }
    }

    pub fn since(self, earlier: Counts) -> Counts {
        let minus =
            |a: [u64; Tier::COUNT], b: [u64; Tier::COUNT]| std::array::from_fn(|i| a[i] - b[i]);
        Counts {
            admitted: self.admitted - earlier.admitted,
            shed: self.shed - earlier.shed,
            expired: self.expired - earlier.expired,
            served: minus(self.served, earlier.served),
            deadline_exceeded: self.deadline_exceeded - earlier.deadline_exceeded,
            internal_errors: self.internal_errors - earlier.internal_errors,
            waves: self.waves - earlier.waves,
            brownout_waves: minus(self.brownout_waves, earlier.brownout_waves),
        }
    }

    fn add(&mut self, other: Counts) {
        let plus = |a: &mut [u64; Tier::COUNT], b: [u64; Tier::COUNT]| {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y)
        };
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.expired += other.expired;
        plus(&mut self.served, other.served);
        self.deadline_exceeded += other.deadline_exceeded;
        self.internal_errors += other.internal_errors;
        self.waves += other.waves;
        plus(&mut self.brownout_waves, other.brownout_waves);
    }

    /// Requests that arrived and were not answered with a ranking.
    pub fn failed(&self) -> u64 {
        self.shed + self.expired + self.deadline_exceeded + self.internal_errors
    }

    /// The conservation law over a window of `arrivals`: every arrival is
    /// shed or admitted, and every admitted request is served, expired,
    /// past its deadline, or an internal error.
    pub fn conservation(&self, arrivals: u64) -> Result<(), String> {
        if arrivals != self.shed + self.admitted {
            return Err(format!(
                "{arrivals} arrivals != {} shed + {} admitted",
                self.shed, self.admitted
            ));
        }
        let resolved = self.served.iter().sum::<u64>()
            + self.expired
            + self.deadline_exceeded
            + self.internal_errors;
        if self.admitted != resolved {
            return Err(format!(
                "{} admitted != {:?} served + {} expired + {} past deadline + {} internal errors",
                self.admitted,
                self.served,
                self.expired,
                self.deadline_exceeded,
                self.internal_errors
            ));
        }
        Ok(())
    }

    pub fn report(&self, report: &mut Report) {
        let counts = [
            ("serve.stats.admitted", self.admitted),
            ("serve.stats.shed", self.shed),
            ("serve.stats.expired", self.expired),
            ("serve.stats.deadline_exceeded", self.deadline_exceeded),
            ("serve.stats.internal_errors", self.internal_errors),
            ("serve.stats.waves", self.waves),
        ];
        for (name, count) in counts {
            report.metric(name, count as f64, "count", 1);
        }
        for tier in Tier::ALL {
            let served = format!("serve.stats.served.{}", tier.label());
            report.metric(&served, self.served[tier.index()] as f64, "count", 1);
            let browned = format!("serve.stats.brownout_waves.{}", tier.label());
            report.metric(
                &browned,
                self.brownout_waves[tier.index()] as f64,
                "count",
                1,
            );
        }
    }
}

/// The inputs every set-up gets: the tier score matrices and the warm-up
/// segments.
struct BootInputs {
    tiers: [Vec<f32>; Tier::COUNT],
    warmup: Vec<Vec<Arrival>>,
}

fn boot(inputs: &BootInputs, tracer: &mut Tracer, boot: u64) -> MatchService<'static> {
    let span = tracer.open("serve_burst.boot", None, boot);
    let index = ServeIndex::new(ENTITIES, IMAGES, inputs.tiers.clone());
    let mut service = MatchService::with_generation(config(), Generation::new(1, index));
    for arrivals in &inputs.warmup {
        tracer.time("serve.run_open_loop", span, boot, || {
            service.run_open_loop(arrivals, &NoFaults)
        });
    }
    tracer.close(span);
    service
}

/// Check one segment's responses: one per arrival, every ranking equal to
/// its tier's dense ranking, and outcome tallies equal to the counters.
fn check_segment(
    service: &MatchService<'_>,
    responses: &[cem_serve::Response],
    arrivals: u64,
    counts: &Counts,
    segment: u64,
    report: &mut Report,
) {
    let top_k = service.config().top_k;
    // Admissions, waves and brownout waves have no per-response outcome.
    let mut tally = Counts {
        shed: 0,
        expired: 0,
        served: [0; Tier::COUNT],
        deadline_exceeded: 0,
        internal_errors: 0,
        ..*counts
    };
    for response in responses {
        match &response.outcome {
            Outcome::Served { tier, ranking } => {
                tally.served[tier.index()] += 1;
                let want = rank_row(service.index().row(*tier, response.entity), top_k);
                report.check(*ranking == want, || {
                    format!(
                        "segment {segment}, request {}: {} ranking {ranking:?} != {want:?}",
                        response.id,
                        tier.label()
                    )
                });
            }
            Outcome::Shed => tally.shed += 1,
            Outcome::Expired => tally.expired += 1,
            Outcome::DeadlineExceeded => tally.deadline_exceeded += 1,
            Outcome::InternalError => tally.internal_errors += 1,
        }
    }
    report.check(responses.len() as u64 == arrivals, || {
        format!(
            "segment {segment}: {} responses to {arrivals} arrivals",
            responses.len()
        )
    });
    report.check(tally == *counts, || {
        format!("segment {segment}: responses {tally:?} != counters {counts:?}")
    });
    if let Err(why) = counts.conservation(arrivals) {
        report.check(false, || format!("segment {segment}: {why}"));
    }
}

pub fn run(plan: &Plan, tracer: &mut Tracer, report: &mut Report) {
    let config = config();
    let shape = shape(&config);
    report.info("entities", ENTITIES);
    report.info("images", IMAGES);
    report.info("segments", SEGMENTS);
    report.info("arrivals_per_segment", ARRIVALS_PER_SEGMENT);
    report.info("burst", format!("{:?}", shape));

    // Set-up is timed from a warm process: the inputs exist before the
    // first boot, and each later boot reuses memory the one before freed.
    let inputs = BootInputs {
        tiers: synthetic_tiers(ENTITIES, IMAGES, plan.seed),
        warmup: (0..WARMUP_SEGMENTS)
            .map(|segment| burst_segment(&shape, ENTITIES, plan.seed, segment))
            .collect(),
    };
    let mut boots = Vec::new();
    let mut service = None;
    let mut segments = WARMUP_SEGMENTS..WARMUP_SEGMENTS + SEGMENTS;
    let mut totals = Counts::default();
    let mut segment_secs = Vec::with_capacity(SEGMENTS as usize);
    let (mut verify_s, mut rank_s, mut replayed) = (0.0, 0.0, 0usize);
    let mut gemm = [0u64; 3];
    for b in 0..BOOTS {
        let started = std::time::Instant::now();
        let booted = boot(&inputs, tracer, b);
        boots.push(started.elapsed().as_secs_f64());
        let service = service.get_or_insert(booted);
        for segment in segments.by_ref().take((SEGMENTS / BOOTS) as usize) {
            let arrivals = burst_segment(&shape, ENTITIES, plan.seed, segment);
            let before = Counts::of(service.stats());
            let span = tracer.open("serve_burst.segment", None, segment);
            let gemm_before = gemm_counts();
            let (responses, secs) = tracer.time("serve.run_open_loop", span, segment, || {
                service.run_open_loop(&arrivals, &NoFaults)
            });
            let gemm_after = gemm_counts();
            gemm.iter_mut()
                .zip(gemm_after.iter().zip(gemm_before))
                .for_each(|(sum, (a, b))| *sum += a - b);
            let counts = Counts::of(service.stats()).since(before);
            segment_secs.push(secs);
            report.attempted += arrivals.len() as u64;
            check_segment(
                service,
                &responses,
                arrivals.len() as u64,
                &counts,
                segment,
                report,
            );
            totals.add(counts);

            if tracer.traced() {
                let index = service.index();
                let served: Vec<(Tier, usize)> = responses
                    .iter()
                    .filter_map(|r| Some((r.outcome.served_tier()?, r.entity)))
                    .collect();
                let (_, v) = tracer.time("serve.tiers.verify_row", span, segment, || {
                    served
                        .iter()
                        .filter(|&&(tier, e)| index.verify_row(tier, e, index.row(tier, e)))
                        .count()
                });
                let (_, r) = tracer.time("crossem.matcher.rank_row", span, segment, || {
                    served
                        .iter()
                        .map(|&(tier, e)| rank_row(index.row(tier, e), config.top_k).len())
                        .sum::<usize>()
                });
                (verify_s, rank_s, replayed) = (verify_s + v, rank_s + r, replayed + served.len());
            }
            tracer.close(span);
        }
    }
    let boots = Samples::new(boots);
    report.metric("setup_s", boots.median(), "s", boots.count());

    let segment_ms = Samples::new(segment_secs.iter().map(|s| s * 1e3).collect());
    let rates = Samples::new(
        segment_secs
            .iter()
            .map(|s| ARRIVALS_PER_SEGMENT as f64 / s)
            .collect(),
    );
    let (p50, p95) = crate::p50_p95(&segment_ms);
    let full_share = totals.served[Tier::Full.index()] as f64 / report.attempted as f64;
    report.metric("throughput_per_s", rates.median(), "1/s", rates.count());
    report.metric("requests_per_s", rates.median(), "1/s", rates.count());
    report.metric("latency_ms_p50", p50, "ms", segment_ms.count());
    report.metric("latency_ms_p95", p95, "ms", segment_ms.count());
    report.metric("quality", full_share, "fraction", report.attempted as usize);
    report.metric(
        "full_share",
        full_share,
        "fraction",
        report.attempted as usize,
    );
    report.metric(
        "measured_s",
        segment_ms.sum() / 1e3,
        "s",
        segment_ms.count(),
    );
    report.shares(totals.failed());
    if !tracer.traced() {
        return;
    }
    let per_response = |s: f64| s * 1e6 / replayed.max(1) as f64;
    report.metric(
        "serve.tiers.verify_row_us",
        per_response(verify_s),
        "us",
        replayed,
    );
    report.metric(
        "crossem.matcher.rank_row_us",
        per_response(rank_s),
        "us",
        replayed,
    );
    let other_s = segment_ms.sum() / 1e3 - verify_s - rank_s;
    report.metric(
        "serve.service.other_us_per_request",
        other_s * 1e6 / report.attempted as f64,
        "us",
        SEGMENTS as usize,
    );
    totals.report(report);
    for (name, count) in GEMM_METRICS.iter().zip(gemm) {
        report.metric(name, count as f64, "count", 1);
    }
    report.metric(
        "tensor.peak_live_mb",
        cem_tensor::memory::peak_bytes() as f64 / MB,
        "MB",
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_catches_a_planted_off_by_one() {
        let counts = Counts {
            admitted: 10,
            shed: 2,
            expired: 1,
            served: [5, 2, 0, 1],
            deadline_exceeded: 1,
            ..Counts::default()
        };
        assert_eq!(counts.conservation(12), Ok(()));
        assert_eq!(counts.failed(), 4);
        assert!(counts.conservation(13).is_err(), "an arrival went missing");
        let mut planted = counts;
        planted.served[Tier::Cached.index()] += 1;
        assert!(planted.conservation(12).is_err(), "one serve too many");
        let mut planted = counts;
        planted.admitted -= 1;
        assert!(planted.conservation(11).is_err(), "one admission too few");
        let mut planted = counts;
        planted.internal_errors += 1;
        assert!(
            planted.conservation(12).is_err(),
            "one unaccounted internal error"
        );
    }

    #[test]
    fn counts_subtract_and_add_per_field() {
        let mut stats = ServeStats {
            admitted: 5,
            served: [3, 1, 0, 1],
            waves: 4,
            ..ServeStats::default()
        };
        let before = Counts::of(&stats);
        stats.admitted += 2;
        stats.served[Tier::Zero.index()] += 2;
        stats.brownout_waves[Tier::Hard.index()] += 1;
        let delta = Counts::of(&stats).since(before);
        assert_eq!(delta.admitted, 2);
        assert_eq!(delta.served, [0, 0, 0, 2]);
        assert_eq!(delta.brownout_waves, [0, 0, 1, 0]);
        let mut total = before;
        total.add(delta);
        assert_eq!(total, Counts::of(&stats));
    }

    #[test]
    fn the_burst_window_doubles_full_tier_saturation() {
        let config = config();
        let shape = shape(&config);
        let saturation = full_wave(&config) as f64 / config.wave_units as f64;
        assert_eq!(
            full_wave(&config),
            8,
            "eight full-tier requests fill a default wave"
        );
        assert!((shape.base_rate * shape.multiplier / saturation - 2.0).abs() < 1e-12);
        let defaults = ServeConfig::default();
        assert_eq!(
            (config.queue_capacity, config.brownout.high_watermark),
            (defaults.queue_capacity, defaults.brownout.high_watermark),
            "the default admission and brownout policy"
        );
        assert!(config.brownout.enabled && !config.trace.enabled);
        config.validate();
    }
}
