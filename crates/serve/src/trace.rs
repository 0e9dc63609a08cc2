//! Structured per-request tracing for the serving stack.
//!
//! The execution pipeline records **typed events** ([`ReqEvent`]): each
//! event carries the tier, the attempt number, and the virtual-clock
//! position (`at`) where it happened. The service's one per-request record
//! is the **span tree** built from them ([`build_trace`]) — a
//! [`RequestTrace`] with `queue_wait` / `probe` / per-tier `attempt` /
//! `retry_backoff` / `rank` spans on the virtual clock, structured cause
//! tags, and the tail flags the sampler keys on. Service-wide facts no
//! tree holds — breaker transitions, brownout shifts, failed repairs — go
//! out as typed obs events from [`crate::MatchService`].
//!
//! [`ServeTracer`] owns the tail sampler and the SLO burn-rate monitor.
//! Everything here is driven from the wave fold (serial, arrival order)
//! with inputs that are pure functions of the deterministic execution
//! record, so the sampled trace stream is bit-identical at any thread
//! count — and none of it feeds back into responses or stats, so results
//! are bit-identical with tracing on or off.

use cem_obs::sampler::{SamplerConfig, TailSampler};
use cem_obs::slo::{SloConfig, SloMonitor};
use cem_obs::trace::{emit_trace, AttrValue, RequestTrace, TraceFlags, TraceSpan};

use crate::breaker::Component;
use crate::request::{MatchRequest, Outcome};
use crate::retry::splitmix64;
use crate::tiers::Tier;

/// Stream id for deriving trace ids from request seeds (any fixed odd-ish
/// constant works; this one is reserved for tracing so trace ids never
/// collide with retry-jitter streams `0x7EE5 + tier`).
const TRACE_ID_STREAM: u64 = 0x7AC3;

/// The deterministic trace id for a request: a pure function of its seed
/// and id, so the same request stream yields the same ids on every run.
pub fn trace_id(request: &MatchRequest) -> u64 {
    splitmix64(request.seed, TRACE_ID_STREAM ^ request.id)
}

/// How one tier attempt resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptTag {
    /// The attempt produced a ranking.
    Served,
    /// Cancelled at the attempt-timeout boundary (transient, retriable).
    Timeout,
    /// Worker panic caught at the pool boundary (transient, retriable).
    Panic,
    /// Row checksum mismatch — degrade to the next tier immediately.
    CrcDegrade,
    /// Non-finite top score — degrade to the next tier immediately.
    NanDegrade,
}

impl AttemptTag {
    /// The structured cause tag the attempt span carries (`None` = clean).
    fn cause(self) -> Option<&'static str> {
        match self {
            AttemptTag::Served => None,
            AttemptTag::Timeout => Some("timeout"),
            AttemptTag::Panic => Some("panic"),
            AttemptTag::CrcDegrade => Some("crc_fallback"),
            AttemptTag::NanDegrade => Some("nan_degrade"),
        }
    }
}

/// Whether this request's wave ran the shard probe pre-pass for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ProbeTag {
    /// No probe (no shard index, browned-out wave, or breaker-ineligible).
    #[default]
    None,
    /// The pre-pass handed this slot a cluster-pruned candidate ranking.
    Probed,
    /// The pre-pass failed integrity checks; the wave fell back to dense.
    Fallback,
    /// This slot's probe schedule touched a quarantined cluster; it alone
    /// fell back to dense while the rest of the wave stayed probed.
    Quarantined,
}

/// One typed event from the per-request execution pipeline, in the order it
/// happened. `at` is the request's virtual-cost position when the event
/// occurred (execution-local: queue wait is added at span-build time).
/// Deadline terminations carry no event: they are the root span's cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqEvent {
    /// Tier skipped: below the wave's brownout cap.
    SkipBrownout { tier: Tier, cap: Tier, at: u64 },
    /// Tier skipped: its component's breaker denied the attempt.
    SkipBreaker { tier: Tier, component: Component, at: u64 },
    /// Tier skipped: one attempt could not fit the remaining budget.
    SkipBudget { tier: Tier, at: u64 },
    /// One tier attempt: span `[at, at + units]`, resolution in `tag`.
    Attempt { tier: Tier, attempt_no: u32, at: u64, units: u64, tag: AttemptTag },
    /// The tier's retry budget ran dry; degrading to the next rung.
    RetriesExhausted { tier: Tier, at: u64 },
    /// Backoff delay before retry `attempt_no`: span `[at, at + delay]`.
    Backoff { tier: Tier, attempt_no: u32, at: u64, delay: u64 },
}

/// Everything the fold knows about one finished request, handed to
/// [`build_trace`].
pub(crate) struct TraceInput<'a> {
    pub request: &'a MatchRequest,
    pub outcome: &'a Outcome,
    /// Virtual units spent queued before execution.
    pub queue_units: u64,
    /// Virtual units spent executing.
    pub cost_units: u64,
    pub retries: u32,
    pub steps: &'a [ReqEvent],
    pub probe: ProbeTag,
    /// Wave ordinal the request executed in (0 for admission sheds).
    pub wave: u64,
    pub generation: u64,
    /// Latency above this flags the trace `slow` (the SLO threshold).
    pub slow_threshold: u64,
}

fn outcome_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Served { .. } => "served",
        Outcome::Shed => "shed",
        Outcome::Expired => "expired",
        Outcome::DeadlineExceeded => "deadline",
        Outcome::InternalError => "internal_error",
    }
}

fn root_cause(outcome: &Outcome) -> Option<&'static str> {
    match outcome {
        Outcome::Served { .. } => None,
        Outcome::Shed => Some("shed"),
        Outcome::Expired => Some("expired"),
        Outcome::DeadlineExceeded => Some("deadline"),
        Outcome::InternalError => Some("internal_error"),
    }
}

/// Build the span tree for one request. Deterministic: a pure function of
/// the execution record, with every span interval on the virtual clock
/// (execution events shifted by the queue wait).
pub(crate) fn build_trace(input: TraceInput) -> RequestTrace {
    let q = input.queue_units;
    let latency = q + input.cost_units;

    let mut flags = TraceFlags {
        shed: matches!(input.outcome, Outcome::Shed | Outcome::Expired),
        degraded: matches!(input.outcome, Outcome::DeadlineExceeded | Outcome::InternalError),
        retried: input.retries > 0,
        faulted: false,
        slow: latency > input.slow_threshold,
    };

    let mut root_attrs = vec![("outcome", AttrValue::Str(outcome_label(input.outcome)))];
    if let Outcome::Served { tier, .. } = input.outcome {
        root_attrs.push(("tier", AttrValue::Str(tier.label())));
    }
    root_attrs.push(("wave", AttrValue::U64(input.wave)));
    root_attrs.push(("gen", AttrValue::U64(input.generation)));

    let mut spans = vec![
        TraceSpan {
            name: "request",
            parent: None,
            start: 0,
            end: latency,
            cause: root_cause(input.outcome),
            attrs: Vec::new(),
        },
        TraceSpan {
            name: "queue_wait",
            parent: Some(0),
            start: 0,
            end: q,
            cause: None,
            attrs: Vec::new(),
        },
    ];

    match input.probe {
        ProbeTag::None => {}
        ProbeTag::Probed => spans.push(TraceSpan {
            name: "probe",
            parent: Some(0),
            start: q,
            end: q,
            cause: None,
            attrs: Vec::new(),
        }),
        ProbeTag::Fallback => spans.push(TraceSpan {
            name: "probe",
            parent: Some(0),
            start: q,
            end: q,
            cause: Some("crc_fallback"),
            attrs: Vec::new(),
        }),
        ProbeTag::Quarantined => spans.push(TraceSpan {
            name: "probe",
            parent: Some(0),
            start: q,
            end: q,
            cause: Some("shard_quarantine"),
            attrs: Vec::new(),
        }),
    }

    for step in input.steps {
        match *step {
            ReqEvent::Attempt { tier, attempt_no, at, units, tag } => {
                if tag != AttemptTag::Served {
                    flags.faulted = true;
                }
                if matches!(tag, AttemptTag::CrcDegrade | AttemptTag::NanDegrade) {
                    flags.degraded = true;
                }
                let idx = spans.len() as u32;
                spans.push(TraceSpan {
                    name: "attempt",
                    parent: Some(0),
                    start: q + at,
                    end: q + at + units,
                    cause: tag.cause(),
                    attrs: vec![
                        ("tier", AttrValue::Str(tier.label())),
                        ("attempt_no", AttrValue::U64(attempt_no as u64)),
                    ],
                });
                if tag == AttemptTag::Served {
                    // Ranking happens inside the attempt; its own cost is
                    // folded into the tier cost, so the span is a marker.
                    spans.push(TraceSpan {
                        name: "rank",
                        parent: Some(idx),
                        start: q + at + units,
                        end: q + at + units,
                        cause: None,
                        attrs: Vec::new(),
                    });
                }
            }
            ReqEvent::Backoff { tier, attempt_no, at, delay } => spans.push(TraceSpan {
                name: "retry_backoff",
                parent: Some(0),
                start: q + at,
                end: q + at + delay,
                cause: None,
                attrs: vec![
                    ("tier", AttrValue::Str(tier.label())),
                    ("attempt_no", AttrValue::U64(attempt_no as u64)),
                ],
            }),
            ReqEvent::SkipBrownout { tier, at, .. } => spans.push(TraceSpan {
                name: "skip",
                parent: Some(0),
                start: q + at,
                end: q + at,
                cause: Some("brownout_shift"),
                attrs: vec![("tier", AttrValue::Str(tier.label()))],
            }),
            ReqEvent::SkipBreaker { tier, component, at } => {
                // A breaker denial means the request is served below its
                // entitled tier because of component failure — degraded,
                // unlike a deliberate brownout policy shift.
                flags.degraded = true;
                spans.push(TraceSpan {
                    name: "skip",
                    parent: Some(0),
                    start: q + at,
                    end: q + at,
                    cause: Some("breaker_open"),
                    attrs: vec![
                        ("tier", AttrValue::Str(tier.label())),
                        ("component", AttrValue::Str(component.label())),
                    ],
                });
            }
            ReqEvent::SkipBudget { tier, at } => spans.push(TraceSpan {
                name: "skip",
                parent: Some(0),
                start: q + at,
                end: q + at,
                cause: Some("budget"),
                attrs: vec![("tier", AttrValue::Str(tier.label()))],
            }),
            ReqEvent::RetriesExhausted { .. } => flags.degraded = true,
        }
    }

    RequestTrace {
        trace_id: trace_id(input.request),
        request_id: input.request.id,
        latency_units: latency,
        flags,
        spans,
        attrs: root_attrs,
    }
}

/// Tracing/SLO policy knobs, carried inside [`crate::ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Capture and sample span trees when obs is enabled. Off means the
    /// service never builds a [`RequestTrace`] (the SLO monitor still
    /// counts, it is a handful of integer ops per request).
    pub enabled: bool,
    /// Tail-sampler decision window (traces per latency-decile window).
    pub window: usize,
    /// Deterministic baseline: keep 1-in-N unflagged, un-tailed traces
    /// (`0` disables the baseline).
    pub baseline_one_in: u64,
    /// SLO burn-rate policy (windows on the virtual clock).
    pub slo: SloConfig,
    /// A served request is SLO-good iff its end-to-end virtual latency is
    /// at most this; also the `slow` tail flag threshold. A value above
    /// `deadline_units` is lax-but-coherent: no served request can miss
    /// the latency SLO, and only sheds/expiries/deadline misses burn
    /// error budget.
    pub slo_latency_units: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            window: 256,
            baseline_one_in: 64,
            slo: SloConfig::default(),
            // Half the default deadline: a request can miss its latency SLO
            // and still beat the hard deadline.
            slo_latency_units: 2_000,
        }
    }
}

impl TraceConfig {
    pub fn validate(&self) {
        assert!(self.window >= 1, "trace window must be positive");
        assert!(self.slo_latency_units >= 1, "slo_latency_units must be positive");
        self.slo.validate();
    }

    fn sampler(&self) -> SamplerConfig {
        SamplerConfig {
            window: self.window,
            baseline_one_in: self.baseline_one_in,
            ..SamplerConfig::default()
        }
    }
}

/// Deterministic tracing totals for one service instance (surfaced in the
/// drill JSON reports).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStats {
    /// Finished requests offered to the tail sampler (0 when tracing off).
    pub seen: u64,
    /// Traces kept and emitted, by sampling reason.
    pub sampled: u64,
    pub sampled_flagged: u64,
    pub sampled_tail: u64,
    pub sampled_baseline: u64,
    /// SLO outcome counts (always recorded, tracing on or off).
    pub slo_good: u64,
    pub slo_bad: u64,
    /// `slo_alert` firing transitions.
    pub slo_alerts: u64,
    /// Peak fast-window burn rate any wave boundary observed.
    pub slo_burn_peak: f64,
}

impl TraceStats {
    /// Fold another run's totals in: counts add, the burn peak is the
    /// larger of the two.
    pub fn merge(&mut self, other: &TraceStats) {
        self.seen += other.seen;
        self.sampled += other.sampled;
        self.sampled_flagged += other.sampled_flagged;
        self.sampled_tail += other.sampled_tail;
        self.sampled_baseline += other.sampled_baseline;
        self.slo_good += other.slo_good;
        self.slo_bad += other.slo_bad;
        self.slo_alerts += other.slo_alerts;
        self.slo_burn_peak = self.slo_burn_peak.max(other.slo_burn_peak);
    }
}

/// The service's tracing state: tail sampler + SLO monitor + a monotonic
/// mapping from per-run local clocks to the monitor's global clock.
pub(crate) struct ServeTracer {
    sampler: TailSampler,
    slo: SloMonitor,
    /// Global-clock offset of the current run: consecutive `run*` calls
    /// each restart their local clock at 0, but the SLO monitor needs
    /// non-decreasing time.
    base: u64,
    /// High-water mark of the current run's local clock.
    run_peak: u64,
}

impl ServeTracer {
    pub(crate) fn new(config: &TraceConfig) -> ServeTracer {
        ServeTracer {
            sampler: TailSampler::new(config.sampler()),
            slo: SloMonitor::new(config.slo),
            base: 0,
            run_peak: 0,
        }
    }

    /// Map a run-local clock value onto the monitor's monotonic clock.
    fn global_now(&mut self, local: u64) -> u64 {
        self.run_peak = self.run_peak.max(local);
        self.base + self.run_peak
    }

    /// Fold one finished request in: SLO accounting always; sampling and
    /// emission only when the fold built a trace (tracing enabled).
    pub(crate) fn observe(&mut self, local_now: u64, good: bool, trace: Option<RequestTrace>) {
        let now = self.global_now(local_now);
        self.slo.record(now, good);
        if let Some(trace) = trace {
            for (kept, reason) in self.sampler.offer(trace) {
                emit_trace(&kept, reason);
            }
        }
    }

    /// Wave boundary: evaluate burn rates and alert transitions.
    pub(crate) fn advance(&mut self, local_now: u64) {
        let now = self.global_now(local_now);
        self.slo.advance(now);
    }

    /// End of a `run*` call: decide the final partial sampler window and
    /// roll the local clock into the monotonic base.
    pub(crate) fn finish_run(&mut self) {
        for (kept, reason) in self.sampler.flush() {
            emit_trace(&kept, reason);
        }
        self.base += self.run_peak;
        self.run_peak = 0;
    }

    pub(crate) fn stats(&self) -> TraceStats {
        let s = self.sampler.stats();
        TraceStats {
            seen: s.seen,
            sampled: s.kept,
            sampled_flagged: s.kept_flagged,
            sampled_tail: s.kept_tail,
            sampled_baseline: s.kept_baseline,
            slo_good: self.slo.total_good(),
            slo_bad: self.slo.total_bad(),
            slo_alerts: self.slo.alerts(),
            slo_burn_peak: self.slo.peak_fast_burn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> MatchRequest {
        MatchRequest { id: 7, entity: 3, seed: 42 }
    }

    #[test]
    fn trace_id_is_a_pure_function_of_the_request() {
        let a = trace_id(&request());
        let b = trace_id(&request());
        assert_eq!(a, b);
        let other = MatchRequest { id: 8, ..request() };
        assert_ne!(a, trace_id(&other));
    }

    #[test]
    fn span_tree_covers_queue_probe_attempts_backoff_and_rank() {
        let req = request();
        let outcome = Outcome::Served { tier: Tier::Cached, ranking: vec![0] };
        let steps = [
            ReqEvent::Attempt {
                tier: Tier::Full,
                attempt_no: 0,
                at: 0,
                units: 400,
                tag: AttemptTag::Panic,
            },
            ReqEvent::Backoff { tier: Tier::Full, attempt_no: 1, at: 400, delay: 16 },
            ReqEvent::Attempt {
                tier: Tier::Full,
                attempt_no: 1,
                at: 416,
                units: 400,
                tag: AttemptTag::Panic,
            },
            ReqEvent::RetriesExhausted { tier: Tier::Full, at: 816 },
            ReqEvent::Attempt {
                tier: Tier::Cached,
                attempt_no: 0,
                at: 816,
                units: 120,
                tag: AttemptTag::Served,
            },
        ];
        let trace = build_trace(TraceInput {
            request: &req,
            outcome: &outcome,
            queue_units: 100,
            cost_units: 936,
            retries: 1,
            steps: &steps,
            probe: ProbeTag::Probed,
            wave: 2,
            generation: 5,
            slow_threshold: 2_000,
        });

        assert_eq!(trace.trace_id, trace_id(&req));
        assert_eq!(trace.latency_units, 1_036);
        // root + queue_wait + probe + 3 attempts + backoff + rank = 8
        assert_eq!(trace.spans.len(), 8);
        let root = &trace.spans[0];
        assert_eq!((root.name, root.start, root.end, root.cause), ("request", 0, 1_036, None));
        let queue = &trace.spans[1];
        assert_eq!((queue.name, queue.start, queue.end), ("queue_wait", 0, 100));
        let probe = &trace.spans[2];
        assert_eq!((probe.name, probe.start, probe.cause), ("probe", 100, None));
        // First attempt shifted by the queue wait, cause tagged.
        let attempt = &trace.spans[3];
        assert_eq!(
            (attempt.name, attempt.start, attempt.end, attempt.cause),
            ("attempt", 100, 500, Some("panic"))
        );
        let backoff = &trace.spans[4];
        assert_eq!((backoff.name, backoff.start, backoff.end), ("retry_backoff", 500, 516));
        // The served attempt gets a zero-width rank child.
        let served = &trace.spans[6];
        assert_eq!((served.name, served.cause), ("attempt", None));
        let rank = &trace.spans[7];
        assert_eq!((rank.name, rank.parent, rank.start, rank.end), ("rank", Some(6), 1_036, 1_036));
        // Flags: retried + faulted + degraded (retries exhausted), not slow.
        assert!(trace.flags.retried && trace.flags.faulted && trace.flags.degraded);
        assert!(!trace.flags.slow && !trace.flags.shed);
        // Every child sits inside the root interval, parents precede
        // children — the invariants trace_report checks.
        for (i, span) in trace.spans.iter().enumerate().skip(1) {
            let parent = span.parent.expect("non-root spans have parents") as usize;
            assert!(parent < i);
            assert!(span.start >= root.start && span.end <= root.end);
            assert!(span.start <= span.end);
        }
    }

    #[test]
    fn shed_trace_is_queue_only_with_the_shed_flag() {
        let req = request();
        let trace = build_trace(TraceInput {
            request: &req,
            outcome: &Outcome::Shed,
            queue_units: 0,
            cost_units: 0,
            retries: 0,
            steps: &[],
            probe: ProbeTag::None,
            wave: 0,
            generation: 0,
            slow_threshold: 2_000,
        });
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].cause, Some("shed"));
        assert!(trace.flags.shed);
        assert!(!trace.flags.degraded);
    }

    #[test]
    fn breaker_skip_flags_degraded_but_brownout_skip_does_not() {
        let req = request();
        let outcome = Outcome::Served { tier: Tier::Cached, ranking: vec![0] };
        let build = |steps: &[ReqEvent]| {
            build_trace(TraceInput {
                request: &req,
                outcome: &outcome,
                queue_units: 0,
                cost_units: 120,
                retries: 0,
                steps,
                probe: ProbeTag::None,
                wave: 0,
                generation: 0,
                slow_threshold: 2_000,
            })
        };
        let breaker = build(&[
            ReqEvent::SkipBreaker { tier: Tier::Full, component: Component::SoftEncoder, at: 0 },
            ReqEvent::Attempt {
                tier: Tier::Cached,
                attempt_no: 0,
                at: 0,
                units: 120,
                tag: AttemptTag::Served,
            },
        ]);
        assert!(breaker.flags.degraded, "breaker denial is failure-driven degradation");
        assert_eq!(breaker.spans[1 + 1].cause, Some("breaker_open"));
        // A brownout cap is deliberate load-shedding policy, not failure:
        // flagging every browned-out serve would drown the sampler.
        let brownout = build(&[
            ReqEvent::SkipBrownout { tier: Tier::Full, cap: Tier::Cached, at: 0 },
            ReqEvent::Attempt {
                tier: Tier::Cached,
                attempt_no: 0,
                at: 0,
                units: 120,
                tag: AttemptTag::Served,
            },
        ]);
        assert!(!brownout.flags.degraded);
        assert_eq!(brownout.spans[2].cause, Some("brownout_shift"));
    }

    #[test]
    fn tracer_maps_consecutive_runs_onto_a_monotonic_clock() {
        let config = TraceConfig::default();
        let mut tracer = ServeTracer::new(&config);
        tracer.observe(400, true, None);
        tracer.advance(800);
        tracer.finish_run();
        // Second run restarts its local clock; the tracer must not hand the
        // SLO monitor a clock that goes backwards.
        tracer.observe(0, false, None);
        tracer.advance(400);
        tracer.finish_run();
        let stats = tracer.stats();
        assert_eq!((stats.slo_good, stats.slo_bad), (1, 1));
    }
}
