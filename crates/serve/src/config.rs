//! Serving policy knobs: deadlines, retry budgets, breaker thresholds, and
//! admission control.
//!
//! Everything latency-like is expressed in **virtual cost units**, not wall
//! clock: each tier attempt charges a deterministic cost, injected latency
//! spikes add units, and retry backoff delays add units. Deadlines are
//! budgets over this virtual clock, so the same request stream produces the
//! same deadline/degradation decisions on any machine at any thread count
//! (the determinism contract of DESIGN.md §11). Wall-clock latency is still
//! *measured* per request for reporting, but never consulted for decisions.

use crate::brownout::BrownoutConfig;
use crate::tiers::Tier;
use crate::trace::TraceConfig;

/// Bounded exponential backoff policy for transient tier failures (worker
/// panics, attempt timeouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Retries per tier attempt beyond the first try. `0` disables retry.
    pub max_retries: u32,
    /// Virtual-unit delay before the first retry; doubles per attempt.
    pub base_delay: u64,
    /// Hard cap on any single backoff delay (after jitter).
    pub max_delay: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { max_retries: 2, base_delay: 16, max_delay: 500 }
    }
}

impl RetryConfig {
    pub fn validate(&self) {
        assert!(self.base_delay > 0, "retry base_delay must be positive");
        assert!(self.max_delay >= self.base_delay, "retry max_delay below base_delay");
    }
}

/// Circuit-breaker policy shared by the per-component breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (in fold order) before the breaker trips open.
    pub failure_threshold: u32,
    /// Requests the breaker stays open before half-opening for a probe.
    pub cooldown_base: u64,
    /// Upper bound on the deterministic per-trip cooldown jitter.
    pub cooldown_jitter: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown_base: 8, cooldown_jitter: 4 }
    }
}

impl BreakerConfig {
    pub fn validate(&self) {
        assert!(self.failure_threshold >= 1, "breaker failure_threshold must be positive");
        assert!(self.cooldown_base >= 1, "breaker cooldown_base must be positive");
    }
}

/// Full service policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Seed for every service-side deterministic schedule (breaker cooldown
    /// jitter). Request-side jitter derives from each request's own seed.
    pub seed: u64,
    /// Per-request virtual budget; exceeded → `DeadlineExceeded`, checked
    /// between pipeline stages.
    pub deadline_units: u64,
    /// A single tier attempt (tier cost + latency spike) exceeding this is
    /// cancelled as a timeout — a transient, retriable failure.
    pub attempt_timeout_units: u64,
    /// Deterministic cost of one attempt per tier, indexed by [`Tier`].
    /// Richer tiers cost more, mirroring their real relative latency.
    pub tier_cost: [u64; Tier::COUNT],
    /// Images returned per served request (ranking depth).
    pub top_k: usize,
    /// Requests beyond this backlog are shed at admission (closed-loop
    /// burst mode, [`crate::MatchService::run`]).
    pub max_queue_depth: usize,
    /// Requests executed per scheduling wave; breaker state is snapshotted
    /// at wave boundaries and outcomes folded back in arrival order.
    pub wave: usize,
    /// Open-loop admission queue bound ([`crate::MatchService::run_open_loop`]);
    /// arrivals past this depth are shed as queue-full.
    pub queue_capacity: usize,
    /// Virtual units one open-loop wave slot represents: the clock advances
    /// by this much per wave, and arrivals are admitted against it.
    pub wave_units: u64,
    /// Parallel service lanes the open-loop wave budget models: one wave
    /// can spend up to `wave_units × lanes` cost units, so capping the
    /// ladder at a cheaper tier fits more requests per wave.
    pub lanes: usize,
    /// Clusters the shard builder partitions the image gallery into
    /// (IVF posting lists; see `cem-serve::shard` / DESIGN.md §13).
    pub nclusters: usize,
    /// Clusters a request probes, ranked by centroid score. Larger raises
    /// recall toward the dense scan (`nprobe = nclusters` is bit-identical
    /// to it) at proportionally more scoring work.
    pub nprobe: usize,
    /// Minimum wave slots probing the same cluster before their queries
    /// coalesce into one batched GEMM against the shard panel; smaller
    /// groups score row-by-row. Purely a throughput knob — both paths are
    /// bit-identical (the packed kernel's schedule depends only on `dim`).
    pub min_batch: usize,
    /// Integrity-scrub budget: CRC sections verified per wave boundary by
    /// the online scrubber (dense tier rows, shard posting lists and
    /// embeddings, and the on-disk latest/prev generation files — see
    /// `cem-serve::scrub` / DESIGN.md §14). `0` disables scrubbing. Purely background work: the
    /// scrubber never touches request scoring, only quarantine state.
    pub scrub_sections_per_wave: usize,
    pub retry: RetryConfig,
    pub breaker: BreakerConfig,
    pub brownout: BrownoutConfig,
    /// Structured tracing + SLO policy (see [`crate::trace`]). Only
    /// *observes*: responses and stats are bit-identical whatever these
    /// knobs say.
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0,
            deadline_units: 4_000,
            attempt_timeout_units: 900,
            tier_cost: [400, 120, 250, 60],
            top_k: 10,
            max_queue_depth: 4_096,
            wave: 64,
            queue_capacity: 512,
            wave_units: 400,
            lanes: 8,
            nclusters: 64,
            nprobe: 8,
            min_batch: 2,
            scrub_sections_per_wave: 0,
            retry: RetryConfig::default(),
            breaker: BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl ServeConfig {
    pub fn validate(&self) {
        assert!(self.deadline_units > 0, "deadline_units must be positive");
        assert!(self.attempt_timeout_units > 0, "attempt_timeout_units must be positive");
        assert!(self.tier_cost.iter().all(|&c| c > 0), "tier costs must be positive");
        assert!(self.top_k >= 1, "top_k must be positive");
        assert!(self.max_queue_depth >= 1, "max_queue_depth must be positive");
        assert!(self.wave >= 1, "wave must be positive");
        assert!(self.queue_capacity >= 1, "queue_capacity must be positive");
        assert!(self.wave_units >= 1, "wave_units must be positive");
        assert!(self.lanes >= 1, "lanes must be positive");
        assert!(self.nclusters >= 1, "nclusters must be positive");
        assert!(self.nprobe >= 1, "nprobe must be positive");
        assert!(self.nprobe <= self.nclusters, "nprobe cannot exceed nclusters");
        assert!(self.min_batch >= 1, "min_batch must be positive");
        assert!(
            self.deadline_units >= self.cheapest_tier_cost(),
            "deadline_units below the cheapest tier cost: nothing could ever serve"
        );
        self.retry.validate();
        self.breaker.validate();
        self.brownout.validate();
        self.trace.validate();
    }

    /// The cheapest single-attempt cost on the ladder — the floor an aged
    /// queued request must still be able to afford.
    pub fn cheapest_tier_cost(&self) -> u64 {
        *self.tier_cost.iter().min().expect("tier_cost is non-empty")
    }

    /// Cost units one open-loop wave may spend executing requests.
    pub fn wave_budget_units(&self) -> u64 {
        self.wave_units.saturating_mul(self.lanes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ServeConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "max_delay")]
    fn inverted_retry_bounds_rejected() {
        RetryConfig { base_delay: 100, max_delay: 10, ..RetryConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "wave")]
    fn zero_wave_rejected() {
        ServeConfig { wave: 0, ..ServeConfig::default() }.validate();
    }

    #[test]
    fn wave_budget_and_cheapest_tier_derive_from_the_knobs() {
        let config = ServeConfig::default();
        assert_eq!(config.cheapest_tier_cost(), 60, "zero tier is the cheapest by default");
        assert_eq!(config.wave_budget_units(), 400 * 8);
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn zero_lanes_rejected() {
        ServeConfig { lanes: 0, ..ServeConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "nprobe")]
    fn overprobing_rejected() {
        ServeConfig { nclusters: 4, nprobe: 5, ..ServeConfig::default() }.validate();
    }

    #[test]
    fn scrubbing_defaults_off_and_any_budget_is_valid() {
        let config = ServeConfig::default();
        assert_eq!(config.scrub_sections_per_wave, 0, "scrubbing is opt-in");
        ServeConfig { scrub_sections_per_wave: 16, ..config }.validate();
    }
}
