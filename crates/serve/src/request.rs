//! Request/response types for the embedded matching service.

use crate::breaker::Component;
use crate::tiers::Tier;

/// One entity-match query. `seed` drives every per-request deterministic
/// schedule (retry jitter); callers typically derive it from `(service
/// seed, request id)` via [`crate::retry::splitmix64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRequest {
    pub id: u64,
    /// Entity index into the serving index.
    pub entity: usize,
    pub seed: u64,
}

impl MatchRequest {
    /// The conventional request stream: ids `0..n`, entities round-robin
    /// over the catalogue, seeds derived from `seed` per id.
    pub fn stream(n: usize, entities: usize, seed: u64) -> Vec<MatchRequest> {
        (0..n)
            .map(|i| MatchRequest {
                id: i as u64,
                entity: i % entities,
                seed: crate::retry::splitmix64(seed, i as u64),
            })
            .collect()
    }
}

/// One open-loop arrival: a request plus the virtual tick at which it
/// reaches the service. Open-loop streams must be sorted by `at` — the
/// generator controls the schedule, the service never pushes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual tick of arrival on the service clock.
    pub at: u64,
    pub request: MatchRequest,
}

/// How a request resolved. Every admitted request resolves — the zero-shot
/// floor cannot fail — so the non-served resolutions are admission
/// shedding, queue expiry, deadline exhaustion, and (defensively) a typed
/// internal scheduling error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Served from `tier` with the top-k image ranking, best first.
    Served { tier: Tier, ranking: Vec<usize> },
    /// Rejected at admission: the queue was at capacity.
    Shed,
    /// Shed from the queue before execution: the remaining budget could no
    /// longer cover even the cheapest tier.
    Expired,
    /// The virtual budget ran out before any tier completed.
    DeadlineExceeded,
    /// A scheduling invariant broke (an admitted request resolved as shed).
    /// Never expected in practice; surfaced as a degraded response plus the
    /// `serve.internal_error` counter instead of a service panic.
    InternalError,
}

impl Outcome {
    pub fn served_tier(&self) -> Option<Tier> {
        match self {
            Outcome::Served { tier, .. } => Some(*tier),
            _ => None,
        }
    }
}

/// The service's answer to one request. Deliberately contains *only*
/// deterministic fields — wall time is reported through the `cem-obs`
/// span histograms instead — so the determinism contract can be stated as
/// plain equality: same seed + same fault schedule → `==` responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub id: u64,
    pub entity: usize,
    pub outcome: Outcome,
    /// Virtual cost units consumed executing (tier attempts + spikes +
    /// backoff). Zero for requests that never executed.
    pub cost_units: u64,
    /// Virtual units spent waiting in the admission queue before execution
    /// (always zero in closed-loop burst mode).
    pub queue_units: u64,
    /// Retries spent across all tiers.
    pub retries: u32,
    /// The model generation this response was scored against (0 when the
    /// service borrows a static index).
    pub generation: u64,
}

impl Response {
    /// End-to-end virtual latency: queue wait plus execution cost.
    pub fn latency_units(&self) -> u64 {
        self.queue_units + self.cost_units
    }
}

/// One component observation produced while executing a request, folded
/// into the breakers in arrival order after the wave joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ComponentEvent {
    pub component: Component,
    pub success: bool,
}

/// Everything a worker hands back to the fold step. Plain data (`Send`).
#[derive(Debug, Clone)]
pub(crate) struct ExecOutcome {
    pub outcome: Outcome,
    pub cost_units: u64,
    pub retries: u32,
    pub wall_nanos: u64,
    pub events: Vec<ComponentEvent>,
    /// Typed execution events in occurrence order (retries, degradations,
    /// skips) with virtual-clock positions — wall clock never appears. When
    /// tracing is on, the fold builds them into a span tree (see
    /// [`crate::trace`]).
    pub steps: Vec<crate::trace::ReqEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_round_robin() {
        let a = MatchRequest::stream(5, 3, 42);
        let b = MatchRequest::stream(5, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a[4].entity, 1);
        assert_ne!(a[0].seed, a[1].seed);
        let c = MatchRequest::stream(5, 3, 43);
        assert_ne!(a[0].seed, c[0].seed, "stream seed must feed request seeds");
    }

    #[test]
    fn served_tier_projects_only_served() {
        let served = Outcome::Served { tier: Tier::Hard, ranking: vec![1, 0] };
        assert_eq!(served.served_tier(), Some(Tier::Hard));
        assert_eq!(Outcome::Shed.served_tier(), None);
        assert_eq!(Outcome::Expired.served_tier(), None);
        assert_eq!(Outcome::DeadlineExceeded.served_tier(), None);
        assert_eq!(Outcome::InternalError.served_tier(), None);
    }

    #[test]
    fn latency_is_queue_wait_plus_cost() {
        let response = Response {
            id: 0,
            entity: 0,
            outcome: Outcome::DeadlineExceeded,
            cost_units: 120,
            queue_units: 400,
            retries: 0,
            generation: 0,
        };
        assert_eq!(response.latency_units(), 520);
    }
}
