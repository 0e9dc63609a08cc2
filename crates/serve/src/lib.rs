//! `cem-serve`: fault-tolerant embedded matching service for CrossEM.
//!
//! The training side of the repo answers "how do we tune the prompts"; this
//! crate answers "how do we keep answering match queries when components
//! misbehave". It wraps the precomputed per-tier score matrices
//! ([`ServeIndex`]) in a service ([`MatchService`]) with:
//!
//! * **deadlines** — per-request virtual-unit budgets checked between
//!   pipeline stages;
//! * **bounded retry** — exponential backoff with jitter seeded from the
//!   request, never from wall clock ([`retry::Backoff`]);
//! * **circuit breakers** — one per fallible component, tripping on
//!   consecutive failures and half-opening on a seeded probe schedule
//!   ([`breaker::CircuitBreaker`]);
//! * **admission control** — bursts beyond the queue depth are shed;
//! * **graceful degradation** — the tier ladder full → cached → hard →
//!   zero-shot ([`Tier`]), with the zero-shot Eq. 4 floor infallible.
//!
//! Everything decision-relevant runs on a virtual cost-unit clock, so a
//! fixed `(seed, fault schedule)` reproduces responses, breaker
//! transitions, and span trees bit-identically at any thread count. See
//! DESIGN.md §11 for the full determinism contract.

pub mod breaker;
pub mod brownout;
pub mod config;
pub mod fault;
pub mod hotswap;
pub mod queue;
pub mod request;
pub mod retry;
pub mod scrub;
pub mod service;
pub mod shard;
pub mod tiers;
pub mod trace;

pub use breaker::{BreakerState, BreakerTransition, CircuitBreaker, Component};
pub use brownout::{BrownoutConfig, BrownoutController, BrownoutShift, WaveObservation};
pub use config::{BreakerConfig, RetryConfig, ServeConfig};
pub use fault::{silence_injected_panics, FaultKind, NoFaults, ServeFault, PANIC_MARKER};
pub use hotswap::{Generation, GenerationStore, StoreFile, SwapError, GENERATION_SCHEMA};
pub use queue::{AdmissionQueue, QueuedRequest, ShedCause};
pub use request::{Arrival, MatchRequest, Outcome, Response};
pub use retry::{splitmix64, Backoff};
pub use scrub::{ScrubFinding, ScrubStats, Scrubber};
pub use service::{MatchService, ServeStats};
pub use shard::{Shard, ShardError, ShardRanking, ShardedIndex, WaveScore, SHARD_SCHEMA};
pub use tiers::{
    cached_proximity_scores, hard_prompt_scores, zero_shot_scores, ServeIndex, Tier,
};
pub use trace::{trace_id, TraceConfig, TraceStats};
