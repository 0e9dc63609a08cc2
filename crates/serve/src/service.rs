//! The embedded matching service: admission control, wave-parallel
//! execution, deadlines, retries, breakers, and the degradation ladder.
//!
//! # Execution model
//!
//! Admitted requests drain in **waves** of `config.wave`. At each wave
//! boundary the breakers advance (`Open` → `HalfOpen` when their cooldown
//! elapses) and their states are snapshotted; every request in the wave
//! executes against that frozen snapshot on the `cem_tensor::par` worker
//! pool. When the wave joins, each request's component observations fold
//! into the breakers **in arrival order**. Workers therefore never mutate
//! shared state, and the fold is a serial left-to-right reduction — which
//! is why responses, stats, breaker transitions, span trees, and obs events
//! are bit-identical at 1 and N threads.
//!
//! A `HalfOpen` component admits exactly one probe per wave: slot 0. Every
//! other slot treats the component as open and degrades past its tier.
//!
//! # Two front doors
//!
//! * [`MatchService::run`] — **closed-loop burst**: a batch of requests is
//!   all offered at once, the tail past `max_queue_depth` is shed, waves
//!   drain in request order with the full deadline budget each.
//! * [`MatchService::run_open_loop`] — **open-loop schedule**: arrivals
//!   carry their own virtual timestamps and the clock advances `wave_units`
//!   per wave whether or not the service keeps up. Arrivals park in a
//!   bounded EDF [`AdmissionQueue`]; overflow is shed queue-full, aged-out
//!   requests are shed [`Outcome::Expired`], and the
//!   [`BrownoutController`] caps the tier ladder per wave so a saturated
//!   service trades ranking quality for throughput instead of missing
//!   deadlines.
//!
//! # Hot-swap
//!
//! The service scores against an [`IndexSource`]: a borrowed static index
//! or an owned, numbered [`Generation`]. A staged generation promotes only
//! **at wave boundaries**, so a wave is entirely one generation — in-flight
//! requests are never dropped or scored against mixed indices. Every
//! [`Response`] carries the generation id it was scored against.
//!
//! # Request pipeline
//!
//! Each request walks the tier ladder (full → cached → hard → zero) from
//! the brownout cap down. Between stages it checks its remaining
//! virtual-unit budget and skips tiers whose attempt cost cannot fit. Per
//! tier it runs a bounded retry loop: transient failures (worker panic
//! caught via `catch_unwind` at the pool boundary, attempt timeouts from
//! latency spikes) back off with seeded jitter and retry; non-transient
//! failures (NaN-poisoned scores, checksum-detected corruption) degrade to
//! the next tier immediately. The zero-shot floor ignores injected faults
//! and its NaN-safe ranking always returns a permutation, so every executed
//! request resolves as served or deadline-exceeded — never a process abort.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crossem::matcher::rank_row;

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker, Component};
use crate::brownout::{BrownoutController, BrownoutShift, WaveObservation};
use crate::config::ServeConfig;
use crate::fault::{FaultKind, ServeFault, PANIC_MARKER};
use crate::hotswap::{Generation, GenerationStore, StoreFile, SwapError};
use crate::queue::AdmissionQueue;
use crate::request::{Arrival, ComponentEvent, ExecOutcome, MatchRequest, Outcome, Response};
use crate::retry::{splitmix64, Backoff};
use crate::scrub::{ScrubFinding, ScrubStats, Scrubber};
use crate::shard::{ShardError, ShardRanking, ShardedIndex};
use crate::tiers::{ServeIndex, Tier};
use crate::trace::{build_trace, AttemptTag, ProbeTag, ReqEvent, ServeTracer, TraceInput, TraceStats};

/// Aggregate counters over everything a service instance has processed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub admitted: u64,
    /// Requests rejected at admission (burst tail drop or queue-full).
    pub shed: u64,
    /// Requests shed from the queue because their remaining budget could no
    /// longer cover the cheapest tier (open-loop only).
    pub expired: u64,
    /// Served-response count per tier, ladder order.
    pub served: [u64; Tier::COUNT],
    pub deadline_exceeded: u64,
    /// Executed requests that resolved with a broken scheduling invariant
    /// ([`Outcome::InternalError`]). Always zero in a healthy service.
    pub internal_errors: u64,
    /// Total retries across all requests and tiers.
    pub retries: u64,
    /// Total breaker trips (Closed→Open and HalfOpen→Open).
    pub breaker_trips: u64,
    /// Waves executed (burst and open-loop, including idle open-loop waves).
    pub waves: u64,
    /// Open-loop waves spent at each brownout cap, ladder order. Index 0
    /// (`Full`) counts un-browned-out waves.
    pub brownout_waves: [u64; Tier::COUNT],
    /// Generations promoted into service.
    pub hotswap_promotes: u64,
    /// Incoming generations rejected (unreadable, stale, or mis-shaped).
    pub hotswap_rejects: u64,
    /// Wave slots handed a cluster-pruned candidate ranking by the shard
    /// probe pre-pass (they may still degrade below `Full` for other
    /// reasons; see `cem-serve::shard` / DESIGN.md §13).
    pub ann_requests: u64,
    /// Wave slots that fell back to the dense scan because their probe
    /// schedule touched a quarantined cluster. Per-cluster fallback: the
    /// rest of the wave keeps its probed rankings (DESIGN.md §14).
    pub cluster_fallbacks: u64,
    /// Whole-wave probe pre-passes abandoned for a non-corruption shard
    /// error (defensive; always zero in a healthy service — corruption
    /// quarantines per cluster instead).
    pub wave_fallbacks: u64,
    /// Clusters moved into quarantine, whether found by a serve-time wave
    /// CRC check or by the background scrubber.
    pub shards_quarantined: u64,
    /// Quarantined clusters healed from the durable generation,
    /// CRC-verified, and re-admitted to probing.
    pub shards_repaired: u64,
}

impl ServeStats {
    pub fn served_total(&self) -> u64 {
        self.served.iter().sum()
    }
}

/// What the service scores against: a borrowed static index (the simple
/// construction path) or an owned, hot-swappable [`Generation`].
enum IndexSource<'a> {
    Borrowed { index: &'a ServeIndex, shards: Option<&'a ShardedIndex> },
    Owned(Box<Generation>),
}

impl IndexSource<'_> {
    fn index(&self) -> &ServeIndex {
        match self {
            IndexSource::Borrowed { index, .. } => index,
            IndexSource::Owned(generation) => &generation.index,
        }
    }

    /// The cluster-pruned shard index riding alongside the dense tiers,
    /// when one was built for this generation.
    fn shards(&self) -> Option<&ShardedIndex> {
        match self {
            IndexSource::Borrowed { shards, .. } => *shards,
            IndexSource::Owned(generation) => generation.shards.as_ref(),
        }
    }

    /// Generation id responses are tagged with; `0` for a borrowed index.
    fn generation(&self) -> u64 {
        match self {
            IndexSource::Borrowed { .. } => 0,
            IndexSource::Owned(generation) => generation.id,
        }
    }
}

/// One dequeued request ready for a wave: the virtual budget it has left
/// and the units it already spent parked in the admission queue.
#[derive(Debug, Clone, Copy)]
struct WaveSlot {
    request: MatchRequest,
    /// Remaining virtual budget for execution.
    budget: u64,
    /// Units spent queued before this wave.
    queue_units: u64,
}

/// The embedded matching service. Owns the breakers, the brownout
/// controller, and the fold clock; scores against an [`IndexSource`].
pub struct MatchService<'a> {
    config: ServeConfig,
    source: IndexSource<'a>,
    breakers: [CircuitBreaker; Component::COUNT],
    /// Requests folded so far — the deterministic clock breakers run on.
    tick: u64,
    stats: ServeStats,
    /// Structured tracing: tail sampler + SLO burn-rate monitor. Only
    /// observes — never feeds back into responses or stats.
    tracer: ServeTracer,
    brownout: BrownoutController,
    /// A generation staged for promotion at the next wave boundary.
    staged: Option<Generation>,
    /// Mid-run swaps scheduled by open-loop wave index.
    swaps: Vec<(u64, Result<Generation, SwapError>)>,
    /// Budgeted background integrity scrubber, ticked at wave boundaries.
    scrubber: Scrubber,
    /// Clusters whose shard failed a CRC check: requests probing them fall
    /// back to the dense tier until repair re-admits them.
    quarantined: BTreeSet<usize>,
    /// Durable generation store the scrubber probes and repair heals from.
    store: Option<GenerationStore>,
    /// A scrubbed latest/prev file failed verification; repair republishes
    /// the serving generation until both files verify again.
    disk_damaged: bool,
}

impl<'a> MatchService<'a> {
    pub fn new(config: ServeConfig, index: &'a ServeIndex) -> Self {
        Self::build(config, IndexSource::Borrowed { index, shards: None })
    }

    /// Like [`MatchService::new`], but full-tier waves probe `shards` (the
    /// cluster-pruned ANN index) instead of dense-scanning the gallery.
    /// The dense tiers remain the verify/fallback path: a shard integrity
    /// failure falls the wave back to the dense scan.
    pub fn with_shards(
        config: ServeConfig,
        index: &'a ServeIndex,
        shards: &'a ShardedIndex,
    ) -> Self {
        assert_eq!(
            (index.entities(), index.images()),
            (shards.entities(), shards.images()),
            "shard index must cover the same catalogue as the dense tiers"
        );
        Self::build(config, IndexSource::Borrowed { index, shards: Some(shards) })
    }

    /// Construct around an owned generation, enabling zero-downtime
    /// hot-swap ([`MatchService::stage`] / [`MatchService::schedule_swap`]).
    pub fn with_generation(config: ServeConfig, generation: Generation) -> MatchService<'static> {
        MatchService::build(config, IndexSource::Owned(Box::new(generation)))
    }

    fn build(config: ServeConfig, source: IndexSource<'a>) -> MatchService<'a> {
        config.validate();
        let breakers =
            Component::ALL.map(|c| CircuitBreaker::new(config.breaker, config.seed, c));
        let brownout = BrownoutController::new(config.brownout);
        MatchService {
            config,
            source,
            breakers,
            tick: 0,
            stats: ServeStats::default(),
            tracer: ServeTracer::new(&config.trace),
            brownout,
            staged: None,
            swaps: Vec::new(),
            scrubber: Scrubber::new(),
            quarantined: BTreeSet::new(),
            store: None,
            disk_damaged: false,
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Deterministic tracing + SLO totals: traces seen/sampled by reason,
    /// SLO good/bad counts, burn-rate alert firings, peak fast burn.
    pub fn trace_stats(&self) -> TraceStats {
        self.tracer.stats()
    }

    pub fn breaker_state(&self, component: Component) -> BreakerState {
        self.breakers[component.index()].state()
    }

    pub fn breaker_trips(&self, component: Component) -> u64 {
        self.breakers[component.index()].trips()
    }

    /// The index currently serving.
    pub fn index(&self) -> &ServeIndex {
        self.source.index()
    }

    /// The generation currently serving (`0` while borrowing a static
    /// index).
    pub fn generation(&self) -> u64 {
        self.source.generation()
    }

    /// The richest tier the brownout controller currently allows.
    pub fn brownout_cap(&self) -> Tier {
        self.brownout.cap()
    }

    /// Attach the durable generation store the scrubber's disk sections
    /// probe and repair heals from. Without a store, corruption is still
    /// detected and quarantined — it just cannot heal.
    pub fn attach_store(&mut self, store: GenerationStore) {
        self.store = Some(store);
    }

    /// Clusters currently quarantined: probes touching them fall back to
    /// the dense tier until repair re-admits them.
    pub fn quarantined(&self) -> &BTreeSet<usize> {
        &self.quarantined
    }

    /// Background-scrub progress counters.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrubber.stats()
    }

    /// Flip a bit in one owned shard's embeddings without refreshing its
    /// CRC — in-RAM bit rot for scrub/quarantine drills. Panics on a
    /// borrowed index or a shardless generation. Not part of the serving
    /// API.
    #[doc(hidden)]
    pub fn corrupt_owned_shard_for_tests(&mut self, cluster: usize) {
        match &mut self.source {
            IndexSource::Owned(generation) => generation
                .shards
                .as_mut()
                .expect("generation carries no shards")
                .corrupt_shard_for_tests(cluster),
            IndexSource::Borrowed { .. } => panic!("cannot corrupt a borrowed index"),
        }
    }

    /// Stage `generation` for promotion at the next wave boundary. Stale
    /// ids and catalogue-shape mismatches are rejected on the spot
    /// (`serve.hotswap.reject`); the serving generation keeps answering
    /// either way.
    pub fn stage(&mut self, generation: Generation) -> Result<(), SwapError> {
        let current = self.source.index();
        let expected = (current.entities(), current.images());
        let found = (generation.index.entities(), generation.index.images());
        if expected != found {
            let err = SwapError::ShapeMismatch { expected, found };
            self.reject_swap();
            return Err(err);
        }
        let current_id =
            self.staged.as_ref().map(|g| g.id).unwrap_or(0).max(self.source.generation());
        if generation.id <= current_id {
            let err = SwapError::StaleGeneration { current: current_id, incoming: generation.id };
            self.reject_swap();
            return Err(err);
        }
        self.staged = Some(generation);
        Ok(())
    }

    /// Feed the service the result of an out-of-band generation load: `Ok`
    /// stages it, `Err` (CRC-rejected container, bad schema, …) is counted
    /// as a rejected swap. Returns whether the generation was staged.
    pub fn offer_swap(&mut self, incoming: Result<Generation, SwapError>) -> bool {
        match incoming {
            Ok(generation) => self.stage(generation).is_ok(),
            Err(_) => {
                self.reject_swap();
                false
            }
        }
    }

    /// Schedule a swap to land at open-loop wave `at_wave` — the mid-run
    /// hot-swap drills use this to promote a generation under load.
    pub fn schedule_swap(&mut self, at_wave: u64, incoming: Result<Generation, SwapError>) {
        self.swaps.push((at_wave, incoming));
    }

    /// Promote the staged generation, if any. Runs automatically at wave
    /// boundaries; public so burst-mode callers can promote between runs.
    /// Returns whether a promotion happened.
    pub fn promote_staged(&mut self) -> bool {
        match self.staged.take() {
            Some(generation) => {
                self.stats.hotswap_promotes += 1;
                cem_obs::counter_add!("serve.hotswap.promote", 1);
                self.source = IndexSource::Owned(Box::new(generation));
                true
            }
            None => false,
        }
    }

    fn reject_swap(&mut self) {
        self.stats.hotswap_rejects += 1;
        cem_obs::counter_add!("serve.hotswap.reject", 1);
    }

    /// Wave-boundary background work: one budgeted scrub tick over the
    /// section layout, then at most one heal ([`Self::repair`]). Runs
    /// strictly between waves — a wave is entirely one index state — and
    /// advances with wave boundaries, never wall clock, so replay stays
    /// bit-identical at any thread count.
    fn maintenance(&mut self) {
        let budget = self.config.scrub_sections_per_wave;
        if budget == 0 {
            return;
        }
        let findings = self.scrubber.tick(
            budget,
            self.source.index(),
            self.source.shards(),
            &self.quarantined,
            self.store.as_ref(),
        );
        for finding in findings {
            match finding {
                // Detection only: every serve-time attempt re-verifies
                // dense rows and degrades past damage (`score_tier`).
                ScrubFinding::DenseRow { .. } => {}
                ScrubFinding::ShardCluster { cluster } => {
                    if self.quarantined.insert(cluster) {
                        self.stats.shards_quarantined += 1;
                        cem_obs::counter_add!("serve.shard.quarantine", 1);
                    }
                }
                ScrubFinding::DiskGeneration { .. } => self.disk_damaged = true,
            }
        }
        self.repair();
    }

    /// Heal between waves: republish the serving generation over a damaged
    /// durable file, then rebuild one quarantined cluster per boundary from
    /// the durable donor — CRC-verified by [`ShardedIndex::repair_shard_from`]
    /// — re-admit it, and republish the healed generation through the
    /// atomic latest/prev rotation. Requires an attached store and an owned
    /// generation; without them corruption stays quarantined (degraded but
    /// always correct).
    fn repair(&mut self) {
        if !self.disk_damaged && self.quarantined.is_empty() {
            return;
        }
        let Some(store) = self.store.take() else { return };
        if self.disk_damaged {
            if let IndexSource::Owned(generation) = &self.source {
                match store.publish(generation) {
                    Ok(()) => {
                        // The rotation demotes the old (possibly damaged)
                        // latest to prev, so a second boundary's republish
                        // may be needed before both files verify.
                        let clean = store.verify_file(StoreFile::Latest).is_ok()
                            && store.verify_file(StoreFile::Prev).is_ok();
                        self.disk_damaged = !clean;
                        cem_obs::counter_add!("serve.scrub.republish", 1);
                    }
                    Err(err) => emit_repair_failed("republish", err),
                }
            }
        }
        if let Some(&cluster) = self.quarantined.iter().next() {
            if let IndexSource::Owned(generation) = &mut self.source {
                if generation.shards.is_some() {
                    match store.load() {
                        Ok(donor) if donor.id == generation.id && donor.shards.is_some() => {
                            let repaired = match (generation.shards.as_mut(), donor.shards.as_ref())
                            {
                                (Some(own), Some(donor_shards)) => {
                                    own.repair_shard_from(cluster, donor_shards)
                                }
                                _ => unreachable!("both shard sections checked above"),
                            };
                            match repaired {
                                Ok(()) => {
                                    self.quarantined.remove(&cluster);
                                    self.stats.shards_repaired += 1;
                                    if let Err(err) = store.publish(generation) {
                                        emit_repair_failed("healed_republish", err);
                                    }
                                }
                                Err(err) => emit_repair_failed("repair", err),
                            }
                        }
                        Ok(donor) => emit_repair_failed(
                            "donor_mismatch",
                            format_args!(
                                "donor generation {} does not match serving {}",
                                donor.id, generation.id
                            ),
                        ),
                        Err(err) => emit_repair_failed("donor_load", err),
                    }
                }
            }
        }
        self.store = Some(store);
    }

    fn shed_response(&self, request: &MatchRequest, outcome: Outcome, queue_units: u64) -> Response {
        Response {
            id: request.id,
            entity: request.entity,
            outcome,
            cost_units: 0,
            queue_units,
            retries: 0,
            generation: self.source.generation(),
        }
    }

    /// Tracing/SLO accounting for a request that never executed (shed at
    /// admission or expired in the queue): always an SLO-bad event, and a
    /// queue-wait-only trace with the `shed` flag when tracing is on.
    fn observe_unserved(
        &mut self,
        request: &MatchRequest,
        outcome: &Outcome,
        queue_units: u64,
        now: u64,
        tracing: bool,
    ) {
        record_latency_units(queue_units);
        let trace = tracing.then(|| {
            build_trace(TraceInput {
                request,
                outcome,
                queue_units,
                cost_units: 0,
                retries: 0,
                steps: &[],
                probe: ProbeTag::None,
                wave: self.stats.waves,
                generation: self.source.generation(),
                slow_threshold: self.config.trace.slo_latency_units,
            })
        });
        self.tracer.observe(now, false, trace);
    }

    /// Process one closed-loop burst. Requests beyond `max_queue_depth`
    /// are shed at admission; the rest execute in waves with the full
    /// deadline budget each. Responses come back in request order.
    pub fn run(&mut self, requests: &[MatchRequest], faults: &dyn ServeFault) -> Vec<Response> {
        // Captured once per run: tracing decisions never change mid-run,
        // and the tracer only observes — responses and stats are
        // bit-identical whether this is true or false.
        let tracing = self.config.trace.enabled && cem_obs::enabled();
        let admitted = requests.len().min(self.config.max_queue_depth);
        self.stats.admitted += admitted as u64;
        cem_obs::counter_add!("serve.admit", admitted as u64);
        for request in &requests[admitted..] {
            self.stats.shed += 1;
            cem_obs::counter_add!("serve.shed", 1);
            self.observe_unserved(request, &Outcome::Shed, 0, 0, tracing);
        }

        let mut responses = Vec::with_capacity(requests.len());
        // Burst mode has no arrival clock; waves advance a virtual one so
        // the SLO burn windows still measure sustained badness.
        let mut clock: u64 = 0;
        let mut wave_start = 0;
        while wave_start < admitted {
            // A staged generation promotes at the wave boundary, never
            // inside a wave; the boundary also runs the budgeted scrub
            // tick and at most one repair.
            self.promote_staged();
            self.maintenance();
            let end = (wave_start + self.config.wave).min(admitted);
            let wave: Vec<WaveSlot> = requests[wave_start..end]
                .iter()
                .map(|&request| WaveSlot {
                    request,
                    budget: self.config.deadline_units,
                    queue_units: 0,
                })
                .collect();
            self.run_wave(&wave, Tier::Full, faults, &mut responses, tracing, clock);
            clock = clock.saturating_add(self.config.wave_units);
            self.tracer.advance(clock);
            wave_start = end;
        }
        self.promote_staged();

        for request in &requests[admitted..] {
            responses.push(self.shed_response(request, Outcome::Shed, 0));
        }
        self.tracer.finish_run();
        responses
    }

    /// Drive an **open-loop** arrival schedule (sorted by arrival tick).
    /// The clock advances `wave_units` per wave whether or not the service
    /// keeps up; overflow arrivals are shed queue-full, aged-out queue
    /// entries are shed [`Outcome::Expired`], the brownout controller caps
    /// the ladder per wave, and scheduled swaps promote at their wave
    /// boundary. Responses come back in completion order.
    pub fn run_open_loop(&mut self, arrivals: &[Arrival], faults: &dyn ServeFault) -> Vec<Response> {
        assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "open-loop arrivals must be sorted by arrival tick"
        );
        let tracing = self.config.trace.enabled && cem_obs::enabled();
        let cheapest = self.config.cheapest_tier_cost();
        let mut queue = AdmissionQueue::new(self.config.queue_capacity);
        let mut responses = Vec::with_capacity(arrivals.len());
        let mut next = 0;
        let mut clock: u64 = 0;
        let mut wave_idx: u64 = 0;
        // The brownout controller folds the *previous* wave's outcomes at
        // each boundary; these carry them across the loop iteration.
        let mut last_missed: u64 = 0;
        let mut last_completed: u64 = 0;

        loop {
            // 1. Admit every arrival due by now; tail-drop past capacity.
            while next < arrivals.len() && arrivals[next].at <= clock {
                let arrival = arrivals[next];
                next += 1;
                match queue.offer(arrival.request, arrival.at, self.config.deadline_units) {
                    Ok(()) => {
                        self.stats.admitted += 1;
                        cem_obs::counter_add!("serve.admit", 1);
                    }
                    Err(_) => {
                        self.stats.shed += 1;
                        cem_obs::counter_add!("serve.shed", 1);
                        self.observe_unserved(&arrival.request, &Outcome::Shed, 0, clock, tracing);
                        responses.push(self.shed_response(&arrival.request, Outcome::Shed, 0));
                    }
                }
            }
            if next >= arrivals.len() && queue.is_empty() {
                break;
            }

            // 2. Scheduled mid-run swaps land at their wave boundary; a
            // staged generation promotes before the wave executes.
            let mut later = Vec::new();
            for (at_wave, incoming) in std::mem::take(&mut self.swaps) {
                if at_wave <= wave_idx {
                    self.offer_swap(incoming);
                } else {
                    later.push((at_wave, incoming));
                }
            }
            self.swaps = later;
            self.promote_staged();
            self.maintenance();

            // 3. Age-based expiry: shed whatever can no longer afford even
            // the cheapest tier, instead of burning a wave slot on it.
            let mut expired_now: u64 = 0;
            for queued in queue.expire(clock, cheapest) {
                expired_now += 1;
                self.stats.expired += 1;
                cem_obs::counter_add!("serve.expired", 1);
                self.observe_unserved(
                    &queued.request,
                    &Outcome::Expired,
                    queued.waited(clock),
                    clock,
                    tracing,
                );
                responses.push(self.shed_response(
                    &queued.request,
                    Outcome::Expired,
                    queued.waited(clock),
                ));
            }

            cem_obs::gauge_set!("serve.queue_depth", queue.len() as f64);

            // 4. Brownout: previous wave's misses plus this boundary's
            // expiries, against the current queue depth.
            let shift = self.brownout.observe(WaveObservation {
                queue_depth: queue.len(),
                queue_capacity: self.config.queue_capacity,
                missed: last_missed + expired_now,
                completed: last_completed + expired_now,
            });
            if let Some(BrownoutShift::Demoted { from, to } | BrownoutShift::Promoted { from, to }) =
                shift
            {
                // `wave` is the ordinal of the first wave at the new cap —
                // the `wave` attribute its span trees carry.
                let wave = self.stats.waves;
                cem_obs::events::emit(|| {
                    cem_obs::Event::new("brownout_shift")
                        .field("from", from.label())
                        .field("to", to.label())
                        .field_u64("wave", wave)
                });
            }
            let cap = self.brownout.cap();
            self.stats.brownout_waves[cap.index()] += 1;
            record_brownout_wave(cap);

            // 5. Dequeue as many EDF-first requests as the wave's work
            // budget can execute at the capped tier — the mechanism by
            // which browning out raises sustainable throughput.
            let per_request = self.config.tier_cost[cap.index()].max(1);
            let fits = (self.config.wave_budget_units() / per_request).max(1) as usize;
            let batch = queue.take(self.config.wave.min(fits));
            let slots: Vec<WaveSlot> = batch
                .iter()
                .map(|q| WaveSlot {
                    request: q.request,
                    budget: q.remaining(clock),
                    queue_units: q.waited(clock),
                })
                .collect();
            let before = responses.len();
            self.run_wave(&slots, cap, faults, &mut responses, tracing, clock);
            last_completed = (responses.len() - before) as u64;
            last_missed = responses[before..]
                .iter()
                .filter(|r| matches!(r.outcome, Outcome::DeadlineExceeded))
                .count() as u64;

            clock = clock.saturating_add(self.config.wave_units);
            self.tracer.advance(clock);
            wave_idx += 1;
        }

        // Swaps scheduled past the end of the run still land.
        for (_, incoming) in std::mem::take(&mut self.swaps) {
            self.offer_swap(incoming);
        }
        self.promote_staged();
        self.tracer.finish_run();
        responses
    }

    fn run_wave(
        &mut self,
        wave: &[WaveSlot],
        cap: Tier,
        faults: &dyn ServeFault,
        responses: &mut Vec<Response>,
        tracing: bool,
        now: u64,
    ) {
        let wave_no = self.stats.waves;
        self.stats.waves += 1;
        for breaker in &mut self.breakers {
            breaker.refresh(self.tick);
        }
        let states: [BreakerState; Component::COUNT] =
            std::array::from_fn(|i| self.breakers[i].state());

        // Shard probe pre-pass: slots that will attempt the full tier get a
        // cluster-pruned candidate ranking, scored as one coalesced batch
        // per probed cluster. Probe decisions are pure functions of
        // (wave, breaker snapshot, quarantine set, config), and the batched
        // GEMM is bit-identical to per-request scoring, so replay
        // determinism is untouched. A shard integrity failure quarantines
        // that cluster: only the slots probing it fall back to the dense
        // scan, the rest of the wave keeps its probed rankings
        // (DESIGN.md §14).
        let mut ann: Vec<Option<ShardRanking>> = wave.iter().map(|_| None).collect();
        let mut probe_tags: Vec<ProbeTag> = vec![ProbeTag::None; wave.len()];
        if cap == Tier::Full {
            if let Some(shards) = self.source.shards() {
                let soft = states[Component::SoftEncoder.index()];
                let eligible = (0..wave.len()).filter(|&slot| match soft {
                    BreakerState::Closed => true,
                    BreakerState::Open => false,
                    // The half-open probe slot is the only full-tier
                    // attempt this wave; everyone else degrades anyway.
                    BreakerState::HalfOpen => slot == 0,
                });
                // Slots whose probe schedule touches a quarantined cluster
                // fall back individually before any scoring.
                let mut pending: Vec<usize> = Vec::new();
                let mut quarantine_hits = 0u64;
                for slot in eligible {
                    let probes = shards.probe(wave[slot].request.entity, self.config.nprobe);
                    if probes.iter().any(|c| self.quarantined.contains(c)) {
                        probe_tags[slot] = ProbeTag::Quarantined;
                        quarantine_hits += 1;
                    } else {
                        pending.push(slot);
                    }
                }
                // Score the remainder. A corrupt shard discovered here is
                // quarantined on the spot and only the slots probing it are
                // partitioned out; each round quarantines a new cluster, so
                // the loop is bounded by nclusters.
                while !pending.is_empty() {
                    let entities: Vec<usize> =
                        pending.iter().map(|&slot| wave[slot].request.entity).collect();
                    match shards.score_wave(
                        &entities,
                        self.config.nprobe,
                        self.config.min_batch,
                        self.config.top_k,
                        cem_tensor::par::max_threads(),
                    ) {
                        Ok(score) => {
                            self.stats.ann_requests += pending.len() as u64;
                            cem_obs::counter_add!("serve.probe.requests", pending.len() as u64);
                            for (slot, ranking) in pending.iter().copied().zip(score.rankings) {
                                probe_tags[slot] = ProbeTag::Probed;
                                ann[slot] = Some(ranking);
                            }
                            break;
                        }
                        Err(ShardError::Corrupt { shard }) => {
                            if self.quarantined.insert(shard) {
                                self.stats.shards_quarantined += 1;
                                cem_obs::counter_add!("serve.shard.quarantine", 1);
                            }
                            pending.retain(|&slot| {
                                let probes = shards
                                    .probe(wave[slot].request.entity, self.config.nprobe);
                                if probes.contains(&shard) {
                                    probe_tags[slot] = ProbeTag::Quarantined;
                                    quarantine_hits += 1;
                                    false
                                } else {
                                    true
                                }
                            });
                        }
                        Err(err) => {
                            // Defensive: score_wave only fails on corruption
                            // today, but an unknown shard error still must
                            // never wedge the wave.
                            self.stats.wave_fallbacks += 1;
                            cem_obs::counter_add!("serve.probe.fallback", 1);
                            emit_repair_failed("shard_probe", err);
                            for &slot in &pending {
                                probe_tags[slot] = ProbeTag::Fallback;
                            }
                            break;
                        }
                    }
                }
                if quarantine_hits > 0 {
                    self.stats.cluster_fallbacks += quarantine_hits;
                    cem_obs::counter_add!("serve.probe.cluster_fallback", quarantine_hits);
                }
            }
        }

        // Parallel execution against the frozen breaker snapshot and one
        // frozen index borrow: a wave is entirely one generation. Slots are
        // plain data; `par_chunks_mut` hands each worker a disjoint block.
        let mut slots: Vec<Option<ExecOutcome>> = wave.iter().map(|_| None).collect();
        let config = &self.config;
        let index = self.source.index();
        let generation = self.source.generation();
        let ann = &ann;
        cem_tensor::par::par_chunks_mut(
            &mut slots,
            1,
            cem_tensor::par::max_threads(),
            |start, block| {
                for (offset, slot) in block.iter_mut().enumerate() {
                    let slot_idx = start + offset;
                    let allowed: [bool; Component::COUNT] =
                        std::array::from_fn(|c| match states[c] {
                            BreakerState::Closed => true,
                            BreakerState::Open => false,
                            // One probe per wave: slot 0.
                            BreakerState::HalfOpen => slot_idx == 0,
                        });
                    let ws = &wave[slot_idx];
                    *slot = Some(execute_request(
                        config,
                        index,
                        &ws.request,
                        allowed,
                        faults,
                        ws.budget,
                        cap,
                        ann[slot_idx].as_ref(),
                    ));
                }
            },
        );

        // Serial fold in arrival order: the only place breakers mutate.
        for (slot_idx, slot) in slots.into_iter().enumerate() {
            let exec = slot.expect("wave slot left unfilled");
            let ws = &wave[slot_idx];
            self.tick += 1;
            for event in &exec.events {
                let breaker = &mut self.breakers[event.component.index()];
                if let Some(transition) = breaker.record(self.tick, event.success) {
                    let verb = match transition {
                        BreakerTransition::Tripped => "tripped",
                        BreakerTransition::Reopened => "reopened",
                        BreakerTransition::Recovered => "recovered",
                    };
                    let tick = self.tick;
                    cem_obs::events::emit(|| {
                        cem_obs::Event::new("breaker_transition")
                            .field("component", event.component.label())
                            .field("transition", verb)
                            .field_u64("tick", tick)
                    });
                    if transition != BreakerTransition::Recovered {
                        self.stats.breaker_trips += 1;
                        cem_obs::counter_add!("serve.breaker_trip", 1);
                    }
                }
            }
            self.stats.retries += exec.retries as u64;
            cem_obs::counter_add!("serve.retry", exec.retries);
            let outcome = match exec.outcome {
                Outcome::Served { tier, ranking } => {
                    self.stats.served[tier.index()] += 1;
                    record_tier_span(tier, exec.wall_nanos);
                    Outcome::Served { tier, ranking }
                }
                Outcome::DeadlineExceeded => {
                    self.stats.deadline_exceeded += 1;
                    cem_obs::counter_add!("serve.deadline_exceeded", 1);
                    Outcome::DeadlineExceeded
                }
                // Execution can only produce served or deadline-exceeded;
                // anything else means a scheduling invariant broke. Surface
                // it as a typed error response plus a counter — a degraded
                // answer the caller can see, never a service panic.
                Outcome::Shed | Outcome::Expired | Outcome::InternalError => {
                    self.stats.internal_errors += 1;
                    cem_obs::counter_add!("serve.internal_error", 1);
                    Outcome::InternalError
                }
            };
            let latency = ws.queue_units + exec.cost_units;
            record_latency_units(latency);
            let good = matches!(outcome, Outcome::Served { .. })
                && latency <= self.config.trace.slo_latency_units;
            let trace = tracing.then(|| {
                build_trace(TraceInput {
                    request: &ws.request,
                    outcome: &outcome,
                    queue_units: ws.queue_units,
                    cost_units: exec.cost_units,
                    retries: exec.retries,
                    steps: &exec.steps,
                    probe: probe_tags[slot_idx],
                    wave: wave_no,
                    generation,
                    slow_threshold: self.config.trace.slo_latency_units,
                })
            });
            self.tracer.observe(now, good, trace);
            responses.push(Response {
                id: ws.request.id,
                entity: ws.request.entity,
                outcome,
                cost_units: exec.cost_units,
                queue_units: ws.queue_units,
                retries: exec.retries,
                generation,
            });
        }
    }
}

/// Record a served request's wall time under its tier's span. The macro
/// route needs one literal per call site, so the four families are named
/// out longhand.
fn record_tier_span(tier: Tier, nanos: u64) {
    if !cem_obs::enabled() {
        return;
    }
    let registry = cem_obs::global();
    let stats = match tier {
        Tier::Full => registry.span_stats("serve.match.full"),
        Tier::Cached => registry.span_stats("serve.match.cached"),
        Tier::Hard => registry.span_stats("serve.match.hard"),
        Tier::Zero => registry.span_stats("serve.match.zero"),
    };
    stats.record(nanos);
}

/// Record one request's end-to-end virtual latency (queue wait plus
/// execution cost) in the serve-wide log₂ histogram. Trace exemplars carry
/// the matching `bucket_log2` field (computed by the same
/// `cem_obs::registry::bucket_of`), linking spans to histogram buckets.
fn record_latency_units(units: u64) {
    if !cem_obs::enabled() {
        return;
    }
    cem_obs::global().span_stats("serve.request.latency_units").record(units);
}

/// Count one open-loop wave spent at brownout cap `cap` (same
/// literal-per-rung pattern as [`record_tier_span`]).
fn record_brownout_wave(cap: Tier) {
    if !cem_obs::enabled() {
        return;
    }
    let registry = cem_obs::global();
    let counter = match cap {
        Tier::Full => registry.counter("serve.brownout.full"),
        Tier::Cached => registry.counter("serve.brownout.cached"),
        Tier::Hard => registry.counter("serve.brownout.hard"),
        Tier::Zero => registry.counter("serve.brownout.zero"),
    };
    counter.add(1);
}

/// Emit a `repair_failed` event: one heal step (`stage`) that did not
/// complete, so a heal that keeps failing still leaves a record.
fn emit_repair_failed(stage: &'static str, error: impl std::fmt::Display) {
    cem_obs::events::emit(|| {
        cem_obs::Event::new("repair_failed")
            .field("stage", stage)
            .field("error", error.to_string())
    });
}

/// What one tier attempt produced. `units` is the virtual cost the attempt
/// charged (tier cost, stretched by spikes, capped at the attempt timeout).
enum AttemptResult {
    Success { units: u64, ranking: Vec<usize> },
    /// Retriable: worker panic or attempt timeout.
    Transient { units: u64, tag: AttemptTag },
    /// Not retriable: degrade to the next tier.
    Degrade { units: u64, tag: AttemptTag },
}

/// Scoring verdict from inside the pool boundary.
enum TierScore {
    Ranked(Vec<usize>),
    Corrupt,
    Poisoned,
}

/// Pure per-request pipeline: no shared mutable state, all decisions off
/// the virtual clock. Runs on worker threads. `budget` is the request's
/// remaining virtual allowance (full deadline in burst mode, deadline
/// minus queue wait in open-loop mode); `cap` is the richest tier the
/// brownout controller allows this wave.
#[allow(clippy::too_many_arguments)]
fn execute_request(
    config: &ServeConfig,
    index: &ServeIndex,
    request: &MatchRequest,
    allowed: [bool; Component::COUNT],
    faults: &dyn ServeFault,
    budget: u64,
    cap: Tier,
    ann: Option<&ShardRanking>,
) -> ExecOutcome {
    let started = Instant::now();
    let mut cost: u64 = 0;
    let mut retries: u32 = 0;
    let mut events: Vec<ComponentEvent> = Vec::new();
    // Typed event log, built into a span tree at fold time when tracing is
    // on. `at` positions are captured *before* the matching cost charge so
    // spans start where work started.
    let mut steps: Vec<ReqEvent> = Vec::new();
    let mut outcome: Option<Outcome> = None;

    'ladder: for tier in Tier::ALL {
        if tier.index() < cap.index() {
            steps.push(ReqEvent::SkipBrownout { tier, cap, at: cost });
            continue;
        }
        if let Some(component) = tier.component() {
            if !allowed[component.index()] {
                steps.push(ReqEvent::SkipBreaker { tier, component, at: cost });
                continue;
            }
        }
        if cost >= budget {
            outcome = Some(Outcome::DeadlineExceeded);
            break 'ladder;
        }
        // Affordability: an attempt that cannot possibly finish inside the
        // remaining budget is skipped, not burned.
        let tier_cost = config.tier_cost[tier.index()];
        if cost.saturating_add(tier_cost) > budget {
            steps.push(ReqEvent::SkipBudget { tier, at: cost });
            continue;
        }

        let backoff =
            Backoff::new(config.retry, splitmix64(request.seed, 0x7EE5 + tier.index() as u64));
        let mut attempt: u32 = 0;
        loop {
            match attempt_tier(config, index, request, tier, attempt, faults, ann) {
                AttemptResult::Success { units, ranking } => {
                    steps.push(ReqEvent::Attempt {
                        tier,
                        attempt_no: attempt,
                        at: cost,
                        units,
                        tag: AttemptTag::Served,
                    });
                    cost += units;
                    if let Some(component) = tier.component() {
                        events.push(ComponentEvent { component, success: true });
                    }
                    outcome = Some(Outcome::Served { tier, ranking });
                    break 'ladder;
                }
                AttemptResult::Transient { units, tag } => {
                    steps.push(ReqEvent::Attempt { tier, attempt_no: attempt, at: cost, units, tag });
                    cost += units;
                    if let Some(component) = tier.component() {
                        events.push(ComponentEvent { component, success: false });
                    }
                    if attempt >= config.retry.max_retries {
                        steps.push(ReqEvent::RetriesExhausted { tier, at: cost });
                        break;
                    }
                    attempt += 1;
                    retries += 1;
                    let delay = backoff.delay(attempt);
                    steps.push(ReqEvent::Backoff { tier, attempt_no: attempt, at: cost, delay });
                    cost += delay;
                    if cost >= budget {
                        outcome = Some(Outcome::DeadlineExceeded);
                        break 'ladder;
                    }
                }
                AttemptResult::Degrade { units, tag } => {
                    steps.push(ReqEvent::Attempt { tier, attempt_no: attempt, at: cost, units, tag });
                    cost += units;
                    if let Some(component) = tier.component() {
                        events.push(ComponentEvent { component, success: false });
                    }
                    break;
                }
            }
        }
    }

    ExecOutcome {
        // The ladder can run dry when every remaining rung was unaffordable —
        // equivalent to the deadline having already fired.
        outcome: outcome.unwrap_or(Outcome::DeadlineExceeded),
        cost_units: cost,
        retries,
        wall_nanos: started.elapsed().as_nanos() as u64,
        events,
        steps,
    }
}

/// One tier attempt: latency accounting, the `catch_unwind` pool boundary,
/// checksum verification, NaN-safe ranking, and the non-finite top-score
/// check. The zero tier skips fault injection entirely — it is the floor.
fn attempt_tier(
    config: &ServeConfig,
    index: &ServeIndex,
    request: &MatchRequest,
    tier: Tier,
    attempt: u32,
    faults: &dyn ServeFault,
    ann: Option<&ShardRanking>,
) -> AttemptResult {
    let fault = if tier == Tier::Zero { None } else { faults.inject(request.id, tier, attempt) };

    let base = config.tier_cost[tier.index()];
    let stretched = match fault {
        Some(FaultKind::LatencySpike { units }) => base.saturating_add(units),
        _ => base,
    };
    if stretched > config.attempt_timeout_units {
        // Cancelled at the timeout boundary: only the timeout is charged.
        return AttemptResult::Transient {
            units: config.attempt_timeout_units,
            tag: AttemptTag::Timeout,
        };
    }

    let scored = catch_unwind(AssertUnwindSafe(|| {
        score_tier(index, request.entity, tier, fault, config.top_k, ann)
    }));
    match scored {
        Err(_) => AttemptResult::Transient { units: stretched, tag: AttemptTag::Panic },
        Ok(TierScore::Corrupt) => {
            AttemptResult::Degrade { units: stretched, tag: AttemptTag::CrcDegrade }
        }
        Ok(TierScore::Poisoned) => {
            AttemptResult::Degrade { units: stretched, tag: AttemptTag::NanDegrade }
        }
        Ok(TierScore::Ranked(ranking)) => AttemptResult::Success { units: stretched, ranking },
    }
}

/// Score `entity` at `tier` over a local copy of the index row, realising
/// the injected fault on the copy (the shared index stays pristine).
fn score_tier(
    index: &ServeIndex,
    entity: usize,
    tier: Tier,
    fault: Option<FaultKind>,
    top_k: usize,
    ann: Option<&ShardRanking>,
) -> TierScore {
    if fault == Some(FaultKind::WorkerPanic) {
        panic!("{PANIC_MARKER}: entity {entity} tier {}", tier.label());
    }
    // A cluster-pruned candidate ranking from the wave pre-pass replaces
    // the full tier's dense row scan. Injected faults still land on this
    // path — a poisoned encoder poisons probed scores the same way it
    // poisons a dense row, and cache corruption of the shard payload is
    // the integrity failure the stored CRCs exist to catch. An empty probe
    // result (all probed clusters empty) falls through to the dense scan.
    if tier == Tier::Full {
        if let Some(ranking) = ann {
            if !ranking.ids.is_empty() {
                match fault {
                    Some(FaultKind::NanFeatures) => return TierScore::Poisoned,
                    Some(FaultKind::CorruptCache) => return TierScore::Corrupt,
                    _ => {}
                }
                if !ranking.finite {
                    return TierScore::Poisoned;
                }
                return TierScore::Ranked(ranking.ids.clone());
            }
        }
    }
    let mut row = index.row(tier, entity).to_vec();
    match fault {
        // A poisoned encoder emits NaN *output*: the checksum (which covers
        // the stored row, not the computation) has nothing to catch.
        Some(FaultKind::NanFeatures) => {
            for value in row.iter_mut() {
                *value = f32::NAN;
            }
        }
        // Storage damage: flip one bit of the local copy, then run the
        // integrity check every attempt runs.
        Some(FaultKind::CorruptCache) => {
            row[0] = f32::from_bits(row[0].to_bits() ^ 1);
            if !index.verify_row(tier, entity, &row) {
                return TierScore::Corrupt;
            }
        }
        _ => {
            if !index.verify_row(tier, entity, &row) {
                return TierScore::Corrupt;
            }
        }
    }
    let ranking = rank_row(&row, top_k);
    if let Some(&best) = ranking.first() {
        if !row[best].is_finite() {
            return TierScore::Poisoned;
        }
    }
    TierScore::Ranked(ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brownout::BrownoutConfig;
    use crate::fault::{silence_injected_panics, NoFaults};
    use cem_tensor::par::ThreadsGuard;

    /// 3 entities × 4 images; each tier's best image differs so tests can
    /// tell which tier served: full→0, cached→1, hard→2, zero→3.
    fn index() -> ServeIndex {
        index_with(|best| best)
    }

    /// Like [`index`], but each tier's peak image is remapped through
    /// `peak` — lets hot-swap tests build a *distinguishable* second
    /// generation over the same catalogue shape.
    fn index_with(peak: impl Fn(usize) -> usize) -> ServeIndex {
        let peaked = |best: usize| {
            let mut m = Vec::new();
            for e in 0..3 {
                for i in 0..4 {
                    m.push(if i == best { 9.0 + e as f32 } else { i as f32 * 0.1 });
                }
            }
            m
        };
        ServeIndex::new(3, 4, [peaked(peak(0)), peaked(peak(1)), peaked(peak(2)), peaked(peak(3))])
    }

    fn config() -> ServeConfig {
        ServeConfig { top_k: 4, wave: 4, ..ServeConfig::default() }
    }

    fn arrivals(n: usize, gap: u64, seed: u64) -> Vec<Arrival> {
        MatchRequest::stream(n, 3, seed)
            .into_iter()
            .enumerate()
            .map(|(i, request)| Arrival { at: i as u64 * gap, request })
            .collect()
    }

    /// Inject `kind` into every attempt of `tier` for request ids below
    /// `until_id`.
    struct TierFault {
        tier: Tier,
        kind: FaultKind,
        until_id: u64,
    }

    impl ServeFault for TierFault {
        fn inject(&self, request_id: u64, tier: Tier, _attempt: u32) -> Option<FaultKind> {
            (tier == self.tier && request_id < self.until_id).then_some(self.kind)
        }
    }

    #[test]
    fn clean_traffic_serves_everything_from_the_full_tier() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        let requests = MatchRequest::stream(8, 3, 7);
        let responses = service.run(&requests, &NoFaults);
        assert_eq!(responses.len(), 8);
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(response.id, request.id);
            assert_eq!(response.generation, 0, "borrowed index serves generation 0");
            assert_eq!(response.queue_units, 0, "burst mode never queues");
            match &response.outcome {
                Outcome::Served { tier, ranking } => {
                    assert_eq!(*tier, Tier::Full);
                    assert_eq!(ranking[0], 0, "full tier peaks at image 0");
                }
                other => panic!("expected served, got {other:?}"),
            }
        }
        assert_eq!(service.stats().served[Tier::Full.index()], 8);
        assert_eq!(service.stats().retries, 0);
        assert_eq!(service.stats().internal_errors, 0);
        assert_eq!(service.stats().waves, 2);
    }

    #[test]
    fn corruption_degrades_to_the_cached_tier_without_retrying() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::CorruptCache, until_id: 1 };
        let responses = service.run(&MatchRequest::stream(1, 3, 7), &fault);
        match &responses[0].outcome {
            Outcome::Served { tier, ranking } => {
                assert_eq!(*tier, Tier::Cached);
                assert_eq!(ranking[0], 1, "cached tier peaks at image 1");
            }
            other => panic!("expected cached-tier serve, got {other:?}"),
        }
        assert_eq!(responses[0].retries, 0, "corruption must not retry");
    }

    #[test]
    fn nan_poisoning_degrades_and_never_serves_garbage() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::NanFeatures, until_id: 4 };
        for response in service.run(&MatchRequest::stream(4, 3, 7), &fault) {
            assert_eq!(response.outcome.served_tier(), Some(Tier::Cached));
        }
    }

    #[test]
    fn panics_are_retried_then_degrade() {
        silence_injected_panics();
        let index = index();
        let mut service = MatchService::new(config(), &index);
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::WorkerPanic, until_id: 1 };
        let responses = service.run(&MatchRequest::stream(1, 3, 7), &fault);
        assert_eq!(responses[0].outcome.served_tier(), Some(Tier::Cached));
        assert_eq!(responses[0].retries, config().retry.max_retries, "panic retries to the cap");
    }

    #[test]
    fn repeated_failures_trip_the_breaker_and_skip_the_tier() {
        silence_injected_panics();
        let index = index();
        let mut service = MatchService::new(
            ServeConfig { wave: 1, ..config() },
            &index,
        );
        // Enough panicking requests to blow the failure threshold, then a
        // long clean tail so the cooldown (8..=12 ticks) can elapse and a
        // probe can recover the tier.
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::WorkerPanic, until_id: 2 };
        let requests = MatchRequest::stream(24, 3, 7);
        let responses = service.run(&requests, &fault);
        assert!(service.breaker_trips(Component::SoftEncoder) >= 1);
        assert!(service.stats().breaker_trips >= 1);
        // ...after which clean requests still degrade until the cooldown
        // elapses: a fault-free request served cached on its first attempt
        // at exactly the cached tier's cost skipped full without trying it.
        let cached_cost = config().tier_cost[Tier::Cached.index()];
        let skipped = responses.iter().any(|r| {
            r.id >= 2
                && r.outcome.served_tier() == Some(Tier::Cached)
                && r.retries == 0
                && r.cost_units == cached_cost
        });
        assert!(skipped, "expected breaker-open skips in {responses:?}");
        // A tripped breaker that ends closed was recovered by a probe.
        assert_eq!(service.breaker_state(Component::SoftEncoder), BreakerState::Closed);
        // Once recovered, the tail of the stream serves from full again.
        assert_eq!(responses.last().unwrap().outcome.served_tier(), Some(Tier::Full));
    }

    #[test]
    fn deadline_exhaustion_resolves_instead_of_hanging() {
        let index = index();
        let config = ServeConfig {
            deadline_units: 500,
            attempt_timeout_units: 450,
            tier_cost: [400, 400, 400, 400],
            ..config()
        };
        let mut service = MatchService::new(config, &index);
        // Full degrades on corruption (400 units); every later rung's cost
        // no longer fits the 500-unit budget, so the ladder runs dry.
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::CorruptCache, until_id: 1 };
        let responses = service.run(&MatchRequest::stream(1, 3, 7), &fault);
        assert_eq!(responses[0].outcome, Outcome::DeadlineExceeded);
        assert_eq!(service.stats().deadline_exceeded, 1);
    }

    #[test]
    fn overload_sheds_the_tail_deterministically() {
        let index = index();
        let mut service =
            MatchService::new(ServeConfig { max_queue_depth: 3, ..config() }, &index);
        let responses = service.run(&MatchRequest::stream(5, 3, 7), &NoFaults);
        assert_eq!(service.stats().shed, 2);
        assert_eq!(service.stats().admitted, 3);
        assert_eq!(responses[3].outcome, Outcome::Shed);
        assert_eq!(responses[4].outcome, Outcome::Shed);
        assert!(responses[..3].iter().all(|r| matches!(r.outcome, Outcome::Served { .. })));
    }

    #[test]
    fn responses_and_stats_are_identical_at_one_and_four_threads() {
        silence_injected_panics();
        let index = index();
        let requests = MatchRequest::stream(40, 3, 11);
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::WorkerPanic, until_id: 9 };
        let run_with = |threads: usize| {
            let _guard = ThreadsGuard::new(threads);
            let mut service = MatchService::new(ServeConfig { wave: 8, ..config() }, &index);
            let responses = service.run(&requests, &fault);
            (responses, service.stats().clone(), service.trace_stats())
        };
        let (r1, s1, x1) = run_with(1);
        let (r4, s4, x4) = run_with(4);
        assert_eq!(r1, r4, "responses must be bit-identical across thread counts");
        assert_eq!(s1, s4, "breaker/retry stats must be identical across thread counts");
        assert_eq!(x1, x4);
    }

    #[test]
    fn latency_spikes_time_out_and_burn_bounded_budget() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        let fault = TierFault {
            tier: Tier::Full,
            kind: FaultKind::LatencySpike { units: 10_000 },
            until_id: 1,
        };
        let responses = service.run(&MatchRequest::stream(1, 3, 7), &fault);
        // Spike exceeds the attempt timeout on every try: retried, then
        // degraded to cached.
        assert_eq!(responses[0].outcome.served_tier(), Some(Tier::Cached));
        assert_eq!(responses[0].retries, config().retry.max_retries);
        let timeout_charge = config().attempt_timeout_units
            * (config().retry.max_retries as u64 + 1);
        assert!(responses[0].cost_units >= timeout_charge, "timeouts must charge the clock");
    }

    #[test]
    fn mild_spikes_slow_the_request_but_still_serve_full() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        let fault = TierFault {
            tier: Tier::Full,
            kind: FaultKind::LatencySpike { units: 100 },
            until_id: 1,
        };
        let responses = service.run(&MatchRequest::stream(1, 3, 7), &fault);
        assert_eq!(responses[0].outcome.served_tier(), Some(Tier::Full));
        assert_eq!(responses[0].cost_units, config().tier_cost[0] + 100);
    }

    // ---- open loop ----

    #[test]
    fn open_loop_serves_a_light_schedule_and_tracks_queue_wait() {
        let index = index();
        // One arrival per wave (gap == wave_units): the queue never builds.
        let mut service = MatchService::new(config(), &index);
        let responses = service.run_open_loop(&arrivals(6, 400, 7), &NoFaults);
        assert_eq!(responses.len(), 6);
        for response in &responses {
            assert_eq!(response.outcome.served_tier(), Some(Tier::Full));
            assert_eq!(response.queue_units, 0, "an un-backlogged queue serves same-wave");
        }
        assert_eq!(service.stats().admitted, 6);
        assert_eq!(service.stats().shed + service.stats().expired, 0);
        assert_eq!(service.brownout_cap(), Tier::Full);
    }

    #[test]
    fn open_loop_sheds_queue_full_then_expires_the_backlog() {
        let index = index();
        let config = ServeConfig {
            deadline_units: 500,
            queue_capacity: 64,
            brownout: BrownoutConfig { enabled: false, ..BrownoutConfig::default() },
            ..config()
        };
        let mut service = MatchService::new(config, &index);
        // 100 arrivals at t=0 against capacity 64: 36 shed at admission.
        // Serving 4/wave at 400 units/wave, a 500-unit deadline expires the
        // backlog at the second boundary: waves 0 and 1 serve 8, the rest
        // age out.
        let responses = service.run_open_loop(&arrivals(100, 0, 7), &NoFaults);
        assert_eq!(responses.len(), 100, "every arrival gets a response");
        assert_eq!(service.stats().shed, 36);
        assert_eq!(service.stats().served_total(), 8);
        assert_eq!(service.stats().expired, 56);
        let expired: Vec<&Response> =
            responses.iter().filter(|r| r.outcome == Outcome::Expired).collect();
        assert_eq!(expired.len(), 56);
        assert!(expired.iter().all(|r| r.queue_units >= 800), "expiry happens after aging");
    }

    #[test]
    fn brownout_demotes_under_saturation_and_raises_throughput() {
        let index = index();
        let make = |enabled: bool| ServeConfig {
            wave: 32,
            queue_capacity: 64,
            // Tight enough that the full-tier drain rate (8 requests per
            // 400-unit wave) cannot clear a 64-deep backlog in time.
            deadline_units: 1_200,
            brownout: BrownoutConfig { enabled, ..BrownoutConfig::default() },
            ..config()
        };
        // 200 arrivals at t=0: the queue saturates instantly (occupancy
        // 1.0 ≥ high watermark), so the controller demotes to cached at
        // wave 0 — 26 requests/wave instead of 8 fit the work budget.
        let mut browned = MatchService::new(make(true), &index);
        browned.run_open_loop(&arrivals(200, 0, 7), &NoFaults);
        assert!(browned.stats().brownout_waves[Tier::Cached.index()] > 0);
        assert!(browned.stats().served[Tier::Cached.index()] > 0);

        let mut control = MatchService::new(make(false), &index);
        control.run_open_loop(&arrivals(200, 0, 7), &NoFaults);
        assert_eq!(control.brownout_cap(), Tier::Full);
        assert!(
            browned.stats().served_total() > control.stats().served_total(),
            "brownout must serve more of the burst ({} vs {})",
            browned.stats().served_total(),
            control.stats().served_total()
        );
        assert!(
            browned.stats().expired <= control.stats().expired,
            "brownout must not increase expiry"
        );
    }

    #[test]
    fn brownout_recovers_after_the_burst_drains() {
        let index = index();
        let config = ServeConfig {
            wave: 32,
            queue_capacity: 64,
            brownout: BrownoutConfig { recovery_waves: 2, ..BrownoutConfig::default() },
            ..config()
        };
        let mut service = MatchService::new(config, &index);
        // A saturating burst, then a long calm tail of one arrival per wave
        // so the controller sees consecutive calm boundaries.
        let mut schedule = arrivals(64, 0, 7);
        for (i, request) in MatchRequest::stream(12, 3, 8).into_iter().enumerate() {
            schedule.push(Arrival {
                at: 2_000 + i as u64 * 400,
                request: MatchRequest { id: 100 + i as u64, ..request },
            });
        }
        service.run_open_loop(&schedule, &NoFaults);
        // Waves spent browned out, then a full cap again: a promotion.
        assert!(service.stats().brownout_waves[Tier::Cached.index()] > 0, "burst must demote");
        assert_eq!(service.brownout_cap(), Tier::Full, "calm tail must restore the cap");
    }

    #[test]
    fn hot_swap_promotes_at_a_wave_boundary_without_mixing() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        // Generation 1 peaks every tier one image later (mod 4) — a served
        // ranking betrays which generation scored it.
        let swapped = Generation::new(1, index_with(|best| (best + 1) % 4));
        service.schedule_swap(2, Ok(swapped));
        // One arrival per wave over 6 waves; the swap lands at wave 2.
        let responses = service.run_open_loop(&arrivals(6, 400, 7), &NoFaults);
        assert_eq!(service.stats().hotswap_promotes, 1);
        assert_eq!(service.generation(), 1);
        let mut last_generation = 0;
        for response in &responses {
            assert!(
                response.generation >= last_generation,
                "generations must promote monotonically, never mix backwards"
            );
            last_generation = response.generation;
            let expected_peak = if response.generation == 0 { 0 } else { 1 };
            match &response.outcome {
                Outcome::Served { tier: Tier::Full, ranking } => {
                    assert_eq!(
                        ranking[0], expected_peak,
                        "response must be scored entirely by its own generation"
                    );
                }
                other => panic!("expected full-tier serve, got {other:?}"),
            }
        }
        assert!(responses.iter().any(|r| r.generation == 0));
        assert!(responses.iter().any(|r| r.generation == 1));
    }

    #[test]
    fn corrupt_stale_and_misshaped_swaps_are_rejected() {
        let index = index();
        let mut service = MatchService::new(config(), &index);
        // A load failure (e.g. CRC-rejected container) is counted, not fatal.
        assert!(!service.offer_swap(Err(SwapError::Empty)));
        // A catalogue-shape mismatch is rejected.
        let wrong_shape = ServeIndex::new(2, 2, std::array::from_fn(|_| vec![0.0; 4]));
        assert!(matches!(
            service.stage(Generation::new(5, wrong_shape)),
            Err(SwapError::ShapeMismatch { .. })
        ));
        // Promote generation 2, then try to stage 2 again: stale.
        assert!(service.stage(Generation::new(2, index_with(|b| b))).is_ok());
        assert!(service.promote_staged());
        assert!(matches!(
            service.stage(Generation::new(2, index_with(|b| b))),
            Err(SwapError::StaleGeneration { current: 2, incoming: 2 })
        ));
        assert_eq!(service.stats().hotswap_rejects, 3);
        assert_eq!(service.stats().hotswap_promotes, 1);
        assert_eq!(service.generation(), 2, "rejections never disturb the serving generation");
    }

    #[test]
    fn open_loop_replay_is_identical_at_one_and_four_threads() {
        silence_injected_panics();
        let schedule = arrivals(120, 30, 11);
        let run_with = |threads: usize| {
            let _guard = ThreadsGuard::new(threads);
            let index = index();
            let config = ServeConfig {
                wave: 8,
                queue_capacity: 16,
                ..config()
            };
            let mut service = MatchService::new(config, &index);
            service.schedule_swap(4, Ok(Generation::new(1, index_with(|b| (b + 1) % 4))));
            service.schedule_swap(7, Err(SwapError::Empty));
            let fault = TierFault { tier: Tier::Full, kind: FaultKind::WorkerPanic, until_id: 9 };
            let responses = service.run_open_loop(&schedule, &fault);
            (responses, service.stats().clone(), service.trace_stats())
        };
        let (r1, s1, x1) = run_with(1);
        let (r4, s4, x4) = run_with(4);
        assert_eq!(r1, r4, "open-loop responses must be bit-identical across thread counts");
        assert_eq!(s1, s4);
        assert_eq!(x1, x4);
        assert_eq!(s1.hotswap_promotes, 1);
        assert_eq!(s1.hotswap_rejects, 1);
    }

    // ---- shard-probed full tier ----

    /// Deterministic unit-normalised vectors (no external RNG in tests).
    fn vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut out = Vec::with_capacity(n * dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|d| (splitmix64(seed, (i * dim + d) as u64) >> 40) as f32
                    / (1u64 << 24) as f32
                    - 0.5)
                .collect();
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            out.extend(row.into_iter().map(|v| v / norm));
        }
        out
    }

    /// A shard index plus a [`ServeIndex`] whose full-tier matrix is the
    /// shard panels' own dense scores — so at `nprobe = nclusters` the
    /// probed ranking and the dense scan are bit-identical.
    fn shard_fixture() -> (ServeIndex, ShardedIndex) {
        let (entities, images, dim, nclusters) = (6, 40, 8, 4);
        let queries = vectors(entities, dim, 5);
        let embeddings = vectors(images, dim, 6);
        let shards =
            ShardedIndex::build(queries, entities, &embeddings, images, dim, nclusters, 8, 7);
        let full = shards.dense_scores(1);
        let alt = |offset: f32| {
            (0..entities * images).map(|i| i as f32 * 0.01 + offset).collect::<Vec<f32>>()
        };
        let index = ServeIndex::new(entities, images, [full, alt(0.1), alt(0.2), alt(0.3)]);
        (index, shards)
    }

    fn shard_config() -> ServeConfig {
        ServeConfig { top_k: 10, wave: 4, nclusters: 4, nprobe: 4, ..ServeConfig::default() }
    }

    #[test]
    fn full_probe_shard_service_matches_the_dense_service_bitwise() {
        let (index, shards) = shard_fixture();
        let requests = MatchRequest::stream(16, shards.entities(), 7);

        let mut dense = MatchService::new(shard_config(), &index);
        let dense_responses = dense.run(&requests, &NoFaults);

        let mut probed = MatchService::with_shards(shard_config(), &index, &shards);
        let probed_responses = probed.run(&requests, &NoFaults);

        assert_eq!(
            probed_responses, dense_responses,
            "nprobe = nclusters over the same panels must reproduce the dense scan"
        );
        assert_eq!(probed.stats().ann_requests, 16);
        assert_eq!(probed.stats().cluster_fallbacks, 0);
        assert_eq!(probed.stats().wave_fallbacks, 0);
        assert_eq!(dense.stats().ann_requests, 0, "the dense service never probes");
    }

    #[test]
    fn corrupt_shards_quarantine_the_cluster_and_fall_back_per_request() {
        let (index, mut shards) = shard_fixture();
        let victim = (0..shards.nclusters()).find(|&c| !shards.shard(c).is_empty()).unwrap();
        shards.corrupt_shard_for_tests(victim);
        let requests = MatchRequest::stream(8, shards.entities(), 7);

        let mut dense = MatchService::new(shard_config(), &index);
        let dense_responses = dense.run(&requests, &NoFaults);

        let mut probed = MatchService::with_shards(shard_config(), &index, &shards);
        let probed_responses = probed.run(&requests, &NoFaults);

        // nprobe = nclusters: every request probes the corrupt cluster, so
        // every slot falls back — and must serve exactly the dense answer.
        assert_eq!(
            probed_responses, dense_responses,
            "fallback slots must serve exactly what the dense scan serves"
        );
        assert_eq!(probed.stats().shards_quarantined, 1);
        assert_eq!(probed.quarantined().iter().copied().collect::<Vec<_>>(), vec![victim]);
        assert_eq!(probed.stats().cluster_fallbacks, 8);
        assert_eq!(probed.stats().wave_fallbacks, 0, "corruption never fails the whole wave");
        assert_eq!(probed.stats().ann_requests, 0);
    }

    /// With nprobe < nclusters, only the requests whose probe schedule
    /// touches the quarantined cluster fall back; the rest of the wave
    /// keeps its probed rankings — the per-cluster (not whole-wave)
    /// fallback contract.
    #[test]
    fn quarantine_fallback_is_per_cluster_not_per_wave() {
        let (index, mut shards) = shard_fixture();
        let victim = (0..shards.nclusters()).find(|&c| !shards.shard(c).is_empty()).unwrap();
        // Pick a probe width for which some entities avoid the victim.
        let nprobe = 1;
        let hits = |e: usize| shards.probe(e, nprobe).contains(&victim);
        let avoiding = (0..shards.entities()).filter(|&e| !hits(e)).count();
        let probing = shards.entities() - avoiding;
        assert!(avoiding > 0 && probing > 0, "fixture must split on cluster {victim}");
        shards.corrupt_shard_for_tests(victim);

        let config = ServeConfig { nprobe, wave: shards.entities(), ..shard_config() };
        let mut service = MatchService::with_shards(config, &index, &shards);
        let requests: Vec<MatchRequest> = MatchRequest::stream(shards.entities(), shards.entities(), 7)
            .into_iter()
            .enumerate()
            .map(|(i, request)| MatchRequest { entity: i, ..request })
            .collect();
        let responses = service.run(&requests, &NoFaults);

        assert!(responses.iter().all(|r| matches!(r.outcome, Outcome::Served { .. })));
        assert_eq!(service.stats().shards_quarantined, 1);
        assert_eq!(service.stats().cluster_fallbacks, probing as u64);
        assert_eq!(service.stats().ann_requests, avoiding as u64);
        assert_eq!(service.stats().wave_fallbacks, 0);

        // A second identical burst hits the quarantine partition up front:
        // same split, no new quarantine.
        let again = service.run(&requests, &NoFaults);
        assert!(again.iter().all(|r| matches!(r.outcome, Outcome::Served { .. })));
        assert_eq!(service.stats().shards_quarantined, 1);
        assert_eq!(service.stats().cluster_fallbacks, 2 * probing as u64);
        assert_eq!(service.stats().ann_requests, 2 * avoiding as u64);
    }

    /// End-to-end self-healing: rot an owned shard in RAM, let the
    /// boundary scrubber find it, quarantine it, rebuild it from the
    /// durable generation, re-admit it, and republish — with every
    /// response along the way identical to an uncorrupted control.
    #[test]
    fn scrubber_quarantines_heals_and_readmits_with_zero_wrong_responses() {
        let dir = std::env::temp_dir()
            .join(format!("cem_service_heal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (index, shards) = shard_fixture();
        let clone_index = || {
            ServeIndex::new(index.entities(), index.images(), [
                index.tier_rows(Tier::Full).to_vec(),
                index.tier_rows(Tier::Cached).to_vec(),
                index.tier_rows(Tier::Hard).to_vec(),
                index.tier_rows(Tier::Zero).to_vec(),
            ])
        };
        let victim = (0..shards.nclusters()).find(|&c| !shards.shard(c).is_empty()).unwrap();
        let generation = Generation::with_shards(1, clone_index(), shards).unwrap();
        let store = GenerationStore::new(&dir).unwrap();
        store.publish(&generation).unwrap();

        let sections_per_cycle = 4 * index.entities() + 4 + 2;
        let config = ServeConfig {
            scrub_sections_per_wave: sections_per_cycle,
            ..shard_config()
        };
        let mut service = MatchService::with_generation(config, generation);
        service.attach_store(GenerationStore::new(&dir).unwrap());
        // The uncorrupted control serves the same generation id, so full
        // Response equality (which includes the generation) holds.
        let control_gen =
            Generation::new(1, clone_index());
        let mut control = MatchService::with_generation(config, control_gen);

        service.corrupt_owned_shard_for_tests(victim);
        let requests = MatchRequest::stream(4, index.entities(), 7);
        let mut healed_at = None;
        for wave in 0..6 {
            let got = service.run(&requests, &NoFaults);
            let want = control.run(&requests, &NoFaults);
            assert_eq!(got, want, "wave {wave}: degraded serving must never be wrong");
            if service.quarantined().is_empty() && service.stats().shards_repaired > 0 {
                healed_at = Some(wave);
                break;
            }
        }
        assert!(healed_at.is_some(), "cluster must heal within the drill window");
        assert_eq!(service.stats().shards_repaired, 1);
        assert_eq!(service.stats().shards_quarantined, 1);
        assert!(service.scrub_stats().corruptions >= 1);
        // Re-admitted: the next burst probes again instead of falling back.
        let before = service.stats().ann_requests;
        let got = service.run(&requests, &NoFaults);
        let want = control.run(&requests, &NoFaults);
        assert_eq!(got, want, "healed serving must be bit-identical to the control");
        assert!(service.stats().ann_requests > before, "probing must resume after repair");
        assert!(service.quarantined().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_land_on_the_probed_path_too() {
        let (index, shards) = shard_fixture();
        // A poisoned encoder poisons probed scores exactly like dense rows:
        // the request degrades to cached instead of serving garbage.
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::NanFeatures, until_id: 4 };
        let mut service = MatchService::with_shards(shard_config(), &index, &shards);
        for response in service.run(&MatchRequest::stream(4, shards.entities(), 7), &fault) {
            assert_eq!(response.outcome.served_tier(), Some(Tier::Cached));
        }
        // Cache corruption on the probed path is an integrity failure.
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::CorruptCache, until_id: 1 };
        let mut service = MatchService::with_shards(shard_config(), &index, &shards);
        let responses = service.run(&MatchRequest::stream(1, shards.entities(), 7), &fault);
        assert_eq!(responses[0].outcome.served_tier(), Some(Tier::Cached));
        assert_eq!(responses[0].retries, 0, "corruption must not retry");
    }

    #[test]
    fn shard_probed_replay_is_identical_at_one_and_four_threads() {
        silence_injected_panics();
        let (index, shards) = shard_fixture();
        let requests = MatchRequest::stream(40, shards.entities(), 11);
        let fault = TierFault { tier: Tier::Full, kind: FaultKind::WorkerPanic, until_id: 9 };
        let run_with = |threads: usize| {
            let _guard = ThreadsGuard::new(threads);
            let mut service = MatchService::with_shards(
                ServeConfig { wave: 8, nprobe: 2, min_batch: 2, ..shard_config() },
                &index,
                &shards,
            );
            let responses = service.run(&requests, &fault);
            (responses, service.stats().clone(), service.trace_stats())
        };
        let (r1, s1, x1) = run_with(1);
        let (r4, s4, x4) = run_with(4);
        assert_eq!(r1, r4, "probed responses must be bit-identical across thread counts");
        assert_eq!(s1, s4);
        assert_eq!(x1, x4);
        assert!(s1.ann_requests > 0, "the probe pre-pass must have run");
    }
}
