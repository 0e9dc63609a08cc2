//! Performance drills for the parallel kernel layer and the frozen-feature
//! cache (see DESIGN.md, "Performance"). Seven sections, each with timings
//! and — wherever parallelism is involved — a hard bit-identity verdict:
//!
//! 1. **GEMM kernels** — the blocked register-tiled kernel vs a local
//!    reimplementation of the seed's naive triple loop, at 1/2/4 threads.
//!    Outputs at every thread count must match bit-for-bit.
//! 2. **Proximity construction** — `pairwise_proximity` at 1/2/4 threads
//!    (bit-identical), plus the [`FeatureCache`] cold-miss vs warm-hit
//!    cost.
//! 3. **CrossEM epoch** — one tuning epoch at 1/2/4 threads via
//!    [`TrainOptions::threads`]; trained parameters must be bitwise equal.
//! 4. **CrossEM⁺ epoch** — same drill through the PCP/negative-sampling
//!    path and the shared feature cache.
//! 5. **CRC-32** — `crc32` on 1 MiB and `Hasher::update_f32s` on a
//!    shard-sized slice and a dense score row, against a local bytewise
//!    table loop; every digest must match the reference bit-for-bit.
//! 6. **Ranking** — `rank_row` on 192-wide dense rows and on a 100k row,
//!    and the key selection over shard-sized probe candidate sets, against
//!    a local reference sort on scores with ties, NaN and both zeros;
//!    every ranking must equal the reference's.
//! 7. **Backward** — `neighbor_mean` forward + backward over the CUB
//!    bundle's adjacency against a local copy of the per-vertex chain it
//!    replaced (gather → `mean_axis0` → `stack_rows`); outputs must match
//!    bit-for-bit and gradients as f32 values (an exact zero may change
//!    sign). Also one CrossEM⁺ batch's encode / backward / optimiser split,
//!    from the trainer's spans, and its median tensor allocations.
//!
//! Results land in `BENCH_perf.json`. Honours `--quick`; `--smoke` is the
//! same scale with the large GEMM sizes dropped (for CI).

use std::time::Instant;

use cem_bench::{default_plus, prepare, report, HarnessConfig, PreparedBundle};
use cem_data::DatasetKind;
use cem_nn::gnn::neighbor_mean;
use cem_obs::{Object, Value};
use cem_tensor::{crc, kernels, memory, par, Tensor};
use crossem::matcher::{key_id, rank_key, rank_row, score_cmp, select_top};
use crossem::plus::minibatch::pairwise_proximity;
use crossem::plus::CrossEmPlus;
use crossem::trainer::TrainOptions;
use crossem::{CrossEm, EpochAction, FaultInjector, FeatureCache, PromptKind};

/// Stage index for the drill RNG (distinct from the table harness stages).
const DRILL_STAGE: u64 = 88;

/// Thread budgets every parallel section is drilled at.
const THREADS: [usize; 3] = [1, 2, 4];

/// The seed's GEMM, kept verbatim as the baseline the blocked kernel is
/// measured against: naive i-k-j triple loop with the zero-skip branch.
fn naive_gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[kk * n + j];
            }
        }
    }
}

/// One-byte-per-step CRC-32 table, as the seed's kernel built it.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The seed's CRC-32, kept as the baseline the sliced kernel is measured
/// and checked against: one table lookup per byte.
fn bytewise_crc32(bytes: impl IntoIterator<Item = u8>) -> u32 {
    !bytes
        .into_iter()
        .fold(!0u32, |crc, b| (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize])
}

/// Deterministic pseudo-random matrix fill (xorshift; no rand dependency
/// needed for raw slices).
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1 << 24) as f32 - 0.5
        })
        .collect()
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Median-of-reps wall time in milliseconds.
fn bench_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| time_ms(&mut f)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct GemmRow {
    n: usize,
    naive_ms: f64,
    blocked_ms: [f64; 3],
    packed_ms: [f64; 3],
    auto_tier: &'static str,
    identical: bool,
}

impl GemmRow {
    /// t1 time of the tier the dispatching entry point actually uses.
    fn auto_t1_ms(&self) -> f64 {
        if self.auto_tier == "packed" {
            self.packed_ms[0]
        } else {
            self.blocked_ms[0]
        }
    }

    /// t1/t4 scaling ratio of the shipping tier (>1 means threads help).
    fn scaling_t4(&self) -> f64 {
        let ms = if self.auto_tier == "packed" { &self.packed_ms } else { &self.blocked_ms };
        ms[0] / ms[2].max(1e-9)
    }
}

fn drill_gemm(sizes: &[usize]) -> Vec<GemmRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let a = fill(0x5eed + n as u64, n * n);
        let b = fill(0xbeef + n as u64, n * n);
        let reps = if n >= 512 { 3 } else { 5 };

        let mut c_naive = vec![0.0f32; n * n];
        let naive_ms = bench_ms(reps, || {
            c_naive.fill(0.0);
            naive_gemm(&a, &b, &mut c_naive, n, n, n);
        });

        // Both tiers at every thread budget; bit-identity is asserted
        // within each tier (the tiers use different — both deterministic —
        // accumulation schedules, so cross-tier bits may differ).
        let mut blocked_ms = [0.0f64; 3];
        let mut packed_ms = [0.0f64; 3];
        let mut blocked_outs: Vec<Vec<f32>> = Vec::new();
        let mut packed_outs: Vec<Vec<f32>> = Vec::new();
        for (slot, &t) in THREADS.iter().enumerate() {
            let mut c = vec![0.0f32; n * n];
            blocked_ms[slot] = bench_ms(reps, || {
                c.fill(0.0);
                kernels::gemm_blocked_with_threads(&a, &b, &mut c, n, n, n, t);
            });
            blocked_outs.push(c);
            let mut c = vec![0.0f32; n * n];
            packed_ms[slot] = bench_ms(reps, || {
                c.fill(0.0);
                kernels::gemm_packed_with_threads(&a, &b, &mut c, n, n, n, t);
            });
            packed_outs.push(c);
        }
        let identical = blocked_outs.iter().all(|c| c == &blocked_outs[0])
            && packed_outs.iter().all(|c| c == &packed_outs[0]);
        let auto_tier = if kernels::uses_packed_path(n, n, n) { "packed" } else { "blocked" };
        eprintln!(
            "[gemm] {n}x{n}x{n}: naive {naive_ms:.1} ms | blocked t1 {:.1} / t2 {:.1} / t4 {:.1} ms \
             | packed t1 {:.1} / t2 {:.1} / t4 {:.1} ms | auto tier {auto_tier} \
             ({:.2}x vs naive), threads bit-identical: {identical}",
            blocked_ms[0],
            blocked_ms[1],
            blocked_ms[2],
            packed_ms[0],
            packed_ms[1],
            packed_ms[2],
            naive_ms / blocked_ms[0].min(packed_ms[0]),
        );
        rows.push(GemmRow { n, naive_ms, blocked_ms, packed_ms, auto_tier, identical });
    }
    rows
}

/// Scaling-gate verdict for the largest drilled GEMM: t4 must beat t1 by
/// `required` on hosts with ≥ 4 cores. On smaller hosts the gate cannot
/// physically pass and reports not-applicable instead of lying.
fn scaling_verdict(row: &GemmRow, required: f64) -> (bool, String) {
    let cores = par::machine_threads();
    let ratio = row.scaling_t4();
    if cores < 2 {
        (true, format!("not-applicable: single-core host ({ratio:.2}x measured)"))
    } else if cores < 4 {
        (true, format!("not-applicable: only {cores} cores for a t4 gate ({ratio:.2}x measured)"))
    } else if ratio >= required {
        (true, format!("pass: {ratio:.2}x >= {required:.1}x at {}³", row.n))
    } else {
        (
            false,
            format!(
                "FAIL: {}³ GEMM t4 is only {ratio:.2}x over t1 (required {required:.1}x, \
                 {cores} cores) — thread scaling regressed",
                row.n
            ),
        )
    }
}

struct CrcRow {
    input: &'static str,
    bytes: usize,
    bytewise_mb_s: f64,
    sliced_mb_s: f64,
    identical: bool,
}

/// Throughput of `hash` in MB/s: median of 5 reps, each repeating it over
/// about 8 MiB.
fn crc_mb_s(bytes: usize, mut hash: impl FnMut() -> u32) -> f64 {
    let iters = ((8 << 20) / bytes).max(1);
    let ms = bench_ms(5, || {
        for _ in 0..iters {
            std::hint::black_box(hash());
        }
    });
    (bytes * iters) as f64 / 1e3 / ms
}

fn drill_crc() -> Vec<CrcRow> {
    let mib: Vec<u8> = fill(0xC4C, 1 << 18).iter().flat_map(|v| v.to_le_bytes()).collect();
    // A 100k-image, 256-cluster, dim-64 shard is ~390 rows × 64 values; a
    // dense score row is 192 images.
    let shard = fill(0x5A4D, 390 * 64);
    let row = fill(0x40E, 192);
    let mut rows = Vec::new();
    let sliced_bytes = || crc::crc32(std::hint::black_box(&mib));
    let bytewise_bytes = || bytewise_crc32(std::hint::black_box(&mib).iter().copied());
    rows.push(CrcRow {
        input: "crc32_1mib",
        bytes: mib.len(),
        bytewise_mb_s: crc_mb_s(mib.len(), bytewise_bytes),
        sliced_mb_s: crc_mb_s(mib.len(), sliced_bytes),
        identical: sliced_bytes() == bytewise_bytes(),
    });
    for (input, values) in [("update_f32s_shard", &shard), ("update_f32s_row", &row)] {
        let sliced = || {
            let mut hasher = crc::Hasher::new();
            hasher.update_f32s(std::hint::black_box(values));
            hasher.finalize()
        };
        let bytewise =
            || bytewise_crc32(std::hint::black_box(values).iter().flat_map(|v| v.to_le_bytes()));
        let bytes = values.len() * 4;
        rows.push(CrcRow {
            input,
            bytes,
            bytewise_mb_s: crc_mb_s(bytes, bytewise),
            sliced_mb_s: crc_mb_s(bytes, sliced),
            identical: sliced() == bytewise(),
        });
    }
    for r in &rows {
        eprintln!(
            "[crc] {} ({} B): bytewise {:.0} MB/s | sliced {:.0} MB/s ({:.1}x), bit-identical: {}",
            r.input,
            r.bytes,
            r.bytewise_mb_s,
            r.sliced_mb_s,
            r.sliced_mb_s / r.bytewise_mb_s,
            r.identical,
        );
    }
    rows
}

struct RankRow {
    input: &'static str,
    n: usize,
    k: usize,
    reference_us: f64,
    kernel_us: f64,
    identical: bool,
}

/// The order every ranking kernel must reproduce, by its definition:
/// candidates stable-sorted by `score_cmp` descending, so equal scores
/// keep ascending id order; the first `k` ids (0 = all).
fn reference_rank(mut candidates: Vec<(usize, f32)>, k: usize) -> Vec<usize> {
    candidates.sort_by(|a, b| score_cmp(b.1, a.1).then(a.0.cmp(&b.0)));
    let keep = if k == 0 { candidates.len() } else { k.min(candidates.len()) };
    candidates[..keep].iter().map(|&(id, _)| id).collect()
}

/// Scores a ranking must order exactly: duplicates, NaN and both zeros
/// mixed into a pseudo-random fill.
fn rank_scores(seed: u64, len: usize) -> Vec<f32> {
    let mut scores = fill(seed, len);
    for i in (0..len).step_by(31) {
        scores[i] = scores[i / 2];
    }
    for (start, value) in [(5, f32::NAN), (7, -0.0), (11, 0.0)] {
        for i in (start..len).step_by(97) {
            scores[i] = value;
        }
    }
    scores
}

/// Median-of-5 microseconds per call of `rank` over every input set,
/// repeated `rounds` times per rep.
fn rank_us<T>(inputs: &[T], rounds: usize, mut rank: impl FnMut(&T) -> Vec<usize>) -> f64 {
    let ms = bench_ms(5, || {
        for _ in 0..rounds {
            for input in inputs {
                std::hint::black_box(rank(std::hint::black_box(input)));
            }
        }
    });
    ms * 1e3 / (rounds * inputs.len()) as f64
}

fn drill_rank() -> Vec<RankRow> {
    let mut rows = Vec::new();
    // Dense tiers: 48 entities × 192 images, served at top_k 10; the
    // evaluation ranks whole rows (k = 0). One 100k-image row.
    let dense: Vec<Vec<f32>> = (0..48).map(|e| rank_scores(0x4A4E + e, 192)).collect();
    let wide = vec![rank_scores(0x100C, 100_000)];
    for (input, scores, k, rounds) in [
        ("rank_row_192_top10", &dense, 10, 100),
        ("rank_row_192_all", &dense, 0, 20),
        ("rank_row_100k_top10", &wide, 10, 2),
    ] {
        let kernel = |row: &Vec<f32>| rank_row(row, k);
        let reference = |row: &Vec<f32>| reference_rank(row.iter().copied().enumerate().collect(), k);
        rows.push(RankRow {
            input,
            n: scores[0].len(),
            k,
            reference_us: rank_us(scores, rounds, reference),
            kernel_us: rank_us(scores, rounds, kernel),
            identical: scores.iter().all(|row| kernel(row) == reference(row)),
        });
    }
    // A `serve_shard` request's probe candidates: 16 of 256 clusters over
    // 100k images, about 6.4k distinct image ids in cluster order.
    let candidates: Vec<Vec<(usize, f32)>> = (0..8)
        .map(|set| {
            let scores = rank_scores(0xCA4D + set, 6_400);
            let ids = (0..scores.len()).map(|i| (i * 7_919 + set as usize) % 100_003);
            ids.zip(scores).collect()
        })
        .collect();
    let kernel = |set: &Vec<(usize, f32)>| {
        let mut keys: Vec<u64> = set.iter().map(|&(id, score)| rank_key(score, id)).collect();
        select_top(&mut keys, 10).iter().map(|&key| key_id(key)).collect()
    };
    let reference = |set: &Vec<(usize, f32)>| reference_rank(set.clone(), 10);
    rows.push(RankRow {
        input: "shard_candidates_6400_top10",
        n: 6_400,
        k: 10,
        reference_us: rank_us(&candidates, 5, reference),
        kernel_us: rank_us(&candidates, 5, kernel),
        identical: candidates.iter().all(|set| kernel(set) == reference(set)),
    });
    for r in &rows {
        eprintln!(
            "[rank] {} (n {}, k {}): reference sort {:.2} us | kernel {:.2} us ({:.1}x), \
             identical: {}",
            r.input,
            r.n,
            r.k,
            r.reference_us,
            r.kernel_us,
            r.reference_us / r.kernel_us,
            r.identical,
        );
    }
    rows
}

/// The per-vertex chain `neighbor_mean` replaced: a gather and a column
/// mean per vertex, then a stack.
fn neighbor_mean_chain(features: &Tensor, adj: &[Vec<usize>]) -> Tensor {
    let d = features.shape().last_dim();
    let parts: Vec<Tensor> = adj
        .iter()
        .map(|nb| {
            if nb.is_empty() {
                Tensor::zeros(&[d])
            } else {
                features.gather_rows(nb).mean_axis0()
            }
        })
        .collect();
    Tensor::stack_rows(&parts)
}

/// Tensor allocations between consecutive `after_backward` calls inside an
/// epoch: one batch cycle each (the previous step's optimiser tail, then
/// this batch's forward and backward).
#[derive(Default)]
struct AllocClock {
    last: Option<usize>,
    per_batch: Vec<usize>,
}

impl FaultInjector for AllocClock {
    fn after_backward(&mut self, _global_batch: usize, _params: &[Tensor]) {
        let now = memory::total_allocations();
        if let Some(last) = self.last {
            self.per_batch.push(now - last);
        }
        self.last = Some(now);
    }

    fn after_epoch(&mut self, _epoch: usize) -> EpochAction {
        self.last = None;
        EpochAction::Continue
    }
}

struct BackwardDrill {
    vertices: usize,
    entries: usize,
    dim: usize,
    chain_ms: f64,
    segment_ms: f64,
    identical: bool,
    batches: u64,
    encode_ms: f64,
    backward_ms: f64,
    optim_ms: f64,
    allocs_per_batch: usize,
}

/// Section 7: neighbour aggregation, forward + backward, new against the
/// replaced chain; then one CrossEM⁺ epoch at one thread, split per batch
/// from the trainer's spans.
fn drill_backward(prepared: &PreparedBundle) -> BackwardDrill {
    let bundle = &prepared.bundle;
    let adj = bundle.dataset.graph.adjacency();
    let (n, d) = (adj.len(), bundle.clip.text.d_model());
    let features = fill(0xB4C4_3A2D, n * d);
    let seed = fill(0x5EED_0007, n * d);
    let run = |mean: fn(&Tensor, &[Vec<usize>]) -> Tensor| {
        let f = Tensor::from_vec(features.clone(), &[n, d]).requires_grad();
        let out = mean(&f, &adj);
        out.backward_with(&seed);
        (out.to_vec(), f.grad().expect("features reached"))
    };
    let _one_thread = par::ThreadsGuard::new(1);
    let chain_ms = bench_ms(9, || drop(run(neighbor_mean_chain)));
    let segment_ms = bench_ms(9, || drop(run(neighbor_mean)));
    let (chain, segment) = (run(neighbor_mean_chain), run(neighbor_mean));
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let identical = bits(&chain.0) == bits(&segment.0) && chain.1 == segment.1;

    let before = cem_obs::global().snapshot();
    let mut clock = AllocClock::default();
    drop(crossem_plus_epoch(prepared, 1, Some(&mut clock)));
    clock.per_batch.sort_unstable();
    let spans = cem_obs::global().snapshot().delta_since(&before);
    let ms = |name: &str| spans.span(name).map_or(0.0, |s| s.total_nanos as f64 / 1e6);
    let batches = spans.span("phase.step").map_or(0, |s| s.calls).max(1);
    let per_batch = |total: f64| total / batches as f64;
    BackwardDrill {
        vertices: n,
        entries: adj.iter().map(Vec::len).sum(),
        dim: d,
        chain_ms,
        segment_ms,
        identical,
        batches,
        encode_ms: per_batch(ms("phase.encode")),
        backward_ms: per_batch(ms("step.backward")),
        optim_ms: per_batch(ms("step.clip") + ms("step.update")),
        allocs_per_batch: clock.per_batch.get(clock.per_batch.len() / 2).copied().unwrap_or(0),
    }
}

struct TrainedEpoch {
    seconds: f64,
    params: Vec<Vec<f32>>,
}

/// One tuning epoch of plain CrossEM at a fixed thread budget.
fn crossem_epoch(prepared: &PreparedBundle, threads: usize) -> TrainedEpoch {
    prepared.reset_clip();
    let bundle = &prepared.bundle;
    let mut rng = bundle.stage_rng(DRILL_STAGE);
    let config = prepared.train_config(PromptKind::Hard, 1);
    let matcher = CrossEm::new(&bundle.clip, &bundle.tokenizer, &bundle.dataset, config, &mut rng);
    let start = Instant::now();
    matcher
        .train_with_options(&mut rng, TrainOptions { threads: Some(threads), ..Default::default() })
        .expect("no checkpoints, no resume path to fail");
    let seconds = start.elapsed().as_secs_f64();
    let params = matcher.trainable_params().iter().map(|p| p.to_vec()).collect();
    TrainedEpoch { seconds, params }
}

/// One tuning epoch of CrossEM⁺ (PCP + negative sampling + orthogonal
/// constraint) at a fixed thread budget.
fn crossem_plus_epoch(
    prepared: &PreparedBundle,
    threads: usize,
    injector: Option<&mut dyn FaultInjector>,
) -> TrainedEpoch {
    prepared.reset_clip();
    let bundle = &prepared.bundle;
    let mut rng = bundle.stage_rng(DRILL_STAGE + 1);
    let config = prepared.train_config(PromptKind::Soft, 1);
    let trainer = CrossEmPlus::new(
        &bundle.clip,
        &bundle.tokenizer,
        &bundle.dataset,
        config,
        default_plus(),
        &mut rng,
    );
    let start = Instant::now();
    trainer
        .train_with_options(
            &mut rng,
            TrainOptions { threads: Some(threads), injector, ..Default::default() },
        )
        .expect("no checkpoints, no resume path to fail");
    let seconds = start.elapsed().as_secs_f64();
    let params = trainer.base().trainable_params().iter().map(|p| p.to_vec()).collect();
    TrainedEpoch { seconds, params }
}

fn bitwise_equal(runs: &[TrainedEpoch]) -> bool {
    runs.iter().all(|r| r.params == runs[0].params)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate_scaling = std::env::args().any(|a| a == "--gate-scaling");
    let config = if smoke { HarnessConfig::quick() } else { HarnessConfig::from_args() };
    let quick = smoke || std::env::args().any(|a| a == "--quick");
    // --gate-scaling always drills the 512³ point the scaling gate reads,
    // even at smoke scale.
    let gemm_sizes: &[usize] = if gate_scaling {
        &[512]
    } else if smoke {
        &[64, 128]
    } else {
        &[128, 256, 512]
    };

    // Registry counters (cache hit/miss/evict, GEMM dispatch decisions)
    // ride along in BENCH_perf.json. Counters are observational only, so
    // the bit-identity verdicts below are unaffected.
    let _obs = cem_obs::force_enable();
    let obs_baseline = cem_obs::global().snapshot();

    // ---------------------------------------------------------------
    // Section 1: GEMM kernels.
    // ---------------------------------------------------------------
    eprintln!(
        "[perf 1] GEMM tiers vs naive seed loop (machine cores: {}, simd: {}) …",
        par::machine_threads(),
        cem_tensor::microkernel::simd_active(),
    );
    let gemm_rows = drill_gemm(gemm_sizes);
    let gemm_identical = gemm_rows.iter().all(|r| r.identical);
    // CI scaling-gate mode: section 1 only; soft gate at 1.5x (the full 2x
    // gate runs in the normal local drill below).
    if gate_scaling {
        let (ok, msg) = scaling_verdict(gemm_rows.last().expect("gemm sizes non-empty"), 1.5);
        eprintln!("[perf gate] {msg}");
        std::process::exit(if ok && gemm_identical { 0 } else { 1 });
    }
    // Kernel-iteration mode: stop after section 1, no JSON.
    if std::env::args().any(|a| a == "--gemm-only") {
        std::process::exit(if gemm_identical { 0 } else { 1 });
    }
    let gemm_speedup = gemm_rows
        .last()
        .map(|r| r.naive_ms / r.auto_t1_ms())
        .unwrap_or(0.0);
    let (scaling_ok, scaling_msg) = gemm_rows
        .last()
        .map(|r| scaling_verdict(r, 2.0))
        .unwrap_or((true, "not-applicable: no gemm rows".to_string()));
    eprintln!("[perf 1] scaling gate: {scaling_msg}");

    // ---------------------------------------------------------------
    // Section 2: proximity construction + feature cache.
    // ---------------------------------------------------------------
    eprintln!("[perf 2] proximity matrix at 1/2/4 threads + feature cache …");
    let prepared = prepare(DatasetKind::Cub, &config);
    let bundle = &prepared.bundle;
    prepared.reset_clip();

    let mut prox_ms = [0.0f64; 3];
    let mut prox_outputs = Vec::new();
    for (slot, &t) in THREADS.iter().enumerate() {
        let _guard = par::ThreadsGuard::new(t);
        let mut out = None;
        prox_ms[slot] = bench_ms(3, || {
            out = Some(pairwise_proximity(&bundle.clip, &bundle.tokenizer, &bundle.dataset, 1));
        });
        prox_outputs.push(out.unwrap());
    }
    let prox_identical = prox_outputs.iter().all(|p| p == &prox_outputs[0]);
    eprintln!(
        "[perf 2] pairwise_proximity t1 {:.1} / t2 {:.1} / t4 {:.1} ms, bit-identical: {prox_identical}",
        prox_ms[0], prox_ms[1], prox_ms[2],
    );

    let cache = FeatureCache::new();
    let cache_miss_ms =
        time_ms(|| drop(cache.proximity(&bundle.clip, &bundle.tokenizer, &bundle.dataset, 1)));
    let cache_hit_ms =
        time_ms(|| drop(cache.proximity(&bundle.clip, &bundle.tokenizer, &bundle.dataset, 1)));
    let cache_consistent = cache.hits() == 1 && cache.misses() == 2;
    eprintln!(
        "[perf 2] cache cold miss {cache_miss_ms:.1} ms, warm hit {cache_hit_ms:.3} ms \
         ({:.0}x), counters ok: {cache_consistent}",
        cache_miss_ms / cache_hit_ms.max(1e-6),
    );

    // ---------------------------------------------------------------
    // Sections 3 & 4: one epoch of each trainer per thread budget.
    // ---------------------------------------------------------------
    eprintln!("[perf 3] one CrossEM epoch at 1/2/4 threads …");
    let em_runs: Vec<TrainedEpoch> =
        THREADS.iter().map(|&t| crossem_epoch(&prepared, t)).collect();
    let em_identical = bitwise_equal(&em_runs);
    eprintln!(
        "[perf 3] epoch t1 {:.2} / t2 {:.2} / t4 {:.2} s, params bit-identical: {em_identical}",
        em_runs[0].seconds, em_runs[1].seconds, em_runs[2].seconds,
    );

    eprintln!("[perf 4] one CrossEM⁺ epoch at 1/2/4 threads …");
    let plus_runs: Vec<TrainedEpoch> =
        THREADS.iter().map(|&t| crossem_plus_epoch(&prepared, t, None)).collect();
    let plus_identical = bitwise_equal(&plus_runs);
    eprintln!(
        "[perf 4] epoch t1 {:.2} / t2 {:.2} / t4 {:.2} s, params bit-identical: {plus_identical}",
        plus_runs[0].seconds, plus_runs[1].seconds, plus_runs[2].seconds,
    );

    eprintln!("[perf 5] CRC-32 kernel vs the bytewise seed loop …");
    let crc_rows = drill_crc();
    let crc_bit_identical = crc_rows.iter().all(|r| r.identical);

    eprintln!("[perf 6] ranking kernel vs a reference sort …");
    let rank_rows = drill_rank();
    let rank_identical = rank_rows.iter().all(|r| r.identical);

    // The registry counters below cover sections 1–6; section 7 trains an
    // extra epoch whose GEMM calls would otherwise inflate them.
    let obs = cem_obs::global().snapshot().delta_since(&obs_baseline);

    eprintln!("[perf 7] neighbour aggregation backward vs the per-vertex chain …");
    let bwd = drill_backward(&prepared);
    let backward_identical = bwd.identical;
    eprintln!(
        "[perf 7] neighbor_mean fwd+bwd ({} vertices, {} entries, d {}): chain {:.3} ms, \
         segment {:.3} ms ({:.1}x), identical: {backward_identical}",
        bwd.vertices,
        bwd.entries,
        bwd.dim,
        bwd.chain_ms,
        bwd.segment_ms,
        bwd.chain_ms / bwd.segment_ms.max(1e-9),
    );
    eprintln!(
        "[perf 7] CrossEM⁺ batch at t1 ({} batches): encode {:.3} / backward {:.3} / \
         optimiser {:.3} ms, {} tensor allocations (median)",
        bwd.batches, bwd.encode_ms, bwd.backward_ms, bwd.optim_ms, bwd.allocs_per_batch,
    );

    // ---------------------------------------------------------------
    // Summary + BENCH_perf.json
    // ---------------------------------------------------------------
    let counter = |name: &str| obs.counter(name).unwrap_or(0);
    eprintln!(
        "[perf obs] gemm dispatch blocked={} serial={}, cache features {}h/{}m \
         proximity {}h/{}m evict={}",
        counter("gemm.dispatch.blocked_parallel"),
        counter("gemm.dispatch.serial_fallback"),
        counter("cache.features.hit"),
        counter("cache.features.miss"),
        counter("cache.proximity.hit"),
        counter("cache.proximity.miss"),
        counter("cache.evict"),
    );

    // The 2x t4-vs-t1 scaling gate participates in the overall verdict only
    // when the host can honestly run it (>= 4 cores); on smaller hosts the
    // verdict string records why it was skipped.
    let scaling_applicable = !scaling_msg.starts_with("not-applicable");
    let all_pass = gemm_identical
        && prox_identical
        && cache_consistent
        && em_identical
        && plus_identical
        && crc_bit_identical
        && rank_identical
        && backward_identical
        && (!scaling_applicable || scaling_ok);
    println!(
        "\nperf drill: GEMM {gemm_speedup:.2}x vs naive at {}³ ({} tier), cache hit {:.0}x \
         cheaper than recompute, CRC-32 {:.1}x vs bytewise on 1 MiB, determinism {}",
        gemm_rows.last().map(|r| r.n).unwrap_or(0),
        gemm_rows.last().map(|r| r.auto_tier).unwrap_or("?"),
        cache_miss_ms / cache_hit_ms.max(1e-6),
        crc_rows[0].sliced_mb_s / crc_rows[0].bytewise_mb_s,
        if all_pass { "ALL PASS" } else { "FAILURES" },
    );

    let fixed = Value::fixed;
    let gemm: Vec<Object> = gemm_rows
        .iter()
        .map(|row| {
            Object::new()
                .field("n", row.n)
                .field("naive_ms", fixed(row.naive_ms, 3))
                .field("blocked_t1_ms", fixed(row.blocked_ms[0], 3))
                .field("blocked_t2_ms", fixed(row.blocked_ms[1], 3))
                .field("blocked_t4_ms", fixed(row.blocked_ms[2], 3))
                .field("packed_t1_ms", fixed(row.packed_ms[0], 3))
                .field("packed_t2_ms", fixed(row.packed_ms[1], 3))
                .field("packed_t4_ms", fixed(row.packed_ms[2], 3))
                .field("auto_tier", row.auto_tier)
                .field("scaling_t4", fixed(row.scaling_t4(), 3))
                .field("speedup_vs_naive", fixed(row.naive_ms / row.auto_t1_ms(), 3))
                .field("threads_bit_identical", row.identical)
        })
        .collect();
    let scaling = Object::new()
        .field("required_t4_over_t1", 2.0)
        .field("applicable", scaling_applicable)
        .field("pass", scaling_ok)
        .field("verdict", scaling_msg);
    let crc: Vec<Object> = crc_rows
        .iter()
        .map(|row| {
            Object::new()
                .field("input", row.input)
                .field("bytes", row.bytes)
                .field("bytewise_mb_per_s", fixed(row.bytewise_mb_s, 1))
                .field("sliced_mb_per_s", fixed(row.sliced_mb_s, 1))
                .field("speedup", fixed(row.sliced_mb_s / row.bytewise_mb_s, 2))
        })
        .collect();
    let rank: Vec<Object> = rank_rows
        .iter()
        .map(|row| {
            Object::new()
                .field("input", row.input)
                .field("n", row.n)
                .field("k", row.k)
                .field("reference_us", fixed(row.reference_us, 3))
                .field("kernel_us", fixed(row.kernel_us, 3))
                .field("speedup", fixed(row.reference_us / row.kernel_us, 2))
        })
        .collect();
    let backward = Object::new()
        .field("vertices", bwd.vertices)
        .field("adjacency_entries", bwd.entries)
        .field("dim", bwd.dim)
        .field("neighbor_mean_chain_ms", fixed(bwd.chain_ms, 4))
        .field("neighbor_mean_segment_ms", fixed(bwd.segment_ms, 4))
        .field("speedup", fixed(bwd.chain_ms / bwd.segment_ms.max(1e-9), 2))
        .field("plus_batches_t1", bwd.batches)
        .field("encode_ms_per_batch", fixed(bwd.encode_ms, 4))
        .field("backward_ms_per_batch", fixed(bwd.backward_ms, 4))
        .field("optimiser_ms_per_batch", fixed(bwd.optim_ms, 4))
        .field("allocations_per_batch", bwd.allocs_per_batch);
    let obs_counters = [
        "gemm.dispatch.blocked_parallel",
        "gemm.dispatch.serial_fallback",
        "gemm.tier.packed",
        "gemm.tier.blocked",
        "cache.features.hit",
        "cache.features.miss",
        "cache.proximity.hit",
        "cache.proximity.miss",
        "cache.evict",
    ]
    .into_iter()
    .fold(Object::new(), |o, name| o.field(name.replace('.', "_"), counter(name)));
    let summary = Object::new()
        .field("harness", "perf_drill")
        .field("scale", if quick { "quick" } else { "standard" })
        .field("machine_threads", par::machine_threads())
        .field("thread_budget", par::max_threads())
        .field("threads_drilled", THREADS.to_vec())
        .field("simd_active", cem_tensor::microkernel::simd_active())
        .field("gemm", gemm)
        .field("scaling", scaling)
        .field("proximity_t1_ms", fixed(prox_ms[0], 3))
        .field("proximity_t2_ms", fixed(prox_ms[1], 3))
        .field("proximity_t4_ms", fixed(prox_ms[2], 3))
        .field("proximity_scaling_t4", fixed(prox_ms[0] / prox_ms[2].max(1e-9), 3))
        .field("proximity_bit_identical", prox_identical)
        .field("cache_miss_ms", fixed(cache_miss_ms, 3))
        .field("cache_hit_ms", fixed(cache_hit_ms, 4))
        .field("cache_speedup", fixed(cache_miss_ms / cache_hit_ms.max(1e-6), 1))
        .field("crossem_epoch_t1_s", fixed(em_runs[0].seconds, 4))
        .field("crossem_epoch_t2_s", fixed(em_runs[1].seconds, 4))
        .field("crossem_epoch_t4_s", fixed(em_runs[2].seconds, 4))
        .field("crossem_bit_identical", em_identical)
        .field("crossem_plus_epoch_t1_s", fixed(plus_runs[0].seconds, 4))
        .field("crossem_plus_epoch_t2_s", fixed(plus_runs[1].seconds, 4))
        .field("crossem_plus_epoch_t4_s", fixed(plus_runs[2].seconds, 4))
        .field("crossem_plus_bit_identical", plus_identical)
        .field("crc", crc)
        .field("crc_bit_identical", crc_bit_identical)
        .field("rank", rank)
        .field("rank_identical", rank_identical)
        .field("backward", backward)
        .field("backward_identical", backward_identical)
        .field("obs_counters", obs_counters)
        .field("all_pass", all_pass);
    report::publish("BENCH_perf.json", summary);

    if !all_pass {
        std::process::exit(1);
    }
}
