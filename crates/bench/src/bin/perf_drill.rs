//! Performance drills for the parallel kernel layer and the frozen-feature
//! cache (see DESIGN.md, "Performance"). Six sections, each with timings
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
//!
//! Results land in `BENCH_perf.json`. Honours `--quick`; `--smoke` is the
//! same scale with the large GEMM sizes dropped (for CI).

use std::fmt::Write as _;
use std::time::Instant;

use cem_bench::{default_plus, prepare, HarnessConfig, PreparedBundle};
use cem_data::DatasetKind;
use cem_tensor::{crc, kernels, par};
use crossem::matcher::{key_id, rank_key, rank_row, score_cmp, select_top};
use crossem::plus::minibatch::pairwise_proximity;
use crossem::plus::CrossEmPlus;
use crossem::trainer::TrainOptions;
use crossem::{CrossEm, FeatureCache, PromptKind};

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
fn crossem_plus_epoch(prepared: &PreparedBundle, threads: usize) -> TrainedEpoch {
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
        .train_with_options(&mut rng, TrainOptions { threads: Some(threads), ..Default::default() })
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
        THREADS.iter().map(|&t| crossem_plus_epoch(&prepared, t)).collect();
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

    // ---------------------------------------------------------------
    // Summary + BENCH_perf.json
    // ---------------------------------------------------------------
    let obs = cem_obs::global().snapshot().delta_since(&obs_baseline);
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"harness\": \"perf_drill\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", if quick { "quick" } else { "standard" });
    let _ = writeln!(json, "  \"machine_threads\": {},", par::machine_threads());
    let _ = writeln!(json, "  \"thread_budget\": {},", par::max_threads());
    let _ = writeln!(json, "  \"threads_drilled\": [1, 2, 4],");
    let _ = writeln!(
        json,
        "  \"simd_active\": {},",
        cem_tensor::microkernel::simd_active()
    );
    let _ = writeln!(json, "  \"gemm\": [");
    for (i, row) in gemm_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"naive_ms\": {:.3}, \"blocked_t1_ms\": {:.3}, \
             \"blocked_t2_ms\": {:.3}, \"blocked_t4_ms\": {:.3}, \
             \"packed_t1_ms\": {:.3}, \"packed_t2_ms\": {:.3}, \"packed_t4_ms\": {:.3}, \
             \"auto_tier\": \"{}\", \"scaling_t4\": {:.3}, \
             \"speedup_vs_naive\": {:.3}, \"threads_bit_identical\": {}}}{}",
            row.n,
            row.naive_ms,
            row.blocked_ms[0],
            row.blocked_ms[1],
            row.blocked_ms[2],
            row.packed_ms[0],
            row.packed_ms[1],
            row.packed_ms[2],
            row.auto_tier,
            row.scaling_t4(),
            row.naive_ms / row.auto_t1_ms(),
            row.identical,
            if i + 1 < gemm_rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"scaling\": {{");
    let _ = writeln!(json, "    \"required_t4_over_t1\": 2.0,");
    let _ = writeln!(json, "    \"applicable\": {scaling_applicable},");
    let _ = writeln!(json, "    \"pass\": {scaling_ok},");
    let _ = writeln!(json, "    \"verdict\": \"{}\"", scaling_msg.replace('"', "'"));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"proximity_t1_ms\": {:.3},", prox_ms[0]);
    let _ = writeln!(json, "  \"proximity_t2_ms\": {:.3},", prox_ms[1]);
    let _ = writeln!(json, "  \"proximity_t4_ms\": {:.3},", prox_ms[2]);
    let _ = writeln!(
        json,
        "  \"proximity_scaling_t4\": {:.3},",
        prox_ms[0] / prox_ms[2].max(1e-9)
    );
    let _ = writeln!(json, "  \"proximity_bit_identical\": {prox_identical},");
    let _ = writeln!(json, "  \"cache_miss_ms\": {cache_miss_ms:.3},");
    let _ = writeln!(json, "  \"cache_hit_ms\": {cache_hit_ms:.4},");
    let _ = writeln!(
        json,
        "  \"cache_speedup\": {:.1},",
        cache_miss_ms / cache_hit_ms.max(1e-6)
    );
    let _ = writeln!(json, "  \"crossem_epoch_t1_s\": {:.4},", em_runs[0].seconds);
    let _ = writeln!(json, "  \"crossem_epoch_t2_s\": {:.4},", em_runs[1].seconds);
    let _ = writeln!(json, "  \"crossem_epoch_t4_s\": {:.4},", em_runs[2].seconds);
    let _ = writeln!(json, "  \"crossem_bit_identical\": {em_identical},");
    let _ = writeln!(json, "  \"crossem_plus_epoch_t1_s\": {:.4},", plus_runs[0].seconds);
    let _ = writeln!(json, "  \"crossem_plus_epoch_t2_s\": {:.4},", plus_runs[1].seconds);
    let _ = writeln!(json, "  \"crossem_plus_epoch_t4_s\": {:.4},", plus_runs[2].seconds);
    let _ = writeln!(json, "  \"crossem_plus_bit_identical\": {plus_identical},");
    let _ = writeln!(json, "  \"crc\": [");
    for (i, row) in crc_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"input\": \"{}\", \"bytes\": {}, \"bytewise_mb_per_s\": {:.1}, \
             \"sliced_mb_per_s\": {:.1}, \"speedup\": {:.2}}}{}",
            row.input,
            row.bytes,
            row.bytewise_mb_s,
            row.sliced_mb_s,
            row.sliced_mb_s / row.bytewise_mb_s,
            if i + 1 < crc_rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"crc_bit_identical\": {crc_bit_identical},");
    let _ = writeln!(json, "  \"rank\": [");
    for (i, row) in rank_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"input\": \"{}\", \"n\": {}, \"k\": {}, \"reference_us\": {:.3}, \
             \"kernel_us\": {:.3}, \"speedup\": {:.2}}}{}",
            row.input,
            row.n,
            row.k,
            row.reference_us,
            row.kernel_us,
            row.reference_us / row.kernel_us,
            if i + 1 < rank_rows.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"rank_identical\": {rank_identical},");
    let _ = writeln!(json, "  \"obs_counters\": {{");
    let _ = writeln!(
        json,
        "    \"gemm_dispatch_blocked_parallel\": {},",
        counter("gemm.dispatch.blocked_parallel")
    );
    let _ = writeln!(
        json,
        "    \"gemm_dispatch_serial_fallback\": {},",
        counter("gemm.dispatch.serial_fallback")
    );
    let _ = writeln!(json, "    \"gemm_tier_packed\": {},", counter("gemm.tier.packed"));
    let _ = writeln!(json, "    \"gemm_tier_blocked\": {},", counter("gemm.tier.blocked"));
    let _ = writeln!(json, "    \"cache_features_hit\": {},", counter("cache.features.hit"));
    let _ = writeln!(json, "    \"cache_features_miss\": {},", counter("cache.features.miss"));
    let _ = writeln!(json, "    \"cache_proximity_hit\": {},", counter("cache.proximity.hit"));
    let _ = writeln!(json, "    \"cache_proximity_miss\": {},", counter("cache.proximity.miss"));
    let _ = writeln!(json, "    \"cache_evict\": {}", counter("cache.evict"));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"all_pass\": {all_pass}");
    json.push_str("}\n");
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");
    println!("wrote BENCH_perf.json");

    if !all_pass {
        std::process::exit(1);
    }
}
