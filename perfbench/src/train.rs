//! `train`: CrossEM⁺ prompt tuning, the paper's own cost.
//!
//! Soft prompts with the GNN backend and every CrossEM⁺ optimisation (PCP
//! mini-batches, negative sampling, the orthogonal constraint) on the
//! synthetic CUB bundle at 40 classes × 4 images. All autograd, blocked
//! GEMM, transformer and AdamW work happens here; no serving code runs.
//!
//! Set-up is `DatasetBundle::prepare` with a reduced CLIP pre-train, then
//! `CrossEmPlus::new`. A run sets up three times, and after each set-up
//! measures a training window: one `train_with_options` call over a fixed
//! number of epochs, then `evaluate`. The three windows do identical work
//! and must reach a bit-identical MRR. On a shared host the speed of this
//! cache-heavy code drifts by ±20 % over tens of seconds; spreading the
//! measured epochs across the whole run averages more of that drift than
//! one contiguous window of the same length.
//!
//! The inputs are the same for every `--seed`. The cost of a pair depends
//! on the PCP partitions, which the bundle and the training stream decide:
//! across training streams on one bundle, pairs per second differed by up
//! to 1.6× and MRR by 10 %, so per-seed inputs would make runs at different
//! seeds measure different programs. The bundle is the harnesses' CUB
//! bundle (seed 17) and the training stream is their CrossEM⁺ stream.

use std::time::Instant;

use cem_clip::pretrain::PretrainConfig;
use cem_data::{BundleConfig, DatasetBundle, DatasetKind, DatasetScale};
use cem_tensor::Tensor;
use crossem::config::{PlusConfig, SoftBackend};
use crossem::plus::{CrossEmPlus, PlusReport};
use crossem::{EpochAction, FaultInjector, PromptKind, TrainConfig, TrainOptions};
use rand::rngs::StdRng;

use crate::record::Report;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{gemm_counts, GEMM_METRICS, MB};

const BUNDLE_SEED: u64 = 17;
/// `DatasetBundle::stage_rng` stream of the training run.
const TRAIN_STAGE: u64 = 31;
const SCALE: DatasetScale = DatasetScale {
    classes: 40,
    images_per_class: 4,
};
const PRETRAIN_PAIRS: usize = 600;
const PRETRAIN: PretrainConfig = PretrainConfig {
    epochs: 3,
    batch_size: 64,
    lr: 1e-3,
    clip_norm: 5.0,
};
/// Epochs per training window: about ten seconds on a 2-vCPU x86-64 host
/// at one thread.
const EPOCHS: usize = 20;
/// Set-ups per run, each followed by a training window; `setup_s` is the
/// median set-up. Each one prepares the bundle afresh in a warm process: it
/// is a re-boot, not the span from process start.
const BOOTS: u64 = 3;

/// The harnesses' settings for CUB.
fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        prompt: PromptKind::Soft,
        hops: 1,
        epochs,
        soft_backend: SoftBackend::Gnn,
        max_subprompts: 16,
        mining_prior_weight: 0.5,
        batch_vertices: 8,
        batch_images: 32,
        ..TrainConfig::default()
    }
}

fn plus_config() -> PlusConfig {
    PlusConfig {
        vertex_subsets: 4,
        image_clusters: 4,
        prune_quantile: 0.35,
        negative_top_k: 6,
        ..PlusConfig::default()
    }
}

/// The benchmark's clock inside the training loop: the hooks run once per
/// batch (after backward) and once per epoch, and do nothing else.
#[derive(Default)]
struct BatchClock {
    batches: u64,
    last: Option<Instant>,
    /// Start and end of every batch interval inside an epoch.
    intervals: Vec<(Instant, Instant)>,
    epoch_ends: Vec<Instant>,
}

impl FaultInjector for BatchClock {
    fn after_backward(&mut self, _global_batch: usize, _params: &[Tensor]) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.intervals.push((last, now));
        }
        self.last = Some(now);
        self.batches += 1;
    }

    fn after_epoch(&mut self, _epoch: usize) -> EpochAction {
        self.epoch_ends.push(Instant::now());
        // A batch interval never spans the epoch boundary.
        self.last = None;
        EpochAction::Continue
    }
}

impl BatchClock {
    /// Seconds of every epoch but the first, which also pays partition
    /// preparation: each is one pass over the partitions.
    fn epoch_secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.epoch_ends
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
    }

    fn batch_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.intervals
            .iter()
            .map(|(start, end)| end.duration_since(*start).as_secs_f64() * 1e3)
    }
}

fn bundle() -> DatasetBundle {
    DatasetBundle::prepare(BundleConfig {
        kind: DatasetKind::Cub,
        scale: SCALE,
        pretrain_pairs: PRETRAIN_PAIRS,
        pretrain: PRETRAIN,
        seed: BUNDLE_SEED,
    })
}

fn phase_nanos(name: &str) -> u64 {
    cem_obs::global()
        .snapshot()
        .span(name)
        .map_or(0, |s| s.total_nanos)
}

const PHASES: [(&str, &str); 4] = [
    ("phase.encode", "crossem.phase.encode_ms"),
    ("phase.mine", "crossem.phase.mine_ms"),
    ("phase.loss", "crossem.phase.loss_ms"),
    ("phase.step", "crossem.phase.step_ms"),
];

pub fn run(tracer: &mut Tracer, report: &mut Report) {
    report.info(
        "bundle",
        format!(
            "cub {}x{} seed {BUNDLE_SEED}",
            SCALE.classes, SCALE.images_per_class
        ),
    );
    report.info(
        "pretrain",
        format!("{PRETRAIN_PAIRS} pairs x {} epochs", PRETRAIN.epochs),
    );
    report.info("windows", BOOTS);
    report.info("epochs_per_window", EPOCHS);
    report.info("train_stage", TRAIN_STAGE);

    let mut boot_secs = Vec::new();
    let mut prepare_secs = Vec::new();
    let mut pretrain_steps = 0;
    let mut windows = Vec::new();
    for boot in 0..BOOTS {
        let started = Instant::now();
        let boot_span = tracer.open("train.boot", None, boot);
        let (prepared, secs) = tracer.time("data.prepare", boot_span, boot, bundle);
        prepare_secs.push(secs);
        let mut rng = prepared.stage_rng(TRAIN_STAGE);
        let (trainer, _) = tracer.time("crossem.plus.new", boot_span, boot, || {
            let (clip, tokenizer, dataset) =
                (&prepared.clip, &prepared.tokenizer, &prepared.dataset);
            CrossEmPlus::new(
                clip,
                tokenizer,
                dataset,
                train_config(EPOCHS),
                plus_config(),
                &mut rng,
            )
        });
        tracer.close(boot_span);
        boot_secs.push(started.elapsed().as_secs_f64());
        pretrain_steps = prepared.pretrain_report.steps;
        windows.push(train_window(&trainer, &mut rng, tracer, boot, report));
    }
    let boots = Samples::new(boot_secs);
    report.metric("setup_s", boots.median(), "s", boots.count());
    summarize(&windows, tracer, report);
    if tracer.traced() {
        let prepare = Samples::new(prepare_secs);
        report.metric("data.prepare_s", prepare.median(), "s", prepare.count());
        report.metric("clip.pretrain_steps", pretrain_steps as f64, "count", 1);
    }
}

/// What one training window measured.
struct Window {
    clock: BatchClock,
    plus: PlusReport,
    mrr: f32,
    queries: usize,
    /// Wall time of the `train_with_options` and `evaluate` calls.
    secs: f64,
    /// Nanoseconds in each of [`PHASES`], from the program's spans.
    phases: [u64; 4],
    /// GEMM tier calls, from the program's counters.
    gemm: [u64; 3],
}

/// Train and evaluate one freshly set-up trainer, checking its outputs.
fn train_window(
    trainer: &CrossEmPlus<'_>,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    window: u64,
    report: &mut Report,
) -> Window {
    let mut clock = BatchClock::default();
    let gemm_before = gemm_counts();
    let phases_before = PHASES.map(|(span, _)| phase_nanos(span));
    let call = tracer.open("train.measured", None, window);
    let options = TrainOptions {
        threads: Some(1),
        injector: Some(&mut clock),
        ..TrainOptions::default()
    };
    let (result, train_secs) = tracer.time("crossem.plus.train_with_options", call, window, || {
        trainer.train_with_options(rng, options)
    });
    let (metrics, eval_secs) =
        tracer.time("crossem.plus.evaluate", call, window, || trainer.evaluate());
    tracer.close(call);
    let phases_after = PHASES.map(|(span, _)| phase_nanos(span));
    let gemm_after = gemm_counts();
    let plus = result.expect("training without checkpoints has no resume path to fail");
    for &(start, end) in &clock.intervals {
        tracer.record("crossem.train.batch", call, window, start, end);
    }

    let train = &plus.train;
    let skipped = train.rollbacks() as u64;
    report.check(!train.diverged, || {
        format!("window {window}: training diverged")
    });
    report.check(skipped == 0 && train.nan_batches() == 0, || {
        format!(
            "window {window}: {skipped} batches skipped, {} non-finite",
            train.nan_batches()
        )
    });
    report.check(train.epochs.len() == EPOCHS, || {
        format!(
            "window {window}: {} of {EPOCHS} epochs ran",
            train.epochs.len()
        )
    });
    let applied: usize = train.epochs.iter().map(|e| e.batches).sum();
    report.check(applied as u64 + skipped == clock.batches, || {
        format!(
            "window {window}: {applied} applied + {skipped} skipped != {} batches",
            clock.batches
        )
    });
    report.check(metrics.mrr.is_finite() && metrics.mrr > 0.0, || {
        format!("window {window}: mrr {}", metrics.mrr)
    });
    Window {
        clock,
        mrr: metrics.mrr,
        queries: metrics.queries,
        secs: train_secs + eval_secs,
        phases: std::array::from_fn(|i| phases_after[i] - phases_before[i]),
        gemm: std::array::from_fn(|i| gemm_after[i] - gemm_before[i]),
        plus,
    }
}

fn summarize(windows: &[Window], tracer: &Tracer, report: &mut Report) {
    let first = &windows[0];
    report.check(
        windows
            .iter()
            .all(|w| w.mrr.to_bits() == first.mrr.to_bits()),
        || {
            let mrrs: Vec<f32> = windows.iter().map(|w| w.mrr).collect();
            format!("identical training windows reached different mrr: {mrrs:?}")
        },
    );
    report.attempted = windows.iter().map(|w| w.clock.batches).sum();
    let lost: u64 = windows
        .iter()
        .map(|w| (w.plus.train.rollbacks() + w.plus.train.nan_batches()) as u64)
        .sum();

    let epoch_secs = Samples::new(windows.iter().flat_map(|w| w.clock.epoch_secs()).collect());
    let pairs_per_s = first.plus.pairs_per_epoch as f64 / epoch_secs.median();
    let batch_ms = Samples::new(windows.iter().flat_map(|w| w.clock.batch_ms()).collect());
    let (p50, p95) = crate::p50_p95(&batch_ms);
    report.metric("throughput_per_s", pairs_per_s, "1/s", epoch_secs.count());
    report.metric("pairs_per_s", pairs_per_s, "1/s", epoch_secs.count());
    report.metric("latency_ms_p50", p50, "ms", batch_ms.count());
    report.metric("latency_ms_p95", p95, "ms", batch_ms.count());
    report.metric("quality", first.mrr as f64, "fraction", first.queries);
    report.metric("mrr", first.mrr as f64, "fraction", first.queries);
    let measured: f64 = windows.iter().map(|w| w.secs).sum();
    report.metric("measured_s", measured, "s", windows.len());
    report.shares(lost);
    if !tracer.traced() {
        return;
    }
    let prep = Samples::new(windows.iter().map(|w| w.plus.prep_seconds).collect());
    report.metric("crossem.plus.prep_s", prep.median(), "s", prep.count());
    report.metric(
        "crossem.plus.pairs_per_epoch",
        first.plus.pairs_per_epoch as f64,
        "count",
        1,
    );
    report.metric(
        "crossem.plus.partitions",
        first.plus.partitions as f64,
        "count",
        1,
    );
    report.metric("crossem.train.batch_ms_p50", p50, "ms", batch_ms.count());
    report.metric("crossem.train.batch_ms_p95", p95, "ms", batch_ms.count());
    let batches = report.attempted as usize;
    for (i, (_, name)) in PHASES.iter().enumerate() {
        let nanos: u64 = windows.iter().map(|w| w.phases[i]).sum();
        report.metric(
            name,
            nanos as f64 / 1e6 / batches.max(1) as f64,
            "ms",
            batches,
        );
    }
    for (i, name) in GEMM_METRICS.iter().enumerate() {
        let calls: u64 = windows.iter().map(|w| w.gemm[i]).sum();
        report.metric(name, calls as f64, "count", 1);
    }
    let peak = windows
        .iter()
        .map(|w| w.plus.train.peak_bytes())
        .max()
        .unwrap_or(0)
        .max(cem_tensor::memory::peak_bytes());
    report.metric("tensor.peak_live_mb", peak as f64 / MB, "MB", 1);
}
