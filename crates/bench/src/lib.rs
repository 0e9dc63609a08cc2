//! # cem-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! CrossEM paper's evaluation section, plus Criterion microbenches over the
//! building blocks.
//!
//! Binaries (run with `cargo run --release -p cem-bench --bin <name>`):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1_stats` | Table I — dataset statistics |
//! | `table2_accuracy` | Table II — overall accuracy |
//! | `table3_efficiency` | Table III — training time & memory |
//! | `fig8_scalability` | Figure 8 — scalability on FBxK-IMG |
//! | `table4_ablation` | Table IV — ablation study |
//! | `table5_casestudy` | Table V — MKG integration case study |
//! | `run_all` | everything above in sequence |
//! | `fault_drill` | resilience drills: crash/resume equivalence, NaN-injection rollback, checkpoint corruption rejection, torn-rotation fallback (writes `BENCH_robustness.json`) |
//! | `chaos_drill` | serving chaos drills: latency spikes, worker panics, NaN features, corrupt cache rows, overload shedding, thread-count determinism (writes `BENCH_chaos.json`) |
//! | `load_drill` | open-loop overload drills: admission queue + brownout under Poisson/burst/diurnal/hot-key arrivals, mid-run generation hot-swap, thread-count determinism (writes `BENCH_serving.json`) |
//! | `scale_drill` | sub-quadratic serving over ≥100k images: probed fraction, recall@10 vs the dense oracle, thread-count determinism (writes `BENCH_scale.json`) |
//! | `scrub_drill` | self-healing storage: scrub- and serve-time-detected bit rot, disk rot, torn publishes, zero wrong responses (writes `BENCH_scrub.json`) |
//!
//! All harnesses honour `--quick` (smaller data/epochs) and print both
//! measured numbers and the paper's reference values so shape comparisons
//! are one glance away. Measured absolute values differ from the paper
//! (CPU + miniature models, see DESIGN.md); the *orderings* are what this
//! harness reproduces.

use cem_clip::pretrain::PretrainConfig;
use cem_data::{BundleConfig, DatasetBundle, DatasetKind, DatasetScale};
use crossem::config::{PlusConfig, SoftBackend};
use crossem::metrics::Metrics;
use crossem::plus::CrossEmPlus;
use crossem::{CrossEm, PromptKind, TrainConfig};

/// One method's row in an accuracy/efficiency table.
#[derive(Debug, Clone)]
pub struct MethodResult {
    pub name: String,
    pub metrics: Metrics,
    /// Average seconds per training epoch (fit time for one-shot methods).
    pub epoch_seconds: f64,
    /// Peak live tensor bytes during training (0 where not measured).
    pub peak_bytes: usize,
}

impl MethodResult {
    pub fn mem_mb(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Render a results table with a title and column headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::from("| ");
        for (cell, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("{cell:<w$} | "));
        }
        out
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&header_cells));
    println!(
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Harness knobs shared by all table binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    pub scale: DatasetScale,
    pub pretrain_pairs: usize,
    pub pretrain_epochs: usize,
    /// CrossEM / CrossEM⁺ tuning epochs (paper: 30; scaled down here).
    pub em_epochs: usize,
    /// Fusion baseline pre-training epochs.
    pub fusion_epochs: usize,
    pub seed: u64,
}

impl HarnessConfig {
    /// Standard harness scale (minutes per dataset on a laptop CPU).
    pub fn standard() -> Self {
        HarnessConfig {
            scale: DatasetScale { classes: 40, images_per_class: 4 },
            pretrain_pairs: 2500,
            pretrain_epochs: 12,
            em_epochs: 6,
            fusion_epochs: 2,
            seed: 17,
        }
    }

    /// Smoke scale: seconds per dataset, for CI and `--quick`.
    pub fn quick() -> Self {
        HarnessConfig {
            scale: DatasetScale { classes: 10, images_per_class: 3 },
            pretrain_pairs: 120,
            pretrain_epochs: 4,
            em_epochs: 2,
            fusion_epochs: 1,
            seed: 17,
        }
    }

    /// Parse from CLI args: `--quick` selects the smoke scale.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            HarnessConfig::quick()
        } else {
            HarnessConfig::standard()
        }
    }

    pub fn bundle_config(&self, kind: DatasetKind) -> BundleConfig {
        BundleConfig {
            kind,
            scale: self.scale,
            pretrain_pairs: self.pretrain_pairs,
            pretrain: PretrainConfig {
                epochs: self.pretrain_epochs,
                batch_size: 64,
                lr: 1e-3,
                clip_norm: 5.0,
            },
            seed: self.seed,
        }
    }
}

/// Prepare a bundle and snapshot its pre-trained weights so each method can
/// start from the identical checkpoint.
pub fn prepare(kind: DatasetKind, config: &HarnessConfig) -> PreparedBundle {
    eprintln!("[prepare] generating {} and pre-training CLIP …", kind.label());
    let bundle = DatasetBundle::prepare(config.bundle_config(kind));
    let snapshot = {
        use cem_nn::Module;
        bundle.clip.state_dict()
    };
    PreparedBundle { bundle, snapshot, kind }
}

/// A bundle plus the pristine pre-trained checkpoint.
pub struct PreparedBundle {
    pub bundle: DatasetBundle,
    snapshot: cem_tensor::io::StateDict,
    pub kind: DatasetKind,
}

impl PreparedBundle {
    /// Restore the pre-trained weights (undo any prompt tuning).
    pub fn reset_clip(&self) {
        use cem_nn::Module;
        self.bundle.clip.set_trainable(true);
        self.bundle.clip.load_state_dict(&self.snapshot);
    }

    /// Dataset-appropriate training config for a prompt kind (the paper
    /// uses GNN on CUB/SUN and GraphSAGE on the FB graphs).
    pub fn train_config(&self, prompt: PromptKind, epochs: usize) -> TrainConfig {
        let (soft_backend, max_subprompts, mining_prior_weight) = match self.kind {
            DatasetKind::Cub => (SoftBackend::Gnn, 16, 0.5),
            DatasetKind::Sun => (SoftBackend::Gnn, 8, 0.25),
            _ => (SoftBackend::GraphSage, 1, 1.0),
        };
        TrainConfig {
            prompt,
            hops: 1,
            epochs,
            soft_backend,
            max_subprompts,
            mining_prior_weight,
            batch_vertices: 8,
            batch_images: 32,
            ..TrainConfig::default()
        }
    }

    /// Regenerate a caption corpus from the bundle's world (for baselines
    /// that pre-train themselves).
    pub fn corpus(&mut self, n: usize) -> Vec<cem_data::CaptionPair> {
        let mut rng = self.bundle.stage_rng(101);
        cem_data::generate_corpus(&mut self.bundle.world, &self.bundle.dataset.pool, n, &mut rng)
    }
}

/// Run plain CrossEM with the given prompt.
pub fn run_crossem(prepared: &PreparedBundle, prompt: PromptKind, epochs: usize) -> MethodResult {
    prepared.reset_clip();
    let bundle = &prepared.bundle;
    let mut rng = bundle.stage_rng(11 + prompt as u64);
    let config = prepared.train_config(prompt, epochs);
    let matcher = CrossEm::new(&bundle.clip, &bundle.tokenizer, &bundle.dataset, config, &mut rng);
    let report = matcher.train(&mut rng);
    let metrics = matcher.evaluate();
    MethodResult {
        name: format!(
            "CrossEM w/ f_pro^{}",
            match prompt {
                PromptKind::Baseline => "0",
                PromptKind::Hard => "h",
                PromptKind::Soft => "s",
            }
        ),
        metrics,
        epoch_seconds: report.avg_epoch_seconds(),
        peak_bytes: report.peak_bytes(),
    }
}

/// Run CrossEM⁺ (soft prompt) with the given optimisation toggles.
pub fn run_crossem_plus(
    prepared: &PreparedBundle,
    plus: PlusConfig,
    epochs: usize,
    label: &str,
) -> MethodResult {
    prepared.reset_clip();
    let bundle = &prepared.bundle;
    let mut rng = bundle.stage_rng(31);
    let config = prepared.train_config(PromptKind::Soft, epochs);
    let trainer = CrossEmPlus::new(
        &bundle.clip,
        &bundle.tokenizer,
        &bundle.dataset,
        config,
        plus,
        &mut rng,
    );
    let report = trainer.train(&mut rng);
    let metrics = trainer.evaluate();
    MethodResult {
        name: label.to_string(),
        metrics,
        epoch_seconds: report.train.avg_epoch_seconds(),
        peak_bytes: report.train.peak_bytes(),
    }
}

/// The CrossEM⁺ default configuration used across harnesses.
pub fn default_plus() -> PlusConfig {
    PlusConfig {
        vertex_subsets: 4,
        image_clusters: 4,
        prune_quantile: 0.35,
        negative_top_k: 6,
        ..PlusConfig::default()
    }
}

/// Format a metrics row `[H@1, H@3, H@5, MRR]` as strings.
pub fn metric_cells(m: &Metrics) -> Vec<String> {
    vec![
        format!("{:.2}", m.hits_at_1 * 100.0),
        format!("{:.2}", m.hits_at_3 * 100.0),
        format!("{:.2}", m.hits_at_5 * 100.0),
        format!("{:.2}", m.mrr),
    ]
}
pub mod faults;
pub mod load;
pub mod report;
pub mod tables;
