//! End-to-end determinism of the parallel kernel layer: training with
//! `TrainOptions::threads = 4` must reproduce the single-threaded run
//! bit-for-bit — parameters, losses, and metrics — for both trainers, and
//! the guarantee must compose with crash/resume (a parallel run killed
//! mid-training and resumed must still match a serial uninterrupted run).
//!
//! `TrainOptions::threads` swaps a process-global override for the
//! duration of the run, so these tests serialise on a mutex instead of
//! relying on the harness's per-test threads.

use std::sync::Mutex;

use cem_bench::faults::CrashAfterEpoch;
use cem_data::{BundleConfig, DatasetBundle, DatasetKind};
use crossem::config::PlusConfig;
use crossem::plus::CrossEmPlus;
use crossem::trainer::TrainOptions;
use crossem::{CheckpointManager, CrossEm, PromptKind, TrainConfig};

/// Serialises every test in this file: the thread override they exercise is
/// process-global state.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    THREADS_LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn smoke_bundle() -> DatasetBundle {
    DatasetBundle::prepare(BundleConfig::smoke(DatasetKind::Cub))
}

fn train_config() -> TrainConfig {
    TrainConfig {
        prompt: PromptKind::Hard,
        hops: 1,
        epochs: 3,
        batch_vertices: 4,
        batch_images: 8,
        ..TrainConfig::default()
    }
}

struct Run {
    params: Vec<Vec<f32>>,
    losses: Vec<f32>,
    mrr: f32,
}

/// One full CrossEM run over a freshly rebuilt world at a fixed thread
/// budget.
fn crossem_run(threads: usize) -> Run {
    let bundle = smoke_bundle();
    let mut rng = bundle.stage_rng(1);
    let matcher =
        CrossEm::new(&bundle.clip, &bundle.tokenizer, &bundle.dataset, train_config(), &mut rng);
    let report = matcher
        .train_with_options(&mut rng, TrainOptions { threads: Some(threads), ..Default::default() })
        .expect("no checkpoints, no resume path to fail");
    Run {
        params: matcher.trainable_params().iter().map(|p| p.to_vec()).collect(),
        losses: report.epochs.iter().map(|e| e.mean_loss).collect(),
        mrr: matcher.evaluate().mrr,
    }
}

/// One full CrossEM⁺ run (PCP + negative sampling) at a fixed thread
/// budget.
fn crossem_plus_run(threads: usize) -> Run {
    let bundle = smoke_bundle();
    let mut rng = bundle.stage_rng(2);
    let config = TrainConfig { prompt: PromptKind::Soft, ..train_config() };
    let plus = PlusConfig { negative_top_k: 3, ..PlusConfig::default() };
    let trainer = CrossEmPlus::new(
        &bundle.clip,
        &bundle.tokenizer,
        &bundle.dataset,
        config,
        plus,
        &mut rng,
    );
    let report = trainer
        .train_with_options(&mut rng, TrainOptions { threads: Some(threads), ..Default::default() })
        .expect("no checkpoints, no resume path to fail");
    Run {
        params: trainer.base().trainable_params().iter().map(|p| p.to_vec()).collect(),
        losses: report.train.epochs.iter().map(|e| e.mean_loss).collect(),
        mrr: trainer.evaluate().mrr,
    }
}

/// A serial run's results as bits: CRC-32 of the trained parameters' f32
/// bits (parameters in `trainable_params` order), then each epoch's mean
/// loss and the MRR.
#[derive(Debug, PartialEq)]
struct Golden {
    params_crc: u32,
    loss_bits: Vec<u32>,
    mrr_bits: u32,
}

impl Golden {
    fn of(run: &Run) -> Golden {
        let mut hasher = cem_tensor::crc::Hasher::new();
        for p in &run.params {
            hasher.update_f32s(p);
        }
        Golden {
            params_crc: hasher.finalize(),
            loss_bits: run.losses.iter().map(|l| l.to_bits()).collect(),
            mrr_bits: run.mrr.to_bits(),
        }
    }
}

/// Any change to training arithmetic (a reordered sum, a fused op, a
/// different gradient schedule) moves these; the pinned values must only
/// change with a deliberate, explained re-baseline.
fn assert_golden(serial: &Run, params_crc: u32, loss_bits: &[u32], mrr_bits: u32, what: &str) {
    let want = Golden { params_crc, loss_bits: loss_bits.to_vec(), mrr_bits };
    assert_eq!(Golden::of(serial), want, "{what}: serial run moved off its pinned golden");
}

fn assert_bitwise_equal(serial: &Run, parallel: &Run, what: &str) {
    assert_eq!(serial.losses, parallel.losses, "{what}: per-epoch losses diverged");
    assert_eq!(serial.params, parallel.params, "{what}: trained parameters diverged");
    assert!(
        serial.mrr.to_bits() == parallel.mrr.to_bits(),
        "{what}: MRR diverged ({} vs {})",
        serial.mrr,
        parallel.mrr
    );
}

#[test]
fn crossem_four_threads_reproduces_serial_bitwise() {
    let _guard = lock();
    let serial = crossem_run(1);
    assert_golden(
        &serial,
        0x92883662,
        &[0x3EBC43A3, 0x3E722147, 0x3DC23C0D],
        0x3EE18618,
        "CrossEM t1",
    );
    let parallel = crossem_run(4);
    assert_bitwise_equal(&serial, &parallel, "CrossEM t1 vs t4");
}

#[test]
fn crossem_plus_four_threads_reproduces_serial_bitwise() {
    let _guard = lock();
    let serial = crossem_plus_run(1);
    assert_golden(
        &serial,
        0x33130483,
        &[0x3E3B24AD, 0x3D7B3FE1, 0x3D2A75D5],
        0x3F084BDA,
        "CrossEM⁺ t1",
    );
    let parallel = crossem_plus_run(4);
    assert_bitwise_equal(&serial, &parallel, "CrossEM⁺ t1 vs t4");
}

#[test]
fn parallel_crash_and_resume_matches_serial_uninterrupted() {
    let _guard = lock();
    let dir = std::env::temp_dir()
        .join(format!("cem_par_determinism_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let manager = CheckpointManager::new(&dir).expect("scratch dir");

    // Serial, uninterrupted, no checkpoints involved in the reference: the
    // reference uses its own manager so both runs take the seeded-RNG path.
    let dir_ref = std::env::temp_dir()
        .join(format!("cem_par_determinism_ref_{}", std::process::id()));
    std::fs::remove_dir_all(&dir_ref).ok();
    let manager_ref = CheckpointManager::new(&dir_ref).expect("scratch dir");
    let reference = {
        let bundle = smoke_bundle();
        let mut rng = bundle.stage_rng(1);
        let matcher = CrossEm::new(
            &bundle.clip, &bundle.tokenizer, &bundle.dataset, train_config(), &mut rng,
        );
        matcher
            .train_with_options(
                &mut rng,
                TrainOptions {
                    checkpoints: Some(&manager_ref),
                    threads: Some(1),
                    ..Default::default()
                },
            )
            .expect("reference run");
        matcher.trainable_params().iter().map(|p| p.to_vec()).collect::<Vec<_>>()
    };

    // Parallel run killed after epoch 0 …
    {
        let bundle = smoke_bundle();
        let mut rng = bundle.stage_rng(1);
        let matcher = CrossEm::new(
            &bundle.clip, &bundle.tokenizer, &bundle.dataset, train_config(), &mut rng,
        );
        let mut crasher = CrashAfterEpoch::at(0);
        let report = matcher
            .train_with_options(
                &mut rng,
                TrainOptions {
                    checkpoints: Some(&manager),
                    injector: Some(&mut crasher),
                    threads: Some(4),
                    ..Default::default()
                },
            )
            .expect("crash run");
        assert!(crasher.crashed, "crash injector never fired");
        assert_eq!(report.epochs.len(), 1);
    }

    // … and resumed in a "new process", still at 4 threads.
    let resumed = {
        let bundle = smoke_bundle();
        let mut rng = bundle.stage_rng(1);
        let matcher = CrossEm::new(
            &bundle.clip, &bundle.tokenizer, &bundle.dataset, train_config(), &mut rng,
        );
        let report = matcher
            .train_with_options(
                &mut rng,
                TrainOptions {
                    checkpoints: Some(&manager),
                    threads: Some(4),
                    ..Default::default()
                },
            )
            .expect("resume run");
        assert_eq!(report.resumed_from, Some(1));
        matcher.trainable_params().iter().map(|p| p.to_vec()).collect::<Vec<_>>()
    };

    assert_eq!(
        reference, resumed,
        "parallel crash+resume must match the serial uninterrupted run bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_ref).ok();
}

#[test]
fn shared_feature_cache_does_not_change_results() {
    let _guard = lock();
    // Two CrossEM⁺ trainers over the same bundle sharing one cache: the
    // second must hit the cache and still train identically to a trainer
    // with its own private cache.
    let bundle = smoke_bundle();
    let config = TrainConfig { prompt: PromptKind::Soft, ..train_config() };
    let plus = PlusConfig { negative_top_k: 3, ..PlusConfig::default() };

    // Snapshot the pristine pre-trained weights so every run starts from
    // the identical state.
    let snapshot = {
        use cem_nn::Module;
        bundle.clip.state_dict()
    };

    let private = {
        let mut rng = bundle.stage_rng(2);
        let trainer = CrossEmPlus::new(
            &bundle.clip, &bundle.tokenizer, &bundle.dataset, config, plus, &mut rng,
        );
        trainer.train(&mut rng);
        trainer.base().trainable_params().iter().map(|p| p.to_vec()).collect::<Vec<_>>()
    };

    let shared = std::rc::Rc::new(crossem::FeatureCache::new());
    let first = {
        use cem_nn::Module;
        bundle.clip.load_state_dict(&snapshot);
        bundle.clip.set_trainable(true);
        let mut rng = bundle.stage_rng(2);
        let trainer = CrossEmPlus::with_feature_cache(
            &bundle.clip,
            &bundle.tokenizer,
            &bundle.dataset,
            config,
            plus,
            std::rc::Rc::clone(&shared),
            &mut rng,
        );
        trainer.train(&mut rng);
        trainer.base().trainable_params().iter().map(|p| p.to_vec()).collect::<Vec<_>>()
    };
    assert_eq!(private, first, "shared cache changed the first trainer's results");

    let second = {
        use cem_nn::Module;
        bundle.clip.load_state_dict(&snapshot);
        bundle.clip.set_trainable(true);
        let mut rng = bundle.stage_rng(2);
        let trainer = CrossEmPlus::with_feature_cache(
            &bundle.clip,
            &bundle.tokenizer,
            &bundle.dataset,
            config,
            plus,
            std::rc::Rc::clone(&shared),
            &mut rng,
        );
        trainer.train(&mut rng);
        assert!(
            trainer.feature_cache().hits() > 0,
            "second trainer never hit the shared cache"
        );
        trainer.base().trainable_params().iter().map(|p| p.to_vec()).collect::<Vec<_>>()
    };
    assert_eq!(private, second, "cache hit changed the second trainer's results");
}
