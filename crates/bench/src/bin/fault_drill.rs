//! Resilience drills for the training loop (see DESIGN.md, "Failure
//! handling & resume"). Three drills, each with a hard pass/fail verdict:
//!
//! 1. **Crash/resume equivalence** — a run killed after epoch `k` and
//!    resumed from its durable checkpoint must reach *bit-identical*
//!    parameters (and therefore identical metrics) to an uninterrupted
//!    run.
//! 2. **NaN-injection rollback** — poisoning one batch's gradients with
//!    NaN must trip the divergence guard, roll back, and leave a run that
//!    still finishes with finite loss and sane metrics.
//! 3. **Corruption rejection** — every truncated or bit-flipped checkpoint
//!    must be rejected with a typed error; none may panic or load.
//! 4. **Torn rotation** — a crash *during* checkpoint rotation (after the
//!    incoming temp file is written but with the write torn, part-way
//!    through the rename sequence) must fall back to the previous intact
//!    generation on load.
//! 5. **Scripted disk faults** — short-write and torn-rename campaigns
//!    against `CheckpointManager::save` driven through the pure
//!    `(op, path, attempt)` fault plan ([`cem_bench::faults::DiskFaultPlan`]
//!    over [`crossem::io::Storage`]), verifying prev-generation recovery
//!    end to end plus transient-EIO retry accounting on the virtual clock.
//!
//! Timings (checkpoint write/read latency, resume overhead) are written to
//! `BENCH_robustness.json`. Honours `--quick`.

use std::sync::Arc;
use std::time::Instant;

use cem_bench::faults::{
    corrupt_byte, flip_bit, truncate_file, CrashAfterEpoch, DiskFaultPlan, NanPoisoner,
};
use cem_bench::{prepare, report, HarnessConfig, PreparedBundle};
use cem_data::DatasetKind;
use cem_obs::{Object, Value};
use cem_tensor::io::StateDict;
use cem_tensor::Tensor;
use crossem::guard::FaultInjector;
use crossem::io::{DiskFault, DiskOp, DiskRetryConfig, Storage};
use crossem::trainer::{TrainOptions, TrainReport};
use crossem::{CheckpointManager, CrossEm, PromptKind, ResumeSource};

/// Stage index for the drill RNG (distinct from the table harness stages).
const DRILL_STAGE: u64 = 77;

struct RunOutcome {
    report: TrainReport,
    params: Vec<Vec<f32>>,
    mrr: f64,
}

/// One checkpointed training run over a pristine world. `reset_clip`
/// restores the pre-trained weights, so every call starts from the
/// identical state a fresh process would rebuild from the seed.
fn run<'h>(
    prepared: &PreparedBundle,
    epochs: usize,
    manager: Option<&'h CheckpointManager>,
    injector: Option<&'h mut (dyn FaultInjector + 'h)>,
) -> RunOutcome {
    prepared.reset_clip();
    let bundle = &prepared.bundle;
    let mut rng = bundle.stage_rng(DRILL_STAGE);
    let config = prepared.train_config(PromptKind::Hard, epochs);
    let matcher = CrossEm::new(&bundle.clip, &bundle.tokenizer, &bundle.dataset, config, &mut rng);
    let report = matcher
        .train_with_options(&mut rng, TrainOptions { checkpoints: manager, injector, ..Default::default() })
        .expect("drill checkpoints must load");
    let params = matcher.trainable_params().iter().map(|p| p.to_vec()).collect();
    let mrr = matcher.evaluate().mrr as f64;
    RunOutcome { report, params, mrr }
}

fn max_abs_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
        .fold(0.0f32, f32::max)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cem_fault_drill_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn main() {
    let config = HarnessConfig::from_args();
    let epochs = config.em_epochs.max(3);
    let crash_epoch = (epochs - 1) / 2;
    let prepared = prepare(DatasetKind::Cub, &config);

    // ---------------------------------------------------------------
    // Drill 1: kill after epoch `crash_epoch`, resume, compare with an
    // uninterrupted run.
    // ---------------------------------------------------------------
    eprintln!("[drill 1] crash after epoch {crash_epoch}, resume, compare ({epochs} epochs) …");
    let dir_full = scratch_dir("full");
    let dir_crash = scratch_dir("crash");
    let manager_full = CheckpointManager::new(&dir_full).expect("scratch dir");
    let manager_crash = CheckpointManager::new(&dir_crash).expect("scratch dir");

    let full = run(&prepared, epochs, Some(&manager_full), None);
    assert_eq!(full.report.epochs.len(), epochs);

    let mut crasher = CrashAfterEpoch::at(crash_epoch);
    let partial = run(&prepared, epochs, Some(&manager_crash), Some(&mut crasher));
    assert!(crasher.crashed, "crash injector never fired");
    assert_eq!(partial.report.epochs.len(), crash_epoch + 1);

    // "New process": pristine weights, same checkpoint directory.
    let resume_load_start = Instant::now();
    let loaded = manager_crash.load().expect("crash checkpoint readable");
    let resume_load_ms = resume_load_start.elapsed().as_secs_f64() * 1e3;
    assert!(loaded.is_some(), "crash run left no checkpoint");

    let resumed = run(&prepared, epochs, Some(&manager_crash), None);
    assert_eq!(resumed.report.resumed_from, Some(crash_epoch + 1));
    assert_eq!(resumed.report.epochs.len(), epochs - crash_epoch - 1);

    let diff = max_abs_diff(&full.params, &resumed.params);
    let drill1_pass = diff == 0.0 && (full.mrr - resumed.mrr).abs() < 1e-12;
    println!(
        "[drill 1] max |Δparam| = {diff:.3e}, mrr full {:.4} vs resumed {:.4} → {}",
        full.mrr,
        resumed.mrr,
        if drill1_pass { "PASS" } else { "FAIL" }
    );

    // Checkpoint write/read latency on the real final training state.
    let (final_state, _) = manager_full.load().expect("full checkpoint readable").unwrap();
    let timing_dir = scratch_dir("timing");
    let timing_manager = CheckpointManager::new(&timing_dir).expect("scratch dir");
    let reps = 5;
    let write_start = Instant::now();
    for _ in 0..reps {
        timing_manager.save(&final_state).expect("timing save");
    }
    let checkpoint_write_ms = write_start.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let read_start = Instant::now();
    for _ in 0..reps {
        timing_manager.load().expect("timing load").unwrap();
    }
    let checkpoint_read_ms = read_start.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let checkpoint_bytes = std::fs::metadata(manager_full.latest_path())
        .map(|m| m.len())
        .unwrap_or(0);

    // ---------------------------------------------------------------
    // Drill 2: poison one batch's gradients; the guard must contain it.
    // ---------------------------------------------------------------
    eprintln!("[drill 2] NaN-poisoning one batch's gradients …");
    let mut poisoner = NanPoisoner::at(3);
    let poisoned = run(&prepared, epochs, None, Some(&mut poisoner));
    let final_loss = poisoned.report.final_loss().unwrap_or(f32::NAN);
    let drill2_pass = poisoner.poisoned == 1
        && poisoned.report.nan_batches() >= 1
        && poisoned.report.rollbacks() >= 1
        && !poisoned.report.diverged
        && final_loss.is_finite()
        && poisoned.params.iter().flatten().all(|x| x.is_finite())
        && poisoned.mrr > 0.0;
    println!(
        "[drill 2] nan_batches {}, rollbacks {}, diverged {}, final loss {:.4}, mrr {:.4} → {}",
        poisoned.report.nan_batches(),
        poisoned.report.rollbacks(),
        poisoned.report.diverged,
        final_loss,
        poisoned.mrr,
        if drill2_pass { "PASS" } else { "FAIL" }
    );

    // ---------------------------------------------------------------
    // Drill 3: every damaged checkpoint is rejected with a typed error.
    // ---------------------------------------------------------------
    eprintln!("[drill 3] corrupting checkpoint files …");
    let pristine = std::fs::read(manager_full.latest_path()).expect("checkpoint bytes");
    let victim = std::env::temp_dir()
        .join(format!("cem_fault_drill_victim_{}.cemt", std::process::id()));
    let mut cases = 0usize;
    let mut rejected = 0usize;

    // Torn writes: truncate at a spread of lengths.
    for keep in [0, 4, 12, pristine.len() / 4, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&victim, &pristine).unwrap();
        truncate_file(&victim, keep as u64).unwrap();
        cases += 1;
        if StateDict::load(&victim).is_err() {
            rejected += 1;
        }
    }
    // Bit rot: flip a byte at offsets spread through the whole file,
    // including the magic, the footer, and the payload in between.
    let stride = (pristine.len() / 32).max(1);
    for offset in (0..pristine.len()).step_by(stride) {
        std::fs::write(&victim, &pristine).unwrap();
        corrupt_byte(&victim, offset as u64, 0xFF).unwrap();
        cases += 1;
        if StateDict::load(&victim).is_err() {
            rejected += 1;
        }
    }
    let drill3_pass = rejected == cases;
    println!(
        "[drill 3] {rejected}/{cases} damaged checkpoints rejected → {}",
        if drill3_pass { "PASS" } else { "FAIL" }
    );

    // ---------------------------------------------------------------
    // Drill 4: a crash mid-rotation with a torn incoming file must fall
    // back to the previous generation.
    // ---------------------------------------------------------------
    eprintln!("[drill 4] tearing the incoming file mid-rotation …");
    let gen_dict = |gen: u64| {
        let mut dict = StateDict::new();
        dict.insert("gen", Tensor::from_vec(vec![gen as f32], &[1, 1]));
        dict.insert_meta("gen", gen);
        dict
    };
    let dir_torn = scratch_dir("torn");
    let mut torn_cases = 0usize;
    let mut torn_fallbacks = 0usize;
    // `promoted` = whether the crash hit before or after the damaged
    // incoming file was renamed over `latest`.
    for (mode, promoted) in
        [("truncate", true), ("flip", true), ("truncate", false), ("flip", false)]
    {
        std::fs::remove_dir_all(&dir_torn).ok();
        let manager = CheckpointManager::new(&dir_torn).expect("scratch dir");
        manager.save(&gen_dict(1)).expect("gen 1 save");
        manager.save(&gen_dict(2)).expect("gen 2 save");
        // Simulated crash during the generation-3 save: the incoming temp
        // file lands damaged (torn write / bit rot) and the process dies
        // part-way through save()'s rename sequence.
        let incoming = dir_torn.join("ckpt-incoming.cemt");
        gen_dict(3).save(&incoming).expect("gen 3 incoming");
        let len = std::fs::metadata(&incoming).expect("incoming metadata").len();
        match mode {
            "truncate" => truncate_file(&incoming, len / 3).expect("tear incoming"),
            _ => flip_bit(&incoming, len / 2, 2).expect("flip incoming"),
        }
        std::fs::rename(manager.latest_path(), manager.prev_path()).expect("demote latest");
        if promoted {
            std::fs::rename(&incoming, manager.latest_path()).expect("promote incoming");
        }
        torn_cases += 1;
        let fell_back = matches!(
            manager.load(),
            Ok(Some((dict, ResumeSource::Previous))) if dict.meta("gen") == Some(2)
        );
        if fell_back {
            torn_fallbacks += 1;
        } else {
            eprintln!("[drill 4] {mode} (promoted={promoted}): no fallback to generation 2");
        }
    }
    let drill4_pass = torn_fallbacks == torn_cases;
    println!(
        "[drill 4] {torn_fallbacks}/{torn_cases} torn rotations fell back to prev → {}",
        if drill4_pass { "PASS" } else { "FAIL" }
    );

    // ---------------------------------------------------------------
    // Drill 5: the same torn-rotation physics, but injected through the
    // deterministic storage seam instead of hand-editing files — the
    // fault plan tears save() itself at scripted (op, path, attempt)
    // points, so the campaign replays bit-identically anywhere.
    // ---------------------------------------------------------------
    eprintln!("[drill 5] disk-fault plan: short writes, torn renames, transient EIO …");
    let dir_plan = scratch_dir("plan");
    let mut plan_cases = 0usize;
    let mut plan_recovered = 0usize;
    // Fresh rotation state per case: generations 1 and 2 published clean,
    // then a faulty-storage manager over the *same directory* attempts
    // generation 3 (two instances because the plan is pure per-call — it
    // cannot tell successive saves apart, and should not have to).
    let seeded = || {
        std::fs::remove_dir_all(&dir_plan).ok();
        let clean = CheckpointManager::new(&dir_plan).expect("scratch dir");
        clean.save(&gen_dict(1)).expect("gen 1 save");
        clean.save(&gen_dict(2)).expect("gen 2 save");
        clean
    };
    let faulty = |plan: DiskFaultPlan| {
        CheckpointManager::with_storage(
            &dir_plan,
            Storage::with_injector(Arc::new(plan), DiskRetryConfig::default()),
        )
        .expect("scratch dir")
    };
    let ckpt_len = {
        let clean = seeded();
        std::fs::metadata(clean.latest_path()).expect("seeded latest").len() as usize
    };
    for keep in [0, ckpt_len / 4, ckpt_len / 2, ckpt_len - 1] {
        // Short write: the incoming payload tears in its temp sibling;
        // the rotation never starts, so `latest` still holds generation 2.
        let clean = seeded();
        let manager = faulty(DiskFaultPlan::new().fault_at(
            DiskOp::Write,
            "ckpt-incoming.cemt",
            0,
            DiskFault::ShortWrite { keep },
        ));
        assert!(manager.save(&gen_dict(3)).is_err(), "short write must fail the save");
        plan_cases += 1;
        if matches!(
            clean.load(),
            Ok(Some((dict, ResumeSource::Latest))) if dict.meta("gen") == Some(2)
        ) {
            plan_recovered += 1;
        } else {
            eprintln!("[drill 5] short write keep={keep}: latest generation 2 not intact");
        }

        // Torn rename: the incoming file is promoted over `latest` but
        // truncated mid-rename — generation 2 was already demoted, so
        // recovery must come from `prev`.
        let clean = seeded();
        let manager = faulty(DiskFaultPlan::new().fault_at(
            DiskOp::Rename,
            "ckpt-latest.cemt",
            0,
            DiskFault::TornRename { keep },
        ));
        assert!(manager.save(&gen_dict(3)).is_err(), "torn rename must fail the save");
        plan_cases += 1;
        if matches!(
            clean.load(),
            Ok(Some((dict, ResumeSource::Previous))) if dict.meta("gen") == Some(2)
        ) {
            plan_recovered += 1;
        } else {
            eprintln!("[drill 5] torn rename keep={keep}: no fallback to generation 2");
        }
    }

    // ENOSPC is a hard error, never retried, with no effect on the
    // rotation: `latest` still serves generation 2.
    let clean = seeded();
    let manager = faulty(DiskFaultPlan::new().fault_all_attempts(
        DiskOp::Create,
        "ckpt-incoming.cemt",
        DiskFault::Enospc,
    ));
    assert!(manager.save(&gen_dict(3)).is_err(), "ENOSPC must fail the save");
    let enospc_clean = manager.storage().retries() == 0
        && matches!(
            clean.load(),
            Ok(Some((dict, ResumeSource::Latest))) if dict.meta("gen") == Some(2)
        );

    // Transient EIO on the incoming fsync is absorbed by bounded retry on
    // the virtual clock: the save lands, and the backoff units are exactly
    // the deterministic schedule (8 + 16).
    let _ = seeded();
    let manager = faulty(
        DiskFaultPlan::new()
            .fault_at(DiskOp::Fsync, "ckpt-incoming.cemt", 0, DiskFault::TransientEio)
            .fault_at(DiskOp::Fsync, "ckpt-incoming.cemt", 1, DiskFault::TransientEio),
    );
    manager.save(&gen_dict(3)).expect("transient faults must be absorbed");
    let transient_retries = manager.storage().retries();
    let transient_backoff = manager.storage().backoff_units();
    let transient_absorbed = transient_retries == 2
        && transient_backoff == 24
        && matches!(
            manager.load(),
            Ok(Some((dict, ResumeSource::Latest))) if dict.meta("gen") == Some(3)
        );

    let drill5_pass =
        plan_recovered == plan_cases && enospc_clean && transient_absorbed;
    println!(
        "[drill 5] {plan_recovered}/{plan_cases} scripted tears recovered, ENOSPC clean {enospc_clean}, \
         transient retries {transient_retries} ({transient_backoff} backoff units) → {}",
        if drill5_pass { "PASS" } else { "FAIL" }
    );

    // ---------------------------------------------------------------
    // Summary + BENCH_robustness.json
    // ---------------------------------------------------------------
    let all_pass = drill1_pass && drill2_pass && drill3_pass && drill4_pass && drill5_pass;
    println!(
        "\ncheckpoint: {checkpoint_bytes} bytes, write {checkpoint_write_ms:.2} ms, \
         read {checkpoint_read_ms:.2} ms, resume load {resume_load_ms:.2} ms"
    );
    println!("fault drill: {}", if all_pass { "ALL PASS" } else { "FAILURES" });

    let summary = Object::new()
        .field("harness", "fault_drill")
        .field("scale", if std::env::args().any(|a| a == "--quick") { "quick" } else { "standard" })
        .field("epochs", epochs)
        .field("crash_epoch", crash_epoch)
        .field("drill1_crash_resume_pass", drill1_pass)
        .field("drill1_max_param_diff", diff)
        .field("drill1_mrr_full", full.mrr)
        .field("drill1_mrr_resumed", resumed.mrr)
        .field("drill2_nan_rollback_pass", drill2_pass)
        .field("drill2_nan_batches", poisoned.report.nan_batches())
        .field("drill2_rollbacks", poisoned.report.rollbacks())
        .field("drill3_corruption_pass", drill3_pass)
        .field("drill3_cases", cases)
        .field("drill3_rejected", rejected)
        .field("drill4_torn_rotation_pass", drill4_pass)
        .field("drill4_cases", torn_cases)
        .field("drill4_fallbacks", torn_fallbacks)
        .field("drill5_disk_plan_pass", drill5_pass)
        .field("drill5_cases", plan_cases)
        .field("drill5_recovered", plan_recovered)
        .field("drill5_transient_retries", transient_retries)
        .field("drill5_backoff_units", transient_backoff)
        .field("checkpoint_bytes", checkpoint_bytes)
        .field("checkpoint_write_ms", Value::fixed(checkpoint_write_ms, 3))
        .field("checkpoint_read_ms", Value::fixed(checkpoint_read_ms, 3))
        .field("resume_load_ms", Value::fixed(resume_load_ms, 3));
    report::publish("BENCH_robustness.json", summary);

    for dir in [dir_full, dir_crash, timing_dir, dir_torn, dir_plan] {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_file(&victim).ok();

    if !all_pass {
        std::process::exit(1);
    }
}
