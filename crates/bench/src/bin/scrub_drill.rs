//! Self-healing storage drills for the serving path (DESIGN.md §14).
//!
//! The drill builds a synthetic sharded world whose full tier is the shard
//! panels' own dense scores (so `nprobe = nclusters` serving is bit-
//! identical to the dense oracle), publishes it as a durable generation,
//! then injects storage damage and requires the service to detect,
//! quarantine, repair, and re-admit — while every response stays
//! bit-identical to an uncorrupted dense control. Four campaigns plus a
//! determinism check:
//!
//! 1. **Scrub-detected bit rot** — with a full-cycle scrub budget, in-RAM
//!    shard rot must be found by the boundary scrubber (not the serve-time
//!    wave CRC check), quarantined, healed from the durable generation,
//!    and re-admitted within one wave boundary.
//! 2. **Serve-time-detected bit rot** — with a half-cycle budget the wave
//!    CRC check wins the race; the damaged cluster is quarantined
//!    per-cluster (degraded slots fall back to dense), and the boundary
//!    repair heals it — with zero wrong responses while degraded.
//! 3. **On-disk bit rot** — a flipped bit in the `latest` generation file
//!    must be caught by the scrubber's strict disk probe and healed by
//!    republishing the in-memory generation through the atomic
//!    latest/prev rotation until both files verify clean.
//! 4. **Torn publish** — short writes and torn renames scripted through
//!    the disk-fault plan must always leave a loadable prior generation.
//!
//! The determinism check replays campaign 2 end to end (corrupt → degrade
//! → heal) at 1 and 4 worker threads and requires bit-identical responses,
//! stats, and trace stats. Results go to `BENCH_scrub.json`; non-zero exit
//! on any gate failure. Honours `--quick` / `--smoke`.

use std::sync::Arc;

use cem_bench::faults::{flip_bit, DiskFaultPlan};
use cem_bench::report;
use cem_obs::{Object, Value};
use cem_serve::{
    splitmix64, Generation, GenerationStore, MatchRequest, MatchService, NoFaults, ServeConfig,
    ServeIndex, ShardedIndex, StoreFile, Tier,
};
use cem_tensor::par::ThreadsGuard;
use crossem::io::{DiskFault, DiskOp, DiskRetryConfig, Storage};

/// Deterministic unit-normalised vectors (no external RNG in drills).
fn vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        let row: Vec<f32> = (0..dim)
            .map(|d| {
                (splitmix64(seed, (i * dim + d) as u64) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        out.extend(row.into_iter().map(|v| v / norm));
    }
    out
}

struct World {
    entities: usize,
    images: usize,
    dim: usize,
    nclusters: usize,
}

impl World {
    fn shards(&self) -> ShardedIndex {
        let queries = vectors(self.entities, self.dim, 5);
        let embeddings = vectors(self.images, self.dim, 6);
        ShardedIndex::build(
            queries,
            self.entities,
            &embeddings,
            self.images,
            self.dim,
            self.nclusters,
            8,
            7,
        )
    }

    /// Four-tier index whose full tier is the shard panels' dense scores.
    fn index(&self) -> ServeIndex {
        let full = self.shards().dense_scores(1);
        let alt = |offset: f32| {
            (0..self.entities * self.images)
                .map(|i| i as f32 * 0.01 + offset)
                .collect::<Vec<f32>>()
        };
        ServeIndex::new(self.entities, self.images, [full, alt(0.1), alt(0.2), alt(0.3)])
    }

    /// Scrub sections in one full cycle over this world with a store
    /// attached (dense rows + shard sections + latest/prev disk probes).
    fn sections(&self) -> usize {
        Tier::COUNT * self.entities + self.nclusters + 2
    }

    fn config(&self, scrub_budget: usize) -> ServeConfig {
        ServeConfig {
            top_k: 10,
            wave: 4,
            nclusters: self.nclusters,
            nprobe: self.nclusters,
            scrub_sections_per_wave: scrub_budget,
            ..ServeConfig::default()
        }
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cem_scrub_drill_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One bit-rot heal run: corrupt `victim` in the serving copy, run
/// one-wave bursts until the cluster is repaired and re-admitted, and
/// compare every response against an uncorrupted dense control serving the
/// same generation id.
struct HealRun {
    waves_to_heal: Option<usize>,
    wrong_responses: usize,
    scrub_corruptions: u64,
    serve_time_quarantine: bool,
    readmitted: bool,
}

fn heal_run(world: &World, victim: usize, scrub_budget: usize, dir_tag: &str) -> HealRun {
    let dir = scratch_dir(dir_tag);
    let index = world.index();
    let clone_index = || {
        ServeIndex::new(
            world.entities,
            world.images,
            std::array::from_fn(|t| index.tier_rows(Tier::ALL[t]).to_vec()),
        )
    };
    let generation = Generation::with_shards(1, clone_index(), world.shards())
        .expect("shards match the catalogue");
    let store = GenerationStore::new(&dir).expect("scratch dir");
    store.publish(&generation).expect("pristine generation publish");

    let config = world.config(scrub_budget);
    let mut service = MatchService::with_generation(config, generation);
    service.attach_store(GenerationStore::new(&dir).expect("scratch dir"));
    // Dense-only control on the same generation id: full Response equality
    // (which includes the generation) must hold degraded and healed.
    let mut control = MatchService::with_generation(config, Generation::new(1, clone_index()));

    service.corrupt_owned_shard_for_tests(victim);
    let requests = MatchRequest::stream(config.wave, world.entities, 7 + victim as u64);
    let mut run = HealRun {
        waves_to_heal: None,
        wrong_responses: 0,
        scrub_corruptions: 0,
        serve_time_quarantine: false,
        readmitted: false,
    };
    for wave in 1..=6 {
        let got = service.run(&requests, &NoFaults);
        let want = control.run(&requests, &NoFaults);
        if got != want {
            run.wrong_responses += got.iter().zip(&want).filter(|(g, w)| g != w).count();
        }
        if service.quarantined().is_empty() && service.stats().shards_repaired > 0 {
            run.waves_to_heal = Some(wave);
            break;
        }
    }
    run.scrub_corruptions = service.scrub_stats().corruptions;
    // Every quarantine the scrubber did not report came from the serve-time
    // wave CRC check.
    run.serve_time_quarantine = service.stats().shards_quarantined > run.scrub_corruptions;
    // Re-admitted: the next burst probes again instead of falling back.
    let before = service.stats().ann_requests;
    let got = service.run(&requests, &NoFaults);
    let want = control.run(&requests, &NoFaults);
    if got != want {
        run.wrong_responses += got.iter().zip(&want).filter(|(g, w)| g != w).count();
    }
    run.readmitted = service.stats().ann_requests > before;
    std::fs::remove_dir_all(&dir).ok();
    run
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let world = if quick {
        World { entities: 6, images: 60, dim: 8, nclusters: 4 }
    } else {
        World { entities: 8, images: 120, dim: 16, nclusters: 6 }
    };
    let sections = world.sections();
    let probe_shards = world.shards();
    let victims: Vec<usize> =
        (0..world.nclusters).filter(|&c| !probe_shards.shard(c).is_empty()).collect();
    assert!(!victims.is_empty(), "the fixture must populate at least one cluster");

    // ---------------------------------------------------------------
    // Campaign 1: scrub-detected bit rot. A full-cycle budget walks every
    // section at each boundary, so the scrubber finds the rot before the
    // wave CRC check ever probes it — and the boundary repair heals it in
    // the same maintenance pass.
    // ---------------------------------------------------------------
    eprintln!("[campaign 1] scrub-detected bit rot over {} clusters …", victims.len());
    let mut c1_heal_waves = 0usize;
    let mut c1_wrong = 0usize;
    let mut c1_pass = true;
    for &victim in &victims {
        let run = heal_run(&world, victim, sections, &format!("c1_{victim}"));
        let Some(waves) = run.waves_to_heal else {
            eprintln!("[campaign 1] cluster {victim}: never healed");
            c1_pass = false;
            continue;
        };
        c1_heal_waves += waves;
        c1_wrong += run.wrong_responses;
        // The scrubber, not the serve-time check, must be the detector,
        // and detection + heal must land within one full scrub cycle.
        if run.scrub_corruptions < 1 || run.serve_time_quarantine || waves > 1 || !run.readmitted
        {
            eprintln!(
                "[campaign 1] cluster {victim}: scrub_corruptions {}, serve_time {}, \
                 waves {waves}, readmitted {}",
                run.scrub_corruptions, run.serve_time_quarantine, run.readmitted
            );
            c1_pass = false;
        }
    }
    let c1_mean_waves = c1_heal_waves as f64 / victims.len() as f64;
    c1_pass &= c1_wrong == 0;
    println!(
        "[campaign 1] mean waves-to-heal {c1_mean_waves:.2}, wrong responses {c1_wrong} → {}",
        verdict(c1_pass)
    );

    // ---------------------------------------------------------------
    // Campaign 2: serve-time-detected bit rot. A half-cycle budget lets
    // the wave CRC check win the race: the first burst degrades the
    // probing slots to dense (per-cluster fallback), the next boundary's
    // repair heals and re-admits.
    // ---------------------------------------------------------------
    eprintln!("[campaign 2] serve-time-detected bit rot over {} clusters …", victims.len());
    let half_budget = sections.div_ceil(2);
    let mut c2_heal_waves = 0usize;
    let mut c2_wrong = 0usize;
    let mut c2_pass = true;
    for &victim in &victims {
        let run = heal_run(&world, victim, half_budget, &format!("c2_{victim}"));
        let Some(waves) = run.waves_to_heal else {
            eprintln!("[campaign 2] cluster {victim}: never healed");
            c2_pass = false;
            continue;
        };
        c2_heal_waves += waves;
        c2_wrong += run.wrong_responses;
        // One half-cycle boundary to detect at serve time, one to repair:
        // heal within one full scrub cycle (two boundaries).
        if waves > 2 || !run.readmitted {
            eprintln!("[campaign 2] cluster {victim}: waves {waves}, readmitted {}", run.readmitted);
            c2_pass = false;
        }
    }
    let c2_mean_waves = c2_heal_waves as f64 / victims.len() as f64;
    c2_pass &= c2_wrong == 0;
    println!(
        "[campaign 2] mean waves-to-heal {c2_mean_waves:.2}, wrong responses {c2_wrong} → {}",
        verdict(c2_pass)
    );

    // ---------------------------------------------------------------
    // Campaign 3: on-disk bit rot. Flip one bit in the durable `latest`
    // file; the scrubber's strict disk probe must catch it and republish
    // the in-memory generation until latest *and* prev verify clean.
    // ---------------------------------------------------------------
    eprintln!("[campaign 3] on-disk bit rot in the latest generation file …");
    let dir = scratch_dir("disk_rot");
    let index = world.index();
    let clone_index = || {
        ServeIndex::new(
            world.entities,
            world.images,
            std::array::from_fn(|t| index.tier_rows(Tier::ALL[t]).to_vec()),
        )
    };
    let generation = Generation::with_shards(1, clone_index(), world.shards()).unwrap();
    let store = GenerationStore::new(&dir).expect("scratch dir");
    store.publish(&generation).expect("pristine generation publish");
    let file_len = std::fs::metadata(store.latest_path()).expect("latest metadata").len();
    flip_bit(store.latest_path(), file_len / 2, 3).expect("flip a bit in latest");
    assert!(store.verify_file(StoreFile::Latest).is_err(), "the rot must be real");

    let config = world.config(sections);
    let mut service = MatchService::with_generation(config, generation);
    service.attach_store(GenerationStore::new(&dir).expect("scratch dir"));
    let mut control = MatchService::with_generation(config, Generation::new(1, clone_index()));
    let requests = MatchRequest::stream(config.wave, world.entities, 11);
    // Each republish over a damaged file counts into `serve.scrub.republish`.
    let obs = cem_obs::force_enable();
    let republishes = || cem_obs::global().counter("serve.scrub.republish").get();
    let republishes_before = republishes();
    let mut c3_wrong = 0usize;
    let mut c3_waves_to_clean = None;
    for wave in 1..=5usize {
        let got = service.run(&requests, &NoFaults);
        let want = control.run(&requests, &NoFaults);
        if got != want {
            c3_wrong += got.iter().zip(&want).filter(|(g, w)| g != w).count();
        }
        let clean = store.verify_file(StoreFile::Latest).is_ok()
            && store.verify_file(StoreFile::Prev).is_ok();
        if clean {
            c3_waves_to_clean = Some(wave);
            break;
        }
    }
    let c3_republished = republishes() > republishes_before;
    drop(obs);
    // Republish rotates the damaged latest into prev, so convergence takes
    // at most two boundaries: one full scrub cycle per rotation step.
    let c3_pass = matches!(c3_waves_to_clean, Some(w) if w <= 2) && c3_republished && c3_wrong == 0;
    println!(
        "[campaign 3] waves-to-clean {:?}, republished {c3_republished}, wrong responses \
         {c3_wrong} → {}",
        c3_waves_to_clean,
        verdict(c3_pass)
    );
    std::fs::remove_dir_all(&dir).ok();

    // ---------------------------------------------------------------
    // Campaign 4: torn publish through the scripted disk-fault plan. A
    // short write dies in the temp sibling (latest intact); a torn rename
    // damages the promoted file (prev intact). Either way the store must
    // load a CRC-clean generation 2.
    // ---------------------------------------------------------------
    eprintln!("[campaign 4] torn publishes through the disk-fault plan …");
    let dir = scratch_dir("torn_publish");
    let mut c4_cases = 0usize;
    let mut c4_recovered = 0usize;
    let seeded = || {
        std::fs::remove_dir_all(&dir).ok();
        let store = GenerationStore::new(&dir).expect("scratch dir");
        store.publish(&Generation::new(1, clone_index())).expect("gen 1 publish");
        store.publish(&Generation::new(2, clone_index())).expect("gen 2 publish");
        store
    };
    let gen_len = {
        let store = seeded();
        std::fs::metadata(store.latest_path()).expect("latest metadata").len() as usize
    };
    for keep in [0, gen_len / 3, gen_len - 1] {
        for (fault, op, file) in [
            (DiskFault::ShortWrite { keep }, DiskOp::Write, "ckpt-incoming.cemt"),
            (DiskFault::TornRename { keep }, DiskOp::Rename, "ckpt-latest.cemt"),
        ] {
            let clean = seeded();
            let faulty = GenerationStore::with_storage(
                &dir,
                Storage::with_injector(
                    Arc::new(DiskFaultPlan::new().fault_at(op, file, 0, fault)),
                    DiskRetryConfig::default(),
                ),
            )
            .expect("scratch dir");
            assert!(
                faulty.publish(&Generation::new(3, clone_index())).is_err(),
                "the scripted tear must fail the publish"
            );
            c4_cases += 1;
            match clean.load() {
                Ok(recovered) if recovered.id == 2 => c4_recovered += 1,
                other => eprintln!(
                    "[campaign 4] {:?} keep={keep}: recovered {:?} instead of generation 2",
                    fault,
                    other.map(|g| g.id)
                ),
            }
        }
    }
    let c4_pass = c4_recovered == c4_cases;
    println!("[campaign 4] {c4_recovered}/{c4_cases} torn publishes recovered → {}", verdict(c4_pass));
    std::fs::remove_dir_all(&dir).ok();

    // ---------------------------------------------------------------
    // Determinism: replay campaign 2's full corrupt → degrade → heal arc
    // at 1 and 4 worker threads; responses, stats, and trace stats must be
    // bit-identical.
    // ---------------------------------------------------------------
    eprintln!("[determinism] heal replay at 1 vs 4 threads …");
    let victim = victims[0];
    let replay = |threads: usize| {
        let _guard = ThreadsGuard::new(threads);
        let dir = scratch_dir(&format!("replay_t{threads}"));
        let generation = Generation::with_shards(1, clone_index(), world.shards()).unwrap();
        let store = GenerationStore::new(&dir).expect("scratch dir");
        store.publish(&generation).expect("pristine generation publish");
        let config = world.config(half_budget);
        let mut service = MatchService::with_generation(config, generation);
        service.attach_store(GenerationStore::new(&dir).expect("scratch dir"));
        service.corrupt_owned_shard_for_tests(victim);
        let requests = MatchRequest::stream(config.wave, world.entities, 13);
        let mut responses = Vec::new();
        for _ in 0..4 {
            responses.extend(service.run(&requests, &NoFaults));
        }
        let out = (responses, service.stats().clone(), service.trace_stats());
        std::fs::remove_dir_all(&dir).ok();
        out
    };
    let (r1, s1, x1) = replay(1);
    let (r4, s4, x4) = replay(4);
    let determinism_pass = r1 == r4 && s1 == s4 && x1 == x4;
    println!("[determinism] 1 vs 4 threads → {}", verdict(determinism_pass));

    // ---------------------------------------------------------------
    // Summary + BENCH_scrub.json
    // ---------------------------------------------------------------
    let all_pass = c1_pass && c2_pass && c3_pass && c4_pass && determinism_pass;
    println!("scrub drill: {}", if all_pass { "ALL PASS" } else { "FAILURES" });

    let summary = Object::new()
        .field("harness", "scrub_drill")
        .field("scale", if quick { "quick" } else { "standard" })
        .field("entities", world.entities)
        .field("images", world.images)
        .field("nclusters", world.nclusters)
        .field("scrub_sections_per_cycle", sections)
        .field("bitrot_victims", victims.len())
        .field("scrub_detect_pass", c1_pass)
        .field("scrub_detect_mean_waves_to_heal", Value::fixed(c1_mean_waves, 3))
        .field("scrub_detect_wrong_responses", c1_wrong)
        .field("serve_detect_pass", c2_pass)
        .field("serve_detect_mean_waves_to_heal", Value::fixed(c2_mean_waves, 3))
        .field("serve_detect_wrong_responses", c2_wrong)
        .field("disk_rot_pass", c3_pass)
        .field("disk_rot_waves_to_clean", c3_waves_to_clean)
        .field("disk_rot_wrong_responses", c3_wrong)
        .field("torn_publish_cases", c4_cases)
        .field("torn_publish_recovered", c4_recovered)
        .field("determinism_pass", determinism_pass)
        .field("all_pass", all_pass);
    report::publish("BENCH_scrub.json", summary);

    if !all_pass {
        std::process::exit(1);
    }
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}
