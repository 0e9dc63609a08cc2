//! Registry exactness under the `par` pool: counters incremented from
//! worker threads must total exactly, and the pool's own dispatch counters
//! must describe the partitioning faithfully at every thread count.

use std::sync::{Arc, Mutex, MutexGuard};

use cem_tensor::kernels;
use cem_tensor::par;

/// The registry is process-global and the harness runs tests concurrently,
/// so tests asserting exact counter deltas take this lock.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counter increments issued from inside `par_chunks_mut` workers are exact
/// at 1, 2, and 4 threads: one add per chunk, no lost updates.
#[test]
fn worker_side_counter_totals_are_exact() {
    let _serial = registry_lock();
    let _on = cem_obs::force_enable();
    let registry = cem_obs::global();
    for threads in [1usize, 2, 4] {
        let counter = registry.counter("test.par.chunks_seen");
        let before = counter.get();
        let mut data = vec![0.0f32; 10_000];
        let counter_ref = Arc::clone(&counter);
        par::par_chunks_mut(&mut data, 1, threads, move |_first, block| {
            for v in block.iter_mut() {
                *v += 1.0;
                counter_ref.add(1);
            }
        });
        assert_eq!(
            counter.get() - before,
            10_000,
            "threads={threads}: every element counted exactly once"
        );
        assert!(data.iter().all(|&v| v == 1.0));
    }
}

/// The pool's own dispatch counters: a serial call bumps `par.serial`, a
/// parallel one bumps `par.scopes` and accounts its spawned workers.
#[test]
fn pool_dispatch_counters_track_partitioning() {
    let _serial = registry_lock();
    let _on = cem_obs::force_enable();
    let registry = cem_obs::global();

    let serial = registry.counter("par.serial");
    let scopes = registry.counter("par.scopes");
    let spawned = registry.counter("par.threads_spawned");

    let (serial0, scopes0, spawned0) = (serial.get(), scopes.get(), spawned.get());
    let mut data = vec![0.0f32; 64];
    par::par_chunks_mut(&mut data, 1, 1, |_f, block| block.fill(1.0));
    assert_eq!(serial.get() - serial0, 1);
    assert_eq!(scopes.get() - scopes0, 0);

    let (serial1, scopes1, spawned1) = (serial.get(), scopes.get(), spawned.get());
    par::par_chunks_mut(&mut data, 1, 4, |_f, block| block.fill(2.0));
    assert_eq!(serial.get() - serial1, 0);
    assert_eq!(scopes.get() - scopes1, 1);
    // 64 chunks over 4 threads → 3 spawned workers + the calling thread.
    assert_eq!(spawned.get() - spawned1, 3);
    let _ = spawned0;
}

/// Auto-threaded GEMM records which path it took; tiny problems are serial
/// fallbacks, huge ones go blocked-parallel (given a thread budget > 1).
#[test]
fn gemm_dispatch_counters_split_by_work_size() {
    let _serial = registry_lock();
    let _on = cem_obs::force_enable();
    let _threads = par::ThreadsGuard::new(4);
    let registry = cem_obs::global();
    let blocked = registry.counter("gemm.dispatch.blocked_parallel");
    let fallback = registry.counter("gemm.dispatch.serial_fallback");

    let (b0, f0) = (blocked.get(), fallback.get());
    let a = vec![1.0f32; 4 * 4];
    let b = vec![1.0f32; 4 * 4];
    let mut c = vec![0.0f32; 4 * 4];
    kernels::gemm(&a, &b, &mut c, 4, 4, 4);
    assert_eq!(fallback.get() - f0, 1, "4x4x4 is far below PAR_GEMM_THRESHOLD");
    assert_eq!(blocked.get() - b0, 0);

    // 160^3 = 4,096,000 multiply-adds > PAR_GEMM_THRESHOLD (2^21).
    let (b1, f1) = (blocked.get(), fallback.get());
    let n = 160usize;
    let a = vec![0.5f32; n * n];
    let b = vec![0.5f32; n * n];
    let mut c = vec![0.0f32; n * n];
    kernels::gemm(&a, &b, &mut c, n, n, n);
    assert_eq!(blocked.get() - b1, 1, "160^3 work dispatches blocked-parallel");
    assert_eq!(fallback.get() - f1, 0);
}

/// The instrumentation itself must not perturb results: identical outputs
/// with obs enabled and disabled (the bit-identity contract, kernel-level).
#[test]
fn instrumented_gemm_is_bit_identical_to_uninstrumented() {
    // `force_enable` and the GEMM's dispatch counters are global too.
    let _serial = registry_lock();
    let n = 48usize;
    let a: Vec<f32> = (0..n * n).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i as f32 * 0.11).cos()).collect();

    let mut c_off = vec![0.0f32; n * n];
    kernels::gemm(&a, &b, &mut c_off, n, n, n);

    let c_on = {
        let _on = cem_obs::force_enable();
        let mut c = vec![0.0f32; n * n];
        kernels::gemm(&a, &b, &mut c, n, n, n);
        c
    };
    assert_eq!(c_off, c_on);
}
