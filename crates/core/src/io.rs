//! Deterministic storage seam for the durable artefact stores.
//!
//! Every disk operation the rotating stores perform — checkpoint saves
//! ([`crate::checkpoint::CheckpointManager`]) and generation publishes
//! (`cem-serve`'s `GenerationStore`) — routes through a [`Storage`] handle.
//! A passthrough `Storage` (the default) is a thin wrapper over `std::fs`
//! with the same atomic write discipline the CEMT container uses (temp
//! sibling + write + fsync + rename). A `Storage` carrying a
//! [`DiskFaultInjector`] consults a **pure** `(op, path, attempt) → fault`
//! plan before every primitive, so disk failures — short writes, torn
//! renames, transient EIO, ENOSPC, read bit-flips — replay identically on
//! any machine and at any thread count. Production code carries no
//! test-only branches: the injector seam is the same object in drills and
//! in service, it just answers `None` everywhere by default.
//!
//! Transient faults ([`DiskFault::TransientEio`]) are retried with bounded
//! exponential backoff accounted on a **virtual clock** (a unit counter,
//! never a real sleep), matching the serving stack's determinism contract:
//! retry schedules are pure functions of the fault plan and the retry
//! config, and the units spent backing off are observable via
//! [`Storage::backoff_units`].

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A primitive disk operation routed through [`Storage`]. The fault plan
/// keys on this, so a drill can say "the second fsync of the incoming
/// checkpoint fails" and mean exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskOp {
    /// Creating (truncating) a file for writing.
    Create,
    /// Writing a file's payload bytes.
    Write,
    /// Flushing a file's data and metadata to stable storage.
    Fsync,
    /// Atomically renaming a file into place (keyed on the destination).
    Rename,
    /// Reading a file's full contents.
    Read,
}

impl DiskOp {
    pub fn label(self) -> &'static str {
        match self {
            DiskOp::Create => "create",
            DiskOp::Write => "write",
            DiskOp::Fsync => "fsync",
            DiskOp::Rename => "rename",
            DiskOp::Read => "read",
        }
    }
}

/// A fault the plan may direct at one `(op, path, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Only the first `keep` bytes reach the file, then the write errors —
    /// a crash mid-write. The partial payload stays on disk (in the temp
    /// sibling for atomic writes, so the published file is never torn by
    /// this fault alone).
    ShortWrite { keep: usize },
    /// The rename happens but the destination is truncated to `keep`
    /// bytes — a crash between the metadata update and the data reaching
    /// stable storage. The operation reports an error *after* the damage.
    TornRename { keep: usize },
    /// A transient EIO with no side effect; the operation is retried with
    /// bounded backoff on the virtual clock.
    TransientEio,
    /// Disk full: a hard error with no side effect, never retried.
    Enospc,
    /// Bit rot on the read path: XOR `mask` into byte `offset % len` of
    /// the returned buffer. The file on disk is untouched — this models a
    /// medium error surfacing at read time, which the container CRCs must
    /// catch downstream.
    BitFlip { offset: usize, mask: u8 },
}

/// The injection seam: a pure function from `(op, path, attempt)` to an
/// optional fault. Implementations must be deterministic — no clocks, no
/// RNG — so every disk-failure campaign replays bit-identically. The
/// scripted plan lives downstream in `cem-bench::faults::DiskFaultPlan`.
pub trait DiskFaultInjector: Send + Sync {
    fn fault(&self, op: DiskOp, path: &Path, attempt: u32) -> Option<DiskFault>;
}

/// Bounded exponential backoff for transient disk faults, in virtual
/// units. Deterministic: retry `r` (1-based) backs off
/// `min(base_delay · 2^(r−1), max_delay)` — no jitter, the plan already
/// pins which attempts fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRetryConfig {
    /// Retries beyond the first attempt. `0` disables retry.
    pub max_retries: u32,
    /// Virtual-unit delay before the first retry; doubles per retry.
    pub base_delay: u64,
    /// Hard cap on any single backoff delay.
    pub max_delay: u64,
}

impl Default for DiskRetryConfig {
    fn default() -> Self {
        DiskRetryConfig { max_retries: 3, base_delay: 8, max_delay: 256 }
    }
}

impl DiskRetryConfig {
    pub fn validate(&self) {
        assert!(self.base_delay > 0, "disk retry base_delay must be positive");
        assert!(self.max_delay >= self.base_delay, "disk retry max_delay below base_delay");
    }

    /// Backoff before retry `retry` (1-based), clamped to `max_delay`.
    pub fn delay(&self, retry: u32) -> u64 {
        let doubled = self
            .base_delay
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(u64::MAX);
        doubled.min(self.max_delay)
    }
}

/// Shared counters so cloned handles (the rotating stores clone their
/// manager) report one aggregate view of what the storage layer absorbed.
#[derive(Debug, Default)]
struct StorageCounters {
    /// Transient faults absorbed by a retry.
    retries: AtomicU64,
    /// Virtual units spent backing off on transient faults.
    backoff_units: AtomicU64,
    /// Total faults the injector fired (any kind).
    faults: AtomicU64,
}

/// The storage handle: `std::fs` primitives behind the fault seam, plus
/// bounded virtual-clock retry on transient faults. Cheap to clone; clones
/// share the injector and the counters.
#[derive(Clone, Default)]
pub struct Storage {
    injector: Option<Arc<dyn DiskFaultInjector>>,
    retry: DiskRetryConfig,
    counters: Arc<StorageCounters>,
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("injected", &self.injector.is_some())
            .field("retry", &self.retry)
            .field("retries", &self.retries())
            .field("backoff_units", &self.backoff_units())
            .finish()
    }
}

impl Storage {
    /// A passthrough handle: no faults, plain `std::fs` semantics.
    pub fn passthrough() -> Self {
        Storage::default()
    }

    /// A handle that consults `injector` before every primitive and
    /// retries transient faults per `retry`.
    pub fn with_injector(injector: Arc<dyn DiskFaultInjector>, retry: DiskRetryConfig) -> Self {
        retry.validate();
        Storage { injector: Some(injector), retry, counters: Arc::new(StorageCounters::default()) }
    }

    /// Transient faults absorbed by a retry so far.
    pub fn retries(&self) -> u64 {
        self.counters.retries.load(Ordering::Relaxed)
    }

    /// Virtual units spent backing off on transient faults so far.
    pub fn backoff_units(&self) -> u64 {
        self.counters.backoff_units.load(Ordering::Relaxed)
    }

    /// Total faults the injector fired so far (any kind).
    pub fn faults_injected(&self) -> u64 {
        self.counters.faults.load(Ordering::Relaxed)
    }

    /// Resolve the fault for `(op, path)` with bounded retry on transient
    /// faults: injected EIOs are absorbed (backoff charged to the virtual
    /// clock) until the plan stops firing or the retry budget runs out;
    /// any other verdict is handed to `run` exactly once.
    fn resolve<T>(
        &self,
        op: DiskOp,
        path: &Path,
        run: impl FnOnce(Option<DiskFault>) -> io::Result<T>,
    ) -> io::Result<T> {
        let Some(injector) = &self.injector else { return run(None) };
        let mut attempt: u32 = 0;
        loop {
            let fault = injector.fault(op, path, attempt);
            if fault.is_some() {
                self.counters.faults.fetch_add(1, Ordering::Relaxed);
            }
            if fault == Some(DiskFault::TransientEio) {
                if attempt >= self.retry.max_retries {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!(
                            "injected transient EIO on {} of {} persisted past {} retries",
                            op.label(),
                            path.display(),
                            self.retry.max_retries
                        ),
                    ));
                }
                attempt += 1;
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .backoff_units
                    .fetch_add(self.retry.delay(attempt), Ordering::Relaxed);
                continue;
            }
            return run(fault);
        }
    }

    /// Atomically write `bytes` to `path`: create a temp sibling, write,
    /// fsync, rename into place, then best-effort fsync of the parent
    /// directory. A failure at any step leaves whatever previously lived
    /// at `path` untouched (except [`DiskFault::TornRename`], which is the
    /// point of that fault).
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = temp_sibling(path);
        let result = self.write_atomic_inner(&tmp, path, bytes);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn write_atomic_inner(&self, tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.resolve(DiskOp::Create, path, |fault| match fault {
            Some(DiskFault::Enospc) => Err(enospc(DiskOp::Create, path)),
            _ => std::fs::File::create(tmp),
        })?;
        self.resolve(DiskOp::Write, path, |fault| match fault {
            Some(DiskFault::ShortWrite { keep }) => {
                let keep = keep.min(bytes.len());
                file.write_all(&bytes[..keep])?;
                let _ = file.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected short write: {keep} of {} bytes reached {}",
                        bytes.len(),
                        path.display()
                    ),
                ))
            }
            Some(DiskFault::Enospc) => Err(enospc(DiskOp::Write, path)),
            _ => file.write_all(bytes),
        })?;
        self.resolve(DiskOp::Fsync, path, |fault| match fault {
            Some(DiskFault::Enospc) => Err(enospc(DiskOp::Fsync, path)),
            _ => file.sync_all(),
        })?;
        drop(file);
        self.rename(tmp, path)?;
        self.fsync_parent(path);
        Ok(())
    }

    /// Rename `from` onto `to`. Faults key on the **destination** — the
    /// artefact name the drills target. [`DiskFault::TornRename`] performs
    /// the rename, truncates the destination to `keep` bytes, and *then*
    /// errors: exactly what a crash between the directory-entry update and
    /// the data fsync leaves behind.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.resolve(DiskOp::Rename, to, |fault| match fault {
            Some(DiskFault::TornRename { keep }) => {
                std::fs::rename(from, to)?;
                let file = std::fs::OpenOptions::new().write(true).open(to)?;
                let len = file.metadata()?.len();
                file.set_len((keep as u64).min(len))?;
                let _ = file.sync_all();
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected torn rename: {} truncated to {keep} bytes", to.display()),
                ))
            }
            Some(DiskFault::Enospc) => Err(enospc(DiskOp::Rename, to)),
            _ => std::fs::rename(from, to),
        })
    }

    /// Read a file's full contents. [`DiskFault::BitFlip`] damages the
    /// returned buffer (never the file): the CRC-carrying container format
    /// is what turns this into a typed, recoverable error downstream.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.resolve(DiskOp::Read, path, |fault| {
            let mut bytes = std::fs::read(path)?;
            if let Some(DiskFault::BitFlip { offset, mask }) = fault {
                if !bytes.is_empty() && mask != 0 {
                    let i = offset % bytes.len();
                    bytes[i] ^= mask;
                }
            }
            Ok(bytes)
        })
    }

    /// Best-effort fsync of `path`'s parent directory, so a rename into it
    /// is durable; a bare file name's parent is the working directory.
    /// Errors are swallowed — directory fsync is advisory on some
    /// filesystems.
    pub fn fsync_parent(&self, path: &Path) {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

fn enospc(op: DiskOp, path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!("injected ENOSPC on {} of {}", op.label(), path.display()),
    )
}

/// Temp-file path next to `path` (same filesystem, so rename is atomic).
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cem_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(tag)
    }

    /// Minimal scripted injector for unit tests (the full plan lives in
    /// cem-bench): fires `fault` on `(op, file name, attempt)` matches.
    struct OneShot {
        op: DiskOp,
        name: &'static str,
        attempts: Vec<u32>,
        fault: DiskFault,
        fired: Mutex<u32>,
    }

    impl OneShot {
        fn new(op: DiskOp, name: &'static str, attempts: Vec<u32>, fault: DiskFault) -> Self {
            OneShot { op, name, attempts, fault, fired: Mutex::new(0) }
        }
    }

    impl DiskFaultInjector for OneShot {
        fn fault(&self, op: DiskOp, path: &Path, attempt: u32) -> Option<DiskFault> {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if op == self.op
                && name.as_deref() == Some(self.name)
                && self.attempts.contains(&attempt)
            {
                *self.fired.lock().unwrap() += 1;
                Some(self.fault)
            } else {
                None
            }
        }
    }

    #[test]
    fn passthrough_round_trips_atomically() {
        let path = tmp_path("clean.bin");
        let storage = Storage::passthrough();
        storage.write_atomic(&path, b"hello disk").unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"hello disk");
        assert!(!temp_sibling(&path).exists(), "temp sibling must be renamed away");
        assert_eq!(storage.faults_injected(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_leaves_the_published_file_untouched() {
        let path = tmp_path("short.bin");
        let storage = Storage::passthrough();
        storage.write_atomic(&path, b"generation one").unwrap();

        let inj = Arc::new(OneShot::new(
            DiskOp::Write,
            "short.bin",
            vec![0],
            DiskFault::ShortWrite { keep: 3 },
        ));
        let faulty = Storage::with_injector(inj, DiskRetryConfig::default());
        let err = faulty.write_atomic(&path, b"generation two").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // The short write died in the temp sibling; the published file is
        // intact and the sibling was cleaned up.
        assert_eq!(std::fs::read(&path).unwrap(), b"generation one");
        assert!(!temp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_rename_truncates_the_destination_then_errors() {
        let from = tmp_path("torn_src.bin");
        let to = tmp_path("torn_dst.bin");
        std::fs::write(&from, b"0123456789").unwrap();
        let inj = Arc::new(OneShot::new(
            DiskOp::Rename,
            "torn_dst.bin",
            vec![0],
            DiskFault::TornRename { keep: 4 },
        ));
        let storage = Storage::with_injector(inj, DiskRetryConfig::default());
        let err = storage.rename(&from, &to).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(std::fs::read(&to).unwrap(), b"0123", "destination must be torn");
        assert!(!from.exists(), "the rename itself happened");
        std::fs::remove_file(&to).ok();
    }

    #[test]
    fn transient_eio_is_retried_on_the_virtual_clock() {
        let path = tmp_path("transient.bin");
        let inj = Arc::new(OneShot::new(
            DiskOp::Fsync,
            "transient.bin",
            vec![0, 1],
            DiskFault::TransientEio,
        ));
        let retry = DiskRetryConfig { max_retries: 3, base_delay: 8, max_delay: 256 };
        let storage = Storage::with_injector(inj, retry);
        storage.write_atomic(&path, b"eventually durable").unwrap();
        assert_eq!(storage.retries(), 2);
        // delay(1) + delay(2) = 8 + 16, deterministic.
        assert_eq!(storage.backoff_units(), 24);
        assert_eq!(std::fs::read(&path).unwrap(), b"eventually durable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persistent_transient_eio_exhausts_the_retry_budget() {
        let path = tmp_path("persistent.bin");
        let inj = Arc::new(OneShot::new(
            DiskOp::Fsync,
            "persistent.bin",
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            DiskFault::TransientEio,
        ));
        let retry = DiskRetryConfig { max_retries: 2, base_delay: 4, max_delay: 16 };
        let storage = Storage::with_injector(inj, retry);
        let err = storage.write_atomic(&path, b"never lands").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(storage.retries(), 2, "budget is bounded");
        assert!(!path.exists(), "nothing was published");
    }

    #[test]
    fn enospc_is_a_hard_error_with_no_side_effect() {
        let path = tmp_path("full.bin");
        let inj = Arc::new(OneShot::new(DiskOp::Create, "full.bin", vec![0], DiskFault::Enospc));
        let storage = Storage::with_injector(inj, DiskRetryConfig::default());
        let err = storage.write_atomic(&path, b"no room").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(storage.retries(), 0, "ENOSPC is never retried");
        assert!(!path.exists());
    }

    #[test]
    fn bit_flip_damages_the_buffer_not_the_file() {
        let path = tmp_path("rot.bin");
        std::fs::write(&path, b"pristine").unwrap();
        let inj = Arc::new(OneShot::new(
            DiskOp::Read,
            "rot.bin",
            vec![0],
            DiskFault::BitFlip { offset: 2, mask: 0x01 },
        ));
        let storage = Storage::with_injector(inj, DiskRetryConfig::default());
        let damaged = storage.read(&path).unwrap();
        assert_ne!(damaged, b"pristine");
        assert_eq!(damaged[2], b'i' ^ 0x01);
        assert_eq!(std::fs::read(&path).unwrap(), b"pristine", "disk stays intact");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_delays_are_bounded_and_doubling() {
        let retry = DiskRetryConfig { max_retries: 10, base_delay: 8, max_delay: 100 };
        assert_eq!(retry.delay(1), 8);
        assert_eq!(retry.delay(2), 16);
        assert_eq!(retry.delay(3), 32);
        assert_eq!(retry.delay(4), 64);
        assert_eq!(retry.delay(5), 100, "clamped at max_delay");
        assert_eq!(retry.delay(200), 100, "huge retry counts cannot overflow");
    }
}
