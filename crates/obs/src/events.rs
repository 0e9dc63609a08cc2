//! The structured event stream: flat JSON objects, one per line.
//!
//! ## Event schema
//!
//! Every line is a flat object with at least `type` (event kind) and `t_ms`
//! (milliseconds since the sink opened, monotonic). The kinds emitted by
//! the workspace:
//!
//! | `type` | emitted by | payload fields |
//! |---|---|---|
//! | `run_manifest` | [`crate::ObsSession::begin`] | see [`crate::RunManifest`] |
//! | `epoch_start` | trainers | `epoch` |
//! | `epoch_end` | trainers | `epoch`, `seconds`, `mean_loss`, `batches`, `nan_batches`, `rollbacks`, `peak_bytes` |
//! | `batch` | trainers | `epoch`, `batch`, `loss`, `healthy` |
//! | `guard_trip` | trainers | `verdict`, `loss`, `diverged` |
//! | `prep_end` | CrossEM⁺ trainer | `seconds`, `partitions`, `pairs_per_epoch` |
//! | `checkpoint_save` | `CheckpointManager` | `path` |
//! | `checkpoint_load` | `CheckpointManager` | `path`, `source` |
//! | `cache` | `FeatureCache` | `stage` (`features`\|`proximity`), `outcome` (`hit`\|`miss`\|`evict`) |
//! | `kmeans` | `crossem::kmeans` | `points`, `k`, `iterations` |
//! | `span_summary` | [`crate::ObsSession::finish`] | `span`, `calls`, `total_s`, `mean_ms`, `p50_ms`, `p99_ms` |
//! | `counter_summary` | [`crate::ObsSession::finish`] | `counter`, `value` |
//! | `gauge_summary` | [`crate::ObsSession::finish`] | `gauge`, `value` (last level held) |
//! | `trace` | [`crate::trace::emit_trace`] | one line per span: `trace_id`, `idx`, `span`, `parent`, `start`, `end`, `cause`, span attrs; root line adds `req`, `latency_units`, tail flags, `n_spans`, `sampled`, `bucket_log2` |
//! | `slo_alert` | [`crate::slo::SloMonitor`] | `state` (`firing`\|`resolved`), `at_units`, `burn_fast`, `burn_slow`, `target`, `threshold` |
//! | `scrub_corruption` | `cem-serve` scrubber | `section` (`dense_row`\|`shard_cluster`\|`disk_generation`) + its location |
//! | `breaker_transition` | `cem-serve` fold | `component`, `transition` (`tripped`\|`reopened`\|`recovered`), `tick` |
//! | `brownout_shift` | `cem-serve` wave boundary | `from`, `to`, `wave` |
//! | `repair_failed` | `cem-serve` wave boundary | `stage`, `error` |
//! | `run_end` | [`crate::ObsSession::finish`] | `wall_seconds`, `dropped_lines` + caller extras |
//!
//! Unknown kinds are legal (consumers skip them); nested values are not
//! (see [`crate::json`]).
//!
//! ## Atomicity
//!
//! A line is formatted fully in memory and handed to the OS as **one**
//! `write_all` on an `O_APPEND`-style handle guarded by a mutex, so
//! concurrent emitters can interleave *lines* but never bytes within a
//! line, and a crash mid-run leaves at worst one truncated final line
//! (which `obs_report` detects and reports). IO errors never propagate —
//! telemetry must not take the run down — but they are **counted**, not
//! silently swallowed: each failed line bumps the sink's
//! [`dropped_lines`](JsonlSink::dropped_lines) tally and the global
//! `obs.sink.dropped_lines` counter, and `run_end` carries the final count
//! so `obs_report` can warn that the stream is incomplete.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::json::{Object, Value};

/// Builder for one event line.
#[derive(Debug, Clone)]
pub struct Event(Object);

impl Event {
    /// Start an event of the given kind (`type` field).
    pub fn new(kind: &str) -> Event {
        let mut o = Object::new();
        o.push("type", kind);
        Event(o)
    }

    /// Append a field.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Event {
        self.0.push(key, value.into());
        self
    }

    /// Append a `u64` losslessly: as a number when it fits `f64`'s exact
    /// integer range, as a decimal string beyond (seeds, fingerprints).
    pub fn field_u64(self, key: &str, value: u64) -> Event {
        if value < (1u64 << 53) {
            self.field(key, value as f64)
        } else {
            self.field(key, value.to_string())
        }
    }

    pub fn kind(&self) -> &str {
        self.0.str("type").unwrap_or("")
    }

    pub fn object(&self) -> &Object {
        &self.0
    }

    pub fn into_object(self) -> Object {
        self.0
    }
}

/// Append-only JSONL file with whole-line writes.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<File>,
    opened: Instant,
    /// Lines lost to IO errors (disk full, closed fd, …).
    dropped: AtomicU64,
}

impl JsonlSink {
    /// Create (truncating) the event file.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<JsonlSink> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            file: Mutex::new(file),
            opened: Instant::now(),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Milliseconds since the sink opened (the `t_ms` timeline).
    pub fn elapsed_ms(&self) -> f64 {
        self.opened.elapsed().as_secs_f64() * 1e3
    }

    /// Lines this sink failed to persist. Nonzero means the stream on disk
    /// is incomplete (consumers should warn, gates should fail).
    pub fn dropped_lines(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Write one event as one line (single `write_all`). IO errors never
    /// propagate — telemetry must not take the run down — but each failed
    /// line counts into [`dropped_lines`](Self::dropped_lines) and the
    /// global `obs.sink.dropped_lines` counter so the loss is visible.
    pub fn write(&self, event: Event) {
        let mut object = event.into_object();
        object.push("t_ms", (self.elapsed_ms() * 1000.0).round() / 1000.0);
        let mut line = object.to_json();
        line.push('\n');
        let mut file = self.file.lock().unwrap();
        let result = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        drop(file);
        if result.is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            static DROPPED: std::sync::OnceLock<Arc<crate::registry::Counter>> =
                std::sync::OnceLock::new();
            DROPPED
                .get_or_init(|| crate::registry::global().counter("obs.sink.dropped_lines"))
                .add(1);
        }
    }
}

/// The process-global sink events route to while a session is live.
static SINK: RwLock<Option<Arc<JsonlSink>>> = RwLock::new(None);

/// Route [`emit`] calls to `sink` (used by [`crate::ObsSession::begin`]).
pub fn install_sink(sink: Arc<JsonlSink>) {
    *SINK.write().unwrap() = Some(sink);
}

/// Stop routing events (used by [`crate::ObsSession::finish`]).
pub fn uninstall_sink() {
    *SINK.write().unwrap() = None;
}

/// Emit an event to the installed sink, if obs is enabled and a sink is
/// installed; otherwise a branch and nothing else. This is how components
/// without a session handle (cache, k-means, checkpoint manager) publish.
pub fn emit(make: impl FnOnce() -> Event) {
    if !crate::enabled() {
        return;
    }
    let guard = SINK.read().unwrap();
    if let Some(sink) = guard.as_ref() {
        sink.write(make());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cem_obs_events_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn events_land_as_parseable_lines() {
        let path = tmp("basic");
        let sink = JsonlSink::create(&path).unwrap();
        sink.write(Event::new("epoch_start").field("epoch", 0.0));
        sink.write(
            Event::new("batch").field("epoch", 0.0).field("loss", 1.5).field("healthy", true),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let obj = Object::parse(line).unwrap();
            assert!(obj.str("type").is_some());
            assert!(obj.num("t_ms").is_some(), "t_ms stamped on every line");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u64_fields_round_trip_losslessly() {
        let small = Event::new("x").field_u64("v", 12345).into_object();
        assert_eq!(small.num("v"), Some(12345.0));
        let big = Event::new("x").field_u64("v", u64::MAX).into_object();
        assert_eq!(big.str("v"), Some("18446744073709551615"));
    }

    #[test]
    fn emit_is_silent_without_sink_or_enable() {
        // No sink, not enabled: closure must not even run.
        emit(|| panic!("emit ran while disabled"));
        let _on = crate::force_enable();
        // Enabled but no sink: closure still must not run.
        emit(|| panic!("emit ran without a sink"));
    }

    #[test]
    fn emit_routes_to_installed_sink() {
        let path = tmp("route");
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let _on = crate::force_enable();
        install_sink(Arc::clone(&sink));
        emit(|| Event::new("cache").field("stage", "features").field("outcome", "hit"));
        uninstall_sink();
        emit(|| panic!("emit ran after uninstall"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let obj = Object::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(obj.str("type"), Some("cache"));
        assert_eq!(obj.str("outcome"), Some("hit"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn healthy_sink_drops_nothing() {
        let path = tmp("nodrop");
        let sink = JsonlSink::create(&path).unwrap();
        sink.write(Event::new("epoch_start").field("epoch", 0.0));
        assert_eq!(sink.dropped_lines(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn io_errors_are_counted_not_silently_swallowed() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // exactly the disk-full failure the drop counter exists for.
        let sink = JsonlSink::create("/dev/full").unwrap();
        let before = crate::registry::global().counter("obs.sink.dropped_lines").get();
        sink.write(Event::new("batch").field("loss", 1.0));
        sink.write(Event::new("batch").field("loss", 2.0));
        assert_eq!(sink.dropped_lines(), 2);
        let after = crate::registry::global().counter("obs.sink.dropped_lines").get();
        assert_eq!(after - before, 2, "global counter mirrors the sink tally");
    }

    #[test]
    fn concurrent_writers_never_tear_lines() {
        let path = tmp("torn");
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..200 {
                        sink.write(
                            Event::new("batch")
                                .field("thread", t as f64)
                                .field("i", i as f64)
                                .field("pad", "x".repeat(100)),
                        );
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 800);
        for line in lines {
            Object::parse(line).unwrap_or_else(|e| panic!("torn line {line:?}: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }
}
