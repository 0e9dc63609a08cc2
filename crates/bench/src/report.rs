//! The drills' `BENCH_*.json` reports. Each drill builds its report as a
//! [`cem_obs::json::Object`] (keys in the order they are pushed) and hands
//! it to [`publish`]; no drill formats JSON text itself.

use std::path::Path;

use cem_obs::json::{Object, Value};
use cem_serve::TraceStats;
use crossem::io::Storage;

/// A run's sampler and SLO totals, as every serving report nests them.
pub fn trace_stats(t: &TraceStats) -> Object {
    Object::new()
        .field("seen", t.seen)
        .field("sampled", t.sampled)
        .field("sampled_flagged", t.sampled_flagged)
        .field("sampled_tail", t.sampled_tail)
        .field("sampled_baseline", t.sampled_baseline)
        .field("slo_good", t.slo_good)
        .field("slo_bad", t.slo_bad)
        .field("slo_alerts", t.slo_alerts)
        .field("slo_burn_peak", Value::fixed(t.slo_burn_peak, 3))
}

/// Write `report` to `path` as indented JSON, atomically (temp file,
/// fsync, rename), and say so on stdout. A drill whose report cannot be
/// written has failed, so an I/O error panics.
pub fn publish(path: impl AsRef<Path>, report: Object) {
    let path = path.as_ref();
    let mut text = Value::Obj(report).to_pretty();
    text.push('\n');
    Storage::passthrough()
        .write_atomic(path, text.as_bytes())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_reports_read_back() {
        let path = std::env::temp_dir().join(format!("cem_report_{}.json", std::process::id()));
        let tricky = r#"C:\runs\"quoted" trace.jsonl"#;
        let report = Object::new()
            .field("trace_stream", tricky)
            .field("loss", f64::NAN)
            .field("rows", vec![Object::new().field("n", 128usize)])
            .field(
                "trace",
                trace_stats(&TraceStats { slo_burn_peak: 1.234_56, ..Default::default() }),
            );
        publish(&path, report);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.ends_with("}\n"), "{text}");
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.get("trace_stream").and_then(Value::as_str), Some(tricky));
        assert_eq!(back.get("loss"), Some(&Value::Null), "NaN is written as null");
        let Some(Value::Arr(rows)) = back.get("rows") else { panic!("rows is an array") };
        assert_eq!(rows[0].get("n").and_then(Value::as_f64), Some(128.0));
        let trace = back.get("trace").and_then(Value::as_object).unwrap();
        let keys: Vec<&str> = trace.0.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[0], "seen");
        assert_eq!(trace.num("slo_burn_peak"), Some(1.235));
    }
}
