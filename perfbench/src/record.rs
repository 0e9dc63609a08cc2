//! What a workload reports, the metric catalogue `BENCHMARK.json` mirrors,
//! and the formats results travel in: tab-separated lines from a workload
//! process to the command, and JSON out of the command.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A metric's catalogue entry.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// The end-to-end metrics every workload reports in an untraced run, with
/// a per-workload meaning (see `README.md`). Each workload also reports
/// `latency_ms_p50` and `latency_ms_p95`, which are printed but not gated:
/// the median duplicates `throughput_per_s` on the serving workloads and
/// sits between `train`'s two batch-size modes, and on this class of shared
/// host a few seconds of slowdown in a ten-second run moves a 95th
/// percentile by more than the largest bound allowed. `failed_share` is
/// printed and `answered_share`, its complement, is gated, because a gated
/// metric may not read 0 and only `serve_burst` loses requests.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("throughput_per_s", "1/s"),
    def("quality", "fraction"),
    def("answered_share", "fraction"),
];

/// The per-layer metrics of a traced run. A workload that bypasses a
/// layer reports it as 0.
pub const PER_LAYER: &[Def] = &[
    def("data.prepare_s", "s"),
    def("clip.pretrain_steps", "count"),
    def("crossem.plus.prep_s", "s"),
    def("crossem.plus.pairs_per_epoch", "count"),
    def("crossem.plus.partitions", "count"),
    def("crossem.train.batch_ms_p50", "ms"),
    def("crossem.train.batch_ms_p95", "ms"),
    def("crossem.phase.encode_ms", "ms"),
    def("crossem.phase.mine_ms", "ms"),
    def("crossem.phase.loss_ms", "ms"),
    def("crossem.phase.step_ms", "ms"),
    def("tensor.gemm.blocked_calls", "count"),
    def("tensor.gemm.packed_calls", "count"),
    def("tensor.gemm.prepacked_calls", "count"),
    def("tensor.peak_live_mb", "MB"),
    def("serve.shard.build_s", "s"),
    def("serve.tiers.build_s", "s"),
    def("serve.hotswap.publish_s", "s"),
    def("serve.hotswap.load_s", "s"),
    def("serve.hotswap.file_mb", "MB"),
    def("serve.shard.probe_us_per_request", "us"),
    def("serve.shard.verify_ms_per_call", "ms"),
    def("serve.shard.distinct_clusters_per_call", "count"),
    def("tensor.crc_mb_per_s", "MB/s"),
    def("serve.shard.score_wave_ms_per_call", "ms"),
    def("serve.shard.gemm_topk_ms_per_call", "ms"),
    def("serve.shard.candidates_per_request", "count"),
    def("serve.shard.batched_gemms", "count"),
    def("serve.shard.single_gemms", "count"),
    def("serve.tiers.verify_row_us", "us"),
    def("crossem.matcher.rank_row_us", "us"),
    def("serve.service.other_us_per_request", "us"),
    def("serve.stats.admitted", "count"),
    def("serve.stats.shed", "count"),
    def("serve.stats.expired", "count"),
    def("serve.stats.deadline_exceeded", "count"),
    def("serve.stats.internal_errors", "count"),
    def("serve.stats.waves", "count"),
    def("serve.stats.served.full", "count"),
    def("serve.stats.served.cached", "count"),
    def("serve.stats.served.hard", "count"),
    def("serve.stats.served.zero", "count"),
    def("serve.stats.brownout_waves.full", "count"),
    def("serve.stats.brownout_waves.cached", "count"),
    def("serve.stats.brownout_waves.hard", "count"),
    def("serve.stats.brownout_waves.zero", "count"),
    def("trace.overhead_s", "s"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Measurements behind the value (1 for a count or a single timing).
    pub samples: u64,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Operations attempted: requests for serving, batches for training.
    pub attempted: u64,
    /// Violated output checks. Requests the service sheds or lets expire
    /// are its designed answer to overload, not wrong outputs; they count
    /// in `failed_share` (see [`Report::shares`]).
    pub failed: u64,
    /// One line per violated output check.
    pub failures: Vec<String>,
    /// Provenance and workload sizes.
    pub info: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples: samples as u64,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Record an output check; a violated one counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Report `failed_share` — operations the program dropped (`lost`:
    /// requests shed, expired, past their deadline or failed internally;
    /// batches skipped) or answered wrongly, over those attempted — and
    /// `answered_share`, the rest.
    pub fn shares(&mut self, lost: u64) {
        let attempted = self.attempted.max(1);
        let failed_share = ((lost + self.failed) as f64 / attempted as f64).min(1.0);
        let samples = self.attempted as usize;
        self.metric("failed_share", failed_share, "fraction", samples);
        self.metric("answered_share", 1.0 - failed_share, "fraction", samples);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The tab-separated form a workload process prints on stdout.
    pub fn to_lines(&self) -> String {
        let mut out = format!("@attempted\t{}\n@failed\t{}\n", self.attempted, self.failed);
        for failure in &self.failures {
            let _ = writeln!(out, "@failure\t{}", one_line(failure));
        }
        for (key, value) in &self.info {
            let _ = writeln!(out, "@info\t{key}\t{}", one_line(value));
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "@metric\t{}\t{:?}\t{}\t{}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// Parse [`Report::to_lines`] output; other lines are ignored.
    pub fn parse_lines(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut counts = (false, false);
        for line in text.lines().filter(|l| l.starts_with('@')) {
            let fields: Vec<&str> = line.split('\t').collect();
            let number = |s: &str| s.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
            match fields.as_slice() {
                ["@attempted", n] => (report.attempted, counts.0) = (number(n)?, true),
                ["@failed", n] => (report.failed, counts.1) = (number(n)?, true),
                ["@failure", text] => report.failures.push(text.to_string()),
                ["@info", key, value] => report.info.push((key.to_string(), value.to_string())),
                ["@metric", name, value, unit, samples] => report.metrics.push(Metric {
                    name: name.to_string(),
                    value: value.parse().map_err(|e| format!("{line:?}: {e}"))?,
                    unit: unit.to_string(),
                    samples: number(samples)?,
                }),
                _ => return Err(format!("malformed result line {line:?}")),
            }
        }
        if counts != (true, true) {
            return Err("result lines lack the attempted/failed counts".to_string());
        }
        Ok(report)
    }
}

fn one_line(text: &str) -> String {
    text.replace(['\t', '\n'], " ")
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The command's last stdout line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, with each metric's value and unit.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_string(name),
                m.value,
                json_string(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The full result of one invocation for one workload, as a JSON document.
pub fn result_json(workload: &str, report: &Report) -> String {
    let mut out = format!(
        "{{\n  \"workload\": {},\n  \"provenance\": {{",
        json_string(workload)
    );
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("\n    {}: {}", json_string(k), json_string(v)))
        .collect();
    out.push_str(&info.join(","));
    let _ = write!(
        out,
        "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [",
        report.correct(),
        report.attempted,
        report.failed
    );
    let failures: Vec<String> = report.failures.iter().map(|f| json_string(f)).collect();
    out.push_str(&failures.join(", "));
    out.push_str("],\n  \"metrics\": {");
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\n    {}: {{\"value\": {:?}, \"unit\": {}, \"samples\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(&m.unit),
                m.samples
            )
        })
        .collect();
    out.push_str(&metrics.join(","));
    out.push_str("\n  }\n}\n");
    out
}

/// Where an invocation's result for `workload` goes: a file of the
/// benchmark's own output directory, never a committed `BENCH_*.json`
/// artefact of the repository's harnesses.
pub fn result_path(dir: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let name = format!("{workload}-seed{seed}-trace{}.json", u8::from(trace));
    assert!(
        !name.starts_with("BENCH_"),
        "refusing to write a harness artefact name"
    );
    dir.join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report {
            attempted: 12,
            ..Report::default()
        };
        report.info("seed", 7);
        report.info("git", "v1\tdirty");
        report.metric("setup_s", 1.25, "s", 3);
        report.metric("quality", 0.1 + 0.2, "fraction", 1);
        report.check(true, || unreachable!());
        report.check(false, || "response 3 served at tier zero".to_string());
        report
    }

    #[test]
    fn shares_count_lost_and_wrong_answers() {
        let mut report = sample();
        report.shares(2);
        assert_eq!(report.get("failed_share").unwrap().value, 3.0 / 12.0);
        assert_eq!(report.get("answered_share").unwrap().value, 0.75);
        assert_eq!(report.get("answered_share").unwrap().samples, 12);
    }

    #[test]
    fn lines_round_trip_every_digit() {
        let report = sample();
        let parsed = Report::parse_lines(&format!("progress\n{}", report.to_lines())).unwrap();
        assert_eq!(parsed.metrics, report.metrics);
        assert_eq!(parsed.get("quality").unwrap().value, 0.1 + 0.2);
        assert_eq!((parsed.attempted, parsed.failed), (12, 1));
        assert!(!parsed.correct());
        assert_eq!(parsed.info[1], ("git".to_string(), "v1 dirty".to_string()));
        assert!(
            Report::parse_lines("@metric\tx\tnot-a-number\ts\t1\n@attempted\t1\n@failed\t0")
                .is_err()
        );
        assert!(Report::parse_lines("@metric\tx\t1.0\ts\t1\n").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let report = sample();
        let metrics: Vec<(String, Metric)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.clone()))
            .collect();
        let line = contract_line(report.correct(), report.attempted, report.failed, &metrics);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 12, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"quality\": {\"value\": 0.30000000000000004, \"unit\": \"fraction\"}}}"
        );
        assert!(result_json("train", &report)
            .contains("\"failures\": [\"response 3 served at tier zero\"]"));
    }

    #[test]
    fn results_stay_in_the_owned_directory() {
        let dir = Path::new("perfbench/out");
        for workload in ["train", "serve_shard", "serve_burst", "all"] {
            let path = result_path(dir, workload, 3, true);
            assert_eq!(path.parent(), Some(dir));
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(!name.starts_with("BENCH_"), "{name}");
        }
        assert_eq!(
            result_path(dir, "train", 3, false),
            dir.join("train-seed3-trace0.json")
        );
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench/");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let named = text.matches("\"name\":").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(named, workloads + END_TO_END.len() + PER_LAYER.len());
    }
}
