//! The CI perf-regression gate over the `BENCH_*.json` trajectory.
//!
//! CI records six perf artifacts per run, one per gated experiment, and
//! this module turns them from *recorded* numbers into *gated* ones. Every artifact carries its own
//! headline (see [`crate::BenchReport`]), so the gate is generic: it reads
//! the headline of any `BENCH_<experiment>.json`, compares it against
//! `bench/baselines/<experiment>.json`, and a drop of more than the
//! tolerance (10% by default) fails the job with a per-metric delta
//! table. `bench_check` is the front end.
//!
//! Each headline metric declares its [`MetricKind`]:
//!
//! * **deterministic** metrics (simulated-cycle ratios, bit-identity
//!   flags) are exact run to run, so their baselines are tight;
//! * **wall-clock** metrics (build/run speedups measured on the host) are
//!   noisy on shared CI boxes, so their committed baselines are set
//!   conservatively and only large regressions trip the gate.
//!
//! Baselines are refreshed by re-running the benches and passing
//! `--write-baselines` (see the README's bench-gate workflow).

use crate::json::Json;
use crate::{Metric, MetricKind};

/// Relative drop that fails the gate (10%).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// The checked-in baseline value (`None` = metric missing from the
    /// baseline file, reported but not gated).
    pub baseline: Option<f64>,
    /// The freshly measured value (`None` = metric vanished from the
    /// artifact, which is itself a regression).
    pub current: Option<f64>,
    /// Whether the measured metric is wall clock (see [`MetricKind`]).
    pub wall_clock: bool,
    /// Whether this row fails the gate.
    pub regressed: bool,
}

impl Delta {
    /// `current / baseline - 1`, when both sides exist and the baseline
    /// is nonzero.
    pub fn relative_change(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some(c / b - 1.0),
            _ => None,
        }
    }
}

/// The baseline file name for an artifact (`dir/BENCH_foo.json` →
/// `foo.json`).
///
/// # Errors
///
/// A file not named `BENCH_<experiment>.json`, so a typo in CI fails
/// loudly.
pub fn baseline_file_for(artifact: &str) -> Result<String, String> {
    artifact
        .rsplit('/')
        .next()
        .and_then(|file| file.strip_prefix("BENCH_"))
        .filter(|file| file.len() > ".json".len() && file.ends_with(".json"))
        .map(str::to_string)
        .ok_or_else(|| format!("`{artifact}` is not a BENCH_<experiment>.json artifact"))
}

/// Reads the headline back out of a parsed artifact.
///
/// # Errors
///
/// A document without a `headline` array, an entry missing its string
/// `name`, numeric `value` or known `kind`, or an empty headline (the
/// experiment is not gated).
pub fn read_headline(doc: &Json) -> Result<Vec<Metric>, String> {
    let entries = doc
        .get("headline")
        .and_then(Json::as_arr)
        .ok_or("expected a `headline` array (is this a gnnie-bench artifact?)")?;
    if entries.is_empty() {
        return Err("the headline is empty: this experiment is not gated".into());
    }
    entries
        .iter()
        .map(|e| {
            let name =
                e.get("name").and_then(Json::as_str).ok_or("headline entry without `name`")?;
            let value = e
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("headline `{name}` has no numeric `value`"))?;
            let kind = match e.get("kind").and_then(Json::as_str) {
                Some("deterministic") => MetricKind::Deterministic,
                Some("wall_clock") => MetricKind::WallClock,
                _ => return Err(format!("headline `{name}` has no known `kind`")),
            };
            Ok(Metric { name: name.to_string(), value, kind })
        })
        .collect()
}

/// The values a `--write-baselines` refresh stores: the fresh headline,
/// except that a wall-clock metric already in the committed baseline
/// keeps its committed value. A fast dev box must not raise it (CI
/// runners could never meet it) and one slow CI box must not lower it
/// (the gate would silently erode); changing it is a manual edit of the
/// baseline file. Deterministic metrics are refreshed verbatim.
pub fn refreshed_baseline(prev: &[(String, f64)], current: &[Metric]) -> Vec<(String, f64)> {
    let committed = |m: &Metric| prev.iter().find(|(name, _)| *name == m.name).map(|p| p.1);
    let frozen = |m: &Metric| committed(m).filter(|_| m.kind == MetricKind::WallClock);
    current.iter().map(|m| (m.name.clone(), frozen(m).unwrap_or(m.value))).collect()
}

/// Reads the `{"artifact": ..., "metrics": {...}}` baseline document.
///
/// # Errors
///
/// Malformed documents, or a non-numeric metric value.
pub fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(text)?;
    let members = match doc.get("metrics") {
        Some(Json::Obj(members)) => members,
        _ => return Err("baseline: expected a `metrics` object".into()),
    };
    members
        .iter()
        .map(|(name, v)| {
            v.as_f64()
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("baseline metric `{name}` is not a number"))
        })
        .collect()
}

/// Renders a baseline document for `--write-baselines`.
pub fn render_baseline(artifact: &str, metrics: &[(String, f64)]) -> String {
    let mut out = format!("{{\n  \"artifact\": \"{artifact}\",\n  \"metrics\": {{\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {value:.4}{}\n",
            if i + 1 == metrics.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// One line per metric describing how a `--write-baselines` refresh
/// changed the committed baseline — `old -> new (+x.x%)`, `new`,
/// `removed`, or `unchanged` — so a refresh says what it did instead of
/// rewriting silently. `prev` is the previously committed baseline
/// (empty when the file did not exist); `next` is what is about to be
/// written, *after* wall-clock freezing, so a frozen metric correctly
/// reads `unchanged`. Values are compared at the 4-decimal precision
/// the baseline file stores, so re-parsing noise never shows as drift.
pub fn render_refresh_summary(prev: &[(String, f64)], next: &[(String, f64)]) -> Vec<String> {
    let value = |list: &[(String, f64)], name: &str| {
        list.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let removed = prev.iter().filter(|(name, _)| value(next, name).is_none());
    next.iter()
        .chain(removed)
        .map(|(name, _)| {
            let (old, new) = (value(prev, name), value(next, name));
            let rounded = |v: Option<f64>| v.map_or_else(|| "--".into(), |v| format!("{v:.4}"));
            let status = match (old, new) {
                (None, _) => "  new".to_string(),
                (_, None) => "  removed".to_string(),
                _ if rounded(old) == rounded(new) => "  unchanged".to_string(),
                (Some(o), Some(n)) if o != 0.0 => format!("  ({:+.1}%)", (n / o - 1.0) * 100.0),
                _ => String::new(),
            };
            format!("  {name:<34} {:>10} -> {:>10}{status}", rounded(old), rounded(new))
        })
        .collect()
}

/// Compares fresh metrics against the baseline: a metric regresses when
/// it drops more than `tolerance` below its baseline (all gate metrics
/// are higher-is-better), when it is not a finite number, or when it
/// disappears from the artifact. Metrics present only in the artifact
/// are informational.
pub fn compare(baseline: &[(String, f64)], current: &[Metric], tolerance: f64) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for (name, b) in baseline {
        let c = current.iter().find(|m| m.name == *name);
        let regressed = match c {
            None => true,
            Some(m) => !m.value.is_finite() || m.value < b * (1.0 - tolerance),
        };
        deltas.push(Delta {
            name: name.clone(),
            baseline: Some(*b),
            current: c.map(|m| m.value),
            wall_clock: c.is_some_and(|m| m.kind == MetricKind::WallClock),
            regressed,
        });
    }
    for m in current {
        if !baseline.iter().any(|(name, _)| *name == m.name) {
            deltas.push(Delta {
                name: m.name.clone(),
                baseline: None,
                current: Some(m.value),
                wall_clock: m.kind == MetricKind::WallClock,
                regressed: false,
            });
        }
    }
    deltas
}

/// Downgrades regressed **wall-clock** deltas to informational, returning
/// the names downgraded. `bench_check` applies this when the runner
/// reports a single core: multi-thread / multi-shard wall-clock speedups
/// are physically unreachable there (forced workers only add overhead),
/// so those rows must not fail the gate — the deterministic
/// simulated-cycle metrics still do.
pub fn demote_wall_clock_regressions(deltas: &mut [Delta]) -> Vec<String> {
    let mut demoted = Vec::new();
    for d in deltas.iter_mut() {
        if d.regressed && d.wall_clock {
            d.regressed = false;
            demoted.push(d.name.clone());
        }
    }
    demoted
}

/// Renders the per-metric delta table for one artifact.
pub fn render_deltas(artifact: &str, deltas: &[Delta], tolerance: f64) -> Vec<String> {
    let mut lines =
        vec![format!("{artifact} (fail below {:.0}% of baseline):", (1.0 - tolerance) * 100.0)];
    for d in deltas {
        let fmt = |v: Option<f64>| v.map_or_else(|| "--".to_string(), |x| format!("{x:.4}"));
        let change =
            d.relative_change().map_or_else(String::new, |r| format!("  ({:+.1}%)", r * 100.0));
        let status = if d.regressed {
            "REGRESSED"
        } else if d.baseline.is_none() {
            "new (ungated)"
        } else {
            "ok"
        };
        lines.push(format!(
            "  {:<34} baseline {:>10}  current {:>10}{change}  {status}",
            d.name,
            fmt(d.baseline),
            fmt(d.current),
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchReport;

    fn values(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    fn deterministic(pairs: &[(&str, f64)]) -> Vec<Metric> {
        pairs.iter().map(|&(n, v)| Metric::deterministic(n, v)).collect()
    }

    #[test]
    fn headline_round_trips_through_the_writer_and_the_reader() {
        let report = BenchReport {
            rows: vec![crate::json_obj! {"threads": 4usize, "ms": 1.8251}],
            headline: vec![
                Metric::flag("flag", true),
                Metric::wall_clock("wall", 1.8251),
                Metric::deterministic("ratio", 1.0 / 3.0),
            ],
        };
        let text = report.to_json("exp").render().unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("exp"));
        assert_eq!(doc.get("rows").and_then(Json::as_arr), Some(&report.rows[..]));
        assert_eq!(read_headline(&doc).unwrap(), report.headline);
    }

    #[test]
    fn malformed_or_ungated_headlines_are_rejected() {
        let empty = BenchReport::default().to_json("table3_configs");
        assert!(read_headline(&empty).unwrap_err().contains("not gated"));
        assert!(read_headline(&Json::Arr(vec![])).is_err());
        for entry in [
            r#"{"headline": [{"value": 1, "kind": "deterministic"}]}"#,
            r#"{"headline": [{"name": "a", "kind": "deterministic"}]}"#,
            r#"{"headline": [{"name": "a", "value": 1, "kind": "fast"}]}"#,
        ] {
            assert!(read_headline(&Json::parse(entry).unwrap()).is_err(), "{entry}");
        }
    }

    #[test]
    fn baseline_names_map_and_unknown_artifacts_fail() {
        assert_eq!(baseline_file_for("BENCH_foo.json").unwrap(), "foo.json");
        assert_eq!(baseline_file_for("some/dir/BENCH_bar_baz.json").unwrap(), "bar_baz.json");
        for bad in ["foo.json", "BENCH_.json", "BENCH_x.txt", "dir/BENCH_x"] {
            assert!(baseline_file_for(bad).is_err(), "{bad}");
        }
    }

    /// The headline the gate reads back from a result's artifact text.
    fn gated_headline(result: &crate::ExperimentResult) -> Result<Vec<Metric>, String> {
        let text = result.report.to_json("exp").render().unwrap();
        read_headline(&Json::parse(&text).unwrap())
    }

    #[test]
    fn serving_metrics_take_the_worst_row() {
        use crate::experiments::serving_throughput::{render, SweepRow};
        use gnnie_serve::{
            Dataset, GnnModel, InferenceRequest, RequestOutcome, SchedulerPolicy, ServeReport,
        };
        // At a 1 Hz clock the throughput is requests per pipelined cycle.
        let row = |requests: usize, pipelined: u64, serial: u64| {
            let outcome = RequestOutcome {
                request: InferenceRequest::new(0, GnnModel::Gcn, Dataset::Cora, 0.1, 0),
                batch: 0,
                weights_resident: false,
                batched_cycles: pipelined,
                serial_cycles: serial,
                latency_s: 1.0,
            };
            let report = ServeReport {
                policy: SchedulerPolicy::Fifo,
                max_batch: 1,
                requests: vec![outcome; requests],
                batches: Vec::new(),
                pipelined_total_cycles: pipelined,
                batched_serial_cycles: serial,
                serial_total_cycles: serial,
                weight_load_cycles_saved: 0,
                clock_hz: 1.0,
            };
            SweepRow { mix: "mix", policy: SchedulerPolicy::Fifo, max_batch: 1, report }
        };
        // Each minimum comes from a different row.
        let rows = [row(1, 4, 8), row(8, 4, 6)];
        assert_eq!(
            gated_headline(&render(&rows)).unwrap(),
            deterministic(&[
                ("min_speedup_vs_serial", 1.5),
                ("min_throughput_inferences_per_s", 0.25),
            ])
        );
        let empty = render(&[]);
        assert!(empty.failed_check.is_some());
        assert!(gated_headline(&empty).is_err(), "an empty sweep cannot be gated");
    }

    #[test]
    fn ingest_and_parallel_metrics_fold_flags_and_speedups() {
        use crate::experiments::ingest_throughput::{
            self, IngestRow, IngestSweep, OutOfCoreRow,
        };
        use crate::experiments::parallel_speedup::{self, SpeedupRow};
        use gnnie_graph::Dataset;
        use gnnie_ingest::EdgeListFormat;
        // The width=1 / threads=1 rows rerun the serial path (~1x by
        // construction) and must NOT feed the wall-clock maximum — a
        // broken parallel path cannot hide behind them.
        let build = |width: usize, speedup: f64| IngestRow {
            format: EdgeListFormat::Whitespace,
            width,
            parse_ms: 1.0,
            build_ms: 1.0,
            serial_build_ms: speedup,
            speedup,
            matches_serial: true,
            vertices: 64,
            input_edges: 256,
        };
        let mut ingest = IngestSweep {
            rows: vec![build(1, 2.5), build(4, 0.9), build(8, 2.1)],
            cache: Vec::new(),
            outofcore: OutOfCoreRow {
                vertices: 64,
                input_edges: 256,
                chunk_bytes: 1 << 20,
                chunked_build_ms: 1.0,
                inmem_build_ms: 1.0,
                bit_identical: true,
                snapshot_load_ms: 1.0,
                reparse_ms: 12.5,
                load_speedup_vs_reparse: 12.5,
                mmap: false,
            },
        };
        // The snapshot-load speedup is wall clock; the identity flags are
        // deterministic, so they still gate on a single-core runner.
        assert_eq!(
            gated_headline(&ingest_throughput::render(&ingest)).unwrap(),
            vec![
                Metric::flag("bit_identical", true),
                Metric::wall_clock("max_build_speedup_vs_serial", 2.1),
                Metric::flag("outofcore_bit_identical", true),
                Metric::wall_clock("outofcore_load_speedup_vs_reparse", 12.5),
            ]
        );
        ingest.rows.retain(|r| r.width == 1);
        assert!(gated_headline(&ingest_throughput::render(&ingest)).is_err());

        let run = |threads: usize, speedup: f64, identical: bool| SpeedupRow {
            dataset: Dataset::Cora,
            threads,
            run_ms: 1.0,
            serial_ms: speedup,
            speedup,
            identical,
            total_cycles: 1000,
        };
        let mut parallel = vec![run(1, 1.0, true), run(4, 1.8, false)];
        let result = parallel_speedup::render(&parallel);
        assert!(result.failed_check.is_some(), "a diverged row fails the run");
        assert_eq!(
            gated_headline(&result).unwrap(),
            vec![
                Metric::flag("bit_identical", false),
                Metric::wall_clock("max_speedup_vs_serial", 1.8),
            ]
        );
        // A sweep with only trivial rows cannot be gated.
        parallel.truncate(1);
        assert!(gated_headline(&parallel_speedup::render(&parallel)).is_err());
    }

    #[test]
    fn online_metrics_read_the_headline_fields() {
        use crate::experiments::online_serving::{render, OnlineServingResult, RateRow};
        use gnnie_serve::OnlineReport;
        let report = OnlineReport {
            outcomes: Vec::new(),
            rejected: Vec::new(),
            batches: Vec::new(),
            makespan_cycles: 0,
            clock_hz: 1.0,
            max_batch: 1,
            admission_control: false,
        };
        let mut result = OnlineServingResult {
            rows: vec![RateRow { factor: 0.25, rate_rps: 100.0, report, sustained: true }],
            service_rate_rps: 400.0,
            p99_bound_s: 1e-3,
            sustained_rps_at_p99: 1234.5,
            daemon_vs_static_cycle_ratio: 1.07,
            static_pipelined_cycles: 107,
            online_makespan_cycles: 100,
        };
        assert_eq!(
            baseline_file_for("artifacts/BENCH_online_serving.json").unwrap(),
            "online_serving.json"
        );
        // Both metrics are simulated-cycle numbers, not wall clock.
        assert_eq!(
            gated_headline(&render(&result)).unwrap(),
            deterministic(&[
                ("sustained_rps_at_p99", 1234.5),
                ("daemon_vs_static_cycle_ratio", 1.07),
            ])
        );
        // Shape drift fails loudly.
        result.rows.clear();
        assert!(gated_headline(&render(&result)).is_err());
    }

    #[test]
    fn scaleout_metrics_reduce_the_4_chip_rows() {
        use crate::experiments::scaleout::{render, ScaleoutRow};
        use gnnie_graph::Dataset;
        let row = |dataset, chips, speedup| ScaleoutRow {
            dataset,
            chips,
            total_cycles: 1000,
            speedup,
            inter_chip_bytes: 0,
            inter_chip_cycles: 0,
        };
        let rows = [
            row(Dataset::Cora, 1, 1.0),
            row(Dataset::Cora, 4, 0.6),
            row(Dataset::Ppi, 4, 2.0),
            row(Dataset::Reddit, 4, 4.5),
            row(Dataset::Reddit, 8, 6.1),
        ];
        // Simulated-cycle numbers, not wall clock: gated tightly even on a
        // single-core runner.
        assert_eq!(
            gated_headline(&render(&rows, &[])).unwrap(),
            deterministic(&[
                ("max_speedup_at_4_chips", 4.5),
                ("datasets_scaling_at_4_chips", 2.0)
            ])
        );
        assert_eq!(baseline_file_for("BENCH_scaleout.json").unwrap(), "scaleout.json");
        // A sweep with no 4-chip rows cannot be gated.
        assert!(gated_headline(&render(&rows[..1], &[])).is_err());
    }

    #[test]
    fn single_core_demotion_spares_wall_clock_rows_only() {
        let base = values(&[("wall_a", 2.0), ("flag", 1.0), ("wall_b", 1.8)]);
        let cur = vec![
            Metric::wall_clock("wall_a", 0.9), // unreachable on one core
            Metric::flag("flag", false),       // real regression, must survive
            Metric::wall_clock("wall_b", 0.8),
        ];
        let mut deltas = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(deltas.iter().filter(|d| d.regressed).count(), 3);
        let demoted = demote_wall_clock_regressions(&mut deltas);
        assert_eq!(demoted, vec!["wall_a".to_string(), "wall_b".to_string()]);
        let still: Vec<&str> =
            deltas.iter().filter(|d| d.regressed).map(|d| d.name.as_str()).collect();
        assert_eq!(still, vec!["flag"], "deterministic metrics still gate");
    }

    #[test]
    fn compare_flags_drops_beyond_tolerance_and_missing_metrics() {
        let base = values(&[("a", 1.0), ("b", 100.0), ("gone", 5.0)]);
        let cur = deterministic(&[("a", 0.91), ("b", 85.0), ("extra", 7.0)]);
        let deltas = compare(&base, &cur, DEFAULT_TOLERANCE);
        let by_name = |n: &str| deltas.iter().find(|d| d.name == n).unwrap();
        assert!(!by_name("a").regressed, "9% down is within the 10% gate");
        assert!(by_name("b").regressed, "15% down fails");
        assert!(by_name("gone").regressed, "vanished metric fails");
        assert!(!by_name("extra").regressed, "new metric is informational");
        let rendered = render_deltas("BENCH_x.json", &deltas, DEFAULT_TOLERANCE).join("\n");
        assert!(rendered.contains("REGRESSED") && rendered.contains("ok"), "{rendered}");
    }

    #[test]
    fn non_finite_current_values_regress() {
        // `NaN < b * 0.9` is false, so a plain threshold test would pass
        // a NaN headline.
        let base = values(&[("nan", 1.0), ("inf", 1.0), ("neg_inf", 1.0)]);
        let cur = deterministic(&[
            ("nan", f64::NAN),
            ("inf", f64::INFINITY),
            ("neg_inf", f64::NEG_INFINITY),
        ]);
        for d in compare(&base, &cur, DEFAULT_TOLERANCE) {
            assert!(d.regressed, "{} = {:?} must regress", d.name, d.current);
        }
    }

    #[test]
    fn refresh_summary_names_changed_added_removed_and_unchanged() {
        let prev = values(&[("kept", 2.0), ("moved", 100.0), ("dropped", 5.0)]);
        let next = values(&[("kept", 2.0), ("moved", 120.0), ("added", 7.0)]);
        let lines = render_refresh_summary(&prev, &next).join("\n");
        assert!(lines.contains("kept") && lines.contains("unchanged"), "{lines}");
        assert!(
            lines.contains("100.0000 ->   120.0000  (+20.0%)"),
            "change shows old, new, and percent: {lines}"
        );
        assert!(lines.contains("added") && lines.contains("new"), "{lines}");
        assert!(lines.contains("dropped") && lines.contains("removed"), "{lines}");
        // Values that only differ past the stored 4-decimal precision do
        // not read as drift.
        let noisy =
            render_refresh_summary(&values(&[("x", 1.23456789)]), &values(&[("x", 1.23459)]))
                .join("\n");
        assert!(noisy.contains("unchanged"), "{noisy}");
        // A first-ever refresh (no committed baseline) lists every
        // metric as new.
        let first = render_refresh_summary(&[], &values(&[("a", 1.0)])).join("\n");
        assert!(first.contains("a") && first.contains("new"), "{first}");
    }

    #[test]
    fn baselines_roundtrip_through_render_and_parse() {
        let m = values(&[("m", 1.8251), ("flag", 1.0)]);
        let text = render_baseline("BENCH_foo.json", &m);
        assert_eq!(parse_baseline(&text).unwrap(), m);
        assert!(parse_baseline("{\"metrics\": 3}").is_err());
    }
}
