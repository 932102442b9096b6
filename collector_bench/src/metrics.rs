//! Metric names and units, and the result line.

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("encode_mrps", "Mreports/s"),
    ("wire_bytes_per_report", "B"),
    ("ingest_cpu_mrps", "Mreports/cpu-s"),
    ("ack_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("release_ms", "ms"),
    ("marginal_tvd", "tvd"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time the traced run reports as `<layer>.self_ms`.
pub const LAYERS: [&str; 10] = [
    "data", "encode", "wire", "decode", "absorb", "server", "state", "estimate", "loadgen", "run",
];

/// Per-layer metrics of the traced run (besides the `<layer>.self_ms`
/// self times and the tracing overheads `run.py` adds).
pub const PER_LAYER: [(&str, &str); 27] = [
    ("data.generate_s", "s"),
    ("encode.ns_per_report", "ns"),
    ("wire.frame_write_ns_per_report", "ns"),
    ("wire.frame_read_ns_per_report", "ns"),
    ("decode.ns_per_report", "ns"),
    ("absorb.ns_per_report", "ns"),
    ("ingest.replay_ns_per_report", "ns"),
    ("server.remainder_ns_per_report", "ns"),
    ("server.ingest_wall_mrps", "Mreports/s"),
    ("server.ack_p99_ms", "ms"),
    ("server.query_p90_ms", "ms"),
    ("server.connect_ack_ms", "ms"),
    ("server.stats_rtt_ms", "ms"),
    ("server.query_idle_ms", "ms"),
    ("server.snapshot_ms", "ms"),
    ("server.acked_ratio", "ratio"),
    ("server.rejected_frames", "count"),
    ("state.snapshot_bytes", "B"),
    ("state.to_bytes_us", "us"),
    ("state.from_state_us", "us"),
    ("state.merge_us", "us"),
    ("estimate.finalize_us", "us"),
    ("estimate.marginal_us", "us"),
    ("estimate.em_iterations", "count"),
    ("estimate.em_failed", "count"),
    ("loadgen.late_events", "count"),
    ("loadgen.max_lateness_ms", "ms"),
];

/// Unit of a metric this binary emits.
pub fn unit_of(name: &str) -> Option<&'static str> {
    if let Some(layer) = name.strip_suffix(".self_ms") {
        return LAYERS.contains(&layer).then_some("ms");
    }
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// The result line: one JSON object, values with all their digits.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, value)| {
            let unit = unit_of(name).unwrap_or("");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric name this binary can emit.
    fn all_names() -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| (*n).to_string())
            .chain(LAYERS.iter().map(|l| format!("{l}.self_ms")))
            .collect()
    }

    /// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names = all_names();
        for name in &names {
            assert!(valid_name(name), "{name}");
            assert!(unit_of(name).is_some(), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(!valid_name("ack p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for name in all_names().iter().skip(END_TO_END.len()) {
            let unit = unit_of(name).unwrap();
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                ("ack_p50_ms".to_string(), 1.25),
                ("x".to_string(), f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ack_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
