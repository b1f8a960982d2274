//! The benchmark's metric catalogue, run conditions, and result output.

use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_ms_geomean", "ms"),
    ("rl_compile_ms_geomean", "ms"),
    ("exec_ms_geomean", "ms"),
    ("noise_bits_geomean", "bits"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, reported by every workload from a traced run. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.cleanup_ms", "ms"),
    ("trs.greedy_ms", "ms"),
    ("trs.ms_per_step", "ms"),
    ("core.keyplan_ms", "ms"),
    ("core.codegen_ms", "ms"),
    ("rl.optimize_ms", "ms"),
    ("rl.train_s", "s"),
    ("rl.cost_ratio_geomean", "ratio"),
    ("trs.greedy_steps", "count"),
    ("ir.nodes_after", "count"),
    ("fhe.ops.ct_ct_mul", "count"),
    ("fhe.ops.ct_pt_mul", "count"),
    ("fhe.ops.rot", "count"),
    ("fhe.ops.add", "count"),
    ("core.session_ms", "ms"),
    ("fhe.galois_keys", "count"),
    ("core.bind_ms", "ms"),
    ("core.bind_share_pct", "%"),
    ("runtime.execute_ms", "ms"),
    ("core.decrypt_ms", "ms"),
    ("runtime.dispatch_ms", "ms"),
    ("fhe.op.mul_us", "us"),
    ("fhe.op.rot_us", "us"),
    ("fhe.op.add_us", "us"),
    ("fhe.op.pack_us", "us"),
    ("fhe.ntt_per_request", "count"),
    ("fhe.arena_fresh_per_request", "count"),
    ("runtime.instr_queue_wait_us", "us"),
    ("runtime.steals_per_request", "count"),
    ("runtime.intra_op_splits_per_request", "count"),
    ("serving.queue_wait_ms_p50", "ms"),
    ("serving.queue_wait_ms_tail", "ms"),
    ("serving.utilization", "share"),
    ("serving.shed", "count"),
    ("serving.deadline_missed", "count"),
    ("serving.max_rate_at_slo_rps", "1/s"),
    ("batching.mean_batch_size", "count"),
    ("batching.lane_occupancy_pct", "%"),
    ("batching.linger_ms_p50", "ms"),
    ("batching.batch_wall_ms", "ms"),
    ("gen.lateness_ms_tail", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.compile_gap_pct", "%"),
    ("trace.request_gap_pct", "%"),
];

/// Largest share by which the traced phases may miss the wall they
/// decompose (compile phases against the compile wall; bind + execute +
/// decrypt against the request wall).
pub const PHASE_SUM_TOLERANCE_PCT: f64 = 10.0;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Kernels or requests whose output was checked.
    pub attempted: u64,
    /// Checked outputs that differed from the plaintext reference, or
    /// requests that failed for a reason other than shedding or a deadline.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Problems that make the run unusable although every output was right
    /// (phase sums out of tolerance, a generator that fell behind).
    pub invalid: Vec<String>,
}

impl Outcome {
    /// Records one metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The conditions a result was measured under. Results are comparable only
/// when every field agrees.
#[derive(Debug, Clone, PartialEq)]
pub struct Conditions {
    pub workload: String,
    pub simd: String,
    pub payload_degree: usize,
    pub limb_count: usize,
    pub nproc: usize,
    pub traced: bool,
    pub commit: String,
    /// Empty when the run is usable; otherwise why it is not.
    pub invalid: Vec<String>,
}

impl Conditions {
    /// The conditions line printed before the result.
    pub fn to_json(&self) -> String {
        let invalid = self.invalid.iter().map(|r| Value::Str(r.clone())).collect();
        to_json(object(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("simd", Value::Str(self.simd.clone())),
            ("payload_degree", serde::to_value(&self.payload_degree)),
            ("limb_count", serde::to_value(&self.limb_count)),
            ("nproc", serde::to_value(&self.nproc)),
            ("traced", Value::Bool(self.traced)),
            ("commit", Value::Str(self.commit.clone())),
            ("valid", Value::Bool(self.invalid.is_empty())),
            ("invalid", Value::Array(invalid)),
        ]))
    }
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn to_json(value: Value) -> String {
    serde_json::to_string(&value).expect("a JSON value always renders")
}

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

/// The member `key` of a JSON object.
fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.field(key).ok()
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(v) => Some(*v),
        Value::Int(v) => Some(*v as f64),
        Value::UInt(v) => Some(*v as f64),
        _ => None,
    }
}

/// Prefix of the conditions line in the benchmark's output.
pub const CONDITIONS_PREFIX: &str = "conditions ";

/// The final result line: every metric of the requested kind, by name with
/// its unit. Per-layer metrics the workload did not set read 0 (the layer
/// was bypassed); a missing end-to-end metric is a bug in the workload.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let entry = object(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    to_json(object(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", serde::to_value(&outcome.attempted.max(1))),
        ("failed", serde::to_value(&outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]))
}

/// Compares two saved benchmark outputs (the conditions line and the final
/// result line of each). Refuses when their conditions differ; otherwise
/// returns one line per shared metric with the ratio `b / a`.
pub fn compare(a: &str, b: &str) -> Result<Vec<String>, String> {
    let (cond_a, result_a) = parse_output(a)?;
    let (cond_b, result_b) = parse_output(b)?;
    for cond in [&cond_a, &cond_b] {
        if get(cond, "valid") != Some(&Value::Bool(true)) {
            return Err(format!(
                "an invalid run cannot be compared: {:?}",
                get(cond, "invalid")
            ));
        }
    }
    if cond_a != cond_b {
        let keys = |c: &Value| -> Vec<String> {
            c.object_fields("conditions")
                .map_or(Vec::new(), |f| f.iter().map(|(k, _)| k.clone()).collect())
        };
        let mut diffs: Vec<String> = Vec::new();
        for key in keys(&cond_a).into_iter().chain(keys(&cond_b)) {
            let (va, vb) = (get(&cond_a, &key), get(&cond_b, &key));
            if va != vb && !diffs.iter().any(|d| d.starts_with(key.as_str())) {
                diffs.push(format!("{key}: {va:?} vs {vb:?}"));
            }
        }
        return Err(format!("run conditions differ: {}", diffs.join("; ")));
    }
    let metrics_a = get(&result_a, "metrics").ok_or("first result has no metrics")?;
    let metrics_b = get(&result_b, "metrics").ok_or("second result has no metrics")?;
    let entries = metrics_a
        .object_fields("metrics")
        .map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for (name, entry) in entries {
        let va = get(entry, "value").and_then(number);
        let vb = get(metrics_b, name)
            .and_then(|e| get(e, "value"))
            .and_then(number);
        if let (Some(va), Some(vb)) = (va, vb) {
            let unit = match get(entry, "unit") {
                Some(Value::Str(unit)) => unit.as_str(),
                _ => "",
            };
            let ratio = if va != 0.0 {
                format!("{:.4}", vb / va)
            } else {
                "n/a".to_string()
            };
            lines.push(format!(
                "{name:40} {va:>14.4} {vb:>14.4} {unit:>6}  b/a {ratio}"
            ));
        }
    }
    Ok(lines)
}

fn parse_output(text: &str) -> Result<(Value, Value), String> {
    let conditions = text
        .lines()
        .find_map(|l| l.strip_prefix(CONDITIONS_PREFIX))
        .ok_or("no conditions line")?;
    let result = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    Ok((parse(conditions)?, parse(result)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conditions(simd: &str) -> Conditions {
        Conditions {
            workload: "serve-mixed".into(),
            simd: simd.into(),
            payload_degree: 4096,
            limb_count: 2,
            nproc: 2,
            traced: false,
            commit: "abc".into(),
            invalid: Vec::new(),
        }
    }

    fn output(simd: &str, latency: f64) -> String {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.0);
        }
        outcome.set("latency_p50_ms", latency);
        outcome.check(true);
        format!(
            "{CONDITIONS_PREFIX}{}\n{}\n",
            conditions(simd).to_json(),
            result_line(&outcome, false)
        )
    }

    #[test]
    fn result_line_carries_every_metric() {
        let text = output("Avx2", 2.5);
        let result = parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(get(&result, "correct"), Some(&Value::Bool(true)));
        let metrics = get(&result, "metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = get(metrics, name).unwrap();
            assert_eq!(get(entry, "unit"), Some(&Value::Str(unit.to_string())));
            assert!(get(entry, "value").and_then(number).is_some());
        }
    }

    #[test]
    fn compare_refuses_differing_conditions() {
        let lines = compare(&output("Avx2", 2.0), &output("Avx2", 3.0)).unwrap();
        assert!(lines
            .iter()
            .any(|l| l.starts_with("latency_p50_ms") && l.ends_with("1.5000")));
        let err = compare(&output("Avx2", 2.0), &output("Scalar", 2.0)).unwrap_err();
        assert!(err.contains("simd"), "{err}");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).unwrap();
        let text_of = |m: &Value, key: &str| match get(m, key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        };
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = get(&doc, key)
                .unwrap()
                .as_array(key)
                .unwrap()
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit")))
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key} in BENCHMARK.json");
        }
    }
}
