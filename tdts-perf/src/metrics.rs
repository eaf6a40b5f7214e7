//! The metric catalogue and the result record of one run.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

use tdts_bench::Json;

use crate::json::{as_f64, as_str, get};

/// One end-to-end metric: name, unit, which direction is better, and the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
    e2e("ok_frac", "fraction", true, 0.02),
    e2e("search_qps", "queries/s", true, 0.25),
    e2e("sim_response_s", "s", false, 0.25),
    e2e("req_p50_ms", "ms", false, 0.25),
    e2e("req_p99_ms", "ms", false, 0.25),
    e2e("sat_rps", "req/s", true, 0.25),
    e2e("advance_p50_ms", "ms", false, 0.25),
    e2e("advance_p90_ms", "ms", false, 0.25),
];

/// Every method a workload can run, by `Method::name()`.
pub const ALL_METHODS: [&str; 5] =
    ["CPU-RTree", "GPUSpatial", "GPUTemporal", "GPUBatchedTemporal", "GPUSpatioTemporal"];
/// The methods with a simulated device (all but the CPU baseline).
pub const GPU_METHODS: [&str; 4] =
    ["GPUSpatial", "GPUTemporal", "GPUBatchedTemporal", "GPUSpatioTemporal"];
/// The methods `merger-sharded` runs.
pub const SHARDED_METHODS: [&str; 3] = ["GPUTemporal", "GPUBatchedTemporal", "GPUSpatioTemporal"];

/// The simulated device phases, as named in the per-layer metrics.
pub const PHASES: [&str; 5] = ["host", "h2d", "launch", "exec", "d2h"];

/// Every per-layer metric name with its unit, in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    let each = |prefix: &str, methods: &[&str]| -> Vec<String> {
        methods.iter().map(|m| format!("{prefix}.{m}")).collect()
    };
    add("data.generate_s".into(), "s");
    add("geom.prepare_s".into(), "s");
    each("core.build_s", &ALL_METHODS).into_iter().for_each(|n| add(n, "s"));
    add("service.start_s".into(), "s");
    each("core.search_wall_s", &ALL_METHODS).into_iter().for_each(|n| add(n, "s"));
    each("core.host_per_sim", &GPU_METHODS).into_iter().for_each(|n| add(n, "ratio"));
    for phase in PHASES {
        each(&format!("gpu-sim.sim_s.{phase}"), &GPU_METHODS).into_iter().for_each(|n| add(n, "s"));
    }
    for (counter, unit) in [
        ("kernel_invocations", "count"),
        ("redo_rounds", "count"),
        ("atomics", "count"),
        ("h2d_bytes", "bytes"),
        ("d2h_bytes", "bytes"),
        ("warp_spread", "ratio"),
        ("dedup_keep", "fraction"),
    ] {
        each(&format!("gpu-sim.{counter}"), &GPU_METHODS).into_iter().for_each(|n| add(n, unit));
    }
    add("gpu-sim.sim_repeat".into(), "flag");
    each("index.comparisons", &ALL_METHODS).into_iter().for_each(|n| add(n, "count"));
    each("index.selectivity", &ALL_METHODS).into_iter().for_each(|n| add(n, "fraction"));
    add("index-spatiotemporal.fallback_frac".into(), "fraction");
    each("core.shard_build_s", &SHARDED_METHODS).into_iter().for_each(|n| add(n, "s"));
    for (name, unit) in [
        ("core.shard.dispatch_frac", "fraction"),
        ("core.shard.budget_redos", "count"),
        ("core.shard.replication", "ratio"),
        ("core.shard.dup_drop_frac", "fraction"),
        ("core.shard.imbalance", "ratio"),
        ("service.submit_p99_us", "us"),
        ("service.wait_p50_ms", "ms"),
        ("service.wait_p99_ms", "ms"),
        ("service.batch_queries", "queries"),
        ("service.batch_latency_ms", "ms"),
        ("service.batch_wall_ms", "ms"),
        ("service.batch_sim_ms", "ms"),
        ("service.queue_depth_max", "count"),
        ("service.rejected", "count"),
        ("service.timed_out", "count"),
        ("service.fallback_batches", "count"),
        ("service.ingest_segments_per_s", "segments/s"),
        ("service.expired_per_advance", "segments"),
        ("service.req_p99_during_advance_ms", "ms"),
        ("service.gen_late_p99_ms", "ms"),
    ] {
        add(name.into(), unit);
    }
    out
}

/// Whether a larger value of per-layer metric `name` is the better one
/// (useful work per attempt, repeatability, coalescing, ingest rate).
pub fn layer_higher_is_better(name: &str) -> bool {
    [
        "gpu-sim.dedup_keep.",
        "gpu-sim.sim_repeat",
        "index.selectivity.",
        "service.batch_queries",
        "service.ingest_segments_per_s",
        "service.expired_per_advance",
    ]
    .iter()
    .any(|prefix| name.starts_with(prefix))
}

/// Measured values by metric name. A layer a workload does not exercise
/// keeps the value 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The sample count behind a percentile metric, and the highest
/// percentile that count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    pub metric: String,
    pub count: usize,
    pub supported_percentile: Option<f64>,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub host: Json,
    /// Every end-to-end metric (traced runs measure them too, so the
    /// tracing overhead is their difference from an untraced run).
    pub end_to_end: Values,
    /// Every per-layer metric (traced runs only; empty otherwise).
    pub per_layer: Values,
    pub samples: Vec<Samples>,
    /// Simulated counters of every search, pass by pass.
    pub sim_passes: Json,
}

pub const SCHEMA: &str = "tdts-perf/1";

fn values_json(values: &Values, catalogue: &[(String, &'static str)]) -> Json {
    Json::Obj(
        catalogue
            .iter()
            .filter_map(|(name, unit)| {
                values
                    .get(name)
                    .map(|v| (name.clone(), Json::obj().field("value", v).field("unit", *unit)))
            })
            .collect(),
    )
}

fn values_from(json: Option<&Json>) -> Values {
    let mut values = Values::default();
    if let Some(Json::Obj(fields)) = json {
        for (name, entry) in fields {
            if let Some(v) = get(entry, "value").and_then(as_f64) {
                values.set(name.clone(), v);
            }
        }
    }
    values
}

pub fn end_to_end_catalogue() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect()
}

impl RunResult {
    /// The line the run prints last: the end-to-end metrics, or the
    /// per-layer metrics for a traced run.
    pub fn summary_line(&self) -> Json {
        let metrics = if self.trace {
            values_json(&self.per_layer, &per_layer())
        } else {
            values_json(&self.end_to_end, &end_to_end_catalogue())
        };
        Json::obj()
            .field("correct", true)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", SCHEMA)
            .field("workload", self.workload.as_str())
            .field("seed", self.seed)
            .field("seconds", self.seconds)
            .field("trace", self.trace)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("host", self.host.clone())
            .field("end_to_end", values_json(&self.end_to_end, &end_to_end_catalogue()))
            .field("per_layer", values_json(&self.per_layer, &per_layer()))
            .field(
                "samples",
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|s| {
                            Json::obj()
                                .field("metric", s.metric.as_str())
                                .field("count", s.count)
                                .field("supported_percentile", s.supported_percentile)
                        })
                        .collect(),
                ),
            )
            .field("sim_passes", self.sim_passes.clone())
    }

    pub fn from_json(json: &Json) -> Result<RunResult, String> {
        if get(json, "schema").and_then(as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result"));
        }
        let uint = |key: &str| match get(json, key) {
            Some(Json::UInt(n)) => Ok(*n),
            _ => Err(format!("missing or non-integer {key:?}")),
        };
        let samples = match get(json, "samples") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|s| Samples {
                    metric: get(s, "metric").and_then(as_str).unwrap_or_default().to_string(),
                    count: get(s, "count").and_then(as_f64).unwrap_or(0.0) as usize,
                    supported_percentile: get(s, "supported_percentile").and_then(as_f64),
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(RunResult {
            workload: get(json, "workload").and_then(as_str).ok_or("missing workload")?.into(),
            seed: uint("seed")?,
            seconds: uint("seconds")?,
            trace: matches!(get(json, "trace"), Some(Json::Bool(true))),
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            host: get(json, "host").cloned().unwrap_or(Json::Null),
            end_to_end: values_from(get(json, "end_to_end")),
            per_layer: values_from(get(json, "per_layer")),
            samples,
            sim_passes: get(json, "sim_passes").cloned().unwrap_or(Json::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{one_line, parse};

    fn sample() -> RunResult {
        let mut end_to_end = Values::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            end_to_end.set(m.name, 0.1 * (i + 1) as f64 + 1e-9);
        }
        let mut per_layer_values = Values::default();
        per_layer_values.set("gpu-sim.redo_rounds.GPUTemporal", 3.0);
        per_layer_values.set("core.shard.imbalance", 1.75);
        RunResult {
            workload: "merger-batch".into(),
            seed: 7,
            seconds: 20,
            trace: true,
            attempted: 24,
            failed: 0,
            host: Json::obj().field("nproc", 2usize).field("cpu_model", "x"),
            end_to_end,
            per_layer: per_layer_values,
            samples: vec![Samples {
                metric: "req_p99_ms".into(),
                count: 1200,
                supported_percentile: Some(99.0),
            }],
            sim_passes: Json::Arr(vec![Json::obj().field("pass", 0usize)]),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let result = sample();
        let text = result.to_json().render();
        let back = RunResult::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text);
        assert_eq!(back.end_to_end, result.end_to_end);
        assert_eq!(back.samples, result.samples);
    }

    #[test]
    fn summary_line_has_exactly_the_four_summary_keys() {
        let mut result = sample();
        result.trace = false;
        let line = one_line(&result.summary_line());
        let parsed = parse(&line).unwrap();
        let Json::Obj(fields) = &parsed else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = get(&parsed, "metrics").unwrap();
        for m in &END_TO_END {
            let entry = get(metrics, m.name).unwrap_or_else(|| panic!("{} missing", m.name));
            assert_eq!(get(entry, "unit").and_then(as_str), Some(m.unit));
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let bench = parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match get(&bench, key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| get(m, f).and_then(as_str).unwrap_or("").to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key}"),
            }
        };
        if let Some(Json::Arr(items)) = get(&bench, "per_layer") {
            for item in items {
                let name = get(item, "name").and_then(as_str).unwrap_or("");
                let better = if layer_higher_is_better(name) { "higher" } else { "lower" };
                assert_eq!(get(item, "better").and_then(as_str), Some(better), "{name}");
            }
        }
        let want: Vec<(String, String)> =
            END_TO_END.iter().map(|m| (m.name.into(), m.unit.into())).collect();
        assert_eq!(names("end_to_end"), want);
        let want: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(names("per_layer"), want);
        if let Some(Json::Arr(items)) = get(&bench, "end_to_end") {
            for (m, item) in END_TO_END.iter().zip(items) {
                assert_eq!(get(item, "bound").and_then(as_f64), Some(m.bound), "{}", m.name);
                let better = if m.higher_is_better { "higher" } else { "lower" };
                assert_eq!(get(item, "better").and_then(as_str), Some(better), "{}", m.name);
            }
        }
    }
}
