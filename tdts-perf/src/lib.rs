//! The tdts benchmark: three workloads that drive the program through its
//! public API, time each call from outside, check every result, and report
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//! See `README.md` in this directory for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod openloop;
pub mod search;
pub mod stats;
pub mod stream;
pub mod trace;

use std::path::{Path, PathBuf};

use tdts_bench::Json;

use crate::json::{as_f64, one_line, parse};
use crate::metrics::{per_layer, RunResult, Samples, Values, END_TO_END};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MergerBatch,
    MergerSharded,
    ServiceStream,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::MergerBatch, Workload::MergerSharded, Workload::ServiceStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MergerBatch => "merger-batch",
            Workload::MergerSharded => "merger-sharded",
            Workload::ServiceStream => "service-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where result and span files go.
    pub out: PathBuf,
}

pub const USAGE: &str = "usage: tdts-perf --workload <merger-batch|merger-sharded|service-stream> \
                         --seed <n> --seconds <1..=60> --trace <0|1> [--out <dir>]";

impl RunArgs {
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => match value.parse::<u64>() {
                    Ok(s @ 1..=60) => seconds = Some(s),
                    _ => return Err(format!("--seconds must be 1..=60, got {value}")),
                },
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

/// What a workload measured, before it is stamped into a [`RunResult`].
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Values,
    pub layer: Values,
    pub samples: Vec<Samples>,
    pub sim_passes: Json,
}

/// SplitMix64's finaliser: spreads a seed so nearby seeds give unrelated
/// generator states.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for sampling requests and probes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run one workload and assemble its result. `Err` means a correctness
/// check failed; no metrics are produced then.
pub fn execute(args: &RunArgs) -> Result<(RunResult, Tracer), String> {
    let tracer = Tracer::new(args.trace);
    let measured = match args.workload {
        Workload::MergerBatch => search::run(args, &tracer, false)?,
        Workload::MergerSharded => search::run(args, &tracer, true)?,
        Workload::ServiceStream => stream::run(args, &tracer)?,
    };
    let mut per_layer_values = Values::default();
    if args.trace {
        for (name, _) in per_layer() {
            let value = measured.layer.get(&name).unwrap_or(0.0);
            per_layer_values.set(name, if value.is_finite() { value } else { 0.0 });
        }
    }
    for m in &END_TO_END {
        match measured.e2e.get(m.name) {
            Some(v) if v.is_finite() && v > 0.0 => {}
            other => return Err(format!("end-to-end metric {} measured {other:?}", m.name)),
        }
    }
    let result = RunResult {
        workload: args.workload.name().into(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: measured.attempted,
        failed: measured.failed,
        host: host::descriptor(),
        end_to_end: measured.e2e,
        per_layer: per_layer_values,
        samples: measured.samples,
        sim_passes: measured.sim_passes,
    };
    Ok((result, tracer))
}

/// Every result file under `dir` (recursively), parsed; unreadable files
/// are reported and skipped.
pub fn load_results(dir: &Path) -> Vec<RunResult> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return out };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            out.extend(load_results(&path));
        } else if path.extension().is_some_and(|e| e == "json")
            && path.file_name().is_some_and(|n| !n.to_string_lossy().starts_with("spans-"))
        {
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| parse(&t))
                .and_then(|j| RunResult::from_json(&j))
            {
                Ok(r) => out.push(r),
                Err(e) => eprintln!("[tdts-perf] skipping {}: {e}", path.display()),
            }
        }
    }
    out
}

/// For a traced run: each end-to-end metric's change against the median
/// of the untraced runs of the same workload and length found under `out`,
/// as a share of that median. `Null` when no such run is there yet.
pub fn trace_overhead(result: &RunResult, out: &Path) -> Json {
    let plain: Vec<RunResult> = load_results(&out.join(&result.workload))
        .into_iter()
        .filter(|r| !r.trace && r.workload == result.workload && r.seconds == result.seconds)
        .collect();
    if plain.is_empty() {
        return Json::Null;
    }
    let mut fields = vec![("untraced_runs".to_string(), Json::from(plain.len()))];
    for m in &END_TO_END {
        let base: Vec<f64> = plain.iter().filter_map(|r| r.end_to_end.get(m.name)).collect();
        let base = stats::median(&base);
        if let Some(traced) = result.end_to_end.get(m.name) {
            if base.is_finite() && base != 0.0 {
                fields.push((m.name.to_string(), Json::from((traced - base) / base)));
            }
        }
    }
    Json::Obj(fields)
}

/// Write the result file and, for a traced run, the span file; return the
/// result file's path.
pub fn write_outputs(result: &RunResult, tracer: &Tracer, out: &Path) -> std::io::Result<PathBuf> {
    let dir = out.join(&result.workload);
    std::fs::create_dir_all(&dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let kind = if result.trace { "traced" } else { "plain" };
    let path = dir.join(format!("{kind}-s{}-{stamp}-{}.json", result.seed, std::process::id()));
    let mut doc = result.to_json();
    if result.trace {
        let overhead = trace_overhead(result, out);
        if let Json::Obj(fields) = &overhead {
            for (name, v) in fields.iter().skip(1) {
                eprintln!(
                    "[tdts-perf] tracing overhead {name}: {:+.1}%",
                    as_f64(v).unwrap_or(0.0) * 100.0
                );
            }
        }
        if let Json::Obj(fields) = &mut doc {
            fields.push(("trace_overhead".into(), overhead));
        }
        let spans = tracer.spans();
        let span_doc = Json::obj()
            .field("workload", result.workload.as_str())
            .field("seed", result.seed)
            .field("self_time", trace::summarize(&spans))
            .field("spans", trace::spans_json(&spans));
        // One span file per workload, replaced by each traced run.
        std::fs::write(dir.join("spans-latest.json"), one_line(&span_doc))?;
    }
    std::fs::write(&path, doc.render())?;
    Ok(path)
}
