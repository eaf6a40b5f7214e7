//! `merger-batch` and `merger-sharded`: the paper's S2 Merger experiment,
//! run unsharded over the paper's four methods, or on eight simulated
//! devices.

use std::sync::Arc;
use std::time::Instant;

use tdts_bench::Json;
use tdts_core::{
    Method, PreparedDataset, QueryBatch, SearchEngine, ShardedIndex, ShardedIndexConfig, TdtsError,
    TrajectoryIndex,
};
use tdts_data::scenario::ScenarioParams;
use tdts_data::{MergerConfig, Scenario, ScenarioKind};
use tdts_geom::{MatchRecord, SegmentStore};
use tdts_gpu_sim::{Device, DeviceConfig, Phase, SearchReport};
use tdts_index_spatial::{FsgConfig, GpuSpatialConfig};
use tdts_index_spatiotemporal::SpatioTemporalIndexConfig;
use tdts_index_temporal::{BatchedConfig, TemporalIndexConfig};
use tdts_rtree::RTreeConfig;

use crate::metrics::{Samples, Values, PHASES};
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;
use crate::{mix, peak_rss_mb, Measured, Rng, RunArgs};

/// The Merger scale whose paper result buffer (5e7 × scale = 1e6 entries)
/// holds the d = 1.0 result set and overflows at d = 4.0.
pub const SCALE: f64 = 0.02;
pub const DISTANCES: [f64; 2] = [1.0, 4.0];
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
pub const SHARDS: usize = 8;
/// Service-sized requests (the service workload's 4 query segments) each
/// engine answers per pass at d = 1.0, one at a time. Their rate is
/// `sat_rps`, the engines' capacity for small requests, which pay the fixed
/// per-call cost that the figure's full query set amortises. They take
/// about 4% of a `merger-batch` pass and 15% of a `merger-sharded` one.
const SMALL_REQUESTS: usize = 64;
const SMALL_SEGMENTS: usize = 4;

/// The Merger dataset for `seed`, the scenario's own query set, and the
/// scenario's paper parameters. The query set stays the scenario's: at
/// this scale it is five trajectories, and which five the seed picked
/// would move the d = 4.0 result volume by ±15% from seed to seed, while
/// the 2,621-particle database varies far less.
pub fn merger(seed: u64) -> (MergerConfig, Scenario) {
    let scenario = Scenario::new(ScenarioKind::S2Merger, SCALE);
    (MergerConfig { seed: mix(seed), ..MergerConfig::default() }.scaled(SCALE), scenario)
}

fn methods(params: &ScenarioParams, sharded: bool) -> Vec<Method> {
    let temporal = TemporalIndexConfig { bins: params.temporal_bins };
    let spatiotemporal = Method::GpuSpatioTemporal(SpatioTemporalIndexConfig {
        bins: params.temporal_bins,
        subbins: params.subbins,
        sort_by_selector: true,
    });
    if sharded {
        vec![
            Method::GpuTemporal(temporal),
            Method::GpuBatchedTemporal(BatchedConfig {
                index: temporal,
                ..BatchedConfig::default()
            }),
            spatiotemporal,
        ]
    } else {
        vec![
            Method::CpuRTree(RTreeConfig::default()),
            // The candidate budget the repository's figures use for FSG.
            Method::GpuSpatial(GpuSpatialConfig {
                fsg: FsgConfig { cells_per_dim: params.fsg_cells_per_dim },
                total_scratch: 4_000_000,
                compaction_threshold: 4_096,
            }),
            Method::GpuTemporal(temporal),
            spatiotemporal,
        ]
    }
}

enum Engine {
    Plain(SearchEngine),
    Sharded(Arc<ShardedIndex>),
}

impl Engine {
    fn search(
        &self,
        queries: &SegmentStore,
        d: f64,
        capacity: usize,
    ) -> Result<(Vec<MatchRecord>, SearchReport), TdtsError> {
        match self {
            Engine::Plain(engine) => engine.search(queries, d, capacity),
            Engine::Sharded(index) => index
                .search(&QueryBatch { queries, d, result_capacity: capacity })
                .map(|o| (o.matches, o.report)),
        }
    }
}

struct Setup {
    dataset: PreparedDataset,
    queries: SegmentStore,
    params: ScenarioParams,
    engines: Vec<(Method, Engine)>,
    generate_s: f64,
    prepare_s: f64,
    /// Build time per engine, in `engines` order.
    build_s: Vec<f64>,
    total_s: f64,
}

fn setup(args: &RunArgs, tracer: &Tracer, sharded: bool) -> Result<Setup, String> {
    let trace = tracer.next_id();
    let root = tracer.span("setup", "", 0, trace);
    let (data_cfg, scenario) = merger(args.seed);
    let params = scenario.params();
    let span = tracer.span("data.generate", "", root.id(), trace);
    let store = data_cfg.generate();
    let queries = scenario.queries();
    let generate_s = span.end().as_secs_f64();
    let span = tracer.span("geom.prepare", "", root.id(), trace);
    let dataset = PreparedDataset::new(store);
    let prepare_s = span.end().as_secs_f64();
    let device = DeviceConfig::tesla_c2075();
    let mut engines = Vec::new();
    let mut build_s = Vec::new();
    for method in methods(&params, sharded) {
        let engine = if sharded {
            let span = tracer.span("core.shard_build", method.name(), root.id(), trace);
            let stats = dataset.store().stats().ok_or("empty Merger dataset")?;
            let config = ShardedIndexConfig::builder()
                .shards(SHARDS)
                .build()
                .map_err(|e| format!("shard config: {e}"))?;
            let index = ShardedIndex::build(method, &dataset.store_arc(), &stats, &device, &config);
            build_s.push(span.end().as_secs_f64());
            Engine::Sharded(Arc::new(index.map_err(|e| format!("{} build: {e}", method.name()))?))
        } else {
            let span = tracer.span("core.build", method.name(), root.id(), trace);
            let dev = Device::new(device.clone()).map_err(|e| format!("device: {e}"))?;
            let engine = SearchEngine::build(&dataset, method, dev);
            build_s.push(span.end().as_secs_f64());
            Engine::Plain(engine.map_err(|e| format!("{} build: {e}", method.name()))?)
        };
        engines.push((method, engine));
    }
    let total_s = root.end().as_secs_f64();
    Ok(Setup { dataset, queries, params, engines, generate_s, prepare_s, build_s, total_s })
}

/// One search call's measurements.
struct Call {
    method: &'static str,
    /// Which of the pass's (distance, method) searches this was.
    kind: usize,
    wall_s: f64,
    report: SearchReport,
}

/// The simulated part of a report: every counter and device-phase time
/// (host compute is wall-timed, so it is left out).
pub fn sim_signature(r: &SearchReport) -> Json {
    let t = &r.response;
    let load = &r.load;
    let routing = &r.routing;
    Json::obj()
        .field("h2d_s", t.get(Phase::HostToDevice))
        .field("launch_s", t.get(Phase::KernelLaunch))
        .field("exec_s", t.get(Phase::KernelExec))
        .field("d2h_s", t.get(Phase::DeviceToHost))
        .field("kernel_invocations", t.kernel_invocations)
        .field("h2d_bytes", t.h2d_bytes)
        .field("d2h_bytes", t.d2h_bytes)
        .field("comparisons", r.comparisons)
        .field("raw_matches", r.raw_matches)
        .field("matches", r.matches)
        .field("redo_rounds", r.redo_rounds)
        .field("fallback_queries", r.fallback_queries)
        .field("divergent_warps", r.divergent_warps)
        .field("instructions", r.totals.instructions)
        .field("gmem_read_bytes", r.totals.gmem_read_bytes)
        .field("gmem_write_bytes", r.totals.gmem_write_bytes)
        .field("atomics", r.totals.atomics)
        .field("max_warp_cycles", load.max_warp_cycles)
        .field("warp_cycles", load.warp_cycles)
        .field("warps", load.warps)
        .field("tiles_dispatched", load.tiles_dispatched)
        .field("queue_atomics", load.queue_atomics)
        .field("shard_queries_routed", routing.shard_queries_routed)
        .field("shard_queries_skipped", routing.shard_queries_skipped)
        .field("budget_redos", routing.budget_redos)
}

/// 1.0 when every search's simulated signature repeated bit for bit in
/// every pass, else 0.0.
pub fn repeat_flag(passes: &[Vec<Json>]) -> f64 {
    let Some(first) = passes.first() else { return 1.0 };
    let first: Vec<String> = first.iter().map(Json::render).collect();
    let same = passes.iter().all(|p| p.iter().map(Json::render).collect::<Vec<_>>() == first);
    if same {
        1.0
    } else {
        0.0
    }
}

/// The small requests of a run: `SMALL_SEGMENTS` consecutive query
/// segments each, at seed-drawn offsets, with the answer each must get,
/// cut from the full query set's d = 1.0 result.
struct Small {
    requests: Vec<SegmentStore>,
    want: Vec<Vec<MatchRecord>>,
}

impl Small {
    fn new(seed: u64, queries: &SegmentStore, full: &[MatchRecord]) -> Small {
        let mut rng = Rng::new(mix(seed ^ 0x736d_616c));
        let segments = queries.segments();
        // One request from each of SMALL_REQUESTS equal strata of the query
        // set, so every seed spreads its requests over all five query
        // trajectories alike.
        let stratum = (segments.len() - SMALL_SEGMENTS + 1) / SMALL_REQUESTS;
        let offsets: Vec<usize> =
            (0..SMALL_REQUESTS).map(|k| k * stratum + rng.below(stratum)).collect();
        let requests =
            offsets.iter().map(|&o| segments[o..o + SMALL_SEGMENTS].iter().copied().collect());
        let want = offsets.iter().map(|&o| {
            let range = o as u32..(o + SMALL_SEGMENTS) as u32;
            full.iter()
                .filter(|m| range.contains(&m.query))
                .map(|m| MatchRecord { query: m.query - range.start, ..*m })
                .collect()
        });
        Small { requests: requests.collect(), want: want.collect() }
    }
}

pub fn run(args: &RunArgs, tracer: &Tracer, sharded: bool) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so set-ups do not stack in memory.
        drop(kept.take());
        let s = setup(args, tracer, sharded)?;
        setups.push((s.generate_s, s.prepare_s, s.build_s.clone(), s.total_s));
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let cap = s.params.result_buffer_capacity;
    let q = s.queries.len();

    // The reference result set per distance: the first method's in the
    // unsharded workload, a cold unsharded engine's in the sharded one.
    let mut reference: Vec<Option<Vec<MatchRecord>>> = vec![None; DISTANCES.len()];
    if sharded {
        let (method, _) = &s.engines[s.engines.len() - 1];
        let dev = Device::new(DeviceConfig::tesla_c2075()).map_err(|e| format!("device: {e}"))?;
        let engine = SearchEngine::build(&s.dataset, *method, dev)
            .map_err(|e| format!("unsharded reference build: {e}"))?;
        for (i, &d) in DISTANCES.iter().enumerate() {
            let (m, _) = engine
                .search(&s.queries, d, cap)
                .map_err(|e| format!("unsharded reference search: {e}"))?;
            reference[i] = Some(m);
        }
    }

    let mut attempted = (SETUPS * s.engines.len()) as u64;
    let mut failed = 0u64;
    let mut calls: Vec<Call> = Vec::new();
    let mut passes: Vec<Vec<Json>> = Vec::new();
    let mut pass_sim: Vec<f64> = Vec::new();
    // Host wall of each pass's searches (checks excluded).
    let mut pass_wall: Vec<f64> = Vec::new();
    let mut small: Option<Small> = None;
    // Small requests per second of their host wall, pass by pass.
    let mut small_rates: Vec<f64> = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let trace = tracer.next_id();
        let pass = tracer.span("pass", "", 0, trace);
        let mut signatures = Vec::new();
        let mut sim = 0.0;
        let mut wall = 0.0;
        for (i, &d) in DISTANCES.iter().enumerate() {
            for (m, (method, engine)) in s.engines.iter().enumerate() {
                attempted += 1;
                let span = tracer.span("core.search", method.name(), pass.id(), trace);
                let outcome = engine.search(&s.queries, d, cap);
                let wall_s = span.end().as_secs_f64();
                wall += wall_s;
                let (matches, report) = match outcome {
                    Ok(ok) => ok,
                    Err(e) => {
                        eprintln!("[tdts-perf] {} search at d = {d} failed: {e}", method.name());
                        failed += 1;
                        continue;
                    }
                };
                if report.sanitizer_findings > 0 {
                    return Err(format!(
                        "{}: {} sanitizer findings",
                        method.name(),
                        report.sanitizer_findings
                    ));
                }
                match &reference[i] {
                    None => reference[i] = Some(matches),
                    Some(want) if *want == matches => {}
                    Some(want) => {
                        return Err(format!(
                            "{} at d = {d}: {} matches differ from the reference's {}",
                            method.name(),
                            matches.len(),
                            want.len()
                        ))
                    }
                }
                if !matches!(method, Method::CpuRTree(_)) {
                    sim += report.response_seconds();
                }
                let kind = i * s.engines.len() + m;
                signatures.push(
                    Json::obj()
                        .field("method", method.name())
                        .field("d", d)
                        .field("sim", sim_signature(&report)),
                );
                calls.push(Call { method: method.name(), kind, wall_s, report });
            }
        }
        let full = reference[0].as_deref().ok_or("no method answered at d = 1.0")?;
        let small = small.get_or_insert_with(|| Small::new(args.seed, &s.queries, full));
        let mut small_walls = Vec::new();
        for (method, engine) in &s.engines {
            for (request, want) in small.requests.iter().zip(&small.want) {
                attempted += 1;
                let span = tracer.span("core.search", method.name(), pass.id(), trace);
                let outcome = engine.search(request, DISTANCES[0], cap);
                small_walls.push(span.end().as_secs_f64());
                match outcome {
                    Ok((matches, report)) => {
                        if matches != *want || report.sanitizer_findings > 0 {
                            return Err(format!(
                                "{} small request: {} matches ({} sanitizer findings), want {}",
                                method.name(),
                                matches.len(),
                                report.sanitizer_findings,
                                want.len()
                            ));
                        }
                    }
                    Err(e) => {
                        eprintln!("[tdts-perf] {} small request failed: {e}", method.name());
                        failed += 1;
                    }
                }
            }
        }
        pass.end();
        small_rates.push(small_walls.len() as f64 / small_walls.iter().sum::<f64>());
        passes.push(signatures);
        pass_sim.push(sim);
        pass_wall.push(wall);
    }

    let mut e2e = Values::default();
    let mut layer = Values::default();
    let mut samples = Vec::new();
    let total_wall: f64 = pass_wall.iter().sum();
    // A request here is one search of the figure (one method at one
    // distance), and the figure's requests are weighted alike: each kind's
    // latency is its median over the run, and the percentiles are taken
    // over the kinds. The tail is then the slowest kind of search, not the
    // pass the shared host happened to stall.
    let kinds = DISTANCES.len() * s.engines.len();
    let call_ms: Vec<f64> = (0..kinds)
        .map(|k| {
            let walls: Vec<f64> =
                calls.iter().filter(|c| c.kind == k).map(|c| c.wall_s * 1e3).collect();
            median(&walls)
        })
        .collect();
    // A build-once engine shows new data once its index is rebuilt and the
    // figure's queries are run again: an engine's "advance" is its build
    // (mean over the set-ups, since some builds take one of two durations)
    // plus its median search at each distance. The percentiles are over the
    // engines.
    let n = s.engines.len();
    let advance_ms: Vec<f64> = (0..n)
        .map(|i| {
            let build = setups.iter().map(|x| x.2[i] * 1e3).sum::<f64>() / setups.len() as f64;
            build + (0..DISTANCES.len()).map(|d| call_ms[d * n + i]).sum::<f64>()
        })
        .collect();
    e2e.set("setup_s", median(&setups.iter().map(|x| x.3).collect::<Vec<_>>()));
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("ok_frac", (attempted - failed) as f64 / attempted as f64);
    e2e.set("search_qps", (calls.len() * q) as f64 / total_wall);
    e2e.set("sim_response_s", median(&pass_sim));
    e2e.set("req_p50_ms", percentile(&call_ms, 50.0));
    e2e.set("req_p99_ms", percentile(&call_ms, 99.0));
    e2e.set("sat_rps", median(&small_rates));
    e2e.set("advance_p50_ms", percentile(&advance_ms, 50.0));
    e2e.set("advance_p90_ms", percentile(&advance_ms, 90.0));
    // The percentiles are taken over per-kind medians, so those are the
    // samples behind them.
    for (metric, n) in [("req_p99_ms", call_ms.len()), ("advance_p90_ms", advance_ms.len())] {
        samples.push(Samples {
            metric: metric.into(),
            count: n,
            supported_percentile: supported_percentile(n),
        });
    }

    layer.set("data.generate_s", median(&setups.iter().map(|x| x.0).collect::<Vec<_>>()));
    layer.set("geom.prepare_s", median(&setups.iter().map(|x| x.1).collect::<Vec<_>>()));
    let build_key = if sharded { "core.shard_build_s" } else { "core.build_s" };
    for (i, (method, _)) in s.engines.iter().enumerate() {
        let builds: Vec<f64> = setups.iter().map(|x| x.2[i]).collect();
        layer.set(format!("{build_key}.{}", method.name()), median(&builds));
    }
    per_method_layers(&mut layer, &calls, passes.len(), q);
    layer.set("gpu-sim.sim_repeat", repeat_flag(&passes));
    if sharded {
        shard_layers(&mut layer, &s.engines, &calls);
    }

    let sim_passes = Json::Arr(
        passes
            .into_iter()
            .enumerate()
            .map(|(i, searches)| Json::obj().field("pass", i).field("searches", searches))
            .collect(),
    );
    Ok(Measured { attempted, failed, e2e, layer, samples, sim_passes })
}

/// Per-method layer metrics over the timed passes: median call wall,
/// host-per-simulated ratio, and per-pass medians of the simulated phases
/// and counters (each pass sums both distances).
fn per_method_layers(layer: &mut Values, calls: &[Call], passes: usize, queries: usize) {
    let mut names: Vec<&'static str> = calls.iter().map(|c| c.method).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let mine: Vec<&Call> = calls.iter().filter(|c| c.method == name).collect();
        let walls: Vec<f64> = mine.iter().map(|c| c.wall_s).collect();
        layer.set(format!("core.search_wall_s.{name}"), median(&walls));
        // Per pass: fold this method's calls (one per distance).
        let per_pass = mine.len() / passes.max(1);
        let folded: Vec<SearchReport> = mine
            .chunks(per_pass.max(1))
            .map(|chunk| {
                let mut total = SearchReport::default();
                chunk.iter().for_each(|c| total.merge(&c.report));
                total
            })
            .collect();
        let med =
            |f: &dyn Fn(&SearchReport) -> f64| median(&folded.iter().map(f).collect::<Vec<f64>>());
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        layer.set(format!("index.comparisons.{name}"), med(&|r| r.comparisons as f64));
        layer.set(
            format!("index.selectivity.{name}"),
            med(&|r| ratio(r.matches as f64, r.comparisons as f64)),
        );
        if name == "CPU-RTree" {
            continue;
        }
        let sim: f64 = mine.iter().map(|c| c.report.response_seconds()).sum();
        layer.set(format!("core.host_per_sim.{name}"), ratio(walls.iter().sum(), sim));
        for (phase, key) in Phase::ALL.iter().zip(PHASES) {
            layer.set(format!("gpu-sim.sim_s.{key}.{name}"), med(&|r| r.response.get(*phase)));
        }
        layer.set(
            format!("gpu-sim.kernel_invocations.{name}"),
            med(&|r| r.response.kernel_invocations as f64),
        );
        layer.set(format!("gpu-sim.redo_rounds.{name}"), med(&|r| r.redo_rounds as f64));
        layer.set(format!("gpu-sim.atomics.{name}"), med(&|r| r.totals.atomics as f64));
        layer.set(format!("gpu-sim.h2d_bytes.{name}"), med(&|r| r.response.h2d_bytes as f64));
        layer.set(format!("gpu-sim.d2h_bytes.{name}"), med(&|r| r.response.d2h_bytes as f64));
        layer.set(format!("gpu-sim.warp_spread.{name}"), med(&|r| r.load.spread()));
        layer.set(
            format!("gpu-sim.dedup_keep.{name}"),
            med(&|r| ratio(r.matches as f64, r.raw_matches as f64)),
        );
        if name == "GPUSpatioTemporal" {
            let searched = (per_pass * queries) as f64;
            layer.set(
                "index-spatiotemporal.fallback_frac",
                med(&|r| ratio(r.fallback_queries as f64, searched)),
            );
        }
    }
}

/// Sharding metrics from the reports' routing summaries and the
/// `ShardedIndex` accessors.
fn shard_layers(layer: &mut Values, engines: &[(Method, Engine)], calls: &[Call]) {
    let mut routed = 0u64;
    let mut offered = 0u64;
    let mut budget_redos = 0u64;
    let mut raw = 0u64;
    for c in calls {
        routed += c.report.routing.shard_queries_routed;
        offered += c.report.routing.shard_queries_routed + c.report.routing.shard_queries_skipped;
        budget_redos += c.report.routing.budget_redos;
        raw += c.report.raw_matches;
    }
    let passes = calls.len() / engines.len().max(1) / DISTANCES.len();
    layer.set("core.shard.dispatch_frac", routed as f64 / offered.max(1) as f64);
    layer.set("core.shard.budget_redos", budget_redos as f64 / passes.max(1) as f64);
    let mut per_slab: Vec<(usize, u64)> = Vec::new();
    let mut dropped = 0u64;
    let mut replication = 0.0f64;
    for (_, engine) in engines {
        if let Engine::Sharded(index) = engine {
            dropped += index.duplicates_dropped();
            replication = replication.max(index.replication_factor());
            for shard in index.shard_stats() {
                match per_slab.iter_mut().find(|(slab, _)| *slab == shard.shard) {
                    Some((_, c)) => *c += shard.comparisons,
                    None => per_slab.push((shard.shard, shard.comparisons)),
                }
            }
        }
    }
    layer.set("core.shard.replication", replication);
    layer.set("core.shard.dup_drop_frac", dropped as f64 / raw.max(1) as f64);
    let comps: Vec<f64> = per_slab.iter().map(|(_, c)| *c as f64).collect();
    let mean = comps.iter().sum::<f64>() / comps.len().max(1) as f64;
    let max = comps.iter().copied().fold(0.0, f64::max);
    layer.set("core.shard.imbalance", if mean > 0.0 { max / mean } else { 0.0 });
}
