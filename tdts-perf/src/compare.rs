//! Compare two sets of results (parent and change), metric by metric.

use std::fmt::Write as _;

use tdts_bench::Json;

use crate::json::{as_f64, as_str, get, one_line};
use crate::metrics::{layer_higher_is_better, per_layer, RunResult, END_TO_END};
use crate::stats::{median, quartiles};

/// Share of `(parent, change)` pairs the change wins; ties count for
/// neither side.
pub fn pairs_won(pairs: &[(f64, f64)], higher_is_better: bool) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    let won = pairs.iter().filter(|(p, c)| if higher_is_better { c > p } else { c < p }).count();
    won as f64 / pairs.len() as f64
}

/// Pair runs by seed where both sides ran it, otherwise by position in
/// seed order.
fn pair_up(parent: &[(u64, f64)], change: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let by_seed: Vec<(f64, f64)> = parent
        .iter()
        .filter_map(|(seed, p)| change.iter().find(|(s, _)| s == seed).map(|(_, c)| (*p, *c)))
        .collect();
    if by_seed.len() == parent.len().min(change.len()) {
        return by_seed;
    }
    parent.iter().zip(change).map(|((_, p), (_, c))| (*p, *c)).collect()
}

/// The searches of each pass of a run, as recorded in its `sim_passes`.
fn searches(r: &RunResult) -> Vec<&[Json]> {
    match &r.sim_passes {
        Json::Arr(passes) => passes
            .iter()
            .filter_map(|p| match get(p, "searches") {
                Some(Json::Arr(s)) => Some(s.as_slice()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Simulated field `name` of search `i` in one pass, rendered.
fn sim_field(pass: &[Json], i: usize, name: &str) -> Option<String> {
    pass.get(i).and_then(|s| get(s, "sim")).and_then(|f| get(f, name)).map(one_line)
}

/// The device-phase times of a search. A sharded search takes them from
/// the slowest shard, picked by a total that includes wall-timed host
/// compute, so they follow the host schedule.
const PHASE_FIELDS: [&str; 4] = ["h2d_s", "launch_s", "exec_s", "d2h_s"];

/// Simulated counters and phase times compared on the seeds both sides ran.
#[derive(Debug, Default, PartialEq)]
pub struct SimDiff {
    /// Fields that hold still for a given program and seed and differ in
    /// some pass of the change's run from the parent's.
    pub changed: Vec<String>,
    /// Per search, the fields the host schedule can move, with the reason;
    /// listed, but not flagged.
    pub unstable: Vec<String>,
}

/// Compare the simulated fields of each search on the seeds both sides
/// ran. A field is left out, and listed, when the host schedule can move
/// it: every field of a search that overflowed the result buffer in the
/// parent (racing warps decide which records land, and with them the redo
/// set), the phase times of a sharded search, and any field that did not
/// repeat across the parent's own passes.
pub fn sim_diff(parent: &[&RunResult], change: &[&RunResult]) -> SimDiff {
    let mut diff = SimDiff::default();
    for p in parent {
        let Some(c) = change.iter().find(|c| c.seed == p.seed) else { continue };
        let (pp, cp) = (searches(p), searches(c));
        let Some(first) = pp.first() else { continue };
        for (i, search) in first.iter().enumerate() {
            let Some(Json::Obj(fields)) = get(search, "sim") else { continue };
            let what = format!(
                "seed {} {} d={}",
                p.seed,
                get(search, "method").and_then(as_str).unwrap_or("?"),
                get(search, "d").and_then(as_f64).unwrap_or(f64::NAN),
            );
            let nonzero = |name: &str| {
                pp.iter().any(|pass| sim_field(pass, i, name).is_some_and(|v| v != "0"))
            };
            if nonzero("redo_rounds") {
                diff.unstable.push(format!("{what}: every field (overflowed the result buffer)"));
                continue;
            }
            let sharded = nonzero("shard_queries_routed");
            let mut moved = Vec::new();
            for (name, _) in fields {
                let base = sim_field(first, i, name);
                if sharded && PHASE_FIELDS.contains(&name.as_str()) {
                    continue;
                }
                if pp.iter().any(|pass| sim_field(pass, i, name) != base) {
                    moved.push(name.as_str());
                } else if let Some(other) =
                    cp.iter().map(|pass| sim_field(pass, i, name)).find(|v| *v != base)
                {
                    let show = |v: Option<String>| v.unwrap_or_else(|| "missing".into());
                    diff.changed.push(format!("{what} {name}: {} -> {}", show(base), show(other)));
                }
            }
            if sharded {
                diff.unstable.push(format!("{what}: {} (sharded)", PHASE_FIELDS.join(", ")));
            }
            if !moved.is_empty() {
                diff.unstable.push(format!("{what}: {} (not repeated)", moved.join(", ")));
            }
        }
    }
    diff
}

/// The comparison report, and whether anything was flagged.
pub fn report(parent: &[RunResult], change: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    let mut workloads: Vec<&str> =
        parent.iter().chain(change).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let layer_names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    for workload in workloads {
        for trace in [false, true] {
            let side = |rs: &[RunResult]| -> Vec<RunResult> {
                let mut v: Vec<RunResult> = rs
                    .iter()
                    .filter(|r| r.workload == workload && r.trace == trace)
                    .cloned()
                    .collect();
                v.sort_by_key(|r| r.seed);
                v
            };
            let (ps, cs) = (side(parent), side(change));
            if ps.is_empty() && cs.is_empty() {
                continue;
            }
            let kind = if trace { "per-layer (traced)" } else { "end-to-end" };
            let _ = writeln!(
                out,
                "\n## {workload} — {kind}: parent {} runs, change {} runs",
                ps.len(),
                cs.len()
            );
            let _ = writeln!(
                out,
                "{:<44} {:>34} {:>34} {:>8} {:>6}  flag",
                "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won"
            );
            let names: Vec<String> = if trace {
                layer_names.clone()
            } else {
                END_TO_END.iter().map(|m| m.name.to_string()).collect()
            };
            for name in names {
                let values = |rs: &[RunResult]| -> Vec<(u64, f64)> {
                    rs.iter()
                        .filter_map(|r| {
                            let v = if trace { &r.per_layer } else { &r.end_to_end };
                            v.get(&name).map(|x| (r.seed, x))
                        })
                        .collect()
                };
                let (pv, cv) = (values(&ps), values(&cs));
                if pv.is_empty() && cv.is_empty() {
                    continue;
                }
                let stats = |v: &[(u64, f64)]| {
                    let xs: Vec<f64> = v.iter().map(|(_, x)| *x).collect();
                    let (q1, _, q3) = quartiles(&xs);
                    (median(&xs), q1, q3)
                };
                let (pm, pq1, pq3) = stats(&pv);
                let (cm, cq1, cq3) = stats(&cv);
                let delta = if pm != 0.0 { (cm - pm) / pm } else { f64::NAN };
                let bound = END_TO_END.iter().find(|m| !trace && m.name == name);
                let higher = match bound {
                    Some(b) => b.higher_is_better,
                    None => layer_higher_is_better(&name),
                };
                let won = pairs_won(&pair_up(&pv, &cv), higher);
                let mut flag = String::new();
                if let Some(b) = bound {
                    let worse = if b.higher_is_better { -delta } else { delta };
                    if worse > b.bound {
                        flag = format!("WORSE than bound {:.0}%", b.bound * 100.0);
                        flagged = true;
                    }
                }
                let _ = writeln!(
                    out,
                    "{:<44} {:>12.6} [{:>9.4}, {:>9.4}] {:>12.6} [{:>9.4}, {:>9.4}] {:>+7.1}% {:>6}  {flag}",
                    name,
                    pm,
                    pq1,
                    pq3,
                    cm,
                    cq1,
                    cq3,
                    delta * 100.0,
                    format!("{won:.2}"),
                );
            }
            let pr: Vec<&RunResult> = ps.iter().collect();
            let cr: Vec<&RunResult> = cs.iter().collect();
            let diff = sim_diff(&pr, &cr);
            if !diff.changed.is_empty() {
                flagged = true;
                let _ = writeln!(out, "SIMULATED COUNTERS CHANGED ({}):", diff.changed.len());
                for line in diff.changed.iter().take(20) {
                    let _ = writeln!(out, "  {line}");
                }
            }
            if !diff.unstable.is_empty() {
                let _ = writeln!(
                    out,
                    "not compared, the host schedule can move them ({} searches):",
                    diff.unstable.len()
                );
                for line in diff.unstable.iter().take(20) {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_won_counts_ties_for_neither_side() {
        let pairs = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (4.0, 5.0)];
        assert_eq!(pairs_won(&pairs, true), 0.5);
        assert_eq!(pairs_won(&pairs, false), 0.25);
        assert!(pairs_won(&[], true).is_nan());
    }

    #[test]
    fn pairs_by_seed_when_both_sides_ran_it() {
        let parent = [(1, 10.0), (2, 20.0)];
        let change = [(2, 21.0), (1, 11.0)];
        assert_eq!(pair_up(&parent, &change), [(10.0, 11.0), (20.0, 21.0)]);
        let other = [(5, 1.0), (6, 2.0)];
        assert_eq!(pair_up(&parent, &other), [(10.0, 1.0), (20.0, 2.0)]);
    }

    /// A run of seed 1 whose passes carry one search with the given
    /// simulated fields.
    fn run(passes: &[&[(&str, u64)]]) -> RunResult {
        let pass = |fields: &&[(&str, u64)]| {
            let sim =
                Json::Obj(fields.iter().map(|(k, v)| (k.to_string(), Json::from(*v))).collect());
            let search =
                Json::obj().field("method", "GPUSpatial").field("d", 4.0).field("sim", sim);
            Json::obj().field("searches", Json::Arr(vec![search]))
        };
        RunResult {
            workload: "merger-batch".into(),
            seed: 1,
            seconds: 1,
            trace: false,
            attempted: 1,
            failed: 0,
            host: Json::Null,
            end_to_end: Default::default(),
            per_layer: Default::default(),
            samples: Vec::new(),
            sim_passes: Json::Arr(passes.iter().map(pass).collect()),
        }
    }

    #[test]
    fn only_fields_the_parent_repeated_are_flagged() {
        // `a` repeats in the parent, `b` does not.
        let parent = run(&[&[("a", 5), ("b", 1)], &[("a", 5), ("b", 2)]]);
        let same = run(&[&[("a", 5), ("b", 7)], &[("a", 5), ("b", 1)]]);
        let diff = sim_diff(&[&parent], &[&same]);
        assert!(diff.changed.is_empty());
        assert_eq!(diff.unstable, ["seed 1 GPUSpatial d=4: b (not repeated)"]);
        // A change in any pass of the change's run is caught.
        let changed = run(&[&[("a", 5), ("b", 1)], &[("a", 6), ("b", 1)]]);
        let diff = sim_diff(&[&parent], &[&changed]);
        assert_eq!(diff.changed, ["seed 1 GPUSpatial d=4 a: 5 -> 6"]);
    }

    #[test]
    fn overflowed_searches_and_sharded_phase_times_are_not_flagged() {
        let redo = run(&[&[("redo_rounds", 1), ("a", 5)], &[("redo_rounds", 1), ("a", 5)]]);
        let moved = run(&[&[("redo_rounds", 1), ("a", 6)]]);
        let diff = sim_diff(&[&redo], &[&moved]);
        assert!(diff.changed.is_empty());
        assert_eq!(
            diff.unstable,
            ["seed 1 GPUSpatial d=4: every field (overflowed the result buffer)"]
        );
        let sharded = run(&[&[("shard_queries_routed", 9), ("exec_s", 2), ("a", 5)]]);
        let moved = run(&[&[("shard_queries_routed", 9), ("exec_s", 3), ("a", 6)]]);
        let diff = sim_diff(&[&sharded], &[&moved]);
        assert_eq!(diff.changed, ["seed 1 GPUSpatial d=4 a: 5 -> 6"]);
        assert_eq!(
            diff.unstable,
            ["seed 1 GPUSpatial d=4: h2d_s, launch_s, exec_s, d2h_s (sharded)"]
        );
    }
}
