//! `compare <parent-results> <change-results>`: for every workload and
//! metric, each side's median and quartiles and the share of pairs the
//! change won. Flags an end-to-end metric that got worse by more than its
//! bound, and any simulated counter that repeated across the parent's own
//! passes and changed on a seed both sides ran; exits 1 when anything is
//! flagged.

use std::path::PathBuf;

use tdts_perf::compare::report;
use tdts_perf::load_results;

const USAGE: &str = "usage: compare <parent-results-dir> <change-results-dir>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent_dir, change_dir] = args.as_slice() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let parent = load_results(&PathBuf::from(parent_dir));
    let change = load_results(&PathBuf::from(change_dir));
    if parent.is_empty() || change.is_empty() {
        let empty = if parent.is_empty() { parent_dir } else { change_dir };
        eprintln!("compare: no results in {empty}");
        std::process::exit(2);
    }
    let (text, flagged) = report(&parent, &change);
    print!("{text}");
    if flagged {
        std::process::exit(1);
    }
}
