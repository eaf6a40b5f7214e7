//! One benchmark run: `tdts-perf --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. The last line of standard output is the run's summary as
//! one JSON object; a failed correctness check exits 1 and prints none.

use tdts_perf::json::one_line;
use tdts_perf::{execute, write_outputs, RunArgs, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tdts-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (result, tracer) = match execute(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("tdts-perf: {} seed {}: check failed: {e}", args.workload.name(), args.seed);
            std::process::exit(1);
        }
    };
    match write_outputs(&result, &tracer, &args.out) {
        Ok(path) => eprintln!("[tdts-perf] result written to {}", path.display()),
        Err(e) => {
            eprintln!("tdts-perf: cannot write results under {}: {e}", args.out.display());
            std::process::exit(1);
        }
    }
    println!("{}", one_line(&result.summary_line()));
}
