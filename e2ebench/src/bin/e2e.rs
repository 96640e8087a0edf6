//! The end-to-end benchmark's command line.
//!
//! ```sh
//! # one run: prints a record line with the host stamp, then the result
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2e -- \
//!     --workload paper_bayes --seed 7 --seconds 20 --trace 0
//! # judge set B of logged runs against set A
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2e -- \
//!     compare A.log B.log
//! ```
//!
//! Exits 0 when every check passed, 1 when one failed (after printing
//! the result), 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cocoa_e2ebench::host::{CountingAlloc, HostStamp};
use cocoa_e2ebench::{compare, render, run, Config, Size, Workload};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: e2e --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
       e2e compare A.log B.log
workloads: paper_bayes, paper_ekf, serve_mixed, sweep_checkpointed";

/// Scratch space for manifests, inside the directory the benchmark runs
/// from.
const SCRATCH: &str = ".e2e-scratch";

fn parse_args(args: &[String]) -> Result<(Workload, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        cap: Duration::from_secs(20),
        trace: false,
        size: Size::Paper,
        scratch: PathBuf::from(SCRATCH).join(std::process::id().to_string()),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                cfg.cap = Duration::try_from_secs_f64(s)
                    .map_err(|_| "--seconds must be non-negative".to_string())?;
            }
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` sets it.
                cfg.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn compare_main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    match read(a)
        .and_then(|a| Ok((a, read(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok((table, all_within)) => {
            print!("{table}");
            if all_within {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2e compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(workload, &cfg);
    // Leaves the shared scratch root only if no other run is using it.
    let _ = std::fs::remove_dir(SCRATCH);
    match render(workload, &cfg, &outcome, &HostStamp::current()) {
        Ok((record, result)) => {
            println!("{record}");
            println!("{result}");
            if outcome.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
