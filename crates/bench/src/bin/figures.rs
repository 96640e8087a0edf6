//! Regenerates every table and figure of the paper at full scale
//! (50 robots, 30 simulated minutes) and prints the rows/series the paper
//! reports. This is the one-shot entry point behind `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p cocoa-bench --bin figures
//! ```
//!
//! Pass figure names (`fig1 fig4 fig6 fig7 fig8 fig9 fig10 ablations
//! multicast estimator geo`) to run a subset; an unknown name exits 2.
//! The selected figures' distinct scenarios run once each, together.

use cocoa_bench::figure_scale;
use cocoa_core::experiment::{figures, run_rows, Figure};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = figure_scale();
    let table = figures(scale);
    if let Some(unknown) = args.iter().find(|a| !table.iter().any(|f| f.name == *a)) {
        let names: Vec<&str> = table.iter().map(|f| f.name).collect();
        eprintln!(
            "figures: unknown figure `{unknown}`; valid names: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let chosen: Vec<&Figure> = table
        .iter()
        .filter(|f| args.is_empty() || args.iter().any(|a| a == f.name))
        .collect();
    println!(
        "scale: {} robots, {} simulated, seed {}\n",
        scale.num_robots, scale.duration, scale.seed
    );
    let t0 = std::time::Instant::now();
    let runs = run_rows(chosen.iter().flat_map(|f| &f.rows));
    for f in chosen {
        print!("{}", f.render(&runs));
    }
    eprintln!(
        "total wall time: {:.1} s ({} scenarios)",
        t0.elapsed().as_secs_f64(),
        runs.distinct()
    );
}
