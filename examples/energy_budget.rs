//! Energy budgeting: choosing the beacon period `T` (paper Section 4.3.1).
//!
//! ```sh
//! cargo run --release --example energy_budget
//! ```
//!
//! Sweeps the beacon period and prints, for each `T`, the localization
//! accuracy and the team energy with and without CoCoA's sleep
//! coordination — the operating curve an operator uses to pick `T`. The
//! paper lands on T between 50 and 100 s; this example shows the same
//! trade-off on a downsized run.

use cocoa_suite::core::experiment::{fig9, run_rows, ExperimentScale};
use cocoa_suite::sim::time::SimDuration;

fn main() {
    let scale = ExperimentScale {
        seed: 11,
        duration: SimDuration::from_secs(600),
        num_robots: 50,
    };
    println!(
        "Sweeping beacon period T ({} robots, {} simulated)...\n",
        scale.num_robots, scale.duration
    );
    let periods = [10, 50, 100, 300];
    let fig = fig9(scale, &periods);
    let runs = run_rows(&fig.rows);
    print!("{}", fig.render(&runs));

    // `(T, error, coordinated energy, uncoordinated energy)` per period.
    let points: Vec<(u64, f64, f64, f64)> = periods
        .iter()
        .map(|&t| {
            let with = runs.get(&format!("fig9.t{t}.coordinated"));
            let without = runs.get(&format!("fig9.t{t}.uncoordinated"));
            (
                t,
                with.mean_error_over_time(),
                with.energy.total_j(),
                without.energy.total_j(),
            )
        })
        .collect();

    // A simple operating-point recommendation, the way Section 4.3.1
    // reasons: the smallest T whose error is within 25% of the best and
    // whose energy is within 2x of the cheapest.
    let best_err = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let cheapest = points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
    let pick = points
        .iter()
        .find(|p| p.1 <= best_err * 1.25 && p.2 <= cheapest * 2.0);
    match pick {
        Some(&(t, error, on_j, off_j)) => println!(
            "recommended operating point: T = {t} s ({error:.1} m, {on_j:.0} J, {:.1}x savings)",
            off_j / on_j
        ),
        None => println!("no single T satisfies both constraints; pick per application"),
    }
}
