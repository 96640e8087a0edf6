//! The benchmark's vocabulary: its workloads, the end-to-end metrics
//! every workload reports untraced, and the per-layer metrics every
//! workload reports in its traced pass. `BENCHMARK.json` at the root of
//! the repository mirrors these tables; a test keeps the two equal.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work done).
    Lower,
    /// Larger is better (rates, useful-outcome ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed relative worsening of the median.
    pub bound: f64,
}

/// What produces a per-layer metric. A workload that does not exercise
/// a source reports its metrics as 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The traced pass over the workload's reference scenario (every
    /// workload).
    Probe,
    /// The served traffic mix.
    Serve,
    /// The checkpointed sweeps.
    Sweep,
}

/// A metric of one layer, reported by the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential paper-default runs with the Bayesian grid.
    PaperBayes,
    /// Sequential paper-scale runs with the EKF over ODMRP.
    PaperEkf,
    /// A closed-loop traffic mix against an in-process server.
    ServeMixed,
    /// Supervised, checkpointed sweeps of the Fig. 9 period family.
    SweepCheckpointed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperBayes,
        Workload::PaperEkf,
        Workload::ServeMixed,
        Workload::SweepCheckpointed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBayes => "paper_bayes",
            Workload::PaperEkf => "paper_ekf",
            Workload::ServeMixed => "serve_mixed",
            Workload::SweepCheckpointed => "sweep_checkpointed",
        }
    }

    /// Why the benchmark runs this workload.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperBayes => "paper default (50 robots, 200 m x 200 m, 1800 s, Bayes grid), the run behind every figure; metric sampling and the grid carry its time",
            Workload::PaperEkf => "same world with the EKF over ODMRP; it bypasses the grid, so engine, channel, mobility and mesh carry its time",
            Workload::ServeMixed => "closed-loop requests mixing cache hits, joins, warm forks, cold and traced runs; caching, HTTP and serialization decide latency",
            Workload::SweepCheckpointed => "supervised paper-scale sweeps with in-flight checkpoints and a resume pass; snapshot capture and manifest writes carry much of its time",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this workload produces the metrics of `source`.
    pub fn exercises(self, source: Source) -> bool {
        match source {
            Source::Probe => true,
            Source::Serve => self == Workload::ServeMixed,
            Source::Sweep => self == Workload::SweepCheckpointed,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, measured with tracing off. The timing bounds are
/// wide because of the shared 2-vCPU host they were set on. While it was
/// quiet, ten runs of one workload spread by at most 0.12 (interquartile
/// range over median). It also slows every process by about 1.6× for
/// about five minutes at a time; when such a phase covered three of ten
/// runs, timings spread by up to 0.39 (see README.md).
pub const END_TO_END: &[EndToEnd] = &[
    // Median of eleven set-ups spread across the run: input generation,
    // server start and an untimed warm-up run.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Median over batches (3 Bayes runs, 8 EKF runs, a block of 20
    // requests, a sweep) of the operations completed per wall second.
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    // Median wall time of one run, request or sweep point.
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    // VmHWM at the end of the measured loop. Memory does not slow down
    // with the host, so its bound follows its own, smaller spread: up
    // to 0.10 on serve_mixed, whose peak varied from 158 to 188 MiB
    // over runs of the same work, and up to 0.065 elsewhere.
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Probe, Serve, Sweep};

/// Per-layer metrics, reported by the traced pass. A `share` is the
/// layer's self time over `run.total` in one traced run of the
/// workload's reference scenario; the shares and `unattributed.share`
/// partition the run.
pub const PER_LAYER: &[PerLayer] = &[
    layer("world.metrics_sample.share", "ratio", Lower, Probe),
    layer("world.metrics_sample.us_per_call", "us", Lower, Probe),
    layer("localization.grid_update.share", "ratio", Lower, Probe),
    layer("localization.grid_update.us_per_call", "us", Lower, Probe),
    layer("localization.grid_fix.share", "ratio", Lower, Probe),
    layer("localization.grid_fix.us_per_call", "us", Lower, Probe),
    layer("localization.grid_updates", "count", Lower, Probe),
    layer("localization.cells_touched", "count", Lower, Probe),
    layer("net.tx_end.self_share", "ratio", Lower, Probe),
    layer("net.transmit.self_share", "ratio", Lower, Probe),
    layer("net.channel_sample.share", "ratio", Lower, Probe),
    layer("net.receptions", "count", Lower, Probe),
    layer("mobility.step.share", "ratio", Lower, Probe),
    layer("mobility.step.us_per_call", "us", Lower, Probe),
    layer("multicast.mesh_handle.share", "ratio", Lower, Probe),
    layer("multicast.mesh_control.share", "ratio", Lower, Probe),
    layer("multicast.control_packets", "count", Lower, Probe),
    layer("world.window.share", "ratio", Lower, Probe),
    layer("world.setup.share", "ratio", Lower, Probe),
    layer("world.calibrate_ms", "ms", Lower, Probe),
    layer("world.setup_ms", "ms", Lower, Probe),
    layer("engine.dispatch.share", "ratio", Lower, Probe),
    layer("engine.events", "count", Lower, Probe),
    layer("engine.ns_per_event", "ns", Lower, Probe),
    layer("engine.queue_depth_max", "count", Lower, Probe),
    layer("unattributed.share", "ratio", Lower, Probe),
    layer("alloc.per_event", "count", Lower, Probe),
    layer("alloc.mb_per_run", "MiB", Lower, Probe),
    layer("telemetry.trace_overhead_x", "x", Lower, Probe),
    layer("telemetry.jsonl_mb", "MiB", Lower, Probe),
    layer("telemetry.to_jsonl_ms", "ms", Lower, Probe),
    layer("checkpoint.bytes", "bytes", Lower, Probe),
    layer("checkpoint.capture_ms", "ms", Lower, Probe),
    layer("checkpoint.resume_ms", "ms", Lower, Probe),
    layer("manifest.store_ms", "ms", Lower, Probe),
    layer("manifest.load_ms", "ms", Lower, Probe),
    layer("manifest.checkpoints_written", "count", Lower, Sweep),
    layer("sweep.worker_idle_share", "ratio", Lower, Sweep),
    layer("supervisor.retries", "count", Lower, Sweep),
    layer("serve.hit.latency_p50_ms", "ms", Lower, Serve),
    layer("serve.join.latency_p50_ms", "ms", Lower, Serve),
    layer("serve.warm.latency_p50_ms", "ms", Lower, Serve),
    layer("serve.cold.latency_p50_ms", "ms", Lower, Serve),
    layer("serve.traced.latency_p50_ms", "ms", Lower, Serve),
    layer("serve.latency_p90_ms", "ms", Lower, Serve),
    layer("serve.hit_ratio", "ratio", Higher, Serve),
    layer("serve.join_ratio", "ratio", Higher, Serve),
    layer("serve.warm_fork_ratio", "ratio", Higher, Serve),
    layer("serve.traced.body_mb", "MiB", Lower, Serve),
    layer("serve.spec_parse_us", "us", Lower, Serve),
];

/// Metric values by name, as a workload measured them.
pub type Values = BTreeMap<&'static str, f64>;

/// The `(name, unit, value)` triples one run reports: every end-to-end
/// metric untraced, every per-layer metric traced (0 for a source the
/// workload does not exercise).
///
/// # Errors
///
/// Names a metric the workload failed to measure, measured without it
/// being in the catalog, or measured as a non-finite number.
pub fn select(
    workload: Workload,
    trace: bool,
    values: &Values,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let wanted: Vec<(&'static str, &'static str, bool)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, workload.exercises(m.source)))
            .collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, true)).collect()
    };
    let mut out = Vec::with_capacity(wanted.len());
    for &(name, unit, measured) in &wanted {
        let value = match (measured, values.get(name)) {
            (true, Some(&v)) if v.is_finite() => v,
            (true, Some(v)) => return Err(format!("metric {name} is not finite ({v})")),
            (true, None) => return Err(format!("metric {name} was not measured")),
            (false, None) => 0.0,
            (false, Some(_)) => {
                return Err(format!("metric {name} measured by the wrong workload"))
            }
        };
        out.push((name, unit, value));
    }
    let all: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    if let Some(stray) = values.keys().find(|k| !all.contains(k)) {
        return Err(format!("metric {stray} is not in the catalog"));
    }
    Ok(out)
}
