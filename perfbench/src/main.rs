//! `perfbench`: the end-to-end and per-layer benchmark harness.
//!
//! ```text
//! perfbench --workload serve-mixed|serve-hits --seed N
//!           --seconds S --trace 0|1 [--dsserve PATH]
//! ```
//!
//! Prints progress and tables on stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones
//! (host time measured with no spans recorded); with `--trace 1` they
//! are the per-layer ones, and the run's spans and per-task table are
//! written under `perfbench/out/`. See `perfbench/README.md`.

mod layers;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sweep_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// Every workload exercises every layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_cycle", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("core.run_s", "s"),
    ("core.run_ccsm_s", "s"),
    ("core.run_ds_s", "s"),
    ("core.system_new_ms", "ms"),
    ("core.sim_cycles", "count"),
    ("core.geomean_speedup", "ratio"),
    ("gpu.l1_accesses", "count"),
    ("gpu.l1_hit_rate", "ratio"),
    ("gpu.warps", "count"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_miss_rate", "ratio"),
    ("cache.l2_compulsory", "count"),
    ("cache.pushed_fills", "count"),
    ("cache.push_hit_ratio", "ratio"),
    ("coherence.hub_transactions", "count"),
    ("coherence.hub_probes", "count"),
    ("coherence.hub_conflicts", "count"),
    ("noc.coh_msgs", "count"),
    ("noc.direct_msgs", "count"),
    ("noc.gpu_msgs", "count"),
    ("noc.bytes", "bytes"),
    ("mem.dram_reads", "count"),
    ("mem.dram_writes", "count"),
    ("mem.row_hit_ratio", "ratio"),
    ("cpu.pushes_attempted", "count"),
    ("probe.tax_s", "s"),
    ("probe.tax_ratio", "ratio"),
    ("xlat.translate_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("runner.report_json_ms", "ms"),
    ("runner.store_hits", "count"),
    ("runner.store_misses", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.results_ms", "ms"),
    ("serve.results_kb", "KiB"),
    ("serve.done_lag_ms", "ms"),
    ("serve.task_wait_ms", "ms"),
    ("serve.task_service_ms", "ms"),
    ("serve.tasks", "count"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.journal_records", "count"),
    ("serve.journal_append_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `dsserve` binary serve-mixed spawns.
    pub dsserve: Option<PathBuf>,
}

/// Measured metrics by name, in any order.
pub type Metrics = Vec<(&'static str, f64)>;

/// What a workload run hands back for the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; must cover exactly the mode's metric list.
    pub metrics: Metrics,
}

const USAGE: &str = "usage: perfbench --workload serve-mixed|serve-hits \
--seed N --seconds S --trace 0|1 [--dsserve PATH]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dsserve = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            "--dsserve" => dsserve = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        dsserve,
    })
}

/// Renders the result line, checking the metric set against the
/// declared list for the mode.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if outcome.metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            outcome.metrics.len(),
            declared.len()
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-mixed" | "serve-hits" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome.and_then(|o| result_line(&o, args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
