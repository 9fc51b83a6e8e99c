//! Running one simulation task, untraced (through `Pipeline::run_one`)
//! or traced (the same layer calls made one by one under spans), and
//! folding reports into the per-layer metrics.
//!
//! The traced runs execute each task three ways ([`run_three_ways`]):
//! untraced at full probe level, traced, and untraced at minimal probe
//! level, which gives the layer host times and the probe tax.

use std::time::Duration;

use ds_core::{
    InputSize, Mode, Pipeline, RunReport, Scenario as _, ScenarioBuild, System, SystemConfig,
};
use ds_probe::ProbeLevel;
use ds_runner::json::{self, Json};
use ds_runner::{report_to_json, Task};
use ds_workloads::catalog;
use ds_xlat::Translator;

use crate::stats::{geomean, median, ratio, thread_cpu, Rng};
use crate::trace::Recorder;
use crate::Metrics;

/// Simulated outputs every task is checked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub total_cycles: u64,
    pub gpu_l2_misses: u64,
    pub direct_pushes: u64,
}

/// The committed baseline that simulated outputs at the paper-default
/// configuration must match.
const REFERENCE: &str = "BENCH_2026-08-08.json";

/// The rows of [`REFERENCE`], read once.
pub struct Reference {
    rows: Vec<Json>,
}

impl Reference {
    pub fn load() -> Result<Reference, String> {
        let text =
            std::fs::read_to_string(REFERENCE).map_err(|e| format!("read {REFERENCE}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("parse {REFERENCE}: {e}"))?;
        let rows = doc
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{REFERENCE} has no benchmarks array"))?;
        Ok(Reference {
            rows: rows.to_vec(),
        })
    }

    /// The reference outputs of `spec`, which must run at the
    /// paper-default configuration.
    pub fn expected(&self, spec: &TaskSpec) -> Result<Expected, String> {
        let (code, input) = (spec.code.as_str(), spec.input.to_string());
        let row = self
            .rows
            .iter()
            .find(|r| {
                r.get("code").and_then(Json::as_str) == Some(code)
                    && r.get("input").and_then(Json::as_str) == Some(&input)
            })
            .ok_or_else(|| format!("{REFERENCE} has no {code} {input} row"))?;
        let key = spec.mode_key();
        let field = |name: &str| {
            row.get(key)
                .and_then(|m| m.get(name))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{REFERENCE}: {code} {input} {key} lacks {name}"))
        };
        Ok(Expected {
            total_cycles: field("total_cycles")?,
            gpu_l2_misses: field("gpu_l2_misses")?,
            direct_pushes: field("direct_pushes")?,
        })
    }
}

/// One simulation: benchmark, input, mode and configuration.
#[derive(Clone)]
pub struct TaskSpec {
    pub code: String,
    pub input: InputSize,
    pub mode: Mode,
    pub cfg: SystemConfig,
}

impl TaskSpec {
    pub fn label(&self) -> String {
        format!("{} {} {}", self.code, self.input, self.mode)
    }

    pub fn task(&self) -> Task {
        Task::new(&self.cfg, &self.code, self.input, self.mode)
    }

    /// The mode's name in a `POST /jobs` body and in the reference file.
    pub fn mode_key(&self) -> &'static str {
        if self.mode == Mode::Ccsm {
            "ccsm"
        } else {
            "ds"
        }
    }

    /// The task's row in a `POST /jobs` body.
    pub fn row(&self) -> String {
        format!(
            "{{\"bench\": \"{}\", \"input\": \"{}\", \"mode\": \"{}\"}}",
            self.code,
            self.input,
            self.mode_key()
        )
    }
}

/// Runs `spec` at probe `level` through `Pipeline::run_one`, the batch
/// entry point, on the calling thread. Each call builds a fresh
/// `System` and simulates; nothing is memoized. Returns the report and
/// the thread CPU time of the call: the simulation is single-threaded,
/// and CPU time leaves out hypervisor steal, which wall time does not.
pub fn run_untraced(spec: &TaskSpec, level: ProbeLevel) -> Result<(RunReport, Duration), String> {
    let bench =
        catalog::by_code(&spec.code).ok_or_else(|| format!("unknown benchmark {}", spec.code))?;
    let pipeline = Pipeline::with_config(spec.cfg.clone());
    ds_probe::prof::set_level(level);
    let start = thread_cpu();
    let report = pipeline.run_one(&bench, spec.input, spec.mode);
    let took = thread_cpu() - start;
    ds_probe::prof::set_level(ProbeLevel::Full);
    let report = report.map_err(|e| format!("{}: {e}", spec.label()))?;
    Ok((report, took))
}

/// Host time of each layer call in one traced task.
#[derive(Clone, Copy, Default)]
pub struct LayerTimes {
    pub translate: Option<Duration>,
    pub build: Duration,
    pub system_new: Duration,
    pub run: Duration,
    pub report_json: Duration,
    /// Thread CPU time of the whole traced task, comparable with
    /// [`run_untraced`]'s; the layer times above are the spans' wall
    /// times.
    pub total: Duration,
}

/// A task's simulation made ready to run, as `Pipeline::run_one`
/// makes it: the scenario built (after translation, in direct-store
/// modes) and a fresh `System`.
pub struct Prepared {
    system: System,
    build: ScenarioBuild,
}

/// Prepares `spec`'s simulation (`Translator::translate` for
/// direct-store modes, `Scenario::build`, `System::new`), recording a
/// span around each call under `root` and its host time in `times`.
pub fn prepare(
    spec: &TaskSpec,
    rec: &mut Recorder,
    root: u64,
    times: &mut LayerTimes,
) -> Result<Prepared, String> {
    let bench =
        catalog::by_code(&spec.code).ok_or_else(|| format!("unknown benchmark {}", spec.code))?;
    let plan = if spec.mode.pushes() {
        let (translation, took) = rec.time(root, "xlat.Translator::translate", || {
            Translator::new().translate(&bench.source(spec.input))
        });
        times.translate = Some(took);
        Some(
            translation
                .map_err(|e| format!("{}: translate: {e:?}", spec.label()))?
                .plan,
        )
    } else {
        None
    };
    let (build, took) = rec.time(root, "workloads.Scenario::build", || {
        bench.build(plan.as_ref(), spec.input)
    });
    times.build = took;
    let (system, took) = rec.time(root, "core.System::new", || {
        System::new(spec.cfg.clone(), spec.mode)
    });
    times.system_new = took;
    Ok(Prepared { system, build })
}

/// Runs `spec` at full probe level as the pipeline does ([`prepare`],
/// then `System::run`, then `report_to_json`), recording a span around
/// each call under one task span.
pub fn run_traced(spec: &TaskSpec, rec: &mut Recorder) -> Result<(RunReport, LayerTimes), String> {
    let cpu_start = thread_cpu();
    let (root, start) = rec.open();
    let mut times = LayerTimes::default();
    let Prepared { mut system, build } = prepare(spec, rec, root, &mut times)?;
    let (report, took) = rec.time(root, "core.System::run", || {
        system.run(build.program, build.kernels)
    });
    times.run = took;
    let (json, took) = rec.time(root, "runner.report_to_json", || {
        report_to_json(&report).compact()
    });
    std::hint::black_box(json);
    times.report_json = took;
    rec.close(root, 0, &format!("task {}", spec.label()), start);
    times.total = thread_cpu() - cpu_start;
    Ok((report, times))
}

/// One task run the three ways of a traced run.
pub struct ThreeWays {
    /// The report of the untraced full-probe-level run.
    pub report: RunReport,
    /// Host seconds of the two full-probe-level runs (untraced, traced).
    pub full_s: [f64; 2],
}

/// Runs `spec` untraced at full probe level, traced, and untraced at
/// minimal probe level, in an order drawn from `rng`, adding the host
/// times to `host`. Every run must pass [`check_report`] against
/// `expected` and give the same cycles and events.
pub fn run_three_ways(
    spec: &TaskSpec,
    expected: Option<Expected>,
    rng: &mut Rng,
    rec: &mut Recorder,
    host: &mut HostTimes,
) -> Result<ThreeWays, String> {
    let label = spec.label();
    let mut order = [0, 1, 2];
    rng.shuffle(&mut order);
    let mut untraced_full = None;
    let mut traced_s = 0.0;
    let mut seen = None;
    for way in order {
        let (report, untraced_s) = match way {
            0 => {
                let (report, took) = run_untraced(spec, ProbeLevel::Full)?;
                host.untraced_full += took;
                (report, Some(took.as_secs_f64()))
            }
            1 => {
                let (report, times) = run_traced(spec, rec)?;
                host.add_traced(spec.mode, &times);
                traced_s = times.total.as_secs_f64();
                (report, None)
            }
            _ => {
                let (report, took) = run_untraced(spec, ProbeLevel::Minimal)?;
                host.untraced_minimal += took;
                (report, None)
            }
        };
        check_report(&label, &report, expected)?;
        let got = (report.total_cycles.as_u64(), report.events);
        let first = *seen.get_or_insert(got);
        if first != got {
            return Err(format!(
                "{label}: runs diverged: (cycles, events) {got:?}, first run {first:?}"
            ));
        }
        if let Some(took) = untraced_s {
            untraced_full = Some((report, took));
        }
    }
    let (report, untraced_s) = untraced_full.expect("the untraced full run ran");
    Ok(ThreeWays {
        report,
        full_s: [untraced_s, traced_s],
    })
}

/// Checks a report against its expected outputs and the push
/// accounting identity every run must satisfy.
pub fn check_report(
    label: &str,
    report: &RunReport,
    expected: Option<Expected>,
) -> Result<(), String> {
    if report.pushes_attempted != report.direct_pushes + report.pushes_degraded {
        return Err(format!(
            "{label}: pushes_attempted {} != direct_pushes {} + pushes_degraded {}",
            report.pushes_attempted, report.direct_pushes, report.pushes_degraded
        ));
    }
    if let Some(want) = expected {
        let got = Expected {
            total_cycles: report.total_cycles.as_u64(),
            gpu_l2_misses: report.gpu_l2.misses.value(),
            direct_pushes: report.direct_pushes,
        };
        if got != want {
            return Err(format!("{label}: got {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}

/// Deterministic counters summed over one report per task.
#[derive(Default)]
pub struct Counts {
    events: u64,
    cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    warps: u64,
    l2_hits: u64,
    l2_misses: u64,
    l2_compulsory: u64,
    pushed_fills: u64,
    push_useful: u64,
    hub_transactions: u64,
    hub_probes: u64,
    hub_conflicts: u64,
    coh_msgs: u64,
    direct_msgs: u64,
    gpu_msgs: u64,
    noc_bytes: u64,
    dram_reads: u64,
    dram_writes: u64,
    row_hits: u64,
    pushes_attempted: u64,
    /// `(ccsm cycles, direct-store cycles)` per benchmark pair.
    pairs: Vec<(u64, u64)>,
}

impl Counts {
    pub fn add(&mut self, r: &RunReport) {
        self.events += r.events;
        self.cycles += r.total_cycles.as_u64();
        self.l1_hits += r.gpu_l1.hits.value();
        self.l1_misses += r.gpu_l1.misses.value();
        self.warps += r.warps_completed;
        self.l2_hits += r.gpu_l2.hits.value();
        self.l2_misses += r.gpu_l2.misses.value();
        self.l2_compulsory += r.gpu_l2.compulsory_misses.value();
        self.pushed_fills += r.gpu_l2.pushed_fills.value();
        self.push_useful += r.lens.push_useful;
        self.hub_transactions += r.hub_transactions;
        self.hub_probes += r.hub_probes;
        self.hub_conflicts += r.hub_conflicts;
        self.coh_msgs += r.coh_net.total_msgs();
        self.direct_msgs += r.direct_net.total_msgs();
        self.gpu_msgs += r.gpu_net.total_msgs();
        self.noc_bytes += r.coh_net.bytes + r.direct_net.bytes + r.gpu_net.bytes;
        self.dram_reads += r.dram_reads;
        self.dram_writes += r.dram_writes;
        self.row_hits += r.dram_row_hits;
        self.pushes_attempted += r.pushes_attempted;
    }

    /// Records one CCSM-vs-direct-store pair for the geomean speedup.
    pub fn add_pair(&mut self, ccsm: &RunReport, ds: &RunReport) {
        self.pairs
            .push((ccsm.total_cycles.as_u64(), ds.total_cycles.as_u64()));
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    pub fn metrics(&self) -> Metrics {
        let f = |v: u64| v as f64;
        let speedups: Vec<f64> = self.pairs.iter().map(|&(c, d)| ratio(f(c), f(d))).collect();
        vec![
            ("sim.events", f(self.events)),
            (
                "sim.events_per_cycle",
                ratio(f(self.events), f(self.cycles)),
            ),
            ("core.sim_cycles", f(self.cycles)),
            ("core.geomean_speedup", geomean(&speedups)),
            ("gpu.l1_accesses", f(self.l1_hits + self.l1_misses)),
            (
                "gpu.l1_hit_rate",
                ratio(f(self.l1_hits), f(self.l1_hits + self.l1_misses)),
            ),
            ("gpu.warps", f(self.warps)),
            ("cache.l2_accesses", f(self.l2_hits + self.l2_misses)),
            (
                "cache.l2_miss_rate",
                ratio(f(self.l2_misses), f(self.l2_hits + self.l2_misses)),
            ),
            ("cache.l2_compulsory", f(self.l2_compulsory)),
            ("cache.pushed_fills", f(self.pushed_fills)),
            (
                "cache.push_hit_ratio",
                ratio(f(self.push_useful), f(self.pushed_fills)),
            ),
            ("coherence.hub_transactions", f(self.hub_transactions)),
            ("coherence.hub_probes", f(self.hub_probes)),
            ("coherence.hub_conflicts", f(self.hub_conflicts)),
            ("noc.coh_msgs", f(self.coh_msgs)),
            ("noc.direct_msgs", f(self.direct_msgs)),
            ("noc.gpu_msgs", f(self.gpu_msgs)),
            ("noc.bytes", f(self.noc_bytes)),
            ("mem.dram_reads", f(self.dram_reads)),
            ("mem.dram_writes", f(self.dram_writes)),
            (
                "mem.row_hit_ratio",
                ratio(f(self.row_hits), f(self.dram_reads + self.dram_writes)),
            ),
            ("cpu.pushes_attempted", f(self.pushes_attempted)),
        ]
    }
}

/// Host time of the traced layer calls, plus the untraced full and
/// minimal probe-level runs of the same tasks, collected in a traced
/// run.
#[derive(Default)]
pub struct HostTimes {
    run_ccsm: Duration,
    run_ds: Duration,
    system_new: Vec<f64>,
    translate: Vec<f64>,
    build: Vec<f64>,
    report_json: Vec<f64>,
    traced_total: Duration,
    untraced_full: Duration,
    untraced_minimal: Duration,
}

impl HostTimes {
    fn add_traced(&mut self, mode: Mode, t: &LayerTimes) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        match mode {
            Mode::Ccsm => self.run_ccsm += t.run,
            _ => self.run_ds += t.run,
        }
        self.system_new.push(ms(t.system_new));
        if let Some(d) = t.translate {
            self.translate.push(ms(d));
        }
        self.build.push(ms(t.build));
        self.report_json.push(ms(t.report_json));
        self.traced_total += t.total;
    }

    /// Layer host-time metrics; `events` is the event count the traced
    /// `System::run` calls processed, for the cost per event.
    pub fn metrics(&self, events: u64) -> Metrics {
        let run = self.run_ccsm + self.run_ds;
        let full = self.untraced_full.as_secs_f64();
        let minimal = self.untraced_minimal.as_secs_f64();
        vec![
            (
                "sim.ns_per_event",
                ratio(run.as_secs_f64() * 1e9, events as f64),
            ),
            ("core.run_s", run.as_secs_f64()),
            ("core.run_ccsm_s", self.run_ccsm.as_secs_f64()),
            ("core.run_ds_s", self.run_ds.as_secs_f64()),
            ("core.system_new_ms", median(&self.system_new)),
            ("probe.tax_s", full - minimal),
            ("probe.tax_ratio", ratio(full, minimal)),
            ("xlat.translate_ms", median(&self.translate)),
            ("workloads.build_ms", median(&self.build)),
            ("runner.report_json_ms", median(&self.report_json)),
            (
                "trace.overhead_ratio",
                ratio(self.traced_total.as_secs_f64(), full),
            ),
        ]
    }
}
