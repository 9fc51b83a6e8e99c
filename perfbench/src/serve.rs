//! The workloads: closed-loop clients drive a real `dsserve serve`
//! over HTTP.
//!
//! Each job is a CCSM + direct-store pair of one benchmark at small
//! input.
//!
//! - `serve-mixed`: pairs of MT, BL, HT or PT. Half the jobs are fresh
//!   (a config override no earlier job used: a store miss that
//!   simulates, stores and journals), half repeat one of the same
//!   client's earlier fresh bodies (a store hit that only reads).
//! - `serve-hits`: every Table II small benchmark but ST and GA is
//!   simulated once at the paper-default configuration before timing;
//!   every timed job repeats one of them (a store hit), so the timed
//!   read path bypasses the simulator.
//!
//! A plan's make-up is the same for every seed; the seed sets the order
//! and the overrides. A client sends its next job only after the
//! previous one's results arrived. Completion is read from the job's
//! event stream, so latency is not quantized by a polling interval.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ds_core::{InputSize, Mode, RunReport, SystemConfig};
use ds_probe::ProbeLevel;
use ds_runner::json::{self, Json};
use ds_runner::report_to_json;
use ds_runner::Task;
use ds_serve::http::{client_request, host_of};
use ds_serve::Journal;

use crate::layers::{
    check_report, run_three_ways, run_untraced, Counts, HostTimes, Reference, TaskSpec,
};
use crate::stats::{median, min, peak_rss_mib, quantile, Rng};
use crate::trace::Recorder;
use crate::{Args, Metrics, Outcome};

/// Closed-loop clients, each one thread of the harness process.
const CLIENTS: usize = 2;
/// Benchmarks a serve-mixed job draws from (simulations of about
/// 1–30 ms each).
const BENCHES: [&str; 4] = ["MT", "BL", "HT", "PT"];
/// Benchmarks serve-hits simulates before timing and then repeats: the
/// Table II small inputs but ST and GA, whose simulations alone are
/// most of a small sweep.
const HIT_BENCHES: [&str; 20] = [
    "BF", "BL", "BP", "BS", "CH", "FW", "GC", "HT", "KM", "LU", "LV", "MM", "MS", "MT", "NN", "NW",
    "PT", "SP", "SR", "VA",
];
/// Override ranges fresh jobs draw from, as (first value, count):
/// 32 × 30 pairs per benchmark, far more than a plan's fresh jobs.
const SB_ENTRIES: (u64, u64) = (8, 32);
const COH_HOP: (u64, u64) = (10, 30);
/// Timed jobs in a plan per second of `--seconds` (about what two
/// clients complete), rounded up so that each client's share divides
/// evenly among the benchmarks.
const MIXED_JOBS_PER_SECOND: u64 = 34;
const HITS_JOBS_PER_SECOND: u64 = 37;
/// Server start-ups per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 31;
/// Fresh jobs whose journal records the traced run re-appends in
/// process to time `Journal` appends.
const JOURNAL_SAMPLE_JOBS: usize = 100;
/// Budget for any single HTTP exchange or server start.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One job of the plan.
#[derive(Clone)]
struct Job {
    bench: &'static str,
    sb_entries: u64,
    coh_hop: u64,
    /// Index of the fresh job whose body this job sends (itself when
    /// fresh).
    origin: usize,
    fresh: bool,
}

impl Job {
    fn body(&self) -> String {
        let rows: Vec<String> = self.specs().iter().map(TaskSpec::row).collect();
        format!(
            "{{\"tasks\": [{}], \"config\": {{\"store_buffer_entries\": {}, \"coh_hop_latency\": {}}}}}",
            rows.join(", "),
            self.sb_entries,
            self.coh_hop
        )
    }

    fn specs(&self) -> [TaskSpec; 2] {
        let mut cfg = SystemConfig::paper_default();
        cfg.store_buffer_entries = self.sb_entries as usize;
        cfg.coh_hop_latency = self.coh_hop;
        [Mode::Ccsm, Mode::DirectStore].map(|mode| TaskSpec {
            code: self.bench.to_string(),
            input: InputSize::Small,
            mode,
            cfg: cfg.clone(),
        })
    }
}

/// The seeded serve-mixed plan: `per_client` jobs for each client, dealt
/// round-robin (job `i` is client `i % CLIENTS`'s). Every client's share
/// has the same make-up whatever the seed: half fresh, spread evenly
/// over the benchmarks, and half repeats of one of that client's earlier
/// fresh jobs. The first job is fresh, so a repeat always has one to
/// resend. Fresh overrides never repeat across the plan, so every fresh
/// task is a store miss and every repeated task a store hit.
fn plan(seed: u64, per_client: usize) -> Vec<Job> {
    let half = per_client / 2;
    assert!(
        half > 0 && half.is_multiple_of(BENCHES.len()),
        "plan of {per_client} jobs per client"
    );
    let mut rng = Rng::new(seed);
    let mut used = std::collections::HashSet::new();
    let mut jobs: Vec<Option<Job>> = vec![None; per_client * CLIENTS];
    for c in 0..CLIENTS {
        let mut kinds: Vec<bool> = (1..per_client).map(|k| k < half).collect();
        rng.shuffle(&mut kinds);
        kinds.insert(0, true);
        let mut benches: Vec<&'static str> = BENCHES.iter().copied().cycle().take(half).collect();
        rng.shuffle(&mut benches);
        let mut fresh = Vec::with_capacity(half);
        for (k, is_fresh) in kinds.into_iter().enumerate() {
            let i = k * CLIENTS + c;
            let job = if is_fresh {
                let bench = benches.pop().expect("one benchmark per fresh job");
                let (sb_entries, coh_hop) = loop {
                    let pick = (
                        SB_ENTRIES.0 + rng.below(SB_ENTRIES.1),
                        COH_HOP.0 + rng.below(COH_HOP.1),
                    );
                    if used.insert((bench, pick)) {
                        break pick;
                    }
                };
                fresh.push(i);
                Job {
                    bench,
                    sb_entries,
                    coh_hop,
                    origin: i,
                    fresh: true,
                }
            } else {
                let origin = fresh[rng.below(fresh.len() as u64) as usize];
                Job {
                    origin,
                    fresh: false,
                    ..jobs[origin].clone().expect("fresh jobs come first")
                }
            };
            jobs[i] = Some(job);
        }
    }
    jobs.into_iter()
        .map(|j| j.expect("every job is planned"))
        .collect()
}

/// The seeded serve-hits plan. It starts with one fresh job per
/// benchmark of [`HIT_BENCHES`] at the paper-default configuration, the
/// warm-up sent one by one before timing. Then come `per_client`
/// repeats of those for each client, dealt round-robin: each client
/// sends every benchmark equally often, in a seeded order.
fn hits_plan(seed: u64, per_client: usize) -> Vec<Job> {
    let warm = HIT_BENCHES.len();
    assert!(
        per_client > 0 && per_client.is_multiple_of(warm),
        "plan of {per_client} jobs per client"
    );
    let cfg = SystemConfig::paper_default();
    let mut jobs: Vec<Job> = HIT_BENCHES
        .iter()
        .enumerate()
        .map(|(origin, &bench)| Job {
            bench,
            sb_entries: cfg.store_buffer_entries as u64,
            coh_hop: cfg.coh_hop_latency,
            origin,
            fresh: true,
        })
        .collect();
    let mut rng = Rng::new(seed);
    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|_| {
            let mut order: Vec<usize> = (0..warm).cycle().take(per_client).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    for k in 0..per_client {
        for order in &orders {
            let origin = order[k];
            jobs.push(Job {
                origin,
                fresh: false,
                ..jobs[origin].clone()
            });
        }
    }
    jobs
}

/// A running `dsserve serve`, shut down (or killed) when dropped.
struct Server {
    child: Child,
    url: String,
}

impl Server {
    /// Starts `dsserve serve` with one simulation worker and a fresh
    /// cache directory and journal under `dir`; returns it with the time
    /// from spawn to the first 200 from `/health`.
    fn start(bin: &Path, dir: &Path) -> Result<(Server, Duration), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let port_file = dir.join("addr");
        let log = std::fs::File::create(dir.join("dsserve.log"))
            .map_err(|e| format!("create server log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .args(["--port", "0", "--workers", "1", "--handlers", "8"])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--cache")
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            url: String::new(),
        };
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                let url = format!("http://{}", addr.trim());
                if let Ok((200, _)) = client_request(&url, "GET", "/health", None, TIMEOUT) {
                    let took = start.elapsed();
                    server.url = url;
                    return Ok((server, took));
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("dsserve exited during start-up: {status}"));
            }
            if start.elapsed() > TIMEOUT {
                return Err("dsserve did not answer /health in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The parsed `GET /metrics` document.
    fn metrics(&self) -> Result<Json, String> {
        let (status, text) = client_request(&self.url, "GET", "/metrics", None, TIMEOUT)?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        json::parse(&text).map_err(|e| format!("bad /metrics body: {e}"))
    }

    /// Asks the server to drain and exit, and waits for it.
    fn stop(mut self) -> Result<(), String> {
        client_request(&self.url, "POST", "/shutdown", None, TIMEOUT)?;
        let deadline = Instant::now() + TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("dsserve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("dsserve did not exit after /shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What a client observed for one job.
struct Observed {
    index: usize,
    fresh: bool,
    latency: Duration,
    submit: Duration,
    results: Duration,
    /// Server-side time from the job's span-close event to the event
    /// stream's closing `done` line.
    done_lag_ms: Option<f64>,
    /// The results body; `None` when the job failed.
    body: Option<String>,
}

/// Follows `GET /jobs/<id>/events` to its closing `done` line, which
/// the service sends once the job is complete (after a fixed grace
/// period); returns the server-side gap, in ms, between the job's
/// span-close event and that line, when the span-close was seen.
fn await_job(url: &str, id: u64) -> Result<Option<f64>, String> {
    let host = host_of(url)?;
    let mut stream = TcpStream::connect(&host).map_err(|e| format!("connect {host}: {e}"))?;
    stream.set_read_timeout(Some(TIMEOUT)).ok();
    let request =
        format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send events request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read events status: {e}"))?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(format!("events stream answered {line:?}"));
    }
    let mut in_body = false;
    let mut closed_us = None;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read events: {e}"))?;
        if n == 0 {
            return Err("event stream ended before its done line".into());
        }
        if !in_body {
            in_body = line.trim_end().is_empty();
            continue;
        }
        let Ok(ev) = json::parse(line.trim()) else {
            continue;
        };
        let t_us = ev.get("t_us").and_then(Json::as_u64);
        match ev.get("event").and_then(Json::as_str) {
            Some("span-close") if ev.get("kind").and_then(Json::as_str) == Some("job") => {
                closed_us = t_us;
            }
            // The stream's grace sleep can outlast a descheduled
            // worker, so the span-close may miss the stream; the job is
            // done either way, only its lag is unknown.
            Some("done") => {
                return Ok(closed_us
                    .zip(t_us)
                    .map(|(closed, done)| done.saturating_sub(closed) as f64 / 1e3));
            }
            _ => {}
        }
    }
}

/// Runs one job: submit `body`, follow the event stream to completion,
/// fetch the results. A failed job is reported on stderr and comes
/// back without a body.
fn one_job(url: &str, index: usize, body: &str, fresh: bool, rec: &mut Recorder) -> Observed {
    let (root, start) = rec.open();
    let kind = if fresh { "fresh" } else { "repeat" };
    match try_job(url, body, root, rec) {
        Ok((submit, results, done_lag_ms, text)) => Observed {
            index,
            fresh,
            latency: rec.close(root, 0, &format!("job {index} {kind}"), start),
            submit,
            results,
            done_lag_ms,
            body: Some(text),
        },
        Err(e) => {
            eprintln!("perfbench: FAILED job {index}: {e}");
            Observed {
                index,
                fresh,
                latency: start.elapsed(),
                submit: Duration::ZERO,
                results: Duration::ZERO,
                done_lag_ms: None,
                body: None,
            }
        }
    }
}

/// The three requests of [`one_job`], each under a span: returns the
/// submit and results round trips, the done lag and the results body.
fn try_job(
    url: &str,
    body: &str,
    root: u64,
    rec: &mut Recorder,
) -> Result<(Duration, Duration, Option<f64>, String), String> {
    let (answer, submit) = rec.time(root, "serve.POST /jobs", || {
        client_request(url, "POST", "/jobs", Some(body), TIMEOUT)
    });
    let (status, text) = answer?;
    if status != 200 {
        return Err(format!("POST /jobs answered {status}: {text}"));
    }
    let id = json::parse(&text)
        .ok()
        .and_then(|d| d.get("job").and_then(Json::as_u64))
        .ok_or_else(|| format!("bad submit answer {text:?}"))?;
    let (waited, _) = rec.time(root, "serve.GET /jobs/<id>/events", || await_job(url, id));
    let done_lag_ms = waited?;
    let path = format!("/jobs/{id}/results");
    let (answer, results) = rec.time(root, "serve.GET /jobs/<id>/results", || {
        client_request(url, "GET", &path, None, TIMEOUT)
    });
    let (status, text) = answer?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    Ok((submit, results, done_lag_ms, text))
}

/// The `report` object of each row of a results body, compact, in task
/// order; `Err` unless the job is done and every task is `ok`.
fn served_reports(body: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(body).map_err(|e| format!("bad results body: {e}"))?;
    if doc.get("state").and_then(Json::as_str) != Some("done") {
        return Err("results fetched before the job was done".into());
    }
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results body without rows")?;
    rows.iter()
        .map(
            |row| match (row.get("outcome").and_then(Json::as_str), row.get("report")) {
                (Some("ok"), Some(report)) => Ok(report.compact()),
                (outcome, _) => Err(format!("task outcome {outcome:?}")),
            },
        )
        .collect()
}

/// A histogram's mean and sample count from the `/metrics` document.
fn histogram(metrics: &Json, name: &str) -> (f64, u64) {
    metrics
        .get("service")
        .and_then(|s| s.get("histograms"))
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some(name))
        })
        .map(|h| {
            (
                h.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                h.get("samples").and_then(Json::as_u64).unwrap_or(0),
            )
        })
        .unwrap_or((0.0, 0))
}

fn count(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .dsserve
        .clone()
        .ok_or("serve-mixed needs --dsserve PATH")?;
    in_work_dir(|work| run_in(args, &bin, work))
}

/// Runs `f` with a scratch directory of this process's own under
/// `perfbench/work/`, removed afterwards.
fn in_work_dir<T>(f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let root = Path::new("perfbench/work");
    let work = root.join(std::process::id().to_string());
    let result = f(&work);
    let _ = std::fs::remove_dir_all(&work);
    // Left in place while another run still uses it.
    let _ = std::fs::remove_dir(root);
    result
}

fn run_in(args: &Args, bin: &Path, work: &Path) -> Result<Outcome, String> {
    // Set-up: start a server SETUP_REPEATS times, each on a fresh cache
    // directory; the last one serves the load.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for k in 0..SETUP_REPEATS {
        let (s, took) = Server::start(bin, &work.join(format!("server{k}")))?;
        setups.push(took.as_secs_f64());
        if k + 1 < SETUP_REPEATS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUP_REPEATS > 0");
    // The plan, and how many of its first jobs are a warm-up sent one
    // by one before timing.
    let per_client = |jobs_per_second: u64, step: usize| {
        let n = (jobs_per_second * args.seconds).div_ceil(CLIENTS as u64) as usize;
        n.div_ceil(step) * step
    };
    let (jobs, warm) = if args.workload == "serve-hits" {
        let n = per_client(HITS_JOBS_PER_SECOND, HIT_BENCHES.len());
        (hits_plan(args.seed, n), HIT_BENCHES.len())
    } else {
        (plan(args.seed, per_client(MIXED_JOBS_PER_SECOND, 2 * BENCHES.len())), 0)
    };
    let total = jobs.len();
    let fresh = jobs.iter().filter(|j| j.fresh).count();
    eprintln!(
        "perfbench: {} — {total} jobs ({fresh} fresh, {} repeat; the first {warm} sent \
         before timing), {CLIENTS} clients, seed {}",
        args.workload,
        total - fresh,
        args.seed
    );

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0, args.trace);
    let mut observed: Vec<Observed> = (0..warm)
        .map(|i| one_job(&server.url, i, &jobs[i].body(), jobs[i].fresh, &mut rec))
        .collect();

    // Load.
    let load_start = Instant::now();
    let logs: Vec<(Vec<Observed>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mine: Vec<usize> = (warm + c..total).step_by(CLIENTS).collect();
                let mut rec = Recorder::new(epoch, (c as u64 + 1) << 40, args.trace);
                let (url, jobs) = (&server.url, &jobs);
                s.spawn(move || {
                    let seen: Vec<Observed> = mine
                        .into_iter()
                        .map(|i| one_job(url, i, &jobs[i].body(), jobs[i].fresh, &mut rec))
                        .collect();
                    (seen, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = load_start.elapsed().as_secs_f64();

    let metrics_doc = server.metrics()?;
    let peak_rss = peak_rss_mib(&server.pid())?;
    server.stop()?;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // Check every job's results.
    let mut failed = 0u64;
    for (seen, client_rec) in logs {
        observed.extend(seen);
        rec.absorb(client_rec);
    }
    observed.sort_by_key(|o| o.index);
    let served: Vec<Option<Vec<String>>> = observed
        .iter()
        .map(|o| {
            let reports = o.body.as_deref().map(served_reports)?;
            reports
                .map_err(|e| eprintln!("perfbench: FAILED job {}: {e}", o.index))
                .ok()
        })
        .collect();
    // Only the default configuration has reference outputs.
    let reference = match warm {
        0 => None,
        _ => Some(Reference::load()?),
    };
    let verify = Verify::run(args, &jobs, reference.as_ref(), &mut rec)?;
    for (i, job) in jobs.iter().enumerate() {
        let same = matches!(
            (&served[i], &verify.batch[job.origin]),
            (Some(got), Some(want)) if got == want
        );
        if !same {
            if served[i].is_some() {
                eprintln!("perfbench: FAILED job {i}: served report differs from batch run");
            }
            failed += 1;
        }
    }
    // The plan predicts the store's answers exactly.
    if !store_as_planned(&metrics_doc, 2 * (total - fresh) as u64, 2 * fresh as u64) {
        failed += 1;
    }

    let all: Vec<f64> = observed[warm..].iter().map(|o| ms(o.latency)).collect();
    eprintln!(
        "perfbench: {} timed jobs in {wall:.3} s; latency p50 {:.2} ms, p90 {:.2} ms, \
         p99 {:.2} ms (n = {}); {failed} failed",
        total - warm,
        quantile(&all, 0.5),
        quantile(&all, 0.9),
        quantile(&all, 0.99),
        all.len()
    );
    let attempted = total as u64;
    if !args.trace {
        return Ok(Outcome {
            attempted,
            failed,
            metrics: vec![
                ("sweep_s", wall),
                ("job_p50_ms", quantile(&all, 0.5)),
                ("job_p90_ms", quantile(&all, 0.9)),
                ("jobs_per_s", all.len() as f64 / wall),
                ("setup_s", median(&setups)),
                ("peak_rss_mb", peak_rss),
            ],
        });
    }

    let fresh_tasks: Vec<Vec<Task>> = jobs
        .iter()
        .filter(|j| j.fresh)
        .take(JOURNAL_SAMPLE_JOBS)
        .map(|j| j.specs().iter().map(TaskSpec::task).collect())
        .collect();
    let journal_us = journal_appends(&fresh_tasks, &work.join("journal"), &mut rec)?;
    let mut metrics = verify.counts.metrics();
    metrics.extend(verify.host.metrics(verify.counts.events()));
    metrics.extend(service_layer(&metrics_doc, &observed, &journal_us));
    metrics.push(("serve.job_p99_ms", quantile(&all, 0.99)));
    let path = PathBuf::from(format!(
        "perfbench/out/{}-seed{}.json",
        args.workload, args.seed
    ));
    rec.write(
        &path,
        vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Int(args.seed)),
            ("jobs".into(), Json::Int(total as u64)),
            ("fresh_jobs".into(), Json::Int(fresh as u64)),
            ("warm_jobs".into(), Json::Int(warm as u64)),
            ("wall_s".into(), Json::Float(wall)),
            ("tasks".into(), task_table(&verify.rows)),
            ("metrics".into(), metrics_doc),
        ],
    )?;
    eprintln!(
        "perfbench: spans and per-task table written to {}",
        path.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// The batch side of the correctness check: every fresh job's two
/// tasks simulated in process, rendered the way the service renders
/// them, and checked against the reference outputs when given. In the
/// traced run each task also runs traced and at minimal probe level,
/// which gives the simulator layers' host times and the per-task table.
struct Verify {
    /// Per job index: the batch reports (compact JSON) of a fresh job.
    batch: Vec<Option<Vec<String>>>,
    counts: Counts,
    host: HostTimes,
    /// Per benchmark and mode, in the traced run.
    rows: BTreeMap<(&'static str, &'static str), TaskRow>,
}

/// The traced runs of one benchmark under one mode: full-probe-level
/// host seconds of each run, and events and cycles summed over tasks.
#[derive(Default)]
struct TaskRow {
    samples: Vec<f64>,
    events: u64,
    cycles: u64,
}

impl Verify {
    fn run(
        args: &Args,
        jobs: &[Job],
        reference: Option<&Reference>,
        rec: &mut Recorder,
    ) -> Result<Verify, String> {
        let mut v = Verify {
            batch: jobs.iter().map(|_| None).collect(),
            counts: Counts::default(),
            host: HostTimes::default(),
            rows: BTreeMap::new(),
        };
        let mut rng = Rng::new(args.seed ^ 0x5eed_f0ba_7c00);
        for (i, job) in jobs.iter().enumerate().filter(|(_, j)| j.fresh) {
            let mut pair: Vec<RunReport> = Vec::with_capacity(2);
            for spec in job.specs() {
                let expected = reference.map(|r| r.expected(&spec)).transpose()?;
                let report = if args.trace {
                    let three = run_three_ways(&spec, expected, &mut rng, rec, &mut v.host)?;
                    v.counts.add(&three.report);
                    let row = v.rows.entry((job.bench, spec.mode_key())).or_default();
                    row.samples.extend(three.full_s);
                    row.events += three.report.events;
                    row.cycles += three.report.total_cycles.as_u64();
                    three.report
                } else {
                    let (report, _) = run_untraced(&spec, ProbeLevel::Full)?;
                    check_report(&spec.label(), &report, expected)?;
                    report
                };
                pair.push(report);
            }
            if args.trace {
                v.counts.add_pair(&pair[0], &pair[1]);
            }
            v.batch[i] = Some(pair.iter().map(|r| report_to_json(r).compact()).collect());
        }
        Ok(v)
    }
}

/// Re-appends, in process, the journal records the service writes for
/// jobs with these task lists (submitted, each task started and done,
/// job done), timing each fsynced append in microseconds.
fn journal_appends(jobs: &[Vec<Task>], dir: &Path, rec: &mut Recorder) -> Result<Vec<f64>, String> {
    let (journal, _) = Journal::open(dir).map_err(|e| format!("open journal: {e}"))?;
    let mut took_us = Vec::new();
    let mut timed = |rec: &mut Recorder, name: &str, f: &dyn Fn()| {
        let (_, took) = rec.time(0, name, f);
        took_us.push(took.as_secs_f64() * 1e6);
    };
    for (id, tasks) in (1u64..).zip(jobs) {
        let key = format!("{id:016x}");
        timed(rec, "serve.Journal::job_submitted", &|| {
            journal.job_submitted(id, &key, tasks)
        });
        for idx in 0..tasks.len() {
            timed(rec, "serve.Journal::task_started", &|| {
                journal.task_started(id, idx)
            });
            timed(rec, "serve.Journal::task_done", &|| {
                journal.task_done(id, idx, "ok")
            });
        }
        timed(rec, "serve.Journal::job_done", &|| journal.job_done(id));
    }
    if journal.stats().errors > 0 {
        return Err("journal appends failed".into());
    }
    Ok(took_us)
}

/// Whether the store's hit, miss and coalesced counts in `/metrics` are
/// exactly `(hits, misses, 0)`; reports a mismatch on stderr.
fn store_as_planned(doc: &Json, hits: u64, misses: u64) -> bool {
    let store = |k: &str| count(doc, &["store", k]);
    let got = (store("hits"), store("misses"), store("coalesced"));
    if got != (hits, misses, 0) {
        eprintln!(
            "perfbench: FAILED store answered (hits, misses, coalesced) {got:?}, \
             expected ({hits}, {misses}, 0)"
        );
    }
    got == (hits, misses, 0)
}

/// The service-layer metrics of a traced run: client-side round trips
/// of the submit and results requests, the event stream's done lag,
/// the server's task wait and service means (with their sample count),
/// fresh and repeat job latency, journal records and append time, and
/// the store's hits and misses.
fn service_layer(doc: &Json, observed: &[Observed], journal_us: &[f64]) -> Metrics {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ok_jobs = || observed.iter().filter(|o| o.body.is_some());
    let of = |f: &dyn Fn(&Observed) -> f64| -> Vec<f64> { ok_jobs().map(f).collect() };
    let latency_where = |fresh: bool| -> Vec<f64> {
        ok_jobs()
            .filter(|o| o.fresh == fresh)
            .map(|o| ms(o.latency))
            .collect()
    };
    let (wait_us, tasks) = histogram(doc, "task_wait_us");
    let (service_us, _) = histogram(doc, "task_service_us");
    vec![
        ("runner.store_hits", count(doc, &["store", "hits"]) as f64),
        (
            "runner.store_misses",
            count(doc, &["store", "misses"]) as f64,
        ),
        ("serve.submit_ms", median(&of(&|o| ms(o.submit)))),
        ("serve.results_ms", median(&of(&|o| ms(o.results)))),
        (
            "serve.results_kb",
            median(&of(&|o| {
                o.body.as_ref().map_or(0, String::len) as f64 / 1024.0
            })),
        ),
        (
            "serve.done_lag_ms",
            median(&ok_jobs().filter_map(|o| o.done_lag_ms).collect::<Vec<_>>()),
        ),
        ("serve.task_wait_ms", wait_us / 1e3),
        ("serve.task_service_ms", service_us / 1e3),
        ("serve.tasks", tasks as f64),
        ("serve.fresh_p50_ms", median(&latency_where(true))),
        ("serve.repeat_p50_ms", median(&latency_where(false))),
        (
            "serve.journal_records",
            count(doc, &["journal", "records_appended"]) as f64,
        ),
        ("serve.journal_append_us", median(journal_us)),
    ]
}

/// The per-task table of a traced run (slowest first): for each
/// benchmark and mode, the fastest and median full-probe-level host
/// seconds of its runs, and its events and cycles. Also printed on
/// stderr.
fn task_table(rows: &BTreeMap<(&'static str, &'static str), TaskRow>) -> Json {
    let mut rows: Vec<_> = rows
        .iter()
        .map(|(&(bench, mode), row)| (bench, mode, min(&row.samples), median(&row.samples), row))
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    let total: f64 = rows.iter().map(|r| r.3).sum();
    eprintln!(
        "{:<4} {:<4} {:>10} {:>10} {:>6} {:>12} {:>12}",
        "code", "mode", "fastest_s", "median_s", "share", "events", "cycles"
    );
    let mut out = Vec::with_capacity(rows.len());
    for (bench, mode, fastest, med, row) in rows {
        eprintln!(
            "{bench:<4} {mode:<4} {fastest:>10.4} {med:>10.4} {:>5.1}% {:>12} {:>12}",
            100.0 * med / total,
            row.events,
            row.cycles
        );
        out.push(Json::Obj(vec![
            ("bench".into(), Json::Str(bench.into())),
            ("mode".into(), Json::Str(mode.into())),
            ("fastest_s".into(), Json::Float(fastest)),
            ("median_s".into(), Json::Float(med)),
            ("events".into(), Json::Int(row.events)),
            ("cycles".into(), Json::Int(row.cycles)),
        ]));
    }
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fixes_every_store_answer() {
        let per_client = 512;
        let jobs = plan(1, per_client);
        assert_eq!(jobs.len(), per_client * CLIENTS);
        let key = |j: &Job| (j.bench, j.sb_entries, j.coh_hop);
        // Same seed, same plan.
        let again = plan(1, per_client);
        assert!(jobs
            .iter()
            .zip(&again)
            .all(|(a, b)| key(a) == key(b) && a.fresh == b.fresh));
        // Fresh bodies are all distinct: each fresh task is a miss.
        let fresh: Vec<_> = jobs.iter().filter(|j| j.fresh).map(key).collect();
        let distinct: std::collections::HashSet<_> = fresh.iter().collect();
        assert_eq!(distinct.len(), fresh.len());
        // A repeat resends an earlier fresh body of its own client, so it
        // is a hit and never coalesces with an in-flight job.
        for (i, j) in jobs.iter().enumerate() {
            let origin = &jobs[j.origin];
            assert!(origin.fresh && key(origin) == key(j));
            assert!(j.fresh == (j.origin == i));
            assert!(j.origin <= i && j.origin % CLIENTS == i % CLIENTS);
        }
        assert!(jobs[..CLIENTS].iter().all(|j| j.fresh));
    }

    #[test]
    fn hits_plan_repeats_a_warm_up() {
        let warm = HIT_BENCHES.len();
        let per_client = 2 * warm;
        for seed in [1, 7] {
            let jobs = hits_plan(seed, per_client);
            assert_eq!(jobs.len(), warm + per_client * CLIENTS);
            // The warm-up is every benchmark once, fresh, at the default
            // configuration; nothing after it is fresh.
            let cfg = SystemConfig::paper_default();
            for (i, j) in jobs[..warm].iter().enumerate() {
                assert!(j.fresh && j.origin == i && j.bench == HIT_BENCHES[i]);
                assert_eq!(j.sb_entries, cfg.store_buffer_entries as u64);
                assert_eq!(j.coh_hop, cfg.coh_hop_latency);
            }
            // Each client repeats every benchmark equally often.
            for c in 0..CLIENTS {
                let mine: Vec<&Job> = jobs[warm + c..].iter().step_by(CLIENTS).collect();
                assert_eq!(mine.len(), per_client);
                assert!(mine.iter().all(|j| !j.fresh && j.bench == HIT_BENCHES[j.origin]));
                for origin in 0..warm {
                    assert_eq!(mine.iter().filter(|j| j.origin == origin).count(), 2);
                }
            }
        }
    }

    #[test]
    fn plan_make_up_does_not_depend_on_the_seed() {
        for seed in [1, 7, 101] {
            let jobs = plan(seed, 16);
            for c in 0..CLIENTS {
                let mine: Vec<&Job> = jobs.iter().skip(c).step_by(CLIENTS).collect();
                let fresh: Vec<&str> = mine.iter().filter(|j| j.fresh).map(|j| j.bench).collect();
                assert_eq!(fresh.len(), 8);
                for bench in BENCHES {
                    assert_eq!(fresh.iter().filter(|&&b| b == bench).count(), 2);
                }
            }
        }
    }
}
