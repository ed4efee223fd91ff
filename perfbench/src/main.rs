//! The ttadse benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `huge_random`, `gray_cached`, `gray_fidelity` (sweeps) and
//! `serve_mix` (the daemon). With `--trace 0` the run measures the
//! end-to-end metrics with no tracing; with `--trace 1` it gives the
//! per-layer metrics from a traced replay (sweeps) or from client-side
//! spans (`serve_mix`). Outputs are checked outside the timed window.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `perfbench --record-digests N` prints the expected-front table for
//! seeds `0..N` (the contents of `digests.rs`).

mod digests;
mod replay;
mod serve_mix;
mod span;
mod sweep;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use span::{median, percentile, quantile, Recorder};
use sweep::{Front, Kind, Prepared};

/// Fewest timed repetitions of a workload, however long each takes.
const MIN_REPS: usize = 3;
/// A set-up faster than this is re-timed as a burst (see [`SETUP_BURST`]).
const CHEAP_SETUP_S: f64 = 0.05;
/// Back-to-back set-ups timed after the window when set-up is cheap:
/// interleaved with sweeps, a sub-millisecond set-up swings by half with
/// whatever the sweep left in the caches, so it is re-timed as a burst.
const SETUP_BURST: usize = 31;
/// Fewest latency samples behind the reported p90 (ten beyond it).
const MIN_LATENCIES: usize = 110;
/// Spans that only structure the trace; every other span is a layer's.
const STRUCTURAL: [&str; 3] = ["sweep", "chunk", "serve.job"];

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// A percentile metric; 0, with a note, when the percentile is
    /// refused for want of samples beyond it.
    fn percentile_metric(
        &mut self,
        name: &'static str,
        samples: &[f64],
        p: f64,
        unit: &'static str,
    ) {
        let value = percentile(samples, p).unwrap_or_else(|| {
            if !samples.is_empty() {
                self.notes.push(format!(
                    "{name}: refused, {} samples leave fewer than {} beyond p{p}",
                    samples.len(),
                    span::MIN_BEYOND
                ));
            }
            0.0
        });
        self.metric(name, value, unit);
    }

    /// Counts one operation; `ok == false` counts it as failed and
    /// notes why.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# error_rate = {rate} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// Samples behind the end-to-end metrics, gathered over one run.
#[derive(Default)]
struct EndToEnd {
    /// Set-up times, seconds.
    setups: Vec<f64>,
    /// Sweep (or pass) wall times, seconds.
    walls: Vec<f64>,
    /// Points per second of each sweep or pass.
    point_rates: Vec<f64>,
    /// Jobs (sweeps: streamed chunks) per second of each sweep or pass.
    job_rates: Vec<f64>,
    /// Job (sweeps: chunk) latencies of each sweep or pass, milliseconds.
    latencies_ms: Vec<Vec<f64>>,
    /// Peak resident set of the process over its first set-up and
    /// sweep (or pass), MB: what one command-line run would hold. Later
    /// repetitions only add allocator slack.
    first_rss_mb: f64,
}

impl EndToEnd {
    /// Latency samples pooled over the faster half of the sweeps (or
    /// passes), and over more of them when that half gives fewer than
    /// [`MIN_LATENCIES`] samples.
    fn fastest_latencies(&self) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.walls.len()).collect();
        order.sort_by(|&a, &b| self.walls[a].total_cmp(&self.walls[b]));
        let half = order.len().div_ceil(2);
        let mut pooled = Vec::new();
        for (taken, i) in order.into_iter().enumerate() {
            if taken >= half && pooled.len() >= MIN_LATENCIES {
                break;
            }
            pooled.extend(&self.latencies_ms[i]);
        }
        pooled
    }

    /// Adds every end-to-end metric, in `BENCHMARK.json` order. The
    /// sweep figures are the lower quartile of the run's repetitions
    /// (the upper one for rates): the host is shared, and its slow
    /// spells, which only ever add time, may cover most of a run, while
    /// the single fastest repetition is itself an outlier. Set-up is
    /// the median.
    fn report(&self, report: &mut Report) {
        let latencies = self.fastest_latencies();
        report.metric("setup_s", median(&self.setups), "s");
        report.metric("sweep_s", quantile(&self.walls, 0.25), "s");
        report.metric(
            "points_per_s",
            quantile(&self.point_rates, 0.75),
            "points/s",
        );
        report.metric("jobs_per_s", quantile(&self.job_rates, 0.75), "jobs/s");
        report.percentile_metric("job_p50_ms", &latencies, 50.0, "ms");
        report.percentile_metric("job_p90_ms", &latencies, 90.0, "ms");
        report.metric("peak_rss_mb", self.first_rss_mb, "MB");
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--record-digests" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                digests::record(n);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let outcome = match (Kind::parse(&args.workload), args.workload.as_str()) {
        (Some(kind), _) if args.trace => trace_sweep(kind, args.seed, &work),
        (Some(kind), _) => measure_sweep(kind, args.seed, args.seconds, &work),
        (None, "serve_mix") => serve(args.seed, args.seconds, args.trace, &work),
        (None, other) => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(mut report) => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            report.notes.push(format!(
                "{} sweep threads, {} daemon workers, {} clients; available parallelism {cores}",
                sweep::THREADS,
                serve_mix::WORKERS,
                serve_mix::CLIENTS
            ));
            report.print();
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The front a sweep must produce: the recorded digest for `seed`, or,
/// for a seed with none recorded, the traced replay's front.
enum Expected {
    Digest(u64),
    Front(Box<Front>),
}

fn expected_front(kind: Kind, seed: u64) -> Expected {
    match digests::expected(kind, seed) {
        Some(d) => Expected::Digest(d),
        None => {
            let spec = sweep::SweepSpec::new(kind, seed);
            let db = tta_core::ComponentDb::new();
            Expected::Front(Box::new(replay::replay(&spec, &db, None).front))
        }
    }
}

fn front_matches(expected: &Expected, front: &Front) -> bool {
    match expected {
        Expected::Digest(d) => front.digest() == *d,
        Expected::Front(f) => **f == *front,
    }
}

/// End-to-end run of a sweep workload: repeated set-up and sweep until
/// the window closes, the faster repetitions reported, fronts checked
/// afterwards.
fn measure_sweep(kind: Kind, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let window = Instant::now();
    let io = |e: std::io::Error| e.to_string();
    let mut e2e = EndToEnd::default();
    let mut fronts: Vec<Front> = Vec::new();
    let mut reference_ok = true;
    let mut rep = 0;
    loop {
        let t = Instant::now();
        let prepared: Prepared =
            sweep::prepare(kind, seed, &work.join(format!("rep{rep}"))).map_err(io)?;
        e2e.setups.push(t.elapsed().as_secs_f64());
        let run = prepared.run().map_err(io)?;
        e2e.walls.push(run.sweep_s);
        e2e.point_rates
            .push(run.result.search.evaluations as f64 / run.sweep_s);
        e2e.job_rates.push(run.chunk_ms.len() as f64 / run.sweep_s);
        e2e.latencies_ms.push(run.chunk_ms.clone());
        if rep == 0 {
            e2e.first_rss_mb = peak_rss_mb();
            reference_ok = sweep::reference_agrees(&run.result);
        }
        fronts.push(Front::of_result(&run.result));
        drop(run);
        drop(prepared);
        let _ = std::fs::remove_dir_all(work.join(format!("rep{rep}")));
        rep += 1;
        let done = window.elapsed().as_secs_f64() >= seconds;
        // Past the window, keep going only as long as the p90 still
        // lacks samples (bounded at three windows).
        let starved = e2e.latencies_ms.iter().map(Vec::len).sum::<usize>() < MIN_LATENCIES
            && window.elapsed().as_secs_f64() < 3.0 * seconds.max(1.0);
        if rep >= MIN_REPS && done && !starved {
            break;
        }
    }
    if median(&e2e.setups) < CHEAP_SETUP_S {
        e2e.setups = (0..SETUP_BURST)
            .map(|_| {
                let t = Instant::now();
                let p = sweep::prepare(kind, seed, &work.join("setup")).map_err(io)?;
                let took = t.elapsed().as_secs_f64();
                drop(p);
                Ok(took)
            })
            .collect::<Result<_, String>>()?;
    }

    let mut report = Report::default();
    let expected = expected_front(kind, seed);
    for (i, front) in fronts.iter().enumerate() {
        report.check(
            front_matches(&expected, front) && !front.points.is_empty(),
            || {
                format!(
                    "sweep {i}: front digest {:016x} is not the expected one",
                    front.digest()
                )
            },
        );
    }
    report.check(reference_ok, || {
        "pareto_front_reference disagrees with the front".into()
    });
    e2e.report(&mut report);
    report.notes.push(format!(
        "{} sweeps {:.4?} s, {} set-ups, {} chunk latencies; front {} points (digest {:016x})",
        e2e.walls.len(),
        e2e.walls,
        e2e.setups.len(),
        e2e.latencies_ms.iter().map(Vec::len).sum::<usize>(),
        fronts[0].points.len(),
        fronts[0].digest()
    ));
    Ok(report)
}

/// Adds every per-layer metric, in `BENCHMARK.json` order, from the
/// spans and counts of `rec`.
fn layer_metrics(report: &mut Report, rec: &Recorder, build_s: f64, wall_s: f64, untraced_s: f64) {
    let spans = rec.spans();
    let by_name = span::totals_by_name(spans);
    let busy = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_s);
    let calls = |name: &str| by_name.get(name).map_or(0, |t| t.calls) as f64;
    let c = |name: &str| rec.count(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    report.metric("workloads.build_s", build_s, "s");
    report.metric("arch.points", c("arch.points"), "count");
    report.metric("arch.point_busy_s", busy("arch.point"), "s");
    report.metric("core.search.batches", c("core.search.batches"), "count");
    report.metric("core.search.plan_busy_s", busy("core.search.plan"), "s");
    report.metric(
        "core.backannotate.keys_annotated",
        c("core.backannotate.keys_annotated"),
        "count",
    );
    report.metric(
        "core.backannotate.warm_busy_s",
        busy("core.backannotate.warm"),
        "s",
    );
    let schedule_us = span::durations(spans, "movec.schedule", 1e3);
    report.metric("movec.schedules", c("movec.schedules"), "count");
    report.metric("movec.schedule_busy_s", busy("movec.schedule"), "s");
    report.percentile_metric("movec.schedule_us_p50", &schedule_us, 50.0, "us");
    report.percentile_metric("movec.schedule_us_p90", &schedule_us, 90.0, "us");
    report.metric("movec.infeasible", c("movec.infeasible"), "count");
    report.metric(
        "movec.feasible_ratio",
        ratio(
            c("movec.schedules") - c("movec.infeasible"),
            c("movec.schedules"),
        ),
        "ratio",
    );
    report.metric("core.models.folds", c("core.models.folds"), "count");
    report.metric("core.models.fold_busy_s", busy("core.models.fold"), "s");
    let (carries, fallbacks) = (
        c("core.delta.fold_carries"),
        c("core.delta.scratch_fallbacks"),
    );
    report.metric("core.delta.fold_carries", carries, "count");
    report.metric("core.delta.scratch_fallbacks", fallbacks, "count");
    report.metric(
        "core.delta.carry_ratio",
        ratio(carries, carries + fallbacks),
        "ratio",
    );
    report.metric("core.delta.advance_busy_s", busy("core.delta.advance"), "s");
    report.metric("core.eval.points", calls("core.eval"), "count");
    report.metric("core.eval.busy_s", busy("core.eval"), "s");
    report.metric("core.pareto.offered", c("core.pareto.offered"), "count");
    report.metric("core.pareto.front", c("core.pareto.front"), "count");
    report.metric(
        "core.pareto.accept_ratio",
        ratio(c("core.pareto.accepted"), c("core.pareto.offered")),
        "ratio",
    );
    report.metric("core.pareto.insert_busy_s", busy("core.pareto.insert"), "s");
    report.metric("core.lift.test_costs", c("core.lift.test_costs"), "count");
    report.metric(
        "core.lift.busy_s",
        busy("core.lift") + busy("core.lift.test_cost"),
        "s",
    );
    report.metric("core.cache.open_s", busy("core.cache.open"), "s");
    report.metric("core.cache.lookups", c("core.cache.lookups"), "count");
    report.metric("core.cache.hits", c("core.cache.hits"), "count");
    report.metric(
        "core.cache.hit_ratio",
        ratio(c("core.cache.hits"), c("core.cache.lookups")),
        "ratio",
    );
    report.metric("core.cache.lookup_busy_s", busy("core.cache.lookup"), "s");
    report.metric("core.cache.stores", c("core.cache.stores"), "count");
    report.metric("core.cache.flushes", c("core.cache.flushes"), "count");
    report.metric("core.cache.flush_busy_s", busy("core.cache.flush"), "s");
    report.metric(
        "core.cache.bytes_written",
        c("core.cache.bytes_written"),
        "bytes",
    );
    report.metric("netlist.elaborations", c("netlist.elaborations"), "count");
    report.metric("netlist.elaborate_busy_s", busy("netlist.elaborate"), "s");
    report.metric("netlist.sta_busy_s", busy("netlist.sta"), "s");
    let run_busy = busy("sim.run");
    report.metric("sim.runs", c("sim.runs"), "count");
    report.metric("sim.lower_busy_s", busy("sim.lower"), "s");
    report.metric("sim.run_busy_s", run_busy, "s");
    report.metric("sim.cycles", c("sim.cycles"), "cycles");
    report.metric(
        "sim.cycles_per_s",
        ratio(c("sim.cycles"), run_busy),
        "cycles/s",
    );
    report.metric("dft.scan_costs", c("dft.scan_costs"), "count");
    report.metric("dft.scan_busy_s", busy("dft.scan"), "s");

    let ms = |name: &str| span::durations(spans, name, 1e6);
    let (admit, wait, run, stream) = (
        ms("serve.admit"),
        ms("serve.queue_wait"),
        ms("serve.run"),
        ms("serve.stream"),
    );
    report.percentile_metric("serve.admit_ms_p50", &admit, 50.0, "ms");
    report.percentile_metric("serve.admit_ms_p90", &admit, 90.0, "ms");
    report.percentile_metric("serve.queue_wait_ms_p50", &wait, 50.0, "ms");
    report.percentile_metric("serve.queue_wait_ms_p90", &wait, 90.0, "ms");
    report.percentile_metric("serve.run_ms_p50", &run, 50.0, "ms");
    report.percentile_metric("serve.run_ms_p90", &run, 90.0, "ms");
    report.percentile_metric("serve.stream_ms_p50", &stream, 50.0, "ms");
    report.metric("serve.cache_hit_jobs", c("serve.cache_hit_jobs"), "count");
    report.metric("serve.jobs_failed", c("serve.jobs_failed"), "count");

    let layer_self: f64 = by_name
        .iter()
        .filter(|(name, _)| !STRUCTURAL.contains(name))
        .map(|(_, t)| t.self_s)
        .sum();
    report.metric("trace.self_coverage", ratio(layer_self, wall_s), "ratio");
    report.metric("trace.layer_self_s", layer_self, "s");
    report.metric("trace.wall_s", wall_s, "s");
    report.metric("trace.overhead_ratio", ratio(wall_s, untraced_s), "ratio");
    report.metric("trace.untraced_s", untraced_s, "s");
    report.metric("trace.spans", spans.len() as f64, "count");
}

/// Writes the run's spans next to the work directory.
fn write_spans(rec: &Recorder, name: &str, seed: u64) {
    let dir = PathBuf::from(".bench_work");
    let path = dir.join(format!("spans-{name}-seed{seed}.tsv"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            span::write_tsv(rec.spans(), &mut f)?;
            f.flush()
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Traced run of a sweep workload: the untraced engine sweep, then the
/// replay of the same sweep, checked against it.
fn trace_sweep(kind: Kind, seed: u64, work: &Path) -> Result<Report, String> {
    let io = |e: std::io::Error| e.to_string();
    let t = Instant::now();
    let spec = sweep::SweepSpec::new(kind, seed);
    let build_s = t.elapsed().as_secs_f64();
    let dirs = ["engine", "replay", "baseline"].map(|d| work.join(d));
    if let Some(points) = spec.seeded {
        let seed_dir = work.join("seed");
        sweep::seed_cache(&spec, &seed_dir, points).map_err(io)?;
        for dir in &dirs {
            sweep::copy_cache(&seed_dir, dir).map_err(io)?;
        }
    }
    let engine_run = |dir: &Path| {
        Prepared {
            cache_dir: spec.seeded.map(|_| dir.to_path_buf()),
            spec: spec.clone(),
            db: tta_core::ComponentDb::new(),
        }
        .run()
        .map_err(io)
    };
    // The first engine sweep also takes the process's one-off warm-up;
    // the untraced baseline for the overhead ratio is a second sweep
    // after the replay.
    let engine = engine_run(&dirs[0])?;
    let engine_front = Front::of_result(&engine.result);
    let replayed = replay::replay(
        &spec,
        &tta_core::ComponentDb::new(),
        spec.seeded.map(|_| dirs[1].as_path()),
    );
    let baseline = engine_run(&dirs[2])?;

    let mut report = Report::default();
    match digests::expected(kind, seed) {
        Some(d) => report.check(engine_front.digest() == d, || {
            format!(
                "engine front digest {:016x} is not the recorded {d:016x}",
                engine_front.digest()
            )
        }),
        None => report.notes.push(format!(
            "seed {seed} has no recorded digest; the replay checks the engine"
        )),
    }
    report.check(sweep::reference_agrees(&engine.result), || {
        "pareto_front_reference disagrees with the engine front".into()
    });
    report.check(Front::of_result(&baseline.result) == engine_front, || {
        "two engine sweeps of the same input disagree".into()
    });
    let rec = &replayed.rec;
    let (hits, lookups) = (
        rec.count("core.cache.hits"),
        rec.count("core.cache.lookups"),
    );
    let replay_ok = replayed.front == engine_front
        && hits == engine.hits
        && lookups - hits == engine.misses
        && replayed.cache_hits == engine.hits
        && replayed.cache_misses == engine.misses
        && rec.count("sim.golden_mismatches") == 0
        && engine.result.delta.map_or(0, |d| d.fold_carries)
            == rec.count("core.delta.fold_carries");
    report.check(replay_ok, || {
        format!(
            "replay disagrees with the engine: front equal {}, hits {hits}/{}, misses {}/{}, golden mismatches {}",
            replayed.front == engine_front,
            engine.hits,
            lookups - hits,
            engine.misses,
            rec.count("sim.golden_mismatches")
        )
    });
    report.notes.push(format!(
        "engine: {} points, front {}, cache hits {} misses {}; replay: front {}, hits {hits} misses {}",
        engine.result.search.evaluations,
        engine_front.points.len(),
        engine.hits,
        engine.misses,
        replayed.front.points.len(),
        lookups - hits
    ));
    layer_metrics(&mut report, rec, build_s, replayed.wall_s, baseline.sweep_s);
    write_spans(rec, kind.name(), seed);
    Ok(report)
}

/// The `serve_mix` workload, untraced or traced.
fn serve(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Report, String> {
    let window = Instant::now();
    let mut e2e = EndToEnd::default();
    let mut build_s: Vec<f64> = Vec::new();
    let mut passes: Vec<serve_mix::Pass> = Vec::new();
    let mut specs;
    let mut rep = 0;
    loop {
        let t = Instant::now();
        specs = serve_mix::generate(seed, serve_mix::JOBS);
        build_s.push(t.elapsed().as_secs_f64());
        let daemon = serve_mix::Daemon::start(&work.join(format!("rep{rep}")))?;
        e2e.setups.push(t.elapsed().as_secs_f64());
        let pass = serve_mix::pass(&daemon, &specs);
        daemon.stop()?;
        if rep == 0 {
            e2e.first_rss_mb = peak_rss_mb();
        }
        passes.push(pass);
        rep += 1;
        let enough = if trace {
            rep >= 2
        } else {
            rep >= MIN_REPS - 1 && window.elapsed().as_secs_f64() >= seconds
        };
        if enough {
            break;
        }
    }
    if !trace && median(&e2e.setups) < CHEAP_SETUP_S {
        e2e.setups = (0..SETUP_BURST)
            .map(|i| {
                let t = Instant::now();
                let _ = serve_mix::generate(seed, serve_mix::JOBS);
                let daemon = serve_mix::Daemon::start(&work.join(format!("setup{i}")))?;
                let took = t.elapsed().as_secs_f64();
                daemon.stop()?;
                Ok(took)
            })
            .collect::<Result<_, String>>()?;
    }

    // Checks, outside the window: every job's output against the
    // in-process render of its spec, and no admitted job left open.
    let mut report = Report::default();
    let mut rendered: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for spec in &specs {
        let key = spec.to_json();
        if let std::collections::hash_map::Entry::Vacant(slot) = rendered.entry(key) {
            slot.insert(serve_mix::render_locally(spec)?);
        }
    }
    for (p, pass) in passes.iter().enumerate() {
        for (job, spec) in pass.jobs.iter().zip(&specs) {
            let same = job.output.as_deref() == rendered.get(&spec.to_json()).map(String::as_str);
            report.check(job.ok() && same, || {
                format!(
                    "pass {p} job {}: status {}, error {:?}, output identical {same}",
                    job.index, job.status, job.error
                )
            });
        }
        report.failed += pass.left_open as u64;
        if pass.left_open > 0 {
            report.notes.push(format!(
                "FAILED: pass {p}: {} admitted jobs left non-terminal",
                pass.left_open
            ));
        }
    }

    if trace {
        // The first pass is the untraced baseline; the second is traced.
        let (base, traced) = (&passes[0], &passes[1]);
        let mut rec = Recorder::new();
        let t = Instant::now();
        serve_mix::spans_of(traced, &mut rec);
        let span_s = t.elapsed().as_secs_f64();
        rec.add(
            "serve.cache_hit_jobs",
            traced.jobs.iter().filter(|j| j.cache_hit).count() as u64,
        );
        rec.add(
            "serve.jobs_failed",
            traced.jobs.iter().filter(|j| !j.ok()).count() as u64,
        );
        layer_metrics(
            &mut report,
            &rec,
            median(&build_s),
            traced.wall_s + span_s,
            base.wall_s,
        );
        write_spans(&rec, "serve_mix", seed);
        return Ok(report);
    }
    for p in &passes {
        let points: u64 = p.jobs.iter().map(|j| j.evaluations).sum();
        e2e.walls.push(p.wall_s);
        e2e.point_rates.push(points as f64 / p.wall_s);
        e2e.job_rates.push(p.jobs.len() as f64 / p.wall_s);
        e2e.latencies_ms.push(
            p.jobs
                .iter()
                .map(serve_mix::JobRecord::latency_ms)
                .collect(),
        );
    }
    e2e.report(&mut report);
    report.notes.push(format!(
        "{} passes of {} jobs, {} set-ups",
        passes.len(),
        specs.len(),
        e2e.setups.len()
    ));
    Ok(report)
}

/// A scratch directory for a self-test, under the repository's
/// `.bench_work/`.
#[cfg(test)]
fn test_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_work")
        .join(format!("test-{name}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_serve::jsonparse::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn load(path: &str) -> Json {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        Json::parse(&std::fs::read_to_string(dir.join(path)).expect(path)).expect(path)
    }

    /// What a run prints is exactly what `BENCHMARK.json` and
    /// `metrics.json` declare, by name, unit and order.
    #[test]
    fn printed_metrics_match_the_declarations() {
        let bench = load("../BENCHMARK.json");
        let map = load("metrics.json");
        let printed = |report: &Report| -> Vec<(String, String)> {
            report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let mut e2e = Report::default();
        EndToEnd::default().report(&mut e2e);
        let mut layers = Report::default();
        layer_metrics(&mut layers, &Recorder::new(), 0.0, 0.0, 0.0);
        for (key, report) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            let declared = names(&bench, key);
            assert_eq!(declared, names(&map, key), "{key}");
            let name_unit: Vec<(String, String)> =
                declared.into_iter().map(|(n, u, _)| (n, u)).collect();
            assert_eq!(name_unit, printed(report), "{key}");
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            workloads,
            ["huge_random", "gray_cached", "gray_fidelity", "serve_mix"]
        );
    }
}
