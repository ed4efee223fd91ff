//! Distils the sweep, fold, fidelity, scheduler, simulator, cache-flush and serve
//! timings into the flat JSON committed as `BENCH_dse.json` (the committed perf trajectory; see
//! `docs/PERF.md` for how to read it).
//!
//! A plain binary rather than a criterion bench so CI can run it and
//! soft-check wall-clock against the committed numbers:
//!
//! ```text
//! cargo run --release -p tta-bench --bin bench_dse -- --space fast
//! cargo run --release -p tta-bench --bin bench_dse -- --date 2026-08-08 > BENCH_dse.json
//! ```
//!
//! Every sweep here is cold-cache by construction (no `SweepCache`
//! attached) but shares one warmed `ComponentDb`, as a real campaign
//! would.

use std::hint::black_box;
use std::time::Instant;

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_core::cache::{EvalEntry, SweepCache};
use tta_core::explore::Exploration;
use tta_core::models::{
    AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel, InterconnectModel,
    TestCostModel, TimingModel,
};
use tta_core::{CarriedFolds, ComponentDb, DeltaEvaluator};
use tta_movec::schedule::Schedule;
use tta_movec::{Dfg, Scheduler};
use tta_netlist::{elaborate, timing, IncrementalElaborator};
use tta_serve::client::{control, run_remote};
use tta_serve::exec;
use tta_serve::server::Server;
use tta_serve::spec::{Format, JobSpec};
use tta_sim::{lower, lower_code, SimOptions, Simulator};
use tta_workloads::{suite, SuiteParams, SuiteRegistry, Workload};

struct SweepRow {
    space: &'static str,
    points: usize,
    front: usize,
    scratch_s: f64,
}

struct FoldRow {
    space: &'static str,
    points: usize,
    walked: usize,
    scratch_s: f64,
    incremental_s: f64,
}

struct ScheduleRow {
    space: &'static str,
    points: usize,
    schedules: usize,
    infeasible: usize,
    run_us: f64,
    cost_us: f64,
}

struct SimulateRow {
    space: &'static str,
    points: usize,
    programs: usize,
    lower_us: f64,
    lower_code_us: f64,
    run_us: f64,
    outcome_us: f64,
}

struct CacheFlushRow {
    from: usize,
    to: usize,
    flushes: usize,
    ms_per_flush: f64,
    bytes_per_flush: u64,
}

struct ServeRow {
    space: &'static str,
    jobs: usize,
    fresh_ms_p50: f64,
    hit_ms_p50: f64,
}

struct FidelityRow {
    space: &'static str,
    points: usize,
    walked: usize,
    table_s: f64,
    netlist_s: f64,
    incremental_s: f64,
}

/// Runs of the fidelity row; it commits the median of each path.
const FIDELITY_RUNS: usize = 5;

/// Gray-walk points of the fidelity row.
const FIDELITY_WALK: usize = 256;

/// Times the area+clock axes per point under the two fidelities over
/// the first `walked` points of the space's Gray walk: the
/// back-annotation `table` fold, a from-scratch gate-level elaboration
/// (`elaborate` + loaded STA — what `--fidelity netlist` pays on a
/// cold, non-neighbour walk), and the `IncrementalElaborator` along the
/// same walk, which rewinds to the first differing segment instead of
/// rebuilding the whole point. Each path reports the median of
/// [`FIDELITY_RUNS`] runs, the three paths interleaved within each run
/// so a slow spell of the host lands on all of them. An untimed pass
/// first asserts the incremental netlists dump bit-identically to the
/// from-scratch ones.
fn time_fidelity_axis(
    space: &'static str,
    template: TemplateSpace,
    walked: usize,
    db: &ComponentDb,
) -> FidelityRow {
    let walked = walked.min(template.len());
    eprintln!(
        "fidelity axis over {space} space ({walked} of {} points)...",
        template.len()
    );
    let archs: Vec<_> = template
        .neighbour_order()
        .take(walked)
        .map(|i| template.point(i))
        .collect();
    let ic = InterconnectModel::paper();
    let area = AnnotatedAreaModel::new(ic);
    let clock = AnnotatedTimingModel::new(ic);

    // Untimed bit-identity pass (also warms the annotation database on
    // the table side so neither engine pays for it in the timed loop).
    let mut inc = IncrementalElaborator::new();
    for arch in &archs {
        let walked = inc.advance(arch).expect("incremental elaboration");
        let fresh = elaborate(arch).expect("scratch elaboration");
        assert_eq!(walked.dump(), fresh.dump(), "point {}", arch.name);
        black_box(area.area(arch, db) + clock.clock_period(arch, db));
    }

    let timed = |f: &mut dyn FnMut() -> f64| {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_secs_f64()
    };
    let (mut table, mut netlist, mut incremental) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FIDELITY_RUNS {
        table.push(timed(&mut || {
            archs
                .iter()
                .map(|a| area.area(a, db) + clock.clock_period(a, db))
                .sum()
        }));
        netlist.push(timed(&mut || {
            archs
                .iter()
                .map(|a| {
                    let nl = elaborate(a).expect("scratch elaboration");
                    nl.area() + timing::min_clock_period(&nl)
                })
                .sum()
        }));
        incremental.push(timed(&mut || {
            let mut inc = IncrementalElaborator::new();
            archs
                .iter()
                .map(|a| {
                    let nl = inc.advance(a).expect("incremental elaboration");
                    nl.area() + timing::min_clock_period(&nl)
                })
                .sum()
        }));
    }
    let median = |mut s: Vec<f64>| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    FidelityRow {
        space,
        points: template.len(),
        walked,
        table_s: median(table),
        netlist_s: median(netlist),
        incremental_s: median(incremental),
    }
}

/// Times the three-axis cost fold alone — area, clock period, eq. (14)
/// test total — over a budgeted Gray-walk prefix, with scheduling and
/// architecture construction excluded equally for both paths:
/// `scratch` re-derives each component record through the annotation
/// database at every point, and `incremental` carries the previous
/// point's folds and exchanges only the one changed component
/// ([`CarriedFolds::advance`]). This isolates the per-point
/// evaluation cost the carried-fold engine optimises; the full-sweep
/// rows above stay scheduler-dominated by design.
fn time_fold_axis(
    space: &'static str,
    template: TemplateSpace,
    walked: usize,
    db: &ComponentDb,
    iters: usize,
) -> FoldRow {
    let walked = walked.min(template.len());
    eprintln!(
        "fold axis over {space} space ({walked} of {} points)...",
        template.len()
    );
    let archs: Vec<_> = template
        .neighbour_order()
        .take(walked)
        .map(|i| template.point(i))
        .collect();
    let ic = InterconnectModel::paper();
    let area = AnnotatedAreaModel::new(ic);
    let timing = AnnotatedTimingModel::new(ic);
    let eval = DeltaEvaluator::new(ic);

    // Untimed verification pass: the two paths must agree on exact
    // bits before clocks compare.
    let mut carry = CarriedFolds::new(ic);
    for (rank, arch) in archs.iter().enumerate() {
        let inc = carry.advance(arch, rank, &eval, db);
        assert_eq!(inc.area.to_bits(), area.area(arch, db).to_bits());
        assert_eq!(
            inc.clock_period.to_bits(),
            timing.clock_period(arch, db).to_bits()
        );
        assert_eq!(
            inc.test_total.to_bits(),
            Eq14TestCostModel.test_cost(arch, db).total.to_bits()
        );
    }

    let best_of = |f: &mut dyn FnMut() -> f64| {
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let scratch_s = best_of(&mut || {
        archs
            .iter()
            .map(|a| {
                area.area(a, db)
                    + timing.clock_period(a, db)
                    + Eq14TestCostModel.test_cost(a, db).total
            })
            .sum()
    });
    let incremental_s = best_of(&mut || {
        let mut carry = CarriedFolds::new(ic);
        archs
            .iter()
            .enumerate()
            .map(|(rank, a)| {
                let c = carry.advance(a, rank, &eval, db);
                c.area + c.clock_period + c.test_total
            })
            .sum()
    });
    FoldRow {
        space,
        points: template.len(),
        walked,
        scratch_s,
        incremental_s,
    }
}

/// Times the list scheduler alone, per (point, workload) schedule, over
/// a seeded sample of the space against suite `all`: `run` builds the
/// full move schedule lowering and simulation need, `cost` the
/// cycles-only path sweeps take. An untimed pass first asserts the two
/// agree on every pair.
fn time_schedule(
    space: &'static str,
    template: TemplateSpace,
    sample: usize,
    iters: usize,
) -> ScheduleRow {
    eprintln!("scheduling a {sample}-point sample of the {space} space...");
    let archs = seeded_sample(&template, sample);
    let workloads = suite_all();
    let mut infeasible = 0;
    for arch in &archs {
        let scheduler = Scheduler::new(arch);
        for w in &workloads {
            let full = scheduler.run(&w.dfg).map(|s| s.cost());
            assert_eq!(scheduler.cost(&w.dfg), full, "{} / {}", arch.name, w.name);
            infeasible += usize::from(full.is_err());
        }
    }
    let best_of = |f: &mut dyn FnMut() -> u64| {
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    // One scheduler per point, as a sweep evaluates it; `cycles` maps
    // one schedule attempt to its cycle count (0 when infeasible).
    let time_path = |cycles: &dyn Fn(&Scheduler, &Dfg) -> u64| {
        best_of(&mut || {
            archs
                .iter()
                .map(|arch| {
                    let scheduler = Scheduler::new(arch);
                    workloads
                        .iter()
                        .map(|w| cycles(&scheduler, &w.dfg))
                        .sum::<u64>()
                })
                .sum()
        })
    };
    let run_s = time_path(&|s, dfg| s.run(dfg).map_or(0, |s| u64::from(s.cycles)));
    let cost_s = time_path(&|s, dfg| s.cost(dfg).map_or(0, |c| u64::from(c.cycles)));
    let schedules = archs.len() * workloads.len();
    ScheduleRow {
        space,
        points: template.len(),
        schedules,
        infeasible,
        run_us: run_s * 1e6 / schedules as f64,
        cost_us: cost_s * 1e6 / schedules as f64,
    }
}

/// Times lowering and execution per (point, workload) program over the
/// schedule row's seeded sample: `lower` plus the traced
/// `Simulator::run` is what `ttadse sim` pays, `lower_code` plus the
/// trace-free `Simulator::outcome` what a `--cycles simulate` sweep
/// pays. Schedules are built outside the timed window. An untimed pass
/// first asserts the two paths agree on cycles, outputs and errors for
/// every program.
fn time_simulate(
    space: &'static str,
    template: TemplateSpace,
    sample: usize,
    iters: usize,
) -> SimulateRow {
    eprintln!("lowering and simulating a {sample}-point sample of the {space} space...");
    let options = SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    };
    let archs = seeded_sample(&template, sample);
    let workloads = suite_all();
    // Every (point, workload) pair that schedules, with its schedule.
    let jobs: Vec<(&Architecture, &Workload, Schedule)> = archs
        .iter()
        .flat_map(|arch| {
            let scheduler = Scheduler::new(arch);
            workloads
                .iter()
                .filter_map(move |w| Some((arch, w, scheduler.run(&w.dfg).ok()?)))
        })
        .collect();
    let programs: Vec<_> = jobs
        .iter()
        .map(|(arch, w, s)| lower(arch, &w.dfg, s, &w.inputs, &w.mem).expect("schedules lower"))
        .collect();
    let codes: Vec<_> = jobs
        .iter()
        .map(|(arch, w, s)| {
            lower_code(arch, &w.dfg, s, &w.inputs, &w.mem).expect("schedules lower")
        })
        .collect();
    for (((arch, w, _), program), code) in jobs.iter().zip(&programs).zip(&codes) {
        let simulator = Simulator::new(arch).options(options);
        let traced = simulator.run(program).map(|t| (t.cycles, t.outputs));
        let outcome = simulator.outcome(code).map(|o| (o.cycles, o.outputs));
        assert_eq!(outcome, traced, "{} / {}", arch.name, w.name);
    }

    let best_of = |f: &mut dyn FnMut() -> u64| {
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let lower_s = best_of(&mut || {
        jobs.iter()
            .map(|(arch, w, s)| {
                let program = lower(arch, &w.dfg, s, &w.inputs, &w.mem);
                program.map_or(0, |p| p.move_count() as u64)
            })
            .sum()
    });
    let lower_code_s = best_of(&mut || {
        jobs.iter()
            .map(|(arch, w, s)| {
                let code = lower_code(arch, &w.dfg, s, &w.inputs, &w.mem);
                code.map_or(0, |c| c.len() as u64)
            })
            .sum()
    });
    let run_s = best_of(&mut || {
        jobs.iter()
            .zip(&programs)
            .map(|((arch, ..), p)| {
                let trace = Simulator::new(arch).options(options).run(p);
                trace.map_or(0, |t| t.cycles)
            })
            .sum()
    });
    let outcome_s = best_of(&mut || {
        jobs.iter()
            .zip(&codes)
            .map(|((arch, ..), c)| {
                let outcome = Simulator::new(arch).options(options).outcome(c);
                outcome.map_or(0, |o| o.cycles)
            })
            .sum()
    });
    let per_program = |s: f64| s * 1e6 / jobs.len() as f64;
    SimulateRow {
        space,
        points: template.len(),
        programs: jobs.len(),
        lower_us: per_program(lower_s),
        lower_code_us: per_program(lower_code_s),
        run_us: per_program(run_s),
        outcome_us: per_program(outcome_s),
    }
}

/// Chunk size of the cache-flush row: the sweep engine persists after
/// every 64-point chunk.
const FLUSH_CHUNK: usize = 64;

/// Stores synthetic entry `i` in the shapes a sweep writes: mostly
/// feasible evaluations over a three-member suite (every fourth with the
/// inline full-lift test pair), some infeasible ones with and without a
/// blamed workload, and every sixteenth a test lift.
fn store_synthetic(cache: &SweepCache, i: u64) {
    let mut state = i;
    let key = splitmix(&mut state);
    let r = splitmix(&mut state);
    match i % 16 {
        15 => cache.store_test(key, (r % 100_000) as f64 * 0.25),
        7 | 11 => cache.store_eval(
            key,
            EvalEntry::Infeasible {
                blocked: (i % 32 == 7).then_some((r % 3) as u32),
            },
        ),
        _ => cache.store_eval(
            key,
            EvalEntry::Feasible {
                cycles: r % 100_000,
                workload_cycles: vec![r % 5000, (r >> 16) % 5000, (r >> 32) % 5000],
                spills: (r >> 48) as u32 % 4,
                area_bits: (1000.0 + (r % 100_000) as f64).to_bits(),
                exec_bits: (((r >> 20) % 100_000) as f64).to_bits(),
                test: (i % 4 == 1).then_some((0xfeed_f00d, ((r % 50_000) as f64).to_bits())),
            },
        ),
    }
}

/// Grows an on-disk cache from `from` to `to` synthetic entries, one
/// `FLUSH_CHUNK` at a time, as a chunked sweep persists over a seeded
/// cache. Returns the cache and the seconds and bytes of the growth
/// flushes (the seeding flush is not counted).
fn grow_cache(dir: &std::path::Path, from: usize, to: usize) -> (SweepCache, f64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let cache = SweepCache::open(dir).expect("bench cache dir is writable");
    (0..from as u64).for_each(|i| store_synthetic(&cache, i));
    cache.flush().expect("seeding flush");
    let (mut secs, mut bytes) = (0.0, 0);
    for chunk in (from..to).step_by(FLUSH_CHUNK) {
        (chunk as u64..(chunk + FLUSH_CHUNK).min(to) as u64)
            .for_each(|i| store_synthetic(&cache, i));
        let start = Instant::now();
        cache.flush().expect("chunk flush");
        secs += start.elapsed().as_secs_f64();
        bytes += std::fs::metadata(cache.path()).expect("flushed").len();
    }
    (cache, secs, bytes)
}

/// Times `SweepCache::flush` per chunk while a seeded cache grows from
/// `from` to `to` entries. An untimed pass first asserts the chunk by
/// chunk flushes leave the file byte-identical to one full render.
fn time_cache_flush(from: usize, to: usize, iters: usize) -> CacheFlushRow {
    eprintln!("flushing a cache growing from {from} to {to} entries...");
    let scratch = std::env::temp_dir().join(format!("ttadse-bench-flush-{}", std::process::id()));
    let (grown, _, bytes) = grow_cache(&scratch.join("grown"), from, to);
    let full = scratch.join("full");
    let _ = std::fs::remove_dir_all(&full);
    let oracle = SweepCache::open(&full).expect("bench cache dir is writable");
    (0..to as u64).for_each(|i| store_synthetic(&oracle, i));
    oracle.flush().expect("full flush");
    let read = |c: &SweepCache| std::fs::read(c.path()).expect("flushed file");
    assert!(
        read(&grown) == read(&oracle),
        "chunked flushes must write the bytes of a full render"
    );
    let best = (0..iters.max(1))
        .map(|_| grow_cache(&scratch.join("timed"), from, to).1)
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&scratch);
    let flushes = (to - from).div_ceil(FLUSH_CHUNK);
    CacheFlushRow {
        from,
        to,
        flushes,
        ms_per_flush: best * 1e3 / flushes as f64,
        bytes_per_flush: bytes / flushes as u64,
    }
}

/// Jobs per sample of the serve row, fresh-cache and cache-hit alike.
const SERVE_JOBS: usize = 31;

/// Times one crypt job over `space` through an in-process daemon on
/// loopback, client side, from connect to the `done` event:
/// [`SERVE_JOBS`] jobs each on a fresh daemon (cold cache), then as many
/// repeats on one daemon whose cache already holds every point of the
/// job. Outside the timed window each output is compared with the
/// in-process exec render of the job over the same cache state:
/// cacheless for fresh jobs, a warmed cache for the repeats.
fn time_serve(space: &'static str) -> ServeRow {
    eprintln!("serving {SERVE_JOBS} fresh and {SERVE_JOBS} cache-hit {space}-space jobs...");
    let spec = JobSpec {
        space: Some(space.into()),
        workloads: vec!["crypt".into()],
        format: Format::Json,
        ..JobSpec::default()
    };
    let prepared = exec::prepare(&spec).expect("serve row spec resolves");
    let fresh_render = prepared.run(None, None, None, None).output;
    let warm = SweepCache::in_memory();
    prepared.run(Some(&warm), None, None, None);
    let hit_render = prepared.run(Some(&warm), None, None, None).output;

    let start_daemon = || {
        let server =
            Server::bind("127.0.0.1:0", 2, SweepCache::in_memory()).expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        (addr, std::thread::spawn(move || server.run()))
    };
    let stop_daemon = |addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>| {
        control(addr, "/shutdown").expect("shutdown accepted");
        handle
            .join()
            .expect("serve thread")
            .expect("clean shutdown");
    };
    let submit = |addr: &str| {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let start = Instant::now();
        run_remote(addr, &spec, &mut out, &mut err).expect("serve row job");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, String::from_utf8(out).expect("utf-8 output"))
    };
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };

    let fresh = (0..SERVE_JOBS)
        .map(|_| {
            let (addr, handle) = start_daemon();
            let (ms, output) = submit(&addr);
            assert!(
                output == fresh_render,
                "a fresh daemon job must print the exec render"
            );
            stop_daemon(&addr, handle);
            ms
        })
        .collect();
    let (addr, handle) = start_daemon();
    let (_, output) = submit(&addr);
    assert!(
        output == fresh_render,
        "a fresh daemon job must print the exec render"
    );
    let hits = (0..SERVE_JOBS)
        .map(|_| {
            let (ms, output) = submit(&addr);
            assert!(
                output == hit_render,
                "a cache-hit daemon job must print the exec render"
            );
            ms
        })
        .collect();
    stop_daemon(&addr, handle);
    ServeRow {
        space,
        jobs: SERVE_JOBS,
        fresh_ms_p50: median(fresh),
        hit_ms_p50: median(hits),
    }
}

/// `sample` seeded points of `template`, the same on every run.
fn seeded_sample(template: &TemplateSpace, sample: usize) -> Vec<Architecture> {
    let mut state = 1u64;
    (0..sample)
        .map(|_| template.point((splitmix(&mut state) % template.len() as u64) as usize))
        .collect()
}

/// The standard suite `all` at fast scale.
fn suite_all() -> Vec<Workload> {
    SuiteRegistry::standard()
        .instantiate("all", &SuiteParams::fast())
        .expect("standard suite `all`")
        .into_iter()
        .map(|m| m.workload)
        .collect()
}

/// SplitMix64: a stable, dependency-free index stream for samples.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Best-of-`iters` wall-clock for one cold sweep.
fn time_sweep(space: &TemplateSpace, db: &ComponentDb, iters: usize) -> (f64, usize) {
    let workload = suite::crypt(1);
    let mut best = f64::INFINITY;
    let mut front = 0;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let result = Exploration::over(space.clone())
            .workload(&workload)
            .with_db(db)
            .run();
        best = best.min(start.elapsed().as_secs_f64());
        front = result.pareto.len();
    }
    (best, front)
}

fn measure(
    space: &'static str,
    template: TemplateSpace,
    db: &ComponentDb,
    iters: usize,
) -> SweepRow {
    eprintln!("sweeping {space} space ({} points)...", template.len());
    // One untimed pass so the lazily-annotated database is warm before
    // the sweep is measured (matters for --iters 1).
    time_sweep(&template, db, 1);
    let (scratch_s, front) = time_sweep(&template, db, iters);
    SweepRow {
        space,
        points: template.len(),
        front,
        scratch_s,
    }
}

/// The headline trajectory number: one cold paper-scale fig2-style
/// sweep, annotation database and all. This is what the `< 1 s` CI
/// soft-check guards.
fn time_cold(iters: usize) -> f64 {
    let workload = suite::crypt(1);
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let db = ComponentDb::new();
        Exploration::over(TemplateSpace::paper_default())
            .workload(&workload)
            .with_db(&db)
            .run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut date = String::from("unknown");
    let mut space_filter: Option<String> = None;
    let mut iters = 3usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--date" => date = it.next().expect("--date needs a value").clone(),
            "--space" => space_filter = Some(it.next().expect("--space needs a value").clone()),
            "--iters" => {
                iters = it
                    .next()
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters needs a number")
            }
            other => {
                eprintln!("unknown flag {other:?} (expected --date, --space or --iters)");
                std::process::exit(2);
            }
        }
    }

    // One shared database covers both widths (records are keyed by
    // component width); warm it with the cheap space first so neither
    // timed sweep pays for annotation.
    let db = ComponentDb::new();
    let keep = |name: &str| space_filter.as_deref().is_none_or(|f| f == name);
    let mut rows = Vec::new();
    if keep("fast") {
        rows.push(measure("fast", TemplateSpace::fast_default(), &db, iters));
    }
    if keep("paper") {
        rows.push(measure("paper", TemplateSpace::paper_default(), &db, iters));
    }
    // Fold-axis rows: per-point cost evaluation alone, scratch vs true
    // incremental (carried folds). The huge row is the first
    // budgeted sweep of the 2^20-point hierarchical space — walking the
    // whole space is deliberately out of reach; a 4096-point Gray
    // prefix is what a budgeted campaign actually evaluates.
    let mut fold_rows = Vec::new();
    if keep("fast") {
        fold_rows.push(time_fold_axis(
            "fast",
            TemplateSpace::fast_default(),
            usize::MAX,
            &db,
            iters,
        ));
    }
    if keep("paper") {
        fold_rows.push(time_fold_axis(
            "paper",
            TemplateSpace::paper_default(),
            usize::MAX,
            &db,
            iters,
        ));
    }
    if keep("huge") {
        fold_rows.push(time_fold_axis(
            "huge",
            TemplateSpace::huge(),
            4096,
            &db,
            iters,
        ));
    }
    // Fidelity rows: area+clock per point from the annotation tables vs
    // per-point gate-level elaboration (scratch and incremental), over a
    // huge-space Gray-walk prefix as `--fidelity netlist` sweeps walk it.
    let mut fidelity_rows = Vec::new();
    if keep("huge") {
        fidelity_rows.push(time_fidelity_axis(
            "huge",
            TemplateSpace::huge(),
            FIDELITY_WALK,
            &db,
        ));
    }
    // Schedule rows: the list scheduler alone, full schedule vs the
    // cycles-only path, on a seeded sample of the 2^20-point space.
    let mut schedule_rows = Vec::new();
    if keep("huge") {
        schedule_rows.push(time_schedule("huge", TemplateSpace::huge(), 500, iters));
    }
    // Simulate rows: lowering and execution alone, traced vs trace-free,
    // over the schedule row's sample.
    let mut simulate_rows = Vec::new();
    if keep("huge") {
        simulate_rows.push(time_simulate("huge", TemplateSpace::huge(), 500, iters));
    }
    // Serve rows: one job end to end through the daemon on loopback,
    // admission, queue, run and stream included.
    let mut serve_rows = Vec::new();
    if keep("fast") {
        serve_rows.push(time_serve("fast"));
    }
    if rows.is_empty()
        && fold_rows.is_empty()
        && fidelity_rows.is_empty()
        && schedule_rows.is_empty()
        && simulate_rows.is_empty()
        && serve_rows.is_empty()
    {
        eprintln!("--space matched nothing (expected fast, paper or huge)");
        std::process::exit(2);
    }
    // The cache-flush row belongs to no space: it runs under every
    // filter, on synthetic entries sized like the perfbench Gray walk's
    // last quarter.
    let flush_row = time_cache_flush(6144, 8192, iters);

    println!("{{");
    println!("  \"bench\": \"dse\",");
    println!("  \"date\": \"{date}\",");
    println!(
        "  \"command\": \"cargo run --release -p tta-bench --bin bench_dse -- --date {date}\","
    );
    println!(
        "  \"note\": \"best-of-{iters} wall-clock, release profile, single machine run, cold \
         sweep cache, shared warmed ComponentDb. The sweeps rows time one enumeration-order \
         crypt sweep per space: scratch_s folds every per-component cost from the annotation \
         database at each point, and per-point cost is scheduler-dominated. The historical \
         speedup lives upstream (annotation-side ATPG batching took the cold paper sweep from \
         tens of seconds to under one, the `cold` row below); these rows exist to catch a \
         regression. The fold_axis rows isolate per-point cost evaluation over a Gray-walk \
         prefix — scratch refolds every component through the database, incremental carries \
         the previous point's folds and exchanges the single changed component \
         (CarriedFolds::advance; bit-identity asserted in an untimed pass) — the huge row is \
         the budgeted 2^20-point hierarchical-space sweep where the carried fold pays off. The fidelity rows time the area+clock axes per point over a 256-point huge-space \
         Gray walk, each path the median of five interleaved runs: table folds the \
         back-annotation constants, netlist elaborates every point to gates from scratch and \
         runs the loaded STA (what --fidelity netlist pays on a cold non-neighbour walk), \
         incremental drives the IncrementalElaborator along the Gray walk, rewinding to the \
         first differing segment (bit-identity to scratch asserted in an untimed pass). The \
         table fold being orders of magnitude cheaper is the fidelity trade, not a regression; \
         the CI soft bar watches netlist_over_incremental like the fold rows' 3x bar. The \
         schedule rows time the movec list scheduler alone per (point, workload) schedule on a \
         seeded 500-point sample of the huge space against suite all: run_us builds the full move \
         schedule (lowering, simulation, ttadse sim), cost_us is the cycles-only path sweeps use \
         (agreement on every pair asserted in an untimed pass). The simulate rows time lowering \
         and execution alone per lowered (point, workload) program over the same sample: lower_us \
         and run_us are the named program and traced run ttadse sim pays, lower_code_us and \
         outcome_us the index-resolved code and trace-free run a --cycles simulate sweep pays \
         (agreement on cycles, outputs and errors asserted in an untimed pass). The cache_flush row times \
         SweepCache::flush as a chunked sweep pays it: a cache seeded with 6144 synthetic entries \
         grows to 8192 in 64-entry chunks, flushing after each; ms_per_flush is the best-of run's \
         mean and bytes_per_flush the mean file size written (byte-identity of the chunked \
         flushes to one full render asserted in an untimed pass). It belongs to no space and runs \
         under every --space filter. The serve rows time one crypt job through an in-process \
         daemon (2 workers) on loopback, client side from connect to the done event: \
         fresh_ms_p50 is the median of 31 jobs each on a fresh daemon, hit_ms_p50 of 31 repeats \
         on one daemon whose cache already holds the job (every output byte-identical to the \
         in-process exec render over the same cache state, asserted outside the timed window).\","
    );
    println!("  \"sweeps\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"front\": {}, \"scratch_s\": {:.4} }}{comma}",
            r.space, r.points, r.front, r.scratch_s
        );
    }
    println!("  ],");
    println!("  \"fold_axis\": [");
    for (i, r) in fold_rows.iter().enumerate() {
        let comma = if i + 1 < fold_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"walked\": {}, \"scratch_s\": {:.6}, \
             \"incremental_s\": {:.6}, \"scratch_over_incremental\": {:.1} }}{comma}",
            r.space,
            r.points,
            r.walked,
            r.scratch_s,
            r.incremental_s,
            r.scratch_s / r.incremental_s
        );
    }
    println!("  ],");
    println!("  \"fidelity\": [");
    for (i, r) in fidelity_rows.iter().enumerate() {
        let comma = if i + 1 < fidelity_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"walked\": {}, \"table_s\": {:.6}, \
             \"netlist_s\": {:.6}, \"incremental_s\": {:.6}, \"netlist_over_incremental\": {:.1} }}{comma}",
            r.space,
            r.points,
            r.walked,
            r.table_s,
            r.netlist_s,
            r.incremental_s,
            r.netlist_s / r.incremental_s
        );
    }
    println!("  ],");
    println!("  \"schedule\": [");
    for (i, r) in schedule_rows.iter().enumerate() {
        let comma = if i + 1 < schedule_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"suite\": \"all\", \"schedules\": {}, \
             \"infeasible\": {}, \"run_us\": {:.2}, \"cost_us\": {:.2}, \"run_over_cost\": {:.2} }}{comma}",
            r.space,
            r.points,
            r.schedules,
            r.infeasible,
            r.run_us,
            r.cost_us,
            r.run_us / r.cost_us
        );
    }
    println!("  ],");
    println!("  \"simulate\": [");
    for (i, r) in simulate_rows.iter().enumerate() {
        let comma = if i + 1 < simulate_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"suite\": \"all\", \"programs\": {}, \
             \"lower_us\": {:.2}, \"lower_code_us\": {:.2}, \"run_us\": {:.2}, \"outcome_us\": {:.2}, \
             \"run_over_outcome\": {:.2} }}{comma}",
            r.space,
            r.points,
            r.programs,
            r.lower_us,
            r.lower_code_us,
            r.run_us,
            r.outcome_us,
            r.run_us / r.outcome_us
        );
    }
    println!("  ],");
    println!("  \"cache_flush\": [");
    println!(
        "    {{ \"entries_from\": {}, \"entries_to\": {}, \"chunk\": {FLUSH_CHUNK}, \"flushes\": {}, \
         \"ms_per_flush\": {:.3}, \"bytes_per_flush\": {} }}",
        flush_row.from,
        flush_row.to,
        flush_row.flushes,
        flush_row.ms_per_flush,
        flush_row.bytes_per_flush
    );
    println!("  ],");
    println!("  \"serve\": [");
    for (i, r) in serve_rows.iter().enumerate() {
        let comma = if i + 1 < serve_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"workload\": \"crypt\", \"jobs\": {}, \
             \"fresh_ms_p50\": {:.3}, \"hit_ms_p50\": {:.3} }}{comma}",
            r.space, r.jobs, r.fresh_ms_p50, r.hit_ms_p50
        );
    }
    println!("  ],");
    if keep("paper") {
        // Cold end-to-end: the annotation database (real ATPG + march
        // runs) is rebuilt inside the timed region, as `ttadse fig2`
        // pays it. This is the committed trajectory headline.
        eprintln!("cold paper sweeps (database rebuilt per run)...");
        let cold_scratch = time_cold(iters);
        println!("  \"cold\": {{");
        println!(
            "    \"space\": \"paper\", \"includes_annotation\": true, \
             \"scratch_s\": {cold_scratch:.3}"
        );
        println!("  }}");
    } else {
        println!("  \"cold\": null");
    }
    println!("}}");
}
