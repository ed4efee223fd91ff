//! Simulator throughput: executed cycles per run for every kernel on
//! the maximal fast-space machine, through the traced `Simulator::run`
//! (group `sim`) and the trace-free `Simulator::outcome` over the
//! lowered code (group `outcome`), plus the fast-space sweep cost under
//! `CycleSource::Model` vs `CycleSource::Simulate`. `BENCH_sim.json` at
//! the repo root records one distilled release run of this bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tta_arch::template::TemplateSpace;
use tta_core::explore::{CycleSource, Exploration};
use tta_movec::schedule::Scheduler;
use tta_sim::{lower, lower_code, SimOptions, Simulator};
use tta_workloads::suite;
use tta_workloads::suite::Workload;

fn lowered_options() -> SimOptions {
    SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    }
}

/// Timed runs per kernel: a run takes microseconds, so the stub's
/// default ten would leave the mean at the mercy of one slow run.
const KERNEL_SAMPLES: usize = 500;

/// Every kernel of suite `all` on the maximal fast-space machine.
fn kernels() -> (tta_arch::Architecture, Vec<Workload>) {
    let space = TemplateSpace::fast_default();
    let registry = suite::SuiteRegistry::standard();
    let members = registry
        .instantiate("all", &suite::SuiteParams::fast())
        .expect("the standard registry has an `all` suite");
    (
        space.point(space.len() - 1),
        members.into_iter().map(|m| m.workload).collect(),
    )
}

fn bench_sim_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(KERNEL_SAMPLES);
    let (arch, workloads) = kernels();
    for w in workloads {
        let schedule = Scheduler::new(&arch)
            .run(&w.dfg)
            .expect("the maximal point schedules every kernel");
        let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).expect("schedules lower");
        // Stated once per kernel so a distilled BENCH_sim.json can turn
        // the mean time below into executed cycles per second.
        let cycles = Simulator::new(&arch)
            .options(lowered_options())
            .run(&program)
            .expect("lowered programs execute")
            .cycles;
        println!("sim/{}: {cycles} cycles per run", w.name);
        group.bench_with_input(BenchmarkId::from_parameter(&w.name), &program, |b, p| {
            b.iter(|| {
                black_box(
                    Simulator::new(&arch)
                        .options(lowered_options())
                        .run(p)
                        .unwrap()
                        .cycles,
                )
            });
        });
    }
    group.finish();
}

fn bench_outcome_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("outcome");
    group.sample_size(KERNEL_SAMPLES);
    let (arch, workloads) = kernels();
    for w in workloads {
        let schedule = Scheduler::new(&arch)
            .run(&w.dfg)
            .expect("the maximal point schedules every kernel");
        let code =
            lower_code(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).expect("schedules lower");
        group.bench_with_input(BenchmarkId::from_parameter(&w.name), &code, |b, code| {
            b.iter(|| {
                black_box(
                    Simulator::new(&arch)
                        .options(lowered_options())
                        .outcome(code)
                        .unwrap()
                        .cycles,
                )
            });
        });
    }
    group.finish();
}

fn bench_sweep_cycle_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.sample_size(2);
    let crypt = suite::crypt(1);
    for (label, source) in [
        ("model", CycleSource::Model),
        ("simulate", CycleSource::Simulate),
    ] {
        group.bench_function(BenchmarkId::new("fast-space", label), |b| {
            b.iter(|| {
                black_box(
                    Exploration::over(TemplateSpace::fast_default())
                        .workload(&crypt)
                        .cycle_source(source)
                        .parallel(true)
                        .run()
                        .evaluated
                        .len(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sim_kernels,
    bench_outcome_kernels,
    bench_sweep_cycle_source
);
criterion_main!(benches);
