//! Pins the movec list scheduler's complete output, not just its cycle
//! counts: every move, every op binding and every transport of every
//! schedule over the fast and paper spaces plus a seeded sample of the
//! huge space, each against suite `all`. The digest constant was
//! recorded before the scheduler's prunings and per-DFG caching went
//! in, so any change to a single scheduled cycle shows up here.
//!
//! The second test is the differential contract of the cycles-only
//! path: [`Scheduler::cost`] agrees with [`Scheduler::run`] on cycles,
//! makespan, spills and the error variant over the same corpus.

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_movec::schedule::{Endpoint, Schedule, ScheduleError, Scheduler};
use tta_workloads::{SuiteParams, SuiteRegistry, Workload};

/// FNV-1a over the schedule fields, in a fixed order.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn endpoint(&mut self, e: Endpoint) {
        let (tag, i) = match e {
            Endpoint::FuResult(i) => (0, i),
            Endpoint::FuOperand(i) => (1, i),
            Endpoint::FuTrigger(i) => (2, i),
            Endpoint::RfWrite(i) => (3, i),
            Endpoint::RfRead(i) => (4, i),
            Endpoint::Imm(i) => (5, i),
        };
        self.u64(tag);
        self.u64(i as u64);
    }

    fn error(&mut self, e: &ScheduleError) {
        self.u64(u64::MAX);
        self.u64(match e {
            ScheduleError::MissingFu(class) => *class as u64,
            ScheduleError::InvalidArchitecture(_) => 100,
            ScheduleError::ResourceDeadlock => 200,
        });
    }

    fn schedule(&mut self, s: &Schedule) {
        self.u64(u64::from(s.cycles));
        self.u64(u64::from(s.makespan));
        self.u64(u64::from(s.spills));
        self.u64(s.moves.len() as u64);
        for m in &s.moves {
            self.u64(u64::from(m.cycle));
            self.endpoint(m.src);
            self.endpoint(m.dst);
            self.u64(m.value.index() as u64);
        }
        self.u64(s.ops.len() as u64);
        for op in &s.ops {
            self.u64(op.node as u64);
            self.u64(op.fu as u64);
            self.u64(u64::from(op.trigger));
        }
        let mut fus: Vec<_> = s.transports.keys().copied().collect();
        fus.sort_unstable();
        for fu in fus {
            self.u64(fu as u64);
            for t in &s.transports[&fu] {
                self.u64(t.o.map_or(u64::MAX, u64::from));
                self.u64(u64::from(t.t));
                self.u64(u64::from(t.r));
                self.u64(u64::from(t.fin));
                self.u64(u64::from(t.fout));
            }
        }
    }
}

/// SplitMix64: a dependency-free, stable index stream for the sample.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fast and paper spaces in full, then 300 seeded huge-space points.
fn corpus() -> Vec<Architecture> {
    let mut archs: Vec<Architecture> = TemplateSpace::fast_default().points().collect();
    archs.extend(TemplateSpace::paper_default().points());
    let huge = TemplateSpace::huge();
    let mut state = 7u64;
    for _ in 0..300 {
        archs.push(huge.point((splitmix(&mut state) % huge.len() as u64) as usize));
    }
    archs
}

fn suite_all() -> Vec<Workload> {
    SuiteRegistry::standard()
        .instantiate("all", &SuiteParams::fast())
        .expect("standard suite `all`")
        .into_iter()
        .map(|m| m.workload)
        .collect()
}

/// Recorded before the scheduler optimisations (see the module docs).
const PINNED_DIGEST: u64 = 0x0111_67fa_482a_1700;

#[test]
fn full_schedules_match_the_pinned_digest() {
    let workloads = suite_all();
    let mut digest = Digest::new();
    for arch in corpus() {
        let scheduler = Scheduler::new(&arch);
        for w in &workloads {
            match scheduler.run(&w.dfg) {
                Ok(s) => digest.schedule(&s),
                Err(e) => digest.error(&e),
            }
        }
    }
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "full schedule digest moved: {:#018x}",
        digest.0
    );
}

#[test]
fn the_cycles_only_path_agrees_with_the_full_schedule() {
    let workloads = suite_all();
    let (mut feasible, mut infeasible) = (0, 0);
    for arch in corpus() {
        let scheduler = Scheduler::new(&arch);
        for w in &workloads {
            let full = scheduler.run(&w.dfg).map(|s| s.cost());
            assert_eq!(scheduler.cost(&w.dfg), full, "{} / {}", arch.name, w.name);
            if full.is_ok() {
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
    }
    // The corpus exercises both outcomes.
    assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
}

#[test]
fn both_paths_reject_an_invalid_architecture_alike() {
    let workloads = suite_all();
    let mut arch = TemplateSpace::fast_default().point(0);
    arch.rfs.clear();
    let scheduler = Scheduler::new(&arch);
    for w in &workloads {
        let full = scheduler.run(&w.dfg).map(|s| s.cost());
        assert!(
            matches!(full, Err(ScheduleError::InvalidArchitecture(_))),
            "{full:?}"
        );
        assert_eq!(scheduler.cost(&w.dfg), full);
    }
}
