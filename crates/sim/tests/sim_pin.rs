//! Pins the lowering and the simulator's complete output, not just
//! their cycle counts: the canonical text of every lowered program and
//! every field of every [`Trace`] over the fast and paper spaces plus a
//! seeded sample of the huge space, each against suite `all`. The
//! digest constant was recorded before lowering emitted index-resolved
//! code and before the trace-free execution path went in, so any change
//! to a single lowered move or executed value shows up here.
//!
//! The second test is the differential contract of the trace-free path:
//! over the same corpus, [`Simulator::outcome`] on the lowered [`Code`]
//! agrees with [`Simulator::run`] on the lowered program on cycles,
//! outputs and the exact [`SimError`](tta_sim::SimError), and the code
//! lowering emits is what decoding the named program yields.

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_movec::schedule::Scheduler;
use tta_sim::{lower, lower_code, Code, SimOptions, Simulator, Trace};
use tta_workloads::{SuiteParams, SuiteRegistry, Workload};

/// FNV-1a over bytes and words, in a fixed order.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn words(&mut self, ws: &[u64]) {
        self.u64(ws.len() as u64);
        for &w in ws {
            self.u64(w);
        }
    }

    fn trace(&mut self, t: &Trace) {
        self.u64(t.cycles);
        self.u64(t.steps.len() as u64);
        for step in &t.steps {
            self.u64(step.cycle);
            self.u64(step.instr as u64);
            self.u64(step.moves.len() as u64);
            for mv in &step.moves {
                self.text(&mv.src.to_string());
                self.text(&mv.dst.to_string());
                self.u64(mv.value);
            }
        }
        self.u64(t.rfs.len() as u64);
        for (name, regs) in &t.rfs {
            self.text(name);
            self.words(regs);
        }
        self.words(&t.mem);
        self.words(&t.outputs);
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

/// The options sweeps simulate lowered programs with.
fn lowered_options() -> SimOptions {
    SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    }
}

/// Recorded before the index-resolved lowering and the trace-free
/// execution path (see the module docs).
const PINNED_DIGEST: u64 = 0x56d8_feeb_008f_3d1c;

#[test]
fn lowered_programs_and_traces_match_the_pinned_digest() {
    let workloads = suite_all();
    let mut digest = Digest::new();
    let mut programs = 0usize;
    for arch in corpus() {
        let scheduler = Scheduler::new(&arch);
        let simulator = Simulator::new(&arch).options(lowered_options());
        for w in &workloads {
            let Ok(schedule) = scheduler.run(&w.dfg) else {
                digest.u64(u64::MAX);
                continue;
            };
            match lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem) {
                Ok(program) => {
                    programs += 1;
                    digest.text(&tta_asm::disassemble(&program));
                    match simulator.run(&program) {
                        Ok(trace) => digest.trace(&trace),
                        Err(e) => digest.text(&format!("{e:?}")),
                    }
                }
                Err(e) => digest.text(&format!("{e:?}")),
            }
        }
    }
    assert!(programs > 2000, "vacuous corpus: {programs} programs");
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "lowered program / trace digest moved: {:#018x}",
        digest.0
    );
}

#[test]
fn the_trace_free_path_agrees_with_the_traced_run() {
    let workloads = suite_all();
    let (mut ran, mut failed) = (0, 0);
    for arch in corpus() {
        let scheduler = Scheduler::new(&arch);
        let simulator = Simulator::new(&arch).options(lowered_options());
        for w in &workloads {
            let Ok(schedule) = scheduler.run(&w.dfg) else {
                continue;
            };
            let what = format!("{} / {}", arch.name, w.name);
            let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem);
            let code = lower_code(&arch, &w.dfg, &schedule, &w.inputs, &w.mem);
            let (program, code) = match (program, code) {
                (Ok(p), Ok(c)) => (p, c),
                (p, c) => {
                    assert_eq!(p.err(), c.err(), "{what}");
                    continue;
                }
            };
            assert_eq!(code.to_program(&arch), program, "{what}");
            assert_eq!(Code::decode(&program, &arch), code, "{what}");
            let traced = simulator.run(&program).map(|t| (t.cycles, t.outputs));
            let outcome = simulator.outcome(&code).map(|o| (o.cycles, o.outputs));
            assert_eq!(outcome, traced, "{what}");
            if traced.is_ok() {
                ran += 1;
            } else {
                failed += 1;
            }
        }
    }
    assert!(ran > 2000, "vacuous corpus: {ran} runs, {failed} failures");
}
