//! The headline validation: the analytic cycle model is executable.
//!
//! For every workload in the standard registry, on every point of the
//! fast template space, the lowered program's executed cycle count
//! equals the scheduler's analytic count and the executed outputs
//! equal the golden model. Plus: simulator determinism and every
//! hard-error path, each through both the traced and the trace-free
//! execution path.

use proptest::prelude::*;
use tta_arch::template::{TemplateBuilder, TemplateSpace};
use tta_arch::{Architecture, FuKind};
use tta_movec::schedule::Scheduler;
use tta_sim::{lower, Code, OpCode, Outcome, Program, SimError, SimOptions, Simulator, Trace};
use tta_workloads::suite::{SuiteParams, SuiteRegistry};

fn lowered_options() -> SimOptions {
    SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    }
}

/// The acceptance property: executed == modeled, for every registered
/// workload on every fast-space point where the workload schedules.
#[test]
fn every_workload_executes_to_the_model_on_the_fast_space() {
    let reg = SuiteRegistry::standard();
    let params = SuiteParams::fast();
    let space = TemplateSpace::fast_default();
    let archs: Vec<Architecture> = space.enumerate();
    for name in reg.workload_names() {
        let w = reg.build(name, &params).expect("registered workload");
        let golden = {
            let mut mem = w.mem.clone();
            w.dfg.eval(&w.inputs, &mut mem)
        };
        let mut executed_somewhere = false;
        for arch in &archs {
            let Ok(schedule) = Scheduler::new(arch).run(&w.dfg) else {
                continue; // workload infeasible on this point
            };
            let program = lower(arch, &w.dfg, &schedule, &w.inputs, &w.mem)
                .unwrap_or_else(|e| panic!("{name} on {}: lowering failed: {e}", arch.name));
            let trace = Simulator::new(arch)
                .options(lowered_options())
                .run(&program)
                .unwrap_or_else(|e| panic!("{name} on {}: simulation failed: {e}", arch.name));
            assert_eq!(
                trace.cycles,
                u64::from(schedule.cycles),
                "{name} on {}: executed cycles != scheduled cycles",
                arch.name
            );
            assert_eq!(
                trace.outputs, golden,
                "{name} on {}: executed outputs != golden model",
                arch.name
            );
            executed_somewhere = true;
        }
        assert!(executed_somewhere, "{name} never executed — vacuous test");
    }
}

/// Final memory must also agree with the golden model's view (stores
/// land where `Dfg::eval` says they land).
#[test]
fn final_memory_matches_golden_model() {
    let reg = SuiteRegistry::standard();
    let params = SuiteParams::fast();
    let arch = TemplateSpace::fast_default().point(TemplateSpace::fast_default().len() - 1);
    for name in reg.workload_names() {
        let w = reg.build(name, &params).expect("registered workload");
        let mut golden_mem = w.mem.clone();
        w.dfg.eval(&w.inputs, &mut golden_mem);
        let schedule = Scheduler::new(&arch)
            .run(&w.dfg)
            .expect("maximal point schedules all");
        let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).unwrap();
        let trace = Simulator::new(&arch)
            .options(lowered_options())
            .run(&program)
            .unwrap();
        assert_eq!(trace.mem, golden_mem, "{name}: final memory diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same program + same architecture ⇒ bit-identical trace, twice.
    #[test]
    fn simulation_is_deterministic(point in 0usize..24, wl in 0usize..8) {
        let reg = SuiteRegistry::standard();
        let names = reg.workload_names();
        let name = names[wl % names.len()];
        let w = reg.build(name, &SuiteParams::fast()).expect("registered");
        let space = TemplateSpace::fast_default();
        let arch = space.point(point % space.len());
        if let Ok(schedule) = Scheduler::new(&arch).run(&w.dfg) {
            let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).unwrap();
            let a = Simulator::new(&arch).options(lowered_options()).run(&program).unwrap();
            let b = Simulator::new(&arch).options(lowered_options()).run(&program).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

// ---- error paths: illegal programs are hard errors, not silences ----
//
// Every program below runs through both execution paths: the traced
// `run` and the trace-free `outcome` over the decoded code. They must
// agree on cycles, outputs and the exact error.

/// Runs `program` on `arch` through both paths, asserts they agree and
/// returns the traced result.
fn simulate(
    arch: &Architecture,
    options: SimOptions,
    program: &Program,
) -> Result<Trace, SimError> {
    let simulator = Simulator::new(arch).options(options);
    let traced = simulator.run(program);
    let outcome = simulator.outcome(&Code::decode(program, arch));
    let expected = traced.as_ref().map_err(Clone::clone).map(|t| Outcome {
        cycles: t.cycles,
        outputs: t.outputs.clone(),
    });
    assert_eq!(outcome, expected, "outcome and run disagree");
    traced
}

/// [`simulate`] on Figure 9 with strict options.
fn on_figure9(text: &str) -> Result<Trace, SimError> {
    let program = tta_asm::assemble(text).unwrap();
    simulate(&Architecture::figure9(), SimOptions::default(), &program)
}

/// A four-bus machine: one ALU, one immediate unit, one RF with two
/// read ports and one write port.
fn four_buses() -> Architecture {
    TemplateBuilder::new("four", 16, 4)
        .fu(FuKind::Alu)
        .fu(FuKind::Immediate)
        .rf(8, 1, 2)
        .build()
}

#[test]
fn bus_contention_is_a_hard_error() {
    // Figure 9 has two buses; a three-move instruction cannot issue.
    assert_eq!(
        on_figure9(
            "\
.width 16
.rf rf1 4 = 1 2 3 0
rf1[0] -> alu0.o, rf1[1] -> alu0.add, rf1[2] -> cmp0.o
",
        ),
        Err(SimError::BusContention {
            cycle: 0,
            moves: 3,
            buses: 2
        })
    );
}

#[test]
#[should_panic(expected = "unconnected socket")]
fn unconnected_socket_is_a_hard_error() {
    // Figure 9 has no MUL unit: `mul0` resolves nowhere.
    on_figure9(
        "\
.width 16
.rf rf1 2 = 3 4
rf1[0] -> mul0.o, rf1[1] -> mul0.mul
",
    )
    .map_err(|e| e.to_string())
    .unwrap();
}

#[test]
fn double_write_same_register_is_a_hard_error() {
    // Two moves into the same operand register in one cycle.
    assert_eq!(
        on_figure9(
            "\
.width 16
.rf rf1 4 = 1 2 0 0
rf1[0] -> alu0.o, rf1[1] -> alu0.o
",
        ),
        Err(SimError::DoubleWrite {
            cycle: 0,
            dst: "alu0.o".into()
        })
    );
}

#[test]
fn result_read_before_latency_expires_is_a_hard_error() {
    // The ALU takes one cycle: reading alu0.r in the trigger cycle is
    // premature (the scheduler never emits this; relation 6 forbids it).
    assert_eq!(
        on_figure9(
            "\
.width 16
.rf rf1 2 = 1 0
rf1[0] -> alu0.o, alu0.r -> rf1[1]
",
        ),
        Err(SimError::ResultNotReady {
            cycle: 0,
            fu: "alu0".into()
        })
    );
}

#[test]
fn rf_port_contention_is_a_hard_error() {
    // rf2 of Figure 9 has one write port; two same-cycle writes break it.
    assert_eq!(
        on_figure9(
            "\
.width 16
.rf rf1 2 = 1 2
rf1[0] -> rf2[0], rf1[1] -> rf2[1]
",
        ),
        Err(SimError::PortContention {
            cycle: 0,
            resource: "rf2 write ports".into()
        })
    );
}

#[test]
fn immediate_port_contention_is_a_hard_error() {
    // An immediate unit delivers one constant per cycle.
    assert_eq!(
        on_figure9(
            "\
.width 16
imm0:1 -> alu0.o, imm0:2 -> alu0.add
",
        ),
        Err(SimError::PortContention {
            cycle: 0,
            resource: "imm0 output".into()
        })
    );
}

#[test]
fn operand_unset_is_a_hard_error() {
    assert_eq!(
        on_figure9(
            "\
.width 16
imm0:1 -> alu0.add
",
        ),
        Err(SimError::OperandUnset {
            cycle: 0,
            fu: "alu0".into()
        })
    );
}

#[test]
fn empty_memory_is_a_hard_error() {
    assert_eq!(
        on_figure9(
            "\
.width 16
-
imm0:3 -> ldst0.ld
",
        ),
        Err(SimError::EmptyMemory { cycle: 1 })
    );
}

#[test]
fn jump_beyond_the_end_is_a_hard_error() {
    assert_eq!(
        on_figure9(
            "\
.width 16
imm0:9 -> pc0.jmp
",
        ),
        Err(SimError::InvalidJumpTarget {
            cycle: 0,
            target: 9,
            len: 1
        })
    );
}

#[test]
fn register_overflow_needs_opt_in() {
    // A program declaring more registers than the machine has is only
    // legal under the lowered-spill convention.
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 100 =
-
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    assert_eq!(
        simulate(&arch, SimOptions::default(), &program),
        Err(SimError::RegisterOutOfRange {
            rf: "rf1".into(),
            reg: 99,
            regs: 8
        })
    );
    assert!(simulate(&arch, lowered_options(), &program).is_ok());
}

#[test]
fn register_read_out_of_range_is_a_hard_error() {
    assert_eq!(
        on_figure9(
            "\
.width 16
rf1[8] -> alu0.o
",
        ),
        Err(SimError::RegisterOutOfRange {
            rf: "rf1".into(),
            reg: 8,
            regs: 8
        })
    );
}

#[test]
fn wrong_unit_class_is_a_hard_error() {
    assert_eq!(
        on_figure9(
            "\
.width 16
.rf rf1 2 = 1 2
rf1[0] -> alu0.o, rf1[1] -> alu0.ltu
",
        ),
        Err(SimError::WrongUnitClass {
            fu: "alu0".into(),
            op: OpCode::Ltu
        })
    );
}

#[test]
fn cycle_limit_stops_runaway_loops() {
    let program = tta_asm::assemble(
        "\
.width 16
top:
imm0:@top -> pc0.jmp
",
    )
    .unwrap();
    let opts = SimOptions {
        max_cycles: 100,
        ..Default::default()
    };
    assert_eq!(
        simulate(&Architecture::figure9(), opts, &program),
        Err(SimError::CycleLimit { limit: 100 })
    );
}

#[test]
fn a_jump_over_a_missing_unit_runs_to_completion() {
    // `mul0` resolves nowhere on Figure 9, but the move naming it is
    // never issued: names are checked where a move executes.
    let trace = on_figure9(
        "\
.width 16
.rf rf1 2 = 3 4
.out rf1[1]
imm0:@end -> pc0.jmp
rf1[0] -> mul0.o, rf1[1] -> mul0.mul
end:
-
",
    )
    .expect("the bad instruction is jumped over");
    assert_eq!(trace.cycles, 2);
    assert_eq!(trace.outputs, vec![4]);
}

#[test]
fn the_first_error_of_a_cycle_wins_over_a_later_bad_name() {
    let arch = four_buses();
    let run = |text: &str| {
        simulate(
            &arch,
            SimOptions::default(),
            &tta_asm::assemble(text).unwrap(),
        )
    };
    // The immediate port overflows in move 1; `nope` is read in move 2.
    assert_eq!(
        run("\
.width 16
imm0:1 -> alu0.o, imm0:2 -> rf1[0], nope.r -> rf1[1]
"),
        Err(SimError::PortContention {
            cycle: 0,
            resource: "imm0 output".into()
        })
    );
    // Swapped, the bad name comes first and is the error.
    assert_eq!(
        run("\
.width 16
nope.r -> rf1[1], imm0:1 -> alu0.o, imm0:2 -> rf1[0]
"),
        Err(SimError::UnconnectedSocket {
            name: "nope".into()
        })
    );
    // Sources are checked before destinations: a bad destination name
    // in move 0 loses to a read-port overflow in move 2.
    assert_eq!(
        run("\
.width 16
rf1[0] -> nope.o, rf1[1] -> alu0.o, rf1[2] -> rf1[3]
"),
        Err(SimError::PortContention {
            cycle: 0,
            resource: "rf1 read ports".into()
        })
    );
}
