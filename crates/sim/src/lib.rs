//! Cycle-accurate simulation of move programs on a TTA machine.
//!
//! Everything the exploration engine reports rests on the movec
//! scheduler's *analytic* cycle model. This crate makes that model
//! falsifiable: it can actually **execute** a move program on a
//! [`tta_arch::Architecture`] — per-cycle bus transports, FU pipelines
//! with the back-annotated latencies, register-file ports, hard errors
//! on contention — and produce a deterministic trace. The headline
//! property (asserted in this crate's tests and in CI) is that for
//! every registered workload the executed cycle count equals the
//! scheduled one and the executed outputs equal the golden model's.
//!
//! Four layers:
//!
//! * [`program`] — the executable move-program model ([`Program`]):
//!   named units, register-file/memory images, per-cycle move lists;
//! * [`code`] — the same program decoded against one architecture
//!   ([`Code`]): every name resolved to an index, moves kept flat;
//! * [`mod@lower`] — turns a movec [`Schedule`](tta_movec::schedule::Schedule)
//!   into [`Code`] or a [`Program`] (the register allocation the
//!   scheduler leaves symbolic happens here);
//! * [`exec`] — the interpreter ([`Simulator`]) with its legality
//!   rules: [`Simulator::run`] returns a full [`Trace`],
//!   [`Simulator::outcome`] only the cycles and outputs a sweep needs.
//!
//! The textual syntax for these programs lives in the `tta_asm` crate;
//! `docs/SIMULATOR.md` is the guide (every snippet in it runs as a
//! doc-test of this crate).
//!
//! # Quickstart
//!
//! ```
//! use tta_arch::Architecture;
//! use tta_movec::ir::{Dfg, Op};
//! use tta_movec::schedule::Scheduler;
//! use tta_sim::{lower, Simulator};
//!
//! // (a + b) ^ 5 on the paper's Figure 9 machine.
//! let mut dfg = Dfg::new(16);
//! let a = dfg.input();
//! let b = dfg.input();
//! let c5 = dfg.constant(5);
//! let s = dfg.op(Op::Add, &[a, b]);
//! let x = dfg.op(Op::Xor, &[s, c5]);
//! dfg.mark_output(x);
//!
//! let arch = Architecture::figure9();
//! let schedule = Scheduler::new(&arch).run(&dfg).unwrap();
//! let program = lower(&arch, &dfg, &schedule, &[10, 20], &[]).unwrap();
//! let trace = Simulator::new(&arch).run(&program).unwrap();
//!
//! // Executed cycles match the analytic model, outputs match eval.
//! assert_eq!(trace.cycles, u64::from(schedule.cycles));
//! assert_eq!(trace.outputs, dfg.eval(&[10, 20], &mut []));
//! ```

#![warn(missing_docs)]

pub mod code;
pub mod exec;
pub mod lower;
pub mod program;

pub use code::Code;
pub use exec::{Outcome, SimError, SimOptions, Simulator, Trace, TraceCycle, TraceMove};
pub use lower::{lower, lower_code, LowerError};
pub use program::{MoveDst, MoveOp, MoveSrc, OpCode, OutputLoc, Program, RfImage};

// `docs/SIMULATOR.md` snippets compile and run against this crate.
#[cfg(doctest)]
mod simulator_guide {
    #![doc = include_str!("../../../docs/SIMULATOR.md")]
}
