//! Lowering a movec [`Schedule`] into executable [`Code`] (and, named,
//! a [`Program`]).
//!
//! The scheduler works with symbolic value homes ("value 7 lives in
//! rf1 from cycle 9") and never assigns concrete register indices.
//! Lowering replays the schedule in cycle order and performs the
//! missing register allocation: each value gets a register in its
//! scheduled file when written, and the register is recycled after the
//! value's last read (reads observe pre-cycle state, so a same-cycle
//! reuse is safe). Live-outs are never recycled.
//!
//! Two deliberate mirrors of the scheduler's simplifications:
//!
//! * **Spills**: the scheduler charges register-file overflow as a
//!   fixed cycle penalty instead of scheduling spill code. Lowering
//!   mirrors this by letting the allocation overflow past the hardware
//!   register count (the overflow registers stand in for spill slots)
//!   and padding the program with the same number of empty cycles, so
//!   `trace.cycles == schedule.cycles` holds exactly. Run such
//!   programs with [`SimOptions::allow_register_overflow`] set.
//! * **Constants** ride immediate units at read time and never occupy
//!   a register.
//!
//! [`SimOptions::allow_register_overflow`]: crate::exec::SimOptions

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use tta_arch::Architecture;
use tta_movec::ir::{Dfg, Op, ValueId};
use tta_movec::schedule::{Endpoint, Schedule, SPILL_PENALTY_CYCLES};

use crate::code::{Code, Dst, Image, Move, Src};
use crate::program::{OpCode, Program};

/// Lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// `inputs` length does not match the DFG's live-in count.
    InputCount {
        /// Live-ins the DFG declares.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A DFG output is a constant — constants ride immediate units and
    /// never land in a register file, so there is nowhere to read the
    /// output from. Route it through an op (e.g. `Or` with 0) instead.
    ConstOutput {
        /// Node index of the offending output.
        node: usize,
    },
    /// The schedule does not line up with the DFG (missing trigger
    /// record, value without a register-file home, …). Indicates the
    /// schedule was produced from a different DFG.
    Malformed(String),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::InputCount { expected, got } => {
                write!(f, "workload declares {expected} inputs, {got} supplied")
            }
            LowerError::ConstOutput { node } => {
                write!(
                    f,
                    "output node {node} is a constant; constants never reach a register file"
                )
            }
            LowerError::Malformed(msg) => write!(f, "schedule/DFG mismatch: {msg}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Maps an IR operation to the opcode its trigger carries.
fn opcode_of(op: Op) -> Option<OpCode> {
    Some(match op {
        Op::Add => OpCode::Add,
        Op::Sub => OpCode::Sub,
        Op::Shl => OpCode::Shl,
        Op::Shr => OpCode::Shr,
        Op::And => OpCode::And,
        Op::Or => OpCode::Or,
        Op::Xor => OpCode::Xor,
        Op::Not => OpCode::Not,
        Op::Mul => OpCode::Mul,
        Op::Eq => OpCode::Eq,
        Op::Ne => OpCode::Ne,
        Op::Ltu => OpCode::Ltu,
        Op::Geu => OpCode::Geu,
        Op::Load => OpCode::Ld,
        Op::Store => OpCode::St,
        Op::Input | Op::Const(_) => return None,
    })
}

/// Per-register-file allocator: lowest free index first, recycling a
/// register once its value's last read has passed.
struct RfAlloc {
    free: BTreeSet<usize>,
    releases: BinaryHeap<Reverse<(u32, usize)>>,
    next_fresh: usize,
}

impl RfAlloc {
    fn new() -> Self {
        RfAlloc {
            free: BTreeSet::new(),
            releases: BinaryHeap::new(),
            next_fresh: 0,
        }
    }

    fn alloc(&mut self, cycle: u32) -> usize {
        while let Some(&Reverse((at, reg))) = self.releases.peek() {
            if at > cycle {
                break;
            }
            self.releases.pop();
            self.free.insert(reg);
        }
        match self.free.pop_first() {
            Some(reg) => reg,
            None => {
                self.next_fresh += 1;
                self.next_fresh - 1
            }
        }
    }

    fn release(&mut self, cycle: u32, reg: usize) {
        self.releases.push(Reverse((cycle, reg)));
    }
}

/// Lowers `schedule` (produced from `dfg` on `arch`) into an
/// executable [`Program`] with register/memory images built from
/// `inputs` and `mem`.
///
/// The program's word width is the **DFG's** width (workload kernels
/// are 16-bit even when the explored machine template is narrower —
/// the schedule is a transport plan, not a datapath widening).
///
/// This is [`lower_code`] followed by [`Code::to_program`].
///
/// # Errors
///
/// See [`LowerError`]; a schedule produced by
/// [`tta_movec::schedule::Scheduler::run`] on the same `dfg` and
/// `arch` only fails for [`LowerError::InputCount`] or
/// [`LowerError::ConstOutput`].
pub fn lower(
    arch: &Architecture,
    dfg: &Dfg,
    schedule: &Schedule,
    inputs: &[u64],
    mem: &[u64],
) -> Result<Program, LowerError> {
    lower_code(arch, dfg, schedule, inputs, mem).map(|code| code.to_program(arch))
}

/// Lowers `schedule` straight into index-resolved [`Code`] for `arch`,
/// naming nothing: the form [`Simulator::outcome`] runs.
///
/// [`Simulator::outcome`]: crate::Simulator::outcome
///
/// # Errors
///
/// As [`lower`].
pub fn lower_code(
    arch: &Architecture,
    dfg: &Dfg,
    schedule: &Schedule,
    inputs: &[u64],
    mem: &[u64],
) -> Result<Code, LowerError> {
    if inputs.len() != dfg.input_count() {
        return Err(LowerError::InputCount {
            expected: dfg.input_count(),
            got: inputs.len(),
        });
    }
    let mask = dfg.mask();
    let n = dfg.nodes().len();

    // Which RF each materialised value lives in, recovered from the
    // schedule's moves (writes for computed values, reads for live-ins).
    let mut value_rf: Vec<Option<usize>> = vec![None; n];
    let mut write_cycle: Vec<u32> = vec![0; n];
    let mut last_read: Vec<Option<u32>> = vec![None; n];
    for mv in &schedule.moves {
        let v = mv.value.index();
        if let Endpoint::RfWrite(rf) = mv.dst {
            value_rf[v] = Some(rf);
            write_cycle[v] = mv.cycle;
        }
        if let Endpoint::RfRead(rf) = mv.src {
            value_rf[v].get_or_insert(rf);
            let lr = last_read[v].get_or_insert(0);
            *lr = (*lr).max(mv.cycle);
        }
    }

    let mut is_output = vec![false; n];
    for o in dfg.outputs() {
        is_output[o.index()] = true;
    }
    // A live-in that is marked output but never read leaves no trace in
    // the move list; park it in RF 0 so the output stays observable.
    for (i, node) in dfg.nodes().iter().enumerate() {
        if node.op == Op::Input && is_output[i] && value_rf[i].is_none() {
            value_rf[i] = Some(0);
        }
    }

    // Register allocation, replaying writes in cycle order. Live-ins
    // are written "at cycle 0" in declaration order (the scheduler
    // preloads them before the program starts).
    let mut events: Vec<(u32, usize)> = Vec::new();
    let mut input_ordinal: Vec<Option<usize>> = vec![None; n];
    let mut next_input = 0usize;
    for (i, node) in dfg.nodes().iter().enumerate() {
        match node.op {
            Op::Input => {
                input_ordinal[i] = Some(next_input);
                next_input += 1;
                if value_rf[i].is_some() {
                    events.push((0, i));
                }
            }
            _ => {
                if matches!(node.op, Op::Const(_)) {
                    continue;
                }
                if value_rf[i].is_some() {
                    events.push((write_cycle[i], i));
                }
            }
        }
    }
    events.sort_by_key(|&(c, i)| (c, i));

    let mut allocs: Vec<RfAlloc> = (0..arch.rfs().len()).map(|_| RfAlloc::new()).collect();
    let mut reg_of: Vec<Option<usize>> = vec![None; n];
    for (w, i) in events {
        let rf = value_rf[i].expect("only homed values enqueued");
        let reg = allocs[rf].alloc(w);
        reg_of[i] = Some(reg);
        if !is_output[i] {
            // Recycle after the last read; a value never read (and not
            // an output) frees one cycle after its write so two writes
            // never collide on the register in the same cycle.
            allocs[rf].release(last_read[i].unwrap_or(w + 1), reg);
        }
    }

    // Trigger cycle → DFG node, to put opcodes on trigger moves.
    let trigger_node: HashMap<(usize, u32), usize> = schedule
        .ops
        .iter()
        .map(|op| ((op.fu, op.trigger), op.node))
        .collect();

    let reg_for = |v: ValueId| -> Result<usize, LowerError> {
        reg_of[v.index()]
            .ok_or_else(|| LowerError::Malformed(format!("value {} has no register", v.index())))
    };

    // Each move in schedule order, then bucketed by cycle (an
    // instruction keeps the schedule's move order).
    let makespan = schedule.makespan as usize;
    let mut placed: Vec<(usize, Move)> = Vec::with_capacity(schedule.moves.len());
    let mut per_cycle = vec![0usize; makespan];
    for mv in &schedule.moves {
        let src = match mv.src {
            Endpoint::FuResult(fu) => Src::Result(fu),
            Endpoint::RfRead(rf) => Src::Reg {
                rf,
                reg: reg_for(mv.value)?,
            },
            Endpoint::Imm(unit) => {
                let node = &dfg.nodes()[mv.value.index()];
                let Op::Const(c) = node.op else {
                    return Err(LowerError::Malformed(format!(
                        "imm move of non-constant value {}",
                        mv.value.index()
                    )));
                };
                Src::Imm {
                    unit,
                    value: c & mask,
                }
            }
            Endpoint::FuOperand(_) | Endpoint::FuTrigger(_) | Endpoint::RfWrite(_) => {
                return Err(LowerError::Malformed(
                    "write endpoint used as source".into(),
                ));
            }
        };
        let dst = match mv.dst {
            Endpoint::FuOperand(fu) => Dst::Operand(fu),
            Endpoint::FuTrigger(fu) => {
                let &node = trigger_node.get(&(fu, mv.cycle)).ok_or_else(|| {
                    LowerError::Malformed(format!(
                        "no scheduled op for trigger of fu {fu} at cycle {}",
                        mv.cycle
                    ))
                })?;
                let op = opcode_of(dfg.nodes()[node].op).ok_or_else(|| {
                    LowerError::Malformed(format!("node {node} is not an operation"))
                })?;
                Dst::Trigger { fu, op }
            }
            Endpoint::RfWrite(rf) => Dst::Reg {
                rf,
                reg: reg_for(mv.value)?,
            },
            Endpoint::FuResult(_) | Endpoint::RfRead(_) | Endpoint::Imm(_) => {
                return Err(LowerError::Malformed(
                    "read endpoint used as destination".into(),
                ));
            }
        };
        let cycle = mv.cycle as usize;
        let count = per_cycle.get_mut(cycle).ok_or_else(|| {
            LowerError::Malformed(format!("move beyond makespan at {}", mv.cycle))
        })?;
        *count += 1;
        placed.push((cycle, Move { src, dst }));
    }
    // Spill penalty: the same fixed per-event cost the analytic model
    // charges, as empty (stall) instructions.
    let stalls = (schedule.spills * SPILL_PENALTY_CYCLES) as usize;
    let mut starts = Vec::with_capacity(makespan + stalls + 1);
    starts.push(0);
    for count in per_cycle {
        starts.push(starts[starts.len() - 1] + count);
    }
    starts.resize(makespan + stalls + 1, placed.len());
    // Counting placement; every slot is overwritten, the filler never
    // survives.
    let filler = Move {
        src: Src::Result(0),
        dst: Dst::Operand(0),
    };
    let mut moves = vec![filler; placed.len()];
    let mut next = starts.clone();
    for (cycle, mv) in placed {
        moves[next[cycle]] = mv;
        next[cycle] += 1;
    }

    // Register-file images: hardware capacity or the allocation's
    // overflow, live-ins preloaded.
    let mut images = Vec::with_capacity(arch.rfs().len());
    for (ri, rf) in arch.rfs().iter().enumerate() {
        let used = reg_of
            .iter()
            .zip(&value_rf)
            .filter(|&(_, &home)| home == Some(ri))
            .filter_map(|(&reg, _)| reg)
            .max()
            .map_or(0, |m| m + 1);
        let regs = rf.regs.max(used);
        let mut init = vec![0u64; regs];
        for (i, node) in dfg.nodes().iter().enumerate() {
            if node.op == Op::Input && value_rf[i] == Some(ri) {
                if let Some(reg) = reg_of[i] {
                    init[reg] = inputs[input_ordinal[i].expect("inputs numbered")] & mask;
                }
            }
        }
        images.push(Image {
            rf: Ok(ri),
            regs,
            init,
        });
    }

    let mut outputs = Vec::with_capacity(dfg.outputs().len());
    for &v in dfg.outputs() {
        let i = v.index();
        if matches!(dfg.nodes()[i].op, Op::Const(_)) {
            return Err(LowerError::ConstOutput { node: i });
        }
        let rf = value_rf[i]
            .ok_or_else(|| LowerError::Malformed(format!("output {i} has no register file")))?;
        outputs.push((Ok(rf), reg_for(v)?));
    }

    Ok(Code {
        width: dfg.width(),
        images,
        mem: mem.to_vec(),
        outputs,
        moves,
        starts,
        bad_srcs: Vec::new(),
        bad_dsts: Vec::new(),
    })
}
