//! The cycle-accurate interpreter.
//!
//! One instruction is one cycle. Within a cycle the machine behaves
//! like the scheduler's timing model:
//!
//! 1. results whose latency expired land in their FU result registers;
//! 2. every move's source is read against *pre-cycle* state (an RF
//!    write at cycle `w` is readable from `w + 1`);
//! 3. resource legality is checked — moves ≤ buses, RF reads ≤ read
//!    ports, RF writes ≤ write ports, one constant per immediate unit,
//!    no two writes to the same register — and any violation is a hard
//!    [`SimError`], never a silent stall or drop;
//! 4. operand registers latch, then triggers fire (so an operand and
//!    trigger move in the same cycle cooperate), then RF writes land.
//!
//! The simulator never inserts wait states: a program that reads a
//! result before its latency expired gets [`SimError::ResultNotReady`].
//! That is what makes "executed cycles == scheduled cycles" a real
//! validation of the analytic model rather than a tautology.
//!
//! One routine executes every run, over decoded [`Code`].
//! [`Simulator::run`] decodes a [`Program`] and keeps every step as a
//! [`Trace`]; [`Simulator::outcome`] keeps nothing but the cycles and
//! outputs, which is all a sweep reads.

use std::collections::VecDeque;

use tta_arch::{Architecture, FuKind};

use crate::code::{Code, Dst, Move, Src};
use crate::program::{MoveDst, MoveSrc, OpCode, Program};

/// Knobs for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Abort with [`SimError::CycleLimit`] after this many cycles
    /// (guards against jump loops in hand-written programs).
    pub max_cycles: u64,
    /// Accept programs whose RF images declare more registers than the
    /// architecture provides. Lowered programs use this to mirror the
    /// scheduler's fixed-penalty spill model (overflow registers stand
    /// in for spill slots); hand-written programs should leave it off.
    pub allow_register_overflow: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_cycles: 1 << 22,
            allow_register_overflow: false,
        }
    }
}

/// A simulation failure: the program is illegal on this architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A move names a unit or register file the architecture does not
    /// have (or uses it in a role it cannot play).
    UnconnectedSocket {
        /// The offending unit/RF name as written in the program.
        name: String,
    },
    /// A register index beyond the register file.
    RegisterOutOfRange {
        /// Register-file name.
        rf: String,
        /// Offending register index.
        reg: usize,
        /// Registers actually available.
        regs: usize,
    },
    /// More parallel moves than buses.
    BusContention {
        /// Cycle of the violation.
        cycle: u64,
        /// Moves issued.
        moves: usize,
        /// Buses available.
        buses: usize,
    },
    /// A per-cycle port limit exceeded (RF read/write ports, immediate
    /// unit output).
    PortContention {
        /// Cycle of the violation.
        cycle: u64,
        /// Human-readable description of the oversubscribed resource.
        resource: String,
    },
    /// Two moves target the same register in one cycle.
    DoubleWrite {
        /// Cycle of the violation.
        cycle: u64,
        /// The doubly-written destination.
        dst: String,
    },
    /// A result register was read before any result landed in it.
    ResultNotReady {
        /// Cycle of the read.
        cycle: u64,
        /// FU whose result register was read.
        fu: String,
    },
    /// A two-input operation triggered before its operand register was
    /// ever written.
    OperandUnset {
        /// Cycle of the trigger.
        cycle: u64,
        /// FU that was triggered.
        fu: String,
    },
    /// The opcode does not belong to the triggered unit's kind.
    WrongUnitClass {
        /// FU that was triggered.
        fu: String,
        /// Opcode that rode the trigger.
        op: OpCode,
    },
    /// A load or store with an empty memory image.
    EmptyMemory {
        /// Cycle of the access.
        cycle: u64,
    },
    /// A jump beyond one-past-the-end of the program.
    InvalidJumpTarget {
        /// Cycle of the jump.
        cycle: u64,
        /// Requested instruction index.
        target: u64,
        /// Program length.
        len: usize,
    },
    /// `SimOptions::max_cycles` exceeded.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnconnectedSocket { name } => {
                write!(f, "unconnected socket: no unit `{name}` in this role")
            }
            SimError::RegisterOutOfRange { rf, reg, regs } => {
                write!(f, "register {rf}[{reg}] out of range ({regs} registers)")
            }
            SimError::BusContention {
                cycle,
                moves,
                buses,
            } => write!(f, "cycle {cycle}: {moves} moves on {buses} buses"),
            SimError::PortContention { cycle, resource } => {
                write!(f, "cycle {cycle}: port contention on {resource}")
            }
            SimError::DoubleWrite { cycle, dst } => {
                write!(f, "cycle {cycle}: double write to {dst}")
            }
            SimError::ResultNotReady { cycle, fu } => {
                write!(
                    f,
                    "cycle {cycle}: result of {fu} read before it was produced"
                )
            }
            SimError::OperandUnset { cycle, fu } => {
                write!(
                    f,
                    "cycle {cycle}: {fu} triggered with operand never written"
                )
            }
            SimError::WrongUnitClass { fu, op } => {
                write!(f, "opcode `{}` cannot execute on {fu}", op.mnemonic())
            }
            SimError::EmptyMemory { cycle } => {
                write!(f, "cycle {cycle}: memory access with empty memory image")
            }
            SimError::InvalidJumpTarget { cycle, target, len } => {
                write!(
                    f,
                    "cycle {cycle}: jump to {target} beyond program end {len}"
                )
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// One executed move, with the value that travelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMove {
    /// Source as written in the program.
    pub src: MoveSrc,
    /// Destination as written in the program.
    pub dst: MoveDst,
    /// The transported (masked) value.
    pub value: u64,
}

/// Everything that happened in one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCycle {
    /// Cycle number (0-based, counts executed instructions).
    pub cycle: u64,
    /// Instruction index executed this cycle.
    pub instr: usize,
    /// The moves, in program order.
    pub moves: Vec<TraceMove>,
}

/// The deterministic record of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Total executed cycles (one per instruction issued).
    pub cycles: u64,
    /// Per-cycle move log.
    pub steps: Vec<TraceCycle>,
    /// Final register-file state, `(name, registers)` per bound RF.
    pub rfs: Vec<(String, Vec<u64>)>,
    /// Final data-memory state.
    pub mem: Vec<u64>,
    /// The program's declared outputs, read from the final RF state.
    pub outputs: Vec<u64>,
}

/// What a sweep needs from one run: its length and its outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Total executed cycles (one per instruction issued).
    pub cycles: u64,
    /// The program's declared outputs, read from the final RF state.
    pub outputs: Vec<u64>,
}

/// What [`Simulator::execute`] keeps of each executed cycle.
trait Recorder {
    /// Instruction `instr` ran in `cycle`, its moves carrying `values`.
    fn step(&mut self, cycle: u64, instr: usize, values: &[u64]);
}

/// Keeps nothing: the sweep path.
impl Recorder for () {
    fn step(&mut self, _: u64, _: usize, _: &[u64]) {}
}

/// Keeps every move of every cycle as the program wrote it.
struct Steps<'p> {
    program: &'p Program,
    steps: Vec<TraceCycle>,
}

impl Recorder for Steps<'_> {
    fn step(&mut self, cycle: u64, instr: usize, values: &[u64]) {
        let moves = self.program.instructions[instr]
            .iter()
            .zip(values)
            .map(|(mv, &value)| TraceMove {
                src: mv.src.clone(),
                dst: mv.dst.clone(),
                value,
            })
            .collect();
        self.steps.push(TraceCycle {
            cycle,
            instr,
            moves,
        });
    }
}

/// The cycle-accurate simulator: binds a [`Program`] to an
/// [`Architecture`] and executes it.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    arch: &'a Architecture,
    options: SimOptions,
}

impl<'a> Simulator<'a> {
    /// A simulator for `arch` with default options.
    pub fn new(arch: &'a Architecture) -> Self {
        Simulator {
            arch,
            options: SimOptions::default(),
        }
    }

    /// Replaces the run options.
    pub fn options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs `program` to completion and returns its trace.
    ///
    /// # Errors
    ///
    /// Any structural or resource violation aborts with the matching
    /// [`SimError`]; see the module docs for the legality rules.
    pub fn run(&self, program: &Program) -> Result<Trace, SimError> {
        let code = Code::decode(program, self.arch);
        let mut steps = Steps {
            program,
            steps: Vec::new(),
        };
        let halted = self.execute(&code, &mut steps)?;
        Ok(Trace {
            cycles: halted.cycles,
            steps: steps.steps,
            rfs: self
                .arch
                .rfs()
                .iter()
                .zip(halted.rfs)
                .map(|(r, s)| (r.name.clone(), s))
                .collect(),
            mem: halted.mem,
            outputs: halted.outputs,
        })
    }

    /// Runs `code` to completion and returns its cycles and outputs,
    /// keeping no trace. `code` must be decoded or lowered for this
    /// simulator's architecture.
    ///
    /// Agrees with [`Simulator::run`] on the decoded program: the same
    /// cycles and outputs, or the same [`SimError`].
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn outcome(&self, code: &Code) -> Result<Outcome, SimError> {
        let halted = self.execute(code, &mut ())?;
        Ok(Outcome {
            cycles: halted.cycles,
            outputs: halted.outputs,
        })
    }

    /// The one execution routine: binds the images, executes `code`
    /// cycle by cycle under every legality rule, reports each executed
    /// cycle to `recorder` and reads the outputs.
    fn execute<R: Recorder>(&self, code: &Code, recorder: &mut R) -> Result<Halted, SimError> {
        let mut machine = Machine::bind(self.arch, code, self.options)?;
        let len = code.len();
        let buses = self.arch.bus_count();
        let mut cycle: u64 = 0;
        let mut pc: usize = 0;
        while pc < len {
            if cycle >= self.options.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.options.max_cycles,
                });
            }
            machine.land(cycle);
            let instr = code.instruction(pc);
            if instr.len() > buses {
                return Err(SimError::BusContention {
                    cycle,
                    moves: instr.len(),
                    buses,
                });
            }
            machine.read_sources(code, instr, cycle)?;
            machine.check_destinations(code, instr, cycle)?;
            let next_pc = machine.commit(instr, cycle, len)?;
            recorder.step(cycle, pc, &machine.values);
            cycle += 1;
            pc = next_pc.unwrap_or(pc + 1);
        }
        let outputs = machine.outputs(code)?;
        Ok(Halted {
            cycles: cycle,
            rfs: machine.rfs,
            mem: machine.mem,
            outputs,
        })
    }
}

/// Machine state when a run halts.
struct Halted {
    cycles: u64,
    rfs: Vec<Vec<u64>>,
    mem: Vec<u64>,
    outputs: Vec<u64>,
}

/// Per-FU datapath state.
struct FuSim {
    kind: FuKind,
    operand: u64,
    operand_set: bool,
    result: Option<u64>,
    /// Results in flight: `(ready_cycle, value)`, in trigger order.
    pending: VecDeque<(u64, u64)>,
}

/// The state of one run, plus per-cycle scratch that is allocated once
/// and cleared at the start of each cycle.
struct Machine<'a> {
    arch: &'a Architecture,
    mask: u64,
    width: u64,
    rfs: Vec<Vec<u64>>,
    fus: Vec<FuSim>,
    mem: Vec<u64>,
    /// The value each move of the current cycle transports.
    values: Vec<u64>,
    rf_reads: Vec<usize>,
    imm_out: Vec<usize>,
    operand_hit: Vec<bool>,
    trigger_hit: Vec<bool>,
    rf_writes: Vec<usize>,
    written: Vec<(usize, usize)>,
}

impl<'a> Machine<'a> {
    /// Binds register files: architecture capacity, overridden by the
    /// program's (possibly larger, if allowed) image.
    fn bind(arch: &'a Architecture, code: &Code, options: SimOptions) -> Result<Self, SimError> {
        let mask = code.mask();
        let mut rfs: Vec<Vec<u64>> = arch.rfs().iter().map(|r| vec![0u64; r.regs]).collect();
        for image in &code.images {
            let ri = match &image.rf {
                Ok(ri) => *ri,
                Err(name) => return Err(SimError::UnconnectedSocket { name: name.clone() }),
            };
            let hw_regs = arch.rfs()[ri].regs;
            if image.regs > hw_regs && !options.allow_register_overflow {
                return Err(SimError::RegisterOutOfRange {
                    rf: arch.rfs()[ri].name.clone(),
                    reg: image.regs - 1,
                    regs: hw_regs,
                });
            }
            let mut state = vec![0u64; image.regs.max(hw_regs)];
            for (reg, &v) in image.init.iter().enumerate() {
                if reg < state.len() {
                    state[reg] = v & mask;
                }
            }
            rfs[ri] = state;
        }
        let (nfu, nrf) = (arch.fus().len(), arch.rfs().len());
        Ok(Machine {
            arch,
            mask,
            width: u64::from(code.width),
            rfs,
            fus: arch
                .fus()
                .iter()
                .map(|f| FuSim {
                    kind: f.kind,
                    operand: 0,
                    operand_set: false,
                    result: None,
                    pending: VecDeque::new(),
                })
                .collect(),
            mem: code.mem.clone(),
            values: Vec::new(),
            rf_reads: vec![0; nrf],
            imm_out: vec![0; nfu],
            operand_hit: vec![false; nfu],
            trigger_hit: vec![false; nfu],
            rf_writes: vec![0; nrf],
            written: Vec::new(),
        })
    }

    /// Step 1: results whose latency expired land.
    fn land(&mut self, cycle: u64) {
        for fu in &mut self.fus {
            while fu.pending.front().is_some_and(|&(ready, _)| ready <= cycle) {
                let (_, v) = fu.pending.pop_front().expect("front checked");
                fu.result = Some(v);
            }
        }
    }

    /// Step 2: reads every source against pre-cycle state into
    /// `values`, counting port usage as it goes.
    fn read_sources(&mut self, code: &Code, instr: &[Move], cycle: u64) -> Result<(), SimError> {
        let (fus, rfs) = (self.arch.fus(), self.arch.rfs());
        self.values.clear();
        self.rf_reads.fill(0);
        self.imm_out.fill(0);
        for mv in instr {
            let v = match mv.src {
                Src::Result(fi) => {
                    let name = &fus[fi].name;
                    if fus[fi].kind == FuKind::Immediate {
                        return Err(SimError::UnconnectedSocket { name: name.clone() });
                    }
                    self.fus[fi]
                        .result
                        .ok_or_else(|| SimError::ResultNotReady {
                            cycle,
                            fu: name.clone(),
                        })?
                }
                Src::Reg { rf: ri, reg } => {
                    let state = &self.rfs[ri];
                    if reg >= state.len() {
                        return Err(SimError::RegisterOutOfRange {
                            rf: rfs[ri].name.clone(),
                            reg,
                            regs: state.len(),
                        });
                    }
                    self.rf_reads[ri] += 1;
                    if self.rf_reads[ri] > rfs[ri].nout() {
                        return Err(SimError::PortContention {
                            cycle,
                            resource: format!("{} read ports", rfs[ri].name),
                        });
                    }
                    state[reg]
                }
                Src::Imm { unit: fi, value } => {
                    let name = &fus[fi].name;
                    if fus[fi].kind != FuKind::Immediate {
                        return Err(SimError::UnconnectedSocket { name: name.clone() });
                    }
                    self.imm_out[fi] += 1;
                    if self.imm_out[fi] > 1 {
                        return Err(SimError::PortContention {
                            cycle,
                            resource: format!("{name} output"),
                        });
                    }
                    value & self.mask
                }
                Src::Unresolved(i) => return Err(code.src_error(i)),
            };
            self.values.push(v & self.mask);
        }
        Ok(())
    }

    /// Step 3: checks destinations: no double writes, ports respected.
    fn check_destinations(
        &mut self,
        code: &Code,
        instr: &[Move],
        cycle: u64,
    ) -> Result<(), SimError> {
        let (fus, rfs) = (self.arch.fus(), self.arch.rfs());
        self.operand_hit.fill(false);
        self.trigger_hit.fill(false);
        self.rf_writes.fill(0);
        self.written.clear();
        for mv in instr {
            match mv.dst {
                Dst::Operand(fi) => {
                    let name = &fus[fi].name;
                    if fus[fi].kind == FuKind::Immediate {
                        return Err(SimError::UnconnectedSocket { name: name.clone() });
                    }
                    if self.operand_hit[fi] {
                        return Err(SimError::DoubleWrite {
                            cycle,
                            dst: format!("{name}.o"),
                        });
                    }
                    self.operand_hit[fi] = true;
                }
                Dst::Trigger { fu: fi, op } => {
                    let name = &fus[fi].name;
                    if fus[fi].kind != op.fu_kind() {
                        return Err(SimError::WrongUnitClass {
                            fu: name.clone(),
                            op,
                        });
                    }
                    if self.trigger_hit[fi] {
                        return Err(SimError::DoubleWrite {
                            cycle,
                            dst: format!("{name}.t"),
                        });
                    }
                    self.trigger_hit[fi] = true;
                }
                Dst::Reg { rf: ri, reg } => {
                    let name = &rfs[ri].name;
                    if reg >= self.rfs[ri].len() {
                        return Err(SimError::RegisterOutOfRange {
                            rf: name.clone(),
                            reg,
                            regs: self.rfs[ri].len(),
                        });
                    }
                    self.rf_writes[ri] += 1;
                    if self.rf_writes[ri] > rfs[ri].nin() {
                        return Err(SimError::PortContention {
                            cycle,
                            resource: format!("{name} write ports"),
                        });
                    }
                    if self.written.contains(&(ri, reg)) {
                        return Err(SimError::DoubleWrite {
                            cycle,
                            dst: format!("{name}[{reg}]"),
                        });
                    }
                    self.written.push((ri, reg));
                }
                Dst::Unresolved(i) => return Err(code.dst_error(i)),
            }
        }
        Ok(())
    }

    /// Step 4: operand registers latch, then triggers fire, then RF
    /// writes land. Returns the jump target, if a jump was taken, in a
    /// program of `len` instructions.
    fn commit(
        &mut self,
        instr: &[Move],
        cycle: u64,
        len: usize,
    ) -> Result<Option<usize>, SimError> {
        let mask = self.mask;
        // 4a. Operand registers latch first …
        for (mv, &v) in instr.iter().zip(&self.values) {
            if let Dst::Operand(fi) = mv.dst {
                self.fus[fi].operand = v;
                self.fus[fi].operand_set = true;
            }
        }
        // 4b. … then triggers fire …
        let mut next_pc: Option<usize> = None;
        for (mv, &t) in instr.iter().zip(&self.values) {
            let Dst::Trigger { fu: fi, op } = mv.dst else {
                continue;
            };
            let o = self.fus[fi].operand;
            if op.arity() == 2 && !self.fus[fi].operand_set {
                return Err(SimError::OperandUnset {
                    cycle,
                    fu: self.arch.fus()[fi].name.clone(),
                });
            }
            match op {
                OpCode::Jmp | OpCode::Cjmp => {
                    let taken = op == OpCode::Jmp || o != 0;
                    if taken {
                        if t > len as u64 {
                            return Err(SimError::InvalidJumpTarget {
                                cycle,
                                target: t,
                                len,
                            });
                        }
                        next_pc = Some(t as usize);
                    }
                }
                OpCode::St => {
                    if self.mem.is_empty() {
                        return Err(SimError::EmptyMemory { cycle });
                    }
                    let idx = (o as usize) % self.mem.len();
                    self.mem[idx] = t & mask;
                }
                _ => {
                    let width = self.width;
                    let raw = match op {
                        OpCode::Add => o.wrapping_add(t),
                        OpCode::Sub => o.wrapping_sub(t),
                        OpCode::Shl => o << (t % width),
                        OpCode::Shr => (o & mask) >> (t % width),
                        OpCode::And => o & t,
                        OpCode::Or => o | t,
                        OpCode::Xor => o ^ t,
                        OpCode::Not => !t,
                        OpCode::Mul => o.wrapping_mul(t),
                        OpCode::Eq => u64::from(o == t),
                        OpCode::Ne => u64::from(o != t),
                        OpCode::Ltu => u64::from(o < t),
                        OpCode::Geu => u64::from(o >= t),
                        OpCode::Ld => {
                            if self.mem.is_empty() {
                                return Err(SimError::EmptyMemory { cycle });
                            }
                            self.mem[(t as usize) % self.mem.len()]
                        }
                        OpCode::St | OpCode::Jmp | OpCode::Cjmp => unreachable!(),
                    };
                    let fu = &mut self.fus[fi];
                    let ready = cycle + u64::from(fu.kind.latency());
                    fu.pending.push_back((ready, raw & mask));
                }
            }
        }
        // 4c. … and RF writes land last.
        for (mv, &v) in instr.iter().zip(&self.values) {
            if let Dst::Reg { rf: ri, reg } = mv.dst {
                self.rfs[ri][reg] = v;
            }
        }
        Ok(next_pc)
    }

    /// Reads the declared outputs from final state.
    fn outputs(&self, code: &Code) -> Result<Vec<u64>, SimError> {
        code.outputs
            .iter()
            .map(|(rf, reg)| {
                let ri = match rf {
                    Ok(ri) => *ri,
                    Err(name) => return Err(SimError::UnconnectedSocket { name: name.clone() }),
                };
                let state = &self.rfs[ri];
                if *reg >= state.len() {
                    return Err(SimError::RegisterOutOfRange {
                        rf: self.arch.rfs()[ri].name.clone(),
                        reg: *reg,
                        regs: state.len(),
                    });
                }
                Ok(state[*reg])
            })
            .collect()
    }
}
