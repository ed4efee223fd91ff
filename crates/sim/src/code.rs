//! The decoded form of a move program: every name resolved to an index.
//!
//! A [`Program`] names its units, so running it means turning each name
//! back into an architecture index. [`Code`] is that work done once: the
//! moves of all instructions sit in one flat vector with per-instruction
//! offsets, and register-file images and outputs refer to register files
//! by index. [`lower_code`](crate::lower::lower_code) emits it straight
//! from a schedule, [`Code::decode`] builds it from a program, and
//! [`Code::to_program`] turns it back into the named form.
//!
//! Decoding never fails. A name the architecture does not have stays in
//! the code as written, and executing the move (or binding the image or
//! reading the output) that uses it raises
//! [`SimError::UnconnectedSocket`] at the same cycle, and in the same
//! order among the other checks, as it would in the named program. A
//! jump over such an instruction therefore still runs to completion.

use tta_arch::Architecture;

use crate::exec::SimError;
use crate::program::{word_mask, MoveDst, MoveOp, MoveSrc, OpCode, OutputLoc, Program, RfImage};

/// A move source with its unit resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// The result register of FU `fu`.
    Result(usize),
    /// Register `reg` of register file `rf`.
    Reg { rf: usize, reg: usize },
    /// Constant `value`, as written, from the FU `unit`.
    Imm { unit: usize, value: u64 },
    /// A source whose name resolves nowhere: `Code::bad_srcs[i]`.
    Unresolved(usize),
}

/// A move destination with its unit resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dst {
    /// The operand register of FU `fu`.
    Operand(usize),
    /// The trigger register of FU `fu`; starts `op`.
    Trigger { fu: usize, op: OpCode },
    /// Register `reg` of register file `rf`.
    Reg { rf: usize, reg: usize },
    /// A destination whose name resolves nowhere: `Code::bad_dsts[i]`.
    Unresolved(usize),
}

/// One index-resolved transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Move {
    pub(crate) src: Src,
    pub(crate) dst: Dst,
}

/// A register file named by an image or an output: its index, or the
/// name as written when the architecture has no such file.
pub(crate) type RfRef = Result<usize, String>;

/// A register-file image bound by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Image {
    pub(crate) rf: RfRef,
    pub(crate) regs: usize,
    pub(crate) init: Vec<u64>,
}

/// A program with every unit and register file resolved against one
/// [`Architecture`].
///
/// Run it with [`Simulator::outcome`](crate::Simulator::outcome) on a
/// simulator for the same architecture it was decoded or lowered for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Code {
    pub(crate) width: u32,
    pub(crate) images: Vec<Image>,
    pub(crate) mem: Vec<u64>,
    pub(crate) outputs: Vec<(RfRef, usize)>,
    pub(crate) moves: Vec<Move>,
    /// Instruction `i` is `moves[starts[i]..starts[i + 1]]`.
    pub(crate) starts: Vec<usize>,
    pub(crate) bad_srcs: Vec<MoveSrc>,
    pub(crate) bad_dsts: Vec<MoveDst>,
}

impl Code {
    /// Resolves every name in `program` against `arch`.
    pub fn decode(program: &Program, arch: &Architecture) -> Code {
        let fu = |name: &str| arch.fus().iter().position(|f| f.name == name);
        let rf = |name: &str| arch.rfs().iter().position(|r| r.name == name);
        let rf_ref = |name: &str| rf(name).ok_or_else(|| name.to_string());
        let mut code = Code {
            width: program.width,
            images: program
                .rfs
                .iter()
                .map(|image| Image {
                    rf: rf_ref(&image.name),
                    regs: image.regs,
                    init: image.init.clone(),
                })
                .collect(),
            mem: program.mem.clone(),
            outputs: program
                .outputs
                .iter()
                .map(|out| (rf_ref(&out.rf), out.reg))
                .collect(),
            moves: Vec::with_capacity(program.move_count()),
            starts: Vec::with_capacity(program.instructions.len() + 1),
            bad_srcs: Vec::new(),
            bad_dsts: Vec::new(),
        };
        code.starts.push(0);
        for instr in &program.instructions {
            for mv in instr {
                let src = match &mv.src {
                    MoveSrc::FuResult(name) => fu(name).map(Src::Result),
                    MoveSrc::RfRead { rf: name, reg } => {
                        rf(name).map(|rf| Src::Reg { rf, reg: *reg })
                    }
                    MoveSrc::Imm { unit, value } => fu(unit).map(|unit| Src::Imm {
                        unit,
                        value: *value,
                    }),
                }
                .unwrap_or_else(|| {
                    code.bad_srcs.push(mv.src.clone());
                    Src::Unresolved(code.bad_srcs.len() - 1)
                });
                let dst = match &mv.dst {
                    MoveDst::FuOperand(name) => fu(name).map(Dst::Operand),
                    MoveDst::FuTrigger { fu: name, op } => {
                        fu(name).map(|fu| Dst::Trigger { fu, op: *op })
                    }
                    MoveDst::RfWrite { rf: name, reg } => {
                        rf(name).map(|rf| Dst::Reg { rf, reg: *reg })
                    }
                }
                .unwrap_or_else(|| {
                    code.bad_dsts.push(mv.dst.clone());
                    Dst::Unresolved(code.bad_dsts.len() - 1)
                });
                code.moves.push(Move { src, dst });
            }
            code.starts.push(code.moves.len());
        }
        code
    }

    /// The named form: the program [`Code::decode`] would turn back into
    /// this code on `arch`.
    pub fn to_program(&self, arch: &Architecture) -> Program {
        let fu = |i: usize| arch.fus()[i].name.clone();
        let rf = |i: usize| arch.rfs()[i].name.clone();
        let rf_ref = |r: &RfRef| r.as_ref().map_or_else(Clone::clone, |&i| rf(i));
        let named = |mv: &Move| MoveOp {
            src: match mv.src {
                Src::Result(i) => MoveSrc::FuResult(fu(i)),
                Src::Reg { rf: i, reg } => MoveSrc::RfRead { rf: rf(i), reg },
                Src::Imm { unit, value } => MoveSrc::Imm {
                    unit: fu(unit),
                    value,
                },
                Src::Unresolved(i) => self.bad_srcs[i].clone(),
            },
            dst: match mv.dst {
                Dst::Operand(i) => MoveDst::FuOperand(fu(i)),
                Dst::Trigger { fu: i, op } => MoveDst::FuTrigger { fu: fu(i), op },
                Dst::Reg { rf: i, reg } => MoveDst::RfWrite { rf: rf(i), reg },
                Dst::Unresolved(i) => self.bad_dsts[i].clone(),
            },
        };
        Program {
            width: self.width,
            rfs: self
                .images
                .iter()
                .map(|image| RfImage {
                    name: rf_ref(&image.rf),
                    regs: image.regs,
                    init: image.init.clone(),
                })
                .collect(),
            mem: self.mem.clone(),
            outputs: self
                .outputs
                .iter()
                .map(|(r, reg)| OutputLoc {
                    rf: rf_ref(r),
                    reg: *reg,
                })
                .collect(),
            instructions: (0..self.len())
                .map(|i| self.instruction(i).iter().map(named).collect())
                .collect(),
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether the code has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The word mask for the code's width.
    pub(crate) fn mask(&self) -> u64 {
        word_mask(self.width)
    }

    /// The moves of instruction `i`.
    pub(crate) fn instruction(&self, i: usize) -> &[Move] {
        &self.moves[self.starts[i]..self.starts[i + 1]]
    }

    /// The error a move raises where it uses an unresolved source.
    pub(crate) fn src_error(&self, i: usize) -> SimError {
        let name = match &self.bad_srcs[i] {
            MoveSrc::FuResult(name) => name,
            MoveSrc::RfRead { rf, .. } => rf,
            MoveSrc::Imm { unit, .. } => unit,
        };
        SimError::UnconnectedSocket { name: name.clone() }
    }

    /// The error a move raises where it uses an unresolved destination.
    pub(crate) fn dst_error(&self, i: usize) -> SimError {
        let name = match &self.bad_dsts[i] {
            MoveDst::FuOperand(name) => name,
            MoveDst::FuTrigger { fu, .. } => fu,
            MoveDst::RfWrite { rf, .. } => rf,
        };
        SimError::UnconnectedSocket { name: name.clone() }
    }
}
