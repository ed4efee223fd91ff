//! The executable move-program model.
//!
//! A [`Program`] is self-contained: it names the units and register
//! files it transports between, carries its own register-file and
//! memory images, and lists where its live-out values end up. Binding
//! to a concrete [`tta_arch::Architecture`] happens at simulation time
//! (`Simulator::run`), so the same program text can be tried against
//! several machines and a mismatch (a unit the machine does not have,
//! a register beyond the file) is a hard error, not a silent wrap.

use tta_arch::FuKind;

/// The operation a trigger move starts. In a transport-triggered
/// architecture the opcode rides the trigger destination: `alu0.add`
/// means "move into alu0's trigger register *and* start an add".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Wrapping addition `O + T`.
    Add,
    /// Wrapping subtraction `O - T`.
    Sub,
    /// Logical shift left `O << (T mod width)`.
    Shl,
    /// Logical shift right `O >> (T mod width)`.
    Shr,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT of the trigger operand (1-input).
    Not,
    /// Wrapping multiplication `O * T`.
    Mul,
    /// `O == T` → 1/0.
    Eq,
    /// `O != T` → 1/0.
    Ne,
    /// Unsigned `O < T` → 1/0.
    Ltu,
    /// Unsigned `O >= T` → 1/0.
    Geu,
    /// Load from data memory at address `T` (1-input).
    Ld,
    /// Store value `T` to data memory at address `O`.
    St,
    /// Unconditional jump to instruction index `T` (1-input).
    Jmp,
    /// Conditional jump: to instruction index `T` when `O != 0`.
    Cjmp,
}

/// Every opcode, in mnemonic order (the order the assembler documents).
pub const OPCODES: [OpCode; 17] = [
    OpCode::Add,
    OpCode::Sub,
    OpCode::Shl,
    OpCode::Shr,
    OpCode::And,
    OpCode::Or,
    OpCode::Xor,
    OpCode::Not,
    OpCode::Mul,
    OpCode::Eq,
    OpCode::Ne,
    OpCode::Ltu,
    OpCode::Geu,
    OpCode::Ld,
    OpCode::St,
    OpCode::Jmp,
    OpCode::Cjmp,
];

impl OpCode {
    /// The assembler mnemonic (lower-case, stable).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpCode::Add => "add",
            OpCode::Sub => "sub",
            OpCode::Shl => "shl",
            OpCode::Shr => "shr",
            OpCode::And => "and",
            OpCode::Or => "or",
            OpCode::Xor => "xor",
            OpCode::Not => "not",
            OpCode::Mul => "mul",
            OpCode::Eq => "eq",
            OpCode::Ne => "ne",
            OpCode::Ltu => "ltu",
            OpCode::Geu => "geu",
            OpCode::Ld => "ld",
            OpCode::St => "st",
            OpCode::Jmp => "jmp",
            OpCode::Cjmp => "cjmp",
        }
    }

    /// Parses a mnemonic back into an opcode.
    pub fn parse(s: &str) -> Option<OpCode> {
        OPCODES.iter().copied().find(|o| o.mnemonic() == s)
    }

    /// The functional-unit kind that executes this opcode.
    pub fn fu_kind(self) -> FuKind {
        match self {
            OpCode::Add
            | OpCode::Sub
            | OpCode::Shl
            | OpCode::Shr
            | OpCode::And
            | OpCode::Or
            | OpCode::Xor
            | OpCode::Not => FuKind::Alu,
            OpCode::Mul => FuKind::Mul,
            OpCode::Eq | OpCode::Ne | OpCode::Ltu | OpCode::Geu => FuKind::Cmp,
            OpCode::Ld | OpCode::St => FuKind::LdSt,
            OpCode::Jmp | OpCode::Cjmp => FuKind::Pc,
        }
    }

    /// Number of datapath inputs: 1 = trigger only, 2 = operand + trigger.
    pub fn arity(self) -> usize {
        match self {
            OpCode::Not | OpCode::Ld | OpCode::Jmp => 1,
            _ => 2,
        }
    }
}

/// A move source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveSrc {
    /// The result register of the named FU.
    FuResult(String),
    /// Register `reg` of the named register file.
    RfRead {
        /// Register-file name.
        rf: String,
        /// Register index.
        reg: usize,
    },
    /// A constant delivered by the named immediate unit.
    Imm {
        /// Immediate-unit name.
        unit: String,
        /// The constant (masked to the program width on transport).
        value: u64,
    },
}

impl std::fmt::Display for MoveSrc {
    /// The canonical assembly spelling (`alu0.r`, `rf1[3]`, `imm0:7`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveSrc::FuResult(fu) => write!(f, "{fu}.r"),
            MoveSrc::RfRead { rf, reg } => write!(f, "{rf}[{reg}]"),
            MoveSrc::Imm { unit, value } => write!(f, "{unit}:{value}"),
        }
    }
}

/// A move destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveDst {
    /// The operand register of the named FU.
    FuOperand(String),
    /// The trigger register of the named FU; starts `op`.
    FuTrigger {
        /// Functional-unit name.
        fu: String,
        /// Operation started by the trigger.
        op: OpCode,
    },
    /// Register `reg` of the named register file.
    RfWrite {
        /// Register-file name.
        rf: String,
        /// Register index.
        reg: usize,
    },
}

impl std::fmt::Display for MoveDst {
    /// The canonical assembly spelling (`alu0.o`, `alu0.add`, `rf1[3]`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveDst::FuOperand(fu) => write!(f, "{fu}.o"),
            MoveDst::FuTrigger { fu, op } => write!(f, "{fu}.{}", op.mnemonic()),
            MoveDst::RfWrite { rf, reg } => write!(f, "{rf}[{reg}]"),
        }
    }
}

/// One data transport: `src -> dst` over some bus this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveOp {
    /// Where the value comes from.
    pub src: MoveSrc,
    /// Where it goes.
    pub dst: MoveDst,
}

impl std::fmt::Display for MoveOp {
    /// The canonical assembly spelling, `src -> dst`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// Initial contents of one register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfImage {
    /// Register-file name (must match an architecture RF at bind time).
    pub name: String,
    /// Number of registers the program uses (`init.len() == regs`).
    pub regs: usize,
    /// Initial register values, one per register.
    pub init: Vec<u64>,
}

/// Where a live-out value sits after the program halts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputLoc {
    /// Register-file name.
    pub rf: String,
    /// Register index.
    pub reg: usize,
}

/// A complete executable move program.
///
/// `instructions[i]` is the (possibly empty) set of parallel moves
/// issued in cycle `i`; execution starts at instruction 0 and halts
/// when the program counter runs off the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Word width in bits (2–64); transported values are masked to it.
    pub width: u32,
    /// Register-file images, in declaration order.
    pub rfs: Vec<RfImage>,
    /// Initial data-memory image (addresses wrap modulo its length).
    pub mem: Vec<u64>,
    /// Live-out locations, in output order.
    pub outputs: Vec<OutputLoc>,
    /// One entry per cycle: the parallel moves of that instruction.
    pub instructions: Vec<Vec<MoveOp>>,
}

impl Program {
    /// The word mask for `width`.
    pub fn mask(&self) -> u64 {
        word_mask(self.width)
    }

    /// Total number of moves across all instructions.
    pub fn move_count(&self) -> usize {
        self.instructions.iter().map(Vec::len).sum()
    }
}

/// The mask of a `width`-bit word.
pub(crate) fn word_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}
