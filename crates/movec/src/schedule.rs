//! Resource-constrained transport (move) list scheduling.
//!
//! The scheduler maps a [`Dfg`] onto a concrete [`Architecture`]:
//! every operation becomes an operand move, a trigger move and (when the
//! result is used) a result move into a register file; moves contend for
//! bus slots (`nb` per cycle), register-file ports and functional units.
//! The produced schedule respects the paper's transport-timing relations
//! (2)–(8) by construction — `transports_per_fu` exposes them for the
//! [`tta_arch::timing::validate_relations`] checker.
//!
//! Two deliberate simplifications (documented in DESIGN.md) keep the
//! scheduler predictable without changing the shape of the area/time
//! trade-off: results always travel through a register file (no software
//! bypassing), and register-file overflow is charged as a fixed spill
//! penalty instead of scheduling explicit spill code.

use std::collections::HashMap;
use std::sync::OnceLock;

use tta_arch::{Architecture, FuKind, OpTransport};

use crate::ir::{Dfg, DfgAnalysis, FuClass, Op, ValueId};

/// Cycles charged per register-file overflow event (a store+load round
/// trip on a loaded machine).
pub const SPILL_PENALTY_CYCLES: u32 = 4;

/// Search window for a feasible cycle before declaring deadlock.
const SEARCH_LIMIT: u32 = 1 << 20;

/// Where a move starts or ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Result register of FU `fus[i]`.
    FuResult(usize),
    /// Operand register of FU `fus[i]`.
    FuOperand(usize),
    /// Trigger register of FU `fus[i]`.
    FuTrigger(usize),
    /// A write port of RF `rfs[i]`.
    RfWrite(usize),
    /// A read port of RF `rfs[i]`.
    RfRead(usize),
    /// Immediate unit `fus[i]` (a constant rides the move slot).
    Imm(usize),
}

/// One scheduled data transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Cycle the transport occupies a bus.
    pub cycle: u32,
    /// Source.
    pub src: Endpoint,
    /// Destination.
    pub dst: Endpoint,
    /// The IR value transported.
    pub value: ValueId,
}

/// Which DFG node a trigger move fires: the binding an executable
/// lowering (`tta_sim`) needs to attach an opcode to each trigger.
/// Trigger cycles are unique per FU (relation 5), so `(fu, trigger)`
/// identifies the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Index of the DFG node executed.
    pub node: usize,
    /// Index of the executing FU in `arch.fus()`.
    pub fu: usize,
    /// The trigger cycle.
    pub trigger: u32,
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No FU instance can execute operations of this class.
    MissingFu(FuClass),
    /// The architecture failed validation.
    InvalidArchitecture(tta_arch::ArchitectureError),
    /// No feasible cycle found within the search window (resource
    /// starvation; indicates a degenerate architecture).
    ResourceDeadlock,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::MissingFu(c) => write!(f, "no functional unit for {c:?} operations"),
            ScheduleError::InvalidArchitecture(e) => write!(f, "invalid architecture: {e}"),
            ScheduleError::ResourceDeadlock => write!(f, "no feasible cycle within search window"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete schedule of one DFG on one architecture.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Total cycle count including spill penalties — the throughput axis
    /// of the exploration.
    pub cycles: u32,
    /// Makespan before spill penalties.
    pub makespan: u32,
    /// All scheduled moves.
    pub moves: Vec<Move>,
    /// Node → FU → trigger-cycle bindings, in scheduling order.
    pub ops: Vec<ScheduledOp>,
    /// Register-file overflow events.
    pub spills: u32,
    /// Per-FU operation transports (for timing-relation validation).
    pub transports: HashMap<usize, Vec<OpTransport>>,
}

impl Schedule {
    /// Moves per cycle averaged over the makespan — bus pressure.
    pub fn transport_density(&self, arch: &Architecture) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.moves.len() as f64 / (self.makespan as f64 * arch.bus_count() as f64)
    }

    /// Transports grouped by FU index (for utilisation reports).
    pub fn transports_per_fu(&self) -> &HashMap<usize, Vec<OpTransport>> {
        &self.transports
    }

    /// The cost summary [`Scheduler::cost`] returns for the same input.
    pub fn cost(&self) -> ScheduleCost {
        ScheduleCost {
            cycles: self.cycles,
            makespan: self.makespan,
            spills: self.spills,
        }
    }
}

/// What a schedule costs, without the moves that realise it: the
/// result of [`Scheduler::cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCost {
    /// Total cycle count including spill penalties.
    pub cycles: u32,
    /// Makespan before spill penalties.
    pub makespan: u32,
    /// Register-file overflow events.
    pub spills: u32,
}

/// A per-cycle counted resource (bus slots, RF ports, immediate
/// outputs) with a bitset of the cycles it has no capacity left in, so
/// slot searches can jump over them instead of probing one by one.
/// Cycles past everything taken so far are free.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    used: Vec<u16>,
    full: Vec<u64>,
    cap: u16,
}

impl Pool {
    /// A pool of `cap` units per cycle, nothing taken yet.
    pub fn new(cap: usize) -> Self {
        Pool {
            used: Vec::new(),
            full: Vec::new(),
            cap: cap as u16,
        }
    }

    /// Units taken at `cycle`.
    fn used_at(&self, cycle: u32) -> u16 {
        self.used.get(cycle as usize).copied().unwrap_or(0)
    }

    /// Whether a unit is left at `cycle`.
    pub fn free_at(&self, cycle: u32) -> bool {
        self.used_at(cycle) < self.cap
    }

    /// Takes one unit at `cycle`.
    ///
    /// # Panics
    ///
    /// In debug builds, if `cycle` has no unit left.
    pub fn take(&mut self, cycle: u32) {
        let idx = cycle as usize;
        if self.used.len() <= idx {
            self.used.resize(idx + 1, 0);
            self.full.resize(idx / 64 + 1, 0);
        }
        debug_assert!(self.used[idx] < self.cap, "over-subscribed pool");
        self.used[idx] += 1;
        if self.used[idx] >= self.cap {
            self.full[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// The first cycle at or after `from` with a unit left.
    pub fn next_free(&self, from: u32) -> u32 {
        let mut word = from as usize / 64;
        let Some(&bits) = self.full.get(word) else {
            return from;
        };
        let mut open = !bits & (!0u64 << (from % 64));
        loop {
            if open != 0 {
                return (word * 64) as u32 + open.trailing_zeros();
            }
            word += 1;
            match self.full.get(word) {
                Some(&bits) => open = !bits,
                None => return (word * 64) as u32,
            }
        }
    }

    /// The last cycle at or before `from` with a unit left, if any.
    pub fn prev_free(&self, from: u32) -> Option<u32> {
        let mut word = from as usize / 64;
        let Some(&bits) = self.full.get(word) else {
            return Some(from);
        };
        let mut open = !bits & (!0u64 >> (63 - from % 64));
        loop {
            if open != 0 {
                return Some((word * 64) as u32 + 63 - open.leading_zeros());
            }
            word = word.checked_sub(1)?;
            open = !self.full[word];
        }
    }
}

/// The first cycle from `from` at which both pools have a unit left.
fn next_free_in_both(a: &Pool, b: &Pool, from: u32) -> u32 {
    let mut c = a.next_free(from);
    loop {
        let d = b.next_free(c);
        if d == c {
            return c;
        }
        c = a.next_free(d);
    }
}

/// The last cycle up to `from` at which both pools have a unit left.
fn prev_free_in_both(a: &Pool, b: &Pool, from: u32) -> Option<u32> {
    let mut c = a.prev_free(from)?;
    loop {
        let d = b.prev_free(c)?;
        if d == c {
            return Some(c);
        }
        c = a.prev_free(d)?;
    }
}

/// Where a value lives once defined.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Resident in RF `i`, readable from `available`.
    Rf { rf: usize, available: u32 },
    /// A constant, deliverable by any immediate unit at any cycle.
    Imm,
    /// Defined but never stored (result unused).
    Void,
}

/// The transport list scheduler.
///
/// [`Self::run`] returns the full [`Schedule`] that lowering, simulation
/// and relation checks need; [`Self::cost`] runs the very same
/// scheduling pass but keeps only its [`ScheduleCost`], which is all an
/// exploration sweep reads. Architecture validation runs once per
/// scheduler, however many graphs it schedules.
#[derive(Debug)]
pub struct Scheduler<'a> {
    arch: &'a Architecture,
    validated: OnceLock<Result<(), tta_arch::ArchitectureError>>,
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler for `arch`.
    pub fn new(arch: &'a Architecture) -> Self {
        Scheduler {
            arch,
            validated: OnceLock::new(),
        }
    }

    /// Schedules `dfg`, returning the complete move schedule.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidArchitecture`] if `arch` fails validation;
    /// * [`ScheduleError::MissingFu`] if the DFG uses an operation class
    ///   the architecture has no unit for.
    pub fn run(&self, dfg: &Dfg) -> Result<Schedule, ScheduleError> {
        let (cost, trace) = self.schedule(dfg, Trace::default())?;
        Ok(Schedule {
            cycles: cost.cycles,
            makespan: cost.makespan,
            moves: trace.moves,
            ops: trace.ops,
            spills: cost.spills,
            transports: trace.transports,
        })
    }

    /// Schedules `dfg` like [`Self::run`] but returns only what the
    /// schedule costs: equal to `run(dfg)?.cost()`, without building the
    /// moves, op bindings or transports.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Self::run`].
    pub fn cost(&self, dfg: &Dfg) -> Result<ScheduleCost, ScheduleError> {
        self.schedule(dfg, ()).map(|(cost, ())| cost)
    }

    /// The one list-scheduling pass behind [`Self::run`] and
    /// [`Self::cost`]; `recorder` decides what is kept of it.
    fn schedule<R: Recorder>(
        &self,
        dfg: &Dfg,
        recorder: R,
    ) -> Result<(ScheduleCost, R), ScheduleError> {
        if let Err(e) = self.validated.get_or_init(|| self.arch.validate()) {
            return Err(ScheduleError::InvalidArchitecture(e.clone()));
        }
        let analysis = dfg.analysis();
        let mut st = State::new(self.arch, dfg, analysis, recorder)?;
        // The order is topological, so every node is ready when reached.
        for &i in analysis.order() {
            st.schedule_node(dfg, i)?;
        }
        Ok(st.finish())
    }
}

/// What a scheduling pass keeps of the moves it commits.
trait Recorder {
    fn record_move(&mut self, m: Move);
    fn record_op(&mut self, op: ScheduledOp, transport: OpTransport);
}

/// [`Scheduler::cost`]'s recorder: keeps nothing.
impl Recorder for () {
    fn record_move(&mut self, _: Move) {}
    fn record_op(&mut self, _: ScheduledOp, _: OpTransport) {}
}

/// [`Scheduler::run`]'s recorder: keeps everything a [`Schedule`] holds.
#[derive(Default)]
struct Trace {
    moves: Vec<Move>,
    ops: Vec<ScheduledOp>,
    transports: HashMap<usize, Vec<OpTransport>>,
}

impl Recorder for Trace {
    fn record_move(&mut self, m: Move) {
        self.moves.push(m);
    }

    fn record_op(&mut self, op: ScheduledOp, transport: OpTransport) {
        self.transports.entry(op.fu).or_default().push(transport);
        self.ops.push(op);
    }
}

struct FuState {
    kind: FuKind,
    last_trigger: Option<u32>,
    /// Cycle the last result left R (next result may arrive after it).
    result_free_from: u32,
}

impl FuState {
    /// Whether a unit in state `other` reaches exactly the same slots.
    fn same_timing(&self, other: &FuState) -> bool {
        self.last_trigger == other.last_trigger
            && self.result_free_from == other.result_free_from
            && self.kind.latency() == other.kind.latency()
    }
}

struct State<'a, R> {
    arch: &'a Architecture,
    buses: Pool,
    rf_write: Vec<Pool>,
    rf_read: Vec<Pool>,
    imm_out: Vec<Pool>,
    /// FU indices by class, indexed by `FuClass as usize`.
    fu_of_class: [Vec<usize>; 5],
    fu_state: Vec<FuState>,
    place: Vec<Place>,
    remaining_reads: Vec<u32>,
    resident: Vec<u32>,
    is_output: &'a [bool],
    recorder: R,
    spills: u32,
    makespan: u32,
    next_rf: usize,
}

impl<'a, R: Recorder> State<'a, R> {
    fn new(
        arch: &'a Architecture,
        dfg: &Dfg,
        analysis: &'a DfgAnalysis,
        recorder: R,
    ) -> Result<Self, ScheduleError> {
        let mut fu_of_class: [Vec<usize>; 5] = Default::default();
        for (i, fu) in arch.fus().iter().enumerate() {
            let class = match fu.kind {
                FuKind::Alu => FuClass::Alu,
                FuKind::Cmp => FuClass::Cmp,
                FuKind::Mul => FuClass::Mul,
                FuKind::LdSt => FuClass::LdSt,
                FuKind::Immediate => FuClass::Imm,
                FuKind::Pc => continue,
            };
            fu_of_class[class as usize].push(i);
        }
        // The paper's templates always include the needed units; a
        // missing one is reported so the exploration can skip the point.
        if let Some(&class) = analysis
            .fu_classes()
            .iter()
            .find(|&&c| fu_of_class[c as usize].is_empty())
        {
            return Err(ScheduleError::MissingFu(class));
        }
        let n = dfg.nodes().len();
        let mut st = State {
            arch,
            buses: Pool::new(arch.bus_count()),
            rf_write: arch.rfs().iter().map(|r| Pool::new(r.nin())).collect(),
            rf_read: arch.rfs().iter().map(|r| Pool::new(r.nout())).collect(),
            imm_out: arch.fus().iter().map(|_| Pool::new(1)).collect(),
            fu_of_class,
            fu_state: arch
                .fus()
                .iter()
                .map(|f| FuState {
                    kind: f.kind,
                    last_trigger: None,
                    result_free_from: 0,
                })
                .collect(),
            place: vec![Place::Void; n],
            remaining_reads: analysis.read_counts().to_vec(),
            resident: vec![0; arch.rfs().len()],
            is_output: analysis.is_output(),
            recorder,
            spills: 0,
            makespan: 0,
            next_rf: 0,
        };
        // Live-ins and constants get their places up front.
        for (i, node) in dfg.nodes().iter().enumerate() {
            match node.op {
                Op::Input => {
                    let rf = st.pick_rf();
                    st.resident[rf] += 1;
                    if st.resident[rf] > arch.rfs()[rf].regs as u32 {
                        st.spills += 1;
                    }
                    st.place[i] = Place::Rf { rf, available: 1 };
                }
                Op::Const(_) => st.place[i] = Place::Imm,
                _ => {}
            }
        }
        Ok(st)
    }

    fn imm_units(&self) -> &[usize] {
        &self.fu_of_class[FuClass::Imm as usize]
    }

    fn pick_rf(&mut self) -> usize {
        // Prefer an RF with spare capacity; otherwise round-robin.
        let n = self.arch.rfs().len();
        for k in 0..n {
            let rf = (self.next_rf + k) % n;
            if self.resident[rf] < self.arch.rfs()[rf].regs as u32 {
                self.next_rf = (rf + 1) % n;
                return rf;
            }
        }
        let rf = self.next_rf;
        self.next_rf = (self.next_rf + 1) % n;
        rf
    }

    /// Earliest cycle `v` can be read at.
    fn arg_lower(&self, v: ValueId) -> u32 {
        match self.place[v.index()] {
            Place::Rf { available, .. } => available,
            Place::Imm | Place::Void => 1,
        }
    }

    /// Is a read of `v` possible at `cycle` (source port + bus)?
    fn read_feasible(&self, v: ValueId, cycle: u32) -> bool {
        if !self.buses.free_at(cycle) {
            return false;
        }
        match self.place[v.index()] {
            Place::Rf { rf, available } => cycle >= available && self.rf_read[rf].free_at(cycle),
            Place::Imm => self
                .imm_units()
                .iter()
                .any(|&u| self.imm_out[u].free_at(cycle)),
            Place::Void => false,
        }
    }

    /// Commits a read of `v` at `cycle` towards `dst`.
    fn commit_read(&mut self, v: ValueId, cycle: u32, dst: Endpoint) {
        self.buses.take(cycle);
        let src = match self.place[v.index()] {
            Place::Rf { rf, .. } => {
                self.rf_read[rf].take(cycle);
                self.remaining_reads[v.index()] -= 1;
                if self.remaining_reads[v.index()] == 0 && !self.is_output[v.index()] {
                    self.resident[rf] = self.resident[rf].saturating_sub(1);
                }
                Endpoint::RfRead(rf)
            }
            Place::Imm => {
                let unit = *self
                    .imm_units()
                    .iter()
                    .find(|&&u| self.imm_out[u].free_at(cycle))
                    .expect("read_feasible checked an imm unit is free");
                self.imm_out[unit].take(cycle);
                Endpoint::Imm(unit)
            }
            Place::Void => unreachable!("reads of void values are rejected earlier"),
        };
        self.recorder.record_move(Move {
            cycle,
            src,
            dst,
            value: v,
        });
        self.makespan = self.makespan.max(cycle);
    }

    /// Schedules node `i` of `dfg`.
    fn schedule_node(&mut self, dfg: &Dfg, i: usize) -> Result<(), ScheduleError> {
        let node = &dfg.nodes()[i];
        let Some(class) = node.op.fu_class() else {
            return Ok(()); // live-in: placed already
        };
        if class == FuClass::Imm {
            return Ok(()); // constants materialise at read time
        }
        let args_lb = node.args.iter().map(|&a| self.arg_lower(a)).max();

        // Pick the FU reaching the earliest trigger cycle; ties go to the
        // first candidate. Both skips below are exact: a skipped unit
        // could at best tie with a unit already tried.
        let candidates = &self.fu_of_class[class as usize];
        let mut best: Option<(u32, Option<u32>, usize)> = None; // (t, o, fu)
        let mut tried = 0u64; // candidate positions searched (the first 64)
        for (k, &fu) in candidates.iter().enumerate() {
            let fs = &self.fu_state[fu];
            let lat = fs.kind.latency();
            let lb = fs
                .last_trigger
                .map_or(1, |t| t + 1)
                .max(fs.result_free_from.saturating_sub(lat) + 1)
                .max(args_lb.unwrap_or(1));
            // No trigger cycle below the bound can beat the best found.
            if best.is_some_and(|(t, _, _)| lb >= t) {
                continue;
            }
            // A unit in the same state as one already searched reaches
            // the same slots. (A unit equal to a skipped one is skipped
            // by the same rule that skipped it.)
            let mut earlier = tried;
            while earlier != 0 {
                let j = earlier.trailing_zeros() as usize;
                if self.fu_state[candidates[j]].same_timing(fs) {
                    break;
                }
                earlier &= earlier - 1;
            }
            if earlier != 0 {
                continue;
            }
            let (t, o) = self.find_slots(node, lb, fu)?;
            if k < 64 {
                tried |= 1 << k;
            }
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, o, fu));
            }
        }
        let (c_t, c_o, fu) = best.expect("at least one candidate FU");

        // Commit the input moves.
        match node.args.len() {
            0 => {}
            1 => self.commit_read(node.args[0], c_t, Endpoint::FuTrigger(fu)),
            2 => {
                self.commit_read(
                    node.args[0],
                    c_o.expect("binary op has operand cycle"),
                    Endpoint::FuOperand(fu),
                );
                self.commit_read(node.args[1], c_t, Endpoint::FuTrigger(fu));
            }
            _ => unreachable!("IR ops have at most 2 args"),
        }
        let lat = self.fu_state[fu].kind.latency();
        let r = c_t + lat;
        self.fu_state[fu].last_trigger = Some(c_t);

        // Result move into an RF (when the value is used or is a live-out).
        let needs_result =
            node.op.has_result() && (self.remaining_reads[i] > 0 || self.is_output[i]);
        let fout;
        if needs_result {
            let rf = self.pick_rf();
            let w = next_free_in_both(&self.buses, &self.rf_write[rf], r + 1);
            if w > r + SEARCH_LIMIT {
                return Err(ScheduleError::ResourceDeadlock);
            }
            self.buses.take(w);
            self.rf_write[rf].take(w);
            self.resident[rf] += 1;
            if self.resident[rf] > self.arch.rfs()[rf].regs as u32 {
                self.spills += 1;
            }
            self.place[i] = Place::Rf {
                rf,
                available: w + 1,
            };
            self.recorder.record_move(Move {
                cycle: w,
                src: Endpoint::FuResult(fu),
                dst: Endpoint::RfWrite(rf),
                value: ValueId(i as u32),
            });
            self.makespan = self.makespan.max(w);
            self.fu_state[fu].result_free_from = w;
            fout = w;
        } else {
            self.place[i] = Place::Void;
            self.fu_state[fu].result_free_from = r;
            fout = r + 1;
        }
        self.makespan = self.makespan.max(r);

        // Record the transport for relation validation.
        let fin = match (c_o, node.args.len()) {
            (Some(o), 2) => o.min(c_t) - 1,
            _ => c_t - 1,
        };
        let op = ScheduledOp {
            node: i,
            fu,
            trigger: c_t,
        };
        let transport = OpTransport {
            o: if node.args.len() == 2 { c_o } else { None },
            t: c_t,
            r,
            fin,
            fout,
        };
        self.recorder.record_op(op, transport);
        Ok(())
    }

    /// Finds the earliest `(trigger, operand)` cycles from `lb` on `fu`.
    ///
    /// For each candidate trigger cycle the operand move takes the
    /// latest feasible cycle ≤ the trigger, at or after the previous
    /// trigger (relation 5). Below the trigger cycle that choice does not
    /// depend on the trigger, so the operand window is searched once,
    /// growing with it; only the shared cycle needs the pairwise check.
    /// Both scans jump over cycles whose buses or source ports are full.
    fn find_slots(
        &self,
        node: &crate::ir::Node,
        lb: u32,
        fu: usize,
    ) -> Result<(u32, Option<u32>), ScheduleError> {
        let (operand, trigger) = match node.args[..] {
            [] => return Ok((lb, None)),
            [t] => (None, t),
            [o, t] => (Some(o), t),
            _ => unreachable!("IR ops have at most 2 args"),
        };
        let last_t = self.fu_state[fu].last_trigger.map_or(0, |t| t + 1);
        let lo = operand.map_or(0, |o| last_t.max(self.arg_lower(o)));
        // Operand cycles below `scanned` are searched; `below` is the
        // latest feasible one among them.
        let mut scanned = lo;
        let mut below = None;
        let end = lb + SEARCH_LIMIT;
        let mut c_t = self.next_read_slot(trigger, lb);
        while c_t < end {
            if self.read_feasible(trigger, c_t) {
                let Some(o) = operand else {
                    return Ok((c_t, None));
                };
                if self.pair_feasible(o, c_t, trigger, c_t) {
                    return Ok((c_t, Some(c_t)));
                }
                let mut c = c_t;
                while let Some(p) = c
                    .checked_sub(1)
                    .and_then(|c| self.prev_read_slot(o, c))
                    .filter(|&p| p >= scanned)
                {
                    if self.read_feasible(o, p) {
                        below = Some(p);
                        break;
                    }
                    c = p;
                }
                scanned = c_t;
                if below.is_some() {
                    return Ok((c_t, below));
                }
            }
            c_t = self.next_read_slot(trigger, c_t + 1);
        }
        Err(ScheduleError::ResourceDeadlock)
    }

    /// The first cycle from `from` with a bus slot and, for a value in a
    /// register file, a read port of it left.
    fn next_read_slot(&self, v: ValueId, from: u32) -> u32 {
        match self.place[v.index()] {
            Place::Rf { rf, .. } => next_free_in_both(&self.buses, &self.rf_read[rf], from),
            _ => self.buses.next_free(from),
        }
    }

    /// [`Self::next_read_slot`] searching downwards.
    fn prev_read_slot(&self, v: ValueId, from: u32) -> Option<u32> {
        match self.place[v.index()] {
            Place::Rf { rf, .. } => prev_free_in_both(&self.buses, &self.rf_read[rf], from),
            _ => self.buses.prev_free(from),
        }
    }

    /// Can reads of `a` at `ca` and `b` at `cb` coexist?
    fn pair_feasible(&self, a: ValueId, ca: u32, b: ValueId, cb: u32) -> bool {
        if !self.read_feasible(a, ca) || !self.read_feasible(b, cb) {
            return false;
        }
        if ca != cb {
            return true;
        }
        // Same cycle: need two bus slots and distinct port capacity.
        if u32::from(self.buses.used_at(ca)) + 2 > self.arch.bus_count() as u32 {
            return false;
        }
        match (self.place[a.index()], self.place[b.index()]) {
            (Place::Rf { rf: ra, .. }, Place::Rf { rf: rb, .. }) if ra == rb => {
                u32::from(self.rf_read[ra].used_at(ca)) + 2 <= self.arch.rfs()[ra].nout() as u32
            }
            (Place::Imm, Place::Imm) => {
                // Need two distinct free immediate units.
                self.imm_units()
                    .iter()
                    .filter(|&&u| self.imm_out[u].free_at(ca))
                    .count()
                    >= 2
            }
            _ => true,
        }
    }

    fn finish(self) -> (ScheduleCost, R) {
        let makespan = self.makespan + 1;
        let cost = ScheduleCost {
            cycles: makespan + self.spills * SPILL_PENALTY_CYCLES,
            makespan,
            spills: self.spills,
        };
        (cost, self.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_arch::template::TemplateBuilder;
    use tta_arch::{validate_relations, Architecture};

    fn chain_dfg(len: usize) -> Dfg {
        let mut dfg = Dfg::new(16);
        let mut v = dfg.input();
        let one = dfg.constant(1);
        for _ in 0..len {
            v = dfg.op(Op::Add, &[v, one]);
        }
        dfg.mark_output(v);
        dfg
    }

    fn parallel_dfg(width: usize) -> Dfg {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let mut vs = Vec::new();
        for _ in 0..width {
            vs.push(dfg.op(Op::Xor, &[a, b]));
        }
        // Reduce so everything is live-out-relevant.
        let mut acc = vs[0];
        for v in &vs[1..] {
            acc = dfg.op(Op::Or, &[acc, *v]);
        }
        dfg.mark_output(acc);
        dfg
    }

    #[test]
    fn schedules_simple_chain() {
        let arch = Architecture::figure9();
        let s = Scheduler::new(&arch).run(&chain_dfg(5)).unwrap();
        assert!(s.cycles >= 5, "chain of 5 dependent adds takes >= 5 cycles");
        // 5 ops * (2 reads + 1 write) = 15 moves.
        assert_eq!(s.moves.len(), 15);
    }

    #[test]
    fn schedules_respect_timing_relations() {
        let arch = Architecture::figure9();
        for dfg in [chain_dfg(8), parallel_dfg(6)] {
            let s = Scheduler::new(&arch).run(&dfg).unwrap();
            for (fu, ops) in s.transports_per_fu() {
                assert_eq!(validate_relations(ops), Ok(()), "fu {fu}");
            }
        }
    }

    #[test]
    fn more_buses_never_slower() {
        let dfg = parallel_dfg(10);
        let mut last = u32::MAX;
        for nb in [1usize, 2, 3, 4] {
            let arch = TemplateBuilder::new(format!("b{nb}"), 16, nb)
                .fu(FuKind::Alu)
                .fu(FuKind::Alu)
                .fu(FuKind::Immediate)
                .fu(FuKind::LdSt)
                .fu(FuKind::Pc)
                .rf(16, 2, 2)
                .build();
            let s = Scheduler::new(&arch).run(&dfg).unwrap();
            assert!(
                s.cycles <= last,
                "bus count {nb} slowed down: {} > {last}",
                s.cycles
            );
            last = s.cycles;
        }
    }
    use tta_arch::FuKind;

    #[test]
    fn two_alus_faster_than_one_on_parallel_work() {
        let dfg = parallel_dfg(12);
        let one = TemplateBuilder::new("one", 16, 4)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(16, 2, 2)
            .build();
        let two = TemplateBuilder::new("two", 16, 4)
            .fu(FuKind::Alu)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(16, 2, 2)
            .build();
        let s1 = Scheduler::new(&one).run(&dfg).unwrap();
        let s2 = Scheduler::new(&two).run(&dfg).unwrap();
        assert!(s2.cycles < s1.cycles, "{} !< {}", s2.cycles, s1.cycles);
    }

    #[test]
    fn missing_mul_reported() {
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let m = dfg.op(Op::Mul, &[a, b]);
        dfg.mark_output(m);
        let arch = Architecture::figure9(); // no MUL in Figure 9
        assert_eq!(
            Scheduler::new(&arch).run(&dfg).unwrap_err(),
            ScheduleError::MissingFu(FuClass::Mul)
        );
    }

    #[test]
    fn tiny_rf_causes_spills() {
        // Many simultaneously-live values on a 2-register RF.
        let mut dfg = Dfg::new(16);
        let a = dfg.input();
        let b = dfg.input();
        let mut vs = Vec::new();
        for k in 0..8 {
            let c = dfg.constant(k);
            let x = dfg.op(Op::Add, &[a, c]);
            vs.push(dfg.op(Op::Xor, &[x, b]));
        }
        let mut acc = vs[0];
        for v in &vs[1..] {
            acc = dfg.op(Op::Or, &[acc, *v]);
        }
        dfg.mark_output(acc);
        let small = TemplateBuilder::new("small", 16, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(2, 1, 2)
            .build();
        let big = TemplateBuilder::new("big", 16, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Immediate)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(16, 1, 2)
            .build();
        let ss = Scheduler::new(&small).run(&dfg).unwrap();
        let sb = Scheduler::new(&big).run(&dfg).unwrap();
        assert!(ss.spills > 0);
        assert_eq!(sb.spills, 0);
        assert!(ss.cycles > sb.cycles);
    }

    #[test]
    fn loads_and_stores_schedule() {
        let mut dfg = Dfg::new(16);
        let addr = dfg.constant(4);
        let v = dfg.op(Op::Load, &[addr]);
        let one = dfg.constant(1);
        let v2 = dfg.op(Op::Add, &[v, one]);
        dfg.op(Op::Store, &[addr, v2]);
        let arch = Architecture::figure9();
        let s = Scheduler::new(&arch).run(&dfg).unwrap();
        // load trigger + result write + 2 add reads + add result + 2
        // store input moves = 7.
        assert_eq!(s.moves.len(), 7);
    }
}
