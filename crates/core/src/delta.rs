//! Incremental point evaluation along a Gray walk: [`CarriedFolds`].
//!
//! A design-space sweep evaluates thousands of points whose cost is a
//! fold over *per-component* contributions — and neighbouring points
//! share almost all of their components (a Gray-walk neighbour order,
//! [`tta_arch::template::TemplateSpace::neighbour_order`], changes
//! exactly one template knob per step). [`CarriedFolds`] exploits that:
//! it keeps the area and clock folds of the previous point and, on a
//! contiguous walk step, retracts and applies only the components that
//! changed.
//!
//! **Correctness before speed.** The carried result is **bit-identical**
//! to the scratch models ([`crate::models::AnnotatedAreaModel`],
//! [`crate::models::AnnotatedTimingModel`],
//! [`crate::models::Eq14TestCostModel`]), and f64 addition is not
//! associative — so the carry never runs a *naive* ±delta on the float
//! objectives. Its accumulators are *exact* instead: an integer area sum
//! in 2⁻⁸-GE units (cell areas are quarter-GE multiples, and every
//! intermediate f64 sum of such contributions below 2⁴⁵ GE is exact, so
//! the scratch fold's result equals the carried sum bit-for-bit) and an
//! order-independent critical-path max. Whenever exactness cannot be
//! proven (areas off the 2⁻⁸ grid, NaN/−0.0 critical paths) the point
//! reruns the scratch fold over the [`ComponentDb`],
//! and a discontinuous walk refolds the whole mirror. The test-cost fold
//! is re-run per point from the mirror (the round-robin socket→bus
//! assignment shifts per-instance transport distances whenever an
//! earlier unit count changes, so no carried test sum can be correct),
//! but skips the scratch path's per-component `String`/`Vec`
//! allocations and every lock.
//!
//! The differential property tests in `crates/core/tests/delta.rs`
//! enforce bit-identity for all of it anyway.
//!
//! **Staleness.** The mirror is guarded by the database fingerprint
//! ([`crate::ComponentDb::fingerprint`]) that [`DeltaEvaluator`] holds:
//! records annotated under one engine configuration (ATPG profile,
//! march algorithm) must never be folded into a point evaluated against
//! another. Every [`CarriedFolds::advance`] validates the guard once and
//! refolds from the new database on mismatch.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tta_arch::{timing, Architecture, FuKind};

use crate::backannotate::{ComponentDb, ComponentKey, ComponentRecord};
use crate::models::{annotated_area, annotated_clock_period, key_width, InterconnectModel};
use crate::testcost::{ftrf, fts, socket_state_bits};

/// FxHash-style multiply-rotate hasher for the [`CarriedFolds`] mirror.
///
/// The mirror sits on the per-point hot path — a walk step performs
/// dozens of small-enum-key lookups, where SipHash's per-lookup setup
/// is the single largest cost of an incremental step. Hash quality is
/// ample for the handful of distinct [`ComponentKey`]s a point uses,
/// and nothing observable depends on iteration order (the only mirror
/// iteration is an order-independent max).
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxHashMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// The database-fingerprint guard of a [`CarriedFolds`] walk.
///
/// The carry's mirror holds [`ComponentRecord`]s fetched from one
/// [`ComponentDb`]; records annotated under one engine configuration
/// (ATPG profile, march algorithm) must never be folded into a point
/// evaluated against another. [`CarriedFolds::advance`] checks the guard
/// once per point and drops its mirror whenever the database's
/// [`ComponentDb::fingerprint`] differs from the last one it saw. Safe
/// to share across threads (`&self`, guard behind a [`Mutex`]).
#[derive(Debug, Default)]
pub struct DeltaEvaluator {
    /// Fingerprint of the database the mirror was last filled from;
    /// `None` until the first point.
    guard: Mutex<Option<u64>>,
}

impl DeltaEvaluator {
    /// A guard that has seen no database yet. The interconnect argument
    /// is unused — [`CarriedFolds::new`] takes the constants the folds
    /// need — and only keeps the constructor's signature for existing
    /// callers.
    pub fn new(_interconnect: InterconnectModel) -> Self {
        DeltaEvaluator::default()
    }

    /// Validates the guard against `db`. Returns `true` when the guard
    /// changed (the first call, or a different database fingerprint) —
    /// i.e. any record the caller still holds from an earlier database
    /// is now stale.
    pub(crate) fn ensure_guard(&self, db: &ComponentDb) -> bool {
        let fp = db.fingerprint();
        let mut guard = self.guard.lock().expect("guard lock");
        guard.replace(fp) != Some(fp)
    }
}

// ---------------------------------------------------------------------
// Carried folds: the true incremental step over the Gray walk.
// ---------------------------------------------------------------------

/// The three cost-axis values of one point as produced by
/// [`CarriedFolds::advance`] — bit-identical to what the scratch models
/// return for the same architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointCosts {
    /// Area in NAND2 gate equivalents ([`crate::models::AnnotatedAreaModel`]).
    pub area: f64,
    /// Clock period in normalised gate delays
    /// ([`crate::models::AnnotatedTimingModel`]).
    pub clock_period: f64,
    /// eq.-(14) comparative test-cost total ([`crate::models::Eq14TestCostModel`]).
    pub test_total: f64,
}

/// Observability counters of the carried folds, reported on
/// [`crate::explore::ExploreResult::delta`] and rendered by the CLI.
///
/// Both counts are exact: the carry state is threaded serially through
/// the walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Walk steps whose area/clock folds were carried from the
    /// Gray-adjacent predecessor (the O(1) retract/apply path).
    pub fold_carries: u64,
    /// Points folded from scratch instead: walk discontinuities, batch
    /// boundaries, carry resets or database changes.
    pub scratch_fallbacks: u64,
}

/// Units per NAND2 gate equivalent of the exact area accumulator. Cell
/// areas are quarter-GE multiples (`tta_netlist::library`), so every
/// annotated record area is a whole number of 2⁻⁸-GE units; scaling by
/// a power of two is exact.
const AREA_UNITS: f64 = 256.0;

/// Maximum per-record area admitted to the exact accumulator, in GE.
const EXACT_AREA_LIMIT: f64 = (1u64 << 32) as f64;

/// Carried unit sums below this bound reproduce the scratch fold
/// bit-for-bit: its partial sums are non-negative multiples of 2⁻⁸ GE
/// no larger than the total, so below 2⁴⁵ GE each fits the 53-bit f64
/// significand and every addition of the fold is exact.
const EXACT_UNIT_SUM_LIMIT: i64 = 1 << 53;

/// One component's entry in the [`CarriedFolds`] mirror: how many times
/// the current architecture uses it, and its record.
#[derive(Debug, Clone)]
struct MirrorSlot {
    count: u32,
    record: Arc<ComponentRecord>,
}

/// The two record fields the per-point test fold reads, copied out of
/// the mirror into a `Vec` aligned with the key list so
/// [`CarriedFolds::test_total`] runs without a single hash lookup. On a
/// carried step only the changed middle positions are refreshed; the
/// unchanged prefix/suffix is a plain `Copy` splice.
#[derive(Debug, Clone, Copy)]
struct TestOperands {
    np: usize,
    ff_infrastructure: usize,
}

/// Fold state carried across Gray-code-adjacent points of a
/// [`tta_arch::template::TemplateSpace::neighbour_order`] walk.
///
/// On a contiguous step (`rank == previous + 1`) only the components
/// that actually changed are retracted/applied — the `neighbour_order`
/// contract (one knob, ±1) keeps that set tiny — and the area/clock
/// folds are produced in O(1) float work from exact accumulators:
///
/// * **area** as an `i64` sum of the record areas in 2⁻⁸-GE units,
///   admitted per record only below `EXACT_AREA_LIMIT` (2³² GE,
///   private); any off-grid or oversized contribution, or a total past
///   `EXACT_UNIT_SUM_LIMIT`, flips the point to the scratch fold over
///   the [`ComponentDb`], in scratch order, so the result is
///   bit-identical either way;
/// * **clock** as a max over the mirror's distinct critical paths —
///   order-independent for the positive/`+0.0` values the annotation
///   produces, with NaN/`-0.0` guards falling back to the ordered
///   refold;
/// * **test cost** re-folded per point from the mirror (the round-robin
///   socket→bus assignment shifts per-instance transport distances
///   whenever an earlier unit count changes, so no carried test sum can
///   be correct) — but with zero locks and zero allocations, unlike the
///   scratch path's per-component `String`s.
///
/// Anything else — the first point, a rank gap (budget truncation
/// re-sort), a database change caught by the [`DeltaEvaluator`] guard,
/// an out-of-model point — rebuilds the mirror from the database and
/// counts a scratch fallback. The carry is
/// deliberately *not* shared across threads: the sweep stages it
/// serially per chunk, which is exactly the walk order.
#[derive(Debug)]
pub struct CarriedFolds {
    interconnect: InterconnectModel,
    /// Walk rank of the point the accumulators describe.
    last_rank: Option<usize>,
    /// Fold-order key list (with multiplicity) of that point.
    prev_keys: Vec<ComponentKey>,
    /// Scratch buffer for the current point's key list.
    curr_keys: Vec<ComponentKey>,
    /// Test-fold operands aligned with `prev_keys`.
    prev_ops: Vec<TestOperands>,
    /// Scratch buffer aligned with `curr_keys`.
    curr_ops: Vec<TestOperands>,
    /// Distinct components of the current point: multiplicity + record.
    mirror: FxHashMap<ComponentKey, MirrorSlot>,
    /// Exact area sum over the mirror (with multiplicity), in
    /// `AREA_UNITS` per GE.
    area_sum: i64,
    /// Contributions the integer accumulator could not admit.
    inexact: u32,
    /// Critical-path values the max fast path cannot order-independently
    /// fold (NaN or −0.0).
    unordered_paths: u32,
    carries: u64,
    fallbacks: u64,
}

impl CarriedFolds {
    /// Empty carry state for a walk evaluated with `interconnect`
    /// constants (must match the models the sweep runs).
    pub fn new(interconnect: InterconnectModel) -> Self {
        CarriedFolds {
            interconnect,
            last_rank: None,
            prev_keys: Vec::new(),
            curr_keys: Vec::new(),
            prev_ops: Vec::new(),
            curr_ops: Vec::new(),
            mirror: FxHashMap::default(),
            area_sum: 0,
            inexact: 0,
            unordered_paths: 0,
            carries: 0,
            fallbacks: 0,
        }
    }

    /// Drops the carry (the next [`CarriedFolds::advance`] refolds from
    /// scratch). Call at any walk discontinuity the rank argument can't
    /// express — a new strategy round, a skipped (cache-hit) point.
    pub fn reset(&mut self) {
        self.last_rank = None;
    }

    /// (fold carries, scratch fallbacks) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.carries, self.fallbacks)
    }

    /// Costs of `arch`, the point at walk `rank`, carrying the folds
    /// from the previous call when `rank` is its direct successor and
    /// refolding from scratch otherwise. Bit-identical to the scratch
    /// models over `db`. `eval` guards the mirror: a database whose
    /// fingerprint differs from the previous call's forces a refold.
    pub fn advance(
        &mut self,
        arch: &Architecture,
        rank: usize,
        eval: &DeltaEvaluator,
        db: &ComponentDb,
    ) -> PointCosts {
        if eval.ensure_guard(db) {
            // Any records the mirror holds predate the (re)guarding.
            self.reset();
            self.mirror.clear();
        }
        if !self.collect_keys(arch) {
            // Out of the component model's domain: infinite on every
            // axis (matching the scratch models), and nothing to carry.
            self.reset();
            return PointCosts {
                area: f64::INFINITY,
                clock_period: f64::INFINITY,
                test_total: f64::INFINITY,
            };
        }
        let carried = self.last_rank == Some(rank.wrapping_sub(1)) && rank > 0;
        if carried {
            // Retract/apply only the keys outside the common
            // prefix/suffix — for a one-knob Gray step that differing
            // middle is at most a few entries (often none: a bus-count
            // step changes no component at all).
            let prev = std::mem::take(&mut self.prev_keys);
            let curr = std::mem::take(&mut self.curr_keys);
            let prefix = prev.iter().zip(&curr).take_while(|(a, b)| a == b).count();
            let suffix = prev[prefix..]
                .iter()
                .rev()
                .zip(curr[prefix..].iter().rev())
                .take_while(|(a, b)| a == b)
                .count();
            for &key in &prev[prefix..prev.len() - suffix] {
                self.retract_one(key);
            }
            for &key in &curr[prefix..curr.len() - suffix] {
                self.apply_one(key, db);
            }
            // Splice the aligned test operands: unchanged ends are a
            // `Copy` memmove, only the middle re-reads the mirror.
            let mut ops = std::mem::take(&mut self.curr_ops);
            ops.clear();
            ops.extend_from_slice(&self.prev_ops[..prefix]);
            for &key in &curr[prefix..curr.len() - suffix] {
                ops.push(self.operands_of(key));
            }
            ops.extend_from_slice(&self.prev_ops[prev.len() - suffix..]);
            self.curr_ops = ops;
            self.prev_keys = prev;
            self.curr_keys = curr;
            self.carries += 1;
        } else {
            self.mirror.clear();
            self.area_sum = 0;
            self.inexact = 0;
            self.unordered_paths = 0;
            let keys = std::mem::take(&mut self.curr_keys);
            for &key in &keys {
                self.apply_one(key, db);
            }
            let mut ops = std::mem::take(&mut self.curr_ops);
            ops.clear();
            ops.extend(keys.iter().map(|&key| self.operands_of(key)));
            self.curr_ops = ops;
            self.curr_keys = keys;
            self.fallbacks += 1;
        }
        self.last_rank = Some(rank);
        std::mem::swap(&mut self.prev_keys, &mut self.curr_keys);
        std::mem::swap(&mut self.prev_ops, &mut self.curr_ops);
        self.costs_of(arch, db)
    }

    /// Fills `curr_keys` with the fold-order key list of `arch`;
    /// `false` when the architecture is outside the component model.
    fn collect_keys(&mut self, arch: &Architecture) -> bool {
        self.curr_keys.clear();
        let Some(w) = key_width(arch) else {
            return false;
        };
        for fu in arch.fus() {
            self.curr_keys.push(ComponentKey::for_fu(fu.kind, w));
            let Some(sock) = ComponentKey::socket_group(w, fu.kind.input_ports()) else {
                return false;
            };
            self.curr_keys.push(sock);
        }
        for rf in arch.rfs() {
            let (Some(key), Some(sock)) = (
                ComponentKey::for_rf(rf, w),
                ComponentKey::socket_group(w, rf.nin()),
            ) else {
                return false;
            };
            self.curr_keys.push(key);
            self.curr_keys.push(sock);
        }
        true
    }

    /// Whether the exact accumulator can admit `area`.
    fn exactly_summable(area: f64) -> bool {
        (0.0..=EXACT_AREA_LIMIT).contains(&area) && (area * AREA_UNITS).fract() == 0.0
    }

    /// Whether the max fast path can fold `critical_path`
    /// order-independently (any two equal-comparing values have equal
    /// bits, and NaN never wins a `f64::max`).
    fn orderable_path(critical_path: f64) -> bool {
        !critical_path.is_nan() && critical_path.to_bits() != (-0.0f64).to_bits()
    }

    fn apply_one(&mut self, key: ComponentKey, db: &ComponentDb) {
        let slot = self.mirror.entry(key).or_insert_with(|| MirrorSlot {
            count: 0,
            record: db.get(key),
        });
        slot.count += 1;
        let area = slot.record.area;
        if Self::exactly_summable(area) {
            self.area_sum += (area * AREA_UNITS) as i64;
        } else {
            self.inexact += 1;
        }
        if !Self::orderable_path(slot.record.critical_path) {
            self.unordered_paths += 1;
        }
    }

    /// The test-fold operands of `key`'s mirrored record.
    fn operands_of(&self, key: ComponentKey) -> TestOperands {
        let record = &self.mirror[&key].record;
        TestOperands {
            np: record.np,
            ff_infrastructure: record.ff_infrastructure,
        }
    }

    fn retract_one(&mut self, key: ComponentKey) {
        let slot = self
            .mirror
            .get_mut(&key)
            .expect("retracted key must be mirrored");
        slot.count -= 1;
        let record = Arc::clone(&slot.record);
        if slot.count == 0 {
            self.mirror.remove(&key);
        }
        if Self::exactly_summable(record.area) {
            self.area_sum -= (record.area * AREA_UNITS) as i64;
        } else {
            self.inexact -= 1;
        }
        if !Self::orderable_path(record.critical_path) {
            self.unordered_paths -= 1;
        }
    }

    /// The three axes from the current accumulators (plus, for test
    /// cost, one ordered pass over `arch` against the mirror). A fold
    /// the accumulators cannot reproduce exactly reruns the scratch
    /// fold over `db`.
    fn costs_of(&self, arch: &Architecture, db: &ComponentDb) -> PointCosts {
        let area = if self.inexact == 0 && self.area_sum < EXACT_UNIT_SUM_LIMIT {
            // Every contribution is on the unit grid and the total is
            // below the limit, so the scratch fold's sequential f64 sum
            // is exact and equals the carried sum; finish with the
            // scratch tail expression.
            let area = self.area_sum as f64 / AREA_UNITS;
            let control = f64::from(tta_arch::InstructionFormat::of(arch).width())
                * self.interconnect.control_area_per_instr_bit;
            area + control
                + arch.bus_count() as f64 * arch.width as f64 * self.interconnect.bus_area_per_bit
        } else {
            annotated_area(arch, &self.interconnect, db)
        };
        let clock_period = if self.unordered_paths == 0 {
            // Scratch maxes over FU and RF records only — socket groups
            // contribute area and test patterns, never the clock.
            let mut worst: f64 = 0.0;
            for (key, slot) in &self.mirror {
                if !matches!(key, ComponentKey::SocketGroup(..)) {
                    worst = worst.max(slot.record.critical_path);
                }
            }
            worst + arch.bus_count() as f64 * self.interconnect.bus_delay_penalty
        } else {
            annotated_clock_period(arch, &self.interconnect, db)
        };
        PointCosts {
            area,
            clock_period,
            test_total: self.test_total(arch),
        }
    }

    /// The eq.-(14) total, folded in the exact op order of
    /// [`crate::architecture_test_cost`] but without materialising the per-component
    /// breakdown, and without a single hash lookup: it walks the
    /// operand list [`CarriedFolds::advance`] maintained alongside the
    /// key list (left in `prev_ops` by the final swap — `[unit,
    /// socket]` pairs for every FU, then every RF).
    fn test_total(&self, arch: &Architecture) -> f64 {
        let mut ops = self.prev_ops.iter();
        let mut next = || *ops.next().expect("operand list covers the fold walk");
        let mut total = 0.0;
        for fu in arch.fus() {
            let rec = next();
            let sock = next();
            if matches!(fu.kind, FuKind::LdSt | FuKind::Pc | FuKind::Immediate) {
                continue;
            }
            let n_inputs = fu.kind.input_ports();
            let cd = timing::transport_cycles(fu);
            let nl = rec.ff_infrastructure + socket_state_bits(n_inputs);
            total += rec.np as f64 * f64::from(cd) + fts(sock.np, nl);
        }
        for rf in arch.rfs() {
            let rec = next();
            let sock = next();
            let cd = timing::rf_transport_cycles(rf.write_ports[0], rf.read_ports[0]);
            let nl = rec.ff_infrastructure + socket_state_bits(rf.nin());
            total += ftrf(rec.np, cd, rf.nin(), rf.nout(), arch.bus_count()) + fts(sock.np, nl);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{
        AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel, TestCostModel,
        TimingModel,
    };
    use tta_arch::template::TemplateSpace;

    #[test]
    fn carried_folds_match_scratch_along_the_walk() {
        let db = ComponentDb::new();
        let ic = InterconnectModel::paper();
        let eval = DeltaEvaluator::new(ic);
        let area = AnnotatedAreaModel::new(ic);
        let clock = AnnotatedTimingModel::new(ic);
        let space = TemplateSpace::fast_default();
        let mut carry = CarriedFolds::new(ic);
        for rank in 0..space.len() {
            let arch = space.point(space.neighbour_index(rank));
            let got = carry.advance(&arch, rank, &eval, &db);
            assert_eq!(
                got.area.to_bits(),
                area.area(&arch, &db).to_bits(),
                "area at {}",
                arch.name
            );
            assert_eq!(
                got.clock_period.to_bits(),
                clock.clock_period(&arch, &db).to_bits(),
                "clock at {}",
                arch.name
            );
            assert_eq!(
                got.test_total.to_bits(),
                Eq14TestCostModel.test_cost(&arch, &db).total.to_bits(),
                "test cost at {}",
                arch.name
            );
        }
        let (carries, fallbacks) = carry.stats();
        assert_eq!(fallbacks, 1, "only the first point folds from scratch");
        assert_eq!(carries, (space.len() - 1) as u64);
    }

    #[test]
    fn carried_folds_fall_back_on_rank_gaps_and_resets() {
        let db = ComponentDb::new();
        let ic = InterconnectModel::paper();
        let eval = DeltaEvaluator::new(ic);
        let area = AnnotatedAreaModel::new(ic);
        let space = TemplateSpace::fast_default();
        let mut carry = CarriedFolds::new(ic);
        let at = |carry: &mut CarriedFolds, rank: usize| {
            let arch = space.point(space.neighbour_index(rank));
            let got = carry.advance(&arch, rank, &eval, &db);
            assert_eq!(got.area.to_bits(), area.area(&arch, &db).to_bits());
        };
        at(&mut carry, 0); // scratch (first point)
        at(&mut carry, 1); // carried
        at(&mut carry, 5); // rank gap -> scratch
        at(&mut carry, 6); // carried again
        carry.reset();
        at(&mut carry, 7); // reset -> scratch despite being adjacent
        assert_eq!(carry.stats(), (2, 3));
    }

    #[test]
    fn guard_rearms_only_when_the_database_fingerprint_changes() {
        let eval = DeltaEvaluator::new(InterconnectModel::paper());
        let db = ComponentDb::new();
        let other = ComponentDb::with_engines(
            tta_atpg::AtpgConfig::default(),
            tta_dft::march::MarchAlgorithm::march_cminus(),
        );
        assert_ne!(db.fingerprint(), other.fingerprint());
        assert!(eval.ensure_guard(&db), "the first database arms the guard");
        assert!(!eval.ensure_guard(&db), "the same database keeps it");
        assert!(!eval.ensure_guard(&ComponentDb::new()), "equal fingerprint");
        assert!(eval.ensure_guard(&other), "a different engine re-arms it");
        assert!(eval.ensure_guard(&db), "and so does switching back");
    }

    #[test]
    fn exact_accumulators_admit_only_foldable_values() {
        for area in [0.0, 0.25, 1.5, 1234.75, 3.0 / 256.0, EXACT_AREA_LIMIT] {
            assert!(CarriedFolds::exactly_summable(area), "{area}");
        }
        for area in [0.1, 1.0 / 512.0, -0.25, EXACT_AREA_LIMIT * 2.0, f64::NAN] {
            assert!(!CarriedFolds::exactly_summable(area), "{area}");
        }
        assert!(!CarriedFolds::exactly_summable(f64::INFINITY));
        for path in [0.0, 7.5, f64::INFINITY] {
            assert!(CarriedFolds::orderable_path(path), "{path}");
        }
        assert!(!CarriedFolds::orderable_path(f64::NAN));
        assert!(!CarriedFolds::orderable_path(-0.0));
    }

    #[test]
    fn every_record_area_of_the_paper_space_is_exactly_summable() {
        // The carry only pays when the integer accumulator admits the
        // records a sweep meets; an area off the 2⁻⁸-GE grid would send
        // every point through the ordered scratch refold.
        let db = ComponentDb::new();
        let space = TemplateSpace::paper_default();
        let mut carry = CarriedFolds::new(InterconnectModel::paper());
        let mut seen = std::collections::HashSet::new();
        for i in 0..space.len() {
            assert!(carry.collect_keys(&space.point(i)));
            for &key in &carry.curr_keys {
                if seen.insert(key) {
                    let area = db.get(key).area;
                    assert!(CarriedFolds::exactly_summable(area), "{key:?}: {area}");
                }
            }
        }
        assert!(!seen.is_empty());
    }
}
