//! Differential tests of the carried folds ([`tta_core::CarriedFolds`]).
//!
//! The headline guarantee: a sweep with the default models, which
//! carries its folds along Gray walks, is **bit-identical** to the
//! scratch oracle — the same default models installed explicitly, which
//! turns the carry off and folds every point through the models —
//! objectives, Pareto front, blocked accounting, cache addresses, even
//! the flushed cache file — across spaces, strategies, seeds, lift
//! modes, cycle sources and test models. These tests enforce it on exact
//! `f64` bit patterns, plus the staleness guarantee: a carry never folds
//! records from a database whose fingerprint has changed.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use tta_arch::template::TemplateSpace;
use tta_atpg::AtpgConfig;
use tta_core::explore::{CycleSource, Exploration, ExploreResult, LiftMode};
use tta_core::models::{
    AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel, InterconnectModel,
    ScanTestCostModel, TestCostModel, TimingModel,
};
use tta_core::search::{
    Exhaustive, HillClimb, RandomSample, SearchContext, SearchStrategy, WalkOrder,
};
use tta_core::{CarriedFolds, ComponentDb, DeltaEvaluator, DeltaStats, SweepCache};
use tta_dft::march::MarchAlgorithm;
use tta_workloads::suite;

/// One shared annotation database so the many sweeps below pay for the
/// 8-bit component library once.
fn db() -> &'static ComponentDb {
    static DB: OnceLock<ComponentDb> = OnceLock::new();
    DB.get_or_init(ComponentDb::new)
}

/// A small *hierarchical* space: every PR-8 knob class (interconnect
/// clustering, per-FU pipelining, RF banking) takes more than one value,
/// so the carried-fold retract/apply pairs see cluster-, pipe- and
/// bank-dependent component keys — 64 points, cheap enough to sweep
/// exhaustively against the oracle.
fn hier_space() -> TemplateSpace {
    TemplateSpace {
        width: 8,
        buses: vec![1, 2],
        clusters: vec![1, 2],
        alus: vec![1, 2],
        cmps: vec![1],
        muls: vec![0, 1],
        imms: vec![1],
        pipes: vec![1, 2],
        rf_banks: vec![1, 2],
        rf_sets: vec![vec![(8, 1, 2)]],
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-delta-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Bit-exact comparison of two exploration results, including the front
/// and the per-workload feasibility blame.
fn assert_bit_identical(a: &ExploreResult, b: &ExploreResult) {
    assert_eq!(a.evaluated.len(), b.evaluated.len());
    assert_eq!(a.infeasible, b.infeasible);
    assert_eq!(a.pareto, b.pareto);
    assert_eq!(a.blocked, b.blocked);
    for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
        assert_eq!(x.architecture.name, y.architecture.name);
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.workload_cycles, y.workload_cycles);
        assert_eq!(x.spills, y.spills);
        assert_eq!(x.objectives.axes(), y.objectives.axes());
        let xb: Vec<u64> = x.objectives.values().iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.objectives.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "objective bits differ for {}", x.architecture.name);
    }
}

/// A pipeline over `space`: with the default models (`oracle` false),
/// or with the scratch oracle — the same default models installed
/// explicitly, which turns the carried folds off. Later custom model
/// calls still replace the oracle's slots.
fn over(space: TemplateSpace, oracle: bool) -> Exploration<'static> {
    let e = Exploration::over(space);
    if !oracle {
        return e;
    }
    let ic = InterconnectModel::paper();
    e.models(
        AnnotatedAreaModel::new(ic),
        AnnotatedTimingModel::new(ic),
        Eq14TestCostModel,
    )
}

/// Builds the sweep both ways and checks bit-identity.
fn assert_modes_agree(build: impl Fn(bool) -> Exploration<'static>) {
    let scratch = build(true).run();
    let delta = build(false).run();
    assert_bit_identical(&scratch, &delta);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Default models == the scratch oracle, bit for bit, over random
    /// strategies, seeds, budgets, lift modes and threading.
    #[test]
    fn delta_equals_scratch_across_strategies(
        strategy in 0usize..4,
        seed in 0u64..1000,
        budget in 4usize..24,
        full_lift in proptest::bool::ANY,
        parallel in proptest::bool::ANY,
    ) {
        let build = move |oracle: bool| {
            let w = suite::crypt(1);
            let lift = if full_lift { LiftMode::Full } else { LiftMode::ParetoOnly };
            let e = over(TemplateSpace::fast_default(), oracle)
                .workload(&w)
                .with_db(db())
                .lift(lift)
                .parallel(parallel)
                .seed(seed);
            match strategy {
                0 => e.strategy(Exhaustive),
                1 => e.strategy(Exhaustive::neighbour()),
                2 => e.strategy(RandomSample).budget(budget),
                _ => e.strategy(HillClimb::default()).budget(budget),
            }
        };
        let scratch = build(true).run();
        let delta = build(false).run();
        assert_bit_identical(&scratch, &delta);
    }
}

#[test]
fn delta_equals_scratch_on_weighted_suites_and_simulated_cycles() {
    let a = suite::crypt(1);
    let b = suite::checksum32();
    assert_modes_agree(|oracle| {
        over(TemplateSpace::tiny(), oracle)
            .workload_weighted(&a, 2.5)
            .workload_weighted(&b, 0.5)
            .with_db(db())
            .cycle_source(CycleSource::Simulate)
    });
}

#[test]
fn delta_equals_scratch_under_a_custom_test_model() {
    // ScanTestCostModel is a *custom* model slot: it replaces the
    // oracle's eq.-14 slot, and the remaining default axes must still
    // match the explicit models bit-for-bit.
    assert_modes_agree(|oracle| {
        let w = suite::crypt(1);
        over(TemplateSpace::tiny(), oracle)
            .workload(&w)
            .with_db(db())
            .test_cost_model(ScanTestCostModel::with_chains(2))
            .lift(LiftMode::Full)
    });
}

/// Default and explicitly installed default models share one cache
/// namespace: same addresses, same entries, byte-identical flushed
/// files — and a warm default run answers entirely from the oracle's
/// cache.
#[test]
fn delta_and_scratch_share_byte_identical_cache_files() {
    let w = suite::crypt(1);
    let run = |oracle: bool, cache: &SweepCache| {
        over(TemplateSpace::fast_default(), oracle)
            .workload(&w)
            .with_db(db())
            .cache(cache)
            .run()
    };
    let dir_s = tmpdir("scratch");
    let dir_d = tmpdir("delta");
    let cache_s = SweepCache::open(&dir_s).expect("temp dir is writable");
    let cache_d = SweepCache::open(&dir_d).expect("temp dir is writable");
    let scratch = run(true, &cache_s);
    let delta = run(false, &cache_d);
    assert_bit_identical(&scratch, &delta);
    let file_s = fs::read(cache_s.path()).expect("scratch cache flushed");
    let file_d = fs::read(cache_d.path()).expect("delta cache flushed");
    assert_eq!(file_s, file_d, "cache files must be byte-identical");

    // Cross-warm: a default run over the oracle's cache hits everything.
    let warm = SweepCache::open(&dir_s).expect("reopen");
    let replay = run(false, &warm);
    assert_eq!(warm.misses(), 0, "warm default run must not evaluate");
    assert!(warm.hits() > 0);
    assert_bit_identical(&scratch, &replay);
    let _ = fs::remove_dir_all(&dir_s);
    let _ = fs::remove_dir_all(&dir_d);
}

/// An interrupted (budgeted) run resumed over the same cache finishes
/// bit-identical to an uninterrupted scratch sweep.
#[test]
fn resumed_delta_run_matches_uninterrupted_scratch() {
    let w = suite::crypt(1);
    let dir = tmpdir("resume");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let space = TemplateSpace::fast_default();
    let half = space.len() / 2;
    Exploration::over(space.clone())
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .budget(half)
        .run();
    let resumed = Exploration::over(space.clone())
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .run();
    let oracle = over(space, true).workload(&w).with_db(db()).run();
    assert_bit_identical(&resumed, &oracle);
    let _ = fs::remove_dir_all(&dir);
}

/// Neighbour-order evaluation visits the same points with the same
/// per-point results and writes a byte-identical cache file — only the
/// visit order (and hence result indices) differs.
#[test]
fn neighbour_walk_matches_enumeration_order_point_for_point() {
    let w = suite::crypt(1);
    let run = |neighbour: bool, cache: &SweepCache| {
        let e = Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(db())
            .cache(cache);
        if neighbour {
            e.strategy(Exhaustive::neighbour()).run()
        } else {
            e.strategy(Exhaustive).run()
        }
    };
    let dir_e = tmpdir("enum-order");
    let dir_n = tmpdir("gray-order");
    let cache_e = SweepCache::open(&dir_e).expect("temp dir is writable");
    let cache_n = SweepCache::open(&dir_n).expect("temp dir is writable");
    let plain = run(false, &cache_e);
    let gray = run(true, &cache_n);

    assert_eq!(plain.evaluated.len(), gray.evaluated.len());
    assert_eq!(plain.infeasible, gray.infeasible);
    // Same per-point bits, matched by architecture name.
    let by_name = |r: &ExploreResult| {
        let mut v: Vec<(String, Vec<u64>)> = r
            .evaluated
            .iter()
            .map(|e| {
                (
                    e.architecture.name.clone(),
                    e.objectives.values().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(by_name(&plain), by_name(&gray));
    // Same front, as a set of architectures.
    let front_names = |r: &ExploreResult| {
        let mut v: Vec<String> = r
            .pareto
            .iter()
            .map(|&i| r.evaluated[i].architecture.name.clone())
            .collect();
        v.sort();
        v
    };
    assert_eq!(front_names(&plain), front_names(&gray));
    // Same cache namespace (salt None) ⇒ byte-identical files.
    assert_eq!(
        fs::read(cache_e.path()).expect("flushed"),
        fs::read(cache_n.path()).expect("flushed"),
        "visit order must not leak into cache addresses"
    );
    let _ = fs::remove_dir_all(&dir_e);
    let _ = fs::remove_dir_all(&dir_n);
}

/// Staleness is caught: a carry advanced under one database and then
/// under another (different engine fingerprint) refolds at the switch,
/// even though the step is rank-adjacent, and every axis equals the new
/// database's scratch models bit for bit.
#[test]
fn carry_refolds_when_the_database_fingerprint_changes() {
    let db_sweep = ComponentDb::new();
    // Different ATPG profile ⇒ different engine fingerprint.
    let db_deep = ComponentDb::with_engines(AtpgConfig::default(), MarchAlgorithm::march_cminus());
    assert_ne!(db_sweep.fingerprint(), db_deep.fingerprint());

    let ic = InterconnectModel::paper();
    let eval = DeltaEvaluator::new(ic);
    let mut carry = CarriedFolds::new(ic);
    let space = hier_space();
    let mut at = |rank: usize, db: &ComponentDb| {
        let arch = space.point(space.neighbour_index(rank));
        let got = carry.advance(&arch, rank, &eval, db);
        let want = (
            AnnotatedAreaModel::new(ic).area(&arch, db),
            AnnotatedTimingModel::new(ic).clock_period(&arch, db),
            Eq14TestCostModel.test_cost(&arch, db).total,
        );
        assert_eq!(
            (
                got.area.to_bits(),
                got.clock_period.to_bits(),
                got.test_total.to_bits()
            ),
            (want.0.to_bits(), want.1.to_bits(), want.2.to_bits()),
            "rank {rank}"
        );
        carry.stats()
    };
    assert_eq!(at(0, &db_sweep), (0, 1));
    assert_eq!(at(1, &db_sweep), (1, 1));
    assert_eq!(at(2, &db_sweep), (2, 1));
    // Rank 3 follows rank 2, but its database is a different one.
    assert_eq!(at(3, &db_deep), (2, 2), "the switch must refold");
    assert_eq!(at(4, &db_deep), (3, 2), "the new database carries again");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Default models == the scratch oracle, bit for bit, over the
    /// *hierarchical* space — clusters, per-FU pipelining and RF banking all vary, so
    /// the carried-fold retract/apply pairs touch every new knob class —
    /// across strategies, seeds, budgets, lift modes, threading and the
    /// scan test model.
    #[test]
    fn delta_equals_scratch_on_the_hierarchical_space(
        strategy in 0usize..4,
        seed in 0u64..1000,
        budget in 4usize..16,
        full_lift in proptest::bool::ANY,
        parallel in proptest::bool::ANY,
        scan in proptest::bool::ANY,
    ) {
        let build = move |oracle: bool| {
            let w = suite::checksum32();
            let lift = if full_lift { LiftMode::Full } else { LiftMode::ParetoOnly };
            let mut e = over(hier_space(), oracle)
                .workload(&w)
                .with_db(db())
                .lift(lift)
                .parallel(parallel)
                .seed(seed);
            if scan {
                e = e.test_cost_model(ScanTestCostModel::with_chains(2));
            }
            match strategy {
                0 => e.strategy(Exhaustive),
                1 => e.strategy(Exhaustive::neighbour()),
                2 => e.strategy(RandomSample).budget(budget),
                _ => e.strategy(HillClimb::default()).budget(budget),
            }
        };
        let scratch = build(true).run();
        let delta = build(false).run();
        assert_bit_identical(&scratch, &delta);
    }
}

/// A budget-interrupted Gray-code walk over the hierarchical space,
/// resumed over the same cache, finishes bit-identical to an
/// uninterrupted scratch sweep — cache hits reset the carry instead of
/// advancing a stale one.
#[test]
fn budget_interrupted_neighbour_walk_resumes_bit_identically() {
    let w = suite::checksum32();
    let dir = tmpdir("hier-resume");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let space = hier_space();
    let half = space.len() / 2;
    Exploration::over(space.clone())
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .strategy(Exhaustive::neighbour())
        .budget(half)
        .run();
    let resumed = Exploration::over(space.clone())
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .strategy(Exhaustive::neighbour())
        .run();
    let oracle = over(space, true)
        .workload(&w)
        .with_db(db())
        .strategy(Exhaustive::neighbour())
        .run();
    assert_bit_identical(&resumed, &oracle);
    let _ = fs::remove_dir_all(&dir);
}

/// A deliberately *discontinuous* neighbour-order strategy: it asks for
/// Gray-walk evaluation order but proposes a rank gap — the shape a
/// budget-truncated, re-sorted batch leaves behind. The carried-fold
/// engine must refold from scratch at the gap rather than advance a
/// stale carry, and stay bit-identical to the oracle.
#[derive(Clone)]
struct GappedNeighbourWalk {
    proposed: bool,
}

impl SearchStrategy for GappedNeighbourWalk {
    fn name(&self) -> &'static str {
        "gapped-neighbour"
    }
    fn cache_salt(&self) -> Option<u64> {
        Some(0x6a70)
    }
    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize> {
        if self.proposed {
            return Vec::new();
        }
        self.proposed = true;
        // Two contiguous Gray-rank runs with a hole between them.
        [0usize, 1, 2, 10, 11, 12]
            .into_iter()
            .map(|rank| ctx.space().neighbour_index(rank))
            .collect()
    }
    fn walk_order(&self) -> WalkOrder {
        WalkOrder::Neighbour
    }
}

#[test]
fn walk_discontinuity_falls_back_to_a_scratch_refold() {
    let w = suite::checksum32();
    let run = |oracle: bool| {
        over(TemplateSpace::huge(), oracle)
            .workload(&w)
            .with_db(db())
            .strategy(GappedNeighbourWalk { proposed: false })
            .run()
    };
    let delta = run(false);
    let scratch = run(true);
    assert_bit_identical(&scratch, &delta);
    let stats = delta.delta.expect("every run reports stats");
    assert_eq!(
        stats.scratch_fallbacks, 2,
        "rank 0 (no predecessor) and the gap at rank 10 must refold"
    );
    assert_eq!(stats.fold_carries, 4, "the contiguous steps must carry");
    assert_eq!(
        scratch.delta,
        Some(DeltaStats::default()),
        "explicit models never carry"
    );
}

/// The PR-8 headline path end to end: a seeded, budgeted Gray-code walk
/// over the 2^20-point hierarchical space. The proposal is a contiguous
/// rank prefix, so the carried-fold engine must take the O(1) carry on
/// every step after the first — and agree with the scratch oracle bit
/// for bit.
#[test]
fn budgeted_huge_space_walk_is_bit_identical_and_carries_every_step() {
    let w = suite::checksum32();
    let run = |oracle: bool| {
        over(TemplateSpace::huge(), oracle)
            .workload(&w)
            .with_db(db())
            .strategy(Exhaustive::neighbour())
            .budget(256)
            .seed(7)
            .run()
    };
    let delta = run(false);
    let scratch = run(true);
    assert_bit_identical(&scratch, &delta);
    assert_eq!(delta.search.evaluations, 256);
    let stats = delta.delta.expect("delta stats");
    assert_eq!(stats.fold_carries, 255);
    assert_eq!(stats.scratch_fallbacks, 1);
}
