//! Integration tests of the persistent sweep cache: warm-cache runs are
//! bit-identical to cold ones (property-tested over workload/parallelism
//! variations), corrupt or version-mismatched cache files degrade to a
//! clean re-evaluation, unfingerprintable models opt out safely, and the
//! incremental flush writes exactly the bytes of a full render.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_core::cache::{EvalEntry, SweepCache, CACHE_FILE_NAME};
use tta_core::explore::{Exploration, ExploreResult};
use tta_core::models::AreaModel;
use tta_core::search::Exhaustive;
use tta_core::ComponentDb;
use tta_workloads::suite;

/// One shared annotation database so the many small sweeps below pay
/// for the 8-bit component library once.
fn db() -> &'static ComponentDb {
    static DB: OnceLock<ComponentDb> = OnceLock::new();
    DB.get_or_init(ComponentDb::new)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-cache-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_tiny(rounds: usize, parallel: bool, cache: Option<&SweepCache>) -> ExploreResult {
    let w = suite::crypt(rounds);
    let mut e = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .parallel(parallel);
    if let Some(c) = cache {
        e = e.cache(c);
    }
    e.run()
}

/// Bit-exact comparison of two exploration results.
fn assert_bit_identical(a: &ExploreResult, b: &ExploreResult) {
    assert_eq!(a.evaluated.len(), b.evaluated.len());
    assert_eq!(a.infeasible, b.infeasible);
    assert_eq!(a.pareto, b.pareto);
    assert_eq!(a.workloads, b.workloads);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline property: for any workload size and threading mode,
    /// a warm-cache run is bit-identical to the cold run that filled the
    /// cache — and answers entirely from it.
    #[test]
    fn warm_cache_is_bit_identical_to_cold(rounds in 1usize..3, parallel in proptest::bool::ANY) {
        let dir = tmpdir(&format!("prop-{rounds}-{parallel}"));
        let cache = SweepCache::open(&dir).expect("temp dir is writable");
        let cold = run_tiny(rounds, parallel, Some(&cache));
        prop_assert!(cache.misses() > 0, "cold run must evaluate");

        // A fresh handle reloads purely from disk.
        let warm_cache = SweepCache::open(&dir).expect("reopen");
        let warm = run_tiny(rounds, parallel, Some(&warm_cache));
        prop_assert!(warm_cache.misses() == 0, "warm run must not evaluate");
        prop_assert!(warm_cache.hits() > 0);
        assert_bit_identical(&cold, &warm);

        // And the serial/parallel invariant still holds through the cache.
        let flipped = run_tiny(rounds, !parallel, Some(&warm_cache));
        assert_bit_identical(&cold, &flipped);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_cache_degrades_to_clean_reevaluation() {
    let dir = tmpdir("corrupt");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(CACHE_FILE_NAME),
        "ttadse-sweep-cache 1\nE not-hex F bogus\ngarbage line\n",
    )
    .unwrap();
    let cache = SweepCache::open(&dir).expect("open ignores corruption");
    assert!(cache.is_empty(), "corrupt file must load as empty");
    let with_cache = run_tiny(1, false, Some(&cache));
    let without = run_tiny(1, false, None);
    assert_bit_identical(&with_cache, &without);
    // The re-evaluation replaced the corrupt file with a valid one.
    let reloaded = SweepCache::open(&dir).expect("reopen");
    assert!(!reloaded.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_degrades_to_clean_reevaluation() {
    let dir = tmpdir("version");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(CACHE_FILE_NAME),
        "ttadse-sweep-cache 999\nE 0000000000000001 I\n",
    )
    .unwrap();
    let cache = SweepCache::open(&dir).expect("open ignores future versions");
    assert!(cache.is_empty());
    let with_cache = run_tiny(1, false, Some(&cache));
    let without = run_tiny(1, false, None);
    assert_bit_identical(&with_cache, &without);
    let _ = fs::remove_dir_all(&dir);
}

/// Number of sweep-evaluation (`E`) entries in the flushed cache file.
fn eval_entries(cache: &SweepCache) -> usize {
    fs::read_to_string(cache.path())
        .expect("flushed")
        .lines()
        .filter(|l| l.starts_with("E "))
        .count()
}

#[test]
fn changed_workload_misses_instead_of_serving_stale_results() {
    let dir = tmpdir("stale");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let first = run_tiny(1, false, Some(&cache));
    let n1 = eval_entries(&cache);
    assert_eq!(n1, first.evaluated.len() + first.infeasible);
    // Two crypt rounds are a different trace: every point gets a fresh
    // evaluation entry instead of a stale hit. (Test-cost lifts *are*
    // shared — they depend on the architecture, not the workload.)
    let second = run_tiny(2, false, Some(&cache));
    assert_eq!(
        eval_entries(&cache),
        n1 + second.evaluated.len() + second.infeasible,
        "each workload suite owns its evaluation entries"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn run_weighted(weights: (f64, f64), parallel: bool, cache: Option<&SweepCache>) -> ExploreResult {
    let a = suite::crypt(1);
    let b = suite::checksum32();
    let mut e = Exploration::over(TemplateSpace::tiny())
        .workload_weighted(&a, weights.0)
        .workload_weighted(&b, weights.1)
        .with_db(db())
        .parallel(parallel);
    if let Some(c) = cache {
        e = e.cache(c);
    }
    e.run()
}

#[test]
fn weighted_suites_are_warm_cold_bit_identical() {
    let dir = tmpdir("weighted");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let cold = run_weighted((3.0, 0.5), false, Some(&cache));
    assert!(cache.misses() > 0, "cold run must evaluate");

    let warm_cache = SweepCache::open(&dir).expect("reopen");
    let warm = run_weighted((3.0, 0.5), true, Some(&warm_cache));
    assert_eq!(warm_cache.misses(), 0, "warm run must not evaluate");
    assert_bit_identical(&cold, &warm);
    // Per-workload feasibility blame replays from the cache too.
    assert_eq!(cold.blocked, warm.blocked);
    for (x, y) in cold.evaluated.iter().zip(&warm.evaluated) {
        assert_eq!(x.weighted_cycles.to_bits(), y.weighted_cycles.to_bits());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_blocked_index_degrades_to_clean_reevaluation() {
    // A well-formed cache line whose blocked-workload payload is out of
    // range for the suite must be re-evaluated, not trusted (it would
    // otherwise index past the per-workload accounting).
    let run = |cache: Option<&SweepCache>| {
        // dct8 needs a MUL and tiny() has none: every point is
        // infeasible with the workload itself to blame, so the cache
        // holds `I 0` entries we can point out of range.
        let w = suite::dct8();
        let mut e = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(db());
        if let Some(c) = cache {
            e = e.cache(c);
        }
        e.run()
    };
    let dir = tmpdir("badblocked");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let clean = run(Some(&cache));
    assert!(clean.infeasible > 0 && clean.blocked == vec![clean.infeasible]);
    let text = fs::read_to_string(cache.path()).expect("flushed");
    assert!(text.contains(" I 0"), "expected blamed entries:\n{text}");
    fs::write(cache.path(), text.replace(" I 0", " I 7")).unwrap();

    let reopened = SweepCache::open(&dir).expect("reopen");
    let replayed = run(Some(&reopened));
    assert_bit_identical(&clean, &replayed);
    assert_eq!(clean.blocked, replayed.blocked);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reweighting_a_suite_misses_instead_of_serving_stale_results() {
    let dir = tmpdir("reweight");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let first = run_weighted((1.0, 1.0), false, Some(&cache));
    let n1 = eval_entries(&cache);
    // Same workloads, different weights: the exec-time axis changes, so
    // the content address must change with it.
    let second = run_weighted((1.0, 4.0), false, Some(&cache));
    assert_eq!(
        eval_entries(&cache),
        n1 + second.evaluated.len() + second.infeasible,
        "each weighting owns its evaluation entries"
    );
    for (x, y) in first.evaluated.iter().zip(&second.evaluated) {
        assert_eq!(x.workload_cycles, y.workload_cycles);
        assert!(y.exec_time() > x.exec_time(), "upweighting slows the axis");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unfingerprintable_model_bypasses_the_eval_cache() {
    struct FlatArea;
    impl AreaModel for FlatArea {
        fn area(&self, _: &Architecture, _: &ComponentDb) -> f64 {
            42.0
        }
        // No fingerprint() override: the default None opts out.
    }
    let dir = tmpdir("optout");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let w = suite::crypt(1);
    let first = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .area_model(FlatArea)
        .cache(&cache)
        .run();
    // Evaluations must not be cached (the area model is opaque); the
    // default test-cost model is fingerprintable, so lifts still are —
    // and that is sound, because a lift depends only on the
    // architecture, the test model and the annotation engines.
    let text = fs::read_to_string(cache.path()).expect("flushed");
    assert!(
        !text.lines().any(|l| l.starts_with("E ")),
        "no eval entries for an unfingerprintable model:\n{text}"
    );
    assert_eq!(
        text.lines().filter(|l| l.starts_with("T ")).count(),
        first.pareto.len(),
        "test lifts are still content-addressable"
    );
    // A second run is correct (and still flat-area).
    let second = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .area_model(FlatArea)
        .cache(&cache)
        .run();
    assert_bit_identical(&first, &second);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_sweep_reads_the_cache_once_per_chunk_not_per_point() {
    // Regression guard for the batched-prefetch path: the sweep loop
    // must issue ONE cache read per 64-point chunk (plus one per front
    // point for the test-cost lift), never one per point.
    let dir = tmpdir("reads");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let space = TemplateSpace::fast_default();
    let points = space.len();
    let w = suite::crypt(1);
    let result = Exploration::over(space)
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .run();
    let chunks = points.div_ceil(64) as u64;
    let lifts = result.pareto.len() as u64;
    assert_eq!(
        cache.reads(),
        chunks + lifts,
        "expected one batched read per chunk ({chunks}) plus one lift \
         probe per front point ({lifts}), for {points} points"
    );
    assert!(
        cache.reads() < points as u64,
        "reads must not scale per-point"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cross_space_points_share_entries() {
    // tiny() is a subset of fast_default(): a fast-space sweep must
    // pre-populate every tiny-space point.
    let dir = tmpdir("subset");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let w = suite::crypt(1);
    Exploration::over(TemplateSpace::fast_default())
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .run();
    let n = eval_entries(&cache);
    let h0 = cache.hits();
    run_tiny(1, false, Some(&cache));
    assert!(
        cache.hits() > h0,
        "tiny points were cached by the fast sweep"
    );
    assert_eq!(
        eval_entries(&cache),
        n,
        "no tiny point should re-evaluate (its front may still lift fresh test entries)"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_chunked_sweep_renders_each_stored_line_once() {
    // Regression guard for the incremental flush: a 256-point walk
    // persists four 64-point chunks plus the lifted front. Rendering the
    // whole cache on every flush would render several times as many; the
    // incremental flush renders each stored line exactly once.
    let dir = tmpdir("rendered");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let w = suite::checksum32();
    let result = Exploration::over(TemplateSpace::huge())
        .workload(&w)
        .with_db(db())
        .strategy(Exhaustive::neighbour())
        .budget(256)
        .cache(&cache)
        .run();
    assert_eq!(result.search.evaluations, 256);
    let stored = cache.len() as u64;
    // Some walked points share a content address, so there are fewer
    // entries than points.
    assert!(eval_entries(&cache) > 3 * 64, "the walk spans four chunks");
    assert_eq!(
        cache.rendered(),
        stored,
        "each of the {stored} stored lines must be rendered once, not once per flush"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A model entry of the differential flush test.
#[derive(Debug, Clone, PartialEq)]
enum Model {
    Eval(EvalEntry),
    Test(f64),
}

/// Model key: `(is_test, key)`, so evaluations and test lifts of one
/// address stay distinct, as in the cache.
type ModelMap = BTreeMap<(bool, u64), Model>;

/// Spreads a small index over the key space (and so over every shard
/// and hex digit); a bijection, so distinct indices never collide.
fn spread(i: u64) -> u64 {
    (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One evaluation entry of each shape, picked and filled from `seed`:
/// feasible with and without the inline test pair, infeasible with and
/// without a blamed workload.
fn eval_entry(seed: u64) -> EvalEntry {
    match seed % 4 {
        0 | 1 => EvalEntry::Feasible {
            cycles: seed >> 40,
            workload_cycles: (0..(seed >> 3) % 4)
                .map(|i| (seed >> (8 + i)) & 0xffff)
                .collect(),
            spills: ((seed >> 5) % 7) as u32,
            area_bits: seed.rotate_left(7),
            exec_bits: seed.rotate_left(19),
            test: (seed % 4 == 1).then(|| (seed.rotate_left(31), seed ^ 0x5555)),
        },
        2 => EvalEntry::Infeasible { blocked: None },
        _ => EvalEntry::Infeasible {
            blocked: Some(((seed >> 4) % 9) as u32),
        },
    }
}

fn store(cache: &SweepCache, key: (bool, u64), value: &Model) {
    match value {
        Model::Eval(e) => cache.store_eval(key.1, e.clone()),
        Model::Test(t) => cache.store_test(key.1, *t),
    }
}

/// The bytes a *full* render of `entries` produces: a fresh cache in a
/// scratch directory, every entry stored, flushed once.
fn full_render(entries: &ModelMap) -> Vec<u8> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = tmpdir(&format!("oracle-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
    let oracle = SweepCache::open(&dir).expect("temp dir is writable");
    for (key, value) in entries {
        store(&oracle, *key, value);
    }
    oracle.flush().expect("oracle flush");
    let bytes = fs::read(oracle.path()).expect("oracle file");
    let _ = fs::remove_dir_all(&dir);
    bytes
}

/// Asserts the shared file holds exactly the full render of `file`.
fn assert_file_renders(path: &Path, file: &ModelMap) -> Result<(), TestCaseError> {
    match fs::read(path) {
        Ok(bytes) => prop_assert!(
            bytes == full_render(file),
            "flushed bytes differ from a full render of {} entries",
            file.len()
        ),
        Err(_) => prop_assert!(file.is_empty(), "no file, yet {} entries", file.len()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental flush is byte-identical to a full render, through
    /// overwrites, both entry kinds, reopening, invalidation, and a
    /// second cache on the same directory whose flushes force the
    /// disk-merge path. `file` models the file's entries; `mem` models
    /// the cache under test (memory wins a merge, as in `flush`).
    #[test]
    fn incremental_flush_matches_a_full_render(
        ops in proptest::collection::vec((0u8..16, 0u64..24, any::<u64>()), 1..80)
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = tmpdir(&format!("diff-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let mut cache = SweepCache::open(&dir).expect("temp dir is writable");
        let (mut mem, mut file) = (ModelMap::new(), ModelMap::new());
        let mut dirty = false;
        let mut other_keys = 1_000u64;
        for (op, index, seed) in ops {
            match op {
                0..=6 => {
                    let key = (false, spread(index));
                    let value = Model::Eval(eval_entry(seed));
                    store(&cache, key, &value);
                    mem.insert(key, value);
                    dirty = true;
                }
                7..=9 => {
                    let key = (true, spread(index));
                    let value = Model::Test(f64::from_bits(seed));
                    store(&cache, key, &value);
                    mem.insert(key, value);
                    dirty = true;
                }
                10..=12 => {
                    cache.flush().expect("flush");
                    if dirty {
                        for (k, v) in &file {
                            mem.entry(*k).or_insert_with(|| v.clone());
                        }
                        file = mem.clone();
                        dirty = false;
                    }
                    assert_file_renders(cache.path(), &file)?;
                }
                13 => {
                    // Another writer adds fresh keys of its own, so the
                    // file grows and the next flush must merge from disk.
                    let other = SweepCache::open(&dir).expect("reopen");
                    for _ in 0..=seed % 3 {
                        let key = (false, spread(other_keys));
                        other_keys += 1;
                        let value = Model::Eval(eval_entry(seed.rotate_left(other_keys as u32)));
                        store(&other, key, &value);
                        file.insert(key, value);
                    }
                    other.flush().expect("other flush");
                    assert_file_renders(cache.path(), &file)?;
                }
                14 => {
                    // Reopen: pending entries never flushed are lost,
                    // and the first flush after open renders in full.
                    cache = SweepCache::open(&dir).expect("reopen");
                    mem = file.clone();
                    dirty = false;
                }
                _ => {
                    cache.invalidate().expect("invalidate");
                    mem.clear();
                    file.clear();
                    dirty = false;
                    assert_file_renders(cache.path(), &file)?;
                }
            }
        }
        cache.flush().expect("final flush");
        if dirty {
            for (k, v) in &file {
                mem.entry(*k).or_insert_with(|| v.clone());
            }
            file = mem.clone();
        }
        assert_file_renders(cache.path(), &file)?;
        let _ = fs::remove_dir_all(&dir);
    }
}
