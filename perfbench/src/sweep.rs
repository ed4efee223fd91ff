//! The three sweep workloads: how each is configured from its seed, set
//! up, run through the engine, and checked.

use std::path::{Path, PathBuf};

use tta_arch::template::TemplateSpace;
use tta_core::cache::{SweepCache, CACHE_FILE_NAME};
use tta_core::explore::{
    CycleSource, EvaluatedArch, Exploration, ExploreResult, FidelityMode, LiftMode, Objective,
};
use tta_core::models::ScanTestCostModel;
use tta_core::pareto::pareto_front_reference;
use tta_core::search::{Exhaustive, RandomSample};
use tta_core::ComponentDb;
use tta_workloads::{SuiteParams, SuiteRegistry, WeightedWorkload};

use crate::span::now_ns;

/// Worker threads of every sweep (the benchmark machine has two cores).
pub const THREADS: usize = 2;

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seeded random sample of the huge space, suite `all`, no cache.
    HugeRandom,
    /// Gray walk of the huge space, suite `paper`, over a cache seeded
    /// with the first three quarters of the walk.
    GrayCached,
    /// Gray walk of the huge space, suite `all`, netlist fidelity,
    /// simulated cycles, full lift with the scan test model.
    GrayFidelity,
}

impl Kind {
    /// Every sweep workload.
    pub const ALL: [Kind; 3] = [Kind::HugeRandom, Kind::GrayCached, Kind::GrayFidelity];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HugeRandom => "huge_random",
            Kind::GrayCached => "gray_cached",
            Kind::GrayFidelity => "gray_fidelity",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Points one sweep visits.
    pub fn budget(self) -> usize {
        match self {
            Kind::HugeRandom => 3000,
            Kind::GrayCached => 8192,
            Kind::GrayFidelity => 1280,
        }
    }
}

/// How the sweep picks its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// `RandomSample`, seeded with the workload seed.
    Random,
    /// `Exhaustive::neighbour()`: the Gray walk from rank 0.
    Gray,
}

/// A fully resolved sweep: everything the engine and the replay need.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The template space.
    pub space: TemplateSpace,
    /// The weighted workload suite.
    pub suite: Vec<WeightedWorkload>,
    /// Point selection.
    pub walk: Walk,
    /// Points visited.
    pub budget: usize,
    /// Strategy seed.
    pub seed: u64,
    /// Test-axis lift.
    pub lift: LiftMode,
    /// Cycle source.
    pub cycles: CycleSource,
    /// Area/clock source.
    pub fidelity: FidelityMode,
    /// Whether the scan test model replaces eq. (14).
    pub scan: bool,
    /// Points of the walk seeded into the cache during set-up (`None`:
    /// the sweep runs without a cache).
    pub seeded: Option<usize>,
}

/// SplitMix64: the benchmark's own seeded generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Instantiates a standard suite at fast sizing (the huge space is
/// 8-bit, so the CLI sizes its workloads the same way). With
/// `perturb`, each member's weight is multiplied by a seeded factor in
/// {1, 1.125, …, 1.875}, so every seed asks for a different front over
/// the same walk.
fn suite(name: &str, seed: u64, perturb: bool) -> Vec<WeightedWorkload> {
    let mut members = SuiteRegistry::standard()
        .instantiate(name, &SuiteParams::fast())
        .expect("standard suite");
    if perturb {
        let mut state = seed;
        for m in &mut members {
            m.weight *= 1.0 + (splitmix(&mut state) % 8) as f64 / 8.0;
        }
    }
    members
}

impl SweepSpec {
    /// The workload's sweep for `seed` at its standard budget.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Self::with_budget(kind, seed, kind.budget())
    }

    /// The workload's sweep for `seed`, visiting `budget` points.
    pub fn with_budget(kind: Kind, seed: u64, budget: usize) -> Self {
        let base = SweepSpec {
            space: TemplateSpace::huge(),
            suite: Vec::new(),
            walk: Walk::Gray,
            budget,
            seed,
            lift: LiftMode::ParetoOnly,
            cycles: CycleSource::Model,
            fidelity: FidelityMode::Table,
            scan: false,
            seeded: None,
        };
        match kind {
            Kind::HugeRandom => SweepSpec {
                suite: suite("all", seed, false),
                walk: Walk::Random,
                ..base
            },
            Kind::GrayCached => SweepSpec {
                suite: suite("paper", seed, true),
                seeded: Some(budget * 3 / 4),
                ..base
            },
            Kind::GrayFidelity => SweepSpec {
                suite: suite("all", seed, true),
                lift: LiftMode::Full,
                cycles: CycleSource::Simulate,
                fidelity: FidelityMode::Netlist,
                scan: true,
                ..base
            },
        }
    }

    /// The engine configured for this sweep over `db`, optionally with
    /// a cache and a per-chunk progress observer.
    pub fn exploration<'a>(
        &'a self,
        db: &'a ComponentDb,
        cache: Option<&'a SweepCache>,
        budget: usize,
    ) -> Exploration<'a> {
        let mut e = Exploration::over(self.space.clone())
            .suite(&self.suite)
            .with_db(db)
            .lift(self.lift)
            .cycle_source(self.cycles)
            .fidelity(self.fidelity)
            .parallel(true)
            .threads(THREADS)
            .budget(budget)
            .seed(self.seed);
        e = match self.walk {
            Walk::Random => e.strategy(RandomSample),
            Walk::Gray => e.strategy(Exhaustive::neighbour()),
        };
        if self.scan {
            e = e.test_cost_model(ScanTestCostModel::default());
        }
        if let Some(cache) = cache {
            e = e.cache(cache);
        }
        e
    }
}

/// One front member, with every float as its bit pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontPoint {
    /// Architecture name.
    pub name: String,
    /// Objective coordinates, `f64::to_bits`.
    pub objectives: Vec<u64>,
    /// Aggregate cycles.
    pub cycles: u64,
    /// Per-workload cycles.
    pub workload_cycles: Vec<u64>,
}

/// A sweep's outcome as the checks compare it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Front {
    /// Front members in ascending evaluation order.
    pub points: Vec<FrontPoint>,
    /// Feasible points visited.
    pub feasible: usize,
    /// Infeasible points visited.
    pub infeasible: usize,
}

impl Front {
    /// The front of `pareto` (indices into `evaluated`).
    pub fn of(evaluated: &[EvaluatedArch], pareto: &[usize], infeasible: usize) -> Front {
        Front {
            points: pareto
                .iter()
                .map(|&i| {
                    let e = &evaluated[i];
                    FrontPoint {
                        name: e.architecture.name.clone(),
                        objectives: e.objectives.values().iter().map(|v| v.to_bits()).collect(),
                        cycles: e.cycles,
                        workload_cycles: e.workload_cycles.clone(),
                    }
                })
                .collect(),
            feasible: evaluated.len(),
            infeasible,
        }
    }

    /// The front of an engine result.
    pub fn of_result(result: &ExploreResult) -> Front {
        Front::of(&result.evaluated, &result.pareto, result.infeasible)
    }

    /// FNV-1a over a canonical byte rendering of the front.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(&(self.feasible as u64).to_le_bytes());
        eat(&(self.infeasible as u64).to_le_bytes());
        for p in &self.points {
            eat(p.name.as_bytes());
            eat(&[0xff]);
            for v in p
                .objectives
                .iter()
                .chain([&p.cycles])
                .chain(&p.workload_cycles)
            {
                eat(&v.to_le_bytes());
            }
        }
        h
    }
}

/// Whether `pareto_front_reference` over the result's sweep axes picks
/// exactly the engine's front.
pub fn reference_agrees(result: &ExploreResult) -> bool {
    let axes: &[Objective] = match result.lift {
        LiftMode::ParetoOnly => &[Objective::Area, Objective::ExecTime],
        LiftMode::Full => &[Objective::Area, Objective::ExecTime, Objective::TestCost],
    };
    let points: Option<Vec<Vec<f64>>> = result
        .evaluated
        .iter()
        .map(|e| e.objectives.project(axes).map(|v| v.values().to_vec()))
        .collect();
    points.is_some_and(|p| pareto_front_reference(&p) == result.pareto)
}

/// Seeds a cache under `dir` with the first `points` of the sweep, as
/// an earlier run of the same configuration would have left it.
pub fn seed_cache(spec: &SweepSpec, dir: &Path, points: usize) -> std::io::Result<()> {
    let db = ComponentDb::new();
    let cache = SweepCache::open(dir)?;
    spec.exploration(&db, Some(&cache), points).run();
    cache.flush()
}

/// Copies the cache file of `from` into a fresh directory `to`.
pub fn copy_cache(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    std::fs::copy(from.join(CACHE_FILE_NAME), to.join(CACHE_FILE_NAME)).map(|_| ())
}

/// Everything one timed sweep needs, built during set-up.
pub struct Prepared {
    /// The sweep.
    pub spec: SweepSpec,
    /// A fresh annotation database.
    pub db: ComponentDb,
    /// The seeded cache directory, when the sweep uses one.
    pub cache_dir: Option<PathBuf>,
}

/// Set-up of one sweep: build the suite, construct the database and,
/// for `gray_cached`, seed a fresh cache directory under `dir`.
pub fn prepare(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<Prepared> {
    let spec = SweepSpec::new(kind, seed);
    let db = ComponentDb::new();
    let cache_dir = match spec.seeded {
        Some(points) => {
            seed_cache(&spec, dir, points)?;
            Some(dir.to_path_buf())
        }
        None => None,
    };
    Ok(Prepared {
        spec,
        db,
        cache_dir,
    })
}

/// One untraced engine sweep.
pub struct EngineRun {
    /// The engine's result.
    pub result: ExploreResult,
    /// Time to a finished front, cache open and flushes included.
    pub sweep_s: f64,
    /// Latency of each 64-point chunk, milliseconds: from the sweep
    /// start (or the previous chunk's progress report) to its report.
    pub chunk_ms: Vec<f64>,
    /// Cache hits (0 without a cache).
    pub hits: u64,
    /// Cache misses (0 without a cache).
    pub misses: u64,
}

impl Prepared {
    /// Runs the sweep through `Exploration::run`.
    pub fn run(&self) -> std::io::Result<EngineRun> {
        let start = now_ns();
        let cache = match &self.cache_dir {
            Some(dir) => Some(SweepCache::open(dir)?),
            None => None,
        };
        let mut marks: Vec<u64> = Vec::new();
        let result = self
            .spec
            .exploration(&self.db, cache.as_ref(), self.spec.budget)
            .progress(|_| marks.push(now_ns()))
            .run();
        let end = now_ns();
        let chunk_ms = std::iter::once(start)
            .chain(marks.iter().copied())
            .zip(&marks)
            .map(|(a, &b)| (b - a) as f64 * 1e-6)
            .collect();
        Ok(EngineRun {
            sweep_s: (end - start) as f64 * 1e-9,
            chunk_ms,
            hits: cache.as_ref().map_or(0, SweepCache::hits),
            misses: cache.as_ref().map_or(0, SweepCache::misses),
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_point_set_and_suite() {
        for kind in Kind::ALL {
            let a = SweepSpec::with_budget(kind, 7, 96);
            let b = SweepSpec::with_budget(kind, 7, 96);
            let weights = |s: &SweepSpec| s.suite.iter().map(|m| m.weight).collect::<Vec<_>>();
            assert_eq!(weights(&a), weights(&b));
            let db = ComponentDb::new();
            let ra = a.exploration(&db, None, 96).run();
            let rb = b.exploration(&db, None, 96).run();
            let names = |r: &ExploreResult| {
                r.evaluated
                    .iter()
                    .map(|e| e.architecture.name.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&ra), names(&rb), "{}", kind.name());
            assert_eq!(
                Front::of_result(&ra).digest(),
                Front::of_result(&rb).digest()
            );
            assert!(reference_agrees(&ra), "{}", kind.name());
        }
    }

    #[test]
    fn seeds_change_what_is_asked() {
        let a = SweepSpec::with_budget(Kind::GrayCached, 1, 64);
        let b = SweepSpec::with_budget(Kind::GrayCached, 2, 64);
        assert_ne!(a.suite[0].weight, b.suite[0].weight);
        let db = ComponentDb::new();
        let sample = |seed| {
            let s = SweepSpec::with_budget(Kind::HugeRandom, seed, 32);
            let r = s.exploration(&db, None, 32).run();
            r.evaluated
                .iter()
                .map(|e| e.architecture.name.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(sample(1), sample(2));
    }
}
