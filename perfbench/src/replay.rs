//! The traced replay of one sweep.
//!
//! `Exploration::try_run` is one long function with no timers inside,
//! so the replay re-drives a sweep through the layers' public entry
//! points, in the engine's order, and times every call from here:
//!
//! plan (`SearchStrategy::next_batch`) → build points
//! (`TemplateSpace::point`) → batched cache read
//! (`SweepCache::lookup_eval_batch`) → pre-warm
//! (`ComponentDb::warm(keys_of(..))`) → carried folds
//! (`CarriedFolds::advance`) → per point, on the worker threads:
//! schedule (`Scheduler::run`), lower and execute (`tta_sim::lower`,
//! `Simulator::run`), area/clock (the `tta_core::models` folds, or
//! `IncrementalElaborator::advance` plus `timing::min_clock_period`),
//! test cost (the scan model) and write-back (`SweepCache::store_eval`)
//! → flush (`SweepCache::flush`) → archive (`ParetoArchive::try_insert`)
//! → after the walk, the test-axis lift of the front.
//!
//! Two engine stages have no public function of their own. The
//! composition of a point's cache address is rebuilt from the public
//! `Fingerprint`, `arch_fingerprint` and `workload_fingerprint` in the
//! engine's order, so the replay reads and writes the very same entries;
//! rehydrating a cache entry into an evaluated point is re-implemented
//! here and timed inside its `core.eval` span. The replay checks itself:
//! its front must equal the engine's bit for bit, and its cache hit and
//! miss counts must equal the engine's.

use std::path::Path;
use std::sync::{Arc, Mutex};

use tta_arch::template::TemplateSpace;
use tta_arch::{Architecture, InstructionFormat};
use tta_core::cache::{
    arch_fingerprint, workload_fingerprint, EvalEntry, Fingerprint, SweepCache,
    CACHE_ADDRESS_VERSION,
};
use tta_core::explore::{
    CycleSource, EvaluatedArch, FidelityMode, LiftMode, Objective, ObjectiveVector,
    CACHE_FLUSH_CHUNK,
};
use tta_core::models::{
    keys_of, AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel,
    InterconnectModel, NetlistAreaModel, NetlistEvaluator, NetlistTimingModel, ScanTestCostModel,
    TestCostModel, TimingModel,
};
use tta_core::parallel::par_map;
use tta_core::pareto::ParetoArchive;
use tta_core::search::{
    Exhaustive, Observation, RandomSample, SearchState, SearchStrategy, WalkOrder,
};
use tta_core::{CarriedFolds, ComponentDb, ComponentKey, DeltaEvaluator, PointCosts};
use tta_movec::Scheduler;
use tta_netlist::IncrementalElaborator;
use tta_sim::{SimOptions, Simulator};
use tta_workloads::Workload;

use crate::span::{now_ns, Recorder};
use crate::sweep::{Front, SweepSpec, Walk};

/// What a replay produced.
pub struct Replay {
    /// Its front.
    pub front: Front,
    /// Spans and counts.
    pub rec: Recorder,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
    /// The replay cache's own hit counter (0 without a cache).
    pub cache_hits: u64,
    /// The replay cache's own miss counter (0 without a cache).
    pub cache_misses: u64,
}

/// A point's outcome: evaluated, or infeasible (`Some(i)`: suite
/// member `i` failed first; `None`: a non-finite axis).
type Outcome = Result<EvaluatedArch, Option<usize>>;

/// The per-sweep state every stage reads: models, cache and its
/// address bases, and the carried folds.
struct Ctx<'a> {
    spec: &'a SweepSpec,
    db: &'a ComponentDb,
    workloads: Vec<&'a Workload>,
    weights: Vec<f64>,
    /// Each suite member's outputs from its golden model.
    golden: Vec<Vec<u64>>,
    ic: InterconnectModel,
    area: AnnotatedAreaModel,
    timing: AnnotatedTimingModel,
    test: Box<dyn TestCostModel>,
    test_fp: u64,
    /// Present under netlist fidelity; shared by the workers, as the
    /// engine shares one elaborator.
    elaborator: Option<Mutex<IncrementalElaborator>>,
    cache: Option<&'a SweepCache>,
    /// Cache-address bases of eval and test entries (`None` without a
    /// cache).
    eval_base: Option<u64>,
    test_base: Option<u64>,
    /// Present when the engine would carry folds: all three models are
    /// defaults and the strategy walks in neighbour order.
    carry: Option<(CarriedFolds, DeltaEvaluator)>,
    /// Whether a database-backed default model is in effect, which is
    /// when the engine pre-warms.
    uses_db_defaults: bool,
}

impl<'a> Ctx<'a> {
    fn new(
        spec: &'a SweepSpec,
        db: &'a ComponentDb,
        cache: Option<&'a SweepCache>,
        strategy: &dyn SearchStrategy,
    ) -> Self {
        let ic = InterconnectModel::paper();
        let netlist = spec.fidelity == FidelityMode::Netlist;
        let test: Box<dyn TestCostModel> = if spec.scan {
            Box::new(ScanTestCostModel::default())
        } else {
            Box::new(Eq14TestCostModel)
        };
        let test_fp = test.fingerprint().expect("fingerprinted test model");
        let (area_fp, timing_fp) = if netlist {
            let eval = Arc::new(NetlistEvaluator::new());
            (
                NetlistAreaModel::new(ic, Arc::clone(&eval)).fingerprint(),
                NetlistTimingModel::new(ic, eval).fingerprint(),
            )
        } else {
            (
                AnnotatedAreaModel::new(ic).fingerprint(),
                AnnotatedTimingModel::new(ic).fingerprint(),
            )
        };
        let workloads: Vec<&Workload> = spec.suite.iter().map(|m| &m.workload).collect();
        let weights: Vec<f64> = spec.suite.iter().map(|m| m.weight).collect();
        // Cache addresses, composed in the engine's order.
        let salted = |f: Fingerprint| match strategy.cache_salt() {
            None => f,
            Some(salt) => f
                .str("strategy")
                .str(strategy.name())
                .u64(salt)
                .u64(spec.budget as u64)
                .u64(spec.seed),
        };
        let eval_base = cache.map(|_| {
            let base = Fingerprint::new()
                .str("eval")
                .u64(u64::from(CACHE_ADDRESS_VERSION))
                .u64(area_fp.expect("fingerprinted area model"))
                .u64(timing_fp.expect("fingerprinted timing model"))
                .u64(db.fingerprint())
                .u64(workloads.len() as u64);
            let base = workloads
                .iter()
                .zip(&weights)
                .fold(base, |f, (w, &weight)| {
                    f.u64(workload_fingerprint(w)).f64(weight)
                });
            let base = match spec.cycles {
                CycleSource::Model => base,
                CycleSource::Simulate => base.str("cycles").str("simulate"),
            };
            salted(base).finish()
        });
        let test_base = cache.map(|_| {
            salted(
                Fingerprint::new()
                    .str("test")
                    .u64(u64::from(CACHE_ADDRESS_VERSION))
                    .u64(test_fp)
                    .u64(db.fingerprint()),
            )
            .finish()
        });
        let neighbour = strategy.walk_order() == WalkOrder::Neighbour;
        Ctx {
            spec,
            db,
            golden: workloads
                .iter()
                .map(|w| {
                    let mut mem = w.mem.clone();
                    w.dfg.eval(&w.inputs, &mut mem)
                })
                .collect(),
            workloads,
            weights,
            ic,
            area: AnnotatedAreaModel::new(ic),
            timing: AnnotatedTimingModel::new(ic),
            test,
            test_fp,
            elaborator: netlist.then(|| Mutex::new(IncrementalElaborator::new())),
            cache,
            eval_base,
            test_base,
            carry: (!netlist && !spec.scan && neighbour)
                .then(|| (CarriedFolds::new(ic), DeltaEvaluator::new(ic))),
            uses_db_defaults: !netlist || !spec.scan,
        }
    }
}

/// `Σ wᵢ·cᵢ`, summed exactly as the engine sums it.
fn weighted_sum(workload_cycles: &[u64], weights: &[f64]) -> f64 {
    workload_cycles
        .iter()
        .zip(weights)
        .map(|(&c, &w)| w * c as f64)
        .sum()
}

fn point_key(base: u64, arch: &Architecture) -> u64 {
    Fingerprint::new()
        .u64(base)
        .u64(arch_fingerprint(arch))
        .finish()
}

fn evaluated(
    arch: &Architecture,
    cycles: u64,
    workload_cycles: Vec<u64>,
    spills: u32,
    weighted_cycles: f64,
    area: f64,
    exec_time: f64,
) -> EvaluatedArch {
    EvaluatedArch {
        architecture: arch.clone(),
        cycles,
        workload_cycles,
        spills,
        weighted_cycles,
        objectives: ObjectiveVector::new([
            (Objective::Area, area),
            (Objective::ExecTime, exec_time),
        ]),
    }
}

impl Ctx<'_> {
    /// A cache entry back into an outcome; `None` for an entry that does
    /// not fit this suite (the engine re-evaluates those).
    fn rehydrate(&self, arch: &Architecture, entry: EvalEntry) -> Option<Outcome> {
        match entry {
            EvalEntry::Infeasible { blocked } => match blocked {
                None => Some(Err(None)),
                Some(w) if (w as usize) < self.workloads.len() => Some(Err(Some(w as usize))),
                Some(_) => None,
            },
            EvalEntry::Feasible {
                cycles,
                workload_cycles,
                spills,
                area_bits,
                exec_bits,
                test: _,
            } => {
                if workload_cycles.len() != self.workloads.len() {
                    return None;
                }
                let weighted = weighted_sum(&workload_cycles, &self.weights);
                Some(Ok(evaluated(
                    arch,
                    cycles,
                    workload_cycles,
                    spills,
                    weighted,
                    f64::from_bits(area_bits),
                    f64::from_bits(exec_bits),
                )))
            }
        }
    }

    /// Schedules (and, under `--cycles simulate`, executes) every suite
    /// member, then folds the area and clock axes.
    fn evaluate(
        &self,
        arch: &Architecture,
        index: u64,
        staged: Option<PointCosts>,
        r: &mut Recorder,
    ) -> Outcome {
        let mut workload_cycles = Vec::with_capacity(self.workloads.len());
        let mut spills = 0u32;
        for (i, w) in self.workloads.iter().enumerate() {
            r.add("movec.schedules", 1);
            let schedule = r.span("movec.schedule", index, |_| {
                Scheduler::new(arch).run(&w.dfg)
            });
            let Ok(schedule) = schedule else {
                r.add("movec.infeasible", 1);
                return Err(Some(i));
            };
            let trace_cycles = match self.spec.cycles {
                CycleSource::Model => schedule.cycles,
                CycleSource::Simulate => {
                    let lowered = r.span("sim.lower", index, |_| {
                        tta_sim::lower(arch, &w.dfg, &schedule, &w.inputs, &w.mem)
                    });
                    let Ok(program) = lowered else {
                        return Err(Some(i));
                    };
                    let options = SimOptions {
                        allow_register_overflow: true,
                        ..Default::default()
                    };
                    let trace = r.span("sim.run", index, |_| {
                        Simulator::new(arch).options(options).run(&program)
                    });
                    let Ok(trace) = trace else {
                        return Err(Some(i));
                    };
                    r.add("sim.runs", 1);
                    r.add("sim.cycles", trace.cycles);
                    if trace.outputs != self.golden[i] {
                        r.add("sim.golden_mismatches", 1);
                    }
                    match u32::try_from(trace.cycles) {
                        Ok(c) => c,
                        Err(_) => return Err(Some(i)),
                    }
                }
            };
            workload_cycles.push(w.application_cycles(trace_cycles));
            spills += schedule.spills;
        }
        let cycles: u64 = workload_cycles.iter().sum();
        let weighted = weighted_sum(&workload_cycles, &self.weights);
        let (area, clock) = match (staged, &self.elaborator) {
            (Some(costs), _) => (costs.area, costs.clock_period),
            (None, Some(elaborator)) => self.netlist_axes(arch, index, elaborator, r),
            (None, None) => {
                r.add("core.models.folds", 1);
                r.span("core.models.fold", index, |_| {
                    (
                        self.area.area(arch, self.db),
                        self.timing.clock_period(arch, self.db),
                    )
                })
            }
        };
        let exec_time = weighted * clock;
        if !area.is_finite() || !clock.is_finite() || !exec_time.is_finite() {
            return Err(None);
        }
        Ok(evaluated(
            arch,
            cycles,
            workload_cycles,
            spills,
            weighted,
            area,
            exec_time,
        ))
    }

    /// Netlist-fidelity axes: elaborate incrementally (one elaborator
    /// shared by the workers, as in the engine), run the loaded STA,
    /// and add the interconnect terms exactly as the netlist models do.
    fn netlist_axes(
        &self,
        arch: &Architecture,
        index: u64,
        elaborator: &Mutex<IncrementalElaborator>,
        r: &mut Recorder,
    ) -> (f64, f64) {
        let mut elab = elaborator.lock().expect("elaborator poisoned");
        let netlist = r.span("netlist.elaborate", index, |_| {
            elab.advance(arch).map(|nl| {
                let cell_area = nl.area();
                (nl, cell_area)
            })
        });
        let Ok((netlist, cell_area)) = netlist else {
            return (f64::INFINITY, f64::INFINITY);
        };
        r.add("netlist.elaborations", 1);
        let critical_path = r.span("netlist.sta", index, |_| {
            tta_netlist::timing::min_clock_period(&netlist)
        });
        drop(elab);
        let control =
            f64::from(InstructionFormat::of(arch).width()) * self.ic.control_area_per_instr_bit;
        let buses = arch.bus_count() as f64;
        (
            cell_area + control + buses * arch.width as f64 * self.ic.bus_area_per_bit,
            critical_path + buses * self.ic.bus_delay_penalty,
        )
    }

    /// One point as the engine's worker handles it: answered from its
    /// prefetched cache entry when that fits, evaluated otherwise, and
    /// written back under `store` (cache and key) when a cache is
    /// attached.
    fn point(
        &self,
        arch: &Architecture,
        index: u64,
        entry: Option<EvalEntry>,
        staged: Option<PointCosts>,
        store: Option<(&SweepCache, u64)>,
        r: &mut Recorder,
    ) -> Outcome {
        let write = |r: &mut Recorder, outcome: &Outcome, test: Option<(u64, u64)>| {
            if let Some((cache, key)) = store {
                r.add("core.cache.stores", 1);
                r.span("core.cache.store", index, |_| {
                    cache.store_eval(key, dehydrate(outcome, test))
                });
            }
        };
        if self.spec.lift == LiftMode::ParetoOnly {
            if let Some(o) = entry.and_then(|e| self.rehydrate(arch, e)) {
                return o;
            }
            let o = self.evaluate(arch, index, staged, r);
            write(r, &o, None);
            return o;
        }
        // Full lift: a cached entry answers completely only with an
        // inline test total from this test model.
        let inline = match &entry {
            Some(EvalEntry::Feasible { test, .. }) => *test,
            _ => None,
        };
        let e = match entry.and_then(|e| self.rehydrate(arch, e)) {
            Some(Err(why)) => return Err(why),
            Some(Ok(e)) => match inline {
                Some((fp, bits)) if fp == self.test_fp => {
                    return finish_full(e, f64::from_bits(bits));
                }
                _ => e,
            },
            None => match self.evaluate(arch, index, staged, r) {
                Err(why) => {
                    write(r, &Err(why), None);
                    return Err(why);
                }
                Ok(e) => e,
            },
        };
        let total = match staged {
            Some(s) => s.test_total,
            None => self.test_total(arch, index, r),
        };
        let o = Ok(e);
        write(r, &o, Some((self.test_fp, total.to_bits())));
        o.and_then(|e| finish_full(e, total))
    }

    /// The test-axis total of one point.
    fn test_total(&self, arch: &Architecture, index: u64, r: &mut Recorder) -> f64 {
        if self.spec.scan {
            r.add("dft.scan_costs", 1);
            r.span("dft.scan", index, |_| {
                self.test.test_cost(arch, self.db).total
            })
        } else {
            r.add("core.lift.test_costs", 1);
            r.span("core.lift.test_cost", index, |_| {
                self.test.test_cost(arch, self.db).total
            })
        }
    }
}

fn finish_full(mut e: EvaluatedArch, total: f64) -> Outcome {
    if !total.is_finite() {
        return Err(None);
    }
    e.objectives.push(Objective::TestCost, total);
    Ok(e)
}

fn dehydrate(outcome: &Outcome, test: Option<(u64, u64)>) -> EvalEntry {
    match outcome {
        Err(blocked) => EvalEntry::Infeasible {
            blocked: blocked.map(|w| w as u32),
        },
        Ok(e) => EvalEntry::Feasible {
            cycles: e.cycles,
            workload_cycles: e.workload_cycles.clone(),
            spills: e.spills,
            area_bits: e.area().to_bits(),
            exec_bits: e.exec_time().to_bits(),
            test,
        },
    }
}

/// Flushes the cache inside a span, counting the bytes of a flush that
/// rewrote the file.
fn flush(cache: &SweepCache, wrote: bool, rec: &mut Recorder) {
    rec.span("core.cache.flush", 0, |_| cache.flush())
        .expect("cache flush");
    if wrote {
        rec.add("core.cache.flushes", 1);
        let bytes = std::fs::metadata(cache.path()).map_or(0, |m| m.len());
        rec.add("core.cache.bytes_written", bytes);
    }
}

/// Replays `spec` over `db`, with the cache under `cache_dir` when the
/// sweep uses one.
pub fn replay(spec: &SweepSpec, db: &ComponentDb, cache_dir: Option<&Path>) -> Replay {
    let start = now_ns();
    let mut rec = Recorder::new();
    let (front, hits, misses) = rec.span("sweep", 0, |rec| {
        let cache = cache_dir.map(|dir| {
            rec.span("core.cache.open", 0, |_| SweepCache::open(dir))
                .expect("open cache")
        });
        let out = replay_with(spec, db, cache.as_ref(), rec);
        (
            out,
            cache.as_ref().map_or(0, SweepCache::hits),
            cache.as_ref().map_or(0, SweepCache::misses),
        )
    });
    Replay {
        front,
        rec,
        wall_s: (now_ns() - start) as f64 * 1e-9,
        cache_hits: hits,
        cache_misses: misses,
    }
}

fn replay_with(
    spec: &SweepSpec,
    db: &ComponentDb,
    cache: Option<&SweepCache>,
    rec: &mut Recorder,
) -> Front {
    let mut strategy: Box<dyn SearchStrategy> = match spec.walk {
        Walk::Random => Box::new(RandomSample),
        Walk::Gray => Box::new(Exhaustive::neighbour()),
    };
    let mut ctx = Ctx::new(spec, db, cache, &*strategy);
    let space: &TemplateSpace = &spec.space;
    let space_len = space.len();
    let mut state = SearchState::new();
    let mut archive = ParetoArchive::new();
    let mut all: Vec<EvaluatedArch> = Vec::new();
    let mut space_index: Vec<usize> = Vec::new();
    let mut infeasible = 0usize;
    loop {
        let remaining = spec.budget.saturating_sub(state.visited());
        if remaining == 0 {
            break;
        }
        let front_spaces: Vec<usize> = archive.ids().iter().map(|&id| space_index[id]).collect();
        rec.add("core.search.batches", 1);
        let batch = rec.span("core.search.plan", 0, |_| {
            let ctx = state.context(space, spec.seed, remaining, &front_spaces);
            strategy.next_batch(&ctx)
        });
        let mut fresh: Vec<usize> = Vec::new();
        for i in batch {
            if i < space_len && state.claim(i) {
                fresh.push(i);
                if fresh.len() == remaining {
                    break;
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        if strategy.walk_order() == WalkOrder::Neighbour {
            rec.span("core.search.plan", 0, |_| {
                fresh.sort_by_key(|&i| space.neighbour_rank(i));
            });
        }
        state.begin_round();
        for chunk in fresh.chunks(CACHE_FLUSH_CHUNK) {
            let outcomes = rec.span("chunk", chunk[0] as u64, |rec| ctx.chunk(chunk, rec));
            for (&index, outcome) in chunk.iter().zip(outcomes) {
                let objectives = match outcome {
                    Ok(e) => {
                        let id = all.len();
                        rec.add("core.pareto.offered", 1);
                        let joined = rec.span("core.pareto.insert", index as u64, |_| {
                            archive.try_insert(id, e.objectives.values())
                        });
                        rec.add("core.pareto.accepted", u64::from(joined));
                        let objectives = Some((e.area(), e.exec_time()));
                        space_index.push(index);
                        all.push(e);
                        objectives
                    }
                    Err(_) => {
                        infeasible += 1;
                        None
                    }
                };
                state.record(Observation { index, objectives });
            }
        }
        state.finish_round();
    }
    if let Some((carry, _)) = &ctx.carry {
        let (carries, fallbacks) = carry.stats();
        rec.add("core.delta.fold_carries", carries);
        rec.add("core.delta.scratch_fallbacks", fallbacks);
    }

    let pareto = archive.ids();
    rec.add("core.pareto.front", pareto.len() as u64);
    if spec.lift == LiftMode::ParetoOnly {
        rec.span("core.lift", 0, |rec| ctx.lift_front(&pareto, &mut all, rec));
    }
    Front::of(&all, &pareto, infeasible)
}

impl Ctx<'_> {
    /// Whether the cache can answer `key` completely (counter-free).
    fn cached(&self, key: u64) -> bool {
        match (self.cache, self.spec.lift) {
            (Some(c), LiftMode::ParetoOnly) => c.contains_eval(key),
            (Some(c), LiftMode::Full) => c.contains_eval_with_test(key, self.test_fp),
            (None, _) => false,
        }
    }

    /// One 64-point chunk, stage by stage as the engine runs it; the
    /// outcomes come back in chunk order.
    fn chunk(&mut self, chunk: &[usize], rec: &mut Recorder) -> Vec<Outcome> {
        let space = &self.spec.space;
        let archs: Vec<Architecture> = chunk
            .iter()
            .map(|&i| rec.span("arch.point", i as u64, |_| space.point(i)))
            .collect();
        rec.add("arch.points", archs.len() as u64);
        let keys: Option<Vec<u64>> = self
            .eval_base
            .map(|base| archs.iter().map(|a| point_key(base, a)).collect());
        let is_cached: Vec<bool> = match &keys {
            Some(keys) => keys.iter().map(|&k| self.cached(k)).collect(),
            None => vec![false; archs.len()],
        };
        if self.uses_db_defaults {
            let missing = archs.iter().zip(&is_cached).filter(|(_, &c)| !c);
            self.warm(missing.map(|(a, _)| a), rec);
        }
        let staged: Vec<Option<PointCosts>> = match self.carry.as_mut() {
            None => vec![None; archs.len()],
            Some((carry, eval)) => chunk
                .iter()
                .zip(&archs)
                .zip(&is_cached)
                .map(|((&index, arch), &hit)| {
                    if hit {
                        carry.reset();
                        return None;
                    }
                    Some(rec.span("core.delta.advance", index as u64, |_| {
                        carry.advance(arch, space.neighbour_rank(index), eval, self.db)
                    }))
                })
                .collect(),
        };
        let prefetched: Option<Vec<Option<EvalEntry>>> = match (self.cache, &keys) {
            (Some(cache), Some(keys)) => {
                let found = rec.span("core.cache.lookup", chunk[0] as u64, |_| {
                    cache.lookup_eval_batch(keys)
                });
                rec.add("core.cache.lookups", keys.len() as u64);
                let hits = found.iter().filter(|e| e.is_some()).count();
                rec.add("core.cache.hits", hits as u64);
                Some(found)
            }
            _ => None,
        };
        let parent = rec.current();
        let this = &*self;
        let results = par_map(&archs, crate::sweep::THREADS, |k, arch| {
            let index = chunk[k] as u64;
            let entry = prefetched.as_ref().and_then(|p| p[k].clone());
            let store = this.cache.zip(keys.as_ref().map(|keys| keys[k]));
            let mut r = Recorder::child_of(parent);
            let out = r.span("core.eval", index, |r| {
                this.point(arch, index, entry, staged[k], store, r)
            });
            (out, r)
        });
        let mut outcomes = Vec::with_capacity(results.len());
        let mut stored = false;
        for (out, r) in results {
            stored |= r.count("core.cache.stores") > 0;
            rec.absorb(r);
            outcomes.push(out);
        }
        if let Some(cache) = self.cache {
            flush(cache, stored, rec);
        }
        outcomes
    }

    /// The pre-warm stage: annotates, on the worker threads, every
    /// component key of `archs` not annotated yet.
    fn warm<'a>(&self, archs: impl Iterator<Item = &'a Architecture>, rec: &mut Recorder) {
        let mut keys: Vec<ComponentKey> = archs.filter_map(keys_of).flatten().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|&k| !self.db.contains(k));
        rec.add("core.backannotate.keys_annotated", keys.len() as u64);
        let parent = rec.current();
        for r in par_map(&keys, crate::sweep::THREADS, |_, &key| {
            let mut r = Recorder::child_of(parent);
            r.span("core.backannotate.warm", 0, |_| self.db.warm([key]));
            r
        }) {
            rec.absorb(r);
        }
    }

    /// The post-hoc lift: the test axis for every front member, through
    /// the test cache when one is attached.
    fn lift_front(&self, pareto: &[usize], all: &mut [EvaluatedArch], rec: &mut Recorder) {
        let keys: Option<Vec<u64>> = self.test_base.map(|base| {
            pareto
                .iter()
                .map(|&i| point_key(base, &all[i].architecture))
                .collect()
        });
        if self.uses_db_defaults {
            let missing = pareto
                .iter()
                .enumerate()
                .filter(|&(k, _)| match (self.cache, &keys) {
                    (Some(c), Some(keys)) => !c.contains_test(keys[k]),
                    _ => true,
                });
            let archs: Vec<&Architecture> = missing.map(|(_, &i)| &all[i].architecture).collect();
            self.warm(archs.into_iter(), rec);
        }
        let parent = rec.current();
        let evaluated = &*all;
        let totals = par_map(pareto, crate::sweep::THREADS, |k, &i| {
            let mut r = Recorder::child_of(parent);
            let arch = &evaluated[i].architecture;
            let total = match (self.cache, &keys) {
                (Some(cache), Some(keys)) => {
                    r.add("core.cache.lookups", 1);
                    let found = r.span("core.cache.lookup", i as u64, |_| {
                        cache.lookup_test(keys[k])
                    });
                    match found {
                        Some(total) => {
                            r.add("core.cache.hits", 1);
                            total
                        }
                        None => {
                            let total = self.test_total(arch, i as u64, &mut r);
                            r.add("core.cache.stores", 1);
                            r.span("core.cache.store", i as u64, |_| {
                                cache.store_test(keys[k], total)
                            });
                            total
                        }
                    }
                }
                _ => self.test_total(arch, i as u64, &mut r),
            };
            (total, r)
        });
        let mut stored = false;
        for (&i, (total, r)) in pareto.iter().zip(totals) {
            stored |= r.count("core.cache.stores") > 0;
            rec.absorb(r);
            all[i].objectives.push(Objective::TestCost, total);
        }
        if let (Some(cache), Some(_)) = (self.cache, self.test_base) {
            flush(cache, stored, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{copy_cache, seed_cache, Kind};

    /// The replay's front equals the engine's bit for bit on a small
    /// budget of each sweep workload, and with a seeded cache its hit
    /// and miss counts equal the engine's.
    #[test]
    fn replay_front_equals_engine_front() {
        let scratch = crate::test_dir("replay");
        for kind in Kind::ALL {
            let budget = 192;
            let spec = SweepSpec::with_budget(kind, 11, budget);
            let (engine_dir, replay_dir) = (scratch.join("engine"), scratch.join("replay"));
            if let Some(points) = spec.seeded {
                let seed_dir = scratch.join("seed");
                seed_cache(&spec, &seed_dir, points).unwrap();
                copy_cache(&seed_dir, &engine_dir).unwrap();
                copy_cache(&seed_dir, &replay_dir).unwrap();
            }
            let engine_cache = spec.seeded.map(|_| SweepCache::open(&engine_dir).unwrap());
            let db = ComponentDb::new();
            let result = spec.exploration(&db, engine_cache.as_ref(), budget).run();
            let replayed = replay(
                &spec,
                &ComponentDb::new(),
                spec.seeded.map(|_| replay_dir.as_path()),
            );
            assert_eq!(Front::of_result(&result), replayed.front, "{}", kind.name());
            if let Some(cache) = &engine_cache {
                assert!(cache.hits() > 0 && cache.misses() > 0);
                assert_eq!(cache.hits(), replayed.rec.count("core.cache.hits"));
                assert_eq!(
                    cache.misses(),
                    replayed.rec.count("core.cache.lookups")
                        - replayed.rec.count("core.cache.hits")
                );
                assert_eq!(cache.hits(), replayed.cache_hits);
                assert_eq!(cache.misses(), replayed.cache_misses);
                let carried = result.delta.expect("delta engine").fold_carries;
                assert_eq!(carried, replayed.rec.count("core.delta.fold_carries"));
            }
            assert_eq!(replayed.rec.count("sim.golden_mismatches"), 0);
            let _ = std::fs::remove_dir_all(&scratch);
        }
    }
}
