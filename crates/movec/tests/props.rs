//! Property-based tests: random DFGs always schedule on valid machines,
//! schedules respect the paper's transport-timing relations, and resource
//! monotonicity holds (more buses never hurt). The scheduler's per-DFG
//! analysis is topological and follows every mutation, and the bus
//! pool's free-cycle jumps agree with a cycle-by-cycle scan.

use proptest::prelude::*;
use tta_arch::template::TemplateBuilder;
use tta_arch::{validate_relations, FuKind};
use tta_movec::ir::{Dfg, Op, ValueId};
use tta_movec::schedule::{Pool, Scheduler};

/// Builds a random (but valid) ALU/CMP-only DFG from proptest choices.
fn build_dfg(ops: &[(u8, u8, u8, u64)]) -> Dfg {
    build_dfg_values(ops).0
}

/// [`build_dfg`], also returning every value it defined.
fn build_dfg_values(ops: &[(u8, u8, u8, u64)]) -> (Dfg, Vec<ValueId>) {
    let mut dfg = Dfg::new(16);
    let mut values: Vec<ValueId> = vec![dfg.input(), dfg.input()];
    for &(kind, a_sel, b_sel, cval) in ops {
        let a = values[a_sel as usize % values.len()];
        let b = values[b_sel as usize % values.len()];
        let v = match kind % 8 {
            0 => dfg.op(Op::Add, &[a, b]),
            1 => dfg.op(Op::Sub, &[a, b]),
            2 => dfg.op(Op::And, &[a, b]),
            3 => dfg.op(Op::Or, &[a, b]),
            4 => dfg.op(Op::Xor, &[a, b]),
            5 => dfg.op(Op::Not, &[a]),
            6 => dfg.op(Op::Ltu, &[a, b]),
            _ => dfg.constant(cval),
        };
        values.push(v);
    }
    let out = *values.last().expect("non-empty");
    dfg.mark_output(out);
    (dfg, values)
}

fn machine(buses: usize, alus: usize, regs: usize) -> tta_arch::Architecture {
    let mut b = TemplateBuilder::new(format!("m{buses}{alus}{regs}"), 16, buses);
    for _ in 0..alus {
        b = b.fu(FuKind::Alu);
    }
    b.fu(FuKind::Cmp)
        .fu(FuKind::Immediate)
        .fu(FuKind::LdSt)
        .fu(FuKind::Pc)
        .rf(regs, 1, 2)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_dfgs_schedule_and_respect_relations(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u64..0xFFFF), 1..40),
        buses in 1usize..4,
        alus in 1usize..3,
    ) {
        let dfg = build_dfg(&ops);
        let arch = machine(buses, alus, 16);
        let s = Scheduler::new(&arch).run(&dfg).expect("schedulable");
        for (fu, transports) in s.transports_per_fu() {
            prop_assert_eq!(validate_relations(transports), Ok(()), "fu {}", fu);
        }
        // Each executed op contributes at least its trigger move.
        prop_assert!(s.moves.len() >= dfg.nodes().iter().filter(|n| n.op.arity() > 0).count());
    }

    #[test]
    fn more_buses_rarely_and_boundedly_slower(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u64..0xFFFF), 4..30),
    ) {
        // Greedy list scheduling exhibits Graham anomalies: adding
        // resources can occasionally lengthen a schedule by a cycle or
        // two. The property we guarantee is *bounded* regression — no
        // resource-scaling cliff.
        let dfg = build_dfg(&ops);
        let mut last = u32::MAX;
        for buses in [1usize, 2, 4] {
            let arch = machine(buses, 2, 16);
            let s = Scheduler::new(&arch).run(&dfg).expect("schedulable");
            let bound = last.saturating_add(last / 4).saturating_add(2);
            prop_assert!(
                s.cycles <= bound,
                "{} buses: {} beyond anomaly bound {} (prev {})",
                buses, s.cycles, bound, last
            );
            last = last.min(s.cycles);
        }
    }

    #[test]
    fn bigger_rf_never_more_spills(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u64..0xFFFF), 4..30),
    ) {
        let dfg = build_dfg(&ops);
        let small = Scheduler::new(&machine(2, 1, 2)).run(&dfg).expect("ok");
        let large = Scheduler::new(&machine(2, 1, 32)).run(&dfg).expect("ok");
        prop_assert!(large.spills <= small.spills);
    }

    #[test]
    fn eval_is_deterministic(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u64..0xFFFF), 1..20),
        a in 0u64..0xFFFF,
        b in 0u64..0xFFFF,
    ) {
        let dfg = build_dfg(&ops);
        let r1 = dfg.eval(&[a, b], &mut [0u64; 4]);
        let r2 = dfg.eval(&[a, b], &mut [0u64; 4]);
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn cached_order_is_topological(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u64..0xFFFF), 1..60),
    ) {
        let dfg = build_dfg(&ops);
        let order = dfg.analysis().order();
        let mut position = vec![usize::MAX; dfg.nodes().len()];
        for (k, &i) in order.iter().enumerate() {
            prop_assert_eq!(position[i], usize::MAX, "node {} listed twice", i);
            position[i] = k;
        }
        prop_assert!(position.iter().all(|&p| p != usize::MAX), "order misses a node");
        for (i, node) in dfg.nodes().iter().enumerate() {
            for a in &node.args {
                prop_assert!(position[a.index()] < position[i], "{} after its consumer {}", a, i);
            }
        }
    }

    #[test]
    fn cached_analysis_follows_mutations_of_a_clone(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0u64..0xFFFF), 1..30),
        extra in (any::<u8>(), any::<u8>()),
        mark in any::<u8>(),
        first_push in any::<bool>(),
    ) {
        let (dfg, values) = build_dfg_values(&ops);
        let before = dfg.analysis().clone();
        let a = values[extra.0 as usize % values.len()];
        let b = values[extra.1 as usize % values.len()];
        let out = values[mark as usize % values.len()];
        // The same mutations on a graph whose analysis was never built.
        let reference = |push: bool, mark: bool| {
            let mut g = build_dfg(&ops);
            if push {
                g.op(Op::Xor, &[a, b]);
            }
            if mark {
                g.mark_output(out);
            }
            g.analysis().clone()
        };
        // The clone carries the built analysis; each mutation must drop
        // it, whichever comes first.
        let mut grown = dfg.clone();
        if first_push {
            grown.op(Op::Xor, &[a, b]);
            prop_assert_eq!(grown.analysis(), &reference(true, false));
            grown.mark_output(out);
        } else {
            grown.mark_output(out);
            prop_assert_eq!(grown.analysis(), &reference(false, true));
            grown.op(Op::Xor, &[a, b]);
        }
        prop_assert_eq!(grown.analysis(), &reference(true, true));
        prop_assert_eq!(dfg.analysis(), &before);
    }

    #[test]
    fn pool_jumps_match_a_linear_scan(
        takes in proptest::collection::vec(0u32..200, 0..400),
        cap in 1usize..4,
    ) {
        let mut pool = Pool::new(cap);
        for &c in &takes {
            if pool.free_at(c) {
                pool.take(c);
            }
        }
        for q in 0u32..260 {
            let next = (q..).find(|&c| pool.free_at(c)).expect("free past the end");
            prop_assert_eq!(pool.next_free(q), next, "next_free({})", q);
            let prev = (0..=q).rev().find(|&c| pool.free_at(c));
            prop_assert_eq!(pool.prev_free(q), prev, "prev_free({})", q);
        }
    }
}
