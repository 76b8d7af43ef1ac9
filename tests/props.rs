//! Property-based tests (proptest) over the whole stack: randomly
//! composed loop programs must verify, execute deterministically, and
//! satisfy the limit-study invariants under every model/configuration;
//! the cost models and predictors must satisfy their algebraic bounds.

use lp_interp::{Exec, ExecUnit};
use lp_ir::builder::FunctionBuilder;
use lp_ir::{Global, Module, Type, ValueId};
use lp_predict::{HybridPredictor, LastValue, Predictor, Stride};
use lp_runtime::model::{doall_cost, helix_cost, pdoall_cost, Segment};
use lp_runtime::{
    evaluate, evaluate_explained, evaluate_explained_with, evaluate_with, profile_module,
    sweep_points, Config, EvalOptions, ExecModel, IterSet, Jobs, RegionKind, SweepPoint, SweepUnit,
};
use lp_suite::kernels::counted_loop;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Range;

#[path = "../crates/runtime/tests/oracle/mod.rs"]
mod oracle;

#[path = "../crates/runtime/tests/oracle/tracker.rs"]
mod ref_tracker;

/// Records every resolved phi and its value, in execution order.
#[derive(Debug, Default)]
struct PhiRecorder(Vec<(ValueId, lp_interp::Value)>);

impl lp_interp::EventSink for PhiRecorder {
    fn phi_resolved(
        &mut self,
        _func: lp_ir::FuncId,
        _block: lp_ir::BlockId,
        phi: ValueId,
        value: lp_interp::Value,
        _now: u64,
    ) {
        self.0.push((phi, value));
    }
}

/// One randomly chosen loop in a generated program.
#[derive(Debug, Clone)]
enum LoopSpec {
    /// DOALL: `a[i] = f(i)`.
    Fill { n: i64, mul: i64 },
    /// Reduction: `s += a[i]`.
    Sum { n: i64 },
    /// Carried LCG: unpredictable register LCD.
    Lcg { n: i64, seed: i64 },
    /// Shared-cell read-modify-write: frequent memory LCD.
    Cell { n: i64 },
    /// Nested: outer DOALL over inner reduction.
    Nested { outer: i64, inner: i64 },
}

/// One segment per length.
fn each(lens: &[u64]) -> impl Iterator<Item = Segment> + '_ {
    lens.iter().map(|&len| (len, 1))
}

/// One range per member.
fn ranges(members: &[u32]) -> Vec<Range<u32>> {
    members.iter().map(|&k| k..k + 1).collect()
}

fn loop_spec() -> impl Strategy<Value = LoopSpec> {
    prop_oneof![
        (2i64..60, 1i64..100).prop_map(|(n, mul)| LoopSpec::Fill { n, mul }),
        (2i64..60).prop_map(|n| LoopSpec::Sum { n }),
        (2i64..40, 1i64..1_000_000).prop_map(|(n, seed)| LoopSpec::Lcg { n, seed }),
        (2i64..40).prop_map(|n| LoopSpec::Cell { n }),
        (2i64..12, 2i64..12).prop_map(|(outer, inner)| LoopSpec::Nested { outer, inner }),
    ]
}

/// Builds a runnable module from a list of loop specs.
fn build_program(specs: &[LoopSpec]) -> Module {
    let mut module = Module::new("prop");
    let array = module.add_global(Global::zeroed("a", 256));
    let cell = module.add_global(Global::zeroed("c", 2));
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let base = fb.global_addr(array);
    let cellp = fb.global_addr(cell);
    let mut checksum = fb.const_i64(0);
    for spec in specs {
        let v: ValueId = match *spec {
            LoopSpec::Fill { n, mul } => {
                let nn = fb.const_i64(n.min(200));
                let m = fb.const_i64(mul);
                counted_loop(&mut fb, nn, &[], |fb, i, _| {
                    let t = fb.mul(i, m);
                    let idx = fb.srem(i, nn);
                    let a = fb.gep(base, idx, 8, 0);
                    fb.store(t, a);
                    vec![]
                });
                fb.const_i64(n)
            }
            LoopSpec::Sum { n } => {
                let nn = fb.const_i64(n.min(200));
                let z = fb.const_i64(0);
                let phis = counted_loop(&mut fb, nn, &[(Type::I64, z)], |fb, i, phis| {
                    let idx = fb.srem(i, nn);
                    let a = fb.gep(base, idx, 8, 0);
                    let v = fb.load(Type::I64, a);
                    vec![fb.add(phis[0], v)]
                });
                phis[0]
            }
            LoopSpec::Lcg { n, seed } => {
                let nn = fb.const_i64(n);
                let s = fb.const_i64(seed);
                let phis = counted_loop(&mut fb, nn, &[(Type::I64, s)], |fb, _i, phis| {
                    let k = fb.const_i64(6364136223846793005u64 as i64);
                    let c = fb.const_i64(1442695040888963407u64 as i64);
                    let t = fb.mul(phis[0], k);
                    vec![fb.add(t, c)]
                });
                phis[0]
            }
            LoopSpec::Cell { n } => {
                let nn = fb.const_i64(n);
                let one = fb.const_i64(1);
                counted_loop(&mut fb, nn, &[], |fb, _i, _| {
                    let v = fb.load(Type::I64, cellp);
                    let v2 = fb.add(v, one);
                    fb.store(v2, cellp);
                    vec![]
                });
                fb.load(Type::I64, cellp)
            }
            LoopSpec::Nested { outer, inner } => {
                let on = fb.const_i64(outer);
                let inn = fb.const_i64(inner);
                let z = fb.const_i64(0);
                let phis = counted_loop(&mut fb, on, &[(Type::I64, z)], |fb, _o, ophis| {
                    let acc = counted_loop(fb, inn, &[(Type::I64, ophis[0])], |fb, j, iphis| {
                        let idx = fb.srem(j, inn);
                        let a = fb.gep(base, idx, 8, 0);
                        let v = fb.load(Type::I64, a);
                        vec![fb.add(iphis[0], v)]
                    });
                    vec![acc[0]]
                });
                phis[0]
            }
        };
        checksum = fb.xor(checksum, v);
    }
    fb.ret(Some(checksum));
    module.add_function(fb.finish().expect("generated program is complete"));
    module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_programs_verify_and_run_deterministically(
        specs in prop::collection::vec(loop_spec(), 1..6)
    ) {
        let module = build_program(&specs);
        prop_assert!(lp_ir::verify_module(&module).is_ok());
        prop_assert!(lp_analysis::verify_ssa(&module).is_ok());
        let run = |m: &Module| {
            let unit = ExecUnit::new(m);
            Exec::new(&unit).run(&[]).unwrap().result
        };
        let r1 = run(&module);
        let r2 = run(&module);
        prop_assert_eq!(r1.ret, r2.ret);
        prop_assert_eq!(r1.cost, r2.cost);
    }

    #[test]
    fn generated_profiles_are_well_formed_and_speedups_bounded(
        specs in prop::collection::vec(loop_spec(), 1..5)
    ) {
        let module = build_program(&specs);
        let analysis = lp_analysis::analyze_module(&module);
        let (profile, run) =
            profile_module(&module, &analysis, &[], lp_interp::MachineConfig::default()).unwrap();
        prop_assert_eq!(profile.total_cost, run.cost);
        // Region tree invariants.
        for region in &profile.regions {
            prop_assert!(region.start <= region.end);
            for &c in &region.children {
                let child = profile.region(c);
                prop_assert!(child.start >= region.start);
                prop_assert!(child.end <= region.end);
            }
            if let RegionKind::Loop(inst) = &region.kind {
                let mut prev = region.start;
                for s in inst.timeline.starts() {
                    prop_assert!(s >= prev || s == prev);
                    prev = s;
                }
                let conflicts: Vec<u32> = inst.mem_conflict_iters.iter().collect();
                for w in conflicts.windows(2) {
                    prop_assert!(w[0] < w[1], "conflict iters sorted");
                }
                for c in conflicts {
                    prop_assert!((c as usize) < inst.iterations());
                }
            }
        }
        // Bounds for every model/config pair.
        for model in ExecModel::all() {
            for config in Config::all() {
                let r = evaluate(&profile, model, config);
                prop_assert!(r.speedup >= 0.999);
                prop_assert!(r.best_cost <= r.total_cost);
                prop_assert!((0.0..=100.0).contains(&r.coverage));
            }
        }
    }

    #[test]
    fn generated_profiles_match_the_reference_tracker(
        specs in prop::collection::vec(loop_spec(), 1..5),
        cactus_stack in any::<bool>()
    ) {
        // The production profiler on bc against the reference tracker on
        // the tree walk (crates/runtime/tests/tracker_oracle.rs does the
        // same over the suite).
        let module = build_program(&specs);
        let analysis = lp_analysis::analyze_module(&module);
        let options = lp_runtime::ProfilerOptions { cactus_stack };
        let (got, _) = lp_runtime::profile_module_with(
            &module,
            &analysis,
            &[],
            lp_interp::MachineConfig::default(),
            options,
        )
        .unwrap();
        let (want, _) = ref_tracker::reference_profile(&module, &analysis, options).unwrap();
        ref_tracker::assert_same_profile(&want, &got, "generated");
    }

    #[test]
    fn shared_arc_profile_evaluates_identically_to_fresh_profile(
        specs in prop::collection::vec(loop_spec(), 1..5)
    ) {
        // Profile once, evaluate many must be invisible: evaluating one
        // profile from several `sweep_points` workers must equal
        // evaluating on a profile taken by an independent fresh run, for
        // every model and configuration.
        let module = build_program(&specs);
        let analysis = lp_analysis::analyze_module(&module);
        let (cached, _) =
            profile_module(&module, &analysis, &[], lp_interp::MachineConfig::default()).unwrap();
        let (fresh, _) =
            profile_module(&module, &analysis, &[], lp_interp::MachineConfig::default()).unwrap();
        let units = [SweepUnit::from_profile(cached)];
        let points: Vec<SweepPoint> = ExecModel::all()
            .into_iter()
            .flat_map(|model| {
                Config::all()
                    .into_iter()
                    .map(move |config| SweepPoint { unit: 0, model, config })
            })
            .collect();
        let swept = sweep_points(&units, &points, Jobs::new(2), EvalOptions::default());
        for (p, report) in points.iter().zip(&swept) {
            let reference = evaluate(&fresh, p.model, p.config);
            prop_assert_eq!(
                format!("{reference:?}"),
                format!("{report:?}"),
                "{} {}",
                p.model,
                p.config
            );
        }
    }

    #[test]
    fn limiter_attribution_conserves_gaps_and_matches_plain_eval(
        specs in prop::collection::vec(loop_spec(), 1..5)
    ) {
        let module = build_program(&specs);
        let analysis = lp_analysis::analyze_module(&module);
        let (profile, _) =
            profile_module(&module, &analysis, &[], lp_interp::MachineConfig::default()).unwrap();
        for model in ExecModel::all() {
            for config in Config::all() {
                // Asking for an explanation must not change the answer.
                let plain = evaluate(&profile, model, config);
                let (explained, attr) = evaluate_explained(&profile, model, config);
                prop_assert_eq!(format!("{plain:?}"), format!("{explained:?}"));
                // Conservation: per loop and for the program, limiter
                // weights sum exactly to the gap above the ideal cost.
                for l in &attr.loops {
                    prop_assert!(l.ideal_cost <= l.best_cost, "{}", l.location());
                    prop_assert!(l.best_cost <= l.serial_adj, "{}", l.location());
                    prop_assert_eq!(l.gap, l.best_cost - l.ideal_cost);
                    let sum: u64 = l.limiters.iter().map(|x| x.weight).sum();
                    prop_assert_eq!(sum, l.gap, "weights must conserve the gap");
                    for lim in &l.limiters {
                        prop_assert!(lim.weight <= lim.savings.max(l.gap));
                    }
                }
                let total: u64 = attr.limiters.iter().map(|x| x.weight).sum();
                prop_assert_eq!(total, attr.total_gap());
            }
        }
    }

    #[test]
    fn evaluation_matches_the_reference_fold_on_truncated_profiles(
        specs in prop::collection::vec(loop_spec(), 0..4),
        outer in 2i64..6,
        inner in 2i64..6,
        cuts in prop::collection::vec((prop_oneof![Just(0usize), 0usize..64], 0usize..3), 0..4),
        cores in prop_oneof![Just(None), (1u32..5).prop_map(Some)],
        doacross_single_sync in any::<bool>()
    ) {
        // A nested loop always leads, so there are children to clamp.
        let mut specs = specs;
        specs.insert(0, LoopSpec::Nested { outer, inner });
        let module = build_program(&specs);
        let analysis = lp_analysis::analyze_module(&module);
        let (mut profile, _) =
            profile_module(&module, &analysis, &[], lp_interp::MachineConfig::default()).unwrap();
        // Cut some instances short: to zero iterations, or to one or two
        // so that children of later iterations clamp to the last one.
        // Pick 0 is the leading nested loop's outer instance.
        let loops: Vec<usize> = profile
            .loop_instances()
            .map(|(rid, _, _)| rid.index())
            .collect();
        for (pick, keep) in cuts {
            let r = loops[pick % loops.len()];
            if let RegionKind::Loop(inst) = &mut profile.regions[r].kind {
                inst.timeline.truncate(keep);
            }
        }
        let options = EvalOptions { doacross_single_sync, cores };
        for model in ExecModel::all() {
            for config in Config::all() {
                let want = oracle::evaluate_explained(&profile, model, config, options);
                let plain = evaluate_with(&profile, model, config, options);
                prop_assert_eq!(format!("{plain:?}"), format!("{:?}", want.0), "{} {}", model, config);
                let explained = evaluate_explained_with(&profile, model, config, options);
                prop_assert_eq!(format!("{explained:?}"), format!("{want:?}"), "{} {}", model, config);
            }
        }
    }

    #[test]
    fn pdoall_cost_is_bounded_by_max_and_sum(
        lens in prop::collection::vec(1u64..1000, 1..50),
        conflict_bits in prop::collection::vec(any::<bool>(), 50)
    ) {
        let n = lens.len();
        let conflicts: Vec<u32> = (1..n as u32)
            .filter(|&k| conflict_bits[k as usize % conflict_bits.len()])
            .collect();
        let max = *lens.iter().max().unwrap();
        let sum: u64 = lens.iter().sum();
        if let Some(cost) = pdoall_cost(each(&lens), &ranges(&conflicts), false, None) {
            prop_assert!(cost >= max, "cost {cost} < max {max}");
            prop_assert!(cost <= sum, "cost {cost} > serial {sum}");
        } else {
            // Marked sequential: only if conflicts exceed the 80% rule.
            prop_assert!(conflicts.len() as f64 > 0.8 * n as f64);
        }
        // No conflicts => identical to DOALL.
        prop_assert_eq!(pdoall_cost(each(&lens), &[], false, None), doall_cost(each(&lens), false, false, None));
    }

    #[test]
    fn helix_cost_matches_formula(
        lens in prop::collection::vec(1u64..1000, 1..50),
        delta in 0u64..500
    ) {
        let max = *lens.iter().max().unwrap();
        let cost = helix_cost(each(&lens), delta, false, None).unwrap();
        prop_assert_eq!(cost, max + delta * lens.len() as u64);
        prop_assert!(helix_cost(each(&lens), delta, true, None).is_none());
    }

    #[test]
    fn more_conflicts_never_speed_up_pdoall(
        lens in prop::collection::vec(1u64..100, 2..40),
        k in 1usize..10
    ) {
        let n = lens.len() as u32;
        let some: Vec<u32> = (1..n).step_by(k + 1).collect();
        let all: Vec<u32> = (1..n).collect();
        let c_none = pdoall_cost(each(&lens), &[], false, None).unwrap();
        if let Some(c_some) = pdoall_cost(each(&lens), &ranges(&some), false, None) {
            prop_assert!(c_some >= c_none);
            if let Some(c_all) = pdoall_cost(each(&lens), &ranges(&all), false, None) {
                prop_assert!(c_all >= c_some);
            }
        }
    }

    #[test]
    fn hybrid_predictor_dominates_components(stream in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut hybrid = HybridPredictor::new();
        let mut last = LastValue::new();
        let mut stride = Stride::new();
        let (mut h, mut l, mut s) = (0u64, 0u64, 0u64);
        for &v in &stream {
            if last.predict() == Some(v) { l += 1; }
            if stride.predict() == Some(v) { s += 1; }
            last.update(v);
            stride.update(v);
            if hybrid.observe(v) { h += 1; }
        }
        prop_assert!(h >= l, "hybrid {h} < last-value {l}");
        prop_assert!(h >= s, "hybrid {h} < stride {s}");
        prop_assert_eq!(hybrid.stats().observed, stream.len() as u64);
    }

    #[test]
    fn scev_induction_classification_matches_runtime_evolution(
        start in -1000i64..1000,
        step in -50i64..50,
        trips in 2i64..40
    ) {
        // Build `for i in 0..trips { x += step }` with x starting at
        // `start`: SCEV must classify x as computable, and the observed
        // phi stream (via a trace) must be exactly the affine sequence.
        let mut module = Module::new("scev");
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let n = fb.const_i64(trips);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let x0 = fb.const_i64(start);
        let stepc = fb.const_i64(step);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let x = fb.phi(Type::I64);
        let c = fb.icmp(lp_ir::IcmpPred::Slt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.add(i, one);
        let x2 = fb.add(x, stepc);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(x, lp_ir::BlockId::ENTRY, x0);
        fb.add_phi_incoming(x, body, x2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(x));
        module.add_function(fb.finish().expect("complete"));

        // Compile-time claim: both header phis are computable.
        let analysis = lp_analysis::analyze_module(&module);
        let fa = &analysis.functions[0];
        prop_assert_eq!(fa.loops.len(), 1);
        for (_, class) in &fa.lcds[0].phis {
            prop_assert!(class.is_computable(), "{class:?}");
        }

        // Runtime check: the traced phi stream equals the closed form.
        let mut sink = PhiRecorder::default();
        let unit = ExecUnit::new(&module);
        let r = Exec::new(&unit).sink(&mut sink).run(&[]).unwrap().result;
        prop_assert_eq!(
            r.ret,
            lp_interp::Value::I(start.wrapping_add(step.wrapping_mul(trips)))
        );
        let xs: Vec<i64> = sink
            .0
            .iter()
            .filter_map(|&(phi, v)| match v {
                lp_interp::Value::I(v) if phi == x => Some(v),
                _ => None,
            })
            .collect();
        // Iteration k (0-based) sees x = start + step*k; plus the final
        // header entry that exits the loop.
        prop_assert_eq!(xs.len() as i64, trips + 1);
        for (k, &v) in xs.iter().enumerate() {
            prop_assert_eq!(v, start.wrapping_add(step.wrapping_mul(k as i64)));
        }
    }

    #[test]
    fn memory_reads_what_it_wrote(
        writes in prop::collection::vec((0u64..512, any::<u64>()), 1..100)
    ) {
        let mut mem = lp_interp::Memory::new();
        let mut shadow = std::collections::HashMap::new();
        for (slot, value) in &writes {
            let addr = lp_interp::GLOBAL_BASE + slot * 8;
            mem.write(addr, *value).unwrap();
            shadow.insert(addr, *value);
        }
        for (addr, value) in shadow {
            prop_assert_eq!(mem.read(addr).unwrap(), value);
        }
    }
}

proptest! {
    // Cheap cases, and the edges are rare: more of them than above.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn segment_costs_match_the_per_iteration_oracle(
        segments in prop::collection::vec(
            (prop_oneof![Just(0u64), 0u64..40], prop_oneof![0u32..4, 1u32..3000]),
            0..8
        ),
        runs in prop::collection::vec((0u64..1000, 1u32..20), 0..12),
        edge in 0u8..6,
        core_pick in 0u8..5,
        delta in prop_oneof![Just(0u64), 0u64..1_000_000]
    ) {
        let lens: Vec<u64> = segments
            .iter()
            .flat_map(|&(len, count)| std::iter::repeat_n(len, count as usize))
            .collect();
        let n = lens.len() as u32;
        // Conflicting iterations in streaks spread over 0 ..= n + 3, then
        // an edge: iteration 0, iterations at and past n, exactly the 80%
        // limit or one past it, or the first and last iterations.
        let mut members: BTreeSet<u32> = runs
            .iter()
            .flat_map(|&(at, len)| {
                let lo = (at * u64::from(n + 4) / 1000) as u32;
                lo..lo + len
            })
            .collect();
        let limit = (f64::from(n) * lp_runtime::model::PDOALL_CONFLICT_LIMIT) as usize;
        match edge {
            1 => {
                members.insert(0);
            }
            2 => members.extend(n..n + 3),
            3 | 4 => {
                let want = limit + usize::from(edge == 4);
                members = members.into_iter().take(want).collect();
                let mut fill = 0u32..;
                while members.len() < want {
                    members.extend(fill.next());
                }
            }
            5 => members.extend([0, n.saturating_sub(1)]),
            _ => {}
        }
        let conflicts: Vec<u32> = members.into_iter().collect();
        let set: IterSet = conflicts.iter().copied().collect();
        let conflict_ranges: Vec<Range<u32>> = set.ranges().collect();
        let cores = match core_pick {
            0 => None,
            1..=3 => Some(u32::from(core_pick)),
            _ => Some(n + 1),
        };

        let doall = (n > 0).then(|| oracle::wave_cost(&lens, cores));
        prop_assert_eq!(doall_cost(segments.iter().copied(), false, false, cores), doall);
        prop_assert_eq!(doall_cost(segments.iter().copied(), true, false, cores), None);
        prop_assert_eq!(
            pdoall_cost(segments.iter().copied(), &conflict_ranges, false, cores),
            oracle::pdoall_cost(&lens, &conflicts, false, cores),
            "{} conflicts of {} iterations", conflicts.len(), n
        );
        prop_assert_eq!(
            helix_cost(segments.iter().copied(), delta, false, cores),
            oracle::helix_cost(&lens, delta, false, cores)
        );
        prop_assert_eq!(helix_cost(segments.iter().copied(), delta, true, cores), None);
    }
}
