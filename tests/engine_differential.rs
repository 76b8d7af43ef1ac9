//! Differential validation of the bytecode engine against the tree-walk
//! oracle: for every suite kernel — and for randomly generated loop
//! programs — `--engine bc` must be *observationally identical* to
//! `--engine tree`. Identity is checked at the strongest level we have:
//! the profile store codec (`encode_entry`) serializes the complete
//! profile (region tree, loop instances, conflict iterations, predictor
//! stats) plus the run result, so byte-equal encodings mean the two
//! engines emitted the same events in the same order with the same
//! stamps. The replay pipeline is exercised end-to-end under `bc` at
//! 1/2/8 workers and compared structurally to the tree run (wall-clock
//! fields aside).

use lp_analysis::{analyze_module, LoopId, ModuleAnalysis};
use lp_interp::{Engine, Exec, ExecUnit, MachineConfig, MeteredSink};
use lp_ir::builder::FunctionBuilder;
use lp_ir::{BlockId, FuncId, Global, IcmpPred, Module, Type};
use lp_runtime::{
    encode_entry, profile_module, profile_module_witnessed, replay_module_with, Jobs, Profiler,
};
use lp_suite::kernels::counted_loop;
use lp_suite::{Scale, SuiteId};
use proptest::prelude::*;

/// Profiles `module` under `engine` and returns the full store-codec
/// encoding of the resulting (profile, run) pair.
fn encoded_profile(module: &Module, engine: Engine) -> Vec<u8> {
    let analysis = analyze_module(module);
    let config = MachineConfig {
        engine,
        ..MachineConfig::default()
    };
    let (profile, run) = profile_module(module, &analysis, &[], config).unwrap_or_else(|e| {
        panic!(
            "{}: profiling trap under {}: {e}",
            module.name,
            engine.name()
        )
    });
    encode_entry(&profile, &run)
}

/// Every suite kernel's profile must encode byte-identically under both
/// engines — same events, same order, same stamps, same run result.
#[test]
fn suite_profiles_are_byte_identical_across_engines() {
    for b in lp_suite::registry() {
        let module = b.build(Scale::Test);
        assert_eq!(
            encoded_profile(&module, Engine::Tree),
            encoded_profile(&module, Engine::Bc),
            "{}: profile encoding diverges between tree and bc",
            b.name
        );
    }
}

/// The replay pipeline driven by the bytecode engine must reach the
/// same verdicts as the tree walk at every worker count: identical
/// certified/rejected loop sets, identical iteration counts and
/// predictions, and no divergence on either side.
#[test]
fn suite_replay_verdicts_match_across_engines_at_1_2_8_workers() {
    for b in lp_suite::registry() {
        let module = b.build(Scale::Test);
        for jobs in [1usize, 2, 8] {
            let tree = replay_module_with(&module, &[], Jobs::new(jobs), Engine::Tree)
                .unwrap_or_else(|e| panic!("{}: tree replay trap: {e}", b.name));
            let bc = replay_module_with(&module, &[], Jobs::new(jobs), Engine::Bc)
                .unwrap_or_else(|e| panic!("{}: bc replay trap: {e}", b.name));
            assert!(
                tree.divergence.is_none() && bc.divergence.is_none(),
                "{} diverged at jobs={jobs}: tree={:?} bc={:?}",
                b.name,
                tree.divergence,
                bc.divergence
            );
            let shape = |r: &lp_runtime::BenchReplay| {
                (
                    r.loops
                        .iter()
                        .map(|l| {
                            (
                                l.func_name.clone(),
                                l.header,
                                l.instances,
                                l.iterations,
                                l.predicted_speedup.to_bits(),
                            )
                        })
                        .collect::<Vec<_>>(),
                    format!("{:?}", r.rejected),
                )
            };
            assert_eq!(
                shape(&tree),
                shape(&bc),
                "{}: replay verdicts differ between engines at jobs={jobs}",
                b.name
            );
        }
    }
}

/// One randomly chosen loop in a generated program (a condensed version
/// of the `props.rs` generator: DOALL fill, reduction, carried LCG, and
/// a shared-cell RMW — the shapes that stress phi runs, fused
/// gep+loads, and the icmp+br loop latch in the bytecode).
#[derive(Debug, Clone)]
enum LoopSpec {
    Fill { n: i64, mul: i64 },
    Sum { n: i64 },
    Lcg { n: i64, seed: i64 },
    Cell { n: i64 },
}

fn loop_spec() -> impl Strategy<Value = LoopSpec> {
    prop_oneof![
        (2i64..60, 1i64..100).prop_map(|(n, mul)| LoopSpec::Fill { n, mul }),
        (2i64..60).prop_map(|n| LoopSpec::Sum { n }),
        (2i64..40, 1i64..1_000_000).prop_map(|(n, seed)| LoopSpec::Lcg { n, seed }),
        (2i64..40).prop_map(|n| LoopSpec::Cell { n }),
    ]
}

fn build_program(specs: &[LoopSpec]) -> Module {
    let mut module = Module::new("prop");
    let array = module.add_global(Global::zeroed("a", 256));
    let cell = module.add_global(Global::zeroed("c", 2));
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let base = fb.global_addr(array);
    let cellp = fb.global_addr(cell);
    let mut checksum = fb.const_i64(0);
    for spec in specs {
        let v = match *spec {
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
        };
        checksum = fb.xor(checksum, v);
    }
    fb.ret(Some(checksum));
    module.add_function(fb.finish().expect("generated program is complete"));
    module
}

/// A trapping kernel: iteration `k` of the counted loop divides by
/// `i - k`, so both engines must fault mid-loop with the same trap
/// after the same number of completed iterations.
fn div_trap_kernel(n: i64, k: i64) -> Module {
    let mut m = Module::new("divtrap");
    let g = m.add_global(Global::zeroed("a", 64));
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let n = fb.const_i64(n);
    let kk = fb.const_i64(k);
    let zero = fb.const_i64(0);
    let one = fb.const_i64(1);
    let base = fb.global_addr(g);
    let header = fb.create_block("header");
    let body = fb.create_block("body");
    let exit = fb.create_block("exit");
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Type::I64);
    let c = fb.icmp(IcmpPred::Slt, i, n);
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let d = fb.sub(i, kk);
    let q = fb.sdiv(i, d);
    let addr = fb.gep(base, i, 8, 0);
    fb.store(q, addr);
    let i2 = fb.add(i, one);
    fb.add_phi_incoming(i, BlockId::ENTRY, zero);
    fb.add_phi_incoming(i, body, i2);
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(Some(zero));
    m.add_function(fb.finish().unwrap());
    m
}

/// Every natural loop in the module, in deterministic (func, loop)
/// order — the target set that arms an independence witness on each.
fn all_loops(module: &Module, analysis: &ModuleAnalysis) -> Vec<(FuncId, LoopId)> {
    let mut targets = Vec::new();
    for (fid, _) in module.iter_functions() {
        for (lid, _) in analysis.function(fid).loops.iter() {
            targets.push((fid, lid));
        }
    }
    targets
}

/// Witness-armed profiling run under `engine`: store-codec bytes plus
/// the witness report's Debug rendering.
fn witnessed_profile(module: &Module, engine: Engine) -> (Vec<u8>, String) {
    let analysis = analyze_module(module);
    let targets = all_loops(module, &analysis);
    let config = MachineConfig {
        engine,
        ..MachineConfig::default()
    };
    let (profile, run, report) = profile_module_witnessed(module, &analysis, &[], config, &targets)
        .unwrap_or_else(|e| {
            panic!(
                "{}: witnessed profiling trap under {}: {e}",
                module.name,
                engine.name()
            )
        });
    (encode_entry(&profile, &run), format!("{report:?}"))
}

/// Witness-armed profiling of every suite kernel is engine-invariant:
/// identical profile encodings and identical independence witnesses.
#[test]
fn suite_witness_reports_match_across_engines() {
    for b in lp_suite::registry() {
        let module = b.build(Scale::Test);
        let tree = witnessed_profile(&module, Engine::Tree);
        let bc = witnessed_profile(&module, Engine::Bc);
        assert_eq!(
            tree.0, bc.0,
            "{}: witnessed profile encoding diverges between tree and bc",
            b.name
        );
        assert_eq!(
            tree.1, bc.1,
            "{}: witness report diverges between tree and bc",
            b.name
        );
        if b.suite == SuiteId::Eembc {
            assert_witnessed_run_is_serial_reference(&module);
        }
    }
}

/// Replay uses the witnessed run as its serial reference, so that run
/// must reproduce a plain run exactly: return value, output and cost
/// (through `profile_module_witnessed`), and the final memory image
/// (through the same profiler-and-witness sink with memory kept).
fn assert_witnessed_run_is_serial_reference(module: &Module) {
    let analysis = analyze_module(module);
    let targets = all_loops(module, &analysis);
    let config = MachineConfig {
        capture_output: true,
        ..MachineConfig::default()
    };
    let unit = ExecUnit::new(module);
    let plain = Exec::new(&unit)
        .config(config.clone())
        .keep_memory(true)
        .run(&[])
        .unwrap();
    let (_, witnessed, _) =
        profile_module_witnessed(module, &analysis, &[], config.clone(), &targets).unwrap();
    assert_eq!(
        witnessed, plain.result,
        "{}: witnessed run differs from a plain run",
        module.name
    );

    let mut profiler = Profiler::new(module, &analysis);
    profiler.enable_witness(&targets);
    let config = MachineConfig {
        watched_values: profiler.watched_values(),
        ..config
    };
    let mut metered = MeteredSink::new(&mut profiler);
    let observed = Exec::new(&unit)
        .sink(&mut metered)
        .config(config)
        .keep_memory(true)
        .run(&[])
        .unwrap();
    assert_eq!(observed.result, plain.result, "{}", module.name);
    assert_eq!(
        plain
            .memory
            .unwrap()
            .first_difference(&observed.memory.unwrap()),
        None,
        "{}: witnessed run's memory image differs from a plain run's",
        module.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Witness-armed profiling is engine-invariant on generated
    /// kernels: identical profile encodings and identical witness
    /// reports under tree and bc.
    #[test]
    fn generated_kernels_witness_reports_are_engine_invariant(
        specs in prop::collection::vec(loop_spec(), 1..6)
    ) {
        let module = build_program(&specs);
        let tree = witnessed_profile(&module, Engine::Tree);
        let bc = witnessed_profile(&module, Engine::Bc);
        prop_assert_eq!(tree.0, bc.0, "witnessed profile encoding diverges for {:?}", specs);
        prop_assert_eq!(tree.1, bc.1, "witness report diverges for {:?}", specs);
    }

    /// Generated loop programs profile byte-identically under both
    /// engines, and their plain (unprofiled) runs agree on return value
    /// and dynamic cost.
    #[test]
    fn generated_kernels_are_engine_invariant(
        specs in prop::collection::vec(loop_spec(), 1..6)
    ) {
        let module = build_program(&specs);
        prop_assert!(lp_ir::verify_module(&module).is_ok());
        let run = |engine: Engine| {
            let unit = ExecUnit::with_engine(&module, engine);
            Exec::new(&unit).run(&[]).unwrap().result
        };
        let tree = run(Engine::Tree);
        let bc = run(Engine::Bc);
        prop_assert_eq!(tree.ret, bc.ret);
        prop_assert_eq!(tree.cost, bc.cost);
        prop_assert_eq!(
            encoded_profile(&module, Engine::Tree),
            encoded_profile(&module, Engine::Bc),
            "profile encoding diverges for {:?}", specs
        );
    }

    /// Fuel fidelity: every budget from starving to ample produces the
    /// same outcome on both engines — the same `FuelExhausted` when the
    /// budget runs out (a `NullSink` run on the bytecode loop charges
    /// fuel per instruction, exactly as the tree walk does), the same
    /// trap when the trap fires first, and the same result and cost when
    /// the budget suffices.
    #[test]
    fn fuel_budgets_exhaust_identically(n in 5i64..30, budget in 1u64..400) {
        let module = div_trap_kernel(n, n / 2);
        let run = |engine: Engine| {
            let unit = ExecUnit::with_engine(&module, engine);
            let config = MachineConfig { max_cost: budget, ..MachineConfig::default() };
            Exec::new(&unit).config(config).run(&[])
        };
        match (run(Engine::Tree), run(Engine::Bc)) {
            (Ok(t), Ok(b)) => {
                prop_assert_eq!(t.result.ret, b.result.ret);
                prop_assert_eq!(t.result.cost, b.result.cost);
            }
            (Err(t), Err(b)) => prop_assert_eq!(t.to_string(), b.to_string()),
            (t, b) => prop_assert!(false, "outcomes diverge at budget {}: tree={:?} bc={:?}",
                budget, t.map(|o| o.result.ret), b.map(|o| o.result.ret)),
        }
    }

    /// Error fidelity: a mid-loop division by zero traps identically —
    /// same message, same trap point — under both engines.
    #[test]
    fn trapping_kernels_fail_identically(n in 5i64..40, frac in 0i64..100) {
        let module = div_trap_kernel(n, frac * (n - 1) / 100);
        let run = |engine: Engine| {
            let unit = ExecUnit::with_engine(&module, engine);
            Exec::new(&unit).run(&[])
        };
        match (run(Engine::Tree), run(Engine::Bc)) {
            (Err(t), Err(b)) => prop_assert_eq!(t.to_string(), b.to_string()),
            (t, b) => prop_assert!(false, "expected traps, got tree={:?} bc={:?}",
                t.map(|o| o.result.ret), b.map(|o| o.result.ret)),
        }
    }
}
