//! Differential: the production profiler on the bytecode engine against
//! the reference tracker in `oracle/tracker.rs` on the tree walk, over
//! every suite kernel at test scale with the cactus stack on and off.
//! The two share no tracking code, so a profile they agree on was not
//! shaped by the shadow memory, the iteration search or the predictor
//! tables of either side. Two small kernels add what the suite lacks: a
//! loop active in several frames of a recursion, and stack words reread
//! across iterations after their frame was released. The generated
//! programs of `tests/props.rs` are compared the same way there. A
//! cross-law ties the profiler to the independence witness as well.

#[path = "oracle/tracker.rs"]
mod ref_tracker;

use lp_interp::{Engine, MachineConfig};
use lp_ir::builder::FunctionBuilder;
use lp_ir::{FuncId, Global, IcmpPred, Module, Type};
use lp_runtime::{profile_module_with, profile_module_witnessed, ProfilerOptions};
use lp_suite::kernels::counted_loop;
use lp_suite::Scale;

fn matches_the_reference(module: &Module, options: ProfilerOptions) {
    let name = &module.name;
    let analysis = lp_analysis::analyze_module(module);
    let config = MachineConfig {
        engine: Engine::Bc,
        ..MachineConfig::default()
    };
    let (got, got_run) = profile_module_with(module, &analysis, &[], config, options)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let (want, want_run) = ref_tracker::reference_profile(module, &analysis, options)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(want_run, got_run, "{name}: run result");
    ref_tracker::assert_same_profile(&want, &got, &format!("{name} {options:?}"));
}

fn suite_matches_the_reference(options: ProfilerOptions) {
    for b in lp_suite::registry() {
        matches_the_reference(&b.build(Scale::Test), options);
    }
}

/// `walk(d)` runs a three-iteration loop that recurses while `d > 0` and
/// bumps a shared cell, so one static loop is active in several frames at
/// once and a deeper frame's blocks must not close a shallower instance.
fn recursive_loops() -> Module {
    let mut m = Module::new("recursive_loops");
    let cell = m.add_global(Global::zeroed("cell", 1));
    let mut fb = FunctionBuilder::new("walk", &[Type::I64], Type::I64);
    let d = fb.param(0);
    let zero = fb.const_i64(0);
    let one = fb.const_i64(1);
    let three = fb.const_i64(3);
    let p = fb.global_addr(cell);
    let acc = counted_loop(&mut fb, three, &[(Type::I64, zero)], |fb, i, phis| {
        let rec = fb.fresh_block("rec");
        let join = fb.fresh_block("join");
        let deeper = fb.icmp(IcmpPred::Sgt, d, zero);
        fb.cond_br(deeper, rec, join);
        fb.switch_to(rec);
        let d1 = fb.sub(d, one);
        // Self-recursion: walk is FuncId(0) by construction order.
        fb.call(FuncId(0), Type::I64, &[d1]);
        fb.br(join);
        fb.switch_to(join);
        let v = fb.load(Type::I64, p);
        let v2 = fb.add(v, i);
        fb.store(v2, p);
        vec![fb.add(phis[0], v2)]
    });
    fb.ret(Some(acc[0]));
    let walk = m.add_function(fb.finish().unwrap());
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let two = fb.const_i64(2);
    let four = fb.const_i64(4);
    let zero = fb.const_i64(0);
    let sum = counted_loop(&mut fb, four, &[(Type::I64, zero)], |fb, _, phis| {
        let r = fb.call(walk, Type::I64, &[two]);
        vec![fb.add(phis[0], r)]
    });
    fb.ret(Some(sum[0]));
    m.add_function(fb.finish().unwrap());
    m
}

/// `leaf` returns the address of its two-word frame after reading word 1
/// and writing word 0. Each iteration of `main`'s loop first reads word 0
/// of the previous iteration's (released) frame, then calls `leaf` and
/// writes word 1 of the frame it got back. So iteration k+1 reads words
/// written in iteration k twice over: once where only the writer's frame
/// was iteration-local (the store side of the cactus rule), and once
/// where only the reader's is (the load side).
fn released_frames() -> Module {
    let mut m = Module::new("released_frames");
    let dummy = m.add_global(Global::zeroed("dummy", 1));
    let mut fb = FunctionBuilder::new("leaf", &[], Type::Ptr);
    let slot = fb.alloca(2);
    let zero = fb.const_i64(0);
    let one = fb.const_i64(1);
    let w1 = fb.gep(slot, zero, 8, 8);
    let v = fb.load(Type::I64, w1);
    let v2 = fb.add(v, one);
    fb.store(v2, slot);
    fb.ret(Some(slot));
    let leaf = m.add_function(fb.finish().unwrap());
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let zero = fb.const_i64(0);
    let five = fb.const_i64(5);
    let start = fb.global_addr(dummy);
    let last = counted_loop(&mut fb, five, &[(Type::Ptr, start)], |fb, i, phis| {
        fb.load(Type::I64, phis[0]);
        let frame = fb.call(leaf, Type::Ptr, &[]);
        let w1 = fb.gep(frame, zero, 8, 8);
        fb.store(i, w1);
        vec![frame]
    });
    let r = fb.load(Type::I64, last[0]);
    fb.ret(Some(r));
    m.add_function(fb.finish().unwrap());
    m
}

#[test]
fn suite_profiles_match_the_reference_with_the_cactus_stack() {
    suite_matches_the_reference(ProfilerOptions { cactus_stack: true });
}

#[test]
fn suite_profiles_match_the_reference_without_the_cactus_stack() {
    suite_matches_the_reference(ProfilerOptions {
        cactus_stack: false,
    });
}

#[test]
fn recursion_and_released_frames_match_the_reference() {
    for module in [recursive_loops(), released_frames()] {
        for cactus_stack in [true, false] {
            matches_the_reference(&module, ProfilerOptions { cactus_stack });
        }
    }
}

/// The witness checks every cross-iteration overlap (RAW, WAR and WAW)
/// and the profiler RAW alone, both under the cactus-stack rule, so a
/// loop the witness passes in every instance has no conflicting
/// iteration in any of its profiled instances.
#[test]
fn loops_the_witness_passes_have_no_conflicting_iterations() {
    let mut passed = 0;
    for b in lp_suite::registry() {
        let module = b.build(Scale::Test);
        let analysis = lp_analysis::analyze_module(&module);
        let targets: Vec<_> = lp_analysis::certify_module(&module, &analysis)
            .iter()
            .map(|l| (l.func, l.loop_id))
            .collect();
        let (profile, _, report) =
            profile_module_witnessed(&module, &analysis, &[], MachineConfig::default(), &targets)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for &(func, loop_id) in &targets {
            if !report.loop_holds(func, loop_id) {
                continue;
            }
            passed += 1;
            for (rid, _, inst) in profile.loop_instances() {
                let meta = &profile.loop_meta[inst.meta];
                if (meta.func, meta.loop_id) == (func, loop_id) {
                    assert!(
                        inst.mem_conflict_iters.is_empty(),
                        "{}: {func:?} {loop_id:?} region {}: the witness passed it, \
                         the profiler saw conflicts in iterations {:?}",
                        b.name,
                        rid.index(),
                        inst.mem_conflict_iters.iter().collect::<Vec<_>>()
                    );
                }
            }
        }
    }
    assert!(passed > 0, "the witness passed no loop of the suite");
}
