//! Differential: the segment-based evaluator against the naive reference
//! fold in `oracle/`, over every suite kernel at test scale and two
//! hand-built kernels whose savings, conflicts and mispredicts fall
//! inside runs of equal-length iterations; all three models, all 32
//! configurations, and each evaluator option set. Reports and
//! attributions must agree bit for bit (compared through `Debug`).

mod oracle;

use lp_interp::MachineConfig;
use lp_ir::builder::FunctionBuilder;
use lp_ir::{BlockId, Global, IcmpPred, Module, Type};
use lp_runtime::model::Segment;
use lp_runtime::{
    evaluate_explained_with, evaluate_with, profile_module, Config, EvalOptions, ExecModel,
    Profile, RegionKind,
};
use lp_suite::Scale;
use std::sync::OnceLock;

/// Every suite kernel's profile at test scale, taken once per test binary.
fn suite_profiles() -> &'static [Profile] {
    static PROFILES: OnceLock<Vec<Profile>> = OnceLock::new();
    PROFILES.get_or_init(|| {
        lp_suite::registry()
            .iter()
            .map(|b| {
                let module = b.build(Scale::Test);
                let analysis = lp_analysis::analyze_module(&module);
                profile_module(&module, &analysis, &[], MachineConfig::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name))
                    .0
            })
            .collect()
    })
}

fn matches_oracle(profile: &Profile, options: EvalOptions) {
    for model in ExecModel::all() {
        for config in Config::all() {
            let want = oracle::evaluate_explained(profile, model, config, options);
            let plain = evaluate_with(profile, model, config, options);
            assert_eq!(
                format!("{plain:?}"),
                format!("{:?}", want.0),
                "{} {model} {config} {options:?}: report",
                profile.program
            );
            let explained = evaluate_explained_with(profile, model, config, options);
            assert_eq!(
                format!("{explained:?}"),
                format!("{want:?}"),
                "{} {model} {config} {options:?}: attribution",
                profile.program
            );
        }
    }
}

fn matches_oracle_everywhere(options: EvalOptions) {
    for profile in suite_profiles() {
        matches_oracle(profile, options);
    }
}

/// The option sets every differential runs under.
const OPTION_SETS: [EvalOptions; 4] = [
    EvalOptions {
        doacross_single_sync: false,
        cores: None,
    },
    EvalOptions {
        doacross_single_sync: true,
        cores: None,
    },
    EvalOptions {
        doacross_single_sync: false,
        cores: Some(1),
    },
    EvalOptions {
        doacross_single_sync: false,
        cores: Some(4),
    },
];

fn profile_of(module: &Module) -> Profile {
    let analysis = lp_analysis::analyze_module(module);
    profile_module(module, &analysis, &[], MachineConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", module.name))
        .0
}

/// The loop instances of `profile` at nesting depth `depth`, with their
/// iteration segments.
fn instances_at(profile: &Profile, depth: u32) -> Vec<(usize, Vec<Segment>)> {
    profile
        .loop_instances()
        .filter(|(_, _, inst)| profile.loop_meta[inst.meta].depth == depth)
        .map(|(rid, region, inst)| (rid.index(), inst.timeline.segments(region.end).collect()))
        .collect()
}

/// Whether iteration `k` falls strictly inside one of `segments`, with
/// iterations of the same segment on both sides of it.
fn strictly_inside(segments: &[Segment], k: u32) -> bool {
    let mut first = 0u32;
    segments.iter().any(|&(_, count)| {
        let inside = first < k && k + 1 < first + count;
        first += count;
        inside
    })
}

/// Instructions the filler arm of [`sparse_nest`] runs besides its branch:
/// as many as the inner loop's arm, so every outer iteration costs the
/// same.
const FILLER: usize = 37;

/// An outer loop of equal-length iterations. Every eighth one runs an
/// inner DOALL loop of four iterations; the others run a filler of the
/// same cost. The inner loops' savings land inside the outer timeline's
/// run.
fn sparse_nest() -> Module {
    let mut m = Module::new("sparse_nest");
    let g = m.add_global(Global::zeroed("a", 512));
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let n = fb.const_i64(40);
    let zero = fb.const_i64(0);
    let one = fb.const_i64(1);
    let four = fb.const_i64(4);
    let five = fb.const_i64(5);
    let seven = fb.const_i64(7);
    let eight = fb.const_i64(8);
    let base = fb.global_addr(g);
    let header = fb.create_block("header");
    let body = fb.create_block("body");
    let inner_header = fb.create_block("inner_header");
    let inner_body = fb.create_block("inner_body");
    let filler = fb.create_block("filler");
    let latch = fb.create_block("latch");
    let exit = fb.create_block("exit");
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Type::I64);
    let c = fb.icmp(IcmpPred::Slt, i, n);
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let low = fb.and(i, seven);
    let hit = fb.icmp(IcmpPred::Eq, low, five);
    fb.cond_br(hit, inner_header, filler);
    fb.switch_to(inner_header);
    let j = fb.phi(Type::I64);
    let cj = fb.icmp(IcmpPred::Slt, j, four);
    fb.cond_br(cj, inner_body, latch);
    fb.switch_to(inner_body);
    let row = fb.mul(i, eight);
    let slot = fb.add(row, j);
    let addr = fb.gep(base, slot, 8, 0);
    let sq = fb.mul(j, j);
    fb.store(sq, addr);
    let j2 = fb.add(j, one);
    fb.add_phi_incoming(j, body, zero);
    fb.add_phi_incoming(j, inner_body, j2);
    fb.br(inner_header);
    fb.switch_to(filler);
    let mut acc = i;
    for _ in 0..FILLER {
        acc = fb.add(acc, one);
    }
    fb.br(latch);
    fb.switch_to(latch);
    let i2 = fb.add(i, one);
    fb.add_phi_incoming(i, BlockId::ENTRY, zero);
    fb.add_phi_incoming(i, latch, i2);
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(Some(zero));
    m.add_function(fb.finish().unwrap());
    m
}

/// A leaf loop of equal-length iterations (a branch-free body): every
/// sixteenth iteration reads what the one before it wrote, and a
/// register LCD changes its stride at every sixteenth iteration too, so
/// memory conflicts and mispredicts fall inside the timeline's run.
fn streaky_leaf() -> Module {
    let mut m = Module::new("streaky_leaf");
    let g = m.add_global(Global::zeroed("a", 256));
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let n = fb.const_i64(64);
    let zero = fb.const_i64(0);
    let one = fb.const_i64(1);
    let three = fb.const_i64(3);
    let seven = fb.const_i64(7);
    let nine = fb.const_i64(9);
    let fifteen = fb.const_i64(15);
    let away = fb.const_i64(100);
    let base = fb.global_addr(g);
    let header = fb.create_block("header");
    let body = fb.create_block("body");
    let exit = fb.create_block("exit");
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Type::I64);
    let x = fb.phi(Type::I64);
    let c = fb.icmp(IcmpPred::Slt, i, n);
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let low = fb.and(i, fifteen);
    let carried = fb.icmp(IcmpPred::Eq, low, nine);
    let before = fb.sub(i, one);
    let elsewhere = fb.add(i, away);
    let from = fb.select(carried, before, elsewhere);
    let src = fb.gep(base, from, 8, 0);
    let v = fb.load(Type::I64, src);
    let v2 = fb.add(v, x);
    let dst = fb.gep(base, i, 8, 0);
    fb.store(v2, dst);
    let jump = fb.icmp(IcmpPred::Eq, low, three);
    let step = fb.select(jump, seven, one);
    let x2 = fb.add(x, step);
    let i2 = fb.add(i, one);
    fb.add_phi_incoming(i, BlockId::ENTRY, zero);
    fb.add_phi_incoming(i, body, i2);
    fb.add_phi_incoming(x, BlockId::ENTRY, zero);
    fb.add_phi_incoming(x, body, x2);
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(Some(x));
    m.add_function(fb.finish().unwrap());
    m
}

#[test]
fn savings_inside_a_run_match_the_oracle() {
    let profile = profile_of(&sparse_nest());
    let outer = instances_at(&profile, 1);
    assert_eq!(outer.len(), 1);
    let (rid, segments) = &outer[0];
    let children = &profile.regions[*rid].children;
    assert_eq!(children.len(), 5, "one inner instance per eighth iteration");
    for &c in children {
        let k = profile.regions[c.index()].parent_iter;
        assert!(strictly_inside(segments, k), "iteration {k}: {segments:?}");
    }
    for options in OPTION_SETS {
        matches_oracle(&profile, options);
    }
}

#[test]
fn conflicts_inside_a_run_match_the_oracle() {
    let profile = profile_of(&streaky_leaf());
    let leaves = instances_at(&profile, 1);
    assert_eq!(leaves.len(), 1);
    let (rid, segments) = &leaves[0];
    let RegionKind::Loop(inst) = &profile.regions[*rid].kind else {
        unreachable!()
    };
    assert!(!inst.mem_conflict_iters.is_empty());
    assert!(inst.lcds.iter().any(|l| !l.mispredict_iters.is_empty()));
    let members = inst
        .mem_conflict_iters
        .iter()
        .chain(inst.lcds.iter().flat_map(|l| l.mispredict_iters.iter()));
    for k in members {
        assert!(strictly_inside(segments, k), "iteration {k}: {segments:?}");
    }
    for options in OPTION_SETS {
        matches_oracle(&profile, options);
    }
}

#[test]
fn default_options_match_the_oracle() {
    matches_oracle_everywhere(EvalOptions::default());
}

#[test]
fn doacross_single_sync_matches_the_oracle() {
    matches_oracle_everywhere(EvalOptions {
        doacross_single_sync: true,
        ..EvalOptions::default()
    });
}

#[test]
fn one_core_matches_the_oracle() {
    matches_oracle_everywhere(EvalOptions {
        cores: Some(1),
        ..EvalOptions::default()
    });
}

#[test]
fn four_cores_match_the_oracle() {
    matches_oracle_everywhere(EvalOptions {
        cores: Some(4),
        ..EvalOptions::default()
    });
}

#[test]
fn the_plan_is_built_once_and_stays_out_of_debug() {
    let module = lp_suite::find("181.mcf")
        .expect("registered")
        .build(Scale::Test);
    let analysis = lp_analysis::analyze_module(&module);
    let (profile, _) = profile_module(&module, &analysis, &[], MachineConfig::default()).unwrap();
    let before = format!("{profile:?}");
    let _ = evaluate_with(
        &profile,
        ExecModel::Helix,
        Config::all()[0],
        EvalOptions::default(),
    );
    let plan: *const _ = profile.eval_plan();
    let _ = evaluate_with(
        &profile,
        ExecModel::Doall,
        Config::all()[0],
        EvalOptions::default(),
    );
    assert!(std::ptr::eq(plan, profile.eval_plan()));
    assert_eq!(before, format!("{profile:?}"));
}
