//! The reference evaluator for differential tests: the naive bottom-up
//! fold that `lp_runtime::eval` replaced with its walk over iteration
//! segments.
//!
//! For every `(model, config)` point it walks every region, rebuilds
//! every loop instance's iteration lengths one by one, and merges every
//! conflict set afresh, member by member; its cost functions read one
//! length per iteration. It is slow and simple on purpose; the real
//! evaluator must agree with it bit for bit (compared through `Debug`).

use lp_analysis::LcdClass;
use lp_runtime::explain::AttrCollector;
use lp_runtime::{
    Attribution, CallClass, Config, DepMode, EvalOptions, EvalReport, ExecModel, FnMode,
    LimiterKind, LoopInstance, LoopMeta, LoopSummary, Profile, ReducMode, Region, RegionId,
    RegionKind,
};

/// As `lp_runtime::evaluate_explained_with`; the report is also what
/// `lp_runtime::evaluate_with` must return.
#[must_use]
pub fn evaluate_explained(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
) -> (EvalReport, Attribution) {
    let (report, attr) = run(profile, model, config, options, true);
    (report, attr.expect("explain mode always collects"))
}

struct RegionEval {
    serial: u64,
    best: u64,
    covered: u64,
}

/// Which limiter causes to remove when re-costing a loop instance.
#[derive(Debug, Clone, Copy, Default)]
struct Lift {
    fn_gate: bool,
    mem: bool,
    reg_lcd: bool,
    reduction: bool,
    value_pred: bool,
}

impl Lift {
    const NONE: Lift = Lift {
        fn_gate: false,
        mem: false,
        reg_lcd: false,
        reduction: false,
        value_pred: false,
    };
    const ALL: Lift = Lift {
        fn_gate: true,
        mem: true,
        reg_lcd: true,
        reduction: true,
        value_pred: true,
    };

    fn for_kind(kind: LimiterKind) -> Lift {
        let mut l = Lift::NONE;
        match kind {
            LimiterKind::MemoryRaw => l.mem = true,
            LimiterKind::RegisterLcd => l.reg_lcd = true,
            LimiterKind::Reduction => l.reduction = true,
            LimiterKind::ValuePrediction => l.value_pred = true,
            LimiterKind::CallGate(_) => l.fn_gate = true,
            LimiterKind::LoadImbalance => {}
        }
        l
    }
}

/// Which causes manifested while costing a loop instance.
#[derive(Debug, Clone, Copy, Default)]
struct Causes {
    call_gate: bool,
    mem: bool,
    reg_lcd: bool,
    reduction: bool,
    value_pred: bool,
}

impl Causes {
    fn kinds(&self, call_class: CallClass) -> Vec<LimiterKind> {
        let mut out = Vec::new();
        if self.mem {
            out.push(LimiterKind::MemoryRaw);
        }
        if self.reg_lcd {
            out.push(LimiterKind::RegisterLcd);
        }
        if self.reduction {
            out.push(LimiterKind::Reduction);
        }
        if self.value_pred {
            out.push(LimiterKind::ValuePrediction);
        }
        if self.call_gate {
            out.push(LimiterKind::CallGate(call_class));
        }
        out
    }
}

struct Evaluator<'p> {
    profile: &'p Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
    loop_agg: Vec<LoopSummary>,
    attr: Option<AttrCollector>,
}

fn run(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
    explain: bool,
) -> (EvalReport, Option<Attribution>) {
    let mut ev = Evaluator {
        profile,
        model,
        config,
        options,
        loop_agg: profile
            .loop_meta
            .iter()
            .map(|m| LoopSummary {
                func_name: m.func_name.clone(),
                header: m.header,
                depth: m.depth,
                ..LoopSummary::default()
            })
            .collect(),
        attr: explain.then(|| AttrCollector::new(profile.loop_meta.len(), profile.regions.len())),
    };
    let root = ev.eval_region(profile.root());
    let total = profile.total_cost.max(1);
    let best = root.best.max(1);
    let attribution = ev.attr.take().map(|c| {
        c.finish(
            &profile.program,
            model,
            config,
            profile.total_cost,
            root.best,
            &profile.loop_meta,
        )
    });
    let report = EvalReport {
        program: profile.program.clone(),
        model,
        config,
        total_cost: profile.total_cost,
        best_cost: root.best,
        speedup: total as f64 / best as f64,
        coverage: 100.0 * root.covered as f64 / total as f64,
        loops: ev
            .loop_agg
            .into_iter()
            .filter(|l| l.instances > 0)
            .collect(),
    };
    (report, attribution)
}

/// Iteration lengths of a loop instance, from its start stamps and the
/// region end (stamp by stamp, not through the timeline's own length
/// iterator).
fn iter_lengths(region: &Region, inst: &LoopInstance) -> Vec<u64> {
    let t = &inst.timeline;
    let n = t.len();
    (0..n)
        .map(|k| {
            let end = if k + 1 < n {
                t.start(k + 1)
            } else {
                region.end
            };
            end.saturating_sub(t.start(k))
        })
        .collect()
}

impl Evaluator<'_> {
    fn eval_region(&mut self, rid: RegionId) -> RegionEval {
        let region = self.profile.region(rid);
        match &region.kind {
            RegionKind::Call { .. } => {
                let mut saving = 0u64;
                let mut covered = 0u64;
                for &c in &region.children {
                    let ce = self.eval_region(c);
                    saving += ce.serial - ce.best;
                    covered += ce.covered;
                }
                let serial = region.serial_cost();
                RegionEval {
                    serial,
                    best: serial.saturating_sub(saving),
                    covered,
                }
            }
            RegionKind::Loop(inst) => self.eval_loop(rid, region, inst),
        }
    }

    fn eval_loop(&mut self, rid: RegionId, region: &Region, inst: &LoopInstance) -> RegionEval {
        let meta = &self.profile.loop_meta[inst.meta];
        let n = inst.iterations();
        let raw_lens = iter_lengths(region, inst);

        let mut save = vec![0u64; n.max(1)];
        let mut child_covered = 0u64;
        for &c in &region.children.clone() {
            let ce = self.eval_region(c);
            let k = (self.profile.region(c).parent_iter as usize).min(n.saturating_sub(1));
            save[k] += ce.serial - ce.best;
            child_covered += ce.covered;
        }
        let adj: Vec<u64> = raw_lens
            .iter()
            .zip(&save)
            .map(|(&len, &s)| len.saturating_sub(s))
            .collect();
        let serial_adj: u64 = adj.iter().sum();

        let mut causes = Causes::default();
        let collect = self.attr.is_some();
        let parallel_cost =
            self.loop_cost(meta, inst, &adj, Lift::NONE, collect.then_some(&mut causes));

        let serial_raw = region.serial_cost();
        let (best, covered, parallel) = match parallel_cost {
            Some(p) if p < serial_adj => (p, serial_raw, true),
            _ => (serial_adj, child_covered, false),
        };

        if collect {
            let ideal = self
                .loop_cost(meta, inst, &adj, Lift::ALL, None)
                .map_or(serial_adj, |c| c.min(serial_adj));
            let gap = best.saturating_sub(ideal);
            let mut contribs: Vec<(LimiterKind, u64)> = Vec::new();
            if gap > 0 {
                for kind in causes.kinds(inst.call_class) {
                    let cf = self.loop_cost(meta, inst, &adj, Lift::for_kind(kind), None);
                    let cf_best = match cf {
                        Some(p) if p < serial_adj => p,
                        _ => serial_adj,
                    };
                    contribs.push((kind, best.saturating_sub(cf_best)));
                }
            }
            let attr = self.attr.as_mut().expect("collect implies a collector");
            attr.record_instance(
                inst.meta,
                rid.index(),
                serial_raw,
                serial_adj,
                best,
                ideal,
                parallel,
                &contribs,
            );
        }

        let agg = &mut self.loop_agg[inst.meta];
        agg.instances += 1;
        agg.parallel_instances += u64::from(parallel);
        agg.iterations += n as u64;
        agg.serial_cost += serial_raw;
        agg.best_cost += best;

        RegionEval {
            serial: serial_raw,
            best,
            covered,
        }
    }

    fn loop_cost(
        &self,
        meta: &LoopMeta,
        inst: &LoopInstance,
        adj: &[u64],
        lift: Lift,
        mut causes: Option<&mut Causes>,
    ) -> Option<u64> {
        let gated = match self.config.fnm {
            FnMode::Fn0 => inst.call_class > CallClass::NoCalls,
            FnMode::Fn1 => inst.call_class > CallClass::PureCalls,
            FnMode::Fn2 => inst.call_class > CallClass::InstrumentedCalls,
            FnMode::Fn3 => false,
        };
        let mut forced = gated && !lift.fn_gate;
        let single_sync = self.options.doacross_single_sync;
        let mem = !lift.mem && inst.mem_edges > 0;
        if let Some(c) = causes.as_deref_mut() {
            c.call_gate = gated;
            c.mem = match self.model {
                ExecModel::Doall | ExecModel::PartialDoall => !inst.mem_conflict_iters.is_empty(),
                ExecModel::Helix => inst.mem_max_skew > 0 || (single_sync && inst.mem_edges > 0),
            };
        }

        let mut delta = if lift.mem { 0 } else { inst.mem_max_skew };
        let mut max_producer = if mem { inst.mem_max_producer_rel } else { 0 };
        let mut reg_lcd_synced = false;
        let mut extra_conflicts: Vec<u32> = Vec::new();
        for (idx, (_, class)) in meta.traced_phis.iter().enumerate() {
            let is_reduction = matches!(class, LcdClass::Reduction(_));
            if is_reduction && self.config.reduc == ReducMode::Reduc1 {
                continue;
            }
            if is_reduction && lift.reduction {
                continue;
            }
            if !is_reduction && lift.reg_lcd {
                continue;
            }
            let blame = |causes: &mut Option<&mut Causes>, predicted: bool| {
                if let Some(c) = causes.as_deref_mut() {
                    if is_reduction {
                        c.reduction = true;
                    } else if predicted {
                        c.value_pred = true;
                    } else {
                        c.reg_lcd = true;
                    }
                }
            };
            let predicted_perfect = lift.value_pred && !is_reduction;
            let lcd = &inst.lcds[idx];
            match (self.model, self.config.dep) {
                (ExecModel::Doall, _) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                (_, DepMode::Dep3) => {}
                (ExecModel::PartialDoall, DepMode::Dep0 | DepMode::Dep1) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::PartialDoall, DepMode::Dep2) => {
                    if !lcd.mispredict_iters.is_empty() {
                        blame(&mut causes, true);
                        if !predicted_perfect {
                            extra_conflicts.extend(lcd.mispredict_iters.iter());
                        }
                    }
                }
                (ExecModel::Helix, DepMode::Dep0) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::Helix, DepMode::Dep1) => {
                    delta = delta.max(lcd.max_def_rel);
                    max_producer = max_producer.max(lcd.max_def_rel);
                    reg_lcd_synced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::Helix, DepMode::Dep2) => {
                    if !lcd.mispredict_iters.is_empty() {
                        blame(&mut causes, true);
                        if !predicted_perfect {
                            delta = delta.max(lcd.max_def_rel);
                            max_producer = max_producer.max(lcd.max_def_rel);
                            reg_lcd_synced = true;
                        }
                    }
                }
            }
        }

        if single_sync && (mem || reg_lcd_synced) {
            let min_consumer = if reg_lcd_synced {
                0
            } else {
                inst.mem_min_consumer_rel
            };
            delta = delta.max(max_producer.saturating_sub(min_consumer));
        }
        let cores = self.options.cores;
        match self.model {
            ExecModel::Doall => {
                let has_conflicts = !lift.mem && !inst.mem_conflict_iters.is_empty();
                if forced || has_conflicts || adj.is_empty() {
                    None
                } else {
                    Some(wave_cost(adj, cores))
                }
            }
            ExecModel::PartialDoall => {
                let mut conflicts = if lift.mem {
                    Vec::new()
                } else {
                    inst.mem_conflict_iters.iter().collect()
                };
                conflicts.extend_from_slice(&extra_conflicts);
                conflicts.sort_unstable();
                conflicts.dedup();
                pdoall_cost(adj, &conflicts, forced, cores)
            }
            ExecModel::Helix => helix_cost(adj, delta, forced, cores),
        }
    }
}

/// Partial-DOALL over explicitly collected phases; `conflicts` are
/// sorted, distinct iteration numbers.
pub fn pdoall_cost(
    iter_lens: &[u64],
    conflicts: &[u32],
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial || iter_lens.is_empty() {
        return None;
    }
    if conflicts.len() as f64 > lp_runtime::model::PDOALL_CONFLICT_LIMIT * iter_lens.len() as f64 {
        return None;
    }
    let mut cost = 0u64;
    let mut phase: Vec<u64> = Vec::new();
    let mut ci = 0usize;
    for (k, &len) in iter_lens.iter().enumerate() {
        if ci < conflicts.len() && conflicts[ci] as usize == k {
            ci += 1;
            cost += wave_cost(&phase, cores);
            phase.clear();
        }
        phase.push(len);
    }
    Some(cost + wave_cost(&phase, cores))
}

/// HELIX: the closed formula when unbounded, else a simulation with
/// core reuse.
pub fn helix_cost(
    iter_lens: &[u64],
    delta: u64,
    forced_serial: bool,
    cores: Option<u32>,
) -> Option<u64> {
    if forced_serial || iter_lens.is_empty() {
        return None;
    }
    let Some(p) = cores else {
        let slowest = iter_lens.iter().copied().max().unwrap_or(0);
        return Some(slowest + delta * iter_lens.len() as u64);
    };
    let p = p.max(1) as usize;
    let mut finish: Vec<u64> = Vec::with_capacity(iter_lens.len());
    let mut latest = 0u64;
    for (i, &len) in iter_lens.iter().enumerate() {
        let start = (i as u64 * delta).max(if i >= p { finish[i - p] } else { 0 });
        finish.push(start + len);
        latest = latest.max(start + len);
    }
    Some(latest)
}

/// In-order waves of `cores` (unbounded when `None`).
pub fn wave_cost(lens: &[u64], cores: Option<u32>) -> u64 {
    match cores {
        None => lens.iter().copied().max().unwrap_or(0),
        Some(p) => lens
            .chunks(p.max(1) as usize)
            .map(|wave| wave.iter().copied().max().unwrap_or(0))
            .sum(),
    }
}
