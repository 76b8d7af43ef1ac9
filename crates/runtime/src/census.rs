//! The ordering-constraint census (paper Table I).
//!
//! Table I is the taxonomy of dependencies restricting parallel loop
//! execution. This module quantifies it for a set of profiles: how many
//! register LCDs are computable (IV/MIV), reductions, predictable or
//! unpredictable non-computable; how many loops carry frequent vs
//! infrequent memory LCDs; and how many loops contain calls (the
//! structural, call-stack constraint).

use crate::profile::{CallClass, Profile, RegionKind};
use lp_analysis::LcdClass;
use std::fmt;

/// Accuracy at or above which a non-computable register LCD counts as
/// "predictable" (paper §II-A: "predictable at run-time through simple
/// and known value prediction schemes").
pub const PREDICTABLE_ACCURACY: f64 = 0.9;

/// Fraction of iterations above which a memory LCD counts as "frequent".
pub const FREQUENT_FRACTION: f64 = 0.5;

/// Quantified Table I for one or more profiled programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Programs aggregated.
    pub programs: u64,
    /// Static loops that executed at least once.
    pub executed_loops: u64,
    /// Computable register LCDs (IVs and MIVs), summed over executed
    /// loops.
    pub computable: u64,
    /// Reduction accumulators.
    pub reductions: u64,
    /// Non-computable register LCDs predicted with accuracy ≥
    /// [`PREDICTABLE_ACCURACY`].
    pub predictable: u64,
    /// Remaining non-computable register LCDs.
    pub unpredictable: u64,
    /// Executed loops whose memory RAW conflicts touch more than
    /// [`FREQUENT_FRACTION`] of iterations.
    pub frequent_mem_loops: u64,
    /// Executed loops with some, but infrequent, memory RAW conflicts.
    pub infrequent_mem_loops: u64,
    /// Executed loops with no cross-iteration memory RAW at all.
    pub no_mem_lcd_loops: u64,
    /// Executed loops that (dynamically) contain function calls — the
    /// structural call-stack constraint of §II-E.
    pub loops_with_calls: u64,
    /// Executed loops containing calls to non-thread-safe builtins.
    pub loops_with_unsafe_calls: u64,
}

impl Census {
    /// Accumulates one profile into the census.
    pub fn add_profile(&mut self, profile: &Profile) {
        self.programs += 1;
        // Aggregate per static loop across instances.
        let nmeta = profile.loop_meta.len();
        let mut executed = vec![false; nmeta];
        let mut conflict_iters = vec![0u64; nmeta];
        let mut total_iters = vec![0u64; nmeta];
        let mut has_calls = vec![false; nmeta];
        let mut has_unsafe = vec![false; nmeta];
        let mut lcd_observed: Vec<Vec<u64>> = profile
            .loop_meta
            .iter()
            .map(|m| vec![0; m.traced_phis.len()])
            .collect();
        let mut lcd_predicted = lcd_observed.clone();
        for region in &profile.regions {
            let RegionKind::Loop(inst) = &region.kind else {
                continue;
            };
            let m = inst.meta;
            executed[m] = true;
            conflict_iters[m] += inst.mem_conflict_iters.len() as u64;
            total_iters[m] += inst.iterations() as u64;
            has_calls[m] |= inst.call_class > CallClass::NoCalls;
            has_unsafe[m] |= inst.call_class >= CallClass::UnsafeCalls;
            for (i, lcd) in inst.lcds.iter().enumerate() {
                lcd_observed[m][i] += lcd.observed;
                lcd_predicted[m][i] += lcd.predicted;
            }
        }
        for (m, meta) in profile.loop_meta.iter().enumerate() {
            if !executed[m] {
                continue;
            }
            self.executed_loops += 1;
            self.computable += u64::from(meta.computable_phis);
            for (i, (_, class)) in meta.traced_phis.iter().enumerate() {
                match class {
                    LcdClass::Reduction(_) => self.reductions += 1,
                    LcdClass::NonComputable => {
                        let obs = lcd_observed[m][i];
                        let acc = if obs == 0 {
                            0.0
                        } else {
                            lcd_predicted[m][i] as f64 / obs as f64
                        };
                        if acc >= PREDICTABLE_ACCURACY {
                            self.predictable += 1;
                        } else {
                            self.unpredictable += 1;
                        }
                    }
                    LcdClass::Computable(_) => unreachable!("traced phis are never computable"),
                }
            }
            if total_iters[m] == 0 || conflict_iters[m] == 0 {
                self.no_mem_lcd_loops += 1;
            } else if conflict_iters[m] as f64 > FREQUENT_FRACTION * total_iters[m] as f64 {
                self.frequent_mem_loops += 1;
            } else {
                self.infrequent_mem_loops += 1;
            }
            if has_calls[m] {
                self.loops_with_calls += 1;
            }
            if has_unsafe[m] {
                self.loops_with_unsafe_calls += 1;
            }
        }
    }

    /// Builds a census over many profiles.
    #[must_use]
    pub fn over<'a>(profiles: impl IntoIterator<Item = &'a Profile>) -> Census {
        let mut c = Census::default();
        for p in profiles {
            c.add_profile(p);
        }
        c
    }
}

/// Counts add up: the census over a set of programs is the sum of the
/// censuses over any partition of it.
impl std::ops::AddAssign for Census {
    fn add_assign(&mut self, other: Census) {
        let Census {
            programs,
            executed_loops,
            computable,
            reductions,
            predictable,
            unpredictable,
            frequent_mem_loops,
            infrequent_mem_loops,
            no_mem_lcd_loops,
            loops_with_calls,
            loops_with_unsafe_calls,
        } = other;
        self.programs += programs;
        self.executed_loops += executed_loops;
        self.computable += computable;
        self.reductions += reductions;
        self.predictable += predictable;
        self.unpredictable += unpredictable;
        self.frequent_mem_loops += frequent_mem_loops;
        self.infrequent_mem_loops += infrequent_mem_loops;
        self.no_mem_lcd_loops += no_mem_lcd_loops;
        self.loops_with_calls += loops_with_calls;
        self.loops_with_unsafe_calls += loops_with_unsafe_calls;
    }
}

impl std::iter::Sum for Census {
    fn sum<I: Iterator<Item = Census>>(iter: I) -> Census {
        iter.fold(Census::default(), |mut acc, c| {
            acc += c;
            acc
        })
    }
}

impl fmt::Display for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Census over {} program(s), {} executed loop(s)",
            self.programs, self.executed_loops
        )?;
        writeln!(f, "  register LCDs:")?;
        writeln!(
            f,
            "    computable (IV/MIV)           {:>8}",
            self.computable
        )?;
        writeln!(
            f,
            "    reduction accumulators        {:>8}",
            self.reductions
        )?;
        writeln!(
            f,
            "    non-computable, predictable   {:>8}",
            self.predictable
        )?;
        writeln!(
            f,
            "    non-computable, unpredictable {:>8}",
            self.unpredictable
        )?;
        writeln!(f, "  memory LCDs (per loop):")?;
        writeln!(
            f,
            "    frequent (> {:.0}% of iters)    {:>8}",
            100.0 * FREQUENT_FRACTION,
            self.frequent_mem_loops
        )?;
        writeln!(
            f,
            "    infrequent                    {:>8}",
            self.infrequent_mem_loops
        )?;
        writeln!(
            f,
            "    none                          {:>8}",
            self.no_mem_lcd_loops
        )?;
        writeln!(f, "  structural (call-stack):")?;
        writeln!(
            f,
            "    loops containing calls        {:>8}",
            self.loops_with_calls
        )?;
        write!(
            f,
            "    loops with unsafe calls       {:>8}",
            self.loops_with_unsafe_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::profile_module;
    use lp_analysis::analyze_module;
    use lp_interp::MachineConfig;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Builtin, Global, IcmpPred, Module, Type};

    /// A loop with an IV, a reduction, a frequent memory LCD, and a print
    /// call — one of everything.
    fn kitchen_sink(n: i64) -> Module {
        let mut m = Module::new("sink");
        let g = m.add_global(Global::zeroed("cell", 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let cell = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let s = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.load(Type::I64, cell);
        let v2 = fb.add(v, one);
        fb.store(v2, cell);
        fb.call_builtin(Builtin::PrintI64, &[v2]);
        let s2 = fb.add(s, v2); // accumulates loaded values: reduction, not SCEV
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(s, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(s, body, s2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(s));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn census_counts_each_category() {
        let m = kitchen_sink(30);
        let analysis = analyze_module(&m);
        let (p, _) = profile_module(&m, &analysis, &[], MachineConfig::default()).unwrap();
        let census = Census::over([&p]);
        assert_eq!(census.programs, 1);
        assert_eq!(census.executed_loops, 1);
        assert_eq!(census.computable, 1); // the IV
        assert_eq!(census.reductions, 1); // s += i
        assert_eq!(census.frequent_mem_loops, 1);
        assert_eq!(census.loops_with_calls, 1);
        assert_eq!(census.loops_with_unsafe_calls, 1);
        let text = census.to_string();
        assert!(text.contains("reduction accumulators"));
    }

    #[test]
    fn census_over_many_profiles_is_the_sum_of_their_censuses() {
        let profiles: Vec<Profile> = [30, 3, 0]
            .into_iter()
            .map(|n| {
                let m = kitchen_sink(n);
                let analysis = analyze_module(&m);
                profile_module(&m, &analysis, &[], MachineConfig::default())
                    .unwrap()
                    .0
            })
            .collect();
        let whole = Census::over(&profiles);
        let summed: Census = profiles.iter().map(|p| Census::over([p])).sum();
        assert_eq!(summed, whole);
        assert_eq!(summed.programs, 3);
        let mut two = Census::over([&profiles[0]]);
        two += Census::over([&profiles[1]]);
        assert_eq!(two, Census::over(&profiles[..2]));
        assert_eq!(
            std::iter::empty::<Census>().sum::<Census>(),
            Census::default()
        );
    }

    #[test]
    fn empty_census_displays() {
        let c = Census::default();
        assert!(c.to_string().contains("0 program(s)"));
    }
}
