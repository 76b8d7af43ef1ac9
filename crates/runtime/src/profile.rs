//! The profile: everything one instrumented run records.
//!
//! A profile is a **dynamic region tree** over the run: one node per
//! function activation ("call region") and one per executed loop instance,
//! each stamped with its start/end position on the sequential dynamic-IR
//! cost axis. Loop instances additionally carry per-iteration start
//! stamps, the memory RAW conflicts observed across their iterations, the
//! traced register-LCD streams, and the worst class of call made from
//! inside the loop. Every configuration and execution model is evaluated
//! *offline* from this single profile — one run serves all 14 paper rows.

use crate::eval::EvalPlan;
use crate::iters::{IterSet, IterTimeline};
use lp_analysis::{LcdClass, LoopId};
use lp_ir::{BlockId, FuncId, ValueId};
use std::fmt;
use std::sync::OnceLock;

/// Dense index of a region node in [`Profile::regions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Returns the arena index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Severity-ordered classification of the calls made (dynamically) from
/// inside a loop. Drives the `fn0..fn3` gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CallClass {
    /// No calls executed inside the loop.
    #[default]
    NoCalls,
    /// Only pure (read-only, side-effect-free) callees.
    PureCalls,
    /// Instrumented user functions and/or thread-safe library builtins.
    InstrumentedCalls,
    /// At least one non-thread-safe builtin (I/O, shared-state RNG).
    UnsafeCalls,
}

/// Static (per `(function, loop)`) metadata captured from the compile-time
/// analyses.
#[derive(Debug, Clone)]
pub struct LoopMeta {
    /// Owning function.
    pub func: FuncId,
    /// Loop id within the function's forest.
    pub loop_id: LoopId,
    /// Function name (for reports).
    pub func_name: String,
    /// Header block (for reports).
    pub header: BlockId,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// Traced header phis: non-computable and reduction LCDs, in block
    /// order. Computable phis are filtered out at compile time — exactly
    /// the paper's "use compile-time analysis to filter out accelerated
    /// dependencies" overhead reduction.
    pub traced_phis: Vec<(ValueId, LcdClass)>,
    /// Number of computable (IV/MIV) header phis, for the census.
    pub computable_phis: u32,
}

/// The per-iteration trace of one traced register LCD in one loop
/// instance.
#[derive(Debug, Clone, Default)]
pub struct LcdInstance {
    /// Iterations (≥1) whose incoming value the hybrid predictor missed.
    pub mispredict_iters: IterSet,
    /// Maximum offset (relative to iteration start) at which the latch
    /// value was produced — the HELIX `dep1` producer timestamp.
    pub max_def_rel: u64,
    /// Values observed (= iterations the phi resolved).
    pub observed: u64,
    /// Values the hybrid predicted correctly.
    pub predicted: u64,
}

impl LcdInstance {
    /// Hybrid prediction accuracy for this instance (0 when empty).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.predicted as f64 / self.observed as f64
        }
    }
}

/// Dynamic record of one executed loop instance.
#[derive(Debug, Clone)]
pub struct LoopInstance {
    /// Index into [`Profile::loop_meta`].
    pub meta: usize,
    /// Absolute cost stamp of each iteration start; the last iteration
    /// ends at the region end.
    pub timeline: IterTimeline,
    /// Iterations that consumed a value stored by an earlier iteration
    /// (memory RAW conflicts).
    pub mem_conflict_iters: IterSet,
    /// Largest per-iteration producer→consumer skew over all dynamic
    /// memory RAW edges: `max((producer_rel − consumer_rel) / span)`.
    /// This is `delta_largest`'s memory contribution for HELIX.
    pub mem_max_skew: u64,
    /// Latest producer offset over all RAW edges (classic DOACROSS's
    /// single sync point must wait for the *last* write...).
    pub mem_max_producer_rel: u64,
    /// Earliest consumer offset over all RAW edges (...and release
    /// before the *first* read). `u64::MAX` when no edges manifested.
    pub mem_min_consumer_rel: u64,
    /// Total dynamic memory RAW edges observed (census).
    pub mem_edges: u64,
    /// Traced register-LCD streams, parallel to
    /// [`LoopMeta::traced_phis`].
    pub lcds: Vec<LcdInstance>,
    /// Worst call class observed while this instance was active.
    pub call_class: CallClass,
}

impl LoopInstance {
    /// Number of iterations executed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.timeline.len()
    }
}

/// Dense lookup from `(func, loop)` to a [`Profile::loop_meta`] index.
///
/// Two array indexes instead of a tuple-keyed hash map (see DESIGN.md
/// §10): the outer vector is indexed by function id, the inner by loop
/// id within that function. Not serialized — it is a pure function of
/// `loop_meta`, rebuilt on decode via [`MetaIndex::from_meta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaIndex {
    /// `per_func[func][loop]` is the meta index, or [`MetaIndex::NONE`].
    per_func: Vec<Vec<u32>>,
}

impl MetaIndex {
    /// Sentinel: no meta entry for this `(func, loop)` slot.
    const NONE: u32 = u32::MAX;

    /// Rebuilds the index from the meta table it points into.
    #[must_use]
    pub fn from_meta(loop_meta: &[LoopMeta]) -> MetaIndex {
        let mut index = MetaIndex::default();
        for (i, m) in loop_meta.iter().enumerate() {
            index.insert(m.func.0, m.loop_id.0, i);
        }
        index
    }

    /// Maps `(func, loop_id)` to `idx`, growing the tables as needed.
    pub fn insert(&mut self, func: u32, loop_id: u32, idx: usize) {
        let f = func as usize;
        if self.per_func.len() <= f {
            self.per_func.resize(f + 1, Vec::new());
        }
        let row = &mut self.per_func[f];
        let l = loop_id as usize;
        if row.len() <= l {
            row.resize(l + 1, MetaIndex::NONE);
        }
        row[l] = u32::try_from(idx).expect("meta index fits in u32");
    }

    /// The meta index for `(func, loop_id)`, if registered.
    #[must_use]
    pub fn get(&self, func: u32, loop_id: u32) -> Option<usize> {
        let v = *self.per_func.get(func as usize)?.get(loop_id as usize)?;
        (v != MetaIndex::NONE).then_some(v as usize)
    }

    /// All entries as `((func, loop_id), idx)`, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), usize)> + '_ {
        self.per_func.iter().enumerate().flat_map(|(f, row)| {
            row.iter().enumerate().filter_map(move |(l, &v)| {
                (v != MetaIndex::NONE).then_some(((f as u32, l as u32), v as usize))
            })
        })
    }
}

/// What a region node is.
#[derive(Debug, Clone)]
pub enum RegionKind {
    /// A function activation.
    Call {
        /// The callee.
        func: FuncId,
    },
    /// One dynamic execution of a loop. Boxed: most regions are calls,
    /// and an inline instance would size every region for a loop.
    Loop(Box<LoopInstance>),
}

/// A node of the dynamic region tree.
#[derive(Debug, Clone)]
pub struct Region {
    /// Parent node (`None` only for the root `main` activation).
    pub parent: Option<RegionId>,
    /// If the parent is a loop instance: the parent iteration during
    /// which this region started. 0 otherwise.
    pub parent_iter: u32,
    /// Start stamp on the sequential cost axis.
    pub start: u64,
    /// End stamp (exclusive).
    pub end: u64,
    /// Payload.
    pub kind: RegionKind,
    /// Child regions in creation order.
    pub children: Vec<RegionId>,
}

impl Region {
    /// Raw sequential cost of the region.
    #[must_use]
    pub fn serial_cost(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The complete record of one instrumented run.
///
/// A profile is immutable once built: the evaluator caches derived data
/// on it ([`Profile::eval_plan`]), so mutate the public fields only
/// before the first evaluation.
#[derive(Clone)]
pub struct Profile {
    /// Program name (module name).
    pub program: String,
    /// Total sequential dynamic IR cost of the run.
    pub total_cost: u64,
    /// Region arena; index 0 is the root (`main`).
    pub regions: Vec<Region>,
    /// Static loop metadata referenced by loop instances.
    pub loop_meta: Vec<LoopMeta>,
    /// Lookup from `(func, loop)` to `loop_meta` index.
    pub meta_index: MetaIndex,
    /// Function names indexed by [`FuncId`] — names the call frames in
    /// the collapsed-stack export.
    pub func_names: Vec<String>,
    /// The evaluation plan, built on first use. Like `meta_index` it is a
    /// pure function of the rest of the profile, so it is never
    /// serialized; it is also left out of `Debug`.
    pub(crate) plan: OnceLock<EvalPlan>,
}

impl fmt::Debug for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profile")
            .field("program", &self.program)
            .field("total_cost", &self.total_cost)
            .field("regions", &self.regions)
            .field("loop_meta", &self.loop_meta)
            .field("meta_index", &self.meta_index)
            .field("func_names", &self.func_names)
            .finish()
    }
}

impl Profile {
    /// Assembles a profile, deriving its [`MetaIndex`] from `loop_meta`.
    #[must_use]
    pub fn new(
        program: String,
        total_cost: u64,
        regions: Vec<Region>,
        loop_meta: Vec<LoopMeta>,
        func_names: Vec<String>,
    ) -> Profile {
        Profile {
            program,
            total_cost,
            regions,
            meta_index: MetaIndex::from_meta(&loop_meta),
            loop_meta,
            func_names,
            plan: OnceLock::new(),
        }
    }

    /// The root region (the `main` activation).
    ///
    /// # Panics
    /// Panics on an empty profile (the profiler always creates a root).
    #[must_use]
    pub fn root(&self) -> RegionId {
        assert!(!self.regions.is_empty(), "profile has no regions");
        RegionId(0)
    }

    /// Region lookup.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Metadata for a loop instance region.
    ///
    /// # Panics
    /// Panics if `region` is not a loop instance.
    #[must_use]
    pub fn meta_of(&self, region: &Region) -> &LoopMeta {
        match &region.kind {
            RegionKind::Loop(inst) => &self.loop_meta[inst.meta],
            RegionKind::Call { .. } => panic!("meta_of called on a call region"),
        }
    }

    /// Iterator over all loop-instance regions.
    pub fn loop_instances(&self) -> impl Iterator<Item = (RegionId, &Region, &LoopInstance)> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match &r.kind {
                RegionKind::Loop(inst) => Some((RegionId(i as u32), r, &**inst)),
                RegionKind::Call { .. } => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_meta() -> LoopMeta {
        LoopMeta {
            func: FuncId(0),
            loop_id: LoopId(0),
            func_name: "f".to_string(),
            header: BlockId(1),
            depth: 1,
            traced_phis: Vec::new(),
            computable_phis: 1,
        }
    }

    #[test]
    fn iteration_lengths_cover_the_instance() {
        let inst = LoopInstance {
            meta: 0,
            timeline: [10, 20, 35].into_iter().collect(),
            mem_conflict_iters: IterSet::default(),
            mem_max_skew: 0,
            mem_max_producer_rel: 0,
            mem_min_consumer_rel: u64::MAX,
            mem_edges: 0,
            lcds: Vec::new(),
            call_class: CallClass::NoCalls,
        };
        let region = Region {
            parent: None,
            parent_iter: 0,
            start: 10,
            end: 50,
            kind: RegionKind::Loop(Box::new(inst)),
            children: Vec::new(),
        };
        let profile = Profile::new(
            "p".into(),
            50,
            vec![region],
            vec![dummy_meta()],
            vec!["f".to_string()],
        );
        let r = profile.region(RegionId(0));
        let RegionKind::Loop(inst) = &r.kind else {
            unreachable!()
        };
        let segments: Vec<_> = inst.timeline.segments(r.end).collect();
        assert_eq!(segments, vec![(10, 1), (15, 1), (15, 1)]);
        let sum: u64 = segments.iter().map(|&(len, n)| len * u64::from(n)).sum();
        assert_eq!(sum, r.serial_cost());
    }

    #[test]
    fn meta_index_round_trips_and_iterates_in_key_order() {
        let mut metas = Vec::new();
        for (f, l) in [(2u32, 1u32), (0, 0), (2, 0)] {
            let mut m = dummy_meta();
            m.func = FuncId(f);
            m.loop_id = LoopId(l);
            metas.push(m);
        }
        let idx = MetaIndex::from_meta(&metas);
        assert_eq!(idx.get(2, 1), Some(0));
        assert_eq!(idx.get(0, 0), Some(1));
        assert_eq!(idx.get(2, 0), Some(2));
        assert_eq!(idx.get(1, 0), None);
        assert_eq!(idx.get(2, 7), None);
        assert_eq!(idx.get(9, 0), None);
        let keys: Vec<_> = idx.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn call_class_ordering_matches_severity() {
        assert!(CallClass::NoCalls < CallClass::PureCalls);
        assert!(CallClass::PureCalls < CallClass::InstrumentedCalls);
        assert!(CallClass::InstrumentedCalls < CallClass::UnsafeCalls);
    }

    #[test]
    fn lcd_accuracy() {
        let lcd = LcdInstance {
            observed: 10,
            predicted: 9,
            ..LcdInstance::default()
        };
        assert!((lcd.accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(LcdInstance::default().accuracy(), 0.0);
    }
}
