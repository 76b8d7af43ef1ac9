//! # lp-runtime — Loopapalooza's run-time component and evaluator
//!
//! This crate is the heart of the limit study (paper §III):
//!
//! - [`tracker::Profiler`] consumes the interpreter's instrumentation —
//!   the same per-event call-backs under either engine (DESIGN.md §15) —
//!   and produces a [`profile::Profile`]: the dynamic region tree with
//!   iteration stamps, memory RAW conflicts (with the cactus-stack
//!   structural-hazard filter of §II-E), register-LCD value prediction
//!   traces, and call classes;
//! - [`config`] defines the `reduc/dep/fn` flag lattice (Table II) and
//!   the DOALL / Partial-DOALL / HELIX execution models;
//! - [`model`] implements the three parallel cost models of §III-B;
//! - [`eval::evaluate`] folds a profile bottom-up (nested, multi-level
//!   parallelism) into the limit speedup and coverage for any
//!   `(model, config)` pair — one profile run serves all configurations;
//! - [`census`] quantifies Table I; [`report`] provides the GEOMEAN
//!   aggregation used by Figures 2–5;
//! - [`sweep`] fans work out over scoped worker threads with a
//!   deterministic merge, so the output is byte-identical for any
//!   `--jobs` count.

#![forbid(unsafe_code)]

pub mod audit;
pub mod census;
pub mod config;
pub mod eval;
pub mod explain;
pub mod export;
pub mod iters;
pub mod model;
pub mod profile;
pub mod replay;
pub mod report;
pub mod store;
pub mod sweep;
pub mod tracker;
pub mod witness;

pub use audit::{audit_snapshot, render_audit, Check, Verdict};
pub use census::Census;
pub use config::{
    best_helix, best_pdoall, table2_rows, Config, DepMode, ExecModel, FnMode, ReducMode,
};
pub use eval::{
    evaluate, evaluate_explained, evaluate_explained_with, evaluate_with, EvalOptions, EvalReport,
    LoopSummary,
};
pub use explain::{Attribution, Limiter, LimiterKind, LoopAttribution};
pub use export::{collapsed_stacks, Export};
pub use iters::{IterSet, IterTimeline};
pub use profile::{
    CallClass, LoopInstance, LoopMeta, MetaIndex, Profile, Region, RegionId, RegionKind,
};
pub use replay::{
    prediction_config, replay_module, replay_module_with, BenchReplay, Divergence, DivergenceKind,
    LoopReplay, RejectReason, RejectedLoop, ReplayExport, ThreadedExec,
};
pub use report::geomean;
pub use store::{
    decode_entry, encode_entry, profile_module_cached, CodecError, ProfileKey, ProfileStore,
    StoreMode, PROFILE_FORMAT_VERSION,
};
pub use sweep::{parallel_map, sweep_points, Jobs, SweepPoint, SweepUnit};
pub use tracker::{profile_module, profile_module_with, Profiler, ProfilerOptions};
pub use witness::{
    profile_module_witnessed, ConflictKind, IndependenceWitness, WitnessReport, WitnessViolation,
};

/// Address used to model the architectural stack pointer as a memory cell
/// when the cactus-stack assumption is disabled (see
/// [`ProfilerOptions::cactus_stack`]). Sits in the global region, below
/// any real global (the machine lays globals out from `GLOBAL_BASE` up).
#[must_use]
pub const fn profile_sp_hazard_addr() -> u64 {
    lp_interp::GLOBAL_BASE - 64
}
