//! Sink metering.
//!
//! [`MeteredSink`] decorates any [`EventSink`] with per-kind event
//! counters without touching the inner sink's behaviour — the decorated
//! run produces exactly the same inner-sink state as an undecorated one
//! (counters are plain local `u64`s, so the overhead is one increment
//! per event).

use crate::events::EventSink;
use crate::value::Value;
use lp_ir::{BlockId, Builtin, FuncId, ValueId};

/// Per-kind tallies of the instrumentation events a run delivered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Basic-block entries.
    pub blocks: u64,
    /// Phi resolutions.
    pub phis: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Function entries.
    pub funcs: u64,
    /// Function exits.
    pub exits: u64,
    /// Builtin invocations.
    pub builtins: u64,
    /// Watched-value definitions.
    pub defs: u64,
}

impl EventCounts {
    /// Total events of all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.blocks
            + self.phis
            + self.loads
            + self.stores
            + self.funcs
            + self.exits
            + self.builtins
            + self.defs
    }
}

/// Decorates an inner sink with event metering.
#[derive(Debug, Default, Clone)]
pub struct MeteredSink<S> {
    inner: S,
    counts: EventCounts,
    /// Cost at the most recent block entry — the best "how far did the
    /// run get" stamp available when the end-of-run journal record is
    /// cut in [`EventSink::run_finished`].
    last_now: u64,
}

impl<S> MeteredSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> MeteredSink<S> {
        MeteredSink {
            inner,
            counts: EventCounts::default(),
            last_now: 0,
        }
    }

    /// The tallies so far.
    #[must_use]
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// A reference to the inner sink.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: EventSink> EventSink for MeteredSink<S> {
    fn block_entered(&mut self, func: FuncId, block: BlockId, cost: u64, now: u64) {
        self.counts.blocks += 1;
        self.last_now = now;
        self.inner.block_entered(func, block, cost, now);
    }

    fn phi_resolved(&mut self, func: FuncId, block: BlockId, phi: ValueId, value: Value, now: u64) {
        self.counts.phis += 1;
        self.inner.phi_resolved(func, block, phi, value, now);
    }

    fn load(&mut self, addr: u64, now: u64) {
        self.counts.loads += 1;
        self.inner.load(addr, now);
    }

    fn store(&mut self, addr: u64, now: u64) {
        self.counts.stores += 1;
        self.inner.store(addr, now);
    }

    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        self.counts.funcs += 1;
        self.inner.func_entered(func, frame_base, now);
    }

    fn func_exited(&mut self, func: FuncId, now: u64) {
        self.counts.exits += 1;
        self.inner.func_exited(func, now);
    }

    fn builtin_called(&mut self, caller: FuncId, builtin: Builtin, now: u64) {
        self.counts.builtins += 1;
        self.inner.builtin_called(caller, builtin, now);
    }

    fn value_defined(&mut self, func: FuncId, value: ValueId, val: Value, now: u64) {
        self.counts.defs += 1;
        self.inner.value_defined(func, value, val, now);
    }

    fn run_finished(&mut self) {
        // The flight recorder's end-of-run mark: total events delivered
        // and the cost reached by the last block entry.
        lp_obs::journal::record(
            lp_obs::EventKind::RunCompleted,
            self.counts.total(),
            self.last_now,
        );
        self.inner.run_finished();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CountingSink;
    use crate::machine::{Engine, MachineConfig};
    use crate::{Exec, ExecUnit};
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, Module, Type};

    /// Writes every event as one line of text, so two runs' streams
    /// can be compared byte for byte.
    #[derive(Debug, Default)]
    struct Recorder(Vec<String>);

    impl EventSink for Recorder {
        fn block_entered(&mut self, func: FuncId, block: BlockId, cost: u64, now: u64) {
            self.0
                .push(format!("[{now}] block {func} {block} cost {cost}"));
        }

        fn phi_resolved(
            &mut self,
            func: FuncId,
            block: BlockId,
            phi: ValueId,
            value: Value,
            now: u64,
        ) {
            self.0
                .push(format!("[{now}] phi {func} {block} {phi} = {value:?}"));
        }

        fn load(&mut self, addr: u64, now: u64) {
            self.0.push(format!("[{now}] load {addr:#x}"));
        }

        fn store(&mut self, addr: u64, now: u64) {
            self.0.push(format!("[{now}] store {addr:#x}"));
        }

        fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
            self.0
                .push(format!("[{now}] enter {func} frame {frame_base:#x}"));
        }

        fn func_exited(&mut self, func: FuncId, now: u64) {
            self.0.push(format!("[{now}] exit {func}"));
        }

        fn builtin_called(&mut self, caller: FuncId, builtin: Builtin, now: u64) {
            self.0.push(format!("[{now}] call {caller} {builtin:?}"));
        }

        fn value_defined(&mut self, func: FuncId, value: ValueId, val: Value, now: u64) {
            self.0.push(format!("[{now}] def {func} {value} = {val:?}"));
        }

        fn run_finished(&mut self) {
            self.0.push("finished".to_string());
        }
    }

    fn run_with<S: EventSink>(m: &Module, engine: Engine, sink: &mut S) -> crate::RunResult {
        let unit = ExecUnit::with_engine(m, engine);
        Exec::new(&unit).sink(sink).run(&[]).unwrap().result
    }

    fn sample_module() -> Module {
        let mut m = Module::new("metered");
        let g = m.add_global(Global::zeroed("g", 4));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let p = fb.global_addr(g);
        let x = fb.const_i64(5);
        fb.store(x, p);
        let y = fb.load(Type::I64, p);
        let yf = fb.sitofp(y);
        let s = fb.call_builtin(lp_ir::Builtin::Sqrt, &[yf]);
        let si = fb.fptosi(s);
        fb.ret(Some(si));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn events_arrive_in_program_order_on_both_engines() {
        let m = sample_module();
        let mut tree = Recorder::default();
        run_with(&m, Engine::Tree, &mut tree);
        let kinds: Vec<&str> = tree
            .0
            .iter()
            .map(|e| e.split(' ').nth(1).unwrap_or(e))
            .collect();
        assert_eq!(
            kinds,
            ["enter", "block", "store", "load", "call", "exit", "finished"]
        );
        let nows: Vec<u64> = tree
            .0
            .iter()
            .filter_map(|e| e.strip_prefix('[')?.split(']').next()?.parse().ok())
            .collect();
        assert!(nows.windows(2).all(|w| w[0] <= w[1]), "{nows:?}");
        let mut bc = Recorder::default();
        run_with(&m, Engine::Bc, &mut bc);
        assert_eq!(bc.0, tree.0);
    }

    #[test]
    fn metering_preserves_inner_sink_state() {
        let m = sample_module();
        let mut plain = CountingSink::default();
        let plain_result = run_with(&m, Engine::Tree, &mut plain);

        let mut metered = MeteredSink::new(CountingSink::default());
        let metered_result = run_with(&m, Engine::Tree, &mut metered);

        assert_eq!(plain_result.ret, metered_result.ret);
        assert_eq!(plain_result.cost, metered_result.cost);
        let (inner, counts) = (metered.inner(), metered.counts());
        assert_eq!(format!("{plain:?}"), format!("{inner:?}"));
        assert_eq!(counts.blocks, inner.blocks);
        assert_eq!(counts.loads, inner.loads);
        assert_eq!(counts.stores, inner.stores);
        assert!(counts.total() >= counts.blocks + counts.loads + counts.stores);
        assert_eq!(counts.funcs, 1);
        assert_eq!(counts.exits, 1);
        assert_eq!(counts.builtins, 1);
    }

    #[test]
    fn metered_run_cuts_a_journal_record() {
        let m = sample_module();
        let journal = lp_obs::journal::global();
        let (before, _) = journal.snapshot();
        let mut metered = MeteredSink::new(CountingSink::default());
        run_with(&m, Engine::Tree, &mut metered);
        let (after, records) = journal.snapshot();
        assert!(after > before, "run completion was not journaled");
        assert!(records
            .iter()
            .any(|r| r.kind == lp_obs::EventKind::RunCompleted && r.a == metered.counts().total()));
    }

    #[test]
    fn mut_ref_sinks_compose() {
        // `&mut S` is itself a sink, so decorators can borrow.
        let m = sample_module();
        let mut counting = CountingSink::default();
        let mut metered = MeteredSink::new(&mut counting);
        run_with(&m, Engine::Tree, &mut metered);
        let counts = metered.counts();
        assert_eq!(counts.loads, counting.loads);
    }

    #[test]
    fn tree_and_bc_metering_agree() {
        // A metered run must produce identical counter totals under
        // both engines, and the inner sink behind the decorator must
        // see a byte-identical stream.
        let mut m = Module::new("conformance");
        let g = m.add_global(Global::zeroed("g", 4));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let p = fb.global_addr(g);
        let x = fb.const_i64(5);
        fb.store(x, p);
        let y = fb.load(Type::I64, p);
        fb.ret(Some(y));
        m.add_function(fb.finish().unwrap());
        let fid = m.function_by_name("main").unwrap();
        let cfg = MachineConfig {
            watched_values: vec![(fid, y)],
            ..MachineConfig::default()
        };

        let run = |engine: Engine| {
            let unit = ExecUnit::with_engine(&m, engine);
            let mut metered = MeteredSink::new(Recorder::default());
            let result = Exec::new(&unit)
                .sink(&mut metered)
                .config(cfg.clone())
                .run(&[])
                .unwrap()
                .result;
            let counts = metered.counts();
            let trace = metered.inner().0.join("\n");
            (result, counts, trace)
        };
        let (tree_result, tree_counts, tree_trace) = run(Engine::Tree);
        let (bc_result, bc_counts, bc_trace) = run(Engine::Bc);
        assert_eq!(tree_result, bc_result);
        assert_eq!(tree_counts, bc_counts, "counter totals diverged");
        assert_eq!(tree_trace, bc_trace, "inner stream diverged");
        assert_eq!(tree_counts.defs, 1, "watched def must be counted");
        assert!(tree_counts.loads >= 1 && tree_counts.stores >= 1);
    }
}
