//! Bounded execution tracing.
//!
//! [`TraceSink`] records the instrumentation event stream into a bounded
//! ring buffer and pretty-prints it — the debugging view of what the
//! run-time component consumes. Because the buffer is bounded, it is safe
//! to attach to arbitrarily long runs (you keep the tail).

use crate::events::EventSink;
use crate::value::Value;
use lp_ir::{BlockId, Builtin, FuncId, ValueId};
use std::collections::VecDeque;
use std::fmt;

/// One recorded instrumentation event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Block entry (function, block, static cost, cost counter).
    Block(FuncId, BlockId, u64, u64),
    /// Phi resolution.
    Phi(FuncId, ValueId, Value, u64),
    /// Memory load.
    Load(u64, u64),
    /// Memory store.
    Store(u64, u64),
    /// Function entry (callee, frame base, cost counter).
    Enter(FuncId, u64, u64),
    /// Function exit.
    Exit(FuncId, u64),
    /// Builtin invocation.
    BuiltinCall(FuncId, Builtin, u64),
    /// Watched value definition.
    Def(FuncId, ValueId, Value, u64),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Block(func, block, cost, now) => {
                write!(f, "[{now:>8}] block  {func} {block} (cost {cost})")
            }
            TraceEvent::Phi(func, phi, v, now) => {
                write!(f, "[{now:>8}] phi    {func} {phi} = {v}")
            }
            TraceEvent::Load(addr, now) => write!(f, "[{now:>8}] load   {addr:#x}"),
            TraceEvent::Store(addr, now) => write!(f, "[{now:>8}] store  {addr:#x}"),
            TraceEvent::Enter(func, base, now) => {
                write!(f, "[{now:>8}] enter  {func} (frame {base:#x})")
            }
            TraceEvent::Exit(func, now) => write!(f, "[{now:>8}] exit   {func}"),
            TraceEvent::BuiltinCall(func, b, now) => {
                write!(f, "[{now:>8}] call   {func} @!{b}")
            }
            TraceEvent::Def(func, v, val, now) => {
                write!(f, "[{now:>8}] def    {func} {v} = {val}")
            }
        }
    }
}

/// An [`EventSink`] that keeps the last `capacity` events.
#[derive(Debug, Clone)]
pub struct TraceSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    /// Total events seen (including evicted ones).
    pub total: u64,
}

impl TraceSink {
    /// A trace buffer holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TraceSink {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceSink {
            events: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    fn push(&mut self, e: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(e);
        self.total += 1;
    }

    /// The retained (most recent) events, oldest first.
    #[must_use]
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Renders the retained events, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.total as usize > self.events.len() {
            out.push_str(&format!(
                "... {} earlier event(s) evicted ...\n",
                self.total as usize - self.events.len()
            ));
        }
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

impl EventSink for TraceSink {
    fn block_entered(&mut self, func: FuncId, block: BlockId, cost: u64, now: u64) {
        self.push(TraceEvent::Block(func, block, cost, now));
    }

    fn phi_resolved(
        &mut self,
        func: FuncId,
        _block: BlockId,
        phi: ValueId,
        value: Value,
        now: u64,
    ) {
        self.push(TraceEvent::Phi(func, phi, value, now));
    }

    fn load(&mut self, addr: u64, now: u64) {
        self.push(TraceEvent::Load(addr, now));
    }

    fn store(&mut self, addr: u64, now: u64) {
        self.push(TraceEvent::Store(addr, now));
    }

    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        self.push(TraceEvent::Enter(func, frame_base, now));
    }

    fn func_exited(&mut self, func: FuncId, now: u64) {
        self.push(TraceEvent::Exit(func, now));
    }

    fn builtin_called(&mut self, caller: FuncId, builtin: Builtin, now: u64) {
        self.push(TraceEvent::BuiltinCall(caller, builtin, now));
    }

    fn value_defined(&mut self, func: FuncId, value: ValueId, val: Value, now: u64) {
        self.push(TraceEvent::Def(func, value, val, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Engine;
    use crate::{Exec, ExecUnit};
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, Module, Type};

    fn trace(m: &Module, engine: Engine, capacity: usize) -> TraceSink {
        let unit = ExecUnit::with_engine(m, engine);
        let mut sink = TraceSink::new(capacity);
        Exec::new(&unit).sink(&mut sink).run(&[]).unwrap();
        sink
    }

    fn traced_module() -> Module {
        let mut m = Module::new("t");
        let g = m.add_global(Global::zeroed("g", 2));
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
    fn records_and_renders_events_in_order() {
        let m = traced_module();
        let sink = trace(&m, Engine::Tree, 64);
        let kinds: Vec<&str> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Block(..) => "block",
                TraceEvent::Enter(..) => "enter",
                TraceEvent::Exit(..) => "exit",
                TraceEvent::Load(..) => "load",
                TraceEvent::Store(..) => "store",
                TraceEvent::BuiltinCall(..) => "builtin",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["enter", "block", "store", "load", "builtin", "exit"]
        );
        let text = sink.render();
        assert!(text.contains("store"));
        assert!(text.contains("@!sqrt"));
        // Timestamps are non-decreasing in the rendered order.
        let nows: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Block(.., n)
                | TraceEvent::Phi(.., n)
                | TraceEvent::Load(_, n)
                | TraceEvent::Store(_, n)
                | TraceEvent::Enter(.., n)
                | TraceEvent::Exit(_, n)
                | TraceEvent::BuiltinCall(.., n)
                | TraceEvent::Def(.., n) => *n,
            })
            .collect();
        assert!(nows.windows(2).all(|w| w[0] <= w[1]), "{nows:?}");
        // The bytecode engine delivers the identical stream.
        let bc = trace(&m, Engine::Bc, 64);
        assert_eq!(bc.render(), text);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let m = traced_module();
        let sink = trace(&m, Engine::Tree, 2);
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.total, 6);
        assert!(sink.render().starts_with("... 4 earlier event(s) evicted"));
        // The retained tail is the exit pair.
        assert!(matches!(sink.events()[1], TraceEvent::Exit(..)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TraceSink::new(0);
    }
}
