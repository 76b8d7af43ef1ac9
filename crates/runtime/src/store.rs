//! Persistent, content-addressed profile store (warm-start sweeps).
//!
//! A [`Profile`] is a pure function of the module text and the machine
//! configuration: the interpreter is deterministic (seeded RNG, metered
//! cost axis), so two runs of the same module under the same
//! [`MachineConfig`] and [`ProfilerOptions`] produce byte-identical
//! profiles. That makes profiles cacheable *across processes* — the
//! expensive instrumented run happens once and every later `fig*`,
//! `sweep`, `ablations`, or `lpstudy` invocation warm-starts from disk.
//!
//! Three pieces:
//!
//! - [`ProfileKey`] — a stable 64-bit word-wise FNV-1a digest of the
//!   canonical-printed module, the key-relevant [`MachineConfig`] fields,
//!   the [`ProfilerOptions`], and [`PROFILE_FORMAT_VERSION`]. Bumping the
//!   format version invalidates every old entry by construction. The
//!   printer writes the whole module into one buffer, so deriving a key
//!   costs one string, not one per operand and line.
//! - a versioned, length-prefixed binary codec for `(Profile, RunResult)`
//!   — hand-rolled, zero-dep, little-endian, with a trailing word-wise
//!   FNV-1a checksum (see [`encode_entry`] / [`decode_entry`]). The
//!   decoder is defensive: corrupt or truncated input yields a
//!   [`CodecError`], never a panic or an unbounded allocation. Integer
//!   sequences are bounds-checked once per run, not once per element.
//! - [`ProfileStore`] — `open`/`get`/`put`/`gc` over a cache directory
//!   (default `results/.lp-cache/`), one `{key:016x}.lpp` file per entry,
//!   atomic write-then-rename puts, and corruption handling that discards
//!   the bad entry with a warning and falls back to re-profiling. A cache
//!   problem can cost time; it can never abort a study or change its
//!   results.
//!
//! On-disk entry layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+-------------+===========+----------+
//! | "LPPF" | version | payload_len |  payload  | checksum |
//! | 4 B    | u32     | u64         |  N bytes  | u64      |
//! +--------+---------+-------------+===========+----------+
//! ```
//!
//! The checksum is FNV-1a over the payload taken as little-endian 64-bit
//! words (the last `N mod 8` bytes one at a time), and is verified
//! *before* decoding. Each step multiplies, then xor-shifts the high half
//! into the low half; both are bijections in the running hash, so any
//! corruption confined to one word — a single bit flip included — is
//! always caught up front, and a change in a word's top bits still
//! reaches every bit of the digest. Format version 1 hashed byte by byte;
//! version 2 changed only the checksum and, through the shared hasher,
//! every key.
//!
//! The binaries use a store exactly when given `--profile-cache DIR`;
//! the `store_hits` / `store_misses` / `store_corrupt_discarded`
//! counters and the `store-io` span make cache effectiveness visible in
//! traces.

use crate::iters::{IterSet, IterTimeline};
use crate::profile::{
    CallClass, LcdInstance, LoopInstance, LoopMeta, Profile, Region, RegionId, RegionKind,
};
use crate::tracker::{profile_module_with, ProfilerOptions};
use lp_analysis::{LcdClass, LoopId, ModuleAnalysis, ScevClass};
use lp_interp::{MachineConfig, RunResult, Value};
use lp_ir::{BinOp, BlockId, FuncId, Module, ValueId};
use lp_obs::{lp_info, span, Counter};
use std::fmt;
use std::path::{Path, PathBuf};

/// Version stamp of the on-disk entry format *and* of the profile
/// semantics. Bump whenever the codec layout, the checksum, the profiler's
/// output, or the interpreter's cost model changes — the key derivation
/// folds it in, so old cache entries simply stop being found (and are
/// eventually garbage-collected) instead of being misinterpreted.
/// Version 2 replaced the byte-wise checksum and key hash with word-wise
/// ones; the payload layout is unchanged. Version 3 writes iteration
/// timelines as runs of equal-length iterations and iteration sets as
/// intervals, as [`crate::iters`] holds them, instead of one entry per
/// iteration.
pub const PROFILE_FORMAT_VERSION: u32 = 3;

/// Magic prefix of every cache entry ("LoopaPalooza ProFile").
const MAGIC: [u8; 4] = *b"LPPF";

/// File extension of cache entries.
const ENTRY_EXT: &str = "lpp";

// --------------------------------------------------------------------
// Word-wise FNV-1a (the workspace's zero-dep stable hash).
// --------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher that folds in one little-endian
/// 64-bit word per step, and the bytes after the last whole word one at
/// a time.
///
/// Each step is `h = (h ^ w) * P` followed by `h ^= h >> 32`. Both halves
/// are bijections in `h` (`P` is odd, and an xor-shift is invertible), so
/// a corruption confined to one word always changes the digest. The
/// multiply alone only carries a change toward higher bits: a flip of
/// bit 63 would stay bit 63 for the rest of the hash, and two such flips
/// would cancel. The xor-shift folds the high half back into the low
/// half, where the next multiply spreads it across all 64 bits. The
/// digest depends on how the input is split across [`Fnv::update`]
/// calls; every caller here splits it the same way each time.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn step(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
        self.0 ^= self.0 >> 32;
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().unwrap()));
        }
        for &b in words.remainder() {
            self.step(u64::from(b));
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Word-wise FNV-1a digest of a byte slice (used for the entry checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

// --------------------------------------------------------------------
// ProfileKey
// --------------------------------------------------------------------

/// Content address of a profile: a stable digest of everything the
/// profiler's output depends on.
///
/// Covered: the canonical-printed module text, `max_cost`,
/// `max_call_depth`, `rng_seed`, and `capture_output` from
/// [`MachineConfig`], the [`ProfilerOptions`] knobs, and
/// [`PROFILE_FORMAT_VERSION`]. `watched_values` is deliberately excluded:
/// the profiler derives it from the module, so it carries no information
/// the module text doesn't already. `engine` is likewise excluded — the
/// tree walk and the bytecode engine are observationally identical (the
/// differential suite proves byte-identical profiles), so a profile
/// cached under one engine is valid for the other.
///
/// The key only addresses *argument-less* entry runs (how every study
/// binary profiles); callers passing program arguments must bypass the
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileKey(pub u64);

impl ProfileKey {
    /// Derives the key for profiling `module` under `config`/`options`.
    #[must_use]
    pub fn of(module: &Module, config: &MachineConfig, options: &ProfilerOptions) -> ProfileKey {
        let mut h = Fnv::new();
        h.update(&PROFILE_FORMAT_VERSION.to_le_bytes());
        h.update(lp_ir::printer::print_module(module).as_bytes());
        h.update(&config.max_cost.to_le_bytes());
        h.update(&config.max_call_depth.to_le_bytes());
        h.update(&config.rng_seed.to_le_bytes());
        h.update(&[u8::from(config.capture_output)]);
        h.update(&[u8::from(options.cactus_stack)]);
        ProfileKey(h.finish())
    }
}

impl fmt::Display for ProfileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// --------------------------------------------------------------------
// Codec errors
// --------------------------------------------------------------------

/// Why a cache entry failed to decode. Every variant is recoverable: the
/// store discards the entry and the caller re-profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the structure it promised.
    Truncated,
    /// The magic prefix is not `LPPF` — not a cache entry at all.
    BadMagic,
    /// Written by a different [`PROFILE_FORMAT_VERSION`].
    VersionMismatch(u32),
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch,
    /// The payload decoded but violated a structural invariant.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated entry"),
            CodecError::BadMagic => write!(f, "bad magic (not a profile cache entry)"),
            CodecError::VersionMismatch(v) => {
                write!(
                    f,
                    "format version {v} (this build expects {PROFILE_FORMAT_VERSION})"
                )
            }
            CodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --------------------------------------------------------------------
// Encoder
// --------------------------------------------------------------------

/// Little-endian byte sink for the payload.
#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string length exceeds u32"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length prefix for a following sequence.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("sequence length exceeds u32"));
    }
}

// --------------------------------------------------------------------
// Decoder
// --------------------------------------------------------------------

/// Defensive cursor over the payload: every read is bounds-checked and
/// every length prefix is validated against the bytes actually remaining
/// before any allocation happens.
#[derive(Debug)]
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, CodecError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a sequence length and proves the payload can actually hold
    /// that many elements of at least `min_elem_bytes` each — so a
    /// corrupt length can never trigger a huge pre-allocation.
    fn len(&mut self, min_elem_bytes: usize) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> DecodeResult<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("non-UTF-8 string"))
    }

    /// Length-prefixed `u32` sequence: the whole run is bounds-checked
    /// once, then converted word by word.
    fn vec_u32(&mut self) -> DecodeResult<Vec<u32>> {
        let n = self.len(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Length-prefixed sequence of `N`-byte records, checked like
    /// [`Dec::vec_u32`] and handed out as byte chunks.
    fn records<const N: usize>(&mut self) -> DecodeResult<impl Iterator<Item = [u8; N]> + 'a> {
        let n = self.len(N)?;
        let bytes = self.take(n * N)?;
        Ok(bytes.chunks_exact(N).map(|c| c.try_into().unwrap()))
    }

    /// Length-prefixed `u64` sequence, checked like [`Dec::vec_u32`].
    fn vec_u64(&mut self) -> DecodeResult<Vec<u64>> {
        let n = self.len(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn finish(&self) -> DecodeResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after payload"))
        }
    }
}

// --------------------------------------------------------------------
// Enum tags (explicit, so codec stability never depends on declaration
// order staying put).
// --------------------------------------------------------------------

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::SDiv => 3,
        BinOp::SRem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::AShr => 9,
        BinOp::SMin => 10,
        BinOp::SMax => 11,
        BinOp::FAdd => 12,
        BinOp::FSub => 13,
        BinOp::FMul => 14,
        BinOp::FDiv => 15,
        BinOp::FMin => 16,
        BinOp::FMax => 17,
    }
}

fn binop_of(tag: u8) -> DecodeResult<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::SDiv,
        4 => BinOp::SRem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::AShr,
        10 => BinOp::SMin,
        11 => BinOp::SMax,
        12 => BinOp::FAdd,
        13 => BinOp::FSub,
        14 => BinOp::FMul,
        15 => BinOp::FDiv,
        16 => BinOp::FMin,
        17 => BinOp::FMax,
        _ => return Err(CodecError::Malformed("unknown BinOp tag")),
    })
}

fn scev_tag(c: ScevClass) -> u8 {
    match c {
        ScevClass::Induction => 0,
        ScevClass::Mutual => 1,
        ScevClass::NonComputable => 2,
    }
}

fn scev_of(tag: u8) -> DecodeResult<ScevClass> {
    Ok(match tag {
        0 => ScevClass::Induction,
        1 => ScevClass::Mutual,
        2 => ScevClass::NonComputable,
        _ => return Err(CodecError::Malformed("unknown ScevClass tag")),
    })
}

fn call_class_tag(c: CallClass) -> u8 {
    match c {
        CallClass::NoCalls => 0,
        CallClass::PureCalls => 1,
        CallClass::InstrumentedCalls => 2,
        CallClass::UnsafeCalls => 3,
    }
}

fn call_class_of(tag: u8) -> DecodeResult<CallClass> {
    Ok(match tag {
        0 => CallClass::NoCalls,
        1 => CallClass::PureCalls,
        2 => CallClass::InstrumentedCalls,
        3 => CallClass::UnsafeCalls,
        _ => return Err(CodecError::Malformed("unknown CallClass tag")),
    })
}

fn enc_lcd_class(e: &mut Enc, c: LcdClass) {
    match c {
        LcdClass::Computable(s) => {
            e.u8(0);
            e.u8(scev_tag(s));
        }
        LcdClass::Reduction(op) => {
            e.u8(1);
            e.u8(binop_tag(op));
        }
        LcdClass::NonComputable => e.u8(2),
    }
}

fn dec_lcd_class(d: &mut Dec<'_>) -> DecodeResult<LcdClass> {
    Ok(match d.u8()? {
        0 => LcdClass::Computable(scev_of(d.u8()?)?),
        1 => LcdClass::Reduction(binop_of(d.u8()?)?),
        2 => LcdClass::NonComputable,
        _ => return Err(CodecError::Malformed("unknown LcdClass tag")),
    })
}

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::I(x) => {
            e.u8(0);
            e.i64(*x);
        }
        Value::F(x) => {
            e.u8(1);
            e.f64(*x);
        }
        Value::P(x) => {
            e.u8(2);
            e.u64(*x);
        }
        Value::B(x) => {
            e.u8(3);
            e.u8(u8::from(*x));
        }
        Value::Unit => e.u8(4),
    }
}

fn dec_value(d: &mut Dec<'_>) -> DecodeResult<Value> {
    Ok(match d.u8()? {
        0 => Value::I(d.i64()?),
        1 => Value::F(d.f64()?),
        2 => Value::P(d.u64()?),
        3 => Value::B(match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Malformed("non-boolean byte")),
        }),
        4 => Value::Unit,
        _ => return Err(CodecError::Malformed("unknown Value tag")),
    })
}

// --------------------------------------------------------------------
// Struct codecs
// --------------------------------------------------------------------

fn enc_loop_meta(e: &mut Enc, m: &LoopMeta) {
    e.u32(m.func.0);
    e.u32(m.loop_id.0);
    e.str(&m.func_name);
    e.u32(m.header.0);
    e.u32(m.depth);
    e.len(m.traced_phis.len());
    for (v, c) in &m.traced_phis {
        e.u32(v.0);
        enc_lcd_class(e, *c);
    }
    e.u32(m.computable_phis);
}

fn dec_loop_meta(d: &mut Dec<'_>) -> DecodeResult<LoopMeta> {
    let func = FuncId(d.u32()?);
    let loop_id = LoopId(d.u32()?);
    let func_name = d.str()?;
    let header = BlockId(d.u32()?);
    let depth = d.u32()?;
    let n = d.len(5)?;
    let mut traced_phis = Vec::with_capacity(n);
    for _ in 0..n {
        let v = ValueId(d.u32()?);
        traced_phis.push((v, dec_lcd_class(d)?));
    }
    Ok(LoopMeta {
        func,
        loop_id,
        func_name,
        header,
        depth,
        traced_phis,
        computable_phis: d.u32()?,
    })
}

/// An iteration timeline: the start list, then each long run as
/// `(at: u32, count: u32, step: u64)`.
fn enc_timeline(e: &mut Enc, t: &IterTimeline) {
    let (starts, runs) = t.parts();
    e.len(starts.len());
    for &s in starts {
        e.u64(s);
    }
    e.len(runs.len());
    for r in runs {
        e.u32(r.at);
        e.u32(r.count);
        e.u64(r.step);
    }
}

fn dec_timeline(d: &mut Dec<'_>) -> DecodeResult<IterTimeline> {
    let starts = d.vec_u64()?;
    let runs = d.records::<16>()?.map(|r| {
        let word = |i: usize| u32::from_le_bytes(r[i..i + 4].try_into().unwrap());
        (
            word(0),
            word(4),
            u64::from_le_bytes(r[8..].try_into().unwrap()),
        )
    });
    IterTimeline::from_runs(starts, runs).map_err(CodecError::Malformed)
}

/// An iteration set: the first list, then each long interval as
/// `(at: u32, count: u32)`.
fn enc_iter_set(e: &mut Enc, s: &IterSet) {
    let (firsts, intervals) = s.parts();
    e.len(firsts.len());
    for &k in firsts {
        e.u32(k);
    }
    e.len(intervals.len());
    for iv in intervals {
        e.u32(iv.at);
        e.u32(iv.count);
    }
}

fn dec_iter_set(d: &mut Dec<'_>) -> DecodeResult<IterSet> {
    let firsts = d.vec_u32()?;
    let intervals = d.records::<8>()?.map(|r| {
        let word = |i: usize| u32::from_le_bytes(r[i..i + 4].try_into().unwrap());
        (word(0), word(4))
    });
    IterSet::from_intervals(firsts, intervals).map_err(CodecError::Malformed)
}

fn enc_lcd_instance(e: &mut Enc, l: &LcdInstance) {
    enc_iter_set(e, &l.mispredict_iters);
    e.u64(l.max_def_rel);
    e.u64(l.observed);
    e.u64(l.predicted);
}

fn dec_lcd_instance(d: &mut Dec<'_>) -> DecodeResult<LcdInstance> {
    Ok(LcdInstance {
        mispredict_iters: dec_iter_set(d)?,
        max_def_rel: d.u64()?,
        observed: d.u64()?,
        predicted: d.u64()?,
    })
}

fn enc_loop_instance(e: &mut Enc, i: &LoopInstance) {
    e.u64(i.meta as u64);
    enc_timeline(e, &i.timeline);
    enc_iter_set(e, &i.mem_conflict_iters);
    e.u64(i.mem_max_skew);
    e.u64(i.mem_max_producer_rel);
    e.u64(i.mem_min_consumer_rel);
    e.u64(i.mem_edges);
    e.len(i.lcds.len());
    for l in &i.lcds {
        enc_lcd_instance(e, l);
    }
    e.u8(call_class_tag(i.call_class));
}

fn dec_loop_instance(d: &mut Dec<'_>, meta_count: usize) -> DecodeResult<LoopInstance> {
    let meta = usize::try_from(d.u64()?).map_err(|_| CodecError::Malformed("meta index"))?;
    if meta >= meta_count {
        return Err(CodecError::Malformed("loop meta index out of range"));
    }
    let timeline = dec_timeline(d)?;
    let mem_conflict_iters = dec_iter_set(d)?;
    let mem_max_skew = d.u64()?;
    let mem_max_producer_rel = d.u64()?;
    let mem_min_consumer_rel = d.u64()?;
    let mem_edges = d.u64()?;
    let n = d.len(32)?;
    let mut lcds = Vec::with_capacity(n);
    for _ in 0..n {
        lcds.push(dec_lcd_instance(d)?);
    }
    Ok(LoopInstance {
        meta,
        timeline,
        mem_conflict_iters,
        mem_max_skew,
        mem_max_producer_rel,
        mem_min_consumer_rel,
        mem_edges,
        lcds,
        call_class: call_class_of(d.u8()?)?,
    })
}

fn enc_region(e: &mut Enc, r: &Region) {
    match r.parent {
        Some(p) => {
            e.u8(1);
            e.u32(p.0);
        }
        None => e.u8(0),
    }
    e.u32(r.parent_iter);
    e.u64(r.start);
    e.u64(r.end);
    match &r.kind {
        RegionKind::Call { func } => {
            e.u8(0);
            e.u32(func.0);
        }
        RegionKind::Loop(inst) => {
            e.u8(1);
            enc_loop_instance(e, inst);
        }
    }
    e.len(r.children.len());
    for c in &r.children {
        e.u32(c.0);
    }
}

fn dec_region(d: &mut Dec<'_>, region_count: usize, meta_count: usize) -> DecodeResult<Region> {
    let parent = match d.u8()? {
        0 => None,
        1 => {
            let p = d.u32()?;
            if p as usize >= region_count {
                return Err(CodecError::Malformed("parent region out of range"));
            }
            Some(RegionId(p))
        }
        _ => return Err(CodecError::Malformed("unknown parent tag")),
    };
    let parent_iter = d.u32()?;
    let start = d.u64()?;
    let end = d.u64()?;
    let kind = match d.u8()? {
        0 => RegionKind::Call {
            func: FuncId(d.u32()?),
        },
        1 => RegionKind::Loop(Box::new(dec_loop_instance(d, meta_count)?)),
        _ => return Err(CodecError::Malformed("unknown RegionKind tag")),
    };
    let raw_children = d.vec_u32()?;
    let mut children = Vec::with_capacity(raw_children.len());
    for c in raw_children {
        if c as usize >= region_count {
            return Err(CodecError::Malformed("child region out of range"));
        }
        children.push(RegionId(c));
    }
    Ok(Region {
        parent,
        parent_iter,
        start,
        end,
        kind,
        children,
    })
}

fn enc_profile(e: &mut Enc, p: &Profile) {
    e.str(&p.program);
    e.u64(p.total_cost);
    e.len(p.func_names.len());
    for n in &p.func_names {
        e.str(n);
    }
    e.len(p.loop_meta.len());
    for m in &p.loop_meta {
        enc_loop_meta(e, m);
    }
    e.len(p.regions.len());
    for r in &p.regions {
        enc_region(e, r);
    }
    // meta_index intentionally not serialized: it is a pure function of
    // loop_meta and is rebuilt on decode.
}

fn dec_profile(d: &mut Dec<'_>) -> DecodeResult<Profile> {
    let program = d.str()?;
    let total_cost = d.u64()?;
    let n_funcs = d.len(4)?;
    let mut func_names = Vec::with_capacity(n_funcs);
    for _ in 0..n_funcs {
        func_names.push(d.str()?);
    }
    let n_meta = d.len(21)?;
    let mut loop_meta = Vec::with_capacity(n_meta);
    for _ in 0..n_meta {
        loop_meta.push(dec_loop_meta(d)?);
    }
    let n_regions = d.len(26)?;
    let mut regions = Vec::with_capacity(n_regions);
    for _ in 0..n_regions {
        regions.push(dec_region(d, n_regions, n_meta)?);
    }
    Ok(Profile::new(
        program, total_cost, regions, loop_meta, func_names,
    ))
}

fn enc_run_result(e: &mut Enc, r: &RunResult) {
    enc_value(e, &r.ret);
    e.u64(r.cost);
    e.len(r.output.len());
    for line in &r.output {
        e.str(line);
    }
}

fn dec_run_result(d: &mut Dec<'_>) -> DecodeResult<RunResult> {
    let ret = dec_value(d)?;
    let cost = d.u64()?;
    let n = d.len(4)?;
    let mut output = Vec::with_capacity(n);
    for _ in 0..n {
        output.push(d.str()?);
    }
    Ok(RunResult { ret, cost, output })
}

// --------------------------------------------------------------------
// Entry framing
// --------------------------------------------------------------------

/// Serializes a `(Profile, RunResult)` pair into a framed, checksummed
/// cache entry.
#[must_use]
pub fn encode_entry(profile: &Profile, run: &RunResult) -> Vec<u8> {
    let mut e = Enc::default();
    enc_profile(&mut e, profile);
    enc_run_result(&mut e, run);
    let payload = e.buf;
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROFILE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses a framed cache entry back into `(Profile, RunResult)`.
///
/// # Errors
/// Returns a [`CodecError`] for any malformed input — wrong magic, other
/// format version, truncation, checksum mismatch, or structural
/// violations. Never panics on untrusted bytes.
pub fn decode_entry(bytes: &[u8]) -> DecodeResult<(Profile, RunResult)> {
    if bytes.len() < 16 {
        return Err(CodecError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != PROFILE_FORMAT_VERSION {
        return Err(CodecError::VersionMismatch(version));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload_len = usize::try_from(payload_len).map_err(|_| CodecError::Truncated)?;
    let rest = &bytes[16..];
    if rest.len() != payload_len + 8 {
        return Err(CodecError::Truncated);
    }
    let (payload, checksum_bytes) = rest.split_at(payload_len);
    let stored = u64::from_le_bytes(checksum_bytes.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(CodecError::ChecksumMismatch);
    }
    let mut d = Dec::new(payload);
    let profile = dec_profile(&mut d)?;
    let run = dec_run_result(&mut d)?;
    d.finish()?;
    Ok((profile, run))
}

// --------------------------------------------------------------------
// Store
// --------------------------------------------------------------------

/// How the persistent cache participates in a run: it serves hits and
/// persists new profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// Serve hits and persist new profiles.
    #[default]
    ReadWrite,
}

/// The persistent profile store: one directory, one file per
/// [`ProfileKey`].
///
/// All failure modes degrade: a missing or corrupt entry is a miss (the
/// caller re-profiles), an unwritable directory makes `put` a no-op with
/// a warning. The store can slow a run down when broken; it can never
/// change results or abort.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    dir: PathBuf,
}

impl ProfileStore {
    /// Opens, creating it if need be, the cache directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures; callers are expected to
    /// degrade to running without a store.
    pub fn open(dir: impl Into<PathBuf>, mode: StoreMode) -> std::io::Result<ProfileStore> {
        let StoreMode::ReadWrite = mode;
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ProfileStore { dir })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: ProfileKey) -> PathBuf {
        self.dir.join(format!("{key}.{ENTRY_EXT}"))
    }

    /// Looks `key` up, returning the cached profile and run result on a
    /// hit. Counts `store_hits` / `store_misses` /
    /// `store_corrupt_discarded`; a corrupt entry is deleted, warned
    /// about on stderr, and reported as a miss.
    #[must_use]
    pub fn get(&self, key: ProfileKey) -> Option<(Profile, RunResult)> {
        let _io = span!("store-io");
        let c = lp_obs::counters();
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                c.add(Counter::StoreMisses, 1);
                return None;
            }
        };
        match decode_entry(&bytes) {
            Ok(entry) => {
                c.add(Counter::StoreHits, 1);
                lp_info!("profile store: hit {key} ({} bytes)", bytes.len());
                Some(entry)
            }
            Err(err) => {
                c.add(Counter::StoreCorruptDiscarded, 1);
                c.add(Counter::StoreMisses, 1);
                eprintln!(
                    "warning: profile store: discarding {} ({err}); re-profiling",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists an entry under `key` via write-to-temp + atomic rename.
    /// Best-effort: I/O failures warn instead of propagating.
    pub fn put(&self, key: ProfileKey, profile: &Profile, run: &RunResult) {
        let _io = span!("store-io");
        let bytes = encode_entry(profile, run);
        let path = self.path_of(key);
        let tmp = self
            .dir
            .join(format!("{key}.{ENTRY_EXT}.tmp{}", std::process::id()));
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        match result {
            Ok(()) => lp_info!("profile store: put {key} ({} bytes)", bytes.len()),
            Err(err) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!(
                    "warning: profile store: failed to write {} ({err})",
                    path.display()
                );
            }
        }
    }

    /// Deletes oldest-modified entries until the cache holds at most
    /// `max_bytes` of entry data. Returns the number of bytes reclaimed.
    ///
    /// The common steady state — a cache already under budget — exits
    /// after one metadata sweep, counted as
    /// [`Counter::StoreGcSkipped`], without sorting or deleting
    /// anything.
    ///
    /// # Errors
    /// Propagates directory-listing failures; individual file errors are
    /// skipped (another process may be collecting concurrently).
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<u64> {
        let _io = span!("store-io");
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let modified = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            entries.push((path, meta.len(), modified));
        }
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= max_bytes {
            lp_obs::counters().add(Counter::StoreGcSkipped, 1);
            return Ok(0);
        }
        // Oldest first; ties broken by path for determinism.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut reclaimed = 0;
        for (path, len, _) in entries {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                reclaimed += len;
            }
        }
        Ok(reclaimed)
    }
}

/// Profiles `module` through the store: serve a cached `(Profile,
/// RunResult)` when available, otherwise run the instrumented
/// interpreter and persist the result.
///
/// The store only addresses argument-less entry runs, which is how every
/// study binary profiles; `args` therefore isn't a parameter here.
///
/// # Errors
/// Propagates interpreter traps from the cold path; the cache itself
/// never fails a call.
pub fn profile_module_cached(
    module: &Module,
    analysis: &ModuleAnalysis,
    machine_config: MachineConfig,
    options: ProfilerOptions,
    store: Option<&ProfileStore>,
) -> Result<(Profile, RunResult), lp_interp::InterpError> {
    if let Some(store) = store {
        let key = ProfileKey::of(module, &machine_config, &options);
        if let Some(entry) = store.get(key) {
            return Ok(entry);
        }
        let (profile, run) = profile_module_with(module, analysis, &[], machine_config, options)?;
        store.put(key, &profile, &run);
        return Ok((profile, run));
    }
    profile_module_with(module, analysis, &[], machine_config, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::Type;
    use lp_suite::kernels::counted_loop;

    fn sample_meta() -> LoopMeta {
        LoopMeta {
            func: FuncId(2),
            loop_id: LoopId(1),
            func_name: "kernel".to_string(),
            header: BlockId(3),
            depth: 2,
            traced_phis: vec![
                (ValueId(4), LcdClass::Computable(ScevClass::Induction)),
                (ValueId(5), LcdClass::Reduction(BinOp::FAdd)),
                (ValueId(6), LcdClass::NonComputable),
            ],
            computable_phis: 1,
        }
    }

    fn sample_profile() -> Profile {
        let inst = LoopInstance {
            meta: 0,
            timeline: [10, 20, 35].into_iter().collect(),
            mem_conflict_iters: [1, 2].into_iter().collect(),
            mem_max_skew: 7,
            mem_max_producer_rel: 9,
            mem_min_consumer_rel: u64::MAX,
            mem_edges: 4,
            lcds: vec![LcdInstance {
                mispredict_iters: [1].into_iter().collect(),
                max_def_rel: 3,
                observed: 2,
                predicted: 1,
            }],
            call_class: CallClass::PureCalls,
        };
        let root = Region {
            parent: None,
            parent_iter: 0,
            start: 0,
            end: 60,
            kind: RegionKind::Call { func: FuncId(0) },
            children: vec![RegionId(1)],
        };
        let body = Region {
            parent: Some(RegionId(0)),
            parent_iter: 0,
            start: 10,
            end: 50,
            kind: RegionKind::Loop(Box::new(inst)),
            children: Vec::new(),
        };
        Profile::new(
            "demo".to_string(),
            60,
            vec![root, body],
            vec![sample_meta()],
            vec!["main".to_string(), "aux".to_string(), "kernel".to_string()],
        )
    }

    fn sample_run() -> RunResult {
        RunResult {
            ret: Value::I(-42),
            cost: 60,
            output: vec!["line one".to_string(), "π≈3".to_string()],
        }
    }

    fn assert_profiles_equal(a: &Profile, b: &Profile) {
        // Profile has no PartialEq; compare a rendering that covers every
        // field (MetaIndex::iter is already in ascending key order).
        let fingerprint = |p: &Profile| {
            let idx: Vec<_> = p.meta_index.iter().collect();
            format!(
                "{} {} {:?} {:?} {:?} {idx:?}",
                p.program, p.total_cost, p.regions, p.loop_meta, p.func_names
            )
        };
        assert_eq!(fingerprint(a), fingerprint(b));
    }

    #[test]
    fn entry_round_trips() {
        let profile = sample_profile();
        let run = sample_run();
        let bytes = encode_entry(&profile, &run);
        let (p2, r2) = decode_entry(&bytes).unwrap();
        assert_profiles_equal(&profile, &p2);
        assert_eq!(format!("{run:?}"), format!("{r2:?}"));
        assert_eq!(p2.meta_index.get(2, 1), Some(0));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_entry(&sample_profile(), &sample_run());
        for cut in 0..bytes.len() {
            assert!(
                decode_entry(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_harmless() {
        let bytes = encode_entry(&sample_profile(), &sample_run());
        // Flipping any single bit must either fail to decode (magic /
        // version / checksum / structure) — it can never be silently
        // accepted as different data, because the checksum covers the
        // whole payload and the header fields are validated.
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                decode_entry(&corrupt).is_err(),
                "bit flip at byte {byte} decoded"
            );
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut bytes = encode_entry(&sample_profile(), &sample_run());
        bytes[4..8].copy_from_slice(&(PROFILE_FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_entry(&bytes).map(|_| ()).unwrap_err(),
            CodecError::VersionMismatch(PROFILE_FORMAT_VERSION + 1)
        );
    }

    #[test]
    fn v1_entry_is_a_version_mismatch() {
        let mut bytes = encode_entry(&sample_profile(), &sample_run());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_entry(&bytes).map(|_| ()).unwrap_err(),
            CodecError::VersionMismatch(1)
        );
    }

    #[test]
    fn v2_entry_is_a_version_mismatch() {
        // Version 2 wrote one stamp per iteration; its entries must read
        // as a miss, never be parsed with the run layout.
        let mut bytes = encode_entry(&sample_profile(), &sample_run());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_entry(&bytes).map(|_| ()).unwrap_err(),
            CodecError::VersionMismatch(2)
        );
    }

    /// Profiles `main` as built by `body` and returns the profile.
    fn profile_main(name: &str, body: impl FnOnce(&mut FunctionBuilder)) -> Profile {
        let mut m = Module::new(name);
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        body(&mut fb);
        m.add_function(fb.finish().unwrap());
        let analysis = lp_analysis::analyze_module(&m);
        profile_module_with(
            &m,
            &analysis,
            &[],
            MachineConfig::default(),
            ProfilerOptions::default(),
        )
        .unwrap()
        .0
    }

    fn encoded_len(enc: impl FnOnce(&mut Enc)) -> usize {
        let mut e = Enc::default();
        enc(&mut e);
        e.buf.len()
    }

    #[test]
    fn a_loop_of_all_different_lengths_costs_one_stamp_per_iteration() {
        // Outer iteration i runs i inner iterations, so no two outer
        // iterations are equally long and no run can form: the worst case
        // for the timeline.
        let profile = profile_main("growing", |fb| {
            let n = fb.const_i64(48);
            let zero = fb.const_i64(0);
            let acc = counted_loop(fb, n, &[(Type::I64, zero)], |fb, i, phis| {
                counted_loop(fb, i, &[(Type::I64, phis[0])], |fb, j, p| {
                    vec![fb.add(p[0], j)]
                })
            });
            fb.ret(Some(acc[0]));
        });
        let (_, _, outer) = profile.loop_instances().next().unwrap();
        let n = outer.iterations();
        assert_eq!(n, 49);
        let (starts, runs) = outer.timeline.parts();
        assert_eq!((starts.len(), runs.len()), (n, 0), "no run formed");
        // Held: one 8-byte stamp per iteration, as a plain vector holds.
        let held = std::mem::size_of_val(starts) + std::mem::size_of_val(runs);
        assert!(held <= 8 * n, "{held} bytes held for {n} iterations");
        // Stored: the plain layout's length word and stamps, plus the
        // empty run table's length word.
        let stored = encoded_len(|e| enc_timeline(e, &outer.timeline));
        assert!(
            stored <= 4 + 8 * n + 4,
            "{stored} bytes stored for {n} iterations"
        );
    }

    #[test]
    fn an_lcd_mispredicted_every_other_iteration_costs_one_word_per_member() {
        // x' = lcg(x) on even iterations and x itself on odd ones: last
        // value predicts every repeat and nothing predicts a fresh LCG
        // value, so iterations 1, 3, 5, … mispredict: the worst case for
        // an iteration set.
        let profile = profile_main("alternating", |fb| {
            let n = fb.const_i64(64);
            let seed = fb.const_i64(12_345);
            let two = fb.const_i64(2);
            let one = fb.const_i64(1);
            let x = counted_loop(fb, n, &[(Type::I64, seed)], |fb, i, phis| {
                let x = phis[0];
                let k = fb.const_i64(6_364_136_223_846_793_005_u64 as i64);
                let c = fb.const_i64(1_442_695_040_888_963_407_u64 as i64);
                let kx = fb.mul(x, k);
                let next = fb.add(kx, c);
                let odd = fb.srem(i, two);
                let even = fb.sub(one, odd);
                let step = fb.sub(next, x);
                let taken = fb.mul(step, even);
                vec![fb.add(x, taken)]
            });
            fb.ret(Some(x[0]));
        });
        let (_, _, inst) = profile.loop_instances().next().unwrap();
        let set = &inst.lcds[0].mispredict_iters;
        let members: Vec<u32> = set.iter().collect();
        assert_eq!(members, (1..64).step_by(2).collect::<Vec<u32>>());
        let (firsts, intervals) = set.parts();
        assert_eq!((firsts.len(), intervals.len()), (members.len(), 0));
        let held = std::mem::size_of_val(firsts) + std::mem::size_of_val(intervals);
        assert!(held <= 4 * members.len(), "{held} bytes held");
        let stored = encoded_len(|e| enc_iter_set(e, set));
        assert!(stored <= 4 + 4 * members.len() + 4, "{stored} bytes stored");
    }

    #[test]
    fn every_corrupt_payload_word_is_rejected() {
        let bytes = encode_entry(&sample_profile(), &sample_run());
        let payload = 16..bytes.len() - 8;
        assert!(payload.len() >= 64, "sample payload too small to probe");
        // splitmix64, seeded: nonzero masks that vary per word.
        let mut state = 0x5eed_u64;
        let mut random_mask = || loop {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z != 0 {
                break z;
            }
        };
        for start in payload.clone().step_by(8) {
            let end = (start + 8).min(payload.end);
            for mask in [u64::MAX, random_mask()] {
                let mut corrupt = bytes.clone();
                for (b, m) in corrupt[start..end].iter_mut().zip(mask.to_le_bytes()) {
                    *b ^= m;
                }
                if corrupt == bytes {
                    // A tail byte the mask left untouched.
                    continue;
                }
                assert!(
                    decode_entry(&corrupt).is_err(),
                    "payload word at byte {start} xor {mask:#018x} decoded"
                );
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_payload_words_are_rejected() {
        // A multiply carries a change only toward higher bits, so without
        // the xor-shift in `Fnv::step` two bit-63 flips cancel exactly.
        let bytes = encode_entry(&sample_profile(), &sample_run());
        let payload_end = bytes.len() - 8;
        let word_tops: Vec<usize> = (16 + 7..payload_end).step_by(8).collect();
        assert!(word_tops.len() >= 8, "sample payload too small to probe");
        for (n, &a) in word_tops.iter().enumerate() {
            for &b in &word_tops[n + 1..] {
                let mut corrupt = bytes.clone();
                corrupt[a] ^= 0x80;
                corrupt[b] ^= 0x80;
                assert_eq!(
                    decode_entry(&corrupt).map(|_| ()).unwrap_err(),
                    CodecError::ChecksumMismatch,
                    "bit 63 of the words ending at bytes {a} and {b} flipped"
                );
            }
        }
    }

    #[test]
    fn huge_length_prefix_does_not_preallocate() {
        // A payload claiming u32::MAX regions must be rejected up front
        // (Truncated), not attempt a gigantic Vec::with_capacity.
        let mut e = Enc::default();
        e.str("p");
        e.u64(0);
        e.u32(u32::MAX); // func_names length
        let payload = e.buf;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&PROFILE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let checksum = fnv1a(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_entry(&bytes).map(|_| ()).unwrap_err(),
            CodecError::Truncated
        );
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lp-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_put_get_round_trip_and_corruption_fallback() {
        let dir = scratch_dir("roundtrip");
        let store = ProfileStore::open(&dir, StoreMode::ReadWrite).unwrap();
        let key = ProfileKey(0xDEAD_BEEF_0123_4567);
        assert!(store.get(key).is_none());
        let profile = sample_profile();
        let run = sample_run();
        store.put(key, &profile, &run);
        let (p2, _) = store.get(key).expect("hit after put");
        assert_profiles_equal(&profile, &p2);
        // Corrupt the entry on disk; the store must discard it and miss.
        let path = dir.join(format!("{key}.{ENTRY_EXT}"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.get(key).is_none());
        assert!(!path.exists(), "corrupt entry should be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serializes the tests that run `gc`: each under-budget call bumps
    /// the process-global [`Counter::StoreGcSkipped`], which
    /// `gc_under_budget_is_a_counted_no_op` checks for an exact `+1`.
    static GC_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn gc_removes_oldest_until_under_budget() {
        let _gc = GC_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = scratch_dir("gc");
        let store = ProfileStore::open(&dir, StoreMode::ReadWrite).unwrap();
        let profile = sample_profile();
        let run = sample_run();
        for i in 0..3u64 {
            store.put(ProfileKey(i), &profile, &run);
        }
        let entry_len = encode_entry(&profile, &run).len() as u64;
        let reclaimed = store.gc(entry_len * 2).unwrap();
        assert!(reclaimed >= entry_len);
        let remaining = std::fs::read_dir(&dir).unwrap().count();
        assert!(remaining <= 2, "expected <=2 entries, found {remaining}");
        assert_eq!(store.gc(u64::MAX).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_under_budget_is_a_counted_no_op() {
        let _gc = GC_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = scratch_dir("gc-skip");
        let store = ProfileStore::open(&dir, StoreMode::ReadWrite).unwrap();
        let profile = sample_profile();
        let run = sample_run();
        store.put(ProfileKey(9), &profile, &run);
        let skipped_before = lp_obs::counters().get(Counter::StoreGcSkipped);
        assert_eq!(store.gc(u64::MAX).unwrap(), 0);
        assert_eq!(
            lp_obs::counters().get(Counter::StoreGcSkipped),
            skipped_before + 1,
            "an under-budget gc must count as skipped"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "the entry must survive a skipped gc"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small counted loop with a reduction, in the canonical text
    /// format.
    const LOOP_SRC: &str = r#"
module "demo"

global @tab = words(3) init [5, 6, 7]

fn @main() -> i64 {
entry:
  br header
header:
  %i: i64 = phi i64 [ entry: i64 0 ], [ body: %i2 ]
  %s: i64 = phi i64 [ entry: i64 0 ], [ body: %s2 ]
  %c: i1 = icmp slt %i, i64 3
  condbr %c, body, exit
body:
  %a: ptr = gep global @tab, %i, scale 8, offset 0
  %x: i64 = load i64, %a
  %s2: i64 = add %s, %x
  %i2: i64 = add %i, i64 1
  br header
exit:
  ret %s
}
"#;

    #[test]
    fn profile_key_is_stable_and_sensitive() {
        let module = lp_ir::parser::parse_module(LOOP_SRC).expect("parse");
        let config = MachineConfig::default();
        let options = ProfilerOptions::default();
        let k1 = ProfileKey::of(&module, &config, &options);
        let k2 = ProfileKey::of(&module, &config, &options);
        assert_eq!(k1, k2, "key must be deterministic");
        // Pinned: this changes only together with PROFILE_FORMAT_VERSION
        // (or the canonical printer, whose text is the key's input).
        assert_eq!(k1.to_string(), "415a1f555881570a");
        let other_config = MachineConfig {
            rng_seed: config.rng_seed ^ 1,
            ..MachineConfig::default()
        };
        assert_ne!(k1, ProfileKey::of(&module, &other_config, &options));
        let other_options = ProfilerOptions {
            cactus_stack: false,
        };
        assert_ne!(k1, ProfileKey::of(&module, &config, &other_options));
        // watched_values must NOT affect the key (derived from module).
        let watched = MachineConfig {
            watched_values: vec![(FuncId(0), ValueId(0))],
            ..MachineConfig::default()
        };
        assert_eq!(k1, ProfileKey::of(&module, &watched, &options));
        // The engine must NOT affect the key either: both engines produce
        // byte-identical profiles, so cache entries are engine-portable.
        let bc = MachineConfig {
            engine: lp_interp::Engine::Bc,
            ..MachineConfig::default()
        };
        assert_eq!(k1, ProfileKey::of(&module, &bc, &options));
    }

    #[test]
    fn key_hash_sees_case_flips_in_the_high_bytes_of_two_words() {
        // A letter's case is bit 5 of its byte; at offset 7 of a word that
        // is bit 61, which the multiply alone never carries downward.
        let module = lp_ir::parser::parse_module(LOOP_SRC).expect("parse");
        let text = lp_ir::printer::print_module(&module).into_bytes();
        let letter_tops: Vec<usize> = (7..text.len())
            .step_by(8)
            .filter(|&i| text[i].is_ascii_alphabetic())
            .collect();
        assert!(letter_tops.len() >= 8, "module text too small to probe");
        let base = fnv1a(&text);
        for (n, &a) in letter_tops.iter().enumerate() {
            for &b in &letter_tops[n + 1..] {
                let mut other = text.clone();
                other[a] ^= 0x20;
                other[b] ^= 0x20;
                assert_ne!(fnv1a(&other), base, "case of bytes {a} and {b} flipped");
            }
        }
    }

    #[test]
    fn profile_module_cached_hits_on_second_call() {
        let module = lp_ir::parser::parse_module(LOOP_SRC).expect("parse");
        let analysis = lp_analysis::analyze_module(&module);
        let dir = scratch_dir("cached");
        let store = ProfileStore::open(&dir, StoreMode::ReadWrite).unwrap();
        let config = MachineConfig::default();
        let options = ProfilerOptions::default();
        let (cold_p, cold_r) =
            profile_module_cached(&module, &analysis, config.clone(), options, Some(&store))
                .unwrap();
        let (warm_p, warm_r) =
            profile_module_cached(&module, &analysis, config, options, Some(&store)).unwrap();
        assert_profiles_equal(&cold_p, &warm_p);
        assert_eq!(format!("{cold_r:?}"), format!("{warm_r:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
