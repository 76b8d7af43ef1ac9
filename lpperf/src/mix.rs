//! Inputs of the `mix` workload: six kernels per seed, one per LCD
//! character, composed from the suite's public pattern builders and
//! printed as `lp-ir` text.
//!
//! Every pattern runs over a fixed ladder of segment sizes: one power of
//! two every other octave, from the pattern's largest (2^18 words at
//! most) down to 2^10, each segment over arrays of its own. The seed
//! draws everything else: the values the loops carry (LCG seeds,
//! permutation constants, strides, walk tables), histogram bin counts and
//! matrix shapes (both log-uniformly). Sizes and their order stay fixed
//! because they set the work and the footprint: drawing them moved the
//! peak resident set of a pass by up to 7% between seeds, while with them
//! fixed every seed does the same number of iterations over the same
//! memory, so different seeds give comparable pass times.

use lp_ir::builder::FunctionBuilder;
use lp_ir::{FuncId, Global, Module, Type, ValueId};
use lp_suite::kernels::load_elem;
use lp_suite::patterns;

/// SplitMix64 (Steele, Lea & Flood): the seed's only source of choices.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Smallest segment: 2^10 words.
const MIN_EXP: u32 = 10;

#[derive(Debug, Clone, Copy)]
enum Pattern {
    Lcg,
    Walk,
    StrideChase,
    PermChase,
    ChaseMem,
    Histogram,
    Stencil,
    Saxpy,
    Matvec,
    MapPure,
    MapScratch,
}

/// The six kernels: name, and each pattern with the exponent of its
/// largest segment: at most 2^18 words, about three times the suite's
/// largest array.
const KERNELS: [(&str, &[(Pattern, u32)]); 6] = [
    // Unpredictable register LCDs: every FCM context is new.
    ("chaotic", &[(Pattern::Lcg, 18)]),
    // Register LCDs the stride predictors and FCM learn.
    (
        "predictable",
        &[(Pattern::Walk, 16), (Pattern::StrideChase, 16)],
    ),
    // Chases over scrambled permutations, through a register and
    // through a memory cell.
    (
        "memory",
        &[(Pattern::PermChase, 17), (Pattern::ChaseMem, 16)],
    ),
    // Hashed read-modify-writes: infrequent memory conflicts.
    ("conflicts", &[(Pattern::Histogram, 17)]),
    // Numeric DOALL loops.
    (
        "numeric",
        &[
            (Pattern::Stencil, 14),
            (Pattern::Saxpy, 15),
            (Pattern::Matvec, 16),
        ],
    ),
    // Calls inside loops: a pure callee and a callee with a stack buffer.
    (
        "calls",
        &[(Pattern::MapPure, 14), (Pattern::MapScratch, 15)],
    ),
];

/// A kernel as `lp-ir` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Benchmark name, or for generated kernels the file stem, e.g.
    /// `k0_chaotic`.
    pub name: String,
    /// The module as `lp-ir` text.
    pub text: String,
}

/// Generates the six kernels for `seed`. `shrink` divides every segment
/// size by 2^shrink (0 for the benchmark, up to 6 for tests).
///
/// # Panics
/// Panics if `shrink > 6` or a kernel fails to verify (a generator bug).
#[must_use]
pub fn generate(seed: u64, shrink: u32) -> Vec<Kernel> {
    assert!(shrink <= 6, "shrink {shrink} leaves segments too small");
    let mut rng = SplitMix64::new(seed);
    KERNELS
        .iter()
        .enumerate()
        .map(|(k, (cat, patterns))| {
            let name = format!("k{k}_{cat}");
            let module = build(&mut rng, &format!("mix{seed}_{name}"), patterns, shrink);
            Kernel {
                name,
                text: lp_ir::printer::print_module(&module),
            }
        })
        .collect()
}

/// The segment exponents of a pattern whose largest segment is `2^top`:
/// every other power of two down to `2^lo`.
fn ladder(top: u32, lo: u32) -> Vec<u32> {
    (lo..=top).rev().step_by(2).collect()
}

fn build(rng: &mut SplitMix64, name: &str, patterns: &[(Pattern, u32)], shrink: u32) -> Module {
    let mut module = Module::new(name);
    let lo = MIN_EXP - shrink;
    let segments: Vec<(Pattern, u32)> = patterns
        .iter()
        .flat_map(|&(p, top)| ladder(top - shrink, lo).into_iter().map(move |e| (p, e)))
        .collect();
    let callees = (
        patterns::make_pure_fn(&mut module, "pure"),
        patterns::make_scratch_fn(&mut module, "scratch"),
    );
    let mut fb = FunctionBuilder::new("main", &[], Type::I64);
    let mut acc = fb.const_i64(0);
    for (i, &(pattern, e)) in segments.iter().enumerate() {
        let mut seg = Segment {
            module: &mut module,
            fb: &mut fb,
            rng: &mut *rng,
            id: i,
        };
        let r = seg.emit(pattern, e, callees);
        acc = fb.xor(acc, r);
    }
    fb.ret(Some(acc));
    module.add_function(fb.finish().expect("generated main is complete"));
    lp_ir::verify_module(&module).expect("generated kernel verifies");
    module
}

/// Emission context of one segment.
struct Segment<'a> {
    module: &'a mut Module,
    fb: &'a mut FunctionBuilder,
    rng: &'a mut SplitMix64,
    id: usize,
}

impl Segment<'_> {
    /// A zeroed global of `words` words; returns its address.
    fn array(&mut self, what: &str, words: u64) -> ValueId {
        let g = self
            .module
            .add_global(Global::zeroed(format!("s{}_{what}", self.id), words));
        self.fb.global_addr(g)
    }

    fn int(&mut self, v: u64) -> ValueId {
        self.fb.const_i64(v as i64)
    }

    /// Element `at` of an i64 array.
    fn elem(&mut self, base: ValueId, at: u64) -> ValueId {
        let i = self.int(at);
        load_elem(self.fb, Type::I64, base, i)
    }

    /// Element `at` of an f64 array, truncated to i64.
    fn felem(&mut self, base: ValueId, at: u64) -> ValueId {
        let i = self.int(at);
        let v = load_elem(self.fb, Type::F64, base, i);
        self.fb.fptosi(v)
    }

    /// Emits one segment of `2^e` elements; returns an i64 digest of it.
    fn emit(&mut self, pattern: Pattern, e: u32, callees: (FuncId, FuncId)) -> ValueId {
        let words = 1u64 << e;
        let n = self.int(words);
        match pattern {
            Pattern::Lcg => {
                let a = self.array("lcg", words);
                let seed = (self.rng.next_u64() | 1) as i64;
                patterns::fill_lcg(self.fb, a, n, seed, words as i64 - 1)
            }
            Pattern::Walk => {
                let a = self.array("walk", words);
                let common = self.rng.range(1, 16) as i64;
                let rare = self.rng.range(17, 1023) as i64;
                let period = self.rng.range(8, 128) as i64;
                patterns::fill_mostly_const(self.fb, a, n, common, rare, period);
                patterns::predictable_walk(self.fb, a, n, 2)
            }
            Pattern::StrideChase => {
                let a = self.array("stride", words);
                // An odd stride makes the chain one cycle through the table.
                let stride = (self.rng.range(0, 31) << 1 | 1) as i64;
                patterns::fill_stride_chain(self.fb, a, n, stride);
                patterns::pointer_chase(self.fb, a, n, 2)
            }
            Pattern::PermChase | Pattern::ChaseMem => {
                let table = self.array("perm", words);
                // Hull–Dobell: with mul ≡ 1 (mod 4) and odd add, i ↦
                // (mul·i + add) mod 2^e is one cycle through the whole
                // table, so the chase visits every word once.
                let mul = (self.rng.range(1, 1 << 28) << 2 | 1) as i64;
                let add = (self.rng.range(0, words / 2 - 1) << 1 | 1) as i64;
                patterns::fill_affine_perm(self.fb, table, n, mul, add);
                if let Pattern::PermChase = pattern {
                    patterns::pointer_chase(self.fb, table, n, 2)
                } else {
                    let cell = self.array("cell", 1);
                    let scratch = self.array("scratch", words);
                    patterns::chase_mem(self.fb, table, cell, scratch, n, 2);
                    self.elem(cell, 0)
                }
            }
            Pattern::Histogram => {
                let bins = 1u64 << self.rng.range(u64::from(e / 2), u64::from(e));
                let hist = self.array("hist", bins);
                patterns::histogram(self.fb, hist, n, bins as i64 - 1, 3);
                self.elem(hist, bins - 1)
            }
            Pattern::Stencil => {
                let src = self.array("src", words);
                let dst = self.array("dst", words);
                let scale = self.rng.range(1, 1000) as f64 / 1000.0;
                patterns::fill_affine_f64(self.fb, src, n, scale);
                patterns::stencil3(self.fb, src, dst, n, 2);
                self.felem(dst, words / 2)
            }
            Pattern::Saxpy => {
                let x = self.array("x", words);
                let y = self.array("y", words);
                let scale = self.rng.range(1, 1000) as f64 / 1000.0;
                patterns::fill_affine_f64(self.fb, x, n, scale);
                patterns::fill_affine_f64(self.fb, y, n, 1.0 - scale);
                let a = self.rng.range(1, 8) as f64 / 4.0;
                patterns::saxpy(self.fb, x, y, n, a, 2);
                self.felem(y, words - 1)
            }
            Pattern::Matvec => {
                let c = self.rng.range(2, u64::from(e) - 2) as u32;
                let (cols, rows) = (1u64 << c, 1u64 << (e - c));
                let mat = self.array("mat", words);
                let v = self.array("vec", cols);
                let out = self.array("out", rows);
                let scale = self.rng.range(1, 100) as f64 / 1000.0;
                patterns::fill_affine_f64(self.fb, mat, n, scale);
                let ncols = self.int(cols);
                patterns::fill_affine_f64(self.fb, v, ncols, 0.5);
                let nrows = self.int(rows);
                patterns::matvec(self.fb, mat, v, out, nrows, ncols, cols as i64);
                self.felem(out, rows - 1)
            }
            Pattern::MapPure | Pattern::MapScratch => {
                let src = self.array("src", words);
                let dst = self.array("dst", words);
                let mul = self.rng.range(1, 97) as i64;
                let add = self.rng.range(0, 999) as i64;
                patterns::fill_affine(self.fb, src, n, mul, add);
                let callee = if let Pattern::MapPure = pattern {
                    callees.0
                } else {
                    callees.1
                };
                patterns::map_call(self.fb, callee, src, dst, n);
                self.elem(dst, words - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_interp::{Engine, Exec, ExecUnit};

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        let a = generate(7, 6);
        assert_eq!(a, generate(7, 6));
        assert_eq!(a.len(), 6);
        let b = generate(8, 6);
        assert!(a.iter().zip(&b).any(|(x, y)| x.text != y.text));
    }

    #[test]
    fn ladders_span_2_10_to_2_18_words() {
        let tops: Vec<u32> = KERNELS
            .iter()
            .flat_map(|(_, ps)| ps.iter().map(|&(_, top)| top))
            .collect();
        assert!(tops.iter().all(|t| (MIN_EXP..=18).contains(t)));
        assert_eq!(tops.iter().max(), Some(&18));
        assert_eq!(ladder(18, 10), [18, 16, 14, 12, 10]);
        assert_eq!(ladder(15, 10), [15, 13, 11]);
    }

    #[test]
    fn kernels_verify_and_agree_under_tree_and_bc() {
        for seed in [1, 2] {
            for k in generate(seed, 6) {
                let m = lp_ir::parser::parse_module(&k.text)
                    .unwrap_or_else(|e| panic!("{} does not parse: {e}", k.name));
                lp_ir::verify_module(&m).unwrap();
                lp_analysis::verify_ssa(&m).unwrap();
                let run = |engine| {
                    let unit = ExecUnit::with_engine(&m, engine);
                    Exec::new(&unit).run(&[]).expect("kernel runs").result
                };
                assert_eq!(run(Engine::Tree), run(Engine::Bc), "{}", k.name);
            }
        }
    }
}
