//! Figure 1: the three parallel execution models, rendered as ASCII
//! timelines from the *actual cost models* on a toy 4-iteration loop with
//! one loop-carried dependency detected at iteration 2.
//!
//! ```text
//! cargo run -p lp-bench --bin fig1
//! ```

use lp_bench::Cli;
use lp_runtime::model::{doall_cost, helix_cost, pdoall_cost};

const ITER_LEN: u64 = 8;
const N: usize = 4;

fn draw(label: &str, starts: &[u64], total: u64) {
    println!("{label}");
    for (k, &s) in starts.iter().enumerate() {
        let pad = " ".repeat(s as usize);
        let body = "#".repeat(ITER_LEN as usize);
        println!("  iter {k}: {pad}{body}");
    }
    println!("  time ->  0{}{total}\n", "-".repeat(total as usize));
}

fn main() {
    let cli = Cli::parse();
    cli.enforce("fig1");
    let segments = [(ITER_LEN, 1u32); N];
    println!("Figure 1 — parallel execution models (toy loop, {N} iterations, LCD at iter 2)\n");

    // (a) DOALL: no conflicts assumed — all iterations start together.
    let cost = doall_cost(segments, false, false, None).unwrap();
    draw(
        "(a) DOALL (conflict-free case): all iterations start at once",
        &[0; N],
        cost,
    );

    // (b) Partial-DOALL: the conflict at iteration 2 restarts the phase.
    let conflicts = [2u32];
    let ranges: Vec<_> = conflicts.iter().map(|&k| k..k + 1).collect();
    let cost = pdoall_cost(segments, &ranges, false, None).unwrap();
    let mut starts = [0u64; N];
    let mut phase_start = 0;
    let mut ci = 0;
    let mut phase_longest = 0;
    for (k, start) in starts.iter_mut().enumerate() {
        if ci < conflicts.len() && conflicts[ci] as usize == k {
            ci += 1;
            phase_start += phase_longest;
            phase_longest = 0;
        }
        *start = phase_start;
        phase_longest = phase_longest.max(ITER_LEN);
    }
    draw(
        "(b) Partial-DOALL: LCD detected at iter 2 delays the younger iterations",
        &starts,
        cost,
    );

    // (c) HELIX: synchronization skews every iteration by delta.
    let delta = 3u64;
    let cost = helix_cost(segments, delta, false, None).unwrap();
    let starts: Vec<u64> = (0..N as u64).map(|k| k * delta).collect();
    draw(
        "(c) DOACROSS / HELIX: per-iteration synchronization (delta = 3)",
        &starts,
        cost,
    );

    println!(
        "costs: DOALL {}, PDOALL {}, HELIX {}, serial {}",
        doall_cost(segments, false, false, None).unwrap(),
        pdoall_cost(segments, &ranges, false, None).unwrap(),
        helix_cost(segments, delta, false, None).unwrap(),
        ITER_LEN * N as u64,
    );
    cli.finish("fig1");
}
