//! Regenerates every experiment table/series of the reproduction
//! (DESIGN.md §3, recorded in EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p amoebot-bench --bin experiments [--figures]`

use amoebot_bench::*;
use amoebot_grid::{render, shapes, AmoebotStructure, NodeId};
use amoebot_spf::spt::shortest_path_tree;

fn header(id: &str, claim: &str) {
    println!("\n=== {id} — {claim} ===");
}

fn main() {
    let figures = std::env::args().any(|a| a == "--figures");

    header(
        "E1 (Lemma 4)",
        "PASC on chains: 2 rounds/iteration, O(log m)",
    );
    println!(
        "{:>8} {:>8} {:>14} {:>8}",
        "m", "rounds", "2*ceil(log2 m)", "ratio"
    );
    for m in [16usize, 64, 256, 1024, 4096] {
        let r = pasc_chain_rounds(m);
        let pred = 2 * log2_ceil(m as u64);
        println!(
            "{:>8} {:>8} {:>14} {:>8.2}",
            m,
            r,
            pred,
            r as f64 / pred as f64
        );
    }

    header("E2 (Corollary 5)", "PASC on trees: O(log h) rounds");
    println!("{:>8} {:>8} {:>8}", "height", "rounds", "log2 h");
    for levels in [3usize, 5, 7, 9, 11] {
        let r = pasc_tree_rounds(levels);
        println!(
            "{:>8} {:>8} {:>8}",
            levels - 1,
            r,
            log2_ceil((levels - 1) as u64)
        );
    }

    header("E3 (Corollary 6)", "weighted prefix sums: O(log W) rounds");
    println!(
        "{:>8} {:>8} {:>8} {:>14}",
        "m", "W", "rounds", "2*(log2 W + 1)"
    );
    for &(m, w) in &[
        (1024usize, 1usize),
        (1024, 4),
        (1024, 32),
        (1024, 256),
        (1024, 1024),
    ] {
        let r = pasc_prefix_rounds(m, w);
        println!(
            "{:>8} {:>8} {:>8} {:>14}",
            m,
            w,
            r,
            2 * (log2_ceil(w as u64 + 1) + 1)
        );
    }

    header(
        "E4/E5 (Lemmas 14, 20)",
        "ETT root-and-prune: O(log |Q|) rounds",
    );
    println!("{:>8} {:>8} {:>8}", "n", "|Q|", "rounds");
    for &(n, q) in &[
        (512usize, 1usize),
        (512, 8),
        (512, 64),
        (512, 512),
        (4096, 8),
        (4096, 4096),
    ] {
        println!("{:>8} {:>8} {:>8}", n, q, root_prune_rounds(n, q));
    }

    header("E6 (Lemma 21)", "election: O(1) rounds");
    println!("{:>8} {:>8} {:>8}", "n", "|Q|", "rounds");
    for &(n, q) in &[(64usize, 4usize), (512, 32), (4096, 256)] {
        println!("{:>8} {:>8} {:>8}", n, q, election_rounds(n, q));
    }

    header("E7 (Lemma 23)", "Q-centroids: O(log |Q|) rounds");
    println!("{:>8} {:>8} {:>8}", "n", "|Q|", "rounds");
    for &(n, q) in &[(256usize, 4usize), (256, 64), (1024, 64), (1024, 1024)] {
        println!("{:>8} {:>8} {:>8}", n, q, centroid_rounds(n, q));
    }

    header("E8 (Corollary 29)", "|A_Q| <= |Q| - 1");
    println!("{:>8} {:>8} {:>12}", "n", "|Q|", "|A_Q|/|Q|");
    for &(n, q) in &[(256usize, 4usize), (256, 16), (1024, 32), (1024, 256)] {
        println!("{:>8} {:>8} {:>12.3}", n, q, augmentation_ratio(n, q));
    }

    header(
        "E9 (Lemmas 30/31)",
        "decomposition: O(log^2 |Q|) rounds, O(log |Q|) depth",
    );
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>12}",
        "n", "|Q|", "rounds", "levels", "log2^2 |Q|"
    );
    for &(n, q) in &[(128usize, 8usize), (256, 32), (512, 128), (1024, 512)] {
        let (r, lv) = decomposition_stats(n, q);
        let lg = log2_ceil(q as u64).max(1);
        println!("{:>8} {:>8} {:>8} {:>8} {:>12}", n, q, r, lv, lg * lg);
    }

    header("E11 (Theorem 39)", "SPT: O(log l) rounds, fixed n");
    let s = standard_structure(2048);
    println!("structure: n = {}", s.len());
    println!("{:>8} {:>8} {:>12}", "l", "rounds", "log2 l + 1");
    for l in [1usize, 2, 8, 32, 128, 512, s.len()] {
        println!(
            "{:>8} {:>8} {:>12}",
            l,
            spt_rounds(&s, l),
            log2_ceil(l as u64) + 1
        );
    }

    header("E12 (Theorem 39)", "SPSP: O(1) rounds vs n");
    println!("{:>8} {:>8} {:>8}", "n", "diam", "rounds");
    for nt in [128usize, 512, 2048, 8192] {
        let s = standard_structure(nt);
        println!("{:>8} {:>8} {:>8}", s.len(), "-", spsp_rounds(&s));
    }

    header("E13 (Theorem 39)", "SSSP: O(log n) rounds");
    println!("{:>8} {:>8} {:>10}", "n", "rounds", "log2 n");
    for nt in [128usize, 512, 2048, 8192] {
        let s = standard_structure(nt);
        println!(
            "{:>8} {:>8} {:>10}",
            s.len(),
            sssp_rounds(&s),
            log2_ceil(s.len() as u64)
        );
    }

    header("E14 (Lemma 40)", "line algorithm: O(log n) rounds");
    println!("{:>8} {:>8} {:>8}", "n", "k", "rounds");
    for &(n, k) in &[(64usize, 1usize), (64, 8), (512, 8), (4096, 8), (4096, 512)] {
        println!("{:>8} {:>8} {:>8}", n, k, line_rounds(n, k));
    }

    header("E17 (Theorem 56)", "forest: O(log n log^2 k) rounds");
    println!(
        "{:>8} {:>8} {:>8} {:>16} {:>8} {:>8} {:>8}",
        "n", "k", "rounds", "logn*log2k^2", "ticked", "charged", "parallel"
    );
    for nt in [256usize, 1024, 4096] {
        let s = standard_structure(nt);
        for k in [2usize, 4, 8, 16] {
            let out = forest_outcome(&s, k);
            let pred = log2_ceil(s.len() as u64) * log2_ceil(k as u64).max(1).pow(2);
            println!(
                "{:>8} {:>8} {:>8} {:>16} {:>8} {:>8} {:>8}",
                s.len(),
                k,
                out.rounds,
                pred,
                out.ticks,
                out.charged,
                out.parallel
            );
        }
    }

    header("E18 (baselines)", "polylog vs O(diam) and O(k log n)");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "n", "k", "forest", "seq", "wavefront", "diam"
    );
    for nt in [256usize, 1024, 4096] {
        let s = standard_structure(nt);
        for k in [2usize, 8, 16] {
            println!(
                "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
                s.len(),
                k,
                forest_rounds(&s, k),
                sequential_rounds(&s, k),
                wavefront_rounds(&s, k),
                s.diameter(),
            );
        }
    }

    header(
        "E20 (Theorem 2 substitute)",
        "leader election: O(log n) rounds w.h.p.",
    );
    println!("{:>8} {:>8} {:>10}", "n", "rounds", "success%");
    for n in [16usize, 64, 256, 1024] {
        let mut ok = 0;
        let mut rounds = 0;
        let trials = 20;
        for seed in 0..trials {
            let (r, success) = leader_rounds(n, seed);
            rounds = r;
            if success {
                ok += 1;
            }
        }
        println!(
            "{:>8} {:>8} {:>9.0}%",
            n,
            rounds,
            100.0 * ok as f64 / trials as f64
        );
    }

    if figures {
        header("E19 (figure family)", "worked-figure regeneration");
        // Figure 5-style: shortest path tree on a small structure.
        let s = AmoebotStructure::new(shapes::parallelogram(9, 5)).unwrap();
        let src = NodeId(20);
        let dests = vec![NodeId(0), NodeId(8), NodeId(44)];
        let out = shortest_path_tree(&s, src, &dests);
        println!("\nFigure 5 analog — SPT parents (S = source, arrows = parent):");
        println!(
            "{}",
            render::render_forest(&s, &[src], &dests, &out.parents)
        );
        // Figure 2-style: portals of a blob.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let blob = AmoebotStructure::new(shapes::random_blob(40, &mut rng)).unwrap();
        let (portal_of, _) = blob.portals(amoebot_grid::Axis::X);
        println!("Figure 2 analog — x-portal ids (mod 10):");
        println!(
            "{}",
            render::render_structure(&blob, |v| {
                char::from_digit(portal_of[v.index()] % 10, 10).unwrap()
            })
        );
    }
    println!("\nAll experiment tables regenerated.");
}
