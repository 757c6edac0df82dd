//! The paper's Section 1.2 foil, live: the *same* Round Robin that
//! Theorem 1 certifies on identical machines provably fails for the ℓ2
//! norm once jobs have arbitrary speed-up curves — sequential phases make
//! equal sharing wasteful.
//!
//! ```text
//! cargo run --release --example speedup_curves
//! ```

use temporal_fairness_rr::metrics::lk_norm;
use temporal_fairness_rr::speedup::families::seq_swarm_overlapped;
use temporal_fairness_rr::speedup::{simulate_speedup, Equi, GreedyPar, LapsCurves};

fn main() {
    println!("One parallelizable job + a swarm of tiny sequential jobs.");
    println!("Sequential phases run at machine speed with ZERO processors,");
    println!("so they cost the optimum nothing — but EQUI (=RR) still gives");
    println!("each of them an equal share.\n");

    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "dilution", "n", "EQUI l2", "LAPS l2", "greedy l2", "EQUI/g"
    );
    for d in [4.0, 16.0, 64.0] {
        let par_work = 4.0;
        let seq_len = par_work / d;
        let swarm = 8;
        let horizon = 1.2 * par_work * (4.0 * swarm as f64 + 1.0);
        let rounds = (horizon / (seq_len / 4.0)).ceil() as usize;
        let t = seq_swarm_overlapped(swarm, seq_len, par_work, rounds, 4);

        let equi = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        let laps = simulate_speedup(&t, &mut LapsCurves::new(0.5), 1.0, 1.0);
        let greedy = simulate_speedup(&t, &mut GreedyPar, 1.0, 1.0);
        println!(
            "{:>10} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
            d,
            t.len(),
            lk_norm(&equi.flow, 2.0),
            lk_norm(&laps.flow, 2.0),
            lk_norm(&greedy.flow, 2.0),
            lk_norm(&equi.flow, 2.0) / lk_norm(&greedy.flow, 2.0),
        );
    }

    println!();
    println!("The EQUI/greedy ratio grows ~sqrt(dilution) — no constant speed");
    println!("fixes it in this model [15]. On standard identical machines the");
    println!("same algorithm is (4+eps)-speed O(1)-competitive for l2 — that");
    println!("contrast is exactly what makes the paper's Theorem 1 interesting.");
}
