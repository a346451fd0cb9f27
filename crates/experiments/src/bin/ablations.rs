//! Run the design-choice ablations: TDBF half-life, TDBF candidate
//! capacity, RHHH counters per level.
//!
//! Usage: `ablations [smoke|quick|paper]`

use hhh_experiments::{ablations, Scale};

fn main() {
    let scale = Scale::from_args("ablations [smoke|quick|paper]", &[]);
    eprintln!("ablations: scale={} (10 s window, 5% threshold, probes every 1 s)", scale.label());
    let t0 = std::time::Instant::now();
    let res = ablations::run(scale);
    eprintln!("ablations: done in {:.1}s", t0.elapsed().as_secs_f64());

    println!("== TDBF-HHH half-life (decay memory vs the 10 s reference window) ==\n");
    print!("{}", res.half_life_table());
    println!("\n== TDBF-HHH candidate table capacity per level ==\n");
    print!("{}", res.candidates_table());
    println!("\n== RHHH counters per level ==\n");
    print!("{}", res.rhhh_table());
}
