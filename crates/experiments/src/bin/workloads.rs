//! Characterize the synthetic workloads (the stand-ins for the paper's
//! CAIDA traces).
//!
//! Usage: `workloads [smoke|quick|paper]`

use hhh_experiments::{workloads, Scale};

fn main() {
    let scale = Scale::from_args("workloads [smoke|quick|paper]", &[]);
    eprintln!("workloads: characterizing all scenarios at scale={}", scale.label());
    let rows = workloads::run(scale);
    println!("== Synthetic workloads ({} days of {}) ==\n", 4, scale.day_duration());
    print!("{}", workloads::table(&rows));
}
