//! Run the §3 comparison: the windowless TDBF proof of concept against
//! existing solutions on accuracy, performance and resource
//! utilization.
//!
//! Usage: `tdbf_compare [smoke|quick|paper]`

use hhh_experiments::{compare, Scale};

fn main() {
    let scale = Scale::from_args("tdbf_compare [smoke|quick|paper]", &[]);
    eprintln!(
        "tdbf_compare: scale={} ({} trace; 10 s window; 5% threshold; probes every 1 s)",
        scale.label(),
        scale.compare_duration(),
    );
    let t0 = std::time::Instant::now();
    let res = compare::run(scale);
    eprintln!(
        "tdbf_compare: done in {:.1}s over {} packets",
        t0.elapsed().as_secs_f64(),
        res.packets
    );

    println!("== E3a — accuracy vs the exact trailing-window oracle (probes every 1 s) ==\n");
    print!("{}", res.accuracy_table());
    println!(
        "\n(recall@aligned: probes on disjoint boundaries, where windowed detectors are \
         freshest; the overall/aligned gap is the staleness cost of disjoint windows)\n"
    );
    println!("== E3b — per-packet update cost ==\n");
    print!("{}", res.performance_table());
    println!("\n== E3c — resource utilization ==\n");
    print!("{}", res.resources_table());
}
