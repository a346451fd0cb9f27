//! Regenerate the paper's **Figure 3**: ECDFs of the Jaccard
//! similarity between a 10 s baseline window's HHH set and windows
//! 10–100 ms shorter.
//!
//! Usage: `fig3 [smoke|quick|paper] [--csv]`

use hhh_experiments::{fig3, Scale};
use hhh_nettypes::TimeSpan;

fn main() {
    let scale = Scale::from_args("fig3 [smoke|quick|paper] [--csv]", &["--csv"]);
    let csv = std::env::args().any(|a| a == "--csv");
    eprintln!(
        "fig3: window micro-variation, scale={} ({} trace; base 10 s; deltas 10–100 ms; threshold 5%)",
        scale.label(),
        scale.microvar_duration(),
    );
    let t0 = std::time::Instant::now();
    let res = fig3::run(scale);
    eprintln!(
        "fig3: done in {:.1}s ({} baseline windows)",
        t0.elapsed().as_secs_f64(),
        res.windows
    );

    if csv {
        print!("{}", res.to_csv());
        return;
    }
    println!("== Figure 3 — similarity of shortened windows to the 10 s baseline ==\n");
    print!("{}", res.table());
    let f100 = res.fraction_differing_by(TimeSpan::from_millis(100), 0.25);
    let f40 = res.fraction_differing_by(TimeSpan::from_millis(40), 0.11);
    println!(
        "\nheadline statistic (paper: ≥25% / ≥11% difference in ≥70% of cases):\n\
         windows 100 ms shorter differ by ≥25% in {:.0}% of cases\n\
         windows  40 ms shorter differ by ≥11% in {:.0}% of cases",
        f100 * 100.0,
        f40 * 100.0
    );
}
