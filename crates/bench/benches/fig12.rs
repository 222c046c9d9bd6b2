//! Figure 12: geospatial contexts improve accuracy (left) and precision
//! (right) for every application.
//!
//! Compares the global (direct-deploy) model against the context-routed
//! composite: each validation tile classified by the context engine and
//! scored under its context-specialized model. Statistics are read at
//! the context-generation grid (36 tiles/frame).

use kodan_bench::{banner, bench_artifacts, f, row, s};
use kodan_ml::zoo::ModelArch;

fn main() {
    banner(
        "Figure 12: effect of geospatial contexts",
        "Accuracy and precision: direct deploy vs. context-specialized models",
    );
    row(&[
        s("app"),
        s("acc direct"),
        s("acc ctx"),
        s("prec direct"),
        s("prec ctx"),
    ]);
    let mut prec_gains: Vec<f64> = Vec::new();
    for arch in ModelArch::ALL {
        let artifacts = bench_artifacts(arch);
        let ga = artifacts.grid_artifacts(6).expect("grid 6 swept");
        let direct = ga.global_eval_all();
        let ctx = ga.composite_eval_all();
        prec_gains.push((ctx.precision() / direct.precision() - 1.0) * 100.0);
        row(&[
            s(&format!("App {}", arch.app_number())),
            f(direct.accuracy()),
            f(ctx.accuracy()),
            f(direct.precision()),
            f(ctx.precision()),
        ]);
    }
    println!();
    let max_gain = prec_gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "Largest precision gain from contexts: {max_gain:.1}% (paper: up to \
         33%, on the application with the weakest baseline)."
    );
    println!("Expected shape: contexts help precision more than accuracy, and");
    println!("help weak baselines the most.");
}
