//! Ablation: context count (the clustering hyperparameter of paper
//! Section 3.3, "joint generation of contexts and models").
//!
//! Sweeps k and reports the composite accuracy/precision and the selected
//! Kodan DVD on the Orin. Too few contexts forfeit specialization; too
//! many starve each specialized model of training data.

use kodan::config::KodanConfig;
use kodan::mission::SpaceEnvironment;
use kodan::pipeline::Transformation;
use kodan_bench::{banner, bench_dataset_config, bench_world, f, n, row, run_kodan_recorded, s};
use kodan_geodata::Dataset;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;

fn main() {
    banner(
        "Ablation: number of contexts",
        "k-means k vs. composite precision and selected DVD (App 4, Orin 15W)",
    );
    let world = bench_world();
    let dataset = Dataset::sample(&world, &bench_dataset_config());
    let env = SpaceEnvironment::landsat(1);

    row(&[
        s("contexts"),
        s("engine agr"),
        s("ctx prec"),
        s("kodan dvd"),
        s("t:proc"),
        s("t:elide"),
    ]);
    for k in [1usize, 2, 4, 6, 8, 12] {
        let mut config = KodanConfig::evaluation(42);
        config.max_train_pixels = 8_000;
        config.max_eval_tiles = 240;
        config.train.epochs = 40;
        config.context_count = k;
        let artifacts =
            Transformation::new(config)
            .run(&dataset, ModelArch::ResNet50DilatedPpm)
            .expect("transformation succeeds");
        let ga = artifacts.grid_artifacts(6).expect("grid 6 swept");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        // The per-arm telemetry snapshot attributes each arm's DVD to the
        // action mix the selection logic actually flew.
        let (_, snapshot) =
            run_kodan_recorded(&artifacts, &env, &world, HwTarget::OrinAgx15W);
        let processed = snapshot.actions.get("process").copied().unwrap_or(0);
        let elided = snapshot.actions.get("discard").copied().unwrap_or(0)
            + snapshot.actions.get("downlink").copied().unwrap_or(0);
        row(&[
            n(k as u64),
            f(artifacts.engine_val_agreement),
            f(ga.composite_eval_all().precision()),
            f(logic.estimate().dvd),
            n(processed),
            n(elided),
        ]);
    }
    println!();
    println!("Expected shape: an interior optimum in k; k=1 degenerates to");
    println!("the single-model case, large k starves specialized models.");
}
