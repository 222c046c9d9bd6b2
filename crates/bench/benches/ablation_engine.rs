//! Ablation: what distribution should specialized models be trained on?
//!
//! The runtime routes tiles with the deployed context engine, whose
//! assignments differ from the truth partition. This ablation trains
//! each context's specialized model two ways — on the engine-assigned
//! training tiles (deployment-matched, what the pipeline does) and on
//! the truth-assigned tiles — and evaluates both under the routing that
//! actually happens on orbit (engine routing). Deployment-matched
//! training should win: each model sees exactly the mixture the engine
//! will hand it, including the engine's systematic confusions.

use kodan::context::ContextId;
use kodan::specialize::{ModelScope, SpecializedModel};
use kodan_bench::{banner, bench_artifacts, bench_kodan_config, f, n, row, s};
use kodan_geodata::tile::TileImage;
use kodan_geodata::Dataset;
use kodan_ml::eval::ConfusionMatrix;
use kodan_ml::zoo::ModelArch;

fn main() {
    banner(
        "Ablation: engine-matched vs. truth-matched specialization",
        "Composite precision under deployed (engine) routing, grid 6",
    );
    let world = kodan_bench::bench_world();
    let dataset = Dataset::sample(&world, &kodan_bench::bench_dataset_config());
    let (train, val) = dataset.split(0.7, 42);
    let config = bench_kodan_config();

    row(&[
        s("app"),
        s("engine agr"),
        s("prec matched"),
        s("prec truth"),
        s("tiles"),
    ]);
    for arch in [
        ModelArch::MobileNetV2DilatedC1,
        ModelArch::ResNet50DilatedPpm,
        ModelArch::ResNet101DilatedPpm,
    ] {
        let artifacts = bench_artifacts(arch);
        let ga = artifacts.grid_artifacts(6).expect("grid 6 swept");
        let global = ga.models.first().expect("slot 0 holds the global model");
        let train_tiles = train.tiles(6);
        let val_tiles = val.tiles(6);
        let k = artifacts.contexts.len();

        // Truth-matched variants of every context model.
        let truth_models: Vec<Option<SpecializedModel>> = (0..k)
            .map(|c| {
                let subset: Vec<TileImage> = train_tiles
                    .iter()
                    .filter(|t| artifacts.contexts.classify_truth(t).0 == c)
                    .cloned()
                    .collect();
                if subset.len() >= 5 {
                    Some(SpecializedModel::train(
                        &subset,
                        arch,
                        ModelScope::Context(ContextId(c)),
                        config.max_train_pixels,
                        &config.train,
                    ))
                } else {
                    None
                }
            })
            .collect();

        let mut matched_cm = ConfusionMatrix::new();
        let mut truth_cm = ConfusionMatrix::new();
        for tile in &val_tiles {
            let c = artifacts.engine.classify(tile).0;
            let matched = ga.context_model(ContextId(c)).unwrap_or(global);
            let truth = truth_models[c].as_ref().unwrap_or(global);
            matched_cm += matched.evaluate_tile(tile);
            truth_cm += truth.evaluate_tile(tile);
        }
        row(&[
            s(&format!("App {}", arch.app_number())),
            f(artifacts.engine_val_agreement),
            f(matched_cm.precision()),
            f(truth_cm.precision()),
            n(val_tiles.len() as u64),
        ]);
    }
    println!();
    println!("Expected shape: deployment-matched training at least ties and");
    println!("usually beats truth-matched training under engine routing —");
    println!("the design reason the pipeline trains on engine assignments.");
}
