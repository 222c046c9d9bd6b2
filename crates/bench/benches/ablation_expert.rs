//! Ablation: expert-generated vs. automatically-generated contexts
//! (the two approaches of paper Section 3.2).
//!
//! Expert contexts follow the dominant surface type and can be resolved
//! from satellite position alone (the map engine); automatic contexts
//! come from k-means over label vectors and need the learned engine.
//! This ablation runs the full pipeline both ways and compares context
//! quality and the resulting Kodan DVD estimate.

use kodan::config::ContextGenerationKind;
use kodan::engine::ExpertMapEngine;
use kodan::mission::SpaceEnvironment;
use kodan::pipeline::Transformation;
use kodan_bench::{banner, bench_dataset_config, bench_kodan_config, bench_world, f, n, row, s};
use kodan_geodata::Dataset;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;

fn main() {
    banner(
        "Ablation: expert vs. automatic context generation",
        "Full pipeline both ways (App 4, Orin 15W)",
    );
    let world = bench_world();
    let dataset = Dataset::sample(&world, &bench_dataset_config());
    let env = SpaceEnvironment::landsat(1);
    let arch = ModelArch::ResNet50DilatedPpm;

    row(&[
        s("generation"),
        s("contexts"),
        s("engine agr"),
        s("ctx prec"),
        s("kodan dvd"),
    ]);
    for (name, generation) in [
        ("auto", ContextGenerationKind::Auto),
        ("auto-sweep", ContextGenerationKind::AutoSweep { max_contexts: 8 }),
        ("expert", ContextGenerationKind::Expert),
    ] {
        let mut config = bench_kodan_config();
        config.generation = generation;
        let artifacts = Transformation::new(config)
            .run(&dataset, arch)
            .expect("transformation succeeds");
        let ga = artifacts.grid_artifacts(6).expect("grid 6 swept");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        row(&[
            s(name),
            n(artifacts.contexts.len() as u64),
            f(artifacts.engine_val_agreement),
            f(ga.composite_eval_all().precision()),
            f(logic.estimate().dvd),
        ]);

        // For expert contexts, also report the position-only map engine.
        if artifacts.contexts.expert_surface_map().is_some() {
            let map_engine = ExpertMapEngine::new(*world.surface(), &artifacts.contexts)
                .expect("expert contexts carry a surface map");
            let (_, val) = dataset.split(0.7, config.seed);
            let val_tiles = val.tiles(6);
            println!(
                "  expert map engine (position-only) agreement: {:.3}",
                map_engine.agreement_on(&val_tiles, &artifacts.contexts)
            );
        }
    }
    println!();
    println!("Expected shape: expert contexts are cheap to classify (the map");
    println!("engine needs no pixels) and human-explainable; automatic");
    println!("contexts match or beat them on DVD by splitting along value,");
    println!("not geography.");
}
