//! Criterion micro-benchmarks of the hot substrate paths: frame
//! rendering, tiling + resize, feature extraction, model inference and
//! training, k-means, orbit propagation and the space-segment
//! simulation. These quantify the simulator's own cost (not the paper's
//! results) and guard against performance regressions in the inner
//! loops.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use kodan::specialize::{tile_features, tile_labels, ModelScope, SpecializedModel};
use kodan_cote::constellation::Constellation;
use kodan_cote::ground::GroundSegment;
use kodan_cote::orbit::Orbit;
use kodan_cote::propagate::propagate;
use kodan_cote::sensor::Imager;
use kodan_cote::sim::simulate_space_segment;
use kodan_cote::time::Duration;
use kodan_geodata::features::FEATURE_DIM;
use kodan_geodata::frame::World;
use kodan_geodata::pixel::CHANNELS;
use kodan_geodata::resize::resize_channels;
use kodan_geodata::tile::tile_frame;
use kodan_ml::kmeans::KMeans;
use kodan_ml::matrix::Matrix;
use kodan_ml::metrics::DistanceMetric;
use kodan_ml::mlp::Mlp;
use kodan_ml::quant::{quantize_input_into, QuantizedMatrix};
use kodan_ml::train::TrainConfig;
use kodan_ml::zoo::ModelArch;

fn bench_frame_render(c: &mut Criterion) {
    let world = World::new(42);
    c.bench_function("render_frame_66px", |b| {
        b.iter(|| world.render_frame(black_box(12.0), black_box(-71.0), 0.0, 66, 150.0))
    });
    // The working resolution every mission, plan and fleet day renders at.
    c.bench_function("render_frame_132px", |b| {
        b.iter(|| world.render_frame(black_box(12.0), black_box(-71.0), 0.0, 132, 150.0))
    });
}

fn bench_tiling_and_resize(c: &mut Criterion) {
    let world = World::new(42);
    let frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    c.bench_function("tile_frame_grid6", |b| {
        b.iter(|| tile_frame(black_box(&frame), 6))
    });
    let tiles = tile_frame(&frame, 6);
    c.bench_function("resize_tile_22_to_28", |b| {
        b.iter(|| resize_channels(black_box(tiles[0].channels()), 22, CHANNELS, 28))
    });
}

fn bench_features_and_inference(c: &mut Criterion) {
    let world = World::new(42);
    let frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    let tiles = tile_frame(&frame, 6);
    c.bench_function("tile_features_r22", |b| {
        b.iter(|| tile_features(black_box(&tiles[0]), 22))
    });
    // App 4's input is 22 px, so the 22-px tile above takes the copy
    // path. The tiles it flies are 33 px at Kodan's grid 4 (the stream's
    // fractional area average) and 12 px at direct deploy's grid 11 (the
    // bilinear upscale).
    let kodan_tiles = tile_frame(&frame, 4);
    c.bench_function("tile_features_33_to_22", |b| {
        b.iter(|| tile_features(black_box(&kodan_tiles[0]), 22))
    });
    let direct_tiles = tile_frame(&frame, 11);
    c.bench_function("tile_features_12_to_22", |b| {
        b.iter(|| tile_features(black_box(&direct_tiles[0]), 22))
    });

    let model = SpecializedModel::train(
        &tiles,
        ModelArch::ResNet50DilatedPpm,
        ModelScope::Global,
        2_000,
        &TrainConfig::fast(1),
    );
    c.bench_function("model_predict_tile", |b| {
        b.iter(|| model.predict_tile(black_box(&tiles[0])))
    });
    let mut quantized = model.clone();
    quantized.quantize_in_place();
    c.bench_function("model_predict_tile_quantized", |b| {
        b.iter(|| quantized.predict_tile(black_box(&tiles[0])))
    });
    // The 22-px tile above keeps every model pixel. Direct deploy's
    // 12-px tiles are upscaled to 22 px, and their mask reads 144 of
    // the 484 model pixels.
    c.bench_function("model_predict_tile_12_to_22", |b| {
        b.iter(|| model.predict_tile(black_box(&direct_tiles[0])))
    });
    c.bench_function("model_predict_tile_12_to_22_quantized", |b| {
        b.iter(|| quantized.predict_tile(black_box(&direct_tiles[0])))
    });
}

fn bench_training(c: &mut Criterion) {
    // App 4's three model widths (global 12, single-context 4, merged 6
    // hidden units over 10 features) at the training scale `kodan
    // transform` and the benchmark's set-up use: 8,000 pixels, 40
    // epochs of the evaluation configuration (minibatches of 64,
    // patience 12). One iteration trains all three.
    let world = World::new(42);
    let frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    let arch = ModelArch::ResNet50DilatedPpm;
    let (width, r) = (arch.feature_budget(), arch.input_resolution());
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for tile in tile_frame(&frame, 6) {
        let feats = tile_features(&tile, r);
        for (row, label) in feats.chunks_exact(FEATURE_DIM).zip(tile_labels(&tile, r)) {
            x.extend_from_slice(&row[..width]);
            y.push(label);
        }
    }
    x.truncate(8_000 * width);
    y.truncate(8_000);
    let config = TrainConfig {
        epochs: 40,
        ..TrainConfig::evaluation(42)
    };
    let full = arch.hidden_units();
    c.bench_function("fit_flat_app4", |b| {
        b.iter(|| {
            [full, full / 3, full / 2].map(|hidden| {
                Mlp::fit_flat(black_box(&x), width, &y, hidden, &config).weight_checksum()
            })
        })
    });
}

fn bench_matvec_substrates(c: &mut Criterion) {
    // The inner-loop kernel pair: one f64 matvec against its i16/i32
    // fixed-point counterpart at an MLP-layer shape (20 hidden units
    // over 12 features, the widest zoo configuration).
    let rows = 20;
    let cols = 12;
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| ((i * 37 % 101) as f64 / 101.0) - 0.5)
        .collect();
    let w = Matrix::from_flat(rows, cols, data);
    let x: Vec<f64> = (0..cols).map(|i| (i as f64 / cols as f64) - 0.5).collect();
    let mut out = vec![0.0f64; rows];
    c.bench_function("matvec_f64_20x12", |b| {
        b.iter(|| {
            w.matvec_into(black_box(&x), &mut out);
            black_box(out[0])
        })
    });

    let wq = QuantizedMatrix::from_f64(&w);
    let mut xq = vec![0i32; cols];
    quantize_input_into(&x, &mut xq);
    let mut acc = vec![0i32; rows];
    c.bench_function("matvec_i16_20x12", |b| {
        b.iter(|| {
            wq.matvec_into(black_box(&xq), &mut acc);
            black_box(acc[0])
        })
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let world = World::new(42);
    let frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    let tiles = tile_frame(&frame, 11);
    let labels: Vec<Vec<f64>> = tiles.iter().map(|t| t.label_vector().to_vec()).collect();
    c.bench_function("kmeans_k6_121tiles", |b| {
        b.iter(|| KMeans::fit(black_box(&labels), 6, DistanceMetric::Euclidean, 42))
    });
}

fn bench_propagation(c: &mut Criterion) {
    let orbit = Orbit::sun_synchronous(705_000.0);
    c.bench_function("propagate_orbit", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 1.0;
            propagate(
                black_box(&orbit),
                orbit.epoch() + Duration::from_seconds(t),
            )
        })
    });
}

fn bench_space_segment(c: &mut Criterion) {
    // One day of the 24-satellite same-plane fleet against the Landsat
    // ground segment: the contact scan of every satellite plus the
    // station contention resolution, as `kodan fleet` runs it.
    let constellation = Constellation::same_plane(Orbit::sun_synchronous(705_000.0), 24);
    let imager = Imager::landsat_oli();
    let segment = GroundSegment::landsat();
    c.bench_function("simulate_space_segment_24sat", |b| {
        b.iter(|| {
            simulate_space_segment(
                black_box(&constellation),
                &imager,
                &segment,
                Duration::from_days(1.0),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_frame_render,
    bench_tiling_and_resize,
    bench_features_and_inference,
    bench_training,
    bench_matvec_substrates,
    bench_kmeans,
    bench_propagation,
    bench_space_segment
);
criterion_main!(benches);
