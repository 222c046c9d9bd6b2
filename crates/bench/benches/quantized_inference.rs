//! Quantized fixed-point inference: the i16/i32 fast path against the
//! f64 reference, artifact-shaped end to end.
//!
//! The paper's computational bottleneck is per-tile inference; the
//! quantized kernels attack exactly that loop. This bench times both
//! paths over real tile feature batches at two zoo shapes, checks that
//! the fixed-point model keeps (at least) 99% of the reference accuracy,
//! and writes `BENCH_quantized_inference.json` at the repo root so
//! future PRs have a speedup floor to compare against: the mask path
//! should stay at or above 2x over f64 batch inference at every width.

use criterion::Criterion;
use kodan::specialize::{tile_features, tile_labels};
use kodan_bench::{banner, bench_world, BENCH_SEED};
use kodan_geodata::features::FEATURE_DIM;
use kodan_geodata::tile::tile_frame;
use kodan_ml::eval::{accuracy_retention, ConfusionMatrix};
use kodan_ml::train::TrainConfig;
use kodan_ml::{Mlp, ModelArch};
use std::hint::black_box;
use std::time::Instant;

/// Native tile resolution at grid 6 over 132-px frames.
const RESOLUTION: usize = 22;

/// The timed shapes, one row each. App 7 (12 features, 20 hidden units)
/// is the widest zoo configuration: the worst case for the accumulator
/// envelope and the best case for vectorization. App 4 (10 features, 12
/// hidden units) is the app `kodan transform` deploys by default, so its
/// width is the one the mission and the on-orbit stream fly.
const APPS: [ModelArch; 2] = [
    ModelArch::ResNet101DilatedPpm,
    ModelArch::ResNet50DilatedPpm,
];

/// Median-of-trials wall-clock seconds per batch: `trials` timed
/// groups of `reps` runs each (two warmups first), reporting the
/// median group mean. The median discards scheduler stalls and
/// frequency excursions that a single long mean would average in, so
/// the committed baseline tracks the typical cost, not the noise.
fn time_batch<F: FnMut() -> R, R>(trials: u32, reps: u32, mut body: F) -> f64 {
    for _ in 0..2 {
        black_box(body());
    }
    let mut means: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(body());
            }
            start.elapsed().as_secs_f64() / f64::from(reps)
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    means[means.len() / 2]
}

/// The first `width` features of each [`FEATURE_DIM`]-strided row,
/// packed: the training rows a model of that width sees.
fn packed(x: &[f64], width: usize) -> Vec<f64> {
    x.chunks_exact(FEATURE_DIM)
        .flat_map(|row| &row[..width])
        .copied()
        .collect()
}

/// Trains one app's shape, times its f64 and quantized batch paths over
/// the evaluation rows (read at the pipeline's [`FEATURE_DIM`] stride,
/// as tile prediction reads them) and returns its JSON row.
fn bench_app(
    criterion: &mut Criterion,
    app: ModelArch,
    train: (&[f64], &[bool]),
    eval: (&[f64], &[bool]),
) -> String {
    let (width, hidden) = (app.feature_budget(), app.hidden_units());
    let (eval_x, eval_y) = eval;
    let model = Mlp::fit_flat(
        &packed(train.0, width),
        width,
        train.1,
        hidden,
        &TrainConfig::fast(BENCH_SEED),
    );
    let quantized = model.quantize();

    let mut probs: Vec<f64> = Vec::new();
    let mut mask: Vec<bool> = Vec::new();
    criterion.bench_function(&format!("predict_batch_f64_w{width}"), |b| {
        b.iter(|| {
            model.predict_proba_batch_into(black_box(eval_x), FEATURE_DIM, &mut probs);
            mask.clear();
            mask.extend(probs.iter().map(|p| *p >= 0.5));
            black_box(mask.len())
        })
    });
    criterion.bench_function(&format!("predict_batch_quantized_proba_w{width}"), |b| {
        b.iter(|| {
            quantized.predict_proba_batch_into(black_box(eval_x), FEATURE_DIM, &mut probs);
            black_box(probs.len())
        })
    });
    criterion.bench_function(&format!("predict_batch_quantized_mask_w{width}"), |b| {
        b.iter(|| {
            quantized.predict_mask_batch_into(black_box(eval_x), FEATURE_DIM, &mut mask);
            black_box(mask.len())
        })
    });

    // Fixed-rep measurements for the committed baseline.
    let f64_mask_s = time_batch(TRIALS, REPS, || {
        model.predict_proba_batch_into(eval_x, FEATURE_DIM, &mut probs);
        mask.clear();
        mask.extend(probs.iter().map(|p| *p >= 0.5));
        mask.len()
    });
    let quantized_proba_s = time_batch(TRIALS, REPS, || {
        quantized.predict_proba_batch_into(eval_x, FEATURE_DIM, &mut probs);
        probs.len()
    });
    let quantized_mask_s = time_batch(TRIALS, REPS, || {
        quantized.predict_mask_batch_into(eval_x, FEATURE_DIM, &mut mask);
        mask.len()
    });
    let speedup = |quantized_s: f64| {
        if quantized_s > 0.0 {
            f64_mask_s / quantized_s
        } else {
            0.0
        }
    };
    let (speedup_mask, speedup_proba) = (speedup(quantized_mask_s), speedup(quantized_proba_s));

    // Accuracy retention on the same evaluation batch: the fixed-point
    // model must keep at least 99% of the f64 model's accuracy.
    model.predict_proba_batch_into(eval_x, FEATURE_DIM, &mut probs);
    let f64_mask: Vec<bool> = probs.iter().map(|p| *p >= 0.5).collect();
    quantized.predict_mask_batch_into(eval_x, FEATURE_DIM, &mut mask);
    let reference = ConfusionMatrix::from_predictions(&f64_mask, eval_y);
    let candidate = ConfusionMatrix::from_predictions(&mask, eval_y);
    let retention = accuracy_retention(&reference, &candidate);
    let agreement =
        f64_mask.iter().zip(&mask).filter(|(a, b)| a == b).count() as f64 / eval_y.len() as f64;

    let (f64_ops, _) = model.ops_split();
    let int_ops = quantized.int_ops_per_prediction();
    println!(
        "app {} ({width} features, {hidden} hidden): f64 {:.3} ms  q-proba {:.3} ms  q-mask {:.3} ms  speedup {:.2}x/{:.2}x  retention {:.4}",
        app.app_number(),
        f64_mask_s * 1e3,
        quantized_proba_s * 1e3,
        quantized_mask_s * 1e3,
        speedup_proba,
        speedup_mask,
        retention
    );
    assert!(
        retention >= 0.99,
        "app {}: quantized model lost accuracy: retention {retention:.4}",
        app.app_number()
    );
    format!(
        "    {{\n      \"app\": {},\n      \"features\": {width},\n      \"hidden\": {hidden},\n      \"f64_mask_s\": {f64_mask_s:.6},\n      \"quantized_proba_s\": {quantized_proba_s:.6},\n      \"quantized_mask_s\": {quantized_mask_s:.6},\n      \"speedup_mask\": {speedup_mask:.2},\n      \"speedup_proba\": {speedup_proba:.2},\n      \"f64_accuracy\": {:.4},\n      \"quantized_accuracy\": {:.4},\n      \"accuracy_retention\": {retention:.4},\n      \"mask_agreement\": {agreement:.4},\n      \"f64_ops_per_prediction\": {f64_ops},\n      \"int_ops_per_prediction\": {int_ops}\n    }}",
        app.app_number(),
        reference.accuracy(),
        candidate.accuracy(),
    )
}

/// Timed trials per measurement, and runs per trial.
const TRIALS: u32 = 25;
const REPS: u32 = 20;

fn main() {
    banner(
        "Quantized fixed-point inference: i16/i32 vs f64",
        "per-pixel tile prediction over real feature batches, apps 7 and 4",
    );
    let world = bench_world();
    let train_frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    let eval_frame = world.render_frame(13.0, -70.0, 0.0, 132, 150.0);
    let train_tiles = tile_frame(&train_frame, 6);
    let eval_tiles = tile_frame(&eval_frame, 6);

    let mut train_x: Vec<f64> = Vec::new();
    let mut train_y: Vec<bool> = Vec::new();
    for tile in train_tiles.iter().take(12) {
        train_x.extend(tile_features(tile, RESOLUTION));
        train_y.extend(tile_labels(tile, RESOLUTION));
    }
    let mut eval_x: Vec<f64> = Vec::new();
    let mut eval_y: Vec<bool> = Vec::new();
    for tile in &eval_tiles {
        eval_x.extend(tile_features(tile, RESOLUTION));
        eval_y.extend(tile_labels(tile, RESOLUTION));
    }
    let predictions = eval_y.len();

    let mut criterion = Criterion::default();
    let rows: Vec<String> = APPS
        .iter()
        .map(|&app| {
            bench_app(
                &mut criterion,
                app,
                (&train_x, &train_y),
                (&eval_x, &eval_y),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"quantized_inference\",\n  \"unit\": \"seconds_per_{predictions}_prediction_batch\",\n  \"method\": \"median of {TRIALS} trial means, {REPS} reps each\",\n  \"rows\": [\n{}\n  ],\n  \"budget_note\": \"future PRs should keep speedup_mask >= 2.0 and accuracy_retention >= 0.99 in every row\"\n}}\n",
        rows.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quantized_inference.json");
    std::fs::write(out, &json).expect("write BENCH_quantized_inference.json");
    println!("baseline written to BENCH_quantized_inference.json");
}
