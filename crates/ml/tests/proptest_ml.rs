//! Property-based tests for the ML substrate: confusion-matrix
//! identities, metric axioms, k-means postconditions and classifier
//! output bounds.

use kodan_ml::eval::ConfusionMatrix;
use kodan_ml::kmeans::KMeans;
use kodan_ml::metrics::DistanceMetric;
use kodan_ml::mlp::Mlp;
use kodan_ml::train::{bce_loss, sigmoid, TrainConfig};
use kodan_ml::transform::TransformKind;
use proptest::prelude::*;

fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, dim)
}

proptest! {
    #[test]
    fn confusion_scores_are_bounded_and_consistent(
        tp in 0u64..1000,
        fp in 0u64..1000,
        tn in 0u64..1000,
        fn_ in 0u64..1000,
    ) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_ };
        prop_assert_eq!(cm.total(), tp + fp + tn + fn_);
        for score in [cm.accuracy(), cm.precision(), cm.recall()] {
            prop_assert!((0.0..=1.0).contains(&score), "score {}", score);
        }
    }

    #[test]
    fn confusion_accumulation_is_additive(
        preds in prop::collection::vec(proptest::bool::ANY, 1..100),
        split in 0usize..100,
    ) {
        let truth: Vec<bool> = preds.iter().map(|&p| !p).collect();
        let split = split.min(preds.len());
        let whole = ConfusionMatrix::from_predictions(&preds, &truth);
        let mut parts = ConfusionMatrix::from_predictions(&preds[..split], &truth[..split]);
        parts += ConfusionMatrix::from_predictions(&preds[split..], &truth[split..]);
        prop_assert_eq!(whole, parts);
    }

    #[test]
    fn metrics_satisfy_identity_symmetry_nonnegativity(
        a in vec_strategy(6),
        b in vec_strategy(6),
    ) {
        for m in DistanceMetric::ALL {
            let dab = m.distance(&a, &b);
            prop_assert!(dab >= 0.0, "{} negative", m);
            prop_assert!((dab - m.distance(&b, &a)).abs() < 1e-9, "{} asymmetric", m);
            prop_assert!(m.distance(&a, &a) < 1e-9, "{} identity", m);
        }
    }

    #[test]
    fn minkowski_metrics_satisfy_triangle_inequality(
        a in vec_strategy(5),
        b in vec_strategy(5),
        c in vec_strategy(5),
    ) {
        for m in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
            DistanceMetric::Hamming,
        ] {
            let direct = m.distance(&a, &c);
            let detour = m.distance(&a, &b) + m.distance(&b, &c);
            prop_assert!(direct <= detour + 1e-9, "{} violates triangle", m);
        }
    }

    #[test]
    fn sigmoid_is_bounded_monotone(z1 in -50.0f64..50.0, z2 in -50.0f64..50.0) {
        let s1 = sigmoid(z1);
        let s2 = sigmoid(z2);
        prop_assert!((0.0..=1.0).contains(&s1));
        if z1 < z2 {
            prop_assert!(s1 <= s2);
        }
        prop_assert!(bce_loss(s1, true).is_finite());
        prop_assert!(bce_loss(s1, false).is_finite());
    }

    #[test]
    fn standardize_then_apply_is_finite(
        rows in prop::collection::vec(vec_strategy(4), 2..30),
        probe in vec_strategy(4),
    ) {
        let t = TransformKind::Standardize.fit(&rows);
        for v in t.apply(&probe) {
            prop_assert!(v.is_finite());
        }
    }
}

proptest! {
    // Training-based properties use fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kmeans_postconditions(
        seed in 0u64..1000,
        k in 1usize..5,
        n_points in 5usize..60,
    ) {
        prop_assume!(k <= n_points);
        let points: Vec<Vec<f64>> = (0..n_points)
            .map(|i| {
                let x = (i * 7 % 13) as f64 + seed as f64 % 3.0;
                vec![x, x * 0.5 - 1.0]
            })
            .collect();
        let km = KMeans::fit(&points, k, DistanceMetric::Euclidean, seed);
        prop_assert_eq!(km.k(), k);
        prop_assert_eq!(km.assignments().len(), n_points);
        prop_assert!(km.assignments().iter().all(|&a| a < k));
        // Every training point is assigned to its nearest centroid.
        for (p, &a) in points.iter().zip(km.assignments()) {
            prop_assert_eq!(km.assign(p), a);
        }
    }

    #[test]
    fn mlp_outputs_are_probabilities(
        seed in 0u64..100,
        n in 4usize..40,
    ) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<bool> = xs.iter().map(|x| x[0] > 0.5).collect();
        let model = Mlp::fit(&xs, &ys, 4, &TrainConfig::fast(seed));
        for x in &xs {
            let p = model.predict_proba(x);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(model.predict(x), p >= 0.5);
        }
    }
}
