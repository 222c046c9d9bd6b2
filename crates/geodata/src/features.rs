//! Per-pixel feature extraction for the ML substrate.
//!
//! The pixel classifiers operate on hand-computed features rather than raw
//! convolutions: the five spectral channels plus derived radiometric
//! indices and local texture statistics. Texture features are the bridge
//! between the resize pipeline and accuracy: decimation averages texture
//! away, interpolation flattens it, so a classifier that leans on texture
//! degrades whenever tile size and input size diverge — exactly the
//! tiling/precision coupling the paper measures.

use crate::pixel::CHANNELS;

/// Number of features per pixel.
pub const FEATURE_DIM: usize = 12;

/// Human-readable feature names, index-aligned with the output of
/// [`pixel_features`].
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "blue",
    "green",
    "red",
    "nir",
    "cirrus",
    "luminance",
    "local_std",
    "local_range",
    "cirrus_excess",
    "ndvi",
    "whiteness",
    "nir_blue_ratio",
];

/// Computes the per-pixel feature matrix for an interleaved image buffer
/// of `size` x `size` pixels.
///
/// Returns a row-major matrix with one row of [`FEATURE_DIM`] features per
/// pixel. This is the full-grid case of [`pixel_features_at`].
///
/// # Panics
///
/// Panics if the buffer length does not match `size * size * CHANNELS`.
pub fn pixel_features(channels: &[f32], size: usize) -> Vec<f64> {
    let all: Vec<usize> = (0..size).collect();
    pixel_features_at(channels, size, &all)
}

/// Computes the feature rows of the pixels on a pick grid of a
/// `size` x `size` image: one row of [`FEATURE_DIM`] features for each
/// pixel `(picks[i], picks[j])`, row-major over the grid. Each row
/// equals that pixel's row of [`pixel_features`]: a pixel's features
/// read only its own channels and the edge-clamped 3x3 window of the
/// luminance plane, which is computed whole.
///
/// # Panics
///
/// Panics if the buffer length does not match `size * size * CHANNELS`
/// or a pick is not below `size`.
pub fn pixel_features_at(channels: &[f32], size: usize, picks: &[usize]) -> Vec<f64> {
    assert_eq!(
        channels.len(),
        size * size * CHANNELS,
        "buffer length mismatch"
    );
    let stride = size + 2;
    let lum = padded_luminance(channels, size);
    let mut out = Vec::with_capacity(picks.len() * picks.len() * FEATURE_DIM);
    for &r in picks {
        let row_px = &channels[r * size * CHANNELS..(r + 1) * size * CHANNELS];
        // Padded rows r, r + 1 and r + 2 hold the clamped image rows
        // r - 1, r and r + 1.
        let (top, rest) = lum[r * stride..(r + 3) * stride].split_at(stride);
        let (mid, bot) = rest.split_at(stride);
        for &c in picks {
            let px = &row_px[c * CHANNELS..(c + 1) * CHANNELS];
            let (t, m, b) = (&top[c..c + 3], &mid[c..c + 3], &bot[c..c + 3]);
            let taps = [t[0], t[1], t[2], m[0], m[1], m[2], b[0], b[1], b[2]];
            let l = m[1];
            let blue = f64::from(px[0]);
            let green = f64::from(px[1]);
            let red = f64::from(px[2]);
            let nir = f64::from(px[3]);
            let cirrus = f64::from(px[4]);

            let (local_std, local_range) = window_stats(&taps);
            let cirrus_excess = cirrus - 0.05 * l;
            let ndvi = (nir - red) / (nir + red + 1e-6);
            let whiteness = -((blue - green).abs() + (green - red).abs());
            let nir_blue = (nir / (blue + 1e-3)).min(8.0);

            out.extend_from_slice(&[
                blue,
                green,
                red,
                nir,
                cirrus,
                l,
                local_std,
                local_range,
                cirrus_excess,
                ndvi,
                whiteness,
                nir_blue,
            ]);
        }
    }
    out
}

/// The visible-band luminance plane with a one-pixel border that
/// repeats its edge, `size + 2` values a row. Image pixel `(r, c)` sits
/// at padded `(r + 1, c + 1)`, and its edge-clamped 3x3 window is three
/// row slices of the padded plane.
fn padded_luminance(channels: &[f32], size: usize) -> Vec<f64> {
    let stride = size + 2;
    let mut lum = vec![0.0; stride * stride];
    if size == 0 {
        return lum;
    }
    let rows = lum[stride..]
        .chunks_exact_mut(stride)
        .zip(channels.chunks_exact(size * CHANNELS));
    for (row, px_row) in rows {
        for (l, px) in row[1..].iter_mut().zip(px_row.chunks_exact(CHANNELS)) {
            *l = (f64::from(px[0]) + f64::from(px[1]) + f64::from(px[2])) / 3.0;
        }
        row[0] = row[1];
        row[size + 1] = row[size];
    }
    lum.copy_within(stride..2 * stride, 0);
    lum.copy_within(size * stride..(size + 1) * stride, (size + 1) * stride);
    lum
}

/// Standard deviation and range of a 3x3 luminance window, accumulated
/// in tap order.
fn window_stats(taps: &[f64; 9]) -> (f64, f64) {
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in taps {
        sum += v;
        sum_sq += v * v;
        min = min.min(v);
        max = max.max(v);
    }
    let n = taps.len() as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    (var.sqrt(), max - min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::World;
    use crate::resize::tests::{same_bits, stress_image};
    use crate::resize::{resize_channels, NearestPicks};
    use crate::tile::tile_frame;
    use proptest::prelude::*;

    /// The clamped per-tap feature extraction the padded luminance plane
    /// replaced, kept as the reference it must match bit for bit.
    fn reference_pixel_features(channels: &[f32], size: usize) -> Vec<f64> {
        let lum: Vec<f64> = (0..size * size)
            .map(|idx| {
                let px = &channels[idx * CHANNELS..(idx + 1) * CHANNELS];
                (f64::from(px[0]) + f64::from(px[1]) + f64::from(px[2])) / 3.0
            })
            .collect();
        let mut out = Vec::with_capacity(size * size * FEATURE_DIM);
        for r in 0..size {
            for c in 0..size {
                let idx = r * size + c;
                let px = &channels[idx * CHANNELS..(idx + 1) * CHANNELS];
                let blue = f64::from(px[0]);
                let green = f64::from(px[1]);
                let red = f64::from(px[2]);
                let nir = f64::from(px[3]);
                let cirrus = f64::from(px[4]);
                let l = lum[idx];

                let (local_std, local_range) = reference_neighborhood_stats(&lum, size, r, c);
                let cirrus_excess = cirrus - 0.05 * l;
                let ndvi = (nir - red) / (nir + red + 1e-6);
                let whiteness = -((blue - green).abs() + (green - red).abs());
                let nir_blue = (nir / (blue + 1e-3)).min(8.0);

                out.extend_from_slice(&[
                    blue,
                    green,
                    red,
                    nir,
                    cirrus,
                    l,
                    local_std,
                    local_range,
                    cirrus_excess,
                    ndvi,
                    whiteness,
                    nir_blue,
                ]);
            }
        }
        out
    }

    fn reference_neighborhood_stats(lum: &[f64], size: usize, r: usize, c: usize) -> (f64, f64) {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut n = 0.0;
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                let rr = (r as i64 + dr).clamp(0, size as i64 - 1) as usize;
                let cc = (c as i64 + dc).clamp(0, size as i64 - 1) as usize;
                let v = lum[rr * size + cc];
                sum += v;
                sum_sq += v * v;
                min = min.min(v);
                max = max.max(v);
                n += 1.0;
            }
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        (var.sqrt(), max - min)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn padded_windows_match_the_clamped_reference_bitwise(
            seed in 0u64..u64::MAX,
            size in 1usize..64,
        ) {
            let image = stress_image(seed, size * size * CHANNELS);
            prop_assert!(
                same_bits(&pixel_features(&image, size), &reference_pixel_features(&image, size)),
                "{size} px features drifted"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pick_grid_rows_match_the_full_grid_bitwise(
            seed in 0u64..u64::MAX,
            size in 1usize..40,
            dst_size in 1usize..40,
        ) {
            let image = stress_image(seed, size * size * CHANNELS);
            let full = pixel_features(&image, size);
            let picks = NearestPicks::new(size, dst_size);
            let p = picks.picks();
            let expected: Vec<f64> = p
                .iter()
                .flat_map(|&r| p.iter().map(move |&c| r * size + c))
                .flat_map(|i| full[i * FEATURE_DIM..(i + 1) * FEATURE_DIM].iter().copied())
                .collect();
            prop_assert!(
                same_bits(&pixel_features_at(&image, size, p), &expected),
                "{size} px features at {dst_size} picks drifted"
            );
        }
    }

    #[test]
    fn feature_matrix_shape() {
        let buf = vec![0.5f32; 8 * 8 * CHANNELS];
        let feats = pixel_features(&buf, 8);
        assert_eq!(feats.len(), 8 * 8 * FEATURE_DIM);
    }

    #[test]
    fn constant_image_has_zero_texture() {
        let buf = vec![0.3f32; 6 * 6 * CHANNELS];
        let feats = pixel_features(&buf, 6);
        for row in feats.chunks_exact(FEATURE_DIM) {
            assert!(row[6].abs() < 1e-9, "local_std {}", row[6]);
            assert!(row[7].abs() < 1e-9, "local_range {}", row[7]);
        }
    }

    #[test]
    fn texture_features_respond_to_checkerboard() {
        let mut buf = vec![0.0f32; 6 * 6 * CHANNELS];
        for r in 0..6 {
            for c in 0..6 {
                let v = ((r + c) % 2) as f32;
                for ch in 0..CHANNELS {
                    buf[(r * 6 + c) * CHANNELS + ch] = v;
                }
            }
        }
        let feats = pixel_features(&buf, 6);
        let center = &feats[(2 * 6 + 2) * FEATURE_DIM..(2 * 6 + 3) * FEATURE_DIM];
        assert!(center[6] > 0.3, "local_std {}", center[6]);
        assert!((center[7] - 1.0).abs() < 1e-9, "local_range {}", center[7]);
    }

    #[test]
    fn ndvi_positive_for_vegetation_signature() {
        // NIR >> red, the vegetation red edge.
        let mut buf = vec![0.0f32; CHANNELS];
        buf[2] = 0.05; // red
        buf[3] = 0.35; // nir
        let feats = pixel_features(&buf, 1);
        assert!(feats[9] > 0.5, "ndvi = {}", feats[9]);
    }

    #[test]
    fn whiteness_highest_for_gray_pixels() {
        let gray = {
            let mut b = vec![0.5f32; CHANNELS];
            b[4] = 0.1;
            pixel_features(&b, 1)[10]
        };
        let colorful = {
            let mut b = vec![0.0f32; CHANNELS];
            b[0] = 0.1;
            b[1] = 0.5;
            b[2] = 0.9;
            pixel_features(&b, 1)[10]
        };
        assert!(gray > colorful);
    }

    #[test]
    fn resize_mismatch_weakens_texture_features() {
        // The core mechanism behind the tiling optimum: texture features
        // measured after upsampling are weaker than at native resolution.
        let frame = World::new(42).render_frame(5.0, 15.0, 0.0, 66, 150.0);
        let tiles = tile_frame(&frame, 11); // 6 px tiles
        let tile = &tiles[60];
        let native = pixel_features(tile.channels(), tile.size());
        let upsampled_buf = resize_channels(tile.channels(), tile.size(), CHANNELS, 22);
        let upsampled = pixel_features(&upsampled_buf, 22);

        let mean_std = |feats: &[f64]| {
            let rows = feats.len() / FEATURE_DIM;
            feats
                .chunks_exact(FEATURE_DIM)
                .map(|r| r[6])
                .sum::<f64>()
                / rows as f64
        };
        assert!(
            mean_std(&upsampled) < mean_std(&native),
            "upsampled texture {} vs native {}",
            mean_std(&upsampled),
            mean_std(&native)
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_bad_buffer() {
        let _ = pixel_features(&[0.0; 7], 2);
    }
}
