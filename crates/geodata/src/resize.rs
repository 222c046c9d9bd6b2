//! Image resizing: the decimation/interpolation pipeline.
//!
//! Frame tiling couples tile size to model input size (paper Figure 6):
//! every tile is resized to the neural network's input resolution before
//! inference. Tiles larger than the input are **decimated** by area
//! averaging — fine cloud-edge structure is destroyed. Tiles smaller than
//! the input are **interpolated** bilinearly — no information is added,
//! and local texture flattens out. Both effects degrade the features the
//! classifier relies on, producing the interior optimum in tile count
//! that Section 5.4 of the paper reports.

use crate::pixel::CHANNELS;
use std::ops::Range;

/// Resizes an interleaved multi-channel image from `src_size` x `src_size`
/// to `dst_size` x `dst_size`.
///
/// Downscaling uses exact area averaging; upscaling uses bilinear
/// interpolation; equal sizes return a copy.
///
/// # Panics
///
/// Panics if sizes are zero or the buffer length does not match
/// `src_size * src_size * channels`.
pub fn resize_channels(
    src: &[f32],
    src_size: usize,
    channels: usize,
    dst_size: usize,
) -> Vec<f32> {
    assert!(src_size > 0 && dst_size > 0, "image sizes must be positive");
    assert_eq!(
        src.len(),
        src_size * src_size * channels,
        "buffer length mismatch"
    );
    if dst_size == src_size || channels == 0 {
        return src.to_vec();
    }
    // Tiles carry the five spectral channels. Passing that count as a
    // literal into the always-inlined kernels lets the compiler unroll
    // the per-channel loops and keep the area accumulator in a stack
    // array; any other count runs the same bodies with a runtime count,
    // bit-identically.
    match (dst_size < src_size, channels) {
        (true, CHANNELS) => area_average(src, src_size, dst_size, &mut [0.0; CHANNELS]),
        (true, _) => area_average(src, src_size, dst_size, &mut vec![0.0; channels]),
        (false, CHANNELS) => bilinear(src, src_size, CHANNELS, dst_size),
        (false, _) => bilinear(src, src_size, channels, dst_size),
    }
}

/// The source footprint of each destination index along one axis of an
/// area-average downscale. Index `d` covers the source cells from
/// `spans[d].0` on, one per overlap in `overlaps[spans[d].1]`, in source
/// order. Zero overlaps are kept, so a non-finite value in a cell the
/// footprint only touches still reaches the sum. Frames and tiles are
/// square, so rows and columns share one table.
fn area_spans(src_size: usize, dst_size: usize) -> (Vec<(usize, Range<usize>)>, Vec<f64>) {
    let scale = src_size as f64 / dst_size as f64;
    let mut spans = Vec::with_capacity(dst_size);
    let mut overlaps = Vec::new();
    for d in 0..dst_size {
        let lo = d as f64 * scale;
        let hi = (d + 1) as f64 * scale;
        let first = lo.floor() as usize;
        let start = overlaps.len();
        overlaps.extend(
            (first..src_size)
                .take_while(|&s| (s as f64) < hi)
                .map(|s| (hi.min((s + 1) as f64) - lo.max(s as f64)).max(0.0)),
        );
        spans.push((first, start..overlaps.len()));
    }
    (spans, overlaps)
}

/// Area-average downscale: each destination pixel integrates the exact
/// (possibly fractional) source region it covers. `acc` holds one
/// accumulator per channel and sets the channel count.
#[inline(always)]
fn area_average(src: &[f32], src_size: usize, dst_size: usize, acc: &mut [f64]) -> Vec<f32> {
    let channels = acc.len();
    let row_len = src_size * channels;
    let (spans, overlaps) = area_spans(src_size, dst_size);
    let mut out = vec![0.0f32; dst_size * dst_size * channels];
    for ((row_first, row_span), out_row) in
        spans.iter().zip(out.chunks_exact_mut(dst_size * channels))
    {
        let rows = src[row_first * row_len..]
            .chunks_exact(row_len)
            .zip(&overlaps[row_span.clone()]);
        for ((col_first, col_span), out_px) in spans.iter().zip(out_row.chunks_exact_mut(channels))
        {
            let col_overlaps = &overlaps[col_span.clone()];
            acc.fill(0.0);
            let mut area = 0.0f64;
            for (src_row, &row_overlap) in rows.clone() {
                let cells = src_row[col_first * channels..].chunks_exact(channels);
                for (px, &col_overlap) in cells.zip(col_overlaps) {
                    let w = row_overlap * col_overlap;
                    for (a, &v) in acc.iter_mut().zip(px) {
                        *a += f64::from(v) * w;
                    }
                    area += w;
                }
            }
            for (o, &a) in out_px.iter_mut().zip(acc.iter()) {
                *o = (a / area) as f32;
            }
        }
    }
    out
}

/// The two source indices each destination index blends along one axis
/// of a bilinear upscale with half-pixel centers, and the weight of the
/// second. Shared by rows and columns, like [`area_spans`].
fn bilinear_spans(src_size: usize, dst_size: usize) -> Vec<(usize, usize, f64)> {
    let scale = src_size as f64 / dst_size as f64;
    let max_idx = src_size - 1;
    (0..dst_size)
        .map(|d| {
            let s = ((d as f64 + 0.5) * scale - 0.5).clamp(0.0, max_idx as f64);
            let i0 = s.floor() as usize;
            (i0, (i0 + 1).min(max_idx), s - i0 as f64)
        })
        .collect()
}

/// Bilinear upscale with half-pixel centers.
#[inline(always)]
fn bilinear(src: &[f32], src_size: usize, channels: usize, dst_size: usize) -> Vec<f32> {
    let row_len = src_size * channels;
    let spans = bilinear_spans(src_size, dst_size);
    let mut out = vec![0.0f32; dst_size * dst_size * channels];
    for (&(y0, y1, fy), out_row) in spans.iter().zip(out.chunks_exact_mut(dst_size * channels)) {
        let upper = &src[y0 * row_len..(y0 + 1) * row_len];
        let lower = &src[y1 * row_len..(y1 + 1) * row_len];
        for (&(x0, x1, fx), out_px) in spans.iter().zip(out_row.chunks_exact_mut(channels)) {
            let (a, b) = (x0 * channels, x1 * channels);
            let taps = upper[a..a + channels]
                .iter()
                .zip(&upper[b..b + channels])
                .zip(&lower[a..a + channels])
                .zip(&lower[b..b + channels]);
            for (o, (((&v00, &v10), &v01), &v11)) in out_px.iter_mut().zip(taps) {
                let (v00, v10) = (f64::from(v00), f64::from(v10));
                let (v01, v11) = (f64::from(v01), f64::from(v11));
                let top = v00 + (v10 - v00) * fx;
                let bot = v01 + (v11 - v01) * fx;
                *o = (top + (bot - top) * fy) as f32;
            }
        }
    }
    out
}

/// Resizes a boolean mask with nearest-neighbor sampling. Used to carry
/// predictions made at model input resolution back to a tile's native
/// resolution (and truth masks the other way).
///
/// # Panics
///
/// Panics if sizes are zero or the mask length does not match.
pub fn resize_mask(src: &[bool], src_size: usize, dst_size: usize) -> Vec<bool> {
    assert!(src_size > 0 && dst_size > 0, "mask sizes must be positive");
    assert_eq!(src.len(), src_size * src_size, "mask length mismatch");
    if dst_size == src_size {
        return src.to_vec();
    }
    let scale = src_size as f64 / dst_size as f64;
    let mut out = vec![false; dst_size * dst_size];
    for dr in 0..dst_size {
        let sr = (((dr as f64 + 0.5) * scale) as usize).min(src_size - 1);
        for dc in 0..dst_size {
            let sc = (((dc as f64 + 0.5) * scale) as usize).min(src_size - 1);
            out[dr * dst_size + dc] = src[sr * src_size + sc];
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel area average the span kernel replaced, kept as the
    /// reference it must match bit for bit.
    fn reference_area_average(
        src: &[f32],
        src_size: usize,
        channels: usize,
        dst_size: usize,
    ) -> Vec<f32> {
        let scale = src_size as f64 / dst_size as f64;
        let mut out = vec![0.0f32; dst_size * dst_size * channels];
        for dr in 0..dst_size {
            let r0 = dr as f64 * scale;
            let r1 = (dr + 1) as f64 * scale;
            for dc in 0..dst_size {
                let c0 = dc as f64 * scale;
                let c1 = (dc + 1) as f64 * scale;
                let mut acc = vec![0.0f64; channels];
                let mut area = 0.0f64;
                let mut sr = r0.floor() as usize;
                while (sr as f64) < r1 && sr < src_size {
                    let row_overlap = (r1.min((sr + 1) as f64) - r0.max(sr as f64)).max(0.0);
                    let mut sc = c0.floor() as usize;
                    while (sc as f64) < c1 && sc < src_size {
                        let col_overlap = (c1.min((sc + 1) as f64) - c0.max(sc as f64)).max(0.0);
                        let w = row_overlap * col_overlap;
                        let base = (sr * src_size + sc) * channels;
                        for ch in 0..channels {
                            acc[ch] += f64::from(src[base + ch]) * w;
                        }
                        area += w;
                        sc += 1;
                    }
                    sr += 1;
                }
                let base = (dr * dst_size + dc) * channels;
                for ch in 0..channels {
                    out[base + ch] = (acc[ch] / area) as f32;
                }
            }
        }
        out
    }

    /// The per-pixel bilinear upscale the span kernel replaced, kept as
    /// the reference it must match bit for bit.
    fn reference_bilinear(
        src: &[f32],
        src_size: usize,
        channels: usize,
        dst_size: usize,
    ) -> Vec<f32> {
        let scale = src_size as f64 / dst_size as f64;
        let mut out = vec![0.0f32; dst_size * dst_size * channels];
        let max_idx = src_size - 1;
        for dr in 0..dst_size {
            let sy = ((dr as f64 + 0.5) * scale - 0.5).clamp(0.0, max_idx as f64);
            let y0 = sy.floor() as usize;
            let y1 = (y0 + 1).min(max_idx);
            let fy = sy - y0 as f64;
            for dc in 0..dst_size {
                let sx = ((dc as f64 + 0.5) * scale - 0.5).clamp(0.0, max_idx as f64);
                let x0 = sx.floor() as usize;
                let x1 = (x0 + 1).min(max_idx);
                let fx = sx - x0 as f64;
                let base = (dr * dst_size + dc) * channels;
                for ch in 0..channels {
                    let v00 = f64::from(src[(y0 * src_size + x0) * channels + ch]);
                    let v10 = f64::from(src[(y0 * src_size + x1) * channels + ch]);
                    let v01 = f64::from(src[(y1 * src_size + x0) * channels + ch]);
                    let v11 = f64::from(src[(y1 * src_size + x1) * channels + ch]);
                    let top = v00 + (v10 - v00) * fx;
                    let bot = v01 + (v11 - v01) * fx;
                    out[base + ch] = (top + (bot - top) * fy) as f32;
                }
            }
        }
        out
    }

    /// A deterministic image of `len` values: mostly reflectance-like
    /// values, with one in 32 drawn from NaN, ±inf, ±0, the extremes and
    /// a subnormal, so propagation and rounding are exercised too.
    pub(crate) fn stress_image(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let bits = state >> 32;
                match bits % 256 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => f32::MAX,
                    6 => f32::MIN,
                    7 => f32::MIN_POSITIVE / 8.0,
                    _ => (bits >> 8) as f32 / (1u64 << 24) as f32 * 1.5 - 0.25,
                }
            })
            .collect()
    }

    /// Bit equality, except that every NaN equals every other: Rust
    /// leaves the payload of a NaN result unspecified. `f32` values
    /// compare through their lossless `f64` widening.
    pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits())
    }

    fn widened(v: &[f32]) -> Vec<f64> {
        v.iter().map(|&x| f64::from(x)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn span_kernels_match_the_per_pixel_references_bitwise(
            seed in 0u64..u64::MAX,
            src_size in 1usize..64,
            dst_size in 1usize..64,
            channels in 1usize..=6,
        ) {
            let src = stress_image(seed, src_size * src_size * channels);
            let out = resize_channels(&src, src_size, channels, dst_size);
            let reference = if dst_size == src_size {
                src.clone()
            } else if dst_size < src_size {
                reference_area_average(&src, src_size, channels, dst_size)
            } else {
                reference_bilinear(&src, src_size, channels, dst_size)
            };
            prop_assert!(
                same_bits(&widened(&out), &widened(&reference)),
                "{src_size} -> {dst_size} at {channels} channels drifted"
            );
        }
    }

    fn checkerboard(size: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; size * size];
        for r in 0..size {
            for c in 0..size {
                v[r * size + c] = ((r + c) % 2) as f32;
            }
        }
        v
    }

    #[test]
    fn identity_resize_is_copy() {
        let src = checkerboard(8);
        assert_eq!(resize_channels(&src, 8, 1, 8), src);
        let mask: Vec<bool> = src.iter().map(|&v| v > 0.5).collect();
        assert_eq!(resize_mask(&mask, 8, 8), mask);
    }

    #[test]
    fn downscale_preserves_mean() {
        let src = checkerboard(16);
        let dst = resize_channels(&src, 16, 1, 4);
        let src_mean: f32 = src.iter().sum::<f32>() / src.len() as f32;
        let dst_mean: f32 = dst.iter().sum::<f32>() / dst.len() as f32;
        assert!((src_mean - dst_mean).abs() < 1e-5);
    }

    #[test]
    fn downscale_destroys_checkerboard_contrast() {
        // The decimation mechanism: a 2x2 checkerboard block averages to
        // exactly 0.5 everywhere — all fine structure gone.
        let src = checkerboard(16);
        let dst = resize_channels(&src, 16, 1, 8);
        for &v in &dst {
            assert!((v - 0.5).abs() < 1e-6, "value {v}");
        }
    }

    #[test]
    fn upscale_flattens_local_texture() {
        // Interpolated neighbors are highly correlated, so local variance
        // shrinks relative to the source.
        let src = checkerboard(8);
        let dst = resize_channels(&src, 8, 1, 16);
        let variance = |v: &[f32]| {
            let m: f32 = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32
        };
        assert!(variance(&dst) < variance(&src));
    }

    #[test]
    fn upscale_of_constant_is_constant() {
        let src = vec![0.7f32; 6 * 6 * 3];
        let dst = resize_channels(&src, 6, 3, 13);
        for &v in &dst {
            assert!((v - 0.7).abs() < 1e-6);
        }
        assert_eq!(dst.len(), 13 * 13 * 3);
    }

    #[test]
    fn fractional_ratio_downscale_preserves_mean() {
        // 33 -> 22 is the fractional case frame tiling hits in practice.
        let src: Vec<f32> = (0..33 * 33).map(|i| (i % 7) as f32 / 6.0).collect();
        let dst = resize_channels(&src, 33, 1, 22);
        let src_mean: f32 = src.iter().sum::<f32>() / src.len() as f32;
        let dst_mean: f32 = dst.iter().sum::<f32>() / dst.len() as f32;
        assert!((src_mean - dst_mean).abs() < 2e-3);
    }

    #[test]
    fn mask_round_trip_through_upscale_is_lossless() {
        let mask: Vec<bool> = (0..12 * 12).map(|i| i % 3 == 0).collect();
        let up = resize_mask(&mask, 12, 24);
        let back = resize_mask(&up, 24, 12);
        assert_eq!(back, mask);
    }

    #[test]
    fn mask_downscale_samples_centers() {
        let mut mask = vec![false; 4 * 4];
        // Mark the block whose center lands at (1,1) region.
        mask[1 * 4 + 1] = true;
        let down = resize_mask(&mask, 4, 2);
        assert!(down.iter().filter(|&&b| b).count() <= 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_bad_buffer() {
        let _ = resize_channels(&[0.0; 10], 4, 1, 2);
    }
}
