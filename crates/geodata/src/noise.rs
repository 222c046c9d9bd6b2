//! Seeded value noise and fractal Brownian motion.
//!
//! All procedural structure in the dataset — continents, biomes, cloud
//! fields, sensor confusers — is driven by the noise in this module. The
//! generator is a lattice value noise: pseudo-random values hashed from
//! integer lattice coordinates, blended with a quintic smoothstep. Fractal
//! Brownian motion (fBm) sums octaves of it for natural-looking structure
//! with power at many spatial scales — which is exactly what gives cloud
//! edges the fine detail that tiling decimation destroys.
//!
//! Determinism matters: the same `(seed, coordinates)` always produces the
//! same field, so datasets are reproducible and tests are stable.
//!
//! ## The lattice memo
//!
//! A frame evaluates these fields at every pixel, and along one scan line
//! most of that work repeats: `y` and `t` do not change, and even the
//! finest cloud octave crosses only a few lattice cells. An `FbmCursor`
//! keeps, per octave, the corner values of the last lattice cell it
//! hashed and the `y`/`t` terms of the last `(y, t)`, so a run of nearby
//! points hashes each cell once. A cell's eight corners come from one
//! SplitMix chain with the seed, `x` and `y` prefixes shared, 15 rounds
//! instead of 32, and every corner equals its [`hash_to_unit`] value.
//! Memo keys are exact — the octave seed and lattice indices, and the
//! bits of `y` and `t` — so a hit returns what recomputing would, and
//! every float operation runs in the scalar order. The scalar entry
//! points ([`NoiseField::value`], [`NoiseField::fbm5`]) run the same code
//! with a fresh cursor. Sensor noise shares chain prefixes the same way:
//! a pixel's channels reuse the four chains through the seed, `x` and
//! `y`, so all five cost 32 SplitMix rounds instead of 80, and each equals
//! its [`pixel_noise`].

use serde::{Deserialize, Serialize};

/// SplitMix64 — a small, high-quality 64-bit mixer used to hash lattice
/// coordinates into pseudo-random values.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One link of a coordinate hash chain: mixes coordinate `c` into `h`.
#[inline]
fn chain(h: u64, c: i64) -> u64 {
    splitmix64(h ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// 53 mantissa bits of a hash -> `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Hashes a set of integers (plus a seed) to a uniform `f64` in `[0, 1)`.
#[inline]
pub fn hash_to_unit(seed: u64, coords: &[i64]) -> f64 {
    let mut h = splitmix64(seed);
    for &c in coords {
        h = chain(h, c);
    }
    unit(h)
}

/// Quintic smoothstep `6t^5 - 15t^4 + 10t^3`, C2-continuous at 0 and 1.
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[inline]
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// The eight corner values of lattice cell `(xi, yi, ti)`, x fastest:
/// `[c000, c100, c010, c110, c001, c101, c011, c111]`. Corner `(x, y, t)`
/// is `hash_to_unit(seed, &[x, y, t])`; the chain prefixes through the
/// seed, `x` and `(x, y)` are shared between corners.
fn cell_corners(seed: u64, xi: i64, yi: i64, ti: i64) -> [f64; 8] {
    let h = splitmix64(seed);
    let (hx0, hx1) = (chain(h, xi), chain(h, xi + 1));
    let (h00, h10) = (chain(hx0, yi), chain(hx1, yi));
    let (h01, h11) = (chain(hx0, yi + 1), chain(hx1, yi + 1));
    let (t0, t1) = (ti, ti + 1);
    [
        unit(chain(h00, t0)),
        unit(chain(h10, t0)),
        unit(chain(h01, t0)),
        unit(chain(h11, t0)),
        unit(chain(h00, t1)),
        unit(chain(h10, t1)),
        unit(chain(h01, t1)),
        unit(chain(h11, t1)),
    ]
}

/// Trilinear blend of a cell's corners at smoothstep weights
/// `(fx, fy, ft)`: along x, then y, then t.
fn blend(corners: [f64; 8], fx: f64, fy: f64, ft: f64) -> f64 {
    let [c000, c100, c010, c110, c001, c101, c011, c111] = corners;
    let x00 = lerp(c000, c100, fx);
    let x10 = lerp(c010, c110, fx);
    let x01 = lerp(c001, c101, fx);
    let x11 = lerp(c011, c111, fx);
    let y0v = lerp(x00, x10, fy);
    let y1v = lerp(x01, x11, fy);
    lerp(y0v, y1v, ft)
}

/// A one-entry memo: the value last computed and the exact key it was
/// computed for. Float inputs are keyed by their bits, so a hit returns
/// exactly what recomputing would.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Memo<K, V> {
    slot: Option<(K, V)>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo { slot: None }
    }
}

impl<K: Copy + PartialEq, V: Copy> Memo<K, V> {
    /// The value for `key`, computed by `fill` unless `key` is the one
    /// last seen.
    pub(crate) fn get(&mut self, key: K, fill: impl FnOnce() -> V) -> V {
        match self.slot {
            Some((k, v)) if k == key => v,
            _ => {
                let v = fill();
                self.slot = Some((key, v));
                v
            }
        }
    }
}

/// One coordinate's lattice index and smoothstep weight.
fn axis(v: f64) -> (i64, f64) {
    let floor = v.floor();
    (floor as i64, smooth(v - floor))
}

/// One octave's memo: the `y`/`t` axes of the last `(y, t)` and the
/// corners of the last lattice cell, keyed by octave seed and indices.
#[derive(Debug, Clone, Copy, Default)]
struct OctaveMemo {
    yt: Memo<(u64, u64), [(i64, f64); 2]>,
    cell: Memo<(u64, i64, i64, i64), [f64; 8]>,
}

impl OctaveMemo {
    /// Single-octave value noise of the field seeded `seed` at `(x, y, t)`.
    fn value(&mut self, seed: u64, x: f64, y: f64, t: f64) -> f64 {
        let (xi, fx) = axis(x);
        let [(yi, fy), (ti, ft)] = self
            .yt
            .get((y.to_bits(), t.to_bits()), || [axis(y), axis(t)]);
        let corners = self
            .cell
            .get((seed, xi, yi, ti), || cell_corners(seed, xi, yi, ti));
        blend(corners, fx, fy, ft)
    }
}

/// Octaves a cursor memoizes: the deepest fBm the renderer evaluates
/// (the cloud field's six). Deeper octaves are computed unmemoized.
const MEMO_OCTAVES: usize = 6;

/// A lattice memo for evaluating noise at a run of nearby points, such as
/// the pixels of one frame in scan order (see the module docs). A cursor
/// may be reused across fields and arbitrary points: a miss recomputes,
/// so results never depend on what the cursor saw before.
#[derive(Debug, Clone, Default)]
pub(crate) struct FbmCursor {
    octaves: [OctaveMemo; MEMO_OCTAVES],
}

impl FbmCursor {
    /// [`NoiseField::value`] through this cursor.
    pub(crate) fn value(&mut self, field: &NoiseField, x: f64, y: f64, t: f64) -> f64 {
        let [first, ..] = &mut self.octaves;
        first.value(field.seed, x, y, t)
    }

    /// Fractal Brownian motion through this cursor: `octaves` (positive)
    /// octaves of value noise with the given `lacunarity` (frequency
    /// multiplier per octave) and `gain` (amplitude multiplier per
    /// octave), normalized to `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fbm(
        &mut self,
        field: &NoiseField,
        x: f64,
        y: f64,
        t: f64,
        octaves: u32,
        lacunarity: f64,
        gain: f64,
    ) -> f64 {
        let mut sum = 0.0;
        let mut amplitude = 1.0;
        let mut total_amplitude = 0.0;
        let mut fx = x;
        let mut fy = y;
        let mut ft = t;
        let mut memos = self.octaves.iter_mut();
        for octave in 0..octaves {
            // Re-seed per octave so octaves are independent fields.
            let seed = field.seed.wrapping_add(u64::from(octave) * 0x9E37);
            let value = match memos.next() {
                Some(memo) => memo.value(seed, fx, fy, ft),
                None => OctaveMemo::default().value(seed, fx, fy, ft),
            };
            sum += amplitude * value;
            total_amplitude += amplitude;
            amplitude *= gain;
            fx *= lacunarity;
            fy *= lacunarity;
            ft *= lacunarity;
        }
        sum / total_amplitude
    }

    /// [`NoiseField::fbm5`] through this cursor.
    pub(crate) fn fbm5(&mut self, field: &NoiseField, x: f64, y: f64, t: f64) -> f64 {
        self.fbm(field, x, y, t, 5, 2.0, 0.5)
    }
}

/// A seeded 3-D value-noise field over `(x, y, t)`.
///
/// The third axis is typically time (days), which gives cloud fields
/// temporal evolution. For static fields (terrain), pass `t = 0`.
///
/// # Example
///
/// ```
/// use kodan_geodata::noise::NoiseField;
/// let n = NoiseField::new(42);
/// let v = n.value(1.5, 2.5, 0.0);
/// assert!((0.0..=1.0).contains(&v));
/// assert_eq!(v, NoiseField::new(42).value(1.5, 2.5, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiseField {
    seed: u64,
}

impl NoiseField {
    /// Creates a noise field with the given seed.
    pub fn new(seed: u64) -> NoiseField {
        NoiseField { seed }
    }

    /// The seed of this field.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Single-octave value noise at `(x, y, t)`, in `[0, 1]`.
    pub fn value(&self, x: f64, y: f64, t: f64) -> f64 {
        FbmCursor::default().value(self, x, y, t)
    }

    /// Standard 5-octave fBm with lacunarity 2 and gain 0.5 — the default
    /// used for terrain and clouds.
    pub fn fbm5(&self, x: f64, y: f64, t: f64) -> f64 {
        FbmCursor::default().fbm5(self, x, y, t)
    }
}

/// The hash chains of one pixel's sensor noise: one per summed uniform,
/// through its seed and the pixel's `(x, y)`. Every channel shares them
/// and adds only its own last round.
pub(crate) struct PixelNoise {
    prefixes: [u64; 4],
}

impl PixelNoise {
    /// The chains of pixel `(x, y)` under `seed`.
    pub(crate) fn new(seed: u64, x: i64, y: i64) -> PixelNoise {
        let prefix = |k: u64| {
            chain(
                chain(splitmix64(seed ^ 0xC0FF_EE00u64.wrapping_add(k)), x),
                y,
            )
        };
        PixelNoise {
            prefixes: [prefix(0), prefix(1), prefix(2), prefix(3)],
        }
    }

    /// [`pixel_noise`] of this pixel in `channel`.
    pub(crate) fn channel(&self, channel: usize, sigma: f64) -> f64 {
        let mut acc = 0.0;
        for &h in &self.prefixes {
            acc += unit(chain(h, channel as i64));
        }
        // Sum of 4 uniforms: mean 2.0, variance 4/12. Normalize to ~N(0,1).
        (acc - 2.0) / (1.0 / 3.0f64).sqrt() * sigma
    }
}

/// White noise keyed by pixel coordinates: zero-mean, approximately
/// Gaussian (sum of four uniforms), scaled by `sigma`. Used for sensor
/// noise so that rendering needs no RNG state.
pub fn pixel_noise(seed: u64, x: i64, y: i64, channel: usize, sigma: f64) -> f64 {
    PixelNoise::new(seed, x, y).channel(channel, sigma)
}

/// Reference kernels with every corner and uniform hashed on its own by
/// [`hash_to_unit`]: tests across the crate check the cursor paths and
/// shared chains against these bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{hash_to_unit, lerp, smooth};

    /// Single-octave value noise from eight independent corner hashes.
    pub(crate) fn value(seed: u64, x: f64, y: f64, t: f64) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let t0 = t.floor();
        let fx = smooth(x - x0);
        let fy = smooth(y - y0);
        let ft = smooth(t - t0);
        let (xi, yi, ti) = (x0 as i64, y0 as i64, t0 as i64);
        let corner = |dx: i64, dy: i64, dt: i64| hash_to_unit(seed, &[xi + dx, yi + dy, ti + dt]);
        let x00 = lerp(corner(0, 0, 0), corner(1, 0, 0), fx);
        let x10 = lerp(corner(0, 1, 0), corner(1, 1, 0), fx);
        let x01 = lerp(corner(0, 0, 1), corner(1, 0, 1), fx);
        let x11 = lerp(corner(0, 1, 1), corner(1, 1, 1), fx);
        lerp(lerp(x00, x10, fy), lerp(x01, x11, fy), ft)
    }

    /// fBm over [`value`].
    pub(crate) fn fbm(
        seed: u64,
        x: f64,
        y: f64,
        t: f64,
        octaves: u32,
        lacunarity: f64,
        gain: f64,
    ) -> f64 {
        let (mut sum, mut amplitude, mut total_amplitude) = (0.0, 1.0, 0.0);
        let (mut fx, mut fy, mut ft) = (x, y, t);
        for octave in 0..octaves {
            sum += amplitude * value(seed.wrapping_add(u64::from(octave) * 0x9E37), fx, fy, ft);
            total_amplitude += amplitude;
            amplitude *= gain;
            fx *= lacunarity;
            fy *= lacunarity;
            ft *= lacunarity;
        }
        sum / total_amplitude
    }

    /// Sensor noise from four independent hashes.
    pub(crate) fn pixel_noise(seed: u64, x: i64, y: i64, channel: usize, sigma: f64) -> f64 {
        let mut acc = 0.0;
        for k in 0..4u64 {
            acc += hash_to_unit(
                seed ^ 0xC0FF_EE00u64.wrapping_add(k),
                &[x, y, channel as i64],
            );
        }
        (acc - 2.0) / (1.0 / 3.0f64).sqrt() * sigma
    }

    /// A walk over `(lat, lon)` that stresses a reused cursor: each step
    /// continues the scan line by about one 132 px pixel, starts the next
    /// row at the line's first longitude, or jumps to the unrelated point
    /// `(a, b)` (`kind` 0, 1 or 2).
    pub(crate) fn scan_walk(steps: &[(u8, f64, f64)]) -> Vec<(f64, f64)> {
        const PIXEL_DEG: f64 = 150.0 / 132.0 / 111.32;
        let (mut lat, mut lon, mut row_start) = (0.0, 0.0, 0.0);
        steps
            .iter()
            .map(|&(kind, a, b)| {
                match kind {
                    0 => lon += PIXEL_DEG,
                    1 => {
                        lat -= PIXEL_DEG;
                        lon = row_start;
                    }
                    _ => {
                        lat = a;
                        lon = b;
                        row_start = b;
                    }
                }
                (lat, lon)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A noise-space coordinate: random, a random lattice integer, or an
    /// edge case — signed zeros, negative integers, a hair off a lattice
    /// line.
    fn coordinate() -> impl Strategy<Value = f64> {
        let edges = vec![-3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 17.0, -1e-12, 1.0 - 1e-12];
        (0u8..4, -60.0f64..60.0, prop::sample::select(edges)).prop_map(|(kind, random, edge)| {
            match kind {
                0 => edge,
                1 => random.floor(),
                _ => random,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn cursor_noise_matches_the_oracle(
            seed in 0u64..u64::MAX,
            points in prop::collection::vec((coordinate(), coordinate(), coordinate(), 1u32..10), 1..16),
            lacunarity in prop::sample::select(vec![2.0, 2.1, 1.7]),
            gain in 0.3f64..0.7,
        ) {
            // One cursor across unrelated points, two fields, scan lines
            // and `t = 0`; 1..10 octaves overrun the cursor's six memos.
            let fields = [NoiseField::new(seed), NoiseField::new(seed ^ 0x5EA5)];
            let mut cursor = FbmCursor::default();
            for &(x, y, t, octaves) in &points {
                for field in &fields {
                    for (xk, tk) in [(x, t), (x + 0.37, t), (x + 0.74, t), (x, 0.0)] {
                        let want = oracle::value(field.seed(), xk, y, tk).to_bits();
                        prop_assert_eq!(field.value(xk, y, tk).to_bits(), want);
                        prop_assert_eq!(cursor.value(field, xk, y, tk).to_bits(), want);
                        let want =
                            oracle::fbm(field.seed(), xk, y, tk, octaves, lacunarity, gain).to_bits();
                        let got = cursor.fbm(field, xk, y, tk, octaves, lacunarity, gain);
                        prop_assert_eq!(got.to_bits(), want);
                    }
                }
                let (xi, yi, ti) = (x.floor() as i64, y.floor() as i64, t.floor() as i64);
                let [c000, c100, c010, c110, c001, c101, c011, c111] = cell_corners(seed, xi, yi, ti);
                let corner = |dx: i64, dy: i64, dt: i64| hash_to_unit(seed, &[xi + dx, yi + dy, ti + dt]);
                prop_assert_eq!(
                    [c000, c100, c010, c110, c001, c101, c011, c111],
                    [
                        corner(0, 0, 0), corner(1, 0, 0), corner(0, 1, 0), corner(1, 1, 0),
                        corner(0, 0, 1), corner(1, 0, 1), corner(0, 1, 1), corner(1, 1, 1),
                    ]
                );
            }
        }

        #[test]
        fn shared_pixel_noise_chains_match_the_oracle(
            seed in 0u64..u64::MAX,
            x in -500i64..500,
            y in -500i64..500,
            sigma in 0.01f64..0.1,
        ) {
            let chains = PixelNoise::new(seed, x, y);
            for channel in 0..5 {
                let want = oracle::pixel_noise(seed, x, y, channel, sigma).to_bits();
                prop_assert_eq!(pixel_noise(seed, x, y, channel, sigma).to_bits(), want);
                prop_assert_eq!(chains.channel(channel, sigma).to_bits(), want);
            }
        }
    }

    #[test]
    fn hash_is_deterministic_and_uniform_ish() {
        let a = hash_to_unit(1, &[10, 20]);
        let b = hash_to_unit(1, &[10, 20]);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));

        // Mean of many hashes should be near 0.5.
        let mean: f64 = (0..10_000)
            .map(|i| hash_to_unit(7, &[i, i * 3 + 1]))
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let n1 = NoiseField::new(1);
        let n2 = NoiseField::new(2);
        let mut diffs = 0;
        for i in 0..100 {
            let x = i as f64 * 0.37;
            if (n1.value(x, x, 0.0) - n2.value(x, x, 0.0)).abs() > 1e-6 {
                diffs += 1;
            }
        }
        assert!(diffs > 90);
    }

    #[test]
    fn noise_is_continuous() {
        let n = NoiseField::new(9);
        let mut prev = n.value(0.0, 0.5, 0.0);
        for i in 1..1000 {
            let x = i as f64 * 0.001;
            let v = n.value(x, 0.5, 0.0);
            assert!((v - prev).abs() < 0.05, "jump at x={x}");
            prev = v;
        }
    }

    #[test]
    fn noise_in_unit_range() {
        let n = NoiseField::new(3);
        for i in 0..500 {
            let x = i as f64 * 0.173;
            let v = n.fbm5(x, x * 0.7, 0.3);
            assert!((0.0..=1.0).contains(&v), "fbm out of range: {v}");
        }
    }

    #[test]
    fn fbm_adds_fine_structure() {
        // fBm should vary on finer scales than a single octave: compare
        // total variation along a transect.
        let n = NoiseField::new(11);
        let tv = |f: &dyn Fn(f64) -> f64| -> f64 {
            let mut acc = 0.0;
            let mut prev = f(0.0);
            for i in 1..2000 {
                let v = f(i as f64 * 0.005);
                acc += (v - prev).abs();
                prev = v;
            }
            acc
        };
        let single = tv(&|x| n.value(x, 0.0, 0.0));
        let fractal = tv(&|x| n.fbm5(x, 0.0, 0.0));
        assert!(
            fractal > 1.2 * single,
            "fbm TV {fractal} vs single-octave TV {single}"
        );
    }

    #[test]
    fn time_axis_evolves_field() {
        let n = NoiseField::new(5);
        let before = n.fbm5(3.3, 4.4, 0.0);
        let after = n.fbm5(3.3, 4.4, 5.0);
        assert!((before - after).abs() > 1e-6);
    }

    #[test]
    fn pixel_noise_statistics() {
        let mut mean = 0.0;
        let mut var = 0.0;
        let count = 20_000;
        for i in 0..count {
            let v = pixel_noise(1, i, i * 7 + 3, 0, 0.05);
            mean += v;
            var += v * v;
        }
        mean /= count as f64;
        var = var / count as f64 - mean * mean;
        assert!(mean.abs() < 0.005, "mean = {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sigma = {}", var.sqrt());
    }
}
