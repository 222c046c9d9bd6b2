//! Multispectral pixel synthesis.
//!
//! Each pixel's top-of-atmosphere radiance is a blend of its surface
//! reflectance and cloud reflectance, weighted by cloud optical depth,
//! plus the *confusers* that make real cloud masking hard:
//!
//! - **sun glint** brightens ocean pixels in the visible bands, mimicking
//!   cloud;
//! - **dust plumes** over desert raise the cirrus band, mimicking thin
//!   cirrus;
//! - **snow** is intrinsically bright and raises the cirrus band.
//!
//! Because each confuser is surface-specific, the optimal cloud/clear
//! decision boundary differs by surface context. That is precisely why
//! context-specialized models beat a single global model (paper
//! Section 5.3) — and here it emerges from the radiometry rather than
//! being assumed.

use crate::noise::{FbmCursor, NoiseField, PixelNoise};
use crate::surface::SurfaceType;
use serde::{Deserialize, Serialize};

/// Number of spectral channels.
pub const CHANNELS: usize = 5;

/// Channel names, indexed as in every per-pixel array.
pub const CHANNEL_NAMES: [&str; CHANNELS] = ["blue", "green", "red", "nir", "cirrus"];

/// Cloud top-of-atmosphere reflectance per channel: bright and white in
/// the visible and NIR, strong in the cirrus absorption band.
pub const CLOUD_ALBEDO: [f64; CHANNELS] = [0.76, 0.75, 0.74, 0.70, 0.32];

/// Per-channel sensor noise (standard deviation of reflectance units).
pub const SENSOR_NOISE_SIGMA: f64 = 0.045;

/// Inputs to pixel synthesis, gathered by the frame renderer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PixelEnvironment {
    /// Surface under the pixel.
    pub surface: SurfaceType,
    /// Cloud optical depth in `[0, 1]`.
    pub cloud_depth: f64,
    /// Geodetic latitude, degrees (drives confuser fields).
    pub lat_deg: f64,
    /// Geodetic longitude, degrees.
    pub lon_deg: f64,
    /// Simulation time, days.
    pub t_days: f64,
}

/// The confuser field generator: slowly-varying nuisance signals keyed to
/// surface type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Confusers {
    glint: NoiseField,
    dust: NoiseField,
}

/// Spatial frequency of confuser patches, cycles per degree.
const CONFUSER_SCALE: f64 = 1.0 / 4.0;

impl Confusers {
    /// Creates the confuser generator from a seed.
    pub fn new(seed: u64) -> Confusers {
        Confusers {
            glint: NoiseField::new(seed ^ 0x611A),
            dust: NoiseField::new(seed ^ 0xD057),
        }
    }

    /// Additive per-channel perturbation for a pixel environment.
    pub fn perturbation(&self, env: &PixelEnvironment) -> [f64; CHANNELS] {
        self.perturbation_with(&mut FbmCursor::default(), env)
    }

    /// [`Confusers::perturbation`] through a lattice cursor shared by
    /// the three confuser streams (a pixel draws at most one).
    fn perturbation_with(&self, cursor: &mut FbmCursor, env: &PixelEnvironment) -> [f64; CHANNELS] {
        let x = env.lon_deg * CONFUSER_SCALE;
        let y = env.lat_deg * CONFUSER_SCALE;
        let mut delta = [0.0; CHANNELS];
        match env.surface {
            SurfaceType::Ocean | SurfaceType::Wetland => {
                // Sun glint: patchy visible brightening over water.
                let g = cursor.fbm5(&self.glint, x, y, env.t_days * 0.5);
                if g > 0.6 {
                    let strength = (g - 0.6) * 1.3;
                    delta[0] += 0.45 * strength;
                    delta[1] += 0.45 * strength;
                    delta[2] += 0.42 * strength;
                    delta[3] += 0.25 * strength;
                }
            }
            SurfaceType::Desert => {
                // Dust plumes raise the cirrus band and redden the visible.
                let d = cursor.fbm5(&self.dust, x, y, env.t_days * 0.3);
                if d > 0.55 {
                    let strength = (d - 0.55) * 1.1;
                    delta[4] += 0.30 * strength;
                    delta[2] += 0.10 * strength;
                }
            }
            SurfaceType::Snow => {
                // Snow's intrinsic cirrus-band response varies with grain
                // size; modeled as a smooth perturbation.
                let s = cursor.fbm5(&self.dust, x + 37.0, y - 11.0, env.t_days * 0.1);
                delta[4] += 0.10 * s;
            }
            _ => {}
        }
        delta
    }
}

/// Synthesizes one pixel's reflectance in all channels.
///
/// `noise_seed` keys the deterministic per-pixel sensor noise; `px`/`py`
/// are the pixel's integer coordinates within its frame.
pub fn synthesize_pixel(
    env: &PixelEnvironment,
    confusers: &Confusers,
    noise_seed: u64,
    px: i64,
    py: i64,
) -> [f32; CHANNELS] {
    synthesize_pixel_with(
        &mut FbmCursor::default(),
        env,
        confusers,
        noise_seed,
        px,
        py,
    )
}

/// [`synthesize_pixel`] with the confusers drawn through `cursor`. All
/// channels' sensor noise comes from one set of hash chains.
pub(crate) fn synthesize_pixel_with(
    cursor: &mut FbmCursor,
    env: &PixelEnvironment,
    confusers: &Confusers,
    noise_seed: u64,
    px: i64,
    py: i64,
) -> [f32; CHANNELS] {
    let surface_albedo = env.surface.albedo();
    let confusion = confusers.perturbation_with(cursor, env);
    let noise = PixelNoise::new(noise_seed, px, py);
    // Cloud transmissivity: optical depth in [0,1] maps to opacity with a
    // soft knee so thin cloud leaves the surface partially visible.
    let opacity = cloud_opacity(env.cloud_depth);
    let mut out = [0.0f32; CHANNELS];
    for (c, slot) in out.iter_mut().enumerate() {
        let clear = (surface_albedo[c] + confusion[c]).clamp(0.0, 1.0);
        let value = clear * (1.0 - opacity) + CLOUD_ALBEDO[c] * opacity;
        let noisy = value + noise.channel(c, SENSOR_NOISE_SIGMA);
        *slot = noisy.clamp(0.0, 1.0) as f32;
    }
    out
}

/// Maps cloud optical depth to visual opacity with a soft knee.
pub fn cloud_opacity(depth: f64) -> f64 {
    let d = depth.clamp(0.0, 1.0);
    // Smoothstep between depth 0.25 (invisible haze) and 0.95 (opaque
    // deck): clouds near the 0.5 truth threshold are faint, which is what
    // makes thin-cloud masking genuinely hard.
    let t = ((d - 0.25) / 0.7).clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{oracle, pixel_noise};
    use proptest::prelude::*;

    /// [`Confusers::perturbation`] as the scalar code computed it, every
    /// noise sample drawn from the oracle.
    fn oracle_perturbation(confusers: &Confusers, env: &PixelEnvironment) -> [f64; CHANNELS] {
        let fbm5 = |field: &NoiseField, x, y, t| oracle::fbm(field.seed(), x, y, t, 5, 2.0, 0.5);
        let x = env.lon_deg * CONFUSER_SCALE;
        let y = env.lat_deg * CONFUSER_SCALE;
        let mut delta = [0.0; CHANNELS];
        match env.surface {
            SurfaceType::Ocean | SurfaceType::Wetland => {
                let g = fbm5(&confusers.glint, x, y, env.t_days * 0.5);
                if g > 0.6 {
                    let strength = (g - 0.6) * 1.3;
                    for (slot, k) in delta.iter_mut().zip([0.45, 0.45, 0.42, 0.25]) {
                        *slot += k * strength;
                    }
                }
            }
            SurfaceType::Desert => {
                let d = fbm5(&confusers.dust, x, y, env.t_days * 0.3);
                if d > 0.55 {
                    let strength = (d - 0.55) * 1.1;
                    delta[4] += 0.30 * strength;
                    delta[2] += 0.10 * strength;
                }
            }
            SurfaceType::Snow => {
                delta[4] += 0.10 * fbm5(&confusers.dust, x + 37.0, y - 11.0, env.t_days * 0.1);
            }
            _ => {}
        }
        delta
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn a_reused_cursor_synthesizes_like_the_oracle(
            seed in 0u64..1_000,
            t_days in prop::sample::select(vec![0.0, 0.37, 3.5]),
            steps in prop::collection::vec(
                ((0u8..3, -89.0f64..89.0, -180.0f64..180.0), 0usize..8, 0.0f64..1.0),
                1..48,
            ),
        ) {
            // Every surface, so each confuser branch (glint, dust, snow
            // grain) shares the cursor with the others.
            let confusers = Confusers::new(seed);
            let mut cursor = FbmCursor::default();
            let walk = oracle::scan_walk(&steps.iter().map(|s| s.0).collect::<Vec<_>>());
            for (((lat, lon), &(_, surface, depth)), i) in walk.iter().copied().zip(&steps).zip(0i64..) {
                let env = PixelEnvironment {
                    surface: SurfaceType::ALL[surface],
                    cloud_depth: depth,
                    lat_deg: lat,
                    lon_deg: lon,
                    t_days,
                };
                let confusion = oracle_perturbation(&confusers, &env);
                prop_assert_eq!(confusers.perturbation(&env), confusion);
                prop_assert_eq!(confusers.perturbation_with(&mut cursor, &env), confusion);
                // The pixel as drawn channel by channel with `pixel_noise`.
                let (px, py) = (i % 7 - 3, i / 7);
                let opacity = cloud_opacity(depth);
                let albedo = env.surface.albedo();
                let mut want = [0.0f32; CHANNELS];
                for (c, slot) in want.iter_mut().enumerate() {
                    let clear = (albedo[c] + confusion[c]).clamp(0.0, 1.0);
                    let value = clear * (1.0 - opacity) + CLOUD_ALBEDO[c] * opacity;
                    let noise = pixel_noise(seed, px, py, c, SENSOR_NOISE_SIGMA);
                    prop_assert_eq!(
                        noise.to_bits(),
                        oracle::pixel_noise(seed, px, py, c, SENSOR_NOISE_SIGMA).to_bits()
                    );
                    *slot = (value + noise).clamp(0.0, 1.0) as f32;
                }
                prop_assert_eq!(synthesize_pixel(&env, &confusers, seed, px, py), want);
                prop_assert_eq!(
                    synthesize_pixel_with(&mut cursor, &env, &confusers, seed, px, py),
                    want
                );
            }
        }
    }

    fn env(surface: SurfaceType, depth: f64) -> PixelEnvironment {
        PixelEnvironment {
            surface,
            cloud_depth: depth,
            lat_deg: 10.0,
            lon_deg: 20.0,
            t_days: 0.0,
        }
    }

    #[test]
    fn clear_ocean_is_dark_cloudy_ocean_is_bright() {
        let confusers = Confusers::new(1);
        let clear = synthesize_pixel(&env(SurfaceType::Ocean, 0.0), &confusers, 1, 5, 5);
        let cloudy = synthesize_pixel(&env(SurfaceType::Ocean, 1.0), &confusers, 1, 5, 5);
        let clear_vis: f32 = clear[..3].iter().sum();
        let cloudy_vis: f32 = cloudy[..3].iter().sum();
        assert!(
            cloudy_vis > clear_vis + 1.0,
            "clear {clear_vis} vs cloudy {cloudy_vis}"
        );
    }

    #[test]
    fn snow_looks_like_cloud_in_the_visible() {
        let confusers = Confusers::new(1);
        let snow = synthesize_pixel(&env(SurfaceType::Snow, 0.0), &confusers, 1, 9, 9);
        let cloud = synthesize_pixel(&env(SurfaceType::Ocean, 1.0), &confusers, 1, 9, 9);
        // Visible channels within ~0.2 of each other: the hard context.
        for c in 0..3 {
            assert!(
                (snow[c] - cloud[c]).abs() < 0.25,
                "channel {c}: snow {} vs cloud {}",
                snow[c],
                cloud[c]
            );
        }
    }

    #[test]
    fn cirrus_band_separates_cloud_from_most_surfaces() {
        let confusers = Confusers::new(1);
        for surface in [SurfaceType::Ocean, SurfaceType::Forest, SurfaceType::Urban] {
            let clear = synthesize_pixel(&env(surface, 0.0), &confusers, 1, 3, 3);
            let cloudy = synthesize_pixel(&env(surface, 1.0), &confusers, 1, 3, 3);
            assert!(
                cloudy[4] > clear[4] + 0.2,
                "{surface}: cirrus clear {} vs cloudy {}",
                clear[4],
                cloudy[4]
            );
        }
    }

    #[test]
    fn opacity_has_soft_knee() {
        assert_eq!(cloud_opacity(0.0), 0.0);
        assert_eq!(cloud_opacity(0.1), 0.0);
        assert_eq!(cloud_opacity(1.0), 1.0);
        let mid = cloud_opacity(0.5);
        assert!((0.15..0.7).contains(&mid), "mid opacity {mid}");
        // Monotone.
        let mut prev = 0.0;
        for i in 0..=20 {
            let o = cloud_opacity(i as f64 / 20.0);
            assert!(o >= prev);
            prev = o;
        }
    }

    #[test]
    fn pixels_are_deterministic() {
        let confusers = Confusers::new(5);
        let a = synthesize_pixel(&env(SurfaceType::Forest, 0.3), &confusers, 42, 7, 8);
        let b = synthesize_pixel(&env(SurfaceType::Forest, 0.3), &confusers, 42, 7, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn sensor_noise_varies_by_pixel() {
        let confusers = Confusers::new(5);
        let a = synthesize_pixel(&env(SurfaceType::Forest, 0.3), &confusers, 42, 7, 8);
        let b = synthesize_pixel(&env(SurfaceType::Forest, 0.3), &confusers, 42, 8, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn reflectance_stays_in_unit_range() {
        let confusers = Confusers::new(5);
        for depth in [0.0, 0.3, 0.7, 1.0] {
            for surface in SurfaceType::ALL {
                let px = synthesize_pixel(&env(surface, depth), &confusers, 11, 2, 3);
                for v in px {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }
}
