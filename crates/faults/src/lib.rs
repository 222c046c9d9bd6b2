//! Deterministic, seeded fault injection for the Kodan on-orbit runtime.
//!
//! A satellite cannot phone home for help: radiation flips bits in model
//! weights, thermal limits throttle compute, ground contacts drop or
//! shrink, and rain fades the downlink. This crate models all four as a
//! *pure function of a seed and the fault site's identity* — no wall
//! clock, no global state — so a mission run under a [`FaultPlan`] is
//! byte-reproducible at any worker count: the fault hitting frame 17 is
//! decided by `(seed, frame 17)` alone, never by which thread got there
//! first.
//!
//! The plan only *decides* faults; the runtime policies that survive them
//! (checksum fallback, retry-with-backoff, value-aware queue shedding)
//! live in `kodan-core` and consume the [`FrameFaults`] /
//! [`ContactFault`] decisions this crate hands out. Each recovery the
//! runtime takes is announced as a `FaultRecovered` telemetry event —
//! the trigger that makes `kodan-telemetry`'s flight recorder freeze a
//! black-box window of the frames leading up to it, so every
//! degradation in a mission has a replayable causal record.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use kodan_cote::sim::ServedPass;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Stream-splitting constants: each fault site class draws from its own
/// ChaCha stream so adding a fault class never shifts another's decisions.
const DOMAIN_FRAME: u64 = 0xF1;
const DOMAIN_TILE: u64 = 0xF2;
const DOMAIN_CONTACT: u64 = 0xF3;

/// Golden-ratio multipliers decorrelate the domain and identity words
/// before they are folded into the seed (same trick as `par::stream_seed`).
const MIX_A: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX_B: u64 = 0xD1B5_4A32_D192_ED03;

/// Fault rates and magnitudes for one mission.
///
/// All rates are probabilities in `[0, 1]` evaluated once per fault site
/// (frame, tile or contact). A config with every rate at zero —
/// [`FaultConfig::disabled`] — injects nothing and leaves the runtime's
/// behavior bit-identical to a fault-free build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master seed for every fault stream.
    pub seed: u64,
    /// Per-frame probability of a single-event upset flipping one bit of
    /// one specialized-model weight.
    pub seu_rate: f64,
    /// Per-frame probability of a thermal-throttling episode.
    pub slowdown_rate: f64,
    /// Modeled-time multiplier (>= 1) applied to every stage cost of a
    /// throttled frame.
    pub slowdown_factor: f64,
    /// Per-tile probability of a transient classify failure (each retry
    /// re-rolls independently).
    pub classify_fault_rate: f64,
    /// Bounded retries the runtime attempts before giving up on a tile.
    pub classify_retries: u32,
    /// Modeled seconds of backoff before the first retry; doubles on each
    /// subsequent retry.
    pub retry_backoff_s: f64,
    /// Per-contact probability that a ground-station pass is missed
    /// entirely.
    pub contact_drop_rate: f64,
    /// Per-contact probability that a surviving pass is shortened.
    pub contact_shorten_rate: f64,
    /// Fraction of the pass duration kept when shortened, in `(0, 1]`.
    pub contact_shorten_keep: f64,
    /// Per-contact probability of rain fade on a surviving pass.
    pub rain_fade_rate: f64,
    /// Link-budget degradation of a faded pass, in dB (rate scales by
    /// `10^(-dB/10)`).
    pub rain_fade_db: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// A config that injects nothing (all rates zero).
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            seu_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 1.0,
            classify_fault_rate: 0.0,
            classify_retries: 3,
            retry_backoff_s: 0.05,
            contact_drop_rate: 0.0,
            contact_shorten_rate: 0.0,
            contact_shorten_keep: 0.5,
            rain_fade_rate: 0.0,
            rain_fade_db: 3.0,
        }
    }

    /// A moderately hostile environment: occasional upsets, throttling
    /// and contact degradation, the regime the degradation policies are
    /// tuned for.
    pub fn nominal(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            seu_rate: 0.05,
            slowdown_rate: 0.1,
            slowdown_factor: 2.0,
            classify_fault_rate: 0.02,
            classify_retries: 3,
            retry_backoff_s: 0.05,
            contact_drop_rate: 0.1,
            contact_shorten_rate: 0.2,
            contact_shorten_keep: 0.5,
            rain_fade_rate: 0.25,
            rain_fade_db: 3.0,
        }
    }

    /// [`FaultConfig::nominal`] with every rate scaled by `intensity`
    /// (clamped to `[0, 1]`); magnitudes are held fixed. `intensity == 0`
    /// is [`FaultConfig::disabled`] with the given seed; `1` is nominal.
    /// This is the knob the `fault_resilience` bench sweeps.
    pub fn scaled(seed: u64, intensity: f64) -> FaultConfig {
        let k = intensity.clamp(0.0, 1.0);
        let nominal = FaultConfig::nominal(seed);
        FaultConfig {
            seed,
            seu_rate: nominal.seu_rate * k,
            slowdown_rate: nominal.slowdown_rate * k,
            classify_fault_rate: nominal.classify_fault_rate * k,
            contact_drop_rate: nominal.contact_drop_rate * k,
            contact_shorten_rate: nominal.contact_shorten_rate * k,
            rain_fade_rate: nominal.rain_fade_rate * k,
            ..nominal
        }
    }

    /// Parses a config from `key = value` lines.
    ///
    /// Unknown keys are rejected (a typo'd rate silently defaulting to
    /// zero would fake resilience). Blank lines and `#` comments are
    /// ignored. Missing keys keep their [`FaultConfig::disabled`]
    /// defaults, so a file listing only `seed` and `seu_rate` is valid.
    pub fn parse(text: &str) -> Result<FaultConfig, String> {
        let mut config = FaultConfig::disabled();
        for (line_no, raw) in text.lines().enumerate() {
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", line_no + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: {} `{}`", line_no + 1, what, value);
            let float = |slot: &mut f64| -> Result<(), String> {
                *slot = value.parse().map_err(|_| bad("invalid number"))?;
                Ok(())
            };
            match key {
                "seed" => config.seed = value.parse().map_err(|_| bad("invalid seed"))?,
                "seu_rate" => float(&mut config.seu_rate)?,
                "slowdown_rate" => float(&mut config.slowdown_rate)?,
                "slowdown_factor" => float(&mut config.slowdown_factor)?,
                "classify_fault_rate" => float(&mut config.classify_fault_rate)?,
                "classify_retries" => {
                    config.classify_retries =
                        value.parse().map_err(|_| bad("invalid retry count"))?
                }
                "retry_backoff_s" => float(&mut config.retry_backoff_s)?,
                "contact_drop_rate" => float(&mut config.contact_drop_rate)?,
                "contact_shorten_rate" => float(&mut config.contact_shorten_rate)?,
                "contact_shorten_keep" => float(&mut config.contact_shorten_keep)?,
                "rain_fade_rate" => float(&mut config.rain_fade_rate)?,
                "rain_fade_db" => float(&mut config.rain_fade_db)?,
                other => return Err(format!("line {}: unknown key `{other}`", line_no + 1)),
            }
        }
        config.validate()?;
        Ok(config)
    }

    /// Checks that every rate is a probability, every magnitude is in its
    /// documented domain and nothing is NaN.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("seu_rate", self.seu_rate),
            ("slowdown_rate", self.slowdown_rate),
            ("classify_fault_rate", self.classify_fault_rate),
            ("contact_drop_rate", self.contact_drop_rate),
            ("contact_shorten_rate", self.contact_shorten_rate),
            ("rain_fade_rate", self.rain_fade_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if !(self.slowdown_factor >= 1.0 && self.slowdown_factor.is_finite()) {
            return Err(format!(
                "slowdown_factor must be >= 1, got {}",
                self.slowdown_factor
            ));
        }
        if !(self.retry_backoff_s >= 0.0 && self.retry_backoff_s.is_finite()) {
            return Err(format!(
                "retry_backoff_s must be >= 0, got {}",
                self.retry_backoff_s
            ));
        }
        if !(self.contact_shorten_keep > 0.0 && self.contact_shorten_keep <= 1.0) {
            return Err(format!(
                "contact_shorten_keep must be in (0, 1], got {}",
                self.contact_shorten_keep
            ));
        }
        if !(self.rain_fade_db >= 0.0 && self.rain_fade_db.is_finite()) {
            return Err(format!(
                "rain_fade_db must be >= 0, got {}",
                self.rain_fade_db
            ));
        }
        Ok(())
    }

    /// True when any fault class can actually fire.
    pub fn is_active(&self) -> bool {
        self.seu_rate > 0.0
            || self.slowdown_rate > 0.0
            || self.classify_fault_rate > 0.0
            || self.contact_drop_rate > 0.0
            || self.contact_shorten_rate > 0.0
            || self.rain_fade_rate > 0.0
    }
}

/// A single-event upset: which weight slot and which bit it flips.
///
/// `weight_index` is reduced modulo the victim model's parameter count by
/// the runtime, so the plan needs no knowledge of model shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeuUpset {
    /// Unreduced index into the victim model's flattened parameters.
    pub weight_index: u64,
    /// Bit position to flip (reduced modulo 64 by the runtime).
    pub bit: u32,
}

/// The faults decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameFaults {
    /// A weight upset, if one fires this frame.
    pub seu: Option<SeuUpset>,
    /// Stage-cost multiplier; `1.0` means no throttling.
    pub slowdown: f64,
}

impl FrameFaults {
    /// A fault-free frame.
    pub fn none() -> FrameFaults {
        FrameFaults {
            seu: None,
            slowdown: 1.0,
        }
    }
}

/// The fault decided for one ground-station contact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContactFault {
    /// The contact is missed entirely (e.g. station outage).
    pub dropped: bool,
    /// Fraction of the pass duration that survives; `1.0` means full.
    pub keep_fraction: f64,
    /// Rain-fade link degradation in dB; `0.0` means clear sky.
    pub fade_db: f64,
}

impl ContactFault {
    /// A clean contact.
    pub fn none() -> ContactFault {
        ContactFault {
            dropped: false,
            keep_fraction: 1.0,
            fade_db: 0.0,
        }
    }
}

/// One contact after fault application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContactOutcome {
    /// The surviving (possibly shortened/faded) pass; `None` if dropped.
    pub pass: Option<ServedPass>,
    /// The fault decision that produced it.
    pub fault: ContactFault,
    /// Downlink bits lost relative to the clean pass.
    pub lost_bits: f64,
}

/// A deterministic fault schedule: pure function of `(seed, site identity)`.
///
/// Every query opens a fresh ChaCha12 stream keyed on the fault site, so
/// decisions are independent of query order — the property that keeps
/// fault-injected missions byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Wraps a validated config into a plan.
    pub fn new(config: FaultConfig) -> Result<FaultPlan, String> {
        config.validate()?;
        Ok(FaultPlan { config })
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// A fresh stream for one fault site.
    fn stream(&self, domain: u64, identity: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(
            self.config.seed ^ domain.wrapping_mul(MIX_A) ^ identity.wrapping_mul(MIX_B),
        )
    }

    /// Decides the faults for frame `frame_index`.
    ///
    /// Draw order (SEU roll, SEU site, slowdown roll) is part of the
    /// plan's stability contract: reordering would silently change every
    /// seeded mission.
    pub fn frame_faults(&self, frame_index: u64) -> FrameFaults {
        if self.config.seu_rate <= 0.0 && self.config.slowdown_rate <= 0.0 {
            return FrameFaults::none();
        }
        let mut rng = self.stream(DOMAIN_FRAME, frame_index);
        let seu = if rng.random_range(0.0..1.0) < self.config.seu_rate {
            Some(SeuUpset {
                weight_index: rng.random_range(0..=u64::MAX),
                bit: rng.random_range(0..64u32),
            })
        } else {
            None
        };
        let slowdown = if rng.random_range(0.0..1.0) < self.config.slowdown_rate {
            self.config.slowdown_factor
        } else {
            1.0
        };
        FrameFaults { seu, slowdown }
    }

    /// How many consecutive classify attempts fail for one tile.
    ///
    /// Geometric in `classify_fault_rate`, capped at `classify_retries + 1`
    /// so a rate of `1.0` deterministically exhausts the retry budget
    /// instead of looping forever. A return of `0` means the first attempt
    /// succeeds; any value `> classify_retries` means the tile is lost.
    pub fn classify_failures(&self, frame_index: u64, tile_index: u64) -> u32 {
        if self.config.classify_fault_rate <= 0.0 {
            return 0;
        }
        let identity = frame_index.wrapping_mul(0x1_0000_0001).wrapping_add(tile_index);
        let mut rng = self.stream(DOMAIN_TILE, identity);
        let mut failures = 0u32;
        while failures <= self.config.classify_retries
            && rng.random_range(0.0..1.0) < self.config.classify_fault_rate
        {
            failures += 1;
        }
        failures
    }

    /// Decides the fault for contact `contact_index`.
    ///
    /// Contacts are identified by their index in the mission's
    /// time-sorted own-satellite pass list.
    pub fn contact_fault(&self, contact_index: u64) -> ContactFault {
        let cfg = &self.config;
        if cfg.contact_drop_rate <= 0.0
            && cfg.contact_shorten_rate <= 0.0
            && cfg.rain_fade_rate <= 0.0
        {
            return ContactFault::none();
        }
        let mut rng = self.stream(DOMAIN_CONTACT, contact_index);
        // Fixed draw order, all three rolls always consumed: dropping a
        // contact must not shift the shorten/fade decisions of later rolls.
        let dropped = rng.random_range(0.0..1.0) < cfg.contact_drop_rate;
        let shortened = rng.random_range(0.0..1.0) < cfg.contact_shorten_rate;
        let faded = rng.random_range(0.0..1.0) < cfg.rain_fade_rate;
        ContactFault {
            dropped,
            keep_fraction: if shortened { cfg.contact_shorten_keep } else { 1.0 },
            fade_db: if faded { cfg.rain_fade_db } else { 0.0 },
        }
    }

    /// Applies contact faults to a time-sorted pass list.
    ///
    /// Dropped contacts yield `pass: None` and lose their full capacity;
    /// shortened contacts keep `keep_fraction` of their duration; faded
    /// contacts keep their duration at a rate scaled by `10^(-dB/10)`.
    pub fn degrade_passes(&self, passes: &[ServedPass]) -> Vec<ContactOutcome> {
        passes
            .iter()
            .enumerate()
            .map(|(index, pass)| {
                let fault = self.contact_fault(index as u64);
                let clean_bits = pass.bits();
                if fault.dropped {
                    return ContactOutcome {
                        pass: None,
                        fault,
                        lost_bits: clean_bits,
                    };
                }
                let degraded = pass
                    .shortened(fault.keep_fraction)
                    .with_rate(pass.rate_bps * 10f64.powf(-fault.fade_db / 10.0));
                let lost_bits = (clean_bits - degraded.bits()).max(0.0);
                ContactOutcome {
                    pass: Some(degraded),
                    fault,
                    lost_bits,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_cote::time::{Duration, Epoch};

    fn pass(minutes: f64, rate_bps: f64) -> ServedPass {
        let start = Epoch::mission_start();
        ServedPass {
            satellite: 0,
            station: 0,
            start,
            end: start + Duration::from_minutes(minutes),
            rate_bps,
        }
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::disabled()).unwrap();
        assert!(!plan.is_active());
        for i in 0..200 {
            assert_eq!(plan.frame_faults(i), FrameFaults::none());
            assert_eq!(plan.classify_failures(i, i), 0);
            assert_eq!(plan.contact_fault(i), ContactFault::none());
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let plan = FaultPlan::new(FaultConfig::nominal(7)).unwrap();
        // Query in two different orders; every answer must match.
        let forward: Vec<FrameFaults> = (0..64).map(|i| plan.frame_faults(i)).collect();
        let backward: Vec<FrameFaults> =
            (0..64).rev().map(|i| plan.frame_faults(i)).collect();
        for (i, fault) in forward.iter().enumerate() {
            assert_eq!(*fault, backward[63 - i], "frame {i} decision order-dependent");
        }
        let clone = FaultPlan::new(FaultConfig::nominal(7)).unwrap();
        for i in 0..64 {
            assert_eq!(plan.contact_fault(i), clone.contact_fault(i));
            assert_eq!(plan.classify_failures(i, 3), clone.classify_failures(i, 3));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig::nominal(1)).unwrap();
        let b = FaultPlan::new(FaultConfig::nominal(2)).unwrap();
        let diverged = (0..256).any(|i| a.frame_faults(i) != b.frame_faults(i));
        assert!(diverged, "seeds 1 and 2 produced identical fault schedules");
    }

    #[test]
    fn nominal_rates_fire_at_roughly_their_probability() {
        let plan = FaultPlan::new(FaultConfig::nominal(42)).unwrap();
        let n = 4000u64;
        let seu = (0..n).filter(|&i| plan.frame_faults(i).seu.is_some()).count() as f64;
        let frac = seu / n as f64;
        assert!(
            (frac - 0.05).abs() < 0.02,
            "seu empirical rate {frac} far from configured 0.05"
        );
    }

    #[test]
    fn classify_failures_cap_at_retries_plus_one() {
        let mut cfg = FaultConfig::nominal(5);
        cfg.classify_fault_rate = 1.0;
        cfg.classify_retries = 2;
        let plan = FaultPlan::new(cfg).unwrap();
        for frame in 0..32 {
            for tile in 0..8 {
                assert_eq!(plan.classify_failures(frame, tile), 3);
            }
        }
    }

    #[test]
    fn degrade_passes_conserves_or_loses_bits() {
        let plan = FaultPlan::new(FaultConfig::nominal(11)).unwrap();
        let passes: Vec<ServedPass> = (0..40).map(|i| pass(8.0, 1e8 + i as f64)).collect();
        let outcomes = plan.degrade_passes(&passes);
        assert_eq!(outcomes.len(), passes.len());
        let mut dropped = 0;
        let mut degraded = 0;
        for (outcome, clean) in outcomes.iter().zip(&passes) {
            match &outcome.pass {
                None => {
                    assert!(outcome.fault.dropped);
                    assert_eq!(outcome.lost_bits, clean.bits());
                    dropped += 1;
                }
                Some(p) => {
                    assert!(p.bits() <= clean.bits() + 1e-6);
                    assert!((clean.bits() - p.bits() - outcome.lost_bits).abs() < 1e-6);
                    if outcome.fault != ContactFault::none() {
                        degraded += 1;
                    }
                }
            }
        }
        assert!(dropped > 0, "nominal drop rate never fired over 40 contacts");
        assert!(degraded > 0, "no surviving contact was shortened or faded");
    }

    #[test]
    fn scaled_zero_is_inactive_and_one_is_nominal() {
        assert!(!FaultConfig::scaled(9, 0.0).is_active());
        assert_eq!(FaultConfig::scaled(9, 1.0), FaultConfig::nominal(9));
        let half = FaultConfig::scaled(9, 0.5);
        assert!((half.seu_rate - 0.025).abs() < 1e-12);
        assert_eq!(half.slowdown_factor, 2.0, "magnitudes are not scaled");
    }

    #[test]
    fn parse_round_trips_keys_and_rejects_garbage() {
        let text = "\
            # mission fault plan\n\
            seed = 77\n\
            seu_rate = 0.5   # harsh\n\
            classify_retries = 5\n\
            rain_fade_db = 6.0\n";
        let cfg = FaultConfig::parse(text).unwrap();
        assert_eq!(cfg.seed, 77);
        assert_eq!(cfg.seu_rate, 0.5);
        assert_eq!(cfg.classify_retries, 5);
        assert_eq!(cfg.rain_fade_db, 6.0);
        // Unlisted keys keep their disabled defaults.
        assert_eq!(cfg.contact_drop_rate, 0.0);

        assert!(FaultConfig::parse("not a key value line").is_err());
        assert!(FaultConfig::parse("seu_rate = banana").is_err());
        assert!(FaultConfig::parse("made_up_key = 1").is_err());
        assert!(FaultConfig::parse("seu_rate = 1.5").is_err(), "rate out of range");
    }

    #[test]
    fn validate_rejects_bad_magnitudes() {
        let mut cfg = FaultConfig::nominal(1);
        cfg.slowdown_factor = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::nominal(1);
        cfg.contact_shorten_keep = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::nominal(1);
        cfg.retry_backoff_s = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::nominal(1);
        cfg.seu_rate = -0.1;
        assert!(cfg.validate().is_err());
    }
}
