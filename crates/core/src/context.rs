//! Geospatial contexts: partitioning the representative dataset.
//!
//! A *context* is a subset of tiles related by semantic similarity —
//! images of ocean look alike, images of desert look alike (paper
//! Section 3.2). Contexts are generated either automatically, by
//! clustering per-tile classification label vectors with k-means, or by
//! an expert partition keyed to the dominant surface type.

use kodan_geodata::tile::{TileImage, LABEL_DIM};
use kodan_ml::kmeans::KMeans;
use kodan_ml::metrics::DistanceMetric;
use kodan_ml::transform::{FittedTransform, TransformKind};
use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a context within a [`ContextSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContextId(pub usize);

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Summary statistics of one context, estimated on the training tiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Context {
    /// The context's identifier.
    pub id: ContextId,
    /// Number of training tiles assigned to this context.
    pub tile_count: usize,
    /// Fraction of all training tiles in this context.
    pub weight: f64,
    /// Mean fraction of high-value (clear) pixels across member tiles.
    pub high_value_fraction: f64,
    /// Human-readable sketch: the dominant surface type among members.
    pub description: String,
}

/// How a context set was generated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ContextGeneration {
    /// k-means over label vectors (paper: automatically-generated).
    Auto {
        /// Cluster count.
        k: usize,
        /// Distance metric used.
        metric: DistanceMetric,
    },
    /// One context per dominant surface type (paper: expert-generated).
    Expert,
}

/// A fitted partition of tiles into contexts.
///
/// Classification here uses the dataset's *truth label vectors* and is
/// only available before deployment; the on-orbit classifier is the
/// [`crate::engine::ContextEngine`], trained against this partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextSet {
    contexts: Vec<Context>,
    partition: Partition,
}

/// How a [`ContextSet`] assigns tiles to contexts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Partition {
    /// k-means over transformed label vectors, one cluster per context.
    Auto {
        /// Distance metric the clustering used.
        metric: DistanceMetric,
        /// The fitted transform and k-means model.
        fitted: AutoPartition,
    },
    /// Dominant surface index → context id (`usize::MAX` for surfaces
    /// absent at generation time).
    Expert([usize; 8]),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AutoPartition {
    transform: FittedTransform,
    kmeans: KMeans,
}

impl ContextSet {
    /// Generates contexts automatically by clustering label vectors.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty or `k` is zero or exceeds the tile
    /// count.
    pub fn generate_auto(
        tiles: &[TileImage],
        k: usize,
        metric: DistanceMetric,
        transform: TransformKind,
        seed: u64,
    ) -> ContextSet {
        assert!(!tiles.is_empty(), "contexts need tiles");
        let labels: Vec<Vec<f64>> = tiles.iter().map(|t| t.label_vector().to_vec()).collect();
        let fitted = transform.fit(&labels);
        let transformed = fitted.apply_all(&labels);
        let kmeans = KMeans::fit(&transformed, k, metric, seed);
        let assignments: Vec<usize> = kmeans.assignments().to_vec();
        let contexts = summarize(tiles, &assignments, k);
        ContextSet {
            contexts,
            partition: Partition::Auto {
                metric,
                fitted: AutoPartition {
                    transform: fitted,
                    kmeans,
                },
            },
        }
    }

    /// Generates expert contexts: one per dominant surface type that
    /// occurs in the dataset.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty.
    pub fn generate_expert(tiles: &[TileImage]) -> ContextSet {
        assert!(!tiles.is_empty(), "contexts need tiles");
        // Map each occurring surface index to a dense context id.
        let mut present = [false; 8];
        for t in tiles {
            present[t.dominant_surface().index()] = true;
        }
        let mut map = [usize::MAX; 8];
        let mut next = 0;
        for (i, p) in present.iter().enumerate() {
            if *p {
                map[i] = next;
                next += 1;
            }
        }
        let assignments: Vec<usize> = tiles
            .iter()
            .map(|t| map[t.dominant_surface().index()])
            .collect();
        let contexts = summarize(tiles, &assignments, next);
        ContextSet {
            contexts,
            partition: Partition::Expert(map),
        }
    }

    /// The contexts, ordered by id.
    pub fn contexts(&self) -> &[Context] {
        &self.contexts
    }

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.contexts.len()
    }

    /// Always false: generation requires tiles.
    pub fn is_empty(&self) -> bool {
        self.contexts.is_empty()
    }

    /// How this set was generated.
    pub fn generation(&self) -> ContextGeneration {
        match self.partition {
            Partition::Auto { metric, .. } => ContextGeneration::Auto {
                k: self.contexts.len(),
                metric,
            },
            Partition::Expert(_) => ContextGeneration::Expert,
        }
    }

    /// Classifies a tile from its *truth* label vector (pre-deployment
    /// only).
    pub fn classify_truth(&self, tile: &TileImage) -> ContextId {
        match &self.partition {
            Partition::Auto { fitted, .. } => {
                let label = tile.label_vector();
                debug_assert_eq!(label.len(), LABEL_DIM);
                let transformed = fitted.transform.apply(&label);
                ContextId(fitted.kmeans.assign(&transformed))
            }
            Partition::Expert(map) => {
                let idx = map[tile.dominant_surface().index()];
                // Surfaces unseen at generation time fall into context 0.
                ContextId(if idx == usize::MAX { 0 } else { idx })
            }
        }
    }

    /// Looks up a context's statistics.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn context(&self, id: ContextId) -> &Context {
        &self.contexts[id.0]
    }

    /// For expert-generated sets: the mapping from
    /// [`kodan_geodata::SurfaceType::index`] to context id (`usize::MAX`
    /// for surfaces absent at generation time). `None` for auto sets.
    pub fn expert_surface_map(&self) -> Option<&[usize; 8]> {
        match &self.partition {
            Partition::Auto { .. } => None,
            Partition::Expert(map) => Some(map),
        }
    }
}

fn summarize(tiles: &[TileImage], assignments: &[usize], k: usize) -> Vec<Context> {
    let mut counts = vec![0usize; k];
    let mut hv_sums = vec![0.0f64; k];
    let mut surface_counts = vec![[0usize; 8]; k];
    for (tile, &a) in tiles.iter().zip(assignments) {
        counts[a] += 1;
        hv_sums[a] += tile.high_value_fraction();
        surface_counts[a][tile.dominant_surface().index()] += 1;
    }
    (0..k)
        .map(|i| {
            let count = counts[i];
            let dominant = surface_counts[i]
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(s, _)| kodan_geodata::SurfaceType::ALL[s].name())
                .unwrap_or("empty");
            Context {
                id: ContextId(i),
                tile_count: count,
                weight: count as f64 / tiles.len() as f64,
                high_value_fraction: if count > 0 {
                    hv_sums[i] / count as f64
                } else {
                    0.0
                },
                description: dominant.to_string(),
            }
        })
        .collect()
}

impl Encode for ContextId {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.0);
    }
}

impl Decode for ContextId {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(ContextId(dec.usize()?))
    }
}

impl Encode for Context {
    fn encode(&self, enc: &mut Enc) {
        self.id.encode(enc);
        enc.usize(self.tile_count);
        enc.f64(self.weight);
        enc.f64(self.high_value_fraction);
        enc.str(&self.description);
    }
}

impl Decode for Context {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(Context {
            id: ContextId::decode(dec)?,
            tile_count: dec.usize()?,
            weight: dec.f64()?,
            high_value_fraction: dec.f64()?,
            description: dec.string()?,
        })
    }
}

impl Encode for ContextGeneration {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ContextGeneration::Auto { k, metric } => {
                enc.u16(0);
                enc.usize(*k);
                metric.encode(enc);
            }
            ContextGeneration::Expert => enc.u16(1),
        }
    }
}

impl Decode for ContextGeneration {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        match dec.u16()? {
            0 => Ok(ContextGeneration::Auto {
                k: dec.usize()?,
                metric: DistanceMetric::decode(dec)?,
            }),
            1 => Ok(ContextGeneration::Expert),
            tag => Err(WireError::BadTag {
                what: "ContextGeneration",
                tag: u32::from(tag),
            }),
        }
    }
}

impl Encode for AutoPartition {
    fn encode(&self, enc: &mut Enc) {
        self.transform.encode(enc);
        self.kmeans.encode(enc);
    }
}

impl Decode for AutoPartition {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(AutoPartition {
            transform: FittedTransform::decode(dec)?,
            kmeans: KMeans::decode(dec)?,
        })
    }
}

impl Encode for ContextSet {
    fn encode(&self, enc: &mut Enc) {
        self.contexts.encode(enc);
        self.generation().encode(enc);
        // Stored artifacts carry an `Option` of the fitted clustering,
        // then an `Option` of the expert map, exactly one of them present.
        match &self.partition {
            Partition::Auto { fitted, .. } => {
                Some(fitted).encode(enc);
                None::<[usize; 8]>.encode(enc);
            }
            Partition::Expert(map) => {
                None::<&AutoPartition>.encode(enc);
                Some(map).encode(enc);
            }
        }
    }
}

impl Decode for ContextSet {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let contexts = Vec::<Context>::decode(dec)?;
        let generation = ContextGeneration::decode(dec)?;
        let auto = Option::<AutoPartition>::decode(dec)?;
        let expert_map = Option::<[usize; 8]>::decode(dec)?;
        // Exactly the representation the generation implies must be
        // present, with at least one context and one per auto cluster.
        let partition = match (generation, auto, expert_map) {
            (ContextGeneration::Auto { k, metric }, Some(fitted), None)
                if k > 0 && contexts.len() == k =>
            {
                Partition::Auto { metric, fitted }
            }
            (ContextGeneration::Expert, None, Some(map)) if !contexts.is_empty() => {
                Partition::Expert(map)
            }
            _ => {
                return Err(WireError::InvalidValue(
                    "context set representation does not match its generation",
                ))
            }
        };
        Ok(ContextSet {
            contexts,
            partition,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_geodata::{Dataset, DatasetConfig, World};

    fn tiles() -> Vec<TileImage> {
        let world = World::new(42);
        Dataset::sample(&world, &DatasetConfig::small(1)).tiles(3)
    }

    #[test]
    fn auto_contexts_partition_all_tiles() {
        let tiles = tiles();
        let set = ContextSet::generate_auto(
            &tiles,
            4,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            1,
        );
        assert_eq!(set.len(), 4);
        let total: usize = set.contexts().iter().map(|c| c.tile_count).sum();
        assert_eq!(total, tiles.len());
        let weight: f64 = set.contexts().iter().map(|c| c.weight).sum();
        assert!((weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classify_truth_matches_training_assignment() {
        let tiles = tiles();
        let set = ContextSet::generate_auto(
            &tiles,
            3,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            1,
        );
        // Re-classifying training tiles reproduces their cluster sizes.
        let mut counts = vec![0usize; 3];
        for t in &tiles {
            counts[set.classify_truth(t).0] += 1;
        }
        for (ctx, &n) in set.contexts().iter().zip(&counts) {
            assert_eq!(ctx.tile_count, n);
        }
    }

    #[test]
    fn expert_contexts_follow_dominant_surface() {
        let tiles = tiles();
        let set = ContextSet::generate_expert(&tiles);
        assert!(matches!(set.generation(), ContextGeneration::Expert));
        assert!(set.len() >= 2, "dataset should span multiple surfaces");
        // Tiles with the same dominant surface share a context.
        for pair in tiles.windows(2) {
            if pair[0].dominant_surface() == pair[1].dominant_surface() {
                assert_eq!(set.classify_truth(&pair[0]), set.classify_truth(&pair[1]));
            }
        }
    }

    #[test]
    fn decoder_rejects_a_representation_its_generation_does_not_imply() {
        let tiles = tiles();
        let auto = ContextSet::generate_auto(
            &tiles,
            3,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            1,
        );
        let expert = ContextSet::generate_expert(&tiles);
        for set in [&auto, &expert] {
            assert_eq!(ContextSet::from_wire(&set.to_wire()).as_ref(), Ok(set));
        }
        let (Partition::Auto { metric, fitted }, Partition::Expert(map)) =
            (&auto.partition, &expert.partition)
        else {
            panic!("generators build their own partition kind");
        };
        let forge = |k: Option<usize>, fitted: Option<&AutoPartition>, map: Option<&[usize; 8]>| {
            let mut enc = Enc::new();
            auto.contexts.encode(&mut enc);
            match k {
                Some(k) => ContextGeneration::Auto { k, metric: *metric },
                None => ContextGeneration::Expert,
            }
            .encode(&mut enc);
            fitted.encode(&mut enc);
            map.encode(&mut enc);
            ContextSet::from_wire(enc.as_bytes())
        };
        assert!(forge(Some(3), Some(fitted), None).is_ok());
        assert!(forge(None, None, Some(map)).is_ok());
        for (k, fitted, map) in [
            (Some(3), Some(fitted), Some(map)),
            (Some(3), None, Some(map)),
            (Some(3), None, None),
            (Some(4), Some(fitted), None),
            (None, Some(fitted), None),
            (None, Some(fitted), Some(map)),
            (None, None, None),
        ] {
            assert!(
                forge(k, fitted, map).is_err(),
                "k {k:?}, clustering {}, map {}",
                fitted.is_some(),
                map.is_some()
            );
        }
    }

    #[test]
    fn context_stats_are_physical() {
        let tiles = tiles();
        let set = ContextSet::generate_auto(
            &tiles,
            3,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            9,
        );
        for c in set.contexts() {
            assert!((0.0..=1.0).contains(&c.high_value_fraction));
            assert!(!c.description.is_empty());
        }
    }

    #[test]
    fn contexts_have_distinct_value_profiles() {
        // The premise of elision: clustering separates tiles into contexts
        // with different high-value fractions.
        let tiles = tiles();
        let set = ContextSet::generate_auto(
            &tiles,
            4,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            1,
        );
        let hv: Vec<f64> = set
            .contexts()
            .iter()
            .filter(|c| c.tile_count > 0)
            .map(|c| c.high_value_fraction)
            .collect();
        let max = hv.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = hv.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min > 0.2,
            "contexts too uniform: spread = {}",
            max - min
        );
    }

    #[test]
    fn deterministic_generation() {
        let tiles = tiles();
        let a = ContextSet::generate_auto(
            &tiles,
            3,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            5,
        );
        let b = ContextSet::generate_auto(
            &tiles,
            3,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            5,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn display_of_context_id() {
        assert_eq!(ContextId(3).to_string(), "C3");
    }
}
