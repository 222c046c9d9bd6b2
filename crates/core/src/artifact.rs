//! The ground→space uplink path: saving transformation artifacts into a
//! content-addressed store and loading them on orbit without retraining.
//!
//! The deployable artifact set is the paper's Figure 7 hand-off: the
//! context map, the context engine, every per-grid model, the per-grid
//! validation statistics the selection logic was derived from, and the
//! selection logic itself. Each artifact is sealed into a versioned,
//! checksummed [`kodan_wire`] section and stored by content digest;
//! total encoded bytes are the modeled uplink cost, tracked against
//! [`kodan_wire::UPLINK_BUDGET_BYTES`].
//!
//! Models are saved and loaded slot by slot from each grid's model table
//! ([`GridArtifacts::models`]); a slot's manifest name derives from its
//! scope and ordinal (`grid<g>.global`, `grid<g>.ctx<c>`,
//! `grid<g>.merged<m>`). Loading is total and degrades the way the
//! fault-injection layer does: a specialized slot whose model fails its
//! checksum (or decodes to something unsafe to run) is served by the
//! grid's global model under the slot's own scope — the same fallback an
//! SEU-corrupted model gets at runtime — and reported as a
//! [`RecoveredModel`]. Corruption of the config, context map, bundle,
//! selection logic, or a global model has no safe substitute and fails
//! the load.
//!
//! This module never touches `std::fs` itself (the `io-discipline` lint
//! rule forbids it in deterministic crates); all I/O goes through the
//! typed [`ArtifactStore`] API.

use crate::config::KodanConfig;
use crate::context::{ContextId, ContextSet};
use crate::engine::ContextEngine;
use crate::pipeline::{GridArtifacts, TransformationArtifacts};
use crate::selection::SelectionLogic;
use crate::specialize::{ModelScope, SpecializedModel};
use kodan_ml::eval::ConfusionMatrix;
use kodan_ml::quant::QuantizedMlp;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{CounterId, Recorder};
use kodan_wire::envelope::{
    self, KIND_BUNDLE, KIND_CONFIG, KIND_CONTEXTS, KIND_MODEL, KIND_QMODEL, KIND_SELECTION,
};
use kodan_wire::{
    ArtifactStore, Dec, Decode, Enc, Encode, Manifest, ManifestEntry, WireError,
    UPLINK_BUDGET_BYTES,
};
use std::path::Path;

/// FNV-1a fingerprint of a configuration's canonical encoding; stored in
/// the manifest so a loaded artifact set can be matched to the
/// configuration that produced it.
pub fn config_fingerprint(config: &KodanConfig) -> u64 {
    kodan_wire::digest::fnv1a64(&config.to_wire())
}

/// Whitespace-free manifest slug for a hardware target (manifest entry
/// names and values are whitespace-delimited).
fn target_slug(target: kodan_hw::targets::HwTarget) -> &'static str {
    use kodan_hw::targets::HwTarget;
    match target {
        HwTarget::Gtx1070Ti => "gtx_1070_ti",
        HwTarget::CoreI7_7800X => "core_i7_7800x",
        HwTarget::OrinAgx15W => "orin_agx_15w",
    }
}

/// What [`save_artifacts`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// The manifest as written (entries sorted by name on render).
    pub manifest: Manifest,
    /// Total encoded bytes across all artifacts — the modeled uplink
    /// cost.
    pub total_bytes: u64,
    /// True when the artifact set exceeds the modeled uplink budget.
    pub over_budget: bool,
    /// Quantized companion blobs written (one per model slot when the
    /// config's `quantize` flag is set, zero otherwise).
    pub quantized_models: usize,
}

/// One corrupted-on-load model that was replaced by its grid's global
/// model (scope preserved), mirroring the runtime's SEU fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredModel {
    /// Grid dimension the model belonged to.
    pub grid: usize,
    /// The replaced slot's index in the grid's model table.
    pub slot: usize,
    /// The artifact's manifest name (e.g. `grid8.ctx2`).
    pub name: String,
}

/// Everything [`load_artifacts`] reassembled.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedArtifacts {
    /// The transformation artifacts, bit-identical to the saved ones
    /// when nothing was corrupted.
    pub artifacts: TransformationArtifacts,
    /// The stored selection logic, its model table rebuilt from the
    /// loaded grids.
    pub selection: SelectionLogic,
    /// Models replaced by the global-model fallback during this load.
    pub recovered: Vec<RecoveredModel>,
    /// Model-table indices (into `selection.models()`) now served by the
    /// fallback; feed these to
    /// [`crate::runtime::Runtime::with_quarantined_models`] so the
    /// mission's telemetry accounts for them like SEU fallbacks.
    pub quarantined_slots: Vec<usize>,
    /// Number of models that fly the i16/i32 quantized fast path after
    /// this load (their `KIND_QMODEL` companion verified and attached).
    pub quantized_attached: usize,
    /// Quantized companion blobs (`<model>.q`) that failed verification
    /// or provenance pairing. Each is counted as `ArtifactsRecovered`
    /// and its model serves the f64 reference path instead — a soft
    /// degradation, not a quarantine, because the f64 copy is intact.
    pub degraded_quantized: Vec<String>,
    /// The store manifest.
    pub manifest: Manifest,
}

/// The bundle artifact: everything target- and model-blob-independent.
/// Models are referenced by their slots' manifest names (see
/// [`slot_names`]) rather than embedded, so a corrupted model blob is
/// recoverable without re-uplinking the bundle.
struct Bundle {
    arch: ModelArch,
    engine_val_agreement: f64,
    engine: ContextEngine,
    grids: Vec<GridSkeleton>,
}

/// A [`GridArtifacts`] with the models factored out, in the bundle's wire
/// layout: which context slots are populated and each merged slot's
/// scope (kept here so a corrupted blob can be replaced scope-intact),
/// which together give the table's slot scopes, then the validation
/// table split by scope (the global row, each context model's own entry,
/// the merged rows) and its two sums. No other code knows this layout:
/// save derives it from the grid's tables and load rebuilds them from it.
struct GridSkeleton {
    grid: usize,
    context_present: Vec<bool>,
    merged_scopes: Vec<Vec<ContextId>>,
    global_eval_per_context: Vec<ConfusionMatrix>,
    context_model_eval: Vec<Option<ConfusionMatrix>>,
    context_weights: Vec<f64>,
    context_hv: Vec<f64>,
    merged_eval: Vec<Vec<Option<ConfusionMatrix>>>,
    global_eval_all: ConfusionMatrix,
    composite_eval_all: ConfusionMatrix,
}

impl GridSkeleton {
    /// The skeleton of a grid with `k` contexts. The skeleton records
    /// which slots exist, not where, so the model table must be in slot
    /// order, and the validation table hold nothing the layout drops, to
    /// load back as saved.
    fn of(ga: &GridArtifacts, k: usize) -> Result<GridSkeleton, WireError> {
        let (merged_scopes, merged_eval) = ga
            .models
            .iter()
            .zip(&ga.evals)
            .filter_map(|(m, row)| match m.scope() {
                ModelScope::Multi(cs) => Some((cs.clone(), row.clone())),
                _ => None,
            })
            .unzip();
        let skeleton = GridSkeleton {
            grid: ga.grid,
            context_present: (0..k)
                .map(|c| ga.context_model(ContextId(c)).is_some())
                .collect(),
            merged_scopes,
            global_eval_per_context: (0..k).map(|c| ga.global_eval(c)).collect(),
            context_model_eval: (0..k).map(|c| ga.own_eval(c)).collect(),
            context_weights: ga.context_weights.clone(),
            context_hv: ga.context_hv.clone(),
            merged_eval,
            global_eval_all: ga.global_eval_all(),
            composite_eval_all: ga.composite_eval_all(),
        };
        if !ga.models.iter().map(SpecializedModel::scope).eq(&skeleton.slot_scopes()) {
            return Err(WireError::InvalidValue("grid model table is not in slot order"));
        }
        if skeleton.evals() != ga.evals {
            return Err(WireError::InvalidValue(
                "grid validation table is not in slot layout",
            ));
        }
        Ok(skeleton)
    }

    /// The scope of every slot of the grid's model table, in slot order:
    /// the global model, each present context's model, then the merged
    /// models.
    fn slot_scopes(&self) -> Vec<ModelScope> {
        let contexts = self
            .context_present
            .iter()
            .enumerate()
            .filter(|(_, present)| **present)
            .map(|(c, _)| ModelScope::Context(ContextId(c)));
        let merged = self.merged_scopes.iter().cloned().map(ModelScope::Multi);
        std::iter::once(ModelScope::Global)
            .chain(contexts)
            .chain(merged)
            .collect()
    }

    /// The validation table, one row per slot in slot order.
    fn evals(&self) -> Vec<Vec<Option<ConfusionMatrix>>> {
        let k = self.context_present.len();
        let global = self
            .global_eval_per_context
            .iter()
            .copied()
            .map(Some)
            .collect();
        let contexts = self
            .context_model_eval
            .iter()
            .enumerate()
            .filter(|&(c, _)| self.context_present.get(c) == Some(&true))
            .map(|(c, eval)| (0..k).map(|other| eval.filter(|_| other == c)).collect());
        std::iter::once(global)
            .chain(contexts)
            .chain(self.merged_eval.iter().cloned())
            .collect()
    }

    /// Checks internal shape consistency against a context count.
    fn validate(&self, k: usize) -> Result<(), WireError> {
        let per_context_ok = self.context_present.len() == k
            && self.global_eval_per_context.len() == k
            && self.context_model_eval.len() == k
            && self.context_weights.len() == k
            && self.context_hv.len() == k;
        let merged_ok = self.merged_eval.len() == self.merged_scopes.len()
            && self.merged_eval.iter().all(|e| e.len() == k);
        if self.grid == 0 || !per_context_ok || !merged_ok {
            return Err(WireError::InvalidValue("grid skeleton shape mismatch"));
        }
        Ok(())
    }

    /// The grid around its loaded model table, with the validation table
    /// rebuilt; refuses stored sums that disagree with the table's.
    fn into_grid(self, models: Vec<SpecializedModel>) -> Result<GridArtifacts, WireError> {
        let ga = GridArtifacts {
            grid: self.grid,
            models,
            evals: self.evals(),
            context_weights: self.context_weights,
            context_hv: self.context_hv,
        };
        if ga.global_eval_all() != self.global_eval_all
            || ga.composite_eval_all() != self.composite_eval_all
        {
            return Err(WireError::InvalidValue(
                "grid validation sums disagree with the table",
            ));
        }
        Ok(ga)
    }
}

impl Encode for GridSkeleton {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.grid);
        self.context_present.encode(enc);
        self.merged_scopes.encode(enc);
        self.global_eval_per_context.encode(enc);
        self.context_model_eval.encode(enc);
        self.context_weights.encode(enc);
        self.context_hv.encode(enc);
        self.merged_eval.encode(enc);
        self.global_eval_all.encode(enc);
        self.composite_eval_all.encode(enc);
    }
}

impl Decode for GridSkeleton {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(GridSkeleton {
            grid: dec.usize()?,
            context_present: Vec::<bool>::decode(dec)?,
            merged_scopes: Vec::<Vec<ContextId>>::decode(dec)?,
            global_eval_per_context: Vec::<ConfusionMatrix>::decode(dec)?,
            context_model_eval: Vec::<Option<ConfusionMatrix>>::decode(dec)?,
            context_weights: Vec::<f64>::decode(dec)?,
            context_hv: Vec::<f64>::decode(dec)?,
            merged_eval: Vec::<Vec<Option<ConfusionMatrix>>>::decode(dec)?,
            global_eval_all: ConfusionMatrix::decode(dec)?,
            composite_eval_all: ConfusionMatrix::decode(dec)?,
        })
    }
}

impl Encode for Bundle {
    fn encode(&self, enc: &mut Enc) {
        self.arch.encode(enc);
        enc.f64(self.engine_val_agreement);
        self.engine.encode(enc);
        self.grids.encode(enc);
    }
}

impl Decode for Bundle {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let bundle = Bundle {
            arch: ModelArch::decode(dec)?,
            engine_val_agreement: dec.f64()?,
            engine: ContextEngine::decode(dec)?,
            grids: Vec::<GridSkeleton>::decode(dec)?,
        };
        if bundle.grids.is_empty() {
            return Err(WireError::InvalidValue("bundle without grids"));
        }
        Ok(bundle)
    }
}

/// The manifest name of every slot of a grid's model table, from its
/// scope and ordinal: `grid<g>.global`, `grid<g>.ctx<c>` for context
/// `c`'s model, and `grid<g>.merged<m>` for the `m`-th merged model.
fn slot_names<'s>(grid: usize, scopes: impl IntoIterator<Item = &'s ModelScope>) -> Vec<String> {
    let mut merged = 0;
    scopes
        .into_iter()
        .map(|scope| match scope {
            ModelScope::Global => format!("grid{grid}.global"),
            ModelScope::Context(c) => format!("grid{grid}.ctx{}", c.0),
            ModelScope::Multi(_) => {
                merged += 1;
                format!("grid{grid}.merged{}", merged - 1)
            }
        })
        .collect()
}

/// Manifest name of a model slot's quantized companion blob.
fn qmodel_name(model_name: &str) -> String {
    format!("{model_name}.q")
}

/// Seals and stores the full deployable artifact set for one deployment
/// (transformation artifacts plus the selection logic derived for the
/// target), writes the manifest, and accounts the modeled uplink cost on
/// `recorder` (`ArtifactsSaved`, `ArtifactBytes`).
///
/// # Errors
///
/// Fails on I/O errors, if `selection` does not belong to `artifacts`
/// (its grid is absent or its model table is not that grid's
/// [`GridArtifacts::models`]), or if a grid's model table is not in slot
/// order.
pub fn save_artifacts(
    artifacts: &TransformationArtifacts,
    selection: &SelectionLogic,
    dir: &Path,
    recorder: &mut dyn Recorder,
) -> Result<SaveReport, WireError> {
    let ga = artifacts
        .grids
        .iter()
        .find(|g| g.grid == selection.grid())
        .ok_or(WireError::InvalidValue(
            "selection grid absent from artifacts",
        ))?;
    if ga.models != selection.models() {
        return Err(WireError::InvalidValue(
            "selection model table does not match its grid artifacts",
        ));
    }

    let store = ArtifactStore::create(dir)?;
    let mut entries: Vec<ManifestEntry> = Vec::new();
    let mut put = |name: &str, kind: u16, payload: &[u8]| -> Result<(), WireError> {
        let sealed = envelope::seal(kind, payload);
        let entry = store.put(name, &sealed)?;
        recorder.count(CounterId::ArtifactsSaved, 1);
        recorder.count(CounterId::ArtifactBytes, sealed.len() as u64);
        entries.push(entry);
        Ok(())
    };

    put("config", KIND_CONFIG, &artifacts.config.to_wire())?;
    put("contexts", KIND_CONTEXTS, &artifacts.contexts.to_wire())?;
    let bundle = Bundle {
        arch: artifacts.arch,
        engine_val_agreement: artifacts.engine_val_agreement,
        engine: artifacts.engine.clone(),
        grids: artifacts
            .grids
            .iter()
            .map(|ga| GridSkeleton::of(ga, artifacts.contexts.len()))
            .collect::<Result<Vec<_>, _>>()?,
    };
    put("bundle", KIND_BUNDLE, &bundle.to_wire())?;
    // When the config asks for quantization, every model slot gets a
    // companion KIND_QMODEL blob (`<name>.q`) holding its i16/i32
    // fixed-point form, quantized here at save time. The f64 blob stays
    // the master copy: a corrupt companion degrades that one slot back
    // to the reference path at load, it never quarantines the model.
    let mut quantized_models = 0usize;
    for ga in &artifacts.grids {
        let names = slot_names(ga.grid, ga.models.iter().map(SpecializedModel::scope));
        for (name, model) in names.iter().zip(&ga.models) {
            put(name, KIND_MODEL, &model.to_wire())?;
            if artifacts.config.quantize {
                let quantized = model.quantize_classifier().to_wire();
                put(&qmodel_name(name), KIND_QMODEL, &quantized)?;
                quantized_models += 1;
            }
        }
    }
    let mut enc = Enc::new();
    selection.encode_policy(&mut enc);
    put("selection", KIND_SELECTION, enc.as_bytes())?;

    let manifest = Manifest {
        target: target_slug(selection.target()).to_string(),
        seed: artifacts.config.seed,
        config_fingerprint: config_fingerprint(&artifacts.config),
        entries,
    };
    store.write_manifest(&manifest)?;
    let total_bytes = manifest.total_bytes();
    Ok(SaveReport {
        manifest,
        total_bytes,
        over_budget: total_bytes > UPLINK_BUDGET_BYTES,
        quantized_models,
    })
}

/// Reads one named artifact, verifying its content digest, envelope
/// checksum and kind.
fn read_payload(
    store: &ArtifactStore,
    manifest: &Manifest,
    name: &str,
    kind: u16,
) -> Result<Vec<u8>, WireError> {
    let entry = manifest
        .entry(name)
        .ok_or_else(|| WireError::Store(format!("manifest has no `{name}` artifact")))?;
    let bytes = store.read(entry)?;
    Ok(envelope::open(&bytes, kind)?.to_vec())
}

/// Attaches a model's quantized companion blob (`<name>.q`) when the
/// manifest carries one. Failure is soft and mirrors the degradation
/// philosophy of the rest of the loader, one notch gentler: the f64
/// master copy is intact, so a corrupt/truncated/mispaired companion is
/// counted as `ArtifactsRecovered` and recorded, and the model simply
/// keeps flying the f64 reference path — no quarantine, no fallback
/// swap.
fn attach_quantized_blob(
    store: &ArtifactStore,
    manifest: &Manifest,
    model: &mut SpecializedModel,
    name: &str,
    attached: &mut usize,
    degraded: &mut Vec<String>,
    recorder: &mut dyn Recorder,
) {
    let qname = qmodel_name(name);
    if manifest.entry(&qname).is_none() {
        return;
    }
    let verified = read_payload(store, manifest, &qname, KIND_QMODEL)
        .and_then(|payload| QuantizedMlp::from_wire(&payload))
        .map(|quantized| model.attach_quantized(quantized))
        .unwrap_or(false);
    if verified {
        *attached += 1;
    } else {
        recorder.count(CounterId::ArtifactsRecovered, 1);
        degraded.push(qname);
    }
}

/// Loads a saved artifact set, reassembling the transformation artifacts
/// and the stored selection logic without any retraining.
///
/// One loop walks each grid's slot table (rebuilt from the bundle's
/// skeleton): a specialized slot whose blob fails verification is served
/// by the grid's global model (scope preserved) and counted on
/// `recorder` as `ArtifactsRecovered`; config, contexts, bundle,
/// selection and global models have no safe substitute and fail the load
/// instead.
///
/// # Errors
///
/// Fails on I/O errors, a malformed manifest, or corruption of an
/// unrecoverable artifact.
pub fn load_artifacts(
    dir: &Path,
    recorder: &mut dyn Recorder,
) -> Result<LoadedArtifacts, WireError> {
    let store = ArtifactStore::open(dir)?;
    let manifest = store.manifest()?;

    let config_payload = read_payload(&store, &manifest, "config", KIND_CONFIG)?;
    let config = KodanConfig::from_wire(&config_payload)?;
    if kodan_wire::digest::fnv1a64(&config_payload) != manifest.config_fingerprint {
        return Err(WireError::Store(
            "config does not match the manifest fingerprint".to_string(),
        ));
    }
    let contexts =
        ContextSet::from_wire(&read_payload(&store, &manifest, "contexts", KIND_CONTEXTS)?)?;
    let bundle = Bundle::from_wire(&read_payload(&store, &manifest, "bundle", KIND_BUNDLE)?)?;
    let k = contexts.len();
    for skeleton in &bundle.grids {
        skeleton.validate(k)?;
    }

    let mut recovered = Vec::new();
    let mut quantized_attached = 0usize;
    let mut degraded_quantized: Vec<String> = Vec::new();
    let mut grids = Vec::with_capacity(bundle.grids.len());
    for skeleton in bundle.grids {
        let grid = skeleton.grid;
        let scopes = skeleton.slot_scopes();
        let mut models: Vec<SpecializedModel> = Vec::with_capacity(scopes.len());
        for (slot, (name, scope)) in slot_names(grid, &scopes).into_iter().zip(scopes).enumerate() {
            let verified = read_payload(&store, &manifest, &name, KIND_MODEL)
                .and_then(|p| SpecializedModel::from_wire(&p))
                .and_then(|m| {
                    if *m.scope() == scope {
                        Ok(m)
                    } else {
                        Err(WireError::InvalidValue("model blob scope does not match its slot"))
                    }
                });
            let model = match (verified, models.first()) {
                (Ok(mut m), _) => {
                    attach_quantized_blob(
                        &store,
                        &manifest,
                        &mut m,
                        &name,
                        &mut quantized_attached,
                        &mut degraded_quantized,
                        recorder,
                    );
                    m
                }
                // A specialized slot that fails any check falls back to
                // the grid's global model (slot 0) under the slot's own
                // scope — the same degradation an SEU-corrupted model
                // gets at runtime.
                (Err(_), Some(global)) => {
                    recorder.count(CounterId::ArtifactsRecovered, 1);
                    recovered.push(RecoveredModel { grid, slot, name });
                    global.rescoped(scope)
                }
                // The global model itself has no safe substitute.
                (Err(e), None) => return Err(e),
            };
            models.push(model);
        }

        grids.push(skeleton.into_grid(models)?);
    }

    let artifacts = TransformationArtifacts {
        config,
        arch: bundle.arch,
        contexts,
        engine: bundle.engine,
        engine_val_agreement: bundle.engine_val_agreement,
        grids,
    };

    let policy = read_payload(&store, &manifest, "selection", KIND_SELECTION)?;
    // The policy's grid sits third in its encoding (after two u16 tags);
    // probe it first to find the grid whose model table the policy indexes.
    let grid = {
        let mut probe = Dec::new(&policy);
        probe.u16()?;
        probe.u16()?;
        probe.usize()?
    };
    let ga = artifacts
        .grids
        .iter()
        .find(|g| g.grid == grid)
        .ok_or(WireError::InvalidValue("selection grid absent from bundle"))?;
    let mut dec = Dec::new(&policy);
    let selection = SelectionLogic::decode_policy(&mut dec, ga.models.clone())?;
    dec.finish()?;

    let quarantined_slots: Vec<usize> = recovered
        .iter()
        .filter(|r| r.grid == grid)
        .map(|r| r.slot)
        .collect();

    Ok(LoadedArtifacts {
        artifacts,
        selection,
        recovered,
        quarantined_slots,
        quantized_attached,
        degraded_quantized,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Transformation;
    use kodan_cote::time::Duration;
    use kodan_geodata::{Dataset, DatasetConfig, World};
    use kodan_hw::targets::HwTarget;
    use kodan_telemetry::NullRecorder;

    fn fixture() -> (TransformationArtifacts, SelectionLogic) {
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 10;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&World::new(42), &ds_cfg);
        let artifacts = Transformation::new(KodanConfig::fast(7))
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds");
        let selection = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            Duration::from_seconds(22.0),
            0.21,
        );
        (artifacts, selection)
    }

    /// Saves the set into a fresh store at `dir`, re-seals its bundle
    /// with `tamper` applied to every grid skeleton, and loads it back.
    fn load_tampered(
        dir: &Path,
        artifacts: &TransformationArtifacts,
        selection: &SelectionLogic,
        tamper: fn(&mut GridSkeleton),
    ) -> Result<TransformationArtifacts, WireError> {
        std::fs::remove_dir_all(dir).ok();
        save_artifacts(artifacts, selection, dir, &mut NullRecorder).expect("save succeeds");
        let store = ArtifactStore::open(dir).expect("store opens");
        let mut manifest = store.manifest().expect("manifest reads");
        let payload = read_payload(&store, &manifest, "bundle", KIND_BUNDLE).expect("bundle reads");
        let mut bundle = Bundle::from_wire(&payload).expect("bundle decodes");
        bundle.grids.iter_mut().for_each(tamper);
        let sealed = envelope::seal(KIND_BUNDLE, &bundle.to_wire());
        let entry = store.put("bundle", &sealed).expect("bundle stores");
        for e in manifest.entries.iter_mut().filter(|e| e.name == "bundle") {
            *e = entry.clone();
        }
        store.write_manifest(&manifest).expect("manifest writes");
        load_artifacts(dir, &mut NullRecorder).map(|loaded| loaded.artifacts)
    }

    #[test]
    fn load_refuses_stored_sums_that_disagree_with_the_table() {
        let (artifacts, selection) = fixture();
        let dir = std::env::temp_dir().join("kodan-artifact-sums");
        // Re-sealed untouched, the bundle loads back exactly.
        let reloaded = load_tampered(&dir, &artifacts, &selection, |_| {});
        assert_eq!(reloaded, Ok(artifacts.clone()));
        let refused = Err(WireError::InvalidValue(
            "grid validation sums disagree with the table",
        ));
        let global = load_tampered(&dir, &artifacts, &selection, |g| g.global_eval_all.tp += 1);
        assert_eq!(global, refused);
        let composite = load_tampered(&dir, &artifacts, &selection, |g| {
            g.composite_eval_all.fn_ += 1
        });
        assert_eq!(composite, refused);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_refuses_a_validation_table_the_bundle_cannot_carry() {
        let (mut artifacts, selection) = fixture();
        // The bundle stores the global row as plain matrices: it is total.
        artifacts.grids[0].evals[0][0] = None;
        let dir = std::env::temp_dir().join("kodan-artifact-layout");
        let saved = save_artifacts(&artifacts, &selection, &dir, &mut NullRecorder);
        assert_eq!(
            saved.map(|report| report.total_bytes),
            Err(WireError::InvalidValue(
                "grid validation table is not in slot layout"
            ))
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
