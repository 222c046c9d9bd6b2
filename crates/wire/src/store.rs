//! The content-addressed artifact store and its manifest.
//!
//! Layout on disk:
//!
//! ```text
//! DIR/
//!   manifest.txt            deterministic text manifest (see below)
//!   objects/
//!     <digest:016x>.bin     one sealed section per artifact, named by
//!                           the FNV-1a digest of its full bytes
//! ```
//!
//! Objects are keyed by content digest, so identical artifacts
//! deduplicate and the manifest — mapping (deployment target, seed,
//! config fingerprint) to named digests — is the only mutable surface.
//! The manifest itself is plain sorted text so that saving the same
//! transformation twice produces byte-identical directories.
//!
//! This module is the **only** place in the workspace's deterministic
//! crates that touches `std::fs`; the `io-discipline` lint rule keeps
//! it that way.

use crate::codec::WireError;
use crate::digest::fnv1a64;
use crate::envelope;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The modeled uplink budget for one deployment window, in bytes.
///
/// Ground→space uplink is the scarce direction: command uplinks run
/// orders of magnitude below downlink rates, so a deployment has to fit
/// its models, context map and selection logic into a small number of
/// contacts. 16 MiB models roughly two minutes of a 1 Mbit/s uplink —
/// generous for this artifact set, tight enough that the accounting is
/// worth surfacing.
pub const UPLINK_BUDGET_BYTES: u64 = 16 * 1024 * 1024;

/// The manifest header line; bump the trailing revision if the text
/// format itself ever changes shape.
const MANIFEST_HEADER: &str = "kodan-artifacts v1";

/// The manifest file name inside a store directory.
const MANIFEST_FILE: &str = "manifest.txt";

/// One named artifact in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The artifact's logical name (e.g. `grid8.ctx2`); never contains
    /// whitespace.
    pub name: String,
    /// The section kind tag (see [`envelope`]).
    pub kind: u16,
    /// Size of the sealed object in bytes.
    pub bytes: u64,
    /// CRC-32 of the section payload, copied from the envelope trailer.
    pub crc32: u32,
    /// FNV-1a digest of the full sealed object — its store address.
    pub digest: u64,
}

/// The store manifest: deployment coordinates plus the named artifact
/// digests they map to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The deployment target the selection logic was derived for.
    pub target: String,
    /// The transformation seed.
    pub seed: u64,
    /// FNV-1a fingerprint of the encoded `KodanConfig`.
    pub config_fingerprint: u64,
    /// Named artifacts, sorted by name.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Total encoded bytes across all entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders the manifest as deterministic text (entries sorted by
    /// name).
    pub fn render(&self) -> String {
        let mut entries: Vec<&ManifestEntry> = self.entries.iter().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        let _ = writeln!(out, "{MANIFEST_HEADER}");
        let _ = writeln!(out, "target = {}", self.target);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "config_fingerprint = {:016x}", self.config_fingerprint);
        let _ = writeln!(out, "uplink_budget_bytes = {UPLINK_BUDGET_BYTES}");
        for e in entries {
            let _ = writeln!(
                out,
                "entry = {} {} {} {:08x} {:016x}",
                e.name,
                envelope::kind_name(e.kind),
                e.bytes,
                e.crc32,
                e.digest,
            );
        }
        out
    }

    /// Parses manifest text, rejecting every malformed shape with
    /// [`WireError::Store`].
    pub fn parse(text: &str) -> Result<Manifest, WireError> {
        let bad = |what: &str| WireError::Store(format!("malformed manifest: {what}"));
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(bad("missing header"));
        }
        let mut target = None;
        let mut seed = None;
        let mut fingerprint = None;
        let mut entries = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(" = ")
                .ok_or_else(|| bad("line is not `key = value`"))?;
            match key {
                "target" => target = Some(value.to_string()),
                "seed" => {
                    seed = Some(value.parse::<u64>().map_err(|_| bad("seed not a u64"))?);
                }
                "config_fingerprint" => {
                    fingerprint = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| bad("fingerprint not hex"))?,
                    );
                }
                "uplink_budget_bytes" => {
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("budget not a u64"))?;
                }
                "entry" => {
                    let fields: Vec<&str> = value.split_whitespace().collect();
                    let &[name, kind, bytes, crc, digest] = fields.as_slice() else {
                        return Err(bad("entry needs 5 fields"));
                    };
                    entries.push(ManifestEntry {
                        name: name.to_string(),
                        kind: envelope::kind_tag(kind)
                            .ok_or_else(|| bad("unknown entry kind"))?,
                        bytes: bytes.parse().map_err(|_| bad("entry bytes not a u64"))?,
                        crc32: u32::from_str_radix(crc, 16)
                            .map_err(|_| bad("entry crc not hex"))?,
                        digest: u64::from_str_radix(digest, 16)
                            .map_err(|_| bad("entry digest not hex"))?,
                    });
                }
                other => return Err(WireError::Store(format!("unknown manifest key `{other}`"))),
            }
        }
        Ok(Manifest {
            target: target.ok_or_else(|| bad("missing target"))?,
            seed: seed.ok_or_else(|| bad("missing seed"))?,
            config_fingerprint: fingerprint.ok_or_else(|| bad("missing fingerprint"))?,
            entries,
        })
    }
}

/// A content-addressed artifact directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Creates the store directory tree (idempotent) for writing.
    pub fn create(root: &Path) -> Result<ArtifactStore, WireError> {
        fs::create_dir_all(root.join("objects"))
            .map_err(|e| WireError::Store(format!("create {}: {e}", root.display())))?;
        Ok(ArtifactStore {
            root: root.to_path_buf(),
        })
    }

    /// Opens an existing store for reading; fails if no manifest is
    /// present.
    pub fn open(root: &Path) -> Result<ArtifactStore, WireError> {
        if !root.join(MANIFEST_FILE).is_file() {
            return Err(WireError::Store(format!(
                "{} has no {MANIFEST_FILE}",
                root.display()
            )));
        }
        Ok(ArtifactStore {
            root: root.to_path_buf(),
        })
    }

    /// The on-disk path of the object with the given digest.
    pub fn object_path(&self, digest: u64) -> PathBuf {
        self.root.join("objects").join(format!("{digest:016x}.bin"))
    }

    /// Writes one sealed section into the object directory and returns
    /// its manifest entry. The kind and payload checksum are lifted
    /// from the (verified) envelope, so a store can never index an
    /// object it could not itself decode.
    pub fn put(&self, name: &str, sealed: &[u8]) -> Result<ManifestEntry, WireError> {
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(WireError::Store(format!(
                "artifact name `{name}` is empty or contains whitespace"
            )));
        }
        let section = envelope::peek(sealed)?;
        let digest = fnv1a64(sealed);
        let path = self.object_path(digest);
        fs::write(&path, sealed)
            .map_err(|e| WireError::Store(format!("write {}: {e}", path.display())))?;
        Ok(ManifestEntry {
            name: name.to_string(),
            kind: section.kind,
            bytes: sealed.len() as u64,
            crc32: section.crc32,
            digest,
        })
    }

    /// Writes the manifest (sorted, deterministic text).
    pub fn write_manifest(&self, manifest: &Manifest) -> Result<(), WireError> {
        let path = self.root.join(MANIFEST_FILE);
        fs::write(&path, manifest.render())
            .map_err(|e| WireError::Store(format!("write {}: {e}", path.display())))
    }

    /// Reads and parses the manifest.
    pub fn manifest(&self) -> Result<Manifest, WireError> {
        let path = self.root.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| WireError::Store(format!("read {}: {e}", path.display())))?;
        Manifest::parse(&text)
    }

    /// Reads one object and verifies its content digest against the
    /// manifest entry. Envelope-level verification (CRC-32, version)
    /// happens when the caller opens the returned bytes.
    pub fn read(&self, entry: &ManifestEntry) -> Result<Vec<u8>, WireError> {
        let path = self.object_path(entry.digest);
        let bytes = fs::read(&path)
            .map_err(|e| WireError::Store(format!("read {}: {e}", path.display())))?;
        if fnv1a64(&bytes) != entry.digest {
            return Err(WireError::Store(format!(
                "object `{}` fails its content digest",
                entry.name
            )));
        }
        Ok(bytes)
    }
}

/// One manifest entry's verification outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectHealth {
    /// The manifest entry that was verified.
    pub entry: ManifestEntry,
    /// `None` when the object read back clean and its envelope opened;
    /// otherwise a rendering of the failure.
    pub error: Option<String>,
}

/// A structured store verification: every object's status plus the
/// store coordinates, sorted by entry name. `kodan artifacts inspect`
/// prints it through [`StoreHealth::render`], and its `--telemetry`
/// flag turns it into counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHealth {
    /// The deployment target from the manifest.
    pub target: String,
    /// The transformation seed from the manifest.
    pub seed: u64,
    /// The config fingerprint from the manifest.
    pub config_fingerprint: u64,
    /// Per-object outcomes, sorted by name.
    pub objects: Vec<ObjectHealth>,
    /// Total encoded bytes across all entries.
    pub total_bytes: u64,
}

impl StoreHealth {
    /// Number of objects that failed verification.
    pub fn corrupt_count(&self) -> u64 {
        self.objects.iter().filter(|o| o.error.is_some()).count() as u64
    }

    /// Renders the human-readable manifest/section/size/checksum table
    /// shown by `kodan artifacts inspect`. `root` is only echoed in the
    /// header line.
    pub fn render(&self, root: &Path) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "artifact store at {}", root.display());
        let _ = writeln!(
            out,
            "target {}   seed {}   config fingerprint {:016x}",
            self.target, self.seed, self.config_fingerprint
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<18} {:<10} {:>9} {:>9} {:>17}  status",
            "name", "kind", "bytes", "crc32", "digest"
        );
        for object in &self.objects {
            let e = &object.entry;
            let status = match &object.error {
                None => "ok".to_string(),
                Some(err) => format!("CORRUPT ({err})"),
            };
            let _ = writeln!(
                out,
                "{:<18} {:<10} {:>9} {:>9} {:>17}  {}",
                e.name,
                envelope::kind_name(e.kind),
                e.bytes,
                format!("{:08x}", e.crc32),
                format!("{:016x}", e.digest),
                status
            );
        }
        let total = self.total_bytes;
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "total {total} bytes — {:.1}% of the {UPLINK_BUDGET_BYTES}-byte modeled uplink budget",
            100.0 * total as f64 / UPLINK_BUDGET_BYTES as f64
        );
        out
    }
}

/// Opens a store and verifies every object against its manifest entry:
/// content digest, envelope magic/version/kind, and payload CRC-32.
pub fn verify(root: &Path) -> Result<StoreHealth, WireError> {
    let store = ArtifactStore::open(root)?;
    let manifest = store.manifest()?;
    let mut entries: Vec<&ManifestEntry> = manifest.entries.iter().collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let objects = entries
        .into_iter()
        .map(|e| {
            let error = match store
                .read(e)
                .and_then(|bytes| envelope::open(&bytes, e.kind).map(|_| ()))
            {
                Ok(()) => None,
                Err(err) => Some(err.to_string()),
            };
            ObjectHealth {
                entry: e.clone(),
                error,
            }
        })
        .collect();
    Ok(StoreHealth {
        target: manifest.target.clone(),
        seed: manifest.seed,
        config_fingerprint: manifest.config_fingerprint,
        objects,
        total_bytes: manifest.total_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{seal, KIND_MODEL};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_manifest(entries: Vec<ManifestEntry>) -> Manifest {
        Manifest {
            target: "orin_agx_15w".to_string(),
            seed: 42,
            config_fingerprint: 0xfeed_beef_dead_cafe,
            entries,
        }
    }

    #[test]
    fn manifest_text_roundtrips_and_is_sorted() {
        let manifest = sample_manifest(vec![
            ManifestEntry {
                name: "zeta".into(),
                kind: KIND_MODEL,
                bytes: 10,
                crc32: 0xaa,
                digest: 2,
            },
            ManifestEntry {
                name: "alpha".into(),
                kind: KIND_MODEL,
                bytes: 20,
                crc32: 0xbb,
                digest: 1,
            },
        ]);
        let text = manifest.render();
        assert!(text.find("alpha").expect("alpha") < text.find("zeta").expect("zeta"));
        let back = Manifest::parse(&text).expect("parse");
        assert_eq!(back.target, manifest.target);
        assert_eq!(back.seed, manifest.seed);
        assert_eq!(back.config_fingerprint, manifest.config_fingerprint);
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.render(), text, "re-render must be byte-identical");
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        for text in [
            "",
            "not-a-manifest\n",
            "kodan-artifacts v1\nseed = 1\nconfig_fingerprint = 0\n", // missing target
            "kodan-artifacts v1\ntarget = t\nseed = x\nconfig_fingerprint = 0\n",
            "kodan-artifacts v1\ntarget = t\nseed = 1\nconfig_fingerprint = 0\nentry = a model 1\n",
            "kodan-artifacts v1\ntarget = t\nseed = 1\nconfig_fingerprint = 0\nmystery = 7\n",
        ] {
            assert!(
                matches!(Manifest::parse(text), Err(WireError::Store(_))),
                "accepted: {text:?}"
            );
        }
    }

    #[test]
    fn store_roundtrips_objects_and_detects_tampering() {
        let dir = scratch("wire_store_roundtrip");
        let store = ArtifactStore::create(&dir).expect("create");
        let sealed = seal(KIND_MODEL, b"weights");
        let entry = store.put("grid8.global", &sealed).expect("put");
        store
            .write_manifest(&sample_manifest(vec![entry.clone()]))
            .expect("manifest");

        let reopened = ArtifactStore::open(&dir).expect("open");
        let manifest = reopened.manifest().expect("manifest");
        let back = reopened
            .read(manifest.entry("grid8.global").expect("entry"))
            .expect("read");
        assert_eq!(back, sealed);

        // Tamper with the object on disk: the digest check must fire.
        let path = reopened.object_path(entry.digest);
        let mut bytes = fs::read(&path).expect("read object");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).expect("rewrite object");
        assert!(matches!(
            reopened.read(&entry),
            Err(WireError::Store(_))
        ));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn whitespace_names_are_rejected() {
        let dir = scratch("wire_store_names");
        let store = ArtifactStore::create(&dir).expect("create");
        assert!(store.put("bad name", &seal(KIND_MODEL, b"x")).is_err());
        assert!(store.put("", &seal(KIND_MODEL, b"x")).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_lists_entries_and_flags_corruption() {
        let dir = scratch("wire_store_inspect");
        let store = ArtifactStore::create(&dir).expect("create");
        let good = store.put("good", &seal(KIND_MODEL, b"fine")).expect("put");
        let bad = store.put("bad", &seal(KIND_MODEL, b"doomed")).expect("put");
        store
            .write_manifest(&sample_manifest(vec![good, bad.clone()]))
            .expect("manifest");
        // Corrupt one object in place.
        let path = store.object_path(bad.digest);
        let mut bytes = fs::read(&path).expect("read");
        bytes[17] ^= 0xff;
        fs::write(&path, &bytes).expect("write");

        let table = verify(&dir).expect("verify").render(&dir);
        assert!(table.contains("good"), "table: {table}");
        assert!(table.contains("CORRUPT"), "table: {table}");
        assert!(table.contains("uplink budget"), "table: {table}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_structured_object_health() {
        let dir = scratch("wire_store_verify");
        let store = ArtifactStore::create(&dir).expect("create");
        let good = store.put("good", &seal(KIND_MODEL, b"fine")).expect("put");
        let bad = store.put("bad", &seal(KIND_MODEL, b"doomed")).expect("put");
        store
            .write_manifest(&sample_manifest(vec![good, bad.clone()]))
            .expect("manifest");
        let path = store.object_path(bad.digest);
        let mut bytes = fs::read(&path).expect("read");
        bytes[17] ^= 0xff;
        fs::write(&path, &bytes).expect("write");

        let health = verify(&dir).expect("verify");
        assert_eq!(health.target, "orin_agx_15w");
        assert_eq!(health.objects.len(), 2);
        assert_eq!(health.corrupt_count(), 1);
        // Sorted by name: "bad" before "good".
        let first = health.objects.first().expect("object");
        assert_eq!(first.entry.name, "bad");
        assert!(first.error.is_some());
        assert!(health.objects.last().expect("object").error.is_none());
        assert_eq!(
            health.total_bytes,
            health.objects.iter().map(|o| o.entry.bytes).sum::<u64>()
        );

        fs::remove_dir_all(&dir).ok();
    }
}
