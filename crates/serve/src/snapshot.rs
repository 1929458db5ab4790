//! Train-once model snapshots and the registry that serves them.
//!
//! Serving must never re-run the 91-run measurement corpus: training
//! happens once (offline or at first boot), the trained model is frozen
//! into a **snapshot** — a self-describing, versioned, checksummed text
//! artifact — and every later process reconstructs a bit-identical
//! predictor from it.
//!
//! # Snapshot envelope
//!
//! ```text
//! bagpred-snapshot v1 model=pair kind=tree checksum=<fnv1a64 hex>
//! scheme Full
//! features CPU GPU mem_rd ... fairness
//! depth 8
//! cpu_time_range 0.123456
//! tree max_depth=8 ... nodes=N
//! <N pre-order node lines>
//! ```
//!
//! The header is version-gated (`v1`) and the checksum covers every
//! payload byte, so a truncated or hand-edited snapshot fails loudly at
//! load time instead of silently serving wrong predictions.

use crate::error::ServeError;
use crate::fault::{FaultPlan, FaultSite};
use bagpred_core::nbag::NBagPredictor;
use bagpred_core::{Feature, FeatureSet, ModelKind, Predictor};
use bagpred_ml::codec::fnv1a64;
use bagpred_ml::{DecisionTreeRegressor, RandomForestRegressor};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Magic + version token opening every snapshot.
const MAGIC: &str = "bagpred-snapshot";
/// Current envelope version.
const VERSION: &str = "v1";

/// A trained model in servable form: either the paper's two-app
/// predictor or the n-bag extension predictor.
#[derive(Debug)]
pub enum ServableModel {
    /// Two-application bag predictor (the paper's model).
    Pair(Predictor),
    /// Order-statistic n-bag predictor (bags of 2..=4 apps).
    NBag(NBagPredictor),
}

/// A registered model with the name it is registered under.
pub(crate) type NamedModel = (String, Arc<ServableModel>);

fn feature_by_name(name: &str) -> Option<Feature> {
    Feature::ALL.into_iter().find(|f| f.name() == name)
}

impl ServableModel {
    /// Serializes the model into the versioned, checksummed snapshot text.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] when the model is untrained or backed
    /// by a regressor without a text codec (SVR, linear).
    pub fn to_snapshot(&self) -> Result<String, ServeError> {
        let mut payload = String::new();
        let (model_tag, kind_tag) = match self {
            ServableModel::Pair(p) => {
                let kind_tag = match p.model_kind() {
                    ModelKind::DecisionTree => "tree",
                    ModelKind::RandomForest => "forest",
                    other => {
                        return Err(ServeError::Unsupported(format!(
                            "{other:?} predictors have no snapshot codec; \
                             retrain as a tree or forest"
                        )))
                    }
                };
                let range = p.cpu_time_range().ok_or_else(|| {
                    ServeError::Unsupported("cannot snapshot an untrained predictor".into())
                })?;
                payload.push_str(&format!("scheme {}\n", p.scheme().name()));
                payload.push_str("features");
                for f in p.scheme().features() {
                    payload.push(' ');
                    payload.push_str(f.name());
                }
                payload.push('\n');
                payload.push_str(&format!("depth {}\n", p.max_depth()));
                payload.push_str(&format!(
                    "cpu_time_range {}\n",
                    bagpred_ml::codec::fmt_f64(range)
                ));
                match p.model_kind() {
                    ModelKind::DecisionTree => payload.push_str(
                        &p.tree()
                            .expect("tree predictor holds a tree once trained")
                            .to_text(),
                    ),
                    ModelKind::RandomForest => payload.push_str(
                        &p.forest()
                            .expect("forest predictor holds a forest once trained")
                            .to_text(),
                    ),
                    _ => unreachable!("rejected above"),
                }
                ("pair", kind_tag)
            }
            ServableModel::NBag(p) => {
                let tree = p.tree().ok_or_else(|| {
                    ServeError::Unsupported("cannot snapshot an untrained predictor".into())
                })?;
                payload.push_str(&format!("depth {}\n", p.max_depth()));
                payload.push_str(&tree.to_text());
                ("nbag", "tree")
            }
        };
        let checksum = fnv1a64(payload.as_bytes());
        Ok(format!(
            "{MAGIC} {VERSION} model={model_tag} kind={kind_tag} checksum={checksum:016x}\n{payload}"
        ))
    }

    /// Reconstructs a model from snapshot text. The restored model
    /// predicts bit-identically to the one that was serialized.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] on version mismatch, checksum mismatch,
    /// or any structural problem in the payload.
    pub fn from_snapshot(text: &str) -> Result<Self, ServeError> {
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| ServeError::Snapshot("empty snapshot".into()))?;
        let tokens: Vec<&str> = header.split_whitespace().collect();
        if tokens.first() != Some(&MAGIC) {
            return Err(ServeError::Snapshot(format!(
                "not a snapshot: expected `{MAGIC}` header"
            )));
        }
        if tokens.get(1) != Some(&VERSION) {
            return Err(ServeError::Snapshot(format!(
                "unsupported snapshot version `{}` (this build reads {VERSION})",
                tokens.get(1).unwrap_or(&"<missing>")
            )));
        }
        if tokens.len() != 5 {
            return Err(ServeError::Snapshot("malformed snapshot header".into()));
        }
        let model_tag = strip_kv(tokens[2], "model")?;
        let kind_tag = strip_kv(tokens[3], "kind")?;
        let claimed = u64::from_str_radix(strip_kv(tokens[4], "checksum")?, 16)
            .map_err(|_| ServeError::Snapshot("checksum is not hex".into()))?;
        let actual = fnv1a64(payload.as_bytes());
        if claimed != actual {
            return Err(ServeError::Snapshot(format!(
                "checksum mismatch: header says {claimed:016x}, payload hashes to {actual:016x} \
                 (truncated or edited snapshot?)"
            )));
        }

        let mut lines = payload.lines();
        match model_tag {
            "pair" => {
                let scheme_line = lines
                    .next()
                    .ok_or_else(|| ServeError::Snapshot("missing scheme line".into()))?;
                let scheme_name = scheme_line
                    .strip_prefix("scheme ")
                    .ok_or_else(|| ServeError::Snapshot("expected `scheme <name>`".into()))?;
                let features_line = lines
                    .next()
                    .ok_or_else(|| ServeError::Snapshot("missing features line".into()))?;
                let mut parts = features_line.split_whitespace();
                if parts.next() != Some("features") {
                    return Err(ServeError::Snapshot("expected `features ...`".into()));
                }
                let features: Vec<Feature> = parts
                    .map(|name| {
                        feature_by_name(name).ok_or_else(|| {
                            ServeError::Snapshot(format!("unknown feature `{name}`"))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if features.is_empty() {
                    return Err(ServeError::Snapshot("feature list is empty".into()));
                }
                let scheme = FeatureSet::new(scheme_name, &features);
                let depth = parse_labeled_usize(lines.next(), "depth")?;
                let range = parse_labeled_f64(lines.next(), "cpu_time_range")?;
                let rest: Vec<&str> = lines.collect();
                let body = rest.join("\n");
                match kind_tag {
                    "tree" => {
                        let tree = DecisionTreeRegressor::from_text(&body)?;
                        Ok(ServableModel::Pair(Predictor::from_trained_tree(
                            scheme, depth, range, tree,
                        )))
                    }
                    "forest" => {
                        let forest = RandomForestRegressor::from_text(&body)?;
                        Ok(ServableModel::Pair(Predictor::from_trained_forest(
                            scheme, depth, range, forest,
                        )))
                    }
                    other => Err(ServeError::Snapshot(format!(
                        "unknown pair model kind `{other}`"
                    ))),
                }
            }
            "nbag" => {
                if kind_tag != "tree" {
                    return Err(ServeError::Snapshot(format!(
                        "nbag models are tree-backed, got `{kind_tag}`"
                    )));
                }
                let depth = parse_labeled_usize(lines.next(), "depth")?;
                let rest: Vec<&str> = lines.collect();
                let tree = DecisionTreeRegressor::from_text(&rest.join("\n"))?;
                if tree.root().is_none() {
                    return Err(ServeError::Snapshot(
                        "snapshot holds an unfitted tree".into(),
                    ));
                }
                Ok(ServableModel::NBag(NBagPredictor::from_trained(
                    depth, tree,
                )))
            }
            other => Err(ServeError::Snapshot(format!("unknown model tag `{other}`"))),
        }
    }

    /// Short human-readable description (`pair/tree`, `nbag/tree`, ...).
    pub fn describe(&self) -> String {
        match self {
            ServableModel::Pair(p) => match p.model_kind() {
                ModelKind::DecisionTree => "pair/tree".into(),
                ModelKind::RandomForest => "pair/forest".into(),
                other => format!("pair/{other:?}"),
            },
            ServableModel::NBag(_) => "nbag/tree".into(),
        }
    }
}

fn strip_kv<'a>(token: &'a str, key: &str) -> Result<&'a str, ServeError> {
    match token.split_once('=') {
        Some((k, v)) if k == key => Ok(v),
        _ => Err(ServeError::Snapshot(format!(
            "expected `{key}=<value>` in header, got `{token}`"
        ))),
    }
}

fn parse_labeled_usize(line: Option<&str>, label: &str) -> Result<usize, ServeError> {
    let line = line.ok_or_else(|| ServeError::Snapshot(format!("missing `{label}` line")))?;
    line.strip_prefix(label)
        .map(str::trim)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ServeError::Snapshot(format!("expected `{label} <integer>`, got `{line}`")))
}

fn parse_labeled_f64(line: Option<&str>, label: &str) -> Result<f64, ServeError> {
    let line = line.ok_or_else(|| ServeError::Snapshot(format!("missing `{label}` line")))?;
    line.strip_prefix(label)
        .map(str::trim)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ServeError::Snapshot(format!("expected `{label} <float>`, got `{line}`")))
}

/// A named, thread-safe collection of servable models.
///
/// Models are immutable once registered (swap by re-inserting under the
/// same name — readers holding the old `Arc` finish their request on the
/// old version, the textbook read-mostly registry pattern).
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ServableModel>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a model under `name`.
    pub fn insert(&self, name: impl Into<String>, model: ServableModel) -> Arc<ServableModel> {
        let model = Arc::new(model);
        self.models
            .write()
            .expect("registry lock poisoned")
            .insert(name.into(), Arc::clone(&model));
        model
    }

    /// Fetches a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ServableModel>> {
        self.models
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Registered names with their descriptions, sorted by name.
    pub fn list(&self) -> Vec<(String, String)> {
        let mut entries: Vec<(String, String)> = self
            .models
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, model)| (name.clone(), model.describe()))
            .collect();
        entries.sort();
        entries
    }

    /// The lexicographically first pair model and first n-bag model, in
    /// one pass under one read lock: the default-model scan every
    /// request without an explicit `model=` pays, so it clones one
    /// name per kind and formats no descriptions.
    pub(crate) fn first_of_each_kind(&self) -> (Option<NamedModel>, Option<NamedModel>) {
        let models = self.models.read().expect("registry lock poisoned");
        let first = |pair: bool| {
            models
                .iter()
                .filter(|(_, model)| matches!(&***model, ServableModel::Pair(_)) == pair)
                .min_by(|a, b| a.0.cmp(b.0))
                .map(|(name, model)| (name.clone(), Arc::clone(model)))
        };
        (first(true), first(false))
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock poisoned").len()
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the named model to snapshot text.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unregistered names, plus any
    /// snapshot-encoding error.
    pub fn snapshot(&self, name: &str) -> Result<String, ServeError> {
        self.get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.into()))?
            .to_snapshot()
    }

    /// Registers a model decoded from snapshot text under `name`.
    ///
    /// # Errors
    ///
    /// Any snapshot-decoding error; the registry is untouched on failure.
    pub fn insert_snapshot(&self, name: impl Into<String>, text: &str) -> Result<(), ServeError> {
        let model = ServableModel::from_snapshot(text)?;
        self.insert(name, model);
        Ok(())
    }

    /// Writes every registered model to `dir` as `<name>.bagsnap` files,
    /// each via the crash-safe [`write_snapshot_file`] path.
    ///
    /// # Errors
    ///
    /// I/O failures (as `ServeError::Snapshot`) and encoding errors.
    pub fn save_dir(&self, dir: &std::path::Path) -> Result<usize, ServeError> {
        self.save_dir_with(dir, &FaultPlan::none())
    }

    /// [`save_dir`](Self::save_dir) with an armed [`FaultPlan`], so
    /// tests can inject torn writes. Production callers use `save_dir`.
    ///
    /// # Errors
    ///
    /// I/O failures (as `ServeError::Snapshot`) and encoding errors.
    pub fn save_dir_with(
        &self,
        dir: &std::path::Path,
        faults: &FaultPlan,
    ) -> Result<usize, ServeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError::Snapshot(format!("create {}: {e}", dir.display())))?;
        let names: Vec<String> = self.list().into_iter().map(|(n, _)| n).collect();
        for name in &names {
            let text = self.snapshot(name)?;
            let path = dir.join(format!("{name}.bagsnap"));
            write_snapshot_file(&path, &text, faults)?;
        }
        Ok(names.len())
    }

    /// Loads every `*.bagsnap` file in `dir` into the registry, keyed by
    /// file stem. Returns the number of models loaded. A directory that
    /// does not exist yet loads zero models — first boot with a fresh
    /// snapshot directory is not an error. Files that fail to read,
    /// decode, or checksum-verify are **quarantined**, not fatal: see
    /// [`load_dir_report`](Self::load_dir_report).
    ///
    /// # Errors
    ///
    /// Directory-level I/O errors only (as [`ServeError::SnapshotDir`]).
    pub fn load_dir(&self, dir: &std::path::Path) -> Result<usize, ServeError> {
        Ok(self.load_dir_report(dir)?.loaded)
    }

    /// [`load_dir`](Self::load_dir), reporting which corrupt files were
    /// quarantined. A file that fails to read or decode is renamed to
    /// `<file>.corrupt` (best effort) so the next boot does not trip
    /// over it again, counted in the process-wide
    /// [`boot_stats`](crate::metrics::boot_stats), and listed in the
    /// returned [`DirLoad`]; the scan continues. One torn snapshot must
    /// never take down a boot that could serve the other models — or
    /// retrain.
    ///
    /// # Errors
    ///
    /// Directory-level I/O errors only (as [`ServeError::SnapshotDir`]):
    /// an unreadable *directory* is an operator problem, an unreadable
    /// *file* is quarantined.
    pub fn load_dir_report(&self, dir: &std::path::Path) -> Result<DirLoad, ServeError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(DirLoad::default()),
            Err(e) => {
                return Err(ServeError::SnapshotDir(format!(
                    "read {}: {e}",
                    dir.display()
                )))
            }
        };
        let mut report = DirLoad::default();
        for entry in entries {
            let path = entry
                .map_err(|e| ServeError::SnapshotDir(format!("read {}: {e}", dir.display())))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("bagsnap") {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                // A non-UTF-8 stem cannot name a model; leave the file
                // alone (it is not corrupt, just unusable) and move on.
                continue;
            };
            let decoded = std::fs::read_to_string(&path)
                .map_err(|e| ServeError::Snapshot(format!("read {}: {e}", path.display())))
                .and_then(|text| ServableModel::from_snapshot(&text));
            match decoded {
                Ok(model) => {
                    self.insert(name, model);
                    report.loaded += 1;
                }
                Err(_) => {
                    let corrupt = path.with_extension("bagsnap.corrupt");
                    // Rename is metadata-only, so it usually works even
                    // when the file contents are garbage; if it fails the
                    // file stays put and the next boot quarantines again.
                    let moved = std::fs::rename(&path, &corrupt).is_ok();
                    crate::metrics::boot_stats().on_snapshot_quarantined();
                    report.quarantined.push(if moved { corrupt } else { path });
                }
            }
        }
        Ok(report)
    }
}

/// Outcome of a [`ModelRegistry::load_dir_report`] scan.
#[derive(Debug, Default)]
pub struct DirLoad {
    /// Models decoded, verified, and registered.
    pub loaded: usize,
    /// Corrupt snapshot files moved aside as `<file>.corrupt` (or left
    /// in place when even the rename failed), in scan order.
    pub quarantined: Vec<std::path::PathBuf>,
}

/// Writes one snapshot crash-safely: the text goes to a hidden temp
/// file in the destination's directory, is fsynced, and is atomically
/// renamed over `path` — a crash mid-write leaves the old file (or no
/// file), never a torn one. The directory itself is fsynced best-effort
/// so the rename survives power loss on filesystems that need it.
///
/// The [`FaultPlan`] hook simulates the failure this function exists to
/// prevent: a `torn_snapshot_write` fault writes half the bytes
/// straight to the final path, exactly what a plain `fs::write` would
/// leave behind after a crash.
///
/// # Errors
///
/// I/O failures as [`ServeError::Snapshot`]; the temp file is removed
/// on failure.
pub fn write_snapshot_file(
    path: &std::path::Path,
    text: &str,
    faults: &FaultPlan,
) -> Result<(), ServeError> {
    use std::io::Write as _;
    if faults.fire(FaultSite::TornSnapshotWrite, None) {
        let torn = &text.as_bytes()[..text.len() / 2];
        return std::fs::write(path, torn)
            .map_err(|e| ServeError::Snapshot(format!("write {}: {e}", path.display())));
    }
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let stem = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    // Hidden name, non-`.bagsnap` extension: a leftover temp file from a
    // crash between create and rename is invisible to `load_dir`.
    let tmp = dir.join(format!(".{stem}.tmp-{}", std::process::id()));
    let result = (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    result.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        ServeError::Snapshot(format!("write {}: {e}", path.display()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{NBAG_MODEL, PAIR_MODEL};
    use crate::testutil;
    use bagpred_core::nbag::{nbag_corpus, NBagMeasurement};
    use bagpred_core::{Corpus, Platforms};

    #[test]
    fn pair_snapshot_round_trips_bit_identically() {
        let registry = testutil::registry();
        let original = registry.get(PAIR_MODEL).expect("registered");
        let text = original.to_snapshot().expect("encodes");
        let restored = ServableModel::from_snapshot(&text).expect("decodes");

        let platforms = Platforms::paper();
        let records = Corpus::paper().measure_on(&platforms);
        let (ServableModel::Pair(orig), ServableModel::Pair(back)) = (&*original, &restored) else {
            panic!("expected pair models");
        };
        for record in records.iter().take(25) {
            let a = orig.predict(record);
            let b = back.predict(record);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "prediction drifted for {record:?}"
            );
        }
    }

    #[test]
    fn nbag_snapshot_round_trips_bit_identically() {
        let registry = testutil::registry();
        let original = registry.get(NBAG_MODEL).expect("registered");
        let text = original.to_snapshot().expect("encodes");
        let restored = ServableModel::from_snapshot(&text).expect("decodes");

        let platforms = Platforms::paper();
        let (ServableModel::NBag(orig), ServableModel::NBag(back)) = (&*original, &restored) else {
            panic!("expected nbag models");
        };
        for bag in nbag_corpus(5).into_iter().take(15) {
            let record = NBagMeasurement::collect_unlabeled(bag, &platforms);
            assert_eq!(
                orig.predict(&record).to_bits(),
                back.predict(&record).to_bits()
            );
        }
    }

    #[test]
    fn tampered_payload_fails_checksum() {
        let text = testutil::registry().snapshot(PAIR_MODEL).expect("encodes");
        // Flip one digit somewhere in the payload (never the header line).
        let header_end = text.find('\n').expect("has header") + 1;
        let pos = text[header_end..]
            .find(|c: char| c.is_ascii_digit())
            .expect("payload has digits")
            + header_end;
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        let tampered = String::from_utf8(bytes).expect("still utf8");
        let err = ServableModel::from_snapshot(&tampered).expect_err("must fail");
        assert!(
            err.to_string().contains("checksum"),
            "expected a checksum error, got: {err}"
        );
    }

    #[test]
    fn unknown_version_is_rejected_with_version_in_message() {
        let text = testutil::registry().snapshot(PAIR_MODEL).expect("encodes");
        let bumped = text.replacen("bagpred-snapshot v1", "bagpred-snapshot v9", 1);
        let err = ServableModel::from_snapshot(&bumped).expect_err("must fail");
        assert!(
            err.to_string().contains("v9"),
            "message names the version: {err}"
        );
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        assert!(ServableModel::from_snapshot("").is_err());
        assert!(ServableModel::from_snapshot("hello world\n").is_err());
        let text = testutil::registry().snapshot(PAIR_MODEL).expect("encodes");
        let truncated = &text[..text.len() - text.len() / 3];
        assert!(ServableModel::from_snapshot(truncated).is_err());
    }

    #[test]
    fn registry_dir_round_trip_preserves_every_model() {
        let registry = testutil::registry();
        let dir = testutil::scratch_dir("registry");
        let saved = registry.save_dir(&dir).expect("saves");
        assert_eq!(saved, registry.len());

        let restored = ModelRegistry::new();
        let loaded = restored.load_dir(&dir).expect("loads");
        assert_eq!(loaded, saved);
        assert_eq!(restored.list(), registry.list());
        // Re-encoding the restored models reproduces the exact snapshot
        // text, checksum included.
        for (name, _) in registry.list() {
            assert_eq!(
                registry.snapshot(&name).expect("encodes"),
                restored.snapshot(&name).expect("encodes")
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_model_name_errors() {
        let err = testutil::registry()
            .snapshot("no-such-model")
            .expect_err("must fail");
        assert_eq!(err, ServeError::UnknownModel("no-such-model".into()));
    }

    #[test]
    fn truncated_and_bitflipped_snapshots_are_quarantined_then_resave_round_trips() {
        let registry = testutil::registry();
        let dir = testutil::scratch_dir("registry-corrupt");
        registry.save_dir(&dir).expect("saves");

        // Simulate the two classic on-disk failure modes: a torn write
        // (file cut short mid-stream) and silent media corruption (one
        // payload byte flipped under an intact-looking file).
        let pair_path = dir.join(format!("{PAIR_MODEL}.bagsnap"));
        let text = std::fs::read_to_string(&pair_path).expect("reads");
        std::fs::write(&pair_path, &text.as_bytes()[..text.len() / 2]).expect("truncates");
        let nbag_path = dir.join(format!("{NBAG_MODEL}.bagsnap"));
        let mut bytes = std::fs::read(&nbag_path).expect("reads");
        let pos = bytes.len() / 2;
        bytes[pos] = if bytes[pos] == b'7' { b'8' } else { b'7' };
        std::fs::write(&nbag_path, &bytes).expect("flips");

        let before = crate::metrics::boot_stats().snapshots_quarantined();
        let fresh = ModelRegistry::new();
        let report = fresh.load_dir_report(&dir).expect("scan survives");
        assert_eq!(report.loaded, 0, "nothing decodable");
        assert_eq!(report.quarantined.len(), 2);
        for quarantined in &report.quarantined {
            assert!(
                quarantined.to_string_lossy().ends_with(".bagsnap.corrupt"),
                "{quarantined:?}"
            );
            assert!(quarantined.exists(), "moved aside, not deleted");
        }
        assert!(!pair_path.exists() && !nbag_path.exists(), "originals gone");
        assert_eq!(
            crate::metrics::boot_stats().snapshots_quarantined(),
            before + 2
        );

        // A subsequent save writes clean files that round-trip to the
        // exact snapshot text (checksum included) — the `.corrupt`
        // leftovers don't get in the way.
        let saved = registry.save_dir(&dir).expect("re-saves");
        assert_eq!(saved, registry.len());
        let reread = ModelRegistry::new();
        assert_eq!(reread.load_dir(&dir).expect("loads"), saved);
        for (name, _) in registry.list() {
            assert_eq!(
                registry.snapshot(&name).expect("encodes"),
                reread.snapshot(&name).expect("encodes"),
                "re-saved snapshot for `{name}` must be bit-identical"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_writes_are_atomic_and_torn_write_faults_produce_detectable_corruption() {
        let dir = testutil::scratch_dir("registry-atomic");
        let text = testutil::registry().snapshot(PAIR_MODEL).expect("encodes");

        // Normal path: tmp-file + fsync + rename, nothing left behind.
        let path = dir.join("atomic.bagsnap");
        write_snapshot_file(&path, &text, &FaultPlan::none()).expect("writes");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), text);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("lists")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");

        // Injected torn write: half the bytes land on the *final* path
        // (as a crash mid-`write` without the tmp/rename dance would
        // leave them) — and the checksum catches it on the next load.
        let torn = dir.join("torn.bagsnap");
        let plan = FaultPlan::parse("torn_snapshot_write").expect("parses");
        write_snapshot_file(&torn, &text, &plan).expect("fault swallows the write");
        let written = std::fs::read(&torn).expect("reads");
        assert_eq!(written.len(), text.len() / 2);
        assert!(ServableModel::from_snapshot(&String::from_utf8_lossy(&written)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
