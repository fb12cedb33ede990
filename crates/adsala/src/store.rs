//! Persistence of installation artefacts (paper Fig. 1a: "two files
//! containing the configurations together with the production-ready ML
//! model will be saved for later use at runtime").
//!
//! Layout: `<dir>/<platform>/<routine>.config.json` (preprocessing config +
//! metadata + reports) and `<dir>/<platform>/<routine>.model.json` (the
//! trained model). JSON keeps the artefacts human-inspectable.
//!
//! Artefacts are outside input: [`load`] answers a truncated, damaged or
//! older-layout file with an [`io::ErrorKind::InvalidData`] error naming
//! it, so that what it hands the runtime can be indexed without a panic.
//! There is no reader for older layouts — re-install. A key the layout
//! no longer has is ignored.

use crate::features::feature_names;
use crate::install::{InstalledRoutine, ModelReport};
use crate::pipeline::PipelineConfig;
use adsala_blas3::op::Routine;
use adsala_ml::model::{Model, ModelKind};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The `.config.json` payload (everything except the model). Every key is
/// required.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConfigFile {
    routine: Routine,
    platform: String,
    max_threads: usize,
    nt_stride: usize,
    pipeline: PipelineConfig,
    selected: ModelKind,
    reports: Vec<ModelReport>,
    version: u64,
    trained_samples: usize,
}

fn paths(dir: &Path, platform: &str, routine: Routine) -> (PathBuf, PathBuf) {
    let base = dir.join(platform);
    (
        base.join(format!("{}.config.json", routine.name())),
        base.join(format!("{}.model.json", routine.name())),
    )
}

/// Save an installed routine under `dir`.
pub fn save(dir: &Path, installed: &InstalledRoutine) -> io::Result<()> {
    let (config_path, model_path) = paths(dir, &installed.platform, installed.routine);
    fs::create_dir_all(config_path.parent().unwrap())?;
    let cfg = ConfigFile {
        routine: installed.routine,
        platform: installed.platform.clone(),
        max_threads: installed.max_threads,
        nt_stride: installed.nt_stride,
        pipeline: installed.pipeline.clone(),
        selected: installed.selected,
        reports: installed.reports.clone(),
        version: installed.version,
        trained_samples: installed.trained_samples,
    };
    fs::write(&config_path, serde_json::to_string_pretty(&cfg)?)?;
    fs::write(&model_path, serde_json::to_string(&installed.model)?)?;
    Ok(())
}

fn invalid(path: &Path, why: impl std::fmt::Display) -> io::Error {
    let why = format!("{}: {why}", path.display());
    io::Error::new(io::ErrorKind::InvalidData, why)
}

fn read_json<T: Deserialize>(path: &Path) -> io::Result<T> {
    serde_json::from_str(&fs::read_to_string(path)?).map_err(|e| invalid(path, e))
}

/// Load an installed routine from `dir`.
pub fn load(dir: &Path, platform: &str, routine: Routine) -> io::Result<InstalledRoutine> {
    let (config_path, model_path) = paths(dir, platform, routine);
    let cfg: ConfigFile = read_json(&config_path)?;
    let model: Model = read_json(&model_path)?;
    // The prediction sweep indexes raw features by `kept` and the
    // per-feature tables by raw feature, and hands the model rows as wide
    // as `kept`.
    let pipeline = &cfg.pipeline;
    let raw = feature_names(cfg.routine.op).len();
    if pipeline.yeo_johnson.lambdas.len() != raw
        || pipeline.standardizer.means.len() != raw
        || pipeline.standardizer.stds.len() != raw
        || pipeline.correlation.kept.len() > raw
        || pipeline.correlation.kept.iter().any(|&j| j >= raw)
    {
        return Err(invalid(
            &config_path,
            format!("pipeline does not fit {raw} raw features"),
        ));
    }
    // The sweep prices the candidates `1..=max_threads`: none is no answer.
    if cfg.max_threads == 0 {
        return Err(invalid(
            &config_path,
            "max_threads 0 leaves no thread count",
        ));
    }
    let width = pipeline.correlation.kept.len();
    if let Model::Gbt(gbt) = &model {
        if gbt.n_features() != width {
            let why = format!(
                "model reads rows {} wide, the pipeline emits {width}",
                gbt.n_features()
            );
            return Err(invalid(&model_path, why));
        }
    }
    Ok(InstalledRoutine {
        routine: cfg.routine,
        platform: cfg.platform,
        max_threads: cfg.max_threads,
        nt_stride: cfg.nt_stride,
        pipeline: cfg.pipeline,
        model,
        selected: cfg.selected,
        reports: cfg.reports,
        version: cfg.version,
        trained_samples: cfg.trained_samples,
    })
}

/// List the routines installed for a platform under `dir`.
pub fn installed_routines(dir: &Path, platform: &str) -> Vec<Routine> {
    let base = dir.join(platform);
    let Ok(entries) = fs::read_dir(&base) else {
        return Vec::new();
    };
    let mut v: Vec<Routine> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let stem = name.strip_suffix(".config.json")?;
            Routine::parse(stem)
        })
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::install::{install_routine, InstallOptions};
    use crate::timer::SimTimer;
    use adsala_blas3::op::{Dims, OpKind, Precision};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;
    use serde::value::{Number, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("adsala-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn quick_install(r: Routine) -> InstalledRoutine {
        let timer = SimTimer::new(MachineSpec::gadi());
        install_routine(
            &timer,
            r,
            &InstallOptions {
                n_train: 100,
                n_eval: 8,
                kinds: vec![ModelKind::LinearRegression],
                nt_stride: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let dir = tmpdir("roundtrip");
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let inst = quick_install(r);
        save(&dir, &inst).unwrap();
        let back = load(&dir, "gadi", r).unwrap();
        assert_eq!(back.selected, inst.selected);
        assert_eq!(back.max_threads, inst.max_threads);
        let d = Dims::d3(777, 123, 456);
        let cands = inst.candidates();
        assert_eq!(
            crate::install::predict_best_nt(&back.model, &back.pipeline, r, d, &cands),
            crate::install::predict_best_nt(&inst.model, &inst.pipeline, r, d, &cands),
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_files_are_written() {
        let dir = tmpdir("twofiles");
        let r = Routine::new(OpKind::Trsm, Precision::Single);
        save(&dir, &quick_install(r)).unwrap();
        assert!(dir.join("gadi/strsm.config.json").exists());
        assert!(dir.join("gadi/strsm.model.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn installed_routines_lists_saved() {
        let dir = tmpdir("list");
        let r1 = Routine::new(OpKind::Gemm, Precision::Double);
        let r2 = Routine::new(OpKind::Symm, Precision::Single);
        save(&dir, &quick_install(r1)).unwrap();
        save(&dir, &quick_install(r2)).unwrap();
        let listed = installed_routines(&dir, "gadi");
        assert!(listed.contains(&r1));
        assert!(listed.contains(&r2));
        assert_eq!(listed.len(), 2);
        assert!(installed_routines(&dir, "setonix").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_fails_cleanly() {
        let dir = tmpdir("missing");
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        assert!(load(&dir, "gadi", r).is_err());
    }

    #[test]
    fn epoch_metadata_roundtrips() {
        let dir = tmpdir("epoch-meta");
        let r = Routine::new(OpKind::Syr2k, Precision::Double);
        let mut inst = quick_install(r);
        // A refit artefact: version counted up, corpus size recorded.
        inst.version = 7;
        inst.trained_samples = 321;
        save(&dir, &inst).unwrap();
        let back = load(&dir, "gadi", r).unwrap();
        assert_eq!(back.version, 7);
        assert_eq!(back.trained_samples, 321);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Save `inst` and return the text of its `.config.json` and its path.
    fn saved_config(dir: &Path, inst: &InstalledRoutine) -> (String, PathBuf) {
        save(dir, inst).unwrap();
        let path = paths(dir, &inst.platform, inst.routine).0;
        (fs::read_to_string(&path).unwrap(), path)
    }

    #[test]
    fn a_config_with_a_serial_footprint_key_loads_and_sweeps() {
        // An earlier layout kept a serial threshold in the pipeline block,
        // under which the runtime answered `nt = 1` unswept. The key is
        // ignored now: every call is the sweep.
        let dir = tmpdir("footprint-key");
        let r = Routine::new(OpKind::Trmm, Precision::Double);
        let inst = quick_install(r);
        let (text, path) = saved_config(&dir, &inst);
        let older = text.replace(
            "\"kept_features\": [",
            "\"serial_footprint\": 1e9,\n    \"kept_features\": [",
        );
        assert_ne!(older, text);
        fs::write(&path, older).unwrap();
        let back = load(&dir, "gadi", r).unwrap();
        assert_eq!(back.pipeline, inst.pipeline);
        for dims in [Dims::d2(8, 8), Dims::d2(300, 40), Dims::d2(4000, 4000)] {
            assert_eq!(back.predict_cost(dims), inst.sweep(dims));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_config_with_no_thread_count_is_rejected() {
        let dir = tmpdir("max-threads");
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let (text, path) = saved_config(&dir, &quick_install(r));
        let zero = text.replace("\"max_threads\": 96", "\"max_threads\": 0");
        assert_ne!(zero, text);
        fs::write(&path, zero).unwrap();
        let err = load(&dir, "gadi", r).expect_err("max_threads 0");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("dgemm.config.json") && msg.contains("max_threads"),
            "{msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Stands for `1e999` (which reads as infinity) until the tree is text:
    /// the writer prints a non-finite float as `null`.
    const HUGE: &str = "@1e999@";

    /// Every tree one single-token mutation away from `v`: an object key
    /// deleted, or a number swapped for `null`, `0`, `-1`, `1e999` or a
    /// string.
    fn mutants(v: &Value) -> Vec<Value> {
        let mut out = Vec::new();
        match v {
            Value::Number(_) => out.extend([
                Value::Null,
                Value::Number(Number::U(0)),
                Value::Number(Number::I(-1)),
                Value::String(HUGE.into()),
                Value::String("seven".into()),
            ]),
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    out.extend(mutants(item).into_iter().map(|m| {
                        let mut items = items.clone();
                        items[i] = m;
                        Value::Array(items)
                    }));
                }
            }
            Value::Object(fields) => {
                for i in 0..fields.len() {
                    let mut fields = fields.clone();
                    fields.remove(i);
                    out.push(Value::Object(fields));
                }
                for (i, (_, field)) in fields.iter().enumerate() {
                    out.extend(mutants(field).into_iter().map(|m| {
                        let mut fields = fields.clone();
                        fields[i].1 = m;
                        Value::Object(fields)
                    }));
                }
            }
            _ => {}
        }
        out
    }

    #[test]
    fn a_mutated_config_file_is_a_typed_error_or_a_usable_artefact() {
        let dir = tmpdir("mutants");
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let (text, path) = saved_config(&dir, &quick_install(r));
        let tree: Value = serde_json::from_str(&text).unwrap();

        let mut damaged: Vec<String> = mutants(&tree)
            .iter()
            .map(|m| m.to_json_pretty().replace(&format!("\"{HUGE}\""), "1e999"))
            .collect();
        let mutated = damaged.len();
        assert!(mutated >= 300, "only {mutated} mutants");
        // Truncations, evenly spaced (never the whole text).
        damaged.extend((0..200).map(|i| text[..i * text.len() / 200].to_string()));

        let (mut loaded, mut rejected) = (0, 0);
        for (i, text) in damaged.iter().enumerate() {
            fs::write(&path, text).unwrap();
            match load(&dir, "gadi", r) {
                Ok(back) => {
                    assert!(i < mutated, "a truncated file loaded");
                    loaded += 1;
                    for dims in [
                        Dims::d3(8, 8, 8),
                        Dims::d3(300, 40, 1000),
                        Dims::d3(4000, 4000, 4000),
                    ] {
                        let (nt, _) = CostModel::predict_cost(&back, dims);
                        assert!((1..=back.max_threads).contains(&nt));
                        assert_eq!(back.predict_nt(dims), nt);
                    }
                }
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "mutant {i}: {e}");
                    assert!(e.to_string().contains("dgemm.config.json"), "{e}");
                    rejected += 1;
                }
            }
        }
        // Both outcomes occur: a mean swapped for -1 still loads, a deleted
        // key does not.
        assert!(
            loaded > 50 && rejected > 150,
            "{loaded} loaded, {rejected} rejected"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
