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
//! There is no reader for older layouts — re-install.

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
    use crate::install::{install_routine, InstallOptions};
    use crate::timer::SimTimer;
    use adsala_blas3::op::{Dims, OpKind, Precision};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;

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
}
