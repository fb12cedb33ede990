//! Failure-injection tests: the installation pipeline against hostile
//! timing backends — constant timers (zero-variance labels), wildly noisy
//! timers, timers with extreme dynamic range — and runtime robustness when
//! artefact files are corrupted.

use adsala_repro::adsala::features::features_for;
use adsala_repro::adsala::install::{
    install_routine, predict_best_nt, InstallOptions, InstalledRoutine,
};
use adsala_repro::adsala::store;
use adsala_repro::adsala::timer::BlasTimer;
use adsala_repro::blas3::op::{Dims, Routine};
use adsala_repro::ml::model::{HyperParams, ModelKind};
use adsala_repro::ml::tree::gbt::GbtParams;

fn opts(kinds: Vec<ModelKind>) -> InstallOptions {
    InstallOptions {
        n_train: 90,
        n_eval: 8,
        kinds,
        nt_stride: 8,
        ..Default::default()
    }
}

/// A timer returning a constant: zero label variance, degenerate argmin.
struct ConstantTimer;
impl BlasTimer for ConstantTimer {
    fn time(&self, _: Routine, _: Dims, _: usize, _: u64) -> f64 {
        1e-3
    }
    fn max_threads(&self) -> usize {
        16
    }
    fn platform(&self) -> &str {
        "constant"
    }
}

/// A timer whose output is effectively hash noise spanning 6 decades.
struct ChaoticTimer;
impl BlasTimer for ChaoticTimer {
    fn time(&self, r: Routine, d: Dims, nt: usize, rep: u64) -> f64 {
        let h = adsala_repro::machine::perturb::hash_seq(
            7,
            &[r.op as u64, d.a() as u64, d.b() as u64, nt as u64, rep],
        );
        10f64.powf((h % 6_000) as f64 / 1000.0 - 6.0)
    }
    fn max_threads(&self) -> usize {
        8
    }
    fn platform(&self) -> &str {
        "chaotic"
    }
}

/// A timer strongly favouring exactly one thread count.
struct SpikeTimer;
impl BlasTimer for SpikeTimer {
    fn time(&self, _: Routine, _: Dims, nt: usize, _: u64) -> f64 {
        if nt == 3 {
            1e-4
        } else {
            1e-2
        }
    }
    fn max_threads(&self) -> usize {
        8
    }
    fn platform(&self) -> &str {
        "spike"
    }
}

#[test]
fn constant_timer_does_not_panic_and_yields_valid_choice() {
    let routine = Routine::parse("dgemm").unwrap();
    for kinds in [
        vec![ModelKind::LinearRegression],
        vec![ModelKind::DecisionTree],
        vec![ModelKind::Knn],
    ] {
        let inst = install_routine(&ConstantTimer, routine, &opts(kinds));
        let nt = predict_best_nt(
            &inst.model,
            &inst.pipeline,
            routine,
            Dims::d3(100, 100, 100),
            &inst.candidates(),
        );
        assert!((1..=16).contains(&nt));
        // All thread counts are equally good: speedup ~ 1 expected; the
        // reports must be finite.
        for r in &inst.reports {
            assert!(r.test_rmse.is_finite());
            assert!(r.estimated_mean_speedup.is_finite());
        }
    }
}

#[test]
fn chaotic_timer_survives_full_portfolio_member() {
    let routine = Routine::parse("dsymm").unwrap();
    let inst = install_routine(&ChaoticTimer, routine, &opts(vec![ModelKind::Xgboost]));
    for r in &inst.reports {
        assert!(r.test_rmse.is_finite());
        assert!(r.ideal_mean_speedup > 0.0);
    }
    let nt = predict_best_nt(
        &inst.model,
        &inst.pipeline,
        routine,
        Dims::d2(64, 64),
        &inst.candidates(),
    );
    assert!((1..=8).contains(&nt));
}

#[test]
fn spike_timer_is_learnable_by_trees() {
    // A single good thread count is the easiest possible structure: the
    // tree model must find it and the runtime must pick it.
    let routine = Routine::parse("dtrsm").unwrap();
    let mut o = opts(vec![ModelKind::Xgboost]);
    o.nt_stride = 1;
    o.n_train = 160;
    let inst = install_routine(&SpikeTimer, routine, &o);
    let mut correct = 0;
    for trial in 0..10usize {
        let d = Dims::d2(50 + trial * 37, 50 + trial * 53);
        if predict_best_nt(&inst.model, &inst.pipeline, routine, d, &inst.candidates()) == 3 {
            correct += 1;
        }
    }
    assert!(
        correct >= 8,
        "only {correct}/10 predictions found the spike"
    );
}

#[test]
fn corrupted_model_file_fails_cleanly() {
    let timer = ConstantTimer;
    let routine = Routine::parse("dgemm").unwrap();
    let inst = install_routine(&timer, routine, &opts(vec![ModelKind::LinearRegression]));
    let dir = std::env::temp_dir().join(format!("adsala-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store::save(&dir, &inst).unwrap();
    // Corrupt the model file.
    let model_path = dir.join("constant/dgemm.model.json");
    std::fs::write(&model_path, b"{not json").unwrap();
    let err = store::load(&dir, "constant", routine);
    assert!(err.is_err(), "corrupted artefact must be an error, not UB");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dgemm installation whose model is a small gradient-boosted ensemble
/// reading rows `extra` columns wider than the pipeline emits.
fn boosted_install(extra: usize) -> InstalledRoutine {
    let routine = Routine::parse("dgemm").unwrap();
    let mut inst = install_routine(
        &SpikeTimer,
        routine,
        &opts(vec![ModelKind::LinearRegression]),
    );
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for i in 0..40usize {
        let (dims, nt) = (Dims::d3(16 + 23 * i, 900 - 19 * i, 64 + 7 * i), 1 + i % 8);
        let mut row = inst
            .pipeline
            .transform_row(&features_for(routine, dims, nt));
        row.resize(row.len() + extra, 0.0);
        x.push(row);
        y.push(SpikeTimer.time(routine, dims, nt, 0).ln());
    }
    let params = HyperParams::Gbt(GbtParams {
        n_rounds: 6,
        max_depth: 3,
        ..Default::default()
    });
    inst.model = ModelKind::Xgboost.fit(&x, &y, &params);
    inst.selected = ModelKind::Xgboost;
    inst
}

#[test]
fn damaged_boosted_model_files_are_typed_errors() {
    let routine = Routine::parse("dgemm").unwrap();
    let inst = boosted_install(0);
    let dir = std::env::temp_dir().join(format!("adsala-damaged-gbt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store::save(&dir, &inst).unwrap();
    let model_path = dir.join("spike/dgemm.model.json");
    let good = std::fs::read_to_string(&model_path).unwrap();
    let dims = Dims::d3(300, 200, 100);
    let predict = |inst: &InstalledRoutine| {
        predict_best_nt(
            &inst.model,
            &inst.pipeline,
            routine,
            dims,
            &inst.candidates(),
        )
    };
    let want = predict(&inst);
    assert_eq!(predict(&store::load(&dir, "spike", routine).unwrap()), want);

    // The number that follows the first `key` of the file, replaced.
    let with = |key: &str, value: &str| {
        let at = good.find(key).expect("key is in the file") + key.len();
        let digits = good[at..].bytes().take_while(u8::is_ascii_digit).count();
        format!("{}{value}{}", &good[..at], &good[at + digits..])
    };
    let params = {
        let at = good.find("\"params\":").unwrap();
        &good[at..at + good[at..].find('}').unwrap() + 1]
    };
    let rows: [(&str, String, &str); 7] = [
        ("truncated", good[..good.len() * 3 / 5].to_string(), "parse error"),
        ("emptied", String::new(), "parse error"),
        ("child out of range", with("\"right\":", "4000000"), "right child 4000000"),
        ("left child that is its parent", with("\"right\":", "1"), "right child 1"),
        ("feature outside the row", with("\"feature\":", "999"), "feature 999"),
        ("depth the trees do not have", with("\"depth\":", "7"), "depth 7"),
        (
            "the layout before the arena",
            format!("{{\"Gbt\":{{\"base\":0.5,\"trees\":[{{\"nodes\":[{{\"Leaf\":{{\"weight\":1.0}}}}]}}],{params}}}}}"),
            "missing field",
        ),
    ];
    for (what, text, why) in &rows {
        std::fs::write(&model_path, text).unwrap();
        let err = store::load(&dir, "spike", routine).expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        let msg = err.to_string();
        assert!(msg.contains("dgemm.model.json"), "{what}: {msg}");
        assert!(msg.contains(why), "{what}: {msg}");
    }

    // One flipped bit, at every 23rd byte in turn: an error naming the
    // file, or a model that still predicts a candidate without panicking.
    for at in (0..good.len()).step_by(23) {
        let mut bytes = good.clone().into_bytes();
        bytes[at] ^= 1 << (at % 7);
        std::fs::write(&model_path, &bytes).unwrap();
        match store::load(&dir, "spike", routine) {
            Ok(loaded) => assert!(inst.candidates().contains(&predict(&loaded)), "byte {at}"),
            Err(err) => {
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "byte {at}: {err}"
                );
                assert!(
                    err.to_string().contains("dgemm.model.json"),
                    "byte {at}: {err}"
                );
            }
        }
    }

    // A pipeline that keeps a raw feature dgemm does not have.
    std::fs::write(&model_path, &good).unwrap();
    let config_path = dir.join("spike/dgemm.config.json");
    let config = std::fs::read_to_string(&config_path).unwrap();
    let kept = config.find("\"kept\": [").expect("pretty-printed config") + 9;
    let digit = kept + config[kept..].find(|c: char| c.is_ascii_digit()).unwrap();
    let beyond = format!("{}99{}", &config[..digit], &config[digit + 1..]);
    std::fs::write(&config_path, beyond).unwrap();
    let err = store::load(&dir, "spike", routine).expect_err("kept feature 99");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("dgemm.config.json"), "{err}");

    // A config from before epoch metadata: every key is required.
    let at = config.find("\"version\":").expect("key is in the file");
    let line = at + config[at..].find('\n').expect("pretty-printed config") + 1;
    let stripped = format!("{}{}", &config[..at], &config[line..]);
    std::fs::write(&config_path, stripped).unwrap();
    let err = store::load(&dir, "spike", routine).expect_err("no version key");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("dgemm.config.json"), "{err}");
    assert!(err.to_string().contains("missing field `version`"), "{err}");

    // A sound model for rows of another width than the pipeline emits.
    store::save(&dir, &boosted_install(1)).unwrap();
    let err = store::load(&dir, "spike", routine).expect_err("width mismatch");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("dgemm.model.json"), "{err}");
    assert!(err.to_string().contains("the pipeline emits"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adsala_runtime_survives_missing_artifacts_dir() {
    let dir = std::env::temp_dir().join("adsala-definitely-missing-dir");
    let lib = adsala_repro::adsala::runtime::Adsala::builder()
        .model_dir(&dir)
        .platform("gadi")
        .fallback_nt(12)
        .build()
        .unwrap();
    // No models installed: everything falls back.
    let r = Routine::parse("sgemm").unwrap();
    assert_eq!(lib.predict_nt(r, Dims::d3(64, 64, 64)), 12);
}
