//! Builder round-trip tests: `store::save` artefacts must rebuild an
//! equivalent runtime through `AdsalaBuilder`, on any backend.

// Outside the Miri subset: drives the runtime end to end (OS worker threads).
#![cfg(not(miri))]

use adsala::install::{install_routine, predict_best_nt, InstallOptions};
use adsala::runtime::Adsala;
use adsala::store;
use adsala::timer::SimTimer;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{Blas3Backend, Blas3Op, Matrix, ReferenceBackend, Transpose};
use adsala_machine::MachineSpec;
use adsala_ml::model::ModelKind;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("adsala-builder-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn quick_install(name: &str) -> (Routine, adsala::install::InstalledRoutine) {
    let timer = SimTimer::new(MachineSpec::gadi());
    let r = Routine::parse(name).unwrap();
    let inst = install_routine(
        &timer,
        r,
        &InstallOptions {
            n_train: 110,
            n_eval: 8,
            kinds: vec![ModelKind::LinearRegression],
            nt_stride: 8,
            ..Default::default()
        },
    );
    (r, inst)
}

#[test]
fn builder_roundtrips_store_artefacts() {
    let dir = tmpdir("roundtrip");
    let (r, inst) = quick_install("dgemm");
    store::save(&dir, &inst).unwrap();

    let lib = Adsala::builder()
        .model_dir(&dir)
        .platform("gadi")
        .fallback_nt(96)
        .build()
        .unwrap();

    // The rebuilt runtime serves the same predictions as the in-memory
    // installation.
    for d in [
        Dims::d3(300, 4000, 120),
        Dims::d3(64, 64, 64),
        Dims::d3(2000, 16, 2000),
    ] {
        let direct = predict_best_nt(&inst.model, &inst.pipeline, r, d, &inst.candidates());
        assert_eq!(lib.predict_nt(r, d), direct, "dims {d}");
    }
    // Unknown routines fall back.
    assert_eq!(
        lib.predict_nt(Routine::parse("strmm").unwrap(), Dims::d2(64, 64)),
        96
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builder_without_model_dir_serves_pure_fallback() {
    let lib = Adsala::builder().fallback_nt(5).build().unwrap();
    assert_eq!(
        lib.predict_nt(Routine::parse("dgemm").unwrap(), Dims::d3(10, 10, 10)),
        5
    );
}

#[test]
fn builder_model_dir_without_platform_is_invalid_input() {
    let err = Adsala::builder()
        .model_dir(std::env::temp_dir())
        .build()
        .err()
        .expect("model_dir without platform must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn builder_fallback_defaults_to_backend_max_threads() {
    let lib = Adsala::builder().backend(ReferenceBackend).build().unwrap();
    // ReferenceBackend::max_threads() == 1.
    assert_eq!(
        lib.predict_nt(Routine::parse("dsymm").unwrap(), Dims::d2(32, 32)),
        1
    );
}

#[test]
fn reloaded_runtime_on_reference_backend_executes_correctly() {
    // Save with one install, rebuild on the oracle backend, and push a call
    // through the single execute() path: the prediction comes from the
    // loaded model while the numerics come from the swapped backend.
    let dir = tmpdir("refexec");
    let (r, inst) = quick_install("dgemm");
    let cands = inst.candidates();
    store::save(&dir, &inst).unwrap();

    let lib = Adsala::builder()
        .backend(ReferenceBackend)
        .model_dir(&dir)
        .platform("gadi")
        .fallback_nt(4)
        .build()
        .unwrap();
    assert_eq!(lib.backend().name(), "reference");

    let m = 20;
    let a = Matrix::<f64>::from_fn(m, m, |i, j| ((i * 5 + j) % 9) as f64 - 4.0);
    let b = Matrix::<f64>::from_fn(m, m, |i, j| ((i + j * 3) % 7) as f64 - 3.0);
    let mut c = Matrix::<f64>::zeros(m, m);
    let nt = lib
        .execute(Blas3Op::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        })
        .unwrap();
    assert!(cands.contains(&nt), "nt {nt} not a model candidate");
    assert_eq!(nt, lib.predict_nt(r, Dims::d3(m, m, m)));

    let mut expect = Matrix::<f64>::zeros(m, m);
    adsala_blas3::reference::gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut expect);
    assert!(c.max_abs_diff(&expect) < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_install_wins_over_disk_artefact() {
    // A routine handed to .install() must not be silently replaced by an
    // older artefact for the same routine found in the model directory.
    let dir = tmpdir("precedence");
    let (r, disk_inst) = quick_install("dgemm");
    assert_eq!(disk_inst.nt_stride, 8);
    store::save(&dir, &disk_inst).unwrap();

    let timer = SimTimer::new(MachineSpec::gadi());
    let fresh_inst = install_routine(
        &timer,
        r,
        &InstallOptions {
            n_train: 110,
            n_eval: 8,
            kinds: vec![ModelKind::LinearRegression],
            nt_stride: 16, // distinguishable from the disk artefact's 8
            ..Default::default()
        },
    );

    let lib = Adsala::builder()
        .model_dir(&dir)
        .platform("gadi")
        .install(fresh_inst)
        .fallback_nt(96)
        .build()
        .unwrap();
    let serving = lib.predictor(r).expect("dgemm predictor present");
    assert_eq!(
        serving.installed().nt_stride,
        16,
        "disk artefact overrode the explicitly installed routine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn builder_direct_install_matches_file_roundtrip() {
    let dir = tmpdir("direct");
    let (r, inst) = quick_install("dsyrk");
    store::save(&dir, &inst).unwrap();

    let from_files = Adsala::builder()
        .model_dir(&dir)
        .platform("gadi")
        .fallback_nt(96)
        .build()
        .unwrap();
    let direct = Adsala::builder()
        .install(inst)
        .fallback_nt(96)
        .build()
        .unwrap();

    for d in [Dims::d2(100, 100), Dims::d2(3000, 40), Dims::d2(16, 4000)] {
        assert_eq!(
            from_files.predict_nt(r, d),
            direct.predict_nt(r, d),
            "dims {d}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
