//! Installation CLI (paper Fig. 1a): gathers timing data, trains and
//! selects models for every requested routine, and saves the config +
//! model files for later use by the runtime library
//! (`Adsala::builder().model_dir(..).platform(..)`).
//!
//! ```text
//! cargo run --release -p adsala-bench --bin install -- \
//!     --platform gadi --out artifacts [--full] [--op dgemm]
//! ```

use adsala::store;
use adsala_bench::{install_on, Args};

fn main() {
    let args = Args::parse();
    let opts = args.install_options();
    let dir = std::path::Path::new(&args.out_dir).join("installed");
    for spec in args.platforms() {
        for routine in args.routines() {
            let t0 = std::time::Instant::now();
            let inst = install_on(&spec, routine, &opts);
            store::save(&dir, &inst).expect("failed to save installation artefacts");
            println!(
                "installed {:8} on {:8} -> {:24} ({:5.1}s)",
                routine.name(),
                spec.name,
                inst.selected.sklearn_name(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!("artefacts in {}", dir.display());
}
