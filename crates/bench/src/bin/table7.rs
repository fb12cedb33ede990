//! Table VII: speedup statistics (mean/std/min/25%/50%/75%/max) of ADSALA
//! over the max-thread baseline for all twelve subroutines on both
//! platforms, evaluated on fresh held-out Halton test sets with the model
//! evaluation time charged to each call.

use adsala::evaluate::evaluate;
use adsala::timer::SimTimer;
use adsala_bench::{install_on, Args};

fn main() {
    let args = Args::parse();
    let opts = args.install_options();
    for spec in args.platforms() {
        println!(
            "Table VII ({}): ADSALA speedup over {} threads",
            spec.name,
            spec.max_threads()
        );
        println!("{:-<104}", "");
        // `thr` is the share of calls the install's serial threshold
        // answered; `t_eval` is the mean on each side of it, microseconds.
        println!(
            "{:8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>5} {:>10} {:>10}  model",
            "routine",
            "mean",
            "std",
            "min",
            "25%",
            "50%",
            "75%",
            "max",
            "thr",
            "t_eval thr",
            "sweep us"
        );
        let timer = SimTimer::new(spec.clone());
        for routine in args.routines() {
            let inst = install_on(&spec, routine, &opts);
            let ev = evaluate(&timer, &inst, args.n_eval(), 0xE7A1);
            let s = ev.stats;
            println!(
                "{:8} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>5.2} {:>10.2} {:>10.2}  {}",
                routine.name(),
                s.mean,
                s.std,
                s.min,
                s.q25,
                s.median,
                s.q75,
                s.max,
                ev.serial_share,
                ev.t_eval_serial * 1e6,
                ev.t_eval_sweep * 1e6,
                inst.selected.sklearn_name()
            );
        }
        println!();
    }
}
