//! CLI for the experiment harness.
//!
//! ```text
//! cargo run -p nc-bench --release --bin experiments -- all          # every experiment, quick sizes
//! cargo run -p nc-bench --release --bin experiments -- all --full   # full (paper-scale) sizes
//! cargo run -p nc-bench --release --bin experiments -- e1 e9 e11    # a subset
//! ```

use nc_bench::experiments;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let quick = !full;
    let selected: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let run_all = selected.is_empty() || selected.iter().any(|a| a.as_str() == "all");
    let started = Instant::now();
    if run_all {
        for experiment in experiments::all(quick) {
            println!("{experiment}");
        }
    } else {
        for id in &selected {
            match experiments::by_id(id, quick) {
                Some(experiment) => println!("{experiment}"),
                None => {
                    eprintln!("unknown experiment id `{id}`; known: e1–e9, e10b, e11–e13, all");
                    std::process::exit(2);
                }
            }
        }
    }
    eprintln!(
        "({} mode, finished in {:.1} s)",
        if quick { "quick" } else { "full" },
        started.elapsed().as_secs_f64()
    );
}
