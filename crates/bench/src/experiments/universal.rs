//! E9 and E10b: the universal constructor of Theorem 4 and the oracle-vs-TM ablation.

use super::{f1, Experiment, Table};
use nc_protocols::universal::{construct, UniversalConstructor};
use nc_tm::{library, ShapeComputer};
use std::sync::Arc;

/// E9 — Theorem 4 / Figure 7: for every shape language of the library, the universal
/// constructor terminates with the correct shape and the waste bound `≤ (d−1)·d` (plus
/// the a-priori waste `n − d²`).
#[must_use]
pub fn e9(quick: bool) -> Experiment {
    let n: usize = if quick { 25 } else { 49 };
    let trials: u32 = if quick { 2 } else { 5 };
    let mut table = Table::new(&[
        "language",
        "n",
        "d",
        "terminated",
        "shape correct",
        "waste",
        "waste bound",
        "mean steps",
    ]);
    for computer in library::all_computers() {
        let name = computer.name().to_string();
        let shared: Arc<dyn ShapeComputer> = Arc::from(computer);
        let mut finished = 0u32;
        let mut correct = 0u32;
        let mut waste = 0usize;
        let mut steps = 0.0;
        let mut d = 0u64;
        for t in 0..trials {
            let protocol = UniversalConstructor::shape(n as u64, shared.clone());
            d = protocol.dimension();
            let expected = shared.labeled_square(d as u32).shape();
            let report = construct(protocol, n, 0xE9 + u64::from(t));
            finished += u32::from(report.finished);
            correct += u32::from(report.shape.congruent(&expected));
            waste += report.waste;
            steps += report.steps as f64;
        }
        let bound = (d - 1) * d + (n as u64 - d * d);
        table.row(&[
            name,
            n.to_string(),
            d.to_string(),
            format!("{}/{}", finished, trials),
            format!("{}/{}", correct, trials),
            f1(waste as f64 / f64::from(trials)),
            bound.to_string(),
            f1(steps / f64::from(trials)),
        ]);
    }
    Experiment {
        id: "E9",
        artefact: "Theorem 4 & Figure 7: universal construction of TM-computable shapes",
        table: table.render(),
    }
}

/// E10b — decider ablation: deciding pixels with the predicate oracle versus running a
/// genuine Turing machine for every pixel (Definition 3). Both must construct the same
/// shape; the TM path is the faithful (and slower, in machine steps) route.
#[must_use]
pub fn e10b(quick: bool) -> Experiment {
    let n: usize = if quick { 16 } else { 36 };
    let mut table = Table::new(&[
        "language",
        "decider",
        "n",
        "d",
        "terminated",
        "shape cells",
        "scheduler steps",
        "TM steps / pixel (mean)",
    ]);
    // Oracle (predicate) vs TM-backed deciders for the same languages.
    type ComputerPair = (Arc<dyn ShapeComputer>, Arc<dyn ShapeComputer>, &'static str);
    let pairs: Vec<ComputerPair> = vec![
        (
            Arc::from(library::full_square_computer()),
            Arc::new(library::full_square_tm_computer()),
            "full-square",
        ),
        (
            Arc::from(library::left_column_computer()),
            Arc::new(library::bottom_row_tm_computer()),
            "single row/column",
        ),
    ];
    for (oracle, tm, family) in pairs {
        for (kind, computer) in [("oracle", oracle), ("TM", tm.clone())] {
            let protocol = UniversalConstructor::shape(n as u64, computer.clone());
            let d = protocol.dimension();
            let report = construct(protocol, n, 0x10B);
            let tm_steps = if kind == "TM" {
                let runs: Vec<u64> = (0..d * d)
                    .map(|i| library::bottom_row_tm_computer().run_pixel(i, d).steps)
                    .collect();
                format!("{:.1}", runs.iter().sum::<u64>() as f64 / runs.len() as f64)
            } else {
                "0.0".to_string()
            };
            table.row(&[
                family.to_string(),
                kind.to_string(),
                n.to_string(),
                d.to_string(),
                report.finished.to_string(),
                report.shape.len().to_string(),
                report.steps.to_string(),
                tm_steps,
            ]);
        }
    }
    Experiment {
        id: "E10b",
        artefact:
            "Theorem 4 oracle-vs-TM ablation: per-pixel predicate oracle vs genuine TM simulation",
        table: table.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_covers_the_whole_library() {
        let e = e9(true);
        for name in ["full-square", "border", "cross", "star"] {
            assert!(e.table.contains(name), "missing language {name}");
        }
    }

    #[test]
    fn e10b_compares_oracle_and_tm() {
        let e = e10b(true);
        assert!(e.table.contains("oracle"));
        assert!(e.table.contains("TM"));
    }
}
