//! E1 and E2: the Counting-Upper-Bound protocol (Theorem 1, Remarks 1–2).

use super::{f1, f3, Experiment, Table};
use nc_popproto::counting::{aggregate_counting, CountingUpperBound};
use nc_popproto::walk::counting_walk_law;

/// E1 — Remark 2 / Theorem 1: success rate and relative estimate of the counting
/// protocol over repeated trials.
///
/// The paper reports that the protocol always terminates, w.h.p. counts at least `n/2`,
/// and that in simulations up to 1000 nodes the estimate is usually around `0.9·n`.
/// Beside the empirical success rate the table prints the exact success probability,
/// `1 −` the counting walk's failure: the protocol succeeds exactly when its walk does
/// (`tests/walk_reduction.rs` checks that reduction against executions).
#[must_use]
pub fn e1(quick: bool) -> Experiment {
    let (sizes, trials): (&[usize], u32) = if quick {
        (&[50, 100, 200], 20)
    } else {
        (&[50, 100, 200, 500, 1000], 200)
    };
    let head_starts: &[u64] = if quick { &[3, 4] } else { &[3, 4, 5] };
    let mut table = Table::new(&[
        "n",
        "b",
        "trials",
        "halt_rate",
        "success_rate",
        "exact success",
        "mean r0/n",
        "mean steps",
    ]);
    for &n in sizes {
        let trials = if n >= 1000 { trials.min(25) } else { trials };
        for &b in head_starts {
            let agg = aggregate_counting(&CountingUpperBound::new(b), n, trials, 0xE1 + b);
            table.row(&[
                n.to_string(),
                b.to_string(),
                trials.to_string(),
                f3(agg.halt_rate),
                f3(agg.success_rate),
                format!("1 - {:.2e}", counting_walk_law(n as u64, b).failure),
                f3(agg.mean_relative_estimate),
                f1(agg.mean_steps),
            ]);
        }
    }
    Experiment {
        id: "E1",
        artefact: "Theorem 1 & Remark 2: terminating counting, success w.h.p., estimate ≈ 0.9·n",
        table: table.render(),
    }
}

/// E2 — Remark 1: interactions to termination versus `n`, compared against the
/// `c·n²·ln n` shape the paper predicts.
#[must_use]
pub fn e2(quick: bool) -> Experiment {
    let (sizes, trials): (&[usize], u32) = if quick {
        (&[32, 64, 128], 10)
    } else {
        (&[32, 64, 128, 256, 512], 40)
    };
    let b = 4;
    let mut table = Table::new(&["n", "trials", "mean steps", "n²·ln n", "ratio"]);
    for &n in sizes {
        let agg = aggregate_counting(&CountingUpperBound::new(b), n, trials, 0xE2);
        let model = (n * n) as f64 * (n as f64).ln();
        table.row(&[
            n.to_string(),
            trials.to_string(),
            f1(agg.mean_steps),
            f1(model),
            f3(agg.mean_steps / model),
        ]);
    }
    Experiment {
        id: "E2",
        artefact: "Remark 1: expected running time O(n² log n) interactions",
        table: table.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_every_combination() {
        let e = e1(true);
        assert_eq!(e.id, "E1");
        // 3 sizes × 2 head starts data rows + header + separator.
        assert_eq!(e.table.lines().count(), 2 + 6);
    }

    #[test]
    fn e2_ratio_is_moderate() {
        let e = e2(true);
        assert!(e.table.contains("n²·ln n"));
    }
}
