//! E3: the random-walk failure analysis behind Theorem 1 (Figure 4).

use super::{Experiment, Table};
use nc_popproto::walk::{
    counting_walk_law, ehrenfest_walk_failure, per_visit_failure_probability,
    theorem1_failure_bound,
};

const SIZES: [u64; 3] = [100, 400, 1600];
const HEAD_STARTS: [u64; 4] = [3, 4, 5, 6];

/// E3 — Theorem 1 proof / Figure 4: exact failure probability of the counting walk and
/// of its Ehrenfest simplification versus the head start `b`, compared with the
/// gambler's-ruin per-visit closed form and the `1/n^(b−2)` bound the theorem uses.
///
/// Both columns are exact dynamic programs, so the sizes cost milliseconds and the quick
/// and full modes print the same table. On every row the counting walk fails less often
/// than the Ehrenfest model and than the bound. The Ehrenfest model is not always below
/// the printed bound: at n = 100, b = 6 it fails with probability 9.64e-8 against a bound
/// of 1.00e-8, because `1/n^(b−2)` drops the `b`-dependent constants of the per-visit
/// bound, and those outweigh `n` when `b` is large and `n` small.
#[must_use]
pub fn e3(_quick: bool) -> Experiment {
    let mut table = Table::new(&[
        "n",
        "b",
        "exact fail (counting walk)",
        "exact fail (Ehrenfest)",
        "per-visit ruin bound",
        "Theorem 1 bound 1/n^(b-2)",
    ]);
    for n in SIZES {
        for b in HEAD_STARTS {
            table.row(&[
                n.to_string(),
                b.to_string(),
                format!("{:.2e}", counting_walk_law(n, b).failure),
                format!("{:.2e}", ehrenfest_walk_failure(n, b)),
                format!("{:.2e}", per_visit_failure_probability(n, b)),
                format!("{:.2e}", theorem1_failure_bound(n, b)),
            ]);
        }
    }
    Experiment {
        id: "E3",
        artefact: "Theorem 1 proof & Figure 4: failure probability vs head start b",
        table: table.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every E3 row as `(n, b, counting walk, Ehrenfest, Theorem 1 bound)`.
    fn rows() -> Vec<(u64, u64, f64, f64, f64)> {
        SIZES
            .into_iter()
            .flat_map(|n| HEAD_STARTS.into_iter().map(move |b| (n, b)))
            .map(|(n, b)| {
                (
                    n,
                    b,
                    counting_walk_law(n, b).failure,
                    ehrenfest_walk_failure(n, b),
                    theorem1_failure_bound(n, b),
                )
            })
            .collect()
    }

    #[test]
    fn e3_failure_decreases_with_b() {
        for pair in rows().windows(2) {
            let ((n, _, counting, ehrenfest, _), (next_n, _, next_counting, next_ehrenfest, _)) =
                (pair[0], pair[1]);
            if n == next_n {
                assert!(next_counting < counting, "n = {n}: counting walk");
                assert!(next_ehrenfest < ehrenfest, "n = {n}: Ehrenfest walk");
            }
        }
        let e = e3(true);
        assert!(e.table.contains("Theorem 1 bound"));
        assert!(!e.table.contains("0.000000"));
        assert_eq!(e.table, e3(false).table);
    }

    #[test]
    fn e3_counting_walk_is_below_the_model_and_the_bound() {
        for (n, b, counting, ehrenfest, bound) in rows() {
            assert!(counting <= ehrenfest, "n = {n}, b = {b}");
            assert!(counting <= bound, "n = {n}, b = {b}");
        }
        // The one row where the Ehrenfest model exceeds the printed bound.
        let above: Vec<_> = rows()
            .into_iter()
            .filter(|&(_, _, _, ehrenfest, bound)| ehrenfest > bound)
            .map(|(n, b, _, ehrenfest, _)| (n, b, format!("{ehrenfest:.2e}")))
            .collect();
        assert_eq!(above, [(100, 6, "9.64e-8".to_string())]);
    }

    #[test]
    fn e3_pins_the_exact_failures() {
        // (counting walk, Ehrenfest) per row, in the table's order.
        const PINNED: [(f64, f64); 12] = [
            (7.0305040e-6, 6.2281939e-5),
            (3.1004669e-7, 5.6977050e-6),
            (1.7499920e-8, 6.6799537e-7),
            (1.2146718e-9, 9.6437462e-8),
            (9.7379582e-8, 7.9726744e-7),
            (9.9637102e-10, 1.6443040e-8),
            (1.2809615e-11, 4.2612882e-10),
            (1.9865493e-13, 1.3321839e-11),
            (1.4786851e-9, 1.1896663e-8),
            (3.7176599e-12, 5.9933770e-11),
            (1.1698261e-14, 3.7789991e-13),
            (4.4228556e-17, 2.8629427e-15),
        ];
        for ((n, b, counting, ehrenfest, _), (pinned_counting, pinned_ehrenfest)) in
            rows().into_iter().zip(PINNED)
        {
            assert!(
                (counting / pinned_counting - 1.0).abs() < 1e-6,
                "n = {n}, b = {b}: counting walk {counting:e}"
            );
            assert!(
                (ehrenfest / pinned_ehrenfest - 1.0).abs() < 1e-6,
                "n = {n}, b = {b}: Ehrenfest walk {ehrenfest:e}"
            );
        }
    }
}
