//! One module per experiment family; every experiment returns a plain-text table.
//!
//! Each experiment accepts a `quick` flag: `true` uses reduced population sizes and trial
//! counts (seconds of runtime, used by `cargo test` and default CLI invocations), `false`
//! the full parameters, which each experiment function states beside its quick ones.

pub mod basic_shapes;
pub mod conjecture;
pub mod counting;
pub mod counting_line;
pub mod pattern;
pub mod replication;
pub mod square_knowing_n;
pub mod uid;
pub mod universal;
pub mod walk;

/// A rendered experiment: identifier, paper artefact, and the measured table.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Experiment identifier (`"E1"`, `"E2"`, …).
    pub id: &'static str,
    /// The paper artefact the experiment reproduces.
    pub artefact: &'static str,
    /// The rendered table.
    pub table: String,
}

impl std::fmt::Display for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.artefact)?;
        write!(f, "{}", self.table)
    }
}

/// A minimal fixed-width table builder used by all experiments.
#[derive(Clone, Debug, Default)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(columns: &[&str]) -> Table {
        Table {
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many entries as there are columns).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with three decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with one decimal.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// All experiments in order, with the `quick` flag applied to each.
#[must_use]
pub fn all(quick: bool) -> Vec<Experiment> {
    vec![
        counting::e1(quick),
        counting::e2(quick),
        walk::e3(quick),
        uid::e4(quick),
        uid::e5(quick),
        basic_shapes::e6(quick),
        counting_line::e7(quick),
        square_knowing_n::e8(quick),
        universal::e9(quick),
        universal::e10b(quick),
        replication::e11(quick),
        conjecture::e12(quick),
        pattern::e13(quick),
    ]
}

/// Looks up an experiment by its identifier (case-insensitive).
#[must_use]
pub fn by_id(id: &str, quick: bool) -> Option<Experiment> {
    let id = id.to_ascii_lowercase();
    let run: Option<fn(bool) -> Experiment> = match id.as_str() {
        "e1" => Some(counting::e1),
        "e2" => Some(counting::e2),
        "e3" => Some(walk::e3),
        "e4" => Some(uid::e4),
        "e5" => Some(uid::e5),
        "e6" => Some(basic_shapes::e6),
        "e7" => Some(counting_line::e7),
        "e8" => Some(square_knowing_n::e8),
        "e9" => Some(universal::e9),
        "e10b" => Some(universal::e10b),
        "e11" => Some(replication::e11),
        "e12" => Some(conjecture::e12),
        "e13" => Some(pattern::e13),
        _ => None,
    };
    run.map(|f| f(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["n", "rate"]);
        t.row(&["10".into(), "0.5".into()]);
        t.row(&["1000".into(), "0.999".into()]);
        let rendered = t.render();
        assert!(rendered.contains("   n"));
        assert!(rendered.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn by_id_is_case_insensitive_and_total() {
        assert!(by_id("nonexistent", true).is_none());
        // Do not actually run an experiment here (that is covered by the per-module
        // tests); just check that the dispatch table knows all identifiers.
        for id in [
            "E1", "e2", "E3", "e4", "e5", "e6", "e7", "e8", "e9", "e10b", "e11", "e12", "e13",
        ] {
            assert!(
                matches!(
                    id.to_ascii_lowercase().as_str(),
                    "e1" | "e2"
                        | "e3"
                        | "e4"
                        | "e5"
                        | "e6"
                        | "e7"
                        | "e8"
                        | "e9"
                        | "e10b"
                        | "e11"
                        | "e12"
                        | "e13"
                ),
                "{id} missing from dispatch"
            );
        }
    }
}
