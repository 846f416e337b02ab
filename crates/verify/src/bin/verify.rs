//! Exhaustive small-`n` model checking driver.
//!
//! ```text
//! verify              # full sweep: every pinned row (Square to n = 16, GlobalLine
//!                     # to n = 8, counting b = 1 to n = 10), ~6 s in release
//! verify --smoke      # the rows at GlobalLine/counting b = 1 n ≤ 6, under 1 s
//! verify --max-n K    # either of the above, rows with n ≤ K only
//! ```
//!
//! Each row prints the exact number of canonical reachable configurations,
//! canonical edges, stable configurations, good terminals and the BFS depth, and
//! fails (exit 1) on any violation of the three verified properties — except for
//! the *negative control* rows (counting with head start `b` at `n − 1 < b`), where
//! the protocol is known to starve and the run fails unless the checker **does**
//! report the starvation.
//!
//! Every row is also compared against its pin in `PINNED`, so any drift in the
//! reachable state space (a semantics change in the simulator, the index, the
//! geometry or a protocol) fails even when all three properties still hold.

use nc_protocols::counting_line::CountingOnALine;
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use nc_verify::{explore, Exploration, VerifiedProtocol, ViolationKind};

struct Row {
    proto: &'static str,
    n: usize,
    states: usize,
    edges: usize,
    stable: usize,
    terminals: usize,
    depth: u32,
    violations: usize,
    expect_violations: bool,
    ok: bool,
    first_violation: Option<String>,
}

fn run_case<P: VerifiedProtocol>(
    proto: &'static str,
    protocol: P,
    n: usize,
    expect_violations: bool,
) -> Row {
    let ex: Exploration<P> = match explore(protocol, n) {
        Ok(ex) => ex,
        Err(e) => {
            eprintln!("{proto} n={n}: exploration failed: {e}");
            std::process::exit(2);
        }
    };
    // A negative control must starve (bad terminals / unfair states found); it must
    // never surface an oracle mismatch, which would be a machinery bug regardless.
    let oracle_broken = ex
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::OracleMismatch);
    let ok = if expect_violations {
        !ex.violations.is_empty() && !oracle_broken
    } else {
        ex.violations.is_empty()
    };
    Row {
        proto,
        n,
        states: ex.state_count(),
        edges: ex.edges,
        stable: ex.stable_count(),
        terminals: ex.terminal_count(),
        depth: ex.max_depth(),
        violations: ex.violations.len(),
        expect_violations,
        ok,
        first_violation: ex.violations.first().map(|v| {
            format!(
                "[{}] {} | trace: {}",
                v.kind,
                v.detail,
                v.path
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        }),
    }
}

/// Runs the pinned row `(proto, n)`.
fn run_row(proto: &'static str, n: usize) -> Row {
    // The head-start boundary, proven exactly: with head start `b`, the leader needs
    // `r0 ≥ b` before second meetings count, and only the `n − 1` non-leaders can
    // ever be counted — so the protocol starves iff `n − 1 < b`. Rows below the
    // boundary are negative controls (the checker must report the starvation);
    // rows at or above it must verify clean.
    let counting = |b: u64| run_case(proto, CountingOnALine::new(b), n, (n as u64 - 1) < b);
    match proto {
        "global-line" => run_case(proto, GlobalLine, n, false),
        "square" => run_case(proto, Square::new(), n, false),
        "counting-b1" => counting(1),
        "counting-b2" => counting(2),
        "counting-b3" => counting(3),
        other => unreachable!("no protocol named {other}"),
    }
}

/// Largest `n` of `proto` that `--smoke` runs.
fn smoke_cap(proto: &str) -> usize {
    match proto {
        "global-line" | "counting-b1" => 6,
        _ => usize::MAX,
    }
}

/// Pinned canonical counts, one per swept row: `(proto, n, states, edges, stable,
/// terminals)`. The full sweep runs every row, `--smoke` the rows within
/// [`smoke_cap`]; both compare each row they run against its pin.
///
/// These are exact, deterministic properties of the protocol semantics plus the
/// permissibility geometry; any change to either shows up here as drift.
const PINNED: &[(&str, usize, usize, usize, usize, usize)] = &[
    ("global-line", 1, 1, 0, 1, 1),
    ("global-line", 2, 5, 4, 4, 4),
    ("global-line", 3, 21, 20, 16, 16),
    ("global-line", 4, 85, 84, 64, 64),
    ("global-line", 5, 341, 340, 256, 256),
    ("global-line", 6, 1365, 1364, 1024, 1024),
    ("global-line", 7, 5461, 5460, 4096, 4096),
    ("global-line", 8, 21845, 21844, 16384, 16384),
    ("square", 1, 1, 0, 1, 1),
    ("square", 2, 2, 1, 1, 1),
    ("square", 3, 3, 2, 1, 1),
    ("square", 4, 5, 4, 1, 1),
    ("square", 5, 6, 5, 1, 1),
    ("square", 6, 8, 7, 1, 1),
    ("square", 7, 9, 8, 1, 1),
    ("square", 8, 11, 10, 1, 1),
    ("square", 9, 13, 12, 1, 1),
    ("square", 10, 14, 13, 1, 1),
    ("square", 11, 16, 15, 1, 1),
    ("square", 12, 18, 17, 1, 1),
    ("square", 13, 19, 18, 1, 1),
    ("square", 14, 21, 20, 1, 1),
    ("square", 15, 23, 22, 1, 1),
    ("square", 16, 25, 24, 1, 1),
    ("counting-b1", 2, 4, 3, 1, 1),
    ("counting-b1", 3, 9, 8, 2, 2),
    ("counting-b1", 4, 16, 18, 3, 3),
    ("counting-b1", 5, 33, 41, 5, 5),
    ("counting-b1", 6, 56, 82, 7, 7),
    ("counting-b1", 7, 85, 139, 9, 9),
    ("counting-b1", 8, 120, 212, 11, 11),
    ("counting-b1", 9, 197, 351, 15, 15),
    ("counting-b1", 10, 290, 556, 19, 19),
    ("counting-b2", 2, 2, 1, 1, 0),
    ("counting-b2", 3, 7, 6, 1, 1),
    ("counting-b2", 4, 14, 16, 2, 2),
    ("counting-b2", 5, 31, 39, 4, 4),
    ("counting-b3", 2, 2, 1, 1, 0),
    ("counting-b3", 3, 3, 2, 1, 0),
    ("counting-b3", 4, 10, 10, 1, 1),
];

fn print_row(r: &Row) {
    let verdict = if r.ok { "ok  " } else { "FAIL" };
    let expect = if r.expect_violations {
        " (negative control: violations expected)"
    } else {
        ""
    };
    println!(
        "{verdict} {:<12} n={} states={:<7} edges={:<8} stable={:<3} terminals={:<3} depth={:<3} violations={}{expect}",
        r.proto, r.n, r.states, r.edges, r.stable, r.terminals, r.depth, r.violations
    );
    if !r.ok {
        if let Some(v) = &r.first_violation {
            println!("     first violation: {v}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_n = args
        .iter()
        .position(|a| a == "--max-n")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    if let Some(bad) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            let is_flag = matches!(a.as_str(), "--smoke" | "--max-n");
            let is_max_n_value = *i > 0 && args[i - 1] == "--max-n";
            !is_flag && !is_max_n_value
        })
        .map(|(_, a)| a)
    {
        eprintln!("unknown argument: {bad}\nusage: verify [--smoke] [--max-n K]");
        std::process::exit(2);
    }

    let mut failed = false;
    for &(proto, n, states, edges, stable, terminals) in PINNED {
        if n > max_n || (smoke && n > smoke_cap(proto)) {
            continue;
        }
        let r = run_row(proto, n);
        print_row(&r);
        failed |= !r.ok;
        let got = (r.states, r.edges, r.stable, r.terminals);
        let want = (states, edges, stable, terminals);
        if got != want {
            println!(
                "DRIFT {proto} n={n}: (states, edges, stable, terminals) \
                 pinned {want:?}, got {got:?}"
            );
            failed = true;
        }
    }
    if !failed {
        let mode = if smoke { "smoke" } else { "sweep" };
        println!("{mode}: all pinned counts match");
    }

    if failed {
        std::process::exit(1);
    }
}
