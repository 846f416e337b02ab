//! Experiment harness and benchmarks for the reproduction of Michail (2015).
//!
//! The paper is a theory paper without numeric result tables; its "evaluation" consists
//! of theorems, remarks and figures. Every theorem/remark/figure with measurable content
//! is turned into an experiment (E1–E13; each table's heading names the theorem, remark
//! or figure it measures), and this crate regenerates each of them:
//!
//! * the [`experiments`] module contains one function per experiment, each returning a
//!   plain-text table;
//! * the `experiments` binary (`cargo run -p nc-bench --release --bin experiments`)
//!   runs any subset of them from the command line;
//! * the `scheduler_sweep` binary is the CI gate on the sampling modes: every mode
//!   reaches the guaranteed outcomes, the jump sampler is at least as fast as the
//!   indexed one in effective steps per second, and its per-step cost stays flat in n.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
