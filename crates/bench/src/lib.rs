//! # dbp-bench
//!
//! Experiment harness for the reproduction: effort-aware OPT brackets
//! ([`bracket`]), a scoped-thread parallel sweep runner ([`sweep`]), the
//! registry of every regenerated table/figure/lemma ([`experiments`]),
//! manifest-driven experiment fleets ([`manifest`], the `experiments run`
//! subcommand) and the engine-throughput program ([`throughput`], which
//! maintains `BENCH_engine.json`). [`matrix`] offers a public
//! algorithms × instances evaluation API. The `experiments` binary drives
//! it.

#![warn(missing_docs)]

pub mod bracket;
pub mod experiments;
pub mod manifest;
pub mod matrix;
pub mod pipe;
pub mod sweep;
pub mod throughput;
