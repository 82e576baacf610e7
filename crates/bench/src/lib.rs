//! Shared helpers for the COMA benchmark and experiment binaries.
//!
//! The binaries in `src/bin/` regenerate the tables and figures of the
//! paper's evaluation (Section 7), and `perf_smoke` is the CI
//! performance gate. [`workload`] generates deterministic synthetic
//! large-schema match tasks (star/deep/wide/catalog shapes, 1000 to
//! 100000 nodes in the gate's suite) for the plan engine's sparse-path
//! measurements and the gate; [`alloc_track`] provides the counting
//! global allocator `perf_smoke` uses to compare peak allocations of
//! dense vs sparse similarity storage.
//!
//! The staged plans the gate measures live in [`coma_core::plans`],
//! shared with the CLI and the server's wire-level plan specs.

pub mod alloc_track;
pub mod workload;
