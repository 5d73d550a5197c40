//! `dproc-bench` — the figure-regeneration harness.
//!
//! One binary per evaluation figure of the paper (`fig4_cpu_perturbation`
//! … `fig11_hybrid`), a `run_all` binary producing the complete
//! EXPERIMENTS.md input, and an `ablation_topology` binary for the
//! peer-to-peer vs. central-collector design comparison. The two
//! criterion ablations EXPERIMENTS.md quotes live under `benches/`.
//! [`scenario`] and [`alloc`] are what the robustness and allocation tests
//! and `chaos_soak` build, check and count with.

pub mod alloc;
pub mod harness;
pub mod scenario;
