//! # ispn-bench — benchmark harness
//!
//! Two kinds of bench targets live under `benches/`:
//!
//! * **table reproductions** (`table1`, `table2`, `table3`, `extensions`) —
//!   plain `harness = false` binaries that run the corresponding
//!   `ispn-experiments` scenario at the paper's full ten-minute simulated
//!   duration and print the regenerated table next to the published values.
//!   `cargo bench --workspace` therefore regenerates every table and figure
//!   of the paper in one go.  `table1` and `table2` are sweeps and take the
//!   sweep bins' flags (`cargo bench --bench table1 -- --workers 2`).
//! * **micro-benchmarks** (`sched_micro`, `engine_micro`) — Criterion
//!   benchmarks of the per-packet cost of each scheduling discipline and of
//!   the event queue, supporting the paper's Section-3 requirement that the
//!   per-packet work "must not be so complex as to effect overall network
//!   performance".
//!
//! The workload cores behind the micro-benchmarks live in [`micro`] so the
//! [`snapshot`] harness (the `snapshot` bin, which records the
//! `BENCH_*.json` performance trajectory at the repo root) measures exactly
//! the same code.  This library also holds small shared helpers for the
//! bench targets; every environment-reading helper has a `*_from` twin
//! taking the environment value as a parameter, so unit tests stay hermetic
//! under any ambient `ISPN_BENCH_FAST` setting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod micro;
pub mod snapshot;

use ispn_experiments::config::PaperConfig;

/// [`bench_config`] with the environment injected: `fast` is the value of
/// `ISPN_BENCH_FAST`, if set.
pub fn bench_config_from(fast: Option<&str>) -> PaperConfig {
    if fast == Some("1") {
        PaperConfig::fast()
    } else {
        PaperConfig::paper()
    }
}

/// Choose the experiment configuration from the environment: set
/// `ISPN_BENCH_FAST=1` to run shortened scenarios (used in CI smoke runs).
pub fn bench_config() -> PaperConfig {
    bench_config_from(std::env::var("ISPN_BENCH_FAST").ok().as_deref())
}

/// [`extensions_config`] with the environment injected.
pub fn extensions_config_from(fast: Option<&str>) -> PaperConfig {
    if fast == Some("1") {
        PaperConfig::fast()
    } else {
        PaperConfig::medium()
    }
}

/// A medium-length configuration for the multi-run extension sweeps.
pub fn extensions_config() -> PaperConfig {
    extensions_config_from(std::env::var("ISPN_BENCH_FAST").ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_papers() {
        // The unset-environment shape, independent of the ambient
        // `ISPN_BENCH_FAST` value.
        let c = bench_config_from(None);
        assert!(c.duration.as_secs_f64() >= 40.0);
        let e = extensions_config_from(None);
        assert!(e.duration <= c.duration);
    }

    #[test]
    fn fast_flag_shortens_both_configs() {
        let c = bench_config_from(Some("1"));
        assert_eq!(c.duration, PaperConfig::fast().duration);
        assert_eq!(
            extensions_config_from(Some("1")).duration,
            PaperConfig::fast().duration
        );
        // Any value other than "1" leaves the full-length configuration.
        assert_eq!(
            bench_config_from(Some("0")).duration,
            PaperConfig::paper().duration
        );
    }
}
