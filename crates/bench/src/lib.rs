//! # ispn-bench — micro-benchmarks and the `BENCH_*.json` snapshot
//!
//! [`micro`] holds the per-packet workload cores — each scheduling
//! discipline, the event queue, a setup request's whole life — behind the
//! paper's Section-3 requirement that the per-packet work "must not be so
//! complex as to effect overall network performance".  The [`snapshot`]
//! harness (the `snapshot` bin) times them, and the full-length table
//! regenerations, into the `BENCH_*.json` trajectory at the repo root.
//! That trajectory is a record, not evidence: speed claims are made with
//! the paired protocol of the `benchmark/` package (see ROADMAP.md).
//!
//! [`bench_config`] has a `*_from` twin taking the environment value as a
//! parameter, so unit tests stay hermetic under any ambient setting.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_papers() {
        // The unset-environment shape, independent of the ambient
        // `ISPN_BENCH_FAST` value.
        let c = bench_config_from(None);
        assert!(c.duration.as_secs_f64() >= 40.0);
    }

    #[test]
    fn fast_flag_shortens_the_config() {
        let c = bench_config_from(Some("1"));
        assert_eq!(c.duration, PaperConfig::fast().duration);
        // Any value other than "1" leaves the full-length configuration.
        assert_eq!(
            bench_config_from(Some("0")).duration,
            PaperConfig::paper().duration
        );
    }
}
