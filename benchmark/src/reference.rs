//! The reference child: a frozen, synthetic fresh-process workload that
//! the harness runs right before every rep, so a rep's wall time can be
//! read *relative to what the box could do at that moment*.
//!
//! The box's speed wanders for minutes at a time (see the README's *Noise*
//! section), and the wander hits fresh processes in particular — a
//! long-lived loop inside the harness barely notices it.  So the yardstick
//! is itself a fresh process with the simulator's habits: arithmetic
//! between pushes onto growing vectors (page faults all the way), then one
//! big sort.  It uses nothing but `std`.
//!
//! **Frozen:** this file must not change when the simulator does.  Every
//! `wall_vs_ref` ever recorded is in units of this loop; touching it (or
//! the release profile it is built with) re-bases them all.

/// What the reference child prints: pinned, so a miscompiled or edited
/// reference is a failed operation, not a silently different yardstick.
pub const EXPECTED_OUTPUT: &str = "7588258bd1b9a98e 3fe004436bfec028\n";

/// Samples pushed (12 MB of `f64`, about 30 MB resident at the sort).
const SAMPLES: usize = 1_500_000;

/// Run the reference workload and return its checksum line.
pub fn checksum() -> String {
    let mut x: u64 = 88_172_645_463_325_252;
    let mut acc = 0u64;
    let mut sets: Vec<Vec<f64>> = vec![Vec::new(); 8];
    for i in 0..SAMPLES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for _ in 0..6 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(x);
        }
        sets[i % 8].push((x >> 11) as f64 / (1u64 << 53) as f64);
    }
    let mut all: Vec<f64> = sets.concat();
    all.sort_by(f64::total_cmp);
    format!("{acc:016x} {:016x}\n", all[all.len() / 2].to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_workload_is_the_pinned_one() {
        assert_eq!(checksum(), EXPECTED_OUTPUT);
    }
}
