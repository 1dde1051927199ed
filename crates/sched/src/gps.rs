//! The fluid GPS reference system and its virtual clock.
//!
//! Packetized WFQ (PGPS) needs, for every arriving packet, the *virtual
//! finishing time* the packet would have in the fluid Generalized Processor
//! Sharing system in which every backlogged flow α drains at rate
//! `rα / Σ_{β active} rβ` of the link (Section 4 of the paper gives exactly
//! this fluid-flow model).  [`GpsClock`] tracks that virtual time exactly,
//! using the classic "iterated deletion" algorithm: between packet events
//! the virtual time advances at slope `μ / Σ_{active} rβ`, and whenever it
//! crosses the last virtual finish of an active flow that flow leaves the
//! active set and the slope steepens.
//!
//! The same clock is shared by [`crate::Wfq`] (every flow is its own GPS
//! flow) and [`crate::Unified`] (guaranteed flows are GPS flows; all
//! predicted and datagram traffic is aggregated into pseudo-flow 0).
//!
//! # The backlogged list
//!
//! Each deletion step needs `Σ rβ` and the smallest last finish over the
//! flows still backlogged in the fluid system, i.e. those with
//! `last_finish > V + 1e-15`.  Only [`GpsClock::stamp`] can make that
//! predicate true for a flow (it is the only writer of `last_finish`), and
//! because `V` never decreases, a flow that has failed it keeps failing it
//! until its next stamp.  So the clock keeps the positions of the flows
//! that *may* still be backlogged in a list — entered by `stamp`, dropped
//! lazily by the first `advance` step that sees the predicate fail — and a
//! step costs O(backlogged) instead of O(registered): on a port with
//! hundreds of mostly idle reservations the clock touches only the few
//! that have fluid backlog.
//!
//! Three things are pinned, because the virtual time feeds the byte-identity
//! goldens and floating-point addition is not associative:
//!
//! * **the sum order** — the list is kept ascending by position in the
//!   key-sorted flow table, so `Σ rβ` accumulates in ascending key order,
//!   exactly as a scan of the whole table would;
//! * **the call sequence** — `advance(t₁); advance(t₂)` does not in general
//!   land on the same bits as `advance(t₂)` alone (each call rounds
//!   `remaining · slope` once), so callers must keep advancing at the same
//!   instants: the schedulers' dequeue-side `advance` is not redundant;
//! * **the held step** — a scan's smallest last finish `m` and slope `s`
//!   are kept and reused while `m > V + 1e-15`.  The list then holds
//!   exactly the flows that scan kept (only a scan shrinks it, and the
//!   stamp of an idle flow that grows it drops the step), each with a last
//!   finish ≥ `m`, so a new scan would keep them all and sum the same rates
//!   in the same order: the same bits.  `set_rate` and `remove` drop the
//!   step; a stamp of a flow still backlogged changes neither the set nor
//!   its rates and recomputes `m` only if that flow held it; a deletion
//!   jump sets `V = m`, which fails the guard by construction.  A step
//!   also skips its division where the division could not delete: with
//!   `r` the remaining real time, `d = m − V` and `u = 2⁻⁵³`,
//!   `fl(r·s) < fl(d·(1 − 2⁻⁵⁰))` implies `r < (d/s)(1 − 6u)`, so
//!   `fl(d/s) ≥ (d/s)(1 − u) > r` and the `d/s ≤ r` test is false — the
//!   step is `V += r·s`, the product already in hand.  Otherwise it divides
//!   and decides as before.  Debug builds check every reused step against
//!   a fresh scan and every skip against the division.
//!
//! The all-flows scan survives as the test suite's reference clock; a
//! differential property test holds the two to the same bits step for step.

use ispn_sim::SimTime;

/// Identifier of a GPS flow inside one scheduler instance.
///
/// `u64` rather than `FlowId` so that schedulers can add pseudo-flows (the
/// unified scheduler uses [`GpsClock::PSEUDO_FLOW`] for the predicted +
/// datagram aggregate).
pub type GpsFlowKey = u64;

#[derive(Debug, Clone)]
struct GpsFlow {
    /// Clock rate rα in bits per second.
    rate_bps: f64,
    /// Virtual finish time of the flow's most recently arrived bit.
    last_finish: f64,
}

/// Exact GPS virtual time for one link.
///
/// Per-flow state lives in a `Vec` kept sorted by key, not a map: flow
/// counts per link are small-to-moderate, so binary search beats tree
/// traversal on the stamp path, and `advance`'s summation still iterates in
/// ascending key order — the f64 accumulation order that the byte-identity
/// goldens pin down.
#[derive(Debug, Clone)]
pub struct GpsClock {
    link_rate_bps: f64,
    virtual_time: f64,
    last_update: SimTime,
    /// Sorted ascending by key (binary-searched; insertion keeps order).
    flows: Vec<(GpsFlowKey, GpsFlow)>,
    /// Positions in `flows`, ascending, of every flow that may still be
    /// backlogged in the fluid system: a superset of the flows with
    /// `last_finish > V + 1e-15` (see the module docs).  Transient backlog
    /// state bounded by `flows.len()` entries, not reservation state, so
    /// [`state_bytes`](GpsClock::state_bytes) does not count it.
    backlogged: Vec<u32>,
    /// The last `scan`'s answer, reused while a new scan would return the
    /// same bits (module docs); transient, like `backlogged`, and not
    /// counted either.
    step: Option<Step>,
}

/// What a deletion step needs from a scan of the backlogged list.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    /// The smallest `last_finish` among the listed flows.
    next_finish: f64,
    /// `μ / Σ rβ` over the listed flows, summed in list order.
    slope: f64,
}

/// `remaining · slope < (next_finish − V) · NO_DELETION` proves that the
/// step ends short of `next_finish` without dividing (module docs).
const NO_DELETION: f64 = 1.0 - 4.0 * f64::EPSILON;

impl GpsClock {
    /// The flow key the unified scheduler uses for the predicted/datagram
    /// aggregate ("flow 0" in the paper's description).
    pub const PSEUDO_FLOW: GpsFlowKey = u64::MAX;

    /// Create a clock for a link of the given speed.
    pub fn new(link_rate_bps: f64) -> Self {
        assert!(link_rate_bps > 0.0, "link rate must be positive");
        GpsClock {
            link_rate_bps,
            virtual_time: 0.0,
            last_update: SimTime::ZERO,
            flows: Vec::new(),
            backlogged: Vec::new(),
            step: None,
        }
    }

    /// Index of `key` in the sorted flow vector, or where it would insert.
    fn find(&self, key: GpsFlowKey) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Register a flow or update its clock rate.
    ///
    /// The Parekh–Gallager guarantee requires `Σ rα ≤ μ`; this is the
    /// caller's responsibility (checked by admission control, not here),
    /// but the rate itself must be positive.
    pub fn set_rate(&mut self, key: GpsFlowKey, rate_bps: f64) {
        assert!(rate_bps > 0.0, "clock rate must be positive");
        match self.find(key) {
            Ok(i) => self.flows[i].1.rate_bps = rate_bps,
            Err(i) => self.insert(i, key, rate_bps),
        }
        self.step = None;
    }

    /// Insert a new (idle) flow at position `i` of the sorted table and
    /// re-base the backlogged positions at or above it.
    fn insert(&mut self, i: usize, key: GpsFlowKey, rate_bps: f64) {
        let flow = GpsFlow {
            rate_bps,
            last_finish: 0.0,
        };
        self.flows.insert(i, (key, flow));
        for p in &mut self.backlogged {
            if *p as usize >= i {
                *p += 1;
            }
        }
    }

    /// The clock rate of a registered flow.
    pub fn rate(&self, key: GpsFlowKey) -> Option<f64> {
        self.find(key).ok().map(|i| self.flows[i].1.rate_bps)
    }

    /// Deregister a flow, returning its clock rate if it was registered.
    ///
    /// Intended for reservation teardown: the caller should only remove a
    /// flow whose packets have drained (its backlog, if any, simply leaves
    /// the fluid system, which makes the remaining flows' service strictly
    /// better — never worse — so existing guarantees still hold).
    pub fn remove(&mut self, key: GpsFlowKey) -> Option<f64> {
        let i = self.find(key).ok()?;
        self.step = None;
        self.backlogged.retain_mut(|p| {
            let at = *p as usize;
            if at > i {
                *p -= 1;
            }
            at != i
        });
        Some(self.flows.remove(i).1.rate_bps)
    }

    /// Number of registered flows (pseudo-flows included).
    #[cfg(test)]
    fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Structural size of the per-flow clock state in bytes (entry count
    /// × entry size — the deterministic estimation rule shared by the
    /// footprint accounting in `ispn-net`).
    pub fn state_bytes(&self) -> u64 {
        (self.flows.len() * std::mem::size_of::<(GpsFlowKey, GpsFlow)>()) as u64
    }

    /// The link rate this clock was built for.
    #[cfg(test)]
    fn link_rate_bps(&self) -> f64 {
        self.link_rate_bps
    }

    /// The current virtual time (after the most recent [`advance`]).
    ///
    /// [`advance`]: GpsClock::advance
    #[cfg(test)]
    fn virtual_time(&self) -> f64 {
        self.virtual_time
    }

    /// `true` if the fluid system currently has backlog.
    #[cfg(test)]
    pub(crate) fn busy(&self) -> bool {
        self.backlogged
            .iter()
            .any(|&p| self.flows[p as usize].1.last_finish > self.virtual_time + 1e-15)
    }

    /// Advance the virtual time to real time `now`, performing iterated
    /// deletion of flows that empty in the fluid system along the way.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        let mut remaining = (now - self.last_update).as_secs_f64();
        self.last_update = now;

        loop {
            let step = match self.step {
                // Every listed flow is still backlogged: a scan would keep
                // them all and return the held step (module docs).
                Some(held) if held.next_finish > self.virtual_time + 1e-15 => {
                    debug_assert_eq!(self.scan(), Some(held), "a held step is the scan");
                    held
                }
                _ => match self.scan() {
                    Some(step) => step,
                    // Fluid system idle: virtual time does not need to
                    // advance (new arrivals start from max(V, last_finish)
                    // anyway).
                    None => return,
                },
            };
            let dv_to_next = step.next_finish - self.virtual_time;
            let dv = remaining * step.slope;
            if dv < dv_to_next * NO_DELETION {
                // Short of the finish by more than the rounding of either
                // test: the division below would say so too (module docs).
                debug_assert!(dv_to_next / step.slope > remaining);
                self.virtual_time += dv;
                return;
            }
            let dt_to_next = dv_to_next / step.slope;
            if dt_to_next <= remaining {
                // The nearest flow empties within the interval; jump there
                // and re-evaluate the active set.  The held step's minimum
                // is now `V` itself, so the next pass scans.
                self.virtual_time = step.next_finish;
                remaining -= dt_to_next;
                if remaining <= 0.0 {
                    return;
                }
            } else {
                self.virtual_time += dv;
                return;
            }
        }
    }

    /// Sum the rates of the flows still backlogged in the fluid system, in
    /// ascending key order, and find their smallest last finish; the flows
    /// that have emptied leave the list here.  The result is held as
    /// `step` (`None`: the fluid system is idle).
    fn scan(&mut self) -> Option<Step> {
        let mut active_rate = 0.0;
        let mut next_finish = f64::INFINITY;
        let mut kept = 0;
        for at in 0..self.backlogged.len() {
            let p = self.backlogged[at];
            let f = &self.flows[p as usize].1;
            if f.last_finish > self.virtual_time + 1e-15 {
                active_rate += f.rate_bps;
                if f.last_finish < next_finish {
                    next_finish = f.last_finish;
                }
                self.backlogged[kept] = p;
                kept += 1;
            }
        }
        self.backlogged.truncate(kept);
        self.step = (active_rate != 0.0).then(|| Step {
            next_finish,
            slope: self.link_rate_bps / active_rate,
        });
        self.step
    }

    /// Record the arrival of `size_bits` of flow `key` at real time `now`
    /// and return the packet's virtual finishing time
    /// `F = max(V(now), F_prev) + L/rα`.
    ///
    /// # Panics
    /// Panics if the flow has not been registered with [`set_rate`]
    /// (callers decide their own policy for unknown flows).
    ///
    /// [`set_rate`]: GpsClock::set_rate
    pub fn stamp(&mut self, key: GpsFlowKey, size_bits: u64, now: SimTime) -> f64 {
        self.advance(now);
        let i = self
            .find(key)
            .expect("flow must be registered with set_rate before stamping");
        self.stamp_at(i, size_bits)
    }

    /// [`stamp`](GpsClock::stamp) for callers whose policy is to admit
    /// unknown flows: a flow that is not registered is first registered at
    /// `default_rate_bps`, with the same single key lookup.
    pub fn stamp_or_register(
        &mut self,
        key: GpsFlowKey,
        size_bits: u64,
        now: SimTime,
        default_rate_bps: f64,
    ) -> f64 {
        self.advance(now);
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                assert!(default_rate_bps > 0.0, "clock rate must be positive");
                self.insert(i, key, default_rate_bps);
                i
            }
        };
        self.stamp_at(i, size_bits)
    }

    /// Stamp the flow at position `i` against the current virtual time and
    /// enter it in the backlogged list.
    fn stamp_at(&mut self, i: usize, size_bits: u64) -> f64 {
        let v = self.virtual_time;
        let flow = &mut self.flows[i].1;
        // A flow that is still backlogged is listed already; an idle one
        // may be (not yet pruned), so look before inserting.
        let listed = flow.last_finish > v + 1e-15;
        let previous = flow.last_finish;
        let finish = v.max(previous) + size_bits as f64 / flow.rate_bps;
        flow.last_finish = finish;
        if !listed {
            // A newly backlogged flow joins the set a held step summed.
            self.step = None;
            let at = self.backlogged.partition_point(|&p| (p as usize) < i);
            if self.backlogged.get(at) != Some(&(i as u32)) {
                self.backlogged.insert(at, i as u32);
            }
        } else if let Some(held) = self.step.as_mut().filter(|s| s.next_finish == previous) {
            // Same set, same rates, same slope; only the minimum moved.
            held.next_finish = (self.backlogged.iter())
                .map(|&p| self.flows[p as usize].1.last_finish)
                .fold(f64::INFINITY, f64::min);
        }
        finish
    }
}

/// The same clock with no backlogged list: every deletion step scans every
/// registered flow.  The oracle the list-based clock is held to, bit for
/// bit.
#[cfg(test)]
mod reference {
    use super::{GpsFlow, GpsFlowKey, SimTime};

    pub struct ScanClock {
        link_rate_bps: f64,
        pub virtual_time: f64,
        pub last_update: SimTime,
        flows: Vec<(GpsFlowKey, GpsFlow)>,
    }

    impl ScanClock {
        pub fn new(link_rate_bps: f64) -> Self {
            ScanClock {
                link_rate_bps,
                virtual_time: 0.0,
                last_update: SimTime::ZERO,
                flows: Vec::new(),
            }
        }

        fn find(&self, key: GpsFlowKey) -> Result<usize, usize> {
            self.flows.binary_search_by_key(&key, |(k, _)| *k)
        }

        pub fn set_rate(&mut self, key: GpsFlowKey, rate_bps: f64) {
            match self.find(key) {
                Ok(i) => self.flows[i].1.rate_bps = rate_bps,
                Err(i) => {
                    let flow = GpsFlow {
                        rate_bps,
                        last_finish: 0.0,
                    };
                    self.flows.insert(i, (key, flow));
                }
            }
        }

        pub fn rate(&self, key: GpsFlowKey) -> Option<f64> {
            self.find(key).ok().map(|i| self.flows[i].1.rate_bps)
        }

        pub fn remove(&mut self, key: GpsFlowKey) -> Option<f64> {
            self.find(key).ok().map(|i| self.flows.remove(i).1.rate_bps)
        }

        pub fn num_flows(&self) -> usize {
            self.flows.len()
        }

        fn backlogged(&self, f: &GpsFlow) -> bool {
            f.last_finish > self.virtual_time + 1e-15
        }

        pub fn busy(&self) -> bool {
            self.flows.iter().any(|(_, f)| self.backlogged(f))
        }

        /// The next deletion step's `(next_finish, slope)`, or `None` when
        /// the fluid system is idle.
        fn step(&self) -> Option<(f64, f64)> {
            let mut active_rate = 0.0;
            let mut next_finish = f64::INFINITY;
            for (_, f) in &self.flows {
                if self.backlogged(f) {
                    active_rate += f.rate_bps;
                    if f.last_finish < next_finish {
                        next_finish = f.last_finish;
                    }
                }
            }
            (active_rate != 0.0).then(|| (next_finish, self.link_rate_bps / active_rate))
        }

        /// Real time until the nearest backlogged flow empties at the
        /// current slope: where an advance lands on a finish.
        pub fn time_to_next_finish(&self) -> Option<f64> {
            self.step()
                .map(|(next_finish, slope)| (next_finish - self.virtual_time) / slope)
        }

        pub fn advance(&mut self, now: SimTime) {
            if now <= self.last_update {
                return;
            }
            let mut remaining = (now - self.last_update).as_secs_f64();
            self.last_update = now;
            loop {
                let Some((next_finish, slope)) = self.step() else {
                    return;
                };
                let dt_to_next = (next_finish - self.virtual_time) / slope;
                if dt_to_next <= remaining {
                    self.virtual_time = next_finish;
                    remaining -= dt_to_next;
                    if remaining <= 0.0 {
                        return;
                    }
                } else {
                    self.virtual_time += remaining * slope;
                    return;
                }
            }
        }

        pub fn stamp(&mut self, key: GpsFlowKey, size_bits: u64, now: SimTime) -> f64 {
            self.advance(now);
            let v = self.virtual_time;
            let i = self.find(key).expect("registered");
            let flow = &mut self.flows[i].1;
            let finish = v.max(flow.last_finish) + size_bits as f64 / flow.rate_bps;
            flow.last_finish = finish;
            finish
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScanClock;
    use super::*;
    use proptest::prelude::*;

    const MBIT: f64 = 1_000_000.0;

    /// The listed positions are ascending and cover every flow that is
    /// backlogged in the fluid system.
    fn assert_list_invariant(gps: &GpsClock) {
        assert!(gps.backlogged.windows(2).all(|w| w[0] < w[1]));
        for (i, (key, f)) in gps.flows.iter().enumerate() {
            if f.last_finish > gps.virtual_time + 1e-15 {
                assert!(
                    gps.backlogged.contains(&(i as u32)),
                    "backlogged flow {key} is not listed"
                );
            }
        }
    }

    proptest! {
        /// Random interleavings of every mutating call, with time gaps from
        /// zero to seconds: the list-based clock and the all-flows scan
        /// agree on every observable, bit for bit, after every step.  A
        /// third of the ops are advances, so runs of advances with no stamp
        /// between them are common, and half of those land within two
        /// nanoseconds of the instant the nearest backlogged flow empties.
        #[test]
        fn list_clock_matches_the_full_scan_bit_for_bit(
            ops in proptest::collection::vec(
                (0u8..18, 0u64..8, 0u64..1_000_000, 0.0f64..1.0),
                1..160,
            ),
        ) {
            let mut gps = GpsClock::new(MBIT);
            let mut oracle = ScanClock::new(MBIT);
            let mut now = SimTime::ZERO;
            for (step, &(op, selector, m, unit)) in ops.iter().enumerate() {
                let key = if selector == 7 { GpsClock::PSEUDO_FLOW } else { selector * 3 };
                let rate = 10_000.0 + unit * MBIT;
                let near_finish = oracle.time_to_next_finish().map(|dt| {
                    let at = oracle.last_update + SimTime::from_secs_f64(dt);
                    (at + SimTime::from_nanos(m % 5)).saturating_sub(SimTime::from_nanos(2))
                });
                now = match near_finish {
                    Some(at) if op >= 15 => now.max(at),
                    _ => now + SimTime::from_nanos(match m % 4 {
                        0 => 0,
                        1 => m % 1_000,
                        2 => m,
                        _ => m * 5_000,
                    }),
                };
                let size_bits = if m % 97 == 0 { 0 } else { 1 + m % 12_000 };
                match op {
                    0..=5 if oracle.rate(key).is_some() => {
                        let got = gps.stamp(key, size_bits, now);
                        let want = oracle.stamp(key, size_bits, now);
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "stamp at step {}", step);
                    }
                    // An unregistered key: the enqueue-side policy of `Wfq`.
                    0..=6 => {
                        let got = gps.stamp_or_register(key, size_bits, now, rate);
                        if oracle.rate(key).is_none() {
                            oracle.set_rate(key, rate);
                        }
                        let want = oracle.stamp(key, size_bits, now);
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "stamp at step {}", step);
                    }
                    10..=12 => {
                        gps.set_rate(key, rate);
                        oracle.set_rate(key, rate);
                    }
                    13 | 14 => prop_assert_eq!(gps.remove(key), oracle.remove(key)),
                    _ => {
                        gps.advance(now);
                        oracle.advance(now);
                    }
                }
                prop_assert_eq!(
                    gps.virtual_time().to_bits(),
                    oracle.virtual_time.to_bits(),
                    "virtual time after step {} ({:?})", step, ops[step]
                );
                prop_assert_eq!(gps.busy(), oracle.busy(), "busy after step {}", step);
                prop_assert_eq!(gps.rate(key), oracle.rate(key));
                prop_assert_eq!(gps.num_flows(), oracle.num_flows());
                assert_list_invariant(&gps);
            }
        }
    }

    #[test]
    fn list_tracks_the_backlogged_flows_not_the_registered_ones() {
        let mut gps = GpsClock::new(MBIT);
        let mut oracle = ScanClock::new(MBIT);
        for key in 0..200 {
            gps.set_rate(key, MBIT / 200.0);
            oracle.set_rate(key, MBIT / 200.0);
        }
        // Three senders among two hundred reservations, each sending a
        // packet every 3 ms and emptying in between.
        let senders = [7, 90, 198];
        let mut now = SimTime::ZERO;
        for round in 0..400u64 {
            now += SimTime::MILLISECOND;
            let key = senders[(round % 3) as usize];
            let got = gps.stamp(key, 1000, now);
            assert_eq!(got.to_bits(), oracle.stamp(key, 1000, now).to_bits());
            // Listed: the flows backlogged now, plus those that emptied
            // during this step's last deletion and leave at the next.
            assert!(gps.backlogged.len() <= senders.len(), "round {round}");
            assert_list_invariant(&gps);
            // Registering and removing neighbours re-bases the positions.
            if round % 50 == 49 {
                assert_eq!(gps.remove(round), oracle.remove(round));
                gps.set_rate(1_000 + round, 5_000.0);
                oracle.set_rate(1_000 + round, 5_000.0);
                assert_list_invariant(&gps);
            }
        }
        now += SimTime::from_secs(1);
        gps.advance(now);
        oracle.advance(now);
        assert_eq!(gps.virtual_time().to_bits(), oracle.virtual_time.to_bits());
        assert!(!gps.busy());
        assert!(gps.backlogged.is_empty(), "{:?}", gps.backlogged);
    }

    /// A clock and its oracle with the same flows registered.
    fn clocks(rates: &[(GpsFlowKey, f64)]) -> (GpsClock, ScanClock) {
        let mut gps = GpsClock::new(MBIT);
        let mut oracle = ScanClock::new(MBIT);
        for &(key, rate) in rates {
            gps.set_rate(key, rate);
            oracle.set_rate(key, rate);
        }
        (gps, oracle)
    }

    fn stamp_both(
        gps: &mut GpsClock,
        oracle: &mut ScanClock,
        key: GpsFlowKey,
        bits: u64,
        now: SimTime,
    ) {
        let got = gps.stamp(key, bits, now);
        assert_eq!(
            got.to_bits(),
            oracle.stamp(key, bits, now).to_bits(),
            "stamp of {key}"
        );
    }

    fn advance_both(gps: &mut GpsClock, oracle: &mut ScanClock, now: SimTime) {
        gps.advance(now);
        oracle.advance(now);
        assert_eq!(
            gps.virtual_time().to_bits(),
            oracle.virtual_time.to_bits(),
            "virtual time at {now}"
        );
        assert_eq!(gps.busy(), oracle.busy(), "busy at {now}");
        assert_list_invariant(gps);
    }

    #[test]
    fn advances_with_no_stamp_between_them_match_the_scan() {
        let (mut gps, mut oracle) = clocks(&[(1, 150_000.0), (2, 350_000.0), (5, 90_000.0)]);
        for (key, bits) in [(1, 3_000), (2, 12_000), (5, 1_500)] {
            stamp_both(&mut gps, &mut oracle, key, bits, SimTime::ZERO);
        }
        // 16.5 kbit of fluid backlog drains in 16.5 ms: three deletions
        // inside 500 advances of 37 µs each.
        let mut reused = 0;
        for k in 1..=500 {
            reused += u32::from(gps.step.is_some_and(|s| s.next_finish > gps.virtual_time));
            advance_both(&mut gps, &mut oracle, SimTime::from_micros(37 * k));
        }
        assert!(!gps.busy());
        assert!(reused > 400, "{reused} advances reused a held step");
    }

    #[test]
    fn stamping_the_flow_that_holds_the_nearest_finish_moves_it() {
        let (mut gps, mut oracle) = clocks(&[(1, 250_000.0), (2, 250_000.0), (3, 500_000.0)]);
        // Virtual finishes 4, 12 and 8 ms: flow 1 holds the nearest.
        for (key, bits) in [(1, 1_000), (2, 3_000), (3, 4_000)] {
            stamp_both(&mut gps, &mut oracle, key, bits, SimTime::ZERO);
        }
        // Flow 1 is served 75 bits per 300 µs; topping it up by 60–90
        // bits each round keeps its finish ~4 ms ahead of V, the nearest
        // until flow 3's fixed 8 ms comes closer.
        let mut held = 0;
        for round in 1..=60 {
            let now = SimTime::from_micros(300 * round);
            advance_both(&mut gps, &mut oracle, now);
            held += u32::from(gps.step.is_some());
            stamp_both(&mut gps, &mut oracle, 1, 60 + 30 * (round % 2), now);
        }
        advance_both(&mut gps, &mut oracle, SimTime::from_millis(30));
        assert!(!gps.busy());
        assert!(held >= 30, "{held} stamps under a held step");
    }

    #[test]
    fn set_rate_remove_and_new_keys_while_a_step_is_held() {
        for change in 0..4 {
            let (mut gps, mut oracle) = clocks(&[(1, 200_000.0), (4, 300_000.0), (9, 100_000.0)]);
            for (key, bits) in [(1, 2_000), (4, 4_500), (9, 1_200)] {
                stamp_both(&mut gps, &mut oracle, key, bits, SimTime::ZERO);
            }
            let held = SimTime::from_micros(1_500);
            advance_both(&mut gps, &mut oracle, held);
            assert!(gps.step.is_some());
            match change {
                // A backlogged flow's rate changes.
                0 => {
                    gps.set_rate(4, 600_000.0);
                    oracle.set_rate(4, 600_000.0);
                }
                // A backlogged flow leaves.
                1 => assert_eq!(gps.remove(4), oracle.remove(4)),
                // An idle key registers between two listed positions.
                2 => {
                    gps.set_rate(2, 50_000.0);
                    oracle.set_rate(2, 50_000.0);
                }
                // A new key arrives with a packet.
                _ => {
                    let got = gps.stamp_or_register(6, 800, held, 100_000.0);
                    oracle.set_rate(6, 100_000.0);
                    assert_eq!(got.to_bits(), oracle.stamp(6, 800, held).to_bits());
                }
            }
            for k in 2..=40 {
                advance_both(&mut gps, &mut oracle, SimTime::from_micros(750 * k));
            }
            assert!(!gps.busy(), "change {change}");
        }
    }

    /// An advance `r` within an ulp of the real time `d / s` the nearest
    /// flow needs to empty, rounded so that `r · s` stays below the
    /// distance `d` while `d / s ≤ r`: the step must jump onto the finish.
    /// Found by searching flow rates, and `r` over the nanoseconds around
    /// `d / s`, for a pair whose two roundings straddle.
    #[test]
    fn an_advance_that_lands_a_few_ulps_from_a_finish_matches_the_scan() {
        let straddle = (1..100_000u32)
            .map(|k| 1_000.0 + 7.0 * f64::from(k))
            .find_map(|rate| {
                let (d, slope) = (1_000.0 / rate, MBIT / rate);
                let near = SimTime::from_secs_f64(d / slope);
                (0..5u64)
                    .map(|ns| {
                        (near + SimTime::from_nanos(ns)).saturating_sub(SimTime::from_nanos(2))
                    })
                    .find(|r| {
                        let r = r.as_secs_f64();
                        r * slope < d && d / slope <= r
                    })
                    .map(|r| (rate, r))
            });
        let (rate, r) = straddle.expect("some rate rounds both ways");
        let (mut gps, mut oracle) = clocks(&[(3, rate), (8, MBIT / 2.0)]);
        stamp_both(&mut gps, &mut oracle, 3, 1_000, SimTime::ZERO);
        advance_both(&mut gps, &mut oracle, r);
        assert_eq!(
            oracle.virtual_time,
            1_000.0 / rate,
            "the step lands on the finish"
        );
    }

    #[test]
    fn single_flow_finish_times_accumulate_at_flow_rate() {
        let mut gps = GpsClock::new(MBIT);
        gps.set_rate(1, 100_000.0); // 100 kbit/s
                                    // Two 1000-bit packets arriving back to back at t=0: finishes at
                                    // 10 ms and 20 ms of *virtual* time (1000 bits / 100 kbit/s each).
        let f1 = gps.stamp(1, 1000, SimTime::ZERO);
        let f2 = gps.stamp(1, 1000, SimTime::ZERO);
        assert!((f1 - 0.01).abs() < 1e-12);
        assert!((f2 - 0.02).abs() < 1e-12);
    }

    #[test]
    fn virtual_time_advances_faster_when_few_flows_active() {
        let mut gps = GpsClock::new(MBIT);
        gps.set_rate(1, 500_000.0);
        gps.set_rate(2, 500_000.0);
        // Only flow 1 is backlogged: with Σ_active r = 0.5 Mbit/s the
        // virtual clock runs at slope 2 (relative to real time).
        let f1 = gps.stamp(1, 1000, SimTime::ZERO);
        assert!((f1 - 0.002).abs() < 1e-12);
        gps.advance(SimTime::from_micros(500));
        // 500 µs of real time at slope 2 = 1 ms of virtual time.
        assert!((gps.virtual_time() - 0.001).abs() < 1e-12);
        assert!(gps.busy());
        gps.advance(SimTime::from_millis(10));
        // The flow emptied (at virtual 2 ms = real 1 ms); after that the
        // clock stops advancing because the fluid system is idle.
        assert!((gps.virtual_time() - 0.002).abs() < 1e-12);
        assert!(!gps.busy());
    }

    #[test]
    fn iterated_deletion_changes_slope() {
        let mut gps = GpsClock::new(MBIT);
        gps.set_rate(1, 250_000.0);
        gps.set_rate(2, 750_000.0);
        // Flow 1 gets one 1000-bit packet (virtual finish 4 ms), flow 2 gets
        // three (virtual finish 4 ms as well: 3*1000/750k).
        gps.stamp(1, 1000, SimTime::ZERO);
        gps.stamp(2, 1000, SimTime::ZERO);
        gps.stamp(2, 1000, SimTime::ZERO);
        gps.stamp(2, 1000, SimTime::ZERO);
        // Both flows are active; total active rate = link rate, slope 1.
        // Everything finishes at virtual time 4 ms = real 4 ms.
        gps.advance(SimTime::from_millis(4));
        assert!((gps.virtual_time() - 0.004).abs() < 1e-9);
        assert!(!gps.busy());
    }

    #[test]
    fn idle_period_resumes_from_current_virtual_time() {
        let mut gps = GpsClock::new(MBIT);
        gps.set_rate(1, MBIT);
        let f1 = gps.stamp(1, 1000, SimTime::ZERO);
        assert!((f1 - 0.001).abs() < 1e-12);
        // Long idle gap; a new packet starts from V (not from the stale
        // last_finish) and V has stopped at 1 ms.
        let f2 = gps.stamp(1, 1000, SimTime::from_secs(5));
        assert!((f2 - 0.002).abs() < 1e-12);
    }

    #[test]
    fn stamp_respects_backlog_ordering() {
        let mut gps = GpsClock::new(MBIT);
        gps.set_rate(1, 100_000.0);
        gps.set_rate(2, 900_000.0);
        let f_slow = gps.stamp(1, 1000, SimTime::ZERO);
        let f_fast = gps.stamp(2, 1000, SimTime::ZERO);
        // The fast flow's packet finishes earlier in the fluid system.
        assert!(f_fast < f_slow);
    }

    #[test]
    #[should_panic]
    fn stamping_unregistered_flow_panics() {
        let mut gps = GpsClock::new(MBIT);
        let _ = gps.stamp(3, 1000, SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn zero_link_rate_rejected() {
        let _ = GpsClock::new(0.0);
    }

    #[test]
    fn rate_accessors() {
        let mut gps = GpsClock::new(MBIT);
        gps.set_rate(1, 100_000.0);
        gps.set_rate(2, 200_000.0);
        assert_eq!(gps.rate(1), Some(100_000.0));
        assert_eq!(gps.rate(9), None);
        assert_eq!(gps.link_rate_bps(), MBIT);
        gps.set_rate(1, 150_000.0);
        assert_eq!(gps.rate(1), Some(150_000.0));
    }
}
