//! Fault injection for the serving layer: server-crash schedules,
//! re-admission backoff policies, and the resilience ledger.
//!
//! A [`FailurePlan`] tells the engine *when bins die*. A bin failure at
//! time `t` displaces every in-flight item of that bin (each emitted as an
//! `ItemDisplaced` event, the bin itself as `BinFailed`), after which each
//! displaced item is re-admitted through the online algorithm as a fresh
//! arrival at `t + delay`, where the delay comes from a [`RetryPolicy`].
//! An item whose re-admission would land at or past its original departure
//! is *dropped* instead. All of it is tallied in a [`ResilienceReport`]
//! returned beside the run metrics.
//!
//! Two plan shapes exist:
//!
//! * [`FailurePlan::scripted`] — an explicit `(time, bin)` crash schedule
//!   (what the chaos generator in `dbp-workloads` emits). Crashes naming a
//!   bin that is not open at fire time are no-ops.
//! * [`FailurePlan::seeded`] — each bin draws its fate when it opens, from
//!   a splitmix64 stream keyed on `(seed, bin id)`: with probability
//!   `rate` the bin is doomed and crashes a bounded random delay after
//!   opening. Because bin ids are allocated deterministically, the whole
//!   crash schedule is a pure function of `(algorithm, instance, seed)` —
//!   seeded runs replay bit-identically.
//!
//! The empty plan ([`FailurePlan::none`]) is the default everywhere and is
//! guaranteed to leave the engine's output — cost, assignment, event
//! stream, metrics — bit-identical to a build without the failure layer at
//! all (DESIGN.md §11).

use core::fmt;

use crate::bin_state::BinId;
use crate::cost::Area;
use crate::time::{Dur, Time};

/// When (and whether) servers crash during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FailurePlan {
    /// No failures: the engine behaves exactly as if the failure layer did
    /// not exist.
    #[default]
    None,
    /// An explicit crash schedule: `(time, bin)` pairs. Entries whose bin
    /// is not open when the time arrives are silently skipped.
    Scripted(Vec<(Time, BinId)>),
    /// Seeded random crashes: each bin is doomed independently with
    /// probability `rate` the moment it opens, and a doomed bin crashes
    /// `1 + (u mod mtbf)` ticks later (`u` from the bin's splitmix64
    /// stream).
    Seeded {
        /// Probability, in `[0, 1]`, that a freshly-opened bin will crash.
        rate: f64,
        /// Stream seed; same seed → same crash schedule.
        seed: u64,
        /// Upper bound (exclusive, plus one tick) on the open-to-crash
        /// delay of a doomed bin.
        mtbf: Dur,
    },
}

impl FailurePlan {
    /// The empty plan (no failures ever).
    pub fn none() -> FailurePlan {
        FailurePlan::None
    }

    /// An explicit `(time, bin)` crash schedule.
    pub fn scripted(schedule: Vec<(Time, BinId)>) -> FailurePlan {
        FailurePlan::Scripted(schedule)
    }

    /// A seeded random plan (see the type-level docs for the model).
    ///
    /// # Panics
    /// Panics if `rate` is not a probability or `mtbf` is zero.
    pub fn seeded(rate: f64, seed: u64, mtbf: Dur) -> FailurePlan {
        assert!(
            (0.0..=1.0).contains(&rate),
            "failure rate {rate} is not a probability"
        );
        assert!(!mtbf.is_zero(), "mtbf must be at least one tick");
        if rate == 0.0 {
            // A zero rate must be *exactly* the empty plan, so the
            // bit-identity guarantee holds by construction.
            return FailurePlan::None;
        }
        FailurePlan::Seeded { rate, seed, mtbf }
    }

    /// Whether this plan can ever fire.
    pub fn is_none(&self) -> bool {
        matches!(self, FailurePlan::None)
            || matches!(self, FailurePlan::Scripted(s) if s.is_empty())
    }

    /// Room to reserve for the re-admission clones a run of `items`
    /// arrivals creates, which take row-table rows past the arrivals. A
    /// seeded plan dooms each bin with probability `rate`, so about a
    /// `rate` share of rows, clones included, is displaced at most:
    /// `items · rate / (1 − rate)` clones, capped at `items`. Other plans
    /// reserve nothing (a scripted schedule names bins, not residents).
    pub(crate) fn clone_headroom(&self, items: usize) -> usize {
        match *self {
            FailurePlan::Seeded { rate, .. } if rate < 1.0 => {
                ((items as f64 * rate / (1.0 - rate)).ceil() as usize).min(items)
            }
            FailurePlan::Seeded { .. } => items,
            _ => 0,
        }
    }

    /// Decides the crash time (if any) for bin `bin` opening at `t`.
    /// Only [`FailurePlan::Seeded`] answers here; scripted schedules are
    /// queued up-front by the engine.
    pub(crate) fn crash_time(&self, bin: BinId, t: Time) -> Option<Time> {
        let FailurePlan::Seeded { rate, seed, mtbf } = *self else {
            return None;
        };
        let h = splitmix64(seed ^ (u64::from(bin.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // 53 high bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= rate {
            return None;
        }
        let delay = 1 + splitmix64(h) % mtbf.ticks();
        Some(t.saturating_add(Dur(delay)))
    }
}

/// The splitmix64 step: a full-period 64-bit mixer, good enough for crash
/// scheduling and dependency-free (the workspace's `rand` is a shim).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How long a displaced item waits before it is re-admitted.
///
/// `attempt` counts how many times the *same logical request* has been
/// displaced so far (1 on the first displacement), so exponential backoff
/// grows across repeated failures of the same request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Re-admit in the same tick the failure happened.
    #[default]
    Immediate,
    /// Re-admit after a fixed delay.
    Fixed(Dur),
    /// Re-admit after `base · 2^(attempt−1)` ticks (saturating).
    Exponential {
        /// First-attempt delay.
        base: Dur,
    },
}

impl RetryPolicy {
    /// The wait before re-admission on the `attempt`-th displacement
    /// (`attempt ≥ 1`).
    pub fn delay(&self, attempt: u32) -> Dur {
        match *self {
            RetryPolicy::Immediate => Dur::ZERO,
            RetryPolicy::Fixed(d) => d,
            RetryPolicy::Exponential { base } => {
                let shift = attempt.saturating_sub(1).min(63);
                Dur(base.ticks().saturating_mul(1u64 << shift))
            }
        }
    }

    /// Parses the CLI spelling: `immediate`, `fixed=<ticks>`, or
    /// `exp=<ticks>` / `exponential=<ticks>`.
    pub fn parse(s: &str) -> Option<RetryPolicy> {
        if s == "immediate" {
            return Some(RetryPolicy::Immediate);
        }
        if let Some(d) = s.strip_prefix("fixed=") {
            return d.parse().ok().map(|t| RetryPolicy::Fixed(Dur(t)));
        }
        if let Some(d) = s
            .strip_prefix("exp=")
            .or_else(|| s.strip_prefix("exponential="))
        {
            return d
                .parse()
                .ok()
                .map(|t| RetryPolicy::Exponential { base: Dur(t) });
        }
        None
    }
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryPolicy::Immediate => write!(f, "immediate"),
            RetryPolicy::Fixed(d) => write!(f, "fixed={}", d.ticks()),
            RetryPolicy::Exponential { base } => write!(f, "exp={}", base.ticks()),
        }
    }
}

/// The failure-side ledger of one run, reported beside
/// [`crate::engine::RunMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Bins that crashed while holding at least one item, plus crashes of
    /// open-but-empty bins. Scheduled crashes of bins already closed are
    /// not counted (they never fired).
    pub bin_failures: u64,
    /// Items displaced by crashes (each displacement counts, so a request
    /// bounced twice contributes two).
    pub displacements: u64,
    /// Displaced items successfully re-admitted through the algorithm.
    pub readmissions: u64,
    /// Displaced items whose re-admission would have landed at or past
    /// their original departure — their remaining service is lost.
    pub dropped: u64,
    /// `Σ size · (service gap)` over all displacements: the demand-area
    /// that was requested but not served while items waited out their
    /// backoff (for dropped items, the whole remaining interval).
    pub degraded_area: Area,
    /// The largest displacement count any single logical request reached.
    pub max_attempts: u32,
}

impl ResilienceReport {
    /// Whether the run saw any failure activity at all. `false` is the
    /// bit-identity regime: the run's observable output matches a plain
    /// run exactly.
    pub fn any(&self) -> bool {
        *self != ResilienceReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_collapses_to_the_empty_plan() {
        assert_eq!(FailurePlan::seeded(0.0, 42, Dur(10)), FailurePlan::None);
        assert!(FailurePlan::seeded(0.0, 42, Dur(10)).is_none());
        assert!(FailurePlan::scripted(vec![]).is_none());
        assert!(!FailurePlan::seeded(0.5, 42, Dur(10)).is_none());
    }

    #[test]
    fn seeded_crash_times_are_deterministic_and_bounded() {
        let plan = FailurePlan::seeded(1.0, 7, Dur(16));
        for bin in 0..64u32 {
            let a = plan.crash_time(BinId(bin), Time(100));
            let b = plan.crash_time(BinId(bin), Time(100));
            assert_eq!(a, b, "same (seed, bin) → same fate");
            let t = a.expect("rate 1.0 dooms every bin");
            assert!(t > Time(100), "crash strictly after opening");
            assert!(t <= Time(116), "delay bounded by mtbf");
        }
    }

    #[test]
    fn seeded_rate_is_roughly_honoured() {
        let plan = FailurePlan::seeded(0.25, 3, Dur(8));
        let doomed = (0..4000u32)
            .filter(|&b| plan.crash_time(BinId(b), Time(0)).is_some())
            .count();
        // 4000 draws at p=0.25: expect ~1000, allow a wide deterministic
        // margin.
        assert!((800..1200).contains(&doomed), "doomed = {doomed}");
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn out_of_range_rate_panics() {
        let _ = FailurePlan::seeded(1.5, 0, Dur(1));
    }

    #[test]
    fn clone_headroom_follows_the_rate() {
        assert_eq!(FailurePlan::none().clone_headroom(1000), 0);
        let scripted = FailurePlan::scripted(vec![(Time(3), BinId(0))]);
        assert_eq!(scripted.clone_headroom(1000), 0);
        let seeded = |rate| FailurePlan::seeded(rate, 1, Dur(8));
        assert_eq!(seeded(0.05).clone_headroom(300_000), 15_790);
        assert_eq!(seeded(0.5).clone_headroom(1000), 1000);
        assert_eq!(seeded(1.0).clone_headroom(1000), 1000);
        assert_eq!(seeded(0.05).clone_headroom(0), 0);
    }

    #[test]
    fn retry_delays() {
        assert_eq!(RetryPolicy::Immediate.delay(1), Dur::ZERO);
        assert_eq!(RetryPolicy::Immediate.delay(9), Dur::ZERO);
        assert_eq!(RetryPolicy::Fixed(Dur(5)).delay(1), Dur(5));
        assert_eq!(RetryPolicy::Fixed(Dur(5)).delay(4), Dur(5));
        let exp = RetryPolicy::Exponential { base: Dur(3) };
        assert_eq!(exp.delay(1), Dur(3));
        assert_eq!(exp.delay(2), Dur(6));
        assert_eq!(exp.delay(4), Dur(24));
        // Saturation, not overflow.
        assert_eq!(exp.delay(200), Dur(u64::MAX));
    }

    #[test]
    fn retry_parse_round_trips() {
        for s in ["immediate", "fixed=12", "exp=4"] {
            let p = RetryPolicy::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert_eq!(
            RetryPolicy::parse("exponential=4"),
            Some(RetryPolicy::Exponential { base: Dur(4) })
        );
        assert_eq!(RetryPolicy::parse("never"), None);
        assert_eq!(RetryPolicy::parse("fixed=x"), None);
    }

    #[test]
    fn fresh_report_reads_as_no_activity() {
        let r = ResilienceReport::default();
        assert!(!r.any());
        let r = ResilienceReport {
            bin_failures: 1,
            ..ResilienceReport::default()
        };
        assert!(r.any());
    }
}
