//! CDFF — Classify-by-Duration-First-Fit (paper, Algorithm 2; Theorem 5.1).
//!
//! CDFF is designed for *aligned* inputs (Definition 2.1): items of
//! duration class `i` (length in `(2^{i-1}, 2^i]`) arrive only at multiples
//! of `2^i`. It maintains *rows* of bins. At any moment `t`, let `m_t` be
//! the largest class that may legally arrive at `t` (for `t > 0` this is
//! the number of trailing zero bits of `t`; at the segment origin it is the
//! largest class arriving there). An arriving item of class `i` is packed
//! First-Fit into **row `m_t − i`**, opening a new bin at the end of the
//! row when none fits; a bin leaves its row when it empties.
//!
//! The row indirection is the whole trick: row 0 always receives the
//! *largest currently arrivable* class, row 1 the next, and so on — so the
//! number of non-empty rows at time `t` on the worst-case binary input is
//! exactly `max_0(binary(t)) + 1`, the longest run of zeros in the binary
//! counter (Corollary 5.8), whose time-average is `O(log log μ)`
//! (Lemma 5.9).
//!
//! ## Adapting without knowing μ
//!
//! The paper first normalises the input: partition it into segments
//! `σ_0, σ_1, …` such that each segment starts at a time `t_0` where a
//! longest-so-far item arrives, and all items of the segment live in
//! `[t_0, t_0 + μ_0]` where `μ_0 = 2^{⌈log μ'⌉}` for the longest item
//! length `μ'` arriving at `t_0`. [`Cdff`] implements the segmentation
//! inline: it tracks the current segment origin and resets its rows when an
//! arrival falls at or beyond the segment end (by then every bin has
//! emptied — guaranteed for aligned inputs, asserted in debug builds).
//!
//! Rows are keyed internally by a *virtual* index that is stable while the
//! segment's `m` is still being discovered during the `t_0` arrivals: at
//! `t = t_0` an item of class `i` uses virtual key `v = i`; at `t > t_0`,
//! `v = n − m_t + i` where `n` (the segment's top class) is frozen once the
//! clock moves. Both agree with the paper's `row r = m_t − i` under the
//! order-reversing relabeling `r = n − v`. Each row is the engine bin
//! class numbered by its virtual key, so the rows themselves live in the
//! engine's bin store: [`Cdff`] keeps only the segment frame.

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::bin_state::{BinClass, BinId, BinStore};
use dbp_core::item::Item;
use dbp_core::time::Time;

/// The CDFF algorithm with inline aligned-input segmentation.
///
/// ```
/// use dbp_algos::Cdff;
/// use dbp_core::{engine, Instance, Size, Time, Dur};
///
/// // An aligned input: class-i items at multiples of 2^i.
/// let inst = Instance::from_triples([
///     (Time(0), Dur(4), Size::from_ratio(1, 4)),
///     (Time(0), Dur(1), Size::from_ratio(1, 4)),
///     (Time(1), Dur(1), Size::from_ratio(1, 4)),
///     (Time(2), Dur(2), Size::from_ratio(1, 4)),
/// ]).unwrap();
/// assert!(inst.is_aligned());
/// let res = engine::run(&inst, Cdff::new()).unwrap();
/// assert!(res.cost.as_bin_ticks() >= 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdff {
    /// Current segment origin `t_0`.
    origin: Option<Time>,
    /// Top duration class `n` of the current segment (largest class seen
    /// among the `t_0` arrivals; frozen once `t > t_0`).
    top_class: u32,
    /// End of the current segment: `t_0 + 2^n`.
    segment_end: Time,
}

impl Cdff {
    /// Creates CDFF.
    pub fn new() -> Cdff {
        Cdff::default()
    }

    /// Open-bin count per row of a CDFF-packed store (sorted by paper row
    /// index, i.e. largest virtual key = row 0 first); used by the
    /// Figure 1/3 renderers.
    pub fn row_sizes(bins: &BinStore) -> Vec<(u32, usize)> {
        Cdff::rows_detail(bins)
            .into_iter()
            .map(|(k, bins)| (k, bins.len()))
            .collect()
    }

    /// The full row structure of a CDFF-packed store: `(virtual_key, bins
    /// in opening order)`, sorted with the paper's row 0 (largest virtual
    /// key) first. The paper's row index of an entry is
    /// `top_class − virtual_key`.
    pub fn rows_detail(bins: &BinStore) -> Vec<(u32, Vec<BinId>)> {
        let mut v: Vec<(u32, Vec<BinId>)> = bins
            .open_classes()
            .map(|row| (Cdff::key_of(row), bins.bins_in(row).map(|r| r.id).collect()))
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.0));
        v
    }

    /// The current segment's top duration class `n` (0 before any arrival).
    pub fn top_class(&self) -> u32 {
        self.top_class
    }

    /// The virtual row key of an *open* bin of a CDFF-packed store (None
    /// once it closed). The paper's row index is `top_class − key`.
    pub fn row_of_bin(bins: &BinStore, bin: BinId) -> Option<u32> {
        let rec = bins.record(bin).filter(|r| r.is_open())?;
        rec.class.map(Cdff::key_of)
    }

    /// The virtual key of a row's bin class (the class number is the key).
    fn key_of(row: BinClass) -> u32 {
        u32::try_from(row.0).expect("CDFF row classes are u32 keys")
    }

    /// The virtual row key for an item of class `i` arriving at `t`.
    fn virtual_key(&mut self, t: Time, item_class: u32) -> u32 {
        let origin = *self.origin.get_or_insert(t);
        if t == origin {
            // Discovering the segment: every class its own row, keyed by
            // the class itself; track the top class.
            self.top_class = self.top_class.max(item_class);
            self.segment_end = Time(
                origin
                    .ticks()
                    .checked_add(1u64 << self.top_class)
                    .expect("segment end overflow"),
            );
            item_class
        } else {
            let rel = t.since(origin).ticks();
            debug_assert!(rel > 0);
            let m_t = rel.trailing_zeros().min(63);
            // Paper row: r = m_t − i; virtual key v = n − r = n − m_t + i.
            // For genuinely aligned inputs i ≤ m_t ≤ n, so v ∈ [n − m_t, n]
            // stays in range; for misaligned inputs (defensive path) we
            // saturate, which still yields a valid First-Fit packing.
            (self.top_class as i64 - m_t as i64 + item_class as i64).clamp(0, u32::MAX as i64)
                as u32
        }
    }

    fn maybe_start_new_segment(&mut self, t: Time, open_bins: usize) {
        if let Some(origin) = self.origin {
            // For aligned inputs every bin has emptied by the segment end
            // (all segment items depart within it), so a reset is safe. On
            // misaligned inputs (defensive path) bins may straddle the
            // boundary; then we keep the old frame, which still yields a
            // valid First-Fit packing, just without the aligned guarantee.
            if t >= self.segment_end && t > origin && open_bins == 0 {
                self.origin = Some(t);
                self.top_class = 0;
                self.segment_end = t + dbp_core::time::Dur(1);
            }
        }
    }
}

impl OnlineAlgorithm for Cdff {
    fn name(&self) -> &str {
        "cdff"
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        self.maybe_start_new_segment(item.arrival, view.open_count());
        let row = BinClass(u64::from(
            self.virtual_key(item.arrival, item.class_index()),
        ));
        // First-Fit within the row: one O(log row) partition descent.
        match view.first_fit_in(row, item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenIn(row),
        }
    }

    fn reset(&mut self) {
        self.origin = None;
        self.top_class = 0;
        self.segment_end = Time::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::engine;
    use dbp_core::instance::Instance;
    use dbp_core::size::Size;
    use dbp_core::time::Dur;

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    /// The binary input σ_8 of the paper's Figures 2–3: durations 1,2,4,8;
    /// duration 2^i at every multiple of 2^i in [0, 8). The paper states
    /// loads of 1/log μ, but at any moment log μ + 1 items are active (one
    /// per length), so for them to share one bin at t = μ−1 the load must
    /// be 1/(log μ + 1) — we use 1/4.
    fn sigma_8() -> Instance {
        let mu = 8u64;
        let mut triples = Vec::new();
        for i in 0..=3u32 {
            let d = 1u64 << i;
            let mut t = 0;
            while t < mu {
                triples.push((Time(t), Dur(d), sz(1, 4)));
                t += d;
            }
        }
        // Arrival order at equal times: longest first (the order does not
        // matter for the row structure since every class has its own row).
        let mut b = dbp_core::instance::InstanceBuilder::new();
        let mut sorted = triples;
        sorted.sort_by_key(|&(t, d, _)| (t, std::cmp::Reverse(d.ticks())));
        for (t, d, s) in sorted {
            b.push(t, d, s);
        }
        b.build().unwrap()
    }

    /// `max_0`: longest run of zeros in the `bits`-wide binary expansion.
    fn max0(t: u64, bits: u32) -> u32 {
        let mut best = 0;
        let mut run = 0;
        for k in 0..bits {
            if (t >> k) & 1 == 0 {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }

    #[test]
    fn corollary_5_8_on_sigma_8() {
        let inst = sigma_8();
        assert!(inst.is_aligned());
        let res = engine::run(&inst, Cdff::new()).unwrap();
        // CDFF_{t+}(σ_μ) = max_0(binary(t)) + 1, binary(t) over log μ bits.
        for t in 0..8u64 {
            assert_eq!(
                res.open_at(Time(t)),
                max0(t, 3) as usize + 1,
                "open bins at t={t}"
            );
        }
    }

    #[test]
    fn corollary_5_8_on_sigma_64() {
        let mu = 64u64;
        let bits = 6u32;
        let mut b = dbp_core::instance::InstanceBuilder::new();
        let mut triples = Vec::new();
        for i in 0..=bits {
            let d = 1u64 << i;
            let mut t = 0;
            while t < mu {
                triples.push((Time(t), Dur(d), sz(1, bits as u64 + 1)));
                t += d;
            }
        }
        triples.sort_by_key(|&(t, d, _)| (t, std::cmp::Reverse(d.ticks())));
        for (t, d, s) in triples {
            b.push(t, d, s);
        }
        let inst = b.build().unwrap();
        let res = engine::run(&inst, Cdff::new()).unwrap();
        for t in 0..mu {
            assert_eq!(
                res.open_at(Time(t)),
                max0(t, bits) as usize + 1,
                "open bins at t={t}"
            );
        }
    }

    #[test]
    fn rows_not_classes_share_bins_over_time() {
        // σ_8 structure: at t=1 only length-1 items may arrive (m_t = 0) so
        // a length-1 item at t=1 goes to row 0 — the SAME row that held the
        // length-8 item at t=0. With small loads they share the row but not
        // the bin (the t=0 row-0 bin still holds the length-8 item... they
        // can actually share the bin if it fits — that is the point of
        // dynamic rows).
        let inst = sigma_8();
        let res = engine::run(&inst, Cdff::new()).unwrap();
        // Item of duration 8 at t=0 and item of duration 1 at t=1: same bin.
        let d8 = inst
            .items()
            .iter()
            .find(|it| it.duration() == Dur(8))
            .unwrap();
        let d1_at_1 = inst
            .items()
            .iter()
            .find(|it| it.duration() == Dur(1) && it.arrival == Time(1))
            .unwrap();
        assert_eq!(
            res.assignment[d8.id.index()],
            res.assignment[d1_at_1.id.index()],
            "dynamic rows route the t=1 unit item into the long item's bin"
        );
    }

    #[test]
    fn segment_reset_after_gap() {
        // Segment 1: a length-4 item at t=0 (top class 2, segment [0,4)).
        // Segment 2 starts at t=8 with fresh rows.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(0), Dur(1), sz(1, 2)),
            (Time(8), Dur(4), sz(1, 2)),
            (Time(8), Dur(1), sz(1, 2)),
        ])
        .unwrap();
        assert!(inst.is_aligned());
        let res = engine::run(&inst, Cdff::new()).unwrap();
        let audit = dbp_core::assignment::audit(&inst, &res.assignment).unwrap();
        assert_eq!(audit.cost, res.cost);
        assert_eq!(res.bins_opened, 4, "two rows per segment");
    }

    #[test]
    fn discovering_top_class_during_t0_arrivals() {
        // At t=0 items arrive short-first: classes 0, 1, 2. The rows must
        // end up distinct regardless of discovery order.
        let inst = Instance::from_triples([
            (Time(0), Dur(1), sz(2, 3)),
            (Time(0), Dur(2), sz(2, 3)),
            (Time(0), Dur(4), sz(2, 3)),
        ])
        .unwrap();
        let res = engine::run(&inst, Cdff::new()).unwrap();
        assert_eq!(res.bins_opened, 3);
    }

    #[test]
    fn within_row_first_fit_opens_overflow_bins() {
        // Four class-2 items at t=0 of size 2/3: row 2 grows to 4 bins
        // (b^1..b^4 in the paper's notation).
        let triples: Vec<_> = (0..4).map(|_| (Time(0), Dur(4), sz(2, 3))).collect();
        let inst = Instance::from_triples(triples).unwrap();
        let res = engine::run(&inst, Cdff::new()).unwrap();
        assert_eq!(res.bins_opened, 4);
        assert_eq!(res.max_open, 4);
    }

    #[test]
    fn packing_valid_on_random_aligned_input() {
        // Deterministic pseudo-random aligned instance.
        let mut triples = Vec::new();
        let mut x = 0x12345678u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let i = (step() % 5) as u32; // class 0..4
            let d = 1u64 << i;
            let slot = step() % 16;
            let t = slot * d;
            let s = 1 + step() % 40;
            triples.push((Time(t), Dur(d), sz(s, 40)));
        }
        let inst = Instance::from_triples(triples).unwrap();
        assert!(inst.is_aligned());
        let res = engine::run(&inst, Cdff::new()).unwrap();
        let audit = dbp_core::assignment::audit(&inst, &res.assignment).unwrap();
        assert_eq!(audit.cost, res.cost);
    }

    #[test]
    fn misaligned_input_still_packs_validly() {
        // CDFF's guarantees need alignment, but its packing must stay
        // feasible on any input (defensive path).
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(3), Dur(3), sz(1, 2)), // class 2 arriving off-grid
            (Time(5), Dur(1), sz(1, 2)),
        ])
        .unwrap();
        assert!(!inst.is_aligned());
        let res = engine::run(&inst, Cdff::new()).unwrap();
        let audit = dbp_core::assignment::audit(&inst, &res.assignment).unwrap();
        assert_eq!(audit.cost, res.cost);
    }
}
