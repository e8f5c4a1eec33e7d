//! Asserts the engine's steady-state claim: with the sink off and no
//! failure plan, driving items through a pre-sized [`InteractiveSim`]
//! performs **zero heap allocations per event** — every table, heap,
//! index and resident list was reserved up front or recycles a warmed
//! buffer.
//!
//! A counting global allocator makes the claim checkable: the run's first
//! half warms every pool (bin resident lists enter the recycling pool as
//! bins close, vector capacities settle), then the allocation counter is
//! snapshotted and the second half must not move it.
//!
//! This file intentionally holds exactly ONE `#[test]`: the counter is
//! global, so a concurrently running test in the same binary would
//! pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::engine::InteractiveSim;
use dbp_core::item::Item;
use dbp_core::{NoopSink, SimConfig};

/// System allocator wrapper that counts allocation calls (alloc and
/// realloc; frees don't matter for the steady-state claim).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Minimal First-Fit via the store's tournament tree (local copy: dbp-core
/// tests cannot depend on dbp-algos without a dev-dependency cycle).
struct Ff;

impl OnlineAlgorithm for Ff {
    fn name(&self) -> &str {
        "ff-zero-alloc"
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        match view.first_fit(item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenNew,
        }
    }

    fn reset(&mut self) {}
}

/// Deterministic workload without pulling in dbp-workloads (another
/// dev-dependency cycle): splitmix64-driven arrivals with bounded
/// durations and a uniform size of 1/10, so every bin tops out at exactly
/// ten residents — resident-list capacities converge during warm-up while
/// churn (open/close cycles) keeps happening constantly.
fn synth_items(n: usize) -> Vec<(u64, u64, u64)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            let dur = 1 + next() % 64;
            let out = (t, dur, 10);
            t += next() % 3; // mean gap 1
            out
        })
        .collect()
}

#[test]
fn steady_state_loop_allocates_nothing() {
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    const N: usize = 40_000;
    let items = synth_items(N);
    // Sink off (NoopSink default), failures off, capacity pre-reserved.
    let mut sim = InteractiveSim::new(Ff, N, SimConfig::default(), NoopSink);

    // Warm-up: first half fills the tables, settles vector capacities and
    // stocks the bin store's resident-list recycling pool.
    let half = N / 2;
    for &(t, dur, num) in &items[..half] {
        sim.arrive_at(Time(t), Dur(dur), Size::from_ratio(num, 100))
            .expect("legal placement");
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for &(t, dur, num) in &items[half..] {
        sim.arrive_at(Time(t), Dur(dur), Size::from_ratio(num, 100))
            .expect("legal placement");
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state arrivals+departures must not allocate \
         ({} allocations over {} items)",
        after - before,
        N - half
    );

    // The run stays meaningful: bins churned in the measured phase.
    let opened = sim.bins_opened();
    let (_, result) = sim.finish();
    assert!(opened > 100, "workload must churn bins (opened {opened})");
    assert_eq!(result.assignment.len(), N);
}
