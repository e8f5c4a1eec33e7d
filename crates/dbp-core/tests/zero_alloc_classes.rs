//! Asserts the steady-state zero-allocation claim for *classed*
//! algorithms: with the sink off and no failure plan, a pre-sized
//! [`InteractiveSim`] whose algorithm opens every bin in a bin class
//! ([`Placement::OpenIn`]) performs **zero heap allocations per event**,
//! even though classes keep being born and dying. The store recycles an
//! emptied class's partition with its buffers, addresses partition
//! members by slot, and grows trees in place.
//!
//! The run's first half warms every pool (partitions, resident lists,
//! the class map), then the allocation counter is snapshotted and the
//! second half must not move it.
//!
//! This file intentionally holds exactly ONE `#[test]`: the counter is
//! global, so a concurrently running test in the same binary would
//! pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::bin_state::BinClass;
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

/// Arrival-window width in ticks: every item is packed First-Fit among
/// the bins of its window's class, so a class lives from its window's
/// first arrival until its last item departs.
const WINDOW: u64 = 16;

/// Classed First-Fit (local copy: dbp-core tests cannot depend on
/// dbp-algos without a dev-dependency cycle).
struct WindowFf;

impl OnlineAlgorithm for WindowFf {
    fn name(&self) -> &str {
        "window-ff-zero-alloc"
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        let class = BinClass(item.arrival.ticks() / WINDOW);
        match view.first_fit_in(class, item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenIn(class),
        }
    }

    fn reset(&mut self) {}
}

/// Deterministic workload (splitmix64, as in `zero_alloc.rs`): arrivals
/// with a mean gap of one tick, durations of 1–64 ticks and a uniform
/// size of 1/10, so a class sees about 16 items and a few bins, and
/// several classes are alive at once.
fn synth_items(n: usize) -> Vec<(u64, u64, u64)> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
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
            t += next() % 3;
            out
        })
        .collect()
}

#[test]
fn classes_born_and_dying_allocate_nothing_in_steady_state() {
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    const N: usize = 40_000;
    let items = synth_items(N);
    let mut sim = InteractiveSim::new(WindowFf, N, SimConfig::default(), NoopSink);

    let half = N / 2;
    for &(t, dur, num) in &items[..half] {
        sim.arrive_at(Time(t), Dur(dur), Size::from_ratio(num, 100))
            .expect("legal placement");
    }
    let opened_warm = sim.bins_opened();

    let before = ALLOCS.load(Ordering::Relaxed);
    for &(t, dur, num) in &items[half..] {
        sim.arrive_at(Time(t), Dur(dur), Size::from_ratio(num, 100))
            .expect("legal placement");
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state classed arrivals+departures must not allocate \
         ({} allocations over {} items)",
        after - before,
        N - half
    );

    // The measured half really churned classes: at least one class per
    // window was born (and all but the last few died) in it.
    let windows = (items[N - 1].0 - items[half].0) / WINDOW;
    assert!(windows > 500, "workload must span many windows ({windows})");
    let opened = sim.bins_opened() - opened_warm;
    assert!(
        opened as u64 >= windows,
        "every window opens a class ({opened} bins over {windows} windows)"
    );
    let (_, result) = sim.finish();
    assert_eq!(result.assignment.len(), N);
}
