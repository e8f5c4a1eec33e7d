//! Pins the request parser's heap allocations per line: the pairs
//! vector, plus the tenant name when the line carries one.
//!
//! A counting global allocator makes the claim checkable. This file
//! intentionally holds exactly ONE `#[test]`: the counter is global, so a
//! concurrently running test in the same binary would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use dbp_serve::{parse_request, Request};

/// System allocator wrapper that counts allocation calls (alloc and
/// realloc; frees don't matter here).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a plain atomic with no other effect.
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

/// Allocations made while parsing `line` and dropping the result.
fn allocs_of(line: &str) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let req = parse_request(black_box(line));
    assert!(
        matches!(req, Ok(Request::Event { .. })),
        "`{line}` must parse as an event: {req:?}"
    );
    drop(black_box(req));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn request_parsing_allocates_at_most_the_pairs_and_the_tenant() {
    for (line, most) in [
        (
            "{\"e\":\"arrival\",\"t\":3,\"item\":0,\"size\":7,\"dep\":9}",
            1,
        ),
        (
            "{\"e\":\"arrival\",\"t\":3,\"item\":0,\"size\":[7,3],\"dep\":9}",
            1,
        ),
        ("{\"e\":\"clock\",\"from\":0,\"to\":5}", 1),
        (
            "{\"tenant\":\"acme\",\"e\":\"arrival\",\"t\":3,\"item\":0,\"size\":7,\"dep\":9}",
            2,
        ),
    ] {
        let n = allocs_of(line);
        assert!(
            n <= most,
            "`{line}`: {n} allocations, at most {most} allowed"
        );
    }
}
