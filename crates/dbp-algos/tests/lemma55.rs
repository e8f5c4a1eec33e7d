//! Lemma 5.5: on the binary input σ_μ, CDFF's row assignment is read off
//! the binary counter `b_t = 1‖binary(t)`:
//!
//! 1. an active item whose associated bit is 1 sits in row 0 (`b_0^1`);
//! 2. an active item whose bit is 0, with a run of `s` zeros continuing
//!    from its bit toward the MSB (excluding its own bit), sits in row
//!    `s + 1`.
//!
//! The association maps the active item of length `2^k` to bit `k` of
//! `b_t` (the prepended 1 is bit `n`). We replay σ_μ interactively,
//! record every item's row at arrival, and check the identity at every
//! moment for every active item — for multiple μ.

use dbp_algos::Cdff;
use dbp_core::engine::InteractiveSim;
use dbp_core::{Dur, Size, Time};

/// Bit `k` of `b_t = 1‖binary(t)` with `n+1` bits (bit `n` is the
/// prepended 1).
fn b_t_bit(t: u64, n: u32, k: u32) -> bool {
    if k == n {
        true
    } else {
        (t >> k) & 1 == 1
    }
}

/// The row Lemma 5.5 predicts for the active item of length `2^k` at `t`.
fn expected_row(t: u64, n: u32, k: u32) -> u32 {
    if b_t_bit(t, n, k) {
        return 0;
    }
    // Zeros continuing from bit k toward the MSB, excluding bit k itself.
    let mut s = 0;
    let mut pos = k + 1;
    while pos <= n && !b_t_bit(t, n, pos) {
        s += 1;
        pos += 1;
    }
    s + 1
}

#[test]
fn lemma_5_5_bit_mapping_holds_exactly() {
    for n in 1..=10u32 {
        let mu = 1u64 << n;
        let load = Size::from_ratio(1, n as u64 + 1);
        let mut sim = InteractiveSim::new(Cdff::new());
        // (arrival, class) → paper row at assignment; σ_μ has exactly one
        // active item per class at any moment, so index rows by class.
        let mut current_row = vec![0u32; n as usize + 1];
        let mut checked = 0u64;
        for t in 0..mu {
            sim.advance_to(Time(t));
            let kmax = if t == 0 { n } else { t.trailing_zeros().min(n) };
            for k in (0..=kmax).rev() {
                let bin = sim.arrive(Dur(1u64 << k), load).expect("legal");
                let vkey = Cdff::row_of_bin(sim.bins(), bin).expect("fresh bin has a row");
                // Paper row index = top_class − virtual key.
                current_row[k as usize] = sim.algorithm().top_class() - vkey;
            }
            // Check every active item (one per class) against the lemma.
            for k in 0..=n {
                let expected = expected_row(t, n, k);
                assert_eq!(
                    current_row[k as usize],
                    expected,
                    "n={n}, t={t} (binary {t:0w$b}), length 2^{k}",
                    w = n as usize
                );
                checked += 1;
            }
        }
        assert_eq!(checked, mu * (n as u64 + 1));
        let (_, res) = sim.finish();
        assert!(res.cost.as_bin_ticks() > 0.0);
    }
}

#[test]
fn paper_example_b_1001000() {
    // The paper's worked example: b_t = 1001000 (n = 6, t = 0b001000 = 8):
    // the item of length 4 (bit 2) has a zero-run of 1 toward the MSB
    // (bit 3 is the 1 at position 3? — positions 2,1,0 are 0; from bit 2
    // upward: bit 3 = 1) … the paper says it lands in row 1.
    assert_eq!(expected_row(0b001000, 6, 2), 1);
    // Bit 3 is set → its item (length 8) is in row 0.
    assert_eq!(expected_row(0b001000, 6, 3), 0);
    // Bit 0: zeros at 0,1,2 then 1 at bit 3 → s = 2 → row 3.
    assert_eq!(expected_row(0b001000, 6, 0), 3);
    // The prepended MSB (bit 6) is always 1 → row 0.
    assert_eq!(expected_row(0b001000, 6, 6), 0);
}
