//! # dbp-algos
//!
//! All packing algorithms for the MinUsageTime Clairvoyant DBP
//! reproduction:
//!
//! * [`HybridAlgorithm`] — the paper's `O(√log μ)` Algorithm 1 (HA);
//! * [`Cdff`] — the paper's `O(log log μ)` Algorithm 2 for aligned inputs;
//! * [`FirstFit`] / [`BestFit`] / [`WorstFit`] / [`NextFit`] — the Any-Fit
//!   non-clairvoyant baselines (First-Fit is `μ+4`-competitive here);
//! * [`ClassifyByDuration`] — the prior-art classify-by-duration family
//!   (binary = `Θ(log μ)`, widened = Ren & Tang's `O(log μ/log log μ)`);
//! * [`DepartureAwareFit`] — a natural clairvoyant heuristic baseline;
//! * [`RepackOnDeparture`] / [`AmortizedRepack`] — bounded-recourse
//!   wrappers layering budgeted item migration over any base algorithm;
//! * [`offline`] — repacking FFD (Lemma 3.1 constructive bound), the
//!   non-repacking portfolio, and exact branch-and-bound.

#![warn(missing_docs)]

pub mod any_fit;
pub mod cdff;
pub mod classify_duration;
pub mod departure_fit;
pub mod harmonic;
pub mod hybrid;
pub mod offline;
pub mod random_fit;
pub mod recourse;

pub use any_fit::{AnyFit, BestFit, FirstFit, NextFit, WorstFit};
pub use cdff::Cdff;
pub use classify_duration::ClassifyByDuration;
pub use departure_fit::DepartureAwareFit;
pub use harmonic::Harmonic;
pub use hybrid::{HybridAlgorithm, InnerFit, Threshold};
pub use random_fit::RandomFit;
pub use recourse::{AmortizedRepack, RepackOnDeparture};

use dbp_core::algorithm::OnlineAlgorithm;

/// Constructs an algorithm by registry name. Names:
/// `first-fit`, `best-fit`, `worst-fit`, `next-fit`, `cbd`,
/// `cbd:<width>`, `hybrid`, `cdff`, `departure-aware`, plus the
/// bounded-recourse wrappers `rod:<base>` and `amortized:<base>`
/// (recursive: any registry name may serve as `<base>`).
///
/// The box is `Send` so drivers that host an algorithm per worker
/// thread (the serve daemon's tenant sessions) can move it; it coerces
/// to a plain `Box<dyn OnlineAlgorithm>` where the bound is unneeded.
pub fn by_name(name: &str) -> Option<Box<dyn OnlineAlgorithm + Send>> {
    Some(match name {
        "first-fit" | "ff" => Box::new(FirstFit::new()),
        "best-fit" | "bf" => Box::new(BestFit::new()),
        "worst-fit" | "wf" => Box::new(WorstFit::new()),
        "next-fit" | "nf" => Box::new(NextFit::new()),
        "cbd" => Box::new(ClassifyByDuration::binary()),
        "hybrid" | "ha" => Box::new(HybridAlgorithm::new()),
        "random-fit" | "rf" => Box::new(RandomFit::default()),
        "harmonic" => Box::new(Harmonic::new(6)),
        "cdff" => Box::new(Cdff::new()),
        "departure-aware" | "daf" => Box::new(DepartureAwareFit::new()),
        other => {
            if let Some(base) = other.strip_prefix("rod:") {
                return by_name(base).map(|b| {
                    Box::new(RepackOnDeparture::new(b)) as Box<dyn OnlineAlgorithm + Send>
                });
            }
            if let Some(base) = other.strip_prefix("amortized:") {
                return by_name(base)
                    .map(|b| Box::new(AmortizedRepack::new(b)) as Box<dyn OnlineAlgorithm + Send>);
            }
            let width = other.strip_prefix("cbd:")?.parse().ok()?;
            Box::new(ClassifyByDuration::with_width(width))
        }
    })
}

/// The decision state the named algorithm keeps outside the engine, or
/// `None` when every decision is a function of the engine's bins, the
/// arriving item and fixed parameters. A session snapshot carries engine
/// state only, so an algorithm with private state cannot be restored
/// exactly. Resolves names like [`by_name`], recursing on the recourse
/// wrappers' prefixes (the wrappers themselves keep no state that outlives
/// an epoch).
pub fn private_state(name: &str) -> Option<&'static str> {
    match name {
        "hybrid" | "ha" => Some("HA's per-type active loads"),
        "cdff" => Some("CDFF's segment frame"),
        "random-fit" | "rf" => Some("Random-Fit's generator state"),
        other => other
            .strip_prefix("rod:")
            .or_else(|| other.strip_prefix("amortized:"))
            .and_then(private_state),
    }
}

/// Display names of every registered online algorithm.
pub fn registry_names() -> &'static [&'static str] {
    &[
        "first-fit",
        "best-fit",
        "worst-fit",
        "next-fit",
        "cbd",
        "hybrid",
        "cdff",
        "departure-aware",
        "random-fit",
        "harmonic",
        "rod:first-fit",
        "amortized:first-fit",
    ]
}

/// Fresh instances of the full online-algorithm suite (for sweep drivers).
pub fn full_suite() -> Vec<Box<dyn OnlineAlgorithm + Send>> {
    registry_names()
        .iter()
        .map(|n| by_name(n).expect("registry names construct"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips() {
        for name in registry_names() {
            let algo = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!algo.name().is_empty());
        }
        assert!(by_name("cbd:3").is_some());
        assert!(by_name("nope").is_none());
        assert!(by_name("cbd:x").is_none());
        assert_eq!(by_name("rod:best-fit").unwrap().name(), "rod:best-fit");
        // Wrapper names compose from the base's *display* name.
        assert_eq!(
            by_name("amortized:cbd:3").unwrap().name(),
            "amortized:classify-duration(w=3)"
        );
        assert!(by_name("rod:nope").is_none());
    }

    #[test]
    fn private_state_recurses_through_wrappers() {
        assert!(private_state("hybrid").is_some());
        assert!(private_state("rod:amortized:cdff").is_some());
        assert!(private_state("amortized:rf").is_some());
        assert_eq!(private_state("rod:cbd:3"), None);
        assert_eq!(private_state("departure-aware"), None);
    }

    #[test]
    fn full_suite_has_all_algorithms() {
        assert_eq!(full_suite().len(), registry_names().len());
    }
}
