//! # dbp-core
//!
//! Problem model and event-driven simulation substrate for **MinUsageTime
//! Dynamic Bin Packing**, the setting of *"Tight Bounds for Clairvoyant
//! Dynamic Bin Packing"* (Azar & Vainstein, SPAA 2017).
//!
//! Items with sizes in `(0, 1]` arrive online, each revealing its departure
//! time on arrival (clairvoyance); an online algorithm must irrevocably
//! place each into a bin of capacity 1; the objective is the total *usage
//! time* over all bins ever opened — equivalently `∫ (#open bins at t) dt`.
//!
//! This crate provides:
//!
//! * exact time ([`time`]), size ([`size`]) and area ([`cost`]) arithmetic;
//! * validated instances ([`instance`]) with the paper's derived quantities
//!   (`μ`, `span(σ)`, `d(σ)`, load profiles in [`profile`]);
//! * the [`algorithm::OnlineAlgorithm`] trait and the validating simulator
//!   ([`engine`]) in both batch and adaptive (adversary-driven) forms;
//! * an independent assignment auditor ([`assignment`]);
//! * structured engine-event tracing with pluggable sinks and JSONL
//!   serialization ([`trace`]), run-level execution metrics
//!   ([`engine::RunMetrics`]), and a streaming invariant auditor
//!   ([`audit`]) that cross-checks every run event-by-event;
//! * fault injection ([`failure`]): crash schedules, re-admission backoff
//!   policies, and the per-run [`failure::ResilienceReport`];
//! * budgeted recourse ([`recourse`]): bounded voluntary item migration at
//!   arrival/departure epochs, billed per-epoch or amortized, with the
//!   per-run [`recourse::RecourseReport`];
//! * the σ→σ′ departure-rounding reduction ([`reduction`]) and certified
//!   OPT brackets ([`bounds`]) used by every experiment.
//!
//! Algorithms themselves (HA, CDFF, the First-Fit family, offline
//! comparators) live in the `dbp-algos` crate; workload generators and the
//! lower-bound adversary in `dbp-workloads`.

#![warn(missing_docs)]

pub mod algorithm;
pub mod assignment;
pub mod audit;
pub mod bin_state;
pub mod bounds;
pub mod cost;
pub mod engine;
pub mod error;
pub mod failure;
pub mod fit_tree;
pub mod instance;
pub mod item;
pub mod metrics;
pub mod profile;
pub mod recourse;
pub mod reduction;
pub mod size;
pub mod time;
pub mod trace;

pub use algorithm::{OnlineAlgorithm, Placement, SimView};
pub use assignment::{audit, AuditReport};
pub use audit::{AuditViolation, InvariantAuditor};
pub use bin_state::{BinClass, BinId, BinRecord, BinStore};
pub use bounds::{BracketRung, BracketSource, CertifiedBracket, LowerBounds, OptBracket};
pub use cost::Area;
pub use engine::{
    run, run_with_failures, run_with_failures_recourse, run_with_recourse, run_with_sink,
    InteractiveSim, PackingResult, PendingReadmission, RunMetrics,
};
pub use error::{EngineError, InstanceError, VerifyError};
pub use failure::{FailurePlan, ResilienceReport, RetryPolicy};
pub use fit_tree::{FitTree, SubsetFitTree};
pub use instance::{Instance, InstanceBuilder, InstanceDigest};
pub use item::{Item, ItemId};
pub use metrics::{
    average_open_ratio, compare_goals, momentary_ratio, utilisation, waste_breakdown,
    GoalComparison, UtilisationStats, WasteBreakdown,
};
pub use profile::StepProfile;
pub use recourse::{
    Migration, RecourseBudget, RecourseEpoch, RecourseParseError, RecourseReport, RecourseView,
};
pub use reduction::{reduce, reduced_departure};
pub use size::{Load, LoadVec, Size, SizeVec, MAX_DIMS, SIZE_SCALE};
pub use time::{Dur, Time};
pub use trace::{
    event_from_json, event_from_pairs, event_to_json, json_pairs, parse_jsonl, write_event_json,
    EngineEvent, EventSink, JsonlSink, NoopSink, PlacementPath, TraceEvent, TraceParseError,
    TraceRecorder, VecSink,
};
