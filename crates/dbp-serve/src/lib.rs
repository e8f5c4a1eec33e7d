//! # dbp-serve
//!
//! A long-running placement daemon over the [`dbp_core`] engine: JSONL
//! events in (stdin or a Unix socket), placements and telemetry out.
//!
//! The request stream reuses the engine's own trace codec — the JSONL a
//! `dbp-trace record` run emits can be piped straight back in, and the
//! response stream it produces is byte-identical to that recording
//! (placements, bin lifecycle, clock motion), which is how CI proves the
//! streaming path agrees with the batch engine. On top of the event
//! grammar the daemon adds a thin envelope ([`protocol`]): an optional
//! `"tenant"` key routes a line to one of many independent sessions, and
//! `"op"` lines query metrics, force a compaction, or snapshot a session.
//!
//! Production concerns, each with its own module:
//!
//! - **Bounded memory** ([`session`]): the engine's struct-of-arrays item
//!   table grows by one row per arrival forever; the session compacts it
//!   whenever `table_len ≥ 2·resident + slack`, so steady-state memory
//!   tracks the *live* item count, not the total ever served. External
//!   item ids survive compaction via the session sink's translation map.
//! - **Multi-tenant sessions** ([`state`]): one engine per tenant behind
//!   a 16-way lock-striped map (the sharded single-flight idiom from the
//!   bracket cache), so socket connections touching different tenants
//!   never contend on one lock.
//! - **Snapshot / restore** ([`snapshot`]): a session serializes to a few
//!   JSONL lines (open bins with their original opening times and
//!   classes, live items, pending re-admissions, accumulated counters)
//!   and restores into a warm engine whose *reported* cost and metrics
//!   continue seamlessly — or, for an algorithm with private decision
//!   state, is refused with a typed error.
//! - **Budgeted recourse** ([`session`]): a `--recourse` budget arms the
//!   engine's migration epochs; voluntary `ItemMigrated` events stream
//!   out like any other engine event, the ledger rides the telemetry and
//!   the snapshot, and a restore re-arms the budget only after its muted
//!   replay.
//! - **Backpressure** ([`session`]): a bounded live-item window; arrivals
//!   beyond it are rejected with a typed `overloaded` response instead of
//!   being queued without bound.

#![warn(missing_docs)]

pub mod protocol;
pub mod session;
pub mod snapshot;
pub mod state;

pub use protocol::{parse_request, Op, Request};
pub use session::{ServeConfig, Session};
pub use state::SessionMap;
