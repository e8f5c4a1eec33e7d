//! Request grammar: the engine's trace codec plus a thin envelope.
//!
//! A request line is a flat JSON object, split once by [`json_pairs`].
//! Two envelope keys are peeled off those pairs, and the same pairs are
//! then decoded by [`event_from_pairs`], which ignores the envelope:
//!
//! - `"tenant":"NAME"` — routes the line to one session. Tenant names are
//!   restricted to `[A-Za-z0-9_.-]`, 1–64 chars, so they can never
//!   collide with the codec's number/keyword grammar.
//! - `"op":"metrics"|"compact"|"snapshot"|"drain"` — a control line
//!   instead of an event.
//!
//! Everything else must parse as an [`EngineEvent`]. Of those, only
//! `arrival`, `clock`, and `departure` lines *drive* a session; the rest
//! (placements, bin lifecycle, re-admissions) are engine **outputs** and
//! are ignored on input — that is what lets a recorded trace be replayed
//! verbatim: the daemon regenerates those lines itself and the echo must
//! match the recording.
//!
//! Responses quote free text (error messages) through [`push_json_str`].

use std::fmt::Write as _;

use dbp_core::trace::{event_from_pairs, json_pairs};
use dbp_core::{EngineEvent, TraceParseError};

/// A control verb from an `"op"` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Emit a `metrics` + `resilience` response pair for the session.
    Metrics,
    /// Force an item-table compaction now and report what it dropped.
    Compact,
    /// Serialize the session as snapshot lines into the response stream.
    Snapshot,
    /// Drain every pending departure (fast-forward to the end of time)
    /// and emit the final telemetry — what EOF does implicitly.
    Drain,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// An engine event (possibly one the daemon will ignore — see the
    /// module docs for which kinds drive a session).
    Event {
        /// Routing key, if the line carried one.
        tenant: Option<String>,
        /// The decoded event.
        event: EngineEvent,
    },
    /// A control line.
    Control {
        /// Routing key, if the line carried one.
        tenant: Option<String>,
        /// The verb.
        op: Op,
    },
}

fn bad(message: String) -> TraceParseError {
    TraceParseError { line: 0, message }
}

/// Validates and unquotes a tenant value (`"name"` with the quotes still
/// on, as [`json_pairs`] returns it).
fn tenant_name(raw: &str) -> Result<String, TraceParseError> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| bad(format!("tenant must be a JSON string, got `{raw}`")))?;
    let ok_len = (1..=64).contains(&inner.len());
    let ok_chars = inner
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-');
    if !(ok_len && ok_chars) {
        return Err(bad(format!(
            "tenant `{inner}` must be 1-64 chars of [A-Za-z0-9_.-]"
        )));
    }
    Ok(inner.to_string())
}

/// Parses one request line. Envelope keys are peeled off the line's
/// pairs; the remainder must be a control verb or a codec event.
pub fn parse_request(line: &str) -> Result<Request, TraceParseError> {
    let pairs = json_pairs(line)?;
    let mut tenant = None;
    let mut op = None;
    let mut event_keys = 0usize;
    for &(k, v) in &pairs {
        match k {
            "tenant" => tenant = Some(tenant_name(v)?),
            "op" => {
                op = Some(match v {
                    "\"metrics\"" => Op::Metrics,
                    "\"compact\"" => Op::Compact,
                    "\"snapshot\"" => Op::Snapshot,
                    "\"drain\"" => Op::Drain,
                    other => {
                        return Err(bad(format!(
                            "unknown op {other} (metrics|compact|snapshot|drain)"
                        )))
                    }
                })
            }
            _ => event_keys += 1,
        }
    }
    if let Some(op) = op {
        if event_keys > 0 {
            return Err(bad("op lines take no event fields".to_string()));
        }
        return Ok(Request::Control { tenant, op });
    }
    Ok(Request::Event {
        tenant,
        event: event_from_pairs(&pairs)?,
    })
}

/// Appends `text` as the body of a JSON string — the one escaper every
/// daemon response uses for free text. `"` and `\` become `'` (messages
/// quote input, and this keeps them readable), and control characters
/// U+0000–U+001F become `\u00XX`, so a hostile byte echoed from a request
/// still leaves a valid JSON line.
pub fn push_json_str(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' | '\\' => out.push('\''),
            // Writing to a String cannot fail.
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{ItemId, Size, Time};

    #[test]
    fn bare_event_lines_parse_as_events() {
        let req = parse_request("{\"e\":\"arrival\",\"t\":3,\"item\":0,\"size\":7,\"dep\":9}")
            .expect("valid event");
        assert_eq!(
            req,
            Request::Event {
                tenant: None,
                event: EngineEvent::Arrival {
                    item: ItemId(0),
                    at: Time(3),
                    size: Size::from_raw(7).into(),
                    departure: Some(Time(9)),
                },
            }
        );
    }

    #[test]
    fn tenant_key_is_peeled_off_anywhere_in_the_line() {
        for line in [
            "{\"tenant\":\"acme\",\"e\":\"clock\",\"from\":0,\"to\":5}",
            "{\"e\":\"clock\",\"tenant\":\"acme\",\"from\":0,\"to\":5}",
            "{\"e\":\"clock\",\"from\":0,\"to\":5,\"tenant\":\"acme\"}",
        ] {
            let req = parse_request(line).expect("valid enveloped event");
            assert_eq!(
                req,
                Request::Event {
                    tenant: Some("acme".to_string()),
                    event: EngineEvent::ClockAdvanced {
                        from: Time(0),
                        to: Time(5),
                    },
                }
            );
        }
    }

    #[test]
    fn op_lines_parse_and_reject_event_fields() {
        assert_eq!(
            parse_request("{\"op\":\"metrics\"}").unwrap(),
            Request::Control {
                tenant: None,
                op: Op::Metrics,
            }
        );
        assert_eq!(
            parse_request("{\"tenant\":\"a\",\"op\":\"snapshot\"}").unwrap(),
            Request::Control {
                tenant: Some("a".to_string()),
                op: Op::Snapshot,
            }
        );
        assert!(parse_request("{\"op\":\"metrics\",\"t\":3}").is_err());
        assert!(parse_request("{\"op\":\"reboot\"}").is_err());
    }

    #[test]
    fn response_text_is_escaped_for_json() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\u{0}\u{1f}\tz é\u{7f}");
        assert_eq!(out, "a'b'c\\u0000\\u001f\\u0009z é\u{7f}");
    }

    #[test]
    fn bad_tenants_are_typed_errors() {
        for line in [
            "{\"tenant\":7,\"e\":\"clock\",\"from\":0,\"to\":5}",
            "{\"tenant\":\"\",\"e\":\"clock\",\"from\":0,\"to\":5}",
            "{\"tenant\":\"two words\",\"e\":\"clock\",\"from\":0,\"to\":5}",
        ] {
            assert!(parse_request(line).is_err(), "accepted `{line}`");
        }
    }
}
