//! Differential test of the request parser against a frozen copy of its
//! earlier two-pass form, which split a line with `json_pairs`, rebuilt
//! the non-envelope pairs into a fresh object and split that again in
//! `event_from_json`. The one-pass parser must return the same request
//! or the same error message on every line: valid requests of every
//! event kind and every op, with and without a tenant, and the same lines
//! truncated, byte-flipped, with duplicate and unknown keys, stray
//! brackets, empty parts, vector sizes of 0–5 components and
//! out-of-range components.

use dbp_core::{BinId, EngineEvent, ItemId, LoadVec, PlacementPath, SizeVec, Time};
use dbp_core::{TraceParseError, MAX_DIMS, SIZE_SCALE};
use dbp_serve::protocol::{Op, Request};
use proptest::prelude::*;

/// The two-pass parser, copied verbatim apart from visibility and doc
/// comments. Do not edit: it is the reference the live parser is held to.
mod frozen {
    use super::*;

    fn bad(message: impl Into<String>) -> TraceParseError {
        TraceParseError {
            line: 0,
            message: message.into(),
        }
    }

    fn json_pairs(s: &str) -> Result<Vec<(&str, &str)>, TraceParseError> {
        let s = s.trim();
        let inner = s
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| bad("expected a {...} object"))?;
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        // Split on commas at bracket depth 0 only, so array values
        // (`"size":[1,2]`) stay one token. Deeper nesting is out of grammar.
        let mut depth = 0usize;
        let mut start = 0usize;
        let mut parts: Vec<&str> = Vec::new();
        for (i, b) in inner.bytes().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.checked_sub(1).ok_or_else(|| bad("unbalanced `]`"))?,
                b',' if depth == 0 => {
                    parts.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(bad("unbalanced `[`"));
        }
        parts.push(&inner[start..]);
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once(':')
                .ok_or_else(|| bad(format!("expected key:value, got `{part}`")))?;
            let key = k
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| bad(format!("unquoted key `{}`", k.trim())))?;
            if pairs.iter().any(|&(seen, _)| seen == key) {
                return Err(bad(format!("duplicate key `{key}`")));
            }
            pairs.push((key, v.trim()));
        }
        Ok(pairs)
    }

    fn field<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, TraceParseError> {
        pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| bad(format!("missing field `{key}`")))
    }

    fn num(pairs: &[(&str, &str)], key: &str) -> Result<u64, TraceParseError> {
        let v = field(pairs, key)?;
        v.parse::<u64>()
            .map_err(|_| bad(format!("field `{key}`: `{v}` is not an unsigned integer")))
    }

    fn num_u32(pairs: &[(&str, &str)], key: &str) -> Result<u32, TraceParseError> {
        let v = num(pairs, key)?;
        u32::try_from(v).map_err(|_| bad(format!("field `{key}`: `{v}` exceeds u32 range")))
    }

    pub fn parse_raws_json(v: &str, key: &str) -> Result<Vec<u64>, TraceParseError> {
        let components: Vec<&str> = match v.strip_prefix('[') {
            Some(body) => {
                let body = body
                    .strip_suffix(']')
                    .ok_or_else(|| bad(format!("field `{key}`: unterminated array `{v}`")))?;
                body.split(',').collect()
            }
            None => vec![v],
        };
        components
            .iter()
            .map(|c| {
                let c = c.trim();
                c.parse::<u64>()
                    .map_err(|_| bad(format!("field `{key}`: `{c}` is not an unsigned integer")))
            })
            .collect()
    }

    fn size_field(pairs: &[(&str, &str)], key: &str) -> Result<SizeVec, TraceParseError> {
        let v = field(pairs, key)?;
        let raws = parse_raws_json(v, key)?;
        if raws.is_empty() || raws.len() > MAX_DIMS {
            return Err(bad(format!(
                "field `{key}`: `{v}` is not a size vector of 1..={MAX_DIMS} components"
            )));
        }
        if let Some(&r) = raws.iter().find(|&&r| r > SIZE_SCALE) {
            return Err(bad(format!(
                "field `{key}`: component {r} exceeds bin capacity ({SIZE_SCALE})"
            )));
        }
        Ok(SizeVec::try_from_raws(&raws).expect("arity and range validated above"))
    }

    fn load_field(pairs: &[(&str, &str)], key: &str) -> Result<LoadVec, TraceParseError> {
        let v = field(pairs, key)?;
        let raws = parse_raws_json(v, key)?;
        if raws.is_empty() || raws.len() > MAX_DIMS {
            return Err(bad(format!(
                "field `{key}`: `{v}` is not a load vector of 1..={MAX_DIMS} components"
            )));
        }
        let mut arr = [0u64; MAX_DIMS];
        arr[..raws.len()].copy_from_slice(&raws);
        Ok(LoadVec::from_raws(arr))
    }

    fn event_from_json(line: &str) -> Result<EngineEvent, TraceParseError> {
        let pairs = json_pairs(line)?;
        let kind = field(&pairs, "e")?;
        match kind {
            "\"arrival\"" => Ok(EngineEvent::Arrival {
                item: ItemId(num_u32(&pairs, "item")?),
                at: Time(num(&pairs, "t")?),
                size: size_field(&pairs, "size")?,
                departure: match pairs.iter().find(|(k, _)| *k == "dep") {
                    Some(_) => Some(Time(num(&pairs, "dep")?)),
                    None => None,
                },
            }),
            "\"placed\"" => Ok(EngineEvent::Placed {
                item: ItemId(num_u32(&pairs, "item")?),
                at: Time(num(&pairs, "t")?),
                bin: BinId(num_u32(&pairs, "bin")?),
                opened: match field(&pairs, "opened")? {
                    "true" => true,
                    "false" => false,
                    other => return Err(bad(format!("field `opened`: `{other}` is not a bool"))),
                },
                via: match field(&pairs, "via")? {
                    "\"fast\"" => PlacementPath::FastPath,
                    "\"scan\"" => PlacementPath::Scan,
                    other => return Err(bad(format!("field `via`: unknown path `{other}`"))),
                },
                load_after: load_field(&pairs, "load")?,
            }),
            "\"bin_opened\"" => Ok(EngineEvent::BinOpened {
                bin: BinId(num_u32(&pairs, "bin")?),
                at: Time(num(&pairs, "t")?),
            }),
            "\"departure\"" => Ok(EngineEvent::Departure {
                item: ItemId(num_u32(&pairs, "item")?),
                at: Time(num(&pairs, "t")?),
                bin: BinId(num_u32(&pairs, "bin")?),
                size: size_field(&pairs, "size")?,
            }),
            "\"bin_closed\"" => Ok(EngineEvent::BinClosed {
                bin: BinId(num_u32(&pairs, "bin")?),
                at: Time(num(&pairs, "t")?),
                opened_at: Time(num(&pairs, "opened_at")?),
            }),
            "\"bin_failed\"" => Ok(EngineEvent::BinFailed {
                bin: BinId(num_u32(&pairs, "bin")?),
                at: Time(num(&pairs, "t")?),
                opened_at: Time(num(&pairs, "opened_at")?),
            }),
            "\"displaced\"" => Ok(EngineEvent::ItemDisplaced {
                item: ItemId(num_u32(&pairs, "item")?),
                at: Time(num(&pairs, "t")?),
                bin: BinId(num_u32(&pairs, "bin")?),
                size: size_field(&pairs, "size")?,
            }),
            "\"readmitted\"" => Ok(EngineEvent::ItemReadmitted {
                item: ItemId(num_u32(&pairs, "item")?),
                original: ItemId(num_u32(&pairs, "orig")?),
                at: Time(num(&pairs, "t")?),
                size: size_field(&pairs, "size")?,
                departure: Time(num(&pairs, "dep")?),
                attempt: num_u32(&pairs, "attempt")?,
            }),
            "\"migrated\"" => Ok(EngineEvent::ItemMigrated {
                item: ItemId(num_u32(&pairs, "item")?),
                at: Time(num(&pairs, "t")?),
                from: BinId(num_u32(&pairs, "from")?),
                to: BinId(num_u32(&pairs, "to")?),
                size: size_field(&pairs, "size")?,
                load_after: load_field(&pairs, "load")?,
            }),
            "\"clock\"" => Ok(EngineEvent::ClockAdvanced {
                from: Time(num(&pairs, "from")?),
                to: Time(num(&pairs, "to")?),
            }),
            other => Err(bad(format!("unknown event kind {other}"))),
        }
    }

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

    pub fn parse_request(line: &str) -> Result<Request, TraceParseError> {
        let pairs = json_pairs(line)?;
        let mut tenant = None;
        let mut op = None;
        let mut rest = String::with_capacity(line.len());
        rest.push('{');
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
                _ => {
                    if rest.len() > 1 {
                        rest.push(',');
                    }
                    rest.push('"');
                    rest.push_str(k);
                    rest.push_str("\":");
                    rest.push_str(v);
                }
            }
        }
        if let Some(op) = op {
            if rest.len() > 1 {
                return Err(bad("op lines take no event fields".to_string()));
            }
            return Ok(Request::Control { tenant, op });
        }
        rest.push('}');
        Ok(Request::Event {
            tenant,
            event: event_from_json(&rest)?,
        })
    }
}

/// Printable-ASCII noise plus the bytes the grammar cares about.
const NOISE: &[u8] = b"{}[]:,\" \\\t\r\x01\x1f-09az";

/// A size or load value: a bare scalar, or an array of `shape - 1`
/// components (0–5, past `MAX_DIMS` on purpose); `big` pushes one
/// component past a bin's capacity.
fn vec_value(shape: u64, vals: [u64; 6], big: bool) -> String {
    let comp = |i: usize| {
        let r = vals[i % 6] % (SIZE_SCALE + 1);
        if big && i == 0 {
            SIZE_SCALE + 1 + r
        } else {
            r
        }
    };
    if shape == 0 {
        return comp(0).to_string();
    }
    let parts: Vec<String> = (0..(shape - 1) as usize)
        .map(|i| comp(i).to_string())
        .collect();
    format!("[{}]", parts.join(","))
}

/// The pairs of one valid request: kinds 0–9 are the codec's event kinds
/// (arrival twice: dated and undated), 10–13 the four ops.
fn base_pairs(kind: u64, vals: [u64; 6], shape: u64) -> Vec<(String, String)> {
    let n = |i: usize| vals[i].to_string();
    let id = |i: usize| (vals[i] % 1000).to_string();
    let size = vec_value(shape, vals, false);
    let load = vec_value(
        shape,
        [vals[1], vals[2], vals[0], vals[3], vals[4], vals[5]],
        false,
    );
    let p = |k: &str, v: String| (k.to_string(), v);
    let e = |k: &str| p("e", format!("\"{k}\""));
    match kind {
        0 | 1 => {
            let mut v = vec![
                e("arrival"),
                p("t", n(0)),
                p("item", id(1)),
                p("size", size),
            ];
            if kind == 0 {
                v.push(p("dep", n(2)));
            }
            v
        }
        2 => vec![
            e("placed"),
            p("t", n(0)),
            p("item", id(1)),
            p("bin", id(2)),
            p(
                "opened",
                ["true", "false"][(vals[3] % 2) as usize].to_string(),
            ),
            p(
                "via",
                ["\"fast\"", "\"scan\""][(vals[4] % 2) as usize].to_string(),
            ),
            p("load", load),
        ],
        3 => vec![e("bin_opened"), p("bin", id(1)), p("t", n(0))],
        4 => vec![
            e("departure"),
            p("item", id(1)),
            p("t", n(0)),
            p("bin", id(2)),
            p("size", size),
        ],
        5 | 6 => vec![
            e(if kind == 5 {
                "bin_closed"
            } else {
                "bin_failed"
            }),
            p("bin", id(1)),
            p("t", n(0)),
            p("opened_at", n(2)),
        ],
        7 => vec![
            e("displaced"),
            p("item", id(1)),
            p("t", n(0)),
            p("bin", id(2)),
            p("size", size),
        ],
        8 => vec![
            e("readmitted"),
            p("item", id(1)),
            p("orig", id(2)),
            p("t", n(0)),
            p("size", size),
            p("dep", n(3)),
            p("attempt", id(4)),
        ],
        9 if vals[5] % 2 == 0 => vec![
            e("migrated"),
            p("item", id(1)),
            p("t", n(0)),
            p("from", id(2)),
            p("to", id(3)),
            p("size", size),
            p("load", load),
        ],
        9 => vec![e("clock"), p("from", n(0)), p("to", n(1))],
        _ => {
            let op = ["metrics", "compact", "snapshot", "drain"][(kind - 10) as usize];
            vec![p("op", format!("\"{op}\""))]
        }
    }
}

/// A request line built from `pairs` with one mutation applied
/// (`mutation` 0 leaves it valid).
fn render(mut pairs: Vec<(String, String)>, mutation: u64, pos: usize, byte: u8, v: u64) -> String {
    let at = pos % (pairs.len() + 1);
    match mutation {
        // A duplicate key, with a different value.
        1 => {
            let (k, _) = pairs[pos % pairs.len()].clone();
            pairs.insert(at, (k, v.to_string()));
        }
        // An unknown key, or an envelope key on the wrong kind of line.
        2 => {
            let k = ["zz", "op", "tenant", "e", "", "a:b"][(v % 6) as usize];
            let val = ["1", "\"metrics\"", "\"x\"", "\"clock\"", "[1,2]", ""][(v / 6 % 6) as usize];
            pairs.insert(at, (k.to_string(), val.to_string()));
        }
        // A value replaced by an out-of-range or malformed number.
        3 => {
            let bad = [
                "4294967296",
                "4294967297",
                "18446744073709551616",
                "99999999999999999999999999",
                "-1",
                "1.5",
                "[]",
                "[1,,2]",
                "[4294967297,1]",
                "[1,2,3,4]",
                "[1,[2]]",
                "\"7\"",
            ][(v % 12) as usize];
            let i = pos % pairs.len();
            pairs[i].1 = bad.to_string();
        }
        // A key dropped.
        4 => {
            pairs.remove(pos % pairs.len());
        }
        _ => {}
    }
    let sep = if mutation == 5 { ", " } else { "," };
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let mut line = format!("{{{}}}", body.join(sep));
    let cut = pos % (line.len() + 1);
    match mutation {
        // Truncated anywhere.
        6 => line.truncate(cut),
        // One byte overwritten.
        7 if !line.is_empty() => {
            let i = cut.min(line.len() - 1);
            line.replace_range(i..=i, &char::from(byte).to_string());
        }
        // A stray bracket or an empty part inserted.
        8 => line.insert_str(cut, ["[", "]", ",", ",,", " "][(v % 5) as usize]),
        // Leading or trailing empty parts, and surrounding whitespace.
        9 => {
            line = match v % 3 {
                0 => line.replacen('{', "{,", 1),
                1 => line.replacen('}', ",}", 1),
                _ => format!(" \t{line} "),
            }
        }
        _ => {}
    }
    line
}

/// Puts a `tenant` pair at index `at` of `pairs`: `which` 0 means none,
/// the rest pick a valid name or, rarely, an invalid one.
fn with_tenant(mut pairs: Vec<(String, String)>, which: u64, at: usize) -> Vec<(String, String)> {
    let name = match which {
        0 => return pairs,
        1 => "\"acme\"",
        2 => "\"t-1.x_Y\"",
        3 => "\"\"",
        4 => "\"two words\"",
        _ => "7",
    };
    let at = at % (pairs.len() + 1);
    pairs.insert(at, ("tenant".to_string(), name.to_string()));
    pairs
}

fn assert_same(line: &str) -> Result<(), TestCaseError> {
    let new = dbp_serve::parse_request(line);
    let old = frozen::parse_request(line);
    prop_assert_eq!(new, old, "parsers disagree on `{}`", line.escape_debug());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn one_pass_parser_matches_the_two_pass_parser(
        kind in 0u64..14,
        vals in prop::collection::vec(0u64..=u64::MAX, 6),
        (shape, tenant) in (0u64..7, 0u64..8),
        mutation in 0u64..12,
        (pos, byte) in (0usize..400, 0u8..0x80),
        v in 0u64..=u64::MAX,
    ) {
        let vals = [vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]];
        // Tenants 1 and 2 are valid; 3.. (rarer) are not.
        let tenant = if tenant < 6 { tenant % 3 } else { 3 + v % 3 };
        let pairs = with_tenant(base_pairs(kind, vals, shape), tenant, pos / 7);
        assert_same(&render(pairs, mutation, pos, byte, v))?;
    }

    /// The snapshot codec's public vector parser keeps its answers too.
    #[test]
    fn raw_vector_parse_matches(shape in 0u64..7, a in 0u64..=u64::MAX, big in 0u64..2, noise in 0usize..40) {
        let mut v = vec_value(shape, [a, a / 3, a / 7, a >> 9, a >> 17, a >> 33], big == 1);
        if let Some(&b) = NOISE.get(noise) {
            let i = (a as usize) % (v.len() + 1);
            v.insert(i, char::from(b));
        }
        prop_assert_eq!(
            dbp_core::trace::parse_raws_json(&v, "size"),
            frozen::parse_raws_json(&v, "size")
        );
    }
}

#[test]
fn hand_written_lines_parse_identically() {
    for line in [
        "",
        " ",
        "{",
        "}",
        "{}",
        "{,}",
        "{,,}",
        "not json",
        "{\"tenant\":\"a\"}",
        "{\"op\":\"metrics\",\"op\":\"drain\"}",
        "{\"tenant\":\"a\",\"tenant\":\"a\",\"op\":\"metrics\"}",
        "{\"op\":\"reboot\",\"tenant\":\"two words\"}",
        "{\"tenant\":\"two words\",\"op\":\"reboot\"}",
        "{\"op\":\"metrics\",\"t\":3}",
        "{\"op\":\"metrics\",\"\":3}",
        "{\"[\":1,\"]\":2}",
        "{\"e\":\"clock\",\"from\":[1,\"to\":2]}",
        "{\"e\":\"clock\",\"from\":1]\",\"to\":[2}",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":\u{1}x,\"dep\":5}",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":1[2,3],\"dep\":5}",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":[1,2,3,x],\"dep\":5}",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":[1,2,3,4],\"dep\":5}",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":[1,2]x,\"dep\":5}",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":[ 1 , 2 ],\"dep\":5}",
        "{\"e\":\"placed\",\"t\":0,\"item\":0,\"bin\":0,\"opened\":true,\"via\":\"fast\",\"load\":[]}",
        "{\"tenant\":\"a\u{2}b\",\"e\":\"clock\",\"from\":0,\"to\":5}",
        "{ \"tenant\" : \"acme\" , \"e\" : \"clock\" , \"from\" : 0 , \"to\" : 5 }",
        "{\"e\":\"clock\",\"from\":0,\"to\":5}{\"e\":\"clock\",\"from\":0,\"to\":5}",
        "{\"e\":\"clock\",\"fr\"om\":0,\"to\":5}",
        "{\"é\":\"clock\",\"from\":0,\"to\":5}",
    ] {
        assert_eq!(
            dbp_serve::parse_request(line),
            frozen::parse_request(line),
            "parsers disagree on `{}`",
            line.escape_debug()
        );
    }
}
