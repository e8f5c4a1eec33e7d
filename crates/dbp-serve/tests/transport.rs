//! Byte-level transport tests against the real `dbp-serve --stdin`
//! binary: line endings, a huge line, and hostile bytes in requests.
//!
//! - CRLF input and a last line without a newline give byte-identical
//!   output to the same lines ended with LF.
//! - A 4 MB line is answered with one error, and every arrival after it
//!   is still answered.
//! - Every response line to requests carrying control bytes, quotes and
//!   backslashes is valid JSON.

use std::io::Write;
use std::process::{Command, Stdio};

use dbp_core::engine::run_with_sink;
use dbp_core::JsonlSink;
use dbp_workloads::{random_general, GeneralConfig};

/// Runs `dbp-serve --stdin` over `input` and returns its stdout.
fn serve(input: Vec<u8>) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbp-serve"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dbp-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // Feed from a thread: the daemon writes while it reads, so a test
    // that wrote everything first could block on a full stdout pipe.
    let feeder = std::thread::spawn(move || stdin.write_all(&input));
    let out = child.wait_with_output().expect("dbp-serve runs");
    feeder
        .join()
        .expect("feeder thread")
        .expect("dbp-serve reads all input");
    assert!(out.status.success(), "dbp-serve exited {:?}", out.status);
    String::from_utf8(out.stdout).expect("responses are UTF-8")
}

/// The arrival and clock lines of a recorded first-fit run, with a few
/// tenant-tagged and control lines mixed in.
fn request_lines() -> Vec<String> {
    let inst = random_general(&GeneralConfig::new(6, 300), 5);
    let mut sink = JsonlSink::new(Vec::new());
    let algo = dbp_algos::by_name("first-fit").expect("first-fit is registered");
    run_with_sink(&inst, algo, &mut sink).expect("first-fit is legal");
    let text = String::from_utf8(sink.finish().expect("in-memory sink")).expect("UTF-8");
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with("{\"e\":\"arrival\"") || l.starts_with("{\"e\":\"clock\""))
        .map(str::to_string)
        .collect();
    lines.insert(
        10,
        "{\"tenant\":\"b\",\"e\":\"clock\",\"from\":0,\"to\":3}".to_string(),
    );
    lines.insert(20, "{\"op\":\"metrics\"}".to_string());
    lines.insert(30, "".to_string());
    lines
}

fn join(lines: &[String], ending: &str, last_ending: bool) -> Vec<u8> {
    let mut s = lines.join(ending);
    if last_ending {
        s.push_str(ending);
    }
    s.into_bytes()
}

#[test]
fn crlf_and_an_unterminated_last_line_match_lf() {
    let lines = request_lines();
    let lf = serve(join(&lines, "\n", true));
    assert!(lf.contains("\"e\":\"placed\""), "the trace is answered");
    assert_eq!(serve(join(&lines, "\r\n", true)), lf, "CRLF");
    assert_eq!(serve(join(&lines, "\n", false)), lf, "LF, last line open");
    assert_eq!(
        serve(join(&lines, "\r\n", false)),
        lf,
        "CRLF, last line open"
    );
}

#[test]
fn a_huge_line_does_not_stop_the_stream() {
    let lines = request_lines();
    let arrivals = lines.iter().filter(|l| l.contains("\"arrival\"")).count();
    let mut input = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(4 << 20)).into_bytes();
    input.extend(join(&lines, "\n", true));
    let out = serve(input);
    let (first, rest) = out.split_once('\n').expect("responses");
    assert!(first.starts_with("{\"r\":\"error\""), "huge line: {first}");
    assert_eq!(rest.matches("\"e\":\"placed\"").count(), arrivals);
    assert_eq!(
        rest,
        serve(join(&lines, "\n", true)),
        "the rest is unaffected"
    );
}

#[test]
fn hostile_bytes_leave_every_response_valid_json() {
    let input = concat!(
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"size\":\u{1}x,\"dep\":5}\n",
        "{\"e\u{2}\":\"arrival\",\"t\":1,\"item\":0,\"size\":1,\"dep\":5}\n",
        "{\"e\":\"arrival\",\"t\":1,\"item\":0,\"si\u{1f}ze\":1,\"dep\":5}\n",
        "{\"tenant\":\"a\u{2}b\",\"op\":\"metrics\"}\n",
        "{\"tenant\":\"a\\\"b\",\"op\":\"metrics\"}\n",
        "{\"op\":\"re\\\\boot\"}\n",
        "{\"op\":\"\u{0}\u{7}\u{1b}\u{7f}\"}\r\n",
        "{\"e\":\"clock\",\"from\":0,\"to\":\"\t\"}\r\n",
        "\u{8}\u{c}\n",
        "{\"e\":\"arrival\",\"t\":2,\"item\":0,\"size\":1,\"dep\":5}\r\n",
        "{\"e\":\"arrival\",\"t\":3,\"item\":1,\"size\":\"\u{1}\"",
    );
    let out = serve(input.as_bytes().to_vec());
    let mut errors = 0;
    for line in out.lines() {
        if let Err(at) = json::validate(line) {
            panic!("invalid JSON at byte {at}: {}", line.escape_debug());
        }
        errors += usize::from(line.starts_with("{\"r\":\"error\""));
    }
    assert_eq!(
        errors, 10,
        "every hostile line is answered with an error:\n{out}"
    );
    assert!(
        out.contains("\"e\":\"placed\""),
        "the valid arrival is placed"
    );
}

/// A strict JSON validator (RFC 8259) for one response line.
mod json {
    /// `Ok` if `s` is exactly one JSON value, else the failing byte offset.
    pub fn validate(s: &str) -> Result<(), usize> {
        let b = s.as_bytes();
        let mut i = value(b, ws(b, 0))?;
        i = ws(b, i);
        if i == b.len() {
            Ok(())
        } else {
            Err(i)
        }
    }

    fn ws(b: &[u8], mut i: usize) -> usize {
        while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            i += 1;
        }
        i
    }

    fn value(b: &[u8], i: usize) -> Result<usize, usize> {
        match b.get(i) {
            Some(b'{') => seq(b, i + 1, b'}', |b, i| {
                let i = ws(b, string(b, i)?);
                if b.get(i) != Some(&b':') {
                    return Err(i);
                }
                value(b, ws(b, i + 1))
            }),
            Some(b'[') => seq(b, i + 1, b']', value),
            Some(b'"') => string(b, i),
            Some(b't') if b[i..].starts_with(b"true") => Ok(i + 4),
            Some(b'f') if b[i..].starts_with(b"false") => Ok(i + 5),
            Some(b'n') if b[i..].starts_with(b"null") => Ok(i + 4),
            Some(b'-' | b'0'..=b'9') => number(b, i),
            _ => Err(i),
        }
    }

    /// The members of an object or array after its opening bracket.
    fn seq(
        b: &[u8],
        i: usize,
        close: u8,
        item: impl Fn(&[u8], usize) -> Result<usize, usize>,
    ) -> Result<usize, usize> {
        let mut i = ws(b, i);
        if b.get(i) == Some(&close) {
            return Ok(i + 1);
        }
        loop {
            i = ws(b, item(b, i)?);
            match b.get(i) {
                Some(&c) if c == close => return Ok(i + 1),
                Some(b',') => i = ws(b, i + 1),
                _ => return Err(i),
            }
        }
    }

    fn string(b: &[u8], i: usize) -> Result<usize, usize> {
        if b.get(i) != Some(&b'"') {
            return Err(i);
        }
        let mut i = i + 1;
        loop {
            match b.get(i) {
                Some(b'"') => return Ok(i + 1),
                Some(b'\\') => match b.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                    Some(b'u')
                        if b.len() >= i + 6
                            && b[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit) =>
                    {
                        i += 6
                    }
                    _ => return Err(i),
                },
                Some(&c) if c >= 0x20 => i += 1,
                _ => return Err(i),
            }
        }
    }

    fn number(b: &[u8], mut i: usize) -> Result<usize, usize> {
        let digits = |b: &[u8], mut i: usize| {
            let start = i;
            while b.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            if i == start {
                Err(i)
            } else {
                Ok(i)
            }
        };
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        i = match b.get(i) {
            Some(b'0') => i + 1,
            _ => digits(b, i)?,
        };
        if b.get(i) == Some(&b'.') {
            i = digits(b, i + 1)?;
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            i = digits(b, i)?;
        }
        Ok(i)
    }

    #[test]
    fn the_validator_rejects_what_json_rejects() {
        for ok in ["{}", "{\"a\":[1,-2.5e3,true,null,\"\\u0001\"]}", " [ ] "] {
            assert_eq!(validate(ok), Ok(()), "{ok}");
        }
        for bad in [
            "",
            "{",
            "{\"a\":\"\u{1}\"}",
            "{\"a\":01}",
            "{\"a\":1,}",
            "[1]x",
            "{a:1}",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
    }
}
