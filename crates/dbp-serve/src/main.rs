//! The `dbp-serve` binary: a streaming placement daemon.
//!
//! ```text
//! dbp-serve --stdin [flags] < trace.jsonl > responses.jsonl
//! dbp-serve --socket /run/dbp.sock [flags]
//! ```
//!
//! Reads JSONL request lines (the `dbp-trace` event codec plus the
//! `tenant`/`op` envelope — see `dbp_serve::protocol`), routes each to
//! its tenant's engine, and streams placements and telemetry back. In
//! `--stdin` mode EOF drains every session and emits final telemetry; in
//! `--socket` mode sessions outlive connections and a client says
//! `{"op":"drain"}` when it wants finality.
//!
//! Flags: `--algo NAME` (default `first-fit`), `--max-live N`
//! (backpressure window), `--compact-slack N`, `--metrics-every N`,
//! `--fail-rate F --fail-seed N --fail-mtbf T` and
//! `--retry immediate|fixed=<t>|exp=<t>` (chaos), `--recourse SPEC`
//! (budgeted repacking: migrations stream out as `ItemMigrated` events),
//! `--restore FILE` (warm-start from a snapshot), `--snapshot-exit FILE`
//! (write every session's snapshot on clean EOF).

use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

use dbp_core::{Dur, SimConfig, SIM_FLAGS};
use dbp_serve::protocol::push_json_str;
use dbp_serve::{parse_request, snapshot, Request, ServeConfig, SessionMap};

fn usage() -> ! {
    eprintln!(
        "usage: dbp-serve (--stdin | --socket PATH) [--algo NAME] [--max-live N]\n\
         \u{20}      [--compact-slack N] [--metrics-every N] [--fail-rate F] [--fail-seed N]\n\
         \u{20}      [--fail-mtbf T] [--retry immediate|fixed=<t>|exp=<t>]\n\
         \u{20}      [--recourse none|epoch=<k>|amortized=<earn>[/<burst>]|unlimited]\n\
         \u{20}      [--restore FILE] [--snapshot-exit FILE]\n\
         algorithms: {:?}",
        dbp_algos::registry_names()
    );
    std::process::exit(2);
}

struct Flags {
    cfg: ServeConfig,
    stdin: bool,
    socket: Option<String>,
    restore: Option<String>,
    snapshot_exit: Option<String>,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut cfg = ServeConfig::default();
    let mut stdin = false;
    let mut socket = None;
    let mut restore = None;
    let mut snapshot_exit = None;
    let mut fail_mtbf = 1000u64;
    let mut sim_flags = Vec::new();
    let next = |it: &mut std::slice::Iter<String>| it.next().cloned().unwrap_or_else(|| usage());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdin" => stdin = true,
            "--socket" => socket = Some(next(&mut it)),
            "--algo" => cfg.algo = next(&mut it),
            "--max-live" => cfg.max_live = next(&mut it).parse().unwrap_or_else(|_| usage()),
            "--compact-slack" => {
                cfg.compact_slack = next(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--metrics-every" => {
                cfg.metrics_every = next(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--fail-mtbf" => fail_mtbf = next(&mut it).parse().unwrap_or_else(|_| usage()),
            flag if SIM_FLAGS.contains(&flag) => {
                sim_flags.push((flag, it.next().map(String::as_str)));
            }
            "--restore" => restore = Some(next(&mut it)),
            "--snapshot-exit" => snapshot_exit = Some(next(&mut it)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    cfg.sim = SimConfig::from_flags(sim_flags, 0, Dur(fail_mtbf)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if stdin == socket.is_some() {
        usage(); // exactly one transport
    }
    Flags {
        cfg,
        stdin,
        socket,
        restore,
        snapshot_exit,
    }
}

/// Capacity a connection's reused line and output buffers shrink back to
/// after each request, so one huge line or one snapshot response does not
/// pin memory in the connection or in the sessions the buffers rotate
/// through.
const REUSED_BUF_BYTES: usize = 4096;

/// Appends a daemon-level `{"r":"error"}` line (a request that reached no
/// session) to `out`.
fn push_error(out: &mut String, msg: &str) {
    out.push_str("{\"r\":\"error\",\"msg\":\"");
    push_json_str(out, msg);
    out.push_str("\"}\n");
}

/// Routes one request line, appending its rendered responses to `out`.
/// The session lock is released before the caller writes them.
fn route(map: &SessionMap, line: &str, out: &mut String) {
    if line.trim().is_empty() {
        return;
    }
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return push_error(out, &e.to_string()),
    };
    let tenant = match &req {
        Request::Event { tenant, .. } | Request::Control { tenant, .. } => {
            tenant.as_deref().unwrap_or("default")
        }
    };
    let session = match map.session(tenant) {
        Ok(s) => s,
        Err(e) => return push_error(out, &e),
    };
    let mut s = session.lock().expect("session lock poisoned");
    s.handle(&req);
    s.swap_output(out);
}

/// Feeds a whole byte stream of request lines through the router.
/// Interactive transports flush after every line; batch (stdin) relies
/// on the writer's buffering and the final flush.
fn serve_reader(
    map: &SessionMap,
    input: impl Read,
    out: &mut impl Write,
    flush_each: bool,
) -> io::Result<()> {
    let mut reader = BufReader::new(input);
    let mut line = String::new();
    let mut rendered = String::new();
    loop {
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        // The line ending `BufRead::lines` strips: `\n`, or `\r\n`.
        let text = match line.strip_suffix('\n') {
            Some(t) => t.strip_suffix('\r').unwrap_or(t),
            None => &line,
        };
        route(map, text, &mut rendered);
        out.write_all(rendered.as_bytes())?;
        if flush_each {
            out.flush()?;
        }
        for buf in [&mut line, &mut rendered] {
            buf.clear();
            buf.shrink_to(REUSED_BUF_BYTES);
        }
    }
}

/// Drains every session (final departures + telemetry) and optionally
/// collects all snapshots into one file. Snapshots are taken *before*
/// the drain: they capture the live state a restarted daemon should
/// resume from, while the drain only serves this process's consumers,
/// who still want finality on the response stream.
fn finalize(map: &SessionMap, out: &mut impl Write, snapshot_exit: Option<&str>) -> io::Result<()> {
    let mut snaps = String::new();
    for tenant in map.tenants() {
        let session = map.session(&tenant).expect("existing session");
        let mut s = session.lock().expect("session lock poisoned");
        if snapshot_exit.is_some() {
            snaps.push_str(&snapshot::write_snapshot(&s));
        }
        s.drain();
        let rendered = s.take_output();
        out.write_all(rendered.as_bytes())?;
    }
    out.flush()?;
    if let Some(path) = snapshot_exit {
        std::fs::write(path, snaps)?;
    }
    Ok(())
}

/// Maps an I/O outcome to an exit code: a broken pipe means the
/// consumer (`head`, a closing client) is done with us — exit quietly.
fn exit_for(res: io::Result<()>) -> ExitCode {
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbp-serve: i/o failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);
    let map = Arc::new(SessionMap::new(flags.cfg.clone()));

    if let Some(path) = &flags.restore {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A snapshot-exit file may hold several tenants' snapshots back
        // to back; split on header lines and restore each.
        let mut chunk = String::new();
        let mut chunks = Vec::new();
        for line in text.lines() {
            if line.contains("\"snap\":") && !chunk.is_empty() {
                chunks.push(std::mem::take(&mut chunk));
            }
            chunk.push_str(line);
            chunk.push('\n');
        }
        if !chunk.trim().is_empty() {
            chunks.push(chunk);
        }
        for chunk in chunks {
            match snapshot::restore(&chunk, &flags.cfg) {
                Ok(session) => {
                    let tenant = session.tenant().to_string();
                    map.install(&tenant, session);
                    eprintln!("restored tenant `{tenant}` from {path}");
                }
                Err(e) => {
                    eprintln!("restore failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if flags.stdin {
        let stdout = std::io::stdout().lock();
        let mut out = BufWriter::new(stdout);
        let res = serve_reader(&map, std::io::stdin().lock(), &mut out, false)
            .and_then(|()| finalize(&map, &mut out, flags.snapshot_exit.as_deref()));
        return exit_for(res);
    }

    let path = flags.socket.expect("one transport enforced above");
    let _ = std::fs::remove_file(&path); // stale socket from a previous run
    let listener = match std::os::unix::net::UnixListener::bind(&path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("dbp-serve listening on {path}");
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("socket clone failed: {e}");
                            return;
                        }
                    };
                    let mut out = BufWriter::new(stream);
                    // A connection-level error (client gone mid-line)
                    // ends this connection; sessions persist for the
                    // next one.
                    let _ = serve_reader(&map, reader, &mut out, true);
                    let _ = out.flush();
                });
            }
            Err(e) => {
                eprintln!("accept failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
