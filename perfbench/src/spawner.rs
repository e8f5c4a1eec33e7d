//! Starts the daemons from a small helper process.
//!
//! Linux hands a child the peak resident memory of the process that
//! started it: until `exec`, the child shares or copies its parent's
//! memory, and `exec` folds that memory's high-water mark into the
//! child's `ru_maxrss`. Started from the harness, which holds the
//! recordings, the schedule and the reference table, every daemon would
//! report the harness's peak instead of its own. So the harness starts
//! this helper (its own binary with `--spawner`) before it allocates
//! anything; the helper starts the daemons, reaps them with `wait4`, and
//! reports each one's own CPU time and peak memory.
//!
//! The protocol is one tab-separated line each way:
//! `spawn <stdin path> <stdout path> <program> <args>...` (an empty path
//! means `/dev/null`) answers the pid; `wait <pid>` and `kill <pid>` reap
//! the daemon and answer `<exit code> <cpu seconds> <peak MB>`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Mutex, OnceLock};

use crate::common::{Rusage, Usage};

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How a daemon ended.
pub struct Exit {
    /// Exit code, or minus the signal that ended it.
    pub code: i32,
    pub usage: Usage,
}

/// The helper's side: serves requests on stdin until it closes.
pub fn serve() {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("read a request");
        let f: Vec<&str> = line.split('\t').collect();
        let reply = match f.as_slice() {
            ["spawn", input, output, program, args @ ..] => {
                let stdin: Stdio = if input.is_empty() {
                    Stdio::null()
                } else {
                    std::fs::File::open(input)
                        .expect("daemon input file")
                        .into()
                };
                let stdout: Stdio = if output.is_empty() {
                    Stdio::null()
                } else {
                    std::fs::File::create(output)
                        .expect("daemon output file")
                        .into()
                };
                // Reaped by pid with wait4 below, which also reports its
                // CPU time and peak memory; dropping a Child neither kills
                // nor waits for it.
                #[allow(clippy::zombie_processes)]
                let child = Command::new(program)
                    .args(args)
                    .stdin(stdin)
                    .stdout(stdout)
                    .stderr(Stdio::null())
                    .spawn()
                    .unwrap_or_else(|e| panic!("cannot start {program}: {e}"));
                child.id().to_string()
            }
            [op @ ("wait" | "kill"), pid] => {
                let pid: i32 = pid.parse().expect("a pid");
                if *op == "kill" {
                    const SIGKILL: i32 = 9;
                    // SAFETY: a plain syscall on a child this helper
                    // started and has not reaped, so the pid is not reused.
                    unsafe { kill(pid, SIGKILL) };
                }
                let mut status = 0;
                let mut ru = Rusage::default();
                // SAFETY: `status` and `ru` are live, writable values with
                // the kernel's `int` and `struct rusage` layouts, and wait4
                // writes only them.
                let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
                assert_eq!(rc, pid, "wait4 on daemon {pid} failed");
                let code = if status & 0x7f == 0 {
                    (status >> 8) & 0xff
                } else {
                    -(status & 0x7f)
                };
                let u = Usage::from(&ru);
                format!("{code}\t{}\t{}", u.cpu_s, u.peak_rss_mb)
            }
            _ => panic!("unknown request {line:?}"),
        };
        writeln!(out, "{reply}").expect("answer a request");
        out.flush().expect("answer a request");
    }
}

struct Helper {
    child: Child,
    /// `None` once the helper was told to stop.
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

static HELPER: OnceLock<Mutex<Helper>> = OnceLock::new();

/// Stops the helper when dropped, also when the harness unwinds from a
/// panic: the daemons' own guards have killed them by then.
pub struct Running;

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(m) = HELPER.get() {
            let mut h = m.lock().unwrap_or_else(|e| e.into_inner());
            // Closing its stdin ends the helper's loop.
            drop(h.to.take());
            let _ = h.child.wait();
        }
    }
}

/// Starts the helper. Call it first thing, while this process is small:
/// the helper's peak is the floor of every daemon's.
pub fn start() -> Running {
    let exe = std::env::current_exe().expect("path of the running harness");
    let mut child = Command::new(exe)
        .arg("--spawner")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start the spawner helper");
    let to = child.stdin.take();
    let from = BufReader::new(child.stdout.take().expect("piped stdout"));
    let helper = Helper { child, to, from };
    assert!(
        HELPER.set(Mutex::new(helper)).is_ok(),
        "spawner started twice"
    );
    Running
}

fn request(line: &str) -> std::io::Result<String> {
    let broken = |what: &str| std::io::Error::other(format!("spawner helper {what}"));
    let m = HELPER.get().ok_or_else(|| broken("not started"))?;
    let mut h = m.lock().map_err(|_| broken("lock poisoned"))?;
    let h = &mut *h;
    let to = h.to.as_mut().ok_or_else(|| broken("stopped"))?;
    writeln!(to, "{line}")?;
    to.flush()?;
    let mut reply = String::new();
    if h.from.read_line(&mut reply)? == 0 {
        return Err(broken("exited"));
    }
    Ok(reply.trim_end().to_string())
}

/// Starts `program` with `args`, stdin and stdout from and to the given
/// files (`None`: `/dev/null`). Returns its pid.
pub fn spawn(program: &str, args: &[&str], stdin: Option<&str>, stdout: Option<&str>) -> i32 {
    let mut line = format!(
        "spawn\t{}\t{}\t{program}",
        stdin.unwrap_or(""),
        stdout.unwrap_or("")
    );
    for a in args {
        line.push('\t');
        line.push_str(a);
    }
    request(&line)
        .expect("spawner starts the daemon")
        .parse()
        .expect("spawner answers a pid")
}

fn reaped(reply: std::io::Result<String>) -> std::io::Result<Exit> {
    let reply = reply?;
    let f: Vec<&str> = reply.split('\t').collect();
    let bad = || std::io::Error::other(format!("bad spawner reply {reply:?}"));
    let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
    Ok(Exit {
        code: f[0].parse().map_err(|_| bad())?,
        usage: Usage {
            cpu_s: num(1)?,
            peak_rss_mb: num(2)?,
        },
    })
}

/// Waits for a daemon that exits by itself.
pub fn wait(pid: i32) -> std::io::Result<Exit> {
    reaped(request(&format!("wait\t{pid}")))
}

/// Kills a daemon and reaps it.
pub fn kill_and_reap(pid: i32) -> std::io::Result<Exit> {
    reaped(request(&format!("kill\t{pid}")))
}
