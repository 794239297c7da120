//! The served side: a `fairank serve` child process and the TCP clients
//! that drive it.

use std::collections::{BinaryHeap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::oracle::{err_kind, is_chunk, is_ok, Digest};
use crate::workload::{Req, Visit, CONNECTIONS};

/// How long a client waits for one reply line before counting the reply
/// as dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A `fairank serve` child process, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub flags: Vec<String>,
}

impl ServerProc {
    /// Starts the server with default settings on an ephemeral port
    /// (plus `--allow-fs` when the workload loads a file) and waits for
    /// its `listening on <addr>` line.
    pub fn spawn(bin: &Path, allow_fs: bool) -> Result<ServerProc, String> {
        let mut flags = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        if allow_fs {
            flags.push("--allow-fs".into());
        }
        let mut child = Command::new(bin)
            .arg("serve")
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
                flags,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

/// One request's reply as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    pub digest: u64,
    pub ok: bool,
    /// Error kind of a failed reply (`dropped` when none arrived).
    pub error: Option<String>,
    /// When the first reply line (a chunk, or the terminal line) arrived.
    pub first_line: Instant,
    /// When the terminal line arrived.
    pub done: Instant,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// Reads reply lines up to and including the terminal one.
    pub fn receive(&mut self) -> Served {
        let mut digest = Digest::default();
        let mut first_line = None;
        loop {
            self.buf.clear();
            let read = self.reader.read_until(b'\n', &mut self.buf);
            let now = Instant::now();
            let line = match (read, std::str::from_utf8(&self.buf)) {
                (Ok(n), Ok(text)) if n > 0 && text.ends_with('\n') => text.trim_end(),
                _ => {
                    return Served {
                        digest: 0,
                        ok: false,
                        error: Some("dropped".into()),
                        first_line: first_line.unwrap_or(now),
                        done: now,
                    }
                }
            };
            let first_line = *first_line.get_or_insert(now);
            if is_chunk(line) {
                digest.chunk(line);
                continue;
            }
            let ok = is_ok(line);
            return Served {
                error: (!ok).then(|| err_kind(line)),
                digest: digest.finish(line),
                ok,
                first_line,
                done: now,
            };
        }
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: &Req) -> (Instant, Served) {
        let sent = Instant::now();
        if self.send(&req.line()).is_err() {
            return (sent, dropped(sent));
        }
        (sent, self.receive())
    }
}

fn dropped(at: Instant) -> Served {
    Served {
        digest: 0,
        ok: false,
        error: Some("dropped".into()),
        first_line: at,
        done: at,
    }
}

/// One driven request as the client timed it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub conn: usize,
    /// Position in the connection's driven sequence.
    pub index: usize,
    /// When the request was due: the send time in a closed loop, the
    /// scheduled time in the open loop.
    pub due: Instant,
    pub sent: Instant,
    pub req: Req,
    /// Open loop: the visit the request belongs to.
    pub visit: Option<usize>,
    pub reply: Served,
}

/// Drives each connection closed-loop over its stream until `end`.
pub fn closed_loop(conns: &mut [Conn], streams: &[Vec<Req>], end: Instant) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(c, (conn, stream))| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (index, req) in stream.iter().enumerate() {
                        if Instant::now() >= end {
                            break;
                        }
                        let (sent, reply) = conn.call(req);
                        std::thread::sleep(req.think);
                        let dropped = reply.error.as_deref() == Some("dropped");
                        samples.push(Sample {
                            conn: c,
                            index,
                            due: sent,
                            sent,
                            req: req.clone(),
                            visit: None,
                            reply,
                        });
                        if dropped {
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect()
    })
}

/// Pending-request counts sampled while the open loop runs:
/// `(seconds since start, requests due but not yet answered)`.
pub type Backlog = Vec<(f64, usize)>;

/// A written, unanswered open-loop request: `(visit, step, due, sent)`.
type InFlight = (usize, usize, Instant, Instant);

/// A step that became due: `(due, visit, step)`, ordered earliest first.
#[derive(Debug, PartialEq, Eq)]
struct Due(Instant, usize, usize);

impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Drives the visit schedule open-loop from `start`. Each connection has
/// a sender thread that writes a step when it is due and a receiver
/// thread that reads replies in order (the server answers one request per
/// connection at a time) and makes the visit's next step due. Returns
/// the samples and the backlog the monitor saw.
pub fn open_loop(
    conns: Vec<Conn>,
    visits: &[Visit],
    start: Instant,
    give_up: Instant,
) -> (Vec<Sample>, Backlog) {
    let arrivals_due = |now: Instant| {
        let t = now.saturating_duration_since(start).as_secs_f64();
        visits.iter().filter(|v| v.at_s <= t).count()
    };
    let made_due = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let total_steps: usize = visits.iter().map(|v| v.steps.len()).sum();
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (c, conn) in conns.into_iter().enumerate() {
            let Conn {
                reader,
                writer,
                buf,
            } = conn;
            let mut rx_conn = Conn {
                reader,
                writer: writer.try_clone().expect("clone client socket"),
                buf,
            };
            let mut tx_writer = writer;
            let (ready_tx, ready_rx) = mpsc::channel::<Due>();
            // Requests written but not yet answered, in send order.
            let inflight: Arc<Mutex<VecDeque<InFlight>>> = Arc::default();
            let mine: Vec<(usize, &Visit)> = visits
                .iter()
                .enumerate()
                .filter(|(_, v)| v.conn == c)
                .collect();
            let mine_steps: usize = mine.iter().map(|(_, v)| v.steps.len()).sum();
            let sender_inflight = Arc::clone(&inflight);
            let mine_for_sender = mine.clone();
            threads.push(scope.spawn(move || {
                let mut arrivals = mine_for_sender.iter().peekable();
                let mut ready = BinaryHeap::new();
                let mut sent = 0;
                while sent < mine_steps && Instant::now() < give_up {
                    while let Ok(due) = ready_rx.try_recv() {
                        ready.push(due);
                    }
                    let arrival = arrivals
                        .peek()
                        .map(|(v, visit)| Due(start + Duration::from_secs_f64(visit.at_s), *v, 0));
                    let arrival_first = match (&arrival, ready.peek()) {
                        (Some(a), Some(r)) => a.0 < r.0,
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => {
                            if let Ok(due) = ready_rx.recv_timeout(Duration::from_millis(50)) {
                                ready.push(due);
                            }
                            continue;
                        }
                    };
                    let at = if arrival_first {
                        arrival.as_ref().expect("arrival is next").0
                    } else {
                        ready.peek().expect("a ready step is next").0
                    };
                    let now = Instant::now();
                    if at > now {
                        // Sleep until it is due, waking early for a step
                        // a reply makes due meanwhile.
                        if let Ok(due) = ready_rx.recv_timeout(at - now) {
                            ready.push(due);
                        }
                        continue;
                    }
                    let Due(at, v, step) = if arrival_first {
                        arrivals.next();
                        arrival.expect("arrival is next")
                    } else {
                        ready.pop().expect("a ready step is next")
                    };
                    let line = visits[v].steps[step].line();
                    let sent_at = Instant::now();
                    sender_inflight
                        .lock()
                        .expect("inflight lock")
                        .push_back((v, step, at, sent_at));
                    let mut bytes = line.into_bytes();
                    bytes.push(b'\n');
                    if tx_writer.write_all(&bytes).is_err() {
                        break;
                    }
                    sent += 1;
                }
                Vec::new()
            }));
            let (made_due, answered, finished) = (&made_due, &answered, &finished);
            threads.push(scope.spawn(move || {
                let mut samples = Vec::new();
                let mut index = 0;
                while samples.len() < mine_steps && Instant::now() < give_up {
                    let front = inflight.lock().expect("inflight lock").front().copied();
                    let Some((v, step, due, sent)) = front else {
                        if finished.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    };
                    let reply = rx_conn.receive();
                    inflight.lock().expect("inflight lock").pop_front();
                    answered.fetch_add(1, Ordering::Relaxed);
                    let dropped = reply.error.as_deref() == Some("dropped");
                    let req = &visits[v].steps[step];
                    samples.push(Sample {
                        conn: c,
                        index,
                        due,
                        sent,
                        req: req.clone(),
                        visit: Some(v),
                        reply,
                    });
                    index += 1;
                    if dropped {
                        break;
                    }
                    if step + 1 < visits[v].steps.len() {
                        made_due.fetch_add(1, Ordering::Relaxed);
                        let _ = ready_tx.send(Due(Instant::now(), v, step + 1));
                    }
                }
                samples
            }));
        }
        // Monitor: pending = arrived steps + follow-up steps made due -
        // replies received, sampled every 50 ms until all are answered.
        let mut backlog = Backlog::new();
        while answered.load(Ordering::Relaxed) < total_steps && Instant::now() < give_up {
            let now = Instant::now();
            let pending = (arrivals_due(now) + made_due.load(Ordering::Relaxed))
                .saturating_sub(answered.load(Ordering::Relaxed));
            backlog.push((now.saturating_duration_since(start).as_secs_f64(), pending));
            std::thread::sleep(Duration::from_millis(50));
        }
        finished.store(true, Ordering::Relaxed);
        let mut samples: Vec<Sample> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect();
        samples.sort_by_key(|s| (s.conn, s.index));
        (samples, backlog)
    })
}

/// Runs each connection's setup requests, connection by connection.
pub fn run_setup(conns: &mut [Conn], setup: &[Vec<Req>]) -> Vec<Vec<Served>> {
    conns
        .iter_mut()
        .zip(setup)
        .map(|(conn, reqs)| reqs.iter().map(|req| conn.call(req).1).collect())
        .collect()
}

/// Opens one connection per client.
pub fn connect(addr: &str) -> Result<Vec<Conn>, String> {
    (0..CONNECTIONS).map(|_| Conn::open(addr)).collect()
}
