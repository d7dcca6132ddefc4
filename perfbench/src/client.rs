//! The load generator: one client thread on one loopback connection.
//!
//! An open-loop phase sends on a fixed schedule whatever the server does:
//! Poisson arrivals at a fixed mean rate, drawn from the seed before the
//! phase starts (a constant interval would beat against the server's 1 ms
//! batching window and poll tick and split latency into two modes). Every
//! request is timed
//! from its due time, so a stall that delays later sends shows up in their
//! latency; how late the generator itself ran is recorded per request
//! (`sent - due`). Between sends the thread blocks in `ppoll(2)` until the
//! socket is readable or the next request is due, so it neither spins nor
//! oversleeps a fixed tick. (A socket read timeout would not do: the kernel
//! rounds `SO_RCVTIMEO` to scheduler ticks, which made the generator run
//! milliseconds late.)
//! A closed-loop phase keeps a fixed number of requests outstanding and
//! measures how many replies per second come back.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use usp_index::SearchResult;
use usp_linalg::Matrix;
use usp_serve::protocol::{
    encode_delete, encode_insert, encode_query, parse_reply, FrameDecoder, Reply,
};

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Query-set row.
    Query(u32),
    /// Insert-pool row.
    Insert(u32),
    /// Point id to delete.
    Delete(u64),
}

impl Op {
    pub fn is_write(self) -> bool {
        !matches!(self, Op::Query(_))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Pending,
    Answered,
    Shed,
    Malformed,
    Error,
}

/// One request's life on the wire, in nanoseconds since the shared epoch.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub op: Op,
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub status: Status,
}

impl Req {
    /// Due-to-reply latency, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) as f64 / 1e6
    }
}

/// Chooses each next request and checks each reply.
pub trait Mix {
    /// The next request, or `None` once the mix has nothing more to send.
    fn next(&mut self) -> Option<Op>;
    /// Checks an answered request; `Err` is a correctness failure.
    fn reply(&mut self, op: Op, reply: Reply) -> Result<(), String>;
}

pub enum Pace {
    /// Poisson arrivals at a fixed mean rate (operations per second), seeded.
    Open { rate: f64, seed: u64 },
    /// Fixed number of outstanding requests.
    Closed(usize),
}

/// What one phase sent and got back.
pub struct Phase {
    /// Every request, in send order — open loops only: a closed loop's log
    /// would grow with throughput, so it keeps just the counts.
    pub reqs: Vec<Req>,
    pub sent: usize,
    pub answered: usize,
    pub start: u64,
    pub end: u64,
    pub check_failures: Vec<String>,
}

impl Phase {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// Requests that got no answer: shed, malformed, error or unanswered.
    pub fn failed(&self) -> usize {
        self.sent - self.answered
    }
}

/// Rows the ops index into.
pub struct Rows<'a> {
    pub queries: &'a Matrix,
    pub inserts: &'a Matrix,
}

pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    epoch: Instant,
    out: Vec<u8>,
    buf: Vec<u8>,
}

/// How long a phase waits for its last replies before counting them unanswered.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Below this wait the client re-checks the schedule instead of blocking.
const MIN_BLOCK: Duration = Duration::from_micros(20);

impl Client {
    pub fn connect(addr: SocketAddr, epoch: Instant) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            epoch,
            out: Vec::with_capacity(1 << 12),
            buf: vec![0u8; 1 << 16],
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, id: u32, op: Op, rows: &Rows) -> std::io::Result<()> {
        self.out.clear();
        match op {
            Op::Query(q) => encode_query(&mut self.out, id, rows.queries.row(q as usize)),
            Op::Insert(r) => encode_insert(&mut self.out, id, rows.inserts.row(r as usize)),
            Op::Delete(pid) => encode_delete(&mut self.out, id, pid),
        }
        self.stream.write_all(&self.out)
    }

    /// Runs one phase for `seconds` of sending, then drains its replies.
    pub fn run(
        &mut self,
        mix: &mut dyn Mix,
        pace: Pace,
        seconds: f64,
        rows: &Rows,
    ) -> std::io::Result<Phase> {
        let start = self.now();
        let stop_sending = start + (seconds * 1e9) as u64;
        let deadline = stop_sending + DRAIN_GRACE.as_nanos() as u64;
        let keep_log = matches!(pace, Pace::Open { .. });
        let mut reqs: Vec<Req> = Vec::new();
        // Closed loops: the requests in flight, by id (ids keep counting up).
        let mut in_flight: HashMap<u32, Req> = HashMap::new();
        let (mut sent_count, mut answered, mut end) = (0usize, 0usize, start);
        let mut outstanding = 0usize;
        let mut check_failures = Vec::new();
        let mut exhausted = false;
        // The open-loop schedule, as offsets from `start`.
        let schedule: Vec<u64> = match pace {
            Pace::Open { rate, seed } => {
                let mut rng = Rng::new(seed);
                let mut at = 0.0f64;
                let mut due = Vec::new();
                while at < seconds {
                    due.push((at * 1e9) as u64);
                    at += -(1.0 - rng.uniform()).ln() / rate;
                }
                due
            }
            Pace::Closed(_) => Vec::new(),
        };
        loop {
            let now = self.now();
            if now < stop_sending && !exhausted {
                loop {
                    let i = sent_count;
                    let due = match pace {
                        Pace::Open { .. } => match schedule.get(i) {
                            Some(&at) if start + at <= now => start + at,
                            _ => break,
                        },
                        Pace::Closed(window) if outstanding < window => self.now(),
                        Pace::Closed(_) => break,
                    };
                    let Some(op) = mix.next() else {
                        exhausted = true;
                        break;
                    };
                    let id = u32::try_from(i).expect("fewer than 2^32 requests per phase");
                    // Stamped before the write, so no server-side span of this
                    // request can start before its `sent`.
                    let sent = self.now();
                    self.send(id, op, rows)?;
                    let req = Req {
                        op,
                        due,
                        sent,
                        done: 0,
                        status: Status::Pending,
                    };
                    if keep_log {
                        reqs.push(req);
                    } else {
                        in_flight.insert(id, req);
                    }
                    sent_count += 1;
                    outstanding += 1;
                }
            }
            let done_sending = exhausted || now >= stop_sending;
            if (done_sending && outstanding == 0) || now >= deadline {
                break;
            }
            // Block for replies until the next send is due (or, with nothing
            // left to send, until the drain deadline).
            let wake = match pace {
                Pace::Open { .. } if now < stop_sending && !exhausted => schedule
                    .get(sent_count)
                    .map_or(stop_sending, |&at| start + at),
                _ if outstanding > 0 => deadline.min(now + 50_000_000),
                _ => stop_sending.min(deadline),
            };
            let wait = Duration::from_nanos(wake.saturating_sub(self.now()));
            if wait < MIN_BLOCK {
                continue;
            }
            if !wait_readable(&self.stream, wait)? {
                continue;
            }
            let n = match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    continue
                }
                Err(e) => return Err(e),
            };
            let done = self.now();
            self.decoder.push(&self.buf[..n]);
            while let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?
            {
                let mut closed_req;
                let req = if keep_log {
                    reqs.get_mut(frame.request_id as usize)
                        .filter(|r| r.status == Status::Pending)
                } else {
                    closed_req = in_flight.remove(&frame.request_id);
                    closed_req.as_mut()
                }
                .ok_or_else(|| {
                    std::io::Error::new(
                        ErrorKind::InvalidData,
                        "reply to an unknown or already answered request",
                    )
                })?;
                outstanding -= 1;
                req.done = done;
                end = end.max(done);
                let reply = parse_reply(&frame)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                req.status = match reply {
                    Reply::Shed { .. } => Status::Shed,
                    Reply::Malformed(_) => Status::Malformed,
                    Reply::Error(_) => Status::Error,
                    reply => {
                        if let Err(e) = mix.reply(req.op, reply) {
                            check_failures.push(e);
                        }
                        answered += 1;
                        Status::Answered
                    }
                };
            }
        }
        Ok(Phase {
            reqs,
            sent: sent_count,
            answered,
            start,
            end,
            check_failures,
        })
    }
}

/// xorshift64*: a seeded, dependency-free stream for arrivals and op choice.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Spread small seeds over the state so nearby seeds give unrelated streams.
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// Uniform in [0, 1).
    fn uniform(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of this process so far, all threads, in seconds (0 where the
/// clock is unavailable). Nanosecond-exact, unlike `/proc/self/stat`'s
/// ticks, which quantised a short closed loop's cost by several percent.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (64-bit Linux layout)
    // for the duration of the call.
    match unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } {
        0 => ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9,
        _ => 0.0,
    }
}

/// Blocks until `stream` has bytes to read (`true`) or `timeout` passes
/// (`false`), with nanosecond timeout resolution.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (`struct pollfd`,
    // `struct timespec` on 64-bit Linux) for the duration of the call; nfds = 1
    // matches the one-element array; a null sigmask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// Queries only, cycling through the query set in order (so one query is never
/// in flight twice: the set is larger than the ingress queue). Every answer is
/// checked against `expected` when given, and the first answer per query is
/// kept for recall.
pub struct ReadMix {
    next: u64,
    nq: u32,
    /// Requests left to send (`u64::MAX` = unbounded).
    left: u64,
    expected: Option<Vec<SearchResult>>,
    pub answers: Vec<Option<SearchResult>>,
}

impl ReadMix {
    pub fn new(nq: usize, expected: Option<Vec<SearchResult>>) -> Self {
        Self {
            next: 0,
            nq: nq as u32,
            left: u64::MAX,
            expected,
            answers: vec![None; nq],
        }
    }

    /// One pass over the query set, then stop.
    pub fn once(mut self) -> Self {
        self.left = u64::from(self.nq);
        self
    }
}

impl Mix for ReadMix {
    fn next(&mut self) -> Option<Op> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let q = (self.next % u64::from(self.nq)) as u32;
        self.next += 1;
        Some(Op::Query(q))
    }

    fn reply(&mut self, op: Op, reply: Reply) -> Result<(), String> {
        let (Op::Query(q), Reply::Query(got)) = (op, reply) else {
            return Err(format!("{op:?} got a reply of the wrong kind"));
        };
        if let Some(want) = self.expected.as_ref().map(|e| &e[q as usize]) {
            if *want != got {
                return Err(format!(
                    "query {q}: wire answer {got:?} differs from PartitionIndex::search {want:?}"
                ));
            }
        }
        self.answers[q as usize].get_or_insert(got);
        Ok(())
    }
}

/// Queries mixed with inserts and deletes. Deletes name ids the client knows
/// are live: base points and acked inserts, each deleted at most once. Every
/// insert ack must carry a fresh id and every delete must report `true`.
pub struct WriteMix {
    rng: Rng,
    write_frac: f64,
    base_n: u64,
    next_query: u32,
    nq: u32,
    next_insert: u32,
    pool: u32,
    live: Vec<u64>,
    /// Acked insert ids with the insert-pool row each came from.
    pub inserted: HashMap<u64, u32>,
    pub deleted: HashSet<u64>,
}

impl WriteMix {
    pub fn new(seed: u64, write_frac: f64, base_n: usize, nq: usize, pool: usize) -> Self {
        Self {
            rng: Rng::new(seed),
            write_frac,
            base_n: base_n as u64,
            next_query: 0,
            nq: nq as u32,
            next_insert: 0,
            pool: pool as u32,
            live: (0..base_n as u64).collect(),
            inserted: HashMap::new(),
            deleted: HashSet::new(),
        }
    }
}

impl Mix for WriteMix {
    fn next(&mut self) -> Option<Op> {
        let u = self.rng.uniform();
        if u < self.write_frac / 2.0 {
            let r = self.next_insert;
            self.next_insert = (self.next_insert + 1) % self.pool;
            Some(Op::Insert(r))
        } else if u < self.write_frac && !self.live.is_empty() {
            let at = (self.rng.uniform() * self.live.len() as f64) as usize;
            let id = self.live.swap_remove(at.min(self.live.len() - 1));
            Some(Op::Delete(id))
        } else {
            let q = self.next_query;
            self.next_query = (self.next_query + 1) % self.nq;
            Some(Op::Query(q))
        }
    }

    fn reply(&mut self, op: Op, reply: Reply) -> Result<(), String> {
        match (op, reply) {
            (Op::Query(_), Reply::Query(_)) => Ok(()),
            (Op::Insert(row), Reply::Insert(id)) => {
                if id < self.base_n || self.inserted.insert(id, row).is_some() {
                    return Err(format!("insert ack carried a reused id {id}"));
                }
                self.live.push(id);
                Ok(())
            }
            (Op::Delete(id), Reply::Delete(true)) => {
                self.deleted.insert(id);
                Ok(())
            }
            (Op::Delete(id), Reply::Delete(false)) => {
                Err(format!("delete of live id {id} returned false"))
            }
            (op, reply) => Err(format!("{op:?} got a reply of the wrong kind: {reply:?}")),
        }
    }
}
