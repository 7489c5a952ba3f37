//! Open-loop and closed-loop load generation.
//!
//! The open-loop generator sends on a fixed schedule whatever the system
//! does, and every latency is taken from the moment the request was
//! *due*, so a stall in the generator or the system is charged to every
//! request it delayed. How late the generator itself ran is reported
//! separately.

use crate::inputs::{Pool, Replay};
use crate::util::{ns, pct};
use fourq_cpu::CompiledKernel;
use fourq_serve::proto::{encode_request, Status};
use fourq_serve::Client;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Latency limit: 20 of the default 500 µs coalescing windows.
pub const LIMIT_NS: u64 = 10_000_000;

/// A request that failed, was refused or never came back.
pub const NEVER: u64 = u64::MAX;

/// How long a receiver waits without any answer before it gives up on
/// the rest. A slow spell of a shared host slows answers down but does
/// not stop them, so only a stalled server runs into this; a fixed
/// deadline after the last due time would count answers that come late
/// as missing.
const STALL: Duration = Duration::from_secs(10);

/// What one phase observed, per request.
pub struct PhaseOut {
    pub rate: f64,
    /// Due → answered, or [`NEVER`].
    pub lat_ns: Vec<u64>,
    /// Due → handed to the system.
    pub late_ns: Vec<u64>,
    /// Status and payload of each answer (`None`: missing).
    pub answers: Vec<Option<(Status, Vec<u8>)>>,
}

impl PhaseOut {
    pub fn n(&self) -> usize {
        self.lat_ns.len()
    }

    /// Requests without an `Ok` answer.
    pub fn not_ok(&self) -> usize {
        self.answers
            .iter()
            .filter(|a| !matches!(a, Some((Status::Ok, _))))
            .count()
    }

    pub fn busy(&self) -> usize {
        self.answers
            .iter()
            .filter(|a| matches!(a, Some((Status::Busy, _))))
            .count()
    }

    pub fn missing(&self) -> usize {
        self.answers.iter().filter(|a| a.is_none()).count()
    }

    pub fn sorted_lat(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }

    /// Sustainable at this rate: every request answered `Ok`, p90 within
    /// the limit, and no growing backlog — the median of the last quarter
    /// also within the limit (a backlog that grows shows there first).
    pub fn sustainable(&self) -> bool {
        let mut tail = self.lat_ns[self.n() * 3 / 4..].to_vec();
        tail.sort_unstable();
        self.not_ok() == 0
            && pct(&self.sorted_lat(), 0.9) <= LIMIT_NS
            && pct(&tail, 0.5) <= LIMIT_NS
    }
}

/// Paces `n` requests at `rate` per second from `t0`: calls
/// `send(lo, hi)` with each run of requests that has come due, sleeping
/// in between. Returns nothing; callers timestamp inside `send`.
pub fn pace(t0: Instant, rate: f64, n: usize, mut send: impl FnMut(usize, usize)) {
    let period = 1.0 / rate;
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 * period);
    let mut i = 0;
    while i < n {
        let now = Instant::now();
        if now < due(i) {
            std::thread::sleep(due(i) - now);
            continue;
        }
        let elapsed = now.duration_since(t0).as_secs_f64();
        let hi = ((elapsed * rate) as usize + 1).clamp(i + 1, n);
        send(i, hi);
        i = hi;
    }
}

/// Due time of request `i`.
pub fn due(t0: Instant, rate: f64, i: usize) -> Instant {
    t0 + Duration::from_secs_f64(i as f64 / rate)
}

/// One open-loop phase over TCP: the drawn requests at `rate`, one
/// connection, a sender thread (this one) and a receiver thread.
pub fn tcp_phase(addr: SocketAddr, pool: &Pool, idx: &[u32], rate: f64) -> PhaseOut {
    let (bytes, ends) = pool.encode(idx);
    tcp_frames(addr, &bytes, &ends, rate)
}

/// [`tcp_phase`] on encoded request frames with ids `0..n`: `bytes`
/// holds the frames back to back and `ends[i]` is where frame `i` ends.
pub fn tcp_frames(addr: SocketAddr, bytes: &[u8], ends: &[usize], rate: f64) -> PhaseOut {
    let n = ends.len();
    let mut tx = TcpStream::connect(addr).expect("connect to the server");
    tx.set_nodelay(true).expect("nodelay");
    let rx = tx.try_clone().expect("clone stream");
    rx.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let t0 = Instant::now() + Duration::from_millis(2);
    let last_due = due(t0, rate, n);
    let mut sent = vec![t0; n];
    let (answers, done) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut client = Client::from_stream(rx);
            let mut answers: Vec<Option<(Status, Vec<u8>)>> = vec![None; n];
            let mut done = vec![t0; n];
            let mut got = 0;
            let mut last_answer = t0;
            while got < n {
                match client.recv() {
                    Ok(resp) => {
                        let at = Instant::now();
                        let id = resp.id as usize;
                        if id < n && answers[id].is_none() {
                            answers[id] = Some((resp.status, resp.payload));
                            done[id] = at;
                            got += 1;
                            last_answer = at;
                        }
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if Instant::now() > last_due.max(last_answer) + STALL {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            (answers, done)
        });
        pace(t0, rate, n, |lo, hi| {
            let from = if lo == 0 { 0 } else { ends[lo - 1] };
            let now = Instant::now();
            sent[lo..hi].fill(now);
            // A failed write leaves those requests unanswered (missing).
            let _ = tx.write_all(&bytes[from..ends[hi - 1]]);
        });
        receiver.join().expect("receiver thread")
    });
    let mut lat_ns = Vec::with_capacity(n);
    let mut late_ns = Vec::with_capacity(n);
    for i in 0..n {
        let d = due(t0, rate, i);
        late_ns.push(ns(sent[i].saturating_duration_since(d)));
        lat_ns.push(match &answers[i] {
            Some((Status::Ok, _)) => ns(done[i].saturating_duration_since(d)),
            _ => NEVER,
        });
    }
    PhaseOut {
        rate,
        lat_ns,
        late_ns,
        answers,
    }
}

/// What a closed loop of request batches observed.
pub struct Batches {
    /// Answer `i` is to `idx[i]`; the unsent tail of `idx` is left out.
    pub answers: Vec<Option<(Status, Vec<u8>)>>,
    /// Send → last answer, per completed batch.
    pub rtt_ns: Vec<u64>,
    pub wall: Duration,
}

/// Closed loop over TCP in batches, through `idx` until `budget` has
/// passed: `batch` requests go out in one write, and a new batch goes out
/// whenever fewer than `depth` are unanswered. With `batch` at the
/// server's `max_batch`, each batch is one full flush; at `depth` 2 a
/// full flush is always waiting and the server runs saturated.
pub fn tcp_batches(
    addr: SocketAddr,
    pool: &Pool,
    idx: &[u32],
    batch: usize,
    depth: usize,
    budget: Duration,
) -> Batches {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(STALL)).expect("read timeout");
    let mut tx = stream.try_clone().expect("clone stream");
    let mut client = Client::from_stream(stream);
    let mut out = Batches {
        answers: Vec::new(),
        rtt_ns: Vec::new(),
        wall: Duration::ZERO,
    };
    // Per batch: when it went out and how many answers it still awaits.
    let (mut sent_at, mut left) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let (mut sent, mut open) = (0, 0);
    loop {
        while open < depth && sent < idx.len() && start.elapsed() < budget {
            let to = (sent + batch).min(idx.len());
            let bytes: Vec<u8> = (sent..to)
                .flat_map(|id| encode_request(id as u64, &pool.items[idx[id] as usize].req))
                .collect();
            out.answers.resize(to, None);
            sent_at.push(Instant::now());
            left.push(to - sent);
            open += 1;
            // A failed write leaves those requests unanswered (missing).
            let _ = tx.write_all(&bytes);
            sent = to;
        }
        if open == 0 {
            break;
        }
        match client.recv() {
            Ok(r) if (r.id as usize) < sent && out.answers[r.id as usize].is_none() => {
                let b = r.id as usize / batch;
                out.answers[r.id as usize] = Some((r.status, r.payload));
                left[b] -= 1;
                if left[b] == 0 {
                    out.rtt_ns.push(ns(sent_at[b].elapsed()));
                    open -= 1;
                }
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    out.wall = start.elapsed();
    out
}

/// Server-side counters through the `Stats` op.
pub fn wire_stats(addr: SocketAddr) -> fourq_serve::proto::WireStats {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats op")
}

/// Waits until the server has flushed `items` requests (so a probe's
/// backlog does not spill into the next phase).
pub fn wait_drained(addr: SocketAddr, items: u64) {
    let give_up = Instant::now() + Duration::from_secs(20);
    while Instant::now() < give_up {
        let st = wire_stats(addr);
        if st.items + st.busy_rejects >= items {
            // Flushed is not yet executed: leave the last flush time.
            std::thread::sleep(Duration::from_millis(30));
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The compiled kernels a replay needs.
pub struct Kernels {
    pub fourq: CompiledKernel,
    pub x25519: CompiledKernel,
    pub p256: CompiledKernel,
}

impl Kernels {
    /// One replay; `None` if the kernel reported an error.
    pub fn run(&self, r: &Replay) -> Option<Vec<u8>> {
        match r {
            Replay::FourQ { base, k } => self
                .fourq
                .execute(base, k)
                .ok()
                .map(|p| p.encode().to_vec()),
            Replay::X25519 { k, u } => self.x25519.execute_x25519(k, u).ok().map(|o| o.to_vec()),
            Replay::P256 { k, point } => self.p256.execute_p256(k, point).ok().map(|o| o.to_vec()),
        }
    }
}

/// Per-request timestamps of the in-process replay service.
pub struct ReplayTimes {
    pub due: Vec<Instant>,
    pub sent: Vec<Instant>,
    pub start: Vec<Instant>,
    pub end: Vec<Instant>,
}

/// One open-loop phase against a single replay thread (this one): a
/// generator thread hands each replay over a channel when it falls due.
pub fn replay_phase(
    kernels: &Kernels,
    items: &[Replay],
    idx: &[u32],
    rate: f64,
) -> (PhaseOut, ReplayTimes) {
    let n = idx.len();
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let mut times = ReplayTimes {
        due: (0..n).map(|i| due(t0, rate, i)).collect(),
        sent: vec![t0; n],
        start: vec![t0; n],
        end: vec![t0; n],
    };
    let mut answers: Vec<Option<(Status, Vec<u8>)>> = vec![None; n];
    std::thread::scope(|s| {
        s.spawn(move || {
            pace(t0, rate, n, |lo, hi| {
                let now = Instant::now();
                for i in lo..hi {
                    tx.send((i, now)).expect("replay thread alive");
                }
            });
        });
        // The replay thread polls its queue, as the ASIC's sequencer
        // polls its input: no OS wake-up sits in the measured path.
        loop {
            let (i, sent) = match rx.try_recv() {
                Ok(job) => job,
                Err(mpsc::TryRecvError::Empty) => {
                    std::hint::spin_loop();
                    continue;
                }
                Err(mpsc::TryRecvError::Disconnected) => break,
            };
            let start = Instant::now();
            let out = kernels.run(&items[idx[i] as usize]);
            let end = Instant::now();
            times.sent[i] = sent;
            times.start[i] = start;
            times.end[i] = end;
            answers[i] = Some(match out {
                Some(bytes) => (Status::Ok, bytes),
                None => (Status::Failed, Vec::new()),
            });
        }
    });
    let lat_ns = (0..n)
        .map(|i| match &answers[i] {
            Some((Status::Ok, _)) => ns(times.end[i].saturating_duration_since(times.due[i])),
            _ => NEVER,
        })
        .collect();
    let late_ns = (0..n)
        .map(|i| ns(times.sent[i].saturating_duration_since(times.due[i])))
        .collect();
    (
        PhaseOut {
            rate,
            lat_ns,
            late_ns,
            answers,
        },
        times,
    )
}

/// The fixed rate ladder: rung `k` is `100 · 1.04^k` requests per second
/// (4 % steps).
pub fn rung(k: i32) -> f64 {
    100.0 * 1.04f64.powi(k)
}

/// The sustained-rate search on the fixed ladder: an up/down staircase
/// that starts at the expected capacity and moves after each probe, up
/// after a sustainable one and down after a failed one. While the
/// direction repeats the step doubles, up to 4 rungs, so the staircase
/// climbs back out of a slow spell of a shared host in a few probes
/// instead of one rung at a time; where passes and failures alternate,
/// at the threshold, it steps one rung. The caller spreads the probes
/// over the whole run.
///
/// The reported rate is the highest rung sustained at least twice (once,
/// if none was), so one lucky probe cannot raise it, and a slow spell
/// that covers part of the run only adds failures below it.
pub struct Ladder {
    k: i32,
    /// Consecutive passes (positive) or failures (negative).
    streak: i32,
    passed: BTreeMap<i32, usize>,
    /// Every probe made: rate and verdict.
    pub log: Vec<(f64, bool)>,
}

impl Ladder {
    pub fn new(center: f64) -> Ladder {
        Ladder {
            k: ((center / 100.0).ln() / 1.04f64.ln()).round().max(0.0) as i32,
            streak: 0,
            passed: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// The rate of the next probe.
    pub fn rate(&self) -> f64 {
        rung(self.k)
    }

    /// Records the verdict of a probe at [`Ladder::rate`] and moves on.
    pub fn record(&mut self, sustained: bool) {
        self.log.push((rung(self.k), sustained));
        if sustained {
            *self.passed.entry(self.k).or_insert(0) += 1;
            self.streak = self.streak.max(0) + 1;
        } else {
            self.streak = self.streak.min(0) - 1;
        }
        let step = 1 << (self.streak.unsigned_abs().min(3) - 1);
        self.k = (self.k + step * self.streak.signum()).max(0);
    }

    /// The sustained rate so far; below the lowest probe if none passed.
    pub fn sustained(&self) -> f64 {
        let twice = self.passed.iter().rev().find(|(_, &n)| n >= 2);
        match twice.or_else(|| self.passed.iter().next_back()) {
            Some((&k, _)) => rung(k),
            None => {
                let lowest = self
                    .log
                    .iter()
                    .map(|&(r, _)| r)
                    .fold(f64::INFINITY, f64::min);
                lowest / 1.04
            }
        }
    }
}
