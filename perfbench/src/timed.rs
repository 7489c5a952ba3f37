//! The timed (untraced) run of each workload: set-up, then rounds of
//! two closed-loop slices, a low-rate slice, a high-rate slice and two
//! probes of the sustained-rate staircase. Rounds interleave the slices
//! and the probes over the whole run, so a slow spell of a shared host
//! lands in some slices of each metric rather than in all of one. Each
//! slice metric is a quartile of its per-slice values (see
//! [`from_good_end`]); every rate gets at least 1000 samples.

use crate::inputs::{self, Pool, Replay, ReplayPool, Seen};
use crate::load::{self, Kernels, PhaseOut, NEVER};
use crate::util::{median, pct, Rng, J};
use crate::{m, rates, Metric, Outcome, Rates};
use fourq_serve::proto::{decode_response, encode_response, FrameReader, Response};
use fourq_serve::ServerConfig;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// p99 latency limit in milliseconds.
pub const LIMIT_MS: f64 = load::LIMIT_NS as f64 / 1e6;

/// Fewest and most rounds of slices, and the seconds one round aims at.
const ROUNDS: (usize, usize) = (4, 20);
const ROUND_S: f64 = 3.0;
/// Fewest samples in one open-loop slice.
const MIN_SLICE: f64 = 300.0;
/// Fewest samples in one staircase probe (50 beyond its p90).
const MIN_PROBE: f64 = 500.0;
/// Cold set-ups of a serve workload, each in a fresh process.
const COLD_SETUPS: usize = 15;
/// No round starts once the rounds have taken this many times the run's
/// seconds, so a run that a slow spell of the host drags out still ends
/// well within its time limit.
const OVERRUN: f64 = 2.5;

/// The server configuration of the serve workloads: the default, with
/// one engine thread. On a 2-vCPU host that also runs the load
/// generator and the server's reactor, the default's two engine threads
/// fork and join on every per-kind group of a flush. Each join then
/// waits for a wake-up of the other vCPU, and on a shared host that wait
/// ranges from microseconds to milliseconds from one minute to the
/// next. The serve figures measured that wait rather than the program:
/// closed-loop slices of one run spread by a third, and runs minutes
/// apart differed by 30 %. With one engine thread the good-side figure
/// of three runs agreed within 1 %. Thread scaling stays measured as the
/// per-layer `pool.speedup_t2`.
pub fn serve_config() -> ServerConfig {
    ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    }
}

/// Milliseconds at a percentile; a request that never came back reads
/// as infinite.
pub fn ms_at(sorted: &[u64], q: f64) -> f64 {
    match pct(sorted, q) {
        NEVER => f64::INFINITY,
        v => v as f64 / 1e6,
    }
}

pub fn phase_json(p: &PhaseOut) -> J {
    let lat = p.sorted_lat();
    let mut late = p.late_ns.clone();
    late.sort_unstable();
    J::obj(vec![
        ("rate_rps", J::n(p.rate)),
        ("samples", J::u(p.n() as u64)),
        ("p50_ms", J::n(ms_at(&lat, 0.5))),
        ("p99_ms", J::n(ms_at(&lat, 0.99))),
        ("late_ms_p99", J::n(ms_at(&late, 0.99))),
        ("not_ok", J::u(p.not_ok() as u64)),
        ("busy", J::u(p.busy() as u64)),
        ("missing", J::u(p.missing() as u64)),
    ])
}

/// One closed-loop slice: unloaded latencies that feed the percentiles,
/// calls completed at saturation and their wall time, requests made and
/// requests refused or failed.
pub struct Closed {
    pub lat_ns: Vec<u64>,
    pub calls: usize,
    pub wall: Duration,
    pub attempted: usize,
    pub refused: usize,
}

/// The value at `share` from the good end of per-slice values: at 1/4,
/// the quartile on the good side (the third best of ten); at 0, the best;
/// at 3/4, the quartile on the bad side.
fn from_good_end(mut xs: Vec<f64>, higher_is_better: bool, share: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    if higher_is_better {
        xs.reverse();
    }
    let rank = (xs.len() as f64 * share).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Share from the good end for open-loop slices, whose latency also
/// varies with the drawn requests and their timing.
const OPEN_SHARE: f64 = 0.25;

/// The rounds and the staircase, common to every workload.
struct Timed {
    metrics: Vec<Metric>,
    tails: Vec<Metric>,
    details: Vec<(&'static str, J)>,
    attempted: u64,
    refused: u64,
}

/// How a workload runs one slice; the rounds and the staircase around the
/// slices are shared.
trait Load {
    /// Share from the good end taken over the closed-loop slices (see
    /// [`from_good_end`]).
    const CLOSED_SHARE: f64;
    /// A closed-loop slice lasting `budget`.
    fn closed(&mut self, budget: Duration) -> Closed;
    /// An open-loop slice at `rate` requests per second for `secs`.
    fn open(&mut self, rate: f64, secs: f64) -> PhaseOut;
}

fn timed_phases<L: Load>(r: &Rates, secs: f64, load: &mut L) -> Timed {
    // Four fifths of the run go to the rounds; the rest is the drain
    // waits between slices, set-up and the audit.
    let rounds = ((secs / ROUND_S).round() as usize).clamp(ROUNDS.0, ROUNDS.1);
    let b = 0.8 * secs / rounds as f64;
    let closed_slice = Duration::from_secs_f64(0.15 * b);
    let low_s = (0.18 * b).max(MIN_SLICE / r.low);
    let high_s = (0.14 * b).max(MIN_SLICE / r.high);
    let probe_s = |rate: f64| (0.15 * b).max(MIN_PROBE / rate);
    let (mut cl, mut lo, mut hi) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut refused, mut attempted, mut probes) = (0, 0, 0, 0);
    let mut ladder = load::Ladder::new(r.center);
    let start = Instant::now();
    let mut rounds_run = 0;
    for _ in 0..rounds {
        if rounds_run > 0 && start.elapsed().as_secs_f64() > OVERRUN * secs {
            break;
        }
        rounds_run += 1;
        for (rate, s, into) in [(r.low, low_s, &mut lo), (r.high, high_s, &mut hi)] {
            let c = load.closed(closed_slice);
            calls += c.attempted;
            refused += c.refused;
            attempted += c.attempted;
            let mut lat = c.lat_ns;
            lat.sort_unstable();
            cl.push((lat, c.calls as f64 / c.wall.as_secs_f64()));
            let p = load.open(rate, s);
            refused += p.not_ok();
            attempted += p.n();
            into.push(p);
            // One staircase probe after each open-loop slice.
            let rate = ladder.rate();
            let p = load.open(rate, probe_s(rate));
            probes += p.n();
            ladder.record(p.sustainable());
        }
    }
    attempted += probes;
    let sustained = ladder.sustained();
    let log = ladder.log;

    let slice_ms = |ps: &[PhaseOut], q: f64| {
        from_good_end(
            ps.iter().map(|p| ms_at(&p.sorted_lat(), q)).collect(),
            false,
            OPEN_SHARE,
        )
    };
    let closed_us = |q: f64| {
        let us = cl.iter().map(|c| ms_at(&c.0, q) * 1e3).collect();
        from_good_end(us, false, L::CLOSED_SHARE)
    };
    let closed_ops = from_good_end(cl.iter().map(|c| c.1).collect(), true, L::CLOSED_SHARE);
    let mut late: Vec<u64> = lo
        .iter()
        .chain(&hi)
        .flat_map(|p| p.late_ns.iter().copied())
        .collect();
    late.sort_unstable();
    let metrics = vec![
        m("closed_us_p50", closed_us(0.5), "us"),
        m("closed_ops_per_s", closed_ops, "1/s"),
    ];
    // Printed and recorded, not gated. Everything measured under open
    // load rides on how fast a halted vCPU wakes: when a shared host is
    // busy, that takes milliseconds for minutes on end, and the serve
    // workloads' open-loop latencies and sustained rate fall by 3 to 20
    // times, past any bound the benchmark may set.
    let tails = vec![
        m("p50_ms_low", slice_ms(&lo, 0.5), "ms"),
        m("p90_ms_low", slice_ms(&lo, 0.9), "ms"),
        m("p99_ms_low", slice_ms(&lo, 0.99), "ms"),
        m("p50_ms_high", slice_ms(&hi, 0.5), "ms"),
        m("p90_ms_high", slice_ms(&hi, 0.9), "ms"),
        m("p99_ms_high", slice_ms(&hi, 0.99), "ms"),
        m("sustained_rps", sustained, "1/s"),
        m("closed_us_p90", closed_us(0.9), "us"),
        m("closed_us_p99", closed_us(0.99), "us"),
    ];
    let slices = |ps: &[PhaseOut]| J::Arr(ps.iter().map(phase_json).collect());
    let details = vec![
        ("latency_limit_ms", J::n(LIMIT_MS)),
        ("rounds", J::u(rounds_run as u64)),
        (
            "rates_rps",
            J::obj(vec![("low", J::n(r.low)), ("high", J::n(r.high))]),
        ),
        (
            "samples",
            J::obj(vec![
                ("closed", J::u(calls as u64)),
                ("low", J::u(lo.iter().map(|p| p.n() as u64).sum::<u64>())),
                ("high", J::u(hi.iter().map(|p| p.n() as u64).sum::<u64>())),
                ("staircase", J::u(probes as u64)),
            ]),
        ),
        (
            "slices_closed",
            J::Arr(
                cl.iter()
                    .map(|(lat, ops)| {
                        J::obj(vec![
                            ("p50_us", J::n(ms_at(lat, 0.5) * 1e3)),
                            ("ops_per_s", J::n(*ops)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("slices_low", slices(&lo)),
        ("slices_high", slices(&hi)),
        (
            "staircase",
            J::Arr(
                log.iter()
                    .map(|&(r, ok)| J::obj(vec![("rate_rps", J::n(r)), ("sustained", J::Bool(ok))]))
                    .collect(),
            ),
        ),
        ("late_ms_p99", J::n(ms_at(&late, 0.99))),
    ];
    Timed {
        metrics,
        tails,
        details,
        attempted: attempted as u64,
        refused: refused as u64,
    }
}

fn outcome(
    t: Timed,
    setups: &[f64],
    wrong: u64,
    checks_failed: Vec<String>,
    mut details: Vec<(&'static str, J)>,
) -> Outcome {
    let mut metrics = t.metrics;
    metrics.push(m("setup_s", median(setups), "s"));
    metrics.push(m("rss_mb", crate::util::peak_rss_mb(), "MB"));
    details.push((
        "setup_s_samples",
        J::Arr(setups.iter().map(|&s| J::n(s)).collect()),
    ));
    details.extend(t.details);
    details.push((
        "failures",
        J::obj(vec![
            ("refused_or_missing", J::u(t.refused)),
            ("wrong", J::u(wrong)),
            (
                "fail_ratio",
                J::n((t.refused + wrong) as f64 / t.attempted as f64),
            ),
        ]),
    ));
    Outcome {
        metrics,
        ungated: t.tails,
        attempted: t.attempted,
        failed: t.refused + wrong,
        wrong,
        checks_failed,
        details,
    }
}

/// Slices over TCP against one running server.
struct ServeLoad<'a> {
    addr: std::net::SocketAddr,
    pool: &'a Pool,
    rng: Rng,
    seen: Seen,
    /// Requests sent to this server so far (for the drain check).
    sent: u64,
    drawn: usize,
}

impl Load for ServeLoad<'_> {
    /// The quartile: a batch's cost depends on the requests drawn into
    /// it, so a slice can read fast by luck of the draw.
    const CLOSED_SHARE: f64 = 0.25;

    /// Full-flush batches: half the budget one batch at a time, for the
    /// cost per request of a batch; half two at a time, for the
    /// saturated throughput.
    fn closed(&mut self, budget: Duration) -> Closed {
        let batch = serve_config().max_batch;
        let mut c = Closed {
            lat_ns: Vec::new(),
            calls: 0,
            wall: Duration::ZERO,
            attempted: 0,
            refused: 0,
        };
        for depth in [1, 2] {
            let idx = self.pool.draw(&mut self.rng, 100_000);
            let mut b = load::tcp_batches(self.addr, self.pool, &idx, batch, depth, budget / 2);
            let n = b.answers.len();
            let not_ok = inputs::collect(&mut self.seen, &idx[..n], &mut b.answers);
            if depth == 1 {
                c.lat_ns = b.rtt_ns.iter().map(|t| t / batch as u64).collect();
            } else {
                c.calls = n - not_ok;
                c.wall = b.wall;
            }
            c.attempted += n;
            c.refused += not_ok;
            self.sent += n as u64;
            self.drawn += n;
            load::wait_drained(self.addr, self.sent);
        }
        c
    }

    fn open(&mut self, rate: f64, secs: f64) -> PhaseOut {
        let idx = self.pool.draw(&mut self.rng, (rate * secs).ceil() as usize);
        let mut p = load::tcp_phase(self.addr, self.pool, &idx, rate);
        self.sent += idx.len() as u64;
        self.drawn += idx.len();
        load::wait_drained(self.addr, self.sent);
        inputs::collect(&mut self.seen, &idx, &mut p.answers);
        p
    }
}

/// Set-up of a serve workload, timed in fresh processes so that engine
/// construction counts: each of [`COLD_SETUPS`] child runs of this binary
/// (see [`cold_setup`]) spawns the server and answers one full flush of
/// pool requests. Returns the set-up times and how many warm-up requests
/// had no `Ok` answer; the answers join `seen` for the audit.
fn cold_setups(
    pool: &Pool,
    cfg: &ServerConfig,
    rng: &mut Rng,
    seen: &mut Seen,
) -> (Vec<f64>, usize) {
    let exe = std::env::current_exe().expect("own executable");
    let dir = Path::new(crate::OUT_DIR);
    std::fs::create_dir_all(dir).expect("create the output directory");
    let mut setups = Vec::new();
    let mut not_ok = 0;
    for round in 0..COLD_SETUPS {
        let idx = pool.draw(rng, cfg.max_batch);
        let req = dir.join(format!("warm-{}-{round}.req", std::process::id()));
        let resp = req.with_extension("resp");
        std::fs::write(&req, pool.encode(&idx).0).expect("write warm-up frames");
        let out = Command::new(&exe)
            .arg("--cold-setup")
            .arg(&req)
            .stderr(Stdio::inherit())
            .output()
            .expect("run a cold set-up");
        let secs = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        let mut answers = vec![None; idx.len()];
        let mut frames = FrameReader::new();
        frames.push(&std::fs::read(&resp).unwrap_or_default());
        while let Ok(Some(f)) = frames.next_frame() {
            match decode_response(&f) {
                Ok(r) if (r.id as usize) < idx.len() => {
                    answers[r.id as usize] = Some((r.status, r.payload))
                }
                _ => {}
            }
        }
        let _ = std::fs::remove_file(&req);
        let _ = std::fs::remove_file(&resp);
        not_ok += inputs::collect(seen, &idx, &mut answers);
        match secs {
            Ok(s) if out.status.success() => setups.push(s),
            _ => eprintln!("cold set-up {round} failed"),
        }
    }
    (setups, not_ok)
}

/// Child side of [`cold_setups`], in a process that has built no engine
/// yet: times `spawn` plus the answers to the request frames in `req`,
/// writes the response frames next to it (extension `resp`) and prints
/// the seconds taken.
pub fn cold_setup(req: &Path) -> ! {
    let bytes = std::fs::read(req).expect("read warm-up frames");
    let mut frames = FrameReader::new();
    frames.push(&bytes);
    let mut ends = Vec::new();
    while let Ok(Some(f)) = frames.next_frame() {
        ends.push(ends.last().unwrap_or(&0) + 4 + f.len());
    }
    let t = Instant::now();
    let h = fourq_serve::spawn(serve_config()).expect("spawn fourq-serve");
    let p = load::tcp_frames(h.addr(), &bytes, &ends, 50_000.0);
    let secs = t.elapsed().as_secs_f64();
    h.shutdown();
    let answers = p.answers.into_iter().enumerate();
    let out: Vec<u8> = answers
        .filter_map(|(id, a)| {
            let (status, payload) = a?;
            Some(encode_response(&Response {
                id: id as u64,
                status,
                payload,
            }))
        })
        .flatten()
        .collect();
    std::fs::write(req.with_extension("resp"), out).expect("write warm-up answers");
    println!("{secs}");
    std::process::exit(0);
}

pub fn serve(workload: &str, pool: &Pool, seed: u64, secs: f64) -> Outcome {
    let cfg = serve_config();
    let mut rng = Rng::new(seed, 10);
    let mut seen = Seen::new();
    let (setups, warm_refused) = cold_setups(pool, &cfg, &mut rng, &mut seen);
    let server = fourq_serve::spawn(cfg).expect("spawn fourq-serve");
    let addr = server.addr();

    let mut l = ServeLoad {
        addr,
        pool,
        rng,
        seen,
        sent: 0,
        drawn: COLD_SETUPS * cfg.max_batch,
    };
    let mut t = timed_phases(&rates(workload), secs, &mut l);
    let (seen, drawn) = (l.seen, l.drawn);
    let stats = load::wire_stats(addr);
    server.shutdown();
    let wrong = inputs::audit(pool, &cfg, &seen) as u64;

    t.refused += warm_refused as u64;
    t.attempted += (COLD_SETUPS * cfg.max_batch) as u64;
    let details = vec![
        ("server_config", J::s(format!("{cfg:?}"))),
        (
            "transport",
            J::s("TCP over the loopback interface, not a real link"),
        ),
        (
            "load",
            J::s("one process: 1 sender + 1 receiver thread on 1 connection per slice"),
        ),
        (
            "wire_stats",
            J::obj(vec![
                ("flushes", J::u(stats.flushes)),
                ("items", J::u(stats.items)),
                ("flush_mean", J::n(stats.mean_flush())),
                ("flush_max", J::u(stats.max_flush)),
                ("busy_rejects", J::u(stats.busy_rejects)),
            ]),
        ),
        (
            "inputs",
            J::obj(vec![
                ("pool", J::u(pool.items.len() as u64)),
                ("drawn", J::u(drawn as u64)),
                ("distinct_drawn", J::u(seen.len() as u64)),
                ("repeat_share", J::n(1.0 - seen.len() as f64 / drawn as f64)),
                ("hot_point_share", J::n(pool.hot_share())),
                ("tenants", J::u(pool.tenants)),
                ("forged", J::u(pool.forged as u64)),
            ]),
        ),
    ];
    outcome(t, &setups, wrong, Vec::new(), details)
}

/// Compiles the three kernels at `VERIFY_EFFORT` (the Full kernelcheck
/// runs inside) plus the stitched Fourℚ kernel that the replay uses.
pub fn compile_kernels() -> (Kernels, fourq_cpu::StitchedKernel) {
    use fourq_cpu::{compile_curve, compile_curve_stitched, VERIFY_EFFORT};
    use fourq_curve::CurveId;
    let m = fourq_sched::MachineConfig::paper();
    // The plain Fourℚ compile runs for its checks; the stitched kernel
    // has the shorter schedule and is the one replayed.
    compile_curve(CurveId::FourQ, &m, VERIFY_EFFORT).expect("compile fourq");
    let x25519 = compile_curve(CurveId::X25519, &m, VERIFY_EFFORT).expect("compile x25519");
    let p256 = compile_curve(CurveId::P256, &m, VERIFY_EFFORT).expect("compile p256");
    let stitched = compile_curve_stitched(
        CurveId::FourQ,
        &m,
        VERIFY_EFFORT,
        &fourq_sched::StitchOptions::default(),
    )
    .expect("compile stitched fourq");
    let kernels = Kernels {
        fourq: stitched.kernel.clone(),
        x25519,
        p256,
    };
    (kernels, stitched)
}

/// The exact simulated-statistics block: fingerprint fields of every
/// kernel and the Table I loop body. Deterministic; compared exactly.
pub fn sim_block(k: &Kernels, stitched: &fourq_cpu::StitchedKernel) -> J {
    let fp = |c: &fourq_cpu::CompiledKernel| {
        let f = &c.fingerprint;
        let o = &f.op_counts;
        J::obj(vec![
            ("cycles", J::u(f.cycles)),
            ("lower_bound", J::u(f.lower_bound)),
            ("serial_cycles", J::u(f.serial_cycles)),
            ("rom_words", J::u(f.rom_words as u64)),
            ("rom_bits", J::u(f.rom_bits as u64)),
            ("registers", J::u(f.registers as u64)),
            ("register_pressure", J::u(f.register_pressure as u64)),
            ("mux_count", J::u(f.mux_count as u64)),
            (
                "op_counts",
                J::obj(vec![
                    ("mul", J::u(o.mul as u64)),
                    ("sqr", J::u(o.sqr as u64)),
                    ("add", J::u(o.add as u64)),
                    ("sub", J::u(o.sub as u64)),
                    ("neg", J::u(o.neg as u64)),
                    ("conj", J::u(o.conj as u64)),
                ]),
            ),
        ])
    };
    let body = fourq_trace::trace_double_add_iteration();
    let problem = fourq_sched::trace_to_problem(&body);
    let machine = fourq_sched::MachineConfig::paper();
    let loop_cycles = fourq_sched::schedule(&problem, &machine, 512).makespan;
    J::obj(vec![
        ("fourq_stitched", fp(&k.fourq)),
        ("x25519", fp(&k.x25519)),
        ("p256", fp(&k.p256)),
        ("stitched_baseline_cycles", J::u(stitched.baseline_cycles)),
        ("stitched_cycles", J::u(stitched.stitched_cycles)),
        ("table1_loop_body_cycles", J::u(loop_cycles)),
        ("table1_paper_cycles", J::s("~25")),
        (
            "sotb_note",
            J::s("the SOTB model is fitted to two paper anchors and otherwise unvalidated; no error figure is stated"),
        ),
    ])
}

/// Audits replay outputs against the native engine or baseline; returns
/// how many are wrong.
pub fn audit_replays(items: &[Replay], seen: &Seen) -> u64 {
    let pairs: Vec<(&(u32, Vec<u8>), &usize)> = seen.iter().collect();
    let ok = fourq_pool::map_items(&pairs, 8, 2, |_, ((i, out), _)| {
        items[*i as usize].native() == *out
    });
    pairs
        .iter()
        .zip(ok)
        .filter(|(_, ok)| !ok)
        .map(|((_, n), _)| **n as u64)
        .sum()
}

/// Slices against the compiled kernels: one caller thread closed-loop,
/// one generator feeding one replay thread open-loop.
struct ReplayLoad<'a> {
    kernels: &'a Kernels,
    pool: &'a ReplayPool,
    rng: Rng,
    seen: Seen,
    drawn: usize,
    /// CPUs the closed-loop slices take in turn, and slices so far.
    cpus: usize,
    slices: usize,
}

impl Load for ReplayLoad<'_> {
    /// The quartile on the bad side. The replays run at one of two host
    /// speeds: a Fourℚ replay took about 125 to 140 µs in the fast one and
    /// 200 to 235 µs in the slow one. The slow speed held in every set of
    /// runs recorded, from over a third of the slices up to all of them,
    /// while the fast one came and went from one minute to the next. The
    /// best slice then read one speed or the other, run by run; the bad
    /// side's quartile stays in the slow speed and tracks the code.
    const CLOSED_SHARE: f64 = 0.75;

    /// The 50/30/20 mix back to back on one thread, pinned to each CPU
    /// in turn (see [`crate::util::pin`]); the percentiles are over its
    /// Fourℚ replays.
    fn closed(&mut self, budget: Duration) -> Closed {
        let pinned = crate::util::pin(Some(self.slices % self.cpus));
        self.slices += 1;
        let mut c = Closed {
            lat_ns: Vec::new(),
            calls: 0,
            wall: Duration::ZERO,
            attempted: 0,
            refused: 0,
        };
        let start = Instant::now();
        while start.elapsed() < budget {
            let i = self.rng.below(self.pool.items.len()) as u32;
            let item = &self.pool.items[i as usize];
            let t = Instant::now();
            let out = self.kernels.run(item);
            let dt = crate::util::ns(t.elapsed());
            if matches!(item, Replay::FourQ { .. }) {
                c.lat_ns.push(dt);
            }
            c.calls += 1;
            match out {
                Some(o) => *self.seen.entry((i, o)).or_insert(0) += 1,
                None => c.refused += 1,
            }
        }
        c.wall = start.elapsed();
        if pinned {
            crate::util::pin(None);
        }
        c.attempted = c.calls;
        self.drawn += c.calls;
        c
    }

    fn open(&mut self, rate: f64, secs: f64) -> PhaseOut {
        let n = (rate * secs).ceil() as usize;
        let idx: Vec<u32> = (0..n)
            .map(|_| self.rng.below(self.pool.items.len()) as u32)
            .collect();
        let (mut p, _) = load::replay_phase(self.kernels, &self.pool.items, &idx, rate);
        self.drawn += n;
        inputs::collect(&mut self.seen, &idx, &mut p.answers);
        p
    }
}

pub fn replay(pool: &ReplayPool, seed: u64, secs: f64) -> Outcome {
    // Set-up: the four compiles, five times, on each CPU in turn; the
    // median is reported and the simulated statistics must agree exactly
    // between rounds.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setups = Vec::new();
    let mut blocks = Vec::new();
    let mut kernels = None;
    let mut pinned = true;
    for round in 0..5 {
        pinned &= crate::util::pin(Some(round % cpus));
        let t = Instant::now();
        let (k, stitched) = compile_kernels();
        setups.push(t.elapsed().as_secs_f64());
        crate::util::pin(None);
        blocks.push(sim_block(&k, &stitched).render());
        kernels = Some(k);
    }
    let kernels = kernels.expect("compiled in set-up");
    let sim_stable = blocks.windows(2).all(|w| w[0] == w[1]);

    let mut l = ReplayLoad {
        kernels: &kernels,
        pool,
        rng: Rng::new(seed, 20),
        seen: Seen::new(),
        drawn: 0,
        cpus,
        slices: 0,
    };
    let t = timed_phases(&rates("kernel_replay"), secs, &mut l);
    let (seen, drawn) = (l.seen, l.drawn);
    let wrong = audit_replays(&pool.items, &seen);
    let mut checks_failed = Vec::new();
    if !sim_stable {
        checks_failed.push("simulated statistics differ between set-ups".to_string());
    }
    let details = vec![
        (
            "load",
            J::s("closed loop: 1 caller thread; open loop: 1 generator thread feeding 1 replay thread over a channel"),
        ),
        ("sim_stats", J::s(blocks[0].clone())),
        ("sim_stats_identical_across_setups", J::Bool(sim_stable)),
        ("setups_and_closed_slices_pinned_to_cpus_in_turn", J::Bool(pinned)),
        (
            "inputs",
            J::obj(vec![
                ("pool", J::u(pool.items.len() as u64)),
                ("mix", J::s("50/30/20 fourq/x25519/p256")),
                ("drawn", J::u(drawn as u64)),
                ("distinct_drawn", J::u(seen.len() as u64)),
                ("repeat_share", J::n(1.0 - seen.len() as f64 / drawn as f64)),
                ("hot_point_share", J::n(pool.hot_share())),
            ]),
        ),
    ];
    outcome(t, &setups, wrong, checks_failed, details)
}
