//! Small shared pieces: a seeded generator, order statistics, a JSON
//! writer, the in-memory span recorder and run provenance.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// splitmix64 step — every benchmark input is drawn from this stream.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic input generator: the same `(seed, stream)` always yields
/// the same sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5eed))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut b = [0u8; 32];
        for chunk in b.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        b
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nanoseconds of `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` repeatedly for about `budget`, in batches whose size is
/// calibrated first, and returns the median nanoseconds per call over
/// the batches. `f` receives the call index.
pub fn time_per_call<F: FnMut(usize)>(budget: Duration, mut f: F) -> f64 {
    // Calibrate a batch to ~1/20 of the budget.
    let target = budget / 20;
    let mut batch = 1usize;
    let mut i = 0usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        if t.elapsed() >= target / 4 || batch >= 1 << 24 {
            let per = t.elapsed().as_nanos() as f64 / batch as f64;
            batch = ((target.as_nanos() as f64 / per.max(1.0)) as usize).max(1);
            break;
        }
        batch *= 4;
    }
    let mut per_call = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || per_call.len() < 3 {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

/// A JSON value, written with every digit a float carries.
pub enum J {
    Num(f64),
    Int(i128),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: Vec<(K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn s(v: impl Into<String>) -> J {
        J::Str(v.into())
    }

    pub fn n(v: f64) -> J {
        J::Num(v)
    }

    pub fn u(v: impl Into<i128>) -> J {
        J::Int(v.into())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(x) => {
                let _ = write!(out, "{x}");
            }
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            J::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// One recorded span: a layer boundary crossed by one request.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Request (or flush / compile) identifier shared by related spans.
    pub req: u64,
}

/// In-memory span log; written out once, when the run ends.
pub struct Spans {
    base: Instant,
    pub rows: Vec<Span>,
}

impl Spans {
    pub fn new(base: Instant) -> Spans {
        Spans {
            base,
            rows: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.base))
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let row = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            req,
        };
        self.rows.push(row);
        self.rows.len() - 1
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.rows[idx].end_ns = self.at(end);
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.rows.len()];
        for s in &self.rows {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.rows
            .iter()
            .zip(kids)
            .map(|(s, mut k)| {
                k.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in k {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.rows.len() * 80);
        for s in &self.rows {
            let parent = s.parent.map_or(J::Int(-1), |p| J::u(p as u64));
            J::obj(vec![
                ("name", J::s(s.name)),
                ("start_ns", J::u(s.start_ns)),
                ("end_ns", J::u(s.end_ns)),
                ("parent", parent),
                ("req", J::u(s.req)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Pins the calling thread to CPU `cpu`, or with `None` lets it run on
/// every CPU again, through `taskset`; returns whether that worked.
///
/// The two vCPUs of a shared host can differ in speed by a third for
/// minutes on end (a busy SMT sibling on the host, for one), and a
/// single-threaded loop stays on the vCPU it started on. Unpinned, one
/// process then measures the fast vCPU and the next the slow one.
/// Pinning slices to each vCPU in turn lets every run see both.
pub fn pin(cpu: Option<usize>) -> bool {
    // The full set, taken before the first pin narrows what this thread
    // sees.
    static ALL: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let all = *ALL.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let Ok(me) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = me.file_name().and_then(|t| t.to_str()) else {
        return false;
    };
    let cpus = cpu.map_or_else(|| format!("0-{}", all - 1), |c| (c % all).to_string());
    std::process::Command::new("taskset")
        .args(["-p", "-c", &cpus, tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short helper command, trimmed; `unknown` on any failure.
/// Git may not search above the working directory for a repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads the machine reports, and the threads this process
/// may use.
pub fn thread_counts() -> (usize, usize) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let hw = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (hw.max(nproc), nproc)
}

/// Provenance every result carries.
pub fn provenance(seed: u64, workload: &str, trace: bool) -> Vec<(&'static str, J)> {
    let (hw, nproc) = thread_counts();
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    vec![
        ("workload", J::s(workload)),
        ("seed", J::u(seed)),
        ("trace", J::Bool(trace)),
        ("hw_threads", J::u(hw as u64)),
        ("nproc", J::u(nproc as u64)),
        ("fourq_threads", J::u(fourq_pool::resolved_threads() as u64)),
        ("rustc", J::s(command_line("rustc", &["--version"]))),
        ("git_commit", J::s(commit)),
        ("os", J::s(std::env::consts::OS)),
        ("arch", J::s(std::env::consts::ARCH)),
    ]
}
