//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_verify|serve_mixed|kernel_replay|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced breakdown and reports the per-layer
//! metrics. Every input comes from `--seed`; every output is checked
//! against an independent path after the timed phases, and a wrong one
//! makes the run exit non-zero. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. A full
//! record with provenance lands in `perfbench/out/`.

#![forbid(unsafe_code)]

mod inputs;
mod load;
mod timed;
mod traced;
mod util;

use std::time::Instant;
use util::J;

/// Where records, spans and set-up temporary files go, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 3] = ["serve_verify", "serve_mixed", "kernel_replay"];

/// Fixed open-loop rates per workload, in requests per second, set to
/// about 30 % and 70 % of the sustained rate measured on the commit that
/// introduced this benchmark (2-vCPU x86-64 box). `center` is where the
/// sustained-rate staircase starts, and is that measured sustained rate.
pub struct Rates {
    pub low: f64,
    pub high: f64,
    pub center: f64,
}

pub fn rates(workload: &str) -> Rates {
    let (low, high, center) = match workload {
        "serve_verify" => (1800.0, 4200.0, 6000.0),
        "serve_mixed" => (1350.0, 3150.0, 4500.0),
        _ => (570.0, 1330.0, 1900.0),
    };
    Rates { low, high, center }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// A reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Printed and recorded, but not part of the gated set.
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that were present but wrong.
    pub wrong: u64,
    /// Checks beyond the answers that failed (exact simulated statistics,
    /// reconciliation); any one makes the run incorrect.
    pub checks_failed: Vec<String>,
    pub details: Vec<(&'static str, J)>,
}

/// Runs each workload as its own process and passes its report through;
/// exits non-zero if any of them did.
fn run_all(a: &Args) -> ! {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run workload");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--cold-setup" {
        timed::cold_setup(std::path::Path::new(&argv[2]));
    }
    let a = parse_args();
    if a.workload == "all" {
        run_all(&a);
    }
    let t0 = Instant::now();
    let out = match (a.workload.as_str(), a.trace) {
        ("kernel_replay", false) => {
            timed::replay(&inputs::ReplayPool::new(a.seed), a.seed, a.seconds)
        }
        (w, false) => {
            let pool = if w == "serve_verify" {
                inputs::verify_pool(a.seed)
            } else {
                inputs::mixed_pool(a.seed)
            };
            timed::serve(w, &pool, a.seed, a.seconds)
        }
        (w, true) => traced::run(w, a.seed, a.seconds),
    };
    let correct = out.wrong == 0 && out.failed == 0 && out.checks_failed.is_empty();
    for c in &out.checks_failed {
        eprintln!("check failed: {c}");
    }

    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    for mt in &out.metrics {
        println!("{:<44} {:>14.4} {}", mt.name, mt.value, mt.unit);
    }
    for mt in &out.ungated {
        println!("{:<44} {:>14.4} {} (not gated)", mt.name, mt.value, mt.unit);
    }
    println!(
        "{:<44} {:>14.6} (failed {} of {} attempted, {} wrong)",
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.wrong
    );

    let as_json = |ms: &[Metric]| {
        J::Obj(
            ms.iter()
                .map(|mt| {
                    let v = J::obj(vec![("value", J::n(mt.value)), ("unit", J::s(mt.unit))]);
                    (mt.name.to_string(), v)
                })
                .collect(),
        )
    };
    let mut record = util::provenance(a.seed, &a.workload, a.trace);
    record.push(("run_wall_s", J::n(t0.elapsed().as_secs_f64())));
    record.push(("correct", J::Bool(correct)));
    record.push(("attempted", J::u(out.attempted)));
    record.push(("failed", J::u(out.failed)));
    record.push(("wrong", J::u(out.wrong)));
    record.push((
        "checks_failed",
        J::Arr(out.checks_failed.iter().map(J::s).collect()),
    ));
    record.push(("metrics", as_json(&out.metrics)));
    record.push(("ungated", as_json(&out.ungated)));
    record.extend(out.details);
    let dir = std::path::Path::new(OUT_DIR);
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload, a.seed, a.trace as u8
    ));
    if std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&file, J::obj(record).render() + "\n"))
        .is_err()
    {
        eprintln!("could not write {}", file.display());
    }
    let last = J::obj(vec![
        ("correct", J::Bool(correct)),
        ("attempted", J::u(out.attempted)),
        ("failed", J::u(out.failed)),
        ("metrics", as_json(&out.metrics)),
    ]);
    println!("{}", last.render());
    std::process::exit(if correct { 0 } else { 1 });
}
