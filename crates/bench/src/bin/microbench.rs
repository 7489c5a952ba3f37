//! Hermetic micro-benchmark runner: times the core operations of the
//! workspace (field, curve, signatures, baselines, scheduler) and writes
//! the machine-readable `BENCH_fourq.json` perf-trajectory file.
//!
//! ```text
//! cargo run --release -p fourq-bench --bin microbench            # full run
//! cargo run --release -p fourq-bench --bin microbench -- --filter fp2
//! cargo run --release -p fourq-bench --bin microbench -- --out /tmp/bench.json
//! FOURQ_BENCH_FAST=1 cargo run --release -p fourq-bench --bin microbench   # CI smoke
//! cargo run --release -p fourq-bench --bin microbench -- --filter batch --gate-batch
//! ```
//!
//! `--gate-batch` fails the run (exit 1) when the measured
//! `batch_to_affine` per-point cost exceeds half of a single-point
//! normalisation — the CI tripwire for the batch pipeline's amortisation.
//!
//! `--gate-parallel` fails the run when 4-thread `batch_scalar_mul` at
//! n = 256 is below 2× the 1-thread throughput (alert-only below 2.5×,
//! and alert-only entirely on machines with fewer than 4 hardware
//! threads, where the speedup cannot exist).
//!
//! `--gate-kernel-cache` fails the run when a warm-cache kernel
//! `execute` is not at least 10× faster than the cold compile+execute
//! path — the tripwire for the compile-once/execute-many pipeline. When
//! the `multi_curve` group is in the run, the same floor applies to
//! every curve's `(curve, machine, effort)` cache entry.
//!
//! `--gate-replay` fails the run when the warm compiled-kernel replay
//! (`asic_pipeline/execute_warm`) costs more than 1.6× the native
//! variable-base engine timed in alternating samples with it
//! (`asic_pipeline/native_variable_base`). Both are single-thread, so the
//! gate is hard on every box.
//!
//! `--gate-fleet` fails the run when the modeled 4-core fleet (2 ROM
//! ports) falls below 2× the single-core modeled throughput — the
//! tripwire for ROM-port arbitration in the capacity planner's fleet
//! model. Alert-only on machines with fewer than 4 hardware threads.
//!
//! `--compare BASELINE.json` re-parses a previous report and fails when
//! the median slowdown within any of `scalar_ops`, `parallel_ops` or
//! `asic_pipeline` exceeds 25%. A record's slowdown is divided by the
//! slowdown of the host-speed anchor timed in alternation with it, so a
//! host that runs everything 30% slower passes. Each matched baseline
//! record is judged by its own `hw_threads`: records from hardware with a
//! different count are alert-only.
//!
//! `--filter` accepts a comma-separated list of group-name substrings,
//! so the CI regression stage can run exactly
//! `--filter scalar_ops,parallel_ops,asic_pipeline`.
//!
//! By default the JSON lands at the repository root (resolved relative to
//! this crate's manifest), so successive PRs overwrite the same
//! `BENCH_fourq.json` and the git history of that file *is* the perf
//! trajectory.

use fourq_bench::harness::{BenchOptions, BenchRecord, BenchReport};
use fourq_bench::micro::run_suite;
use std::path::PathBuf;

fn default_out() -> PathBuf {
    // crates/bench/../../BENCH_fourq.json == repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_fourq.json")
}

/// The CI batch-amortisation gate (`--gate-batch`): `batch_to_affine`
/// per-point cost must not exceed this fraction of a single-point
/// normalisation, or the batch pipeline has lost its reason to exist.
const GATE_BATCH_RATIO: f64 = 0.5;

/// The median ns/op of `group`/`name` in this run.
fn ns_per_op(report: &BenchReport, group: &str, name: &str) -> Result<f64, String> {
    report
        .results
        .iter()
        .find(|r| r.group == group && r.name == name)
        .map(|r| r.ns_per_op)
        .ok_or(format!("gate: {group}/{name} missing from this run"))
}

fn gate_batch(report: &BenchReport) -> Result<(), String> {
    let single = ns_per_op(report, "batch_ops", "to_affine_single")?;
    let per_point = ns_per_op(report, "batch_ops", "batch_to_affine_n64_per_point")?;
    let ratio = per_point / single;
    eprintln!(
        "gate: batch_to_affine {per_point:.1} ns/point vs single {single:.1} ns \
         (ratio {ratio:.3}, limit {GATE_BATCH_RATIO})"
    );
    if ratio > GATE_BATCH_RATIO {
        return Err(format!(
            "gate: batch_to_affine per-point cost is {:.1}% of a single \
             normalisation (limit {:.0}%)",
            ratio * 100.0,
            GATE_BATCH_RATIO * 100.0
        ));
    }
    Ok(())
}

/// The parallel-speedup gate (`--gate-parallel`): 4-thread
/// `batch_scalar_mul` at n = 256 must reach at least this multiple of the
/// 1-thread throughput; below [`GATE_PARALLEL_WARN`] it alerts without
/// failing. On machines with fewer than 4 hardware threads the gate is
/// alert-only (the speedup is physically unreachable there).
const GATE_PARALLEL_MIN: f64 = 2.0;
const GATE_PARALLEL_WARN: f64 = 2.5;

fn gate_parallel(report: &BenchReport) -> Result<(), String> {
    let lookup = |threads: u32| -> Result<&BenchRecord, String> {
        report
            .results
            .iter()
            .find(|r| r.group == "parallel_ops" && r.threads == threads)
            .ok_or(format!(
                "gate: parallel_ops entry with threads={threads} missing from this run"
            ))
    };
    let t1 = lookup(1)?.ns_per_op;
    let rec4 = lookup(4)?;
    let t4 = rec4.ns_per_op;
    let speedup = t1 / t4;
    // Judge reachability by the hw_threads *recorded in the measurement
    // itself*, so gating a loaded-from-disk report stays honest about
    // the machine that produced it.
    let cores = rec4.hw_threads;
    eprintln!(
        "gate: batch_scalar_mul n=256 speedup {speedup:.2}x at 4 threads \
         ({t1:.0} -> {t4:.0} ns/point; fail <{GATE_PARALLEL_MIN}x, warn <{GATE_PARALLEL_WARN}x, \
         {cores} hardware threads recorded)"
    );
    if cores < 4 {
        eprintln!(
            "gate: only {cores} hardware thread(s) recorded — a 4-thread speedup is \
             unreachable there, reporting alert-only"
        );
        return Ok(());
    }
    if speedup < GATE_PARALLEL_MIN {
        return Err(format!(
            "gate: 4-thread batch_scalar_mul speedup {speedup:.2}x is below the \
             {GATE_PARALLEL_MIN}x floor"
        ));
    }
    if speedup < GATE_PARALLEL_WARN {
        eprintln!(
            "gate: WARNING — speedup {speedup:.2}x is below the {GATE_PARALLEL_WARN}x \
             alert threshold (passing, but the pool is losing efficiency)"
        );
    }
    Ok(())
}

/// The kernel-cache gate (`--gate-kernel-cache`): a warm-cache `execute`
/// must be at least this many times faster than compiling the kernel and
/// executing once. If the ratio collapses, either compilation got
/// suspiciously cheap (the pipeline stopped doing its job) or the cached
/// replay regressed — both are worth failing CI over.
const GATE_KERNEL_CACHE_MIN: f64 = 10.0;

fn gate_kernel_cache(report: &BenchReport) -> Result<(), String> {
    let lookup = |group: &str, name: &str| ns_per_op(report, group, name);
    let check = |label: &str, cold: f64, warm: f64| -> Result<(), String> {
        let ratio = (cold + warm) / warm;
        eprintln!(
            "gate: {label} kernel compile {:.0} us vs warm execute {:.0} us \
             (amortisation {ratio:.1}x, floor {GATE_KERNEL_CACHE_MIN}x)",
            cold / 1e3,
            warm / 1e3
        );
        if ratio < GATE_KERNEL_CACHE_MIN {
            return Err(format!(
                "gate: {label} warm-cache execute is only {ratio:.1}x faster than cold \
                 compile+execute (floor {GATE_KERNEL_CACHE_MIN}x)"
            ));
        }
        Ok(())
    };
    check(
        "fourq",
        lookup("asic_pipeline", "compile_cold")?,
        lookup("asic_pipeline", "execute_warm")?,
    )?;
    // The per-curve cache: when the multi_curve group ran, every curve's
    // compile/execute pair must amortise like the Fourℚ one. When it was
    // filtered out, say so instead of silently passing.
    if report.results.iter().any(|r| r.group == "multi_curve") {
        for curve in ["fourq", "x25519", "p256"] {
            check(
                curve,
                lookup("multi_curve", &format!("{curve}_compile_cold"))?,
                lookup("multi_curve", &format!("{curve}_execute_warm"))?,
            )?;
        }
    } else {
        eprintln!("gate: multi_curve group absent from this run — per-curve cache not gated");
    }
    Ok(())
}

/// The replay gate (`--gate-replay`): a warm compiled-kernel Fourℚ
/// execute may cost at most this multiple of the native variable-base
/// scalar multiplication. The two are timed in alternating samples
/// (`fourq_bench::harness::run_pair`), so a change in host speed between
/// them cannot move the ratio. Both are one thread of field arithmetic,
/// so the ratio does not depend on the core count and the gate is hard
/// everywhere.
const GATE_REPLAY_MAX: f64 = 1.6;

fn gate_replay(report: &BenchReport) -> Result<(), String> {
    let replay = ns_per_op(report, "asic_pipeline", "execute_warm")?;
    let native = ns_per_op(report, "asic_pipeline", "native_variable_base")?;
    let ratio = replay / native;
    eprintln!(
        "gate: kernel replay {:.1} us vs native engine {:.1} us \
         (ratio {ratio:.2}x, limit {GATE_REPLAY_MAX}x)",
        replay / 1e3,
        native / 1e3
    );
    if ratio > GATE_REPLAY_MAX {
        return Err(format!(
            "gate: warm kernel replay costs {ratio:.2}x the native engine \
             (limit {GATE_REPLAY_MAX}x)"
        ));
    }
    Ok(())
}

/// The fleet-scaling gate (`--gate-fleet`): the modeled 4-core fleet
/// (homogeneous Fourℚ cores sharing a 2-port table ROM, the same
/// configuration `fleet_ops` times) must sustain at least this multiple
/// of the modeled single-core throughput. The model is deterministic,
/// so a miss means ROM-port arbitration started eating more than half
/// the added cores — a real regression in either the fleet model or the
/// kernel's fetch density. Below 4 hardware threads the gate is
/// alert-only: the accompanying `fleet_ops` timings are unrepresentative
/// there and CI should not hard-fail on such boxes.
const GATE_FLEET_MIN: f64 = 2.0;

fn gate_fleet(report: &BenchReport) -> Result<(), String> {
    use fourq_sched::MachineConfig;
    use fourq_tech::fleet::{simulate_fleet, CoreSpec, FleetConfig};

    // Require the group in the run so a filtered-out report cannot pass
    // the gate vacuously, and take hw_threads from the measurement.
    let rec = report
        .results
        .iter()
        .find(|r| r.group == "fleet_ops")
        .ok_or("gate: fleet_ops group missing from this run")?;
    let fp = &fourq_cpu::shared_kernel_for(fourq_curve::CurveId::FourQ, &MachineConfig::paper(), 2)
        .map_err(|e| format!("gate: fourq kernel compiles: {e}"))?
        .fingerprint;
    let fleet = |cores: usize| {
        let cfg = FleetConfig {
            rom_ports: 2,
            cores: (0..cores)
                .map(|_| CoreSpec {
                    name: "fourq".to_string(),
                    cycles_per_op: fp.cycles,
                    rom_reads_per_op: fp.mux_count as u64,
                })
                .collect(),
        };
        simulate_fleet(&cfg, 8 * fp.cycles).ops_per_cycle
    };
    let solo = fleet(1);
    let quad = fleet(4);
    let scaling = quad / solo;
    let cores = rec.hw_threads;
    eprintln!(
        "gate: modeled fleet scaling {scaling:.2}x at 4 cores / 2 ROM ports \
         ({solo:.6} -> {quad:.6} ops/cycle; floor {GATE_FLEET_MIN}x, \
         {cores} hardware threads recorded)"
    );
    if scaling < GATE_FLEET_MIN {
        let msg = format!(
            "gate: 4-core modeled fleet throughput is only {scaling:.2}x single-core \
             (floor {GATE_FLEET_MIN}x) — ROM-port arbitration regressed"
        );
        if cores < 4 {
            eprintln!("{msg} (alert-only: {cores} hardware thread(s))");
            return Ok(());
        }
        return Err(msg);
    }
    Ok(())
}

/// The regression tripwire (`--compare BASELINE.json`): for each group in
/// [`COMPARE_GROUPS`], matching benches (same group/name/threads) are
/// compared against the baseline file; the run fails when a group's
/// *median* slowdown exceeds [`COMPARE_MAX_REGRESSION`]. The median makes
/// the gate robust to one noisy bench without letting a real across-the-
/// board regression hide.
///
/// A shared host changes speed by about 30% within seconds, so a raw
/// ns/op ratio against a committed file measures the host. When both
/// records carry an anchor ([`BenchRecord::anchor_ns`], timed in
/// alternating samples with the record), the slowdown is divided by the
/// anchor's: a uniform host slowdown cancels, a slowdown of the benched
/// code alone does not. Records without an anchor compare raw. The anchor
/// is a native Fourℚ scalar multiplication, so a regression of that
/// engine itself reads as a speedup here; `--gate-replay` and the
/// repository benchmark watch it.
///
/// Each matched baseline record is judged by its own `hw_threads`: one
/// recorded on a different count is compared alert-only (cross-machine
/// deltas are not regressions), one on the same count — or predating
/// `hw_threads` recording — hard. The two kinds get separate medians.
const COMPARE_GROUPS: [&str; 3] = ["scalar_ops", "parallel_ops", "asic_pipeline"];
const COMPARE_MAX_REGRESSION: f64 = 0.25;

/// What a comparison found: `failures` fail the run, `alerts` only
/// report.
#[derive(Debug, Default, PartialEq)]
struct CompareOutcome {
    failures: Vec<String>,
    alerts: Vec<String>,
}

fn compare_reports(report: &BenchReport, base: &BenchReport, cur_hw: u32) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();
    for group in COMPARE_GROUPS {
        // (ratio, name) per matched bench, split by hardware match.
        let mut hard: Vec<(f64, String)> = Vec::new();
        let mut soft: Vec<(f64, String)> = Vec::new();
        for cur in report.results.iter().filter(|r| r.group == group) {
            let matched = base
                .results
                .iter()
                .find(|b| b.group == cur.group && b.name == cur.name && b.threads == cur.threads);
            if let Some(b) = matched.filter(|b| b.ns_per_op > 0.0) {
                let same_hw = b.hw_threads == 0 || b.hw_threads == cur_hw;
                let bucket = if same_hw { &mut hard } else { &mut soft };
                bucket.push((slowdown(cur, b), cur.name.clone()));
            }
        }
        if hard.is_empty() && soft.is_empty() {
            eprintln!("compare: {group}: no overlapping benches with the baseline, skipping");
            continue;
        }
        for (ratios, alert_only) in [(hard, false), (soft, true)] {
            if ratios.is_empty() {
                continue;
            }
            let mut sorted: Vec<f64> = ratios.iter().map(|(r, _)| *r).collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[sorted.len() / 2];
            let worst = ratios
                .iter()
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .expect("non-empty ratios");
            let kind = if alert_only {
                "other-hardware, alert-only"
            } else {
                "same hardware"
            };
            eprintln!(
                "compare: {group} ({kind}): median {:+.1}% over {} benches (worst {:+.1}% in {})",
                (median - 1.0) * 100.0,
                ratios.len(),
                (worst.0 - 1.0) * 100.0,
                worst.1
            );
            if median - 1.0 > COMPARE_MAX_REGRESSION {
                let msg = format!(
                    "compare: {group} median regression {:+.1}% exceeds the {:.0}% limit",
                    (median - 1.0) * 100.0,
                    COMPARE_MAX_REGRESSION * 100.0
                );
                if alert_only {
                    outcome
                        .alerts
                        .push(format!("{msg} (alert-only: hardware mismatch)"));
                } else {
                    outcome.failures.push(msg);
                }
            }
        }
    }
    outcome
}

/// `cur`'s slowdown against `base`, divided by the slowdown of the anchor
/// timed with each when both have one.
fn slowdown(cur: &BenchRecord, base: &BenchRecord) -> f64 {
    let raw = cur.ns_per_op / base.ns_per_op;
    if cur.anchor_ns > 0.0 && base.anchor_ns > 0.0 {
        raw / (cur.anchor_ns / base.anchor_ns)
    } else {
        raw
    }
}

fn compare_baseline(report: &BenchReport, path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("compare: cannot read {}: {e}", path.display()))?;
    let base = BenchReport::from_json(&text)
        .map_err(|e| format!("compare: cannot parse {}: {e}", path.display()))?;
    let outcome = compare_reports(report, &base, fourq_bench::harness::hw_threads());
    for alert in &outcome.alerts {
        eprintln!("{alert}");
    }
    if outcome.failures.is_empty() {
        Ok(())
    } else {
        Err(outcome.failures.join("\n"))
    }
}

fn main() {
    let mut out = default_out();
    let mut filter = String::new();
    let mut gate = false;
    let mut gate_par = false;
    let mut gate_kernel = false;
    let mut gate_fleet_flag = false;
    let mut gate_replay_flag = false;
    let mut compare: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }))
            }
            "--filter" => filter = args.next().unwrap_or_default(),
            "--gate-batch" => gate = true,
            "--gate-parallel" => gate_par = true,
            "--gate-kernel-cache" => gate_kernel = true,
            "--gate-fleet" => gate_fleet_flag = true,
            "--gate-replay" => gate_replay_flag = true,
            "--compare" => {
                compare = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--compare requires a baseline path");
                    std::process::exit(2);
                })))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: microbench [--out PATH] [--filter GROUPS] [--compare BASELINE] \
                     [--gate-batch] [--gate-parallel] [--gate-kernel-cache] [--gate-fleet] \
                     [--gate-replay]\n\
                     \x20      GROUPS is a comma-separated list of group-name substrings"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }

    let opts = BenchOptions::from_env();
    eprintln!(
        "microbench: {} samples x ~{:?} per bench (FOURQ_BENCH_FAST to shrink)",
        opts.samples, opts.sample_time
    );
    let report = run_suite(&opts, &filter);
    if report.results.is_empty() {
        eprintln!("filter '{filter}' matched no groups");
        std::process::exit(2);
    }

    let json = report.to_json();
    // Self-check: the file we are about to write must parse back equal.
    let reparsed = BenchReport::from_json(&json).expect("emitted JSON parses");
    assert_eq!(reparsed, report, "JSON round-trip drifted");

    // Compare against the baseline *before* the write below can
    // overwrite it (the default --out path is the usual baseline).
    let compare_result = compare.as_deref().map(|p| compare_baseline(&report, p));

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {} ({} results)", out.display(), report.results.len());

    if gate {
        if let Err(e) = gate_batch(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_par {
        if let Err(e) = gate_parallel(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_kernel {
        if let Err(e) = gate_kernel_cache(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_fleet_flag {
        if let Err(e) = gate_fleet(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if gate_replay_flag {
        if let Err(e) = gate_replay(&report) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if let Some(Err(e)) = compare_result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, ns_per_op: f64, hw_threads: u32) -> BenchRecord {
        anchored("asic_pipeline", name, ns_per_op, 0.0, hw_threads)
    }

    fn anchored(group: &str, name: &str, ns: f64, anchor_ns: f64, hw: u32) -> BenchRecord {
        BenchRecord {
            group: group.to_string(),
            name: name.to_string(),
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
            samples: 1,
            iters_per_sample: 1,
            threads: 1,
            hw_threads: hw,
            anchor_ns,
        }
    }

    fn report(results: Vec<BenchRecord>) -> BenchReport {
        let mut r = BenchReport::default();
        for x in results {
            r.push(x);
        }
        r
    }

    #[test]
    fn compare_judges_each_record_by_its_own_hw_threads() {
        // A mixed baseline: `a` and `b` were recorded on this machine's
        // thread count, `c` and `d` on another.
        let base = report(vec![
            rec("a", 100.0, 2),
            rec("b", 100.0, 2),
            rec("c", 100.0, 1),
            rec("d", 100.0, 1),
        ]);
        // Only the other-hardware records regress: alert, no failure.
        let cur = report(vec![
            rec("a", 101.0, 2),
            rec("b", 99.0, 2),
            rec("c", 200.0, 2),
            rec("d", 200.0, 2),
        ]);
        let out = compare_reports(&cur, &base, 2);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.alerts.len(), 1, "{:?}", out.alerts);
        // The same-hardware records regress: a hard failure, even though
        // the first non-zero baseline record is from other hardware.
        let base = report(vec![rec("c", 100.0, 1), rec("a", 100.0, 2)]);
        let cur = report(vec![rec("c", 100.0, 2), rec("a", 200.0, 2)]);
        let out = compare_reports(&cur, &base, 2);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.alerts.is_empty());
        // Records predating hw_threads recording compare hard.
        let base = report(vec![rec("a", 100.0, 0)]);
        let cur = report(vec![rec("a", 200.0, 2)]);
        assert_eq!(compare_reports(&cur, &base, 2).failures.len(), 1);
    }

    #[test]
    fn compare_divides_out_the_anchor() {
        // Every compared group, three records each, anchors at 80 µs.
        let records = |scale: &dyn Fn(&str) -> (f64, f64)| {
            let mut out = Vec::new();
            for group in COMPARE_GROUPS {
                let (ns_scale, anchor_scale) = scale(group);
                for (name, ns) in [("a", 100.0), ("b", 2_000.0), ("c", 50_000.0)] {
                    out.push(anchored(
                        group,
                        name,
                        ns * ns_scale,
                        80_000.0 * anchor_scale,
                        2,
                    ));
                }
            }
            report(out)
        };
        let base = records(&|_| (1.0, 1.0));
        // A host 1.3x slower everywhere slows each record and its anchor
        // alike: no failure, though the raw ratios read +30%.
        let out = compare_reports(&records(&|_| (1.3, 1.3)), &base, 2);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // One group 1.3x slower while its anchor is not: that group fails.
        let out = compare_reports(
            &records(&|g| {
                if g == "scalar_ops" {
                    (1.3, 1.0)
                } else {
                    (1.0, 1.0)
                }
            }),
            &base,
            2,
        );
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("scalar_ops"), "{:?}", out.failures);
        // The same slowdown on a host that also got 1.3x slower fails too.
        let out = compare_reports(
            &records(&|g| {
                if g == "scalar_ops" {
                    (1.69, 1.3)
                } else {
                    (1.3, 1.3)
                }
            }),
            &base,
            2,
        );
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }
}
