//! Golden tests over the fixture corpus: every `bad_*.rs` fixture must
//! produce exactly the `(rule, line)` set recorded in its `.expected`
//! file, and every `good_*.rs` fixture must be clean.

use fourq_ctlint::run_on_sources;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Virtual workspace path for a fixture. `bad_panic` exercises the R5
/// path restriction, so it is mapped into `crates/fp/src`.
fn virtual_path(stem: &str) -> String {
    if stem == "bad_panic" {
        format!("crates/fp/src/{stem}.rs")
    } else {
        format!("crates/demo/src/{stem}.rs")
    }
}

fn run_fixture(stem: &str) -> Vec<(String, u32)> {
    let src = std::fs::read_to_string(fixture_dir().join(format!("{stem}.rs")))
        .unwrap_or_else(|e| panic!("fixture {stem}: {e}"));
    run_on_sources(&[(virtual_path(stem), src)])
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn expected(stem: &str) -> Vec<(String, u32)> {
    let text = std::fs::read_to_string(fixture_dir().join(format!("{stem}.expected")))
        .unwrap_or_else(|e| panic!("expected file for {stem}: {e}"));
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (rule, ln) = line.split_once(' ').expect("RULE LINE");
        out.push((rule.to_string(), ln.parse().expect("line number")));
    }
    out
}

fn check_bad(stem: &str) {
    let mut got = run_fixture(stem);
    let mut want = expected(stem);
    got.sort();
    want.sort();
    assert!(!got.is_empty(), "{stem}: bad fixture produced no findings");
    assert_eq!(got, want, "{stem}: findings diverge from golden file");
}

#[test]
fn bad_branch_findings() {
    check_bad("bad_branch");
}

#[test]
fn bad_array_return_findings() {
    check_bad("bad_array_return");
}

#[test]
fn bad_vartime_ops_findings() {
    check_bad("bad_vartime_ops");
}

#[test]
fn bad_table_index_findings() {
    check_bad("bad_table_index");
}

#[test]
fn bad_eq_findings() {
    check_bad("bad_eq");
}

#[test]
fn bad_panic_findings() {
    check_bad("bad_panic");
}

#[test]
fn good_fixtures_are_clean() {
    for stem in ["good_masked", "good_allowed"] {
        let got = run_fixture(stem);
        assert!(got.is_empty(), "{stem}: unexpected findings {got:?}");
    }
}

#[test]
fn every_fixture_has_a_test() {
    // guards against adding a fixture without wiring it up above
    let mut stems: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let p = e.path();
            (p.extension()? == "rs").then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    stems.sort();
    assert_eq!(
        stems,
        [
            "bad_array_return",
            "bad_branch",
            "bad_eq",
            "bad_panic",
            "bad_table_index",
            "bad_vartime_ops",
            "good_allowed",
            "good_masked",
        ]
    );
}
