//! Repository automation (`cargo xtask <task>`).
//!
//! * `lint` — the project's custom static rules, run on the `spmdlint`
//!   AST engine (see below). Prints the classic `file:line: [rule] …`
//!   format and fails on any unwaivered violation.
//! * `analyze` — the full SPMD static analysis: everything `lint` checks
//!   plus the rank-taint rules (collective-divergence, unwaited-request,
//!   phase-balance, rank-variant-payload, nondet), with JSON output for
//!   CI. See `cargo xtask analyze --help` equivalent flags below.
//! * `bench` — the benchmark harness behind `BENCH_2.json`: E-step kernel
//!   throughput (naive vs blocked, same process) and virtual cycle times
//!   per strategy × P. See the `bench` module docs for flags.
//! * `report` — reproduce the paper's evaluation tables (per-phase time,
//!   speedup, efficiency, critical path) from verified runs at a series of
//!   processor counts. See the `report` module docs for flags and gates.
//! * `faultmatrix` — the robustness acceptance sweep: every injected fault
//!   kind × recovery policy × processor count must either recover
//!   bit-identically or surface a typed error naming the correct culprit.
//!   See the `faultmatrix` module docs for flags and gates.
//!
//! # Rules
//!
//! The rule set lives in `crates/spmdlint` (each rule's rationale is
//! documented there). The legacy five — **wall-clock**, **unwrap**,
//! **float-eq**, **blocking-collective**, **recv-unwrap** — keep their
//! historical IDs, scopes, and `// lint:allow(rule): why` waiver comments,
//! but now run on a real token/AST pass, so comments, strings, and
//! doc-tests can no longer false-positive. The SPMD taint rules —
//! **collective-divergence**, **unwaited-request**, **phase-balance**,
//! **rank-variant-payload**, **nondet** — guard the replication invariant
//! the runtime verifier (PR 1) checks per run, at build time instead.
//!
//! `analyze` flags:
//!
//! * `--check` — exit nonzero if any unwaivered error-severity finding
//!   remains (warnings are informational; test code is downgraded).
//! * `--out PATH` — write the sorted, deterministic JSON report.
//! * `--fixtures` — also run the known-bad fixture corpus under
//!   `crates/spmdlint/tests/fixtures` and fail unless every expected
//!   rule fires at its expected line.
//! * `--root DIR` — analyze a different root (used by the corpus).

mod bench;
mod calibrate;
mod faultmatrix;
mod report;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("analyze") => analyze(&args[1..]),
        Some("bench") => bench::bench(&args[1..]),
        Some("report") => report::report(&args[1..]),
        Some("calibrate") => calibrate::calibrate(&args[1..]),
        Some("faultmatrix") => faultmatrix::faultmatrix(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask lint \
                 | analyze [--check] [--out PATH] [--fixtures] [--root DIR] \
                 | bench [--smoke] [--native] [--engines] [--ensemble] [--out PATH] [--check PATH] \
                 | report [--smoke] [--largep] [--out DIR] [--check PATH] \
                 | calibrate [--smoke] [--out PATH] [--check PATH] \
                 | faultmatrix [--smoke] [--largep] [--standby] [--out DIR] [--check [PATH]]"
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: the parent of xtask's own manifest directory, so
/// the pass works from any cwd (`cargo xtask` runs it from the workspace,
/// but a direct `cargo run -p xtask` from a subdirectory is fine too).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Refuse to record wall-clock rows from a debug build: `cargo xtask` is
/// `cargo run` without `--release`, and unoptimized kernels run several
/// times slower (blocked E-step 13.1 M vs 100.5 M items/s), so every wall
/// row would be wrong. `command` is the task's argument list, quoted back
/// in the message. `--smoke` runs (structural gates only) pass in any
/// profile, and `--check` never reaches this.
fn refuse_debug_wall_rows(command: &str, smoke: bool) -> Option<ExitCode> {
    if smoke || !cfg!(debug_assertions) {
        return None;
    }
    eprintln!(
        "xtask {command}: refusing to time a debug build; wall-clock rows need \
         `cargo run --release -p xtask -- {command}` (or add --smoke)"
    );
    Some(ExitCode::FAILURE)
}

/// The legacy lint gate: the five historical rules, old output format,
/// unwaivered errors only. (`analyze` is the superset.)
fn lint() -> ExitCode {
    const LEGACY: &[&str] = &[
        spmdlint::WALL_CLOCK,
        spmdlint::UNWRAP,
        spmdlint::FLOAT_EQ,
        spmdlint::BLOCKING_COLLECTIVE,
        spmdlint::RECV_UNWRAP,
    ];
    let report = match spmdlint::analyze(&repo_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            !f.waived && f.severity == spmdlint::Severity::Error && LEGACY.contains(&f.rule)
        })
        .collect();
    if violations.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn analyze(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut fixtures = false;
    let mut out_path: Option<PathBuf> = None;
    let mut root = repo_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--fixtures" => fixtures = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask analyze: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("xtask analyze: --root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match spmdlint::analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        let tag = if f.waived { " (waived)" } else { "" };
        println!("{}:{}: {} [{}]{} {}", f.file, f.line, f.severity, f.rule, tag, f.message);
        for t in &f.taint_trace {
            println!("    taint: {t}");
        }
    }
    println!(
        "xtask analyze: {} file(s), {} function(s), {} finding(s) \
         ({} unwaivered error(s), {} warning(s))",
        report.files_scanned,
        report.functions,
        report.findings.len(),
        report.unwaivered_errors(),
        report.warnings()
    );
    if let Some(p) = &out_path {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("xtask analyze: write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        println!("xtask analyze: wrote {}", p.display());
    }

    let mut failed = check && report.unwaivered_errors() > 0;

    if fixtures {
        let dir = repo_root().join("crates/spmdlint/tests/fixtures");
        match spmdlint::check_fixtures(&dir) {
            Ok(results) => {
                for (name, missing) in &results {
                    if missing.is_empty() {
                        println!("fixture {name}: ok");
                    } else {
                        failed = true;
                        for m in missing {
                            println!("fixture {name}: MISSING {m}");
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("xtask analyze: fixtures: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
