//! `cargo xtask calibrate` — validate the simulator against real silicon.
//!
//! Runs the identical verified P-AutoClass search on both communication
//! backends — the simulated multicomputer (`mpsim`, virtual LogGP time)
//! and the native shared-memory machine (`shmcomm`, one OS thread per
//! rank, wall-clock time) — at a series of processor counts, and emits a
//! calibration report comparing the two:
//!
//! * **Bitwise gates (hard)** — per P, the classifications, their
//!   log-likelihoods and CS scores, the per-try cycle counts, and the
//!   FNV-1a replication hashes of every flat parameter vector must be
//!   identical to the last bit across backends. This is the tentpole
//!   contract: the machine spec picks schedules, never numbers.
//! * **Phase-ratio table** — per P and per phase (`estep`, `mstep`,
//!   `allreduce`, residual `search`), the fraction of elapsed time the
//!   phase claims on each backend, plus the ratio between them. Virtual
//!   and wall-clock fractions legitimately differ (the LogGP model is not
//!   this host), so the gate is structural: every fraction finite, in
//!   [0, 1], and on every native rank the phase buckets partition the
//!   rank's measured elapsed time.
//! * **Speedup curves** — elapsed(P=1)/elapsed(P) for both backends side
//!   by side, with the LogGP closed-form allreduce prediction from the
//!   same formula `xtask report` gates on. Wall-clock speedup on a shared
//!   CI host is noisy, so the gate is again structural (finite, positive)
//!   rather than a pinned curve.
//!
//! Flags: `--smoke` (P ∈ {1,2,4}, smaller dataset — the CI
//! configuration), `--out PATH` (default `CALIBRATE.json` in the repo
//! root), `--check PATH` (validate an existing artifact instead of
//! running).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{hash_f64s, predicted_allreduce_cost, presets, RankStats, SimOptions};
use pautoclass::{
    run_search_native, run_search_with, Exchange, ParallelConfig, ParallelOutcome, Partitioning,
    Strategy,
};
use shmcomm::NativeOptions;

/// Phases the driver attributes time to, in display order. Anything not
/// claimed by the first three lands in the enclosing `search` bucket.
const PHASES: [&str; 4] = ["estep", "mstep", "allreduce", "search"];

pub fn calibrate(args: &[String]) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    if let Some(path) = flag_value("--check") {
        return check(Path::new(path));
    }
    if let Some(code) = crate::refuse_debug_wall_rows("calibrate", smoke) {
        return code;
    }
    let root = crate::repo_root();
    let out_path =
        flag_value("--out").map(Into::into).unwrap_or_else(|| root.join("CALIBRATE.json"));

    let rows = match run_series(smoke) {
        Ok(rows) => rows,
        Err(msg) => {
            eprintln!("xtask calibrate: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let json = assemble_json(smoke, &rows);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("xtask calibrate: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    print_tables(&rows);
    println!("xtask calibrate: wrote {}", out_path.display());
    ExitCode::SUCCESS
}

/// One processor count's calibration measurements, all gates already
/// enforced by [`run_series`].
struct CalRow {
    p: usize,
    cycles: usize,
    /// Virtual seconds of the simulated run.
    sim_elapsed_s: f64,
    /// Measured wall-clock seconds of the native run.
    native_elapsed_s: f64,
    /// LogGP closed-form prediction for the total allreduce time — the
    /// same per-payload formula `xtask report` gates the simulator on.
    loggp_allreduce_s: f64,
    /// `(phase, sim fraction of elapsed, native fraction of elapsed)`.
    phase_fracs: Vec<(&'static str, f64, f64)>,
}

/// Max-over-ranks total of one phase bucket.
fn phase_time(ranks: &[RankStats], name: &str) -> f64 {
    ranks.iter().filter_map(|r| r.phase(name).map(|ph| ph.total())).fold(0.0, f64::max)
}

/// Hashes of every stored classification's flat parameters — the same
/// FNV-1a the in-run replication verifier uses.
fn outcome_hashes(out: &ParallelOutcome) -> Vec<u64> {
    out.all.iter().map(|c| hash_f64s(&classes_to_flat(&c.classes))).collect()
}

fn run_series(smoke: bool) -> Result<Vec<CalRow>, String> {
    let (n, ps): (usize, &[usize]) = if smoke { (800, &[1, 2, 4]) } else { (2_000, &[1, 2, 4, 8]) };
    let data = datagen::paper_dataset(n, 11);
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![4],
            tries_per_j: 1,
            max_cycles: if smoke { 6 } else { 10 },
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 42,
            max_stored: 1,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        partition: Partitioning::Block,
        correlated_blocks: Vec::new(),
    };
    let mut rows = Vec::new();
    for &p in ps {
        let spec = presets::meiko_cs2(p);
        let sim = run_search_with(&data, &spec, &config, &SimOptions::verified())
            .map_err(|e| format!("P={p} sim: {e}"))?;
        let native = run_search_native(&data, &spec, &config, &NativeOptions::verified())
            .map_err(|e| format!("P={p} native: {e}"))?;

        // Hard gate: backends must agree to the last bit.
        let ll_ok =
            sim.best.approx.log_likelihood.to_bits() == native.best.approx.log_likelihood.to_bits();
        let score_ok = sim.best.score().to_bits() == native.best.score().to_bits();
        let hashes_ok = outcome_hashes(&sim) == outcome_hashes(&native);
        if !(ll_ok && score_ok && hashes_ok && sim.cycles == native.cycles) {
            return Err(format!(
                "P={p}: backends diverged (ll bits {} vs {}, cycles {} vs {}, hashes equal: \
                 {hashes_ok}) — the determinism contract is broken",
                sim.best.approx.log_likelihood,
                native.best.approx.log_likelihood,
                sim.cycles,
                native.cycles
            ));
        }
        // Structural gate: native phase buckets partition measured time.
        for (r, rs) in native.ranks.iter().enumerate() {
            let sum: f64 = rs.phases.iter().map(|ph| ph.total()).sum();
            let rel = (sum - rs.elapsed).abs() / rs.elapsed.max(1e-12);
            if !(rel < 1e-6) {
                return Err(format!(
                    "P={p} rank {r}: native phase totals {sum:.6e}s do not partition \
                     elapsed {:.6e}s",
                    rs.elapsed
                ));
            }
        }
        if !(sim.elapsed > 0.0 && native.elapsed > 0.0 && native.elapsed.is_finite()) {
            return Err(format!(
                "P={p}: degenerate elapsed times (sim {:.3e}, native {:.3e})",
                sim.elapsed, native.elapsed
            ));
        }
        let phase_fracs = PHASES
            .iter()
            .map(|&name| {
                let sf = phase_time(&sim.ranks, name) / sim.elapsed;
                let nf = phase_time(&native.ranks, name) / native.elapsed;
                (name, sf, nf)
            })
            .collect::<Vec<_>>();
        for &(name, sf, nf) in &phase_fracs {
            // Per-phase max-over-ranks can slightly exceed the max-rank
            // elapsed only through a bug, not noise; allow epsilon.
            if !(sf.is_finite()
                && nf.is_finite()
                && (0.0..=1.0 + 1e-9).contains(&sf)
                && (0.0..=1.0 + 1e-9).contains(&nf))
            {
                return Err(format!("P={p}: phase '{name}' fraction out of range ({sf}, {nf})"));
            }
        }
        // LogGP prediction for the run's allreduce traffic: per cycle, one
        // w_j-sized and one fused-statistics-sized combine (see `driver`);
        // sizes are recovered from the run itself so the formula tracks
        // whatever the search actually exchanged.
        let j = sim.best.n_classes();
        let stats_len = classes_to_flat(&sim.best.classes).len();
        let per_cycle = [j, stats_len + 2]
            .iter()
            .map(|&m| predicted_allreduce_cost(spec.allreduce, p, m, &spec.network))
            .sum::<f64>();
        let loggp_allreduce_s = sim.cycles as f64 * per_cycle;
        rows.push(CalRow {
            p,
            cycles: sim.cycles,
            sim_elapsed_s: sim.elapsed,
            native_elapsed_s: native.elapsed,
            loggp_allreduce_s,
            phase_fracs,
        });
    }
    // Speedup structural gate, both backends: finite and positive.
    let (s1, n1) = (rows[0].sim_elapsed_s, rows[0].native_elapsed_s);
    for r in &rows {
        let ss = s1 / r.sim_elapsed_s;
        let ns = n1 / r.native_elapsed_s;
        if !(ss.is_finite() && ss > 0.0 && ns.is_finite() && ns > 0.0) {
            return Err(format!("P={}: degenerate speedup (sim {ss:.3}, native {ns:.3})", r.p));
        }
    }
    Ok(rows)
}

fn print_tables(rows: &[CalRow]) {
    let (s1, n1) = (rows[0].sim_elapsed_s, rows[0].native_elapsed_s);
    println!("speedup curves (elapsed P=1 / elapsed P):");
    println!(
        "{:>4} {:>10} {:>14} {:>12} {:>14} {:>16}",
        "P", "cycles", "sim elapsed", "sim spd", "native elapsed", "native spd"
    );
    for r in rows {
        println!(
            "{:>4} {:>10} {:>13.6}s {:>12.3} {:>13.6}s {:>16.3}",
            r.p,
            r.cycles,
            r.sim_elapsed_s,
            s1 / r.sim_elapsed_s,
            r.native_elapsed_s,
            n1 / r.native_elapsed_s
        );
    }
    println!("\nphase fractions of elapsed (sim / native):");
    for r in rows {
        let cols = r
            .phase_fracs
            .iter()
            .map(|(name, sf, nf)| format!("{name} {:.3}/{:.3}", sf, nf))
            .collect::<Vec<_>>()
            .join("  ");
        println!("  P={:<3} {cols}", r.p);
    }
    println!();
}

fn assemble_json(smoke: bool, rows: &[CalRow]) -> String {
    let (s1, n1) = (rows[0].sim_elapsed_s, rows[0].native_elapsed_s);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"kind\": \"calibrate\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"backends\": [\"mpsim\", \"shmcomm\"],");
    out.push_str("  \"gates\": {\n");
    // Enforced in run_series; reaching here means they all held. Recorded
    // so --check (and CI) can assert on the artifact alone.
    let _ = writeln!(out, "    \"bitwise_identical\": true,");
    let _ = writeln!(out, "    \"phase_sums_ok\": true,");
    let _ = writeln!(out, "    \"fractions_ok\": true,");
    let _ = writeln!(out, "    \"speedup_finite\": true");
    out.push_str("  },\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"p\": {},", r.p);
        let _ = writeln!(out, "      \"cycles\": {},", r.cycles);
        let _ = writeln!(out, "      \"sim_elapsed_s\": {:.9},", r.sim_elapsed_s);
        let _ = writeln!(out, "      \"native_elapsed_s\": {:.9},", r.native_elapsed_s);
        let _ = writeln!(out, "      \"sim_speedup\": {:.6},", s1 / r.sim_elapsed_s);
        let _ = writeln!(out, "      \"native_speedup\": {:.6},", n1 / r.native_elapsed_s);
        let _ = writeln!(out, "      \"loggp_allreduce_s\": {:.9},", r.loggp_allreduce_s);
        out.push_str("      \"phases\": [\n");
        for (k, (name, sf, nf)) in r.phase_fracs.iter().enumerate() {
            let pc = if k + 1 < r.phase_fracs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        {{\"name\": \"{name}\", \"sim_frac\": {sf:.6}, \
                 \"native_frac\": {nf:.6}}}{pc}"
            );
        }
        out.push_str("      ]\n");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Structural validation of a calibration artifact: required keys exist
/// and every gate reads `true`. Wall-clock numbers are host-dependent and
/// deliberately not pinned.
fn check(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask calibrate --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let required = [
        "\"schema_version\": 1",
        "\"kind\": \"calibrate\"",
        "\"backends\": [\"mpsim\", \"shmcomm\"]",
        "\"gates\"",
        "\"bitwise_identical\": true",
        "\"phase_sums_ok\": true",
        "\"fractions_ok\": true",
        "\"speedup_finite\": true",
        "\"rows\"",
        "\"sim_elapsed_s\"",
        "\"native_elapsed_s\"",
        "\"sim_speedup\"",
        "\"native_speedup\"",
        "\"loggp_allreduce_s\"",
        "\"phases\"",
        "\"sim_frac\"",
        "\"native_frac\"",
        "\"estep\"",
        "\"mstep\"",
        "\"allreduce\"",
        "\"search\"",
    ];
    let mut missing = Vec::new();
    for key in required {
        if !text.contains(key) {
            missing.push(key);
        }
    }
    if missing.is_empty() {
        println!("xtask calibrate --check: {} ok", path.display());
        ExitCode::SUCCESS
    } else {
        for key in missing {
            eprintln!("xtask calibrate --check: {} missing {key}", path.display());
        }
        ExitCode::FAILURE
    }
}
