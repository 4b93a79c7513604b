//! End-to-end and per-layer benchmark of the P-AutoClass search.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! One process runs one workload: it generates the workload's inputs from
//! the seed, sets up (data generation, reference search, warm-up), then
//! runs checked searches one at a time (a closed loop with one client)
//! for the given number of seconds. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` records spans, runs the single-layer harnesses and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the workloads, metrics and predictions.

mod layers;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use autoclass::data::GlobalStats;
use autoclass::model::{Model, StatLayout};

use sys::{host_threads, median, tail, usage};
use trace::{Tracer, LAYERS};
use workload::{search, setup, Kind, Sample, Spec, NAMES, PHASES};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Searches per run at least, so that the tail percentile exists.
const MIN_SEARCHES: usize = 11;
/// A parallel speed-up above min(P, host threads) plus this margin is a
/// measurement error, not a result.
const SPEEDUP_MARGIN: f64 = 0.25;

/// End-to-end metrics: (name, unit). Search and set-up cost are on the
/// process CPU clock: on a shared virtual machine, time stolen by the
/// hypervisor inflates wall time but not CPU time (see README.md). Wall
/// times are per-layer metrics.
const END_TO_END: [(&str, &str); 7] = [
    ("cpu_s_per_search", "s"),
    ("cpu_s_per_search_tail", "s"),
    ("item_cycles_per_cpu_s", "1/s"),
    ("virtual_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verified_frac", "share"),
];

/// What the rows measured by the P = 256 allreduce harness should move.
const P256_HARNESS: &str = "nothing end-to-end (a P = 256 harness; no workload runs at P = 256)";

/// Per-layer metrics: (name, unit, end-to-end metrics it should move, on
/// which workload).
const PER_LAYER: [(&str, &str, &str, &str); 55] = [
    ("search_s_p50", "s", "none (wall clock of cpu_s_per_search)", "all"),
    ("search_s_tail", "s", "none (wall clock of cpu_s_per_search_tail)", "all"),
    ("item_cycles_per_s", "1/s", "none (wall clock of item_cycles_per_cpu_s)", "all"),
    ("setup_wall_s", "s", "none (wall clock of setup_s)", "all"),
    (
        "autoclass.estep_items_per_s",
        "1/s",
        "cpu_s_per_search item_cycles_per_cpu_s",
        "native-kernel",
    ),
    (
        "autoclass.mstep_items_per_s",
        "1/s",
        "cpu_s_per_search item_cycles_per_cpu_s",
        "native-kernel",
    ),
    (
        "autoclass.estep_ops_per_byte",
        "op/B-computed",
        "cpu_s_per_search item_cycles_per_cpu_s",
        "native-kernel",
    ),
    ("driver.cycles_per_search", "count", "cpu_s_per_search virtual_s", "all"),
    ("phase.estep_s", "s", "cpu_s_per_search virtual_s", "all"),
    ("phase.mstep_s", "s", "cpu_s_per_search virtual_s", "all"),
    ("phase.allreduce_s", "s", "cpu_s_per_search virtual_s", "all"),
    ("phase.search_s", "s", "cpu_s_per_search virtual_s", "all"),
    ("phase.fleet_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("phase.dedup_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("phase.consensus_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("phase.checkpoint_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("phase.recovery_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("shmcomm.allreduce_us", "us", "cpu_s_per_search", "native-kernel"),
    ("shmcomm.launch_ms", "ms", "cpu_s_per_search", "native-kernel"),
    ("shmcomm.speedup_p2", "x", "cpu_s_per_search", "native-kernel"),
    ("mpsim.msgs_per_search", "count", "cpu_s_per_search", "sim-fleet-ft"),
    ("mpsim.bytes_per_search", "B", "cpu_s_per_search", "sim-fleet-ft"),
    ("mpsim.host_us_per_msg", "us", "cpu_s_per_search", "sim-fleet-ft"),
    ("mpsim.sys_cpu_frac", "share", "cpu_s_per_search", "sim-fleet-ft"),
    ("mpsim.launch_ms", "ms", "cpu_s_per_search", "sim-fleet-ft"),
    ("mpsim.mailbox_high_water", "count", P256_HARNESS, "any workload"),
    ("mpsim.allreduce_host_us.perterm", "us", P256_HARNESS, "any workload"),
    ("mpsim.allreduce_host_us.fused", "us", P256_HARNESS, "any workload"),
    ("mpsim.allreduce_virtual_us.perterm", "us", P256_HARNESS, "any workload"),
    ("mpsim.allreduce_virtual_us.fused", "us", P256_HARNESS, "any workload"),
    ("mpsim.idle_frac", "share", "virtual_s cpu_s_per_search", "sim-fleet-ft"),
    ("fleet.rounds", "count", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("fleet.candidates", "count", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("fleet.dedup_hits", "count", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("fleet.steals", "count", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("recover.attempts", "count", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("recover.promotions", "count", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("recover.lost_host_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("recover.lost_virtual_s", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("checkpoint.bytes", "B", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("checkpoint.encode_us", "us", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("checkpoint.decode_us", "us", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("datagen.gen_s", "s", "setup_s", "all"),
    ("trace.overhead_s", "s", "none (cost of tracing)", "all"),
    ("trace.search_s_p50", "s", "none (traced search time)", "all"),
    ("self_s.bench", "s", "none (benchmark's own code)", "all"),
    ("self_s.datagen", "s", "setup_s", "all"),
    ("self_s.driver", "s", "cpu_s_per_search", "all"),
    ("self_s.autoclass", "s", "cpu_s_per_search item_cycles_per_cpu_s", "native-kernel"),
    ("self_s.shmcomm", "s", "cpu_s_per_search", "native-kernel"),
    ("self_s.mpsim", "s", "cpu_s_per_search", "sim-fleet-ft"),
    ("self_s.fleet", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("self_s.recover", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("self_s.checkpoint", "s", "cpu_s_per_search virtual_s", "sim-fleet-ft"),
    ("self_s.total", "s", "none (sum of the layers above)", "all"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        smoke: match kv.get("size").map_or("full", String::as_str) {
            "full" => false,
            "smoke" => true,
            other => return Err(format!("--size must be full or smoke, not {other:?}")),
        },
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if kv.keys().any(|k| !["workload", "seed", "seconds", "trace", "size"].contains(&k.as_str())) {
        return Err("unknown flag".to_string());
    }
    Ok(args)
}

fn manifest(spec: &Spec, args: &Args) -> String {
    let rustc = env!("PERFBENCH_RUSTC_VERSION");
    format!(
        "{{\"profile\": \"{}\", \"opt_level\": \"{}\", \"rustc\": \"{rustc}\", \"git_rev\": \"{}\", \
         \"nproc\": {}, \"workload\": \"{}\", \"size\": \"{}\", \"seed\": {}, \"n_items\": {}, \
         \"engine\": \"{}\"}}",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        sys::git_revision(),
        host_threads(),
        spec.name(),
        if args.smoke { "smoke" } else { "full" },
        args.seed,
        spec.n_items(args.seed),
        spec.engine(),
    )
}

type Metrics = BTreeMap<&'static str, f64>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|smoke]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) || env!("PERFBENCH_OPT_LEVEL") == "0" {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let Some(spec) = Spec::new(&args.workload, args.smoke) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let manifest = manifest(&spec, &args);
    println!("manifest: {manifest}");
    let run = if args.trace { traced(&spec, &args, &manifest) } else { end_to_end(&spec, &args) };
    match run {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run checked searches for `seconds` (and at least `min` of them),
/// alternating between the tracers given.
fn measure(
    spec: &Spec,
    ctx: &mut workload::Ctx,
    seconds: f64,
    min: usize,
    tracers: &mut [&mut Tracer],
) -> Vec<Vec<Sample>> {
    let mut samples: Vec<Vec<Sample>> = tracers.iter().map(|_| Vec::new()).collect();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut i = 0;
    while samples.iter().any(|s| s.len() < min) || t0.elapsed() < budget {
        let k = i % tracers.len();
        samples[k].push(search(spec, ctx, tracers[k]));
        i += 1;
    }
    samples
}

fn end_to_end(spec: &Spec, args: &Args) -> Result<String, String> {
    let mut off = Tracer::off();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        let u0 = usage();
        ctx = Some(setup(spec, args.seed, &mut off)?);
        setups.push(usage().cpu_s() - u0.cpu_s());
    }
    let mut ctx = ctx.expect("SETUP_REPS > 0");
    let samples = measure(spec, &mut ctx, args.seconds, MIN_SEARCHES, &mut [&mut off]).remove(0);

    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let (tail_s, pct) = tail(&cpus).expect("at least MIN_SEARCHES samples");
    println!("cpu_s_per_search_tail: p{pct:.1} of {} searches", cpus.len());
    let ok: Vec<_> = samples.iter().filter_map(|s| s.result.as_ref()).collect();
    if ok.is_empty() {
        return Err("every search failed".to_string());
    }
    let mut m = Metrics::new();
    m.insert("cpu_s_per_search", median(&cpus));
    m.insert("cpu_s_per_search_tail", tail_s);
    m.insert("item_cycles_per_cpu_s", median(&item_cycles(&ctx, &samples, |s| s.cpu_s)));
    m.insert("virtual_s", median(&ok.iter().map(|r| r.virtual_s).collect::<Vec<_>>()));
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mib", usage().peak_rss_mib);
    let failed = samples.iter().filter(|s| !s.ok).count();
    m.insert("verified_frac", (samples.len() - failed) as f64 / samples.len() as f64);
    result_line(&END_TO_END, &m, samples.len(), failed)
}

/// n × EM cycles per second of `clock`, for each successful search.
fn item_cycles(ctx: &workload::Ctx, samples: &[Sample], clock: fn(&Sample) -> f64) -> Vec<f64> {
    let n = ctx.data.len() as f64;
    samples
        .iter()
        .filter_map(|s| s.result.as_ref().map(|m| n * m.cycles as f64 / clock(s)))
        .collect()
}

fn traced(spec: &Spec, args: &Args, manifest: &str) -> Result<String, String> {
    let mut on = Tracer::on();
    let mut off = Tracer::off();
    let t0 = Instant::now();
    let mut ctx = setup(spec, args.seed, &mut on)?;
    let setup_wall_s = t0.elapsed().as_secs_f64();
    let mut both = measure(spec, &mut ctx, args.seconds, MIN_SEARCHES, &mut [&mut on, &mut off]);
    let untraced = both.pop().expect("two tracers");
    let traced = both.pop().expect("two tracers");
    let all: Vec<&Sample> = traced.iter().chain(&untraced).collect();
    let failed = all.iter().filter(|s| !s.ok).count();
    let ok: Vec<_> = traced.iter().filter_map(|s| s.result.as_ref()).collect();
    let Some(last) = ok.last() else {
        return Err("every traced search failed".to_string());
    };
    let med = |f: &dyn Fn(&workload::Measured) -> f64| {
        median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let walls = |s: &[Sample]| median(&s.iter().map(|s| s.wall_s).collect::<Vec<_>>());

    let mut m = Metrics::new();
    let untraced_walls: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
    let (tail_s, pct) = tail(&untraced_walls).expect("at least MIN_SEARCHES samples");
    println!("search_s_tail: p{pct:.1} of {} untraced searches", untraced_walls.len());
    m.insert("search_s_p50", median(&untraced_walls));
    m.insert("search_s_tail", tail_s);
    m.insert("item_cycles_per_s", median(&item_cycles(&ctx, &untraced, |s| s.wall_s)));
    m.insert("setup_wall_s", setup_wall_s);
    let o = ctx.last.as_ref().expect("a search returned");
    m.insert("driver.cycles_per_search", o.cycles as f64);
    // In the order of `PHASES`.
    let phase_keys: [&str; PHASES.len()] = [
        "phase.estep_s",
        "phase.mstep_s",
        "phase.allreduce_s",
        "phase.search_s",
        "phase.fleet_s",
        "phase.dedup_s",
        "phase.consensus_s",
        "phase.checkpoint_s",
        "phase.recovery_s",
    ];
    for (i, key) in phase_keys.into_iter().enumerate() {
        m.insert(key, med(&|r| r.phases[i]));
    }
    let msgs = o.stats.total_msgs as f64;
    m.insert("mpsim.msgs_per_search", msgs);
    m.insert("mpsim.bytes_per_search", o.stats.total_bytes as f64);
    m.insert("mpsim.host_us_per_msg", walls(&untraced) / msgs * 1e6);
    let cpu: f64 = all.iter().map(|s| s.cpu_s).sum();
    m.insert("mpsim.sys_cpu_frac", all.iter().map(|s| s.sys_s).sum::<f64>() / cpu);
    let elapsed: f64 = o.ranks.iter().map(|r| r.elapsed).sum();
    m.insert("mpsim.idle_frac", o.ranks.iter().map(|r| r.idle).sum::<f64>() / elapsed);
    // Searches outside a fleet report zero fleet counters.
    let count =
        |f: fn(&pautoclass::FleetStats) -> usize| last.fleet.as_ref().map_or(0.0, |s| f(s) as f64);
    m.insert("fleet.rounds", count(|s| s.rounds));
    m.insert("fleet.candidates", count(|s| s.candidates));
    m.insert("fleet.dedup_hits", count(|s| s.dedup_hits));
    m.insert("fleet.steals", count(|s| s.steals));
    m.insert("recover.attempts", last.attempts as f64);
    m.insert("recover.promotions", last.promotions as f64);
    m.insert("recover.lost_host_s", med(&|r| r.lost_host_s));
    m.insert("recover.lost_virtual_s", med(&|r| r.lost_virtual_s));
    m.insert("datagen.gen_s", ctx.gen_s);
    let traced_p50 = walls(&traced);
    m.insert("trace.search_s_p50", traced_p50);
    m.insert("trace.overhead_s", traced_p50 - walls(&untraced));

    // The model every rank builds: the global statistics of the data.
    let model = Model::new(ctx.data.schema().clone(), &GlobalStats::compute(&ctx.data.full_view()));
    let k = layers::kernels(
        &ctx.data,
        &model,
        spec.ranks_per_search(),
        &spec.j_list,
        args.seed,
        &mut on,
    );
    m.insert("autoclass.estep_items_per_s", k.estep_items_per_s);
    m.insert("autoclass.mstep_items_per_s", k.mstep_items_per_s);
    m.insert("autoclass.estep_ops_per_byte", k.estep_ops_per_byte);

    let j_max = spec.j_list.iter().copied().max().expect("non-empty J list");
    let layout = StatLayout::new(&model, j_max);
    // The Fused exchange carries the statistics plus two log-likelihood
    // scalars; PerTerm sends one (class, attribute) block per call.
    let fused_len = layout.len() + 2;
    let perterm_len = layout.attr_blocks.iter().map(|&(_, len)| len).max().unwrap_or(1);
    let nat = layers::native(&ctx.data, &ctx.config, fused_len, &mut on)?;
    let limit = 2.0_f64.min(host_threads() as f64) + SPEEDUP_MARGIN;
    if nat.speedup_p2 > limit {
        return Err(format!(
            "measurement error: shmcomm.speedup_p2 = {:.3} exceeds min(P, host threads) + {SPEEDUP_MARGIN} = {limit}",
            nat.speedup_p2
        ));
    }
    m.insert("shmcomm.allreduce_us", nat.allreduce_us);
    m.insert("shmcomm.launch_ms", nat.launch_ms);
    m.insert("shmcomm.speedup_p2", nat.speedup_p2);

    let mut machine = ctx.machine.clone();
    if spec.kind == Kind::SimFleetFt {
        machine = machine.with_spares(1);
    }
    let sim = layers::sim(&machine, perterm_len, fused_len, &mut on)?;
    m.insert("mpsim.launch_ms", sim.launch_ms);
    m.insert("mpsim.mailbox_high_water", sim.mailbox_high_water);
    m.insert("mpsim.allreduce_host_us.perterm", sim.allreduce_host_us_perterm);
    m.insert("mpsim.allreduce_host_us.fused", sim.allreduce_host_us_fused);
    m.insert("mpsim.allreduce_virtual_us.perterm", sim.allreduce_virtual_us_perterm);
    m.insert("mpsim.allreduce_virtual_us.fused", sim.allreduce_virtual_us_fused);

    let codec = layers::checkpoint(o, spec.ranks_per_search(), &mut on)?;
    m.insert("checkpoint.bytes", codec.bytes);
    m.insert("checkpoint.encode_us", codec.encode_us);
    m.insert("checkpoint.decode_us", codec.decode_us);

    let self_times = on.self_times();
    for layer in LAYERS {
        let key = PER_LAYER
            .iter()
            .map(|p| p.0)
            .find(|k| k.strip_prefix("self_s.") == Some(layer))
            .expect("a self_s metric per layer");
        m.insert(key, self_times[layer]);
    }
    m.insert("self_s.total", self_times.values().sum());

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", spec.name(), args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, on.to_json(manifest)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", on.span_count(), path.display());
    println!(
        "tracing overhead: {:+.6} s per search (traced minus untraced search_s_p50)",
        m["trace.overhead_s"]
    );
    for (name, _, moves, on_workload) in PER_LAYER {
        println!("predicts: {name} moves {moves} on {on_workload}");
    }
    result_line(&PER_LAYER.map(|(n, u, _, _)| (n, u)), &m, all.len(), failed)
}

/// The final JSON line. Every declared metric must have been measured,
/// finite, and nothing else may be reported.
fn result_line(
    declared: &[(&str, &str)],
    m: &Metrics,
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    if m.len() != declared.len() {
        return Err(format!("measured {} metrics but declared {}", m.len(), declared.len()));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = *m.get(name).ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}
