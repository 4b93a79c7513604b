//! The two workloads: their inputs, set-up, one timed search and the
//! check each search must pass.
//!
//! Every try runs exactly `max_cycles` EM cycles (`rel_delta_ll` is
//! negative, so no try stops early), which fixes the work per search:
//! the seed changes the data, not how many cycles a search takes, so wall
//! times from different seeds are comparable. The seed also adds one item
//! per rank or none (see [`Spec::n_items`]), so exact values such as
//! `virtual_s` differ between seeds.

use std::time::Instant;

use autoclass::data::Dataset;
use autoclass::model::classes_to_flat;
use autoclass::search::{Classification, SearchConfig};
use mpsim::{
    hash_f64s, presets, AllreduceAlgo, FaultAction, FaultPlan, FaultSpec, FaultTrigger,
    MachineSpec, RankStats, SimOptions,
};
use pautoclass::{
    run_search_fleet_ft, run_search_native, run_search_with, Consensus, Exchange, FleetConfig,
    FleetStats, FtConfig, NativeOptions, ParallelConfig, ParallelOutcome, RecoveryPolicy,
    StandbyConfig, Strategy,
};

use crate::sys::{splitmix64, usage};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NativeKernel,
    SimFleetFt,
}

pub const NAMES: [&str; 2] = ["native-kernel", "sim-fleet-ft"];

/// Fleet split of `sim-fleet-ft`: eight fleets of eight ranks.
const FLEET: FleetConfig =
    FleetConfig { groups: 8, round_cycles: 4, dedup_every: 2, consensus: Consensus::GlobalBest };
/// The crash `sim-fleet-ft` injects into every faulted search.
const CRASH_RANK: usize = 5;
const CRASH_SEND_SEQ: u64 = 120;

pub struct Spec {
    pub kind: Kind,
    /// Items before the per-seed addition of [`Spec::n_items`].
    pub n_base: usize,
    pub j_list: Vec<usize>,
    pub tries: usize,
    pub max_cycles: usize,
}

impl Spec {
    /// The workload named `name`, at full size or at smoke-test size.
    pub fn new(name: &str, smoke: bool) -> Option<Spec> {
        let (kind, full, tiny) = match name {
            "native-kernel" => {
                (Kind::NativeKernel, (100_000, vec![4, 8, 16], 1, 16), (4_000, vec![2, 4], 1, 3))
            }
            "sim-fleet-ft" => {
                (Kind::SimFleetFt, (32_768, vec![2, 3, 4, 5], 2, 16), (4_096, vec![2, 3], 2, 12))
            }
            _ => return None,
        };
        let (n_base, j_list, tries, max_cycles) = if smoke { tiny } else { full };
        Some(Spec { kind, n_base, j_list, tries, max_cycles })
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::NativeKernel => NAMES[0],
            Kind::SimFleetFt => NAMES[1],
        }
    }

    /// Items in the dataset: `n_base` plus, on about half the seeds, one
    /// more per rank of a search. The virtual time depends on the
    /// partition sizes but not on the data values, so this is what makes
    /// it differ between seeds. It moves the work by under 0.1 %.
    pub fn n_items(&self, seed: u64) -> usize {
        self.n_base + self.ranks_per_search() * (splitmix64(seed) % 2) as usize
    }

    pub fn config(&self, seed: u64) -> ParallelConfig {
        ParallelConfig {
            search: SearchConfig {
                start_j_list: self.j_list.clone(),
                tries_per_j: self.tries,
                max_cycles: self.max_cycles,
                // Negative: no try converges early (see the module docs).
                rel_delta_ll: -1.0,
                seed,
                ..SearchConfig::default()
            },
            strategy: Strategy::Full { exchange: Exchange::Fused },
            ..ParallelConfig::default()
        }
    }

    /// The machine the search runs on (for `native-kernel`, the machine
    /// whose rank count and allreduce choice the native backend follows).
    pub fn machine(&self) -> MachineSpec {
        match self.kind {
            Kind::NativeKernel => presets::meiko_cs2(2),
            Kind::SimFleetFt => {
                let mut m = presets::meiko_cs2(64);
                m.allreduce = AllreduceAlgo::RecursiveDoubling;
                m
            }
        }
    }

    /// Ranks that share one search's data: the whole machine, or one
    /// fleet under `sim-fleet-ft`.
    pub fn ranks_per_search(&self) -> usize {
        match self.kind {
            Kind::SimFleetFt => self.machine().p / FLEET.groups,
            Kind::NativeKernel => self.machine().p,
        }
    }

    pub fn engine(&self) -> &'static str {
        match self.kind {
            Kind::NativeKernel => {
                "shmcomm native threads P=2; reference on mpsim Engine::Cooperative P=2"
            }
            Kind::SimFleetFt => {
                "mpsim Engine::Cooperative P=64 (+1 spare) meiko_cs2 RecursiveDoubling"
            }
        }
    }
}

fn ft_config() -> FtConfig {
    FtConfig {
        checkpoint_every: 4,
        policy: RecoveryPolicy::PromoteSpare,
        max_restarts: 1,
        standby: StandbyConfig { spares: 1, ..StandbyConfig::default() },
    }
}

fn faulted_options() -> SimOptions {
    // A fresh plan per search: a plan's fired flags are shared by its
    // clones, so a reused plan would not fire again.
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: CRASH_RANK,
        action: FaultAction::Crash,
        trigger: FaultTrigger::AtSendSeq(CRASH_SEND_SEQ),
    }]);
    SimOptions { fault: Some(plan), ..SimOptions::cooperative() }
}

/// What every checked search must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    /// Score bits and class-parameter hash of every retained
    /// classification, best first.
    all: Vec<(u64, u64)>,
    best_ll: u64,
    cycles: usize,
}

impl Fingerprint {
    fn of(o: &ParallelOutcome) -> Self {
        let bits =
            |c: &Classification| (c.score().to_bits(), hash_f64s(&classes_to_flat(&c.classes)));
        Fingerprint {
            all: o.all.iter().map(bits).collect(),
            best_ll: o.best.approx.log_likelihood.to_bits(),
            cycles: o.cycles,
        }
    }
}

/// Set-up products: the data, the run settings, and the reference every
/// timed search is checked against.
pub struct Ctx {
    pub data: Dataset,
    pub config: ParallelConfig,
    pub machine: MachineSpec,
    pub gen_s: f64,
    /// The simulated seconds of the reference search (for
    /// `native-kernel`, the same search on the simulated machine).
    pub reference_virtual_s: f64,
    expected: Fingerprint,
    iterations: usize,
    /// The full outcome of the latest search that returned.
    pub last: Option<ParallelOutcome>,
}

/// One timed search.
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub sys_s: f64,
    pub ok: bool,
    pub result: Option<Measured>,
}

/// The phase buckets of `RankStats.phases` the traced run reports.
pub const PHASES: [&str; 9] = [
    "estep",
    "mstep",
    "allreduce",
    "search",
    "fleet",
    "dedup",
    "consensus",
    "checkpoint",
    mpsim::RECOVERY_PHASE,
];

/// What a successful search reports about itself. Only this summary is
/// kept per search; the full outcome of the latest one is `Ctx::last`, so
/// the benchmark's own memory does not grow with the number of searches
/// (that would show in `peak_rss_mib`).
pub struct Measured {
    pub cycles: usize,
    pub virtual_s: f64,
    /// Max over ranks of each bucket in [`PHASES`], seconds.
    pub phases: [f64; PHASES.len()],
    pub fleet: Option<FleetStats>,
    pub attempts: usize,
    pub promotions: usize,
    /// Faulted minus paired fault-free search (`sim-fleet-ft` only).
    pub lost_host_s: f64,
    pub lost_virtual_s: f64,
}

/// A search as it returned, before it is checked and summarised.
struct Run {
    outcome: ParallelOutcome,
    virtual_s: f64,
    fleet: Option<FleetStats>,
    attempts: usize,
    promotions: usize,
}

/// A search's cost and, unless it returned `Err`, what it returned.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    sys_s: f64,
    run: Option<Run>,
}

pub fn setup(spec: &Spec, seed: u64, t: &mut Tracer) -> Result<Ctx, String> {
    let n = spec.n_items(seed);
    let t0 = Instant::now();
    let data = t.span("datagen", "datagen.paper_dataset", |_| datagen::paper_dataset(n, seed));
    let gen_s = t0.elapsed().as_secs_f64();
    let config = spec.config(seed);
    let machine = spec.machine();
    let reference = match spec.kind {
        Kind::NativeKernel => t.span("driver", "pautoclass.run_search_with", |_| {
            run_search_with(&data, &machine, &config, &SimOptions::cooperative())
        }),
        Kind::SimFleetFt => t
            .span("fleet", "pautoclass.run_search_fleet_ft", |_| {
                run_search_fleet_ft(
                    &data,
                    &machine,
                    &config,
                    &FLEET,
                    &ft_config(),
                    &SimOptions::cooperative(),
                )
            })
            .map(|o| o.outcome.outcome),
    }
    .map_err(|e| format!("{}: reference search failed: {e}", spec.name()))?;
    let mut ctx = Ctx {
        expected: Fingerprint::of(&reference),
        reference_virtual_s: reference.elapsed,
        data,
        config,
        machine,
        gen_s,
        iterations: 0,
        last: None,
    };
    // Warm-up: one checked search before any is timed.
    let warm = search(spec, &mut ctx, t);
    if !warm.ok {
        return Err(format!("{}: warm-up search failed its check", spec.name()));
    }
    Ok(ctx)
}

/// Run, time and check one search.
pub fn search(spec: &Spec, ctx: &mut Ctx, t: &mut Tracer) -> Sample {
    ctx.iterations += 1;
    let (timed, passed, lost) = t.search(|t| match spec.kind {
        Kind::NativeKernel => {
            let r = timed(t, "driver", "pautoclass.run_search_native", || {
                run_search_native(&ctx.data, &ctx.machine, &ctx.config, &NativeOptions::default())
                    .map(|o| plain(o, ctx.reference_virtual_s))
            });
            let passed = checked(t, &r, |r| Fingerprint::of(&r.outcome) == ctx.expected);
            (r, passed, (0.0, 0.0))
        }
        Kind::SimFleetFt => fleet_pair(ctx, t),
    });
    let result = timed.run.map(|r| {
        let m = Measured {
            cycles: r.outcome.cycles,
            virtual_s: r.virtual_s,
            phases: PHASES.map(|p| phase_max(&r.outcome.ranks, p)),
            fleet: r.fleet,
            attempts: r.attempts,
            promotions: r.promotions,
            lost_host_s: lost.0,
            lost_virtual_s: lost.1,
        };
        ctx.last = Some(r.outcome);
        m
    });
    Sample { wall_s: timed.wall_s, cpu_s: timed.cpu_s, sys_s: timed.sys_s, ok: passed, result }
}

fn plain(outcome: ParallelOutcome, virtual_s: f64) -> Run {
    Run { outcome, virtual_s, fleet: None, attempts: 1, promotions: 0 }
}

/// A faulted fleet search paired with a fault-free one on the same
/// inputs. The pair's order alternates between iterations so that
/// neither side always runs on a cache the other warmed. Recovery cost is
/// the difference between the two: the program's own `recovery_time`
/// reads 0 under `PromoteSpare`, and its `elapsed` covers only the final
/// attempt. Returns the faulted search, whether the pair passed its check,
/// and the (host, virtual) seconds the fault cost.
fn fleet_pair(ctx: &Ctx, t: &mut Tracer) -> (Timed, bool, (f64, f64)) {
    let run = |t: &mut Tracer, faulted: bool| {
        let (layer, name, opts) = if faulted {
            ("recover", "pautoclass.run_search_fleet_ft(faulted)", faulted_options())
        } else {
            ("fleet", "pautoclass.run_search_fleet_ft", SimOptions::cooperative())
        };
        timed(t, layer, name, || {
            run_search_fleet_ft(&ctx.data, &ctx.machine, &ctx.config, &FLEET, &ft_config(), &opts)
                .map(|o| Run {
                    virtual_s: o.outcome.outcome.elapsed,
                    outcome: o.outcome.outcome,
                    fleet: Some(o.outcome.fleet),
                    attempts: o.attempts,
                    promotions: o.promotions,
                })
        })
    };
    let (faulted, clean) = if ctx.iterations.is_multiple_of(2) {
        let f = run(t, true);
        (f, run(t, false))
    } else {
        let c = run(t, false);
        (run(t, true), c)
    };
    let lost = match (&faulted.run, &clean.run) {
        (Some(f), Some(c)) => (faulted.wall_s - clean.wall_s, f.virtual_s - c.virtual_s),
        _ => (0.0, 0.0),
    };
    let passed = checked(t, &faulted, |f| {
        clean.run.as_ref().is_some_and(|c| {
            f.attempts == 2
                && f.promotions == 1
                && c.attempts == 1
                && Fingerprint::of(&f.outcome) == Fingerprint::of(&c.outcome)
                && Fingerprint::of(&c.outcome) == ctx.expected
        })
    });
    (faulted, passed, lost)
}

fn timed<E: std::fmt::Display>(
    t: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> Result<Run, E>,
) -> Timed {
    let u0 = usage();
    let t0 = Instant::now();
    let r = t.span(layer, name, |_| f());
    let wall_s = t0.elapsed().as_secs_f64();
    let u1 = usage();
    Timed {
        wall_s,
        cpu_s: u1.cpu_s() - u0.cpu_s(),
        sys_s: u1.sys_s - u0.sys_s,
        run: r.map_err(|e| eprintln!("perfbench: {name} failed: {e}")).ok(),
    }
}

/// Whether a search returned and its result passed `check`.
fn checked(t: &mut Tracer, timed: &Timed, check: impl FnOnce(&Run) -> bool) -> bool {
    let passed = t.span("bench", "bench.check", |_| timed.run.as_ref().is_some_and(check));
    if !passed && timed.run.is_some() {
        eprintln!("perfbench: a search returned a result that failed its check");
    }
    passed
}

/// Max over ranks of one phase bucket's total, seconds.
pub fn phase_max(ranks: &[RankStats], name: &str) -> f64 {
    ranks.iter().filter_map(|r| r.phase(name)).map(|p| p.total()).fold(0.0, f64::max)
}
