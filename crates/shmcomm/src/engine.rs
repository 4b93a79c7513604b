//! The native SPMD launcher: one OS thread per rank over a full `mpsc`
//! channel mesh, with per-rank panic capture that classifies failures
//! into typed [`CommError`]s (a poisoned lock or a vanished peer never
//! escapes as a raw panic).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use mpsim::error::SimError;
use mpsim::traits::CommError;
use mpsim::{MachineSpec, RankStats, RunStats};

use crate::comm::{Msg, NativeAbort, NativeComm, ReplCheck};

/// Knobs for a native run.
#[derive(Debug, Clone)]
pub struct NativeOptions {
    /// Wall-clock ceiling for any single blocking receive; turns a hang
    /// (peer died without tripping the abort flag) into a typed
    /// [`CommError::Timeout`].
    pub recv_timeout: Duration,
    /// Cross-check that collective results and `verify_replicated` data
    /// are bitwise identical on every rank (the native analogue of the
    /// simulator's replication verifier).
    pub check_replication: bool,
    /// Deterministic fault plan (shared with the simulator's
    /// [`mpsim::SimOptions::fault`]). Only `Crash` specs are honored —
    /// the native transport has no place to drop, delay, or corrupt a
    /// message in flight — and a due crash raises a typed
    /// `SimError::RankCrashed` through [`CommError::Sim`], so a
    /// fault-tolerant supervisor sees the same diagnosis on both
    /// backends. Fired flags are shared across clones, exactly like the
    /// simulator's, so one-shot faults stay spent across re-runs.
    pub fault: Option<mpsim::FaultPlan>,
}

impl Default for NativeOptions {
    fn default() -> Self {
        NativeOptions {
            recv_timeout: Duration::from_secs(120),
            check_replication: false,
            fault: None,
        }
    }
}

impl NativeOptions {
    /// Options with replication checking enabled — the native
    /// counterpart of [`mpsim::SimOptions::verified`].
    pub fn verified() -> Self {
        NativeOptions { check_replication: true, ..NativeOptions::default() }
    }
}

/// What a native run returns when every rank completes.
#[derive(Debug)]
pub struct NativeOutput<T> {
    /// Each rank's return value, by rank.
    pub per_rank: Vec<T>,
    /// Elapsed wall-clock seconds (max over ranks).
    pub elapsed: f64,
    /// Per-rank statistics in the simulator's report shapes.
    pub ranks: Vec<RankStats>,
    /// Aggregate statistics.
    pub stats: RunStats,
}

/// Rough severity for picking the *cause* among multiple failed ranks:
/// a rank that aborted because another failed first, or found a channel
/// already closed, is a symptom, not the disease.
fn severity(e: &CommError) -> u8 {
    match e {
        CommError::Sim(SimError::Aborted { .. }) => 0,
        CommError::Disconnected { .. } | CommError::Timeout { .. } => 1,
        _ => 2,
    }
}

/// Typed aborts travel as panics by design (the only way to unwind a
/// rank body mid-collective), so the default hook's message-and-backtrace
/// for them is pure noise — e.g. every injected crash under a
/// fault-tolerant supervisor would print one. Install, once per process,
/// a hook that stays silent for [`NativeAbort`] payloads and defers to
/// the previous hook for everything else (genuine bugs still report).
fn install_quiet_abort_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<NativeAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Turn a rank thread's panic payload into a typed error.
fn classify(rank: usize, payload: Box<dyn std::any::Any + Send>) -> CommError {
    match payload.downcast::<NativeAbort>() {
        Ok(ab) => ab.0,
        Err(payload) => {
            let detail = if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "non-string panic payload".to_string()
            };
            if detail.contains("PoisonError") || detail.contains("poisoned") {
                CommError::Poisoned { rank, detail }
            } else {
                CommError::RankPanicked { rank, detail }
            }
        }
    }
}

/// Run `body` as an SPMD program on `machine.p` OS threads, one rank
/// each, and wait for all of them.
///
/// The machine spec contributes only its *decisions* (rank count,
/// default/auto allreduce algorithm); all timing is measured, not
/// modeled. Rank bodies communicate through [`NativeComm`], whose
/// collectives run the simulator's own schedules (`mpsim::collectives`).
///
/// # Errors
///
/// If any rank fails, returns the most causal [`CommError`] (typed
/// aborts outrank disconnects/timeouts, which outrank secondary
/// "another rank failed first" aborts).
pub fn run_native<T, F>(
    machine: &MachineSpec,
    opts: &NativeOptions,
    body: F,
) -> Result<NativeOutput<T>, CommError>
where
    T: Send,
    F: Fn(&mut NativeComm) -> T + Sync,
{
    let p = machine.p;
    if p == 0 {
        return Err(CommError::InvalidMachine { detail: "machine has zero ranks".into() });
    }
    install_quiet_abort_hook();

    // Full channel mesh: tx_grid[src][dst] feeds rx_grid[dst][src].
    let mut tx_grid: Vec<Vec<Sender<Msg>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut rx_grid: Vec<Vec<Receiver<Msg>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for tx_row in tx_grid.iter_mut() {
        for rx_row in rx_grid.iter_mut() {
            let (tx, rx) = channel();
            tx_row.push(tx);
            rx_row.push(rx);
        }
    }

    let abort = Arc::new(AtomicBool::new(false));
    let repl = if opts.check_replication { Some(Arc::new(ReplCheck::new())) } else { None };

    let joined: Vec<Result<(T, RankStats), CommError>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(p);
        for (rank, (txs, rxs)) in tx_grid.into_iter().zip(rx_grid).enumerate() {
            let body = &body;
            let abort = Arc::clone(&abort);
            let repl = repl.clone();
            let machine = machine.clone();
            let recv_timeout = opts.recv_timeout;
            let fault = opts.fault.clone();
            handles.push(s.spawn(move || {
                let rank_abort = Arc::clone(&abort);
                let mut comm =
                    NativeComm::new(rank, p, machine, txs, rxs, abort, repl, recv_timeout, fault);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let value = body(&mut comm);
                    let stats = comm.stats();
                    (value, stats)
                }));
                if result.is_err() {
                    // Any escape — typed or not — must wake peers blocked
                    // in receives, or they ride out the full timeout.
                    rank_abort.store(true, Ordering::SeqCst);
                }
                result.map_err(|payload| classify(rank, payload))
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(r) => r,
                Err(payload) => Err(classify(rank, payload)),
            })
            .collect()
    });

    let mut per_rank = Vec::with_capacity(p);
    let mut ranks = Vec::with_capacity(p);
    let mut worst: Option<CommError> = None;
    for r in joined {
        match r {
            Ok((value, stats)) => {
                per_rank.push(value);
                ranks.push(stats);
            }
            Err(e) => {
                let replace = match &worst {
                    Some(w) => severity(&e) > severity(w),
                    None => true,
                };
                if replace {
                    worst = Some(e);
                }
            }
        }
    }
    if let Some(e) = worst {
        return Err(e);
    }
    let elapsed = ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max);
    let stats = RunStats::from_ranks(&ranks);
    Ok(NativeOutput { per_rank, elapsed, ranks, stats })
}
