//! # mpsim — a deterministic simulated message-passing multicomputer
//!
//! This crate is the substrate under the P-AutoClass reproduction: an
//! MPI-like SPMD environment in which *computation is real* (each rank is
//! an OS thread running the actual algorithm on its data partition, and
//! real bytes flow between ranks) while *time is virtual* (per-rank clocks
//! advance according to calibrated compute and network cost models).
//!
//! This lets a single-core host reproduce the scaling behaviour of a
//! 10-processor Meiko CS-2 deterministically: the numerical results are
//! exactly those of the parallel algorithm, and the reported elapsed time,
//! speedup and scaleup come from the machine model rather than from the
//! host's scheduler.
//!
//! ## Quick tour
//!
//! ```
//! use mpsim::{presets, run_spmd_default, ReduceOp};
//!
//! let machine = presets::meiko_cs2(4);
//! let out = run_spmd_default(&machine, |comm| {
//!     // SPMD body: run on every rank.
//!     let mut local = vec![comm.rank() as f64 + 1.0];
//!     comm.work(1_000);                        // model local compute
//!     comm.allreduce_f64s(&mut local, ReduceOp::Sum);
//!     local[0]
//! })
//! .unwrap();
//! assert!(out.per_rank.iter().all(|&v| v == 1.0 + 2.0 + 3.0 + 4.0));
//! assert!(out.elapsed > 0.0); // virtual seconds, deterministic
//! ```
//!
//! ## Modules
//! * [`topology`] — interconnect shapes and hop counts
//! * [`cost`] — LogGP-style network model, compute model, machine presets
//! * [`clock`] — per-rank virtual clocks with compute/comm/idle accounting
//! * [`comm`] — point-to-point messaging ([`Comm`]), blocking and
//!   non-blocking ([`Request`] handles with `wait`/`waitall`)
//! * [`collectives`] — Barrier/Bcast/Reduce/Allreduce/Gather/… with
//!   textbook algorithms, each written once over the [`PointToPoint`]
//!   trait that both backends (and every group) implement
//! * [`subcomm`] — the one generic group communicator ([`Group`];
//!   `MPI_Comm_split` analogue) over either backend
//! * [`engine`] — the SPMD launcher ([`run_spmd`]) and its two execution
//!   engines: thread-per-rank ([`Engine::Threaded`]) and the cooperative
//!   virtual-time scheduler ([`Engine::Cooperative`]) for `P = 1024+`
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]: crashes,
//!   drops, delays, corruption, degraded links) and receive-side failure
//!   detection that turns hangs into typed errors naming the culprit
//! * [`replay`] — bounded per-rank rings of delivered-envelope
//!   coordinates ([`ReplayLog`]) that let a localized-recovery supervisor
//!   replay a single failed rank instead of rolling the world back
//! * [`trace`] — per-rank and aggregate statistics, including per-phase
//!   buckets fed by the [`Comm::enter_phase`] span API
//! * [`report`] — paper-style tables (per-phase time, speedup, efficiency,
//!   critical path) rendered from per-rank stats as text/CSV/JSON
//! * [`traits`] — the backend-neutral [`Communicator`] /
//!   [`GroupCommunicator`] traits (plus [`CommError`]) that let the same
//!   SPMD driver run on this simulator or on a wall-clock native backend
//! * [`verify`] — opt-in SPMD correctness verification: collective
//!   fingerprint cross-validation, wait-for-graph deadlock detection, and
//!   replication-invariant hashing (see [`SimOptions::verified`])

#![warn(missing_docs)]

pub mod clock;
pub mod collectives;
pub mod comm;
mod coop;
pub mod cost;
pub mod engine;
pub mod error;
pub mod fault;
pub mod payload;
pub mod replay;
pub mod report;
pub mod subcomm;
pub mod topology;
pub mod trace;
pub mod traits;
pub mod verify;

pub use clock::PhaseTimes;
pub use collectives::{PointToPoint, ReduceOp};
pub use comm::{Comm, Request, DEFAULT_PHASE, MAX_USER_TAG};
pub use cost::{
    predicted_allreduce_cost, presets, select_allreduce, AllreduceAlgo, ComputeModel, MachineSpec,
    NetworkModel,
};
pub use engine::{run_spmd, run_spmd_default, Engine, SimOptions, SpmdOutput};
pub use error::SimError;
pub use fault::{FaultAction, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
pub use payload::DecodeError;
pub use replay::{ReplayEntry, ReplayLog};
pub use report::{PhaseRow, Report, RunRecord, RunRow};
pub use subcomm::{Group, GroupHost, SubComm};
pub use topology::Topology;
pub use trace::{Event, EventKind, PhaseStats, RankStats, RunStats, RECOVERY_PHASE};
pub use traits::{CommError, Communicator, GroupCommunicator};
pub use verify::{hash_f64s, CollFingerprint, CollKind, VerifyOptions};
