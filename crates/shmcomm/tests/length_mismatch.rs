//! A rank passing a buffer of the wrong length to a collective fails the
//! run with a typed `CollectiveMismatch` naming a participating rank — on
//! both backends, on the world communicator and on a group, under every
//! allreduce algorithm, with verification at its default (no fingerprint
//! cross-check to catch it first). The shared schedules check every
//! received length before folding or copying it, so the `ReduceOp::fold`
//! assertion and `copy_from_slice` can never turn the mismatch into an
//! untyped rank panic.

use mpsim::{
    presets, run_spmd, AllreduceAlgo, CommError, Communicator, GroupCommunicator, MachineSpec,
    ReduceOp, SimError, SimOptions,
};
use shmcomm::{run_native, NativeOptions};

/// The rank that passes a short buffer: the last of five, so it is the
/// parked rank of recursive doubling and Rabenseifner and a lone node of
/// the hierarchical schedule.
const CULPRIT: usize = 4;

/// Five ranks on two-rank nodes: nodes {0,1}, {2,3}, {4}.
fn machine() -> MachineSpec {
    presets::hier_cluster(CULPRIT + 1, 2)
}

#[derive(Clone, Copy, Debug)]
enum Case {
    Broadcast,
    Allreduce(AllreduceAlgo),
    GroupBroadcast,
    GroupAllreduce,
}

fn cases() -> Vec<Case> {
    let mut cases = vec![Case::Broadcast, Case::GroupBroadcast, Case::GroupAllreduce];
    cases.extend(
        [
            AllreduceAlgo::Linear,
            AllreduceAlgo::OrderedLinear,
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
            AllreduceAlgo::Rabenseifner,
            AllreduceAlgo::Hierarchical,
            AllreduceAlgo::Auto,
        ]
        .map(Case::Allreduce),
    );
    cases
}

/// Every rank of the world.
const WORLD: &[usize] = &[0, 1, 2, 3, 4];

/// Ranks that take part in `case`: the whole world, or the culprit's group
/// (the even ranks) for the group cases.
fn participants(case: Case) -> &'static [usize] {
    match case {
        Case::GroupBroadcast | Case::GroupAllreduce => &[0, 2, 4],
        _ => WORLD,
    }
}

fn body<C: Communicator>(c: &mut C, case: Case) {
    let me = c.rank();
    let mut buf = vec![me as f64 + 0.5; if me == CULPRIT { 3 } else { 6 }];
    match case {
        // lint:allow(rank-variant-payload): the rank-variant length IS the case under test
        Case::Broadcast => c.broadcast_f64s(0, &mut buf),
        // lint:allow(rank-variant-payload): the rank-variant length IS the case under test
        Case::Allreduce(algo) => c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, algo),
        // lint:allow(rank-variant-payload): the rank-variant length IS the case under test
        Case::GroupBroadcast => c.split((me % 2) as u32).broadcast_f64s(0, &mut buf),
        // lint:allow(rank-variant-payload): the rank-variant length IS the case under test
        Case::GroupAllreduce => c.split((me % 2) as u32).allreduce_f64s(&mut buf, ReduceOp::Sum),
    }
}

fn assert_mismatch(err: Option<&SimError>, participants: &[usize], label: &str) {
    match err {
        Some(SimError::CollectiveMismatch { rank, .. }) => assert!(
            participants.contains(rank),
            "{label}: mismatch names rank {rank}, not a participant"
        ),
        other => panic!("{label}: expected CollectiveMismatch, got {other:?}"),
    }
}

#[test]
fn simulated_length_mismatch_is_typed() {
    for case in cases() {
        let r = run_spmd(&machine(), &SimOptions::default(), |c| body(c, case));
        assert_mismatch(r.err().as_ref(), participants(case), &format!("sim {case:?}"));
    }
}

#[test]
fn native_length_mismatch_is_typed() {
    for case in cases() {
        let r = run_native(&machine(), &NativeOptions::default(), |c| body(c, case));
        let err = match r.err() {
            Some(CommError::Sim(e)) => Some(e),
            Some(other) => panic!("native {case:?}: expected CollectiveMismatch, got {other:?}"),
            None => None,
        };
        assert_mismatch(err.as_ref(), participants(case), &format!("native {case:?}"));
    }
}

/// The simulator's world-only reductions check lengths too.
#[test]
fn simulated_reduce_and_scan_mismatch_is_typed() {
    for root in [0, CULPRIT] {
        let r = run_spmd(&machine(), &SimOptions::default(), |c| {
            let mut buf = vec![1.0; if c.rank() == CULPRIT { 3 } else { 6 }];
            // lint:allow(rank-variant-payload): the rank-variant length IS the case under test
            c.reduce_f64s(root, &mut buf, ReduceOp::Sum);
        });
        assert_mismatch(r.err().as_ref(), WORLD, &format!("sim reduce to {root}"));
    }
    let r = run_spmd(&machine(), &SimOptions::default(), |c| {
        let mut buf = vec![1.0; if c.rank() == CULPRIT { 3 } else { 6 }];
        // lint:allow(rank-variant-payload): the rank-variant length IS the case under test
        c.scan_f64s(&mut buf, ReduceOp::Sum);
    });
    assert_mismatch(r.err().as_ref(), WORLD, "sim scan");
}
