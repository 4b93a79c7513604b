//! Golden collective traffic: every public collective — world, group and
//! nested group — on small ragged cases, with the virtual time, message
//! and byte totals, per-phase collective counts and result hashes
//! recorded as constants. The collective schedules may be reorganised,
//! but never a message, byte, tag or fold: these constants must hold
//! unchanged, exactly like `pautoclass/tests/golden_bits.rs` pins the
//! E/M kernels' arithmetic.

use mpsim::{hash_f64s, presets, run_spmd, AllreduceAlgo, Comm, MachineSpec, ReduceOp, SimOptions};

/// One phase span per collective family, in program order. The recorded
/// per-phase counts are world-collective counts summed over ranks, so
/// group phases read 0: group collectives never bump the world counters.
const PHASES: [&str; 20] = [
    "barrier",
    "broadcast",
    "reduce",
    "allreduce.default",
    "allreduce.linear",
    "allreduce.ordered_linear",
    "allreduce.rd",
    "allreduce.ring",
    "allreduce.rabenseifner",
    "allreduce.hierarchical",
    "allreduce.auto",
    "iallreduce",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "scan",
    "broadcast_u64",
    "group",
    "nested",
];

const ALGOS: [(&str, AllreduceAlgo); 7] = [
    ("allreduce.linear", AllreduceAlgo::Linear),
    ("allreduce.ordered_linear", AllreduceAlgo::OrderedLinear),
    ("allreduce.rd", AllreduceAlgo::RecursiveDoubling),
    ("allreduce.ring", AllreduceAlgo::Ring),
    ("allreduce.rabenseifner", AllreduceAlgo::Rabenseifner),
    ("allreduce.hierarchical", AllreduceAlgo::Hierarchical),
    ("allreduce.auto", AllreduceAlgo::Auto),
];

/// Ragged lengths: empty, shorter than every P, and not divisible by any.
const LENS: [usize; 4] = [0, 1, 7, 13];

/// A recorded case: `(machine, P, elapsed bits, total msgs, total bytes,
/// per-phase collective counts, hash of the per-rank result hashes)`.
type Golden = (&'static str, usize, u64, u64, u64, [u64; 20], u64);

const GOLDEN: &[Golden] = &[
    (
        "meiko_cs2",
        2,
        4581579202716837002,
        100,
        2928,
        [2, 2, 2, 4, 8, 8, 8, 10, 8, 8, 8, 2, 2, 2, 2, 2, 2, 2, 2, 0],
        9663688802507283996,
    ),
    (
        "hier_cluster",
        2,
        4545290364713677557,
        92,
        2928,
        [2, 2, 2, 4, 8, 8, 8, 10, 8, 8, 8, 2, 2, 2, 2, 2, 2, 2, 2, 0],
        9663688802507283996,
    ),
    (
        "meiko_cs2",
        3,
        4586033572595960782,
        236,
        6736,
        [3, 3, 3, 6, 12, 12, 12, 15, 12, 12, 12, 3, 3, 3, 3, 3, 3, 3, 3, 0],
        6690679848354940292,
    ),
    (
        "hier_cluster",
        3,
        4549553684431441557,
        228,
        6736,
        [3, 3, 3, 6, 12, 12, 12, 15, 12, 12, 12, 3, 3, 3, 3, 3, 3, 3, 3, 0],
        8384040716548488589,
    ),
    (
        "meiko_cs2",
        5,
        4589129086131324895,
        646,
        14800,
        [5, 5, 5, 10, 20, 20, 20, 25, 20, 20, 20, 5, 5, 5, 5, 5, 5, 5, 5, 0],
        14655788177079731404,
    ),
    (
        "hier_cluster",
        5,
        4556589088614882305,
        618,
        14800,
        [5, 5, 5, 10, 20, 20, 20, 25, 20, 20, 20, 5, 5, 5, 5, 5, 5, 5, 5, 0],
        16688944333567442528,
    ),
    (
        "meiko_cs2",
        8,
        4590455291738074072,
        1574,
        29872,
        [8, 8, 8, 16, 32, 32, 32, 40, 32, 32, 32, 8, 8, 8, 8, 8, 8, 8, 8, 0],
        70374282824259462,
    ),
    (
        "hier_cluster",
        8,
        4558696028222615352,
        1450,
        29872,
        [8, 8, 8, 16, 32, 32, 32, 40, 32, 32, 32, 8, 8, 8, 8, 8, 8, 8, 8, 0],
        8705612174912904229,
    ),
];

/// Rank- and index-dependent values with fractional parts, so any change
/// of fold order shows in the result bits.
fn values(rank: usize, n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((rank * 31 + i * 17 + salt * 7) % 97) as f64 * 0.37 + 1.0 / (i + rank + 3) as f64)
        .collect()
}

fn in_phase<R>(c: &mut Comm, name: &str, f: impl FnOnce(&mut Comm) -> R) -> R {
    c.enter_phase(name);
    let r = f(c);
    c.exit_phase();
    r
}

/// Every public collective once (allreduce once per algorithm and
/// length); returns everything this rank observed, in program order.
fn body(c: &mut Comm) -> Vec<f64> {
    let p = c.size();
    let me = c.rank();
    let mut out = Vec::new();
    in_phase(c, "barrier", |c| c.barrier());
    in_phase(c, "broadcast", |c| {
        let mut buf = values(me, 7, 1);
        c.broadcast_f64s(p - 1, &mut buf);
        out.extend_from_slice(&buf);
    });
    in_phase(c, "reduce", |c| {
        let mut buf = values(me, 7, 2);
        c.reduce_f64s(1 % p, &mut buf, ReduceOp::Sum);
        out.extend_from_slice(&buf);
    });
    in_phase(c, "allreduce.default", |c| {
        let mut buf = values(me, 13, 3);
        c.allreduce_f64s(&mut buf, ReduceOp::Sum);
        out.extend_from_slice(&buf);
        out.push(c.allreduce_scalar(me as f64 + 0.25, ReduceOp::Max));
    });
    for (name, algo) in ALGOS {
        in_phase(c, name, |c| {
            for n in LENS {
                let mut buf = values(me, n, n + 4);
                c.allreduce_f64s_with(&mut buf, ReduceOp::Sum, algo);
                out.extend_from_slice(&buf);
            }
        });
    }
    in_phase(c, "iallreduce", |c| {
        let mut buf = values(me, 7, 5);
        let mut req = c.iallreduce_f64s_with(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring);
        c.work(1_000);
        c.wait(&mut req);
        out.extend_from_slice(&buf);
    });
    in_phase(c, "gather", |c| {
        let g = c.gather_f64s(0, &values(me, me % 3, 6));
        out.extend(g.unwrap_or_else(|| vec![-1.0]));
    });
    in_phase(c, "allgather", |c| {
        for block in c.allgather_f64s(&values(me, (me + 1) % 3, 7)) {
            out.extend(block);
        }
    });
    in_phase(c, "scatter", |c| {
        let root = p / 2;
        let blocks: Vec<Vec<f64>> = (0..p).map(|d| values(d, d % 4, 8)).collect();
        out.extend(c.scatter_f64s(root, (me == root).then_some(&blocks[..])));
    });
    in_phase(c, "alltoall", |c| {
        let send: Vec<Vec<f64>> = (0..p).map(|d| values(me, (me + d) % 3, 9 + d)).collect();
        for block in c.alltoall_f64s(&send) {
            out.extend(block);
        }
    });
    in_phase(c, "scan", |c| {
        let mut buf = values(me, 7, 10);
        c.scan_f64s(&mut buf, ReduceOp::Sum);
        out.extend_from_slice(&buf);
    });
    in_phase(c, "broadcast_u64", |c| {
        let v = c.broadcast_u64(0, 0x0123_4567_89ab_cdef ^ me as u64);
        out.push(f64::from_bits(v));
    });
    in_phase(c, "group", |c| {
        let mut sub = c.split((me % 2) as u32);
        let sp = sub.size();
        let sr = sub.rank();
        sub.barrier();
        let mut buf = values(me, 7, 11);
        sub.broadcast_f64s(sp - 1, &mut buf);
        out.extend_from_slice(&buf);
        for n in LENS {
            let mut buf = values(me, n, 12 + n);
            // lint:allow(blocking-collective): one call per pinned length IS the case
            sub.allreduce_f64s(&mut buf, ReduceOp::Sum);
            out.extend_from_slice(&buf);
        }
        out.extend(sub.gather_f64s(0, &values(me, sr % 3, 13)).unwrap_or_else(|| vec![-1.0]));

        sub.world().enter_phase("nested");
        let mut inner = sub.split((sr / 2) as u32);
        let ip = inner.size();
        let ir = inner.rank();
        inner.barrier();
        let mut buf = values(me, 7, 14);
        inner.broadcast_f64s(ip - 1, &mut buf);
        out.extend_from_slice(&buf);
        for n in LENS {
            let mut buf = values(me, n, 15 + n);
            // lint:allow(blocking-collective): one call per pinned length IS the case
            inner.allreduce_f64s(&mut buf, ReduceOp::Sum);
            out.extend_from_slice(&buf);
        }
        out.extend(inner.gather_f64s(0, &values(me, ir % 3, 16)).unwrap_or_else(|| vec![-1.0]));
        sub.world().exit_phase();
    });
    out
}

fn machines(p: usize) -> [(&'static str, MachineSpec); 2] {
    [("meiko_cs2", presets::meiko_cs2(p)), ("hier_cluster", presets::hier_cluster(p, 3))]
}

fn measure(name: &'static str, spec: &MachineSpec) -> Golden {
    let out = run_spmd(spec, &SimOptions::verified(), body).expect("collectives run");
    let mut counts = [0u64; 20];
    for rank in &out.ranks {
        for (slot, phase) in counts.iter_mut().zip(PHASES) {
            *slot += rank.phase(phase).map_or(0, |ph| ph.collectives);
        }
    }
    let hashes: Vec<f64> = out.per_rank.iter().map(|r| f64::from_bits(hash_f64s(r))).collect();
    (
        name,
        spec.p,
        out.elapsed.to_bits(),
        out.stats.total_msgs,
        out.stats.total_bytes,
        counts,
        hash_f64s(&hashes),
    )
}

#[test]
fn collective_traffic_matches_golden() {
    let mut got = Vec::new();
    for p in [2, 3, 5, 8] {
        for (name, spec) in machines(p) {
            got.push(measure(name, &spec));
        }
    }
    let table: String = got.iter().map(|g| format!("    {g:?},\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want, "{} P={}: collective traffic moved; now:\n{table}", g.0, g.1);
    }
}
