//! Single-layer measurements for the traced run: the E/M kernels, the
//! native backend's launch and allreduce, the simulator's launch and
//! allreduce at P = 256, and the checkpoint codec. Each call into a layer
//! is wrapped in a span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use autoclass::data::{block_partition, Dataset};
use autoclass::model::{
    classes_to_flat, estep_ops, init_classes, update_wts_into, EStepScratch, Model, StatLayout,
    SuffStats, WtsMatrix,
};
use mpsim::{presets, run_spmd, MachineSpec, ReduceOp, SimOptions};
use pautoclass::{
    decode_shard, from_shards, run_search_native, to_shards, CkptClassification, NativeOptions,
    ParallelConfig, ParallelOutcome, SearchCheckpoint,
};
use shmcomm::run_native;

use crate::sys::{median, time_reps};
use crate::trace::Tracer;

/// Time spent per kernel and J, and repetitions of the short calls.
const KERNEL_TIME: Duration = Duration::from_millis(150);
const CODEC_TIME: Duration = Duration::from_millis(100);
const LAUNCH_REPS: usize = 15;
const NATIVE_ALLREDUCE_CALLS: usize = 4_000;
const SIM_ALLREDUCE_CALLS: usize = 20;
const SIM_ALLREDUCE_P: usize = 256;
const SPEEDUP_PAIRS: usize = 3;

pub struct Kernels {
    pub estep_items_per_s: f64,
    pub mstep_items_per_s: f64,
    pub estep_ops_per_byte: f64,
}

/// `update_wts_into` and `SuffStats::accumulate` on rank 0's partition at
/// each J. An "item" is one (item, class) weight, as in the repository's
/// earlier kernel rows. Operations per byte are computed from `estep_ops`
/// and the array sizes (data columns read, weight matrix written), not
/// measured.
pub fn kernels(
    data: &Dataset,
    model: &Model,
    ranks: usize,
    j_list: &[usize],
    seed: u64,
    t: &mut Tracer,
) -> Kernels {
    let part = block_partition(data.len(), ranks)[0].clone();
    let view = data.view(part.start, part.end);
    let k = model.n_attrs();
    let (mut e_items, mut e_s, mut m_items, mut m_s, mut ops, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut wts = WtsMatrix::new(0, 0);
    let mut scratch = EStepScratch::default();
    for &j in j_list {
        let classes = init_classes(model, &view, j, seed);
        let per_call = (view.len() * j) as f64;
        let (reps, secs) = t.span("autoclass", "autoclass.update_wts_into", |_| {
            time_reps(KERNEL_TIME, 3, || {
                black_box(update_wts_into(model, &view, &classes, &mut wts, &mut scratch));
            })
        });
        e_items += per_call * reps as f64;
        e_s += secs;
        let mut stats = SuffStats::zeros(StatLayout::new(model, j));
        let (reps, secs) = t.span("autoclass", "autoclass.SuffStats::accumulate", |_| {
            time_reps(KERNEL_TIME, 3, || {
                black_box(stats.accumulate(model, &view, &wts));
            })
        });
        m_items += per_call * reps as f64;
        m_s += secs;
        ops += estep_ops(view.len(), j, k) as f64;
        bytes += ((view.len() * k + view.len() * j) * std::mem::size_of::<f64>()) as f64;
    }
    Kernels {
        estep_items_per_s: e_items / e_s,
        mstep_items_per_s: m_items / m_s,
        estep_ops_per_byte: ops / bytes,
    }
}

pub struct Native {
    pub allreduce_us: f64,
    pub launch_ms: f64,
    pub speedup_p2: f64,
}

/// The native backend at P = 2: one allreduce of `fused_len` doubles, an
/// empty launch, and the search's P = 1 over P = 2 wall-time ratio.
pub fn native(
    data: &Dataset,
    config: &ParallelConfig,
    fused_len: usize,
    t: &mut Tracer,
) -> Result<Native, String> {
    let machine = presets::meiko_cs2(2);
    let opts = NativeOptions::default();
    let per_rank = t
        .span("shmcomm", "shmcomm.run_native(allreduce)", |_| {
            run_native(&machine, &opts, |comm| {
                let mut buf = vec![0.0; fused_len];
                comm.barrier();
                let t0 = Instant::now();
                for _ in 0..NATIVE_ALLREDUCE_CALLS {
                    comm.allreduce_f64s(&mut buf, ReduceOp::Sum);
                }
                t0.elapsed().as_secs_f64()
            })
        })
        .map_err(|e| format!("native allreduce harness failed: {e}"))?
        .per_rank;
    let allreduce_us =
        per_rank.iter().copied().fold(0.0, f64::max) / NATIVE_ALLREDUCE_CALLS as f64 * 1e6;

    let mut launches = Vec::with_capacity(LAUNCH_REPS);
    for _ in 0..LAUNCH_REPS {
        let t0 = Instant::now();
        t.span("shmcomm", "shmcomm.run_native(empty)", |_| run_native(&machine, &opts, |_| ()))
            .map_err(|e| format!("native launch harness failed: {e}"))?;
        launches.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut p1 = Vec::new();
    let mut p2 = Vec::new();
    for i in 0..2 * SPEEDUP_PAIRS {
        // Alternate which rank count goes first.
        let p = if (i % 2 == 0) == (i / 2 % 2 == 0) { 1 } else { 2 };
        let m = presets::meiko_cs2(p);
        let t0 = Instant::now();
        t.span("driver", "pautoclass.run_search_native(speedup)", |_| {
            run_search_native(data, &m, config, &opts)
        })
        .map_err(|e| format!("native speedup search failed: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        if p == 1 {
            p1.push(secs)
        } else {
            p2.push(secs)
        }
    }
    Ok(Native { allreduce_us, launch_ms: median(&launches), speedup_p2: median(&p1) / median(&p2) })
}

pub struct Sim {
    pub launch_ms: f64,
    pub allreduce_host_us_perterm: f64,
    pub allreduce_host_us_fused: f64,
    pub allreduce_virtual_us_perterm: f64,
    pub allreduce_virtual_us_fused: f64,
    pub mailbox_high_water: f64,
}

/// The cooperative engine: an empty launch on the workload's machine, and
/// single allreduces at P = 256 of one PerTerm block and of the Fused
/// buffer. Host time per call subtracts an empty launch at the same P.
pub fn sim(
    machine: &MachineSpec,
    perterm_len: usize,
    fused_len: usize,
    t: &mut Tracer,
) -> Result<Sim, String> {
    let opts = SimOptions::cooperative();
    let launch = |t: &mut Tracer, m: &MachineSpec| -> Result<f64, String> {
        let mut ms = Vec::with_capacity(LAUNCH_REPS);
        for _ in 0..LAUNCH_REPS {
            let t0 = Instant::now();
            t.span("mpsim", "mpsim.run_spmd(empty)", |_| run_spmd(m, &opts, |_| ()))
                .map_err(|e| format!("simulator launch harness failed: {e}"))?;
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&ms))
    };
    let launch_ms = launch(t, machine)?;
    let big = presets::hier_cluster(SIM_ALLREDUCE_P, 16);
    let big_launch_ms = launch(t, &big)?;
    let allreduce = |t: &mut Tracer, len: usize| -> Result<(f64, f64, usize), String> {
        let mut host = Vec::new();
        let mut virt = 0.0;
        let mut high_water = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            let out = t
                .span("mpsim", "mpsim.run_spmd(allreduce)", |_| {
                    run_spmd(&big, &opts, |comm| {
                        let mut buf = vec![0.0; len];
                        for _ in 0..SIM_ALLREDUCE_CALLS {
                            comm.allreduce_f64s(&mut buf, ReduceOp::Sum);
                        }
                    })
                })
                .map_err(|e| format!("simulator allreduce harness failed: {e}"))?;
            host.push(t0.elapsed().as_secs_f64() * 1e3 - big_launch_ms);
            virt = out.elapsed;
            high_water = out.mailbox_high_water;
        }
        let calls = SIM_ALLREDUCE_CALLS as f64;
        Ok((median(&host) * 1e3 / calls, virt * 1e6 / calls, high_water))
    };
    let (host_pt, virt_pt, _) = allreduce(t, perterm_len)?;
    let (host_f, virt_f, high_water) = allreduce(t, fused_len)?;
    Ok(Sim {
        launch_ms,
        allreduce_host_us_perterm: host_pt,
        allreduce_host_us_fused: host_f,
        allreduce_virtual_us_perterm: virt_pt,
        allreduce_virtual_us_fused: virt_f,
        mailbox_high_water: high_water as f64,
    })
}

pub struct Codec {
    pub bytes: f64,
    pub encode_us: f64,
    pub decode_us: f64,
}

/// The checkpoint codec on a snapshot of a finished search, sharded over
/// `ranks`: encode is `to_bytes` + `to_shards`, decode is `decode_shard`
/// per shard + `from_shards` + `from_bytes`. The round trip must
/// reproduce the snapshot exactly.
pub fn checkpoint(o: &ParallelOutcome, ranks: usize, t: &mut Tracer) -> Result<Codec, String> {
    let a = o.best.approx;
    let ck = SearchCheckpoint {
        ji: 0,
        try_idx: 0,
        cycle: o.best.cycles,
        j_current: o.best.n_classes(),
        seed: o.best.seed,
        prev_ll: a.log_likelihood,
        approx: [a.log_likelihood, a.complete_ll, a.complete_marginal, a.cs_score],
        total_cycles: o.cycles,
        classes_flat: classes_to_flat(&o.best.classes),
        best: o.all.iter().map(CkptClassification::from_classification).collect(),
    };
    let encode = |ck: &SearchCheckpoint| to_shards(&ck.to_bytes(), ranks);
    let decode = |shards: &[Vec<u8>]| -> Result<SearchCheckpoint, String> {
        for s in shards {
            decode_shard(s).map_err(|e| e.to_string())?;
        }
        let bytes = from_shards(shards).map_err(|e| e.to_string())?;
        SearchCheckpoint::from_bytes(&bytes).map_err(|e| e.to_string())
    };
    let shards = encode(&ck);
    if decode(&shards)? != ck {
        return Err("checkpoint round trip changed the snapshot".to_string());
    }
    let (reps, enc_s) = t.span("checkpoint", "checkpoint.encode", |_| {
        time_reps(CODEC_TIME, 3, || {
            black_box(encode(black_box(&ck)));
        })
    });
    let encode_us = enc_s / reps as f64 * 1e6;
    let (reps, dec_s) = t.span("checkpoint", "checkpoint.decode", |_| {
        time_reps(CODEC_TIME, 3, || {
            black_box(decode(black_box(&shards)).ok());
        })
    });
    Ok(Codec { bytes: ck.to_bytes().len() as f64, encode_us, decode_us: dec_s / reps as f64 * 1e6 })
}
