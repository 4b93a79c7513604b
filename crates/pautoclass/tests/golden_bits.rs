//! Golden bits: a small fixed search whose best log-likelihood and class
//! parameter hash were recorded from the scalar (pre-vectorization) E/M
//! kernels. The kernels may change how they schedule work — wider vector
//! lanes, paired accumulation chains, a per-CPU dispatch — but never an
//! element's floating-point operation sequence, so these constants must
//! hold on every host, in debug and release builds alike.

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{hash_f64s, presets};
use pautoclass::{run_search, Exchange, ParallelConfig, ParallelOutcome, Strategy};

/// Recorded `(best.approx.log_likelihood.to_bits(),
/// hash_f64s(classes_to_flat(best.classes)), cycles)` of [`golden_run`].
const GOLDEN: (u64, u64, usize) = (0xc0c4_c898_1c1a_a0ad, 0x39ca_3ab7_e6c5_1b36, 75);
/// The same triple for [`mixed_run`].
const MIXED: (u64, u64, usize) = (0xc0c8_923f_5cd5_dcba, 0xea26_609c_2382_932c, 70);

fn golden_config(exchange: Exchange, correlated_blocks: Vec<Vec<usize>>) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![2, 4, 8],
            tries_per_j: 1,
            // A fixed cycle budget: `rel_delta_ll = 0` only stops a try at
            // an exact fixed point, so every cycle's arithmetic is covered.
            max_cycles: 25,
            rel_delta_ll: 0.0,
            min_class_weight: 1.0,
            seed: 12,
            max_stored: 10,
        },
        strategy: Strategy::Full { exchange },
        partition: pautoclass::Partitioning::Block,
        correlated_blocks,
    }
}

fn golden_run(exchange: Exchange) -> ParallelOutcome {
    let data = datagen::paper_dataset(2000, 5);
    run_search(&data, &presets::meiko_cs2(2), &golden_config(exchange, Vec::new()))
        .expect("golden search runs")
}

/// Three reals (the first two one correlated block) and two discrete
/// attributes, 5 % of all values missing: pins the MultiNormal,
/// Multinomial and NaN-skipping Normal kernels the paper dataset lacks.
fn mixed_run(exchange: Exchange) -> ParallelOutcome {
    let class = |means: Vec<f64>, p0: f64, weight: f64| datagen::MixedClass {
        means,
        sigma: 1.0,
        level_probs: vec![vec![p0, 0.2, 0.8 - p0], vec![1.0 - p0, p0]],
        weight,
    };
    let mm = datagen::MixedMixture {
        classes: vec![
            class(vec![-5.0, -2.0, 0.0], 0.7, 1.0),
            class(vec![5.0, 2.0, 3.0], 0.1, 1.5),
            class(vec![0.0, 6.0, -3.0], 0.4, 0.8),
        ],
        error: 0.05,
    };
    let data = datagen::inject_missing(&mm.generate(2000, 7).0, 0.05, 8);
    run_search(&data, &presets::meiko_cs2(2), &golden_config(exchange, vec![vec![0, 1]]))
        .expect("mixed golden search runs")
}

fn assert_golden(out: &ParallelOutcome, want: (u64, u64, usize), label: &str) {
    let ll_bits = out.best.approx.log_likelihood.to_bits();
    let hash = hash_f64s(&classes_to_flat(&out.best.classes));
    assert_eq!(ll_bits, want.0, "{label}: best log-likelihood bits moved");
    assert_eq!(hash, want.1, "{label}: best class parameter hash moved");
    assert_eq!(out.cycles, want.2, "{label}: cycle count moved");
}

/// The two-pass cycle: `update_wts_into`, then `SuffStats::accumulate`.
#[test]
fn fused_exchange_matches_golden_bits() {
    assert_golden(&golden_run(Exchange::Fused), GOLDEN, "Fused");
    assert_golden(&mixed_run(Exchange::Fused), MIXED, "mixed Fused");
}

/// The single-pass cycle: `update_wts_and_stats_into` (bitwise equal to
/// the two-pass form by contract, so it shares the constants).
#[test]
fn pipelined_exchange_matches_golden_bits() {
    assert_golden(&golden_run(Exchange::Pipelined), GOLDEN, "Pipelined");
    assert_golden(&mixed_run(Exchange::Pipelined), MIXED, "mixed Pipelined");
}
