//! `update_wts`: the E-step. Computes normalized class-membership weights
//! for every item and the per-class weight sums — the function the paper's
//! profiling found (together with `update_parameters`) to consume ~99.5 %
//! of AutoClass's runtime inside `base_cycle`.

use crate::data::dataset::DataView;
use crate::model::class::{ClassParams, Model};
use crate::model::suffstats::SuffStats;

/// Column-major item×class weight matrix: `class_column(j)[i]` is w_ij.
/// Column-major because every kernel (log-density accumulation, statistics
/// accumulation) walks all items of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct WtsMatrix {
    n: usize,
    j: usize,
    data: Vec<f64>,
}

impl WtsMatrix {
    /// A zeroed `n × j` matrix.
    pub fn new(n: usize, j: usize) -> Self {
        WtsMatrix { n, j, data: vec![0.0; n * j] }
    }

    /// Number of items (rows).
    pub fn n_items(&self) -> usize {
        self.n
    }

    /// Number of classes (columns).
    pub fn n_classes(&self) -> usize {
        self.j
    }

    /// Class `c`'s weights over all items.
    pub fn class_column(&self, c: usize) -> &[f64] {
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Mutable access to class `c`'s weights.
    pub fn class_column_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.n..(c + 1) * self.n]
    }

    /// Item `i`'s weights across classes (strided; test/report use only —
    /// hot paths work column-wise).
    pub fn item_weights(&self, i: usize) -> Vec<f64> {
        (0..self.j).map(|c| self.data[c * self.n + i]).collect()
    }

    /// Resize for a different item/class count, keeping the existing
    /// capacity. Contents are **unspecified** afterwards: every E-step
    /// kernel overwrites each column with `log_pi` before accumulating, so
    /// the old `clear()` + zero-fill `resize` was pure wasted bandwidth
    /// (one full write of the `n × j` matrix per cycle). Callers that need
    /// zeroed storage must fill it themselves.
    pub fn reset(&mut self, n: usize, j: usize) {
        self.n = n;
        self.j = j;
        let len = n * j;
        if self.data.len() < len {
            // Grow (amortized: only until the matrix reaches its high-water
            // mark). The new tail is zeroed by `resize`; existing elements
            // keep stale values, which is fine under the overwrite contract.
            self.data.resize(len, 0.0);
        } else {
            // Shrink without touching memory: capacity is retained.
            self.data.truncate(len);
        }
    }
}

impl Default for WtsMatrix {
    /// An empty `0 × 0` matrix, ready to be `reset` to any shape.
    fn default() -> Self {
        WtsMatrix::new(0, 0)
    }
}

/// Outputs of one E-step over one partition. In P-AutoClass the vector
/// `class_weight_sums` and the two scalars are combined across processors
/// with Allreduce(+); everything is a plain sum over items.
#[derive(Debug, Clone, PartialEq)]
pub struct EStepOut {
    /// w_j = Σ_i w_ij for each class (this partition's part).
    pub class_weight_sums: Vec<f64>,
    /// Incomplete-data log likelihood Σ_i ln Σ_j π_j p(x_i|j).
    pub log_likelihood: f64,
    /// Complete-data log likelihood at the current weights:
    /// Σ_i Σ_j w_ij (ln π_j + ln p(x_i|j)); used by the Cheeseman–Stutz
    /// marginal-likelihood approximation.
    pub complete_ll: f64,
    /// Abstract op count for the virtual-time model.
    pub ops: u64,
}

/// Tile height (in items) of the blocked E-step kernel. A tile touches
/// `j` column segments of `ESTEP_TILE` doubles each: at `j = 32` that is
/// 64 KiB of weights — resident in L2 on every target, and small enough
/// that the phase-2 normalization re-reads the tile from cache instead of
/// striding across a matrix that long since left it.
pub const ESTEP_TILE: usize = 256;

/// Reusable buffers for [`update_wts_into`]. One instance lives for a whole
/// search (inside a `CycleWorkspace`); after the first cycle at a given
/// model shape no call allocates.
#[derive(Debug, Clone, Default)]
pub struct EStepScratch {
    /// w_j = Σ_i w_ij per class (this partition's part); the output vector
    /// that P-AutoClass allreduces. Resized to `j` and refilled each call.
    pub class_weight_sums: Vec<f64>,
    /// Per-item row maxima over one tile (`max_c r_ic`).
    rowmax: Vec<f64>,
    /// Per-item exponential sums over one tile (`Σ_c e_ic`), later
    /// overwritten in place with their reciprocals.
    sums: Vec<f64>,
    /// Per-item `Σ_c e_ic · r_ic` over one tile (for the complete-data
    /// log likelihood).
    accwr: Vec<f64>,
    /// Attribute-major gather of one tile's MVN block columns.
    mvn_gather: Vec<f64>,
    /// `x − μ` workspace for the Mahalanobis kernel.
    mvn_diff: Vec<f64>,
    /// Forward-substitution workspace for the Mahalanobis kernel.
    mvn_scratch: Vec<f64>,
}

/// Scalar outputs of one E-step (the vector output, `class_weight_sums`,
/// stays in the caller's [`EStepScratch`] so it can be allreduced in place).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EStepScalars {
    /// Incomplete-data log likelihood Σ_i ln Σ_j π_j p(x_i|j).
    pub log_likelihood: f64,
    /// Complete-data log likelihood at the current weights.
    pub complete_ll: f64,
    /// Abstract op count for the virtual-time model.
    pub ops: u64,
}

/// Compute class-membership weights for every item in `view` given the
/// current classes, storing them in `wts` (resized as needed).
///
/// Convenience wrapper around [`update_wts_into`] that allocates a fresh
/// [`EStepScratch`] per call. Hot paths (the `BIG_LOOP` in `search.rs`, the
/// parallel driver) thread a long-lived workspace through
/// [`update_wts_into`] instead, which performs no heap allocation in steady
/// state.
pub fn update_wts(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
) -> EStepOut {
    let mut scratch = EStepScratch::default();
    let s = update_wts_into(model, view, classes, wts, &mut scratch);
    EStepOut {
        class_weight_sums: scratch.class_weight_sums,
        log_likelihood: s.log_likelihood,
        complete_ll: s.complete_ll,
        ops: s.ops,
    }
}

/// Consumer of finalized weight tiles inside the blocked E-step kernel.
///
/// `tile(lo, hi, wts)` is called once per tile, after pass D, when the
/// `[lo, hi)` rows of every class column hold their **final normalized**
/// weights and are still cache-hot. This is what lets the fused E+M entry
/// point accumulate sufficient statistics in the same pass without a
/// second walk over the weight matrix.
trait TileSink {
    fn tile(&mut self, lo: usize, hi: usize, wts: &WtsMatrix);
}

/// Sink for the plain E-step: no per-tile consumer.
struct NoSink;

impl TileSink for NoSink {
    #[inline]
    fn tile(&mut self, _lo: usize, _hi: usize, _wts: &WtsMatrix) {}
}

/// Sink for the fused E+M kernel: feeds each finalized tile to
/// [`SuffStats::accumulate_tile`], carrying the scalar accumulation
/// chains so the result is bitwise identical to a whole-partition
/// [`SuffStats::accumulate`] after the E-step.
struct StatsSink<'a, 'v> {
    model: &'a Model,
    view: &'a DataView<'v>,
    stats: &'a mut SuffStats,
    carry: &'a mut [f64],
    ops: u64,
}

impl TileSink for StatsSink<'_, '_> {
    fn tile(&mut self, lo: usize, hi: usize, wts: &WtsMatrix) {
        self.ops += self.stats.accumulate_tile(self.model, self.view, wts, lo, hi, self.carry);
    }
}

/// The blocked, fused E-step kernel: phase 1 (joint log densities) and
/// phase 2 (log-sum-exp normalization) run per [`ESTEP_TILE`]-item tile,
/// so the normalization reads each tile while it is still cache-hot
/// instead of walking `wts.data[c * n + i]` strides across the full
/// matrix. Allocation-free once `scratch` has warmed up.
///
/// Numerically equivalent to [`update_wts_naive`], not bitwise: phase 1
/// applies the same per-element operation sequence (`log_pi`, then each
/// term in group order) regardless of tiling, but phase 2 runs
/// column-major over the tile — one [`fast_exp`] per element followed by
/// a normalization multiply (`w_c = e_c · (1/Σe)`) where the reference
/// calls libm `exp` twice, and the scalar reductions associate per tile
/// pass rather than strictly item-by-item. The two agree to
/// final-rounding ulps; every cross-rank replication guarantee is
/// unaffected because all ranks run this same deterministic kernel.
pub fn update_wts_into(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
) -> EStepScalars {
    update_wts_tiled(model, view, classes, wts, scratch, &mut NoSink)
}

/// Single-pass fused E+M kernel: identical to [`update_wts_into`] (same
/// tile schedule, same arithmetic — the weights and scalars come out
/// bitwise equal), but each finalized tile is immediately folded into
/// `stats` while its weights are still in cache, instead of re-reading
/// the whole `n × j` matrix in a separate [`SuffStats::accumulate`] pass.
/// The carried-chain tiling keeps the statistics bitwise identical to the
/// two-pass form as well.
///
/// `stats` must be zeroed (or hold a prior partition's partials, as in the
/// untiled call); `carry` is resized/zeroed here and is all flushed into
/// `stats` before returning. Returns the E-step scalars and the statistics
/// op count (charged separately, under the M-step phase, so phase
/// accounting matches the two-pass driver).
pub fn update_wts_and_stats_into(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
    stats: &mut SuffStats,
    carry: &mut Vec<f64>,
) -> (EStepScalars, u64) {
    carry.clear();
    carry.resize(stats.carry_len(model), 0.0);
    let mut sink = StatsSink { model, view, stats, carry, ops: 0 };
    let scalars = update_wts_tiled(model, view, classes, wts, scratch, &mut sink);
    let stat_ops = sink.ops;
    stats.finish_tiles(model, carry);
    (scalars, stat_ops)
}

/// The tile loop shared by [`update_wts_into`] and
/// [`update_wts_and_stats_into`]; `sink` observes each tile after its
/// weights are final.
///
/// Runs [`update_wts_body`] compiled for AVX2 when the CPU has it (checked
/// once per call), and the baseline-ISA copy otherwise. The two copies are
/// the same source with the same per-element operation sequence, and AVX2
/// brings no fused multiply-add (the compiler never contracts `a * b + c`
/// on its own), so the choice moves no result bit — only how many items
/// share one instruction.
fn update_wts_tiled<S: TileSink>(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
    sink: &mut S,
) -> EStepScalars {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `update_wts_avx2` only requires AVX2, which the CPU was
        // just checked to support.
        return unsafe { update_wts_avx2(model, view, classes, wts, scratch, sink) };
    }
    update_wts_baseline(model, view, classes, wts, scratch, sink)
}

/// [`update_wts_body`] compiled for AVX2 (4 × f64 lanes). Only the
/// dispatch in [`update_wts_tiled`] calls it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn update_wts_avx2<S: TileSink>(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
    sink: &mut S,
) -> EStepScalars {
    update_wts_body(model, view, classes, wts, scratch, sink)
}

/// [`update_wts_body`] compiled for the build's baseline ISA: the path on
/// CPUs without AVX2 and on other architectures, and the reference the
/// dispatch-equivalence test holds the AVX2 copy to.
fn update_wts_baseline<S: TileSink>(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
    sink: &mut S,
) -> EStepScalars {
    update_wts_body(model, view, classes, wts, scratch, sink)
}

/// The E-step itself. `#[inline(always)]`, like [`fast_exp`] and the term
/// kernels it calls, so each wrapper above gets a whole copy compiled for
/// its own instruction set.
#[inline(always)]
fn update_wts_body<S: TileSink>(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
    scratch: &mut EStepScratch,
    sink: &mut S,
) -> EStepScalars {
    let n = view.len();
    let j = classes.len();
    assert!(j >= 1, "need at least one class");
    wts.reset(n, j);

    scratch.class_weight_sums.clear();
    scratch.class_weight_sums.resize(j, 0.0);
    scratch.rowmax.resize(ESTEP_TILE, 0.0);
    scratch.sums.resize(ESTEP_TILE, 0.0);
    scratch.accwr.resize(ESTEP_TILE, 0.0);

    let mut log_likelihood = 0.0;
    let mut complete_ll = 0.0;

    let mut lo = 0;
    while lo < n {
        let hi = (lo + ESTEP_TILE).min(n);
        let tl = hi - lo;

        // Phase 1 (tile): joint log densities, column segment by column
        // segment. Each per-attribute kernel runs on the `[lo, hi)` slice
        // of its column — the same element-wise additions the full-column
        // naive kernel performs, just grouped by tile.
        for (c, class) in classes.iter().enumerate() {
            let col = &mut wts.data[c * n + lo..c * n + hi];
            col.fill(class.log_pi);
            for (term, group) in class.terms.iter().zip(&model.groups) {
                match &group.prior {
                    crate::model::prior::TermPrior::Normal { .. }
                    | crate::model::prior::TermPrior::LogNormal { .. } => {
                        term.accumulate_log_prob_real(
                            &view.real_column(group.attrs[0])[lo..hi],
                            col,
                        );
                    }
                    crate::model::prior::TermPrior::Multinomial { missing_level, .. } => {
                        let ls = &view.discrete_column(group.attrs[0])[lo..hi];
                        if *missing_level {
                            term.accumulate_log_prob_discrete_with_missing(ls, col);
                        } else {
                            term.accumulate_log_prob_discrete(ls, col);
                        }
                    }
                    crate::model::prior::TermPrior::MultiNormal { .. } => {
                        // Gather the tile's block columns attribute-major
                        // into the reusable flat buffer (replaces the
                        // per-call `Vec<&[f64]>` of column pointers).
                        let d = group.attrs.len();
                        scratch.mvn_gather.clear();
                        scratch.mvn_gather.resize(d * tl, 0.0);
                        for (a, &attr) in group.attrs.iter().enumerate() {
                            scratch.mvn_gather[a * tl..(a + 1) * tl]
                                .copy_from_slice(&view.real_column(attr)[lo..hi]);
                        }
                        term.accumulate_log_prob_mvn_flat(
                            &scratch.mvn_gather,
                            col,
                            &mut scratch.mvn_diff,
                            &mut scratch.mvn_scratch,
                        );
                    }
                }
            }
        }

        // Phase 2 (tile): log-sum-exp normalization, column-major. Every
        // pass is a long stride-1 loop over the tile with independent
        // per-item lanes (`rm[t]`, `sums[t]`, `accwr[t]`), so the compiler
        // can vectorize the exponential and there is no serial
        // accumulation chain — the structure that makes the blocked kernel
        // faster than the row-at-a-time reference, not just cache-friendlier.
        let rm = &mut scratch.rowmax[..tl];
        let sums = &mut scratch.sums[..tl];
        let accwr = &mut scratch.accwr[..tl];

        // Pass A: per-item row maxima. All-(-inf) rows cannot occur:
        // log_pi is finite and term kernels add finite values
        // (multinomial smoothing keeps log_p finite).
        rm.fill(f64::NEG_INFINITY);
        for c in 0..j {
            let col = &wts.data[c * n + lo..c * n + hi];
            for (m, &v) in rm.iter_mut().zip(col) {
                // A select, not an `if`: the branch form mispredicts on
                // randomly ordered data (which class holds the running max
                // is item-dependent) and costs several ms per E-step.
                *m = if v > *m { v } else { *m };
            }
        }

        // Pass B: exponentials in place (the tile's log densities become
        // unnormalized weights), plus the per-item sum and the
        // complete-likelihood numerator Σ_c e·r. The `e > 0` select
        // protects the `0 · (−∞)` corner exactly like the reference's
        // `w > 0.0` guard.
        sums.fill(0.0);
        accwr.fill(0.0);
        for c in 0..j {
            let col = &mut wts.data[c * n + lo..c * n + hi];
            for t in 0..tl {
                let r = col[t];
                let e = fast_exp(r - rm[t]);
                col[t] = e;
                sums[t] += e;
                accwr[t] += if e > 0.0 { e * r } else { 0.0 };
            }
        }

        // Pass C: the two scalar reductions, i-ascending as before, then
        // reciprocals for the normalization pass.
        for (m, s) in rm.iter().zip(sums.iter()) {
            log_likelihood += m + s.ln();
        }
        for (a, s) in accwr.iter().zip(sums.iter()) {
            complete_ll += a / s;
        }
        for s in sums.iter_mut() {
            *s = 1.0 / *s;
        }

        // Pass D: normalize in place and fold each column segment into its
        // class weight sum.
        for (c, cw) in scratch.class_weight_sums.iter_mut().enumerate() {
            let col = &mut wts.data[c * n + lo..c * n + hi];
            let mut acc = 0.0;
            for (wv, &inv) in col.iter_mut().zip(sums.iter()) {
                let w = *wv * inv;
                *wv = w;
                acc += w;
            }
            *cw += acc;
        }

        // The tile's weights are final; hand them to the sink while the
        // column segments are still cache-resident.
        sink.tile(lo, hi, wts);

        lo = hi;
    }

    let k = model.n_attrs() as u64;
    let ops = (n as u64) * (j as u64) * (k + 2);
    EStepScalars { log_likelihood, complete_ll, ops }
}

/// The pre-blocking reference E-step, retained verbatim for the benchmark
/// harness (`cargo xtask bench` measures it against the blocked kernel in
/// the same process) and for the bitwise-equivalence test. Full-column
/// phase 1, then a strided full-matrix phase 2.
pub fn update_wts_naive(
    model: &Model,
    view: &DataView<'_>,
    classes: &[ClassParams],
    wts: &mut WtsMatrix,
) -> EStepOut {
    let n = view.len();
    let j = classes.len();
    assert!(j >= 1, "need at least one class");
    wts.reset(n, j);

    // Phase 1: joint log densities, column by column (cache-friendly).
    for (c, class) in classes.iter().enumerate() {
        let col = wts.class_column_mut(c);
        col.iter_mut().for_each(|v| *v = class.log_pi);
        for (term, group) in class.terms.iter().zip(&model.groups) {
            match &group.prior {
                crate::model::prior::TermPrior::Normal { .. }
                | crate::model::prior::TermPrior::LogNormal { .. } => {
                    term.accumulate_log_prob_real(view.real_column(group.attrs[0]), col);
                }
                crate::model::prior::TermPrior::Multinomial { missing_level, .. } => {
                    let ls = view.discrete_column(group.attrs[0]);
                    if *missing_level {
                        term.accumulate_log_prob_discrete_with_missing(ls, col);
                    } else {
                        term.accumulate_log_prob_discrete(ls, col);
                    }
                }
                crate::model::prior::TermPrior::MultiNormal { .. } => {
                    let cols: Vec<&[f64]> =
                        group.attrs.iter().map(|&a| view.real_column(a)).collect();
                    term.accumulate_log_prob_mvn(&cols, col);
                }
            }
        }
    }

    // Phase 2: per-item normalization (log-sum-exp across the row) and the
    // three reductions — strided `wts.data[c * n + i]` walks over the whole
    // matrix, which is what the blocked kernel eliminates.
    let mut class_weight_sums = vec![0.0; j];
    let mut log_likelihood = 0.0;
    let mut complete_ll = 0.0;
    let mut row = vec![0.0; j];
    for i in 0..n {
        let mut max = f64::NEG_INFINITY;
        for (c, r) in row.iter_mut().enumerate() {
            let v = wts.data[c * n + i];
            *r = v;
            if v > max {
                max = v;
            }
        }
        let mut sum = 0.0;
        for r in &row {
            sum += (r - max).exp();
        }
        let lse = max + sum.ln();
        log_likelihood += lse;
        for (c, &r) in row.iter().enumerate() {
            let w = (r - lse).exp();
            wts.data[c * n + i] = w;
            class_weight_sums[c] += w;
            if w > 0.0 {
                complete_ll += w * r;
            }
        }
    }

    let k = model.n_attrs() as u64;
    let ops = (n as u64) * (j as u64) * (k + 2);
    EStepOut { class_weight_sums, log_likelihood, complete_ll, ops }
}

/// Abstract op count of one E-step with the given dimensions (for cost
/// accounting without running it).
pub fn estep_ops(n: usize, j: usize, k: usize) -> u64 {
    (n as u64) * (j as u64) * (k as u64 + 2)
}

/// Branch-free `exp` for the log-sum-exp pass (where inputs are
/// `r − max ≤ 0`). This is the blocked kernel's single biggest win over
/// the reference: libm `exp` is a call with data-dependent branches, so
/// the compiler can neither inline nor vectorize the normalization loop
/// around it.
///
/// Construction: round-to-nearest integer `n = ⌊x·log₂e⌉` via the
/// 1.5·2^52 shifter (no `round()` libcall), Cody–Waite two-part ln 2
/// argument reduction to `|r| ≤ ½ln2`, a degree-12 Horner polynomial
/// (Taylor coefficients; truncation `r¹³/13!` is below one ulp on that
/// interval), and a bit-assembled power-of-two scale. The integer `n`
/// is read straight out of the shifter's mantissa bits (the shifted sum
/// stores `2^51 + n` in its low 52 bits) rather than via an `f64 → i64`
/// conversion, which has no packed form on baseline x86-64 and would
/// otherwise stop the surrounding loop from vectorizing. Relative error
/// vs libm `exp` is a few ulps (≲ 1e-15) across the supported domain.
///
/// Inputs below −708 return exactly `0.0`: true `exp` underflows to
/// subnormals there, which contribute nothing to a weight sum of order 1,
/// and returning a true zero preserves the `w > 0.0` guard that protects
/// the `0 · (−∞)` complete-likelihood corner.
///
/// Edge cases, handled by branch-free selects after the pipeline so the
/// hot path stays vectorizable:
/// * **NaN propagates.** A `max`/`min` clamp ignores a NaN operand and
///   would silently turn a NaN log-density into `exp(−708)` — a tiny
///   finite weight — corrupting the weight normalization downstream
///   without a trace; `clamp` forwards NaN but the integer exponent
///   assembly then produces garbage bits rather than NaN. A final
///   `is_nan` select returns the input itself, payload intact.
/// * **Inputs above +709 saturate to `+∞`.** The `ni << 52` exponent
///   assembly only covers normal range (`n ≤ 1023`, i.e. `x ≲ 709.78`);
///   beyond it the shifted exponent would wrap into garbage bits. The
///   log-sum-exp caller only ever passes `r − max ≤ 0`, but the guard
///   makes the helper total over `f64`.
#[inline(always)]
fn fast_exp(x: f64) -> f64 {
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    // fdlibm's split of ln 2, quoted at its published precision (the
    // extra digits round to the same f64): LN2_HI has enough trailing
    // zeros that `n · LN2_HI` is exact for every |n| < 2^20 reachable
    // here.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
    #[allow(clippy::excessive_precision)]
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    // The 1.5 · 2^52 round-to-nearest shifter.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // Clamping to [−708, 709] keeps the assembled exponent in normal
    // range; the final selects map everything outside (and NaN) to the
    // documented results.
    let xc = x.clamp(-708.0, 709.0);
    let t = xc * LOG2E + SHIFT;
    let nf = t - SHIFT;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    let p = 1.0 / 479_001_600.0; // 1/12!
    let p = p * r + 1.0 / 39_916_800.0;
    let p = p * r + 1.0 / 3_628_800.0;
    let p = p * r + 1.0 / 362_880.0;
    let p = p * r + 1.0 / 40_320.0;
    let p = p * r + 1.0 / 5_040.0;
    let p = p * r + 1.0 / 720.0;
    let p = p * r + 1.0 / 120.0;
    let p = p * r + 1.0 / 24.0;
    let p = p * r + 1.0 / 6.0;
    let p = p * r + 0.5;
    let p = p * r + 1.0;
    let p = p * r + 1.0;
    // `t` lies in [2^52, 2^53), so its mantissa field holds the integer
    // `2^51 + n` exactly; peel `n` back out with integer ops only and
    // fold the `− 2^51` and the `+ 1023` exponent bias into one constant.
    let ni = (t.to_bits() & ((1u64 << 52) - 1)) as i64 + (1023 - (1i64 << 51));
    let scale = f64::from_bits((ni << 52) as u64);
    let v = p * scale;
    // Ordered selects: saturate the unrepresentable tails first, then let
    // NaN (for which both comparisons are false) override everything.
    let v = if x > 709.0 { f64::INFINITY } else { v };
    let v = if x < -708.0 { 0.0 } else { v };
    if x.is_nan() {
        x
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;
    use crate::model::prior::TermParams;

    fn two_cluster_setup() -> (Dataset, Model, Vec<ClassParams>) {
        let schema = Schema::new(vec![Attribute::real("x", 0.01)]);
        let data = Dataset::from_rows(
            schema.clone(),
            &[
                vec![Value::Real(-5.0)],
                vec![Value::Real(-5.1)],
                vec![Value::Real(5.0)],
                vec![Value::Real(5.1)],
            ],
        );
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &stats);
        let classes = vec![
            ClassParams::new(2.0, 0.5, vec![TermParams::normal(-5.0, 0.5)]),
            ClassParams::new(2.0, 0.5, vec![TermParams::normal(5.0, 0.5)]),
        ];
        (data, model, classes)
    }

    #[test]
    fn weights_are_normalized_per_item() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        for i in 0..4 {
            let s: f64 = wts.item_weights(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "item {i}: {s}");
        }
        let total: f64 = out.class_weight_sums.iter().sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn well_separated_items_get_confident_weights() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert!(wts.item_weights(0)[0] > 0.999);
        assert!(wts.item_weights(2)[1] > 0.999);
    }

    #[test]
    fn log_likelihood_matches_manual_computation() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        let mut expect = 0.0;
        let v = data.full_view();
        for i in 0..4 {
            let x = v.real_column(0)[i];
            let lp: Vec<f64> =
                classes.iter().map(|c| c.log_pi + c.terms[0].log_prob_real(x)).collect();
            expect += crate::math::log_sum_exp(&lp);
        }
        assert!((out.log_likelihood - expect).abs() < 1e-10);
    }

    #[test]
    fn complete_ll_never_exceeds_incomplete() {
        // By Jensen: Σ w ln f ≤ ln Σ f when w are the posteriors.
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert!(out.complete_ll <= out.log_likelihood + 1e-12);
    }

    #[test]
    fn partition_estep_sums_to_full() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let full = update_wts(&model, &data.full_view(), &classes, &mut wts);

        let mut acc_ll = 0.0;
        let mut acc_cll = 0.0;
        let mut acc_w = [0.0; 2];
        for range in crate::data::dataset::block_partition(4, 3) {
            let part = update_wts(&model, &data.view(range.start, range.end), &classes, &mut wts);
            acc_ll += part.log_likelihood;
            acc_cll += part.complete_ll;
            for (a, b) in acc_w.iter_mut().zip(&part.class_weight_sums) {
                *a += b;
            }
        }
        assert!((acc_ll - full.log_likelihood).abs() < 1e-10);
        assert!((acc_cll - full.complete_ll).abs() < 1e-10);
        for (a, b) in acc_w.iter().zip(&full.class_weight_sums) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn single_class_gets_weight_one() {
        let (data, model, _) = two_cluster_setup();
        let classes = vec![ClassParams::new(4.0, 1.0, vec![TermParams::normal(0.0, 5.0)])];
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert!(wts.class_column(0).iter().all(|&w| (w - 1.0).abs() < 1e-12));
        assert!((out.class_weight_sums[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ops_formula_matches_helper() {
        let (data, model, classes) = two_cluster_setup();
        let mut wts = WtsMatrix::new(0, 0);
        let out = update_wts(&model, &data.full_view(), &classes, &mut wts);
        assert_eq!(out.ops, estep_ops(4, 2, 1));
    }

    /// Many items (forcing several tiles plus a ragged tail): the blocked
    /// kernel must match the retained naive reference to final-rounding
    /// precision. Phase 1 is the identical operation sequence; phase 2
    /// replaces two libm `exp` calls per element with one `fast_exp` plus
    /// a normalization multiply, so outputs agree to a few ulps rather
    /// than bitwise.
    #[test]
    fn blocked_kernel_matches_naive_to_rounding() {
        fn close(a: f64, b: f64, what: &str) {
            let tol = 1e-12 * a.abs().max(b.abs()).max(1e-300);
            assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
        }
        let schema = Schema::new(vec![Attribute::real("x", 0.01)]);
        let n = 2 * ESTEP_TILE + 37;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let x = if i % 2 == 0 { -5.0 } else { 5.0 } + (i as f64) * 1e-3;
                vec![Value::Real(x)]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &stats);
        let classes = vec![
            ClassParams::new(n as f64 / 2.0, 0.5, vec![TermParams::normal(-5.0, 0.7)]),
            ClassParams::new(n as f64 / 2.0, 0.5, vec![TermParams::normal(5.0, 0.7)]),
        ];

        let mut wts_naive = WtsMatrix::new(0, 0);
        let naive = update_wts_naive(&model, &data.full_view(), &classes, &mut wts_naive);

        let mut wts_blocked = WtsMatrix::new(0, 0);
        let mut scratch = EStepScratch::default();
        let blocked =
            update_wts_into(&model, &data.full_view(), &classes, &mut wts_blocked, &mut scratch);

        close(naive.log_likelihood, blocked.log_likelihood, "log likelihood");
        close(naive.complete_ll, blocked.complete_ll, "complete log likelihood");
        assert_eq!(naive.ops, blocked.ops);
        for (a, b) in naive.class_weight_sums.iter().zip(&scratch.class_weight_sums) {
            close(*a, *b, "class weight sums");
        }
        for c in 0..2 {
            for (a, b) in wts_naive.class_column(c).iter().zip(wts_blocked.class_column(c)) {
                close(*a, *b, "weight matrix");
            }
        }
    }

    /// The fused single-pass E+M kernel vs the two-pass form
    /// (`update_wts_into` then `SuffStats::accumulate`): weights, scalars,
    /// class weight sums, and the sufficient statistics must all be
    /// **bitwise** identical, and the op counts must match — across
    /// several tiles plus a ragged tail, on a mixed real + discrete
    /// schema with missing values.
    #[test]
    fn fused_estep_mstep_is_bitwise_identical_to_two_pass() {
        use crate::model::suffstats::{StatLayout, SuffStats};

        let schema = Schema::new(vec![Attribute::real("x", 0.01), Attribute::discrete("c", 3)]);
        let n = 2 * ESTEP_TILE + 37;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let x = if i % 7 == 3 {
                    Value::Missing
                } else {
                    Value::Real(if i % 2 == 0 { -5.0 } else { 5.0 } + (i as f64) * 1e-3)
                };
                let c = if i % 11 == 5 { Value::Missing } else { Value::Discrete((i % 3) as u32) };
                vec![x, c]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let gstats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &gstats);
        let third = (1.0f64 / 3.0).ln();
        let classes = vec![
            ClassParams::new(
                n as f64 / 2.0,
                0.5,
                vec![
                    TermParams::normal(-5.0, 0.7),
                    TermParams::Multinomial { log_p: vec![third; 3] },
                ],
            ),
            ClassParams::new(
                n as f64 / 2.0,
                0.5,
                vec![
                    TermParams::normal(5.0, 0.7),
                    TermParams::Multinomial { log_p: vec![third; 3] },
                ],
            ),
        ];
        let view = data.full_view();

        // Two-pass reference: E-step, then a whole-partition accumulate.
        let mut wts_two = WtsMatrix::new(0, 0);
        let mut scratch_two = EStepScratch::default();
        let e_two = update_wts_into(&model, &view, &classes, &mut wts_two, &mut scratch_two);
        let mut stats_two = SuffStats::zeros(StatLayout::new(&model, 2));
        let mops_two = stats_two.accumulate(&model, &view, &wts_two);

        // Fused single pass.
        let mut wts_fused = WtsMatrix::new(0, 0);
        let mut scratch_fused = EStepScratch::default();
        let mut stats_fused = SuffStats::zeros(StatLayout::new(&model, 2));
        let mut carry = Vec::new();
        let (e_fused, mops_fused) = update_wts_and_stats_into(
            &model,
            &view,
            &classes,
            &mut wts_fused,
            &mut scratch_fused,
            &mut stats_fused,
            &mut carry,
        );

        assert_eq!(e_two.log_likelihood.to_bits(), e_fused.log_likelihood.to_bits());
        assert_eq!(e_two.complete_ll.to_bits(), e_fused.complete_ll.to_bits());
        assert_eq!(e_two.ops, e_fused.ops);
        assert_eq!(mops_two, mops_fused, "statistics op counts must match");
        for (c, (a, b)) in
            scratch_two.class_weight_sums.iter().zip(&scratch_fused.class_weight_sums).enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "class weight sum {c}");
        }
        for c in 0..2 {
            for (i, (a, b)) in
                wts_two.class_column(c).iter().zip(wts_fused.class_column(c)).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "weight [{c}][{i}]");
            }
        }
        for (i, (a, b)) in stats_two.data.iter().zip(&stats_fused.data).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "stat slot {i}: {a} vs {b}");
        }
    }

    /// `fast_exp` against libm `exp`: a few ulps of relative error across
    /// the log-sum-exp input range, exact at 0, exactly zero below −708,
    /// and well-behaved at −∞ (an all-but-impossible log density must not
    /// poison the weights with NaN).
    #[test]
    fn fast_exp_tracks_libm_exp() {
        let mut x = -740.0;
        while x <= 20.0 {
            let (got, want) = (fast_exp(x), x.exp());
            if x < -708.0 {
                assert_eq!(got, 0.0, "x={x}");
            } else {
                let rel = (got - want).abs() / want;
                assert!(rel < 1e-14, "x={x}: fast {got:e} vs libm {want:e} (rel {rel:e})");
            }
            x += 0.0137;
        }
        assert_eq!(fast_exp(0.0).to_bits(), 1.0f64.to_bits(), "exp(0) must be exactly 1");
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(-1e9), 0.0);
    }

    /// Regression: `x.max(-708.0)` ignores a NaN operand, so the pre-fix
    /// implementation mapped a NaN log-density to the finite `exp(−708)`
    /// and corrupted the weight normalization silently. NaN must come back
    /// out as NaN.
    #[test]
    fn fast_exp_propagates_nan() {
        assert!(fast_exp(f64::NAN).is_nan());
        assert!(fast_exp(-f64::NAN).is_nan());
    }

    /// Regression: the `ni << 52` exponent assembly only covers normal
    /// range; inputs above +709 (including `+∞`) must saturate to `+∞`
    /// rather than wrap the exponent bits into garbage.
    #[test]
    fn fast_exp_saturates_positive_overflow() {
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(710.0), f64::INFINITY);
        assert_eq!(fast_exp(1e9), f64::INFINITY);
        // Just inside the guard: still finite and accurate.
        let rel = (fast_exp(709.0) - 709.0f64.exp()).abs() / 709.0f64.exp();
        assert!(rel < 1e-14, "rel {rel:e}");
    }

    /// `exp(1)` through the fast path agrees with Euler's number to a few
    /// ulps (the positive side of the domain is exercised explicitly; the
    /// sweep above is dominated by negative log-sum-exp inputs).
    #[test]
    fn fast_exp_at_one_matches_e() {
        let rel = (fast_exp(1.0) - std::f64::consts::E).abs() / std::f64::consts::E;
        assert!(rel < 1e-15, "fast_exp(1)={:e} rel {rel:e}", fast_exp(1.0));
    }

    /// A random mixed-schema case for the dispatch and M-step properties:
    /// a Normal real with NaN-missing values, a LogNormal real, a discrete
    /// attribute without and one with a modelled missing level, and a
    /// two-attribute MultiNormal block; about a tenth of all values
    /// missing. The dataset has `off + n + 8` rows so the global
    /// statistics stay finite even for `n = 0`; the kernels run on the
    /// offset view `[off, off + n)`.
    fn mixed_case(n: usize, off: usize, seed: u64) -> (Dataset, Model) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schema = Schema::new(vec![
            Attribute::real("a", 0.01),
            Attribute::positive_real("b", 0.01),
            Attribute::discrete("c", 3),
            Attribute::discrete("d", 4),
            Attribute::real("e", 0.01),
            Attribute::real("f", 0.01),
        ]);
        let rows: Vec<Vec<Value>> = (0..off + n + 8)
            .map(|_| {
                let side = if rng.gen_bool(0.5) { -3.0 } else { 3.0 };
                let mut row = vec![
                    Value::Real(side + rng.gen_range(-1.0..1.0)),
                    Value::Real(rng.gen_range(0.1..20.0)),
                    Value::Discrete(rng.gen_range(0..3)),
                    Value::Discrete(rng.gen_range(0..4)),
                    Value::Real(side * 0.5 + rng.gen_range(-1.0..1.0)),
                    Value::Real(rng.gen_range(-2.0..2.0)),
                ];
                for v in &mut row {
                    if rng.gen_bool(0.1) {
                        *v = Value::Missing;
                    }
                }
                row
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows);
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::with_correlated(schema, &stats, &[vec![4, 5]]).with_missing_levels(&[3]);
        (data, model)
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    /// Today's per-class statistics loop, kept verbatim as the reference
    /// the paired fold in [`SuffStats::accumulate`] must reproduce bit for
    /// bit.
    fn per_class_accumulate(
        st: &mut crate::model::suffstats::SuffStats,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
    ) -> u64 {
        use crate::model::prior::TermPrior;
        let n = view.len();
        let mut ops: u64 = 0;
        for c in 0..st.layout.j {
            let w = wts.class_column(c);
            let wsum: f64 = w.iter().sum();
            st.data[st.layout.weight_index(c)] += wsum;
            ops += n as u64;
            for (k, group) in model.groups.iter().enumerate() {
                let range = st.layout.attr_range(c, k);
                let block = &mut st.data[range];
                match &group.prior {
                    TermPrior::Normal { .. } => {
                        let xs = view.real_column(group.attrs[0]);
                        let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
                        for (&x, &wi) in xs.iter().zip(w) {
                            if !x.is_nan() {
                                s0 += wi;
                                s1 += wi * x;
                                s2 += wi * x * x;
                            }
                        }
                        block[0] += s0;
                        block[1] += s1;
                        block[2] += s2;
                        ops += n as u64;
                    }
                    TermPrior::LogNormal { .. } => {
                        let xs = view.real_column(group.attrs[0]);
                        let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
                        for (&x, &wi) in xs.iter().zip(w) {
                            if !x.is_nan() {
                                let lx = x.ln();
                                s0 += wi;
                                s1 += wi * lx;
                                s2 += wi * lx * lx;
                            }
                        }
                        block[0] += s0;
                        block[1] += s1;
                        block[2] += s2;
                        ops += n as u64;
                    }
                    TermPrior::Multinomial { missing_level, .. } => {
                        let ls = view.discrete_column(group.attrs[0]);
                        let missing_slot = block.len() - 1;
                        for (&l, &wi) in ls.iter().zip(w) {
                            if l != crate::data::dataset::MISSING_DISCRETE {
                                block[l as usize] += wi;
                            } else if *missing_level {
                                block[missing_slot] += wi;
                            }
                        }
                        ops += n as u64;
                    }
                    TermPrior::MultiNormal { dim, .. } => {
                        let d = *dim;
                        'items: for (i, &wi) in w.iter().enumerate() {
                            for &attr in &group.attrs {
                                if view.real_column(attr)[i].is_nan() {
                                    continue 'items;
                                }
                            }
                            block[0] += wi;
                            for a in 0..d {
                                let xa = view.real_column(group.attrs[a])[i];
                                block[1 + a] += wi * xa;
                                for b in 0..=a {
                                    let xb = view.real_column(group.attrs[b])[i];
                                    block[1 + d + crate::model::prior::tri_index(a, b)] +=
                                        wi * xa * xb;
                                }
                            }
                        }
                        ops += (n * d) as u64;
                    }
                }
            }
        }
        ops
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The dispatched E-step (the AVX2 copy on a CPU that has it) and
        /// the baseline-ISA copy agree bit for bit: weights, both scalars,
        /// the class weight sums, and — through the fused entry — the
        /// sufficient statistics and their op count.
        #[test]
        fn dispatch_matches_baseline_bitwise(
            n in 0usize..3 * ESTEP_TILE + 38,
            off in 0usize..5,
            j in 1usize..18,
            seed in 0u64..u64::MAX,
        ) {
            use crate::model::suffstats::{StatLayout, SuffStats};
            let (data, model) = mixed_case(n, off, seed);
            let view = data.view(off, off + n);
            let classes = crate::model::init::init_classes(&model, &view, j, seed ^ 0x5eed);

            let mut wts_d = WtsMatrix::default();
            let mut scratch_d = EStepScratch::default();
            let mut stats_d = SuffStats::zeros(StatLayout::new(&model, j));
            let mut carry_d = Vec::new();
            let (e_d, ops_d) = update_wts_and_stats_into(
                &model, &view, &classes, &mut wts_d, &mut scratch_d, &mut stats_d, &mut carry_d,
            );

            let mut wts_b = WtsMatrix::default();
            let mut scratch_b = EStepScratch::default();
            let mut stats_b = SuffStats::zeros(StatLayout::new(&model, j));
            let mut carry_b = vec![0.0; stats_b.carry_len(&model)];
            let mut sink = StatsSink {
                model: &model,
                view: &view,
                stats: &mut stats_b,
                carry: &mut carry_b,
                ops: 0,
            };
            let e_b =
                update_wts_baseline(&model, &view, &classes, &mut wts_b, &mut scratch_b, &mut sink);
            let ops_b = sink.ops;
            stats_b.finish_tiles(&model, &carry_b);

            assert_eq!(e_d.log_likelihood.to_bits(), e_b.log_likelihood.to_bits());
            assert_eq!(e_d.complete_ll.to_bits(), e_b.complete_ll.to_bits());
            assert_eq!((e_d.ops, ops_d), (e_b.ops, ops_b));
            assert_bits_eq(&scratch_d.class_weight_sums, &scratch_b.class_weight_sums, "w_j");
            assert_bits_eq(&wts_d.data, &wts_b.data, "weights");
            assert_bits_eq(&stats_d.data, &stats_b.data, "fused stats");

            // The plain entry dispatches the same way.
            let mut wts_p = WtsMatrix::default();
            let mut scratch_p = EStepScratch::default();
            let e_p = update_wts_into(&model, &view, &classes, &mut wts_p, &mut scratch_p);
            let e_pb = update_wts_baseline(
                &model, &view, &classes, &mut wts_b, &mut scratch_b, &mut NoSink,
            );
            assert_eq!(e_p.log_likelihood.to_bits(), e_pb.log_likelihood.to_bits());
            assert_eq!(e_p.complete_ll.to_bits(), e_pb.complete_ll.to_bits());
            assert_bits_eq(&wts_p.data, &wts_b.data, "plain weights");
        }

        /// The paired M-step fold — whole-partition and tiled at random
        /// cut points — reproduces the per-class reference loop bit for
        /// bit, including its op count, at every J (odd J leaves a single
        /// class after the pairs).
        #[test]
        fn paired_mstep_matches_per_class_loop(
            n in 0usize..3 * ESTEP_TILE + 38,
            off in 0usize..5,
            j in 1usize..18,
            cuts in proptest::collection::vec(0usize..3 * ESTEP_TILE + 38, 0..4),
            seed in 0u64..u64::MAX,
        ) {
            use crate::model::suffstats::{StatLayout, SuffStats};
            let (data, model) = mixed_case(n, off, seed);
            let view = data.view(off, off + n);
            let classes = crate::model::init::init_classes(&model, &view, j, seed ^ 0x5eed);
            let mut wts = WtsMatrix::default();
            update_wts_into(&model, &view, &classes, &mut wts, &mut EStepScratch::default());

            let mut reference = SuffStats::zeros(StatLayout::new(&model, j));
            let ops_ref = per_class_accumulate(&mut reference, &model, &view, &wts);

            let mut paired = SuffStats::zeros(StatLayout::new(&model, j));
            let ops = paired.accumulate(&model, &view, &wts);
            assert_eq!(ops, ops_ref);
            assert_bits_eq(&paired.data, &reference.data, "accumulate");

            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let mut tiled = SuffStats::zeros(StatLayout::new(&model, j));
            let mut carry = vec![0.0; tiled.carry_len(&model)];
            let mut ops_tiled = 0;
            for pair in bounds.windows(2) {
                ops_tiled += tiled.accumulate_tile(&model, &view, &wts, pair[0], pair[1], &mut carry);
            }
            tiled.finish_tiles(&model, &carry);
            assert_eq!(ops_tiled, ops_ref);
            assert_bits_eq(&tiled.data, &reference.data, "accumulate_tile");
        }
    }

    /// `reset` keeps capacity: shrinking and re-growing within the
    /// high-water mark must not reallocate.
    #[test]
    fn reset_keeps_capacity_and_shape() {
        let mut wts = WtsMatrix::new(100, 4);
        let cap = wts.data.capacity();
        wts.reset(100, 2);
        assert_eq!((wts.n_items(), wts.n_classes()), (100, 2));
        assert_eq!(wts.data.capacity(), cap, "shrink must keep capacity");
        wts.reset(100, 4);
        assert_eq!(wts.data.capacity(), cap, "regrow within capacity must not allocate");
        assert_eq!(wts.data.len(), 400);
    }
}
