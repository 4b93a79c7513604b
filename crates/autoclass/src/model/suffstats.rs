//! Weighted sufficient statistics: the quantities P-AutoClass exchanges.
//!
//! Per class the statistics are laid out flat as
//! `[w_j, attr0 block, attr1 block, ...]`, and per classification as `J`
//! consecutive class blocks. This flat layout is exactly what goes into
//! the Allreduce in the parallel `update_parameters`: partial statistics
//! computed on each processor's partition sum element-wise to the global
//! statistics.

use crate::data::dataset::DataView;
use crate::model::class::Model;
use crate::model::estep::WtsMatrix;
use crate::model::prior::TermPrior;

/// Index arithmetic for the flat statistics vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatLayout {
    /// Number of classes J.
    pub j: usize,
    /// Per-attribute (offset within a class block, block length).
    pub attr_blocks: Vec<(usize, usize)>,
    /// Length of one class block (1 + Σ attr lengths).
    pub stride: usize,
}

impl StatLayout {
    /// Layout for `j` classes of the given model (one block per term
    /// group).
    pub fn new(model: &Model, j: usize) -> Self {
        assert!(j >= 1, "need at least one class");
        let mut attr_blocks = Vec::with_capacity(model.groups.len());
        let mut offset = 1; // slot 0 is the class weight
        for g in &model.groups {
            let len = g.prior.stat_len();
            attr_blocks.push((offset, len));
            offset += len;
        }
        StatLayout { j, attr_blocks, stride: offset }
    }

    /// Total flat length (`j * stride`).
    pub fn len(&self) -> usize {
        self.j * self.stride
    }

    /// True when the layout is empty (never: `j ≥ 1`, stride ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat range of class `c`'s whole block.
    pub fn class_range(&self, c: usize) -> std::ops::Range<usize> {
        let start = c * self.stride;
        start..start + self.stride
    }

    /// Flat index of class `c`'s weight.
    pub fn weight_index(&self, c: usize) -> usize {
        c * self.stride
    }

    /// Flat range of class `c`, attribute `k`'s statistics block.
    pub fn attr_range(&self, c: usize, k: usize) -> std::ops::Range<usize> {
        let (off, len) = self.attr_blocks[k];
        let start = c * self.stride + off;
        start..start + len
    }
}

/// Carry slots per class for tiled accumulation: the running class-weight
/// sum plus an `(s0, s1, s2)` triple per scalar real (Normal/LogNormal)
/// group. Multinomial and MultiNormal groups need no carry — their untiled
/// accumulation already writes per item straight into the flat block.
fn carry_stride(model: &Model) -> usize {
    let scalar_groups = model
        .groups
        .iter()
        .filter(|g| matches!(g.prior, TermPrior::Normal { .. } | TermPrior::LogNormal { .. }))
        .count();
    1 + 3 * scalar_groups
}

/// Flat weighted sufficient statistics for one classification.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffStats {
    /// Index arithmetic.
    pub layout: StatLayout,
    /// The flat values; element-wise summable across partitions.
    pub data: Vec<f64>,
}

impl SuffStats {
    /// Zeroed statistics with the given layout.
    pub fn zeros(layout: StatLayout) -> Self {
        let data = vec![0.0; layout.len()];
        SuffStats { layout, data }
    }

    /// Class `c`'s accumulated weight w_c.
    pub fn class_weight(&self, c: usize) -> f64 {
        self.data[self.layout.weight_index(c)]
    }

    /// Class `c`, attribute `k`'s statistics block.
    pub fn attr_stats(&self, c: usize, k: usize) -> &[f64] {
        &self.data[self.layout.attr_range(c, k)]
    }

    /// Accumulate this partition's weighted statistics (the local part of
    /// `update_parameters`). Returns the number of abstract ops performed,
    /// for the virtual-time model.
    pub fn accumulate(&mut self, model: &Model, view: &DataView<'_>, wts: &WtsMatrix) -> u64 {
        let n = view.len();
        assert_eq!(wts.n_items(), n, "weights/partition size mismatch");
        assert_eq!(wts.n_classes(), self.layout.j, "weights/layout class count mismatch");
        self.fold(model, view, wts, 0, n, None)
    }

    /// Length of the carry buffer threaded through
    /// [`SuffStats::accumulate_tile`]: per class, the running class-weight
    /// sum plus one `(s0, s1, s2)` triple per scalar real group.
    pub fn carry_len(&self, model: &Model) -> usize {
        self.layout.j * carry_stride(model)
    }

    /// Accumulate the items `[lo, hi)` of this partition, carrying the
    /// scalar accumulation chains across tiles.
    ///
    /// Calling this for a partition's tiles in ascending item order and
    /// then flushing with [`SuffStats::finish_tiles`] is **bitwise
    /// identical** to one [`SuffStats::accumulate`] over the whole
    /// partition: every scalar accumulator (the class weight sum and each
    /// Normal/LogNormal `(s0, s1, s2)`) continues its exact left-fold
    /// chain through `carry` instead of restarting per tile, and the
    /// per-item block writes (Multinomial, MultiNormal) hit `data` in the
    /// same item order either way. `carry` must be zeroed to
    /// [`SuffStats::carry_len`] before the first tile. Returns abstract
    /// ops, summing over a partition's tiles to exactly the untiled count.
    pub fn accumulate_tile(
        &mut self,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
        lo: usize,
        hi: usize,
        carry: &mut [f64],
    ) -> u64 {
        let n = view.len();
        assert_eq!(wts.n_items(), n, "weights/partition size mismatch");
        assert_eq!(wts.n_classes(), self.layout.j, "weights/layout class count mismatch");
        assert!(lo <= hi && hi <= n, "tile [{lo}, {hi}) out of range for {n} items");
        assert_eq!(carry.len(), self.carry_len(model), "carry buffer length mismatch");
        self.fold(model, view, wts, lo, hi, Some(carry))
    }

    /// The statistics fold over items `[lo, hi)`, shared by
    /// [`SuffStats::accumulate`] (`carry = None`: every scalar chain starts
    /// at zero and is added into `data` at the end) and
    /// [`SuffStats::accumulate_tile`] (chains start from and end in
    /// `carry`).
    ///
    /// Classes go in pairs, plus a single class when `j` is odd. Every
    /// scalar accumulator is a latency-bound left fold over the items;
    /// folding two classes in one item loop keeps each chain's exact order
    /// but lets the two classes' chains overlap, and the class weight sum
    /// rides along in the first scalar real group's loop instead of taking
    /// a pass of its own.
    fn fold(
        &mut self,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
        lo: usize,
        hi: usize,
        mut carry: Option<&mut [f64]>,
    ) -> u64 {
        let j = self.layout.j;
        let mut ops = 0;
        let mut c = 0;
        while c + 2 <= j {
            ops += self.fold_classes::<2>(model, view, wts, lo, hi, c, carry.as_deref_mut());
            c += 2;
        }
        if c < j {
            ops += self.fold_classes::<1>(model, view, wts, lo, hi, c, carry);
        }
        ops
    }

    /// [`SuffStats::fold`] for the `L` classes starting at `c0`.
    #[allow(clippy::too_many_arguments)]
    fn fold_classes<const L: usize>(
        &mut self,
        model: &Model,
        view: &DataView<'_>,
        wts: &WtsMatrix,
        lo: usize,
        hi: usize,
        c0: usize,
        mut carry: Option<&mut [f64]>,
    ) -> u64 {
        let tl = hi - lo;
        let cstride = carry_stride(model);
        let w: [&[f64]; L] = std::array::from_fn(|l| &wts.class_column(c0 + l)[lo..hi]);
        // Carry slot `slot` of the pair's class `l`, and a chain's start:
        // its carried value, or zero for a whole-partition fold.
        let cslot = |l: usize, slot: usize| (c0 + l) * cstride + slot;
        let start = |carry: &Option<&mut [f64]>, l: usize, slot: usize| {
            carry.as_deref().map_or(0.0, |cy| cy[cslot(l, slot)])
        };
        let mut wsum: [f64; L] = std::array::from_fn(|l| start(&carry, l, 0));
        let mut wsum_folded = false;
        let mut ops: u64 = tl as u64;
        let mut coff = 1;
        for (k, group) in model.groups.iter().enumerate() {
            let blocks: [std::ops::Range<usize>; L] =
                std::array::from_fn(|l| self.layout.attr_range(c0 + l, k));
            match &group.prior {
                TermPrior::Normal { .. } | TermPrior::LogNormal { .. } => {
                    let xs = &view.real_column(group.attrs[0])[lo..hi];
                    let mut s: [[f64; 3]; L] = std::array::from_fn(|l| {
                        std::array::from_fn(|m| start(&carry, l, coff + m))
                    });
                    let ws = if wsum_folded { None } else { Some(&mut wsum) };
                    if matches!(group.prior, TermPrior::LogNormal { .. }) {
                        fold_real(xs, &w, ws, &mut s, f64::ln);
                    } else {
                        fold_real(xs, &w, ws, &mut s, |x| x);
                    }
                    wsum_folded = true;
                    for (l, (sl, block)) in s.iter().zip(&blocks).enumerate() {
                        match carry.as_deref_mut() {
                            Some(cy) => cy[cslot(l, coff)..cslot(l, coff + 3)].copy_from_slice(sl),
                            None => {
                                for (d, v) in
                                    self.data[block.start..block.start + 3].iter_mut().zip(sl)
                                {
                                    *d += v;
                                }
                            }
                        }
                    }
                    coff += 3;
                    ops += tl as u64;
                }
                TermPrior::Multinomial { missing_level, .. } => {
                    let ls = &view.discrete_column(group.attrs[0])[lo..hi];
                    let missing_slot = blocks[0].len() - 1;
                    for (t, &lv) in ls.iter().enumerate() {
                        let slot = if lv != crate::data::dataset::MISSING_DISCRETE {
                            lv as usize
                        } else if *missing_level {
                            missing_slot
                        } else {
                            continue;
                        };
                        for (wl, block) in w.iter().zip(&blocks) {
                            self.data[block.clone()][slot] += wl[t];
                        }
                    }
                    ops += tl as u64;
                }
                TermPrior::MultiNormal { dim, .. } => {
                    // Joint block: skip items missing *any* block value.
                    // Allocation-free: the columns are indexed through the
                    // view directly (d is small, the repeated column
                    // lookups are trivial next to the d² products).
                    let d = *dim;
                    'items: for t in 0..tl {
                        let i = lo + t;
                        for &attr in &group.attrs {
                            if view.real_column(attr)[i].is_nan() {
                                continue 'items;
                            }
                        }
                        for (wl, block) in w.iter().zip(&blocks) {
                            let wi = wl[t];
                            let block = &mut self.data[block.clone()];
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
                    }
                    ops += (tl * d) as u64;
                }
            }
        }
        if !wsum_folded {
            for t in 0..tl {
                for (acc, wl) in wsum.iter_mut().zip(&w) {
                    *acc += wl[t];
                }
            }
        }
        for (l, acc) in wsum.iter().enumerate() {
            match carry.as_deref_mut() {
                Some(cy) => cy[cslot(l, 0)] = *acc,
                None => self.data[self.layout.weight_index(c0 + l)] += acc,
            }
        }
        ops * L as u64
    }

    /// Flush the scalar accumulation chains carried across
    /// [`SuffStats::accumulate_tile`] calls into the flat statistics —
    /// one `+=` per carried accumulator, exactly like the untiled
    /// [`SuffStats::accumulate`]'s single final add.
    pub fn finish_tiles(&mut self, model: &Model, carry: &[f64]) {
        let cstride = carry_stride(model);
        assert_eq!(carry.len(), self.layout.j * cstride, "carry buffer length mismatch");
        for c in 0..self.layout.j {
            let cbase = c * cstride;
            self.data[self.layout.weight_index(c)] += carry[cbase];
            let mut coff = cbase + 1;
            for (k, group) in model.groups.iter().enumerate() {
                if matches!(&group.prior, TermPrior::Normal { .. } | TermPrior::LogNormal { .. }) {
                    let range = self.layout.attr_range(c, k);
                    let block = &mut self.data[range];
                    block[0] += carry[coff];
                    block[1] += carry[coff + 1];
                    block[2] += carry[coff + 2];
                    coff += 3;
                }
            }
        }
    }

    /// Element-wise merge of another partition's statistics (what the
    /// Allreduce computes).
    pub fn merge(&mut self, other: &SuffStats) {
        assert_eq!(self.layout, other.layout, "cannot merge different layouts");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Total weight across classes (should equal the number of items whose
    /// weights were accumulated; each item contributes exactly 1).
    pub fn total_weight(&self) -> f64 {
        (0..self.layout.j).map(|c| self.class_weight(c)).sum()
    }
}

/// One scalar real group's item loop for `L` classes: each class's
/// `(s0, s1, s2)` — and, when `wsum` is given, its class weight sum — is
/// its own left fold in item order. `f` maps a value to the modelled
/// quantity (identity for Normal, `ln` for LogNormal); a missing (NaN)
/// value adds to the weight sum only.
#[inline(always)]
fn fold_real<const L: usize>(
    xs: &[f64],
    w: &[&[f64]; L],
    mut wsum: Option<&mut [f64; L]>,
    s: &mut [[f64; 3]; L],
    f: impl Fn(f64) -> f64,
) {
    let w = w.map(|col| &col[..xs.len()]);
    for (t, &x) in xs.iter().enumerate() {
        let miss = x.is_nan();
        let v = f(x);
        for (l, [s0, s1, s2]) in s.iter_mut().enumerate() {
            let wi = w[l][t];
            if let Some(ws) = wsum.as_deref_mut() {
                ws[l] += wi;
            }
            if !miss {
                *s0 += wi;
                *s1 += wi * v;
                *s2 += wi * v * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;

    fn setup() -> (Dataset, Model) {
        let schema = Schema::new(vec![Attribute::real("x", 0.1), Attribute::discrete("c", 2)]);
        let data = Dataset::from_rows(
            schema.clone(),
            &[
                vec![Value::Real(1.0), Value::Discrete(0)],
                vec![Value::Real(2.0), Value::Discrete(1)],
                vec![Value::Missing, Value::Discrete(1)],
                vec![Value::Real(4.0), Value::Missing],
            ],
        );
        let stats = GlobalStats::compute(&data.full_view());
        let model = Model::new(schema, &stats);
        (data, model)
    }

    fn uniform_wts(n: usize, j: usize) -> WtsMatrix {
        let mut w = WtsMatrix::new(n, j);
        let u = 1.0 / j as f64;
        for c in 0..j {
            w.class_column_mut(c).iter_mut().for_each(|v| *v = u);
        }
        w
    }

    #[test]
    fn layout_indexing() {
        let (_, model) = setup();
        let l = StatLayout::new(&model, 3);
        // stride = 1 (weight) + 3 (normal) + 2 (multinomial)
        assert_eq!(l.stride, 6);
        assert_eq!(l.len(), 18);
        assert_eq!(l.weight_index(2), 12);
        assert_eq!(l.attr_range(1, 0), 7..10);
        assert_eq!(l.attr_range(1, 1), 10..12);
    }

    #[test]
    fn accumulate_counts_weighted_values() {
        let (data, model) = setup();
        let wts = uniform_wts(4, 2);
        let mut s = SuffStats::zeros(StatLayout::new(&model, 2));
        s.accumulate(&model, &data.full_view(), &wts);
        // Each class got half of each item.
        assert!((s.class_weight(0) - 2.0).abs() < 1e-12);
        assert!((s.class_weight(1) - 2.0).abs() < 1e-12);
        let b = s.attr_stats(0, 0);
        // Non-missing x: {1,2,4} each with weight 0.5.
        assert!((b[0] - 1.5).abs() < 1e-12);
        assert!((b[1] - 3.5).abs() < 1e-12);
        assert!((b[2] - 10.5).abs() < 1e-12);
        let d = s.attr_stats(0, 1);
        // Levels: one 0, two 1s, one missing; each weight 0.5.
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_accumulation_merges_to_whole() {
        let (data, model) = setup();
        let layout = StatLayout::new(&model, 2);

        let wts_full = uniform_wts(4, 2);
        let mut whole = SuffStats::zeros(layout.clone());
        whole.accumulate(&model, &data.full_view(), &wts_full);

        let mut left = SuffStats::zeros(layout.clone());
        left.accumulate(&model, &data.view(0, 2), &uniform_wts(2, 2));
        let mut right = SuffStats::zeros(layout);
        right.accumulate(&model, &data.view(2, 4), &uniform_wts(2, 2));
        left.merge(&right);

        for (a, b) in left.data.iter().zip(&whole.data) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn tiled_accumulation_is_bitwise_identical_to_untiled() {
        let (data, model) = setup();
        let layout = StatLayout::new(&model, 2);
        let view = data.full_view();
        let wts = uniform_wts(4, 2);

        let mut whole = SuffStats::zeros(layout.clone());
        let ops_whole = whole.accumulate(&model, &view, &wts);

        let mut tiled = SuffStats::zeros(layout);
        let mut carry = vec![0.0; tiled.carry_len(&model)];
        let mut ops_tiled = 0;
        for (lo, hi) in [(0, 1), (1, 3), (3, 4)] {
            ops_tiled += tiled.accumulate_tile(&model, &view, &wts, lo, hi, &mut carry);
        }
        tiled.finish_tiles(&model, &carry);

        assert_eq!(ops_whole, ops_tiled, "op counts must match");
        for (i, (a, b)) in whole.data.iter().zip(&tiled.data).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}: {a} vs {b}");
        }
    }

    #[test]
    fn total_weight_equals_items() {
        let (data, model) = setup();
        let wts = uniform_wts(4, 2);
        let mut s = SuffStats::zeros(StatLayout::new(&model, 2));
        s.accumulate(&model, &data.full_view(), &wts);
        assert!((s.total_weight() - 4.0).abs() < 1e-12);
    }
}
