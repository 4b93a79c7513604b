//! Collective operations built on point-to-point messaging: every
//! schedule, written once.
//!
//! Each collective is the textbook message-passing algorithm (dissemination
//! barrier, binomial-tree broadcast/reduce, linear / recursive-doubling /
//! ring / Rabenseifner / hierarchical allreduce, ring allgather), so the
//! simulated communication pattern — and therefore the modeled cost — is
//! the one a real MPI implementation would produce.
//!
//! The schedules are generic over [`PointToPoint`], the only surface a
//! backend implements: this crate's [`Comm`] (virtual time), the native
//! backend's `shmcomm::NativeComm` (wall-clock time) and the group
//! communicator [`crate::subcomm::Group`] over either. One schedule
//! serving every communicator is what keeps results bitwise identical
//! across backends and between a world and a group of the same size.
//!
//! # Determinism contract
//!
//! The sequence of sends, receives and [`ReduceOp::fold`] calls a rank
//! performs depends only on `(algorithm, P, length)`, never on arrival
//! order or timing, so floating-point fold orders are fixed. `Auto`
//! resolves through [`crate::cost::select_allreduce`] before anything is
//! posted, so the algorithm choice itself is identical on every rank and
//! backend.
//!
//! # SPMD discipline
//!
//! As with MPI, all ranks must call the same sequence of collectives with
//! compatible arguments. Each collective call consumes one slot of a
//! per-communicator sequence number used as the message tag, so a rank that
//! skips a collective deadlocks (and is caught by the verifier) rather than
//! silently corrupting a later collective. Buffer lengths are checked
//! before every fold and copy: a length mismatch fails the run as a typed
//! collective mismatch naming the rank that saw it.
//!
//! # Phase attribution
//!
//! Collectives carry no phase tagging of their own: every constituent
//! send/recv and all idle time waiting on peers is charged to whatever
//! phase span (see [`Comm::enter_phase`]) is open on the calling rank, so
//! wrapping a collective call in a span attributes its full modeled cost —
//! including the algorithm-dependent message fan-out — to that bucket.

use crate::comm::{Comm, Request};
use crate::cost::{AllreduceAlgo, MachineSpec};
use crate::verify::{CollFingerprint, CollKind};

/// Base of the tag space reserved for world collectives (above all user
/// tags).
pub const COLL_TAG_BASE: u64 = 1 << 32;

/// Element-wise reduction operator over `f64` vectors. All operators are
/// commutative, which the recursive-doubling algorithm exploits to keep
/// results bitwise identical on every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Fold `other` into `acc` element-wise.
    ///
    /// # Panics
    /// Panics if lengths differ (collective argument mismatch).
    pub fn fold(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce buffers must have equal length");
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(other).for_each(|(a, b)| *a += b),
            ReduceOp::Prod => acc.iter_mut().zip(other).for_each(|(a, b)| *a *= b),
            ReduceOp::Min => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.min(*b)),
            ReduceOp::Max => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.max(*b)),
        }
    }
}

/// The point-to-point surface the collective schedules run on — the only
/// thing a backend implements to get every collective.
///
/// Ranks are communicator-local (`0..size()`). Sends must be buffered, so
/// the schedules' send-then-receive exchanges cannot deadlock.
pub trait PointToPoint {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks in the communicator.
    fn size(&self) -> usize;
    /// The machine description (algorithm selection and node layout).
    fn machine(&self) -> &MachineSpec;
    /// Blocking, buffered typed send of an `f64` slice.
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]);
    /// Blocking typed receive of the `f64` message from `src` with `tag`.
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64>;
    /// Enter a collective: allocate its unique tag, count it, and — when
    /// the backend verifies collectives — cross-check `fp` against the
    /// other ranks' claims for the same sequence number.
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64;
    /// Hash the collective's replicated result and cross-check it against
    /// the other ranks (no-op unless replication checking is on).
    fn check_replicated_result(&mut self, label: &str, buf: &[f64]);
    /// Fail the run with a typed collective-argument mismatch.
    fn mismatch(&self, detail: String) -> !;
}

/// Shorthand for building the fingerprint a collective posts on entry.
fn fp(kind: CollKind, root: Option<usize>, op: Option<ReduceOp>, elems: usize) -> CollFingerprint {
    CollFingerprint { kind, root, op, elems: Some(elems) }
}

/// Fail as a collective mismatch unless the message from `src` has the
/// length the local buffer expects.
fn check_len<C: PointToPoint + ?Sized>(c: &C, want: usize, got: usize, src: usize) {
    if want != got {
        c.mismatch(format!("buffer length {want} != {got} received from rank {src}"));
    }
}

/// Receive from `src` and overwrite `dst` with the payload.
fn recv_into<C: PointToPoint + ?Sized>(c: &mut C, src: usize, tag: u64, dst: &mut [f64]) {
    let data = c.recv_f64s(src, tag);
    check_len(c, dst.len(), data.len(), src);
    dst.copy_from_slice(&data);
}

/// Receive from `src` and fold the payload into `acc`.
fn recv_fold<C: PointToPoint + ?Sized>(
    c: &mut C,
    src: usize,
    tag: u64,
    op: ReduceOp,
    acc: &mut [f64],
) {
    let data = c.recv_f64s(src, tag);
    check_len(c, acc.len(), data.len(), src);
    op.fold(acc, &data);
}

/// Synchronize all ranks (dissemination barrier, `ceil(log2 P)` rounds).
pub fn barrier<C: PointToPoint + ?Sized>(c: &mut C) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Barrier, None, None, 0));
    let me = c.rank();
    let mut k = 1usize;
    while k < p {
        c.send_f64s((me + k) % p, tag, &[]);
        let _ = c.recv_f64s((me + p - k) % p, tag);
        k <<= 1;
    }
}

/// Broadcast `buf` from `root` to all ranks (binomial tree). On entry only
/// `root`'s buffer is meaningful; on exit every rank holds the root's
/// data. All ranks must pass buffers of the same length.
pub fn broadcast_f64s<C: PointToPoint + ?Sized>(c: &mut C, root: usize, buf: &mut [f64]) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Broadcast, Some(root), None, buf.len()));
    let me = c.rank();
    let vrank = (me + p - root) % p;

    // Receive from the parent in the binomial tree.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            recv_into(c, (me + p - mask) % p, tag, buf);
            break;
        }
        mask <<= 1;
    }
    // Forward to children.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            c.send_f64s((me + mask) % p, tag, buf);
        }
        mask >>= 1;
    }
    // Every rank now holds the root's data — a replication invariant.
    c.check_replicated_result("broadcast result", buf);
}

/// Broadcast a single `u64` from `root` (handy for sizes and seeds). Reuses
/// the f64 tree via bit transmutation; `u64` bit patterns survive because
/// payloads travel bit-exactly.
pub fn broadcast_u64<C: PointToPoint + ?Sized>(c: &mut C, root: usize, value: u64) -> u64 {
    let mut buf = [f64::from_bits(value)];
    broadcast_f64s(c, root, &mut buf);
    buf[0].to_bits()
}

/// Reduce element-wise into `root` (binomial tree). After the call the
/// root's `buf` holds the reduction over all ranks; other ranks' `buf`
/// contents are unspecified.
pub fn reduce_f64s<C: PointToPoint + ?Sized>(
    c: &mut C,
    root: usize,
    buf: &mut [f64],
    op: ReduceOp,
) {
    let p = c.size();
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Reduce, Some(root), Some(op), buf.len()));
    let vrank = (c.rank() + p - root) % p;
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask == 0 {
            let vsrc = vrank | mask;
            if vsrc < p {
                recv_fold(c, (vsrc + root) % p, tag, op, buf);
            }
        } else {
            c.send_f64s(((vrank & !mask) + root) % p, tag, buf);
            break;
        }
        mask <<= 1;
    }
}

/// Allreduce with an explicit algorithm; on exit every rank holds the
/// element-wise reduction of all ranks' buffers. `Auto` resolves here,
/// before the fingerprint is posted: the selection is a pure function of
/// (P, length, network parameters), all identical on every rank, so every
/// rank dispatches to the same concrete algorithm.
pub fn allreduce_f64s_with<C: PointToPoint + ?Sized>(
    c: &mut C,
    buf: &mut [f64],
    op: ReduceOp,
    algo: AllreduceAlgo,
) {
    if c.size() <= 1 {
        return;
    }
    let algo = match algo {
        AllreduceAlgo::Auto => {
            crate::cost::select_allreduce(c.size(), buf.len(), &c.machine().network)
        }
        other => other,
    };
    // The fingerprint is posted before algorithm dispatch, so a length or
    // operator divergence is caught even when the chosen algorithm would
    // route the mismatched buffers past each other.
    let tag = c.coll_enter(fp(CollKind::Allreduce, None, Some(op), buf.len()));
    let (p, me) = (c.size(), c.rank());
    match algo {
        AllreduceAlgo::Linear | AllreduceAlgo::OrderedLinear => allreduce_linear(c, buf, op, tag),
        AllreduceAlgo::RecursiveDoubling => allreduce_rd(c, buf, op, tag),
        AllreduceAlgo::Ring => allreduce_ring(c, buf, op, tag),
        AllreduceAlgo::Rabenseifner => rabenseifner_over(c, p, me, |i| i, buf, op, tag),
        AllreduceAlgo::Hierarchical => allreduce_hierarchical(c, buf, op, tag),
        AllreduceAlgo::Auto => unreachable!("Auto resolved to a concrete algorithm above"),
    }
    // Every rank now holds the same reduction (the algorithms are bitwise
    // deterministic) — a replication invariant.
    c.check_replicated_result("allreduce result", buf);
}

/// Gather to rank 0 (folding in rank order, so the floating-point
/// reduction order is deterministic and independent of any tree shape),
/// then send the result back to every rank individually. `O(P)`
/// latencies — the behaviour of early-90s MPI reductions.
fn allreduce_linear<C: PointToPoint + ?Sized>(c: &mut C, buf: &mut [f64], op: ReduceOp, tag: u64) {
    let p = c.size();
    if c.rank() == 0 {
        for src in 1..p {
            recv_fold(c, src, tag, op, buf);
        }
        for dst in 1..p {
            c.send_f64s(dst, tag, buf);
        }
    } else {
        c.send_f64s(0, tag, buf);
        recv_into(c, 0, tag, buf);
    }
}

/// The MPICH pre-step for a group of `g` members that is not a power of
/// two (`at(i)` is member `i`'s rank, `me` this rank's member index): each
/// extra member `pow2 + i` folds its vector into member `i` and waits for
/// the final result. Returns the power-of-two group size, or `None` on an
/// extra member, whose `buf` then already holds the result.
fn park<C: PointToPoint + ?Sized>(
    c: &mut C,
    g: usize,
    me: usize,
    at: &impl Fn(usize) -> usize,
    buf: &mut [f64],
    op: ReduceOp,
    tag: u64,
) -> Option<usize> {
    let pow2 = if g.is_power_of_two() { g } else { g.next_power_of_two() / 2 };
    if me >= pow2 {
        let partner = at(me - pow2);
        c.send_f64s(partner, tag, buf);
        recv_into(c, partner, tag, buf);
        return None;
    }
    if me < g - pow2 {
        recv_fold(c, at(me + pow2), tag, op, buf);
    }
    Some(pow2)
}

/// The MPICH post-step matching [`park`]: hand the result to the extra
/// member folded into this one.
fn unpark<C: PointToPoint + ?Sized>(
    c: &mut C,
    g: usize,
    me: usize,
    pow2: usize,
    at: &impl Fn(usize) -> usize,
    buf: &[f64],
    tag: u64,
) {
    if me < g - pow2 {
        c.send_f64s(at(me + pow2), tag, buf);
    }
}

/// Recursive doubling: `ceil(log2 P)` rounds of pairwise full-vector
/// exchanges, with the excess ranks of a non-power-of-two size parked
/// (see [`park`]).
fn allreduce_rd<C: PointToPoint + ?Sized>(c: &mut C, buf: &mut [f64], op: ReduceOp, tag: u64) {
    let (p, me) = (c.size(), c.rank());
    let dense = |i| i;
    let Some(pow2) = park(c, p, me, &dense, buf, op, tag) else { return };
    // Pairwise exchange within the power-of-two group. Both partners fold
    // the same two (identical-per-subgroup) values with a commutative op,
    // so all ranks stay bitwise identical.
    let mut mask = 1usize;
    while mask < pow2 {
        let partner = me ^ mask;
        c.send_f64s(partner, tag, buf);
        recv_fold(c, partner, tag, op, buf);
        mask <<= 1;
    }
    unpark(c, p, me, pow2, &dense, buf, tag);
}

/// Balanced partition of `n` elements into `parts` chunks: chunk `c`
/// covers the returned range, sizes differing by at most one element
/// (empty when `n < parts`).
fn chunk(n: usize, parts: usize, c: usize) -> std::ops::Range<usize> {
    let (base, extra) = (n / parts, n % parts);
    let start = c * base + c.min(extra);
    start..start + base + usize::from(c < extra)
}

/// Ring allreduce: reduce-scatter then allgather, `2(P-1)` rounds of
/// `~m/P`-sized messages. Bandwidth-optimal for long vectors.
fn allreduce_ring<C: PointToPoint + ?Sized>(c: &mut C, buf: &mut [f64], op: ReduceOp, tag: u64) {
    let (p, me) = (c.size(), c.rank());
    let n = buf.len();
    if n == 0 {
        // Still synchronize so the collective sequence stays aligned.
        barrier(c);
        return;
    }
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Reduce-scatter: after p-1 steps, rank r owns the fully reduced chunk
    // (r + 1) % p.
    for step in 0..p - 1 {
        c.send_f64s(right, tag, &buf[chunk(n, p, (me + p - step) % p)]);
        recv_fold(c, left, tag, op, &mut buf[chunk(n, p, (me + p - step - 1) % p)]);
    }
    // Allgather: circulate the reduced chunks.
    for step in 0..p - 1 {
        c.send_f64s(right, tag, &buf[chunk(n, p, (me + 1 + p - step) % p)]);
        recv_into(c, left, tag, &mut buf[chunk(n, p, (me + p - step) % p)]);
    }
}

/// Rabenseifner's allreduce over `g` members (`at(i)` is member `i`'s
/// rank, `me` this rank's member index): recursive-halving reduce-scatter
/// followed by a recursive-doubling allgather — `2·log2 P'` rounds moving
/// about `2m(P'−1)/P'` bytes per rank (`P'` = largest power of two ≤ g),
/// the ring's bandwidth optimality with logarithmic latency. Extra members
/// of a non-power-of-two group are parked exactly like recursive
/// doubling's. The element space is split into the ring's balanced chunk
/// partition (over the pow2 group), so lengths shorter than `P'` — where
/// some chunks are empty — work unchanged. Each chunk's reduction is
/// computed along a fixed binary tree on exactly one owner and then copied
/// verbatim to all members in the allgather, so the result is bitwise
/// identical everywhere. The whole world runs it with `at = |i| i`; the
/// hierarchical allreduce runs it over the node leaders.
fn rabenseifner_over<C: PointToPoint + ?Sized>(
    c: &mut C,
    g: usize,
    me: usize,
    at: impl Fn(usize) -> usize,
    buf: &mut [f64],
    op: ReduceOp,
    tag: u64,
) {
    if g <= 1 {
        return;
    }
    let Some(pow2) = park(c, g, me, &at, buf, op, tag) else { return };
    let n = buf.len();
    // Element span of the chunk interval [clo, chi).
    let span = |clo: usize, chi: usize| chunk(n, pow2, clo).start..chunk(n, pow2, chi - 1).end;

    // Reduce-scatter by recursive halving: each round exchanges half of the
    // remaining chunk interval with the partner and folds the kept half.
    // The member keeps the half containing its own chunk index, so after
    // log2(pow2) rounds member r owns exactly chunk r, reduced over the
    // whole group.
    let (mut clo, mut chi) = (0usize, pow2);
    let mut mask = pow2 >> 1;
    while mask > 0 {
        let partner = at(me ^ mask);
        let mid = clo + (chi - clo) / 2;
        let (keep, give) =
            if me & mask == 0 { ((clo, mid), (mid, chi)) } else { ((mid, chi), (clo, mid)) };
        c.send_f64s(partner, tag, &buf[span(give.0, give.1)]);
        recv_fold(c, partner, tag, op, &mut buf[span(keep.0, keep.1)]);
        (clo, chi) = keep;
        mask >>= 1;
    }

    // Allgather by recursive doubling: intervals (always mask chunks long
    // and mask-aligned) double until every member holds [0, pow2).
    let mut mask = 1usize;
    while mask < pow2 {
        let partner = at(me ^ mask);
        c.send_f64s(partner, tag, &buf[span(clo, chi)]);
        // The partner's interval is the mirror of ours within the doubled
        // block.
        let plo = clo ^ mask;
        recv_into(c, partner, tag, &mut buf[span(plo, plo + mask)]);
        clo = clo.min(plo);
        chi = clo + 2 * mask;
        mask <<= 1;
    }
    unpark(c, g, me, pow2, &at, buf, tag);
}

/// Hierarchical allreduce for fat-tree-of-multicore-node machines (see
/// [`crate::cost::AllreduceAlgo::Hierarchical`]): an ascending-rank linear
/// fold onto each node's leader over the cheap intra-node fabric,
/// [`rabenseifner_over`] among the leaders over the inter-node network,
/// then an intra-node broadcast of the result. Fold orders are fixed, so
/// the result is bitwise identical on every rank. On a flat topology every
/// rank is its own leader and this is plain Rabenseifner.
fn allreduce_hierarchical<C: PointToPoint + ?Sized>(
    c: &mut C,
    buf: &mut [f64],
    op: ReduceOp,
    tag: u64,
) {
    let (p, me) = (c.size(), c.rank());
    let ns = c.machine().topology.node_size().clamp(1, p);
    let node = me / ns;
    let leader = node * ns;
    let node_end = ((node + 1) * ns).min(p);
    if me == leader {
        // Intra-node reduce: members fold into the leader in ascending rank
        // order (a deterministic left fold).
        for src in leader + 1..node_end {
            recv_fold(c, src, tag, op, buf);
        }
        // Inter-node reduce among the leaders only.
        rabenseifner_over(c, p.div_ceil(ns), node, |i| i * ns, buf, op, tag);
        // Intra-node broadcast of the finished result.
        for dst in leader + 1..node_end {
            c.send_f64s(dst, tag, buf);
        }
    } else {
        c.send_f64s(leader, tag, buf);
        recv_into(c, leader, tag, buf);
    }
}

/// Gather each rank's (possibly differently sized) vector to `root`,
/// concatenated in rank order. Returns `Some` on the root, `None`
/// elsewhere.
pub fn gather_f64s<C: PointToPoint + ?Sized>(
    c: &mut C,
    root: usize,
    mine: &[f64],
) -> Option<Vec<f64>> {
    let (p, me) = (c.size(), c.rank());
    let tag = c.coll_enter(fp(CollKind::Gather, Some(root), None, mine.len()));
    if me != root {
        c.send_f64s(root, tag, mine);
        return None;
    }
    let mut all = Vec::with_capacity(mine.len() * p);
    for src in 0..p {
        if src == me {
            all.extend_from_slice(mine);
        } else {
            all.extend_from_slice(&c.recv_f64s(src, tag));
        }
    }
    Some(all)
}

/// Allgather over a ring: every rank ends with every rank's vector
/// (`result[r]` is rank `r`'s contribution). Vectors may differ in length
/// across ranks.
pub fn allgather_f64s<C: PointToPoint + ?Sized>(c: &mut C, mine: &[f64]) -> Vec<Vec<f64>> {
    let (p, me) = (c.size(), c.rank());
    let tag = c.coll_enter(fp(CollKind::Allgather, None, None, mine.len()));
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); p];
    blocks[me] = mine.to_vec();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // Step s forwards the block received at step s - 1 (our own at s = 0).
    for step in 0..p - 1 {
        c.send_f64s(right, tag, &blocks[(me + p - step) % p]);
        blocks[(me + p - step - 1) % p] = c.recv_f64s(left, tag);
    }
    blocks
}

/// Scatter: `root` supplies one block per rank; every rank receives its
/// block. Non-roots must pass `None`.
///
/// A root providing a number of blocks different from the communicator
/// size, or a non-root providing data, fails as a collective mismatch.
pub fn scatter_f64s<C: PointToPoint + ?Sized>(
    c: &mut C,
    root: usize,
    blocks: Option<&[Vec<f64>]>,
) -> Vec<f64> {
    let (p, me) = (c.size(), c.rank());
    let tag = c.coll_enter(fp(CollKind::Scatter, Some(root), None, blocks.map_or(0, |b| b.len())));
    if me != root {
        if blocks.is_some() {
            c.mismatch("scatter non-root must pass None".into());
        }
        return c.recv_f64s(root, tag);
    }
    let blocks = match blocks {
        Some(b) if b.len() == p => b,
        Some(b) => c.mismatch(format!("scatter got {} blocks for {} ranks", b.len(), p)),
        None => c.mismatch("scatter root must supply blocks".into()),
    };
    for (dst, block) in blocks.iter().enumerate() {
        if dst != me {
            c.send_f64s(dst, tag, block);
        }
    }
    blocks[me].clone()
}

/// All-to-all personalized exchange: `send[d]` goes to rank `d`; returns
/// `recv` with `recv[s]` from rank `s`.
pub fn alltoall_f64s<C: PointToPoint + ?Sized>(c: &mut C, send: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let (p, me) = (c.size(), c.rank());
    if send.len() != p {
        c.mismatch(format!("alltoall got {} blocks for {} ranks", send.len(), p));
    }
    let tag = c.coll_enter(fp(CollKind::Alltoall, None, None, send.len()));
    let mut recv: Vec<Vec<f64>> = vec![Vec::new(); p];
    recv[me] = send[me].clone();
    // Pairwise exchange by offset; sends are buffered so the send-then-recv
    // order cannot deadlock.
    for offset in 1..p {
        let dst = (me + offset) % p;
        let src = (me + p - offset) % p;
        c.send_f64s(dst, tag, &send[dst]);
        recv[src] = c.recv_f64s(src, tag);
    }
    recv
}

/// Inclusive prefix reduction in rank order: rank `r` ends with the
/// reduction of ranks `0..=r`. Linear chain (deterministic order).
pub fn scan_f64s<C: PointToPoint + ?Sized>(c: &mut C, buf: &mut [f64], op: ReduceOp) {
    let (p, me) = (c.size(), c.rank());
    if p <= 1 {
        return;
    }
    let tag = c.coll_enter(fp(CollKind::Scan, None, Some(op), buf.len()));
    if me > 0 {
        // Keep rank order: result = reduce(prefix, mine).
        let mut acc = c.recv_f64s(me - 1, tag);
        check_len(c, buf.len(), acc.len(), me - 1);
        op.fold(&mut acc, buf);
        buf.copy_from_slice(&acc);
    }
    if me + 1 < p {
        c.send_f64s(me + 1, tag, buf);
    }
}

impl Comm {
    /// Synchronize all ranks; see [`barrier`].
    pub fn barrier(&mut self) {
        barrier(self);
    }

    /// Broadcast `buf` from `root`; see [`broadcast_f64s`].
    pub fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        broadcast_f64s(self, root, buf);
    }

    /// Broadcast a single `u64` from `root`; see [`broadcast_u64`].
    pub fn broadcast_u64(&mut self, root: usize, value: u64) -> u64 {
        broadcast_u64(self, root, value)
    }

    /// Reduce element-wise into `root`; see [`reduce_f64s`].
    pub fn reduce_f64s(&mut self, root: usize, buf: &mut [f64], op: ReduceOp) {
        reduce_f64s(self, root, buf, op);
    }

    /// Allreduce with the machine's default algorithm (see
    /// [`crate::cost::MachineSpec::allreduce`]).
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        let algo = self.machine().allreduce;
        allreduce_f64s_with(self, buf, op, algo);
    }

    /// Allreduce with an explicit algorithm; see [`allreduce_f64s_with`].
    pub fn allreduce_f64s_with(&mut self, buf: &mut [f64], op: ReduceOp, algo: AllreduceAlgo) {
        allreduce_f64s_with(self, buf, op, algo);
    }

    /// Allreduce of a single scalar; returns the reduced value.
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Non-blocking allreduce with the machine's default algorithm. See
    /// [`Comm::iallreduce_f64s_with`].
    pub fn iallreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) -> Request {
        self.iallreduce_f64s_with(buf, op, self.machine().allreduce)
    }

    /// Non-blocking allreduce with an explicit algorithm.
    ///
    /// The data movement runs *eagerly*: on return `buf` already holds the
    /// reduction, and the messages, collective fingerprint, and
    /// replication hash are exactly those of the blocking
    /// [`Comm::allreduce_f64s_with`] — so results are bitwise identical to
    /// the blocking call under every algorithm, and all verification
    /// layers see the same collective. What is deferred is *time*: the
    /// idle (wire) portion of the collective's cost is rolled off the
    /// clock and becomes the returned request's pending window, free to
    /// hide behind subsequent [`Comm::work`]. Endpoint overhead (LogGP
    /// `o`) stays on the CPU clock at post, and [`Comm::wait`] blocks only
    /// for whatever wire time was not hidden. Completions are clamped
    /// FIFO-monotone across posts on the same rank.
    pub fn iallreduce_f64s_with(
        &mut self,
        buf: &mut [f64],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Request {
        let idle0 = self.nb_idle_snapshot();
        allreduce_f64s_with(self, buf, op, algo);
        self.nb_retract(idle0)
    }

    /// Gather to `root` in rank order; see [`gather_f64s`].
    pub fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        gather_f64s(self, root, mine)
    }

    /// Allgather over a ring; see [`allgather_f64s`].
    pub fn allgather_f64s(&mut self, mine: &[f64]) -> Vec<Vec<f64>> {
        allgather_f64s(self, mine)
    }

    /// Scatter one block per rank from `root`; see [`scatter_f64s`].
    pub fn scatter_f64s(&mut self, root: usize, blocks: Option<&[Vec<f64>]>) -> Vec<f64> {
        scatter_f64s(self, root, blocks)
    }

    /// All-to-all personalized exchange; see [`alltoall_f64s`].
    pub fn alltoall_f64s(&mut self, send: &[Vec<f64>]) -> Vec<Vec<f64>> {
        alltoall_f64s(self, send)
    }

    /// Inclusive prefix reduction in rank order; see [`scan_f64s`].
    pub fn scan_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        scan_f64s(self, buf, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_applies_elementwise() {
        let mut a = vec![1.0, 2.0, 3.0];
        ReduceOp::Sum.fold(&mut a, &[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);

        let mut b = vec![1.0, 5.0];
        ReduceOp::Min.fold(&mut b, &[3.0, 2.0]);
        assert_eq!(b, vec![1.0, 2.0]);

        let mut c = vec![1.0, 5.0];
        ReduceOp::Max.fold(&mut c, &[3.0, 2.0]);
        assert_eq!(c, vec![3.0, 5.0]);

        let mut d = vec![2.0, 3.0];
        ReduceOp::Prod.fold(&mut d, &[4.0, 0.5]);
        assert_eq!(d, vec![8.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn fold_rejects_mismatched_lengths() {
        let mut a = vec![1.0];
        ReduceOp::Sum.fold(&mut a, &[1.0, 2.0]);
    }
}
