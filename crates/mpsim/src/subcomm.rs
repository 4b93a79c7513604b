//! Sub-communicators: the `MPI_Comm_split` analogue, one generic group
//! type for every backend.
//!
//! [`Group::split_world`] partitions a world communicator by a `color`;
//! ranks sharing a color form a group with dense ranks `0..group size`
//! ordered by world rank, and [`Group::split`] does the same to a group.
//! A [`Group`] borrows its world communicator and is itself a
//! [`PointToPoint`] endpoint (group ranks mapped to world ranks, a
//! disjoint tag space), so group collectives run the very schedules of
//! [`crate::collectives`]. [`SubComm`] is the simulator's instance;
//! `shmcomm::NativeSubComm` is the native backend's.
//!
//! As with MPI, `split` is itself collective: every rank of the parent
//! communicator must call it (with whatever color), in the same relative
//! order with respect to other collectives.

use crate::collectives::{self, PointToPoint, ReduceOp};
use crate::comm::Comm;
use crate::cost::{AllreduceAlgo, MachineSpec};
use crate::traits::{Communicator, GroupCommunicator};
use crate::verify::CollFingerprint;

/// Tag-space marker for sub-communicator traffic (bit 63).
const SUB_TAG_BASE: u64 = 1 << 63;

/// Marker bit (bit 30 of the color key) for groups formed by splitting a
/// group — keeps a nested group's tags and verifier registry ids disjoint
/// from every first-level split's, whatever colors are used.
const NESTED_COLOR_BIT: u32 = 1 << 30;

/// The color key a nested group stamps into its tag space: parent and
/// child colors packed side by side (15 bits each) under the nested
/// marker bit. Two levels of splitting with colors below 2^15 are
/// supported — far beyond the fleet hierarchy's needs.
fn nested_color_key(parent: u32, child: u32) -> u32 {
    NESTED_COLOR_BIT | ((parent & 0x7FFF) << 15) | (child & 0x7FFF)
}

/// What a world communicator provides to the [`Group`]s split from it:
/// the collective sequence a split derives the group's registry id from,
/// and the verification hooks scoped to a group. `comm_id` names the
/// group in the verifier's registries, `seq` is the group's collective
/// sequence number and `group` its size.
pub trait GroupHost: Communicator {
    /// Sequence number of the last world collective entered.
    fn coll_seq(&self) -> u64;
    /// Cross-check a group collective's fingerprint (no-op unless the
    /// backend verifies collectives).
    fn check_collective_in(&mut self, comm_id: u64, seq: u64, group: usize, fp: CollFingerprint);
    /// Hash a group collective's replicated result and cross-check it
    /// within the group (no-op unless replication checking is on).
    fn check_replicated_in(
        &mut self,
        comm_id: u64,
        seq: u64,
        group: usize,
        label: &str,
        buf: &[f64],
    );
}

/// A communicator over a subset of the world's ranks.
pub struct Group<'a, W> {
    world: &'a mut W,
    /// World ranks of the members, ascending; index = group rank.
    members: Vec<usize>,
    /// This rank's position within `members`.
    rank: usize,
    /// Color key the group was formed with (part of the tag space).
    color: u32,
    /// Per-group collective sequence number.
    seq: u64,
    /// Registry id for the verifier: distinguishes this group from the
    /// world communicator and from groups of other splits/colors.
    comm_id: u64,
}

/// The simulator's group communicator.
pub type SubComm<'a> = Group<'a, Comm>;

/// The ranks (in `colors`' indexing) that chose `color`, and this rank's
/// position among them.
fn same_color(colors: impl Iterator<Item = f64>, color: u32, me: usize) -> (Vec<usize>, usize) {
    let members: Vec<usize> =
        colors.enumerate().filter(|(_, c)| *c as u32 == color).map(|(r, _)| r).collect();
    let rank = members
        .iter()
        .position(|&r| r == me)
        // lint:allow(unwrap): the exchange included this rank's own color
        .expect("calling rank is in its own color group");
    (members, rank)
}

impl<'a, W: GroupHost> Group<'a, W> {
    /// Split the world communicator by color: ranks passing equal colors
    /// form a group. Collective over the world communicator (an allgather
    /// of the colors).
    pub fn split_world(world: &'a mut W, color: u32) -> Self {
        let all = collectives::allgather_f64s(world, &[f64::from(color)]);
        let (members, rank) = same_color(all.iter().map(|c| c[0]), color, world.rank());
        // All members observed the same split allgather, so they agree on
        // the world collective sequence number and derive the same id;
        // including it keeps successive same-color splits distinct in the
        // verifier's registry.
        let comm_id = SUB_TAG_BASE | (u64::from(color) << 32) | world.coll_seq();
        Group { world, members, rank, color, seq: 0, comm_id }
    }

    /// Split this group by color: members passing equal colors form a
    /// nested group (`MPI_Comm_split` on a non-world communicator), with
    /// dense ranks ordered by parent group rank. The membership exchange
    /// runs as a group gather + broadcast. Collective over this group.
    pub fn split(&mut self, color: u32) -> Group<'_, W> {
        let mut all = vec![0.0; self.size()];
        if let Some(gathered) = self.gather_f64s(0, &[f64::from(color)]) {
            all.copy_from_slice(&gathered);
        }
        self.broadcast_f64s(0, &mut all);
        let (members_sub, rank) = same_color(all.into_iter(), color, self.rank);
        // Child membership in *world* ranks, so the nested group talks
        // straight over the world communicator like any first-level group.
        let members = members_sub.iter().map(|&r| self.members[r]).collect();
        let key = nested_color_key(self.color, color);
        // All members agree on the parent's collective sequence here (they
        // just ran the same gather + broadcast), so they derive the same
        // registry id; including it keeps successive same-color nested
        // splits distinct in the verifier's registry.
        let comm_id = SUB_TAG_BASE | (u64::from(key) << 32) | self.seq;
        Group { world: &mut *self.world, members, rank, color: key, seq: 0, comm_id }
    }

    /// This rank's id within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World ranks of the group, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Access the underlying world communicator.
    pub fn world(&mut self) -> &mut W {
        self.world
    }

    /// Account local compute on the member's world clock, so group-local
    /// algorithms (e.g. a shrunk EM resume after a rank failure) read
    /// naturally without reaching for [`Group::world`] on every step.
    pub fn work(&mut self, ops: u64) {
        self.world.work(ops);
    }

    /// Synchronize the group (dissemination barrier over group ranks).
    pub fn barrier(&mut self) {
        collectives::barrier(self);
    }

    /// Broadcast from the group-rank `root` to the group (binomial tree).
    pub fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        collectives::broadcast_f64s(self, root, buf);
    }

    /// Allreduce over the group. Always recursive doubling: group sizes
    /// are small and ragged (fleets, survivors), where its `log2 P` full-
    /// vector rounds beat the bandwidth-optimal schedules, and one fixed
    /// schedule keeps group results independent of the world machine's
    /// algorithm setting.
    pub fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        collectives::allreduce_f64s_with(self, buf, op, AllreduceAlgo::RecursiveDoubling);
    }

    /// Allreduce of a single scalar over the group.
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        let mut buf = [value];
        self.allreduce_f64s(&mut buf, op);
        buf[0]
    }

    /// Gather variable-length vectors to the group-rank `root`,
    /// concatenated in group-rank order. `Some` on the root.
    pub fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        collectives::gather_f64s(self, root, mine)
    }
}

impl<W: GroupHost> PointToPoint for Group<'_, W> {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.members.len()
    }
    fn machine(&self) -> &MachineSpec {
        self.world.machine()
    }
    fn send_f64s(&mut self, dst: usize, tag: u64, values: &[f64]) {
        self.world.send_f64s(self.members[dst], tag, values);
    }
    fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        self.world.recv_f64s(self.members[src], tag)
    }
    /// Allocate the next group tag and cross-check the fingerprint
    /// against the other members (world-rank labelled, so divergence
    /// reports stay unambiguous). World collective counters are untouched.
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64 {
        self.seq += 1;
        let (id, seq, n) = (self.comm_id, self.seq, self.members.len());
        self.world.check_collective_in(id, seq, n, fp);
        SUB_TAG_BASE | (u64::from(self.color) << 32) | seq
    }
    fn check_replicated_result(&mut self, label: &str, buf: &[f64]) {
        let (id, seq, n) = (self.comm_id, self.seq, self.members.len());
        self.world.check_replicated_in(id, seq, n, label, buf);
    }
    fn mismatch(&self, detail: String) -> ! {
        self.world.mismatch(detail)
    }
}

impl<W: GroupHost> GroupCommunicator for Group<'_, W> {
    type Child<'c>
        = Group<'c, W>
    where
        Self: 'c;

    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.members.len()
    }
    fn members(&self) -> &[usize] {
        &self.members
    }
    fn work(&mut self, ops: u64) {
        self.world.work(ops);
    }
    fn enter_phase(&mut self, name: &str) {
        self.world.enter_phase(name);
    }
    fn exit_phase(&mut self) {
        self.world.exit_phase();
    }
    fn barrier(&mut self) {
        Group::barrier(self);
    }
    fn broadcast_f64s(&mut self, root: usize, buf: &mut [f64]) {
        Group::broadcast_f64s(self, root, buf);
    }
    fn allreduce_f64s(&mut self, buf: &mut [f64], op: ReduceOp) {
        Group::allreduce_f64s(self, buf, op);
    }
    fn gather_f64s(&mut self, root: usize, mine: &[f64]) -> Option<Vec<f64>> {
        Group::gather_f64s(self, root, mine)
    }
    fn split(&mut self, color: u32) -> Group<'_, W> {
        Group::split(self, color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::presets;
    use crate::engine::run_spmd_default;

    #[test]
    fn split_forms_dense_groups() {
        let spec = presets::zero_cost(7);
        let out = run_spmd_default(&spec, |c| {
            let color = (c.rank() % 2) as u32;
            let sub = c.split(color);
            (color, sub.rank(), sub.size(), sub.members().to_vec())
        })
        .unwrap();
        // Even group: world ranks 0,2,4,6; odd group: 1,3,5.
        for (rank, (color, sub_rank, size, members)) in out.per_rank.iter().enumerate() {
            if *color == 0 {
                assert_eq!(*size, 4);
                assert_eq!(*members, vec![0, 2, 4, 6]);
                assert_eq!(*sub_rank, rank / 2);
            } else {
                assert_eq!(*size, 3);
                assert_eq!(*members, vec![1, 3, 5]);
                assert_eq!(*sub_rank, rank / 2);
            }
        }
    }

    #[test]
    fn group_allreduce_stays_within_the_group() {
        let spec = presets::zero_cost(6);
        let out = run_spmd_default(&spec, |c| {
            let color = (c.rank() % 2) as u32;
            let mut sub = c.split(color);
            let mut buf = vec![1.0];
            sub.allreduce_f64s(&mut buf, ReduceOp::Sum);
            buf[0]
        })
        .unwrap();
        // Each group has 3 members; sums must not leak across groups.
        assert!(out.per_rank.iter().all(|&v| v == 3.0), "{:?}", out.per_rank);
    }

    #[test]
    fn group_broadcast_and_gather() {
        let spec = presets::zero_cost(5);
        let out = run_spmd_default(&spec, |c| {
            let color = u32::from(c.rank() >= 2); // {0,1} and {2,3,4}
            let mut sub = c.split(color);
            let mut buf = vec![0.0];
            if sub.rank() == 0 {
                buf[0] = 100.0 + f64::from(color);
            }
            sub.broadcast_f64s(0, &mut buf);
            let gathered = sub.gather_f64s(0, &[sub.rank() as f64]);
            (buf[0], gathered)
        })
        .unwrap();
        for (rank, (b, g)) in out.per_rank.iter().enumerate() {
            let color = usize::from(rank >= 2);
            assert_eq!(*b, 100.0 + color as f64, "rank {rank}");
            if rank == 0 {
                assert_eq!(g.as_deref(), Some(&[0.0, 1.0][..]));
            } else if rank == 2 {
                assert_eq!(g.as_deref(), Some(&[0.0, 1.0, 2.0][..]));
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn group_barrier_and_world_collectives_interleave() {
        // Sub-collectives must not corrupt world collectives run after.
        let spec = presets::zero_cost(4);
        let out = run_spmd_default(&spec, |c| {
            {
                let mut sub = c.split((c.rank() / 2) as u32);
                sub.barrier();
                let mut v = vec![sub.rank() as f64];
                sub.allreduce_f64s(&mut v, ReduceOp::Sum);
                assert_eq!(v[0], 1.0); // 0 + 1 within each pair
            }
            c.allreduce_scalar(1.0, ReduceOp::Sum)
        })
        .unwrap();
        assert!(out.per_rank.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn nested_split_forms_dense_groups() {
        // World {0..8} -> halves by rank/4 -> pairs by (rank/2)%2.
        let spec = presets::zero_cost(8);
        let out = run_spmd_default(&spec, |c| {
            let inner_color = ((c.rank() / 2) % 2) as u32;
            let mut sub = c.split((c.rank() / 4) as u32);
            let mut inner = sub.split(inner_color);
            let mut v = vec![inner.members()[inner.rank()] as f64];
            inner.allreduce_f64s(&mut v, ReduceOp::Sum);
            (inner.rank(), inner.size(), inner.members().to_vec(), v[0])
        })
        .unwrap();
        for (rank, (sub_rank, size, members, sum)) in out.per_rank.iter().enumerate() {
            // Pairs {0,1},{2,3},{4,5},{6,7} in world ranks.
            let base = rank - rank % 2;
            assert_eq!(*size, 2, "rank {rank}");
            assert_eq!(*members, vec![base, base + 1], "rank {rank}");
            assert_eq!(*sub_rank, rank % 2, "rank {rank}");
            assert_eq!(*sum, (base + base + 1) as f64, "rank {rank}");
        }
    }

    #[test]
    fn nested_split_ragged_groups_and_world_interleave() {
        // World of 7 -> {0,1,2,3} / {4,5,6} -> inner ragged splits; then a
        // world collective must still line up.
        let spec = presets::zero_cost(7);
        let out = run_spmd_default(&spec, |c| {
            let me = c.rank();
            let inner_sum = {
                let mut sub = c.split(u32::from(me >= 4));
                let inner_color = u32::from(sub.rank() == 0);
                let mut inner = sub.split(inner_color);
                inner.barrier();
                let mut v = vec![1.0];
                inner.allreduce_f64s(&mut v, ReduceOp::Sum);
                let gathered = inner.gather_f64s(0, &[me as f64]);
                if let Some(g) = &gathered {
                    assert_eq!(g.len(), inner.size());
                }
                v[0]
            };
            (inner_sum, c.allreduce_scalar(1.0, ReduceOp::Sum))
        })
        .unwrap();
        for (rank, (inner_sum, world_sum)) in out.per_rank.iter().enumerate() {
            // Group {0,1,2,3}: inner groups {0} and {1,2,3}; group
            // {4,5,6}: inner groups {4} and {5,6}.
            let expect = match rank {
                0 | 4 => 1.0,
                1..=3 => 3.0,
                _ => 2.0,
            };
            assert_eq!(*inner_sum, expect, "rank {rank}");
            assert_eq!(*world_sum, 7.0, "rank {rank}");
        }
    }

    #[test]
    fn singleton_groups_are_fine() {
        let spec = presets::zero_cost(3);
        let out = run_spmd_default(&spec, |c| {
            let mut sub = c.split(c.rank() as u32); // every rank alone
            sub.barrier();
            let mut v = vec![7.0];
            sub.allreduce_f64s(&mut v, ReduceOp::Sum);
            (sub.size(), v[0])
        })
        .unwrap();
        assert!(out.per_rank.iter().all(|&(s, v)| s == 1 && v == 7.0));
    }
}
