//! Backend-neutral linear-scan register allocation over [`VCode`].
//!
//! The allocator is the second stage of the backend pipeline: it consumes
//! the per-IR-position liveness summaries ([`PosInfo`]) lowering recorded,
//! computes live ranges, runs a linear scan with pinned parameter
//! registers, and returns an [`Allocation`]: every vreg's [`Storage`] plus
//! an explicit list of spill/reload [`Edit`]s keyed by virtual-instruction
//! index. Emission applies the edits mechanically — it never re-derives
//! spill decisions — so the allocator is the single authority on where
//! values live.
//!
//! The default backend's machine code is pinned byte-for-byte by golden
//! tests, so the allocator produces the same output as the one the
//! monolithic register backend used before the pipeline split: same live
//! ranges, same free-list discipline, same spill heuristic. Only the
//! construction changed. Vreg numbers are dense (lowering maps IR temps to
//! vregs one-to-one, below `IrFunction::next_temp`), so every per-vreg
//! table is a `Vec` indexed by vreg number, built in one pass over the
//! positions.
//!
//! Loop extension is solved per vreg. The old construction ran a global
//! fixpoint: for every back edge `(header, branch)`, extend the stop of
//! every vreg with `start <= branch`, `stop >= header` and `stop < branch`
//! to `branch`, and repeat until nothing changes. Each such update reads
//! and writes one vreg's own `(start, stop)` and nothing else, so a vreg's
//! final stop does not depend on any other vreg. Each update also only
//! raises the stop, and is monotone: from a larger stop it never yields a
//! smaller result than from a smaller one. Iterating monotone, raising
//! updates in any order reaches the least stop that no back edge extends
//! further, so the per-vreg solution (repeatedly jump to the farthest
//! branch that extends the current stop) equals the global fixpoint's. The old construction is
//! kept as a `#[cfg(test)]` reference, and a property test checks that
//! both allocations are equal.
//!
//! [`PosInfo`]: crate::vcode::PosInfo

use crate::ir::dense_entry;
use crate::vcode::{Storage, VCode, VInstruction, VReg};

/// A spill/reload edit the emission stage must insert around a virtual
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Before the instruction: load spill ordinal `spill` into register
    /// `to`. Reloads for one instruction are listed in operand evaluation
    /// order.
    Reload {
        /// Spill ordinal to load from.
        spill: u32,
        /// Scratch register to load into.
        to: u8,
    },
    /// After the instruction: store register `from` to spill ordinal
    /// `spill`.
    SpillStore {
        /// Spill ordinal to store to.
        spill: u32,
        /// Register holding the freshly computed value.
        from: u8,
    },
}

/// The allocator's output: vreg homes plus the edit list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allocation {
    /// Where every vreg lives, indexed by vreg number (`None` for numbers
    /// the function never mentions). Spills are numbered by ordinal in the
    /// order the scan created them.
    pub homes: Vec<Option<Storage>>,
    /// Number of spill ordinals allocated.
    pub spill_count: u32,
    /// Spill/reload edits, sorted by virtual-instruction index; within one
    /// index, reloads precede the spill store, in operand order.
    pub edits: Vec<(u32, Edit)>,
}

impl Allocation {
    /// The storage assigned to a vreg (`None` for vregs that never appear
    /// in the function's liveness — defensive, lowering records every use).
    pub fn home(&self, vreg: VReg) -> Option<Storage> {
        self.homes.get(vreg.0 as usize).copied().flatten()
    }

    /// Home `vreg` in `storage`.
    pub fn set_home(&mut self, vreg: VReg, storage: Storage) {
        *dense_entry(&mut self.homes, vreg.0) = Some(storage);
    }
}

/// Run linear-scan allocation over `vcode` with `allocatable` physical
/// registers (registers `0..allocatable`; anything above is scratch and
/// never assigned).
pub fn allocate<I: VInstruction>(vcode: &VCode<I>, allocatable: u8) -> Allocation {
    let mut allocation = Allocation::default();
    assign_homes(vcode, allocatable, &mut allocation);
    plan_edits(vcode, &mut allocation);
    allocation
}

/// Live-range construction and the linear scan itself.
fn assign_homes<I>(vcode: &VCode<I>, allocatable: u8, allocation: &mut Allocation) {
    let end = vcode.end_position();
    // `spans[v]` is vreg v's `(start, stop)`: the first position that
    // mentions it and the last position it must stay live at.
    let mut spans: Vec<Option<(usize, usize)>> = Vec::new();
    let mut mention = |v: VReg, at_pos: usize, live_to: usize| {
        let span = dense_entry(&mut spans, v.0);
        *span = Some(match *span {
            None => (at_pos, live_to),
            Some((start, stop)) => (start, stop.max(live_to)),
        });
    };
    for param in &vcode.params {
        mention(*param, 0, end);
    }
    let mut back_edges: Vec<(usize, usize)> = Vec::new();
    for (i, pos) in vcode.positions.iter().enumerate() {
        if let Some(d) = pos.def {
            mention(d, i, i);
        }
        for &u in vcode.uses_at(pos) {
            mention(u, i, i);
        }
        if let Some(t) = pos.dbg_use {
            // Debug-referenced vregs stay live to the end of the function so
            // their location descriptions remain valid.
            mention(t, i, end);
        }
        if let Some(t) = pos.branch_target {
            if t < i {
                back_edges.push((t, i));
            }
        }
    }
    // Loop back edges: a vreg live anywhere inside a loop must stay live
    // until the backward branch, otherwise a vreg defined later in the body
    // could take its register and clobber it on the next iteration. Solved
    // per vreg (see the module documentation).
    let mut ranges: Vec<(usize, VReg, usize)> = Vec::new();
    for (v, span) in spans.iter().enumerate() {
        let Some((start, mut stop)) = *span else {
            continue;
        };
        while let Some(branch) = back_edges
            .iter()
            .filter(|&&(header, branch)| start <= branch && stop >= header && stop < branch)
            .map(|&(_, branch)| branch)
            .max()
        {
            stop = branch;
        }
        ranges.push((start, VReg(v as u32), stop));
    }
    // Ranges are visited by start, then by vreg number.
    ranges.sort_unstable();
    allocation.homes = vec![None; spans.len()];

    let mut free: Vec<u8> = (0..allocatable).rev().collect();
    // Pre-colour parameters into the argument registers; they are pinned
    // (never spilled) because the calling convention delivers arguments
    // there.
    let pinned: Vec<VReg> = vcode.params.clone();
    let mut active: Vec<(usize, VReg, u8)> = Vec::new();
    for (i, param) in vcode.params.iter().enumerate() {
        let reg = i as u8;
        free.retain(|r| *r != reg);
        allocation.set_home(*param, Storage::Reg(reg));
        active.push((end, *param, reg));
    }
    for (start, vreg, stop) in ranges {
        if allocation.home(vreg).is_some() {
            continue;
        }
        // Expire old intervals.
        active.retain(|&(a_end, _, a_reg)| {
            if a_end < start {
                free.push(a_reg);
            }
            a_end >= start
        });
        if let Some(reg) = free.pop() {
            allocation.set_home(vreg, Storage::Reg(reg));
            active.push((stop, vreg, reg));
        } else {
            // Spill: prefer to spill the spillable active interval that
            // ends last (never a pinned parameter).
            active.sort_by_key(|(e, _, _)| *e);
            let victim_index = active.iter().rposition(|(_, v, _)| !pinned.contains(v));
            let spill_self = match victim_index {
                Some(vi) => active[vi].0 < stop,
                None => true,
            };
            let ordinal = allocation.spill_count;
            allocation.spill_count += 1;
            if spill_self {
                allocation.set_home(vreg, Storage::Spill(ordinal));
            } else {
                let (_, victim, reg) = active.remove(victim_index.expect("victim exists"));
                allocation.set_home(victim, Storage::Spill(ordinal));
                allocation.set_home(vreg, Storage::Reg(reg));
                active.push((stop, vreg, reg));
            }
        }
    }
}

/// Walk the virtual instructions and record the reload/spill-store edits
/// their operand constraints require for spilled vregs.
fn plan_edits<I: VInstruction>(vcode: &VCode<I>, allocation: &mut Allocation) {
    for (i, vinst) in vcode.insts.iter().enumerate() {
        vinst.inst.visit_uses(&mut |vreg, reload_into| {
            if let (Some(Storage::Spill(spill)), Some(to)) = (allocation.home(vreg), reload_into) {
                allocation
                    .edits
                    .push((i as u32, Edit::Reload { spill, to }));
            }
        });
        if let Some(def) = vinst.inst.def() {
            if def.store_after {
                if let Some(Storage::Spill(spill)) = allocation.home(def.vreg) {
                    allocation.edits.push((
                        i as u32,
                        Edit::SpillStore {
                            spill,
                            from: def.scratch,
                        },
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! The pre-rewrite live-range construction and scan, kept as the
    //! differential reference for [`super::allocate`]: hashed interval
    //! tables and the global back-edge fixpoint.
    #![allow(clippy::all)]

    use std::collections::HashMap;

    use super::{plan_edits, Allocation};
    use crate::vcode::{Storage, VCode, VInstruction, VReg};

    /// [`super::allocate`], with the reference construction.
    pub(crate) fn allocate<I: VInstruction>(vcode: &VCode<I>, allocatable: u8) -> Allocation {
        let mut homes: HashMap<VReg, Storage> = HashMap::new();
        let mut allocation = Allocation::default();
        assign_homes(vcode, allocatable, &mut homes, &mut allocation.spill_count);
        for (vreg, storage) in homes {
            allocation.set_home(vreg, storage);
        }
        plan_edits(vcode, &mut allocation);
        allocation
    }

    fn assign_homes<I>(
        vcode: &VCode<I>,
        allocatable: u8,
        homes: &mut HashMap<VReg, Storage>,
        spill_count: &mut u32,
    ) {
        let end = vcode.end_position();
        let mut first_def: HashMap<VReg, usize> = HashMap::new();
        let mut last_use: HashMap<VReg, usize> = HashMap::new();
        for param in &vcode.params {
            first_def.insert(*param, 0);
            last_use.insert(*param, end);
        }
        let extend = |map: &mut HashMap<VReg, usize>, v: VReg, i: usize| {
            let entry = map.entry(v).or_insert(i);
            *entry = (*entry).max(i);
        };
        for (i, pos) in vcode.positions.iter().enumerate() {
            if let Some(d) = pos.def {
                first_def.entry(d).or_insert(i);
                extend(&mut last_use, d, i);
            }
            for &u in vcode.uses_at(pos) {
                first_def.entry(u).or_insert(i);
                extend(&mut last_use, u, i);
            }
            if let Some(t) = pos.dbg_use {
                first_def.entry(t).or_insert(i);
                extend(&mut last_use, t, end);
            }
        }
        let mut back_edges: Vec<(usize, usize)> = Vec::new();
        for (i, pos) in vcode.positions.iter().enumerate() {
            if let Some(t) = pos.branch_target {
                if t < i {
                    back_edges.push((t, i));
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &(header, branch) in &back_edges {
                for (vreg, start) in first_def.iter() {
                    let stop = last_use.get(vreg).copied().unwrap_or(*start);
                    if *start <= branch && stop >= header && stop < branch {
                        last_use.insert(*vreg, branch);
                        changed = true;
                    }
                }
            }
        }
        let mut ranges: Vec<(VReg, usize, usize)> = first_def
            .iter()
            .map(|(v, start)| (*v, *start, *last_use.get(v).unwrap_or(start)))
            .collect();
        ranges.sort_by_key(|(v, start, _)| (*start, v.0));

        let mut free: Vec<u8> = (0..allocatable).rev().collect();
        let pinned: Vec<VReg> = vcode.params.clone();
        let mut active: Vec<(usize, VReg, u8)> = Vec::new();
        for (i, param) in vcode.params.iter().enumerate() {
            let reg = i as u8;
            free.retain(|r| *r != reg);
            homes.insert(*param, Storage::Reg(reg));
            active.push((end, *param, reg));
        }
        for (vreg, start, stop) in ranges {
            if homes.contains_key(&vreg) {
                continue;
            }
            let mut still_active = Vec::new();
            for (a_end, a_vreg, a_reg) in active.drain(..) {
                if a_end < start {
                    free.push(a_reg);
                } else {
                    still_active.push((a_end, a_vreg, a_reg));
                }
            }
            active = still_active;
            if let Some(reg) = free.pop() {
                homes.insert(vreg, Storage::Reg(reg));
                active.push((stop, vreg, reg));
            } else {
                active.sort_by_key(|(e, _, _)| *e);
                let victim_index = active.iter().rposition(|(_, v, _)| !pinned.contains(v));
                let spill_self = match victim_index {
                    Some(vi) => active[vi].0 < stop,
                    None => true,
                };
                if spill_self {
                    let ordinal = *spill_count;
                    *spill_count += 1;
                    homes.insert(vreg, Storage::Spill(ordinal));
                } else {
                    let (_, victim, reg) = active.remove(victim_index.expect("victim exists"));
                    let ordinal = *spill_count;
                    *spill_count += 1;
                    homes.insert(victim, Storage::Spill(ordinal));
                    homes.insert(vreg, Storage::Reg(reg));
                    active.push((stop, vreg, reg));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::{PosInfo, VDef};

    /// A virtual instruction with no operands: these tests drive the
    /// allocator through position summaries alone.
    struct NoOperands;

    impl VInstruction for NoOperands {
        fn visit_uses(&self, _: &mut dyn FnMut(VReg, Option<u8>)) {}

        fn def(&self) -> Option<VDef> {
            None
        }
    }

    fn vcode(positions: Vec<PosInfo>) -> VCode<NoOperands> {
        VCode {
            name: "f".into(),
            decl_line: 1,
            insts: Vec::new(),
            positions,
            position_uses: Vec::new(),
            params: Vec::new(),
            local_slots: 0,
            base_address: 0,
        }
    }

    #[test]
    fn loop_extension_follows_chains_of_back_edges() {
        // Back edges (2, 6) and (5, 9). v0 lives at 3 only: the first edge
        // extends it to 6, which the second edge then extends to 9. So v1,
        // defined at 7, must not take v0's register.
        let mut positions = vec![PosInfo::default(); 10];
        positions[3].def = Some(VReg(0));
        positions[6].branch_target = Some(2);
        positions[7].def = Some(VReg(1));
        positions[9].branch_target = Some(5);
        let code = vcode(positions);
        let allocation = allocate(&code, 4);
        assert_eq!(allocation, reference::allocate(&code, 4));
        assert_eq!(allocation.home(VReg(0)), Some(Storage::Reg(0)));
        assert_eq!(allocation.home(VReg(1)), Some(Storage::Reg(1)));
    }

    #[test]
    fn homes_are_dense_by_vreg_number() {
        let mut positions = vec![PosInfo::default(); 3];
        positions[0].def = Some(VReg(4));
        positions[1].dbg_use = Some(VReg(2));
        let code = vcode(positions);
        let allocation = allocate(&code, 4);
        assert_eq!(allocation, reference::allocate(&code, 4));
        assert_eq!(allocation.homes.len(), 5);
        assert_eq!(allocation.home(VReg(3)), None);
        assert_eq!(allocation.home(VReg(9)), None);
    }
}
