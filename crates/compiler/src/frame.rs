//! Frame layout: how a function's stack frame is organised after register
//! allocation.
//!
//! The emission stage builds one [`FrameLayout`] per function from the
//! allocator's output and the backend's [`FrameAbi`]. The layout answers
//! every "which slot?" question emission and debug information have:
//!
//! ```text
//!   slot 0 .. locals                  — source-level locals (IR slots)
//!   locals .. locals+spills           — register-allocator spill slots
//!   locals+spills .. total            — callee-saved register save area
//! ```
//!
//! Under [`FrameAbi::Banked`] (the default register backend) the save area
//! is empty and no prologue/epilogue exists: the VM banks a fresh register
//! file per call, so nothing needs saving, and spill slots are described to
//! the debugger as plain frame slots. Under [`FrameAbi::Saved`] (the
//! `frame` backend) the callee-saved registers a function actually uses are
//! stored to the save area in the prologue and restored before every
//! return, and spilled variables are described frame-base-relative
//! (`DW_OP_fbreg`-style) — the layout that makes the `DW_CFA`-style defect
//! class expressible.

use crate::regalloc::Allocation;
use crate::vcode::Storage;

/// The frame convention a backend emits under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAbi {
    /// Register files are banked per call frame: no callee-saved set, no
    /// prologue/epilogue. The default register backend's convention.
    Banked,
    /// Registers `callee_saved_first..allocatable` are callee-saved: a
    /// function that assigns any of them must save them to the frame's
    /// save area in its prologue and restore them before returning.
    Saved {
        /// First callee-saved register number.
        callee_saved_first: u8,
        /// Exclusive upper bound of the allocatable register file.
        allocatable: u8,
    },
}

/// The concrete frame layout of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// Slots occupied by source-level locals (IR slots), laid out first.
    pub locals: u32,
    /// Number of spill slots following the locals.
    pub spill_count: u32,
    /// Callee-saved registers this function assigns, in ascending register
    /// order; each gets one save slot after the spill area. Empty under
    /// [`FrameAbi::Banked`].
    pub saved: Vec<u8>,
}

impl FrameLayout {
    /// Lay out the frame of a function with `locals` local slots whose
    /// register allocation is `allocation`, under `abi`.
    pub fn new(abi: FrameAbi, locals: u32, allocation: &Allocation) -> FrameLayout {
        let saved = match abi {
            FrameAbi::Banked => Vec::new(),
            FrameAbi::Saved {
                callee_saved_first,
                allocatable,
            } => {
                let mut used: Vec<u8> = allocation
                    .homes
                    .iter()
                    .flatten()
                    .filter_map(|home| match home {
                        Storage::Reg(r) if (callee_saved_first..allocatable).contains(r) => {
                            Some(*r)
                        }
                        _ => None,
                    })
                    .collect();
                used.sort_unstable();
                used.dedup();
                used
            }
        };
        FrameLayout {
            locals,
            spill_count: allocation.spill_count,
            saved,
        }
    }

    /// The frame slot of spill ordinal `ordinal`.
    pub fn spill_slot(&self, ordinal: u32) -> u32 {
        self.locals + ordinal
    }

    /// The frame slot saving the `index`-th callee-saved register of
    /// [`FrameLayout::saved`].
    pub fn save_slot(&self, index: usize) -> u32 {
        self.locals + self.spill_count + index as u32
    }

    /// The save slot of callee-saved register `reg`, if this function
    /// saves it.
    pub fn save_slot_of(&self, reg: u8) -> Option<u32> {
        self.saved
            .iter()
            .position(|r| *r == reg)
            .map(|index| self.save_slot(index))
    }

    /// Total frame slots (locals + spills + save area) — the machine
    /// function's `frame_slots`.
    pub fn total_slots(&self) -> u32 {
        self.locals + self.spill_count + self.saved.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::VReg;

    #[test]
    fn banked_frames_have_no_save_area() {
        let mut allocation = Allocation::default();
        allocation.set_home(VReg(0), Storage::Reg(7));
        allocation.set_home(VReg(1), Storage::Spill(0));
        allocation.spill_count = 1;
        let layout = FrameLayout::new(FrameAbi::Banked, 3, &allocation);
        assert!(layout.saved.is_empty());
        assert_eq!(layout.spill_slot(0), 3);
        assert_eq!(layout.total_slots(), 4);
    }

    #[test]
    fn saved_abi_collects_used_callee_saved_registers_in_order() {
        let mut allocation = Allocation::default();
        allocation.set_home(VReg(0), Storage::Reg(8));
        allocation.set_home(VReg(1), Storage::Reg(5));
        allocation.set_home(VReg(2), Storage::Reg(5));
        allocation.set_home(VReg(3), Storage::Reg(2));
        allocation.set_home(VReg(4), Storage::Spill(0));
        allocation.set_home(VReg(5), Storage::Spill(1));
        allocation.spill_count = 2;
        let abi = FrameAbi::Saved {
            callee_saved_first: 5,
            allocatable: 9,
        };
        let layout = FrameLayout::new(abi, 2, &allocation);
        assert_eq!(layout.saved, vec![5, 8]);
        assert_eq!(layout.spill_slot(1), 3);
        assert_eq!(layout.save_slot(0), 4);
        assert_eq!(layout.save_slot_of(8), Some(5));
        assert_eq!(layout.save_slot_of(6), None);
        assert_eq!(layout.total_slots(), 6);
    }
}
