//! The ISA-agnostic virtual-register code container (`VCode`).
//!
//! This is the middle layer of the Cranelift-style backend pipeline
//!
//! ```text
//!   IR ──lowering──▶ VCode<I> ──regalloc──▶ Allocation ──emission──▶ machine code
//! ```
//!
//! Per-ISA *lowering* turns each IR instruction into one or more virtual
//! instructions (`I`) over virtual registers ([`VReg`]), wrapped in a
//! [`VInst`] that carries the source line, lexical scope and statement flag
//! the line table will need. The backend-neutral allocator
//! ([`crate::regalloc`]) never inspects `I` itself: liveness is summarised
//! per *IR position* in [`PosInfo`] (one entry per IR instruction, recorded
//! by lowering), and the per-instruction operand constraints it needs to
//! plan spill/reload edits are exposed through the [`VInstruction`] trait.
//!
//! Keeping liveness at IR-position granularity (rather than per virtual
//! instruction) is a deliberate compatibility decision: however many
//! machine instructions an IR operation lowers to, its temps interfere at
//! exactly one position — so every backend that lowers the same IR computes
//! the same live ranges and therefore the same assignments.

use std::ops::Range;

use crate::ir::ScopeId;

/// A virtual register: the unit the register allocator assigns a physical
/// register or spill slot to. Lowering maps IR temps to virtual registers
/// one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

/// Where the allocator homed a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// A physical register.
    Reg(u8),
    /// Spill ordinal `n` (the *n*-th spill the scan created, 0-based). The
    /// frame layout ([`crate::frame::FrameLayout::spill_slot`]) maps
    /// ordinals to concrete frame slots.
    Spill(u32),
}

/// The definition constraint of a virtual instruction: which virtual
/// register it writes, the scratch register the value is computed into when
/// the vreg is spilled, and whether this instruction is the one after which
/// a spilled definition must be stored back to its slot (multi-instruction
/// lowerings set the flag only on the final instruction of the group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VDef {
    /// The virtual register defined.
    pub vreg: VReg,
    /// Scratch register a spilled definition is computed into.
    pub scratch: u8,
    /// Whether a spill store edit belongs after this instruction.
    pub store_after: bool,
}

/// The operand-constraint interface the backend-neutral allocator uses to
/// plan explicit spill/reload edits without knowing the ISA.
pub trait VInstruction {
    /// Visit every virtual-register use in evaluation order. `reload_into`
    /// is `Some(scratch)` when a spilled value must be reloaded into that
    /// scratch register before the instruction executes, `None` when the
    /// instruction can consume the spill slot directly (e.g. call
    /// arguments on ISAs with memory operands).
    fn visit_uses(&self, visit: &mut dyn FnMut(VReg, Option<u8>));

    /// The definition constraint, if the instruction defines a vreg.
    fn def(&self) -> Option<VDef>;
}

/// One lowered virtual instruction plus the source metadata emission needs
/// for the line table and scope map.
#[derive(Debug, Clone)]
pub struct VInst<I> {
    /// The ISA-specific virtual instruction.
    pub inst: I,
    /// Source line.
    pub line: u32,
    /// Lexical scope.
    pub scope: ScopeId,
    /// Whether the machine instruction this lowers to starts a source
    /// statement (the line table's `is_stmt` flag). Spill/reload edits
    /// inserted around it are never statements.
    pub is_stmt: bool,
}

/// The liveness summary of one IR position: which vregs the IR instruction
/// at that position defines, uses, and keeps observable for debug info, and
/// where its branch (if any) targets. Lowering records one entry per IR
/// instruction; the allocator computes live ranges from these alone.
#[derive(Debug, Clone, Default)]
pub struct PosInfo {
    /// The vreg defined at this position, if any.
    pub def: Option<VReg>,
    /// The vregs used at this position, as a range of
    /// [`VCode::position_uses`] (see [`VCode::uses_at`]).
    pub uses: Range<usize>,
    /// A vreg referenced by a debug binding at this position: it must stay
    /// allocated (live to the end of the function) so the variable's
    /// location remains valid — mirroring how the unoptimized baseline
    /// keeps every variable observable.
    pub dbg_use: Option<VReg>,
    /// For branches, the IR position of the target label (used to detect
    /// loop back edges).
    pub branch_target: Option<usize>,
}

/// A function lowered to virtual-register code, ready for register
/// allocation and emission.
#[derive(Debug, Clone)]
pub struct VCode<I> {
    /// Function name.
    pub name: String,
    /// Declaration line (prologue instructions are attributed to it).
    pub decl_line: u32,
    /// The lowered virtual instructions, in emission order.
    pub insts: Vec<VInst<I>>,
    /// Per-IR-position liveness summaries (one per IR instruction).
    pub positions: Vec<PosInfo>,
    /// The used vregs of every position, concatenated in position order.
    pub position_uses: Vec<VReg>,
    /// Parameter vregs in argument order; the calling convention pins them
    /// to the first argument registers.
    pub params: Vec<VReg>,
    /// Frame slots the function's locals occupy before any spill slots.
    pub local_slots: u32,
    /// Base code address of the function.
    pub base_address: u64,
}

impl<I> VCode<I> {
    /// The position count — the exclusive upper bound of live ranges
    /// (debug-referenced vregs are extended to it).
    pub fn end_position(&self) -> usize {
        self.positions.len()
    }

    /// The vregs used at a position.
    pub fn uses_at(&self, pos: &PosInfo) -> &[VReg] {
        &self.position_uses[pos.uses.clone()]
    }
}
