//! Code generation for the register-file ISA, structured as the pipeline
//!
//! ```text
//!   IR ──lowering──▶ VCode<RInst> ──regalloc──▶ Allocation ──emission──▶ MInst
//! ```
//!
//! *Lowering* (`lower_function`) turns each IR instruction into one or
//! more virtual instructions (`RInst`) over virtual registers and records
//! the per-position liveness summary the backend-neutral allocator
//! ([`crate::regalloc`]) consumes. *Emission* applies the allocator's
//! explicit spill/reload edits, lays out the frame ([`crate::frame`]), and
//! produces runnable [`MachineProgram`] code together with the
//! backend-neutral `DebugArtifacts` every backend hands to the shared
//! debug-information emitter (`emit_debug_info`): DWARF-style variable
//! DIEs with `DW_AT_location` location lists or `DW_AT_const_value`
//! attributes, and the line table — the raw material of every experiment in
//! the paper.
//!
//! The same pipeline serves two frame conventions ([`FrameAbi`]):
//!
//! * [`codegen`] — the default register backend. Register files are banked
//!   per call, so there is no prologue/epilogue; its machine code and debug
//!   bytes are pinned by golden tests and reproduce the pre-pipeline
//!   monolithic backend exactly (`mod legacy` keeps that backend as the
//!   differential reference).
//! * [`codegen_frame`] — the `frame` backend: same ISA, but registers
//!   `CALLEE_SAVED_FIRST..ALLOCATABLE` are callee-saved. Functions save
//!   them to the frame's save area in the prologue and restore them before
//!   returning, spilled and callee-saved variables are described
//!   frame-base-relative (`DW_OP_fbreg`-style, resolved against
//!   `Vm::frame_base`), and subprogram DIEs carry `DW_AT_frame_base`. This
//!   is the only backend whose location classes can express the
//!   `DW_CFA`-style frame-layout defects of
//!   [`crate::defects::frame_catalogue`].

use std::collections::HashMap;

use holes_debuginfo::{Attr, AttrValue, DebugInfo, DieId, DieTag, LineRow, LocListEntry, Location};
use holes_machine::{
    CallTarget, GlobalSlot, MAddr, MFunction, MInst, MachineProgram, Operand, Reg, NUM_REGS,
};
use holes_minic::ast::{BinOp, Program, UnOp};

use crate::config::CompilerConfig;
use crate::defects::{frame_catalogue, frame_defect_plan, DefectAction, FrameDefectPlan};
use crate::frame::{FrameAbi, FrameLayout};
use crate::ir::{
    dense_entry, DbgLoc, DebugVarId, IrFunction, IrProgram, Op, ScopeId, ScopeKind, SlotId, Temp,
    Value,
};
use crate::regalloc::{allocate, Allocation, Edit};
use crate::vcode::{PosInfo, Storage, VCode, VDef, VInst, VInstruction, VReg};

/// Registers reserved as scratch for spills (the last three).
const SCRATCH0: Reg = (NUM_REGS - 3) as Reg;
const SCRATCH1: Reg = (NUM_REGS - 2) as Reg;
/// Number of allocatable registers.
const ALLOCATABLE: usize = NUM_REGS - 3;
/// First callee-saved register of the frame ABI: under
/// [`codegen_frame`], registers `CALLEE_SAVED_FIRST..ALLOCATABLE` must be
/// saved by any function that uses them.
const CALLEE_SAVED_FIRST: Reg = 5;

/// The backend-neutral per-function lowering artifacts every backend hands
/// to the shared debug-information emitter ([`emit_debug_info`]): where the
/// function's code lives, its line-table rows, the scope of every emitted
/// instruction, and the variable binding timeline. Keeping this shape
/// backend-independent is what makes the DIE *structure* identical across
/// backends — only the [`Location`] payloads differ.
pub(crate) struct DebugArtifacts {
    /// Base code address of the function.
    pub base_address: u64,
    /// Number of emitted instructions.
    pub code_len: usize,
    /// Line-table rows for this function.
    pub line_rows: Vec<LineRow>,
    /// Scope of every emitted instruction.
    pub inst_scopes: Vec<ScopeId>,
    /// Variable binding timeline: `(instruction index, var, location)`.
    pub bindings: Vec<(usize, DebugVarId, Location)>,
    /// Total frame size in slots when the function lays out a real frame
    /// (the frame ABI), emitted as `DW_AT_frame_base` on the subprogram
    /// DIE; `None` for backends without a frame base attribute.
    pub frame_base: Option<u64>,
}

impl DebugArtifacts {
    /// The `[low, high)` code address range of the function.
    fn pc_range(&self) -> (u64, u64) {
        (self.base_address, self.base_address + self.code_len as u64)
    }
}

/// Lay out the source globals as VM data-segment slots (shared by every
/// backend, which use the same data-address scheme).
pub(crate) fn lower_globals(source: &Program) -> Vec<GlobalSlot> {
    source
        .globals
        .iter()
        .map(|g| GlobalSlot {
            name: g.name.clone(),
            elements: g.element_count(),
            init: g.init.clone(),
            bits: g.ty.bits(),
            signed: g.ty.signed(),
            volatile: g.is_volatile,
        })
        .collect()
}

/// Generate register-VM machine code and debug information for a lowered
/// (and possibly optimized) program — the default backend, under the banked
/// frame convention.
pub fn codegen(source: &Program, ir: &IrProgram, source_name: &str) -> (MachineProgram, DebugInfo) {
    let (machine, debug, _) = codegen_with_abi(source, ir, source_name, FrameAbi::Banked, None);
    (machine, debug)
}

/// Generate machine code and debug information under the callee-saved frame
/// ABI (the `frame` backend): prologue/epilogue save/restore, a real frame
/// layout with a save area, frame-base-relative location descriptions, and
/// the frame-layout defect classes of
/// [`crate::defects::frame_catalogue`]. Returns the identifiers of the
/// backend-gated defects that actually fired.
pub fn codegen_frame(
    source: &Program,
    ir: &IrProgram,
    source_name: &str,
    config: &CompilerConfig,
) -> (MachineProgram, DebugInfo, Vec<&'static str>) {
    codegen_with_abi(
        source,
        ir,
        source_name,
        FrameAbi::Saved {
            callee_saved_first: CALLEE_SAVED_FIRST,
            allocatable: ALLOCATABLE as u8,
        },
        Some(config),
    )
}

/// Which frame-layout defect actions fired during emission (per function,
/// aggregated per program).
#[derive(Debug, Clone, Copy, Default)]
struct FrameDefectsApplied {
    /// A frame-resident binding was shifted by the stale (function-entry)
    /// frame-base rule.
    stale: bool,
    /// A callee-saved register binding lost its location.
    clobber: bool,
}

/// The shared pipeline driver: lower every function, allocate, lay out the
/// frame under `abi`, emit, and run the shared debug-information emitter.
fn codegen_with_abi(
    source: &Program,
    ir: &IrProgram,
    source_name: &str,
    abi: FrameAbi,
    config: Option<&CompilerConfig>,
) -> (MachineProgram, DebugInfo, Vec<&'static str>) {
    let globals = lower_globals(source);
    let entry = source.main().0 as u32;

    let mut functions: Vec<MFunction> = Vec::with_capacity(ir.functions.len());
    let mut artifacts: Vec<DebugArtifacts> = Vec::with_capacity(ir.functions.len());
    let mut applied = FrameDefectsApplied::default();
    for (index, func) in ir.functions.iter().enumerate() {
        let vcode = lower_function(func, index);
        let allocation = allocate(&vcode, ALLOCATABLE as u8);
        let layout = FrameLayout::new(abi, func.slots, &allocation);
        let plan = config
            .map(|c| frame_defect_plan(c, func))
            .unwrap_or_default();
        let (machine, artifact, fired) =
            Emitter::new(&vcode, &allocation, &layout, abi, &plan).emit();
        applied.stale |= fired.stale;
        applied.clobber |= fired.clobber;
        functions.push(machine);
        artifacts.push(artifact);
    }

    let machine = MachineProgram {
        functions,
        globals,
        entry,
    };

    let debug = emit_debug_info(source, ir, &artifacts, &machine.globals, source_name);
    let ids = match config {
        None => Vec::new(),
        Some(config) => frame_catalogue(config.personality)
            .into_iter()
            .filter(|d| d.active_in(config))
            .filter(|d| match d.action {
                DefectAction::StaleFrameBase => applied.stale,
                DefectAction::ClobberCalleeSaved => applied.clobber,
                _ => false,
            })
            .map(|d| d.id)
            .collect(),
    };
    (machine, debug, ids)
}

/// A virtual-register value operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RVal {
    /// An immediate.
    Imm(i64),
    /// A virtual register.
    Reg(VReg),
}

/// A virtual-register definition: the vreg written, and whether this
/// instruction is the one after which a spilled definition is stored back
/// (multi-instruction lowerings set it only on the group's last
/// instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RDef {
    vreg: VReg,
    store_after: bool,
}

/// An addressing mode over virtual registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RAddr {
    /// Data-segment address: global base plus optional index register plus
    /// constant displacement.
    Global {
        global: u32,
        index: Option<RVal>,
        disp: u32,
    },
    /// A frame slot of the current function.
    Frame { slot: u32 },
    /// Indirect through a computed address.
    Indirect { addr: RVal },
}

/// The register ISA's virtual instruction set: [`holes_machine::MInst`]
/// over virtual registers, plus the position-recording pseudo-instructions
/// (labels and debug bindings) that emit no machine code.
#[derive(Debug, Clone)]
enum RInst {
    /// Record a branch-target position.
    Label(u32),
    /// Record a debug binding at the current machine address.
    Bind {
        var: DebugVarId,
        loc: DbgLoc,
    },
    Mov {
        dst: RDef,
        src: RVal,
    },
    Un {
        op: UnOp,
        dst: RDef,
        src: RVal,
    },
    Bin {
        op: BinOp,
        dst: RDef,
        lhs: RVal,
        rhs: RVal,
    },
    Trunc {
        dst: RDef,
        bits: u32,
        signed: bool,
    },
    Load {
        dst: RDef,
        addr: RAddr,
    },
    Store {
        addr: RAddr,
        src: RVal,
    },
    Lea {
        dst: RDef,
        addr: RAddr,
    },
    Jump {
        label: u32,
    },
    BranchZero {
        cond: RVal,
        label: u32,
    },
    BranchNonZero {
        cond: RVal,
        label: u32,
    },
    Call {
        target: CallTarget,
        args: Vec<RVal>,
        ret: Option<RDef>,
    },
    Ret {
        value: Option<RVal>,
    },
}

fn visit_val(v: &RVal, scratch: Option<u8>, visit: &mut dyn FnMut(VReg, Option<u8>)) {
    if let RVal::Reg(r) = v {
        visit(*r, scratch);
    }
}

fn visit_addr(a: &RAddr, visit: &mut dyn FnMut(VReg, Option<u8>)) {
    match a {
        RAddr::Global {
            index: Some(index), ..
        } => visit_val(index, Some(SCRATCH1), visit),
        RAddr::Indirect { addr } => visit_val(addr, Some(SCRATCH1), visit),
        RAddr::Global { index: None, .. } | RAddr::Frame { .. } => {}
    }
}

impl VInstruction for RInst {
    fn visit_uses(&self, visit: &mut dyn FnMut(VReg, Option<u8>)) {
        match self {
            RInst::Mov { src, .. } | RInst::Un { src, .. } => {
                visit_val(src, Some(SCRATCH1), visit);
            }
            RInst::Bin { lhs, rhs, .. } => {
                visit_val(lhs, Some(SCRATCH1), visit);
                visit_val(rhs, Some(SCRATCH0), visit);
            }
            RInst::Load { addr, .. } | RInst::Lea { addr, .. } => visit_addr(addr, visit),
            RInst::Store { addr, src } => {
                visit_addr(addr, visit);
                visit_val(src, Some(SCRATCH0), visit);
            }
            RInst::BranchZero { cond, .. } | RInst::BranchNonZero { cond, .. } => {
                visit_val(cond, Some(SCRATCH1), visit);
            }
            // Call arguments consume spill slots directly (`Operand::Slot`),
            // so several spilled arguments never fight over the scratch
            // registers: no reload is planned for them.
            RInst::Call { args, .. } => {
                for arg in args {
                    visit_val(arg, None, visit);
                }
            }
            RInst::Ret { value } => {
                if let Some(value) = value {
                    visit_val(value, Some(SCRATCH1), visit);
                }
            }
            RInst::Label(_) | RInst::Bind { .. } | RInst::Jump { .. } | RInst::Trunc { .. } => {}
        }
    }

    fn def(&self) -> Option<VDef> {
        let dst = match self {
            RInst::Mov { dst, .. }
            | RInst::Un { dst, .. }
            | RInst::Bin { dst, .. }
            | RInst::Trunc { dst, .. }
            | RInst::Load { dst, .. }
            | RInst::Lea { dst, .. } => Some(*dst),
            RInst::Call { ret, .. } => *ret,
            _ => None,
        };
        dst.map(|d| VDef {
            vreg: d.vreg,
            scratch: SCRATCH0,
            store_after: d.store_after,
        })
    }
}

fn vreg(t: Temp) -> VReg {
    VReg(t.0)
}

fn rval(v: Value) -> RVal {
    match v {
        Value::Const(c) => RVal::Imm(c),
        Value::Temp(t) => RVal::Reg(vreg(t)),
    }
}

fn rdef(t: Temp, store_after: bool) -> RDef {
    RDef {
        vreg: vreg(t),
        store_after,
    }
}

fn raddr_global(global: holes_minic::ast::GlobalId, index: Option<Value>) -> RAddr {
    match index {
        None => RAddr::Global {
            global: global.0 as u32,
            index: None,
            disp: 0,
        },
        Some(Value::Const(c)) => RAddr::Global {
            global: global.0 as u32,
            index: None,
            disp: c.max(0) as u32,
        },
        Some(v) => RAddr::Global {
            global: global.0 as u32,
            index: Some(rval(v)),
            disp: 0,
        },
    }
}

/// Lower one IR function to virtual-register code: map temps to vregs
/// one-to-one, expand each IR operation into its [`RInst`] sequence, and
/// record the per-position liveness summary ([`PosInfo`]) the allocator
/// consumes. Liveness lives at IR-position granularity so that
/// multi-instruction expansions cannot perturb live ranges.
fn lower_function(func: &IrFunction, index: usize) -> VCode<RInst> {
    // First-occurrence IR position of every label (branch targets for
    // back-edge detection), indexed by label number: labels share the
    // temps' dense numbering below `next_temp`.
    let mut label_ir_pos: Vec<Option<usize>> = vec![None; func.next_temp as usize];
    for (i, inst) in func.insts.iter().enumerate() {
        if let Op::Label(l) = inst.op {
            dense_entry(&mut label_ir_pos, l.0).get_or_insert(i);
        }
    }

    let mut insts: Vec<VInst<RInst>> = Vec::with_capacity(func.insts.len());
    let mut positions: Vec<PosInfo> = Vec::with_capacity(func.insts.len());
    let mut position_uses: Vec<VReg> = Vec::with_capacity(func.insts.len());
    for inst in &func.insts {
        let line = inst.line;
        let scope = inst.scope;
        let uses_start = position_uses.len();
        inst.op.for_each_use(|u| {
            if let Value::Temp(t) = u {
                position_uses.push(vreg(t));
            }
        });
        let pos = PosInfo {
            def: inst.op.def().map(vreg),
            uses: uses_start..position_uses.len(),
            dbg_use: match inst.op {
                Op::DbgValue {
                    loc: DbgLoc::Value(Value::Temp(t)),
                    ..
                } => Some(vreg(t)),
                _ => None,
            },
            branch_target: match inst.op {
                Op::Jump(l)
                | Op::BranchZero { target: l, .. }
                | Op::BranchNonZero { target: l, .. } => {
                    label_ir_pos.get(l.0 as usize).copied().flatten()
                }
                _ => None,
            },
        };

        let mut push = |inst: RInst, is_stmt: bool| {
            insts.push(VInst {
                inst,
                line,
                scope,
                is_stmt,
            });
        };
        match &inst.op {
            Op::Label(l) => push(RInst::Label(l.0), false),
            Op::DbgValue { var, loc } => {
                push(
                    RInst::Bind {
                        var: *var,
                        loc: *loc,
                    },
                    false,
                );
            }
            Op::Nop => {}
            Op::Copy { dst, src } => {
                push(
                    RInst::Mov {
                        dst: rdef(*dst, true),
                        src: rval(*src),
                    },
                    true,
                );
            }
            Op::Un { dst, op, src } => {
                push(
                    RInst::Un {
                        op: *op,
                        dst: rdef(*dst, true),
                        src: rval(*src),
                    },
                    true,
                );
            }
            Op::Bin { dst, op, lhs, rhs } => {
                push(
                    RInst::Bin {
                        op: *op,
                        dst: rdef(*dst, true),
                        lhs: rval(*lhs),
                        rhs: rval(*rhs),
                    },
                    true,
                );
            }
            Op::Trunc {
                dst,
                src,
                bits,
                signed,
            } => {
                // Two-instruction expansion: the spill store (if any)
                // belongs after the truncation, so only the final
                // instruction carries `store_after`.
                push(
                    RInst::Mov {
                        dst: rdef(*dst, false),
                        src: rval(*src),
                    },
                    true,
                );
                push(
                    RInst::Trunc {
                        dst: rdef(*dst, true),
                        bits: *bits,
                        signed: *signed,
                    },
                    false,
                );
            }
            Op::LoadGlobal {
                dst, global, index, ..
            } => {
                push(
                    RInst::Load {
                        dst: rdef(*dst, true),
                        addr: raddr_global(*global, *index),
                    },
                    true,
                );
            }
            Op::StoreGlobal {
                global,
                index,
                value,
                ..
            } => {
                push(
                    RInst::Store {
                        addr: raddr_global(*global, *index),
                        src: rval(*value),
                    },
                    true,
                );
            }
            Op::LoadSlot { dst, slot } => {
                push(
                    RInst::Load {
                        dst: rdef(*dst, true),
                        addr: RAddr::Frame { slot: slot.0 },
                    },
                    true,
                );
            }
            Op::StoreSlot { slot, value } => {
                push(
                    RInst::Store {
                        addr: RAddr::Frame { slot: slot.0 },
                        src: rval(*value),
                    },
                    true,
                );
            }
            Op::LoadPtr { dst, addr } => {
                push(
                    RInst::Load {
                        dst: rdef(*dst, true),
                        addr: RAddr::Indirect { addr: rval(*addr) },
                    },
                    true,
                );
            }
            Op::StorePtr { addr, value } => {
                push(
                    RInst::Store {
                        addr: RAddr::Indirect { addr: rval(*addr) },
                        src: rval(*value),
                    },
                    true,
                );
            }
            Op::AddrGlobal { dst, global } => {
                push(
                    RInst::Lea {
                        dst: rdef(*dst, true),
                        addr: RAddr::Global {
                            global: global.0 as u32,
                            index: None,
                            disp: 0,
                        },
                    },
                    true,
                );
            }
            Op::AddrSlot { dst, slot } => {
                push(
                    RInst::Lea {
                        dst: rdef(*dst, true),
                        addr: RAddr::Frame { slot: slot.0 },
                    },
                    true,
                );
            }
            Op::Jump(l) => push(RInst::Jump { label: l.0 }, true),
            Op::BranchZero { cond, target } => {
                push(
                    RInst::BranchZero {
                        cond: rval(*cond),
                        label: target.0,
                    },
                    true,
                );
            }
            Op::BranchNonZero { cond, target } => {
                push(
                    RInst::BranchNonZero {
                        cond: rval(*cond),
                        label: target.0,
                    },
                    true,
                );
            }
            Op::Call { dst, callee, args } => {
                push(
                    RInst::Call {
                        target: CallTarget::Function(callee.0 as u32),
                        args: args.iter().map(|a| rval(*a)).collect(),
                        ret: dst.map(|d| rdef(d, true)),
                    },
                    true,
                );
            }
            Op::CallSink { args } => {
                push(
                    RInst::Call {
                        target: CallTarget::Sink,
                        args: args.iter().map(|a| rval(*a)).collect(),
                        ret: None,
                    },
                    true,
                );
            }
            Op::Ret { value } => push(
                RInst::Ret {
                    value: value.map(rval),
                },
                true,
            ),
        }
        positions.push(pos);
    }

    VCode {
        name: func.name.clone(),
        decl_line: func.decl_line,
        insts,
        positions,
        position_uses,
        params: func.param_temps.iter().map(|t| vreg(*t)).collect(),
        local_slots: func.slots,
        base_address: MachineProgram::default_base_address(index),
    }
}

/// The allocation of `func` (as the register and frame backends compute
/// it) and the reference allocator's, for the differential oracle.
#[cfg(test)]
pub(crate) fn allocation_and_reference(func: &IrFunction) -> (Allocation, Allocation) {
    let vcode = lower_function(func, 0);
    (
        allocate(&vcode, ALLOCATABLE as u8),
        crate::regalloc::reference::allocate(&vcode, ALLOCATABLE as u8),
    )
}

/// The emission stage: applies the allocator's spill/reload edits
/// mechanically (it never re-derives spill decisions), resolves virtual to
/// physical registers, emits the frame ABI's prologue/epilogue, and lowers
/// debug bindings to [`Location`]s — the point where the frame-layout
/// defect plan corrupts them.
struct Emitter<'a> {
    vcode: &'a VCode<RInst>,
    allocation: &'a Allocation,
    layout: &'a FrameLayout,
    abi: FrameAbi,
    plan: &'a FrameDefectPlan,
    applied: FrameDefectsApplied,
    code: Vec<MInst>,
    inst_scopes: Vec<ScopeId>,
    line_rows: Vec<LineRow>,
    bindings: Vec<(usize, DebugVarId, Location)>,
    label_positions: HashMap<u32, u32>,
    fixups: Vec<(usize, u32)>,
    /// Cursor into [`Allocation::edits`]; edits are consumed strictly in
    /// order as emission reaches their instruction and operand.
    next_edit: usize,
}

impl<'a> Emitter<'a> {
    fn new(
        vcode: &'a VCode<RInst>,
        allocation: &'a Allocation,
        layout: &'a FrameLayout,
        abi: FrameAbi,
        plan: &'a FrameDefectPlan,
    ) -> Emitter<'a> {
        Emitter {
            vcode,
            allocation,
            layout,
            abi,
            plan,
            applied: FrameDefectsApplied::default(),
            code: Vec::new(),
            inst_scopes: Vec::new(),
            line_rows: Vec::new(),
            bindings: Vec::new(),
            label_positions: HashMap::new(),
            fixups: Vec::new(),
            next_edit: 0,
        }
    }

    fn emit(mut self) -> (MFunction, DebugArtifacts, FrameDefectsApplied) {
        let vcode = self.vcode;
        let layout = self.layout;

        // Prologue: save the callee-saved registers this function uses.
        if let FrameAbi::Saved { .. } = self.abi {
            for (i, reg) in layout.saved.iter().enumerate() {
                self.push(
                    MInst::Store {
                        addr: MAddr::Frame {
                            slot: layout.save_slot(i),
                        },
                        src: Operand::Reg(*reg),
                    },
                    vcode.decl_line,
                    ScopeId(0),
                    false,
                );
            }
        }

        for (vi, vinst) in vcode.insts.iter().enumerate() {
            let line = vinst.line;
            let scope = vinst.scope;
            let is_stmt = vinst.is_stmt;
            match &vinst.inst {
                RInst::Label(label) => {
                    self.label_positions.insert(*label, self.code.len() as u32);
                }
                RInst::Bind { var, loc } => {
                    let location = self.bind_location(*var, *loc);
                    // Coalesce bindings landing on the same machine address:
                    // only the last one can ever take effect, and keeping
                    // the earlier one would create an empty location range.
                    // Bindings are recorded in address order, so those at
                    // this address are a suffix holding `var` at most once.
                    let here = self.code.len();
                    let suffix = self
                        .bindings
                        .iter()
                        .rposition(|(index, _, _)| *index != here)
                        .map_or(0, |last| last + 1);
                    if let Some(k) = self.bindings[suffix..]
                        .iter()
                        .position(|(_, v, _)| v == var)
                    {
                        self.bindings.remove(suffix + k);
                    }
                    self.bindings.push((here, *var, location));
                }
                RInst::Mov { dst, src } => {
                    let reg = self.dest_reg(*dst);
                    let src_op = self.use_operand(vi, *src, line, scope);
                    self.push(
                        MInst::Mov {
                            dst: reg,
                            src: src_op,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    self.finish_def(vi, *dst, line, scope);
                }
                RInst::Un { op, dst, src } => {
                    let reg = self.dest_reg(*dst);
                    let src_op = self.use_operand(vi, *src, line, scope);
                    self.push(
                        MInst::Un {
                            op: *op,
                            dst: reg,
                            src: src_op,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    self.finish_def(vi, *dst, line, scope);
                }
                RInst::Bin { op, dst, lhs, rhs } => {
                    let reg = self.dest_reg(*dst);
                    let lhs_reg = self.use_in_reg(vi, *lhs, SCRATCH1, line, scope);
                    let rhs_op = self.use_operand(vi, *rhs, line, scope);
                    self.push(
                        MInst::Bin {
                            op: *op,
                            dst: reg,
                            lhs: Operand::Reg(lhs_reg),
                            rhs: rhs_op,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    self.finish_def(vi, *dst, line, scope);
                }
                RInst::Trunc { dst, bits, signed } => {
                    let reg = self.dest_reg(*dst);
                    self.push(
                        MInst::Trunc {
                            dst: reg,
                            bits: *bits,
                            signed: *signed,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    self.finish_def(vi, *dst, line, scope);
                }
                RInst::Load { dst, addr } => {
                    let reg = self.dest_reg(*dst);
                    let maddr = self.resolve_addr(vi, *addr, line, scope);
                    self.push(
                        MInst::Load {
                            dst: reg,
                            addr: maddr,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    self.finish_def(vi, *dst, line, scope);
                }
                RInst::Store { addr, src } => {
                    let maddr = self.resolve_addr(vi, *addr, line, scope);
                    let src_op = self.use_operand(vi, *src, line, scope);
                    self.push(
                        MInst::Store {
                            addr: maddr,
                            src: src_op,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                }
                RInst::Lea { dst, addr } => {
                    let reg = self.dest_reg(*dst);
                    let maddr = self.resolve_addr(vi, *addr, line, scope);
                    self.push(
                        MInst::Lea {
                            dst: reg,
                            addr: maddr,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    self.finish_def(vi, *dst, line, scope);
                }
                RInst::Jump { label } => {
                    self.fixups.push((self.code.len(), *label));
                    self.push(MInst::Jump { target: 0 }, line, scope, is_stmt);
                }
                RInst::BranchZero { cond, label } => {
                    let reg = self.use_in_reg(vi, *cond, SCRATCH1, line, scope);
                    self.fixups.push((self.code.len(), *label));
                    self.push(
                        MInst::BranchZero {
                            cond: reg,
                            target: 0,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                }
                RInst::BranchNonZero { cond, label } => {
                    let reg = self.use_in_reg(vi, *cond, SCRATCH1, line, scope);
                    self.fixups.push((self.code.len(), *label));
                    self.push(
                        MInst::BranchNonZero {
                            cond: reg,
                            target: 0,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                }
                RInst::Call { target, args, ret } => {
                    let arg_ops: Vec<Operand> = args.iter().map(|a| self.call_arg(*a)).collect();
                    let ret_reg = ret.map(|d| self.dest_reg(d));
                    self.push(
                        MInst::Call {
                            target: *target,
                            args: arg_ops,
                            ret: ret_reg,
                        },
                        line,
                        scope,
                        is_stmt,
                    );
                    if let Some(d) = ret {
                        self.finish_def(vi, *d, line, scope);
                    }
                }
                RInst::Ret { value } => {
                    let mut v = value.map(|val| self.use_operand(vi, val, line, scope));
                    // The return line's breakpoint address (its `is_stmt`
                    // row) must precede the epilogue: once the restores run,
                    // callee-saved registers hold the *caller's* values, so
                    // a stop after them would read garbage for any variable
                    // still homed in one. The stmt flag therefore rides on
                    // the first epilogue instruction and the rest of the
                    // sequence is attributed to the line as non-stmt rows.
                    let mut stmt = is_stmt;
                    if let FrameAbi::Saved { .. } = self.abi {
                        // The epilogue restores every saved register before
                        // returning; a return value living in one of them
                        // must first move to a scratch "return register" or
                        // the restore would clobber it.
                        if let Some(Operand::Reg(r)) = v {
                            if layout.saved.contains(&r) {
                                self.push(
                                    MInst::Mov {
                                        dst: SCRATCH1,
                                        src: Operand::Reg(r),
                                    },
                                    line,
                                    scope,
                                    std::mem::take(&mut stmt),
                                );
                                v = Some(Operand::Reg(SCRATCH1));
                            }
                        }
                        for (i, reg) in layout.saved.iter().enumerate() {
                            self.push(
                                MInst::Load {
                                    dst: *reg,
                                    addr: MAddr::Frame {
                                        slot: layout.save_slot(i),
                                    },
                                },
                                line,
                                scope,
                                std::mem::take(&mut stmt),
                            );
                        }
                    }
                    self.push(MInst::Ret { value: v }, line, scope, stmt);
                }
            }
        }

        self.apply_fixups();
        debug_assert_eq!(
            self.next_edit,
            self.allocation.edits.len(),
            "emission consumed every allocator edit"
        );
        let frame_base = match self.abi {
            FrameAbi::Banked => None,
            FrameAbi::Saved { .. } => Some(layout.total_slots() as u64),
        };
        let machine = MFunction {
            name: vcode.name.clone(),
            code: self.code,
            frame_slots: layout.total_slots(),
            base_address: vcode.base_address,
        };
        let artifacts = DebugArtifacts {
            base_address: vcode.base_address,
            code_len: machine.code.len(),
            line_rows: self.line_rows,
            inst_scopes: self.inst_scopes,
            bindings: self.bindings,
            frame_base,
        };
        (machine, artifacts, self.applied)
    }

    fn push(&mut self, inst: MInst, line: u32, scope: ScopeId, is_stmt: bool) {
        let address = self.vcode.base_address + self.code.len() as u64;
        self.line_rows.push(LineRow {
            address,
            line,
            is_stmt,
        });
        self.code.push(inst);
        self.inst_scopes.push(scope);
    }

    /// Consume the next allocator edit, which must belong to instruction
    /// `vi` (emission mirrors the allocator's operand walk exactly).
    fn take_edit(&mut self, vi: usize) -> Edit {
        let (at, edit) = self.allocation.edits[self.next_edit];
        self.next_edit += 1;
        debug_assert_eq!(at as usize, vi, "allocator edit stream out of sync");
        edit
    }

    /// Resolve a value operand, applying the pending reload edit when the
    /// vreg is spilled.
    fn use_operand(&mut self, vi: usize, val: RVal, line: u32, scope: ScopeId) -> Operand {
        match val {
            RVal::Imm(c) => Operand::Imm(c),
            RVal::Reg(v) => match self.allocation.home(v) {
                Some(Storage::Reg(r)) => Operand::Reg(r),
                Some(Storage::Spill(_)) => match self.take_edit(vi) {
                    Edit::Reload { spill, to } => {
                        let slot = self.layout.spill_slot(spill);
                        self.push(
                            MInst::Load {
                                dst: to,
                                addr: MAddr::Frame { slot },
                            },
                            line,
                            scope,
                            false,
                        );
                        Operand::Reg(to)
                    }
                    Edit::SpillStore { .. } => unreachable!("expected a reload edit"),
                },
                None => Operand::Imm(0),
            },
        }
    }

    /// Register a value must live in (for address/index registers):
    /// immediates are materialized into `scratch`.
    fn use_in_reg(&mut self, vi: usize, val: RVal, scratch: Reg, line: u32, scope: ScopeId) -> Reg {
        match self.use_operand(vi, val, line, scope) {
            Operand::Reg(r) => r,
            Operand::Imm(v) => {
                self.push(
                    MInst::LoadImm {
                        dst: scratch,
                        value: v,
                    },
                    line,
                    scope,
                    false,
                );
                scratch
            }
            Operand::Slot(slot) => {
                self.push(
                    MInst::Load {
                        dst: scratch,
                        addr: MAddr::Frame { slot },
                    },
                    line,
                    scope,
                    false,
                );
                scratch
            }
        }
    }

    /// Operand for a call argument: spilled vregs are passed as frame-slot
    /// operands (no reload was planned for them).
    fn call_arg(&self, val: RVal) -> Operand {
        match val {
            RVal::Imm(c) => Operand::Imm(c),
            RVal::Reg(v) => match self.allocation.home(v) {
                Some(Storage::Reg(r)) => Operand::Reg(r),
                Some(Storage::Spill(k)) => Operand::Slot(self.layout.spill_slot(k)),
                None => Operand::Imm(0),
            },
        }
    }

    /// The physical register a definition is computed into.
    fn dest_reg(&self, dst: RDef) -> Reg {
        match self.allocation.home(dst.vreg) {
            Some(Storage::Reg(r)) => r,
            Some(Storage::Spill(_)) | None => SCRATCH0,
        }
    }

    /// After the defining instruction: apply the pending spill-store edit,
    /// if the definition is spilled and this instruction carries the store.
    fn finish_def(&mut self, vi: usize, dst: RDef, line: u32, scope: ScopeId) {
        if !dst.store_after {
            return;
        }
        if let Some(Storage::Spill(_)) = self.allocation.home(dst.vreg) {
            match self.take_edit(vi) {
                Edit::SpillStore { spill, from } => {
                    let slot = self.layout.spill_slot(spill);
                    self.push(
                        MInst::Store {
                            addr: MAddr::Frame { slot },
                            src: Operand::Reg(from),
                        },
                        line,
                        scope,
                        false,
                    );
                }
                Edit::Reload { .. } => unreachable!("expected a spill-store edit"),
            }
        }
    }

    /// Resolve an addressing mode, loading index/address values into their
    /// scratch register as needed.
    fn resolve_addr(&mut self, vi: usize, addr: RAddr, line: u32, scope: ScopeId) -> MAddr {
        match addr {
            RAddr::Global {
                global,
                index,
                disp,
            } => match index {
                None => MAddr::Global {
                    global,
                    index: None,
                    disp,
                },
                Some(v) => {
                    let reg = self.use_in_reg(vi, v, SCRATCH1, line, scope);
                    MAddr::Global {
                        global,
                        index: Some(reg),
                        disp,
                    }
                }
            },
            RAddr::Frame { slot } => MAddr::Frame { slot },
            RAddr::Indirect { addr } => {
                let reg = self.use_in_reg(vi, addr, SCRATCH1, line, scope);
                MAddr::Indirect { reg }
            }
        }
    }

    /// Lower a debug binding to a [`Location`] under the frame ABI,
    /// applying the frame-layout defect plan where it can fire.
    fn bind_location(&mut self, var: DebugVarId, loc: DbgLoc) -> Location {
        match self.abi {
            FrameAbi::Banked => match loc {
                DbgLoc::Value(Value::Const(c)) => Location::ConstValue(c),
                DbgLoc::Value(Value::Temp(t)) => match self.allocation.home(vreg(t)) {
                    Some(Storage::Reg(r)) => Location::Register(r),
                    Some(Storage::Spill(k)) => Location::FrameSlot(self.layout.spill_slot(k)),
                    None => Location::Empty,
                },
                DbgLoc::Slot(SlotId(s)) => Location::FrameSlot(s),
                DbgLoc::Undef => Location::Empty,
            },
            FrameAbi::Saved { .. } => match loc {
                DbgLoc::Value(Value::Const(c)) => Location::ConstValue(c),
                DbgLoc::Value(Value::Temp(t)) => match self.allocation.home(vreg(t)) {
                    Some(Storage::Reg(r)) => {
                        if self.plan.callee_clobber.contains(&var)
                            && self.layout.save_slot_of(r).is_some()
                        {
                            // Defect: the frame map is missing the save-slot
                            // rule for this callee-saved register, so the
                            // producer cannot prove where the value lives
                            // across calls and conservatively drops the
                            // location — the consumer sees the variable as
                            // optimized out even though the register holds
                            // it the whole time.
                            self.applied.clobber = true;
                            return Location::Empty;
                        }
                        Location::Register(r)
                    }
                    Some(Storage::Spill(k)) => Location::FrameBase {
                        offset: self.stale_offset(var, self.layout.spill_slot(k)),
                    },
                    None => Location::Empty,
                },
                DbgLoc::Slot(SlotId(s)) => Location::FrameBase {
                    offset: self.stale_offset(var, s),
                },
                DbgLoc::Undef => Location::Empty,
            },
        }
    }

    /// A frame-base-relative offset for `var`, corrupted by the stale
    /// frame-base defect when `var` is a victim: the defective description
    /// applies the *function-entry* frame-base rule — computed before the
    /// prologue allocated the frame — so every fbreg offset is shifted up
    /// by the whole frame. Shifted reads resolve past the frame; they fail
    /// (optimized out) whenever the stack has not grown beyond this frame,
    /// and read stale bytes from dead deeper frames otherwise.
    fn stale_offset(&mut self, var: DebugVarId, slot: u32) -> i32 {
        let mut offset = slot as i32;
        if self.plan.stale_fbreg.contains(&var) {
            offset += self.layout.total_slots() as i32;
            self.applied.stale = true;
        }
        offset
    }

    fn apply_fixups(&mut self) {
        for (inst_index, label) in std::mem::take(&mut self.fixups) {
            let target = self
                .label_positions
                .get(&label)
                .copied()
                .unwrap_or(self.code.len() as u32);
            match &mut self.code[inst_index] {
                MInst::Jump { target: t }
                | MInst::BranchZero { target: t, .. }
                | MInst::BranchNonZero { target: t, .. } => *t = target,
                _ => {}
            }
        }
    }
}

/// Build the DIE tree from the per-function artifacts. Shared by every
/// backend: the emitted DIE structure (subprograms, scopes, variable DIEs
/// and their attribute order) is a pure function of the IR and the
/// backend-neutral [`DebugArtifacts`], so two backends lowering the same IR
/// differ only in the location descriptions inside their location lists
/// (and in the frame-base attribute a real-frame backend adds).
pub(crate) fn emit_debug_info(
    source: &Program,
    ir: &IrProgram,
    artifacts: &[DebugArtifacts],
    globals: &[GlobalSlot],
    source_name: &str,
) -> DebugInfo {
    let mut info = DebugInfo::new(source_name);
    // Global variable DIEs.
    for (gi, global) in source.globals.iter().enumerate() {
        let die = info.add_die(info.root(), DieTag::Variable);
        info.set_attr(die, Attr::Name, AttrValue::Text(global.name.clone()));
        info.set_attr(die, Attr::External, AttrValue::Flag(true));
        let address = holes_machine::isa::global_base_address(globals, gi as u32) as u64;
        info.set_attr(
            die,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(
                0,
                u64::MAX,
                Location::GlobalAddress(address),
            )]),
        );
    }
    // Phase A: subprogram DIEs for every function.
    let mut subprograms: Vec<DieId> = Vec::with_capacity(ir.functions.len());
    for (fi, func) in ir.functions.iter().enumerate() {
        let artifact = &artifacts[fi];
        let die = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(die, Attr::Name, AttrValue::Text(func.name.clone()));
        let (lo, hi) = artifact.pc_range();
        info.set_attr(die, Attr::LowPc, AttrValue::Addr(lo));
        info.set_attr(die, Attr::HighPc, AttrValue::Addr(hi));
        info.set_attr(
            die,
            Attr::DeclLine,
            AttrValue::Unsigned(func.decl_line as u64),
        );
        if let Some(frame_base) = artifact.frame_base {
            info.set_attr(die, Attr::FrameBase, AttrValue::Unsigned(frame_base));
        }
        subprograms.push(die);
    }
    // Phase B: scopes and variables.
    for (fi, func) in ir.functions.iter().enumerate() {
        let artifact = &artifacts[fi];
        for row in &artifact.line_rows {
            info.line_table.push(*row);
        }
        let subprogram = subprograms[fi];
        let base = artifact.base_address;
        let end = base + artifact.code_len as u64;
        // Every scope's `[low, high)` address range, from its first and last
        // emitted instruction.
        let mut scope_ranges: Vec<Option<(u64, u64)>> = vec![None; func.scopes.len()];
        for (i, scope) in artifact.inst_scopes.iter().enumerate() {
            if let Some(range) = scope_ranges.get_mut(scope.0 as usize) {
                let addr = base + i as u64;
                range.get_or_insert((addr, addr)).1 = addr + 1;
            }
        }
        // Scope DIEs.
        let mut scope_dies: Vec<DieId> = vec![subprogram];
        for (si, scope) in func.scopes.iter().enumerate().skip(1) {
            let range = scope_ranges[si];
            let (parent, tag, origin) = match scope {
                ScopeKind::Function => (info.root(), DieTag::LexicalBlock, None),
                ScopeKind::Block { parent } => (
                    scope_dies
                        .get(parent.0 as usize)
                        .copied()
                        .unwrap_or(subprogram),
                    DieTag::LexicalBlock,
                    None,
                ),
                ScopeKind::Inlined { parent, callee, .. } => (
                    scope_dies
                        .get(parent.0 as usize)
                        .copied()
                        .unwrap_or(subprogram),
                    DieTag::InlinedSubroutine,
                    Some(*callee),
                ),
            };
            let die = info.add_die(parent, tag);
            if let Some((lo, hi)) = range {
                info.set_attr(die, Attr::LowPc, AttrValue::Addr(lo));
                info.set_attr(die, Attr::HighPc, AttrValue::Addr(hi));
            }
            if let ScopeKind::Inlined {
                call_line,
                callee_name,
                ..
            } = scope
            {
                info.set_attr(die, Attr::CallLine, AttrValue::Unsigned(*call_line as u64));
                info.set_attr(die, Attr::Name, AttrValue::Text(callee_name.clone()));
            }
            if let Some(origin) = origin {
                info.set_attr(
                    die,
                    Attr::AbstractOrigin,
                    AttrValue::Ref(subprograms[origin.0]),
                );
            }
            scope_dies.push(die);
        }
        // The binding timeline grouped by variable; the stable sort keeps
        // each variable's bindings in instruction order.
        let mut by_var: Vec<(DebugVarId, usize, Location)> = artifact
            .bindings
            .iter()
            .map(|&(index, var, loc)| (var, index, loc))
            .collect();
        by_var.sort_by_key(|(var, _, _)| *var);
        // Variable DIEs with their location lists.
        for (vi, var) in func.vars.iter().enumerate() {
            if var.suppress_die {
                continue;
            }
            let var_id = DebugVarId(vi as u32);
            let parent = scope_dies
                .get(var.scope.0 as usize)
                .copied()
                .unwrap_or(subprogram);
            let tag = if var.is_param {
                DieTag::FormalParameter
            } else {
                DieTag::Variable
            };
            let die = info.add_die(parent, tag);
            info.set_attr(die, Attr::Name, AttrValue::Text(var.name.clone()));
            info.set_attr(
                die,
                Attr::DeclLine,
                AttrValue::Unsigned(var.decl_line as u64),
            );
            let first = by_var.partition_point(|(v, _, _)| *v < var_id);
            let events: Vec<(usize, Location)> = by_var[first..]
                .iter()
                .take_while(|(v, _, _)| *v == var_id)
                .map(|&(_, index, loc)| (index, loc))
                .collect();
            if events.is_empty() {
                // No binding at all: the DIE stays without location (hollow).
                continue;
            }
            let single_const = events.len() == 1 && matches!(events[0].1, Location::ConstValue(_));
            let inlined_scope = matches!(
                func.scopes.get(var.scope.0 as usize),
                Some(ScopeKind::Inlined { .. })
            );
            if single_const && !inlined_scope {
                if let Location::ConstValue(c) = events[0].1 {
                    info.set_attr(die, Attr::ConstValue, AttrValue::Signed(c));
                }
                continue;
            }
            if single_const && inlined_scope {
                // Inlined constants: the location lives only in the abstract
                // origin (legitimate DWARF; the lldb-like debugger mishandles
                // it, reproducing the paper's lldb bug 50076).
                if let ScopeKind::Inlined { callee, .. } = &func.scopes[var.scope.0 as usize] {
                    let origin_sub = subprograms[callee.0];
                    if let Some(origin_var) = info.find_variable(origin_sub, &var.name, base) {
                        info.set_attr(die, Attr::AbstractOrigin, AttrValue::Ref(origin_var));
                        if let Location::ConstValue(c) = events[0].1 {
                            info.set_attr(origin_var, Attr::ConstValue, AttrValue::Signed(c));
                            info.remove_attr(origin_var, Attr::Location);
                        }
                        continue;
                    }
                }
                if let Location::ConstValue(c) = events[0].1 {
                    info.set_attr(die, Attr::ConstValue, AttrValue::Signed(c));
                }
                continue;
            }
            let mut entries = Vec::with_capacity(events.len());
            for (pos, (start, loc)) in events.iter().enumerate() {
                let range_end = events
                    .get(pos + 1)
                    .map(|(next, _)| base + *next as u64)
                    .unwrap_or(end);
                entries.push(LocListEntry::new(base + *start as u64, range_end, *loc));
            }
            info.set_attr(die, Attr::Location, AttrValue::LocList(entries));
        }
    }
    info
}

#[cfg(test)]
mod legacy {
    //! The pre-pipeline monolithic register backend, kept verbatim as the
    //! differential reference: the pipeline must reproduce its machine code
    //! and debug information byte-for-byte.
    #![allow(clippy::all)]

    use super::*;

    /// Where a temp lives after register allocation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Alloc {
        Reg(Reg),
        Spill(u32),
    }

    /// The original monolithic `codegen` entry point.
    pub(super) fn codegen_legacy(
        source: &Program,
        ir: &IrProgram,
        source_name: &str,
    ) -> (MachineProgram, DebugInfo) {
        let globals = lower_globals(source);
        let entry = source.main().0 as u32;
        let (functions, artifacts): (Vec<MFunction>, Vec<DebugArtifacts>) = ir
            .functions
            .iter()
            .enumerate()
            .map(|(index, func)| FunctionEmitter::new(func, index).emit())
            .unzip();
        let machine = MachineProgram {
            functions,
            globals,
            entry,
        };
        let debug = emit_debug_info(source, ir, &artifacts, &machine.globals, source_name);
        (machine, debug)
    }

    struct FunctionEmitter<'f> {
        func: &'f IrFunction,
        #[allow(dead_code)]
        index: usize,
        alloc: HashMap<Temp, Alloc>,
        spill_slots: u32,
        code: Vec<MInst>,
        inst_scopes: Vec<ScopeId>,
        line_rows: Vec<LineRow>,
        bindings: Vec<(usize, DebugVarId, Location)>,
        label_positions: HashMap<u32, u32>,
        fixups: Vec<(usize, u32)>,
        base_address: u64,
    }

    impl<'f> FunctionEmitter<'f> {
        fn new(func: &'f IrFunction, index: usize) -> FunctionEmitter<'f> {
            FunctionEmitter {
                func,
                index,
                alloc: HashMap::new(),
                spill_slots: 0,
                code: Vec::new(),
                inst_scopes: Vec::new(),
                line_rows: Vec::new(),
                bindings: Vec::new(),
                label_positions: HashMap::new(),
                fixups: Vec::new(),
                base_address: MachineProgram::default_base_address(index),
            }
        }

        fn emit(mut self) -> (MFunction, DebugArtifacts) {
            self.allocate_registers();
            self.emit_code();
            self.apply_fixups();
            let machine = MFunction {
                name: self.func.name.clone(),
                code: self.code,
                frame_slots: self.func.slots + self.spill_slots,
                base_address: self.base_address,
            };
            let artifacts = DebugArtifacts {
                base_address: self.base_address,
                code_len: machine.code.len(),
                line_rows: self.line_rows,
                inst_scopes: self.inst_scopes,
                bindings: self.bindings,
                frame_base: None,
            };
            (machine, artifacts)
        }

        /// Linear-scan register allocation over temp live ranges. Temps that are
        /// referenced by debug bindings are kept alive until the end of the
        /// function so that variable locations stay valid — mirroring how the
        /// unoptimized baseline keeps every variable observable.
        fn allocate_registers(&mut self) {
            let mut first_def: HashMap<Temp, usize> = HashMap::new();
            let mut last_use: HashMap<Temp, usize> = HashMap::new();
            let end = self.func.insts.len();
            for (i, param) in self.func.param_temps.iter().enumerate() {
                first_def.insert(*param, 0);
                last_use.insert(*param, end);
                let _ = i;
            }
            let extend = |map: &mut HashMap<Temp, usize>, t: Temp, i: usize| {
                let entry = map.entry(t).or_insert(i);
                *entry = (*entry).max(i);
            };
            for (i, inst) in self.func.insts.iter().enumerate() {
                if let Some(d) = inst.op.def() {
                    first_def.entry(d).or_insert(i);
                    extend(&mut last_use, d, i);
                }
                for u in inst.op.uses() {
                    if let Value::Temp(t) = u {
                        first_def.entry(t).or_insert(i);
                        extend(&mut last_use, t, i);
                    }
                }
                if let Op::DbgValue {
                    loc: DbgLoc::Value(Value::Temp(t)),
                    ..
                } = inst.op
                {
                    first_def.entry(t).or_insert(i);
                    extend(&mut last_use, t, end);
                }
            }
            // Loop back edges: a temp live anywhere inside a loop must stay live
            // until the backward branch, otherwise a temp defined later in the
            // body could take its register and clobber it on the next iteration.
            let mut back_edges: Vec<(usize, usize)> = Vec::new();
            let label_at = |label: crate::ir::BlockLabel| {
                self.func
                    .insts
                    .iter()
                    .position(|i| matches!(i.op, Op::Label(l) if l == label))
            };
            for (i, inst) in self.func.insts.iter().enumerate() {
                let target = match inst.op {
                    Op::Jump(l)
                    | Op::BranchZero { target: l, .. }
                    | Op::BranchNonZero { target: l, .. } => label_at(l),
                    _ => None,
                };
                if let Some(t) = target {
                    if t < i {
                        back_edges.push((t, i));
                    }
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for &(header, branch) in &back_edges {
                    for (temp, start) in first_def.iter() {
                        let stop = last_use.get(temp).copied().unwrap_or(*start);
                        if *start <= branch && stop >= header && stop < branch {
                            last_use.insert(*temp, branch);
                            changed = true;
                        }
                    }
                }
            }
            let mut ranges: Vec<(Temp, usize, usize)> = first_def
                .iter()
                .map(|(t, start)| (*t, *start, *last_use.get(t).unwrap_or(start)))
                .collect();
            ranges.sort_by_key(|(t, start, _)| (*start, t.0));

            let mut free: Vec<Reg> = (0..ALLOCATABLE as u8).rev().collect();
            // Pre-colour parameters into the argument registers; they are pinned
            // (never spilled) because the calling convention delivers arguments
            // there.
            let pinned: Vec<Temp> = self.func.param_temps.clone();
            let mut active: Vec<(usize, Temp, Reg)> = Vec::new();
            for (i, param) in self.func.param_temps.iter().enumerate() {
                let reg = i as Reg;
                free.retain(|r| *r != reg);
                self.alloc.insert(*param, Alloc::Reg(reg));
                active.push((end, *param, reg));
            }
            for (temp, start, stop) in ranges {
                if self.alloc.contains_key(&temp) {
                    continue;
                }
                // Expire old intervals.
                let mut still_active = Vec::new();
                for (a_end, a_temp, a_reg) in active.drain(..) {
                    if a_end < start {
                        free.push(a_reg);
                    } else {
                        still_active.push((a_end, a_temp, a_reg));
                    }
                }
                active = still_active;
                if let Some(reg) = free.pop() {
                    self.alloc.insert(temp, Alloc::Reg(reg));
                    active.push((stop, temp, reg));
                } else {
                    // Spill: prefer to spill the spillable active interval that
                    // ends last (never a pinned parameter).
                    active.sort_by_key(|(e, _, _)| *e);
                    let victim_index = active.iter().rposition(|(_, t, _)| !pinned.contains(t));
                    let spill_self = match victim_index {
                        Some(vi) => active[vi].0 < stop,
                        None => true,
                    };
                    if spill_self {
                        let slot = self.func.slots + self.spill_slots;
                        self.spill_slots += 1;
                        self.alloc.insert(temp, Alloc::Spill(slot));
                    } else {
                        let (_, victim, reg) = active.remove(victim_index.expect("victim exists"));
                        let slot = self.func.slots + self.spill_slots;
                        self.spill_slots += 1;
                        self.alloc.insert(victim, Alloc::Spill(slot));
                        self.alloc.insert(temp, Alloc::Reg(reg));
                        active.push((stop, temp, reg));
                    }
                }
            }
        }

        fn push(&mut self, inst: MInst, line: u32, scope: ScopeId, is_stmt: bool) {
            let address = self.base_address + self.code.len() as u64;
            self.line_rows.push(LineRow {
                address,
                line,
                is_stmt,
            });
            self.code.push(inst);
            self.inst_scopes.push(scope);
        }

        /// Materialize a value as an operand, loading spilled temps into a
        /// scratch register first.
        fn operand(&mut self, value: Value, scratch: Reg, line: u32, scope: ScopeId) -> Operand {
            match value {
                Value::Const(c) => Operand::Imm(c),
                Value::Temp(t) => match self.alloc.get(&t) {
                    Some(Alloc::Reg(r)) => Operand::Reg(*r),
                    Some(Alloc::Spill(slot)) => {
                        self.push(
                            MInst::Load {
                                dst: scratch,
                                addr: MAddr::Frame { slot: *slot },
                            },
                            line,
                            scope,
                            false,
                        );
                        Operand::Reg(scratch)
                    }
                    None => Operand::Imm(0),
                },
            }
        }

        /// Register a value must live in (for address/index registers).
        fn value_in_reg(&mut self, value: Value, scratch: Reg, line: u32, scope: ScopeId) -> Reg {
            match self.operand(value, scratch, line, scope) {
                Operand::Reg(r) => r,
                Operand::Imm(v) => {
                    self.push(
                        MInst::LoadImm {
                            dst: scratch,
                            value: v,
                        },
                        line,
                        scope,
                        false,
                    );
                    scratch
                }
                Operand::Slot(slot) => {
                    self.push(
                        MInst::Load {
                            dst: scratch,
                            addr: MAddr::Frame { slot },
                        },
                        line,
                        scope,
                        false,
                    );
                    scratch
                }
            }
        }

        /// The register to compute a destination into, plus whether it must be
        /// stored to a spill slot afterwards.
        fn dest(&mut self, temp: Temp) -> (Reg, Option<u32>) {
            match self.alloc.get(&temp) {
                Some(Alloc::Reg(r)) => (*r, None),
                Some(Alloc::Spill(slot)) => (SCRATCH0, Some(*slot)),
                None => (SCRATCH0, None),
            }
        }

        fn finish_dest(&mut self, spill: Option<u32>, reg: Reg, line: u32, scope: ScopeId) {
            if let Some(slot) = spill {
                self.push(
                    MInst::Store {
                        addr: MAddr::Frame { slot },
                        src: Operand::Reg(reg),
                    },
                    line,
                    scope,
                    false,
                );
            }
        }

        fn emit_code(&mut self) {
            for inst in &self.func.insts {
                let line = inst.line;
                let scope = inst.scope;
                let start = self.code.len();
                match &inst.op {
                    Op::Label(l) => {
                        self.label_positions.insert(l.0, self.code.len() as u32);
                    }
                    Op::DbgValue { var, loc } => {
                        let location = self.lower_dbg_loc(*loc);
                        // Coalesce bindings landing on the same machine address:
                        // only the last one can ever take effect, and keeping the
                        // earlier one would create an empty location range.
                        self.bindings
                            .retain(|(index, v, _)| !(*index == self.code.len() && v == var));
                        self.bindings.push((self.code.len(), *var, location));
                    }
                    Op::Nop => {}
                    Op::Copy { dst, src } => {
                        let (reg, spill) = self.dest(*dst);
                        let src_op = self.operand(*src, SCRATCH1, line, scope);
                        self.push(
                            MInst::Mov {
                                dst: reg,
                                src: src_op,
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::Un { dst, op, src } => {
                        let (reg, spill) = self.dest(*dst);
                        let src_op = self.operand(*src, SCRATCH1, line, scope);
                        self.push(
                            MInst::Un {
                                op: *op,
                                dst: reg,
                                src: src_op,
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::Bin { dst, op, lhs, rhs } => {
                        let (reg, spill) = self.dest(*dst);
                        let lhs_reg = self.value_in_reg(*lhs, SCRATCH1, line, scope);
                        let rhs_op = self.operand(*rhs, SCRATCH0, line, scope);
                        self.push(
                            MInst::Bin {
                                op: *op,
                                dst: reg,
                                lhs: Operand::Reg(lhs_reg),
                                rhs: rhs_op,
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::Trunc {
                        dst,
                        src,
                        bits,
                        signed,
                    } => {
                        let (reg, spill) = self.dest(*dst);
                        let src_op = self.operand(*src, SCRATCH1, line, scope);
                        self.push(
                            MInst::Mov {
                                dst: reg,
                                src: src_op,
                            },
                            line,
                            scope,
                            true,
                        );
                        self.push(
                            MInst::Trunc {
                                dst: reg,
                                bits: *bits,
                                signed: *signed,
                            },
                            line,
                            scope,
                            false,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::LoadGlobal {
                        dst, global, index, ..
                    } => {
                        let (reg, spill) = self.dest(*dst);
                        let addr = self.global_addr(*global, *index, line, scope);
                        self.push(MInst::Load { dst: reg, addr }, line, scope, true);
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::StoreGlobal {
                        global,
                        index,
                        value,
                        ..
                    } => {
                        let addr = self.global_addr(*global, *index, line, scope);
                        let src = self.operand(*value, SCRATCH0, line, scope);
                        self.push(MInst::Store { addr, src }, line, scope, true);
                    }
                    Op::LoadSlot { dst, slot } => {
                        let (reg, spill) = self.dest(*dst);
                        self.push(
                            MInst::Load {
                                dst: reg,
                                addr: MAddr::Frame { slot: slot.0 },
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::StoreSlot { slot, value } => {
                        let src = self.operand(*value, SCRATCH0, line, scope);
                        self.push(
                            MInst::Store {
                                addr: MAddr::Frame { slot: slot.0 },
                                src,
                            },
                            line,
                            scope,
                            true,
                        );
                    }
                    Op::LoadPtr { dst, addr } => {
                        let (reg, spill) = self.dest(*dst);
                        let addr_reg = self.value_in_reg(*addr, SCRATCH1, line, scope);
                        self.push(
                            MInst::Load {
                                dst: reg,
                                addr: MAddr::Indirect { reg: addr_reg },
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::StorePtr { addr, value } => {
                        let addr_reg = self.value_in_reg(*addr, SCRATCH1, line, scope);
                        let src = self.operand(*value, SCRATCH0, line, scope);
                        self.push(
                            MInst::Store {
                                addr: MAddr::Indirect { reg: addr_reg },
                                src,
                            },
                            line,
                            scope,
                            true,
                        );
                    }
                    Op::AddrGlobal { dst, global } => {
                        let (reg, spill) = self.dest(*dst);
                        self.push(
                            MInst::Lea {
                                dst: reg,
                                addr: MAddr::Global {
                                    global: global.0 as u32,
                                    index: None,
                                    disp: 0,
                                },
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::AddrSlot { dst, slot } => {
                        let (reg, spill) = self.dest(*dst);
                        self.push(
                            MInst::Lea {
                                dst: reg,
                                addr: MAddr::Frame { slot: slot.0 },
                            },
                            line,
                            scope,
                            true,
                        );
                        self.finish_dest(spill, reg, line, scope);
                    }
                    Op::Jump(l) => {
                        self.fixups.push((self.code.len(), l.0));
                        self.push(MInst::Jump { target: 0 }, line, scope, true);
                    }
                    Op::BranchZero { cond, target } => {
                        let reg = self.value_in_reg(*cond, SCRATCH1, line, scope);
                        self.fixups.push((self.code.len(), target.0));
                        self.push(
                            MInst::BranchZero {
                                cond: reg,
                                target: 0,
                            },
                            line,
                            scope,
                            true,
                        );
                    }
                    Op::BranchNonZero { cond, target } => {
                        let reg = self.value_in_reg(*cond, SCRATCH1, line, scope);
                        self.fixups.push((self.code.len(), target.0));
                        self.push(
                            MInst::BranchNonZero {
                                cond: reg,
                                target: 0,
                            },
                            line,
                            scope,
                            true,
                        );
                    }
                    Op::Call { dst, callee, args } => {
                        let arg_ops: Vec<Operand> =
                            args.iter().map(|a| self.call_operand(*a)).collect();
                        let ret = dst.map(|d| self.dest(d));
                        self.push(
                            MInst::Call {
                                target: CallTarget::Function(callee.0 as u32),
                                args: arg_ops,
                                ret: ret.map(|(r, _)| r),
                            },
                            line,
                            scope,
                            true,
                        );
                        if let Some((reg, spill)) = ret {
                            self.finish_dest(spill, reg, line, scope);
                        }
                    }
                    Op::CallSink { args } => {
                        let arg_ops: Vec<Operand> =
                            args.iter().map(|a| self.call_operand(*a)).collect();
                        self.push(
                            MInst::Call {
                                target: CallTarget::Sink,
                                args: arg_ops,
                                ret: None,
                            },
                            line,
                            scope,
                            true,
                        );
                    }
                    Op::Ret { value } => {
                        let v = value.map(|val| self.operand(val, SCRATCH1, line, scope));
                        self.push(MInst::Ret { value: v }, line, scope, true);
                    }
                }
                // Make sure the first machine instruction of the IR instruction
                // carries the statement flag; helpers may already have emitted
                // spill loads flagged as non-statements, which is fine.
                let _ = start;
            }
        }

        /// Operand for a call argument: spilled temps are passed as frame-slot
        /// operands so that several spilled arguments do not fight over the
        /// scratch registers.
        fn call_operand(&mut self, value: Value) -> Operand {
            match value {
                Value::Const(c) => Operand::Imm(c),
                Value::Temp(t) => match self.alloc.get(&t) {
                    Some(Alloc::Reg(r)) => Operand::Reg(*r),
                    Some(Alloc::Spill(slot)) => Operand::Slot(*slot),
                    None => Operand::Imm(0),
                },
            }
        }

        fn global_addr(
            &mut self,
            global: holes_minic::ast::GlobalId,
            index: Option<Value>,
            line: u32,
            scope: ScopeId,
        ) -> MAddr {
            match index {
                None => MAddr::Global {
                    global: global.0 as u32,
                    index: None,
                    disp: 0,
                },
                Some(Value::Const(c)) => MAddr::Global {
                    global: global.0 as u32,
                    index: None,
                    disp: c.max(0) as u32,
                },
                Some(v) => {
                    let reg = self.value_in_reg(v, SCRATCH1, line, scope);
                    MAddr::Global {
                        global: global.0 as u32,
                        index: Some(reg),
                        disp: 0,
                    }
                }
            }
        }

        fn lower_dbg_loc(&self, loc: DbgLoc) -> Location {
            match loc {
                DbgLoc::Value(Value::Const(c)) => Location::ConstValue(c),
                DbgLoc::Value(Value::Temp(t)) => match self.alloc.get(&t) {
                    Some(Alloc::Reg(r)) => Location::Register(*r),
                    Some(Alloc::Spill(slot)) => Location::FrameSlot(*slot),
                    None => Location::Empty,
                },
                DbgLoc::Slot(SlotId(s)) => Location::FrameSlot(s),
                DbgLoc::Undef => Location::Empty,
            }
        }

        fn apply_fixups(&mut self) {
            for (inst_index, label) in std::mem::take(&mut self.fixups) {
                let target = self
                    .label_positions
                    .get(&label)
                    .copied()
                    .unwrap_or(self.code.len() as u32);
                match &mut self.code[inst_index] {
                    MInst::Jump { target: t }
                    | MInst::BranchZero { target: t, .. }
                    | MInst::BranchNonZero { target: t, .. } => *t = target,
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use holes_machine::Machine;
    use holes_minic::ast::{BinOp, Expr, LValue, Stmt, Ty, VarRef};
    use holes_minic::build::ProgramBuilder;
    use holes_minic::interp::Interpreter;

    fn build_and_run(program: &Program) -> (holes_machine::RunOutcome, DebugInfo) {
        let ir = lower_program(program);
        let (machine, debug) = codegen(program, &ir, "test.c");
        let outcome = Machine::new(&machine).run_to_completion().expect("runs");
        (outcome, debug)
    }

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let arr = b.global_array("a", Ty::I32, false, vec![3], vec![5, 6, 7]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        let i = b.local(main, "i", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(4))));
        b.push(
            main,
            Stmt::for_loop(
                Some(Stmt::assign(LValue::local(i), Expr::lit(0))),
                Some(Expr::binary(BinOp::Lt, Expr::local(i), Expr::lit(3))),
                Some(Stmt::assign(
                    LValue::local(i),
                    Expr::binary(BinOp::Add, Expr::local(i), Expr::lit(1)),
                )),
                vec![Stmt::assign(
                    LValue::global(g),
                    Expr::binary(
                        BinOp::Add,
                        Expr::global(g),
                        Expr::index(VarRef::Global(arr), vec![Expr::local(i)]),
                    ),
                )],
            ),
        );
        b.push(
            main,
            Stmt::call_opaque(vec![Expr::local(x), Expr::local(i)]),
        );
        b.push(main, Stmt::ret(Some(Expr::global(g))));
        let mut p = b.finish();
        p.assign_lines();
        p
    }

    #[test]
    fn unoptimized_codegen_matches_interpreter() {
        let p = sample_program();
        let reference = Interpreter::new(&p).run().expect("interpreter runs");
        let (outcome, _) = build_and_run(&p);
        assert!(outcome.matches(&reference), "{outcome:?} vs {reference:?}");
        assert_eq!(outcome.return_value, 18);
    }

    #[test]
    fn line_table_covers_every_statement_line() {
        let mut p = sample_program();
        let map = p.assign_lines();
        let ir = lower_program(&p);
        let (_, debug) = codegen(&p, &ir, "test.c");
        let main = p.main();
        let steppable = debug.line_table.steppable_lines();
        for line in map.lines_of(main) {
            assert!(
                steppable.contains(line),
                "line {line} missing from line table"
            );
        }
    }

    #[test]
    fn variables_have_dies_with_locations() {
        let p = sample_program();
        let (_, debug) = build_and_run(&p);
        let sub = debug
            .iter()
            .find(|(_, d)| d.tag == DieTag::Subprogram && d.name() == Some("main"))
            .map(|(id, _)| id)
            .expect("main subprogram exists");
        let (lo, _) = debug.die(sub).pc_range().unwrap();
        for name in ["x", "i"] {
            let var = debug.find_variable(sub, name, lo).expect("variable die");
            let die = debug.die(var);
            assert!(
                die.attr(Attr::ConstValue).is_some() || die.attr(Attr::Location).is_some(),
                "{name} has neither const value nor location"
            );
        }
    }

    #[test]
    fn globals_have_external_dies() {
        let p = sample_program();
        let (_, debug) = build_and_run(&p);
        let globals: Vec<_> = debug
            .iter()
            .filter(|(_, d)| d.tag == DieTag::Variable && d.attr(Attr::External).is_some())
            .collect();
        assert_eq!(globals.len(), 2);
    }

    #[test]
    fn functions_with_many_locals_spill_but_stay_correct() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I64, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let mut sum = Expr::lit(0);
        for i in 0..20 {
            let v = b.local(main, &format!("v{i}"), Ty::I64);
            b.push(main, Stmt::decl(v, Some(Expr::lit(i as i64))));
            sum = Expr::binary(BinOp::Add, sum, Expr::local(v));
        }
        b.push(main, Stmt::assign(LValue::global(g), sum));
        b.push(main, Stmt::ret(Some(Expr::global(g))));
        let mut p = b.finish();
        p.assign_lines();
        let reference = Interpreter::new(&p).run().unwrap();
        let (outcome, _) = build_and_run(&p);
        assert!(outcome.matches(&reference));
        assert_eq!(outcome.return_value, (0..20).sum::<i64>());
    }

    #[test]
    fn pointer_programs_compile_correctly() {
        let mut b = ProgramBuilder::new();
        let g = b.global("b", Ty::I32, false, vec![5]);
        let out = b.global("out", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        let ptr = b.local(main, "p", Ty::Ptr(&Ty::I32));
        b.push(main, Stmt::decl(x, Some(Expr::lit(9))));
        b.push(main, Stmt::decl(ptr, Some(Expr::addr_of(VarRef::Local(x)))));
        b.push(
            main,
            Stmt::assign(LValue::Deref(VarRef::Local(ptr)), Expr::lit(11)),
        );
        b.push(
            main,
            Stmt::assign(LValue::local(ptr), Expr::addr_of(VarRef::Global(g))),
        );
        b.push(
            main,
            Stmt::assign(
                LValue::global(out),
                Expr::binary(BinOp::Add, Expr::deref(Expr::local(ptr)), Expr::local(x)),
            ),
        );
        b.push(main, Stmt::ret(Some(Expr::global(out))));
        let mut p = b.finish();
        p.assign_lines();
        let reference = Interpreter::new(&p).run().unwrap();
        let (outcome, _) = build_and_run(&p);
        assert!(outcome.matches(&reference), "{outcome:?} vs {reference:?}");
        assert_eq!(outcome.return_value, 16);
    }

    #[test]
    fn internal_calls_compile_correctly() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let callee = b.function("twice", Ty::I32);
        let p0 = b.param(callee, "p0", Ty::I32);
        b.push(
            callee,
            Stmt::ret(Some(Expr::binary(
                BinOp::Mul,
                Expr::local(p0),
                Expr::lit(2),
            ))),
        );
        let main = b.function("main", Ty::I32);
        b.push(
            main,
            Stmt::assign(LValue::global(g), Expr::call(callee, vec![Expr::lit(21)])),
        );
        b.push(main, Stmt::ret(Some(Expr::global(g))));
        let mut p = b.finish();
        p.assign_lines();
        let reference = Interpreter::new(&p).run().unwrap();
        let (outcome, _) = build_and_run(&p);
        assert!(outcome.matches(&reference));
        assert_eq!(outcome.return_value, 42);
    }

    #[test]
    fn pipeline_codegen_matches_the_legacy_monolithic_backend() {
        use crate::config::{CompilerConfig, OptLevel, Personality};
        use crate::passes::run_pipeline;
        use holes_progen::ProgramGenerator;
        for seed in 0..16u64 {
            let p = ProgramGenerator::from_seed(seed).generate().program;
            for personality in [Personality::Ccg, Personality::Lcc] {
                for level in OptLevel::ALL {
                    let config = CompilerConfig::new(personality, level);
                    let mut ir = lower_program(&p);
                    run_pipeline(&mut ir, &p, &config);
                    let (machine_new, debug_new) = codegen(&p, &ir, "testcase.c");
                    let (machine_old, debug_old) = legacy::codegen_legacy(&p, &ir, "testcase.c");
                    assert_eq!(
                        machine_new, machine_old,
                        "machine code diverged from the legacy backend \
                         (seed {seed}, {personality:?} {level:?})"
                    );
                    assert_eq!(
                        debug_new, debug_old,
                        "debug info diverged from the legacy backend \
                         (seed {seed}, {personality:?} {level:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_backend_preserves_semantics_and_saves_callee_saved_registers() {
        use crate::config::{CompilerConfig, OptLevel, Personality};
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I64, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let mut sum = Expr::lit(0);
        for i in 0..20 {
            let v = b.local(main, &format!("v{i}"), Ty::I64);
            b.push(main, Stmt::decl(v, Some(Expr::lit(i as i64))));
            sum = Expr::binary(BinOp::Add, sum, Expr::local(v));
        }
        b.push(main, Stmt::assign(LValue::global(g), sum));
        b.push(main, Stmt::ret(Some(Expr::global(g))));
        let mut p = b.finish();
        p.assign_lines();
        let reference = Interpreter::new(&p).run().unwrap();
        let ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O0)
            .without_defects()
            .with_backend(holes_machine::BackendKind::Frame);
        let (machine, debug, applied) = codegen_frame(&p, &ir, "test.c", &config);
        assert!(applied.is_empty(), "defects are disabled");
        let outcome = Machine::new(&machine)
            .run_to_completion()
            .expect("frame-ABI code runs");
        assert!(outcome.matches(&reference), "{outcome:?} vs {reference:?}");
        // The function uses callee-saved registers, so the prologue must
        // save them and the frame must include the save area.
        let entry = &machine.functions[machine.entry as usize];
        assert!(
            matches!(
                entry.code[0],
                MInst::Store {
                    addr: MAddr::Frame { .. },
                    ..
                }
            ),
            "prologue saves callee-saved registers: {:?}",
            entry.code[0]
        );
        // Subprogram DIEs advertise the frame base.
        let sub = debug
            .iter()
            .find(|(_, d)| d.tag == DieTag::Subprogram && d.name() == Some("main"))
            .map(|(id, _)| id)
            .expect("main subprogram exists");
        assert!(
            debug.die(sub).attr(Attr::FrameBase).is_some(),
            "frame-ABI subprograms carry DW_AT_frame_base"
        );
    }

    #[test]
    fn frame_defects_fire_and_alter_only_locations() {
        use crate::config::{CompilerConfig, OptLevel, Personality};
        use crate::passes::run_pipeline;
        use holes_progen::ProgramGenerator;
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2)
            .with_backend(holes_machine::BackendKind::Frame);
        let clean = config.clone().without_defects();
        let mut fired = false;
        for seed in 0..40u64 {
            let p = ProgramGenerator::from_seed(seed).generate().program;
            let mut ir = lower_program(&p);
            run_pipeline(&mut ir, &p, &config);
            let (machine, debug, applied) = codegen_frame(&p, &ir, "testcase.c", &config);
            let (machine_clean, debug_clean, applied_clean) =
                codegen_frame(&p, &ir, "testcase.c", &clean);
            assert!(applied_clean.is_empty(), "disabled defects never fire");
            assert_eq!(
                machine, machine_clean,
                "frame defects must never change machine code (seed {seed})"
            );
            if !applied.is_empty() {
                fired = true;
                assert_ne!(
                    debug, debug_clean,
                    "a fired frame defect must corrupt debug info (seed {seed})"
                );
            }
        }
        assert!(fired, "no frame defect fired over the seed range");
    }
}
