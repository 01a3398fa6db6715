//! The injected defect catalogue.
//!
//! The paper reports 38 issues in real compilers and debuggers (Table 3).
//! We cannot ship gcc and clang, so the reproduction injects *documented,
//! deterministic* debug-information defects into the corresponding passes of
//! the two compiler personalities. Each [`Defect`] records the paper bug it
//! mirrors, the pass it lives in, the optimization levels it affects, the
//! expected DIE-level manifestation and the conjecture(s) that expose it.
//! The defect does **not** change generated code — only how debug bindings
//! are maintained — exactly like the completeness bugs the paper studies.
//!
//! Version profiles control which defects are present: older versions carry
//! additional (since fixed) defects, the "patched" ccg profile removes the
//! analogue of gcc bug 105158, and the "trunk-star" lcc profile removes most
//! of the loop-strength-reduction defect — reproducing the regression study
//! of §5.4 / Table 4.

use holes_debuginfo::DieCategory;

use crate::config::{CompilerConfig, OptLevel, Personality};
use crate::ir::{DbgLoc, DebugVarId, Inst, IrFunction, Op, ScopeKind, Value};

/// How a defect corrupts debug information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectAction {
    /// Drop every debug binding of the selected variables *and* suppress
    /// their DIEs (the *Missing DIE* manifestation).
    DropDie,
    /// Drop every debug binding of the selected variables but keep the DIE
    /// (the *Hollow DIE* manifestation).
    DropDbg,
    /// Replace the bindings of the selected variables with "undefined"
    /// (optimized-out ranges; *Hollow*/*Incomplete* manifestations).
    UndefDbg,
    /// Move the bindings of the selected variables later in the instruction
    /// stream by the given distance, so their location ranges start too late
    /// (the *Incomplete DIE* manifestation behind most Conjecture 3 bugs).
    DelayDbg(usize),
    /// Insert an "undefined" binding for the selected variables right before
    /// every call to the opaque sink, so the range does not cover the call
    /// (the *Incomplete DIE* manifestation of e.g. gcc bug 105179).
    TruncateBeforeSink,
    /// Re-home the selected variables into a bogus lexical block that only
    /// covers the function prologue, so the debugger cannot find them at the
    /// relevant program points despite complete location data (the
    /// *Incorrect DIE* manifestation).
    MisScope,
    /// Lose the location of the selected variables whenever register
    /// allocation spills them: the stack backend's code generator emits an
    /// empty location instead of the stack-relative (`FrameBase`)
    /// description the spill slot would need. This is a **code-generation**
    /// defect, applied during lowering rather than on the IR
    /// ([`apply_defect`] is a no-op for it), and it only exists on the
    /// stack backend — the register backend's ISA never homes the affected
    /// bindings in frame-base-relative locations, so this violation class
    /// is inexpressible there. Models the "variable went missing once it
    /// was spilled" holes of the paper's §2 taxonomy.
    DropSpillLoc,
    /// Describe the selected frame-resident variables with
    /// frame-base-relative (`DW_OP_fbreg`) offsets computed against the
    /// *function-entry* frame-base rule — the rule that held before the
    /// prologue allocated the frame — so every offset is shifted up by the
    /// whole frame and resolves past its end. Where the stack has never
    /// grown beyond the stopped frame the read fails and the debugger
    /// reports the variable optimized out; where a deeper call has been
    /// and gone it reads stale bytes from the dead frame. A
    /// **code-generation** defect of the frame-ABI backend only
    /// ([`apply_defect`] is a no-op): neither the banked register backend
    /// (no frame base at all) nor the stack backend (no prologue-advanced
    /// frame rule) can express it. Models `DW_CFA`-advance bugs where the
    /// consumer applies a CFA rule that lags the prologue.
    StaleFrameBase,
    /// Drop the location of the selected variables that live in a
    /// callee-saved register: the frame map is missing that register's
    /// save-slot rule, so the producer cannot prove where the value lives
    /// across calls and conservatively emits no location at all. The
    /// debugger reports the variable optimized out even though the
    /// register holds it the whole time — modelling a frame map whose
    /// callee-saved rule set is incomplete. Frame-ABI backend only, for
    /// the same reason as [`DefectAction::StaleFrameBase`].
    ClobberCalleeSaved,
}

/// Which variables a defect applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarSelector {
    /// Variable class.
    pub class: VarClass,
    /// Keep only variables whose index is congruent to `offset` modulo
    /// `modulus` (frequency control; `modulus == 1` selects every variable of
    /// the class).
    pub modulus: u32,
    /// See `modulus`.
    pub offset: u32,
}

impl VarSelector {
    /// Select every variable of a class.
    pub const fn all(class: VarClass) -> VarSelector {
        VarSelector {
            class,
            modulus: 1,
            offset: 0,
        }
    }

    /// Select a deterministic fraction of the variables of a class.
    pub const fn nth(class: VarClass, offset: u32, modulus: u32) -> VarSelector {
        VarSelector {
            class,
            modulus,
            offset,
        }
    }
}

/// Variable classes a defect can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// Any local variable.
    Any,
    /// Variables whose current binding is a compile-time constant.
    ConstValued,
    /// Canonical loop induction variables.
    InductionVar,
    /// Address-taken variables (slot-homed).
    SlotVar,
    /// Variables declared in an unnamed lexical block.
    BlockScoped,
}

/// One injected defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defect {
    /// Identifier, `<personality>-<paper bug id>` for defects that mirror a
    /// reported bug, `<personality>-legacy-*` for historical defects that
    /// model the paper's older-release behaviour.
    pub id: &'static str,
    /// The paper bug report this defect mirrors (empty for legacy defects).
    pub paper_ref: &'static str,
    /// Personality the defect belongs to.
    pub personality: Personality,
    /// Pass (by schedule name) whose debug-info maintenance is broken.
    /// `"isel"` denotes the always-on code-generation stage.
    pub pass: &'static str,
    /// Levels at which the defect manifests.
    pub levels: &'static [OptLevel],
    /// Expected DIE-level manifestation (Table 3's "DWARF analysis" column).
    pub category: DieCategory,
    /// Conjectures (1–3) that typically expose the defect.
    pub conjectures: &'static [u8],
    /// What the defect does.
    pub action: DefectAction,
    /// Which variables it hits.
    pub selector: VarSelector,
    /// First version index (per personality) in which the defect exists.
    pub introduced: usize,
    /// Version index from which the defect is fixed, if any.
    pub fixed: Option<usize>,
}

impl Defect {
    /// Whether the defect is present in the given configuration (version and
    /// level match, and defects are not globally disabled).
    pub fn active_in(&self, config: &CompilerConfig) -> bool {
        !config.disable_defects
            && self.personality == config.personality
            && config.version >= self.introduced
            && self.fixed.is_none_or(|f| config.version < f)
            && self.levels.contains(&config.level)
    }
}

use DefectAction as A;
use DieCategory as Cat;
use OptLevel::*;
use Personality::{Ccg, Lcc};
use VarClass as C;

const ALL_CCG_LEVELS: &[OptLevel] = &[Og, O1, O2, O3, Os, Oz];
const ALL_LCC_LEVELS: &[OptLevel] = &[Og, O2, O3, Os, Oz];

/// The full defect catalogue for a personality.
pub fn catalogue(personality: Personality) -> Vec<Defect> {
    match personality {
        Personality::Ccg => ccg_catalogue(),
        Personality::Lcc => lcc_catalogue(),
    }
}

fn ccg_catalogue() -> Vec<Defect> {
    vec![
        Defect {
            id: "ccg-105158",
            paper_ref: "gcc bug 105158 (cleanup_tree_cfg loses bindings)",
            personality: Ccg,
            pass: "cfg-cleanup",
            levels: &[O1, O2, O3, Os, Oz],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::Any, 0, 2),
            introduced: 0,
            fixed: Some(5),
        },
        Defect {
            id: "ccg-105179",
            paper_ref: "gcc bug 105179 (-fcprop-registers range misses call)",
            personality: Ccg,
            pass: "cprop-registers",
            levels: &[Og],
            category: Cat::IncompleteDie,
            conjectures: &[1],
            action: A::TruncateBeforeSink,
            selector: VarSelector::nth(C::Any, 0, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105007",
            paper_ref: "gcc bug 105007 (EVRP drops propagated constant)",
            personality: Ccg,
            pass: "evrp",
            levels: &[O2, O3],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::ConstValued, 1, 3),
            introduced: 2,
            fixed: None,
        },
        Defect {
            id: "ccg-105108",
            paper_ref: "gcc bug 105108 (CCP omits DW_AT_const_value)",
            personality: Ccg,
            pass: "tree-ccp",
            levels: &[Og, O1],
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::ConstValued, 0, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105161",
            paper_ref: "gcc bug 105161 (constant folding loses value)",
            personality: Ccg,
            pass: "tree-ccp",
            levels: &[Og, O1, O2, O3],
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::ConstValued, 1, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105145",
            paper_ref: "gcc bug 105145 (address-taken locals in registers)",
            personality: Ccg,
            pass: "ipa-sra",
            levels: &[O1, O2, O3],
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::DropDbg,
            selector: VarSelector::all(C::SlotVar),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105248",
            paper_ref: "gcc bug 105248 (DSE drops bindings, code unchanged)",
            personality: Ccg,
            pass: "tree-dse",
            levels: &[O1, O2, O3],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::ConstValued, 2, 5),
            introduced: 1,
            fixed: None,
        },
        Defect {
            id: "ccg-105176",
            paper_ref: "gcc bug 105176 (DCE drops bindings at -Os/-Oz)",
            personality: Ccg,
            pass: "tree-dce",
            levels: &[Os, Oz],
            category: Cat::IncompleteDie,
            conjectures: &[1],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::Any, 1, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105261",
            paper_ref: "gcc bug 105261 (SRA drops constant-valued variables)",
            personality: Ccg,
            pass: "ipa-sra",
            levels: &[O2, O3, Os, Oz],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::ConstValued, 3, 5),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105249",
            paper_ref: "gcc bug 105249 (scheduler attributes code to wrong scope)",
            personality: Ccg,
            pass: "schedule-insns2",
            levels: &[Os],
            category: Cat::Covered,
            conjectures: &[2],
            action: A::MisScope,
            selector: VarSelector::all(C::InductionVar),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105036",
            paper_ref: "gcc bug 105036 (scheduling + inlining + unrolling)",
            personality: Ccg,
            pass: "schedule-insns2",
            levels: &[O3],
            category: Cat::Covered,
            conjectures: &[2],
            action: A::MisScope,
            selector: VarSelector::nth(C::InductionVar, 0, 2),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-104938",
            paper_ref: "gcc bug 104938 (CCP shrinks location range at -Og)",
            personality: Ccg,
            pass: "tree-ccp",
            levels: &[Og],
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(6),
            selector: VarSelector::nth(C::Any, 0, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105124",
            paper_ref: "gcc bug 105124 (range misses live lines at -Og)",
            personality: Ccg,
            pass: "tree-ccp",
            levels: &[Og],
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(4),
            selector: VarSelector::nth(C::ConstValued, 1, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105194",
            paper_ref: "gcc bug 105194 (cfg cleanup after DCE, fixed with 105158)",
            personality: Ccg,
            pass: "cfg-cleanup",
            levels: &[Og, O1, O2, O3],
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(5),
            selector: VarSelector::nth(C::Any, 2, 4),
            introduced: 0,
            fixed: Some(5),
        },
        Defect {
            id: "ccg-105159",
            paper_ref: "gcc bug 105159 (-fipa-reference-addressable at -Og)",
            personality: Ccg,
            pass: "toplevel-reorder",
            levels: &[Og],
            category: Cat::HollowDie,
            conjectures: &[3],
            action: A::DropDbg,
            selector: VarSelector::nth(C::Any, 3, 6),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-104549",
            paper_ref: "gcc bug 104549 (inlining emits wrong location range)",
            personality: Ccg,
            pass: "inline",
            levels: &[O2, O3],
            category: Cat::Covered,
            conjectures: &[1],
            action: A::MisScope,
            selector: VarSelector::nth(C::ConstValued, 0, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-104891",
            paper_ref: "gcc bug 104891 (unnamed scopes lose constants)",
            personality: Ccg,
            pass: "tree-vrp",
            levels: &[O2, O3],
            category: Cat::IncompleteDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::all(C::BlockScoped),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "ccg-105389",
            paper_ref: "gcc bug 105389 (one value range missing at -Og)",
            personality: Ccg,
            pass: "cprop-registers",
            levels: &[Og],
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(3),
            selector: VarSelector::nth(C::Any, 1, 5),
            introduced: 0,
            fixed: None,
        },
        // Historical defects: fixed before trunk; they reproduce the
        // much larger violation counts of old releases (Table 4, Figure 1).
        Defect {
            id: "ccg-legacy-ivopts",
            paper_ref: "",
            personality: Ccg,
            pass: "ivopts",
            levels: ALL_CCG_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::all(C::InductionVar),
            introduced: 0,
            fixed: Some(3),
        },
        Defect {
            id: "ccg-legacy-dce",
            paper_ref: "",
            personality: Ccg,
            pass: "tree-dce",
            levels: ALL_CCG_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[1, 3],
            action: A::DropDbg,
            selector: VarSelector::nth(C::Any, 0, 4),
            introduced: 0,
            fixed: Some(2),
        },
        Defect {
            id: "ccg-legacy-cleanup",
            paper_ref: "",
            personality: Ccg,
            pass: "cfg-cleanup",
            levels: ALL_CCG_LEVELS,
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(7),
            selector: VarSelector::nth(C::Any, 1, 2),
            introduced: 0,
            fixed: Some(2),
        },
        Defect {
            id: "ccg-legacy-ccp",
            paper_ref: "",
            personality: Ccg,
            pass: "tree-ccp",
            levels: ALL_CCG_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[2, 3],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::ConstValued, 2, 3),
            introduced: 0,
            fixed: Some(2),
        },
    ]
}

fn lcc_catalogue() -> Vec<Defect> {
    vec![
        Defect {
            id: "lcc-53855a",
            paper_ref: "clang bug 53855a (LSR fails to salvage induction variables)",
            personality: Lcc,
            pass: "lsr",
            levels: &[Og, O2, O3, Oz],
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::all(C::InductionVar),
            introduced: 0,
            fixed: Some(5),
        },
        Defect {
            id: "lcc-53855b",
            paper_ref: "clang bug 53855b (LSR, not covered by the trunk* fix)",
            personality: Lcc,
            pass: "lsr",
            levels: &[Os],
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::all(C::InductionVar),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-55101",
            paper_ref: "clang bug 55101 (LSR + instruction selection)",
            personality: Lcc,
            pass: "lsr",
            levels: &[O2],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::Any, 1, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-49546",
            paper_ref: "clang bug 49546 (SimplifyCFG drops lone debug statements)",
            personality: Lcc,
            pass: "simplifycfg",
            levels: &[Og],
            category: Cat::MissingDie,
            conjectures: &[1],
            action: A::DropDie,
            selector: VarSelector::nth(C::InductionVar, 0, 2),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-49769",
            paper_ref: "clang bug 49769 (CFG simplification after inlining)",
            personality: Lcc,
            pass: "simplifycfg",
            levels: &[Og],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::ConstValued, 0, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-55115",
            paper_ref: "clang bug 55115 (debug statements cannot be re-homed)",
            personality: Lcc,
            pass: "simplifycfg-late",
            levels: &[Og, O2, O3],
            category: Cat::MissingDie,
            conjectures: &[1],
            action: A::DropDie,
            selector: VarSelector::nth(C::Any, 2, 5),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-49580",
            paper_ref: "clang bug 49580 (loop rotation loses exit-block metadata)",
            personality: Lcc,
            pass: "loop-rotate",
            levels: &[Og],
            category: Cat::MissingDie,
            conjectures: &[1],
            action: A::DropDie,
            selector: VarSelector::nth(C::InductionVar, 1, 2),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-49973",
            paper_ref: "clang bug 49973 (induction-variable simplification)",
            personality: Lcc,
            pass: "indvars",
            levels: &[O3],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::ConstValued, 1, 3),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-49975",
            paper_ref: "clang bug 49975 (InstructionCombining peephole)",
            personality: Lcc,
            pass: "instcombine",
            levels: &[O3],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDie,
            selector: VarSelector::nth(C::Any, 0, 5),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-51780",
            paper_ref: "clang bug 51780 (instruction selection, global loads)",
            personality: Lcc,
            pass: "isel",
            levels: &[O2],
            category: Cat::MissingDie,
            conjectures: &[1],
            action: A::DropDie,
            selector: VarSelector::nth(C::Any, 1, 5),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-55123",
            paper_ref: "clang bug 55123 (instcombine + inlining interaction)",
            personality: Lcc,
            pass: "instcombine",
            levels: &[Og, O2, O3],
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::ConstValued, 2, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-54611",
            paper_ref: "clang bug 54611 (scheduling leaves incomplete ranges)",
            personality: Lcc,
            pass: "machine-scheduler",
            levels: &[O2],
            category: Cat::IncompleteDie,
            conjectures: &[2],
            action: A::DelayDbg(4),
            selector: VarSelector::nth(C::Any, 0, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-54757",
            paper_ref: "clang bug 54757 (loop removal drops expression parts)",
            personality: Lcc,
            pass: "loop-unroll",
            levels: &[Og, O2, O3],
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::InductionVar, 1, 2),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-54763",
            paper_ref: "clang bug 54763 (phi-node placement limitation)",
            personality: Lcc,
            pass: "instcombine",
            levels: &[O2, O3],
            category: Cat::IncompleteDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::ConstValued, 3, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-50286",
            paper_ref: "clang bug 50286 (instruction scheduling at -Og)",
            personality: Lcc,
            pass: "machine-scheduler",
            levels: &[Og],
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(5),
            selector: VarSelector::nth(C::Any, 1, 4),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: "lcc-54796",
            paper_ref: "clang bug 54796 (SROA drops then partially restores)",
            personality: Lcc,
            pass: "sroa",
            levels: &[Os],
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(6),
            selector: VarSelector::all(C::SlotVar),
            introduced: 0,
            fixed: None,
        },
        // Historical defects fixed before trunk.
        Defect {
            id: "lcc-legacy-lsr",
            paper_ref: "",
            personality: Lcc,
            pass: "lsr",
            levels: ALL_LCC_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::DropDbg,
            selector: VarSelector::nth(C::Any, 0, 2),
            introduced: 0,
            fixed: Some(2),
        },
        Defect {
            id: "lcc-legacy-sroa",
            paper_ref: "",
            personality: Lcc,
            pass: "sroa",
            levels: ALL_LCC_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[2, 3],
            action: A::UndefDbg,
            selector: VarSelector::nth(C::Any, 0, 3),
            introduced: 0,
            fixed: Some(3),
        },
        Defect {
            id: "lcc-legacy-scheduler",
            paper_ref: "",
            personality: Lcc,
            pass: "machine-scheduler",
            levels: ALL_LCC_LEVELS,
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(8),
            selector: VarSelector::nth(C::Any, 1, 3),
            introduced: 0,
            fixed: Some(1),
        },
    ]
}

/// The stack-backend defect catalogue: defects that live in the stack VM's
/// code-generation stage (`"isel"`) and corrupt only the location
/// descriptions that backend alone can emit. Kept separate from
/// [`catalogue`] because these defects have no IR-level effect — the stack
/// code generator consults them via [`spill_loss_victims`].
pub fn stack_catalogue(personality: Personality) -> Vec<Defect> {
    let (id, paper_ref) = match personality {
        Personality::Ccg => (
            "ccg-stack-spill",
            "spill-slot location loss in the stack backend's reload tracking",
        ),
        Personality::Lcc => (
            "lcc-stack-spill",
            "stack-relative DBG_VALUE dropped when the register file overflows",
        ),
    };
    vec![Defect {
        id,
        paper_ref,
        personality,
        pass: "isel",
        levels: match personality {
            Personality::Ccg => ALL_CCG_LEVELS,
            Personality::Lcc => ALL_LCC_LEVELS,
        },
        category: Cat::IncompleteDie,
        conjectures: &[1, 2, 3],
        // Every spilled binding is affected: frequency control comes from
        // register pressure itself (values that stay in the small register
        // file keep their locations), not from a variable-id stride.
        action: A::DropSpillLoc,
        selector: VarSelector::all(C::Any),
        introduced: 0,
        fixed: None,
    }]
}

/// The frame-layout defect catalogue: defects that live in the frame-ABI
/// backend's emission stage (`"isel"`) and corrupt the frame-base-relative
/// location descriptions only that backend emits. Like [`stack_catalogue`],
/// these have no IR-level effect — the frame backend consults them via
/// [`frame_defect_plan`]. Both classes corrupt descriptions only a real
/// frame layout can express — fbreg offsets resolved against a
/// prologue-advanced frame rule, and callee-saved save-slot rules — so
/// the availability holes they open (fbreg reads past the frame, dropped
/// callee-saved locations) occur at sites no other backend's defect can
/// reach.
pub fn frame_catalogue(personality: Personality) -> Vec<Defect> {
    let levels = match personality {
        Personality::Ccg => ALL_CCG_LEVELS,
        Personality::Lcc => ALL_LCC_LEVELS,
    };
    let (stale_id, stale_ref, clobber_id, clobber_ref) = match personality {
        Personality::Ccg => (
            "ccg-frame-fbreg-stale",
            "fbreg offsets computed before the prologue's CFA advance",
            "ccg-frame-callee-clobber",
            "callee-saved register's save-slot rule missing from the frame map",
        ),
        Personality::Lcc => (
            "lcc-frame-fbreg-stale",
            "fbreg offsets resolved against the function-entry frame rule",
            "lcc-frame-callee-clobber",
            "callee-saved location dropped when the save-slot rule is absent",
        ),
    };
    vec![
        Defect {
            id: stale_id,
            paper_ref: stale_ref,
            personality,
            pass: "isel",
            levels,
            category: Cat::Covered,
            conjectures: &[1, 2, 3],
            action: A::StaleFrameBase,
            // Every frame-resident binding is affected: frequency control
            // comes from how often values live in frame slots rather than
            // registers, as with the stack-spill defect.
            selector: VarSelector::all(C::Any),
            introduced: 0,
            fixed: None,
        },
        Defect {
            id: clobber_id,
            paper_ref: clobber_ref,
            personality,
            pass: "isel",
            levels,
            category: Cat::IncompleteDie,
            conjectures: &[1, 2, 3],
            action: A::ClobberCalleeSaved,
            selector: VarSelector::all(C::Any),
            introduced: 0,
            fixed: None,
        },
    ]
}

/// Which variables of a function the frame-ABI backend's emission stage
/// must corrupt, per frame defect action (see [`frame_catalogue`]). Empty
/// on every other backend and with defects disabled.
#[derive(Debug, Clone, Default)]
pub struct FrameDefectPlan {
    /// Variables whose frame-resident bindings get function-entry (stale)
    /// frame-base offsets.
    pub stale_fbreg: Vec<DebugVarId>,
    /// Variables whose callee-saved-register bindings lose their location
    /// (the register's save-slot rule is missing from the frame map).
    pub callee_clobber: Vec<DebugVarId>,
}

/// Build the [`FrameDefectPlan`] of one function under `config`.
pub fn frame_defect_plan(config: &CompilerConfig, func: &IrFunction) -> FrameDefectPlan {
    let mut plan = FrameDefectPlan::default();
    if config.backend != holes_machine::BackendKind::Frame {
        return plan;
    }
    for defect in frame_catalogue(config.personality) {
        if !defect.active_in(config) {
            continue;
        }
        let victims = match defect.action {
            DefectAction::StaleFrameBase => &mut plan.stale_fbreg,
            DefectAction::ClobberCalleeSaved => &mut plan.callee_clobber,
            _ => continue,
        };
        for var in selected_vars(func, defect.selector) {
            if !victims.contains(&var) {
                victims.push(var);
            }
        }
    }
    plan.stale_fbreg.sort_unstable();
    plan.callee_clobber.sort_unstable();
    plan
}

/// The variables of `func` whose spilled bindings lose their location under
/// `config`'s active stack-backend defects (empty on the register backend,
/// with defects disabled, or when no stack defect matches the version and
/// level).
pub fn spill_loss_victims(config: &CompilerConfig, func: &IrFunction) -> Vec<DebugVarId> {
    let mut victims: Vec<DebugVarId> = Vec::new();
    if config.backend != holes_machine::BackendKind::Stack {
        return victims;
    }
    for defect in stack_catalogue(config.personality) {
        if defect.action != DefectAction::DropSpillLoc || !defect.active_in(config) {
            continue;
        }
        for var in selected_vars(func, defect.selector) {
            if !victims.contains(&var) {
                victims.push(var);
            }
        }
    }
    victims.sort_unstable();
    victims
}

/// Every active defect of `config`, in catalogue order: the configuration's
/// whole defect schedule, which the pipeline resolves once per compile.
pub fn active_catalogue(config: &CompilerConfig) -> Vec<Defect> {
    catalogue(config.personality)
        .into_iter()
        .filter(|d| d.active_in(config))
        .collect()
}

/// Defects of `config` that live in `pass` and are active.
pub fn active_defects(config: &CompilerConfig, pass: &str) -> Vec<Defect> {
    active_catalogue(config)
        .into_iter()
        .filter(|d| d.pass == pass)
        .collect()
}

/// Apply a defect to a function's debug bindings (the pipeline runner calls
/// this right after the corresponding pass has executed).
pub fn apply_defect(func: &mut IrFunction, defect: &Defect) {
    let selected = select(func, defect.selector);
    if !selected.contains(&true) {
        return;
    }
    let is_selected = |var: DebugVarId| selected.get(var.0 as usize).copied().unwrap_or(false);
    match defect.action {
        DefectAction::DropDie => {
            for (var, hit) in func.vars.iter_mut().zip(&selected) {
                var.suppress_die |= *hit;
            }
            drop_bindings(func, is_selected);
        }
        DefectAction::DropDbg => drop_bindings(func, is_selected),
        DefectAction::UndefDbg => {
            for inst in &mut func.insts {
                if let Op::DbgValue { var, loc } = &mut inst.op {
                    if is_selected(*var) {
                        *loc = DbgLoc::Undef;
                    }
                }
            }
        }
        DefectAction::DelayDbg(distance) => delay_bindings(func, is_selected, distance),
        DefectAction::TruncateBeforeSink => truncate_before_sink(func, &selected),
        DefectAction::MisScope => mis_scope(func, &selected),
        // Applied by the stack backend's code generator (see
        // `spill_loss_victims`); there is nothing to corrupt at the IR level.
        DefectAction::DropSpillLoc => {}
        // Applied by the frame-ABI backend's emission stage (see
        // `frame_defect_plan`); there is nothing to corrupt at the IR level.
        DefectAction::StaleFrameBase | DefectAction::ClobberCalleeSaved => {}
    }
}

/// Which variables of `func` the selector picks, as a mask indexed by
/// variable id, computed in one pass over the function.
fn select(func: &IrFunction, selector: VarSelector) -> Vec<bool> {
    let stride = |var: usize| var as u32 % selector.modulus == selector.offset % selector.modulus;
    let mut class: Vec<bool> = match selector.class {
        VarClass::Any => vec![true; func.vars.len()],
        VarClass::ConstValued | VarClass::SlotVar => {
            let mut bound = vec![false; func.vars.len()];
            for inst in &func.insts {
                let var = match inst.op {
                    Op::DbgValue {
                        var,
                        loc: DbgLoc::Value(Value::Const(_)),
                    } if selector.class == VarClass::ConstValued => var,
                    Op::DbgValue {
                        var,
                        loc: DbgLoc::Slot(_),
                    } if selector.class == VarClass::SlotVar => var,
                    _ => continue,
                };
                if let Some(hit) = bound.get_mut(var.0 as usize) {
                    *hit = true;
                }
            }
            bound
        }
        VarClass::InductionVar => {
            let mut ivs = vec![false; func.vars.len()];
            for var in func.loops.iter().filter_map(|l| l.iv_var) {
                if let Some(hit) = ivs.get_mut(var.0 as usize) {
                    *hit = true;
                }
            }
            ivs
        }
        VarClass::BlockScoped => func
            .vars
            .iter()
            .map(|info| {
                matches!(
                    func.scopes.get(info.scope.0 as usize),
                    Some(ScopeKind::Block { .. })
                )
            })
            .collect(),
    };
    for (var, hit) in class.iter_mut().enumerate() {
        *hit &= stride(var);
    }
    class
}

/// The ids of the variables the selector picks, ascending.
fn selected_vars(func: &IrFunction, selector: VarSelector) -> impl Iterator<Item = DebugVarId> {
    select(func, selector)
        .into_iter()
        .enumerate()
        .filter(|(_, hit)| *hit)
        .map(|(var, _)| DebugVarId(var as u32))
}

/// Delete the selected bindings, and with them every `Nop`.
fn drop_bindings(func: &mut IrFunction, is_selected: impl Fn(DebugVarId) -> bool) {
    func.insts.retain(|inst| match inst.op {
        Op::DbgValue { var, .. } => !is_selected(var),
        Op::Nop => false,
        _ => true,
    });
}

/// Move every selected binding `distance` instructions later (at most to
/// the last position). The instructions a binding moves past are not
/// examined again, so a selected binding among them stays where it lands.
fn delay_bindings(
    func: &mut IrFunction,
    is_selected: impl Fn(DebugVarId) -> bool,
    distance: usize,
) {
    let len = func.insts.len();
    let mut rest = std::mem::take(&mut func.insts).into_iter();
    let mut index = 0;
    while let Some(inst) = rest.next() {
        if matches!(inst.op, Op::DbgValue { var, .. } if is_selected(var)) {
            let target = (index + distance).min(len - 1);
            func.insts.extend(rest.by_ref().take(target - index));
            func.insts.push(inst);
            index = target + 1;
        } else {
            func.insts.push(inst);
            index += 1;
        }
    }
}

fn truncate_before_sink(func: &mut IrFunction, selected: &[bool]) {
    let selected: Vec<DebugVarId> = (0..selected.len())
        .filter(|&var| selected[var])
        .map(|var| DebugVarId(var as u32))
        .collect();
    let sinks = func
        .insts
        .iter()
        .filter(|inst| matches!(inst.op, Op::CallSink { .. }))
        .count();
    let mut insts = Vec::with_capacity(func.insts.len() + sinks * selected.len());
    for inst in std::mem::take(&mut func.insts) {
        if matches!(inst.op, Op::CallSink { .. }) {
            for &var in &selected {
                insts.push(Inst::in_scope(
                    Op::DbgValue {
                        var,
                        loc: DbgLoc::Undef,
                    },
                    inst.line,
                    inst.scope,
                ));
            }
        }
        insts.push(inst);
    }
    func.insts = insts;
}

fn mis_scope(func: &mut IrFunction, selected: &[bool]) {
    // Create a bogus lexical block covering only the prologue and re-home the
    // selected variables there.
    let bogus = func.add_scope(ScopeKind::Block {
        parent: crate::ir::ScopeId(0),
    });
    if let Some(first) = func.insts.first_mut() {
        first.scope = bogus;
    }
    for (var, hit) in func.vars.iter_mut().zip(selected) {
        if *hit {
            var.scope = bogus;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompilerConfig;
    use crate::ir::{DebugVar, ScopeId};
    use holes_minic::ast::FunctionId;

    fn test_function() -> IrFunction {
        let mut f = IrFunction {
            name: "main".into(),
            source: FunctionId(0),
            vars: Vec::new(),
            scopes: vec![ScopeKind::Function],
            slots: 0,
            next_temp: 0,
            insts: Vec::new(),
            loops: Vec::new(),
            param_temps: Vec::new(),
            decl_line: 1,
            pure_const: None,
        };
        for i in 0..4 {
            f.add_var(DebugVar {
                name: format!("v{i}"),
                scope: ScopeId(0),
                is_param: false,
                decl_line: 1,
                suppress_die: false,
            });
        }
        for i in 0..4u32 {
            f.insts.push(Inst::new(
                Op::DbgValue {
                    var: DebugVarId(i),
                    loc: DbgLoc::Value(Value::Const(i as i64)),
                },
                2 + i,
            ));
        }
        f.insts.push(Inst::new(Op::CallSink { args: vec![] }, 9));
        f.insts.push(Inst::new(Op::Ret { value: None }, 10));
        f
    }

    #[test]
    fn catalogue_is_nonempty_and_consistent() {
        for p in [Personality::Ccg, Personality::Lcc] {
            let defects = catalogue(p);
            assert!(defects.len() >= 15, "{p} catalogue too small");
            for d in &defects {
                assert_eq!(d.personality, p);
                assert!(!d.levels.is_empty(), "{} has no levels", d.id);
                assert!(!d.conjectures.is_empty(), "{} has no conjectures", d.id);
                if let Some(fixed) = d.fixed {
                    assert!(fixed > d.introduced, "{} fixed before introduced", d.id);
                }
            }
        }
    }

    #[test]
    fn defect_ids_are_unique() {
        for p in [Personality::Ccg, Personality::Lcc] {
            let defects = catalogue(p);
            let mut ids: Vec<&str> = defects.iter().map(|d| d.id).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            assert_eq!(before, ids.len());
        }
    }

    #[test]
    fn patched_version_removes_105158() {
        let trunk = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let patched = trunk.clone().with_version(5);
        let in_trunk = active_defects(&trunk, "cfg-cleanup");
        let in_patched = active_defects(&patched, "cfg-cleanup");
        assert!(in_trunk.iter().any(|d| d.id == "ccg-105158"));
        assert!(!in_patched.iter().any(|d| d.id == "ccg-105158"));
    }

    #[test]
    fn trunk_star_removes_lsr_defect_but_keeps_53855b() {
        let trunk = CompilerConfig::new(Personality::Lcc, OptLevel::Os);
        let star = trunk.clone().with_version(5);
        assert!(
            active_defects(&trunk, "lsr")
                .iter()
                .any(|d| d.id == "lcc-53855a")
                || active_defects(&CompilerConfig::new(Personality::Lcc, OptLevel::O2), "lsr")
                    .iter()
                    .any(|d| d.id == "lcc-53855a")
        );
        assert!(active_defects(&star, "lsr")
            .iter()
            .any(|d| d.id == "lcc-53855b"));
        let star_o2 = CompilerConfig::new(Personality::Lcc, OptLevel::O2).with_version(5);
        assert!(!active_defects(&star_o2, "lsr")
            .iter()
            .any(|d| d.id == "lcc-53855a"));
    }

    #[test]
    fn disable_defects_deactivates_everything() {
        let cfg = CompilerConfig::new(Personality::Ccg, OptLevel::O2).without_defects();
        for pass in ["tree-ccp", "cfg-cleanup", "ipa-sra", "schedule-insns2"] {
            assert!(active_defects(&cfg, pass).is_empty());
        }
    }

    #[test]
    fn old_versions_have_more_defects_than_trunk() {
        for p in [Personality::Ccg, Personality::Lcc] {
            let count = |version: usize| {
                let mut total = 0;
                for level in p.levels() {
                    let cfg = CompilerConfig::new(p, *level).with_version(version);
                    total += catalogue(p).iter().filter(|d| d.active_in(&cfg)).count();
                }
                total
            };
            assert!(
                count(0) > count(p.trunk()),
                "{p}: old release should have more defects"
            );
            assert!(
                count(p.trunk()) > count(5),
                "{p}: patched release should have fewer defects"
            );
        }
    }

    #[test]
    fn drop_dbg_removes_bindings() {
        let mut f = test_function();
        let defect = Defect {
            id: "test",
            paper_ref: "",
            personality: Personality::Ccg,
            pass: "tree-ccp",
            levels: ALL_CCG_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[1],
            action: A::DropDbg,
            selector: VarSelector::nth(C::Any, 0, 2),
            introduced: 0,
            fixed: None,
        };
        apply_defect(&mut f, &defect);
        let remaining: Vec<u32> = f
            .insts
            .iter()
            .filter_map(|i| match i.op {
                Op::DbgValue { var, .. } => Some(var.0),
                _ => None,
            })
            .collect();
        assert_eq!(remaining, vec![1, 3]);
    }

    #[test]
    fn undef_dbg_marks_bindings_undefined() {
        let mut f = test_function();
        let defect = Defect {
            id: "test",
            paper_ref: "",
            personality: Personality::Ccg,
            pass: "tree-ccp",
            levels: ALL_CCG_LEVELS,
            category: Cat::HollowDie,
            conjectures: &[2],
            action: A::UndefDbg,
            selector: VarSelector::all(C::ConstValued),
            introduced: 0,
            fixed: None,
        };
        apply_defect(&mut f, &defect);
        assert!(f.insts.iter().all(|i| !matches!(
            i.op,
            Op::DbgValue {
                loc: DbgLoc::Value(_),
                ..
            }
        )));
    }

    #[test]
    fn truncate_before_sink_inserts_undef_bindings() {
        let mut f = test_function();
        let defect = Defect {
            id: "test",
            paper_ref: "",
            personality: Personality::Ccg,
            pass: "cprop-registers",
            levels: ALL_CCG_LEVELS,
            category: Cat::IncompleteDie,
            conjectures: &[1],
            action: A::TruncateBeforeSink,
            selector: VarSelector::all(C::Any),
            introduced: 0,
            fixed: None,
        };
        let before = f.insts.len();
        apply_defect(&mut f, &defect);
        assert_eq!(f.insts.len(), before + 4);
        let sink_pos = f
            .insts
            .iter()
            .position(|i| matches!(i.op, Op::CallSink { .. }))
            .unwrap();
        assert!(matches!(
            f.insts[sink_pos - 1].op,
            Op::DbgValue {
                loc: DbgLoc::Undef,
                ..
            }
        ));
    }

    #[test]
    fn delay_dbg_moves_bindings_later() {
        let mut f = test_function();
        let defect = Defect {
            id: "test",
            paper_ref: "",
            personality: Personality::Ccg,
            pass: "tree-ccp",
            levels: ALL_CCG_LEVELS,
            category: Cat::IncompleteDie,
            conjectures: &[3],
            action: A::DelayDbg(3),
            selector: VarSelector::nth(C::Any, 0, 4),
            introduced: 0,
            fixed: None,
        };
        apply_defect(&mut f, &defect);
        let pos_v0 = f
            .insts
            .iter()
            .position(|i| {
                matches!(
                    i.op,
                    Op::DbgValue {
                        var: DebugVarId(0),
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(pos_v0, 3);
    }

    #[test]
    fn drop_die_suppresses_the_die() {
        let mut f = test_function();
        let defect = Defect {
            id: "test",
            paper_ref: "",
            personality: Personality::Lcc,
            pass: "simplifycfg",
            levels: ALL_LCC_LEVELS,
            category: Cat::MissingDie,
            conjectures: &[1],
            action: A::DropDie,
            selector: VarSelector::nth(C::Any, 1, 4),
            introduced: 0,
            fixed: None,
        };
        apply_defect(&mut f, &defect);
        assert!(f.vars[1].suppress_die);
        assert!(!f.vars[0].suppress_die);
    }
}
