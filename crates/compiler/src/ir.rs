//! The compiler's intermediate representation.
//!
//! A function is a linear sequence of instructions over virtual registers
//! (*temps*), with symbolic block labels for control flow and explicit
//! `DbgValue` instructions that bind source variables to their current
//! location — the analogue of LLVM's `llvm.dbg.value` / gcc's debug
//! statements. Optimization passes transform the instruction stream and are
//! responsible for keeping the `DbgValue` bindings up to date; the injected
//! defects of [`crate::defects`] model the places where real compilers fail
//! to do so.

use holes_minic::ast::{BinOp, FunctionId, GlobalId, UnOp};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Temp(pub u32);

/// A memory slot of the function frame (address-taken locals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// A symbolic branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockLabel(pub u32);

/// A scope of the function's scope tree (function root, lexical block, or
/// inlined call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScopeId(pub u32);

/// A source-level variable tracked by debug information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DebugVarId(pub u32);

/// An operand: a temp or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Virtual register operand.
    Temp(Temp),
    /// Constant operand.
    Const(i64),
}

impl Value {
    /// The temp, if this operand is one.
    pub fn as_temp(self) -> Option<Temp> {
        match self {
            Value::Temp(t) => Some(t),
            Value::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(self) -> Option<i64> {
        match self {
            Value::Const(c) => Some(c),
            Value::Temp(_) => None,
        }
    }
}

/// The location bound to a variable by a [`Op::DbgValue`] instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbgLoc {
    /// The variable currently has this value (a temp or a constant).
    Value(Value),
    /// The variable lives in a frame slot.
    Slot(SlotId),
    /// The variable's value cannot be described (legitimately optimized out).
    Undef,
}

/// Instruction payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `dst <- src`.
    Copy {
        /// Destination temp.
        dst: Temp,
        /// Source value.
        src: Value,
    },
    /// `dst <- op src`.
    Un {
        /// Destination temp.
        dst: Temp,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: Value,
    },
    /// `dst <- lhs op rhs`.
    Bin {
        /// Destination temp.
        dst: Temp,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `dst <- wrap(src)` to the given width.
    Trunc {
        /// Destination temp.
        dst: Temp,
        /// Source value.
        src: Value,
        /// Width in bits.
        bits: u32,
        /// Whether the wrap sign-extends.
        signed: bool,
    },
    /// Load an element of a global.
    LoadGlobal {
        /// Destination temp.
        dst: Temp,
        /// Global read.
        global: GlobalId,
        /// Flattened element index (`None` means element 0).
        index: Option<Value>,
        /// Whether the global is volatile (the load must not be removed).
        volatile: bool,
    },
    /// Store to an element of a global.
    StoreGlobal {
        /// Global written.
        global: GlobalId,
        /// Flattened element index (`None` means element 0).
        index: Option<Value>,
        /// Stored value.
        value: Value,
        /// Whether the global is volatile.
        volatile: bool,
    },
    /// Load from a frame slot.
    LoadSlot {
        /// Destination temp.
        dst: Temp,
        /// Slot read.
        slot: SlotId,
    },
    /// Store to a frame slot.
    StoreSlot {
        /// Slot written.
        slot: SlotId,
        /// Stored value.
        value: Value,
    },
    /// Load through a pointer held in a value.
    LoadPtr {
        /// Destination temp.
        dst: Temp,
        /// Address value.
        addr: Value,
    },
    /// Store through a pointer held in a value.
    StorePtr {
        /// Address value.
        addr: Value,
        /// Stored value.
        value: Value,
    },
    /// Take the address of a global.
    AddrGlobal {
        /// Destination temp.
        dst: Temp,
        /// Global whose address is taken.
        global: GlobalId,
    },
    /// Take the address of a frame slot.
    AddrSlot {
        /// Destination temp.
        dst: Temp,
        /// Slot whose address is taken.
        slot: SlotId,
    },
    /// Block label (branch target).
    Label(BlockLabel),
    /// Unconditional jump.
    Jump(BlockLabel),
    /// Jump when the condition is zero.
    BranchZero {
        /// Condition value.
        cond: Value,
        /// Branch target.
        target: BlockLabel,
    },
    /// Jump when the condition is non-zero.
    BranchNonZero {
        /// Condition value.
        cond: Value,
        /// Branch target.
        target: BlockLabel,
    },
    /// Call an internal function.
    Call {
        /// Register receiving the return value, if used.
        dst: Option<Temp>,
        /// Callee.
        callee: FunctionId,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Call the opaque external sink.
    CallSink {
        /// Arguments.
        args: Vec<Value>,
    },
    /// Return from the function.
    Ret {
        /// Return value, if any.
        value: Option<Value>,
    },
    /// Bind a variable to a location from this point on.
    DbgValue {
        /// The variable.
        var: DebugVarId,
        /// Its new location.
        loc: DbgLoc,
    },
    /// No operation.
    Nop,
}

impl Op {
    /// The temp defined by this instruction, if any.
    pub fn def(&self) -> Option<Temp> {
        match self {
            Op::Copy { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Trunc { dst, .. }
            | Op::LoadGlobal { dst, .. }
            | Op::LoadSlot { dst, .. }
            | Op::LoadPtr { dst, .. }
            | Op::AddrGlobal { dst, .. }
            | Op::AddrSlot { dst, .. } => Some(*dst),
            Op::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// The values read by this instruction (excluding debug bindings), in
    /// operand order.
    pub fn uses(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_use(|v| out.push(v));
        out
    }

    /// Visit the values read by this instruction (excluding debug
    /// bindings) in operand order, without allocating.
    pub fn for_each_use(&self, mut visit: impl FnMut(Value)) {
        match self {
            Op::Copy { src, .. } | Op::Un { src, .. } | Op::Trunc { src, .. } => visit(*src),
            Op::Bin { lhs, rhs, .. } => {
                visit(*lhs);
                visit(*rhs);
            }
            Op::LoadGlobal { index, .. } => index.iter().copied().for_each(visit),
            Op::StoreGlobal { index, value, .. } => {
                if let Some(i) = index {
                    visit(*i);
                }
                visit(*value);
            }
            Op::StoreSlot { value, .. } => visit(*value),
            Op::LoadPtr { addr, .. } => visit(*addr),
            Op::StorePtr { addr, value } => {
                visit(*addr);
                visit(*value);
            }
            Op::BranchZero { cond, .. } | Op::BranchNonZero { cond, .. } => visit(*cond),
            Op::Call { args, .. } | Op::CallSink { args } => args.iter().copied().for_each(visit),
            Op::Ret { value } => value.iter().copied().for_each(visit),
            Op::LoadSlot { .. }
            | Op::AddrGlobal { .. }
            | Op::AddrSlot { .. }
            | Op::Label(_)
            | Op::Jump(_)
            | Op::Nop
            | Op::DbgValue { .. } => {}
        }
    }

    /// Visit the operands [`Op::for_each_use`] visits, mutably and in the
    /// same order. Debug bindings are *not* visited; passes decide how to
    /// maintain them.
    pub fn uses_mut(&mut self, mut visit: impl FnMut(&mut Value)) {
        match self {
            Op::Copy { src, .. } | Op::Un { src, .. } | Op::Trunc { src, .. } => visit(src),
            Op::Bin { lhs, rhs, .. } => {
                visit(lhs);
                visit(rhs);
            }
            Op::LoadGlobal { index, .. } => index.iter_mut().for_each(visit),
            Op::StoreGlobal { index, value, .. } => {
                if let Some(i) = index {
                    visit(i);
                }
                visit(value);
            }
            Op::StoreSlot { value, .. } => visit(value),
            Op::LoadPtr { addr, .. } => visit(addr),
            Op::StorePtr { addr, value } => {
                visit(addr);
                visit(value);
            }
            Op::BranchZero { cond, .. } | Op::BranchNonZero { cond, .. } => visit(cond),
            Op::Call { args, .. } | Op::CallSink { args } => args.iter_mut().for_each(visit),
            Op::Ret { value } => value.iter_mut().for_each(visit),
            Op::LoadSlot { .. }
            | Op::AddrGlobal { .. }
            | Op::AddrSlot { .. }
            | Op::Label(_)
            | Op::Jump(_)
            | Op::Nop
            | Op::DbgValue { .. } => {}
        }
    }

    /// Rewrite every use of a temp with a replacement value. Debug bindings
    /// are *not* rewritten here; passes decide how to maintain them.
    pub fn replace_uses(&mut self, temp: Temp, replacement: Value) {
        self.uses_mut(|v| {
            if *v == Value::Temp(temp) {
                *v = replacement;
            }
        });
    }

    /// Whether the instruction has side effects (and so must not be removed
    /// even when its result is unused).
    pub fn has_side_effects(&self) -> bool {
        match self {
            Op::StoreGlobal { .. }
            | Op::StoreSlot { .. }
            | Op::StorePtr { .. }
            | Op::Call { .. }
            | Op::CallSink { .. }
            | Op::Ret { .. }
            | Op::Label(_)
            | Op::Jump(_)
            | Op::BranchZero { .. }
            | Op::BranchNonZero { .. }
            | Op::DbgValue { .. } => true,
            Op::LoadGlobal { volatile, .. } => *volatile,
            _ => false,
        }
    }

    /// Whether this is a pure computation whose removal is legal when the
    /// result is unused.
    pub fn is_removable_def(&self) -> bool {
        self.def().is_some() && !self.has_side_effects()
    }
}

/// One instruction: payload plus source line and scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Source line the instruction belongs to.
    pub line: u32,
    /// Scope the instruction belongs to.
    pub scope: ScopeId,
}

impl Inst {
    /// Create an instruction in the root scope.
    pub fn new(op: Op, line: u32) -> Inst {
        Inst {
            op,
            line,
            scope: ScopeId(0),
        }
    }

    /// Create an instruction in a specific scope.
    pub fn in_scope(op: Op, line: u32, scope: ScopeId) -> Inst {
        Inst { op, line, scope }
    }
}

/// Scope tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeKind {
    /// The function root scope.
    Function,
    /// A lexical block.
    Block {
        /// Parent scope.
        parent: ScopeId,
    },
    /// An inlined call.
    Inlined {
        /// Parent scope.
        parent: ScopeId,
        /// Source function that was inlined.
        callee: FunctionId,
        /// Name of the callee.
        callee_name: String,
        /// Line of the call that was inlined.
        call_line: u32,
    },
}

/// A source variable tracked in debug information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugVar {
    /// Source-level name.
    pub name: String,
    /// Scope the variable belongs to.
    pub scope: ScopeId,
    /// Whether it is a formal parameter.
    pub is_param: bool,
    /// Declaration line.
    pub decl_line: u32,
    /// When the defect catalogue wants to suppress the DIE entirely
    /// (the *Missing DIE* manifestation), this is set by a defect action.
    pub suppress_die: bool,
}

/// Metadata about a lowered counted loop, used by the loop passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRegion {
    /// Label of the loop header (condition test).
    pub header: BlockLabel,
    /// Label of the loop exit.
    pub exit: BlockLabel,
    /// Source line of the `for` header.
    pub header_line: u32,
    /// The induction variable, when canonical.
    pub iv_var: Option<DebugVarId>,
    /// Home temp of the induction variable.
    pub iv_temp: Option<Temp>,
    /// Literal start value.
    pub start: Option<i64>,
    /// Literal bound.
    pub bound: Option<i64>,
    /// Literal step.
    pub step: Option<i64>,
}

impl LoopRegion {
    /// Trip count when start, bound and step are all literal and the loop is
    /// a canonical `for (i = start; i < bound; i += step)`.
    pub fn trip_count(&self) -> Option<u32> {
        let (start, bound, step) = (self.start?, self.bound?, self.step?);
        if step <= 0 || bound <= start {
            return if bound <= start { Some(0) } else { None };
        }
        Some(((bound - start + step - 1) / step) as u32)
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrFunction {
    /// Function name.
    pub name: String,
    /// The source function this was lowered from.
    pub source: FunctionId,
    /// Tracked variables.
    pub vars: Vec<DebugVar>,
    /// Scope tree (index 0 is the function root).
    pub scopes: Vec<ScopeKind>,
    /// Number of frame slots used by address-taken locals.
    pub slots: u32,
    /// Next unused temp number.
    pub next_temp: u32,
    /// The instruction stream.
    pub insts: Vec<Inst>,
    /// Known counted loops.
    pub loops: Vec<LoopRegion>,
    /// Home temps of the parameters, in order.
    pub param_temps: Vec<Temp>,
    /// Declaration line of the function.
    pub decl_line: u32,
    /// Whether the function is side-effect free and returns the given
    /// constant (computed by lowering; used by the inter-procedural passes).
    pub pure_const: Option<i64>,
}

impl IrFunction {
    /// Allocate a fresh temp.
    pub fn new_temp(&mut self) -> Temp {
        let t = Temp(self.next_temp);
        self.next_temp += 1;
        t
    }

    /// Allocate a fresh block label (labels live in the same numbering space
    /// as temps for simplicity of uniqueness).
    pub fn new_label(&mut self) -> BlockLabel {
        let l = BlockLabel(self.next_temp);
        self.next_temp += 1;
        l
    }

    /// Add a scope and return its id.
    pub fn add_scope(&mut self, kind: ScopeKind) -> ScopeId {
        self.scopes.push(kind);
        ScopeId(self.scopes.len() as u32 - 1)
    }

    /// Add a tracked variable and return its id.
    pub fn add_var(&mut self, var: DebugVar) -> DebugVarId {
        self.vars.push(var);
        DebugVarId(self.vars.len() as u32 - 1)
    }

    /// Index of the instruction holding `Label(label)`, if present.
    pub fn label_index(&self, label: BlockLabel) -> Option<usize> {
        self.insts
            .iter()
            .position(|i| matches!(i.op, Op::Label(l) if l == label))
    }

    /// Remove `Nop` instructions (labels are never Nops so branch targets
    /// stay valid).
    pub fn remove_nops(&mut self) {
        self.insts.retain(|i| !matches!(i.op, Op::Nop));
    }

    /// Number of non-debug, non-label instructions (a rough size measure
    /// used by the inliner).
    pub fn code_size(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| !matches!(i.op, Op::DbgValue { .. } | Op::Label(_) | Op::Nop))
            .count()
    }

    /// All labels referenced by branch instructions.
    pub fn referenced_labels(&self) -> Vec<BlockLabel> {
        let mut out = Vec::new();
        for inst in &self.insts {
            match inst.op {
                Op::Jump(l)
                | Op::BranchZero { target: l, .. }
                | Op::BranchNonZero { target: l, .. } => out.push(l),
                _ => {}
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A whole program in IR form. Function indices match the source program's
/// [`FunctionId`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrProgram {
    /// Functions in source order.
    pub functions: Vec<IrFunction>,
}

impl IrProgram {
    /// The IR function lowered from a source function.
    pub fn function(&self, id: FunctionId) -> &IrFunction {
        &self.functions[id.0]
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.insts.len()).sum()
    }
}

/// Entry `index` of a table indexed by a dense number (a temp, label or
/// vreg number), growing the table to reach it. Passes size such tables by
/// [`IrFunction::next_temp`]; growing keeps hand-built functions that use
/// numbers at or above it correct.
pub(crate) fn dense_entry<T: Clone + Default>(table: &mut Vec<T>, index: u32) -> &mut T {
    let index = index as usize;
    if index >= table.len() {
        table.resize(index + 1, T::default());
    }
    &mut table[index]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_def_and_uses() {
        let op = Op::Bin {
            dst: Temp(3),
            op: BinOp::Add,
            lhs: Value::Temp(Temp(1)),
            rhs: Value::Const(2),
        };
        assert_eq!(op.def(), Some(Temp(3)));
        assert_eq!(op.uses(), vec![Value::Temp(Temp(1)), Value::Const(2)]);
        assert!(op.is_removable_def());
    }

    #[test]
    fn volatile_loads_are_not_removable() {
        let op = Op::LoadGlobal {
            dst: Temp(0),
            global: GlobalId(0),
            index: None,
            volatile: true,
        };
        assert!(!op.is_removable_def());
        let nonvolatile = Op::LoadGlobal {
            dst: Temp(0),
            global: GlobalId(0),
            index: None,
            volatile: false,
        };
        assert!(nonvolatile.is_removable_def());
    }

    #[test]
    fn replace_uses_rewrites_operands() {
        let mut op = Op::StoreGlobal {
            global: GlobalId(0),
            index: Some(Value::Temp(Temp(1))),
            value: Value::Temp(Temp(1)),
            volatile: false,
        };
        op.replace_uses(Temp(1), Value::Const(7));
        assert_eq!(op.uses(), vec![Value::Const(7), Value::Const(7)]);
    }

    #[test]
    fn loop_trip_count() {
        let mut region = LoopRegion {
            header: BlockLabel(0),
            exit: BlockLabel(1),
            header_line: 4,
            iv_var: None,
            iv_temp: None,
            start: Some(0),
            bound: Some(10),
            step: Some(3),
        };
        assert_eq!(region.trip_count(), Some(4));
        region.bound = Some(0);
        assert_eq!(region.trip_count(), Some(0));
        region.step = None;
        assert_eq!(region.trip_count(), None);
    }

    #[test]
    fn function_helpers() {
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
        let t = f.new_temp();
        let l = f.new_label();
        assert_ne!(t.0, l.0);
        f.insts.push(Inst::new(Op::Label(l), 1));
        f.insts.push(Inst::new(Op::Jump(l), 2));
        f.insts.push(Inst::new(Op::Nop, 2));
        assert_eq!(f.label_index(l), Some(0));
        assert_eq!(f.referenced_labels(), vec![l]);
        f.remove_nops();
        assert_eq!(f.insts.len(), 2);
        assert_eq!(f.code_size(), 1);
    }
}
