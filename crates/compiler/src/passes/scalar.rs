//! Scalar optimization passes: constant folding/propagation, copy
//! propagation, dead code elimination and dead store elimination.
//!
//! Each pass performs a modest but *semantics-preserving* transformation and
//! maintains debug bindings the way a correct compiler would: when a temp
//! referenced by a `DbgValue` becomes a known constant the binding is
//! rewritten to that constant, and when an instruction that defines a
//! binding's temp is deleted the binding is salvaged (rewritten to a constant
//! if one is known) or explicitly marked undefined.
//!
//! Every pass is linear in the function's size: temps (and block labels,
//! which share their numbering) are dense below [`IrFunction::next_temp`],
//! so per-temp facts live in `Vec`s indexed by temp number, and no pass
//! rescans the function per instruction or per fact. The pre-rewrite
//! bodies are kept as `#[cfg(test)]` references (`mod reference`), and a
//! property test checks that each pass returns exactly what its reference
//! returns.

use holes_minic::ast::BinOp;

use crate::ir::{dense_entry, DbgLoc, IrFunction, Op, Temp, Value};

/// A dense per-temp table of block-local facts. It remembers which entries
/// it wrote, so clearing it at a block boundary costs only what the block
/// wrote.
struct BlockTable<T: Copy> {
    entries: Vec<Option<T>>,
    written: Vec<Temp>,
}

impl<T: Copy> BlockTable<T> {
    fn new(func: &IrFunction) -> Self {
        BlockTable {
            entries: vec![None; func.next_temp as usize],
            written: Vec::new(),
        }
    }

    fn get(&self, temp: Temp) -> Option<T> {
        self.entries.get(temp.0 as usize).copied().flatten()
    }

    fn set(&mut self, temp: Temp, fact: Option<T>) {
        if fact.is_some() {
            self.written.push(temp);
        }
        *dense_entry(&mut self.entries, temp.0) = fact;
    }

    fn clear(&mut self) {
        for temp in self.written.drain(..) {
            self.entries[temp.0 as usize] = None;
        }
    }
}

/// Per-block constant folding and propagation.
pub fn constant_fold(func: &mut IrFunction) {
    let mut known: BlockTable<i64> = BlockTable::new(func);
    for inst in &mut func.insts {
        // Block boundaries invalidate purely local facts.
        if matches!(inst.op, Op::Label(_)) {
            known.clear();
            continue;
        }
        // Substitute known constants into operands.
        inst.op.uses_mut(|v| {
            if let Some(c) = v.as_temp().and_then(|t| known.get(t)) {
                *v = Value::Const(c);
            }
        });
        // Fold the instruction itself.
        if let Some(new_op) = fold_op(&inst.op) {
            inst.op = new_op;
        }
        // Update the known-constant table.
        if let Some(dst) = inst.op.def() {
            known.set(dst, constant_result(&inst.op));
        }
        // Maintain debug bindings: a binding to a temp that is now known
        // constant becomes a constant binding (this is what e.g. gcc's CCP
        // does when it inserts debug statements for propagated constants).
        if let Op::DbgValue { loc, .. } = &mut inst.op {
            if let DbgLoc::Value(Value::Temp(t)) = *loc {
                if let Some(c) = known.get(t) {
                    *loc = DbgLoc::Value(Value::Const(c));
                }
            }
        }
    }
}

/// The constant produced by an instruction, if statically known.
fn constant_result(op: &Op) -> Option<i64> {
    match op {
        Op::Copy {
            src: Value::Const(c),
            ..
        } => Some(*c),
        Op::Bin {
            op,
            lhs: Value::Const(a),
            rhs: Value::Const(b),
            ..
        } => Some(op.eval(*a, *b)),
        Op::Un {
            op,
            src: Value::Const(a),
            ..
        } => Some(op.eval(*a)),
        Op::Trunc {
            src: Value::Const(a),
            bits,
            signed,
            ..
        } => Some(wrap_const(*a, *bits, *signed)),
        _ => None,
    }
}

fn wrap_const(value: i64, bits: u32, signed: bool) -> i64 {
    use holes_minic::ast::Ty;
    let ty = match (bits, signed) {
        (8, true) => Ty::I8,
        (16, true) => Ty::I16,
        (32, true) => Ty::I32,
        (8, false) => Ty::U8,
        (16, false) => Ty::U16,
        (32, false) => Ty::U32,
        (64, false) => Ty::U64,
        _ => Ty::I64,
    };
    ty.wrap(value)
}

/// Algebraic simplification of a single instruction.
fn fold_op(op: &Op) -> Option<Op> {
    match op {
        Op::Bin { dst, op, lhs, rhs } => {
            if let (Value::Const(a), Value::Const(b)) = (lhs, rhs) {
                return Some(Op::Copy {
                    dst: *dst,
                    src: Value::Const(op.eval(*a, *b)),
                });
            }
            let zero = |v: &Value| matches!(v, Value::Const(0));
            let one = |v: &Value| matches!(v, Value::Const(1));
            match op {
                BinOp::Mul | BinOp::And if zero(lhs) || zero(rhs) => Some(Op::Copy {
                    dst: *dst,
                    src: Value::Const(0),
                }),
                BinOp::Mul if one(lhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *rhs,
                }),
                BinOp::Mul if one(rhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *lhs,
                }),
                BinOp::Add | BinOp::Or | BinOp::Xor if zero(lhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *rhs,
                }),
                BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Sub if zero(rhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *lhs,
                }),
                _ => None,
            }
        }
        Op::Un {
            dst,
            op,
            src: Value::Const(a),
        } => Some(Op::Copy {
            dst: *dst,
            src: Value::Const(op.eval(*a)),
        }),
        Op::Trunc {
            dst,
            src: Value::Const(a),
            bits,
            signed,
        } => Some(Op::Copy {
            dst: *dst,
            src: Value::Const(wrap_const(*a, *bits, *signed)),
        }),
        _ => None,
    }
}

/// Per-block copy propagation: uses of a temp defined by a copy are replaced
/// by the copy's source, and debug bindings are rewritten the same way so
/// that later dead-code elimination does not orphan them.
pub fn copy_propagate(func: &mut IrFunction) {
    // `copies[t]` is t's copy source, stamped with the source temp's
    // definition count when the copy was recorded: redefining the source
    // bumps its count, which retires every copy of the old value at once.
    let mut copies: BlockTable<(Value, u32)> = BlockTable::new(func);
    let mut defs: Vec<u32> = vec![0; func.next_temp as usize];
    let version = |defs: &Vec<u32>, v: Value| match v {
        Value::Temp(t) => defs.get(t.0 as usize).copied().unwrap_or(0),
        Value::Const(_) => 0,
    };
    let source = |copies: &BlockTable<(Value, u32)>, defs: &Vec<u32>, t: Temp| {
        let (src, stamp) = copies.get(t)?;
        (version(defs, src) == stamp).then_some(src)
    };
    for inst in &mut func.insts {
        if matches!(inst.op, Op::Label(_)) {
            copies.clear();
            continue;
        }
        inst.op.uses_mut(|v| {
            if let Some(src) = v.as_temp().and_then(|t| source(&copies, &defs, t)) {
                *v = src;
            }
        });
        // Rewrite debug bindings through the copy table as well (the
        // correct, availability-preserving behaviour).
        if let Op::DbgValue { loc, .. } = &mut inst.op {
            if let DbgLoc::Value(Value::Temp(t)) = *loc {
                if let Some(src) = source(&copies, &defs, t) {
                    *loc = DbgLoc::Value(src);
                }
            }
        }
        if let Some(dst) = inst.op.def() {
            // The destination is redefined: forget copies involving it.
            *dense_entry(&mut defs, dst.0) += 1;
            let copy = match inst.op {
                Op::Copy { src, .. } if src != Value::Temp(dst) => Some((src, version(&defs, src))),
                _ => None,
            };
            copies.set(dst, copy);
        }
    }
}

/// Dead code elimination with debug-binding salvaging.
///
/// Counts every temp's uses once, then runs a worklist: when a temp's
/// count drops to zero, all of its removable definitions go at once and
/// release their own operands, which may empty further temps. The result is
/// the fixpoint of deleting unused pure definitions round by round. Each
/// debug binding of a deleted temp is salvaged from the temp's *last*
/// removable definition in instruction order: to its constant when that
/// definition computes one, and to "undefined" otherwise.
pub fn dead_code_eliminate(func: &mut IrFunction) {
    let temps = func.next_temp as usize;
    let mut uses: Vec<u32> = vec![0; temps];
    // The removable definitions of each temp, listed in instruction order:
    // `first_def[t]`, then `next_def[i]` after instruction `i`.
    let mut first_def: Vec<Option<usize>> = vec![None; temps];
    let mut next_def: Vec<Option<usize>> = vec![None; func.insts.len()];
    for (index, inst) in func.insts.iter().enumerate().rev() {
        inst.op.for_each_use(|v| {
            if let Value::Temp(t) = v {
                *dense_entry(&mut uses, t.0) += 1;
            }
        });
        if let (Some(dst), true) = (inst.op.def(), inst.op.is_removable_def()) {
            let first = dense_entry(&mut first_def, dst.0);
            next_def[index] = first.replace(index);
        }
    }
    let mut worklist: Vec<usize> = (0..first_def.len())
        .filter(|&t| first_def[t].is_some() && uses.get(t).is_none_or(|&n| n == 0))
        .collect();
    if worklist.is_empty() {
        return;
    }
    // `salvage[t]` is `Some(constant)` once t's definitions are deleted.
    let mut salvage: Vec<Option<Option<i64>>> = vec![None; first_def.len()];
    while let Some(temp) = worklist.pop() {
        let mut def = first_def[temp];
        let mut last = None;
        while let Some(index) = def {
            let op = std::mem::replace(&mut func.insts[index].op, Op::Nop);
            op.for_each_use(|v| {
                if let Value::Temp(t) = v {
                    let count = dense_entry(&mut uses, t.0);
                    *count -= 1;
                    if *count == 0 && first_def.get(t.0 as usize).is_some_and(Option::is_some) {
                        worklist.push(t.0 as usize);
                    }
                }
            });
            last = constant_result(&op);
            def = next_def[index];
        }
        salvage[temp] = Some(last);
    }
    for inst in &mut func.insts {
        if let Op::DbgValue { loc, .. } = &mut inst.op {
            if let DbgLoc::Value(Value::Temp(t)) = *loc {
                if let Some(Some(constant)) = salvage.get(t.0 as usize) {
                    *loc = match constant {
                        Some(c) => DbgLoc::Value(Value::Const(*c)),
                        None => DbgLoc::Undef,
                    };
                }
            }
        }
    }
    func.remove_nops();
}

/// Dead store elimination for frame slots: a store to a slot whose value can
/// never be observed afterwards (no load can follow it, and the slot's
/// address never escapes) is removed.
///
/// A load can follow a store when it lies at or after the store's *reach*:
/// the lowest instruction index control can return to from the store. The
/// reach starts at the store itself and is lowered to the header of every
/// loop back edge (a branch to an earlier label) whose branch lies at or
/// after it, until it stops changing. So a load earlier in the same loop
/// body, which reads the stored value on the next iteration, keeps the
/// store alive.
pub fn dead_store_eliminate(func: &mut IrFunction) {
    let mut escaped: Vec<bool> = vec![false; func.slots as usize];
    let mut last_load: Vec<Option<usize>> = vec![None; func.slots as usize];
    let mut label_index: Vec<Option<usize>> = vec![None; func.next_temp as usize];
    for (index, inst) in func.insts.iter().enumerate() {
        match inst.op {
            Op::AddrSlot { slot, .. } => *dense_entry(&mut escaped, slot.0) = true,
            Op::LoadSlot { slot, .. } => *dense_entry(&mut last_load, slot.0) = Some(index),
            Op::Label(label) => {
                dense_entry(&mut label_index, label.0).get_or_insert(index);
            }
            _ => {}
        }
    }
    // A backward sweep sets `reach[i]` to the lowest header of a back edge
    // whose branch lies at or after `i` (or to `i` itself). A forward sweep
    // then follows each chain of lowerings: the reach of a lower index is
    // already final when it is read.
    let mut reach: Vec<usize> = vec![0; func.insts.len()];
    let mut lowest = usize::MAX;
    for (index, inst) in func.insts.iter().enumerate().rev() {
        if let Op::Jump(target) | Op::BranchZero { target, .. } | Op::BranchNonZero { target, .. } =
            inst.op
        {
            if let Some(header) = label_index.get(target.0 as usize).copied().flatten() {
                if header < index {
                    lowest = lowest.min(header);
                }
            }
        }
        reach[index] = lowest.min(index);
    }
    for index in 0..reach.len() {
        let lower = reach[index];
        reach[index] = reach[lower];
    }
    for (inst, reach) in func.insts.iter_mut().zip(reach) {
        if let Op::StoreSlot { slot, .. } = inst.op {
            let slot = slot.0 as usize;
            let observed = escaped.get(slot).copied().unwrap_or(false)
                || last_load
                    .get(slot)
                    .copied()
                    .flatten()
                    .is_some_and(|load| load >= reach);
            if !observed {
                inst.op = Op::Nop;
            }
        }
    }
    func.remove_nops();
}

#[cfg(test)]
pub(crate) mod reference {
    //! The pre-rewrite bodies of the hashed, rescanning passes, kept as the
    //! differential reference: each linear-time pass above must return
    //! exactly the function its reference returns. Dead store elimination
    //! is the exception: its reference applies the loop-aware rule the
    //! rewrite introduced (the old rule ignored back edges), in its most
    //! literal, quadratic form.
    #![allow(clippy::all)]

    use std::collections::{HashMap, HashSet};

    use super::{constant_result, fold_op};
    use crate::ir::{DbgLoc, IrFunction, Op, SlotId, Temp, Value};

    /// Per-block constant folding and propagation.
    pub fn constant_fold(func: &mut IrFunction) {
        let mut known: HashMap<Temp, i64> = HashMap::new();
        for index in 0..func.insts.len() {
            // Block boundaries invalidate purely local facts.
            if matches!(func.insts[index].op, Op::Label(_)) {
                known.clear();
                continue;
            }
            // Substitute known constants into operands.
            let substitutions: Vec<(Temp, i64)> = known.iter().map(|(t, c)| (*t, *c)).collect();
            for (t, c) in &substitutions {
                func.insts[index].op.replace_uses(*t, Value::Const(*c));
            }
            // Fold the instruction itself.
            let folded = fold_op(&func.insts[index].op);
            if let Some(new_op) = folded {
                func.insts[index].op = new_op;
            }
            // Update the known-constant map.
            let op = &func.insts[index].op;
            if let Some(dst) = op.def() {
                match constant_result(op) {
                    Some(c) => {
                        known.insert(dst, c);
                    }
                    None => {
                        known.remove(&dst);
                    }
                }
            }
            // Maintain debug bindings: a binding to a temp that is now known
            // constant becomes a constant binding (this is what e.g. gcc's CCP
            // does when it inserts debug statements for propagated constants).
            if let Op::DbgValue { loc, .. } = &mut func.insts[index].op {
                if let DbgLoc::Value(Value::Temp(t)) = loc {
                    if let Some(c) = known.get(t) {
                        *loc = DbgLoc::Value(Value::Const(*c));
                    }
                }
            }
        }
    }

    /// Per-block copy propagation: uses of a temp defined by a copy are replaced
    /// by the copy's source, and debug bindings are rewritten the same way so
    /// that later dead-code elimination does not orphan them.
    pub fn copy_propagate(func: &mut IrFunction) {
        let mut copies: HashMap<Temp, Value> = HashMap::new();
        for index in 0..func.insts.len() {
            if matches!(func.insts[index].op, Op::Label(_)) {
                copies.clear();
                continue;
            }
            let substitutions: Vec<(Temp, Value)> = copies.iter().map(|(t, v)| (*t, *v)).collect();
            for (t, v) in &substitutions {
                func.insts[index].op.replace_uses(*t, *v);
            }
            // Rewrite debug bindings through the copy map as well (the correct,
            // availability-preserving behaviour).
            if let Op::DbgValue { loc, .. } = &mut func.insts[index].op {
                if let DbgLoc::Value(Value::Temp(t)) = loc {
                    if let Some(v) = copies.get(t) {
                        *loc = DbgLoc::Value(*v);
                    }
                }
            }
            let op = &func.insts[index].op;
            if let Some(dst) = op.def() {
                // The destination is redefined: forget copies involving it.
                copies.remove(&dst);
                copies.retain(|_, v| *v != Value::Temp(dst));
                if let Op::Copy { dst, src } = op {
                    if *src != Value::Temp(*dst) {
                        copies.insert(*dst, *src);
                    }
                }
            }
        }
    }

    /// Dead code elimination with debug-binding salvaging.
    pub fn dead_code_eliminate(func: &mut IrFunction) {
        loop {
            let mut used: HashSet<Temp> = HashSet::new();
            for inst in &func.insts {
                for value in inst.op.uses() {
                    if let Value::Temp(t) = value {
                        used.insert(t);
                    }
                }
            }
            // Temps whose defining instruction is a removable pure computation
            // and that no real instruction uses.
            let mut removed_consts: HashMap<Temp, Option<i64>> = HashMap::new();
            for inst in &mut func.insts {
                let removable = inst.op.is_removable_def();
                if let Some(dst) = inst.op.def() {
                    if removable && !used.contains(&dst) {
                        removed_consts.insert(dst, constant_result(&inst.op));
                        inst.op = Op::Nop;
                    }
                }
            }
            if removed_consts.is_empty() {
                break;
            }
            // Salvage debug bindings that referenced removed temps.
            for inst in &mut func.insts {
                if let Op::DbgValue { loc, .. } = &mut inst.op {
                    if let DbgLoc::Value(Value::Temp(t)) = loc {
                        if let Some(salvage) = removed_consts.get(t) {
                            *loc = match salvage {
                                Some(c) => DbgLoc::Value(Value::Const(*c)),
                                None => DbgLoc::Undef,
                            };
                        }
                    }
                }
            }
            func.remove_nops();
        }
    }

    /// Dead store elimination: a store is dead when its slot never escapes
    /// and no load of it lies at or after its reach, the store's index
    /// lowered through every back edge `(header, branch)` with
    /// `branch >= reach` until it stops changing.
    pub fn dead_store_eliminate(func: &mut IrFunction) {
        let escaped: HashSet<SlotId> = func
            .insts
            .iter()
            .filter_map(|i| match i.op {
                Op::AddrSlot { slot, .. } => Some(slot),
                _ => None,
            })
            .collect();
        let mut back_edges: Vec<(usize, usize)> = Vec::new();
        for (branch, inst) in func.insts.iter().enumerate() {
            if let Op::Jump(l)
            | Op::BranchZero { target: l, .. }
            | Op::BranchNonZero { target: l, .. } = inst.op
            {
                if let Some(header) = func.label_index(l) {
                    if header < branch {
                        back_edges.push((header, branch));
                    }
                }
            }
        }
        let reach_of = |index: usize| {
            let mut reach = index;
            loop {
                let lowered = back_edges
                    .iter()
                    .filter(|(_, branch)| *branch >= reach)
                    .map(|(header, _)| *header)
                    .fold(reach, usize::min);
                if lowered == reach {
                    return reach;
                }
                reach = lowered;
            }
        };
        let mut to_remove = Vec::new();
        for (index, inst) in func.insts.iter().enumerate() {
            if let Op::StoreSlot { slot, .. } = inst.op {
                let loaded = func.insts[reach_of(index)..]
                    .iter()
                    .any(|i| matches!(i.op, Op::LoadSlot { slot: s, .. } if s == slot));
                if !escaped.contains(&slot) && !loaded {
                    to_remove.push(index);
                }
            }
        }
        for index in to_remove {
            func.insts[index].op = Op::Nop;
        }
        func.remove_nops();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockLabel, DebugVar, Inst, ScopeId, ScopeKind, SlotId};
    use holes_minic::ast::{FunctionId, GlobalId, UnOp};

    fn empty_function() -> IrFunction {
        IrFunction {
            name: "f".into(),
            source: FunctionId(0),
            vars: Vec::new(),
            scopes: vec![ScopeKind::Function],
            slots: 0,
            next_temp: 100,
            insts: Vec::new(),
            loops: Vec::new(),
            param_temps: Vec::new(),
            decl_line: 1,
            pure_const: None,
        }
    }

    #[test]
    fn constant_folding_folds_chains_and_rewrites_bindings() {
        let mut f = empty_function();
        let var = f.add_var(DebugVar {
            name: "x".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 2,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(0),
                    src: Value::Const(4),
                },
                2,
            ),
            Inst::new(
                Op::Bin {
                    dst: Temp(1),
                    op: BinOp::Add,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(3),
                },
                2,
            ),
            Inst::new(
                Op::Copy {
                    dst: Temp(2),
                    src: Value::Temp(Temp(1)),
                },
                2,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Value(Value::Temp(Temp(2))),
                },
                2,
            ),
            Inst::new(
                Op::StoreGlobal {
                    global: GlobalId(0),
                    index: None,
                    value: Value::Temp(Temp(2)),
                    volatile: false,
                },
                3,
            ),
            Inst::new(Op::Ret { value: None }, 4),
        ];
        constant_fold(&mut f);
        assert!(matches!(
            f.insts[3].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Const(7)),
                ..
            }
        ));
        assert!(matches!(
            f.insts[4].op,
            Op::StoreGlobal {
                value: Value::Const(7),
                ..
            }
        ));
    }

    #[test]
    fn algebraic_identities_are_simplified() {
        let mut f = empty_function();
        f.insts = vec![
            Inst::new(
                Op::Bin {
                    dst: Temp(1),
                    op: BinOp::Mul,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(0),
                },
                1,
            ),
            Inst::new(
                Op::Bin {
                    dst: Temp(2),
                    op: BinOp::Add,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(0),
                },
                1,
            ),
            Inst::new(
                Op::Un {
                    dst: Temp(3),
                    op: UnOp::Neg,
                    src: Value::Const(5),
                },
                1,
            ),
        ];
        constant_fold(&mut f);
        assert!(matches!(
            f.insts[0].op,
            Op::Copy {
                src: Value::Const(0),
                ..
            }
        ));
        assert!(matches!(
            f.insts[1].op,
            Op::Copy {
                src: Value::Temp(Temp(0)),
                ..
            }
        ));
        assert!(matches!(
            f.insts[2].op,
            Op::Copy {
                src: Value::Const(-5),
                ..
            }
        ));
    }

    #[test]
    fn copy_propagation_rewrites_uses_and_bindings() {
        let mut f = empty_function();
        let var = f.add_var(DebugVar {
            name: "x".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 2,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(1),
                    src: Value::Temp(Temp(0)),
                },
                1,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Value(Value::Temp(Temp(1))),
                },
                1,
            ),
            Inst::new(
                Op::StoreGlobal {
                    global: GlobalId(0),
                    index: None,
                    value: Value::Temp(Temp(1)),
                    volatile: false,
                },
                2,
            ),
        ];
        copy_propagate(&mut f);
        assert!(matches!(
            f.insts[1].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Temp(Temp(0))),
                ..
            }
        ));
        assert!(matches!(
            f.insts[2].op,
            Op::StoreGlobal {
                value: Value::Temp(Temp(0)),
                ..
            }
        ));
    }

    #[test]
    fn dce_removes_unused_defs_and_salvages_bindings() {
        let mut f = empty_function();
        let var = f.add_var(DebugVar {
            name: "dead".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 2,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(0),
                    src: Value::Const(9),
                },
                2,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Value(Value::Temp(Temp(0))),
                },
                2,
            ),
            Inst::new(Op::Ret { value: None }, 3),
        ];
        dead_code_eliminate(&mut f);
        // The dead copy is gone but the binding was salvaged to the constant.
        assert_eq!(f.insts.len(), 2);
        assert!(matches!(
            f.insts[0].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Const(9)),
                ..
            }
        ));
    }

    #[test]
    fn dce_keeps_volatile_loads_and_side_effects() {
        let mut f = empty_function();
        f.insts = vec![
            Inst::new(
                Op::LoadGlobal {
                    dst: Temp(0),
                    global: GlobalId(0),
                    index: None,
                    volatile: true,
                },
                1,
            ),
            Inst::new(
                Op::LoadGlobal {
                    dst: Temp(1),
                    global: GlobalId(1),
                    index: None,
                    volatile: false,
                },
                1,
            ),
            Inst::new(Op::CallSink { args: vec![] }, 2),
            Inst::new(Op::Ret { value: None }, 3),
        ];
        dead_code_eliminate(&mut f);
        assert!(f
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::LoadGlobal { volatile: true, .. })));
        assert!(!f.insts.iter().any(|i| matches!(
            i.op,
            Op::LoadGlobal {
                volatile: false,
                ..
            }
        )));
    }

    #[test]
    fn dse_removes_unobservable_slot_stores() {
        let mut f = empty_function();
        f.slots = 2;
        f.insts = vec![
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(0),
                    value: Value::Const(1),
                },
                1,
            ),
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(1),
                    value: Value::Const(2),
                },
                2,
            ),
            Inst::new(
                Op::LoadSlot {
                    dst: Temp(0),
                    slot: SlotId(1),
                },
                3,
            ),
            Inst::new(
                Op::Ret {
                    value: Some(Value::Temp(Temp(0))),
                },
                4,
            ),
        ];
        dead_store_eliminate(&mut f);
        assert!(!f.insts.iter().any(|i| matches!(
            i.op,
            Op::StoreSlot {
                slot: SlotId(0),
                ..
            }
        )));
        assert!(f.insts.iter().any(|i| matches!(
            i.op,
            Op::StoreSlot {
                slot: SlotId(1),
                ..
            }
        )));
    }

    #[test]
    fn dse_respects_escaped_slots() {
        let mut f = empty_function();
        f.slots = 1;
        f.insts = vec![
            Inst::new(
                Op::AddrSlot {
                    dst: Temp(0),
                    slot: SlotId(0),
                },
                1,
            ),
            Inst::new(
                Op::CallSink {
                    args: vec![Value::Temp(Temp(0))],
                },
                1,
            ),
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(0),
                    value: Value::Const(5),
                },
                2,
            ),
            Inst::new(Op::Ret { value: None }, 3),
        ];
        dead_store_eliminate(&mut f);
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::StoreSlot { .. })));
    }

    #[test]
    fn dse_keeps_stores_read_on_the_next_loop_iteration() {
        // L: t0 = slot0; sink(t0); slot0 = t0 + 1; branch L — the load
        // precedes the store in program order, but reads it after the back
        // edge.
        let mut f = empty_function();
        f.slots = 1;
        f.insts = vec![
            Inst::new(Op::Label(BlockLabel(50)), 1),
            Inst::new(
                Op::LoadSlot {
                    dst: Temp(0),
                    slot: SlotId(0),
                },
                2,
            ),
            Inst::new(
                Op::CallSink {
                    args: vec![Value::Temp(Temp(0))],
                },
                2,
            ),
            Inst::new(
                Op::Bin {
                    dst: Temp(1),
                    op: BinOp::Add,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(1),
                },
                3,
            ),
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(0),
                    value: Value::Temp(Temp(1)),
                },
                3,
            ),
            Inst::new(
                Op::BranchNonZero {
                    cond: Value::Temp(Temp(1)),
                    target: BlockLabel(50),
                },
                4,
            ),
            Inst::new(Op::Ret { value: None }, 5),
        ];
        let before = f.clone();
        dead_store_eliminate(&mut f);
        assert_eq!(f, before);
    }

    /// Run a pass and its reference on copies of `f` and require equal
    /// results; returns the pass's.
    fn matches_reference(
        f: &IrFunction,
        pass: fn(&mut IrFunction),
        reference: fn(&mut IrFunction),
    ) -> IrFunction {
        let (mut got, mut want) = (f.clone(), f.clone());
        pass(&mut got);
        reference(&mut want);
        assert_eq!(got, want);
        got
    }

    #[test]
    fn copy_propagation_forgets_copies_of_redefined_sources() {
        // t1 = t0; t0 = 5; store t1 — the store must keep reading t1 (the
        // old value of t0), not the redefined t0.
        let mut f = empty_function();
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(1),
                    src: Value::Temp(Temp(0)),
                },
                1,
            ),
            Inst::new(
                Op::Copy {
                    dst: Temp(0),
                    src: Value::Const(5),
                },
                2,
            ),
            Inst::new(
                Op::StoreGlobal {
                    global: GlobalId(0),
                    index: None,
                    value: Value::Temp(Temp(1)),
                    volatile: false,
                },
                3,
            ),
        ];
        let got = matches_reference(&f, copy_propagate, reference::copy_propagate);
        assert!(matches!(
            got.insts[2].op,
            Op::StoreGlobal {
                value: Value::Temp(Temp(1)),
                ..
            }
        ));
    }

    #[test]
    fn dse_reach_follows_chains_of_back_edges() {
        // Back edges (L0 at 0, branch at 4) and (L1 at 3, branch at 6). The
        // store at 2 reaches index 0 through the first edge, so the load at
        // 1 keeps it; the store at 5 reaches 3, then 0 through the first
        // edge's branch at 4, so the same load keeps it too.
        let mut f = empty_function();
        f.slots = 1;
        let load = |dst| Op::LoadSlot {
            dst: Temp(dst),
            slot: SlotId(0),
        };
        let store = |c| Op::StoreSlot {
            slot: SlotId(0),
            value: Value::Const(c),
        };
        let branch = |label| Op::BranchNonZero {
            cond: Value::Temp(Temp(0)),
            target: BlockLabel(label),
        };
        f.insts = [
            Op::Label(BlockLabel(50)),
            load(0),
            store(1),
            Op::Label(BlockLabel(51)),
            branch(50),
            store(2),
            branch(51),
            Op::CallSink {
                args: vec![Value::Temp(Temp(0))],
            },
        ]
        .into_iter()
        .map(|op| Inst::new(op, 1))
        .collect();
        let got = matches_reference(&f, dead_store_eliminate, reference::dead_store_eliminate);
        assert_eq!(got, f);
    }
}
