//! Structural passes: control-flow cleanup, inlining, inter-procedural
//! constant folding, slot promotion, loop unrolling, value-range style global
//! folding and instruction scheduling.

use std::collections::HashMap;

use crate::ir::{
    DbgLoc, DebugVar, DebugVarId, Inst, IrFunction, Op, ScopeId, ScopeKind, SlotId, Temp, Value,
};
use crate::passes::PassContext;

/// Control-flow cleanup: fold branches on constants, delete unreachable
/// straight-line code, and delete labels that nothing references.
///
/// Debug bindings inside removed *unreachable* regions are dropped — that is
/// correct behaviour (the bindings can never take effect). The paper's
/// cfg-cleanup bugs are modelled as injected defects layered on top of this
/// pass, not as part of it.
pub fn cfg_cleanup(func: &mut IrFunction) {
    // Fold branches whose condition is a constant.
    for inst in &mut func.insts {
        match inst.op {
            Op::BranchZero {
                cond: Value::Const(c),
                target,
            } => {
                inst.op = if c == 0 { Op::Jump(target) } else { Op::Nop };
            }
            Op::BranchNonZero {
                cond: Value::Const(c),
                target,
            } => {
                inst.op = if c != 0 { Op::Jump(target) } else { Op::Nop };
            }
            _ => {}
        }
    }
    func.remove_nops();
    // Remove unreachable instructions: anything after an unconditional jump
    // or return up to the next label.
    let mut reachable = true;
    for inst in &mut func.insts {
        match &inst.op {
            Op::Label(_) => reachable = true,
            _ if !reachable => inst.op = Op::Nop,
            Op::Jump(_) | Op::Ret { .. } => reachable = false,
            _ => {}
        }
    }
    func.remove_nops();
    // Remove labels that no branch references (pure fall-through markers).
    let referenced = func.referenced_labels();
    for inst in &mut func.insts {
        if let Op::Label(l) = inst.op {
            if referenced.binary_search(&l).is_err() {
                inst.op = Op::Nop;
            }
        }
    }
    func.remove_nops();
    // Loop metadata whose labels disappeared is no longer trustworthy.
    let remaining: Vec<_> = func
        .insts
        .iter()
        .filter_map(|i| match i.op {
            Op::Label(l) => Some(l),
            _ => None,
        })
        .collect();
    func.loops
        .retain(|r| remaining.contains(&r.header) && remaining.contains(&r.exit));
}

/// Replace loads from non-volatile globals that are never written anywhere in
/// the program with their initializer (the whole-program flavour of value
/// range propagation that folds the paper's `if (a) goto` examples).
pub fn fold_quiescent_globals(func: &mut IrFunction, cx: &PassContext) {
    for inst in &mut func.insts {
        if let Op::LoadGlobal {
            dst,
            global,
            index: None,
            volatile: false,
        } = inst.op
        {
            if cx.never_written_globals.contains(&global) {
                let init = cx.global_inits.get(global.0).copied().unwrap_or(0);
                inst.op = Op::Copy {
                    dst,
                    src: Value::Const(init),
                };
            }
        }
    }
}

/// Fold calls to functions that are pure and return a constant (the
/// `ipa-pure-const` / IPSCCP analogue, behind the paper's gcc bug 105108).
pub fn fold_pure_calls(func: &mut IrFunction, cx: &PassContext) {
    for inst in &mut func.insts {
        if let Op::Call { dst, callee, .. } = &inst.op {
            if let Some(constant) = cx.callees.get(callee.0).and_then(|c| c.pure_const) {
                inst.op = match dst {
                    Some(d) => Op::Copy {
                        dst: *d,
                        src: Value::Const(constant),
                    },
                    None => Op::Nop,
                };
            }
        }
    }
    func.remove_nops();
}

/// Whether the inliner may inline calls to a lowered function: it is small
/// and is not `main`.
pub fn inlinable(func: &IrFunction) -> bool {
    func.code_size() <= 40 && func.name != "main"
}

/// Inline small internal callees into the caller, creating an inlined scope
/// and re-homing the callee's variables and debug bindings into it.
pub fn inline_calls(func: &mut IrFunction, cx: &PassContext) {
    let mut index = 0;
    while index < func.insts.len() {
        let call = match &func.insts[index].op {
            Op::Call { dst, callee, args } if callee.0 != func.source.0 => cx
                .callees
                .get(callee.0)
                .and_then(|c| c.inline_body.as_ref())
                .map(|body| (*dst, *callee, args.clone(), body)),
            _ => None,
        };
        let Some((dst, callee, args, callee_ir)) = call else {
            index += 1;
            continue;
        };
        let call_line = func.insts[index].line;
        let parent_scope = func.insts[index].scope;
        // Build remapping tables.
        let temp_offset = func.next_temp;
        func.next_temp += callee_ir.next_temp;
        let slot_offset = func.slots;
        func.slots += callee_ir.slots;
        let inlined_scope = func.add_scope(ScopeKind::Inlined {
            parent: parent_scope,
            callee,
            callee_name: callee_ir.name.clone(),
            call_line,
        });
        let scope_base = func.scopes.len() as u32;
        for scope in callee_ir.scopes.iter().skip(1) {
            let remapped = match scope {
                ScopeKind::Function => ScopeKind::Block {
                    parent: inlined_scope,
                },
                ScopeKind::Block { parent } => ScopeKind::Block {
                    parent: remap_scope(*parent, inlined_scope, scope_base),
                },
                ScopeKind::Inlined {
                    parent,
                    callee,
                    callee_name,
                    call_line,
                } => ScopeKind::Inlined {
                    parent: remap_scope(*parent, inlined_scope, scope_base),
                    callee: *callee,
                    callee_name: callee_name.clone(),
                    call_line: *call_line,
                },
            };
            func.scopes.push(remapped);
        }
        let var_offset = func.vars.len() as u32;
        for var in &callee_ir.vars {
            func.vars.push(DebugVar {
                name: var.name.clone(),
                scope: remap_scope(var.scope, inlined_scope, scope_base),
                is_param: var.is_param,
                decl_line: var.decl_line,
                suppress_die: var.suppress_die,
            });
        }
        // Splice the callee body.
        let continue_label = func.new_label();
        let mut spliced: Vec<Inst> = Vec::new();
        for (i, param_temp) in callee_ir.param_temps.iter().enumerate() {
            let value = args.get(i).copied().unwrap_or(Value::Const(0));
            spliced.push(Inst::in_scope(
                Op::Copy {
                    dst: Temp(param_temp.0 + temp_offset),
                    src: value,
                },
                call_line,
                inlined_scope,
            ));
        }
        for inst in &callee_ir.insts {
            let scope = remap_scope(inst.scope, inlined_scope, scope_base);
            let mut op = remap_op(&inst.op, temp_offset, slot_offset, var_offset);
            if let Op::Ret { value } = op {
                if let Some(d) = dst {
                    if let Some(v) = value {
                        spliced.push(Inst::in_scope(
                            Op::Copy { dst: d, src: v },
                            inst.line,
                            scope,
                        ));
                    }
                }
                op = Op::Jump(continue_label);
            }
            spliced.push(Inst::in_scope(op, inst.line, scope));
        }
        spliced.push(Inst::in_scope(
            Op::Label(continue_label),
            call_line,
            parent_scope,
        ));
        let spliced_len = spliced.len();
        func.insts.splice(index..=index, spliced);
        index += spliced_len;
    }
}

fn remap_scope(scope: ScopeId, inlined_root: ScopeId, scope_base: u32) -> ScopeId {
    if scope.0 == 0 {
        inlined_root
    } else {
        ScopeId(scope_base + scope.0 - 1)
    }
}

fn remap_op(op: &Op, temp_offset: u32, slot_offset: u32, var_offset: u32) -> Op {
    let rt = |t: Temp| Temp(t.0 + temp_offset);
    let rv = |v: Value| match v {
        Value::Temp(t) => Value::Temp(rt(t)),
        Value::Const(c) => Value::Const(c),
    };
    let rs = |s: SlotId| SlotId(s.0 + slot_offset);
    match op {
        Op::Copy { dst, src } => Op::Copy {
            dst: rt(*dst),
            src: rv(*src),
        },
        Op::Un { dst, op, src } => Op::Un {
            dst: rt(*dst),
            op: *op,
            src: rv(*src),
        },
        Op::Bin { dst, op, lhs, rhs } => Op::Bin {
            dst: rt(*dst),
            op: *op,
            lhs: rv(*lhs),
            rhs: rv(*rhs),
        },
        Op::Trunc {
            dst,
            src,
            bits,
            signed,
        } => Op::Trunc {
            dst: rt(*dst),
            src: rv(*src),
            bits: *bits,
            signed: *signed,
        },
        Op::LoadGlobal {
            dst,
            global,
            index,
            volatile,
        } => Op::LoadGlobal {
            dst: rt(*dst),
            global: *global,
            index: index.map(rv),
            volatile: *volatile,
        },
        Op::StoreGlobal {
            global,
            index,
            value,
            volatile,
        } => Op::StoreGlobal {
            global: *global,
            index: index.map(rv),
            value: rv(*value),
            volatile: *volatile,
        },
        Op::LoadSlot { dst, slot } => Op::LoadSlot {
            dst: rt(*dst),
            slot: rs(*slot),
        },
        Op::StoreSlot { slot, value } => Op::StoreSlot {
            slot: rs(*slot),
            value: rv(*value),
        },
        Op::LoadPtr { dst, addr } => Op::LoadPtr {
            dst: rt(*dst),
            addr: rv(*addr),
        },
        Op::StorePtr { addr, value } => Op::StorePtr {
            addr: rv(*addr),
            value: rv(*value),
        },
        Op::AddrGlobal { dst, global } => Op::AddrGlobal {
            dst: rt(*dst),
            global: *global,
        },
        Op::AddrSlot { dst, slot } => Op::AddrSlot {
            dst: rt(*dst),
            slot: rs(*slot),
        },
        Op::Label(l) => Op::Label(crate::ir::BlockLabel(l.0 + temp_offset)),
        Op::Jump(l) => Op::Jump(crate::ir::BlockLabel(l.0 + temp_offset)),
        Op::BranchZero { cond, target } => Op::BranchZero {
            cond: rv(*cond),
            target: crate::ir::BlockLabel(target.0 + temp_offset),
        },
        Op::BranchNonZero { cond, target } => Op::BranchNonZero {
            cond: rv(*cond),
            target: crate::ir::BlockLabel(target.0 + temp_offset),
        },
        Op::Call { dst, callee, args } => Op::Call {
            dst: dst.map(rt),
            callee: *callee,
            args: args.iter().map(|a| rv(*a)).collect(),
        },
        Op::CallSink { args } => Op::CallSink {
            args: args.iter().map(|a| rv(*a)).collect(),
        },
        Op::Ret { value } => Op::Ret {
            value: value.map(rv),
        },
        Op::DbgValue { var, loc } => Op::DbgValue {
            var: DebugVarId(var.0 + var_offset),
            loc: match loc {
                DbgLoc::Value(v) => DbgLoc::Value(rv(*v)),
                DbgLoc::Slot(s) => DbgLoc::Slot(rs(*s)),
                DbgLoc::Undef => DbgLoc::Undef,
            },
        },
        Op::Nop => Op::Nop,
    }
}

/// Promote frame slots whose address is never taken (any more) to temps — the
/// SROA / mem2reg analogue.
pub fn promote_slots(func: &mut IrFunction) {
    let slot_count = func.slots;
    let mut promotable: Vec<bool> = vec![true; slot_count as usize];
    for inst in &func.insts {
        if let Op::AddrSlot { slot, .. } = inst.op {
            if let Some(flag) = promotable.get_mut(slot.0 as usize) {
                *flag = false;
            }
        }
    }
    let mut home: HashMap<SlotId, Temp> = HashMap::new();
    for (i, ok) in promotable.iter().enumerate() {
        if *ok {
            home.insert(SlotId(i as u32), func.new_temp());
        }
    }
    if home.is_empty() {
        return;
    }
    for inst in &mut func.insts {
        match &inst.op {
            Op::LoadSlot { dst, slot } if home.contains_key(slot) => {
                inst.op = Op::Copy {
                    dst: *dst,
                    src: Value::Temp(home[slot]),
                };
            }
            Op::StoreSlot { slot, value } if home.contains_key(slot) => {
                inst.op = Op::Copy {
                    dst: home[slot],
                    src: *value,
                };
            }
            Op::DbgValue {
                var,
                loc: DbgLoc::Slot(slot),
            } if home.contains_key(slot) => {
                inst.op = Op::DbgValue {
                    var: *var,
                    loc: DbgLoc::Value(Value::Temp(home[slot])),
                };
            }
            _ => {}
        }
    }
}

/// Fully unroll small counted loops with a known trip count and a
/// straight-line body. This is what produces several instances of the same
/// source line in the line table (the paper's footnote 3) and removes loop
/// control code entirely.
pub fn unroll_loops(func: &mut IrFunction) {
    let regions = func.loops.clone();
    for region in regions {
        let Some(trip) = region.trip_count() else {
            continue;
        };
        if trip == 0 || trip > 4 {
            continue;
        }
        let Some(header_index) = func.label_index(region.header) else {
            continue;
        };
        let Some(exit_index) = func.label_index(region.exit) else {
            continue;
        };
        if exit_index <= header_index + 1 {
            continue;
        }
        // Locate the conditional branch to the exit.
        let Some(branch_index) = func.insts[header_index..exit_index]
            .iter()
            .position(|i| matches!(i.op, Op::BranchZero { target, .. } if target == region.exit))
            .map(|p| p + header_index)
        else {
            continue;
        };
        // The latch jump back to the header must be the last instruction
        // before the exit label.
        let latch_index = exit_index - 1;
        if !matches!(func.insts[latch_index].op, Op::Jump(l) if l == region.header) {
            continue;
        }
        let body: Vec<Inst> = func.insts[branch_index + 1..latch_index].to_vec();
        if body.len() > 40 {
            continue;
        }
        // The body must be straight-line and the loop labels must only be
        // used by the loop's own control flow.
        let body_is_straight = body.iter().all(|i| {
            !matches!(
                i.op,
                Op::Label(_) | Op::Jump(_) | Op::BranchZero { .. } | Op::BranchNonZero { .. }
            )
        });
        if !body_is_straight {
            continue;
        }
        let header_refs = func
            .insts
            .iter()
            .filter(|i| match i.op {
                Op::Jump(l)
                | Op::BranchZero { target: l, .. }
                | Op::BranchNonZero { target: l, .. } => l == region.header,
                _ => false,
            })
            .count();
        let exit_refs = func
            .insts
            .iter()
            .filter(|i| match i.op {
                Op::Jump(l)
                | Op::BranchZero { target: l, .. }
                | Op::BranchNonZero { target: l, .. } => l == region.exit,
                _ => false,
            })
            .count();
        if header_refs != 1 || exit_refs != 1 {
            continue;
        }
        // The pre-branch header region (the condition computation) must be
        // pure so it can be dropped.
        let header_region_pure = func.insts[header_index + 1..branch_index]
            .iter()
            .all(|i| i.op.is_removable_def() || matches!(i.op, Op::DbgValue { .. }));
        if !header_region_pure {
            continue;
        }
        // Build the replacement: `trip` copies of the body.
        let mut replacement: Vec<Inst> = Vec::with_capacity(body.len() * trip as usize);
        for _ in 0..trip {
            replacement.extend(body.iter().cloned());
        }
        func.insts.splice(header_index..=exit_index, replacement);
        func.loops.retain(|r| r.header != region.header);
    }
}

/// Bookkeeping shared by the loop passes that do not restructure code in this
/// reproduction (loop rotation, induction-variable simplification, strength
/// reduction): prune loop metadata whose labels no longer exist so later
/// passes do not act on stale information.
pub fn loop_bookkeeping(func: &mut IrFunction) {
    let labels: Vec<_> = func
        .insts
        .iter()
        .filter_map(|i| match i.op {
            Op::Label(l) => Some(l),
            _ => None,
        })
        .collect();
    func.loops
        .retain(|r| labels.contains(&r.header) && labels.contains(&r.exit));
}

/// Very small instruction scheduler: hoist non-volatile global loads above an
/// adjacent independent pure computation. The reordering is semantics
/// preserving; the paper's scheduling bugs are injected defects on top.
pub fn schedule_loads(func: &mut IrFunction) {
    if func.insts.len() < 2 {
        return;
    }
    for i in 1..func.insts.len() {
        let (before, after) = func.insts.split_at_mut(i);
        let prev = &mut before[i - 1];
        let curr = &mut after[0];
        let curr_is_load = matches!(
            curr.op,
            Op::LoadGlobal {
                volatile: false,
                index: None,
                ..
            }
        );
        let prev_is_pure = prev.op.is_removable_def();
        if !(curr_is_load && prev_is_pure) {
            continue;
        }
        let prev_def = prev.op.def();
        let curr_def = curr.op.def();
        let reads = |op: &Op, temp: Temp| {
            let mut hit = false;
            op.for_each_use(|v| hit |= v == Value::Temp(temp));
            hit
        };
        let independent = prev_def != curr_def
            && prev_def.is_none_or(|d| !reads(&curr.op, d))
            && curr_def.is_none_or(|d| !reads(&prev.op, d));
        if independent {
            std::mem::swap(prev, curr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use holes_minic::ast::{BinOp, Expr, FunctionId, LValue, Program, Stmt, Ty, VarRef};
    use holes_minic::build::ProgramBuilder;

    fn lowered(program: &mut Program) -> (crate::ir::IrProgram, PassContext) {
        program.assign_lines();
        let ir = lower_program(program);
        let cx = PassContext::new(program, &ir, &["inline", "ipa-pure-const"]);
        (ir, cx)
    }

    #[test]
    fn cfg_cleanup_folds_constant_branches() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        b.push(
            main,
            Stmt::if_stmt(
                Expr::lit(0),
                vec![Stmt::assign(LValue::global(g), Expr::lit(1))],
                vec![],
            ),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let (mut ir, _cx) = lowered(&mut p);
        let before = ir.functions[0].insts.len();
        cfg_cleanup(&mut ir.functions[0]);
        assert!(ir.functions[0].insts.len() < before);
        assert!(!ir.functions[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::StoreGlobal { .. })));
    }

    #[test]
    fn pure_calls_are_folded() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let callee = b.function("five", Ty::I32);
        b.push(callee, Stmt::ret(Some(Expr::lit(5))));
        let main = b.function("main", Ty::I32);
        b.push(
            main,
            Stmt::assign(LValue::global(g), Expr::call(callee, vec![])),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let (mut ir, cx) = lowered(&mut p);
        let main_id = p.main().0;
        fold_pure_calls(&mut ir.functions[main_id], &cx);
        assert!(!ir.functions[main_id]
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::Call { .. })));
    }

    #[test]
    fn quiescent_globals_are_folded() {
        let mut b = ProgramBuilder::new();
        let quiet = b.global("quiet", Ty::I32, false, vec![7]);
        let out = b.global("out", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        b.push(main, Stmt::assign(LValue::global(out), Expr::global(quiet)));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let (mut ir, cx) = lowered(&mut p);
        fold_quiescent_globals(&mut ir.functions[0], &cx);
        assert!(ir.functions[0].insts.iter().any(|i| matches!(
            i.op,
            Op::Copy {
                src: Value::Const(7),
                ..
            }
        )));
    }

    #[test]
    fn inlining_creates_an_inlined_scope_and_removes_the_call() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let callee = b.function("addg", Ty::I32);
        let p0 = b.param(callee, "p0", Ty::I32);
        b.push(
            callee,
            Stmt::assign(
                LValue::global(g),
                Expr::binary(BinOp::Add, Expr::local(p0), Expr::global(g)),
            ),
        );
        b.push(callee, Stmt::ret(Some(Expr::local(p0))));
        let main = b.function("main", Ty::I32);
        b.push(main, Stmt::call_internal(callee, vec![Expr::lit(4)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let (mut ir, cx) = lowered(&mut p);
        let main_id = p.main().0;
        inline_calls(&mut ir.functions[main_id], &cx);
        let main_ir = &ir.functions[main_id];
        assert!(!main_ir
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::Call { .. })));
        assert!(main_ir
            .scopes
            .iter()
            .any(|s| matches!(s, ScopeKind::Inlined { .. })));
        // The callee's parameter now exists as an inlined variable.
        assert!(main_ir.vars.iter().any(|v| v.name == "p0"));
    }

    #[test]
    fn inlined_program_still_stores_to_global() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let callee = b.function("setg", Ty::I32);
        let p0 = b.param(callee, "p0", Ty::I32);
        b.push(callee, Stmt::assign(LValue::global(g), Expr::local(p0)));
        b.push(callee, Stmt::ret(None));
        let main = b.function("main", Ty::I32);
        b.push(main, Stmt::call_internal(callee, vec![Expr::lit(9)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let (mut ir, cx) = lowered(&mut p);
        let main_id = p.main().0;
        inline_calls(&mut ir.functions[main_id], &cx);
        assert!(ir.functions[main_id]
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::StoreGlobal { .. })));
    }

    #[test]
    fn unroll_replicates_straight_line_bodies() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let a = b.global_array("a", Ty::I32, false, vec![3], vec![1, 2, 3]);
        let main = b.function("main", Ty::I32);
        let i = b.local(main, "i", Ty::I32);
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
                        Expr::index(VarRef::Global(a), vec![Expr::local(i)]),
                    ),
                )],
            ),
        );
        b.push(main, Stmt::ret(Some(Expr::global(g))));
        let mut p = b.finish();
        let (mut ir, _cx) = lowered(&mut p);
        let stores_before = count_stores(&ir.functions[0]);
        unroll_loops(&mut ir.functions[0]);
        let stores_after = count_stores(&ir.functions[0]);
        assert_eq!(stores_after, stores_before * 3);
        assert!(ir.functions[0].loops.is_empty());
        assert!(!ir.functions[0]
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::BranchZero { .. })));
    }

    fn count_stores(f: &IrFunction) -> usize {
        f.insts
            .iter()
            .filter(|i| matches!(i.op, Op::StoreGlobal { .. }))
            .count()
    }

    #[test]
    fn promote_slots_rewrites_bindings() {
        let mut f = IrFunction {
            name: "f".into(),
            source: FunctionId(0),
            vars: Vec::new(),
            scopes: vec![ScopeKind::Function],
            slots: 1,
            next_temp: 10,
            insts: Vec::new(),
            loops: Vec::new(),
            param_temps: Vec::new(),
            decl_line: 1,
            pure_const: None,
        };
        let var = f.add_var(DebugVar {
            name: "x".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 1,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(0),
                    value: Value::Const(3),
                },
                1,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Slot(SlotId(0)),
                },
                1,
            ),
            Inst::new(
                Op::LoadSlot {
                    dst: Temp(0),
                    slot: SlotId(0),
                },
                2,
            ),
            Inst::new(
                Op::Ret {
                    value: Some(Value::Temp(Temp(0))),
                },
                2,
            ),
        ];
        promote_slots(&mut f);
        assert!(!f.insts.iter().any(|i| matches!(i.op, Op::StoreSlot { .. })));
        assert!(matches!(
            f.insts[1].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Temp(_)),
                ..
            }
        ));
    }

    #[test]
    fn scheduler_preserves_dependencies() {
        let mut f = IrFunction {
            name: "f".into(),
            source: FunctionId(0),
            vars: Vec::new(),
            scopes: vec![ScopeKind::Function],
            slots: 0,
            next_temp: 10,
            insts: Vec::new(),
            loops: Vec::new(),
            param_temps: Vec::new(),
            decl_line: 1,
            pure_const: None,
        };
        use holes_minic::ast::GlobalId;
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(0),
                    src: Value::Const(1),
                },
                1,
            ),
            Inst::new(
                Op::LoadGlobal {
                    dst: Temp(1),
                    global: GlobalId(0),
                    index: None,
                    volatile: false,
                },
                2,
            ),
            Inst::new(
                Op::Bin {
                    dst: Temp(2),
                    op: BinOp::Add,
                    lhs: Value::Temp(Temp(1)),
                    rhs: Value::Const(1),
                },
                3,
            ),
            Inst::new(
                Op::LoadGlobal {
                    dst: Temp(3),
                    global: GlobalId(0),
                    index: None,
                    volatile: false,
                },
                4,
            ),
        ];
        schedule_loads(&mut f);
        // The first load was hoisted above the independent constant copy.
        assert!(matches!(f.insts[0].op, Op::LoadGlobal { dst: Temp(1), .. }));
        // The second load must not move above the Bin that it does not
        // depend on? It may: check that the dependent Bin still precedes uses
        // of its own result and that the def of Temp(1) still precedes its use.
        let def_pos = f
            .insts
            .iter()
            .position(|i| i.op.def() == Some(Temp(1)))
            .unwrap();
        let use_pos = f
            .insts
            .iter()
            .position(|i| i.op.uses().contains(&Value::Temp(Temp(1))))
            .unwrap();
        assert!(def_pos < use_pos);
    }
}
