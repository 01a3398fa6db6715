//! The optimization pass pipeline.
//!
//! Passes are plain functions over [`IrFunction`]s registered by name; the
//! pipeline runner executes the schedule selected by the
//! [`crate::config::CompilerConfig`] (personality, level,
//! version), honouring the two triage mechanisms of the paper's §4.3:
//! `-fno-<pass>`-style disabling and `-opt-bisect-limit`-style pass budgets.
//! After each pass runs, the runner applies the injected defects attached to
//! that pass (see [`crate::defects`]), which corrupt only debug bindings and
//! never generated code.

pub mod scalar;
pub mod structure;

use std::collections::HashSet;

use holes_minic::ast::{GlobalId, Program};

use crate::config::CompilerConfig;
use crate::defects::{active_catalogue, apply_defect};
use crate::ir::{IrFunction, IrProgram, Op};

/// Shared context available to every pass.
#[derive(Debug)]
pub struct PassContext {
    /// Globals that are never written (and not volatile) anywhere in the
    /// program: loads from them may be replaced by their initializer.
    pub never_written_globals: HashSet<GlobalId>,
    /// What the inter-procedural passes (the inliner and the
    /// inter-procedural constant pass) read of the lowered,
    /// pre-optimization program, by function id. Empty when the schedule
    /// runs neither pass.
    pub callees: Vec<Callee>,
    /// First initializer element of every global, by id (used when folding
    /// loads from never-written globals).
    pub global_inits: Vec<i64>,
}

/// What the inter-procedural passes read of one lowered function.
#[derive(Debug)]
pub struct Callee {
    /// Whether the function is pure and returns this constant
    /// ([`IrFunction::pure_const`]).
    pub pure_const: Option<i64>,
    /// The lowered body, when the schedule inlines and the function is
    /// [`structure::inlinable`].
    pub inline_body: Option<IrFunction>,
}

impl PassContext {
    /// Build the context from the source program, its lowered IR, and the
    /// pass schedule about to run over it.
    pub fn new(source: &Program, lowered: &IrProgram, schedule: &[&str]) -> PassContext {
        let mut written: HashSet<GlobalId> = HashSet::new();
        for func in &lowered.functions {
            for inst in &func.insts {
                match inst.op {
                    Op::StoreGlobal { global, .. } | Op::AddrGlobal { global, .. } => {
                        written.insert(global);
                    }
                    _ => {}
                }
            }
        }
        let never_written = source
            .globals
            .iter()
            .enumerate()
            .filter(|(i, g)| !g.is_volatile && !written.contains(&GlobalId(*i)))
            .map(|(i, _)| GlobalId(i))
            .collect();
        let inlines = schedule.contains(&"inline");
        let callees = if inlines || schedule.contains(&"ipa-pure-const") {
            lowered
                .functions
                .iter()
                .map(|f| Callee {
                    pure_const: f.pure_const,
                    inline_body: (inlines && structure::inlinable(f)).then(|| f.clone()),
                })
                .collect()
        } else {
            Vec::new()
        };
        PassContext {
            never_written_globals: never_written,
            callees,
            global_inits: source.globals.iter().map(|g| g.init[0]).collect(),
        }
    }
}

/// A report of what the pipeline did, used by triage and the benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Pass names that actually ran, in order.
    pub passes_run: Vec<String>,
    /// Defect ids that were applied, in order.
    pub defects_applied: Vec<String>,
}

/// Run one named pass over a function.
fn run_pass(name: &str, func: &mut IrFunction, cx: &PassContext) {
    match name {
        // Constant folding / propagation family.
        "instcombine" | "tree-ccp" | "ipsccp" | "tree-vrp" => scalar::constant_fold(func),
        "evrp" => {
            structure::fold_quiescent_globals(func, cx);
            scalar::constant_fold(func);
        }
        // Copy propagation family.
        "gvn" | "tree-fre" | "cprop-registers" => scalar::copy_propagate(func),
        // Dead code / store elimination.
        "dce" | "tree-dce" => scalar::dead_code_eliminate(func),
        "dse" | "tree-dse" => scalar::dead_store_eliminate(func),
        // Control-flow cleanup.
        "simplifycfg" | "simplifycfg-late" | "cfg-cleanup" => structure::cfg_cleanup(func),
        // Inter-procedural passes.
        "inline" => structure::inline_calls(func, cx),
        "ipa-pure-const" => structure::fold_pure_calls(func, cx),
        // Memory passes.
        "sroa" | "ipa-sra" => structure::promote_slots(func),
        // Loop passes.
        "loop-unroll" | "cunroll" => structure::unroll_loops(func),
        "loop-rotate" | "indvars" | "lsr" | "ivopts" => structure::loop_bookkeeping(func),
        // Scheduling and layout.
        "machine-scheduler" | "schedule-insns2" => structure::schedule_loads(func),
        "toplevel-reorder" => {}
        other => debug_assert!(false, "unknown pass {other}"),
    }
}

/// Run the configured pipeline over a whole program, applying injected
/// defects after the pass they belong to.
pub fn run_pipeline(
    ir: &mut IrProgram,
    source: &Program,
    config: &CompilerConfig,
) -> PipelineReport {
    run_pipeline_observed(ir, source, config, |_, _| ())
}

/// The recorded execution of one pipeline run: the report, plus a clone of
/// the whole IR program after each scheduled pass (and its injected
/// defects) — the raw material of `holes_compiler::PassSnapshots`, which
/// derives any pass-budget prefix of the run by code generation alone.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoints {
    /// The full run's report: every pass, then the pass-level defects in
    /// application order, then the `isel` (code-generation stage) defects.
    pub report: PipelineReport,
    /// `checkpoints[k]` is the IR after the first `k` scheduled passes and
    /// their defects; `checkpoints[0]` is the freshly lowered program. The
    /// code-generation stage's defects are **not** applied to any
    /// checkpoint — they belong to codegen, which every budget re-runs.
    pub checkpoints: Vec<IrProgram>,
    /// `defect_counts[k]` is how many entries of `report.defects_applied`
    /// were applied within the first `k` passes (so the tail beyond
    /// `defect_counts[checkpoints.len() - 1]` is the isel stage's).
    pub defect_counts: Vec<usize>,
}

/// [`run_pipeline`], additionally recording a checkpoint of the IR after
/// every pass. The final state of `ir` and the returned report are
/// identical to the unrecorded run.
pub fn run_pipeline_with_checkpoints(
    ir: &mut IrProgram,
    source: &Program,
    config: &CompilerConfig,
) -> PipelineCheckpoints {
    let mut checkpoints = vec![ir.clone()];
    let mut defect_counts = vec![0usize];
    let report = run_pipeline_observed(ir, source, config, |ir, defects_so_far| {
        checkpoints.push(ir.clone());
        defect_counts.push(defects_so_far);
    });
    PipelineCheckpoints {
        report,
        checkpoints,
        defect_counts,
    }
}

/// The shared pipeline loop: `observe` is called after each pass and its
/// defects with the current IR and the number of defects applied so far
/// (the recording run clones checkpoints there; the plain run passes a
/// no-op that compiles away).
fn run_pipeline_observed(
    ir: &mut IrProgram,
    source: &Program,
    config: &CompilerConfig,
    mut observe: impl FnMut(&IrProgram, usize),
) -> PipelineReport {
    let mut report = PipelineReport::default();
    let mut schedule = config.pass_schedule();
    schedule.retain(|p| !config.disabled_passes.contains(*p));
    if let Some(budget) = config.pass_budget {
        schedule.truncate(budget);
    }
    let cx = PassContext::new(source, ir, &schedule);
    let defects = active_catalogue(config);
    let apply = |ir: &mut IrProgram, stage: &str, report: &mut PipelineReport| {
        for defect in defects.iter().filter(|d| d.pass == stage) {
            for func in &mut ir.functions {
                apply_defect(func, defect);
            }
            report.defects_applied.push(defect.id.to_owned());
        }
    };
    for pass in schedule {
        for func in &mut ir.functions {
            run_pass(pass, func, &cx);
        }
        report.passes_run.push(pass.to_owned());
        apply(ir, pass, &mut report);
        observe(ir, report.defects_applied.len());
    }
    // The always-on code-generation stage hosts its own defects.
    apply(ir, "isel", &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptLevel, Personality};
    use crate::lower::lower_program;
    use holes_minic::ast::{Expr, LValue, Stmt, Ty};
    use holes_minic::build::ProgramBuilder;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(3))));
        b.push(main, Stmt::assign(LValue::global(g), Expr::local(x)));
        b.push(main, Stmt::call_opaque(vec![Expr::local(x)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        p.assign_lines();
        p
    }

    #[test]
    fn pipeline_runs_scheduled_passes() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let report = run_pipeline(&mut ir, &p, &config);
        assert_eq!(report.passes_run.len(), config.pass_schedule().len());
    }

    #[test]
    fn disabled_passes_are_skipped() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config =
            CompilerConfig::new(Personality::Ccg, OptLevel::O2).with_disabled_pass("tree-ccp");
        let report = run_pipeline(&mut ir, &p, &config);
        assert!(!report.passes_run.iter().any(|p| p == "tree-ccp"));
    }

    #[test]
    fn pass_budget_truncates_the_pipeline() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Lcc, OptLevel::O2).with_pass_budget(2);
        let report = run_pipeline(&mut ir, &p, &config);
        assert_eq!(report.passes_run.len(), 2);
    }

    #[test]
    fn defect_free_configuration_applies_no_defects() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2).without_defects();
        let report = run_pipeline(&mut ir, &p, &config);
        assert!(report.defects_applied.is_empty());
    }

    #[test]
    fn trunk_applies_defects_at_o2() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let report = run_pipeline(&mut ir, &p, &config);
        assert!(!report.defects_applied.is_empty());
    }

    #[test]
    fn context_identifies_never_written_globals() {
        let mut b = ProgramBuilder::new();
        let quiet = b.global("quiet", Ty::I32, false, vec![0]);
        let noisy = b.global("noisy", Ty::I32, false, vec![0]);
        let volat = b.global("vol", Ty::I32, true, vec![0]);
        let main = b.function("main", Ty::I32);
        b.push(main, Stmt::assign(LValue::global(noisy), Expr::lit(1)));
        b.push(main, Stmt::ret(Some(Expr::global(quiet))));
        let mut p = b.finish();
        p.assign_lines();
        let ir = lower_program(&p);
        let cx = PassContext::new(&p, &ir, &[]);
        assert!(cx.never_written_globals.contains(&quiet));
        assert!(!cx.never_written_globals.contains(&noisy));
        assert!(!cx.never_written_globals.contains(&volat));
    }
}
