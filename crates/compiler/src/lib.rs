//! An optimizing MiniC compiler with two personalities, injected
//! debug-information defects, and full DWARF-style debug output.
//!
//! This crate is the reproduction's substitute for gcc and clang. It lowers
//! MiniC to a register IR, runs a per-configuration pass pipeline
//! ([`config::CompilerConfig`] selects personality, version and optimization
//! level), and generates code for the `holes-machine` VM together with
//! DWARF-modelled debug information (`holes-debuginfo`).
//!
//! Two properties matter for the paper's methodology and are enforced by this
//! crate's tests:
//!
//! 1. **Semantics preservation** — at every optimization level the compiled
//!    executable produces the same observable outcome as the MiniC reference
//!    interpreter (differential testing).
//! 2. **Availability by default** — with injected defects disabled
//!    ([`CompilerConfig::without_defects`]), optimization never removes a
//!    variable's availability at the program points the three conjectures
//!    inspect; every conjecture violation is therefore attributable to a
//!    catalogued defect, exactly like the paper attributes violations to
//!    compiler bugs.
//!
//! # Example
//!
//! ```
//! use holes_compiler::{compile, CompilerConfig, OptLevel, Personality};
//! use holes_minic::build::ProgramBuilder;
//! use holes_minic::ast::{Expr, LValue, Stmt, Ty};
//!
//! let mut b = ProgramBuilder::new();
//! let g = b.global("g", Ty::I32, false, vec![0]);
//! let main = b.function("main", Ty::I32);
//! b.push(main, Stmt::assign(LValue::global(g), Expr::lit(41)));
//! b.push(main, Stmt::ret(Some(Expr::lit(0))));
//! let mut program = b.finish();
//! program.assign_lines();
//!
//! let exe = compile(&program, &CompilerConfig::new(Personality::Ccg, OptLevel::O2));
//! let outcome = exe.run()?;
//! assert_eq!(outcome.final_globals[0], vec![41]);
//! # Ok::<(), holes_machine::MachineError>(())
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod codegen;
pub mod codegen_stack;
pub mod config;
pub mod defects;
pub mod executable;
pub mod frame;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod regalloc;
pub mod vcode;

pub use backend::{backend_for, Backend};
pub use config::{BackendKind, CompilerConfig, Fingerprint, OptLevel, Personality};
pub use defects::{catalogue, stack_catalogue, Defect, DefectAction};
pub use executable::Executable;
pub use passes::PipelineReport;

use holes_minic::ast::Program;

/// The synthetic source-file name every compilation uses.
const SOURCE_NAME: &str = "testcase.c";

/// Compile a MiniC program (whose lines have been assigned) under the given
/// configuration. The optimization pipeline is backend-independent; the
/// configuration's [`BackendKind`] selects which [`Backend`] lowers the
/// optimized IR to machine code and location descriptions.
pub fn compile(program: &Program, config: &CompilerConfig) -> Executable {
    let mut ir = lower::lower_program(program);
    let report = passes::run_pipeline(&mut ir, program, config);
    codegen_ir(program, &ir, config, report)
}

/// Lower an optimized IR program through the configuration's backend and
/// assemble the executable (shared by [`compile`], [`compile_with_snapshots`],
/// and [`PassSnapshots::codegen_budget`]).
fn codegen_ir(
    program: &Program,
    ir: &ir::IrProgram,
    config: &CompilerConfig,
    mut report: PipelineReport,
) -> Executable {
    let backend = backend::backend_for(config.backend);
    let (machine, debug, applied) = backend.codegen(program, ir, SOURCE_NAME, config);
    report
        .defects_applied
        .extend(applied.iter().map(|id| (*id).to_owned()));
    Executable {
        machine,
        debug,
        config: config.clone(),
        report,
    }
}

/// The recorded pass-prefix checkpoints of one full pipeline run.
///
/// Triage bisection probes the *same* configuration at many pass budgets,
/// and a budget-`k` compilation is by construction a strict prefix of the
/// unbudgeted pipeline. Recording a post-pass IR checkpoint while the full
/// schedule runs once ([`compile_with_snapshots`], or
/// [`PassSnapshots::record`] when the executable is not needed) therefore
/// lets any `with_pass_budget(k)` executable be derived by **code
/// generation alone** ([`PassSnapshots::codegen_budget`]): clone checkpoint
/// `k`, apply the code-generation stage's defects, and lower it through the
/// backend. The derived executable is byte-identical to a from-scratch
/// budgeted compile — the unit tests hold every budget of every
/// personality, level, and backend to full structural equality.
#[derive(Debug, Clone)]
pub struct PassSnapshots {
    /// The budget-free configuration the pipeline ran as.
    base: CompilerConfig,
    /// IR after the first `k` scheduled passes, `k = 0..=passes`.
    checkpoints: Vec<ir::IrProgram>,
    /// The passes that actually ran, in order.
    passes_run: Vec<String>,
    /// Pass-level defect ids in application order (no isel entries).
    pass_defects: Vec<String>,
    /// `defect_counts[k]` = pass-level defects applied within the first `k`
    /// passes.
    defect_counts: Vec<usize>,
}

impl PassSnapshots {
    fn from_checkpoints(config: &CompilerConfig, recorded: passes::PipelineCheckpoints) -> Self {
        let passes = recorded.checkpoints.len() - 1;
        let pass_defect_count = recorded.defect_counts[passes];
        PassSnapshots {
            base: config.clone(),
            checkpoints: recorded.checkpoints,
            passes_run: recorded.report.passes_run,
            pass_defects: recorded.report.defects_applied[..pass_defect_count].to_vec(),
            defect_counts: recorded.defect_counts,
        }
    }

    /// Run the pipeline once (without code generation) and record every
    /// checkpoint — the entry point for callers that only need budget
    /// derivations, e.g. a triage bisection whose full-pipeline executable
    /// is already cached.
    pub fn record(program: &Program, config: &CompilerConfig) -> PassSnapshots {
        let mut ir = lower::lower_program(program);
        let recorded = passes::run_pipeline_with_checkpoints(&mut ir, program, config);
        PassSnapshots::from_checkpoints(config, recorded)
    }

    /// The configuration the checkpoints belong to.
    pub fn base_config(&self) -> &CompilerConfig {
        &self.base
    }

    /// Number of passes the recorded pipeline ran (budgets at or beyond
    /// this derive the full pipeline).
    pub fn pass_count(&self) -> usize {
        self.passes_run.len()
    }

    /// Derive the executable of `config` — which must be the recorded base
    /// configuration plus a pass budget — from the matching checkpoint, by
    /// code generation alone: no optimization pass is re-run.
    ///
    /// # Panics
    ///
    /// Panics if `config` carries no pass budget or differs from the base
    /// configuration in anything but the budget.
    pub fn codegen_budget(&self, program: &Program, config: &CompilerConfig) -> Executable {
        let budget = config
            .pass_budget
            .expect("codegen_budget needs a budgeted configuration");
        let mut base_of = config.clone();
        base_of.pass_budget = None;
        assert!(
            base_of == self.base,
            "snapshots of {} cannot derive {}",
            self.base.describe(),
            config.describe()
        );
        let cut = budget.min(self.pass_count());
        let mut ir = self.checkpoints[cut].clone();
        let mut report = PipelineReport {
            passes_run: self.passes_run[..cut].to_vec(),
            defects_applied: self.pass_defects[..self.defect_counts[cut]].to_vec(),
        };
        // The code-generation stage and its defects run for every budget,
        // exactly as `passes::run_pipeline` applies them after truncation.
        for defect in defects::active_defects(config, "isel") {
            for func in &mut ir.functions {
                defects::apply_defect(func, &defect);
            }
            report.defects_applied.push(defect.id.to_owned());
        }
        codegen_ir(program, &ir, config, report)
    }
}

/// [`compile`], additionally recording the pass-prefix checkpoints of the
/// run (see [`PassSnapshots`]). The returned executable is identical to
/// `compile(program, config)`.
pub fn compile_with_snapshots(
    program: &Program,
    config: &CompilerConfig,
) -> (Executable, PassSnapshots) {
    let mut ir = lower::lower_program(program);
    let recorded = passes::run_pipeline_with_checkpoints(&mut ir, program, config);
    let report = recorded.report.clone();
    let snapshots = PassSnapshots::from_checkpoints(config, recorded);
    let executable = codegen_ir(program, &ir, config, report);
    (executable, snapshots)
}

/// Compile the same program at every optimization level of a personality's
/// version (including `-O0`), as the paper's campaigns do.
pub fn compile_all_levels(
    program: &Program,
    personality: Personality,
    version: usize,
) -> Vec<Executable> {
    let mut levels = vec![OptLevel::O0];
    levels.extend_from_slice(personality.levels());
    levels
        .into_iter()
        .map(|level| {
            let config = CompilerConfig::new(personality, level).with_version(version);
            compile(program, &config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_minic::interp::Interpreter;
    use holes_progen::ProgramGenerator;

    #[test]
    fn all_levels_preserve_semantics_on_generated_programs() {
        for seed in 0..12u64 {
            let generated = ProgramGenerator::from_seed(seed).generate();
            let reference = Interpreter::new(&generated.program)
                .run()
                .expect("reference runs");
            for personality in [Personality::Ccg, Personality::Lcc] {
                for level in personality.levels().iter().chain([&OptLevel::O0]) {
                    let config = CompilerConfig::new(personality, *level);
                    let exe = compile(&generated.program, &config);
                    let outcome = exe.run().unwrap_or_else(|e| {
                        panic!("seed {seed} {personality} {level}: execution failed: {e}")
                    });
                    assert!(
                        outcome.matches(&reference),
                        "seed {seed} {personality} {level}: outcome diverges\n{outcome:?}\n{reference:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimization_reduces_code_size() {
        let generated = ProgramGenerator::from_seed(3).generate();
        let o0 = compile(
            &generated.program,
            &CompilerConfig::new(Personality::Ccg, OptLevel::O0),
        );
        let o2 = compile(
            &generated.program,
            &CompilerConfig::new(Personality::Ccg, OptLevel::O2),
        );
        assert!(o2.code_size() <= o0.code_size());
    }

    #[test]
    fn defect_free_and_defective_compilations_behave_identically() {
        // Injected defects corrupt only debug information, never observable
        // behaviour: both compilations must produce the same outcome and the
        // same steppable lines (they may differ in register assignment, since
        // debug bindings extend live ranges).
        let generated = ProgramGenerator::from_seed(11).generate();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for level in personality.levels() {
                let with = compile(
                    &generated.program,
                    &CompilerConfig::new(personality, *level),
                );
                let without = compile(
                    &generated.program,
                    &CompilerConfig::new(personality, *level).without_defects(),
                );
                let with_outcome = with.run().unwrap();
                let without_outcome = without.run().unwrap();
                assert_eq!(
                    (
                        &with_outcome.sink_calls,
                        &with_outcome.final_globals,
                        with_outcome.return_value
                    ),
                    (
                        &without_outcome.sink_calls,
                        &without_outcome.final_globals,
                        without_outcome.return_value
                    ),
                    "{personality} {level}: defects changed observable behaviour"
                );
                assert_eq!(
                    with.steppable_lines(),
                    without.steppable_lines(),
                    "{personality} {level}: defects changed the line table"
                );
            }
        }
    }

    #[test]
    fn stack_backend_defects_change_debug_info_but_never_behaviour() {
        // The stack backend's spill-loss defect corrupts only location
        // descriptions: code, observable outcome, and line table are
        // untouched, exactly like the IR-level defect catalogue.
        let generated = ProgramGenerator::from_seed(11).generate();
        let reference = Interpreter::new(&generated.program).run().unwrap();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for level in personality.levels() {
                let config = CompilerConfig::new(personality, *level)
                    .with_backend(crate::BackendKind::Stack);
                let with = compile(&generated.program, &config);
                let without = compile(&generated.program, &config.clone().without_defects());
                assert!(with.run().unwrap().matches(&reference));
                assert!(without.run().unwrap().matches(&reference));
                // (Machine code may differ in allocation, since debug
                // bindings participate in first-seen allocation order —
                // the same allowance the register-backend test makes.)
                assert_eq!(with.steppable_lines(), without.steppable_lines());
            }
        }
    }

    #[test]
    fn versions_affect_debug_info_but_not_outcome() {
        let generated = ProgramGenerator::from_seed(21).generate();
        let reference = Interpreter::new(&generated.program).run().unwrap();
        for version in 0..6 {
            let exe = compile(
                &generated.program,
                &CompilerConfig::new(Personality::Ccg, OptLevel::O2).with_version(version),
            );
            assert!(exe.run().unwrap().matches(&reference), "version {version}");
        }
    }

    #[test]
    fn snapshot_derived_budget_compiles_equal_from_scratch_compiles() {
        // The pass-prefix snapshot contract: for every budget k, deriving
        // the executable from checkpoint k (codegen only) is structurally
        // identical to truncating the pipeline and compiling from scratch —
        // across personalities, levels, and backends, defects included.
        let generated = ProgramGenerator::from_seed(7).generate();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for &level in &[OptLevel::O2, OptLevel::Og] {
                for backend in BackendKind::ALL {
                    let config = CompilerConfig::new(personality, level).with_backend(backend);
                    let (full, snapshots) = compile_with_snapshots(&generated.program, &config);
                    assert_eq!(
                        full,
                        compile(&generated.program, &config),
                        "{personality} {level} {backend}: recording changed the full compile"
                    );
                    assert_eq!(snapshots.base_config(), &config);
                    assert_eq!(snapshots.pass_count(), full.report.passes_run.len());
                    for budget in 0..=snapshots.pass_count() {
                        let budgeted = config.clone().with_pass_budget(budget);
                        let derived = snapshots.codegen_budget(&generated.program, &budgeted);
                        let scratch = compile(&generated.program, &budgeted);
                        assert_eq!(
                            derived, scratch,
                            "{personality} {level} {backend} budget {budget}: derived \
                             executable diverged from the from-scratch compile"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_recording_honours_disabled_passes() {
        // Disabled passes shrink the effective schedule; budgets index into
        // that schedule, and the snapshots must agree with from-scratch
        // compiles of the same (disabled, budgeted) configuration.
        let generated = ProgramGenerator::from_seed(9).generate();
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2)
            .with_disabled_pass("inline")
            .with_disabled_pass("tree-dce");
        let snapshots = PassSnapshots::record(&generated.program, &config);
        assert!(snapshots.pass_count() < config.pass_schedule().len());
        for budget in [0, 1, snapshots.pass_count() / 2, snapshots.pass_count()] {
            let budgeted = config.clone().with_pass_budget(budget);
            assert_eq!(
                snapshots.codegen_budget(&generated.program, &budgeted),
                compile(&generated.program, &budgeted),
                "budget {budget}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot derive")]
    fn snapshots_refuse_foreign_configurations() {
        let generated = ProgramGenerator::from_seed(2).generate();
        let config = CompilerConfig::new(Personality::Lcc, OptLevel::O2);
        let snapshots = PassSnapshots::record(&generated.program, &config);
        let foreign = CompilerConfig::new(Personality::Lcc, OptLevel::O3).with_pass_budget(1);
        let _ = snapshots.codegen_budget(&generated.program, &foreign);
    }

    #[test]
    fn compile_all_levels_includes_o0_baseline() {
        let generated = ProgramGenerator::from_seed(5).generate();
        let exes = compile_all_levels(&generated.program, Personality::Lcc, 4);
        assert_eq!(exes.len(), 1 + Personality::Lcc.levels().len());
        assert_eq!(exes[0].config.level, OptLevel::O0);
        assert!(exes[0].report.passes_run.is_empty());
    }

    #[test]
    fn dse_keeps_slot_stores_read_across_a_loop_back_edge() {
        // g = 3; int x = 1; int *p = &x;
        // for (i = 0; i < g; i++) { sink(x); x = x + 1; }
        // `p` is dead, so dce deletes the only address-taking of `x`; the
        // store `x = x + 1` is then read only by the next iteration's
        // `sink(x)`, which precedes it in program order.
        use holes_minic::ast::{BinOp, Expr, LValue, Stmt, Ty, VarRef};
        use holes_minic::build::ProgramBuilder;

        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        let p = b.local(main, "p", Ty::Ptr(&Ty::I32));
        let i = b.local(main, "i", Ty::I32);
        b.push(main, Stmt::assign(LValue::global(g), Expr::lit(3)));
        b.push(main, Stmt::decl(x, Some(Expr::lit(1))));
        b.push(main, Stmt::decl(p, Some(Expr::addr_of(VarRef::Local(x)))));
        b.push(main, Stmt::decl(i, None));
        b.push(
            main,
            Stmt::for_loop(
                Some(Stmt::assign(LValue::local(i), Expr::lit(0))),
                Some(Expr::binary(BinOp::Lt, Expr::local(i), Expr::global(g))),
                Some(Stmt::assign(
                    LValue::local(i),
                    Expr::binary(BinOp::Add, Expr::local(i), Expr::lit(1)),
                )),
                vec![
                    Stmt::call_opaque(vec![Expr::local(x)]),
                    Stmt::assign(
                        LValue::local(x),
                        Expr::binary(BinOp::Add, Expr::local(x), Expr::lit(1)),
                    ),
                ],
            ),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut program = b.finish();
        program.assign_lines();
        let reference = Interpreter::new(&program).run().expect("reference runs");
        assert_eq!(reference.sink_calls, vec![vec![1], vec![2], vec![3]]);
        for personality in [Personality::Ccg, Personality::Lcc] {
            for level in personality.levels().iter().chain([&OptLevel::O0]) {
                for backend in BackendKind::ALL {
                    let config = CompilerConfig::new(personality, *level)
                        .with_backend(backend)
                        .without_defects();
                    let outcome = compile(&program, &config).run().expect("compiled run");
                    assert!(
                        outcome.matches(&reference),
                        "{personality} {level} {backend}: {:?} vs {:?}",
                        outcome.sink_calls,
                        reference.sink_calls
                    );
                }
            }
        }
    }

    #[test]
    fn rewritten_passes_and_allocator_match_their_references() {
        // Differential oracle: on every pass input of generated programs
        // (each checkpoint of the pipeline, for both personalities, every
        // level, with and without defects), each linear-time scalar pass
        // returns the function its pre-rewrite reference returns, and the
        // dense register allocator returns the reference's allocation. The
        // register and frame backends share that allocation; the stack
        // backend has no register allocator.
        use crate::passes::scalar::{self, reference};
        type Pass = fn(&mut ir::IrFunction);
        let pairs: [(&str, Pass, Pass); 4] = [
            (
                "constant_fold",
                scalar::constant_fold,
                reference::constant_fold,
            ),
            (
                "copy_propagate",
                scalar::copy_propagate,
                reference::copy_propagate,
            ),
            (
                "dead_code_eliminate",
                scalar::dead_code_eliminate,
                reference::dead_code_eliminate,
            ),
            (
                "dead_store_eliminate",
                scalar::dead_store_eliminate,
                reference::dead_store_eliminate,
            ),
        ];
        for seed in 0..12u64 {
            let program = ProgramGenerator::from_seed(seed).generate().program;
            for personality in [Personality::Ccg, Personality::Lcc] {
                for level in personality.levels() {
                    let trunk = CompilerConfig::new(personality, *level);
                    for config in [trunk.clone(), trunk.without_defects()] {
                        let mut ir = lower::lower_program(&program);
                        let recorded =
                            passes::run_pipeline_with_checkpoints(&mut ir, &program, &config);
                        let inputs = recorded.checkpoints.iter().chain([&ir]);
                        for (k, input) in inputs.enumerate() {
                            for func in &input.functions {
                                let at = format!(
                                    "seed {seed} {} input {k} {}",
                                    config.describe(),
                                    func.name
                                );
                                for (name, fast, slow) in pairs {
                                    let (mut got, mut want) = (func.clone(), func.clone());
                                    fast(&mut got);
                                    slow(&mut want);
                                    assert!(
                                        got == want,
                                        "{at}: {name} diverges from its reference"
                                    );
                                }
                                let (got, want) = codegen::allocation_and_reference(func);
                                assert!(
                                    got == want,
                                    "{at}: allocation diverges from the reference"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
