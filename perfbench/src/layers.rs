//! The traced run: the pipeline composed layer by layer from the
//! benchmark's own code, with every call into a layer's public function
//! timed, and the checks that the composition is the program the
//! untraced run measures.

use std::collections::BTreeMap;
use std::time::Instant;

use holes_compiler::{
    backend_for, lower, passes, BackendKind, CompilerConfig, Executable, PassSnapshots, Personality,
};
use holes_core::{check_all, query_violation, SiteQuery, Violation};
use holes_debugger::{trace_with_plan_fuel, DebugTrace, DebuggerKind, StopPlan};
use holes_machine::exec::DEFAULT_FUEL;
use holes_minic::analysis::ProgramAnalysis;
use holes_minic::ast::Program;
use holes_minic::interp::Interpreter;
use holes_minic::lines::SourceMap;
use holes_pipeline::campaign::unique_key;
use holes_pipeline::triage::{triage, TriageTable};
use holes_pipeline::{ArtifactStore, Subject, SubjectKey};
use holes_progen::ProgramGenerator;

use crate::measure::us_since;
use crate::pipeline::{policy, TriageSetup, PERSONALITIES};

/// The source name the compiler gives every executable's line table.
const SOURCE_NAME: &str = "testcase.c";

/// Programs at the start of a range whose defect-free compilations are
/// checked to yield no violations.
const WITHOUT_DEFECTS_SAMPLE: u64 = 8;

/// Per-call samples and per-call counts, keyed by metric stem.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Durations (µs or ms, as the stem says), one per call.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counts, one per call, averaged when reported.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Record one duration sample.
    pub fn sample(&mut self, stem: &'static str, value: f64) {
        self.samples.entry(stem).or_default().push(value);
    }

    /// Record one count.
    pub fn count(&mut self, stem: &'static str, value: usize) {
        self.counts.entry(stem).or_default().push(value as f64);
    }

    /// Fold another set of samples into this one.
    pub fn merge(&mut self, other: Layers) {
        for (stem, values) in other.samples {
            self.samples.entry(stem).or_default().extend(values);
        }
        for (stem, values) in other.counts {
            self.counts.entry(stem).or_default().extend(values);
        }
    }
}

/// The configuration a campaign evaluates at `level` of `personality`.
pub fn campaign_config(
    personality: Personality,
    level: holes_compiler::OptLevel,
) -> CompilerConfig {
    CompilerConfig::new(personality, level)
        .with_version(personality.trunk())
        .with_backend(BackendKind::Reg)
}

/// What a traced evaluation of one program does besides timing.
#[derive(Clone, Copy)]
pub struct Compose<'a> {
    /// Persist every artifact the way a cold store does, timing each save.
    pub save_to: Option<&'a ArtifactStore>,
    /// Check the composition against `Subject`, the interpreter and the
    /// defect-free compiler (untimed).
    pub verify: bool,
}

/// Evaluate one program under every campaign configuration by calling the
/// layers directly: generate, lower, passes, codegen, stop plan, trace,
/// check. Returns the samples and any mismatch found.
pub fn compose_seed(seed: u64, compose: Compose<'_>, in_sample: bool) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let mut mismatches = Vec::new();
    let start = Instant::now();
    let generated = ProgramGenerator::from_seed(seed).generate();
    layers.sample("progen.generate_us", us_since(start));
    layers.count("progen.stmts", generated.program.stmt_count());
    let (program, analysis, source) = (&generated.program, &generated.analysis, &generated.source);
    let key = SubjectKey::derive(seed, &source.text);
    let reference = compose.verify.then(|| {
        (
            Subject::from_seed(seed),
            Interpreter::new(program)
                .run()
                .expect("generated programs run to completion"),
        )
    });
    for personality in PERSONALITIES {
        let kind = DebuggerKind::native_for(personality);
        for &level in personality.levels() {
            let config = campaign_config(personality, level);
            let (executable, trace, violations) = compose_config(
                program,
                analysis,
                source,
                &config,
                kind,
                &mut layers,
                &mut mismatches,
            );
            if let Some(store) = compose.save_to {
                let start = Instant::now();
                store.save_executable(key, &executable);
                layers.sample("store.save_exe_us", us_since(start));
                let start = Instant::now();
                store.save_trace(key, &config, kind, &trace);
                layers.sample("store.save_trace_us", us_since(start));
                let start = Instant::now();
                store.save_violations(key, &config, kind, &violations);
                layers.sample("store.save_viol_us", us_since(start));
            }
            let Some((subject, expected_outcome)) = &reference else {
                continue;
            };
            if subject.violations(&config) != violations {
                mismatches.push(format!(
                    "seed {seed} {}: composed layers disagree with Subject::violations",
                    config.describe()
                ));
            }
            let start = Instant::now();
            let outcome = executable.machine.run_to_completion();
            layers.sample("machine.run_us", us_since(start));
            match outcome {
                Ok(outcome) if outcome.matches(expected_outcome) => {
                    layers.count("machine.steps", outcome.steps as usize);
                }
                _ => mismatches.push(format!(
                    "seed {seed} {}: machine outcome differs from the interpreter",
                    config.describe()
                )),
            }
            if in_sample {
                let clean = config.clone().without_defects();
                let mut scratch = Layers::default();
                let (_, _, found) = compose_config(
                    program,
                    analysis,
                    source,
                    &clean,
                    kind,
                    &mut scratch,
                    &mut mismatches,
                );
                if !found.is_empty() {
                    mismatches.push(format!(
                        "seed {seed} {}: {} violations without defects",
                        clean.describe(),
                        found.len()
                    ));
                }
            }
        }
    }
    (layers, mismatches)
}

/// Whether `seed` of a range starting at `start` is in the defect-free
/// sample.
pub fn in_without_defects_sample(seed: u64, start: u64) -> bool {
    seed - start < WITHOUT_DEFECTS_SAMPLE
}

/// Compile, trace and check one configuration layer by layer.
fn compose_config(
    program: &Program,
    analysis: &ProgramAnalysis,
    source: &SourceMap,
    config: &CompilerConfig,
    kind: DebuggerKind,
    layers: &mut Layers,
    mismatches: &mut Vec<String>,
) -> (Executable, DebugTrace, Vec<Violation>) {
    let start = Instant::now();
    let mut ir = lower::lower_program(program);
    layers.sample("compiler.lower_us", us_since(start));
    layers.count("compiler.ir_insts_lowered", ir.inst_count());

    let start = Instant::now();
    let mut report = passes::run_pipeline(&mut ir, program, config);
    layers.sample("compiler.passes_us", us_since(start));
    layers.count("compiler.ir_insts_optimized", ir.inst_count());

    let start = Instant::now();
    let (machine, debug, applied) =
        backend_for(config.backend).codegen(program, &ir, SOURCE_NAME, config);
    layers.sample("compiler.codegen_us", us_since(start));
    report
        .defects_applied
        .extend(applied.iter().map(|id| (*id).to_owned()));
    let executable = Executable {
        machine,
        debug,
        config: config.clone(),
        report,
    };
    layers.count(
        "compiler.machine_insts",
        executable.machine.instruction_count(),
    );
    layers.count(
        "compiler.defects_applied",
        executable.report.defects_applied.len(),
    );

    let start = Instant::now();
    let plan = StopPlan::compute(&executable, kind);
    layers.sample("debugger.plan_us", us_since(start));
    layers.count("debugger.plan_frames", plan.len());

    let start = Instant::now();
    let (trace, error) = trace_with_plan_fuel(&executable, &plan, Some(DEFAULT_FUEL));
    layers.sample("debugger.trace_us", us_since(start));
    layers.count("debugger.stops", trace.stops.len());
    if let Some(error) = error {
        mismatches.push(format!(
            "{}: machine error while tracing: {error}",
            config.describe()
        ));
    }

    let start = Instant::now();
    let violations = check_all(program, analysis, source, &trace);
    layers.sample("core.check_us", us_since(start));
    layers.count("core.violations", violations.len());
    (executable, trace, violations)
}

/// Load what a warm campaign over one program asks the store for (its
/// verdicts), or with `artifacts` the executables and traces as well,
/// timing each load and checking that every one is present.
pub fn load_seed(seed: u64, store: &ArtifactStore, artifacts: bool) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let mut mismatches = Vec::new();
    let start = Instant::now();
    let generated = ProgramGenerator::from_seed(seed).generate();
    layers.sample("progen.generate_us", us_since(start));
    layers.count("progen.stmts", generated.program.stmt_count());
    let key = SubjectKey::derive(seed, &generated.source.text);
    for personality in PERSONALITIES {
        let kind = DebuggerKind::native_for(personality);
        for &level in personality.levels() {
            let config = campaign_config(personality, level);
            let start = Instant::now();
            let mut present = store.load_violations(key, &config, kind).is_some();
            layers.sample("store.load_viol_us", us_since(start));
            if artifacts {
                let start = Instant::now();
                present &= store.load_executable(key, &config).is_some();
                layers.sample("store.load_exe_us", us_since(start));
                let start = Instant::now();
                present &= store.load_trace(key, &config, kind).is_some();
                layers.sample("store.load_trace_us", us_since(start));
            }
            if !present {
                mismatches.push(format!(
                    "seed {seed} {}: warm store lacks an artifact",
                    config.describe()
                ));
            }
        }
    }
    (layers, mismatches)
}

/// Triage every unique violation of `setup` the way `triage_campaign`
/// does, timing each `triage::triage` call. Returns the per-personality
/// tables with the samples.
pub fn triage_traced(setup: &TriageSetup) -> (Vec<TriageTable>, Layers) {
    let mut layers = Layers::default();
    let mut tables = Vec::new();
    for (personality, result) in &setup.results {
        let mut seen = std::collections::BTreeSet::new();
        let selected: Vec<_> = result
            .records
            .iter()
            .filter(|record| seen.insert(unique_key(record)))
            .collect();
        let stem = match personality {
            Personality::Ccg => "triage.violation_ms.ccg",
            Personality::Lcc => "triage.violation_ms.lcc",
        };
        let outcomes = holes_pipeline::par::par_map(&selected, |_, record| {
            let config = campaign_config(*personality, record.level);
            let subject = setup.subjects[record.subject]
                .clone()
                .with_fuel_limit(policy().fuel_limit);
            let start = Instant::now();
            let outcome = triage(&subject, &config, &record.violation);
            (outcome, us_since(start) / 1000.0)
        });
        let mut table = TriageTable::default();
        for (record, (outcome, ms)) in selected.iter().zip(outcomes) {
            layers.sample(stem, ms);
            for culprit in outcome.culprits {
                *table
                    .counts
                    .entry(record.violation.conjecture)
                    .or_default()
                    .entry(culprit)
                    .or_insert(0) += 1;
            }
        }
        tables.push(table);
    }
    (tables, layers)
}

/// Time the triage oracle's own layers on a warm set-up: pass-snapshot
/// recording and codegen-only derivation for every bisected (lcc)
/// configuration, and the targeted site query for every violation.
/// Returns the samples and any violation the query failed to reproduce.
pub fn triage_layers(setup: &TriageSetup) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let mut mismatches = Vec::new();
    for (personality, result) in &setup.results {
        let kind = DebuggerKind::native_for(*personality);
        let mut seen = std::collections::BTreeSet::new();
        for record in &result.records {
            let subject = &setup.subjects[record.subject];
            let config = campaign_config(*personality, record.level);
            if *personality == Personality::Lcc && seen.insert((record.subject, record.level)) {
                let start = Instant::now();
                let snapshots = PassSnapshots::record(&subject.program, &config);
                layers.sample("compiler.snapshot_record_us", us_since(start));
                for budget in 0..=snapshots.pass_count() {
                    let budgeted = config.clone().with_pass_budget(budget);
                    let start = Instant::now();
                    let executable = snapshots.codegen_budget(&subject.program, &budgeted);
                    layers.sample("compiler.codegen_budget_us", us_since(start));
                    std::hint::black_box(executable);
                }
            }
            let trace = subject.trace_shared(&config, kind);
            let query = SiteQuery::for_violation(&record.violation);
            let start = Instant::now();
            let occurs = query_violation(
                &subject.program,
                &subject.analysis,
                &subject.source,
                &trace,
                &query,
            );
            layers.sample("core.query_us", us_since(start));
            if !occurs {
                mismatches.push(format!(
                    "seed {}: the site query does not reproduce a campaign violation",
                    record.seed
                ));
            }
        }
    }
    (layers, mismatches)
}
