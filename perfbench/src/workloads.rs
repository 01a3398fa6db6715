//! The four workloads, each measured untraced (end-to-end metrics) or
//! traced (per-layer metrics).
//!
//! Every timed iteration repeats the same inputs, so its median is a
//! steady figure for the workload seed; the seed only chooses which
//! recorded range of programs the run uses. Work that is not the
//! workload's own (digest checks, dropping stores, set-up) runs outside
//! the timed sections.

use std::time::Instant;

use holes_core::json::Json;
use holes_pipeline::{install_process_store, par, ArtifactStore, CacheStats, StoreStats};
use holes_progen::SeedRange;

use crate::expected::{Entry, Expected};
use crate::layers::{self, Compose, Layers};
use crate::measure::{self, median, Span};
use crate::pipeline::{
    self, campaign, configs_per_program, table_range, triage_setup, CAMPAIGN_SEEDS, PERSONALITIES,
    STORE_FILLS, STORE_SEEDS, TRIAGE_SEEDS, WARMUP_SEEDS,
};
use crate::store_io::{IoSamples, MemIo, TimingIo};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Both personalities' campaign, no store.
    Campaign,
    /// Triage of every unique violation of a warm in-memory campaign.
    Triage,
    /// The campaign into a fresh, empty store.
    StoreCold,
    /// The campaign over a filled store, opened afresh per iteration.
    StoreWarm,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign" => Some(Workload::Campaign),
            "triage" => Some(Workload::Triage),
            "store-cold" => Some(Workload::StoreCold),
            "store-warm" => Some(Workload::StoreWarm),
            _ => None,
        }
    }

    /// The programs one iteration evaluates.
    pub fn seeds(self) -> u64 {
        match self {
            Workload::Campaign => CAMPAIGN_SEEDS,
            Workload::Triage => TRIAGE_SEEDS,
            Workload::StoreCold | Workload::StoreWarm => STORE_SEEDS,
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed iterations of each kind in a run.
const MIN_ITERATIONS: usize = 3;
/// Wall-clock cap on one measuring loop, so that a run ends in time even
/// when the program gets much slower.
const LOOP_CAP_S: f64 = 100.0;

/// What one run of a workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check that failed.
    pub mismatches: Vec<String>,
    /// Subject evaluations (campaign, store) or triages attempted.
    pub attempted: u64,
    /// Of those, how many faulted.
    pub failed: u64,
    /// Metric values by name; units come from the declared metric lists.
    pub metrics: Vec<(String, f64)>,
    /// Context printed with the result.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    fn check(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.mismatches
                .push(format!("{what}: digest {got}, recorded {want}"));
        }
    }

    /// Check one iteration's output: the first iteration's against its
    /// recorded digest, every later one against the first. The inputs
    /// repeat, so this is as strict as digesting every iteration, and
    /// cheaper.
    fn check_repeat<T: PartialEq + Clone>(
        &mut self,
        what: &str,
        first: &mut Option<T>,
        output: &T,
        digest: impl FnOnce(&T) -> String,
        want: &str,
    ) {
        match first {
            None => {
                self.check(what, &digest(output), want);
                *first = Some(output.clone());
            }
            Some(first) if first != output => self
                .mismatches
                .push(format!("{what}: differs from the first iteration's")),
            Some(_) => {}
        }
    }
}

/// Timed iterations of one kind.
#[derive(Debug, Default)]
struct Tally {
    /// Wall seconds per iteration.
    walls: Vec<f64>,
    /// Configurations (or probes) per second, per iteration.
    config_rates: Vec<f64>,
    /// Violations per second, per iteration.
    violation_rates: Vec<f64>,
    cpu_ms: f64,
    configs: u64,
    violations: u64,
    /// `VmHWM` after the first iteration, MiB.
    peak_rss_mb: f64,
}

impl Tally {
    fn record(&mut self, span: Span, configs: u64, violations: u64) {
        self.walls.push(span.wall_s);
        self.config_rates.push(configs as f64 / span.wall_s);
        self.violation_rates.push(violations as f64 / span.wall_s);
        self.cpu_ms += span.cpu_ms;
        self.configs += configs;
        self.violations += violations;
    }

    fn timed_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Median wall seconds per configuration.
    fn wall_per_config(&self) -> f64 {
        1.0 / median(&self.config_rates)
    }

    /// CPU busy share of the workers while timed.
    fn cpu_utilization(&self) -> f64 {
        self.cpu_ms / (self.timed_s() * 1000.0 * par::max_workers() as f64)
    }
}

/// Run `body` until the tally holds `seconds` of timed work and at least
/// [`MIN_ITERATIONS`] iterations.
///
/// Peak memory is read after the first iteration: it is the peak of one
/// execution of the workload, as a process that runs it once sees it.
/// Later iterations raise the process's peak further, by an amount that
/// grows with their number (freed memory stays with the allocator's
/// per-thread arenas), so a later reading would depend on the run's length.
fn repeat(tally: &mut Tally, seconds: f64, mut body: impl FnMut(&mut Tally)) {
    let start = Instant::now();
    while tally.walls.len() < MIN_ITERATIONS
        || (tally.timed_s() < seconds && start.elapsed().as_secs_f64() < LOOP_CAP_S)
    {
        body(tally);
        if tally.walls.len() == 1 {
            tally.peak_rss_mb = measure::peak_rss_mb();
        }
    }
}

/// Everything a run needs to know.
pub struct Run<'a> {
    /// The workload.
    pub workload: Workload,
    /// The seed-table entry the workload seed selects.
    pub index: u64,
    /// Its recorded outputs.
    pub entry: &'a Entry,
    /// The whole recorded table (for the golden digest).
    pub expected: &'a Expected,
    /// Seconds of timed work per measuring loop.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Run<'_> {
    /// Timed seconds of each measuring loop: a traced run splits its time
    /// between an untraced and a traced loop.
    fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Run the workload and gather its metrics.
pub fn run(run: &Run<'_>) -> Outcome {
    install_process_store(None);
    let mut outcome = Outcome::default();
    outcome
        .info
        .push(("store_fs".to_owned(), Json::str("memory")));
    outcome.info.push((
        "checkout_fs".to_owned(),
        Json::str(measure::filesystem_of(std::path::Path::new("."))),
    ));
    match run.workload {
        Workload::Campaign => campaign_workload(run, &mut outcome),
        Workload::Triage => triage_workload(run, &mut outcome),
        Workload::StoreCold => store_cold_workload(run, &mut outcome),
        Workload::StoreWarm => store_warm_workload(run, &mut outcome),
    }
    outcome
}

/// The set-up every workload starts with: the golden campaign checked
/// against its committed bytes, then the workload's own preparation.
fn setup<T>(run: &Run<'_>, outcome: &mut Outcome, prepare: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let golden = pipeline::golden_digest();
    let prepared = prepare();
    let wall = start.elapsed().as_secs_f64();
    match golden {
        Ok(digest) => outcome.check("golden campaign", &digest, &run.expected.golden),
        Err(mismatch) => outcome.mismatches.push(mismatch),
    }
    (prepared, wall)
}

fn campaign_workload(run: &Run<'_>, outcome: &mut Outcome) {
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (_, wall) = setup(run, outcome, || {
            campaign(table_range(run.index, WARMUP_SEEDS))
        });
        setups.push(wall);
    }
    let range = table_range(run.index, CAMPAIGN_SEEDS);
    let configs = CAMPAIGN_SEEDS * configs_per_program();
    let mut untraced = Tally::default();
    let mut stats = CacheStats::default();
    let mut first = None;
    repeat(&mut untraced, run.loop_seconds(), |tally| {
        let (result, span) = measure::timed(|| campaign(range));
        tally.record(span, configs, result.unique_violations());
        outcome.check_repeat(
            "campaign",
            &mut first,
            &result.shards,
            |shards| pipeline::shards_digest(shards),
            &run.entry.campaign,
        );
        outcome.attempted += CAMPAIGN_SEEDS * PERSONALITIES.len() as u64;
        outcome.failed += result.faults();
        stats = result.stats;
    });
    if !run.trace {
        end_to_end(outcome, &untraced, &setups);
        return;
    }
    let mut traced = Tally::default();
    let mut layers = Layers::default();
    let compose = Compose {
        save_to: None,
        verify: false,
    };
    repeat(&mut traced, run.loop_seconds(), |tally| {
        let (found, span) = measure::timed(|| compose_range(range, compose));
        tally.record(span, configs, 0);
        layers.merge(found);
    });
    verify_range(range, outcome, &mut layers);
    per_layer(outcome, &untraced, &traced, &layers);
    cache_metrics(outcome, stats);
}

/// The traced composition over a whole range, one program per task.
fn compose_range(range: SeedRange, compose: Compose<'_>) -> Layers {
    let seeds: Vec<u64> = range.iter().collect();
    let mut layers = Layers::default();
    for (found, _) in par::par_map(&seeds, |_, &seed| {
        layers::compose_seed(seed, compose, false)
    }) {
        layers.merge(found);
    }
    layers
}

/// The untimed checks of a traced run over `range`: the composition equals
/// `Subject::violations`, every machine outcome equals the interpreter's,
/// and the defect-free sample has no violations. The machine runs are
/// timed into `layers`.
fn verify_range(range: SeedRange, outcome: &mut Outcome, layers: &mut Layers) {
    let seeds: Vec<u64> = range.iter().collect();
    let compose = Compose {
        save_to: None,
        verify: true,
    };
    let verified = par::par_map(&seeds, |_, &seed| {
        layers::compose_seed(
            seed,
            compose,
            layers::in_without_defects_sample(seed, range.start),
        )
    });
    for (mut found, mismatches) in verified {
        // Only the machine runs are timed here; the other layers were
        // interleaved with the checks.
        found.samples.retain(|stem, _| stem.starts_with("machine."));
        found.counts.retain(|stem, _| stem.starts_with("machine."));
        layers.merge(found);
        outcome.mismatches.extend(mismatches);
    }
}

fn triage_workload(run: &Run<'_>, outcome: &mut Outcome) {
    let range = table_range(run.index, TRIAGE_SEEDS);
    let mut setups = Vec::new();
    let mut untraced = Tally::default();
    let mut before = CacheStats::default();
    let mut after = CacheStats::default();
    let (mut first_setup, mut first_tables) = (None, None);
    repeat(&mut untraced, run.loop_seconds(), |tally| {
        let (prepared, wall) = setup(run, outcome, || triage_setup(range));
        setups.push(wall);
        outcome.check_repeat(
            "triage set-up campaign",
            &mut first_setup,
            &prepared.results,
            |_| prepared.campaign_digest(),
            &run.entry.triage_campaign,
        );
        let probes_before = prepared.probes();
        before = prepared.cache_stats();
        let (result, span) = measure::timed(|| pipeline::triage(&prepared));
        after = prepared.cache_stats();
        let violations = prepared.violations();
        tally.record(span, prepared.probes() - probes_before, violations);
        outcome.check_repeat(
            "triage tables",
            &mut first_tables,
            &result.tables,
            |tables| pipeline::triage_digest(tables),
            &run.entry.triage,
        );
        outcome.attempted += violations;
        outcome.failed += result.faults;
    });
    if !run.trace {
        end_to_end(outcome, &untraced, &setups);
        return;
    }
    let mut traced = Tally::default();
    let mut layers = Layers::default();
    let mut probes = 0u64;
    let mut violations = 0u64;
    repeat(&mut traced, run.loop_seconds(), |tally| {
        let (prepared, _) = setup(run, outcome, || triage_setup(range));
        let probes_before = prepared.probes();
        let ((tables, found), span) = measure::timed(|| layers::triage_traced(&prepared));
        let probed = prepared.probes() - probes_before;
        tally.record(span, probed, prepared.violations());
        probes += probed;
        violations += prepared.violations();
        outcome.check(
            "traced triage tables",
            &pipeline::triage_digest(&tables),
            &run.entry.triage,
        );
        layers.merge(found);
        if tally.walls.len() == 1 {
            let (oracle, mismatches) = layers::triage_layers(&prepared);
            layers.merge(oracle);
            outcome.mismatches.extend(mismatches);
        }
    });
    verify_range(range, outcome, &mut layers);
    layers.counts.insert(
        "triage.probes_per_violation",
        vec![probes as f64 / violations as f64],
    );
    per_layer(outcome, &untraced, &traced, &layers);
    cache_metrics(outcome, delta(before, after));
}

fn delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        compiles: after.compiles - before.compiles,
        traces: after.traces - before.traces,
        checks: after.checks - before.checks,
        hits: after.hits - before.hits,
        disk_loads: after.disk_loads - before.disk_loads,
        codegen_only: after.codegen_only - before.codegen_only,
        plan_hits: after.plan_hits - before.plan_hits,
    }
}

/// One untraced cold-store iteration: the campaign into a fresh, empty
/// store, then the checks. Returns the cache and store statistics and the
/// store's size.
fn cold_iteration(
    run: &Run<'_>,
    outcome: &mut Outcome,
    tally: &mut Tally,
) -> (CacheStats, StoreStats, u64) {
    let io = MemIo::default();
    let ((result, store), span) = measure::timed(|| {
        let store = pipeline::install_store(Box::new(io.clone()));
        (campaign(table_range(run.index, STORE_SEEDS)), store)
    });
    install_process_store(None);
    tally.record(
        span,
        STORE_SEEDS * configs_per_program(),
        result.unique_violations(),
    );
    outcome.check(
        "store campaign",
        &result.digest(),
        &run.entry.store_campaign,
    );
    let scan = pipeline::scan(&io);
    outcome.check(
        "store verdicts",
        &scan.verdict_digest,
        &run.entry.store_verdicts,
    );
    let stats = store.stats();
    if stats.rejected + stats.store_errors + stats.quarantined > 0 {
        outcome
            .mismatches
            .push(format!("cold store reported trouble: {stats:?}"));
    }
    outcome.attempted += STORE_SEEDS * PERSONALITIES.len() as u64;
    outcome.failed += result.faults();
    (result.stats, stats, scan.bytes)
}

fn store_cold_workload(run: &Run<'_>, outcome: &mut Outcome) {
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (_, wall) = setup(run, outcome, || {
            let _store = pipeline::install_store(Box::new(MemIo::default()));
            campaign(table_range(run.index, WARMUP_SEEDS));
            install_process_store(None);
        });
        setups.push(wall);
    }
    let mut untraced = Tally::default();
    let mut last = (CacheStats::default(), StoreStats::default(), 0);
    repeat(&mut untraced, run.loop_seconds(), |tally| {
        last = cold_iteration(run, outcome, tally);
    });
    if !run.trace {
        end_to_end(outcome, &untraced, &setups);
        store_info(outcome, last.2);
        return;
    }
    let range = table_range(run.index, STORE_SEEDS);
    let configs = STORE_SEEDS * configs_per_program();
    let mut traced = Tally::default();
    let mut layers = Layers::default();
    let mut io = TimingIo::new(MemIo::default());
    repeat(&mut traced, run.loop_seconds(), |tally| {
        let files = MemIo::default();
        io = TimingIo::new(files.clone());
        let store = ArtifactStore::open_with_io(pipeline::STORE_ROOT, Box::new(io.clone()))
            .expect("an in-memory store always opens");
        let compose = Compose {
            save_to: Some(&store),
            verify: false,
        };
        let (found, span) = measure::timed(|| compose_range(range, compose));
        tally.record(span, configs, 0);
        layers.merge(found);
        outcome.check(
            "traced store verdicts",
            &pipeline::scan(&files).verdict_digest,
            &run.entry.store_verdicts,
        );
    });
    verify_range(range, outcome, &mut layers);
    io_metrics(&mut layers, &io.samples());
    per_layer(outcome, &untraced, &traced, &layers);
    cache_metrics(outcome, last.0);
    store_metrics(outcome, last.1, last.2);
}

/// Fold one traced iteration's store I/O samples into the layers.
fn io_metrics(layers: &mut Layers, samples: &IoSamples) {
    layers
        .samples
        .insert("store.write_us", samples.write_us.clone());
    layers
        .samples
        .insert("store.rename_us", samples.rename_us.clone());
    layers
        .samples
        .insert("store.read_us", samples.read_us.clone());
    layers
        .counts
        .insert("store.bytes_written", vec![samples.bytes_written as f64]);
    layers.counts.insert(
        "store.envelopes_written",
        vec![samples.rename_us.len() as f64],
    );
}

const MIB: f64 = 1024.0 * 1024.0;

/// The store's size, printed with an untraced result.
fn store_info(outcome: &mut Outcome, bytes: u64) {
    outcome.info.push((
        "store_mb".to_owned(),
        Json::Num(format!("{:.3}", bytes as f64 / MIB)),
    ));
}

fn store_warm_workload(run: &Run<'_>, outcome: &mut Outcome) {
    let range = table_range(run.index, STORE_SEEDS);
    let configs = STORE_SEEDS * configs_per_program();
    let filled = MemIo::default();
    let part = STORE_SEEDS / STORE_FILLS;
    let mut setups = Vec::new();
    for fill in 0..STORE_FILLS {
        let (_, wall) = setup(run, outcome, || {
            let _store = pipeline::install_store(Box::new(filled.clone()));
            let start = range.start + fill * part;
            campaign(SeedRange::new(start, start + part));
            install_process_store(None);
        });
        setups.push(wall);
    }
    let scan = pipeline::scan(&filled);
    outcome.check(
        "filled store verdicts",
        &scan.verdict_digest,
        &run.entry.store_verdicts,
    );
    // Each iteration opens the store afresh and creates new subjects, so
    // nothing but the store carries over from the fill or an earlier
    // iteration, as for a new campaign process.
    let mut untraced = Tally::default();
    let mut first = None;
    let mut last = (CacheStats::default(), StoreStats::default());
    repeat(&mut untraced, run.loop_seconds(), |tally| {
        let ((result, store), span) = measure::timed(|| {
            let store = pipeline::install_store(Box::new(filled.clone()));
            (campaign(range), store)
        });
        install_process_store(None);
        tally.record(span, configs, result.unique_violations());
        outcome.check_repeat(
            "warm campaign",
            &mut first,
            &result.shards,
            |shards| pipeline::shards_digest(shards),
            &run.entry.store_campaign,
        );
        let stats = store.stats();
        if result.stats.compiles + result.stats.traces + result.stats.checks > 0
            || stats.rejected + stats.misses + stats.store_errors > 0
        {
            outcome.mismatches.push(format!(
                "warm store recomputed or rejected: {:?} {stats:?}",
                result.stats
            ));
        }
        outcome.attempted += STORE_SEEDS * PERSONALITIES.len() as u64;
        outcome.failed += result.faults();
        last = (result.stats, stats);
    });
    if !run.trace {
        end_to_end(outcome, &untraced, &setups);
        store_info(outcome, scan.bytes);
        return;
    }
    let seeds: Vec<u64> = range.iter().collect();
    let mut traced = Tally::default();
    let mut layers = Layers::default();
    let mut io = TimingIo::new(filled.clone());
    repeat(&mut traced, run.loop_seconds(), |tally| {
        io = TimingIo::new(filled.clone());
        let store = ArtifactStore::open_with_io(pipeline::STORE_ROOT, Box::new(io.clone()))
            .expect("an in-memory store always opens");
        let (results, span) = measure::timed(|| {
            par::par_map(&seeds, |_, &seed| layers::load_seed(seed, &store, false))
        });
        tally.record(span, configs, 0);
        for (found, mismatches) in results {
            layers.merge(found);
            outcome.mismatches.extend(mismatches);
        }
    });
    // The artifacts a warm campaign does not ask for, loaded once.
    let store = ArtifactStore::open_with_io(pipeline::STORE_ROOT, Box::new(filled.clone()))
        .expect("an in-memory store always opens");
    for (found, mismatches) in
        par::par_map(&seeds, |_, &seed| layers::load_seed(seed, &store, true))
    {
        layers.merge(found);
        outcome.mismatches.extend(mismatches);
    }
    io_metrics(&mut layers, &io.samples());
    per_layer(outcome, &untraced, &traced, &layers);
    cache_metrics(outcome, last.0);
    store_metrics(outcome, last.1, scan.bytes);
}

/// The end-to-end metrics of an untraced tally.
fn end_to_end(outcome: &mut Outcome, tally: &Tally, setups: &[f64]) {
    outcome.metric("configs_per_s", median(&tally.config_rates));
    outcome.metric("violations_per_s", median(&tally.violation_rates));
    outcome.metric("cpu_ms_per_config", tally.cpu_ms / tally.configs as f64);
    outcome.metric(
        "cpu_ms_per_violation",
        tally.cpu_ms / tally.violations as f64,
    );
    outcome.metric("setup_s", median(setups));
    outcome.metric("peak_rss_mb", tally.peak_rss_mb);
    outcome
        .info
        .push(("samples".to_owned(), Json::from_usize(tally.walls.len())));
    outcome.info.push((
        "iteration_s".to_owned(),
        Json::Arr(
            tally
                .walls
                .iter()
                .map(|wall| Json::Num(format!("{wall:.4}")))
                .collect(),
        ),
    ));
}

/// The end-to-end metrics a `--trace 0` run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("configs_per_s", "1/s"),
    ("violations_per_s", "1/s"),
    ("cpu_ms_per_config", "ms"),
    ("cpu_ms_per_violation", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric the benchmark declares, with its unit, in
/// declaration order. Layers a workload does not exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("progen.generate_us.p50", "us"),
    ("progen.generate_us.p99", "us"),
    ("progen.generate_us.mean", "us"),
    ("progen.stmts", "count"),
    ("compiler.lower_us.p50", "us"),
    ("compiler.lower_us.p99", "us"),
    ("compiler.lower_us.mean", "us"),
    ("compiler.passes_us.p50", "us"),
    ("compiler.passes_us.p99", "us"),
    ("compiler.passes_us.mean", "us"),
    ("compiler.codegen_us.p50", "us"),
    ("compiler.codegen_us.p99", "us"),
    ("compiler.codegen_us.mean", "us"),
    ("compiler.ir_insts_lowered", "count"),
    ("compiler.ir_insts_optimized", "count"),
    ("compiler.machine_insts", "count"),
    ("compiler.defects_applied", "count"),
    ("debugger.plan_us.p50", "us"),
    ("debugger.plan_us.p99", "us"),
    ("debugger.plan_us.mean", "us"),
    ("debugger.plan_frames", "count"),
    ("debugger.trace_us.p50", "us"),
    ("debugger.trace_us.p99", "us"),
    ("debugger.trace_us.mean", "us"),
    ("debugger.stops", "count"),
    ("machine.run_us.p50", "us"),
    ("machine.steps", "count"),
    ("core.check_us.p50", "us"),
    ("core.check_us.p99", "us"),
    ("core.check_us.mean", "us"),
    ("core.violations", "count"),
    ("compiler.snapshot_record_us.p50", "us"),
    ("compiler.snapshot_record_us.p99", "us"),
    ("compiler.codegen_budget_us.p50", "us"),
    ("compiler.codegen_budget_us.p99", "us"),
    ("core.query_us.p50", "us"),
    ("core.query_us.p99", "us"),
    ("triage.violation_ms.ccg.p50", "ms"),
    ("triage.violation_ms.ccg.p99", "ms"),
    ("triage.violation_ms.lcc.p50", "ms"),
    ("triage.violation_ms.lcc.p99", "ms"),
    ("triage.probes_per_violation", "count"),
    ("cache.compiles", "count"),
    ("cache.codegen_only", "count"),
    ("cache.traces", "count"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("store.save_exe_us.p50", "us"),
    ("store.save_trace_us.p50", "us"),
    ("store.save_viol_us.p50", "us"),
    ("store.write_us.p50", "us"),
    ("store.rename_us.p50", "us"),
    ("store.bytes_written", "bytes"),
    ("store.envelopes_written", "count"),
    ("store.mb", "MiB"),
    ("store.load_exe_us.p50", "us"),
    ("store.load_trace_us.p50", "us"),
    ("store.load_viol_us.p50", "us"),
    ("store.read_us.p50", "us"),
    ("store.loads", "count"),
    ("store.misses", "count"),
    ("store.rejected", "count"),
    ("store.retries", "count"),
    ("store.errors", "count"),
    ("par.workers", "count"),
    ("par.cpu_utilization", "ratio"),
    ("bench.untraced_us_per_config", "us"),
    ("bench.traced_us_per_config", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// The per-layer metrics of a traced run: samples reduced to quantiles or
/// means, plus the traced run's overhead against the untraced iterations
/// of the same run.
fn per_layer(outcome: &mut Outcome, untraced: &Tally, traced: &Tally, layers: &Layers) {
    for (stem, samples) in &layers.samples {
        outcome.metric(&format!("{stem}.p50"), measure::quantile(samples, 0.5));
        outcome.metric(&format!("{stem}.p99"), measure::quantile(samples, 0.99));
        outcome.metric(&format!("{stem}.mean"), measure::mean(samples));
    }
    for (stem, counts) in &layers.counts {
        outcome.metric(stem, measure::mean(counts));
    }
    outcome.metric("par.workers", par::max_workers() as f64);
    outcome.metric("par.cpu_utilization", untraced.cpu_utilization());
    let untraced_us = untraced.wall_per_config() * 1e6;
    let traced_us = traced.wall_per_config() * 1e6;
    outcome.metric("bench.untraced_us_per_config", untraced_us);
    outcome.metric("bench.traced_us_per_config", traced_us);
    outcome.metric(
        "bench.trace_overhead_pct",
        (traced_us / untraced_us - 1.0) * 100.0,
    );
    outcome.info.push((
        "samples".to_owned(),
        Json::Obj(vec![
            (
                "untraced".to_owned(),
                Json::from_usize(untraced.walls.len()),
            ),
            ("traced".to_owned(), Json::from_usize(traced.walls.len())),
        ]),
    ));
}

/// Cache counters of one iteration.
fn cache_metrics(outcome: &mut Outcome, stats: CacheStats) {
    outcome.metric("cache.compiles", stats.compiles as f64);
    outcome.metric("cache.codegen_only", stats.codegen_only as f64);
    outcome.metric("cache.traces", stats.traces as f64);
    outcome.metric("cache.hits", stats.hits as f64);
    let lookups = stats.lookups();
    let ratio = if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    };
    outcome.metric("cache.hit_ratio", ratio);
}

/// Store counters of one iteration, and the store's size when known.
fn store_metrics(outcome: &mut Outcome, stats: StoreStats, bytes: u64) {
    outcome.metric("store.loads", stats.loads as f64);
    outcome.metric("store.misses", stats.misses as f64);
    outcome.metric("store.rejected", stats.rejected as f64);
    outcome.metric("store.retries", stats.retries as f64);
    outcome.metric("store.errors", stats.store_errors as f64);
    if bytes > 0 {
        outcome.metric("store.mb", bytes as f64 / MIB);
    }
}
