//! Violation campaigns: Table 1 and the Venn distributions of Figures 2–3.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use holes_compiler::{BackendKind, CompilerConfig, OptLevel, Personality};
use holes_core::json::Json;
use holes_core::{Conjecture, Violation};

use crate::fault::{self, FaultPolicy, SubjectFault, SubjectOutcome};
use crate::par;
use crate::shard::CampaignSpec;
use crate::{CacheStats, Subject};

/// One violation found during a campaign, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Seed of the program that exposed the violation.
    pub seed: u64,
    /// Index of the subject in the campaign pool.
    pub subject: usize,
    /// Optimization level the violation was observed at.
    pub level: OptLevel,
    /// The violation itself.
    pub violation: Violation,
}

/// The result of running one personality's campaign over a pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Every violation observation (one per level it occurs at).
    pub records: Vec<ViolationRecord>,
    /// Number of programs tested.
    pub programs: usize,
    /// Levels tested.
    pub levels: Vec<OptLevel>,
    /// Subjects whose evaluation faulted and was contained (empty on the
    /// default no-fault path; see [`crate::fault`]). Faulted subjects
    /// contribute no [`ViolationRecord`]s but are counted, never dropped.
    pub faults: Vec<SubjectFault>,
}

/// A unique violation: the paper treats violations at different program lines
/// as distinct and counts one entry per (program, conjecture, line, variable)
/// across levels. The variable name is the record's shared `Arc<str>`, so
/// building a key never allocates.
pub type UniqueKey = (usize, Conjecture, u32, Arc<str>);

/// The owned unique-violation key of a record (shared by the triage and
/// report dedup paths and the streaming [`CampaignTallies`] accumulator).
pub fn unique_key(record: &ViolationRecord) -> UniqueKey {
    (
        record.subject,
        record.violation.conjecture,
        record.violation.line,
        record.violation.variable.clone(),
    )
}

/// [`UniqueKey`] borrowing the variable name from its record: the one-off
/// aggregation queries ([`CampaignResult::unique`], `venn`) build one key
/// per record, so even the `Arc` bump is avoidable.
type UniqueKeyRef<'a> = (usize, Conjecture, u32, &'a str);

fn unique_key_ref(record: &ViolationRecord) -> UniqueKeyRef<'_> {
    (
        record.subject,
        record.violation.conjecture,
        record.violation.line,
        record.violation.variable.as_ref(),
    )
}

/// Every aggregate the campaign renderers need, built by **one pass** over
/// the records — as a batch ([`CampaignResult::tallies`]) or incrementally
/// ([`CampaignTallies::add`]), which is how the streaming `holes report`
/// path folds shard files record-by-record without materializing them.
///
/// Memory is proportional to the number of *unique* violations (plus the
/// per-cell count table), never to the number of records. Both
/// [`CampaignResult::table1`] and [`CampaignResult::summary_json`] render
/// from one of these, so the accumulator is byte-identical to the record
/// re-scanning aggregation it replaced by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTallies {
    levels: Vec<OptLevel>,
    programs: usize,
    records: usize,
    /// `per_cell[(conjecture, level)]` — the Table 1 cells.
    per_cell: BTreeMap<(Conjecture, OptLevel), usize>,
    /// Per unique violation, the set of levels it reproduces at (drives the
    /// `unique` row, the Venn distribution, and the at-all-levels count).
    per_violation: BTreeMap<UniqueKey, BTreeSet<OptLevel>>,
    /// Per conjecture, the subjects with at least one violation.
    dirty: BTreeMap<Conjecture, BTreeSet<usize>>,
    /// Subjects whose evaluation faulted (see [`crate::fault`]); 0 on the
    /// default no-fault path.
    faulted: usize,
}

impl CampaignTallies {
    /// An empty accumulator for a campaign over `programs` subjects at
    /// `levels`.
    pub fn new(levels: Vec<OptLevel>, programs: usize) -> CampaignTallies {
        CampaignTallies {
            levels,
            programs,
            records: 0,
            per_cell: BTreeMap::new(),
            per_violation: BTreeMap::new(),
            dirty: BTreeMap::new(),
            faulted: 0,
        }
    }

    /// Fold one contained subject fault in (the streaming `holes report`
    /// path calls this per fault line).
    pub fn add_fault(&mut self) {
        self.faulted += 1;
    }

    /// Number of faulted subjects folded in.
    pub fn faulted(&self) -> usize {
        self.faulted
    }

    /// Fold one violation record in. Order-independent: any interleaving of
    /// the same records produces the same tallies.
    pub fn add(&mut self, record: &ViolationRecord) {
        self.records += 1;
        let conjecture = record.violation.conjecture;
        *self.per_cell.entry((conjecture, record.level)).or_insert(0) += 1;
        self.per_violation
            .entry(unique_key(record))
            .or_default()
            .insert(record.level);
        self.dirty
            .entry(conjecture)
            .or_default()
            .insert(record.subject);
    }

    /// Number of records folded in.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of programs the campaign covered.
    pub fn programs(&self) -> usize {
        self.programs
    }

    /// One Table 1 cell.
    pub fn count_at(&self, conjecture: Conjecture, level: OptLevel) -> usize {
        self.per_cell
            .get(&(conjecture, level))
            .copied()
            .unwrap_or(0)
    }

    /// Table 1's unique row for one conjecture.
    pub fn unique(&self, conjecture: Conjecture) -> usize {
        self.per_violation
            .keys()
            .filter(|key| key.1 == conjecture)
            .count()
    }

    /// Programs with no violation at all for a conjecture.
    pub fn clean_programs(&self, conjecture: Conjecture) -> usize {
        let dirty = self.dirty.get(&conjecture).map_or(0, BTreeSet::len);
        self.programs.saturating_sub(dirty)
    }

    /// The Venn distribution of Figures 2–3.
    pub fn venn(&self) -> BTreeMap<Vec<OptLevel>, usize> {
        let mut venn: BTreeMap<Vec<OptLevel>, usize> = BTreeMap::new();
        for levels in self.per_violation.values() {
            let key: Vec<OptLevel> = levels.iter().copied().collect();
            *venn.entry(key).or_insert(0) += 1;
        }
        venn
    }

    /// The unique violations folded in so far, in ascending [`UniqueKey`]
    /// order, each with the set of levels it reproduces at — the seam the
    /// baseline recorder ([`crate::baseline`]) and the SARIF/JUnit report
    /// emitters ([`crate::report::sarif`], [`crate::report::junit`]) read
    /// fingerprints from. Ascending key order makes every consumer
    /// deterministic by construction, independent of fold order.
    pub fn unique_violations(&self) -> impl Iterator<Item = (&UniqueKey, &BTreeSet<OptLevel>)> {
        self.per_violation.iter()
    }

    /// Violations that occur at all tested levels.
    pub fn at_all_levels(&self) -> usize {
        self.per_violation
            .values()
            .filter(|levels| levels.len() == self.levels.len())
            .count()
    }

    /// Render Table 1 (same bytes as [`CampaignResult::table1`]).
    pub fn table1(&self) -> String {
        let mut out = String::from("level      C1      C2      C3\n");
        for &level in &self.levels {
            out.push_str(&format!(
                "{:<8} {:>6} {:>6} {:>6}\n",
                level.flag(),
                self.count_at(Conjecture::C1, level),
                self.count_at(Conjecture::C2, level),
                self.count_at(Conjecture::C3, level),
            ));
        }
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>6}\n",
            "unique",
            self.unique(Conjecture::C1),
            self.unique(Conjecture::C2),
            self.unique(Conjecture::C3),
        ));
        out
    }

    /// The machine-readable summary (same bytes as
    /// [`CampaignResult::summary_json`]).
    pub fn summary_json(&self) -> Json {
        let per_conjecture = |f: &dyn Fn(Conjecture) -> usize| {
            Json::Obj(
                Conjecture::ALL
                    .iter()
                    .map(|&c| (c.to_string(), Json::from_usize(f(c))))
                    .collect(),
            )
        };
        let table1 = self
            .levels
            .iter()
            .map(|&level| {
                (
                    level.flag().to_owned(),
                    per_conjecture(&|c| self.count_at(c, level)),
                )
            })
            .collect::<Vec<_>>();
        let venn = self
            .venn()
            .into_iter()
            .map(|(levels, count)| {
                Json::Obj(vec![
                    (
                        "levels".to_owned(),
                        Json::Arr(levels.iter().map(|l| Json::str(l.flag())).collect()),
                    ),
                    ("count".to_owned(), Json::from_usize(count)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("programs".to_owned(), Json::from_usize(self.programs)),
            (
                "levels".to_owned(),
                Json::Arr(self.levels.iter().map(|l| Json::str(l.flag())).collect()),
            ),
            ("table1".to_owned(), Json::Obj(table1)),
            ("unique".to_owned(), per_conjecture(&|c| self.unique(c))),
            (
                "clean_programs".to_owned(),
                per_conjecture(&|c| self.clean_programs(c)),
            ),
            (
                "at_all_levels".to_owned(),
                Json::from_usize(self.at_all_levels()),
            ),
            ("venn".to_owned(), Json::Arr(venn)),
        ];
        // Emitted only when faults occurred, so no-fault summaries stay
        // byte-identical to the pre-containment format.
        if self.faulted > 0 {
            pairs.push(("faulted".to_owned(), Json::from_usize(self.faulted)));
        }
        Json::Obj(pairs)
    }
}

impl CampaignResult {
    /// Per-level violation counts for one conjecture (one column pair of
    /// Table 1).
    pub fn count_at(&self, conjecture: Conjecture, level: OptLevel) -> usize {
        self.records
            .iter()
            .filter(|r| r.level == level && r.violation.conjecture == conjecture)
            .count()
    }

    /// Unique violations (counted once even when they occur at several
    /// levels) for one conjecture — Table 1's last row.
    pub fn unique(&self, conjecture: Conjecture) -> usize {
        self.unique_keys(conjecture).len()
    }

    fn unique_keys(&self, conjecture: Conjecture) -> BTreeSet<UniqueKeyRef<'_>> {
        self.records
            .iter()
            .filter(|r| r.violation.conjecture == conjecture)
            .map(unique_key_ref)
            .collect()
    }

    /// Number of programs with no violation at all for a conjecture (the
    /// "no violations in N out of 1000 programs" figure of §5.1).
    pub fn clean_programs(&self, conjecture: Conjecture) -> usize {
        let dirty: BTreeSet<usize> = self
            .records
            .iter()
            .filter(|r| r.violation.conjecture == conjecture)
            .map(|r| r.subject)
            .collect();
        self.programs.saturating_sub(dirty.len())
    }

    /// The Venn distribution of Figures 2–3: for every unique violation, the
    /// set of levels it reproduces at; returns counts per level-set.
    pub fn venn(&self) -> BTreeMap<Vec<OptLevel>, usize> {
        let mut per_violation: BTreeMap<UniqueKeyRef<'_>, BTreeSet<OptLevel>> = BTreeMap::new();
        for r in &self.records {
            per_violation
                .entry(unique_key_ref(r))
                .or_default()
                .insert(r.level);
        }
        let mut venn: BTreeMap<Vec<OptLevel>, usize> = BTreeMap::new();
        for levels in per_violation.values() {
            let key: Vec<OptLevel> = levels.iter().copied().collect();
            *venn.entry(key).or_insert(0) += 1;
        }
        venn
    }

    /// Violations that occur at *all* tested levels (a headline number of
    /// §5.2).
    pub fn at_all_levels(&self) -> usize {
        self.venn()
            .iter()
            .filter(|(levels, _)| levels.len() == self.levels.len())
            .map(|(_, count)| *count)
            .sum()
    }

    /// Fold every record into a [`CampaignTallies`]: the one pass both
    /// renderers below share.
    pub fn tallies(&self) -> CampaignTallies {
        let mut tallies = CampaignTallies::new(self.levels.clone(), self.programs);
        for record in &self.records {
            tallies.add(record);
        }
        for _ in &self.faults {
            tallies.add_fault();
        }
        tallies
    }

    /// Render Table 1 rows (one per level plus the unique row) as plain
    /// text. Built from one pass over the records (see
    /// [`CampaignResult::tallies`]) instead of re-scanning them per cell.
    pub fn table1(&self) -> String {
        self.tallies().table1()
    }

    /// The machine-readable summary of the campaign: Table 1 (per-level and
    /// unique counts), the per-conjecture clean-program counts, and the
    /// Venn distribution of Figures 2–3. Deterministic — equal results
    /// always serialize to equal bytes; built from the same one-pass
    /// [`CampaignTallies`] as [`CampaignResult::table1`].
    pub fn summary_json(&self) -> Json {
        self.tallies().summary_json()
    }
}

/// One subject's records over every level, in level order — the unit of work
/// the campaign drivers and the regression studies share.
pub(crate) fn subject_records(
    subject: &Subject,
    index: usize,
    personality: Personality,
    version: usize,
    backend: BackendKind,
    levels: &[OptLevel],
) -> Vec<ViolationRecord> {
    let mut records = Vec::new();
    for &level in levels {
        let config = CompilerConfig::new(personality, level)
            .with_version(version)
            .with_backend(backend);
        for violation in subject.violations(&config) {
            records.push(ViolationRecord {
                seed: subject.seed,
                subject: index,
                level,
                violation,
            });
        }
    }
    records
}

/// Run the campaign: test every subject at every level of a personality's
/// version against all three conjectures, on the default register backend.
///
/// Subjects are evaluated in parallel (they are independent), and records
/// are reassembled in (subject, level) order, so the result — including
/// every rendered table — is byte-identical to [`run_campaign_serial`].
pub fn run_campaign(
    subjects: &[Subject],
    personality: Personality,
    version: usize,
) -> CampaignResult {
    run_campaign_on_with_policy(
        subjects,
        personality,
        version,
        BackendKind::Reg,
        &FaultPolicy::default(),
    )
}

/// [`run_campaign`] on an explicit backend (so a stack-VM campaign
/// exercises the spill-induced violation classes the register backend
/// cannot express), with subject-level fault containment: each subject is
/// evaluated under [`fault::contain`], so a panic or (under a fuel limit) a
/// runaway program becomes a [`SubjectFault`] in the result's `faults` list
/// instead of crashing the campaign. On the default policy and the register
/// backend the result is byte-identical to [`run_campaign`].
pub fn run_campaign_on_with_policy(
    subjects: &[Subject],
    personality: Personality,
    version: usize,
    backend: BackendKind,
    policy: &FaultPolicy,
) -> CampaignResult {
    let levels = personality.levels().to_vec();
    let per_subject = par::par_map(subjects, |index, subject| {
        fault::contain(policy, subject.seed, index, || {
            // A fuel limit is carried on the subject; the clone shares the
            // cache, so no artifact is recomputed.
            let limited;
            let subject = if policy.fuel_limit.is_some() {
                limited = subject.clone().with_fuel_limit(policy.fuel_limit);
                &limited
            } else {
                subject
            };
            subject_records(subject, index, personality, version, backend, &levels)
        })
    });
    let mut records = Vec::new();
    let mut faults = Vec::new();
    for outcome in per_subject {
        match outcome {
            SubjectOutcome::Completed(subject_records) => records.extend(subject_records),
            SubjectOutcome::Faulted(fault) => faults.push(fault),
        }
    }
    CampaignResult {
        records,
        programs: subjects.len(),
        levels,
        faults,
    }
}

/// The per-seed loop behind every seed-driven driver — the in-memory and
/// streamed shard runs and the sharded triage. Each seed's subject is
/// regenerated with the policy's fuel limit, its records are computed for
/// `spec` (global subject index `seed - spec.seeds.start`), and `body`
/// turns subject and records into the driver's result, all under
/// [`fault::contain`]. The whole slice is evaluated in one parallel pass;
/// outcomes come back in seed order, each completed one paired with the
/// subject's cache activity.
pub(crate) fn evaluate_seeds<R: Send>(
    spec: &CampaignSpec,
    seeds: &[u64],
    policy: &FaultPolicy,
    body: impl Fn(&Subject, Vec<ViolationRecord>) -> R + Sync,
) -> Vec<SubjectOutcome<(R, CacheStats)>> {
    let levels = spec.personality.levels();
    par::par_map(seeds, |_, &seed| {
        let index = (seed - spec.seeds.start) as usize;
        fault::contain(policy, seed, index, || {
            let subject = Subject::from_seed(seed).with_fuel_limit(policy.fuel_limit);
            let records = subject_records(
                &subject,
                index,
                spec.personality,
                spec.version,
                spec.backend,
                levels,
            );
            (body(&subject, records), subject.cache_stats())
        })
    })
}

/// The serial reference implementation of [`run_campaign`]; the tests and
/// benchmarks hold the parallel driver to byte-identical output.
pub fn run_campaign_serial(
    subjects: &[Subject],
    personality: Personality,
    version: usize,
) -> CampaignResult {
    let levels = personality.levels().to_vec();
    let mut result = CampaignResult {
        records: Vec::new(),
        programs: subjects.len(),
        levels: levels.clone(),
        faults: Vec::new(),
    };
    for (index, subject) in subjects.iter().enumerate() {
        result.records.extend(subject_records(
            subject,
            index,
            personality,
            version,
            BackendKind::Reg,
            &levels,
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject_pool;

    #[test]
    fn campaign_produces_consistent_counts() {
        let subjects = subject_pool(1000, 6);
        let result = run_campaign(&subjects, Personality::Ccg, Personality::Ccg.trunk());
        assert_eq!(result.programs, 6);
        // Every per-level count is at least the number reflected in records.
        let mut total = 0usize;
        for c in Conjecture::ALL {
            for l in &result.levels {
                total += result.count_at(c, *l);
            }
        }
        assert_eq!(total, result.records.len());
        // Unique counts never exceed summed per-level counts.
        for c in Conjecture::ALL {
            let summed: usize = result.levels.iter().map(|l| result.count_at(c, *l)).sum();
            assert!(result.unique(c) <= summed.max(1));
            assert!(result.clean_programs(c) <= result.programs);
        }
        // The Venn distribution partitions the unique violations.
        let venn_total: usize = result.venn().values().sum();
        let unique_total: usize = Conjecture::ALL.iter().map(|c| result.unique(*c)).sum();
        assert_eq!(venn_total, unique_total);
        assert!(result.at_all_levels() <= venn_total);
        let table = result.table1();
        assert!(table.contains("unique"));
    }

    #[test]
    fn tallies_agree_with_the_record_rescanning_queries() {
        let subjects = subject_pool(1030, 8);
        for personality in [Personality::Ccg, Personality::Lcc] {
            let result = run_campaign(&subjects, personality, personality.trunk());
            let tallies = result.tallies();
            assert_eq!(tallies.records(), result.records.len());
            assert_eq!(tallies.programs(), result.programs);
            for c in Conjecture::ALL {
                for &l in &result.levels {
                    assert_eq!(tallies.count_at(c, l), result.count_at(c, l), "{c} {l}");
                }
                assert_eq!(tallies.unique(c), result.unique(c), "{c}");
                assert_eq!(tallies.clean_programs(c), result.clean_programs(c), "{c}");
            }
            assert_eq!(tallies.venn(), result.venn());
            assert_eq!(tallies.at_all_levels(), result.at_all_levels());
            // The incremental accumulator is order-independent: folding the
            // records in reverse produces the same tallies (and bytes).
            let mut reversed = CampaignTallies::new(result.levels.clone(), result.programs);
            for record in result.records.iter().rev() {
                reversed.add(record);
            }
            assert_eq!(reversed.table1(), result.table1());
            assert_eq!(
                reversed.summary_json().to_pretty(),
                result.summary_json().to_pretty()
            );
            assert_ne!(reversed.records(), 0, "campaign produced no records");
        }
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let subjects = subject_pool(1020, 8);
        for personality in [Personality::Ccg, Personality::Lcc] {
            // Fresh caches per driver so neither run can borrow the other's
            // artifacts.
            let fresh: Vec<Subject> = subjects.iter().map(Subject::with_fresh_cache).collect();
            let parallel = run_campaign(&fresh, personality, personality.trunk());
            let serial = run_campaign_serial(&subjects, personality, personality.trunk());
            assert_eq!(parallel.records, serial.records);
            assert_eq!(parallel.table1(), serial.table1());
            assert_eq!(parallel.venn(), serial.venn());
        }
    }

    #[test]
    fn every_shard_driver_agrees_under_injected_faults() {
        use crate::shard::{read_shard, run_shard_with_policy};
        use crate::stream::run_shard_streaming;
        use crate::triage::run_triage_shard;
        use holes_progen::SeedRange;

        let personality = Personality::Lcc;
        let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(2600, 2612));
        let injected = vec![2603u64, 2607];
        let policy = FaultPolicy {
            inject_seeds: injected.iter().copied().collect(),
            ..FaultPolicy::default()
        };
        let (in_memory, _) = run_shard_with_policy(&spec, &policy).unwrap();
        assert!(
            !in_memory.result.records.is_empty(),
            "range exposed no records"
        );
        let mut out = Vec::new();
        let run = run_shard_streaming(&spec, &mut out, &policy).unwrap();
        let streamed = read_shard(&String::from_utf8(out).unwrap()).unwrap();
        assert_eq!(streamed, in_memory, "records and faults alike");

        let faulted = |faults: &[SubjectFault]| faults.iter().map(|f| f.seed).collect::<Vec<_>>();
        assert_eq!(faulted(&in_memory.result.faults), injected);
        assert_eq!(faulted(&streamed.result.faults), injected);
        assert_eq!(run.faulted, injected.len());

        let (_, triage_faults, _) = run_triage_shard(&spec, 1, &policy).unwrap();
        assert_eq!(triage_faults, in_memory.result.faults);
    }

    #[test]
    fn defect_free_version_would_be_clean() {
        let subjects = subject_pool(1010, 3);
        for subject in &subjects {
            for &level in Personality::Ccg.levels() {
                let cfg = CompilerConfig::new(Personality::Ccg, level).without_defects();
                assert!(
                    subject.violations(&cfg).is_empty(),
                    "defect-free compiler produced violations"
                );
            }
        }
    }
}
