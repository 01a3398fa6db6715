//! Sharded campaign runs: the scaling seam for multi-machine fan-out.
//!
//! A campaign over a [`SeedRange`] can be split into `K` shards, each
//! enumerating the seeds of one residue class of the range (see
//! [`SeedRange::shard_seeds`]). Every shard is self-contained — it
//! regenerates its programs from their seeds, so shards share nothing but
//! the [`CampaignSpec`] — and serializes its result to a deterministic JSON
//! file ([`CampaignShard::to_json`]). [`merge_shards`] later folds any
//! complete set of shard runs back into one [`CampaignResult`] that is
//! **byte-identical** to the monolithic run over the whole range: records
//! carry the *global* subject index (`seed - range.start`), per-subject
//! record order is preserved inside a shard, and the merge stably sorts by
//! that index, which is exactly the order the unsharded driver produces.
//!
//! The integration tests and the `holes` CLI's `campaign`/`report`
//! subcommands hold a K-sharded run to this equivalence for every rendered
//! table.
//!
//! Shard files are read back through one API for both formats:
//! [`fold_shard`] streams a file of either format through a record
//! callback, [`read_shard`] materializes one, and
//! [`CampaignShard::from_json`] parses a classic shard embedded in other
//! JSON. Every reader, the `--resume` scan included, checks the order of
//! records and faults with the same private check, so a file is trusted
//! or rejected identically whichever format carries it.

use std::io::{BufRead, Read};

use holes_compiler::{BackendKind, OptLevel, Personality};
use holes_core::json::Json;
use holes_core::{Observed, Violation};
use holes_minic::ast::FunctionId;
use holes_progen::SeedRange;

use crate::campaign::{evaluate_seeds, CampaignResult, ViolationRecord};
use crate::fault::{FaultPolicy, FaultStage, SubjectFault, SubjectOutcome};
use crate::stream::{StreamError, CAMPAIGN_JSONL_FORMAT};

/// What to run: one personality's campaign over a seed range, as one shard
/// of a (possibly single-shard) partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The compiler personality under test.
    pub personality: Personality,
    /// Index into [`Personality::version_names`].
    pub version: usize,
    /// The full seed range of the campaign (not just this shard's slice).
    pub seeds: SeedRange,
    /// Total number of shards the range is partitioned into.
    pub shards: u64,
    /// This run's shard index, `0..shards`.
    pub shard: u64,
    /// The backend every subject is compiled for
    /// ([`BackendKind::Reg`] by default). Serialized in shard headers only
    /// when non-default, so register-backend shard files stay byte-identical
    /// to the pre-backend format.
    pub backend: BackendKind,
}

impl CampaignSpec {
    /// A single-shard (monolithic) campaign over a seed range, on the
    /// default register backend.
    pub fn new(personality: Personality, version: usize, seeds: SeedRange) -> CampaignSpec {
        CampaignSpec {
            personality,
            version,
            seeds,
            shards: 1,
            shard: 0,
            backend: BackendKind::Reg,
        }
    }

    /// The same campaign restricted to shard `shard` of `shards`.
    pub fn with_shard(mut self, shards: u64, shard: u64) -> CampaignSpec {
        self.shards = shards;
        self.shard = shard;
        self
    }

    /// The same campaign targeting a different backend.
    pub fn with_backend(mut self, backend: BackendKind) -> CampaignSpec {
        self.backend = backend;
        self
    }

    /// Check the spec's internal consistency (positive shard count, shard
    /// index in range, version index valid for the personality).
    pub fn validate(&self) -> Result<(), ShardError> {
        if self.shards == 0 {
            return Err(ShardError::InvalidSpec(
                "shard count must be positive".into(),
            ));
        }
        if self.shard >= self.shards {
            return Err(ShardError::InvalidSpec(format!(
                "shard index {} out of range for {} shards",
                self.shard, self.shards
            )));
        }
        if self.version >= self.personality.version_names().len() {
            return Err(ShardError::InvalidSpec(format!(
                "version index {} out of range for {}",
                self.version, self.personality
            )));
        }
        Ok(())
    }

    /// The seeds this shard is responsible for, in increasing order.
    pub fn shard_seeds(&self) -> Vec<u64> {
        self.seeds.shard_seeds(self.shards, self.shard).collect()
    }

    /// Whether two specs describe shards of the *same* campaign (everything
    /// but the shard index agrees).
    pub fn same_campaign(&self, other: &CampaignSpec) -> bool {
        self.personality == other.personality
            && self.version == other.version
            && self.seeds == other.seeds
            && self.shards == other.shards
            && self.backend == other.backend
    }
}

/// One completed shard run: the spec plus the violations found on the
/// shard's seeds, with global subject indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignShard {
    /// What was run.
    pub spec: CampaignSpec,
    /// The shard's campaign result. `programs` counts only this shard's
    /// seeds; record `subject` fields are global indices into the full
    /// range.
    pub result: CampaignResult,
}

/// Run one shard of a campaign: regenerate the shard's programs from their
/// seeds and test every one at every level of the personality.
///
/// Subjects are generated *and* evaluated in parallel (the per-seed work is
/// independent) and reassembled in seed order, so the result is
/// deterministic for a given spec.
pub fn run_shard(spec: &CampaignSpec) -> Result<CampaignShard, ShardError> {
    run_shard_with_policy(spec, &FaultPolicy::default()).map(|(shard, _)| shard)
}

/// [`run_shard`] with subject-level fault containment (see
/// [`crate::fault`]), additionally returning the evaluation-engine activity
/// aggregated over every subject of the shard (compiles, traces, checks,
/// hits, disk loads) — what the CLI's `--stats` switch reports. Each
/// seed's generation and evaluation runs under [`crate::fault::contain`],
/// so a panicking or (under a fuel limit) runaway subject becomes a
/// [`SubjectFault`] in the shard's result instead of killing the run. On
/// the default policy the shard is byte-identical to [`run_shard`].
pub fn run_shard_with_policy(
    spec: &CampaignSpec,
    policy: &FaultPolicy,
) -> Result<(CampaignShard, crate::CacheStats), ShardError> {
    spec.validate()?;
    let seeds = spec.shard_seeds();
    let mut stats = crate::CacheStats::default();
    let mut records = Vec::new();
    let mut faults = Vec::new();
    for outcome in evaluate_seeds(spec, &seeds, policy, |_, records| records) {
        match outcome {
            SubjectOutcome::Completed((subject_records, subject_stats)) => {
                stats.absorb(subject_stats);
                records.extend(subject_records);
            }
            SubjectOutcome::Faulted(fault) => faults.push(fault),
        }
    }
    Ok((
        CampaignShard {
            spec: spec.clone(),
            result: CampaignResult {
                records,
                programs: seeds.len(),
                levels: spec.personality.levels().to_vec(),
                faults,
            },
        },
        stats,
    ))
}

/// Merge a complete set of shard runs back into the monolithic
/// [`CampaignResult`] for the full seed range.
///
/// All shards must belong to the same campaign and the shard indices must
/// cover `0..shards` exactly once; the input order does not matter. The
/// merged result — records, tables, Venn distributions — is byte-identical
/// to running the campaign unsharded. Shards are consumed: their records
/// move into the merged result instead of being cloned.
pub fn merge_shards(shards: Vec<CampaignShard>) -> Result<CampaignResult, ShardError> {
    let specs: Vec<CampaignSpec> = shards.iter().map(|s| s.spec.clone()).collect();
    let first_spec = validate_shard_specs(&specs)?;
    // Stable sort by global subject index restores the monolithic record
    // order: within a subject all records live in one shard, already in
    // (level, site) order.
    let mut records: Vec<ViolationRecord> = Vec::new();
    let mut faults: Vec<SubjectFault> = Vec::new();
    for shard in shards {
        records.extend(shard.result.records);
        faults.extend(shard.result.faults);
    }
    records.sort_by_key(|r| r.subject);
    faults.sort_by_key(|f| f.subject);
    Ok(CampaignResult {
        records,
        programs: first_spec.seeds.len() as usize,
        levels: first_spec.personality.levels().to_vec(),
        faults,
    })
}

/// Check that a set of specs forms one complete campaign — every spec
/// valid, all describing the same campaign, and the shard indices covering
/// `0..shards` exactly once — and return the first spec. This is
/// [`merge_shards`]' validation, shared with the streaming `holes report`
/// path (which folds records instead of materializing shards, but must
/// reject exactly the same inputs).
///
/// # Errors
///
/// Returns a [`ShardError`] when the set is empty, inconsistent, or
/// incomplete.
pub fn validate_shard_specs(specs: &[CampaignSpec]) -> Result<CampaignSpec, ShardError> {
    let first_spec = specs
        .first()
        .cloned()
        .ok_or_else(|| ShardError::Incompatible("no shards to merge".into()))?;
    for spec in specs {
        spec.validate()?;
        if !spec.same_campaign(&first_spec) {
            return Err(ShardError::Incompatible(format!(
                "shard {} belongs to a different campaign than shard {}",
                spec.shard, first_spec.shard
            )));
        }
    }
    let mut indices: Vec<u64> = specs.iter().map(|s| s.shard).collect();
    indices.sort_unstable();
    let expected: Vec<u64> = (0..first_spec.shards).collect();
    if indices != expected {
        return Err(ShardError::Incompatible(format!(
            "shard indices {indices:?} do not cover 0..{} exactly once",
            first_spec.shards
        )));
    }
    Ok(first_spec)
}

/// The identifying first line of a campaign shard file.
pub const CAMPAIGN_FORMAT: &str = "holes.campaign/v1";

impl CampaignShard {
    /// Serialize to the deterministic shard-file JSON (see
    /// [`CAMPAIGN_FORMAT`]).
    pub fn to_json(&self) -> Json {
        let mut pairs = spec_header_pairs(&self.spec, CAMPAIGN_FORMAT);
        pairs.push((
            "programs".to_owned(),
            Json::from_usize(self.result.programs),
        ));
        pairs.push((
            "records".to_owned(),
            Json::Arr(self.result.records.iter().map(record_to_json).collect()),
        ));
        // Emitted only when faults occurred, so no-fault shard files stay
        // byte-identical to the pre-containment format.
        if !self.result.faults.is_empty() {
            pairs.push((
                "faults".to_owned(),
                Json::Arr(self.result.faults.iter().map(fault_to_json).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Parse and validate a shard document produced by
    /// [`CampaignShard::to_json`] — the entry point for shards embedded in
    /// other JSON (the fleet journal and `holes.rpc/v1`); files go through
    /// [`fold_shard`] or [`read_shard`].
    ///
    /// Beyond field syntax this checks semantic consistency: the program
    /// count matches the shard's seed slice, every record's and fault's seed
    /// belongs to this shard with the matching global subject index, and the
    /// records and faults, merged by subject, pass the canonical-order check
    /// every shard reader shares — so a merged report can trust them without
    /// re-deriving them.
    pub fn from_json(json: &Json) -> Result<CampaignShard, ShardError> {
        let format = str_field(json, "format")?;
        if format != CAMPAIGN_FORMAT {
            return Err(ShardError::Malformed(format!(
                "unsupported format `{format}` (expected `{CAMPAIGN_FORMAT}`)"
            )));
        }
        let spec = parse_spec_header(json)?;
        let personality = spec.personality;
        let levels = parse_levels(json, personality)?;
        let programs = usize_field(json, "programs")?;
        if programs as u64 != spec.seeds.shard_len(spec.shards, spec.shard) {
            return Err(ShardError::Malformed(format!(
                "program count {programs} does not match shard {} of {} over {}",
                spec.shard, spec.shards, spec.seeds
            )));
        }
        let records = json
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Malformed("missing `records` array".into()))?
            .iter()
            .enumerate()
            .map(|(index, record)| {
                record_from_json(record, &spec).map_err(|error| error.for_record(index))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let faults = match json.get("faults") {
            None => Vec::new(),
            Some(value) => value
                .as_arr()
                .ok_or_else(|| ShardError::Malformed("`faults` is not an array".into()))?
                .iter()
                .enumerate()
                .map(|(index, fault)| {
                    fault_from_json(fault, &spec)
                        .map_err(|error| error.contextualize(&format!("fault {index}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let mut order = OrderCheck::new(personality);
        for entry in interleave(&records, &faults) {
            order.admit(entry)?;
        }
        Ok(CampaignShard {
            spec,
            result: CampaignResult {
                records,
                programs,
                levels,
                faults,
            },
        })
    }
}

/// What [`fold_shard`] validated about a shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// The campaign spec from the file's header.
    pub spec: CampaignSpec,
    /// The level schedule from the header (already checked against the
    /// personality).
    pub levels: Vec<OptLevel>,
    /// Programs covered by the shard.
    pub programs: usize,
    /// Records handed to the fold callback.
    pub records: usize,
    /// Contained subject faults carried by the file, in subject order.
    /// Empty for runs without a fault policy.
    pub faults: Vec<SubjectFault>,
}

/// Read a campaign shard file of either format, handing each validated
/// record to `each` together with the file's spec.
///
/// The format is detected from the first non-blank line. A
/// `holes.campaign-jsonl/v1` header (or an empty input, which is a stream
/// killed before its header) is folded line by line in bounded memory, with
/// errors naming the line and record index (see [`crate::stream`]);
/// anything else is parsed as one `holes.campaign/v1` document
/// ([`CampaignShard::from_json`]). Both formats get the same checks:
/// header consistency, per-entry membership, the canonical order of records
/// and faults, and the file's own counts. Records handed to `each` before an
/// error is discovered must be discarded by the caller (an aggregate built
/// from a file that later fails validation is meaningless).
///
/// # Errors
///
/// Returns the first validation failure as a [`StreamError::Shard`], or the
/// reader's failure as [`StreamError::Io`].
pub fn fold_shard<R: BufRead>(
    mut reader: R,
    mut each: impl FnMut(&CampaignSpec, ViolationRecord),
) -> Result<ShardSummary, StreamError> {
    // Keep the blank lines before the first real one, so the JSON Lines
    // reader sees the whole file and reports true line numbers.
    let mut head = String::new();
    while head.trim().is_empty() && reader.read_line(&mut head)? > 0 {}
    let first = head.trim();
    let jsonl = first.is_empty()
        || Json::parse(first).is_ok_and(|header| {
            header.get("format").and_then(Json::as_str) == Some(CAMPAIGN_JSONL_FORMAT)
        });
    if jsonl {
        return crate::stream::fold_jsonl(std::io::Cursor::new(head).chain(reader), each);
    }
    reader.read_to_string(&mut head)?;
    let json = Json::parse(&head).map_err(|e| ShardError::Malformed(e.to_string()))?;
    let CampaignShard { spec, result } = CampaignShard::from_json(&json)?;
    let records = result.records.len();
    for record in result.records {
        each(&spec, record);
    }
    Ok(ShardSummary {
        spec,
        levels: result.levels,
        programs: result.programs,
        records,
        faults: result.faults,
    })
}

/// [`fold_shard`] over an in-memory file, materializing its records into a
/// [`CampaignShard`]. Callers that only aggregate should fold instead and
/// keep memory bounded.
///
/// # Errors
///
/// Returns a [`ShardError`] describing the first validation failure.
pub fn read_shard(text: &str) -> Result<CampaignShard, ShardError> {
    let mut records = Vec::new();
    let summary = fold_shard(text.as_bytes(), |_, record| records.push(record)).map_err(
        |error| match error {
            StreamError::Shard(error) => error,
            // Reading from an in-memory slice cannot fail; keep the error
            // path total anyway.
            StreamError::Io(error) => {
                ShardError::Malformed(format!("I/O failure on an in-memory stream: {error}"))
            }
        },
    )?;
    Ok(CampaignShard {
        spec: summary.spec,
        result: CampaignResult {
            records,
            programs: summary.programs,
            levels: summary.levels,
            faults: summary.faults,
        },
    })
}

/// One body entry of a shard file, in either format: a violation record or
/// a contained subject fault.
pub(crate) enum Entry<'a> {
    /// A violation record.
    Record(&'a ViolationRecord),
    /// A contained subject fault.
    Fault(&'a SubjectFault),
}

/// A shard's records and faults merged by subject: the order both shard
/// formats carry them in, and the order [`OrderCheck`] expects. On a tie
/// the fault comes first, so a subject with both is reported as a record
/// of an already faulted subject.
pub(crate) fn interleave<'a>(
    records: &'a [ViolationRecord],
    faults: &'a [SubjectFault],
) -> impl Iterator<Item = Entry<'a>> {
    let mut records = records.iter().peekable();
    let mut faults = faults.iter().peekable();
    std::iter::from_fn(move || match (records.peek(), faults.peek()) {
        (Some(record), Some(fault)) if record.subject < fault.subject => {
            records.next().map(Entry::Record)
        }
        (_, Some(_)) => faults.next().map(Entry::Fault),
        (Some(_), None) => records.next().map(Entry::Record),
        (None, None) => None,
    })
}

/// The one check of canonical campaign order, shared by every reader of
/// both shard formats: the `holes.campaign/v1` parser, the JSON Lines fold
/// ([`crate::stream`]), and the `--resume` scan. Fed a shard's entries one
/// at a time, it requires
///
/// - records in strictly ascending order of subject, then level in
///   schedule order, then the sorted, deduplicated violation list of
///   `check_all` — the order the drivers emit;
/// - faults in strictly ascending subject order;
/// - no subject with both records and a fault.
///
/// Strict ascent rejects duplicated, reordered, or injected entries that
/// would otherwise pass the per-entry checks and silently inflate merged
/// tables. Only the previous record and the last faulted subject are kept,
/// so a million-record stream is checked in O(1) memory.
pub(crate) struct OrderCheck {
    levels: &'static [OptLevel],
    previous: Option<ViolationRecord>,
    /// Records admitted so far.
    pub(crate) records: usize,
    /// The subject of the last fault admitted.
    faulted: Option<usize>,
}

impl OrderCheck {
    /// A check for a shard of `personality`'s campaign, before its first
    /// entry.
    pub(crate) fn new(personality: Personality) -> OrderCheck {
        OrderCheck {
            levels: personality.levels(),
            previous: None,
            records: 0,
            faulted: None,
        }
    }

    /// Admit the shard's next entry, or say why it breaks canonical order.
    /// Record membership (and so level membership) is checked per entry
    /// before this runs.
    pub(crate) fn admit(&mut self, entry: Entry<'_>) -> Result<(), ShardError> {
        match entry {
            Entry::Record(record) => {
                if let Some(previous) = &self.previous {
                    let level_index = |level: OptLevel| {
                        self.levels
                            .iter()
                            .position(|&l| l == level)
                            .expect("level membership checked per record")
                    };
                    if (
                        previous.subject,
                        level_index(previous.level),
                        &previous.violation,
                    ) >= (record.subject, level_index(record.level), &record.violation)
                    {
                        let site = |r: &ViolationRecord| {
                            let v = &r.violation;
                            format!(
                                "subject {} {} `{}` line {}",
                                r.subject, r.level, v.variable, v.line
                            )
                        };
                        return Err(ShardError::Malformed(format!(
                            "records {} and {} are not in canonical campaign order \
                             ({} followed by {})",
                            self.records - 1,
                            self.records,
                            site(previous),
                            site(record),
                        )));
                    }
                }
                if let Some(faulted) = self.faulted.filter(|&f| record.subject <= f) {
                    return Err(ShardError::Malformed(format!(
                        "record for subject {} violates canonical campaign order \
                         (subject {faulted} already faulted)",
                        record.subject
                    )));
                }
                self.previous = Some(record.clone());
                self.records += 1;
            }
            Entry::Fault(fault) => {
                let floor = self.previous.as_ref().map(|r| r.subject).max(self.faulted);
                if let Some(floor) = floor.filter(|&floor| fault.subject <= floor) {
                    return Err(ShardError::Malformed(format!(
                        "fault for subject {} violates canonical campaign order \
                         (a line for subject {floor} precedes it)",
                        fault.subject
                    )));
                }
                self.faulted = Some(fault.subject);
            }
        }
        Ok(())
    }
}

/// The header fields both shard formats share, in canonical order: format
/// tag, spec identity, and the personality's level schedule.
pub(crate) fn spec_header_pairs(spec: &CampaignSpec, format: &str) -> Vec<(String, Json)> {
    let mut pairs = vec![
        ("format".to_owned(), Json::str(format)),
        ("personality".to_owned(), Json::str(spec.personality.name())),
        (
            "compiler_version".to_owned(),
            Json::str(spec.personality.version_names()[spec.version]),
        ),
        ("seeds".to_owned(), Json::str(spec.seeds.to_string())),
        ("shards".to_owned(), Json::from_u64(spec.shards)),
        ("shard".to_owned(), Json::from_u64(spec.shard)),
    ];
    // Emitted only when non-default, so register-backend shard files remain
    // byte-identical to the pre-backend format (and old readers keep
    // accepting them).
    if spec.backend != BackendKind::Reg {
        pairs.push(("backend".to_owned(), Json::str(spec.backend.name())));
    }
    pairs.push((
        "levels".to_owned(),
        Json::Arr(
            spec.personality
                .levels()
                .iter()
                .map(|l| Json::str(l.flag()))
                .collect(),
        ),
    ));
    pairs
}

/// Parse and validate the spec fields shared by both shard-file headers
/// (`personality`, `compiler_version`, `seeds`, `shards`, `shard`).
pub(crate) fn parse_spec_header(json: &Json) -> Result<CampaignSpec, ShardError> {
    let personality: Personality = parse_field(json, "personality")?;
    let version_name = str_field(json, "compiler_version")?;
    let version = personality.version_index(version_name).ok_or_else(|| {
        ShardError::Malformed(format!("unknown {personality} version `{version_name}`"))
    })?;
    let seeds: SeedRange = parse_field(json, "seeds")?;
    let backend = match json.get("backend") {
        None => BackendKind::Reg,
        Some(value) => value
            .as_str()
            .and_then(|name| name.parse().ok())
            .ok_or_else(|| ShardError::Malformed("malformed field `backend`".into()))?,
    };
    let spec = CampaignSpec {
        personality,
        version,
        seeds,
        shards: u64_field(json, "shards")?,
        shard: u64_field(json, "shard")?,
        backend,
    };
    spec.validate()?;
    Ok(spec)
}

/// Parse the `levels` array of a shard header and check it against the
/// personality's schedule — shared by the `holes.campaign/v1` parser and
/// the JSON Lines reader.
pub(crate) fn parse_levels(
    json: &Json,
    personality: Personality,
) -> Result<Vec<OptLevel>, ShardError> {
    let levels: Vec<OptLevel> = json
        .get("levels")
        .and_then(Json::as_arr)
        .ok_or_else(|| ShardError::Malformed("missing `levels` array".into()))?
        .iter()
        .map(|l| {
            l.as_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ShardError::Malformed("malformed optimization level".into()))
        })
        .collect::<Result<_, _>>()?;
    if levels != personality.levels() {
        return Err(ShardError::Malformed(format!(
            "levels {levels:?} do not match the {personality} personality"
        )));
    }
    Ok(levels)
}

/// Serialize one violation record — the schema shared by `holes.campaign/v1`
/// shard files and the JSON Lines stream ([`crate::stream`]).
pub(crate) fn record_to_json(record: &ViolationRecord) -> Json {
    Json::Obj(vec![
        ("seed".to_owned(), Json::from_u64(record.seed)),
        ("subject".to_owned(), Json::from_usize(record.subject)),
        ("level".to_owned(), Json::str(record.level.flag())),
        (
            "conjecture".to_owned(),
            Json::str(record.violation.conjecture.to_string()),
        ),
        (
            "line".to_owned(),
            Json::from_u64(record.violation.line.into()),
        ),
        (
            "variable".to_owned(),
            Json::str(record.violation.variable.as_ref()),
        ),
        (
            "function".to_owned(),
            Json::from_usize(record.violation.function.0),
        ),
        (
            "observed".to_owned(),
            Json::str(record.violation.observed.name()),
        ),
    ])
}

/// Parse and validate one violation record against its shard's spec (see
/// [`record_to_json`]).
pub(crate) fn record_from_json(
    json: &Json,
    spec: &CampaignSpec,
) -> Result<ViolationRecord, ShardError> {
    let seed = u64_field(json, "seed")?;
    let subject = usize_field(json, "subject")?;
    if !spec.seeds.contains(seed) || (seed - spec.seeds.start) % spec.shards != spec.shard {
        return Err(ShardError::Malformed(format!(
            "record seed {seed} does not belong to shard {} of {} over {}",
            spec.shard, spec.shards, spec.seeds
        )));
    }
    if subject as u64 != seed - spec.seeds.start {
        return Err(ShardError::Malformed(format!(
            "record subject index {subject} does not match seed {seed}"
        )));
    }
    let level: OptLevel = parse_field(json, "level")?;
    if !spec.personality.levels().contains(&level) {
        return Err(ShardError::Malformed(format!(
            "level {level} is not evaluated by the {} personality",
            spec.personality
        )));
    }
    let observed: Observed = parse_field(json, "observed")?;
    Ok(ViolationRecord {
        seed,
        subject,
        level,
        violation: Violation {
            conjecture: parse_field(json, "conjecture")?,
            line: u64_field(json, "line")?
                .try_into()
                .map_err(|_| ShardError::Malformed("line number out of range".into()))?,
            variable: str_field(json, "variable")?.into(),
            function: FunctionId(usize_field(json, "function")?),
            observed,
        },
    })
}

/// Serialize one contained subject fault — the schema shared by the
/// `faults` array of `holes.campaign/v1` shard files and the fault lines of
/// the JSON Lines stream ([`crate::stream`]). The `fault` key doubles as
/// the line discriminator: records never carry it.
pub(crate) fn fault_to_json(fault: &SubjectFault) -> Json {
    Json::Obj(vec![
        ("fault".to_owned(), Json::str(fault.stage.name())),
        ("seed".to_owned(), Json::from_u64(fault.seed)),
        ("subject".to_owned(), Json::from_usize(fault.subject)),
        ("cause".to_owned(), Json::str(&fault.cause)),
    ])
}

/// Parse and validate one fault entry against its shard's spec (see
/// [`fault_to_json`]).
pub(crate) fn fault_from_json(
    json: &Json,
    spec: &CampaignSpec,
) -> Result<SubjectFault, ShardError> {
    let stage: FaultStage = parse_field(json, "fault")?;
    let seed = u64_field(json, "seed")?;
    let subject = usize_field(json, "subject")?;
    if !spec.seeds.contains(seed) || (seed - spec.seeds.start) % spec.shards != spec.shard {
        return Err(ShardError::Malformed(format!(
            "fault seed {seed} does not belong to shard {} of {} over {}",
            spec.shard, spec.shards, spec.seeds
        )));
    }
    if subject as u64 != seed - spec.seeds.start {
        return Err(ShardError::Malformed(format!(
            "fault subject index {subject} does not match seed {seed}"
        )));
    }
    Ok(SubjectFault {
        seed,
        subject,
        stage,
        cause: str_field(json, "cause")?.to_owned(),
    })
}

fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, ShardError> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ShardError::Malformed(format!("missing or non-string field `{key}`")))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, ShardError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ShardError::Malformed(format!("missing or non-integer field `{key}`")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, ShardError> {
    json.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ShardError::Malformed(format!("missing or non-integer field `{key}`")))
}

fn parse_field<T: std::str::FromStr>(json: &Json, key: &str) -> Result<T, ShardError> {
    str_field(json, key)?
        .parse()
        .map_err(|_| ShardError::Malformed(format!("malformed field `{key}`")))
}

/// Why a shard run, file, or merge was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A [`CampaignSpec`] is internally inconsistent.
    InvalidSpec(String),
    /// A shard file does not follow the [`CAMPAIGN_FORMAT`] schema or
    /// contradicts its own spec.
    Malformed(String),
    /// Shards passed to [`merge_shards`] do not form one complete campaign.
    Incompatible(String),
}

impl ShardError {
    /// The same error with the offending record's index (and, when known,
    /// source line) prepended — so a bad byte in a million-record file is
    /// reported as *which record*, not just *what was wrong*.
    pub(crate) fn for_record(self, index: usize) -> ShardError {
        self.contextualize(&format!("record {index}"))
    }

    /// The same error with an arbitrary location prefix.
    pub(crate) fn contextualize(self, context: &str) -> ShardError {
        match self {
            ShardError::InvalidSpec(m) => ShardError::InvalidSpec(format!("{context}: {m}")),
            ShardError::Malformed(m) => ShardError::Malformed(format!("{context}: {m}")),
            ShardError::Incompatible(m) => ShardError::Incompatible(format!("{context}: {m}")),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::InvalidSpec(m) => write!(f, "invalid campaign spec: {m}"),
            ShardError::Malformed(m) => write!(f, "malformed shard file: {m}"),
            ShardError::Incompatible(m) => write!(f, "incompatible shards: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::subject_pool;

    fn spec(range: SeedRange) -> CampaignSpec {
        CampaignSpec::new(Personality::Ccg, Personality::Ccg.trunk(), range)
    }

    #[test]
    fn single_shard_run_equals_the_pool_campaign() {
        let range = SeedRange::new(2000, 2008);
        let sharded = run_shard(&spec(range)).unwrap();
        let subjects = subject_pool(range.start, range.len() as usize);
        let monolithic = run_campaign(&subjects, Personality::Ccg, Personality::Ccg.trunk());
        assert_eq!(sharded.result.records, monolithic.records);
        assert_eq!(sharded.result.table1(), monolithic.table1());
    }

    #[test]
    fn merged_shards_are_byte_identical_to_the_monolithic_run() {
        let range = SeedRange::new(2100, 2116);
        let monolithic = run_shard(&spec(range)).unwrap();
        for shards in [2u64, 3, 5] {
            let runs: Vec<CampaignShard> = (0..shards)
                .map(|i| run_shard(&spec(range).with_shard(shards, i)).unwrap())
                .collect();
            // Merge in scrambled input order to show order does not matter.
            let mut scrambled = runs.clone();
            scrambled.reverse();
            let merged = merge_shards(scrambled).unwrap();
            assert_eq!(merged.records, monolithic.result.records, "K={shards}");
            assert_eq!(merged.table1(), monolithic.result.table1());
            assert_eq!(merged.venn(), monolithic.result.venn());
            assert_eq!(merged.programs, range.len() as usize);
        }
    }

    #[test]
    fn shard_files_round_trip_through_json() {
        let range = SeedRange::new(2200, 2206);
        let run = run_shard(&spec(range).with_shard(2, 1)).unwrap();
        let rendered = run.to_json().to_pretty();
        let reparsed = CampaignShard::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(reparsed, run);
        // Serialization is deterministic.
        assert_eq!(reparsed.to_json().to_pretty(), rendered);
    }

    #[test]
    fn from_json_rejects_tampered_files() {
        let range = SeedRange::new(2300, 2304);
        let run = run_shard(&spec(range)).unwrap();
        let good = run.to_json().to_pretty();
        for (needle, replacement) in [
            ("holes.campaign/v1", "holes.campaign/v0"),
            ("\"ccg\"", "\"gcc\""),
            (
                "\"compiler_version\": \"trunk\"",
                "\"compiler_version\": \"99\"",
            ),
            ("\"seeds\": \"2300..2304\"", "\"seeds\": \"2304..2300\""),
            ("\"programs\": 4", "\"programs\": 5"),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement `{needle}` did not apply");
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                CampaignShard::from_json(&parsed).is_err(),
                "tampered `{needle}` was accepted"
            );
        }
    }

    #[test]
    fn from_json_rejects_duplicated_and_reordered_records() {
        let range = SeedRange::new(2300, 2310);
        let policy = FaultPolicy {
            inject_seeds: [2308u64].into_iter().collect(),
            ..FaultPolicy::default()
        };
        let (run, _) = run_shard_with_policy(&spec(range), &policy).unwrap();
        assert!(
            run.result.records.len() >= 2,
            "campaign found too few records to exercise ordering"
        );
        assert_eq!(run.result.faults.len(), 1);
        let mutate = |field: &str, f: &dyn Fn(&mut Vec<Json>)| {
            let mut json = run.to_json();
            if let Json::Obj(pairs) = &mut json {
                for (key, value) in pairs.iter_mut() {
                    if key == field {
                        if let Json::Arr(items) = value {
                            f(items);
                        }
                    }
                }
            }
            CampaignShard::from_json(&json)
        };
        assert!(
            mutate("records", &|_| {}).is_ok(),
            "untouched file must still parse"
        );
        assert!(
            mutate("records", &|items| {
                let first = items[0].clone();
                items.insert(0, first);
            })
            .is_err(),
            "a duplicated record must be rejected"
        );
        assert!(
            mutate("records", &|items| items.reverse()).is_err(),
            "reordered records must be rejected"
        );
        assert!(
            mutate("faults", &|items| {
                let first = items[0].clone();
                items.push(first);
            })
            .is_err(),
            "a duplicated fault must be rejected"
        );
        // A fault for the first subject with records, placed ahead of the
        // injected fault so the faults alone stay in ascending order.
        let record = &run.result.records[0];
        assert!(record.subject < run.result.faults[0].subject);
        let overlapping = fault_to_json(&SubjectFault {
            seed: record.seed,
            subject: record.subject,
            stage: FaultStage::Generate,
            cause: "injected".into(),
        });
        assert!(
            mutate("faults", &|items| items.insert(0, overlapping.clone())).is_err(),
            "a fault for a subject with records must be rejected"
        );
    }

    #[test]
    fn merge_rejects_incomplete_and_mixed_shard_sets() {
        let range = SeedRange::new(2400, 2408);
        let s0 = run_shard(&spec(range).with_shard(2, 0)).unwrap();
        let s1 = run_shard(&spec(range).with_shard(2, 1)).unwrap();
        assert!(merge_shards(Vec::new()).is_err(), "empty set");
        assert!(merge_shards(vec![s0.clone()]).is_err(), "missing shard 1");
        assert!(
            merge_shards(vec![s0.clone(), s0.clone()]).is_err(),
            "duplicate shard"
        );
        let mut other = run_shard(&CampaignSpec::new(
            Personality::Lcc,
            Personality::Lcc.trunk(),
            range,
        ))
        .unwrap();
        other.spec.shards = 2;
        other.spec.shard = 1;
        assert!(
            merge_shards(vec![s0.clone(), other]).is_err(),
            "mixed personalities"
        );
        assert!(merge_shards(vec![s0, s1]).is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let range = SeedRange::new(0, 4);
        assert!(run_shard(&spec(range).with_shard(0, 0)).is_err());
        assert!(run_shard(&spec(range).with_shard(2, 2)).is_err());
        let mut bad_version = spec(range);
        bad_version.version = 99;
        assert!(run_shard(&bad_version).is_err());
        assert!(!spec(range).same_campaign(&spec(SeedRange::new(0, 5))));
    }
}
