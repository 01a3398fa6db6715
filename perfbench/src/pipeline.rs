//! The workloads' inputs and the pipeline runs they time, driven only
//! through the pipeline's public entry points, plus the digests the
//! correctness gate compares.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use holes_compiler::{BackendKind, Personality};
use holes_core::json::Json;
use holes_machine::exec::DEFAULT_FUEL;
use holes_pipeline::campaign::{unique_key, CampaignResult};
use holes_pipeline::shard::{run_shard_with_policy, CampaignShard, CampaignSpec};
use holes_pipeline::store::io::StoreIo;
use holes_pipeline::triage::{triage_campaign_on_with_policy, TriageTable};
use holes_pipeline::{
    campaign::run_campaign_on_with_policy, install_process_store, subject_pool, ArtifactStore,
    CacheStats, FaultPolicy, Subject,
};
use holes_progen::SeedRange;

use crate::measure::fnv1a;
use crate::store_io::{MemIo, StoreScan};

/// Both compiler personalities, in the order every run visits them.
pub const PERSONALITIES: [Personality; 2] = [Personality::Ccg, Personality::Lcc];

/// Number of entries in the seed table; a workload seed selects entry
/// `seed % TABLE_LEN`, whose outputs `expected.json` records.
pub const TABLE_LEN: u64 = 64;

/// First seed of table entry 0, and the distance between entries.
const TABLE_BASE: u64 = 1_000_000;
const TABLE_STRIDE: u64 = 10_000;

// Programs per iteration. Per-program cost varies widely, so each range
// is large enough that the ranges of different workload seeds cost about
// the same.
/// Programs per campaign iteration.
pub const CAMPAIGN_SEEDS: u64 = 512;
/// Programs per store iteration (a cold store takes about 0.15 MiB per
/// program). Divisible by [`STORE_FILLS`].
pub const STORE_SEEDS: u64 = 384;
/// The store-warm set-up fills its store in this many parts, each timed.
pub const STORE_FILLS: u64 = 3;
/// Programs per triage iteration (every unique violation is triaged).
pub const TRIAGE_SEEDS: u64 = 96;
/// Programs in the warm-up campaign of the `campaign` and `store-cold`
/// set-up.
pub const WARMUP_SEEDS: u64 = 128;

/// The golden campaign pinned by the repository's CLI tests.
pub const GOLDEN_SEEDS: (u64, u64) = (2500, 2506);
/// Where the golden campaign's bytes are committed, relative to the
/// checkout root.
pub const GOLDEN_FILE: &str = "tests/golden/cli-campaign-2500-2506.json";

/// The seeds of table entry `index`, `len` programs long.
pub fn table_range(index: u64, len: u64) -> SeedRange {
    let start = TABLE_BASE + index * TABLE_STRIDE;
    SeedRange::new(start, start + len)
}

/// The fault policy of every run: the machines' default step budget, made
/// explicit so that a runaway subject is counted as failed instead of
/// silently truncated.
pub fn policy() -> FaultPolicy {
    FaultPolicy {
        fuel_limit: Some(DEFAULT_FUEL),
        ..FaultPolicy::default()
    }
}

/// The configurations one program is evaluated under in a campaign.
pub fn configs_per_program() -> u64 {
    PERSONALITIES.iter().map(|p| p.levels().len() as u64).sum()
}

/// One campaign over both personalities (trunk, register backend).
pub struct CampaignRun {
    /// One shard per personality.
    pub shards: Vec<CampaignShard>,
    /// Evaluation-engine activity summed over both.
    pub stats: CacheStats,
}

/// Run the default CLI campaign over `range` for both personalities.
pub fn campaign(range: SeedRange) -> CampaignRun {
    let mut shards = Vec::new();
    let mut stats = CacheStats::default();
    for personality in PERSONALITIES {
        let spec = CampaignSpec::new(personality, personality.trunk(), range)
            .with_backend(BackendKind::Reg);
        let (shard, shard_stats) =
            run_shard_with_policy(&spec, &policy()).expect("the campaign spec is valid");
        stats.absorb(shard_stats);
        shards.push(shard);
    }
    CampaignRun { shards, stats }
}

impl CampaignRun {
    /// Digest of both shards' JSON bytes.
    pub fn digest(&self) -> String {
        shards_digest(&self.shards)
    }

    /// Subjects that faulted, over both personalities.
    pub fn faults(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.result.faults.len() as u64)
            .sum()
    }

    /// Unique violations found, over both personalities.
    pub fn unique_violations(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| unique_violations(&s.result))
            .sum()
    }
}

/// Unique violations (subject, conjecture, line, variable) of a campaign.
pub fn unique_violations(result: &CampaignResult) -> u64 {
    result
        .records
        .iter()
        .map(unique_key)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

/// Run the golden campaign, check its bytes against the committed golden
/// file, and return their digest.
pub fn golden_digest() -> Result<String, String> {
    let spec = CampaignSpec::new(
        Personality::Ccg,
        Personality::Ccg.trunk(),
        SeedRange::new(GOLDEN_SEEDS.0, GOLDEN_SEEDS.1),
    );
    let (shard, _) =
        run_shard_with_policy(&spec, &FaultPolicy::default()).expect("the golden spec is valid");
    let rendered = shard.to_json().to_pretty();
    let committed = std::fs::read_to_string(GOLDEN_FILE)
        .map_err(|e| format!("reading `{GOLDEN_FILE}`: {e}"))?;
    if committed != rendered {
        return Err(format!("golden campaign differs from `{GOLDEN_FILE}`"));
    }
    Ok(fnv1a(&[rendered.as_bytes()]))
}

/// The subjects and in-memory campaigns a triage starts from, as
/// `holes triage` builds them: the subjects' caches are warm.
pub struct TriageSetup {
    /// The subjects triage probes.
    pub subjects: Vec<Subject>,
    /// The per-personality campaign results triage starts from.
    pub results: Vec<(Personality, CampaignResult)>,
    /// The programs' seeds.
    pub range: SeedRange,
}

/// Build the triage set-up for `range`.
pub fn triage_setup(range: SeedRange) -> TriageSetup {
    let subjects = subject_pool(range.start, range.len() as usize);
    let results = PERSONALITIES
        .iter()
        .map(|&personality| {
            let result = run_campaign_on_with_policy(
                &subjects,
                personality,
                personality.trunk(),
                BackendKind::Reg,
                &policy(),
            );
            (personality, result)
        })
        .collect();
    TriageSetup {
        subjects,
        results,
        range,
    }
}

impl TriageSetup {
    /// Digest of the set-up campaigns, as shard bytes (equal to
    /// [`CampaignRun::digest`] over the same range).
    pub fn campaign_digest(&self) -> String {
        digest_json(self.results.iter().map(|(personality, result)| {
            CampaignShard {
                spec: CampaignSpec::new(*personality, personality.trunk(), self.range),
                result: result.clone(),
            }
            .to_json()
        }))
    }

    /// Violations triage will attribute: every unique one.
    pub fn violations(&self) -> u64 {
        self.results.iter().map(|(_, r)| unique_violations(r)).sum()
    }

    /// Oracle probes answered so far over all subjects: each probe does
    /// exactly one executable-or-trace lookup that counts as a hit, a full
    /// compile, a codegen-only derivation or a disk load.
    pub fn probes(&self) -> u64 {
        self.subjects
            .iter()
            .map(|s| {
                let stats = s.cache_stats();
                (stats.hits + stats.compiles + stats.codegen_only + stats.disk_loads) as u64
            })
            .sum()
    }

    /// Cache activity summed over all subjects.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for subject in &self.subjects {
            total.absorb(subject.cache_stats());
        }
        total
    }
}

/// The tables and faults of triaging every unique violation of both
/// personalities' campaigns.
pub struct TriageRun {
    /// One table per personality.
    pub tables: Vec<TriageTable>,
    /// Triages that faulted.
    pub faults: u64,
}

/// Triage every unique violation of the set-up's campaigns.
pub fn triage(setup: &TriageSetup) -> TriageRun {
    let mut tables = Vec::new();
    let mut faults = 0;
    for (personality, result) in &setup.results {
        let (table, faulted) = triage_campaign_on_with_policy(
            &setup.subjects,
            *personality,
            personality.trunk(),
            BackendKind::Reg,
            result,
            usize::MAX,
            &policy(),
        );
        tables.push(table);
        faults += faulted.len() as u64;
    }
    TriageRun { tables, faults }
}

impl TriageRun {
    /// Digest of both tables' JSON bytes.
    pub fn digest(&self) -> String {
        triage_digest(&self.tables)
    }
}

/// Digest of campaign shards' JSON bytes.
pub fn shards_digest(shards: &[CampaignShard]) -> String {
    digest_json(shards.iter().map(CampaignShard::to_json))
}

/// Digest of per-personality triage tables.
pub fn triage_digest(tables: &[TriageTable]) -> String {
    digest_json(tables.iter().map(TriageTable::to_json))
}

/// Digest of the compact bytes of a sequence of JSON documents.
fn digest_json(documents: impl Iterator<Item = Json>) -> String {
    let texts: Vec<String> = documents.map(|json| json.to_compact()).collect();
    let chunks: Vec<&[u8]> = texts.iter().map(String::as_bytes).collect();
    fnv1a(&chunks)
}

/// Where every benchmark store is rooted inside its [`MemIo`].
pub const STORE_ROOT: &str = "store";

/// Open a store over `io` and install it for every subject created from
/// now on.
pub fn install_store(io: Box<dyn StoreIo>) -> Arc<ArtifactStore> {
    let store = Arc::new(
        ArtifactStore::open_with_io(STORE_ROOT, io).expect("an in-memory store always opens"),
    );
    install_process_store(Some(Arc::clone(&store)));
    store
}

/// The verdict digest and size of the store held by `io`.
pub fn scan(io: &MemIo) -> StoreScan {
    io.scan(Path::new(STORE_ROOT))
}
