//! Acceptance tests for the fleet-wide artifact cache
//! (`holes.cache-rpc/v1`): byte-identity of the merged fleet stream under
//! every cache chaos schedule, zero compiles over a warm shared cache,
//! graceful local-only degradation when the cache server is unreachable,
//! and the proptest non-trust guarantee — a corrupted envelope served over
//! the cache RPC is rejected, quarantined, and recomputed, never believed.
//! The disk tier gets the same single-bit-flip proptest, and the on-disk
//! envelope bytes of every artifact kind are pinned by a golden listing
//! (`tests/golden/store-envelopes-2500-2506.txt`), so old stores keep
//! loading and fleet peers stay compatible.
//!
//! The fleet tests run a real TCP coordinator plus in-process `run_worker`
//! threads. Worker subjects bind their store through the process-wide
//! override ([`install_process_store`]), which is global state, so every
//! test in this file serializes on one mutex and uninstalls on exit.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use holes_compiler::{BackendKind, CompilerConfig, Fingerprint, Personality};
use holes_core::json::Json;
use holes_debugger::DebuggerKind;
use holes_pipeline::fault::FaultPolicy;
use holes_pipeline::serve::chaos::{CacheMode, CachePlan};
use holes_pipeline::serve::{
    run_worker, Coordinator, LeaseConfig, RemoteStore, ServeConfig, WorkerConfig, WorkerOutcome,
};
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::store::{
    install_process_store, ArtifactStore, RemoteFetch, RemoteSource, SubjectKey,
};
use holes_pipeline::stream::run_shard_streaming;
use holes_pipeline::Subject;
use holes_progen::SeedRange;

/// Serializes every test here: the process-wide store override and the
/// worker threads' environment are shared process state.
static FLEET_LOCK: Mutex<()> = Mutex::new(());

fn spec(start: u64, len: u64) -> CampaignSpec {
    CampaignSpec::new(
        Personality::Ccg,
        Personality::Ccg.trunk(),
        SeedRange::new(start, start + len),
    )
}

/// The single-process stream the fleet must reproduce, evaluated with no
/// store attached (pure in-memory caching).
fn reference_stream(campaign: &CampaignSpec) -> Vec<u8> {
    install_process_store(None);
    let mut out = Vec::new();
    run_shard_streaming(campaign, &mut out, &FaultPolicy::default()).expect("reference run");
    out
}

/// A self-deleting scratch directory/file.
struct Scratch {
    path: PathBuf,
    dir: bool,
}

impl Scratch {
    fn file(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("holes-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch { path, dir: false }
    }

    fn dir(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("holes-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::create_dir_all(&path);
        Scratch { path, dir: true }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.dir {
            let _ = std::fs::remove_dir_all(&self.path);
        } else {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Run a coordinator (optionally serving `cache` under `cache_chaos`) and
/// `workers` in-process worker threads whose subjects all bind to the
/// already-installed process store. Returns the merged campaign bytes and
/// each worker's outcome.
fn run_fleet(
    campaign: &CampaignSpec,
    cache: Option<Arc<ArtifactStore>>,
    cache_chaos: Option<Arc<CachePlan>>,
    tag: &str,
    workers: usize,
) -> (Vec<u8>, Vec<WorkerOutcome>) {
    let journal = Scratch::file(&format!("{tag}-journal"));
    let config = ServeConfig {
        lease_shards: 4,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache,
        cache_chaos,
        quiet: true,
    };
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let drain = std::sync::atomic::AtomicBool::new(false);
    let (report, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let addr = addr.clone();
                let tag = tag.to_owned();
                scope.spawn(move || {
                    let work_dir = Scratch::dir(&format!("{tag}-w{i}"));
                    run_worker(&WorkerConfig {
                        connect: addr,
                        work_dir: work_dir.path.clone(),
                        policy: FaultPolicy::default(),
                        worker_id: format!("w{i}"),
                        patience: Duration::from_secs(10),
                        quiet: true,
                    })
                    .expect("worker runs")
                })
            })
            .collect();
        let report = coordinator
            .run(campaign, &config, &drain)
            .expect("coordinator runs");
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("worker joins"))
            .collect();
        (report, outcomes)
    });
    assert!(report.complete(), "every shard resolved");
    let mut merged = Vec::new();
    report.write_merged(&mut merged).expect("merge writes");
    (merged, outcomes)
}

/// Byte-identity under every cache chaos schedule: dropping, corrupting,
/// or stalling cache replies only ever costs retries or recomputes — the
/// merged fleet stream never moves a byte.
///
/// The clean schedule runs first against a cold coordinator store and
/// proves cold-fleet write-through (its puts warm the coordinator); the
/// chaos schedules then run cold workers over that warm store, so the
/// mutated replies are cache **hits** — the nastiest case, a corrupted
/// artifact envelope offered to the validation gates.
#[test]
fn fleet_stream_is_byte_identical_under_every_cache_chaos_schedule() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = spec(4710, 4);
    let reference = reference_stream(&campaign);

    let coord_dir = Scratch::dir("chaos-coord");
    let coord_store =
        Arc::new(ArtifactStore::open(&coord_dir.path).expect("coordinator store opens"));
    let schedules: [(&str, Option<(CacheMode, u32)>); 5] = [
        ("clean", None),
        ("drop", Some((CacheMode::Drop, 1))),
        ("corrupt1", Some((CacheMode::Corrupt, 1))),
        ("corrupt3", Some((CacheMode::Corrupt, 3))),
        ("delay", Some((CacheMode::Delay, 1))),
    ];
    for (tag, schedule) in schedules {
        let worker_dir = Scratch::dir(&format!("{tag}-local"));
        let chaos = schedule.map(|(mode, count)| Arc::new(CachePlan::new(mode, count)));

        let (merged, _) = run_fleet_with_remote(
            &campaign,
            Some(Arc::clone(&coord_store)),
            chaos,
            tag,
            &worker_dir,
        );
        assert_eq!(
            String::from_utf8(merged).expect("UTF-8"),
            String::from_utf8(reference.clone()).expect("UTF-8"),
            "schedule `{tag}` changed campaign bytes"
        );
        if schedule.is_none() {
            let stats = coord_store.stats();
            assert!(
                stats.writes > 0,
                "write-through puts warmed the coordinator store: {stats:?}"
            );
        }
        install_process_store(None);
    }
}

/// [`run_fleet`] for the common case where the worker store's remote tier
/// points at the coordinator being started (the address exists only after
/// bind, so the store is assembled inside).
fn run_fleet_with_remote(
    campaign: &CampaignSpec,
    cache: Option<Arc<ArtifactStore>>,
    cache_chaos: Option<Arc<CachePlan>>,
    tag: &str,
    worker_dir: &Scratch,
) -> (Vec<u8>, Vec<WorkerOutcome>) {
    let journal = Scratch::file(&format!("{tag}-journal"));
    let config = ServeConfig {
        lease_shards: 4,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache,
        cache_chaos,
        quiet: true,
    };
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let local = Arc::new(ArtifactStore::open(&worker_dir.path).expect("worker store opens"));
    local.attach_remote(Arc::new(
        RemoteStore::new(addr.clone())
            .with_timeout(Duration::from_millis(500))
            .with_quiet(true),
    ));
    install_process_store(Some(local));
    let drain = std::sync::atomic::AtomicBool::new(false);
    let (report, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                let tag = tag.to_owned();
                scope.spawn(move || {
                    let work_dir = Scratch::dir(&format!("{tag}-w{i}"));
                    run_worker(&WorkerConfig {
                        connect: addr,
                        work_dir: work_dir.path.clone(),
                        policy: FaultPolicy::default(),
                        worker_id: format!("w{i}"),
                        patience: Duration::from_secs(10),
                        quiet: true,
                    })
                    .expect("worker runs")
                })
            })
            .collect();
        let report = coordinator
            .run(campaign, &config, &drain)
            .expect("coordinator runs");
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("worker joins"))
            .collect();
        (report, outcomes)
    });
    assert!(report.complete(), "every shard resolved");
    let mut merged = Vec::new();
    report.write_merged(&mut merged).expect("merge writes");
    (merged, outcomes)
}

/// The warm-cache guarantee: a fleet whose workers start cold but share
/// the coordinator's warmed cache performs **zero compiles** on any
/// worker, every miss answered by remote fetch, and still reproduces the
/// reference bytes exactly.
#[test]
fn a_warm_shared_cache_fleet_performs_zero_compiles() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = spec(4760, 4);

    // Warm the coordinator's store with a single-process run of the same
    // campaign; its output doubles as the byte-identity reference.
    let coord_dir = Scratch::dir("warm-coord");
    let coord_store =
        Arc::new(ArtifactStore::open(&coord_dir.path).expect("coordinator store opens"));
    install_process_store(Some(Arc::clone(&coord_store)));
    let mut reference = Vec::new();
    let warm_stats = run_shard_streaming(&campaign, &mut reference, &FaultPolicy::default())
        .expect("warming run")
        .stats;
    assert!(warm_stats.compiles > 0, "the warming run paid the compiles");
    install_process_store(None);

    let worker_dir = Scratch::dir("warm-local");
    let (merged, outcomes) = run_fleet_with_remote(
        &campaign,
        Some(Arc::clone(&coord_store)),
        None,
        "warm",
        &worker_dir,
    );
    install_process_store(None);

    assert_eq!(
        String::from_utf8(merged).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
        "warm fleet changed campaign bytes"
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.stats.compiles, 0,
            "worker {i} compiled over a warm shared cache: {:?}",
            outcome.stats
        );
    }
    assert!(
        outcomes.iter().any(|o| o.leases > 0),
        "the fleet actually worked"
    );
}

/// An unreachable cache server is never fatal: the circuit breaker trips,
/// the fleet degrades to local-only caching with the degradation counted,
/// and the merged bytes still match the reference.
#[test]
fn an_unreachable_cache_server_degrades_to_local_only() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = spec(4810, 4);
    let reference = reference_stream(&campaign);

    let worker_dir = Scratch::dir("degrade-local");
    let local = Arc::new(ArtifactStore::open(&worker_dir.path).expect("worker store opens"));
    // Port 1 refuses immediately; threshold 1 and a long probe window keep
    // the breaker open (and the test fast) for the whole run.
    local.attach_remote(Arc::new(
        RemoteStore::new("127.0.0.1:1")
            .with_timeout(Duration::from_millis(100))
            .with_failure_threshold(1)
            .with_probe_after(Duration::from_secs(600))
            .with_quiet(true),
    ));
    install_process_store(Some(Arc::clone(&local)));

    let (merged, outcomes) = run_fleet(&campaign, None, None, "degrade", 2);
    install_process_store(None);

    assert_eq!(
        String::from_utf8(merged).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
        "degraded fleet changed campaign bytes"
    );
    let stats = local.stats();
    assert!(
        stats.remote_degraded > 0,
        "degradation is observable in StoreStats: {stats:?}"
    );
    assert_eq!(stats.remote_hits, 0, "nothing was fetched: {stats:?}");
    assert!(
        outcomes.iter().map(|o| o.stats.compiles).sum::<usize>() > 0,
        "the fleet recomputed locally"
    );
}

/// A remote source that serves envelopes from a warm donor store with one
/// deterministic bit flipped in the compact wire text — the in-process
/// equivalent of `corrupt:N` hitting every reply. A flip that breaks JSON
/// parsing surfaces as a transport-level failure (`Unavailable`), exactly
/// as the TCP client treats an unparseable reply line.
#[derive(Debug)]
struct FlippingSource {
    donor: Arc<ArtifactStore>,
    flip: u64,
}

impl RemoteSource for FlippingSource {
    fn fetch(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str) -> RemoteFetch {
        let Some(envelope) = self.donor.fetch_envelope(subject, fingerprint, kind) else {
            return RemoteFetch::Miss;
        };
        let mut bytes = envelope.to_compact().into_bytes();
        let index = (self.flip as usize) % bytes.len();
        let bit = 1u8 << ((self.flip >> 48) % 8);
        bytes[index] ^= bit;
        match String::from_utf8(bytes)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
        {
            Some(corrupted) => RemoteFetch::Hit(corrupted),
            None => RemoteFetch::Unavailable,
        }
    }

    fn put(&self, _envelope: &Json) -> bool {
        true
    }
}

/// The flip proptest's warm donor store and reference bytes, built once:
/// re-warming per case would dominate the test. Initialized under
/// [`FLEET_LOCK`] (it installs the process store transiently); the
/// directory lives in the temp dir for the life of the test process.
fn flip_donor() -> &'static (Arc<ArtifactStore>, Vec<u8>) {
    static DONOR: OnceLock<(Arc<ArtifactStore>, Vec<u8>)> = OnceLock::new();
    DONOR.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("holes-cache-flip-donor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("donor dir");
        let store = Arc::new(ArtifactStore::open(&path).expect("donor store opens"));
        install_process_store(Some(Arc::clone(&store)));
        let mut reference = Vec::new();
        run_shard_streaming(&spec(4900, 2), &mut reference, &FaultPolicy::default())
            .expect("warming run");
        install_process_store(None);
        (store, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Single-byte-flip non-trust: whatever byte and bit of the served
    /// envelope is corrupted, the store either fails to parse it
    /// (transport failure → degradation counter) or rejects it through
    /// the validation gates (quarantine), and in both cases the subject
    /// is recomputed — campaign bytes never change.
    #[test]
    fn corrupted_cache_envelopes_are_rejected_quarantined_and_recomputed(flip in any::<u64>()) {
        let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let campaign = spec(4900, 2);
        let (donor, reference) = {
            let (store, reference) = flip_donor();
            (Arc::clone(store), reference.clone())
        };

        // Victim: a cold store whose remote tier serves only flipped bytes.
        let victim_dir = Scratch::dir("flip-victim");
        let victim = Arc::new(ArtifactStore::open(&victim_dir.path).expect("victim store opens"));
        victim.attach_remote(Arc::new(FlippingSource { donor, flip }));
        install_process_store(Some(Arc::clone(&victim)));
        let mut out = Vec::new();
        let stats = run_shard_streaming(&campaign, &mut out, &FaultPolicy::default())
            .expect("corrupted-cache run")
            .stats;
        install_process_store(None);

        prop_assert_eq!(
            String::from_utf8(out).expect("UTF-8"),
            String::from_utf8(reference).expect("UTF-8"),
            "a corrupted cache envelope changed campaign bytes (flip {})", flip
        );
        prop_assert!(stats.compiles > 0, "the subjects were recomputed: {:?}", stats);
        let store_stats = victim.stats();
        prop_assert!(
            store_stats.remote_rejected + store_stats.remote_degraded > 0,
            "every flipped envelope was refused one way or the other: {:?}",
            store_stats
        );
        // A rejection (as opposed to a parse failure) leaves the evidence
        // in quarantine.
        if store_stats.remote_rejected > 0 {
            prop_assert!(
                store_stats.quarantined > 0,
                "rejected envelopes are quarantined: {:?}",
                store_stats
            );
        }
    }
}

/// The FNV-1a-64 digest the envelope listing pins each file with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Every file under `root`, as `/`-separated paths relative to it, sorted.
fn relative_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("store dir lists").flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let relative = path.strip_prefix(root).expect("under the root");
                let parts: Vec<_> = relative
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                files.push(parts.join("/"));
            }
        }
    }
    files.sort();
    files
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the fixture
/// when `HOLES_BLESS=1` is set (the convention of `tests/golden.rs`).
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("HOLES_BLESS").is_some() {
        std::fs::write(&path, actual).expect("golden fixture writes");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        actual, expected,
        "`{name}` drifted: the store no longer writes the pinned envelope bytes"
    );
}

/// The on-disk envelope bytes of every artifact kind are pinned: a ccg and
/// an lcc campaign over seeds `2500..2506` on every backend write exactly
/// the files of the fixture, each with the recorded length and FNV-1a-64
/// digest. Old stores keep loading and fleet peers stay compatible only
/// while this listing holds.
#[test]
fn store_envelope_bytes_match_the_pinned_listing() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = Scratch::dir("envelope-golden");
    let store = Arc::new(ArtifactStore::open(&dir.path).expect("store opens"));
    install_process_store(Some(Arc::clone(&store)));
    for personality in [Personality::Ccg, Personality::Lcc] {
        for backend in [BackendKind::Reg, BackendKind::Stack, BackendKind::Frame] {
            let campaign =
                CampaignSpec::new(personality, personality.trunk(), SeedRange::new(2500, 2506))
                    .with_backend(backend);
            run_shard_streaming(&campaign, std::io::sink(), &FaultPolicy::default())
                .expect("campaign runs");
        }
    }
    install_process_store(None);
    let mut listing = String::new();
    for relative in relative_files(&dir.path) {
        let bytes = std::fs::read(dir.path.join(&relative)).expect("envelope reads");
        listing.push_str(&format!(
            "{relative} {} {:016x}\n",
            bytes.len(),
            fnv1a(&bytes)
        ));
    }
    assert!(listing.contains(".exe.json "), "exe envelopes are pinned");
    assert!(listing.contains(".trace-"), "trace envelopes are pinned");
    assert!(listing.contains(".viol-"), "violation envelopes are pinned");
    check_golden("store-envelopes-2500-2506.txt", &listing);
}

/// Copy every file under `from` into the same relative place under `to`.
fn copy_tree(from: &Path, to: &Path) {
    for relative in relative_files(from) {
        let target = to.join(&relative);
        std::fs::create_dir_all(target.parent().expect("file has a parent")).expect("mkdir");
        std::fs::copy(from.join(&relative), target).expect("copy");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-bit-flip non-trust on the disk path: whatever bit of
    /// whichever on-disk envelope of a warm store is flipped — executable,
    /// trace or violation set — that envelope is either rejected and
    /// quarantined, or decodes to exactly the artifact it held before (a
    /// cosmetic re-spelling such as a hex digit's case in the fingerprint).
    /// The campaign's bytes never change.
    #[test]
    fn flipped_disk_envelopes_are_quarantined_or_decode_identically(flip in any::<u64>()) {
        let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let campaign = spec(4900, 2);
        let (donor, reference) = {
            let (store, reference) = flip_donor();
            (Arc::clone(store), reference.clone())
        };

        // A private copy of the warm store with one bit flipped.
        let victim_dir = Scratch::dir("disk-flip");
        copy_tree(donor.root(), &victim_dir.path);
        let files = relative_files(&victim_dir.path);
        let victim = &files[((flip >> 32) as usize) % files.len()];
        let mut bytes = std::fs::read(victim_dir.path.join(victim)).expect("victim reads");
        let index = (flip as usize) % bytes.len();
        bytes[index] ^= 1u8 << ((flip >> 48) % 8);
        std::fs::write(victim_dir.path.join(victim), &bytes).expect("victim writes");

        let store = Arc::new(ArtifactStore::open(&victim_dir.path).expect("victim store opens"));
        install_process_store(Some(Arc::clone(&store)));
        let mut out = Vec::new();
        run_shard_streaming(&campaign, &mut out, &FaultPolicy::default()).expect("flipped-store run");
        install_process_store(None);
        prop_assert_eq!(
            String::from_utf8(out).expect("UTF-8"),
            String::from_utf8(reference).expect("UTF-8"),
            "a flipped disk envelope changed campaign bytes (flip {} of {})", flip, victim
        );

        // Every artifact kind loads as the donor's, or not at all.
        let personality = Personality::Ccg;
        let debugger = DebuggerKind::native_for(personality);
        let mut refused = 0;
        for seed in 4900..4902 {
            let subject = Subject::from_seed(seed);
            let key = SubjectKey::derive(seed, &subject.source.text);
            for &level in personality.levels() {
                let config = CompilerConfig::new(personality, level);
                let loads = [
                    store.load_executable(key, &config).map(|exe| {
                        exe == donor.load_executable(key, &config).expect("donor is warm")
                    }),
                    store.load_trace(key, &config, debugger).map(|trace| {
                        trace == donor.load_trace(key, &config, debugger).expect("donor is warm")
                    }),
                    store.load_violations(key, &config, debugger).map(|violations| {
                        violations
                            == donor
                                .load_violations(key, &config, debugger)
                                .expect("donor is warm")
                    }),
                ];
                for load in loads {
                    match load {
                        Some(identical) => prop_assert!(
                            identical,
                            "flip {} of {} decoded to a different artifact", flip, victim
                        ),
                        None => refused += 1,
                    }
                }
            }
        }
        let stats = store.stats();
        prop_assert_eq!(stats.store_errors, 0, "a flipped file is content, not I/O: {:?}", stats);
        prop_assert!(stats.rejected <= 1, "only the flipped file is refused: {:?}", stats);
        prop_assert!(refused <= stats.rejected, "a miss was not a rejection: {:?}", stats);
        if stats.rejected == 1 {
            prop_assert_eq!(stats.quarantined, 1, "the rejected file is quarantined: {:?}", stats);
            let quarantined = victim_dir.path.join("quarantine").join(victim);
            prop_assert_eq!(
                std::fs::read(&quarantined).expect("quarantined bytes kept"),
                bytes,
                "quarantine holds the flipped bytes"
            );
        }
    }
}
