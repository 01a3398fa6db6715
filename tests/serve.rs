//! Acceptance tests for the distributed campaign service: preemption-proof
//! determinism under random kill/revocation schedules, journal-based
//! resume without re-evaluation, and a real-TCP end-to-end run.
//!
//! The proptests drive [`ServeState`] — the coordinator's actual service
//! core, clock passed in as a value — through randomized schedules of
//! lease grants, worker deaths, deadline revocations, late submissions,
//! and coordinator restarts, then assert the two load-bearing guarantees:
//!
//! 1. the merged stream is **byte-identical** to a single-process
//!    unsharded run of the same spec, no matter the schedule;
//! 2. a shard journaled as complete is never leased (hence never
//!    re-evaluated) again, across any number of coordinator restarts.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use holes_compiler::Personality;
use holes_pipeline::fault::FaultPolicy;
use holes_pipeline::serve::lease::GRACE_BEATS;
use holes_pipeline::serve::{
    run_worker, Coordinator, LeaseConfig, Reply, Request, ServeConfig, ServeState, WorkerConfig,
};
use holes_pipeline::shard::{read_shard, CampaignShard, CampaignSpec};
use holes_pipeline::stream::run_shard_streaming;
use holes_progen::SeedRange;

fn spec(start: u64, len: u64) -> CampaignSpec {
    CampaignSpec::new(
        Personality::Ccg,
        Personality::Ccg.trunk(),
        SeedRange::new(start, start + len),
    )
}

/// The single-process unsharded stream the service must reproduce.
fn reference_stream(spec: &CampaignSpec) -> Vec<u8> {
    let mut out = Vec::new();
    run_shard_streaming(spec, &mut out, &FaultPolicy::default()).expect("reference run");
    out
}

/// What a worker does to a leased shard, minus the socket: stream the
/// evaluation and read the result back as a submittable shard.
fn evaluate(spec: &CampaignSpec) -> CampaignShard {
    let mut out = Vec::new();
    run_shard_streaming(spec, &mut out, &FaultPolicy::default()).expect("shard evaluates");
    read_shard(&String::from_utf8(out).expect("UTF-8 stream")).expect("stream reads back")
}

/// A self-deleting scratch path (journals, work dirs).
struct Scratch {
    path: PathBuf,
    dir: bool,
}

impl Scratch {
    fn file(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("holes-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch { path, dir: false }
    }

    fn dir(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("holes-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
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

const HEARTBEAT: Duration = Duration::from_millis(500);

/// Expand a proptest-drawn seed into a stream of schedule events (the
/// vendored proptest has no collection strategies).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One simulated coordinator life plus its fleet's lease bookkeeping.
struct Sim {
    spec: CampaignSpec,
    config: ServeConfig,
    state: ServeState,
    now: Instant,
    /// Leases held by live simulated workers: (lease, shard spec).
    active: Vec<(u64, CampaignSpec)>,
    /// Leases whose workers died silently; they may still submit late.
    zombies: Vec<(u64, CampaignSpec)>,
    /// Shard indices ever accepted — these must never be leased again.
    accepted: HashSet<usize>,
}

impl Sim {
    fn open(spec: CampaignSpec, journal: PathBuf, lease_shards: u64) -> Sim {
        let config = ServeConfig {
            lease_shards,
            lease: LeaseConfig {
                heartbeat: HEARTBEAT,
                // The byte-identity property must hold for arbitrarily
                // vicious schedules, so quarantine (tested on its own) is
                // kept out of the picture here.
                max_attempts: u32::MAX,
            },
            journal,
            cache: None,
            cache_chaos: None,
            quiet: true,
        };
        let state = ServeState::open(&spec, &config).expect("state opens");
        Sim {
            spec,
            config,
            state,
            now: Instant::now(),
            active: Vec::new(),
            zombies: Vec::new(),
            accepted: HashSet::new(),
        }
    }

    fn lease(&mut self) {
        match self.state.handle(
            &Request::Lease {
                worker: "sim".into(),
            },
            self.now,
        ) {
            Ok(Reply::Lease { lease, spec, .. }) => {
                assert!(
                    !self.accepted.contains(&(spec.shard as usize)),
                    "shard {} was already accepted and must never be re-leased",
                    spec.shard
                );
                self.active.push((lease, spec));
            }
            Ok(Reply::Wait { .. } | Reply::Shutdown) => {}
            other => panic!("unexpected lease outcome {other:?}"),
        }
    }

    fn submit(&mut self, lease: u64, shard_spec: &CampaignSpec) {
        let shard = evaluate(shard_spec);
        let request = Request::Result {
            lease,
            shard: Box::new(shard),
        };
        match self.state.handle(&request, self.now) {
            Ok(Reply::Accepted) => {
                self.accepted.insert(shard_spec.shard as usize);
            }
            Ok(Reply::Discarded { .. }) => {}
            other => panic!("unexpected submit outcome {other:?}"),
        }
    }

    fn complete_oldest(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let (lease, shard_spec) = self.active.remove(0);
        self.submit(lease, &shard_spec);
    }

    /// The oldest live worker dies silently mid-lease.
    fn kill_oldest(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let victim = self.active.remove(0);
        self.zombies.push(victim);
    }

    /// Jump past every deadline and reap — the preemption hammer.
    fn expire_leases(&mut self) {
        self.now += HEARTBEAT * (GRACE_BEATS + 1);
        self.state.reap(self.now);
        // Revoked live workers become zombies too: their eventual
        // submissions must be discarded.
        self.zombies.append(&mut self.active);
    }

    /// A dead worker's result arrives after all — revoked leases must
    /// discard it idempotently.
    fn zombie_submits(&mut self) {
        if self.zombies.is_empty() {
            return;
        }
        let (lease, shard_spec) = self.zombies.remove(0);
        self.submit(lease, &shard_spec);
    }

    fn heartbeat_all(&mut self) {
        for (lease, _) in &self.active {
            match self
                .state
                .handle(&Request::Heartbeat { lease: *lease }, self.now)
            {
                Ok(Reply::Heartbeat { active }) => {
                    assert!(active, "live lease {lease} refused a heartbeat")
                }
                other => panic!("unexpected heartbeat outcome {other:?}"),
            }
        }
    }

    /// Kill the coordinator and restart it over the same journal. Every
    /// lease dies with it; journaled shards must come back `Done`.
    fn restart(&mut self) {
        let reopened = ServeState::open(&self.spec, &self.config).expect("journal reopens");
        assert_eq!(
            reopened.recovered(),
            self.accepted.len(),
            "every acknowledged shard survives the restart"
        );
        self.state = reopened;
        self.active.clear();
        self.zombies.clear();
    }

    /// Drive the campaign to completion with a well-behaved fleet.
    fn finish(&mut self) {
        for _ in 0..10_000 {
            self.expire_leases();
            match self.state.handle(
                &Request::Lease {
                    worker: "sim".into(),
                },
                self.now,
            ) {
                Ok(Reply::Lease { lease, spec, .. }) => {
                    assert!(!self.accepted.contains(&(spec.shard as usize)));
                    self.submit(lease, &spec);
                }
                Ok(Reply::Wait { .. }) => {}
                Ok(Reply::Shutdown) => return,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        panic!("campaign failed to converge");
    }

    fn into_report(self) -> holes_pipeline::serve::ServeReport {
        self.state.into_report()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole guarantee: for random shard decompositions and random
    /// schedules of worker death, lease revocation, late (discarded)
    /// submissions, and coordinator crash/restarts, the merged stream is
    /// byte-identical to the single-process unsharded run, and no
    /// journaled shard is ever re-leased.
    #[test]
    fn any_preemption_schedule_yields_the_single_process_bytes(
        start in 2800u64..2804,
        len in 0u64..8,
        k in 1u64..5,
        schedule_seed in any::<u64>(),
        steps in 0usize..24,
    ) {
        let journal = Scratch::file(&format!("prop-{start}-{len}-{k}"));
        let campaign = spec(start, len);
        let reference = reference_stream(&campaign);

        let mut sim = Sim::open(campaign.clone(), journal.path.clone(), k);
        let mut schedule = schedule_seed;
        for _ in 0..steps {
            match splitmix64(&mut schedule) % 8 {
                0 | 1 => sim.lease(),
                2 => sim.complete_oldest(),
                3 => sim.kill_oldest(),
                4 => sim.expire_leases(),
                5 => sim.zombie_submits(),
                6 => sim.heartbeat_all(),
                _ => sim.restart(),
            }
        }
        // One mid-flight restart regardless of schedule, then run dry.
        sim.restart();
        sim.finish();

        let report = sim.into_report();
        prop_assert!(report.complete(), "every shard resolved");
        prop_assert!(report.quarantined.is_empty());
        let mut merged = Vec::new();
        report.write_merged(&mut merged).expect("merge writes");
        prop_assert_eq!(
            String::from_utf8(merged).expect("UTF-8"),
            String::from_utf8(reference).expect("UTF-8"),
            "merged stream must be byte-identical to the unsharded run"
        );
    }

    /// Journal resume in isolation: complete a random subset of shards,
    /// crash, restart — the recovered coordinator leases exactly the
    /// complement and the final merge is still byte-identical.
    #[test]
    fn restarted_coordinators_resume_without_rerunning_finished_work(
        len in 1u64..10,
        k in 2u64..6,
        done_mask in 0u64..64,
    ) {
        let journal = Scratch::file(&format!("resume-{len}-{k}-{done_mask}"));
        let campaign = spec(2810, len);
        let reference = reference_stream(&campaign);

        let mut sim = Sim::open(campaign.clone(), journal.path.clone(), k);
        // First life: complete the shards the mask selects.
        let goal: HashSet<usize> =
            (0..k as usize).filter(|i| done_mask & (1 << i) != 0).collect();
        for _ in 0..k {
            sim.lease();
        }
        let held = std::mem::take(&mut sim.active);
        for (lease, shard_spec) in held {
            if goal.contains(&(shard_spec.shard as usize)) {
                sim.submit(lease, &shard_spec);
            }
        }
        prop_assert_eq!(&sim.accepted, &goal);

        // Crash. The second life must recover exactly the accepted set and
        // never hand their shards out again (asserted inside lease()).
        sim.restart();
        sim.finish();

        let report = sim.into_report();
        prop_assert!(report.complete());
        let mut merged = Vec::new();
        report.write_merged(&mut merged).expect("merge writes");
        prop_assert_eq!(merged, reference);
    }
}

/// End-to-end over real sockets: a coordinator on an ephemeral port, three
/// concurrent `run_worker` fleets racing for leases, and a merged stream
/// byte-identical to the single-process run.
#[test]
fn tcp_fleet_reproduces_the_single_process_stream() {
    let campaign = spec(2820, 9);
    let reference = reference_stream(&campaign);
    let journal = Scratch::file("tcp");
    let config = ServeConfig {
        lease_shards: 4,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache: None,
        cache_chaos: None,
        quiet: true,
    };

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let drain = std::sync::atomic::AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let work_dir = Scratch::dir(&format!("tcp-w{i}"));
                    let outcome = run_worker(&WorkerConfig {
                        connect: addr,
                        work_dir: work_dir.path.clone(),
                        policy: FaultPolicy::default(),
                        worker_id: format!("w{i}"),
                        patience: Duration::from_secs(10),
                        quiet: true,
                    })
                    .expect("worker runs");
                    outcome.accepted
                })
            })
            .collect();
        let report = coordinator
            .run(&campaign, &config, &drain)
            .expect("coordinator runs");
        let accepted: usize = workers
            .into_iter()
            .map(|w| w.join().expect("worker joins"))
            .sum();
        assert_eq!(
            accepted, 4,
            "each shard accepted exactly once across the fleet"
        );
        report
    });

    assert!(report.complete());
    assert!(report.quarantined.is_empty());
    assert!(!report.drained);
    let mut merged = Vec::new();
    report.write_merged(&mut merged).expect("merge writes");
    assert_eq!(
        String::from_utf8(merged).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
    );
}

/// Peers that connect and never send a byte must not stall lease traffic:
/// request lines are read on per-connection threads, so the accept loop
/// keeps heartbeats flowing while the loris connections sit in their 10 s
/// read timeout. Before that fix each such connection froze the whole
/// coordinator for the full timeout.
#[test]
fn slow_loris_peers_do_not_stall_lease_traffic() {
    let campaign = spec(2840, 6);
    let reference = reference_stream(&campaign);
    let journal = Scratch::file("loris");
    let config = ServeConfig {
        lease_shards: 3,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache: None,
        cache_chaos: None,
        quiet: true,
    };

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let _loris: Vec<std::net::TcpStream> = (0..4)
        .map(|_| std::net::TcpStream::connect(&addr).expect("loris connects"))
        .collect();
    let drain = std::sync::atomic::AtomicBool::new(false);
    let started = Instant::now();
    let report = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let work_dir = Scratch::dir(&format!("loris-w{i}"));
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
            .run(&campaign, &config, &drain)
            .expect("coordinator runs");
        for worker in workers {
            worker.join().expect("worker joins");
        }
        report
    });

    assert!(
        started.elapsed() < Duration::from_secs(8),
        "stalled peers must not serialize the run behind their read \
         timeouts (took {:?})",
        started.elapsed()
    );
    assert!(report.complete());
    assert!(report.quarantined.is_empty());
    let mut merged = Vec::new();
    report.write_merged(&mut merged).expect("merge writes");
    assert_eq!(
        String::from_utf8(merged).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
    );
}

/// The per-connection thread budget is finite: once every slot is held by
/// a stalled peer, the next connection gets an immediate, clean busy error
/// instead of an unbounded thread pile (or a hang).
#[test]
fn saturated_coordinator_refuses_extra_connections_cleanly() {
    use std::io::BufRead;

    use holes_pipeline::serve::coordinator::MAX_CONNECTION_THREADS;

    let campaign = spec(2850, 2);
    let journal = Scratch::file("busy");
    let config = ServeConfig {
        lease_shards: 1,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache: None,
        cache_chaos: None,
        quiet: true,
    };

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let drain = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let run = scope.spawn(|| coordinator.run(&campaign, &config, &drain));
        // Fill every connection-thread slot with peers that never send.
        let _loris: Vec<std::net::TcpStream> = (0..MAX_CONNECTION_THREADS)
            .map(|_| std::net::TcpStream::connect(&addr).expect("loris connects"))
            .collect();
        // The one-over-budget connection is answered without a request.
        let extra = std::net::TcpStream::connect(&addr).expect("extra connects");
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut line = String::new();
        std::io::BufReader::new(extra)
            .read_line(&mut line)
            .expect("busy reply arrives");
        assert!(line.contains("saturated"), "clean busy error: {line}");
        drain.store(true, std::sync::atomic::Ordering::SeqCst);
        let report = run.join().expect("run joins").expect("coordinator runs");
        assert!(report.drained, "no worker ever evaluated anything");
    });
}
