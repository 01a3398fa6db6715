//! The `HOLES_SERVE_CHAOS` fault-injection knob.
//!
//! The distributed campaign service promises that preemption is invisible
//! in the final report. That promise needs an executioner: this module
//! turns an environment variable into deterministic process-level chaos
//! so the CI smoke (and anyone reproducing a flake) can kill workers at
//! exact, repeatable points.
//!
//! Two modes, both counted so the N-th event fires exactly once:
//!
//! * `abort:N` — the process calls [`std::process::abort`] immediately
//!   after the N-th line is written to a streaming shard file. No
//!   destructors, no flushes: indistinguishable from `kill -9` mid-shard,
//!   which is exactly the failure the truncation-tolerant resume footer
//!   exists for.
//! * `preempt:N` — the N-th lease taken by a worker runs to completion but
//!   never heartbeats, so the coordinator revokes the lease out from under
//!   a live process; the worker then submits its (now stale) result, which
//!   the coordinator must discard idempotently.
//!
//! A malformed value is a hard error (`exit 1`) the first time chaos is
//! consulted — a typo'd kill schedule silently doing nothing would make a
//! red chaos run look green. The same parser reads `HOLES_CACHE_CHAOS`
//! (below), and its positive-count rule reads `HOLES_STORE_CHAOS`.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;

/// The environment variable holding the chaos plan (`abort:N` or
/// `preempt:N`).
pub const SERVE_CHAOS_ENV: &str = "HOLES_SERVE_CHAOS";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Abort,
    Preempt,
}

#[derive(Debug)]
struct Plan {
    mode: Mode,
    /// Counts down; the event whose decrement observes `1` fires.
    remaining: AtomicI64,
}

static PLAN: OnceLock<Option<Plan>> = OnceLock::new();

fn plan() -> Option<&'static Plan> {
    PLAN.get_or_init(|| plan_from_env(SERVE_CHAOS_ENV, parse_plan))
        .as_ref()
}

fn parse_plan(raw: &str) -> Result<Option<Plan>, String> {
    let modes = [("abort", Mode::Abort), ("preempt", Mode::Preempt)];
    Ok(
        parse_counted(raw, "chaos", &modes)?.map(|(mode, count)| Plan {
            mode,
            remaining: AtomicI64::new(count.into()),
        }),
    )
}

/// Read the plan in environment variable `var` with `parse`: unset means no
/// plan, and a malformed value is a hard `exit 1` naming the variable — a
/// typo'd schedule must not silently pass.
pub(crate) fn plan_from_env<T>(
    var: &str,
    parse: impl FnOnce(&str) -> Result<Option<T>, String>,
) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    match parse(&raw) {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("holes: {var}: {message}");
            std::process::exit(1);
        }
    }
}

/// Parse a `kind:N` plan against `modes`, the table of accepted kinds: an
/// empty value is no plan, anything else must name a listed kind and a
/// positive count. `what` names the plan in error messages.
fn parse_counted<M: Copy>(
    raw: &str,
    what: &str,
    modes: &[(&str, M)],
) -> Result<Option<(M, u32)>, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    let expected = |suffix: &str| {
        let names: Vec<String> = modes
            .iter()
            .map(|(name, _)| format!("`{name}{suffix}`"))
            .collect();
        match names.as_slice() {
            [first, second] => format!("{first} or {second}"),
            [init @ .., last] if !init.is_empty() => format!("{}, or {last}", init.join(", ")),
            _ => names.concat(),
        }
    };
    let (name, count) = raw
        .split_once(':')
        .ok_or_else(|| format!("`{raw}` is not a {what} plan (expected {})", expected(":N")))?;
    let mode = modes
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, mode)| mode)
        .ok_or_else(|| format!("unknown {what} mode `{name}` (expected {})", expected("")))?;
    Ok(Some((mode, parse_positive_count(count)?)))
}

/// Parse the `N` of a chaos schedule: a count of at least 1.
pub(crate) fn parse_positive_count(count: &str) -> Result<u32, String> {
    count
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("`{count}` is not a positive event count"))
}

/// Called by the streaming shard writer after every emitted line; under
/// `abort:N` the N-th call hard-kills the process (no unwinding, no
/// flushes), leaving a torn shard file behind.
pub(crate) fn on_line_emitted() {
    if let Some(plan) = plan() {
        if plan.mode == Mode::Abort && plan.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            std::process::abort();
        }
    }
}

/// Consulted by the worker once per lease; returns `true` when this lease
/// is the `preempt:N` victim that must run without heartbeats and submit
/// a late (discardable) result.
pub fn preempt_this_lease() -> bool {
    match plan() {
        Some(plan) if plan.mode == Mode::Preempt => {
            plan.remaining.fetch_sub(1, Ordering::SeqCst) == 1
        }
        _ => false,
    }
}

/// The environment variable holding the cache-reply chaos plan
/// (`drop:N`, `corrupt:N`, or `delay:N`).
pub const CACHE_CHAOS_ENV: &str = "HOLES_CACHE_CHAOS";

/// What `HOLES_CACHE_CHAOS` does to the N-th `holes.cache-rpc/v1` reply
/// the coordinator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Close the connection without replying — the client sees a torn
    /// exchange and must retry or degrade.
    Drop,
    /// Flip one bit of the reply line — either the line no longer parses
    /// (a transport-level failure) or it parses into an envelope the
    /// store's validation gates must quarantine. Both end in a recompute,
    /// never a wrong byte.
    Corrupt,
    /// Hold the reply past the client's read timeout before sending it.
    Delay,
}

/// A counted cache-reply mutation: the N-th reply after the plan engages
/// is dropped, corrupted, or delayed — exactly once, like the serve plans.
/// Constructable directly ([`CachePlan::new`]) so in-process fleet tests
/// can inject chaos without touching the process-global environment.
#[derive(Debug)]
pub struct CachePlan {
    mode: CacheMode,
    remaining: AtomicI64,
}

impl CachePlan {
    /// A plan firing `mode` on the `count`-th reply (1-based).
    pub fn new(mode: CacheMode, count: u32) -> CachePlan {
        CachePlan {
            mode,
            remaining: AtomicI64::new(i64::from(count.max(1))),
        }
    }

    /// Consulted once per cache reply; `Some(mode)` on the N-th call only.
    pub fn fire(&self) -> Option<CacheMode> {
        (self.remaining.fetch_sub(1, Ordering::SeqCst) == 1).then_some(self.mode)
    }
}

static CACHE_PLAN: OnceLock<Option<std::sync::Arc<CachePlan>>> = OnceLock::new();

/// The process-wide cache chaos plan named by [`CACHE_CHAOS_ENV`], if any.
/// Like the serve plan, a malformed value is a hard `exit 1` the first
/// time chaos is consulted — a typo'd schedule must not silently pass.
pub fn cache_plan_from_env() -> Option<std::sync::Arc<CachePlan>> {
    CACHE_PLAN
        .get_or_init(|| plan_from_env(CACHE_CHAOS_ENV, parse_cache_plan).map(std::sync::Arc::new))
        .clone()
}

fn parse_cache_plan(raw: &str) -> Result<Option<CachePlan>, String> {
    let modes = [
        ("drop", CacheMode::Drop),
        ("corrupt", CacheMode::Corrupt),
        ("delay", CacheMode::Delay),
    ];
    Ok(parse_counted(raw, "cache chaos", &modes)?.map(|(mode, count)| CachePlan::new(mode, count)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plans_parse_and_typos_are_rejected() {
        assert!(parse_plan("").expect("empty is no plan").is_none());
        assert!(parse_plan("  ").expect("blank is no plan").is_none());

        let abort = parse_plan("abort:3")
            .expect("valid plan")
            .expect("plan present");
        assert!(abort.mode == Mode::Abort);
        assert_eq!(abort.remaining.load(Ordering::SeqCst), 3);

        let preempt = parse_plan("preempt:1")
            .expect("valid plan")
            .expect("plan present");
        assert!(preempt.mode == Mode::Preempt);

        for bogus in [
            "abort", "abort:", "abort:0", "abort:-2", "abort:x", "stall:4", "4",
        ] {
            assert!(parse_plan(bogus).is_err(), "`{bogus}` should be rejected");
        }
        let message = parse_plan("stall:4").expect_err("unknown mode");
        assert!(
            message.contains("stall"),
            "message names the mode: {message}"
        );
        for (bogus, message) in [
            (
                "4",
                "`4` is not a chaos plan (expected `abort:N` or `preempt:N`)",
            ),
            (
                "stall:4",
                "unknown chaos mode `stall` (expected `abort` or `preempt`)",
            ),
            ("abort:0", "`0` is not a positive event count"),
        ] {
            assert_eq!(parse_plan(bogus).err().as_deref(), Some(message));
        }
    }

    #[test]
    fn the_nth_event_fires_exactly_once() {
        let plan = parse_plan("preempt:2").expect("valid").expect("present");
        let fired: Vec<bool> = (0..4)
            .map(|_| plan.remaining.fetch_sub(1, Ordering::SeqCst) == 1)
            .collect();
        assert_eq!(fired, vec![false, true, false, false]);
    }

    #[test]
    fn cache_chaos_plans_parse_and_fire_exactly_once() {
        assert!(parse_cache_plan("").expect("empty is no plan").is_none());
        for (raw, mode) in [
            ("drop:1", CacheMode::Drop),
            ("corrupt:3", CacheMode::Corrupt),
            ("delay:2", CacheMode::Delay),
        ] {
            let plan = parse_cache_plan(raw).expect("valid").expect("present");
            assert_eq!(plan.mode, mode, "{raw}");
        }
        for bogus in ["drop", "drop:", "drop:0", "corrupt:-1", "stall:4", "4"] {
            assert!(
                parse_cache_plan(bogus).is_err(),
                "`{bogus}` should be rejected"
            );
        }
        for (bogus, message) in [
            (
                "4",
                "`4` is not a cache chaos plan (expected `drop:N`, `corrupt:N`, or `delay:N`)",
            ),
            (
                "stall:4",
                "unknown cache chaos mode `stall` (expected `drop`, `corrupt`, or `delay`)",
            ),
            ("corrupt:-1", "`-1` is not a positive event count"),
        ] {
            assert_eq!(parse_cache_plan(bogus).err().as_deref(), Some(message));
        }

        let plan = CachePlan::new(CacheMode::Corrupt, 2);
        let fired: Vec<Option<CacheMode>> = (0..4).map(|_| plan.fire()).collect();
        assert_eq!(
            fired,
            vec![None, Some(CacheMode::Corrupt), None, None],
            "the N-th reply is mutated exactly once"
        );
    }
}
