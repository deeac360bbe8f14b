//! Deterministic fault injection + the containment primitives built on it.
//!
//! A [`FaultPlan`] arms named *sites* across the serving stack — one per
//! code location that can fail: codec decode, admission, worker execute,
//! scatter pair dispatch, and commit entry (see [`FaultSite`]) — with
//! actions selected deterministically by **match count**:
//! every time execution passes an armed site the site's counter advances,
//! and a rule `worker_execute:panic:2:3` fires on matches 2, 3 and 4 (1-
//! based, in arrival order at that site). No randomness, no clocks: the
//! same request sequence perturbs the same requests on every run, which is
//! what lets the chaos differential suite compare a faulted service
//! byte-for-byte against a fault-free twin.
//!
//! The plan is wired through [`crate::ServiceConfig::faults`] as plain
//! strings (`<site>:<action>[:<from>[:<count>]]`), so the CLI (`--fault`),
//! tests, and the load bench all share one grammar. An **empty plan is a
//! single predictable branch** at every site — the disabled configuration
//! measures within noise of a build with no fault layer at all (gated in
//! `load_bench`).
//!
//! The same module hosts the containment-side primitive the plan exists
//! to exercise: [`lock_unpoisoned`], the crate-wide mutex discipline — a
//! panicking lock holder must never wedge the service, so every
//! shared-state lock recovers the guard from a poisoned mutex instead of
//! unwrapping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Poisoning exists to flag possibly-inconsistent state, but every mutex in
/// this crate guards state that stays consistent under unwind (counters,
/// maps, queues mutated in single steps) — and the containment layer turns
/// worker panics into structured errors rather than process death, so a
/// poisoned lock must degrade to a plain lock, not wedge every later
/// request into a panic cascade.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a caught panic payload as a message: the `&str`/`String` panic
/// message when there is one (the overwhelmingly common case), a fixed
/// fallback otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker job panicked".to_string()
    }
}

/// A named injection point: one per code location that can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A session decoded one request payload (before dispatch).
    CodecDecode,
    /// A query is about to ask the admission gate for a permit.
    Admission,
    /// A worker picked the job up and is about to run the search.
    WorkerExecute,
    /// A scatter pair sub-query is executing on the worker pool.
    ScatterPair,
    /// A `commit` patched the index and spliced the new snapshot and is
    /// about to publish it. An injected error or panic leaves the old
    /// generation live and the batch staged.
    Commit,
}

impl FaultSite {
    /// Every site, in declaration order (the plan indexes by `site as usize`).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::CodecDecode,
        FaultSite::Admission,
        FaultSite::WorkerExecute,
        FaultSite::ScatterPair,
        FaultSite::Commit,
    ];

    /// Stable snake_case name (the spec grammar's `<site>` token).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CodecDecode => "codec_decode",
            FaultSite::Admission => "admission",
            FaultSite::WorkerExecute => "worker_execute",
            FaultSite::ScatterPair => "scatter_pair",
            FaultSite::Commit => "commit",
        }
    }

    /// Parses a `<site>` token.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == name)
    }
}

/// What an armed site does when a rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `panic!` at the site — exercises the containment layer.
    Panic,
    /// Sleep this many milliseconds — perturbs timing, not results.
    Delay(u64),
    /// Make the site return a structured `internal` error.
    Error,
}

/// One deterministic rule: fire `action` at `site` for `count` consecutive
/// matches starting at the 1-based match number `from` (`count == 0` ⇒
/// every match from `from` on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    pub site: FaultSite,
    pub action: FaultAction,
    pub from: u64,
    pub count: u64,
}

impl FaultRule {
    fn fires_at(&self, matched: u64) -> bool {
        matched >= self.from && (self.count == 0 || matched < self.from + self.count)
    }
}

/// A compiled set of [`FaultRule`]s plus per-site match counters.
///
/// `check(site)` is the single hook instrumented code calls; with no rules
/// it is one branch on an immutable bool. Counters only advance for sites
/// that at least one rule arms, so an armed-but-never-firing plan (used by
/// the zero-cost gate) still takes the cheap path at every other site.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Which sites have at least one rule (by `site as usize`).
    armed: [bool; FaultSite::ALL.len()],
    /// Matches observed per armed site (the rule selector).
    matches: [AtomicU64; FaultSite::ALL.len()],
    /// Total faults injected (all sites, all actions).
    injected: AtomicU64,
}

impl FaultPlan {
    /// Compiles `specs` (`<site>:<action>[:<from>[:<count>]]`, e.g.
    /// `worker_execute:panic:2:3` or `commit:delay5ms`). `from`
    /// defaults to 1 (the first match), `count` to 0 (every match onward).
    pub fn parse<S: AsRef<str>>(specs: &[S]) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for spec in specs {
            let spec = spec.as_ref();
            let mut parts = spec.split(':');
            let site_token = parts.next().unwrap_or("");
            let site = FaultSite::from_name(site_token).ok_or_else(|| {
                format!("fault spec `{spec}`: unknown site `{site_token}`")
            })?;
            let action_token = parts
                .next()
                .ok_or_else(|| format!("fault spec `{spec}`: missing action"))?;
            let action = parse_action(action_token)
                .ok_or_else(|| format!("fault spec `{spec}`: unknown action `{action_token}`"))?;
            let from = match parts.next() {
                None => 1,
                Some(t) => t
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("fault spec `{spec}`: `from` must be a positive integer"))?,
            };
            let count = match parts.next() {
                None => 0,
                Some(t) => t
                    .parse::<u64>()
                    .map_err(|_| format!("fault spec `{spec}`: `count` must be an integer"))?,
            };
            if parts.next().is_some() {
                return Err(format!("fault spec `{spec}`: too many `:` fields"));
            }
            plan.armed[site as usize] = true;
            plan.rules.push(FaultRule { site, action, from, count });
        }
        Ok(plan)
    }

    /// No rules at all — every `check` is a single branch.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Total faults injected so far (panics, delays, and error returns).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The match-count hook: advances `site`'s counter and returns the
    /// action the first matching rule selects, if any. Deterministic for a
    /// deterministic arrival order at the site.
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        if self.rules.is_empty() || !self.armed[site as usize] {
            return None;
        }
        let matched = self.matches[site as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let action = self
            .rules
            .iter()
            .find(|r| r.site == site && r.fires_at(matched))
            .map(|r| r.action)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(action)
    }

    /// Checks `site` and *acts*: panics or sleeps in place; returns `true`
    /// when the caller must produce a structured `internal` error instead.
    /// The common call shape at sites whose failure mode is an error
    /// return — panic and delay need no caller cooperation.
    pub fn perturb(&self, site: FaultSite) -> bool {
        match self.check(site) {
            None => false,
            Some(FaultAction::Panic) => {
                panic!("injected fault: panic at {}", site.name())
            }
            Some(FaultAction::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            Some(FaultAction::Error) => true,
        }
    }
}

fn parse_action(token: &str) -> Option<FaultAction> {
    match token {
        "panic" => Some(FaultAction::Panic),
        "error" => Some(FaultAction::Error),
        _ => token
            .strip_prefix("delay")
            .and_then(|rest| rest.strip_suffix("ms"))
            .and_then(|ms| ms.parse().ok())
            .map(FaultAction::Delay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip_and_index_densely() {
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
            assert_eq!(site as usize, i, "{} indexes out of order", site.name());
        }
        assert_eq!(FaultSite::from_name("nope"), None);
    }

    #[test]
    fn spec_grammar_parses_and_rejects() {
        let plan = FaultPlan::parse(&[
            "worker_execute:panic:2:3",
            "commit:delay5ms",
            "admission:error:4",
        ])
        .unwrap();
        assert!(!plan.is_empty());
        // Engine phases and commit stages are not sites: the engine never
        // checks the plan, and a commit fails at one place, its entry.
        for phase in bcc_obs::Phase::ALL {
            let spec = format!("{}:error", phase.name());
            let err = FaultPlan::parse(&[&spec]).err().unwrap_or_default();
            assert!(err.contains("unknown site"), "`{spec}` must not parse: {err}");
        }
        for bad in [
            "nope:panic",
            "worker_execute",
            "worker_execute:explode",
            "worker_execute:panic:0",
            "worker_execute:panic:x",
            "worker_execute:panic:1:y",
            "worker_execute:panic:1:2:3",
            "worker_execute:delayms",
            "worker_execute:delay2s",
        ] {
            assert!(FaultPlan::parse(&[bad]).is_err(), "`{bad}` must not parse");
        }
        assert!(FaultPlan::parse::<&str>(&[]).unwrap().is_empty());
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn rules_fire_by_match_count_deterministically() {
        let plan = FaultPlan::parse(&["worker_execute:error:2:2"]).unwrap();
        let fired: Vec<bool> = (0..5)
            .map(|_| plan.check(FaultSite::WorkerExecute).is_some())
            .collect();
        assert_eq!(fired, [false, true, true, false, false]);
        assert_eq!(plan.injected(), 2);
        // Unarmed sites never fire and never advance their counter.
        assert_eq!(plan.check(FaultSite::Admission), None);
    }

    #[test]
    fn open_ended_rule_fires_forever_from_its_start() {
        let plan = FaultPlan::parse(&["admission:error:3"]).unwrap();
        let fired: Vec<bool> =
            (0..6).map(|_| plan.check(FaultSite::Admission).is_some()).collect();
        assert_eq!(fired, [false, false, true, true, true, true]);
    }

    #[test]
    fn perturb_returns_error_flag_and_counts_delays() {
        let plan = FaultPlan::parse(&["admission:error:1:1", "admission:delay1ms:2:1"]).unwrap();
        assert!(plan.perturb(FaultSite::Admission), "error rule → caller errors");
        assert!(!plan.perturb(FaultSite::Admission), "delay rule → no error");
        assert!(!plan.perturb(FaultSite::Admission), "rules exhausted");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        for site in FaultSite::ALL {
            assert_eq!(plan.check(site), None);
            assert!(!plan.perturb(site));
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn lock_unpoisoned_recovers_a_poisoned_mutex() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let poisoner = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }
}
