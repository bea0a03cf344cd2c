//! Crash-restart recovery: checkpointing the external systems' durable
//! state, journaling which events are settled, and re-running a benchmark
//! from the point an injected crash killed the integration system.
//!
//! The model follows the paper's setup: the *external systems'* data is
//! durable (a real deployment keeps it on disk), while the integration
//! system's in-flight instance is volatile. The undo-log transactions of
//! `dip-relstore` guarantee that at the moment of a crash the durable
//! state reflects exactly the *settled* instances — the killed instance's
//! partial materializations were rolled back — so recovery is four steps
//! of the run's one period loop ([`crate::client::run`]):
//!
//! 1. capture an [`EnvCheckpoint`] of every external database (rows plus
//!    pending change-capture logs),
//! 2. note each stream's settled events (the [`crate::client::
//!    PeriodRun`] journal) — the schedule itself is deterministic, so the
//!    undelivered rest of the E1 inbox is regenerable, not stored,
//! 3. build a fresh environment + system (the "restart"),
//!    restore the checkpoint, and replay every unsettled event of the
//!    crashed period via [`crate::client::Client::run_period_from`], then
//!    run the remaining periods,
//! 4. merge pre-crash and post-restart outcomes; E1 conservation
//!    (`scheduled = integrated + dead-lettered + failed + shed`) must hold
//!    over the merge, and the final data — the restarted world, which the
//!    run returns as `Run::env` — must be byte-identical to an uncrashed
//!    same-seed run ([`digest_tables`]).
//!
//! Crash points are materialization steps: every `round_trip` to an
//! external system checks the run's [`dip_netsim::fault::CrashPlan`]
//! (`BenchConfig::faults`) before performing its effect, so a crashed step
//! is all-or-nothing — exactly the Fig. 9 materialization-point boundaries.
//!
//! `config.faults.leak_rollbacks` is the CI gate's "teeth" switch: it turns
//! instance rollback off *until the crash* (the restarted system always
//! rolls back), so mid-instance failures leak partial writes and the
//! recovered state demonstrably diverges from an uncrashed run.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::client::{Client, MakeSystem};
use crate::env::BenchEnvironment;
use dip_netsim::fault::CrashPlan;
use dip_netsim::FaultPlan;
use dip_relstore::prelude::*;
use dip_relstore::table::Change;
use dip_services::registry::ExternalWorld;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One table's durable state at checkpoint time.
struct TableCheckpoint {
    name: String,
    rows: Vec<SharedRow>,
    /// Pending change-capture log (deltas the ivm engine has not pulled).
    changes: Vec<Change>,
}

/// A point-in-time copy of every external database the world serves —
/// the durable state a restarted system recovers from.
pub struct EnvCheckpoint {
    databases: Vec<(String, Vec<TableCheckpoint>)>,
}

impl EnvCheckpoint {
    /// Capture all databases. Must run outside any transaction scope and
    /// with the system quiesced (after the crash, nothing dispatches).
    pub fn capture(world: &ExternalWorld) -> StoreResult<EnvCheckpoint> {
        let mut databases = Vec::new();
        let mut names = world.database_names();
        names.sort();
        let mut tables_n = 0u64;
        let mut rows_n = 0u64;
        for name in names {
            let db = world.database(&name)?;
            let mut table_names = db.table_names();
            table_names.sort();
            let mut tables = Vec::new();
            for t in table_names {
                let table = db.table(&t)?;
                let rows = table.scan().rows;
                let changes = table.peek_changes();
                tables_n += 1;
                rows_n += rows.len() as u64;
                tables.push(TableCheckpoint {
                    name: t,
                    rows,
                    changes,
                });
            }
            databases.push((name, tables));
        }
        dip_trace::count("recovery.checkpoint.tables", tables_n);
        dip_trace::count("recovery.checkpoint.rows", rows_n);
        Ok(EnvCheckpoint { databases })
    }

    /// Restore into a freshly built environment's world: every table is
    /// truncated and re-filled, and its pending change log re-seeded, so
    /// the restarted system sees exactly the durable state of the crash.
    pub fn restore(&self, world: &ExternalWorld) -> StoreResult<()> {
        let mut rows_n = 0u64;
        for (name, tables) in &self.databases {
            let db = world.database(name)?;
            for t in tables {
                let table = db.table(&t.name)?;
                table.truncate();
                if !t.rows.is_empty() {
                    table.insert(t.rows.clone())?;
                }
                rows_n += t.rows.len() as u64;
                table.seed_changes(t.changes.clone());
            }
        }
        dip_trace::count("recovery.restore.rows", rows_n);
        Ok(())
    }
}

/// Logical content digest of every table, keyed `database.table`. Row
/// *order* is excluded (a restored table packs its slots differently);
/// row *content* is exact, so two digests agree iff the data is
/// identical.
pub fn digest_tables(world: &ExternalWorld) -> StoreResult<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for name in world.database_names() {
        let db = world.database(&name)?;
        for t in db.table_names() {
            let mut lines: Vec<String> = db
                .table(&t)?
                .scan()
                .rows
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            lines.sort();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for line in &lines {
                for b in line.as_bytes() {
                    h ^= *b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ 0x2e;
            }
            out.insert(format!("{name}.{t}"), h);
        }
    }
    Ok(out)
}

/// The instance and materialization step an injected crash targets.
#[derive(Debug, Clone)]
pub struct CrashTarget {
    pub process: String,
    pub period: u32,
    pub seq: u32,
    /// Ordinal of the materialization step (external round trip) at which
    /// the system dies, counted from 0 within the instance.
    pub step: u32,
}

impl CrashTarget {
    /// The [`FaultPlan`] entry aimed at this step — as `crash` it kills the
    /// system there, as `abort` it fails the instance there.
    pub fn plan(&self) -> CrashPlan {
        CrashPlan::at(&self.process, self.period, self.seq, self.step)
    }
}

/// The restart after `crashed`'s system died: checkpoint its durable
/// state, build a fresh environment into `slot` and a system on it (the
/// rebooted process), deploy, and restore the checkpoint. The fresh
/// environment runs `crashed`'s config minus the crash and the leak: the
/// restarted system is alive and rolls back unconditionally. The abort
/// stays — it is workload, and the replay must make the same decision —
/// and so do the arrivals, so later periods shed as an uncrashed run's do.
pub(crate) fn restart<'e>(
    crashed: &BenchEnvironment,
    make_system: MakeSystem,
    slot: &'e OnceCell<BenchEnvironment>,
) -> StoreResult<Client<'e>> {
    dip_trace::count("recovery.crashes", 1);
    let checkpoint = EnvCheckpoint::capture(&crashed.world)?;
    let faults = FaultPlan {
        crash: None,
        leak_rollbacks: false,
        ..crashed.config.faults
    };
    let env = BenchEnvironment::new(crashed.config.with_faults(faults))?;
    let env = slot.get_or_init(|| env);
    let client = Client::new(env, make_system(env))?;
    checkpoint.restore(&env.world)?;
    Ok(client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{run, Run, RunOutcome};
    use crate::config::BenchConfig;
    use crate::system::{IntegrationSystem, MtmSystem};
    use std::sync::Arc;

    fn mtm(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
        Arc::new(MtmSystem::new(env.world.clone()))
    }

    fn tiny_config() -> BenchConfig {
        BenchConfig::new(crate::scale::ScaleFactors::new(
            0.01,
            1.0,
            crate::scale::Distribution::Uniform,
        ))
        .with_periods(1)
    }

    #[test]
    fn checkpoint_roundtrip_restores_tables() {
        let env = BenchEnvironment::new(tiny_config()).unwrap();
        env.initialize_sources(0).unwrap();
        let before = digest_tables(&env.world).unwrap();
        let cp = EnvCheckpoint::capture(&env.world).unwrap();
        // scramble: wipe everything, then restore
        env.uninitialize().unwrap();
        assert_ne!(digest_tables(&env.world).unwrap(), before);
        cp.restore(&env.world).unwrap();
        assert_eq!(digest_tables(&env.world).unwrap(), before);
    }

    /// The same seed, never crashed: its outcome and table digests.
    fn reference(config: BenchConfig) -> (RunOutcome, BTreeMap<String, u64>) {
        let run = run(config, &mtm).unwrap();
        assert!(!run.tripped, "nothing was planned");
        assert!(run.verification.passed(), "{}", run.verification);
        (run.outcome, run.digests)
    }

    /// Kill `process` (period 0, seq 0) at `step` and recover.
    fn crashed(mut config: BenchConfig, process: &str, step: u32) -> Run {
        config.faults.crash = Some(CrashPlan::at(process, 0, 0, step));
        run(config, &mtm).unwrap()
    }

    #[test]
    fn crash_mid_instance_recovers_to_the_uncrashed_bytes() {
        let config = tiny_config();
        let (ref_outcome, ref_digests) = reference(config);
        // P09 (consolidation, stream C) dies at its second step
        let run = crashed(config, "P09", 1);
        assert!(run.tripped, "P09 should reach step 1");
        assert!(run.replayed_events > 0);
        assert!(run.verification.passed(), "{}", run.verification);
        assert_eq!(run.digests, ref_digests, "recovered state diverged");
        assert_eq!(run.outcome.dead_letters, ref_outcome.dead_letters);
    }

    #[test]
    fn a_step_past_the_instances_last_round_trip_never_fires() {
        let config = tiny_config();
        let run = crashed(config, "P09", 10_000);
        assert!(!run.tripped);
        assert!(run.steps_seen > 0, "P09 executed no materialization steps?");
        assert!(run.verification.passed(), "{}", run.verification);
        assert_eq!(run.digests, reference(config).1);
    }

    /// A run is its config: two crashed runs and an uncrashed one, at once
    /// in one process, each see only their own plan. (While the plan was
    /// process state the second arming overwrote the first and the
    /// reference could trip.)
    #[test]
    fn concurrent_runs_each_crash_at_their_own_point() {
        let config = tiny_config();
        let start = std::sync::Barrier::new(3);
        let (p05, p09, (_, ref_digests)) = std::thread::scope(|s| {
            let run = |process: &'static str| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    crashed(config, process, 1)
                })
            };
            let (p05, p09) = (run("P05"), run("P09"));
            start.wait();
            let uncrashed = reference(config);
            (p05.join().unwrap(), p09.join().unwrap(), uncrashed)
        });
        for (process, run) in [("P05", p05), ("P09", p09)] {
            assert!(run.tripped, "{process} should reach step 1");
            assert_eq!(
                run.steps_seen, 2,
                "{process}: steps 0 and 1 of its own target"
            );
            assert!(run.verification.passed(), "{process}: {}", run.verification);
            assert_eq!(
                run.digests, ref_digests,
                "{process}: recovered state diverged"
            );
        }
    }
}
