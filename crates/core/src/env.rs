//! The benchmark environment: builds all external systems (eleven database
//! instances, three web services, the message-emitting applications) wired
//! through the simulated network — the ES machine of the paper's setup —
//! and implements the per-period *uninitialize / initialize* steps of the
//! execution schedule.

use crate::config::BenchConfig;
use crate::datagen::{Generator, SourceSnapshot};
use crate::schema::{america, asia, cdb, dm, dwh, europe};
use dip_netsim::topology;
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use dip_services::webservice::DbService;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The assembled benchmark environment.
pub struct BenchEnvironment {
    pub world: Arc<ExternalWorld>,
    pub generator: Generator,
    pub config: BenchConfig,
    /// Per-period source snapshots: generated on first use, immutable
    /// afterwards, replayed on every later `initialize_sources` for the
    /// same period (e.g. repeated runs over a shared environment).
    snapshots: Mutex<HashMap<u32, Arc<SourceSnapshot>>>,
}

impl std::fmt::Debug for BenchEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchEnvironment")
            .field("databases", &self.world.database_names().len())
            .field("services", &self.world.service_names().len())
            .finish()
    }
}

/// Database names of the benchmark's *target* systems, wiped per period.
pub const TARGET_DATABASES: [&str; 6] = [
    america::US_EASTCOAST,
    cdb::CDB,
    dwh::DWH,
    "dm_europe",
    "dm_unitedstates",
    "dm_asia",
];

/// Database names of the *source* systems, re-generated per period.
pub const SOURCE_DATABASES: [&str; 8] = [
    europe::BERLIN_PARIS,
    europe::TRONDHEIM,
    america::CHICAGO,
    america::BALTIMORE,
    america::MADISON,
    "hongkong_db",
    "beijing_db",
    "seoul_db",
];

impl BenchEnvironment {
    /// Build every external system.
    pub fn new(config: BenchConfig) -> StoreResult<BenchEnvironment> {
        // transfers are accounted, never slept: delay is a model quantity
        let mut network =
            topology::dipbench_network(dip_netsim::TransferMode::Accounted, config.seed);
        network.set_plan(config.faults);
        let mut world = ExternalWorld::new(Arc::new(network), topology::IS);
        if config.faults.is_active() {
            // waits are accounted, like the transfers: a run never blocks
            // on a timeout or a backoff
            world.arm_resilience(config.attempts);
        }

        // --- Europe ---
        world.add_database(
            europe::BERLIN_PARIS,
            "es.berlin_paris",
            europe::create_berlin_paris()?,
        );
        world.add_database(
            europe::TRONDHEIM,
            "es.trondheim",
            europe::create_trondheim()?,
        );

        // --- America ---
        for (name, endpoint) in [
            (america::CHICAGO, "es.chicago"),
            (america::BALTIMORE, "es.baltimore"),
            (america::MADISON, "es.madison"),
            (america::US_EASTCOAST, "es.us_eastcoast"),
        ] {
            world.add_database(name, endpoint, america::create_tpch_db(name)?);
        }

        // --- Asia: web services + their backing databases ---
        for service in [asia::HONGKONG, asia::BEIJING] {
            let db = asia::create_asia_db(service)?;
            let endpoint = format!("es.ws.{service}");
            world.add_database(&format!("{service}_db"), &endpoint, db.clone());
            world.add_service(&endpoint, Arc::new(DbService::new(service, db)));
        }
        {
            let db = asia::create_asia_db(asia::SEOUL)?;
            world.add_database("seoul_db", "es.ws.seoul", db.clone());
            world.add_service("es.ws.seoul", Arc::new(asia::SeoulService::new(db)));
        }

        // --- targets ---
        world.add_database(cdb::CDB, "es.cdb", cdb::create_cdb()?);
        world.add_database(dwh::DWH, "es.dwh", dwh::create_dwh()?);
        for mart in dm::Mart::ALL {
            world.add_database(
                mart.db_name(),
                &format!("es.{}", mart.db_name()),
                dm::create_mart(mart)?,
            );
        }

        let generator = Generator::new(config.seed, config.scale);
        let env = BenchEnvironment {
            world: Arc::new(world),
            generator,
            config,
            snapshots: Mutex::new(HashMap::new()),
        };
        env.uninitialize()?; // load dimensions into the fresh targets
        Ok(env)
    }

    /// Convenience database handles.
    pub fn db(&self, name: &str) -> Arc<Database> {
        self.world.database(name).expect("known database")
    }

    /// Per-period "uninitialize all external systems": wipe every database
    /// and re-load the static dimension data into the targets.
    pub fn uninitialize(&self) -> StoreResult<()> {
        for name in SOURCE_DATABASES.iter().chain(TARGET_DATABASES.iter()) {
            self.world.database(name)?.truncate_all();
        }
        for name in [cdb::CDB, dwh::DWH, "dm_asia", "dm_unitedstates"] {
            let db = self.world.database(name)?;
            if db.has_table("region") {
                self.generator.refdata.preload(&db)?;
            } else {
                // the US mart keeps normalized product dims only
                self.preload_product_dims(&db)?;
            }
        }
        Ok(())
    }

    fn preload_product_dims(&self, db: &Database) -> StoreResult<()> {
        if db.has_table("productline") {
            self.generator.refdata.preload_products(db)?;
        }
        Ok(())
    }

    /// Per-period "initialize source systems".
    ///
    /// The first initialization of a period generates its source state and
    /// caches it as an immutable [`SourceSnapshot`]; later initializations
    /// of the same period replay the cached rows instead of re-running the
    /// generator. Determinism makes the two paths indistinguishable: the
    /// generator produces identical data for `(seed, scale, period)`
    /// every time, so a replay loads byte-identical rows.
    pub fn initialize_sources(&self, period: u32) -> StoreResult<()> {
        let snap = {
            let mut cache = self.snapshots.lock().expect("snapshot cache lock");
            match cache.get(&period) {
                Some(s) => {
                    dip_trace::count("env.init.cache_hit", 1);
                    Arc::clone(s)
                }
                None => {
                    dip_trace::count("env.init.cache_miss", 1);
                    let s = Arc::new(self.generator.source_snapshot(period));
                    cache.insert(period, Arc::clone(&s));
                    s
                }
            }
        };
        snap.replay(&self.world)
    }

    /// Number of periods with a cached source snapshot.
    pub fn cached_periods(&self) -> usize {
        self.snapshots.lock().expect("snapshot cache lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> BenchEnvironment {
        BenchEnvironment::new(BenchConfig::default()).unwrap()
    }

    #[test]
    fn eleven_database_instances_three_services() {
        let e = env();
        // berlin_paris, trondheim, chicago, baltimore, madison,
        // us_eastcoast, cdb, dwh, 3 marts = 11 database instances, plus the
        // three WS-backing stores
        assert_eq!(e.world.database_names().len(), 11 + 3);
        assert_eq!(e.world.service_names().len(), 3);
    }

    #[test]
    fn initialize_fills_sources_deterministically() {
        let e = env();
        e.initialize_sources(0).unwrap();
        let bp = e.db(europe::BERLIN_PARIS);
        // two locations share the database
        assert_eq!(
            bp.table("cust").unwrap().row_count(),
            2 * e.generator.cards.customers
        );
        assert_eq!(
            bp.table("ord").unwrap().row_count(),
            2 * e.generator.cards.orders
        );
        let chicago = e.db(america::CHICAGO);
        assert!(chicago.table("customer").unwrap().row_count() > 0);
        assert_eq!(
            chicago.table("orders").unwrap().row_count(),
            e.generator.cards.orders
        );
        let beijing = e.db("beijing_db");
        assert_eq!(
            beijing.table("customers").unwrap().row_count(),
            e.generator.cards.customers
        );

        // a second environment with the same seed produces identical data
        let e2 = env();
        e2.initialize_sources(0).unwrap();
        let a = e.db(europe::TRONDHEIM).table("ord").unwrap().scan();
        let b = e2.db(europe::TRONDHEIM).table("ord").unwrap().scan();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn cached_snapshot_replay_equals_regeneration() {
        // first initialization generates and caches; the second replays
        // from the cache after a wipe — contents must be identical to a
        // fresh environment that generates from scratch
        let e = env();
        e.initialize_sources(0).unwrap();
        assert_eq!(e.cached_periods(), 1);
        e.uninitialize().unwrap();
        e.initialize_sources(0).unwrap();
        assert_eq!(e.cached_periods(), 1);

        let fresh = env();
        fresh.initialize_sources(0).unwrap();
        for name in SOURCE_DATABASES {
            let db = e.db(name);
            for table in db.table_names() {
                let a = db.table(&table).unwrap().scan();
                let b = fresh.db(name).table(&table).unwrap().scan();
                assert_eq!(a.rows, b.rows, "{name}.{table}");
            }
        }
        // distinct periods cache separately
        e.uninitialize().unwrap();
        e.initialize_sources(1).unwrap();
        assert_eq!(e.cached_periods(), 2);
    }

    #[test]
    fn uninitialize_wipes_and_reloads_dims() {
        let e = env();
        e.initialize_sources(0).unwrap();
        e.db(cdb::CDB)
            .table("orders_staging")
            .unwrap()
            .insert(vec![vec![
                Value::Int(1),
                Value::Int(1),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::str("x"),
            ]])
            .unwrap();
        e.uninitialize().unwrap();
        assert_eq!(
            e.db(cdb::CDB).table("orders_staging").unwrap().row_count(),
            0
        );
        assert_eq!(
            e.db(europe::BERLIN_PARIS)
                .table("cust")
                .unwrap()
                .row_count(),
            0
        );
        // dimensions reloaded
        assert_eq!(e.db(cdb::CDB).table("region").unwrap().row_count(), 3);
        assert!(e.db(dwh::DWH).table("city").unwrap().row_count() > 0);
        assert!(e.db("dm_asia").table("city").unwrap().row_count() > 0);
        assert!(
            e.db("dm_unitedstates")
                .table("productgroup")
                .unwrap()
                .row_count()
                > 0
        );
    }
}
