//! The Initializer's data generator: deterministic, seeded, scale-aware
//! synthetic data for every source system and every E1 message stream.
//!
//! Dirty data is injected at documented rates so the cleansing stages
//! (P12/P13) and the failed-data handling (P10) have real work:
//!
//! * ~5% of generated customers are dirty (empty name, unknown city, or an
//!   absurd account balance);
//! * ~5% of generated orders are dirty (non-positive total or an unmapped
//!   priority token); ~2% of order lines have a zero quantity;
//! * 15% of San Diego messages carry an injected schema error (the paper
//!   calls the application "very error-prone").

pub mod dist;
pub mod keys;
pub mod refdata;

use crate::scale::ScaleFactors;
use crate::schema::vocab;
use dip_relstore::prelude::*;
use dip_services::apps::{self, CustomerData, OrderData, OrderLineData, PartData};
use dip_services::registry::ExternalWorld;
use dip_xmlkit::node::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refdata::RefData;

/// Fraction of dirty master rows.
pub const DIRTY_CUSTOMER_RATE: f64 = 0.05;
/// Fraction of dirty orders.
pub const DIRTY_ORDER_RATE: f64 = 0.05;
/// Fraction of zero-quantity lines.
pub const DIRTY_LINE_RATE: f64 = 0.02;
/// Fraction of San Diego messages with an injected error.
pub const SAN_DIEGO_ERROR_RATE: f64 = 0.15;
/// Probability that an American source holds a given shared master row.
pub const AMERICA_OVERLAP: f64 = 0.7;

/// Per-source dataset sizes derived from the datasize scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinalities {
    pub customers: usize,
    pub products: usize,
    pub orders: usize,
    pub max_lines: usize,
}

impl Cardinalities {
    pub fn from_datasize(d: f64) -> Cardinalities {
        Cardinalities {
            customers: ((1000.0 * d).ceil() as usize).max(3),
            products: ((200.0 * d).ceil() as usize).max(3),
            orders: ((2000.0 * d).ceil() as usize).max(5),
            max_lines: 4,
        }
    }
}

/// The deterministic data generator.
#[derive(Debug, Clone)]
pub struct Generator {
    pub seed: u64,
    pub scale: ScaleFactors,
    pub refdata: RefData,
    pub cards: Cardinalities,
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const DATE_BASE: (i32, u32, u32) = (2008, 1, 1);

fn fnv(tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Generator {
    pub fn new(seed: u64, scale: ScaleFactors) -> Generator {
        Generator {
            seed,
            scale,
            refdata: RefData::standard(),
            cards: Cardinalities::from_datasize(scale.datasize),
        }
    }

    /// A fresh RNG for `(seed, period, tag)` — every generation site uses
    /// its own stream, so data is stable regardless of call order.
    pub(crate) fn rng(&self, period: u32, tag: &str) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ fnv(tag) ^ ((period as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
    }

    fn date(&self, rng: &mut StdRng) -> i32 {
        let base = days_from_civil(DATE_BASE.0, DATE_BASE.1, DATE_BASE.2);
        base + dist::sample_index(self.scale.distribution, rng, 364) as i32
    }

    fn city_of_region(&self, rng: &mut StdRng, regionkey: i64) -> String {
        let cities = self.refdata.cities_of_region(regionkey);
        cities[dist::sample_index(self.scale.distribution, rng, cities.len())]
            .name
            .to_string()
    }

    fn customer(&self, rng: &mut StdRng, key: i64, regionkey: i64) -> CustomerData {
        let dirty = dist::chance(rng, DIRTY_CUSTOMER_RATE);
        let city = if dirty && dist::chance(rng, 0.5) {
            "Atlantis".to_string()
        } else {
            self.city_of_region(rng, regionkey)
        };
        let name = if dirty && dist::chance(rng, 0.5) {
            String::new()
        } else {
            format!("customer-{key}")
        };
        let acctbal = if dirty && dist::chance(rng, 0.5) {
            -99_999.0
        } else {
            dist::sample_f64(rng, -500.0, 10_000.0)
        };
        let nation = self
            .refdata
            .region_of_city(&city)
            .and_then(|r| {
                self.refdata
                    .cities
                    .iter()
                    .find(|c| c.name == city)
                    .and_then(|c| {
                        let _ = r;
                        self.refdata
                            .nations
                            .iter()
                            .find(|(k, _, _)| *k == c.nationkey)
                    })
            })
            .map(|(_, n, _)| n.to_string())
            .unwrap_or_else(|| "Nowhere".to_string());
        CustomerData {
            custkey: key,
            name,
            address: format!("{} main street", key % 997),
            city,
            nation,
            region: String::new(),
            segment: SEGMENTS[dist::sample_index(self.scale.distribution, rng, SEGMENTS.len())]
                .to_string(),
            phone: format!("+{:02}-{:07}", key % 90 + 10, key % 9_999_999),
            acctbal,
        }
    }

    fn part(&self, rng: &mut StdRng, key: i64) -> PartData {
        let (_, group, _) = self.refdata.groups
            [dist::sample_index(self.scale.distribution, rng, self.refdata.groups.len())];
        let line = self
            .refdata
            .groups
            .iter()
            .find(|(_, g, _)| *g == group)
            .and_then(|(_, _, lk)| self.refdata.lines.iter().find(|(k, _)| k == lk))
            .map(|(_, l)| l.to_string())
            .unwrap_or_default();
        PartData {
            prodkey: key,
            name: format!("part-{key}"),
            group: group.to_string(),
            line,
            price: dist::sample_f64(rng, 0.5, 500.0),
        }
    }

    /// Generate one order over the given customer/product key ranges using
    /// the region's vocabularies.
    #[allow(clippy::too_many_arguments)] // the key-range quadruple is the point
    fn order(
        &self,
        rng: &mut StdRng,
        orderkey: i64,
        cust_base: i64,
        cust_count: usize,
        prod_base: i64,
        prod_count: usize,
        priorities: &[&str],
        states: &[&str],
    ) -> OrderData {
        let dirty = dist::chance(rng, DIRTY_ORDER_RATE);
        let custkey =
            cust_base + dist::sample_index(self.scale.distribution, rng, cust_count) as i64;
        let nlines = 1 + dist::sample_index(self.scale.distribution, rng, self.cards.max_lines);
        let mut lines = Vec::with_capacity(nlines);
        let mut total = 0.0;
        for lineno in 1..=nlines {
            let prodkey =
                prod_base + dist::sample_index(self.scale.distribution, rng, prod_count) as i64;
            let qty = if dist::chance(rng, DIRTY_LINE_RATE) {
                0
            } else {
                dist::sample_i64(rng, 1, 20)
            };
            let price = dist::sample_f64(rng, 1.0, 900.0);
            let disc = dist::sample_f64(rng, 0.0, 0.2);
            total += price * (1.0 - disc);
            lines.push(OrderLineData {
                lineno: lineno as i64,
                prodkey,
                quantity: qty,
                extendedprice: price,
                discount: disc,
            });
        }
        let priority = if dirty && dist::chance(rng, 0.5) {
            "??".to_string()
        } else {
            priorities[dist::sample_index(self.scale.distribution, rng, priorities.len())]
                .to_string()
        };
        let totalprice = if dirty {
            -total.max(1.0)
        } else {
            total.max(1.0)
        };
        OrderData {
            orderkey,
            custkey,
            orderdate: render_date(self.date(rng)),
            priority,
            state: states[dist::sample_index(self.scale.distribution, rng, states.len())]
                .to_string(),
            totalprice,
            lines,
        }
    }

    // -----------------------------------------------------------------
    // Source-system initialization
    // -----------------------------------------------------------------

    /// Generate the complete source-system state for period `k` without
    /// touching any database: every `(database, table)` batch the
    /// initializer would insert, in insertion order. The snapshot is
    /// immutable and deterministic for `(seed, scale, k)`, so it can be
    /// generated once and replayed into freshly wiped sources any number
    /// of times.
    pub fn source_snapshot(&self, k: u32) -> SourceSnapshot {
        let mut snap = SourceSnapshot::default();
        self.snapshot_europe(k, &mut snap);
        self.snapshot_america(k, &mut snap);
        self.snapshot_asia(k, &mut snap);
        snap
    }

    fn snapshot_europe(&self, k: u32, snap: &mut SourceSnapshot) {
        let bp = crate::schema::europe::BERLIN_PARIS;
        let tr = crate::schema::europe::TRONDHEIM;
        let mut rng = self.rng(k, "europe");
        // shared European product catalog, in both databases
        let parts: Vec<PartData> = (0..self.cards.products)
            .map(|i| self.part(&mut rng, keys::PROD_EUROPE + i as i64))
            .collect();
        let prod_rows: Vec<SharedRow> = parts
            .iter()
            .map(|p| {
                SharedRow::from([
                    Value::Int(p.prodkey),
                    Value::str(p.name.clone()),
                    Value::str(p.group.clone()),
                    Value::str(p.line.clone()),
                    Value::Float(p.price),
                ])
            })
            .collect();
        snap.push(bp, "prod", prod_rows.clone());
        snap.push(tr, "prod", prod_rows);

        for (loc, cust_base, ord_base, db, with_loc) in [
            ("berlin", keys::CUST_BERLIN, keys::ORD_BERLIN, bp, true),
            ("paris", keys::CUST_PARIS, keys::ORD_PARIS, bp, true),
            (
                "trondheim",
                keys::CUST_TRONDHEIM,
                keys::ORD_TRONDHEIM,
                tr,
                false,
            ),
        ] {
            // the location column of the Berlin/Paris tables, one string
            // every row of the location shares
            let loc_col = with_loc.then(|| Value::str(loc));
            let mut cust_rows = Vec::with_capacity(self.cards.customers);
            for i in 0..self.cards.customers {
                let c = self.customer(&mut rng, cust_base + i as i64, refdata::REGION_EUROPE);
                let row = [
                    Value::Int(c.custkey),
                    Value::str(c.name),
                    Value::str(c.address),
                    Value::str(c.city),
                    Value::str(c.nation),
                    Value::str(c.segment),
                    Value::str(c.phone),
                    Value::Float(c.acctbal),
                ];
                cust_rows.push(row.into_iter().chain(loc_col.clone()).collect());
            }
            snap.push(db, "cust", cust_rows);

            let mut ord_rows = Vec::with_capacity(self.cards.orders);
            let mut pos_rows = Vec::new();
            for i in 0..self.cards.orders {
                let o = self.order(
                    &mut rng,
                    ord_base + i as i64,
                    cust_base,
                    self.cards.customers,
                    keys::PROD_EUROPE,
                    self.cards.products,
                    &vocab::EUROPE_PRIORITY,
                    &vocab::EUROPE_STATE,
                );
                let row = [
                    Value::Int(o.orderkey),
                    Value::Int(o.custkey),
                    Value::Date(parse_date(&o.orderdate).expect("generated date")),
                    Value::Float(o.totalprice),
                    Value::str(o.priority.clone()),
                    Value::str(o.state.clone()),
                ];
                ord_rows.push(row.into_iter().chain(loc_col.clone()).collect());
                for l in &o.lines {
                    let row = [
                        Value::Int(o.orderkey),
                        Value::Int(l.lineno),
                        Value::Int(l.prodkey),
                        Value::Int(l.quantity),
                        Value::Float(l.extendedprice),
                        Value::Float(l.discount),
                    ];
                    pos_rows.push(row.into_iter().chain(loc_col.clone()).collect());
                }
            }
            snap.push(db, "ord", ord_rows);
            snap.push(db, "pos", pos_rows);
        }
    }

    fn snapshot_america(&self, k: u32, snap: &mut SourceSnapshot) {
        let mut rng = self.rng(k, "america");
        // shared master data, overlapping subsets per source
        let customers: Vec<CustomerData> = (0..self.cards.customers)
            .map(|i| {
                self.customer(
                    &mut rng,
                    keys::CUST_AMERICA + i as i64,
                    refdata::REGION_AMERICA,
                )
            })
            .collect();
        let parts: Vec<PartData> = (0..self.cards.products)
            .map(|i| self.part(&mut rng, keys::PROD_AMERICA + i as i64))
            .collect();
        for (source, ord_base) in [
            (crate::schema::america::CHICAGO, keys::ORD_CHICAGO),
            (crate::schema::america::BALTIMORE, keys::ORD_BALTIMORE),
            (crate::schema::america::MADISON, keys::ORD_MADISON),
        ] {
            let mut member_custs: Vec<&CustomerData> = Vec::new();
            let mut cust_rows = Vec::new();
            for c in &customers {
                if dist::chance(&mut rng, AMERICA_OVERLAP) {
                    member_custs.push(c);
                    cust_rows.push(SharedRow::from([
                        Value::Int(c.custkey),
                        Value::str(c.name.clone()),
                        Value::str(c.address.clone()),
                        Value::str(c.city.clone()),
                        Value::str(c.nation.clone()),
                        Value::str(c.phone.clone()),
                        Value::Float(c.acctbal),
                        Value::str(c.segment.clone()),
                    ]));
                }
            }
            if member_custs.is_empty() {
                member_custs.push(&customers[0]);
            }
            snap.push(source, "customer", cust_rows);
            let mut part_rows = Vec::new();
            for p in &parts {
                if dist::chance(&mut rng, AMERICA_OVERLAP) {
                    part_rows.push(SharedRow::from([
                        Value::Int(p.prodkey),
                        Value::str(p.name.clone()),
                        Value::str(p.group.clone()),
                        Value::str(p.line.clone()),
                        Value::Float(p.price),
                    ]));
                }
            }
            snap.push(source, "part", part_rows);

            let mut ord_rows = Vec::new();
            let mut line_rows = Vec::new();
            for i in 0..self.cards.orders {
                let o = self.order(
                    &mut rng,
                    ord_base + i as i64,
                    keys::CUST_AMERICA,
                    self.cards.customers,
                    keys::PROD_AMERICA,
                    self.cards.products,
                    &vocab::AMERICA_PRIORITY,
                    &vocab::AMERICA_STATE,
                );
                ord_rows.push(SharedRow::from([
                    Value::Int(o.orderkey),
                    Value::Int(o.custkey),
                    Value::str(o.state.clone()),
                    Value::Float(o.totalprice),
                    Value::Date(parse_date(&o.orderdate).expect("generated date")),
                    Value::str(o.priority.clone()),
                ]));
                for l in &o.lines {
                    line_rows.push(SharedRow::from([
                        Value::Int(o.orderkey),
                        Value::Int(l.lineno),
                        Value::Int(l.prodkey),
                        Value::Int(l.quantity),
                        Value::Float(l.extendedprice),
                        Value::Float(l.discount),
                    ]));
                }
            }
            snap.push(source, "orders", ord_rows);
            snap.push(source, "lineitem", line_rows);
        }
    }

    fn snapshot_asia(&self, k: u32, snap: &mut SourceSnapshot) {
        let mut rng = self.rng(k, "asia");
        // shared Beijing/Seoul master data (P01 keeps these in sync)
        let customers: Vec<CustomerData> = (0..self.cards.customers)
            .map(|i| {
                self.customer(
                    &mut rng,
                    keys::CUST_ASIA_SHARED + i as i64,
                    refdata::REGION_ASIA,
                )
            })
            .collect();
        let parts: Vec<PartData> = (0..self.cards.products)
            .map(|i| self.part(&mut rng, keys::PROD_ASIA_SHARED + i as i64))
            .collect();
        for (service, ord_base) in [
            (crate::schema::asia::BEIJING, keys::ORD_BEIJING),
            (crate::schema::asia::SEOUL, keys::ORD_SEOUL),
        ] {
            let db = format!("{service}_db");
            let cust_rows: Vec<SharedRow> = customers
                .iter()
                .map(|c| {
                    SharedRow::from([
                        Value::Int(c.custkey),
                        Value::str(c.name.clone()),
                        Value::str(c.city.clone()),
                        Value::str(c.segment.clone()),
                        Value::str(c.phone.clone()),
                        Value::Float(c.acctbal),
                    ])
                })
                .collect();
            snap.push(&db, "customers", cust_rows);
            let part_rows: Vec<SharedRow> = parts
                .iter()
                .map(|p| {
                    SharedRow::from([
                        Value::Int(p.prodkey),
                        Value::str(p.name.clone()),
                        Value::str(p.group.clone()),
                        Value::str(p.line.clone()),
                        Value::Float(p.price),
                    ])
                })
                .collect();
            snap.push(&db, "parts", part_rows);

            let mut ord_rows = Vec::new();
            let mut line_rows = Vec::new();
            for i in 0..self.cards.orders {
                let o = self.order(
                    &mut rng,
                    ord_base + i as i64,
                    keys::CUST_ASIA_SHARED,
                    self.cards.customers,
                    keys::PROD_ASIA_SHARED,
                    self.cards.products,
                    &vocab::ASIA_PRIORITY,
                    &vocab::ASIA_STATE,
                );
                ord_rows.push(SharedRow::from([
                    Value::Int(o.orderkey),
                    Value::Int(o.custkey),
                    Value::Date(parse_date(&o.orderdate).expect("generated date")),
                    Value::str(o.priority.clone()),
                    Value::str(o.state.clone()),
                    Value::Float(o.totalprice),
                ]));
                for l in &o.lines {
                    line_rows.push(SharedRow::from([
                        Value::Int(o.orderkey),
                        Value::Int(l.lineno),
                        Value::Int(l.prodkey),
                        Value::Int(l.quantity),
                        Value::Float(l.extendedprice),
                        Value::Float(l.discount),
                    ]));
                }
            }
            snap.push(&db, "orders", ord_rows);
            snap.push(&db, "orderlines", line_rows);
        }
    }

    // -----------------------------------------------------------------
    // E1 message generation
    // -----------------------------------------------------------------

    /// A Vienna order message (P04). Customer references fall into the
    /// Berlin/Paris key ranges so the enrichment lookup usually hits.
    pub fn vienna_message(&self, k: u32, m: u32) -> Document {
        let mut rng = self.rng(k, &format!("vienna:{m}"));
        let cust_base = if dist::chance(&mut rng, 0.5) {
            keys::CUST_BERLIN
        } else {
            keys::CUST_PARIS
        };
        let o = self.order(
            &mut rng,
            keys::ORD_VIENNA + m as i64,
            cust_base,
            self.cards.customers,
            keys::PROD_EUROPE,
            self.cards.products,
            &vocab::EUROPE_PRIORITY,
            &vocab::EUROPE_STATE,
        );
        apps::vienna_order(&o)
    }

    /// An MDM Europe customer master-data message (P02).
    pub fn mdm_message(&self, k: u32, m: u32) -> Document {
        let mut rng = self.rng(k, &format!("mdm:{m}"));
        let base = [keys::CUST_BERLIN, keys::CUST_PARIS, keys::CUST_TRONDHEIM]
            [dist::sample_index(self.scale.distribution, &mut rng, 3)];
        let key = base
            + dist::sample_index(self.scale.distribution, &mut rng, self.cards.customers) as i64;
        let mut c = self.customer(&mut rng, key, refdata::REGION_EUROPE);
        c.region = "Europe".into();
        apps::mdm_customer(&c)
    }

    /// A Hongkong push message (P08); uses the shared Asia master keys.
    pub fn hongkong_message(&self, k: u32, m: u32) -> Document {
        let mut rng = self.rng(k, &format!("hongkong:{m}"));
        let o = self.order(
            &mut rng,
            keys::ORD_HONGKONG + m as i64,
            keys::CUST_ASIA_SHARED,
            self.cards.customers,
            keys::PROD_ASIA_SHARED,
            self.cards.products,
            &vocab::ASIA_PRIORITY,
            &vocab::ASIA_STATE,
        );
        apps::hongkong_order(&o)
    }

    /// A San Diego message (P10); 15% carry an injected schema error.
    /// Returns the document and whether an error was injected.
    pub fn san_diego_message(&self, k: u32, m: u32) -> (Document, bool) {
        let mut rng = self.rng(k, &format!("san_diego:{m}"));
        let mut o = self.order(
            &mut rng,
            keys::ORD_SAN_DIEGO + m as i64,
            keys::CUST_AMERICA,
            self.cards.customers,
            keys::PROD_AMERICA,
            self.cards.products,
            &vocab::AMERICA_PRIORITY,
            &vocab::AMERICA_STATE,
        );
        // schema-level error injection is separate from value-level dirt;
        // keep the message schema-clean unless we inject below
        if o.priority == "??" {
            o.priority = "3".into();
        }
        if o.totalprice <= 0.0 {
            o.totalprice = -o.totalprice;
        }
        let inject = dist::chance(&mut rng, SAN_DIEGO_ERROR_RATE);
        let kind = if inject {
            Some(
                apps::ALL_MESSAGE_ERRORS[dist::sample_index(
                    self.scale.distribution,
                    &mut rng,
                    apps::ALL_MESSAGE_ERRORS.len(),
                )],
            )
        } else {
            None
        };
        (apps::san_diego_order(&o, kind), inject)
    }

    /// A Beijing master-data exchange message (P01): a small batch of
    /// updated customers and parts from the shared Asia key space.
    pub fn beijing_master_message(&self, k: u32, m: u32) -> Document {
        let mut rng = self.rng(k, &format!("beijing_master:{m}"));
        let ncust = 1 + dist::sample_index(self.scale.distribution, &mut rng, 5);
        let nparts = 1 + dist::sample_index(self.scale.distribution, &mut rng, 3);
        let customers: Vec<CustomerData> = (0..ncust)
            .map(|_| {
                let key = keys::CUST_ASIA_SHARED
                    + dist::sample_index(self.scale.distribution, &mut rng, self.cards.customers)
                        as i64;
                self.customer(&mut rng, key, refdata::REGION_ASIA)
            })
            .collect();
        let parts: Vec<PartData> = (0..nparts)
            .map(|_| {
                let key = keys::PROD_ASIA_SHARED
                    + dist::sample_index(self.scale.distribution, &mut rng, self.cards.products)
                        as i64;
                self.part(&mut rng, key)
            })
            .collect();
        apps::beijing_master_data(&customers, &parts)
    }
}

/// One period's complete source-system state: every `(database, table)`
/// row batch the initializer inserts, in insertion order.
///
/// Generating a snapshot runs the full data generator (RNG streams,
/// string formatting, dirty-data injection); replaying one hands the
/// snapshot's own rows to the tables — a reference-count bump per row,
/// no row copied — and the next wipe drops those references again.
/// `BenchEnvironment` caches snapshots per period so repeated runs over
/// the same environment skip generation entirely.
#[derive(Debug, Default, Clone)]
pub struct SourceSnapshot {
    tables: Vec<(String, String, Vec<SharedRow>)>,
}

impl SourceSnapshot {
    fn push(&mut self, db: &str, table: &str, rows: Vec<SharedRow>) {
        self.tables.push((db.to_string(), table.to_string(), rows));
    }

    /// Total generated rows across all batches.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|(_, _, rows)| rows.len()).sum()
    }

    /// The number of batches, one per source table per database name.
    pub fn batches(&self) -> usize {
        self.tables.len()
    }

    /// Insert every batch into its source table. The sources are expected
    /// to be freshly wiped (the per-period *uninitialize* step); batches
    /// use the same merge-flavoured insert as direct initialization, so
    /// replaying is byte-equivalent to regenerating.
    pub fn replay(&self, world: &ExternalWorld) -> StoreResult<()> {
        for (db, table, rows) in &self.tables {
            world
                .database(db)?
                .table(table)?
                .insert_ignore_duplicates(rows.clone())?;
        }
        Ok(())
    }
}

pub use dist::sample_index;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Distribution;

    fn generator() -> Generator {
        Generator::new(42, ScaleFactors::new(0.05, 1.0, Distribution::Uniform))
    }

    #[test]
    fn cardinalities_scale() {
        let small = Cardinalities::from_datasize(0.05);
        let big = Cardinalities::from_datasize(0.5);
        assert_eq!(small.customers, 50);
        assert_eq!(big.customers, 500);
        assert!(Cardinalities::from_datasize(0.0001).customers >= 3);
    }

    #[test]
    fn messages_are_deterministic() {
        let g = generator();
        assert_eq!(
            dip_xmlkit::write_compact(&g.vienna_message(3, 7)),
            dip_xmlkit::write_compact(&g.vienna_message(3, 7))
        );
        // different period or index gives different content
        assert_ne!(
            dip_xmlkit::write_compact(&g.vienna_message(3, 7)),
            dip_xmlkit::write_compact(&g.vienna_message(4, 7))
        );
    }

    #[test]
    fn san_diego_error_rate_plausible() {
        let g = generator();
        let n = 400;
        let errors = (0..n).filter(|&m| g.san_diego_message(0, m).1).count();
        let rate = errors as f64 / n as f64;
        assert!((0.08..0.25).contains(&rate), "rate {rate}");
        // injected messages really fail validation
        let xsd = crate::schema::messages::san_diego_xsd();
        for m in 0..n {
            let (doc, injected) = g.san_diego_message(0, m);
            assert_eq!(!xsd.is_valid(&doc), injected, "message {m}");
            // P10's failed-message row names this issue
            let first = xsd.validate(&doc).into_iter().next();
            assert_eq!(xsd.first_issue(&doc), first, "message {m}");
        }
    }

    #[test]
    fn vienna_messages_validate() {
        let g = generator();
        let xsd = crate::schema::messages::vienna_xsd();
        let mut dirty_seen = 0;
        for m in 0..50 {
            let doc = g.vienna_message(0, m);
            // dirty *values* (unmapped priority) violate the enum facet;
            // that's intended — they flow to the CDB and die in cleansing
            if xsd.is_valid(&doc) {
                // fine
            } else {
                dirty_seen += 1;
            }
        }
        assert!(
            dirty_seen < 15,
            "too many dirty vienna messages: {dirty_seen}"
        );
    }
}
