//! Reference (dimension) data: regions, nations, cities, product lines and
//! groups. This data is identical in every target system and is preloaded
//! by the Initializer — only master and movement data flow through the
//! integration processes.

use dip_relstore::prelude::*;

/// A city with its dimension keys.
#[derive(Debug, Clone)]
pub struct CityRef {
    pub citykey: i64,
    pub name: &'static str,
    pub nationkey: i64,
}

/// The static dimension catalog.
#[derive(Debug, Clone)]
pub struct RefData {
    /// (regionkey, name)
    pub regions: Vec<(i64, &'static str)>,
    /// (nationkey, name, regionkey)
    pub nations: Vec<(i64, &'static str, i64)>,
    pub cities: Vec<CityRef>,
    /// (linekey, name)
    pub lines: Vec<(i64, &'static str)>,
    /// (groupkey, name, linekey)
    pub groups: Vec<(i64, &'static str, i64)>,
    /// The rows of the five dimension tables, built once from the lists
    /// above: every period's preload shares them.
    dim_rows: DimRows,
}

/// The dimension tables' rows, each table's in catalog order.
#[derive(Debug, Clone)]
struct DimRows {
    region: Vec<SharedRow>,
    nation: Vec<SharedRow>,
    city: Vec<SharedRow>,
    productline: Vec<SharedRow>,
    productgroup: Vec<SharedRow>,
}

pub const REGION_EUROPE: i64 = 1;
pub const REGION_ASIA: i64 = 2;
pub const REGION_AMERICA: i64 = 3;

impl RefData {
    pub fn standard() -> RefData {
        let regions = vec![
            (REGION_EUROPE, "Europe"),
            (REGION_ASIA, "Asia"),
            (REGION_AMERICA, "America"),
        ];
        let nations = vec![
            (10, "Germany", REGION_EUROPE),
            (11, "France", REGION_EUROPE),
            (12, "Norway", REGION_EUROPE),
            (13, "Austria", REGION_EUROPE),
            (20, "China", REGION_ASIA),
            (21, "Korea", REGION_ASIA),
            (22, "Japan", REGION_ASIA),
            (30, "United States", REGION_AMERICA),
            (31, "Canada", REGION_AMERICA),
        ];
        let city = |citykey, name, nationkey| CityRef {
            citykey,
            name,
            nationkey,
        };
        let cities = vec![
            city(100, "Berlin", 10),
            city(101, "Munich", 10),
            city(110, "Paris", 11),
            city(111, "Lyon", 11),
            city(120, "Trondheim", 12),
            city(121, "Oslo", 12),
            city(130, "Vienna", 13),
            city(200, "Beijing", 20),
            city(201, "Hongkong", 20),
            city(202, "Shanghai", 20),
            city(210, "Seoul", 21),
            city(211, "Busan", 21),
            city(220, "Tokyo", 22),
            city(300, "Chicago", 30),
            city(301, "Baltimore", 30),
            city(302, "Madison", 30),
            city(303, "San Diego", 30),
            city(304, "New York", 30),
            city(310, "Toronto", 31),
        ];
        let lines = vec![(1, "Hardware"), (2, "Software"), (3, "Services")];
        let groups = vec![
            (1, "Bolts", 1),
            (2, "Tools", 1),
            (3, "Apps", 2),
            (4, "Games", 2),
            (5, "Consulting", 3),
            (6, "Support", 3),
        ];
        let dim_rows = DimRows {
            region: (regions.iter())
                .map(|(k, n)| [Value::Int(*k), Value::str(*n)].into())
                .collect(),
            nation: (nations.iter())
                .map(|(k, n, r)| [Value::Int(*k), Value::str(*n), Value::Int(*r)].into())
                .collect(),
            city: (cities.iter())
                .map(|c| {
                    let row = [
                        Value::Int(c.citykey),
                        Value::str(c.name),
                        Value::Int(c.nationkey),
                    ];
                    row.into()
                })
                .collect(),
            productline: (lines.iter())
                .map(|(k, n)| [Value::Int(*k), Value::str(*n)].into())
                .collect(),
            productgroup: (groups.iter())
                .map(|(k, n, l)| [Value::Int(*k), Value::str(*n), Value::Int(*l)].into())
                .collect(),
        };
        RefData {
            regions,
            nations,
            cities,
            lines,
            groups,
            dim_rows,
        }
    }

    /// City names belonging to a region (used so each region's customers
    /// live in that region — the data marts are partitioned on this).
    pub fn cities_of_region(&self, regionkey: i64) -> Vec<&CityRef> {
        let nation_keys: Vec<i64> = self
            .nations
            .iter()
            .filter(|(_, _, r)| *r == regionkey)
            .map(|(k, _, _)| *k)
            .collect();
        self.cities
            .iter()
            .filter(|c| nation_keys.contains(&c.nationkey))
            .collect()
    }

    /// Region of a city name, if known.
    pub fn region_of_city(&self, city_name: &str) -> Option<i64> {
        let c = self.cities.iter().find(|c| c.name == city_name)?;
        self.nations
            .iter()
            .find(|(k, _, _)| *k == c.nationkey)
            .map(|(_, _, r)| *r)
    }

    /// Load the dimension tables of a target database (CDB, DWH, and the
    /// data marts that keep normalized dimensions).
    pub fn preload(&self, db: &Database) -> StoreResult<()> {
        let rows = &self.dim_rows;
        for (table, rows) in [
            ("region", &rows.region),
            ("nation", &rows.nation),
            ("city", &rows.city),
        ] {
            db.table(table)?.insert_ignore_duplicates(rows.clone())?;
        }
        self.preload_products(db)
    }

    /// Load only the product dimensions (`productline`, `productgroup`):
    /// what a mart without geographic dimensions keeps.
    pub fn preload_products(&self, db: &Database) -> StoreResult<()> {
        let rows = &self.dim_rows;
        for (table, rows) in [
            ("productline", &rows.productline),
            ("productgroup", &rows.productgroup),
        ] {
            db.table(table)?.insert_ignore_duplicates(rows.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_cities() {
        let r = RefData::standard();
        let eu = r.cities_of_region(REGION_EUROPE);
        assert!(eu.iter().any(|c| c.name == "Berlin"));
        assert!(!eu.iter().any(|c| c.name == "Chicago"));
        assert_eq!(r.region_of_city("Seoul"), Some(REGION_ASIA));
        assert_eq!(r.region_of_city("Atlantis"), None);
        // every city belongs to exactly one region
        let total: usize = [REGION_EUROPE, REGION_ASIA, REGION_AMERICA]
            .iter()
            .map(|&k| r.cities_of_region(k).len())
            .sum();
        assert_eq!(total, r.cities.len());
    }

    #[test]
    fn preload_fills_dimensions() {
        let r = RefData::standard();
        let db = Database::new("x");
        crate::schema::canonical::create_dimension_tables(&db).unwrap();
        r.preload(&db).unwrap();
        assert_eq!(db.table("region").unwrap().row_count(), 3);
        assert_eq!(db.table("city").unwrap().row_count(), r.cities.len());
        // idempotent
        r.preload(&db).unwrap();
        assert_eq!(db.table("city").unwrap().row_count(), r.cities.len());
    }
}
