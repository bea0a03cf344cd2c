//! The 15 DIPBench process types (paper Table I), defined as MTM process
//! graphs.
//!
//! | Group | ID  | Name |
//! |-------|-----|------|
//! | A | P01 | Master data exchange Asia |
//! | A | P02 | Master data subscription Europe |
//! | A | P03 | Local data consolidation America |
//! | B | P04 | Receive messages from Vienna |
//! | B | P05 | Extract data from Berlin |
//! | B | P06 | Extract data from Paris |
//! | B | P07 | Extract data from Trondheim |
//! | B | P08 | Receive messages from Hongkong |
//! | B | P09 | Extract wrapped data from Beijing and Seoul |
//! | B | P10 | Receive error-prone messages from San Diego |
//! | B | P11 | Extract data from CDB America |
//! | C | P12 | Bulk-loading data warehouse master data |
//! | C | P13 | Bulk-loading data warehouse movement data |
//! | D | P14 | Refreshing data mart data |
//! | D | P15 | Refreshing data mart materialized views |
//!
//! The modeled processes are deliberately *suboptimal*, exactly as the
//! paper specifies ("we explicitly point out that the modeled processes
//! are suboptimal — this leaves enough space for optimizations").
//!
//! The table itself, P02's route and what the time-driven types move —
//! source tables, projections, target tables, load checks — are declared
//! once in [`catalog`]; the definitions here and the other engines'
//! realizations loop over it.

pub mod catalog;
mod group_a;
mod group_b;
mod group_c;
pub mod group_d;

pub use catalog::ProcessInfo;
use dip_mtm::process::ProcessDef;
use dip_relstore::prelude::*;
pub use group_a::{p01, p02, p03};
pub use group_b::{p04, p05, p06, p07, p08, p09, p10, p11};
pub use group_c::{p12, p13};
pub use group_d::{p14, p15};

/// The Table-I registry.
pub fn registry() -> Vec<ProcessInfo> {
    catalog::process_types().collect()
}

/// All 15 process definitions, in id order.
pub fn all_processes() -> Vec<ProcessDef> {
    vec![
        p01(),
        p02(),
        p03(),
        p04(),
        p05(),
        p06(),
        p07(),
        p08(),
        p09(),
        p10(),
        p11(),
        p12(),
        p13(),
        p14(),
        p15(),
    ]
}

// -----------------------------------------------------------------------
// Shared step-building helpers
// -----------------------------------------------------------------------

/// Pass column `idx` of the input through under a staging column name.
pub fn col_as(idx: usize, name: &str, ty: SqlType) -> ProjExpr {
    ProjExpr::new(Expr::col(idx), name, ty)
}

/// A constant projection column.
pub fn lit_as(v: Value, name: &str, ty: SqlType) -> ProjExpr {
    ProjExpr::new(Expr::Lit(v), name, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_mtm::process::EventType;
    use dip_mtm::validate::validate;

    #[test]
    fn registry_matches_table_i() {
        let reg = registry();
        assert_eq!(reg.len(), 15);
        assert_eq!(reg.iter().filter(|p| p.group == 'A').count(), 3);
        assert_eq!(reg.iter().filter(|p| p.group == 'B').count(), 8);
        assert_eq!(reg.iter().filter(|p| p.group == 'C').count(), 2);
        assert_eq!(reg.iter().filter(|p| p.group == 'D').count(), 2);
        // five message-driven (E1) types
        assert_eq!(
            reg.iter().filter(|p| p.event == EventType::Message).count(),
            5
        );
    }

    #[test]
    fn all_process_definitions_are_statically_valid() {
        let defs = all_processes();
        assert_eq!(defs.len(), 15);
        for (def, info) in defs.iter().zip(registry()) {
            assert_eq!(def.id, info.id);
            assert_eq!(def.group, info.group);
            assert_eq!(def.event, info.event);
            validate(def).unwrap_or_else(|e| panic!("{}: {e}", def.id));
        }
    }

    #[test]
    fn process_complexity_is_nontrivial() {
        // the data-intensive processes should be visibly bigger graphs
        let defs = all_processes();
        let steps = |id: &str| defs.iter().find(|d| d.id == id).unwrap().step_count();
        assert!(steps("P09") > steps("P08"), "P09 should dwarf P08");
        assert!(steps("P14") > 10);
        assert!(steps("P03") >= 12);
    }
}
