//! The engine table.
//!
//! One [`EngineSpec`] per system under test, in [`ENGINES`], indexed by
//! [`EngineKind`]. The CLI resolves `--engine` values, usage strings and
//! display labels here and `dipbench compare` walks it, so adding an
//! engine is one table entry, one `EngineKind` variant plus a crate
//! dependency — no new `match` arms in `main.rs` (DESIGN.md, "How to add
//! an engine").

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::EngineKind;
use dip_feddbms::{FedDbms, FedOptions};
use dip_ivm::IvmSystem;
use dipbench::prelude::*;
use std::sync::Arc;

/// Everything the harness needs to know about one system under test.
pub struct EngineSpec {
    pub kind: EngineKind,
    /// Canonical short tag: the `--engine` value and the `compare` column.
    pub tag: &'static str,
    /// Accepted `--engine` spellings besides the tag.
    pub aliases: &'static [&'static str],
    /// Human-readable label, reported as `RunOutcome::system`.
    pub label: &'static str,
    /// One-line description for `--help`.
    pub description: &'static str,
    /// Whether the crash/recovery gate applies: engines with asynchronous
    /// ack-before-effect delivery (the EAI broker) cannot give the
    /// byte-identity guarantee the gate checks.
    pub crash_capable: bool,
    /// Constructor over an environment's external world.
    pub build: fn(&BenchEnvironment) -> Arc<dyn IntegrationSystem>,
}

/// The built-in engines, at the index of their [`EngineKind`] — which is
/// also the order they appear in usage text and `compare` columns.
pub static ENGINES: [EngineSpec; 5] = [
    EngineSpec {
        kind: EngineKind::Federated,
        tag: "fed",
        aliases: &["federated"],
        label: "federated-dbms",
        description: "federated-DBMS reference implementation (default)",
        crash_capable: true,
        build: |env| Arc::new(FedDbms::new(env.world.clone(), FedOptions::default())),
    },
    EngineSpec {
        kind: EngineKind::Mtm,
        tag: "mtm",
        aliases: &[],
        label: "mtm-engine",
        description: "native message-transformation-model engine",
        crash_capable: true,
        build: |env| Arc::new(MtmSystem::new(env.world.clone())),
    },
    EngineSpec {
        kind: EngineKind::FederatedUnoptimized,
        tag: "fed-unopt",
        aliases: &[],
        label: "federated-dbms (no optimizer)",
        description: "federated engine with the relational optimizer disabled",
        crash_capable: true,
        build: |env| {
            let options = FedOptions {
                optimize_relational: false,
            };
            Arc::new(FedDbms::new(env.world.clone(), options))
        },
    },
    EngineSpec {
        kind: EngineKind::Eai,
        tag: "eai",
        aliases: &[],
        label: "eai-server",
        description: "asynchronous EAI-broker-style engine",
        crash_capable: false,
        // The broker has no threads: the client's barriers run its one FIFO
        // in acceptance order, deterministic at any `config.workers`. The
        // second argument is unused.
        build: |env| Arc::new(EaiSystem::new(env.world.clone(), 1)),
    },
    EngineSpec {
        kind: EngineKind::Ivm,
        tag: "ivm",
        aliases: &[],
        label: "ivm-engine",
        description: "incremental view maintenance over change-capture logs",
        crash_capable: true,
        build: |env| Arc::new(IvmSystem::new(env.world.clone())),
    },
];

/// Resolve an `--engine` value by tag or alias.
pub fn resolve(name: &str) -> Option<&'static EngineSpec> {
    ENGINES
        .iter()
        .find(|s| s.tag == name || s.aliases.contains(&name))
}

/// Pipe-joined tags of the engines `keep` admits, for usage text, e.g.
/// `fed|mtm|fed-unopt|eai|ivm`.
pub fn usage_tags(keep: fn(&EngineSpec) -> bool) -> String {
    let tags: Vec<&str> = ENGINES.iter().filter(|s| keep(s)).map(|s| s.tag).collect();
    tags.join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `EngineKind::spec` indexes the table by discriminant: entry `i`
    /// must be the kind whose discriminant is `i`.
    #[test]
    fn every_kind_has_a_spec_and_tags_are_unique() {
        for (i, spec) in ENGINES.iter().enumerate() {
            assert_eq!(spec.kind as usize, i, "{}", spec.tag);
            assert_eq!(spec.kind.spec().tag, spec.tag);
        }
        let mut tags: Vec<&str> = ENGINES.iter().map(|s| s.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ENGINES.len(), "duplicate engine tags");
    }

    #[test]
    fn usage_lists_are_registry_driven() {
        assert_eq!(usage_tags(|_| true), "fed|mtm|fed-unopt|eai|ivm");
        // eai acks before effect: excluded from the crash gate
        assert_eq!(usage_tags(|s| s.crash_capable), "fed|mtm|fed-unopt|ivm");
    }
}
