//! The declarative engine registry.
//!
//! One [`EngineSpec`] per system under test. The CLI resolves `--engine`
//! values, usage strings and display labels here and `dipbench compare`
//! walks it, so adding an engine is one table entry plus a crate
//! dependency — no new `match` arms in `main.rs` (DESIGN.md, "How to add
//! an engine").

use crate::EngineKind;
use dip_feddbms::{FedDbms, FedOptions};
use dip_ivm::IvmSystem;
use dipbench::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

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

/// The registry: an ordered list of [`EngineSpec`]s (order is the order
/// engines appear in usage text and `compare` columns).
pub struct EngineRegistry {
    specs: Vec<EngineSpec>,
}

fn build_fed(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    Arc::new(FedDbms::new(env.world.clone(), FedOptions::default()))
}

fn build_fed_unopt(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    Arc::new(FedDbms::new(
        env.world.clone(),
        FedOptions {
            optimize_relational: false,
        },
    ))
}

fn build_mtm(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    Arc::new(MtmSystem::new(env.world.clone()))
}

fn build_eai(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    // The broker has no threads: the client's barriers run its one FIFO in
    // acceptance order, deterministic at any `config.workers`. The second
    // argument is unused.
    Arc::new(EaiSystem::new(env.world.clone(), 1))
}

fn build_ivm(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    Arc::new(IvmSystem::new(env.world.clone()))
}

impl EngineRegistry {
    /// A registry of exactly these engines, in presentation order.
    pub fn new(specs: Vec<EngineSpec>) -> EngineRegistry {
        EngineRegistry { specs }
    }

    /// The built-in engines, in presentation order.
    pub fn builtin() -> &'static EngineRegistry {
        static REGISTRY: OnceLock<EngineRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| EngineRegistry {
            specs: vec![
                EngineSpec {
                    kind: EngineKind::Federated,
                    tag: "fed",
                    aliases: &["federated"],
                    label: "federated-dbms",
                    description: "federated-DBMS reference implementation (default)",
                    crash_capable: true,
                    build: build_fed,
                },
                EngineSpec {
                    kind: EngineKind::Mtm,
                    tag: "mtm",
                    aliases: &[],
                    label: "mtm-engine",
                    description: "native message-transformation-model engine",
                    crash_capable: true,
                    build: build_mtm,
                },
                EngineSpec {
                    kind: EngineKind::FederatedUnoptimized,
                    tag: "fed-unopt",
                    aliases: &[],
                    label: "federated-dbms (no optimizer)",
                    description: "federated engine with the relational optimizer disabled",
                    crash_capable: true,
                    build: build_fed_unopt,
                },
                EngineSpec {
                    kind: EngineKind::Eai,
                    tag: "eai",
                    aliases: &[],
                    label: "eai-server",
                    description: "asynchronous EAI-broker-style engine",
                    crash_capable: false,
                    build: build_eai,
                },
                EngineSpec {
                    kind: EngineKind::Ivm,
                    tag: "ivm",
                    aliases: &[],
                    label: "ivm-engine",
                    description: "incremental view maintenance over change-capture logs",
                    crash_capable: true,
                    build: build_ivm,
                },
            ],
        })
    }

    pub fn specs(&self) -> &[EngineSpec] {
        &self.specs
    }

    /// Resolve an `--engine` value by tag or alias.
    pub fn resolve(&self, name: &str) -> Option<&EngineSpec> {
        self.specs
            .iter()
            .find(|s| s.tag == name || s.aliases.contains(&name))
    }

    /// The spec for a kind (every kind is registered; this cannot miss).
    pub fn spec_of(&self, kind: EngineKind) -> &EngineSpec {
        self.specs
            .iter()
            .find(|s| s.kind == kind)
            .expect("every EngineKind is registered")
    }

    /// Pipe-joined tag list for usage text, e.g. `fed|mtm|fed-unopt|eai|ivm`.
    pub fn usage_tags(&self) -> String {
        let tags: Vec<&str> = self.specs.iter().map(|s| s.tag).collect();
        tags.join("|")
    }

    /// Tag list restricted to crash-capable engines.
    pub fn crash_usage_tags(&self) -> String {
        let tags: Vec<&str> = self
            .specs
            .iter()
            .filter(|s| s.crash_capable)
            .map(|s| s.tag)
            .collect();
        tags.join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_spec_and_tags_are_unique() {
        let reg = EngineRegistry::builtin();
        let mut tags: Vec<&str> = reg.specs().iter().map(|s| s.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), reg.specs().len(), "duplicate engine tags");
        for spec in reg.specs() {
            assert_eq!(reg.spec_of(spec.kind).tag, spec.tag);
        }
    }

    #[test]
    fn usage_lists_are_registry_driven() {
        let reg = EngineRegistry::builtin();
        assert_eq!(reg.usage_tags(), "fed|mtm|fed-unopt|eai|ivm");
        // eai acks before effect: excluded from the crash gate
        assert_eq!(reg.crash_usage_tags(), "fed|mtm|fed-unopt|ivm");
    }
}
