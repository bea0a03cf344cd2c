//! `benchmark/` is a Cargo package of its own with a committed
//! `Cargo.lock`, built `--offline` from the crates under test. Cargo
//! rewrites that lockfile without a word when a crate's `[dependencies]`
//! change, and the build still succeeds, so a dropped or added dependency
//! would silently edit a file the benchmark keeps frozen. This test turns
//! that drift into a failure: every workspace crate the lockfile lists must
//! list exactly the keys of that crate's `[dependencies]` table.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// `name → dependency names` of every `[[package]]` in a `Cargo.lock`.
fn lock_packages(lock: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut packages = BTreeMap::new();
    for entry in lock.split("[[package]]").skip(1) {
        let mut name = None;
        let mut deps = BTreeSet::new();
        let mut in_deps = false;
        for line in entry.lines().map(str::trim) {
            if in_deps {
                match line {
                    "]" => in_deps = false,
                    dep => {
                        deps.insert(dep.trim_end_matches(',').trim_matches('"').to_string());
                    }
                }
            } else if let Some(value) = line.strip_prefix("name = ") {
                name = Some(value.trim_matches('"').to_string());
            } else if line == "dependencies = [" {
                in_deps = true;
            }
        }
        packages.insert(name.expect("[[package]] without a name"), deps);
    }
    packages
}

/// The `[package]` name and the `[dependencies]` keys of a `Cargo.toml`.
fn manifest(toml: &str) -> (String, BTreeSet<String>) {
    let (mut name, mut deps) = (None, BTreeSet::new());
    let mut section = "";
    for line in toml.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line;
        } else if section == "[package]" {
            if let Some(value) = line.strip_prefix("name = ") {
                name = Some(value.trim_matches('"').to_string());
            }
        } else if section == "[dependencies]" {
            // `key.workspace = true` or `key = ...`
            let key = line.split(['.', '=', ' ']).next().unwrap_or(line);
            deps.insert(key.to_string());
        }
    }
    (name.expect("manifest without a [package] name"), deps)
}

#[test]
fn frozen_benchmark_lockfile_matches_every_workspace_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = fs::read_to_string(root.join("benchmark/Cargo.lock")).unwrap();
    let locked = lock_packages(&lock);

    // the workspace members: `crates/*` and `shims/*` (root Cargo.toml)
    let mut crates = BTreeMap::new();
    for dir in ["crates", "shims"] {
        for member in fs::read_dir(root.join(dir)).unwrap() {
            let path = member.unwrap().path().join("Cargo.toml");
            if let Ok(toml) = fs::read_to_string(&path) {
                let (name, deps) = manifest(&toml);
                crates.insert(name, deps);
            }
        }
    }

    assert!(locked.contains_key("dip-bench"), "{locked:?}");
    for (name, deps) in &locked {
        // the benchmark's own package is the only one outside the workspace
        if name == "dip-benchmark" {
            continue;
        }
        let declared = crates.get(name).unwrap_or_else(|| {
            panic!("benchmark/Cargo.lock lists {name}, which is no workspace crate")
        });
        assert_eq!(
            deps, declared,
            "benchmark/Cargo.lock lists other dependencies for {name} than its \
             Cargo.toml declares: building benchmark/ would rewrite the lockfile"
        );
    }
}
