//! Execution context: the per-instance variable store.

use crate::message::MtmMessage;
use std::collections::HashMap;

/// The variable bindings of one running process instance (`msg1`, `msg2`, …
/// in the paper's process figures).
#[derive(Debug, Default)]
pub struct VarStore {
    vars: HashMap<String, Binding>,
}

#[derive(Debug)]
struct Binding {
    value: MtmMessage,
    /// Bound through this store, not inherited by [`VarStore::fork`]: what
    /// a FORK branch hands back to its parent.
    own: bool,
}

impl VarStore {
    pub fn new() -> VarStore {
        VarStore::default()
    }

    pub fn set(&mut self, name: impl Into<String>, value: impl Into<MtmMessage>) {
        let value = value.into();
        self.vars.insert(name.into(), Binding { value, own: true });
    }

    pub fn get(&self, name: &str) -> Option<&MtmMessage> {
        self.vars.get(name).map(|b| &b.value)
    }

    pub fn take(&mut self, name: &str) -> Option<MtmMessage> {
        self.vars.remove(name).map(|b| b.value)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.vars.keys().map(String::as_str).collect()
    }

    /// The store a FORK branch runs over: it sees every binding of this
    /// one (payloads shared, not copied) and owns none yet.
    pub fn fork(&self) -> VarStore {
        let inherit = |(name, b): (&String, &Binding)| {
            let value = b.value.clone();
            (name.clone(), Binding { value, own: false })
        };
        VarStore {
            vars: self.vars.iter().map(inherit).collect(),
        }
    }

    /// Join a FORK branch: take over the bindings the branch created or
    /// changed, and only those — what it merely inherited may have been
    /// rebound by a sibling since. Sibling branches binding the same name
    /// are rejected by static validation; without it the later branch wins.
    pub fn merge(&mut self, branch: VarStore) {
        for (name, b) in branch.vars {
            if b.own {
                self.set(name, b.value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_relstore::value::Value;

    #[test]
    fn set_get_take_merge() {
        let mut v = VarStore::new();
        v.set("a", Value::Int(1));
        assert!(v.contains("a"));
        assert!(v.get("a").is_some());
        let mut w = VarStore::new();
        w.set("b", Value::Int(2));
        v.merge(w);
        assert!(v.contains("b"));
        assert!(v.take("a").is_some());
        assert!(!v.contains("a"));
    }

    #[test]
    fn merge_takes_only_what_the_branch_bound() {
        let mut parent = VarStore::new();
        parent.set("x", Value::Int(1));
        parent.set("y", Value::Int(1));
        let mut first = parent.fork();
        let mut second = parent.fork();
        assert_eq!(second.get("x"), parent.get("x"), "inherited");
        first.set("x", Value::Int(2));
        second.set("z", Value::Int(3));
        parent.merge(first);
        parent.merge(second);
        let int = |v: &VarStore, n: &str| v.get(n).and_then(|m| m.as_scalar().ok().cloned());
        assert_eq!(
            int(&parent, "x"),
            Some(Value::Int(2)),
            "not undone by second"
        );
        assert_eq!(int(&parent, "y"), Some(Value::Int(1)));
        assert_eq!(int(&parent, "z"), Some(Value::Int(3)));
    }
}
