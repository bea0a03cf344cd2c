//! Static validation of process definitions.
//!
//! Catches definition bugs before deployment: variables read before they
//! are bound, RECEIVE steps in the wrong place, empty structured operators.
//! Branch semantics: SWITCH/VALIDATE execute *one* branch, so only
//! variables bound in **every** branch are guaranteed afterwards; FORK
//! executes **all** branches concurrently, so their bindings union — and
//! no two of them may bind the same name, or the join would have to pick.

use crate::error::{MtmError, MtmResult};
use crate::process::{EventType, Nested, ProcessDef, Step};
use std::collections::HashSet;

/// Validate a process definition.
pub fn validate(def: &ProcessDef) -> MtmResult<()> {
    walk(def, &def.steps, &mut Scope::default(), true)
}

/// What is known at one point of a step list.
#[derive(Default)]
struct Scope {
    /// Variables guaranteed to be bound here.
    defined: HashSet<String>,
    /// Variables this step list may have bound (or rebound) so far.
    bound: HashSet<String>,
}

impl Scope {
    fn bind(&mut self, var: &str) {
        self.defined.insert(var.to_string());
        self.bound.insert(var.to_string());
    }

    /// The scope a nested step list starts from.
    fn branch(&self) -> Scope {
        Scope {
            defined: self.defined.clone(),
            bound: HashSet::new(),
        }
    }

    /// Continue after a SWITCH/VALIDATE of which exactly one alternative
    /// ran: only what all of them define is defined, anything one of them
    /// binds may be bound.
    fn join_alternatives(&mut self, alternatives: Vec<Scope>) {
        let mut alternatives = alternatives.into_iter();
        let Some(first) = alternatives.next() else {
            return;
        };
        let mut common = first.defined;
        self.bound.extend(first.bound);
        for alt in alternatives {
            common.retain(|v| alt.defined.contains(v));
            self.bound.extend(alt.bound);
        }
        self.defined.extend(common);
    }
}

fn err(def: &ProcessDef, msg: String) -> MtmError {
    MtmError::InvalidProcess(format!("{}: {msg}", def.id))
}

/// The rules about a step's shape rather than its data flow. `first`:
/// the step opens the process's top-level step list.
fn shape_error(def: &ProcessDef, step: &Step, first: bool) -> Option<&'static str> {
    Some(match step {
        Step::Receive { .. } if def.event != EventType::Message => {
            "RECEIVE in a time-scheduled process"
        }
        Step::Receive { .. } if !first => "RECEIVE must be the first step",
        Step::Switch { cases, .. } if cases.is_empty() => "SWITCH with no cases",
        Step::Projection { exprs, .. } if exprs.is_empty() => "PROJECTION with no output columns",
        Step::UnionDistinct { inputs, .. } if inputs.is_empty() => "UNION DISTINCT with no inputs",
        Step::Join {
            left_keys,
            right_keys,
            ..
        } if left_keys.len() != right_keys.len() => "JOIN key arity mismatch",
        Step::Fork { branches } if branches.len() < 2 => "FORK needs at least two branches",
        _ => return None,
    })
}

/// Every step requires what it reads, combines its nested lists by their
/// kind, and binds what it binds ([`Step::facts`]).
fn walk(def: &ProcessDef, steps: &[Step], scope: &mut Scope, top_level: bool) -> MtmResult<()> {
    for (i, step) in steps.iter().enumerate() {
        if let Some(broken) = shape_error(def, step, top_level && i == 0) {
            return Err(err(def, broken.into()));
        }
        let facts = step.facts();
        if let Some(var) = facts.reads.iter().find(|v| !scope.defined.contains(**v)) {
            let msg = format!("{step:?} reads {var} before it is bound");
            return Err(err(def, msg));
        }
        match facts.nested {
            None => {}
            Some(Nested::Alternatives(lists)) => {
                let mut alternatives = Vec::new();
                for (_, steps) in lists {
                    let mut s = scope.branch();
                    walk(def, steps, &mut s, false)?;
                    alternatives.push(s);
                }
                scope.join_alternatives(alternatives);
            }
            Some(Nested::Parallel(lists)) => {
                let mut joined = Scope::default();
                for (_, steps) in lists {
                    let mut s = scope.branch();
                    walk(def, steps, &mut s, false)?;
                    if let Some(var) = s.bound.intersection(&joined.bound).min() {
                        return Err(err(def, format!("two FORK branches bind {var}")));
                    }
                    joined.defined.extend(s.defined);
                    joined.bound.extend(s.bound);
                }
                scope.defined.extend(joined.defined);
                scope.bound.extend(joined.bound);
            }
            Some(Nested::Call(process)) => {
                let mut sub = Scope::default();
                if !facts.reads.is_empty() {
                    sub.bind("input");
                }
                walk(process, &process.steps, &mut sub, false)?;
                if !facts.binds.is_empty() && !sub.defined.contains("output") {
                    let msg = format!("subprocess {} never binds 'output'", process.id);
                    return Err(err(def, msg));
                }
            }
        }
        for var in facts.binds {
            scope.bind(var);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MtmMessage;
    use crate::process::AssignValue;
    use dip_relstore::prelude::*;
    use std::sync::Arc;

    fn assign(var: &str) -> Step {
        Step::Assign {
            var: var.into(),
            value: AssignValue::Const(MtmMessage::Scalar(Value::Int(1))),
        }
    }

    #[test]
    fn unbound_read_rejected() {
        let def = ProcessDef::new(
            "PX",
            "x",
            'A',
            EventType::Timed,
            vec![Step::Selection {
                input: "missing".into(),
                predicate: Expr::lit(true),
                output: "o".into(),
            }],
        );
        assert!(validate(&def).is_err());
    }

    #[test]
    fn receive_only_first_in_message_process() {
        let ok = ProcessDef::new(
            "P1",
            "x",
            'A',
            EventType::Message,
            vec![Step::Receive { var: "m".into() }],
        );
        assert!(validate(&ok).is_ok());
        let late = ProcessDef::new(
            "P2",
            "x",
            'A',
            EventType::Message,
            vec![assign("a"), Step::Receive { var: "m".into() }],
        );
        assert!(validate(&late).is_err());
        let timed = ProcessDef::new(
            "P3",
            "x",
            'A',
            EventType::Timed,
            vec![Step::Receive { var: "m".into() }],
        );
        assert!(validate(&timed).is_err());
    }

    #[test]
    fn switch_branch_bindings_intersect() {
        // var "x" bound in only one branch must not be readable after
        let def = ProcessDef::new(
            "P4",
            "x",
            'A',
            EventType::Timed,
            vec![
                assign("sel"),
                Step::Switch {
                    input: "sel".into(),
                    path: String::new(),
                    cases: vec![
                        crate::process::SwitchCase {
                            when: Expr::col(0).lt(Expr::lit(10)),
                            steps: vec![assign("x")],
                        },
                        crate::process::SwitchCase {
                            when: Expr::col(0).ge(Expr::lit(10)),
                            steps: vec![],
                        },
                    ],
                    default: vec![],
                },
                Step::Selection {
                    input: "x".into(),
                    predicate: Expr::lit(true),
                    output: "y".into(),
                },
            ],
        );
        assert!(validate(&def).is_err());
    }

    #[test]
    fn fork_branch_bindings_union() {
        let def = ProcessDef::new(
            "P5",
            "x",
            'D',
            EventType::Timed,
            vec![
                Step::Fork {
                    branches: vec![vec![assign("a")], vec![assign("b")]],
                },
                Step::Assign {
                    var: "c".into(),
                    value: AssignValue::CopyVar("a".into()),
                },
                Step::Assign {
                    var: "d".into(),
                    value: AssignValue::CopyVar("b".into()),
                },
            ],
        );
        assert!(validate(&def).is_ok());
    }

    #[test]
    fn fork_branches_must_bind_disjoint_names() {
        let fork = |branches| {
            ProcessDef::new(
                "P5b",
                "x",
                'D',
                EventType::Timed,
                vec![assign("x"), Step::Fork { branches }],
            )
        };
        // one branch may rebind what it inherited ...
        assert!(validate(&fork(vec![vec![assign("x")], vec![assign("y")]])).is_ok());
        // ... two may not bind the same name, new or inherited
        for clash in ["x", "z"] {
            let e = validate(&fork(vec![vec![assign(clash)], vec![assign(clash)]])).unwrap_err();
            assert!(
                e.to_string()
                    .contains(&format!("two FORK branches bind {clash}")),
                "{e}"
            );
        }
        // branches run concurrently: one cannot read what a sibling binds
        let reads_sibling = fork(vec![
            vec![assign("a")],
            vec![Step::Assign {
                var: "b".into(),
                value: AssignValue::CopyVar("a".into()),
            }],
        ]);
        assert!(validate(&reads_sibling).is_err());
    }

    #[test]
    fn fork_needs_two_branches() {
        let def = ProcessDef::new(
            "P6",
            "x",
            'D',
            EventType::Timed,
            vec![Step::Fork {
                branches: vec![vec![assign("a")]],
            }],
        );
        assert!(validate(&def).is_err());
    }

    #[test]
    fn subprocess_validated_recursively() {
        let bad_sub = Arc::new(ProcessDef::new(
            "SUB",
            "s",
            'D',
            EventType::Timed,
            vec![Step::Selection {
                input: "nope".into(),
                predicate: Expr::lit(true),
                output: "o".into(),
            }],
        ));
        let def = ProcessDef::new(
            "P7",
            "x",
            'D',
            EventType::Timed,
            vec![Step::Subprocess {
                process: bad_sub,
                input: None,
                output: None,
            }],
        );
        assert!(validate(&def).is_err());
    }
}
