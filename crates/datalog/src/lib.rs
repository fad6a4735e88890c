#![warn(missing_docs)]

//! # mp-datalog
//!
//! Function-free Horn clause (Datalog) representation and analysis, per §1
//! of Van Gelder, "A Message Passing Framework for Logical Query
//! Evaluation" (SIGMOD 1986).
//!
//! The logical system consists of:
//!
//! * an **EDB** of ground atomic facts (here, a [`Database`] of
//!   `mp-storage` relations),
//! * a **PIDB** of Horn rules containing no positive occurrence of an EDB
//!   predicate and no occurrence of the distinguished predicate `goal`,
//! * a **query**: rules whose head is `goal`, which appears positively
//!   nowhere else.
//!
//! This crate provides the AST ([`Term`], [`Atom`], [`Rule`], [`Program`]),
//! a Prolog-style text [`parser`], substitution/unification/variant
//! machinery ([`unify`]), the paper's §1 well-formedness checks
//! ([`Program::validate`]), and predicate-level dependency analysis
//! ([`analysis`]: recursion, linearity, relevance).

pub mod analysis;
mod ast;
mod database;
pub mod parser;
mod program;
mod span;
pub mod unify;

pub use ast::{AggFunc, AggSpec, Atom, Predicate, Rule, Term, Var};
pub use database::Database;
pub use program::Program;
pub use span::{SourceMap, Span};

/// The distinguished query predicate name (§1 of the paper).
pub const GOAL: &str = "goal";

/// Errors arising while parsing, building, or validating programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// Parse error with position and message.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A rule's head variable does not occur in its body (unsafe rule).
    UnsafeRule {
        /// Offending rule, rendered.
        rule: String,
        /// The variable that is not range-restricted.
        var: String,
    },
    /// An EDB predicate occurs in a rule head (violates the §1 PIDB
    /// condition that the IDB contains no positive EDB occurrence).
    EdbPredicateInHead {
        /// The predicate name.
        pred: String,
    },
    /// The `goal` predicate occurs in a rule body (violates §1).
    GoalInBody,
    /// The program defines no `goal` rule, so there is no query.
    NoQuery,
    /// A predicate is used with inconsistent arities.
    ArityConflict {
        /// The predicate name.
        pred: String,
        /// One observed arity.
        a: usize,
        /// A conflicting observed arity.
        b: usize,
    },
    /// A fact contains a variable.
    NonGroundFact {
        /// Rendered atom.
        atom: String,
    },
    /// The program admits no stratification: a negated or aggregate
    /// dependency occurs inside a recursive cycle, so no perfect model
    /// exists.
    Unstratifiable {
        /// A predicate on the offending cycle.
        pred: String,
    },
}

impl std::fmt::Display for DatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatalogError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            DatalogError::UnsafeRule { rule, var } => {
                write!(f, "unsafe rule (head variable {var} not in body): {rule}")
            }
            DatalogError::EdbPredicateInHead { pred } => {
                write!(f, "EDB predicate {pred} occurs in a rule head")
            }
            DatalogError::GoalInBody => write!(f, "`goal` may not occur in a rule body"),
            DatalogError::NoQuery => write!(f, "program has no `goal` rule"),
            DatalogError::ArityConflict { pred, a, b } => {
                write!(f, "predicate {pred} used with arities {a} and {b}")
            }
            DatalogError::NonGroundFact { atom } => {
                write!(f, "fact contains a variable: {atom}")
            }
            DatalogError::Unstratifiable { pred } => {
                write!(f, "program is not stratifiable (cycle through {pred})")
            }
        }
    }
}

impl std::error::Error for DatalogError {}
