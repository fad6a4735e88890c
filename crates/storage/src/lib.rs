#![warn(missing_docs)]

//! # mp-storage
//!
//! In-memory relational storage substrate for the message-passing logical
//! query evaluation framework (Van Gelder, SIGMOD 1986).
//!
//! The paper's processes each "compute an intermediate relation, more or
//! less by standard relational algebra methods" (§1.2). This crate provides
//! exactly that substrate:
//!
//! * [`Value`] — the scalar domain: a copyable tagged word holding an
//!   integer or an interned symbol id (process-wide interner),
//! * [`Tuple`] — fixed-arity rows,
//! * [`Relation`] — duplicate-free, insertion-ordered sets of tuples
//!   stored once in an arena, with incrementally maintained [`KeyIndex`]
//!   hash indexes on arbitrary column subsets (the semi-join operands
//!   that class-`d` arguments require) and a lazily filled catalogue
//!   ([`ColumnSummary`] per column, shared indexes) for relations that
//!   are read many times between writes,
//! * [`ops`] — select / project / join / semijoin / union / difference,
//!   index-backed and sharing one probe kernel with the engine's
//!   pipelined per-tuple forms.
//!
//! Everything is deterministic: relations iterate in insertion order, and
//! all operators produce insertion-ordered output, so two runs over the
//! same inputs yield identical results. The simulated message-passing
//! runtime builds its reproducibility on that determinism.

pub mod fast_hash;
mod interner;
pub mod ops;
mod relation;
mod tuple;
mod value;

pub use fast_hash::{FastHasher, FastMap, FastSet};
pub use interner::{reserve_symbols, symbol_bytes, symbol_count};
pub use ops::{AggError, AggFunc};
pub use relation::{ColumnSummary, KeyIndex, Relation, Selection};
pub use tuple::Tuple;
pub use value::{Sym, Value};

/// Errors produced by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple's arity did not match the relation's arity.
    ArityMismatch {
        /// Arity the relation expects.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A column index was out of bounds for the relation's arity.
    ColumnOutOfBounds {
        /// The offending column index.
        column: usize,
        /// The relation's arity.
        arity: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            StorageError::ColumnOutOfBounds { column, arity } => {
                write!(f, "column {column} out of bounds for arity {arity}")
            }
        }
    }
}

impl std::error::Error for StorageError {}
