//! The extensional database (EDB): named, fixed-arity relations of ground
//! facts, "viewed as a conventional relational database" (§1).

use crate::{Atom, DatalogError, Predicate};
use mp_storage::{Relation, Tuple};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The EDB: a map from predicate name to relation.
///
/// Relations are shared snapshots: `clone` is O(relations) — it bumps one
/// reference count per relation and copies no rows — and a write copies
/// only the relation it touches, and only while another clone still
/// holds it. To query one loaded database many times, clone it into each
/// engine: every clone reads the same rows and shares their lazily
/// filled catalogue ([`Relation::summary`], [`Relation::shared_index`]), so column
/// statistics and leaf indexes are computed once per database, not once
/// per query. A write drops the catalogue of the relation it changes.
///
/// Iteration over predicates is in name order (BTreeMap), keeping
/// everything downstream deterministic.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<Predicate, Arc<Relation>>,
}

fn arity_conflict(pred: &Predicate, a: usize, b: usize) -> DatalogError {
    DatalogError::ArityConflict {
        pred: pred.name().to_string(),
        a,
        b,
    }
}

/// Insert `tuples` into `rel`, counting the new ones, up to the first
/// tuple whose arity disagrees: then `Err((relation's arity, tuple's))`.
fn fill(rel: &mut Relation, tuples: impl Iterator<Item = Tuple>) -> Result<usize, (usize, usize)> {
    let mut new = 0;
    for t in tuples {
        let got = t.arity();
        // An arity mismatch is the only error `insert` raises.
        new += usize::from(rel.insert(t).map_err(|_| (rel.arity(), got))?);
    }
    Ok(new)
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Declare a relation with the given arity (idempotent; errors on
    /// conflicting arity).
    pub fn declare(
        &mut self,
        pred: impl Into<Predicate>,
        arity: usize,
    ) -> Result<(), DatalogError> {
        match self.relations.entry(pred.into()) {
            Entry::Occupied(e) if e.get().arity() != arity => {
                Err(arity_conflict(e.key(), e.get().arity(), arity))
            }
            Entry::Occupied(_) => Ok(()),
            Entry::Vacant(e) => {
                e.insert(Arc::new(Relation::new(arity)));
                Ok(())
            }
        }
    }

    /// Insert a fact tuple, declaring the relation if needed.
    /// Returns whether the tuple was new.
    pub fn insert(
        &mut self,
        pred: impl Into<Predicate>,
        tuple: Tuple,
    ) -> Result<bool, DatalogError> {
        Ok(self.insert_all(pred, [tuple])? == 1)
    }

    /// Insert a batch of fact tuples into one relation, declaring it from
    /// the first tuple if needed: one map lookup and at most one
    /// copy-on-write per batch. Returns how many tuples were new. On an
    /// arity conflict the tuples before the offending one stay inserted.
    pub fn insert_all(
        &mut self,
        pred: impl Into<Predicate>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, DatalogError> {
        let mut tuples = tuples.into_iter().peekable();
        let Some(first) = tuples.peek() else {
            return Ok(0);
        };
        match self.relations.entry(pred.into()) {
            Entry::Occupied(mut e) => fill(Arc::make_mut(e.get_mut()), tuples)
                .map_err(|(a, b)| arity_conflict(e.key(), a, b)),
            Entry::Vacant(e) => {
                let pred = e.key().clone();
                let rel = e.insert(Arc::new(Relation::new(first.arity())));
                fill(Arc::make_mut(rel), tuples).map_err(|(a, b)| arity_conflict(&pred, a, b))
            }
        }
    }

    /// Insert a ground atom as a fact.
    pub fn insert_atom(&mut self, atom: &Atom) -> Result<bool, DatalogError> {
        let tuple = atom.to_tuple().ok_or_else(|| DatalogError::NonGroundFact {
            atom: atom.to_string(),
        })?;
        self.insert(atom.pred.clone(), tuple)
    }

    /// Bulk-load ground atoms, pre-sizing the process-wide symbol
    /// interner for the load. Returns how many facts were new. Each run
    /// of consecutive same-predicate atoms is one [`Database::insert_all`]
    /// batch; on an error the facts before the offending one stay loaded.
    ///
    /// Symbols in atoms that came through the parser are interned at
    /// parse time, so for those the reservation is a no-op; programmatic
    /// loads that mint string values while building atoms get one
    /// pre-sized table instead of repeated rehashes mid-load
    /// (over-estimating is harmless — see
    /// [`mp_storage::reserve_symbols`]).
    pub fn bulk_insert_atoms<'a>(
        &mut self,
        atoms: impl IntoIterator<Item = &'a Atom>,
    ) -> Result<usize, DatalogError> {
        let atoms: Vec<&Atom> = atoms.into_iter().collect();
        let sym_terms: usize = atoms
            .iter()
            .map(|a| {
                a.terms
                    .iter()
                    .filter(|t| t.as_const().is_some_and(|v| v.as_str().is_some()))
                    .count()
            })
            .sum();
        mp_storage::reserve_symbols(sym_terms);
        let mut new = 0;
        let mut rest = atoms.as_slice();
        while let Some(first) = rest.first() {
            let len = rest.iter().take_while(|a| a.pred == first.pred).count();
            let (run, tail) = rest.split_at(len);
            rest = tail;
            let mut non_ground = None;
            let tuples = run.iter().map_while(|a| {
                let t = a.to_tuple();
                if t.is_none() {
                    non_ground = Some(*a);
                }
                t
            });
            new += self.insert_all(first.pred.clone(), tuples)?;
            if let Some(atom) = non_ground {
                return Err(DatalogError::NonGroundFact {
                    atom: atom.to_string(),
                });
            }
        }
        Ok(new)
    }

    /// The relation for a predicate, if present.
    pub fn relation(&self, pred: &Predicate) -> Option<&Relation> {
        self.relations.get(pred).map(|r| &**r)
    }

    /// The shared snapshot behind [`Database::relation`]: clone the `Arc`
    /// to keep reading these rows (and their catalogue) without copying
    /// them, whatever the database is changed to afterwards.
    pub fn shared_relation(&self, pred: &Predicate) -> Option<&Arc<Relation>> {
        self.relations.get(pred)
    }

    /// True if the predicate is an EDB predicate of this database.
    pub fn contains_pred(&self, pred: &Predicate) -> bool {
        self.relations.contains_key(pred)
    }

    /// Iterate (predicate, relation) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Predicate, &Relation)> + '_ {
        self.relations.iter().map(|(p, r)| (p, &**r))
    }

    /// All EDB predicate names, in order.
    pub fn predicates(&self) -> impl Iterator<Item = &Predicate> + '_ {
        self.relations.keys()
    }

    /// Total number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Term;
    use mp_storage::tuple;

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::new();
        assert!(db.insert("edge", tuple![1, 2]).unwrap());
        assert!(!db.insert("edge", tuple![1, 2]).unwrap());
        assert!(db.insert("edge", tuple![2, 3]).unwrap());
        let rel = db.relation(&Predicate::new("edge")).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(db.fact_count(), 2);
        assert!(db.contains_pred(&Predicate::new("edge")));
        assert!(!db.contains_pred(&Predicate::new("nope")));
    }

    #[test]
    fn arity_conflicts_rejected() {
        let mut db = Database::new();
        db.insert("p", tuple![1, 2]).unwrap();
        assert!(matches!(
            db.insert("p", tuple![1]),
            Err(DatalogError::ArityConflict { .. })
        ));
        assert!(db.declare("p", 2).is_ok());
        assert!(db.declare("p", 3).is_err());
    }

    #[test]
    fn bulk_insert_counts_new_facts_only() {
        let mut db = Database::new();
        let facts = vec![
            Atom::new("likes", vec![Term::val("ann"), Term::val("bo")]),
            Atom::new("likes", vec![Term::val("bo"), Term::val("cy")]),
            Atom::new("likes", vec![Term::val("ann"), Term::val("bo")]),
        ];
        assert_eq!(db.bulk_insert_atoms(&facts).unwrap(), 2);
        assert_eq!(db.fact_count(), 2);
        // Symbols from the load resolve through the interner.
        assert!(mp_storage::symbol_count() >= 3);
    }

    #[test]
    fn insert_all_batches_and_keeps_the_prefix_on_conflict() {
        let mut db = Database::new();
        assert_eq!(db.insert_all("p", Vec::new()).unwrap(), 0);
        assert!(!db.contains_pred(&Predicate::new("p")), "nothing declared");
        let batch = vec![tuple![1, 2], tuple![3, 4], tuple![1, 2]];
        assert_eq!(db.insert_all("p", batch).unwrap(), 2);
        let err = db.insert_all("p", vec![tuple![5, 6], tuple![7], tuple![8, 9]]);
        assert_eq!(
            err,
            Err(DatalogError::ArityConflict {
                pred: "p".into(),
                a: 2,
                b: 1
            })
        );
        let p = db.relation(&Predicate::new("p")).unwrap();
        assert_eq!(p.rows(), &[tuple![1, 2], tuple![3, 4], tuple![5, 6]]);
    }

    #[test]
    fn bulk_insert_keeps_facts_before_a_non_ground_one() {
        let mut db = Database::new();
        let facts = vec![
            Atom::new("p", vec![Term::val(1)]),
            Atom::new("q", vec![Term::val(2)]),
            Atom::new("q", vec![Term::var("X")]),
            Atom::new("q", vec![Term::val(3)]),
        ];
        assert!(matches!(
            db.bulk_insert_atoms(&facts),
            Err(DatalogError::NonGroundFact { .. })
        ));
        assert_eq!(db.fact_count(), 2);
    }

    #[test]
    fn clones_share_rows_until_one_is_written() {
        let edge = Predicate::new("edge");
        let node = Predicate::new("node");
        let mut db = Database::new();
        db.insert_all("edge", vec![tuple![1, 2], tuple![2, 3]])
            .unwrap();
        db.insert("node", tuple![1]).unwrap();
        let mut copy = db.clone();
        let shared = |a: &Database, b: &Database, p: &Predicate| {
            Arc::ptr_eq(a.shared_relation(p).unwrap(), b.shared_relation(p).unwrap())
        };
        assert!(shared(&db, &copy, &edge) && shared(&db, &copy, &node));

        // Fill the original's catalogue, then write to the clone.
        let idx = db.relation(&edge).unwrap().shared_index(&[0]).unwrap();
        assert_eq!(db.relation(&edge).unwrap().summary()[0].distinct(), 2);
        assert!(copy.insert("edge", tuple![3, 4]).unwrap());
        assert!(
            !shared(&db, &copy, &edge),
            "the written relation was copied"
        );
        assert!(shared(&db, &copy, &node), "the others are still shared");
        let original = db.relation(&edge).unwrap();
        assert_eq!(original.rows(), &[tuple![1, 2], tuple![2, 3]]);
        assert_eq!(original.summary()[0].distinct(), 2);
        assert!(Arc::ptr_eq(&idx, &original.shared_index(&[0]).unwrap()));
        assert_eq!(copy.relation(&edge).unwrap().summary()[0].distinct(), 3);

        // And the other way round: writing the original leaves a clone
        // taken before the write as it was.
        let snapshot = db.clone();
        db.insert("edge", tuple![9, 9]).unwrap();
        assert_eq!(snapshot.relation(&edge).unwrap().len(), 2);
        assert_eq!(db.relation(&edge).unwrap().len(), 3);
        assert_eq!(db.relation(&edge).unwrap().summary()[0].distinct(), 3);
        // Declaring an existing relation copies nothing.
        db.declare("node", 1).unwrap();
        assert!(shared(&db, &copy, &node));
    }

    #[test]
    fn insert_atom_requires_ground() {
        let mut db = Database::new();
        let ok = Atom::new("p", vec![Term::val(1)]);
        assert!(db.insert_atom(&ok).unwrap());
        let bad = Atom::new("p", vec![Term::var("X")]);
        assert!(matches!(
            db.insert_atom(&bad),
            Err(DatalogError::NonGroundFact { .. })
        ));
    }
}
