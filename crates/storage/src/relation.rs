//! Duplicate-free, insertion-ordered relations with incrementally
//! maintained hash indexes over column-major storage.
//!
//! Deletion of duplicates is load-bearing in the paper: "Detection of
//! duplicates is necessary to allow loops to terminate" (§3.1). Every
//! relation here is a set; [`Relation::insert`] reports whether the tuple
//! was genuinely new, which is exactly the signal nodes use to decide
//! whether to forward an answer tuple.
//!
//! Rows are stored twice, deliberately:
//!
//! * a row arena (`Vec<Tuple>`) keeps the `Arc<[Value]>` tuple view the
//!   message plane ships — cloning a row out of the arena is a refcount
//!   bump, and
//! * a column-major mirror (one `Vec<Value>` per column of interned
//!   tagged words) feeds the scan, probe-verification, and batched
//!   key-hashing kernels with contiguous slices — no per-row `Arc`
//!   dereference, no pointer chasing, in the hot loops.
//!
//! The dedup structure and every [`KeyIndex`] hold `u32` row ids into the
//! arena and store *hashes*, not keys: candidates are verified against
//! the column mirror, so a tuple's values are never stored a third time
//! and indexes stay valid as rows are appended. A bucket keeps its first
//! id inline (`Ids`), so filing a row allocates only on a real hash
//! collision, and [`Relation::insert_values`] checks a borrowed value
//! slice, so a duplicate costs no allocation at all.
//!
//! A relation also carries a **catalogue**: per-column summaries
//! ([`Relation::summary`]) and hash indexes on requested column sets
//! ([`Relation::shared_index`]), both filled lazily through `&self` and
//! dropped by the next write. It is what lets a relation that many
//! queries read (an EDB relation behind an `Arc`) be analysed and indexed
//! once instead of once per query.

use crate::fast_hash::{fold_key_word, FastMap, FastSet};
use crate::{FastHasher, StorageError, Tuple, Value};
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Fold a probe key into the `u64` bucket hash all key indexes share.
/// The fold must match [`Relation::key_hashes`] word for word: the
/// batched per-column pass and the per-key pass land in the same bucket.
#[inline]
pub(crate) fn key_hash(key: &[Value]) -> u64 {
    key.iter().fold(0, |h, v| fold_key_word(h, v.key_word()))
}

/// A set of same-arity tuples, iterated in insertion order.
///
/// The relation owns its rows in an arena (plus the column-major mirror)
/// and maintains, on demand, hash indexes over arbitrary column sets
/// ([`Relation::ensure_index`]) that are updated incrementally on every
/// [`Relation::insert`]. Rule nodes store their subgoals' temporary
/// relations (§3.1) and probe them by `d`-column values on every
/// arriving tuple; prepared indexes keep those probes O(1) amortized as
/// tuples trickle in.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    rows: Vec<Tuple>,
    /// Column-major mirror of `rows`: `cols[c][i] == rows[i][c]`. The
    /// scan and verification kernels loop over these contiguous slices.
    cols: Vec<Vec<Value>>,
    /// Dedup set: row hash → ids of rows with that hash. Holds ids, not
    /// cloned tuples; candidates are verified against the arena. Keys
    /// are interned engine data, so the deterministic [`FastHasher`]
    /// replaces SipHash on this hottest of paths.
    dedup: FastMap<u64, Ids>,
    /// Hash state used to fold a row into the `u64` dedup key.
    state: BuildHasherDefault<FastHasher>,
    /// Prepared indexes by column list. Every probe looks its index up
    /// here, and `push_row` walks them in map order, so the map uses the
    /// deterministic [`FastHasher`] too.
    indexes: FastMap<Vec<usize>, KeyIndex>,
    catalogue: Catalogue,
}

/// What one column of a relation holds, computed in one hashing pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnSummary {
    /// The column's distinct values, sorted (integers before symbols).
    pub values: Vec<Value>,
    /// The largest number of rows sharing one value of this column (0 on
    /// an empty relation). Read as a graph edge set, a binary relation's
    /// column 0 gives its max out-degree and column 1 its max in-degree.
    pub max_multiplicity: usize,
}

impl ColumnSummary {
    fn of(col: &[Value]) -> ColumnSummary {
        let mut counts: FastMap<Value, usize> = FastMap::default();
        for &v in col {
            *counts.entry(v).or_insert(0) += 1;
        }
        let max_multiplicity = counts.values().copied().max().unwrap_or(0);
        let mut values: Vec<Value> = counts.into_keys().collect();
        values.sort_unstable();
        ColumnSummary {
            values,
            max_multiplicity,
        }
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.values.len()
    }

    /// True when the column holds at least one integer.
    pub fn has_ints(&self) -> bool {
        matches!(self.values.first(), Some(Value::Int(_)))
    }

    /// True when the column holds at least one symbol.
    pub fn has_syms(&self) -> bool {
        matches!(self.values.last(), Some(Value::Str(_)))
    }
}

/// The standing selection of an atom with constants and repeated
/// variables: the rows holding each constant at its column and equal
/// values at each column pair. The empty selection keeps every row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Selection {
    /// `(column, value)`: the column must hold the value.
    pub consts: Vec<(usize, Value)>,
    /// `(a, b)`: columns `a` and `b` must hold equal values.
    pub eqs: Vec<(usize, usize)>,
}

impl Selection {
    /// True when every row is selected.
    pub fn is_empty(&self) -> bool {
        self.consts.is_empty() && self.eqs.is_empty()
    }
}

/// The lazily filled, write-invalidated memo of a [`Relation`].
///
/// Both parts are pure functions of the rows, so it does not matter which
/// reader fills them: the first to ask computes, readers asking meanwhile
/// wait for it, and all see the same value. A copy starts empty — the
/// engine copies an EDB relation only to write to it, which would drop
/// the memo anyway.
#[derive(Debug, Default)]
struct Catalogue {
    summary: OnceLock<Vec<ColumnSummary>>,
    indexes: Mutex<FastMap<Vec<usize>, Arc<KeyIndex>>>,
}

impl Clone for Catalogue {
    fn clone(&self) -> Self {
        Catalogue::default()
    }
}

impl Catalogue {
    /// Forget everything; called on every row actually added. On a
    /// relation that never filled its catalogue (every node-local
    /// temporary relation) this is two flag loads.
    fn reset(&mut self) {
        self.summary.take();
        self.indexes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            rows: Vec::new(),
            cols: vec![Vec::new(); arity],
            dedup: FastMap::default(),
            state: BuildHasherDefault::default(),
            indexes: FastMap::default(),
            catalogue: Catalogue::default(),
        }
    }

    /// Create a relation from an iterator of tuples, deduplicating.
    /// Errors if any tuple disagrees with `arity`.
    pub fn from_tuples(
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, StorageError> {
        let mut rel = Relation::new(arity);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Errors if any of `cols` lies outside the arity.
    pub(crate) fn check_cols(&self, cols: &[usize]) -> Result<(), StorageError> {
        match cols.iter().find(|&&c| c >= self.arity) {
            Some(&column) => Err(StorageError::ColumnOutOfBounds {
                column,
                arity: self.arity,
            }),
            None => Ok(()),
        }
    }

    /// The dedup probe every insert and [`Relation::contains`] share:
    /// `Ok(id)` of the arena row equal to `values`, else `Err(hash)`, the
    /// row hash a new row is filed under. The hash is the [`Tuple`]'s
    /// own, since a tuple hashes exactly like its value slice.
    fn find(&self, values: &[Value]) -> Result<u32, u64> {
        let h = self.state.hash_one(values);
        self.dedup
            .get(&h)
            .and_then(|ids| {
                ids.as_slice()
                    .iter()
                    .copied()
                    .find(|&i| self.rows[i as usize].values() == values)
            })
            .ok_or(h)
    }

    fn check_arity(&self, got: usize) -> Result<(), StorageError> {
        if got == self.arity {
            Ok(())
        } else {
            Err(StorageError::ArityMismatch {
                expected: self.arity,
                got,
            })
        }
    }

    /// Append a row [`Relation::find`] reported new under hash `h`.
    fn push_row(&mut self, h: u64, t: Tuple) {
        self.catalogue.reset();
        let row_id = self.rows.len() as u32;
        for idx in self.indexes.values_mut() {
            idx.add(row_id, &t);
        }
        for (col, &v) in self.cols.iter_mut().zip(t.values()) {
            col.push(v);
        }
        self.rows.push(t);
        file_id(&mut self.dedup, h, row_id);
    }

    /// Insert a tuple. Returns `Ok(true)` if the tuple was new, `Ok(false)`
    /// if it was a duplicate. All prepared indexes are updated.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, StorageError> {
        self.check_arity(t.arity())?;
        match self.find(t.values()) {
            Ok(_) => Ok(false),
            Err(h) => {
                self.push_row(h, t);
                Ok(true)
            }
        }
    }

    /// [`Relation::insert`] of a borrowed value slice: the row's
    /// [`Tuple`] is built only when the row is new, so a duplicate costs
    /// a hash and a comparison, no allocation. The engine's joins build
    /// their output rows on the stack and store them through this.
    pub fn insert_values(&mut self, values: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(values.len())?;
        match self.find(values) {
            Ok(_) => Ok(false),
            Err(h) => {
                self.push_row(h, Tuple::from(values));
                Ok(true)
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(t.values()).is_ok()
    }

    /// Iterate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.iter()
    }

    /// The rows as a slice (insertion order).
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// One column of the column-major mirror, as a contiguous slice of
    /// interned words: `column(c)[i] == rows()[i][c]`. This is the slice
    /// the tight scan/join kernels loop over.
    ///
    /// # Panics
    /// Panics if `c >= arity()`.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Batched key hashing over the column mirror: one pass per key
    /// column, folding each row's word into its running bucket hash.
    /// `key_hashes(cols)[i]` equals [`key_hash`] of row `i` projected
    /// onto `cols` — the join kernels compute the whole probe-hash
    /// column in column-at-a-time passes instead of gathering per row.
    ///
    /// Callers validate `cols` against the arity first.
    pub(crate) fn key_hashes(&self, cols: &[usize]) -> Vec<u64> {
        let mut hashes = vec![0u64; self.rows.len()];
        for &c in cols {
            let col = &self.cols[c];
            for (h, v) in hashes.iter_mut().zip(col) {
                *h = fold_key_word(*h, v.key_word());
            }
        }
        hashes
    }

    /// A canonically sorted copy of the rows, for order-insensitive
    /// comparisons in tests and reports.
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut v = self.rows.clone();
        v.sort();
        v
    }

    /// Set equality (ignores insertion order).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.rows.len() == other.rows.len()
            && other.iter().all(|t| self.contains(t))
    }

    /// Ensure an index exists on `cols` (builds it over existing rows);
    /// it is then maintained incrementally by [`Relation::insert`].
    pub fn ensure_index(&mut self, cols: &[usize]) -> Result<(), StorageError> {
        if !self.indexes.contains_key(cols) {
            let idx = KeyIndex::build(self, cols)?;
            self.indexes.insert(cols.to_vec(), idx);
        }
        Ok(())
    }

    /// The prepared index on exactly `cols`, if any.
    pub fn index_for(&self, cols: &[usize]) -> Option<&KeyIndex> {
        self.indexes.get(cols)
    }

    /// Tuples whose projection onto `cols` equals `key`, using an index if
    /// one exists on exactly those columns, else scanning.
    ///
    /// Call [`Relation::ensure_index`] up front on hot column sets.
    pub fn lookup<'a>(&'a self, cols: &[usize], key: &Tuple) -> Vec<&'a Tuple> {
        self.probe(cols, key.values())
    }

    /// The shared probe kernel: row ids matching `key` on `cols`, fed to
    /// `f` in arena order. Index-backed when a prepared index exists on
    /// exactly `cols` (hash-bucket candidates verified against the
    /// column mirror), else a tight scan over the column slices.
    fn probe_ids(&self, cols: &[usize], key: &[Value], mut f: impl FnMut(u32)) {
        if let Some(idx) = self.indexes.get(cols) {
            for id in idx.probe_in(self, key) {
                f(id);
            }
            return;
        }
        // Columnar scan fallback, with the index path's contract: a
        // mis-sized key or a column outside the arity matches nothing.
        if key.len() != cols.len() {
            return;
        }
        let mut pairs: Vec<(&[Value], Value)> = Vec::with_capacity(cols.len());
        for (&c, &v) in cols.iter().zip(key) {
            match self.cols.get(c) {
                Some(col) => pairs.push((col.as_slice(), v)),
                None => return,
            }
        }
        'row: for i in 0..self.rows.len() {
            for (col, v) in &pairs {
                if col[i] != *v {
                    continue 'row;
                }
            }
            f(i as u32);
        }
    }

    /// [`Relation::lookup`] with a borrowed key slice — the engine's
    /// per-tuple probe form, no key allocation when an index exists.
    pub fn probe<'a>(&'a self, cols: &[usize], key: &[Value]) -> Vec<&'a Tuple> {
        let mut out = Vec::new();
        self.probe_ids(cols, key, |i| out.push(&self.rows[i as usize]));
        out
    }

    /// Owned-tuples form of [`Relation::probe`]: clones the matches
    /// straight out of the arena — one result allocation, no
    /// intermediate reference vector. The engine's join kernels use this
    /// when they must release the borrow before acting on the matches.
    pub fn probe_cloned(&self, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.probe_ids(cols, key, |i| out.push(self.rows[i as usize].clone()));
        out
    }

    /// Per-column summaries, one per column, computed on first use and
    /// kept until the next write.
    pub fn summary(&self) -> &[ColumnSummary] {
        self.catalogue
            .summary
            .get_or_init(|| self.cols.iter().map(|col| ColumnSummary::of(col)).collect())
    }

    /// The hash index on exactly `cols`, built on first request and kept
    /// until the next write. Callers hold the returned `Arc` and probe it
    /// with [`KeyIndex::probe_in`] against this relation; only this call
    /// takes the memo's lock, a probe never does.
    pub fn shared_index(&self, cols: &[usize]) -> Result<Arc<KeyIndex>, StorageError> {
        // A poisoned lock still guards a valid map: entries are inserted
        // whole, after the index is built.
        let mut memo = self
            .catalogue
            .indexes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(idx) = memo.get(cols) {
            return Ok(Arc::clone(idx));
        }
        let idx = Arc::new(KeyIndex::build(self, cols)?);
        memo.insert(cols.to_vec(), Arc::clone(&idx));
        Ok(idx)
    }

    /// Row ids, in arena order, of the rows `sel` selects. Its constants
    /// are answered by one probe of the [`Relation::shared_index`] on
    /// their columns, so only the matching rows are visited.
    pub fn select_ids(&self, sel: &Selection) -> Result<Vec<u32>, StorageError> {
        for &(a, b) in &sel.eqs {
            self.check_cols(&[a, b])?;
        }
        let eq_ok = |id: &u32| {
            sel.eqs
                .iter()
                .all(|&(a, b)| self.cols[a][*id as usize] == self.cols[b][*id as usize])
        };
        if sel.consts.is_empty() {
            return Ok((0..self.rows.len() as u32).filter(eq_ok).collect());
        }
        let (cols, key): (Vec<usize>, Vec<Value>) = sel.consts.iter().copied().unzip();
        let idx = self.shared_index(&cols)?;
        let ids = idx.probe_in(self, &key).filter(eq_ok).collect();
        Ok(ids)
    }

    /// Distinct values of a single column (insertion order of first sight).
    pub fn distinct_column(&self, col: usize) -> Vec<Value> {
        let mut seen = FastSet::default();
        let mut out = Vec::new();
        for &v in &self.cols[col] {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}
impl Eq for Relation {}

/// Row ids filed under one bucket hash. Nearly every bucket holds a
/// single id, so it stays inline and only a real hash collision spills
/// to the heap — the `One | Many` idiom of the message plane's `Pack`.
#[derive(Clone, Debug)]
enum Ids {
    One(u32),
    Many(Vec<u32>),
}

impl Ids {
    fn as_slice(&self) -> &[u32] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }
}

/// Append row `id` to the bucket for hash `h`, spilling a singleton to
/// the heap on its first collision.
fn file_id(buckets: &mut FastMap<u64, Ids>, h: u64, id: u32) {
    match buckets.entry(h) {
        Entry::Vacant(e) => {
            e.insert(Ids::One(id));
        }
        Entry::Occupied(mut e) => match e.get_mut() {
            Ids::One(first) => {
                let first = *first;
                e.insert(Ids::Many(vec![first, id]));
            }
            Ids::Many(ids) => ids.push(id),
        },
    }
}

/// A hash index from values of a column subset to candidate row ids.
///
/// The map is keyed by the *hash* of the key, not the key itself — the
/// index never stores tuple data, only `u32` ids into the owning
/// relation's arena. Probes verify candidates against the relation's
/// column mirror ([`KeyIndex::probe_in`]), so hash collisions are
/// benign; they cost a failed comparison, never a wrong answer.
#[derive(Clone, Debug, Default)]
pub struct KeyIndex {
    cols: Vec<usize>,
    /// Bucket-hash of the projected key → candidate row ids.
    buckets: FastMap<u64, Ids>,
}

impl KeyIndex {
    /// Build an index over `cols` for all rows of `rel`, hashing the key
    /// columns in batched column-at-a-time passes.
    pub fn build(rel: &Relation, cols: &[usize]) -> Result<Self, StorageError> {
        rel.check_cols(cols)?;
        let mut idx = KeyIndex {
            cols: cols.to_vec(),
            buckets: FastMap::default(),
        };
        for (i, h) in rel.key_hashes(cols).into_iter().enumerate() {
            file_id(&mut idx.buckets, h, i as u32);
        }
        Ok(idx)
    }

    /// The indexed columns.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Register a row in the index. Hashes the key columns straight out
    /// of the tuple — nothing is projected or stored.
    pub fn add(&mut self, row_id: u32, t: &Tuple) {
        let h = self
            .cols
            .iter()
            .fold(0, |h, &c| fold_key_word(h, t[c].key_word()));
        file_id(&mut self.buckets, h, row_id);
    }

    /// Unverified candidate row ids in the bucket for a precomputed key
    /// hash. The batch join kernels pair this with [`KeyIndex::verify`]
    /// after a [`Relation::key_hashes`] pass.
    pub(crate) fn candidates(&self, hash: u64) -> &[u32] {
        self.buckets.get(&hash).map_or(&[], Ids::as_slice)
    }

    /// True if arena row `id` of `rel` matches `key` on the indexed
    /// columns — a tight comparison against the column mirror.
    pub(crate) fn verify(&self, rel: &Relation, id: u32, key: &[Value]) -> bool {
        self.cols
            .iter()
            .zip(key)
            .all(|(&c, v)| rel.cols[c][id as usize] == *v)
    }

    /// Row ids of `rel` whose projection onto the indexed columns equals
    /// `key`, in arena order: bucket candidates verified against the
    /// column mirror. `rel` must be the relation the index was built
    /// over (or is maintained by).
    pub fn probe_in<'a>(
        &'a self,
        rel: &'a Relation,
        key: &'a [Value],
    ) -> impl Iterator<Item = u32> + 'a {
        let cands = if key.len() == self.cols.len() {
            self.candidates(key_hash(key))
        } else {
            // A mis-sized key can never equal a projection onto `cols`.
            &[]
        };
        cands
            .iter()
            .copied()
            .filter(move |&id| self.verify(rel, id, key))
    }

    /// Number of distinct key hashes (equals the number of distinct keys
    /// up to hash collisions, which the probes tolerate).
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(rows: &[Tuple]) -> Relation {
        Relation::from_tuples(rows.first().map_or(0, Tuple::arity), rows.iter().cloned())
            .expect("test rows share an arity")
    }

    #[test]
    fn insert_deduplicates_and_preserves_order() {
        let mut r = Relation::new(2);
        assert!(r.insert(tuple![1, 2]).unwrap());
        assert!(r.insert(tuple![3, 4]).unwrap());
        assert!(!r.insert(tuple![1, 2]).unwrap());
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows(), &[tuple![1, 2], tuple![3, 4]]);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut r = Relation::new(2);
        assert_eq!(
            r.insert(tuple![1]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn from_tuples_reports_ragged_arity() {
        let err = Relation::from_tuples(2, vec![tuple![1, 2], tuple![3]]);
        assert_eq!(
            err,
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn set_eq_ignores_order() {
        let a = rel(&[tuple![1, 2], tuple![3, 4]]);
        let b = rel(&[tuple![3, 4], tuple![1, 2]]);
        assert_eq!(a, b);
        let c = rel(&[tuple![1, 2]]);
        assert_ne!(a, c);
    }

    #[test]
    fn column_mirror_tracks_rows() {
        let r = rel(&[tuple![1, 10], tuple![2, 20], tuple![3, 30]]);
        assert_eq!(r.column(0), &[Value::int(1), Value::int(2), Value::int(3)]);
        assert_eq!(
            r.column(1),
            &[Value::int(10), Value::int(20), Value::int(30)]
        );
        for (i, t) in r.iter().enumerate() {
            assert_eq!(r.column(0)[i], t[0]);
            assert_eq!(r.column(1)[i], t[1]);
        }
    }

    #[test]
    fn batched_key_hashes_match_scalar_fold() {
        let r = rel(&[tuple![1, 10, "a"], tuple![2, 20, "b"], tuple![1, 20, "a"]]);
        let cols = [2usize, 0];
        let batched = r.key_hashes(&cols);
        for (i, t) in r.iter().enumerate() {
            let key: Vec<Value> = cols.iter().map(|&c| t[c]).collect();
            assert_eq!(batched[i], key_hash(&key), "row {i}");
        }
    }

    #[test]
    fn key_index_lookup() {
        let r = rel(&[tuple![1, 10], tuple![1, 11], tuple![2, 20]]);
        let idx = KeyIndex::build(&r, &[0]).unwrap();
        let ids = |key: &Tuple| -> Vec<u32> { idx.probe_in(&r, key.values()).collect() };
        assert_eq!(ids(&tuple![1]), vec![0, 1]);
        assert_eq!(ids(&tuple![2]), vec![2]);
        assert_eq!(ids(&tuple![9]), Vec::<u32>::new());
        // A mis-sized probe key matches nothing.
        assert_eq!(ids(&tuple![1, 10]), Vec::<u32>::new());
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn key_index_rejects_bad_column() {
        let r = rel(&[tuple![1, 2]]);
        assert!(matches!(
            KeyIndex::build(&r, &[5]),
            Err(StorageError::ColumnOutOfBounds {
                column: 5,
                arity: 2
            })
        ));
    }

    #[test]
    fn indexed_relation_incremental_maintenance() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]).unwrap();
        r.insert(tuple![1, 10]).unwrap();
        r.insert(tuple![1, 11]).unwrap();
        r.insert(tuple![2, 20]).unwrap();
        assert!(!r.insert(tuple![2, 20]).unwrap());
        let hits = r.lookup(&[0], &tuple![1]);
        assert_eq!(hits.len(), 2);
        // Lookup without a prepared index falls back to scanning.
        let hits2 = r.lookup(&[1], &tuple![20]);
        assert_eq!(hits2, vec![&tuple![2, 20]]);
    }

    #[test]
    fn distinct_column_orders_by_first_sight() {
        let mut r = Relation::new(2);
        for t in [tuple![2, 0], tuple![1, 0], tuple![2, 1]] {
            r.insert(t).unwrap();
        }
        assert_eq!(r.distinct_column(0), vec![Value::int(2), Value::int(1)]);
    }

    #[test]
    fn clone_preserves_dedup_and_indexes() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]).unwrap();
        r.insert(tuple![1, 10]).unwrap();
        let mut c = r.clone();
        assert!(!c.insert(tuple![1, 10]).unwrap());
        assert!(c.insert(tuple![1, 11]).unwrap());
        assert_eq!(c.lookup(&[0], &tuple![1]).len(), 2);
        // The original is untouched.
        assert_eq!(r.len(), 1);
        assert_eq!(c.column(1).len(), 2);
    }

    #[test]
    fn summary_reports_values_types_and_multiplicity() {
        let r = rel(&[tuple![1, "a"], tuple![1, "b"], tuple![2, "a"], tuple![1, 7]]);
        let s = r.summary();
        assert_eq!(s[0].values, vec![Value::int(1), Value::int(2)]);
        assert_eq!((s[0].distinct(), s[0].max_multiplicity), (2, 3));
        assert_eq!((s[0].has_ints(), s[0].has_syms()), (true, false));
        assert_eq!(
            s[1].values,
            vec![Value::int(7), Value::str("a"), Value::str("b")]
        );
        assert_eq!(s[1].max_multiplicity, 2);
        assert_eq!((s[1].has_ints(), s[1].has_syms()), (true, true));
        // Empty and zero-arity relations have nothing to summarise.
        assert_eq!(Relation::new(2).summary()[0].max_multiplicity, 0);
        assert!(Relation::new(0).summary().is_empty());
    }

    #[test]
    fn a_write_resets_the_catalogue() {
        let mut r = rel(&[tuple![1, 10], tuple![2, 20]]);
        assert_eq!(r.summary()[0].distinct(), 2);
        let idx = r.shared_index(&[0]).unwrap();
        assert!(
            Arc::ptr_eq(&idx, &r.shared_index(&[0]).unwrap()),
            "memoised"
        );
        // A duplicate adds no row and keeps the memo.
        assert!(!r.insert(tuple![1, 10]).unwrap());
        assert!(Arc::ptr_eq(&idx, &r.shared_index(&[0]).unwrap()));

        assert!(r.insert(tuple![3, 10]).unwrap());
        assert_eq!(r.summary()[0].distinct(), 3, "no stale distinct count");
        assert_eq!(r.summary()[1].max_multiplicity, 2);
        let fresh = r.shared_index(&[0]).unwrap();
        assert!(!Arc::ptr_eq(&idx, &fresh), "the old index was dropped");
        let key = [Value::int(3)];
        assert_eq!(fresh.probe_in(&r, &key).collect::<Vec<_>>(), vec![2]);
        // The handed-out index still describes the rows it was built over.
        assert_eq!(idx.probe_in(&r, &key).count(), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn a_copy_starts_with_an_empty_catalogue() {
        let r = rel(&[tuple![1, 10], tuple![1, 11]]);
        let idx = r.shared_index(&[0]).unwrap();
        let mut c = r.clone();
        assert!(!Arc::ptr_eq(&idx, &c.shared_index(&[0]).unwrap()));
        c.insert(tuple![2, 20]).unwrap();
        // The original's rows, summary and index are untouched.
        assert_eq!(r.len(), 2);
        assert_eq!(r.summary()[0].distinct(), 1);
        assert!(Arc::ptr_eq(&idx, &r.shared_index(&[0]).unwrap()));
        assert_eq!(c.summary()[0].distinct(), 2);
    }

    fn select(
        r: &Relation,
        consts: &[(usize, Value)],
        eqs: &[(usize, usize)],
    ) -> Result<Vec<u32>, StorageError> {
        r.select_ids(&Selection {
            consts: consts.to_vec(),
            eqs: eqs.to_vec(),
        })
    }

    #[test]
    fn shared_index_rejects_bad_column() {
        let r = rel(&[tuple![1, 2]]);
        assert!(matches!(
            r.shared_index(&[2]),
            Err(StorageError::ColumnOutOfBounds {
                column: 2,
                arity: 2
            })
        ));
        assert!(select(&r, &[(5, Value::int(1))], &[]).is_err());
        assert!(select(&r, &[], &[(0, 9)]).is_err());
    }

    #[test]
    fn select_ids_applies_constants_and_equalities() {
        let r = rel(&[
            tuple![1, 1, "a"],
            tuple![1, 2, "a"],
            tuple![2, 2, "b"],
            tuple![1, 1, "b"],
        ]);
        assert!(Selection::default().is_empty());
        assert_eq!(select(&r, &[], &[]).unwrap(), [0, 1, 2, 3]);
        assert_eq!(select(&r, &[(0, Value::int(1))], &[]).unwrap(), [0, 1, 3]);
        assert_eq!(select(&r, &[], &[(0, 1)]).unwrap(), [0, 2, 3]);
        assert_eq!(
            select(&r, &[(2, Value::str("b"))], &[(0, 1)]).unwrap(),
            [2, 3]
        );
        assert!(select(&r, &[(0, Value::int(9))], &[]).unwrap().is_empty());
    }

    #[test]
    fn column_mirror_matches_rows_exactly() {
        // The columnar kernels read `column(c)` where the row-major path
        // reads `rows()[i][c]`; the mirror must track every insert
        // (including rejected duplicates) word for word.
        let mut r = Relation::new(3);
        for i in 0..32i64 {
            r.insert(tuple![i % 7, i * 3, i]).unwrap();
            r.insert(tuple![i % 7, i * 3, i]).unwrap(); // duplicate: no-op
        }
        assert_eq!(r.len(), 32);
        for c in 0..3 {
            let col = r.column(c);
            assert_eq!(col.len(), r.len());
            for (i, row) in r.rows().iter().enumerate() {
                assert_eq!(col[i], row[c], "mirror diverged at row {i} col {c}");
            }
        }
    }

    #[test]
    fn insert_values_agrees_with_insert() {
        let mut r = Relation::new(2);
        r.ensure_index(&[1]).unwrap();
        assert!(r.insert_values(&[Value::int(1), Value::int(2)]).unwrap());
        assert!(!r.insert(tuple![1, 2]).unwrap());
        assert!(r.insert(tuple![3, 2]).unwrap());
        assert!(!r.insert_values(&[Value::int(3), Value::int(2)]).unwrap());
        assert_eq!(r.rows(), &[tuple![1, 2], tuple![3, 2]]);
        assert_eq!(r.column(0), &[Value::int(1), Value::int(3)]);
        assert_eq!(r.lookup(&[1], &tuple![2]).len(), 2, "index maintained");
        assert_eq!(
            r.insert_values(&[Value::int(1)]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn mis_sized_keys_match_nothing_with_or_without_an_index() {
        let mut r = rel(&[tuple![1, 10], tuple![1, 11], tuple![2, 20]]);
        let long = tuple![1, 10];
        let short = [Value::int(1)];
        for indexed in [false, true] {
            if indexed {
                r.ensure_index(&[0]).unwrap();
                r.ensure_index(&[0, 1]).unwrap();
            }
            assert!(
                r.probe(&[0], long.values()).is_empty(),
                "indexed: {indexed}"
            );
            assert!(r.lookup(&[0], &long).is_empty(), "indexed: {indexed}");
            assert!(
                r.probe_cloned(&[0, 1], &short).is_empty(),
                "indexed: {indexed}"
            );
            assert!(
                crate::ops::select_on(&r, &[0], &long).unwrap().is_empty(),
                "indexed: {indexed}"
            );
            // A well-sized key still answers the same on both paths.
            assert_eq!(r.probe(&[0], &short).len(), 2, "indexed: {indexed}");
        }
    }

    /// The inverse of `SEED` modulo 2^64 (Newton's iteration; `SEED` is
    /// odd, so the last multiply of a hash fold can be undone).
    fn seed_inverse() -> u64 {
        let seed = fold_key_word(0, 1); // 1 · SEED
        let mut inv = seed;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(seed.wrapping_mul(inv)));
        }
        assert_eq!(seed.wrapping_mul(inv), 1);
        inv
    }

    /// An integer `w` such that `prefix ++ [w]` hashes like `target`
    /// under `hash`, whose last step must be the fold of the final
    /// integer's word. Undoing that multiply exposes the rotated state
    /// before it for both rows; `w` xors one state into the other.
    fn collide(hash: impl Fn(&[Value]) -> u64, target: &[Value], prefix: &[Value]) -> Value {
        let inv = seed_inverse();
        let word = |v: &Value| v.as_int().expect("integer final column") as u64;
        let before = |row: &[Value]| hash(row).wrapping_mul(inv) ^ word(row.last().unwrap());
        let mut probe = prefix.to_vec();
        probe.push(Value::int(0));
        let w = before(target) ^ before(&probe) ^ word(target.last().unwrap());
        *probe.last_mut().unwrap() = Value::int(w as i64);
        assert_eq!(hash(&probe), hash(target), "forced collision");
        assert_ne!(probe.as_slice(), target);
        probe[prefix.len()]
    }

    #[test]
    fn forced_collisions_in_the_dedup_map() {
        let row_hash = |vals: &[Value]| BuildHasherDefault::<FastHasher>::default().hash_one(vals);
        let a = [Value::int(1), Value::int(5)];
        let b = [Value::int(2), collide(row_hash, &a, &[Value::int(2)])];
        let c = [Value::int(3), collide(row_hash, &a, &[Value::int(3)])];
        let h = row_hash(&a);
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::from(&a[..])).unwrap());
        assert!(matches!(r.dedup[&h], Ids::One(0)), "first id inline");
        assert!(!r.contains(&Tuple::from(&b[..])));
        assert!(
            r.insert_values(&b).unwrap(),
            "a collision is not a duplicate"
        );
        assert!(
            matches!(&r.dedup[&h], Ids::Many(ids) if ids == &[0, 1]),
            "promoted on the first collision"
        );
        assert!(!r.insert_values(&a).unwrap());
        assert!(!r.insert(Tuple::from(&b[..])).unwrap());
        assert!(r.insert(Tuple::from(&c[..])).unwrap());
        assert!(!r.insert_values(&c).unwrap());
        assert!(matches!(&r.dedup[&h], Ids::Many(ids) if ids == &[0, 1, 2]));
        for row in [&a, &b, &c] {
            assert!(r.contains(&Tuple::from(&row[..])));
        }
        assert!(!r.contains(&tuple![2, 5]));
        assert_eq!(r.len(), 3);
        assert_eq!(r.dedup.len(), 1);
        assert_eq!(r.rows()[1].values(), b);
    }

    #[test]
    fn forced_collisions_in_a_key_index() {
        let a = [Value::int(1), Value::int(5)];
        let b = [Value::int(2), collide(key_hash, &a, &[Value::int(2)])];
        let h = key_hash(&a);
        let row = |k: &[Value; 2], v: i64| Tuple::from(&[k[0], k[1], Value::int(v)][..]);
        let rows = [row(&a, 10), row(&b, 20), row(&a, 30), tuple![9, 9, 40]];
        // One index maintained row by row, one built over the finished
        // relation: both file the colliding keys under one bucket.
        let mut r = Relation::new(3);
        r.ensure_index(&[0, 1]).unwrap();
        for t in &rows {
            r.insert(t.clone()).unwrap();
        }
        let built = KeyIndex::build(&r, &[0, 1]).unwrap();
        for idx in [r.index_for(&[0, 1]).unwrap(), &built] {
            assert!(matches!(&idx.buckets[&h], Ids::Many(ids) if ids == &[0, 1, 2]));
            assert!(matches!(
                idx.buckets[&key_hash(&rows[3].values()[..2])],
                Ids::One(3)
            ));
            assert_eq!(idx.probe_in(&r, &a).collect::<Vec<_>>(), [0, 2]);
            assert_eq!(idx.probe_in(&r, &b).collect::<Vec<_>>(), [1]);
            // Distinct keys up to collisions: three keys, two hashes.
            assert_eq!(idx.distinct_keys(), 2);
        }
        assert_eq!(r.probe(&[0, 1], &a), [&rows[0], &rows[2]]);
        assert_eq!(r.probe_cloned(&[0, 1], &b), [rows[1].clone()]);
        // The scan path agrees in arena order.
        let scan = rel(&rows);
        assert_eq!(scan.probe(&[0, 1], &a), [&rows[0], &rows[2]]);
    }

    #[test]
    fn batched_key_hashes_match_scalar_key_hash() {
        // `key_hashes` computes the probe-hash column in per-column
        // passes; it must agree with the scalar `key_hash` of each row's
        // projection for any key column set, else batched joins probe
        // the wrong buckets.
        let mut r = Relation::new(3);
        for i in 0..24i64 {
            r.insert(tuple![i % 5, i % 3, i]).unwrap();
        }
        for cols in [&[0usize][..], &[1], &[2], &[0, 2], &[2, 0], &[0, 1, 2]] {
            let batched = r.key_hashes(cols);
            for (i, row) in r.rows().iter().enumerate() {
                let key: Vec<Value> = cols.iter().map(|&c| row[c]).collect();
                assert_eq!(
                    batched[i],
                    key_hash(&key),
                    "cols {cols:?} row {i}: batched hash diverged from scalar"
                );
            }
        }
    }
}
