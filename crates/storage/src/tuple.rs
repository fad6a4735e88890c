//! Fixed-arity rows.

use crate::Value;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable row of [`Value`]s.
///
/// Tuples are the unit shipped in the framework's `tuple` and
/// `tuple request` messages (§3.1 of the paper). The data plane clones
/// each one many times — into dedup sets, node-local relations, send
/// buffers, and message payloads — so the slice is behind an [`Arc`]:
/// a clone is a refcount bump, never an allocation. Values are `Copy`
/// interned words, so sharing is safe across threads.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Create a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(Arc::from(values))
    }

    /// The empty tuple — used as the unit binding for streams whose
    /// adornment has no `d` arguments ("compute everything").
    pub fn unit() -> Self {
        Tuple(Arc::new([]))
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True for the zero-arity tuple.
    pub fn is_unit(&self) -> bool {
        self.0.is_empty()
    }

    /// The underlying values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Project the tuple onto the given columns (in the given order).
    ///
    /// # Panics
    /// Panics if any column index is out of bounds; callers validate
    /// column lists against schemas before evaluation begins.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.0[c]).collect())
    }

    /// Concatenate two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// True if the tuple matches `key` on the given columns.
    pub fn matches_on(&self, cols: &[usize], key: &Tuple) -> bool {
        debug_assert_eq!(cols.len(), key.arity());
        cols.iter()
            .zip(key.values())
            .all(|(&c, v)| self.0.get(c) == Some(v))
    }
}

/// Tuples hash and compare exactly like their value slices (the derived
/// impls delegate to `[Value]`), so hash-map keys of type [`Tuple`] can
/// be probed with a borrowed `&[Value]` — no key allocation per probe.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl From<&[Value]> for Tuple {
    fn from(values: &[Value]) -> Self {
        Tuple(Arc::from(values))
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple(Arc::from(values))
    }
}

/// Convenience constructor: `tuple![1, "a", 3]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_arity() {
        let t = tuple![1, "a"];
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t[1], Value::str("a"));
        assert!(!t.is_unit());
        assert!(Tuple::unit().is_unit());
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0]), tuple![30, 10]);
        assert_eq!(t.project(&[1, 1]), tuple![20, 20]);
        assert_eq!(t.project(&[]), Tuple::unit());
    }

    #[test]
    fn concat_appends() {
        assert_eq!(tuple![1].concat(&tuple!["x", 2]), tuple![1, "x", 2]);
        assert_eq!(Tuple::unit().concat(&tuple![5]), tuple![5]);
    }

    #[test]
    fn matches_on_columns() {
        let t = tuple![1, 2, 3];
        assert!(t.matches_on(&[0, 2], &tuple![1, 3]));
        assert!(!t.matches_on(&[0, 2], &tuple![1, 2]));
        assert!(t.matches_on(&[], &Tuple::unit()));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", tuple![1, "a"]), "(1, a)");
        assert_eq!(format!("{}", Tuple::unit()), "()");
    }
}
