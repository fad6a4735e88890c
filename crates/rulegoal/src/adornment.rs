//! Argument classes, adornments, and canonical goal-node labels.

use mp_datalog::{Atom, Predicate, Term, Var};
use mp_storage::{Selection, Value};
use std::collections::HashMap;
use std::fmt;

/// The four argument classes of §1.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArgClass {
    /// Constant, known at graph-construction time.
    C,
    /// Dynamically bound to a set of needed values during computation.
    D,
    /// Existential: only the existence of a value matters; not transmitted.
    E,
    /// Free: bindings are to be found and returned.
    F,
}

/// A character that is not one of the four class letters `c`/`d`/`e`/`f`
/// was used where an argument class was expected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadClass(pub char);

impl fmt::Display for BadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` is not an argument class (expected one of c, d, e, f)",
            self.0
        )
    }
}

impl std::error::Error for BadClass {}

impl TryFrom<char> for ArgClass {
    type Error = BadClass;

    fn try_from(c: char) -> Result<Self, BadClass> {
        match c {
            'c' => Ok(ArgClass::C),
            'd' => Ok(ArgClass::D),
            'e' => Ok(ArgClass::E),
            'f' => Ok(ArgClass::F),
            other => Err(BadClass(other)),
        }
    }
}

impl ArgClass {
    /// The superscript letter used in the paper's figures.
    pub fn letter(self) -> char {
        match self {
            ArgClass::C => 'c',
            ArgClass::D => 'd',
            ArgClass::E => 'e',
            ArgClass::F => 'f',
        }
    }

    /// True for classes whose values are known *before* a relation is
    /// evaluated (constants and dynamic bindings).
    pub fn is_bound(self) -> bool {
        matches!(self, ArgClass::C | ArgClass::D)
    }
}

/// A per-argument-position assignment of classes for one atom.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Adornment(pub Vec<ArgClass>);

impl Adornment {
    /// Parse a compact class string such as `"cdff"` — the inverse of
    /// [`Adornment::as_string`]. Rejects any character outside
    /// `c`/`d`/`e`/`f` with a typed error instead of panicking, so
    /// adornments arriving from tools or test fixtures are validated at
    /// the boundary.
    pub fn parse(s: &str) -> Result<Self, BadClass> {
        s.chars()
            .map(ArgClass::try_from)
            .collect::<Result<Vec<_>, _>>()
            .map(Adornment)
    }

    /// The adornment's arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Class at a position.
    pub fn class(&self, i: usize) -> ArgClass {
        self.0[i]
    }

    /// Positions with class `d` — the semijoin input columns.
    pub fn d_positions(&self) -> Vec<usize> {
        self.positions(ArgClass::D)
    }

    /// Positions whose values are shipped in answer tuples: everything
    /// except class `e` ("its value will not be transmitted", §2.2).
    pub fn transmitted_positions(&self) -> Vec<usize> {
        (0..self.0.len())
            .filter(|&i| self.0[i] != ArgClass::E)
            .collect()
    }

    /// Positions with the given class.
    pub fn positions(&self, c: ArgClass) -> Vec<usize> {
        (0..self.0.len()).filter(|&i| self.0[i] == c).collect()
    }

    /// Number of bound (c/d) positions.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|c| c.is_bound()).count()
    }

    /// Compact string such as `"cdff"` (used in magic-set predicate names
    /// and reports).
    pub fn as_string(&self) -> String {
        self.0.iter().map(|c| c.letter()).collect()
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_string())
    }
}

/// One argument of a canonical goal-node label.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelArg {
    /// A class-`c` argument with its constant.
    Const(Value),
    /// A variable argument with its class and repeated-variable group
    /// (variables are numbered by first occurrence, so two atoms that are
    /// variants of each other — Def 2.2, including the repeated-variable
    /// patterns of Thm 2.1's proof — get identical labels).
    Var {
        /// `d`, `e`, or `f`.
        class: ArgClass,
        /// Equal-variable group index, by first occurrence.
        group: u16,
    },
}

/// The canonical label of a goal node: predicate, constants, classes, and
/// repeated-variable pattern. Two goal nodes are variants in the sense of
/// Def 2.2 **iff** their labels are equal.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GoalLabel {
    /// The predicate.
    pub pred: Predicate,
    /// Canonicalized arguments.
    pub args: Vec<LabelArg>,
}

impl GoalLabel {
    /// Build the label of `atom` under `adornment`.
    ///
    /// # Panics
    /// Panics if a constant argument is not classed `c` or vice versa —
    /// adornments are always derived from the atom, so a mismatch is a
    /// bug in the caller.
    pub fn new(atom: &Atom, adornment: &Adornment) -> Self {
        assert_eq!(atom.arity(), adornment.arity(), "adornment arity mismatch");
        let mut groups: HashMap<&Var, u16> = HashMap::new();
        let mut args = Vec::with_capacity(atom.arity());
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(v) => {
                    assert_eq!(
                        adornment.class(i),
                        ArgClass::C,
                        "constant argument must be class c"
                    );
                    args.push(LabelArg::Const(*v));
                }
                Term::Var(v) => {
                    assert_ne!(
                        adornment.class(i),
                        ArgClass::C,
                        "variable argument cannot be class c"
                    );
                    let next = groups.len() as u16;
                    let g = *groups.entry(v).or_insert(next);
                    args.push(LabelArg::Var {
                        class: adornment.class(i),
                        group: g,
                    });
                }
            }
        }
        GoalLabel {
            pred: atom.pred.clone(),
            args,
        }
    }

    /// The label's arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The label's standing selection on its relation: its constant
    /// arguments and its repeated variables.
    pub fn selection(&self) -> Selection {
        let mut sel = Selection::default();
        // Groups are numbered by first occurrence, so a group's first
        // column is pushed exactly when its number equals the length.
        let mut first_at: Vec<usize> = Vec::new();
        for (i, arg) in self.args.iter().enumerate() {
            match arg {
                LabelArg::Const(v) => sel.consts.push((i, *v)),
                LabelArg::Var { group, .. } => match first_at.get(usize::from(*group)) {
                    Some(&first) => sel.eqs.push((first, i)),
                    None => first_at.push(i),
                },
            }
        }
        sel
    }

    /// The adornment (classes only) of this label.
    pub fn adornment(&self) -> Adornment {
        Adornment(
            self.args
                .iter()
                .map(|a| match a {
                    LabelArg::Const(_) => ArgClass::C,
                    LabelArg::Var { class, .. } => *class,
                })
                .collect(),
        )
    }

    /// Render like the paper's figures: `p(a^c, Z^f)` becomes
    /// `p(a^c,V0^f)` with canonical variable names.
    pub fn render(&self) -> String {
        let mut s = format!("{}(", self.pred);
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match a {
                LabelArg::Const(v) => s.push_str(&format!("{v}^c")),
                LabelArg::Var { class, group } => {
                    s.push_str(&format!("V{group}^{}", class.letter()));
                }
            }
        }
        s.push(')');
        s
    }
}

impl fmt::Display for GoalLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_datalog::atom;

    fn ad(s: &str) -> Adornment {
        Adornment::parse(s).unwrap()
    }

    #[test]
    fn parse_rejects_unknown_class_letters() {
        assert_eq!(Adornment::parse("dx"), Err(BadClass('x')));
        assert_eq!(ArgClass::try_from('q'), Err(BadClass('q')));
        assert_eq!(ArgClass::try_from('d'), Ok(ArgClass::D));
        assert_eq!(Adornment::parse("cdef").unwrap().as_string(), "cdef");
    }

    #[test]
    fn adornment_positions() {
        let a = ad("cdef");
        assert_eq!(a.d_positions(), vec![1]);
        assert_eq!(a.transmitted_positions(), vec![0, 1, 3]);
        assert_eq!(a.bound_count(), 2);
        assert_eq!(a.as_string(), "cdef");
    }

    #[test]
    fn selection_lists_constants_and_repeated_variables() {
        let plain = GoalLabel::new(&atom!("p"; var "X", var "Y"), &ad("df"));
        assert!(plain.selection().is_empty());
        // p(X, 7, Y, X, Y, X): one constant, X at 0/3/5, Y at 2/4.
        let l = GoalLabel::new(
            &atom!("p"; var "X", val 7, var "Y", var "X", var "Y", var "X"),
            &ad("dcfdfd"),
        );
        assert_eq!(
            l.selection(),
            Selection {
                consts: vec![(1, Value::int(7))],
                eqs: vec![(0, 3), (2, 4), (0, 5)],
            }
        );
    }

    #[test]
    fn variants_get_equal_labels() {
        // p(V^d, Z^f) and p(W^d, Y^f) are variants (Fig 1's cycle test).
        let l1 = GoalLabel::new(&atom!("p"; var "V", var "Z"), &ad("df"));
        let l2 = GoalLabel::new(&atom!("p"; var "W", var "Y"), &ad("df"));
        assert_eq!(l1, l2);
    }

    #[test]
    fn different_classes_differ() {
        let l1 = GoalLabel::new(&atom!("p"; var "V", var "Z"), &ad("df"));
        let l2 = GoalLabel::new(&atom!("p"; var "V", var "Z"), &ad("ff"));
        assert_ne!(l1, l2);
    }

    #[test]
    fn repeated_variable_patterns_differ() {
        // p(X, X, Z) vs p(V, V, V): Thm 2.1's technicality.
        let l1 = GoalLabel::new(&atom!("p"; var "X", var "X", var "Z"), &ad("dff"));
        let l2 = GoalLabel::new(&atom!("p"; var "V", var "V", var "V"), &ad("dff"));
        assert_ne!(l1, l2);
        // But p(A, A, B) matches p(X, X, Z).
        let l3 = GoalLabel::new(&atom!("p"; var "A", var "A", var "B"), &ad("dff"));
        assert_eq!(l1, l3);
    }

    #[test]
    fn constants_must_match() {
        let l1 = GoalLabel::new(&atom!("p"; val 1, var "Z"), &ad("cf"));
        let l2 = GoalLabel::new(&atom!("p"; val 2, var "Z"), &ad("cf"));
        assert_ne!(l1, l2);
        let l3 = GoalLabel::new(&atom!("p"; val 1, var "Q"), &ad("cf"));
        assert_eq!(l1, l3);
    }

    #[test]
    fn render_matches_paper_style() {
        let l = GoalLabel::new(&atom!("p"; val 7, var "Z"), &ad("cf"));
        assert_eq!(l.render(), "p(7^c,V0^f)");
    }

    #[test]
    #[should_panic(expected = "constant argument must be class c")]
    fn misclassified_constant_panics() {
        GoalLabel::new(&atom!("p"; val 1), &ad("f"));
    }

    #[test]
    fn label_round_trips_adornment() {
        let a = ad("def");
        let l = GoalLabel::new(&atom!("p"; var "X", var "Y", var "Z"), &a);
        assert_eq!(l.adornment(), a);
    }
}
