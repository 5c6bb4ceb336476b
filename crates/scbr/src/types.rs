//! The subscription language: typed attributes, predicates, publications,
//! and the containment (covering) relation the SCBR index exploits.

use securecloud_crypto::wire::{Reader, Wire};
use securecloud_crypto::{impl_wire_struct, CryptoError};
use std::collections::BTreeMap;

/// An attribute value in a publication or predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Wire for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(0);
                v.encode(out);
            }
            Value::Float(v) => {
                out.push(1);
                v.encode(out);
            }
            Value::Str(v) => {
                out.push(2);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match u8::decode(r)? {
            0 => Ok(Value::Int(i64::decode(r)?)),
            1 => Ok(Value::Float(f64::decode(r)?)),
            2 => Ok(Value::Str(String::decode(r)?)),
            tag => Err(CryptoError::Malformed(format!("value tag {tag}"))),
        }
    }
}

/// Comparison operator in a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Equal.
    Eq,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Wire for Op {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Op::Eq => 0,
            Op::Lt => 1,
            Op::Le => 2,
            Op::Gt => 3,
            Op::Ge => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match u8::decode(r)? {
            0 => Ok(Op::Eq),
            1 => Ok(Op::Lt),
            2 => Ok(Op::Le),
            3 => Ok(Op::Gt),
            4 => Ok(Op::Ge),
            tag => Err(CryptoError::Malformed(format!("op tag {tag}"))),
        }
    }
}

/// One predicate: `attr op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute name.
    pub attr: String,
    /// Comparison operator.
    pub op: Op,
    /// Comparison value.
    pub value: Value,
}

impl_wire_struct!(Predicate { attr, op, value });

impl Predicate {
    /// Builds a predicate.
    #[must_use]
    pub fn new(attr: &str, op: Op, value: Value) -> Self {
        Predicate {
            attr: attr.to_string(),
            op,
            value,
        }
    }

    /// Evaluates the predicate against a publication value.
    #[must_use]
    pub fn eval(&self, actual: &Value) -> bool {
        match (&self.value, actual) {
            (Value::Int(want), Value::Int(have)) => compare(self.op, *have as f64, *want as f64),
            (Value::Float(want), Value::Float(have)) => compare(self.op, *have, *want),
            (Value::Int(want), Value::Float(have)) => compare(self.op, *have, *want as f64),
            (Value::Float(want), Value::Int(have)) => compare(self.op, *have as f64, *want),
            (Value::Str(want), Value::Str(have)) => compare(self.op, have, want),
            _ => false, // type mismatch never matches
        }
    }
}

/// `have op want`, for numbers (as `f64`, so NaN never holds) and strings.
pub(crate) fn compare<T: PartialOrd>(op: Op, have: T, want: T) -> bool {
    match op {
        Op::Eq => have == want,
        Op::Lt => have < want,
        Op::Le => have <= want,
        Op::Gt => have > want,
        Op::Ge => have >= want,
    }
}

/// Subscription identifier assigned by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

/// A subscription: a conjunction of predicates plus opaque subscriber
/// metadata (delivery address, credentials — routed but not interpreted).
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Conjunctive predicates.
    pub predicates: Vec<Predicate>,
    /// Opaque subscriber payload (contributes to the router's memory
    /// footprint, as real subscriber state does).
    pub payload: Vec<u8>,
}

impl_wire_struct!(Subscription {
    predicates,
    payload
});

impl Subscription {
    /// Builds a subscription from predicates with an empty payload.
    #[must_use]
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Subscription {
            predicates,
            payload: Vec::new(),
        }
    }

    /// Attaches subscriber metadata (builder style).
    #[must_use]
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Whether `publication` satisfies every predicate.
    #[must_use]
    pub fn matches(&self, publication: &Publication) -> bool {
        self.predicates.iter().all(|p| {
            publication
                .attrs
                .get(&p.attr)
                .is_some_and(|actual| p.eval(actual))
        })
    }

    /// The subscription's footprint in router memory, in bytes: predicates
    /// plus payload plus per-node bookkeeping. Drives the simulated memory
    /// layout of the match engine.
    #[must_use]
    pub fn footprint(&self) -> usize {
        48 + self
            .predicates
            .iter()
            .map(|p| 32 + p.attr.len())
            .sum::<usize>()
            + self.payload.len()
    }

    /// Conservative covering check: `self` covers `other` if every
    /// publication matching `other` also matches `self`.
    ///
    /// Decided per attribute on normalised intervals; returns `false` when
    /// coverage cannot be established (sound for index correctness: a
    /// missed covering only costs comparisons, never correctness).
    #[must_use]
    pub fn covers(&self, other: &Subscription) -> bool {
        covers_normalised(&self.normalised(), &other.normalised())
    }

    /// Pre-computes the normalised per-attribute constraints of this
    /// subscription (`None` = unsatisfiable). Indexes cache this to avoid
    /// re-normalising on every covering check.
    #[must_use]
    pub fn normalised(&self) -> Normalised {
        self.normalised_by(|attr| attr.to_string())
    }

    /// [`Self::normalised`] with attributes renamed by `key` (an index
    /// interns them to integers, which compare without a pointer chase).
    /// Forms are comparable only with forms built by the same `key`.
    #[must_use]
    pub fn normalised_by<K: Ord>(&self, key: impl FnMut(&str) -> K) -> Normalised<K> {
        Normalised(normalise(&self.predicates, key))
    }
}

/// Cached normalised form of a subscription's predicates.
///
/// `Normalised(None)` means the conjunction is unsatisfiable.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalised<K = String>(Option<BTreeMap<K, Constraint>>);

/// Covering decision on normalised forms: `a` covers `b` when every
/// publication matching `b` matches `a` (conservative).
#[must_use]
pub fn covers_normalised<K: Ord>(a: &Normalised<K>, b: &Normalised<K>) -> bool {
    let (Some(mine), Some(theirs)) = (&a.0, &b.0) else {
        // Unsatisfiable `b` is covered by anything; unsatisfiable `a`
        // covers only unsatisfiable others.
        return b.0.is_none();
    };
    for (attr, my_constraint) in mine {
        match theirs.get(attr) {
            None => return false,
            Some(their_constraint) => {
                if !my_constraint.contains(their_constraint) {
                    return false;
                }
            }
        }
    }
    true
}

/// A publication: attribute → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Publication {
    /// The attributes of this event.
    pub attrs: BTreeMap<String, Value>,
}

impl_wire_struct!(Publication { attrs });

impl Publication {
    /// Creates an empty publication.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an attribute (builder style).
    #[must_use]
    pub fn with(mut self, attr: &str, value: Value) -> Self {
        self.attrs.insert(attr.to_string(), value);
        self
    }
}

/// Normalised constraint on one attribute.
#[derive(Debug, Clone, PartialEq)]
enum Constraint {
    /// Numeric interval with inclusive/exclusive bounds.
    Interval {
        lo: f64,
        lo_incl: bool,
        hi: f64,
        hi_incl: bool,
    },
    /// Exact string.
    StrEq(String),
    /// String range (only from explicit ordering predicates; kept opaque —
    /// contains() is conservative).
    StrOther,
}

impl Constraint {
    /// Whether every value satisfying `other` satisfies `self`.
    fn contains(&self, other: &Constraint) -> bool {
        match (self, other) {
            (
                Constraint::Interval {
                    lo: alo,
                    lo_incl: aloi,
                    hi: ahi,
                    hi_incl: ahii,
                },
                Constraint::Interval {
                    lo: blo,
                    lo_incl: bloi,
                    hi: bhi,
                    hi_incl: bhii,
                },
            ) => {
                let lo_ok = alo < blo || (alo == blo && (*aloi || !bloi));
                let hi_ok = ahi > bhi || (ahi == bhi && (*ahii || !bhii));
                lo_ok && hi_ok
            }
            (Constraint::StrEq(a), Constraint::StrEq(b)) => a == b,
            _ => false,
        }
    }
}

/// Normalises a conjunction into per-attribute constraints; `None` if the
/// conjunction is unsatisfiable (empty interval).
fn normalise<K: Ord>(
    predicates: &[Predicate],
    mut key: impl FnMut(&str) -> K,
) -> Option<BTreeMap<K, Constraint>> {
    let mut out: BTreeMap<K, Constraint> = BTreeMap::new();
    for p in predicates {
        let constraint = match (&p.value, p.op) {
            (Value::Str(s), Op::Eq) => Constraint::StrEq(s.clone()),
            (Value::Str(_), _) => Constraint::StrOther,
            (v, op) => {
                let x = match v {
                    Value::Int(i) => *i as f64,
                    Value::Float(f) => *f,
                    Value::Str(_) => unreachable!("handled above"),
                };
                if x.is_nan() {
                    return None; // no value compares with NaN, not even NaN
                }
                // The open side is closed at the infinity: `x >= 0` holds
                // for +∞.
                let (lo, lo_incl, hi, hi_incl) = match op {
                    Op::Eq => (x, true, x, true),
                    Op::Lt => (f64::NEG_INFINITY, true, x, false),
                    Op::Le => (f64::NEG_INFINITY, true, x, true),
                    Op::Gt => (x, false, f64::INFINITY, true),
                    Op::Ge => (x, true, f64::INFINITY, true),
                };
                Constraint::Interval {
                    lo,
                    lo_incl,
                    hi,
                    hi_incl,
                }
            }
        };
        let attr = key(&p.attr);
        let merged = match out.remove(&attr) {
            None => constraint,
            Some(existing) => intersect(existing, constraint)?,
        };
        out.insert(attr, merged);
    }
    Some(out)
}

fn intersect(a: Constraint, b: Constraint) -> Option<Constraint> {
    match (a, b) {
        (
            Constraint::Interval {
                lo: alo,
                lo_incl: aloi,
                hi: ahi,
                hi_incl: ahii,
            },
            Constraint::Interval {
                lo: blo,
                lo_incl: bloi,
                hi: bhi,
                hi_incl: bhii,
            },
        ) => {
            let (lo, lo_incl) = if alo > blo {
                (alo, aloi)
            } else if blo > alo {
                (blo, bloi)
            } else {
                (alo, aloi && bloi)
            };
            let (hi, hi_incl) = if ahi < bhi {
                (ahi, ahii)
            } else if bhi < ahi {
                (bhi, bhii)
            } else {
                (ahi, ahii && bhii)
            };
            if lo > hi || (lo == hi && !(lo_incl && hi_incl)) {
                return None;
            }
            Some(Constraint::Interval {
                lo,
                lo_incl,
                hi,
                hi_incl,
            })
        }
        (Constraint::StrEq(a), Constraint::StrEq(b)) => {
            if a == b {
                Some(Constraint::StrEq(a))
            } else {
                None
            }
        }
        // A value is a number or a string, never both.
        (Constraint::Interval { .. }, _) | (_, Constraint::Interval { .. }) => None,
        // A string range intersected with anything stays opaque: it neither
        // covers nor is covered.
        _ => Some(Constraint::StrOther),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(attr: &str, op: Op, v: i64) -> Predicate {
        Predicate::new(attr, op, Value::Int(v))
    }

    #[test]
    fn predicate_eval() {
        let p = pred("temp", Op::Ge, 20);
        assert!(p.eval(&Value::Int(20)));
        assert!(p.eval(&Value::Int(25)));
        assert!(!p.eval(&Value::Int(19)));
        assert!(p.eval(&Value::Float(20.5)));
        assert!(!p.eval(&Value::Str("20".into())), "type mismatch");
        let s = Predicate::new("region", Op::Eq, Value::Str("eu".into()));
        assert!(s.eval(&Value::Str("eu".into())));
        assert!(!s.eval(&Value::Str("us".into())));
    }

    #[test]
    fn subscription_matching_is_conjunctive() {
        let sub = Subscription::new(vec![pred("a", Op::Ge, 10), pred("b", Op::Lt, 5)]);
        let hit = Publication::new()
            .with("a", Value::Int(10))
            .with("b", Value::Int(4))
            .with("c", Value::Int(99));
        let miss_value = Publication::new()
            .with("a", Value::Int(10))
            .with("b", Value::Int(5));
        let miss_attr = Publication::new().with("a", Value::Int(10));
        assert!(sub.matches(&hit));
        assert!(!sub.matches(&miss_value));
        assert!(!sub.matches(&miss_attr), "missing attribute never matches");
    }

    #[test]
    fn covering_basic() {
        let broad = Subscription::new(vec![pred("x", Op::Ge, 0)]);
        let narrow = Subscription::new(vec![pred("x", Op::Ge, 10)]);
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        // Covering is reflexive.
        assert!(broad.covers(&broad));
    }

    #[test]
    fn covering_requires_all_attrs_constrained_by_other() {
        let broad = Subscription::new(vec![pred("x", Op::Ge, 0)]);
        let other_attr = Subscription::new(vec![pred("y", Op::Ge, 100)]);
        assert!(!broad.covers(&other_attr));
        // Fewer constraints cover more: {} covers everything.
        let top = Subscription::new(vec![]);
        assert!(top.covers(&broad));
        assert!(!broad.covers(&top));
    }

    #[test]
    fn covering_intervals_with_bounds() {
        let le = Subscription::new(vec![pred("x", Op::Le, 10)]);
        let lt = Subscription::new(vec![pred("x", Op::Lt, 10)]);
        assert!(le.covers(&lt));
        assert!(!lt.covers(&le));
        let eq = Subscription::new(vec![pred("x", Op::Eq, 10)]);
        assert!(le.covers(&eq));
        assert!(!lt.covers(&eq));
        let range = Subscription::new(vec![pred("x", Op::Ge, 0), pred("x", Op::Le, 100)]);
        let point = Subscription::new(vec![pred("x", Op::Eq, 50)]);
        assert!(range.covers(&point));
        assert!(!point.covers(&range));
    }

    #[test]
    fn covering_strings() {
        let eu = Subscription::new(vec![Predicate::new("r", Op::Eq, Value::Str("eu".into()))]);
        let eu2 = Subscription::new(vec![Predicate::new("r", Op::Eq, Value::Str("eu".into()))]);
        let us = Subscription::new(vec![Predicate::new("r", Op::Eq, Value::Str("us".into()))]);
        assert!(eu.covers(&eu2));
        assert!(!eu.covers(&us));
    }

    #[test]
    fn covering_semantics_spot_check() {
        // If covers() says yes, matching must agree on sampled publications.
        let broad = Subscription::new(vec![pred("x", Op::Ge, 0), pred("y", Op::Lt, 100)]);
        let narrow = Subscription::new(vec![
            pred("x", Op::Ge, 5),
            pred("y", Op::Lt, 50),
            pred("z", Op::Eq, 1),
        ]);
        assert!(broad.covers(&narrow));
        for x in [-10i64, 0, 5, 7] {
            for y in [0i64, 49, 50, 100] {
                let p = Publication::new()
                    .with("x", Value::Int(x))
                    .with("y", Value::Int(y))
                    .with("z", Value::Int(1));
                if narrow.matches(&p) {
                    assert!(broad.matches(&p), "containment violated at x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_subscription() {
        let impossible = Subscription::new(vec![pred("x", Op::Lt, 0), pred("x", Op::Gt, 10)]);
        let anything = Subscription::new(vec![pred("x", Op::Eq, 5)]);
        // Anything covers the unsatisfiable subscription.
        assert!(anything.covers(&impossible));
        assert!(!impossible.covers(&anything));
    }

    /// Each `broad` here matches nothing or less than `narrow`, so claiming
    /// to cover it would let the index prune a subscription that matches.
    #[test]
    fn covering_is_sound_at_the_corners() {
        let text = |op, s: &str| Predicate::new("x", op, Value::Str(s.into()));
        let float = |op, v| Predicate::new("x", op, Value::Float(v));
        for (broad, narrow) in [
            // No value compares with NaN: the first conjunction is empty.
            (
                vec![pred("x", Op::Ge, 5), float(Op::Le, f64::NAN)],
                vec![pred("x", Op::Ge, 6)],
            ),
            // `x >= +∞` is satisfiable (by +∞), so not covered by everything.
            (
                vec![pred("x", Op::Eq, 5)],
                vec![float(Op::Ge, f64::INFINITY)],
            ),
            // A value is a number or a string: the first is empty again.
            (
                vec![text(Op::Eq, "s"), pred("x", Op::Ge, 3)],
                vec![text(Op::Eq, "s")],
            ),
            // "x" < "b" is false, and string ranges are opaque to covering.
            (
                vec![text(Op::Eq, "x"), text(Op::Lt, "b")],
                vec![text(Op::Eq, "x")],
            ),
        ] {
            let (broad, narrow) = (Subscription::new(broad), Subscription::new(narrow));
            assert!(!broad.covers(&narrow), "{broad:?} vs {narrow:?}");
        }
        let at_infinity = Publication::new().with("x", Value::Float(f64::INFINITY));
        let open_above = Subscription::new(vec![pred("x", Op::Ge, 0)]);
        assert!(open_above.matches(&at_infinity));
        assert!(open_above.covers(&Subscription::new(vec![float(Op::Ge, f64::INFINITY)])));
    }

    #[test]
    fn wire_roundtrips() {
        let sub = Subscription::new(vec![
            pred("a", Op::Ge, 1),
            Predicate::new("b", Op::Eq, Value::Str("s".into())),
            Predicate::new("c", Op::Lt, Value::Float(2.5)),
        ])
        .with_payload(vec![1, 2, 3]);
        assert_eq!(Subscription::from_wire(&sub.to_wire()).unwrap(), sub);
        let publication = Publication::new()
            .with("a", Value::Int(1))
            .with("b", Value::Str("s".into()));
        assert_eq!(
            Publication::from_wire(&publication.to_wire()).unwrap(),
            publication
        );
    }

    #[test]
    fn footprint_grows_with_content() {
        let small = Subscription::new(vec![pred("a", Op::Eq, 1)]);
        let big = Subscription::new(vec![pred("a", Op::Eq, 1); 4]).with_payload(vec![0; 100]);
        assert!(big.footprint() > small.footprint());
    }
}
