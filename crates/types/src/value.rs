//! Attribute values, group-by keys, and the modular trend arithmetic.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Sub};
use std::sync::Arc;

/// A single event attribute value.
///
/// The paper's data sets carry integers (identifiers, districts), floats
/// (price, speed, measurements) and strings (request type). Attribute values
/// are small and cheap to clone; strings are reference-counted since the
/// same value (e.g. a district name) recurs across many events.
#[derive(Clone, Debug)]
pub enum AttrValue {
    /// Signed integer attribute (ids, counts, districts).
    Int(i64),
    /// Floating point attribute (price, speed, measurement).
    Float(f64),
    /// Interned string attribute (request type, company symbol).
    Str(Arc<str>),
}

impl AttrValue {
    /// Returns the value as `f64` for aggregation (`SUM`/`AVG`/`MIN`/`MAX`).
    /// Strings aggregate as 0, matching SQL-ish "non-numeric" behavior.
    #[inline]
    pub fn as_f64(&self) -> f64 {
        match self {
            AttrValue::Int(i) => *i as f64,
            AttrValue::Float(f) => *f,
            AttrValue::Str(_) => 0.0,
        }
    }

    /// Returns the value as an integer if it is one.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is one.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used by predicate evaluation. Numeric values compare by
    /// value (Int vs Float compare numerically); strings compare
    /// lexicographically; numerics sort before strings.
    pub fn total_cmp(&self, other: &AttrValue) -> std::cmp::Ordering {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => std::cmp::Ordering::Greater,
            (_, Str(_)) => std::cmp::Ordering::Less,
        }
    }
}

/// Equality as a partition key needs it: floats compare by their bits,
/// as [`Hash`] reads them and [`AttrValue::total_cmp`] orders them, so a
/// NaN is one key with itself (per sign and payload) and `0.0` and `-0.0`
/// are two. Predicates never ask this; they compare with `total_cmp`.
impl PartialEq for AttrValue {
    fn eq(&self, other: &AttrValue) -> bool {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for AttrValue {}

impl Hash for AttrValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            AttrValue::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            AttrValue::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            AttrValue::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(Arc::from(v))
    }
}

/// Key identifying one group-by partition (the values of the grouping
/// attributes, §2.1 Def. 2). Hashable so partitions live in a hash map.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct GroupKey(pub Vec<AttrValue>);

impl GroupKey {
    /// The empty key used when a query has no GROUP BY clause.
    pub fn empty() -> Self {
        GroupKey(Vec::new())
    }

    /// Total order over keys: lexicographic over the attribute values,
    /// each compared with [`AttrValue::total_cmp`]. `GroupKey` cannot
    /// implement `Ord` (floats are only partially ordered under `==`),
    /// but result merging needs a deterministic sort — this is it.
    ///
    /// Unlike the element-wise predicate order, this is *strictly* total
    /// over distinct keys: cross-variant numeric ties (`Int(2)` vs
    /// `Float(2.0)` — distinct partitions under `Eq`/`Hash`) break by
    /// variant, so `total_cmp` returns `Equal` only for `==` keys and
    /// every key ordering (expiry emission, result merging) is
    /// deterministic.
    pub fn total_cmp(&self, other: &GroupKey) -> std::cmp::Ordering {
        fn variant(v: &AttrValue) -> u8 {
            match v {
                AttrValue::Int(_) => 0,
                AttrValue::Float(_) => 1,
                AttrValue::Str(_) => 2,
            }
        }
        let common = self.0.len().min(other.0.len());
        for i in 0..common {
            let (a, b) = (&self.0[i], &other.0[i]);
            match a.total_cmp(b).then_with(|| variant(a).cmp(&variant(b))) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }

    /// A word that [`total_cmp`](Self::total_cmp) orders no other way:
    /// `a < b` implies `a.order_prefix() <= b.order_prefix()`, so keys
    /// sort by it as integers and only its ties need `total_cmp`. It
    /// reads the first attribute alone: numbers by the `f64` they
    /// compare as (the top bit clear), strings by their first bytes (the
    /// top bit set). The empty key is 0.
    pub fn order_prefix(&self) -> u64 {
        /// `f64::total_cmp` as unsigned integer order.
        fn float_word(x: f64) -> u64 {
            let b = x.to_bits();
            if b >> 63 == 1 {
                !b
            } else {
                b | 1 << 63
            }
        }
        match self.0.first() {
            None => 0,
            Some(AttrValue::Int(i)) => float_word(*i as f64) >> 1,
            Some(AttrValue::Float(x)) => float_word(*x) >> 1,
            Some(AttrValue::Str(s)) => {
                let mut w = [0u8; 8];
                let n = s.len().min(8);
                w[..n].copy_from_slice(&s.as_bytes()[..n]);
                1 << 63 | u64::from_be_bytes(w) >> 1
            }
        }
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Trend-count / trend-sum scalar in the ring ℤ/2⁶⁴.
///
/// The number of event trends is exponential in the number of matched events
/// (§1), so any fixed-width representation overflows; the paper's Java
/// implementation wraps `long` silently. We make wrapping explicit: all
/// strategies use only `+` and `×`, which are well defined mod 2⁶⁴, so
/// results from shared, non-shared and brute-force execution remain
/// bit-identical and are asserted so in tests.
#[derive(Copy, Clone, PartialEq, Eq, Default, Hash)]
pub struct TrendVal(pub u64);

impl TrendVal {
    /// Additive identity.
    pub const ZERO: TrendVal = TrendVal(0);
    /// Multiplicative identity.
    pub const ONE: TrendVal = TrendVal(1);

    /// True iff this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Embeds a signed quantity (e.g. a SUM over a negative attribute) into
    /// the ring via two's complement.
    #[inline]
    pub fn from_i64(v: i64) -> TrendVal {
        TrendVal(v as u64)
    }
}

impl Add for TrendVal {
    type Output = TrendVal;
    #[inline]
    fn add(self, rhs: TrendVal) -> TrendVal {
        TrendVal(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for TrendVal {
    #[inline]
    fn add_assign(&mut self, rhs: TrendVal) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for TrendVal {
    type Output = TrendVal;
    #[inline]
    fn sub(self, rhs: TrendVal) -> TrendVal {
        TrendVal(self.0.wrapping_sub(rhs.0))
    }
}

impl Mul for TrendVal {
    type Output = TrendVal;
    #[inline]
    fn mul(self, rhs: TrendVal) -> TrendVal {
        TrendVal(self.0.wrapping_mul(rhs.0))
    }
}

impl MulAssign for TrendVal {
    #[inline]
    fn mul_assign(&mut self, rhs: TrendVal) {
        self.0 = self.0.wrapping_mul(rhs.0);
    }
}

impl Sum for TrendVal {
    fn sum<I: Iterator<Item = TrendVal>>(iter: I) -> TrendVal {
        iter.fold(TrendVal::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for TrendVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for TrendVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for TrendVal {
    fn from(v: u64) -> Self {
        TrendVal(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn attr_value_conversions() {
        assert_eq!(AttrValue::from(3i64).as_int(), Some(3));
        assert_eq!(AttrValue::from(2.5f64).as_f64(), 2.5);
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from("x").as_int(), None);
        assert_eq!(AttrValue::from(3i64).as_f64(), 3.0);
        assert_eq!(AttrValue::from("s").as_f64(), 0.0);
    }

    #[test]
    fn attr_value_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(AttrValue::Int(1).total_cmp(&AttrValue::Int(2)), Less);
        assert_eq!(AttrValue::Int(2).total_cmp(&AttrValue::Float(2.0)), Equal);
        assert_eq!(AttrValue::Float(3.0).total_cmp(&AttrValue::Int(2)), Greater);
        assert_eq!(AttrValue::from("a").total_cmp(&AttrValue::from("b")), Less);
        assert_eq!(AttrValue::from("a").total_cmp(&AttrValue::Int(9)), Greater);
        assert_eq!(AttrValue::Int(9).total_cmp(&AttrValue::from("a")), Less);
    }

    #[test]
    fn float_keys_hash_consistently() {
        let a = AttrValue::Float(1.5);
        let b = AttrValue::Float(1.5);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a, b);
        // Equal exactly where the hash is: a NaN finds its own partition,
        // and the two zeros are two.
        let nan = AttrValue::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_ne!(nan, AttrValue::Float(-f64::NAN));
        assert_ne!(AttrValue::Float(0.0), AttrValue::Float(-0.0));
        assert_ne!(AttrValue::Int(2), AttrValue::Float(2.0));
    }

    #[test]
    fn group_key_total_order() {
        use std::cmp::Ordering::*;
        let k = |vs: &[i64]| GroupKey(vs.iter().map(|&v| AttrValue::Int(v)).collect());
        assert_eq!(k(&[1, 2]).total_cmp(&k(&[1, 3])), Less);
        assert_eq!(k(&[2]).total_cmp(&k(&[1, 9])), Greater);
        assert_eq!(k(&[1]).total_cmp(&k(&[1, 0])), Less); // prefix sorts first
        assert_eq!(k(&[7]).total_cmp(&k(&[7])), Equal);
        // Mixed types follow AttrValue::total_cmp (numerics before strings).
        let mixed = GroupKey(vec![AttrValue::from("a")]);
        assert_eq!(k(&[9]).total_cmp(&mixed), Less);
        // Strictly total over distinct keys: Int(2) and Float(2.0) are
        // different partitions (different Eq/Hash), so they must not
        // compare Equal — cross-variant numeric ties break by variant.
        let ki = GroupKey(vec![AttrValue::Int(2)]);
        let kf = GroupKey(vec![AttrValue::Float(2.0)]);
        assert_ne!(ki, kf);
        assert_eq!(ki.total_cmp(&kf), Less);
        assert_eq!(kf.total_cmp(&ki), Greater);
        assert_eq!(ki.total_cmp(&ki.clone()), Equal);
    }

    /// The prefix never contradicts `total_cmp`, on the keys where it is
    /// easiest to: numeric ties across variants, ints `f64` cannot tell
    /// apart, signed zeros, NaNs of both signs, strings that agree on
    /// their first eight bytes, the empty key and two-attribute keys.
    #[test]
    fn order_prefix_is_monotone_under_total_cmp() {
        let big = 1i64 << 53;
        let values = [
            AttrValue::Int(i64::MIN),
            AttrValue::Int(-3),
            AttrValue::Int(0),
            AttrValue::Int(2),
            AttrValue::Int(big),
            AttrValue::Int(big + 1),
            AttrValue::Int(i64::MAX),
            AttrValue::Float(f64::NAN),
            AttrValue::Float(-f64::NAN),
            AttrValue::Float(f64::NEG_INFINITY),
            AttrValue::Float(-0.0),
            AttrValue::Float(0.0),
            AttrValue::Float(2.0),
            AttrValue::Float(big as f64),
            AttrValue::from(""),
            AttrValue::from("a"),
            AttrValue::from("abcdefgh"),
            AttrValue::from("abcdefghij"),
            AttrValue::from("abcdefgi"),
        ];
        let mut keys = vec![GroupKey::empty()];
        for v in &values {
            keys.push(GroupKey(vec![v.clone()]));
            for w in &values[..4] {
                keys.push(GroupKey(vec![v.clone(), w.clone()]));
            }
        }
        for a in &keys {
            for b in &keys {
                if a.total_cmp(b).is_lt() {
                    assert!(a.order_prefix() <= b.order_prefix(), "{a:?} < {b:?}");
                }
            }
        }
        let k = |v: AttrValue| GroupKey(vec![v]).order_prefix();
        assert_eq!(k(AttrValue::Int(2)), k(AttrValue::Float(2.0)));
        assert_eq!(k(AttrValue::Int(big)), k(AttrValue::Int(big + 1)));
        assert!(k(AttrValue::Int(-3)) < k(AttrValue::Int(2)));
    }

    #[test]
    fn group_key_display() {
        let k = GroupKey(vec![AttrValue::Int(7), AttrValue::from("d1")]);
        assert_eq!(format!("{k}"), "[7, d1]");
        assert_eq!(format!("{}", GroupKey::empty()), "[]");
    }

    #[test]
    fn trendval_ring_ops() {
        let a = TrendVal(u64::MAX);
        assert_eq!(a + TrendVal::ONE, TrendVal::ZERO);
        assert_eq!(TrendVal(3) * TrendVal(4), TrendVal(12));
        assert_eq!(TrendVal(1) - TrendVal(2), TrendVal(u64::MAX));
        let s: TrendVal = [TrendVal(1), TrendVal(2), TrendVal(3)].into_iter().sum();
        assert_eq!(s, TrendVal(6));
        assert_eq!(TrendVal::from_i64(-1), TrendVal(u64::MAX));
        assert!(TrendVal::ZERO.is_zero());
        assert!(!TrendVal::ONE.is_zero());
    }

    #[test]
    fn trendval_distributes() {
        // (a + b) * c == a*c + b*c even under wrapping.
        let a = TrendVal(u64::MAX - 3);
        let b = TrendVal(17);
        let c = TrendVal(1 << 60);
        assert_eq!((a + b) * c, a * c + b * c);
    }
}
