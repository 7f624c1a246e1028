//! Propagated aggregate state and its per-event update rules.
//!
//! GRETA-style online trend aggregation (§3.2) propagates an intermediate
//! value from predecessor events to each new event. For the aggregation
//! functions of Def. 2 the propagated state is:
//!
//! * `count` — number of trends ending at the event (Eq. 2);
//! * `sum`   — Σ over those trends of Σ `attr` of target-type events
//!   (drives `SUM` and `AVG`);
//! * `cnt`   — Σ over those trends of the number of target-type events
//!   (drives `COUNT(E)` and the divisor of `AVG`);
//! * `mm`    — min/max of `attr` over target-type events, over all trends
//!   ending here (drives `MIN`/`MAX`; lattice-valued, non-shared path only).
//!
//! `count`, `sum`, `cnt` live in ℤ/2⁶⁴ and propagate *linearly*, which is
//! what lets HAMLET encode them in snapshot expressions (§3.3). Attribute
//! values enter the ring as ×10⁶ fixed-point integers so float sums stay
//! exact and strategy-independent.

use crate::checkpoint::codec_struct;
use hamlet_types::TrendVal;

/// Fixed-point scale for embedding attribute values into the ring.
pub const FIXED_POINT_SCALE: f64 = 1e6;

/// Embeds an attribute value into the ring (×10⁶ fixed point).
#[inline]
pub fn ring_of_attr(v: f64) -> TrendVal {
    TrendVal::from_i64((v * FIXED_POINT_SCALE).round() as i64)
}

/// Renders a ring sum back to a float (inverse of [`ring_of_attr`] modulo
/// wrap-around, which only occurs at scales where the paper's Java `long`
/// would have wrapped too).
#[inline]
pub fn attr_of_ring(v: TrendVal) -> f64 {
    (v.0 as i64) as f64 / FIXED_POINT_SCALE
}

/// The linear (ring-valued) part of the propagated state.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct NodeVal {
    /// Number of trends ending at the event (Eq. 2).
    pub count: TrendVal,
    /// Fixed-point Σ of the target attribute over all trends.
    pub sum: TrendVal,
    /// Σ of target-type event counts over all trends.
    pub cnt: TrendVal,
}

impl NodeVal {
    /// The zero state.
    pub const ZERO: NodeVal = NodeVal {
        count: TrendVal::ZERO,
        sum: TrendVal::ZERO,
        cnt: TrendVal::ZERO,
    };

    /// Adds another state component-wise.
    #[inline]
    pub fn add(&mut self, o: NodeVal) {
        self.count += o.count;
        self.sum += o.sum;
        self.cnt += o.cnt;
    }

    /// Component-wise sum.
    #[inline]
    pub fn plus(mut self, o: NodeVal) -> NodeVal {
        self.add(o);
        self
    }

    /// Component-wise difference (used for negation watermarks, §5).
    #[inline]
    pub fn minus(mut self, o: NodeVal) -> NodeVal {
        self.count = self.count - o.count;
        self.sum = self.sum - o.sum;
        self.cnt = self.cnt - o.cnt;
        self
    }

    /// True iff all components are zero.
    pub fn is_zero(&self) -> bool {
        self.count.is_zero() && self.sum.is_zero() && self.cnt.is_zero()
    }

    /// Multiplies every component by the ring scalar `m`.
    #[inline]
    pub fn scale(&mut self, m: TrendVal) {
        self.count = m * self.count;
        self.sum = m * self.sum;
        self.cnt = m * self.cnt;
    }

    /// Adds `m · o` component-wise.
    #[inline]
    pub fn add_scaled(&mut self, o: NodeVal, m: TrendVal) {
        self.count += m * o.count;
        self.sum += m * o.sum;
        self.cnt += m * o.cnt;
    }

    /// The per-event update (Eq. 1–2 extended to sums): given the summed
    /// predecessor state `pred` and whether the event starts a trend, the
    /// event's state is
    ///
    /// ```text
    /// count = pred.count + start
    /// sum   = pred.sum + w·count     (w = target attr, 0 if not target)
    /// cnt   = pred.cnt + u·count     (u = 1 if target type else 0)
    /// ```
    #[inline]
    pub fn propagate(pred: NodeVal, start: bool, w: TrendVal, is_target: bool) -> NodeVal {
        let count = if start {
            pred.count + TrendVal::ONE
        } else {
            pred.count
        };
        let sum = pred.sum + w * count;
        let cnt = if is_target {
            pred.cnt + count
        } else {
            pred.cnt
        };
        NodeVal { count, sum, cnt }
    }
}

codec_struct!(NodeVal { count, sum, cnt });

/// Min/max lattice state for `MIN`/`MAX` queries (non-shared path).
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct MmVal(pub f64);

codec_struct!(MmVal { 0 });

impl MmVal {
    /// Identity for `MIN` (+∞).
    pub const MIN_IDENTITY: MmVal = MmVal(f64::INFINITY);
    /// Identity for `MAX` (−∞).
    pub const MAX_IDENTITY: MmVal = MmVal(f64::NEG_INFINITY);

    /// Folds another lattice value (`is_min` selects min vs max).
    #[inline]
    pub fn fold(&mut self, v: f64, is_min: bool) {
        self.0 = if is_min { self.0.min(v) } else { self.0.max(v) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_round_trip() {
        for v in [0.0, 1.0, -2.5, 12.345678, 1e6] {
            let r = ring_of_attr(v);
            assert!((attr_of_ring(r) - v).abs() < 1e-5, "value {v}");
        }
    }

    #[test]
    fn propagate_count_only() {
        // A start event with no predecessors: one new trend.
        let v = NodeVal::propagate(NodeVal::ZERO, true, TrendVal::ZERO, false);
        assert_eq!(v.count, TrendVal(1));
        // Extending 3 trends without starting a new one.
        let pred = NodeVal {
            count: TrendVal(3),
            sum: TrendVal::ZERO,
            cnt: TrendVal::ZERO,
        };
        let v = NodeVal::propagate(pred, false, TrendVal::ZERO, false);
        assert_eq!(v.count, TrendVal(3));
    }

    #[test]
    fn propagate_sum_and_cnt() {
        // Event of the target type with attr value 5 extending 2 trends and
        // starting 1 new: count = 3, sum += 5·3, cnt += 3.
        let pred = NodeVal {
            count: TrendVal(2),
            sum: TrendVal(7),
            cnt: TrendVal(2),
        };
        let v = NodeVal::propagate(pred, true, TrendVal(5), true);
        assert_eq!(v.count, TrendVal(3));
        assert_eq!(v.sum, TrendVal(7 + 15));
        assert_eq!(v.cnt, TrendVal(2 + 3));
    }

    #[test]
    fn nodeval_algebra() {
        let a = NodeVal {
            count: TrendVal(1),
            sum: TrendVal(2),
            cnt: TrendVal(3),
        };
        let b = NodeVal {
            count: TrendVal(10),
            sum: TrendVal(20),
            cnt: TrendVal(30),
        };
        let c = a.plus(b);
        assert_eq!(c.count, TrendVal(11));
        assert_eq!(c.minus(b), a);
        assert!(NodeVal::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn mm_fold() {
        let mut m = MmVal::MIN_IDENTITY;
        m.fold(3.0, true);
        m.fold(1.0, true);
        m.fold(2.0, true);
        assert_eq!(m.0, 1.0);
        let mut m = MmVal::MAX_IDENTITY;
        m.fold(3.0, false);
        m.fold(9.0, false);
        assert_eq!(m.0, 9.0);
    }
}
