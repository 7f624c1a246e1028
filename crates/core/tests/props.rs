//! Property-based tests of the core algebra: linear snapshot expressions,
//! the per-event propagation map, bitsets, and the benefit model.
//!
//! The correctness of shared execution rests on two algebraic facts:
//! evaluation is a *ring homomorphism* from expressions to per-query
//! values (`eval(a + b) = eval(a) + eval(b)`), and the per-event
//! propagation map commutes with evaluation. Both are asserted here on
//! randomized inputs.

use hamlet_core::agg::NodeVal;
use hamlet_core::bitset::QSet;
use hamlet_core::expr::LinearExpr;
use hamlet_core::optimizer::{benefit, nonshared_cost, shared_cost, CostFactors};
use hamlet_core::snapshot::SnapTable;
use hamlet_types::TrendVal;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn nodeval() -> impl Strategy<Value = NodeVal> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(c, s, n)| NodeVal {
        count: TrendVal(c),
        sum: TrendVal(s),
        cnt: TrendVal(n),
    })
}

/// A random expression over snapshots 0..4 built from sums and propagation
/// steps, plus a 2-member snapshot table.
fn expr() -> impl Strategy<Value = LinearExpr> {
    let leaf = prop_oneof![
        (0u32..4).prop_map(LinearExpr::snapshot),
        nodeval().prop_map(LinearExpr::constant),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.plus(&b)),
            (inner, any::<u64>(), any::<bool>()).prop_map(|(e, w, t)| e.propagate(TrendVal(w), t)),
        ]
    })
}

fn table() -> impl Strategy<Value = SnapTable> {
    proptest::collection::vec((nodeval(), nodeval()), 4).prop_map(|rows| {
        let mut t = SnapTable::new(2);
        for (a, b) in rows {
            t.create(vec![a, b]);
        }
        t
    })
}

proptest! {
    /// eval is additive: eval(a + b) = eval(a) + eval(b).
    #[test]
    fn eval_is_additive(a in expr(), b in expr(), t in table()) {
        let sum = a.clone().plus(&b);
        for q in 0..2 {
            let lhs = t.eval(&sum, q);
            let rhs = t.eval(&a, q).plus(t.eval(&b, q));
            prop_assert_eq!(lhs, rhs);
        }
    }

    /// eval commutes with the per-event propagation map: evaluating a
    /// propagated expression equals propagating the evaluated value.
    #[test]
    fn eval_commutes_with_propagate(
        e in expr(),
        w in any::<u64>(),
        is_target in any::<bool>(),
        t in table(),
    ) {
        let sym = e.clone().propagate(TrendVal(w), is_target);
        for q in 0..2 {
            let lhs = t.eval(&sym, q);
            let rhs = NodeVal::propagate(t.eval(&e, q), false, TrendVal(w), is_target);
            prop_assert_eq!(lhs, rhs);
        }
    }

    /// Expression addition is commutative and associative under eval.
    #[test]
    fn expr_addition_laws(a in expr(), b in expr(), c in expr(), t in table()) {
        let ab = a.clone().plus(&b);
        let ba = b.clone().plus(&a);
        let ab_c = ab.clone().plus(&c);
        let a_bc = a.clone().plus(&b.clone().plus(&c));
        for q in 0..2 {
            prop_assert_eq!(t.eval(&ab, q), t.eval(&ba, q));
            prop_assert_eq!(t.eval(&ab_c, q), t.eval(&a_bc, q));
        }
    }

    /// The in-place running-sum update of a uniform shared event is the
    /// clone / add_snapshot / propagate / add_assign composition it
    /// replaces — term for term, normal form included.
    #[test]
    fn absorb_event_is_the_composition(
        s in expr(),
        x in 0u32..4,
        unit in 0u32..5,
        w in any::<u64>(),
        is_target in any::<bool>(),
    ) {
        // No unit snapshot one time in five; never the graphlet's own.
        let unit = Some(unit).filter(|&u| u != 4 && u != x);
        let mut pred = s.clone();
        pred.add_snapshot(x);
        if let Some(u) = unit {
            pred.add_snapshot(u);
        }
        let composed = s.clone().plus(&pred.propagate(TrendVal(w), is_target));
        let mut absorbed = s;
        absorbed.absorb_event(x, unit, TrendVal(w), is_target);
        prop_assert_eq!(absorbed, composed);
    }

    /// A fold loses nothing: writing `eval(S, q)` plus the event's own
    /// value into one snapshot row and resetting `S` to `1·z` evaluates,
    /// for every member, to what the unfolded `S + 1·z_event` would.
    #[test]
    fn fold_equals_the_unfolded_sum(
        s in expr(),
        own in (nodeval(), nodeval()),
        accepts in (any::<bool>(), any::<bool>()),
        t in table(),
    ) {
        let mut t = t;
        let own = [own.0, own.1];
        let accepts = [accepts.0, accepts.1];
        // Unfolded: the event-level snapshot holds the event's value for
        // the members that accept it, and joins the running sum.
        let z_event = t.create((0..2).map(|q| if accepts[q] { own[q] } else { NodeVal::ZERO }).collect());
        let unfolded = s.clone().plus(&LinearExpr::snapshot(z_event));
        // Folded: one row takes the running sum's value as well.
        let z = t.create_row();
        for q in 0..2 {
            let mut v = t.eval(&s, q);
            if accepts[q] {
                v.add(own[q]);
            }
            t.set(z, q, v);
        }
        let mut folded = s;
        folded.reset_to_snapshot(z);
        prop_assert_eq!(folded.num_terms(), 1);
        for q in 0..2 {
            prop_assert_eq!(t.eval(&folded, q), t.eval(&unfolded, q));
        }
    }

    /// Terms stay sorted, unique, and free of all-zero coefficients.
    #[test]
    fn expr_normal_form(a in expr(), b in expr()) {
        let e = a.plus(&b);
        for w in e.terms.windows(2) {
            prop_assert!(w[0].snap < w[1].snap);
        }
        for term in &e.terms {
            prop_assert!(
                !(term.a.is_zero() && term.b_sum.is_zero() && term.b_cnt.is_zero())
            );
        }
    }

    /// QSet agrees with a BTreeSet model under inserts/removes.
    #[test]
    fn qset_models_a_set(ops in proptest::collection::vec((0..QSet::CAPACITY, any::<bool>()), 0..60)) {
        let mut qs = QSet::new();
        let mut model = BTreeSet::new();
        for (i, insert) in ops {
            if insert {
                qs.insert(i);
                model.insert(i);
            } else {
                qs.remove(i);
                model.remove(&i);
            }
        }
        prop_assert_eq!(qs.len(), model.len());
        prop_assert_eq!(qs.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        for i in 0..150 {
            prop_assert_eq!(qs.contains(i), model.contains(&i));
        }
    }

    /// QSet union/subset/intersect agree with the set model.
    #[test]
    fn qset_set_algebra(
        xs in proptest::collection::btree_set(0..QSet::CAPACITY, 0..20),
        ys in proptest::collection::btree_set(0..QSet::CAPACITY, 0..20),
    ) {
        let a: QSet = xs.iter().copied().collect();
        let b: QSet = ys.iter().copied().collect();
        let mut u = a;
        u.union_with(&b);
        let model_union: BTreeSet<usize> = xs.union(&ys).copied().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), model_union.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(a.is_subset(&u), true);
        prop_assert_eq!(b.is_subset(&u), true);
        prop_assert_eq!(a.intersects(&b), xs.intersection(&ys).next().is_some());
    }

    /// Benefit = NonShared − Shared identically (Def. 12), and the benefit
    /// is monotone in k for snapshot-free sharing.
    #[test]
    fn benefit_model_identities(
        b in 1.0f64..1e4,
        n in 0.0f64..1e6,
        g in 0.0f64..1e5,
        sp in 0.0f64..64.0,
        p in 1.0f64..8.0,
        k in 2.0f64..100.0,
        sc in 0.0f64..1e3,
    ) {
        let f = CostFactors { b, n, g, sp, p };
        let lhs = benefit(k, sc, &f);
        let rhs = nonshared_cost(k, &f) - shared_cost(k, sc, &f);
        prop_assert!((lhs - rhs).abs() <= 1e-6 * lhs.abs().max(1.0));
        // Marginal benefit of one more query (Def. 12 algebra): one more
        // query saves one non-shared pass `b·(log₂g + n)` and costs one
        // more share of snapshot upkeep `sc·g·p`. Benefit is monotone in k
        // exactly when the saved pass outweighs the upkeep — not
        // unconditionally (tiny bursts over a huge graphlet reverse it).
        let marginal = benefit(k + 1.0, sc, &f) - benefit(k, sc, &f);
        let expected = b * (g.max(1.0).log2() + n) - sc * g * p;
        // `marginal` is a difference of values up to ~1e12, so the
        // tolerance must scale with the cost magnitude, not with
        // `expected` (which legitimately passes through 0).
        let tol = 1e-9 * nonshared_cost(k + 1.0, &f).abs().max(shared_cost(k + 1.0, sc, &f).abs()).max(1.0);
        prop_assert!(
            (marginal - expected).abs() <= tol,
            "marginal {} expected {}", marginal, expected
        );
        if expected >= tol {
            prop_assert!(benefit(k + 1.0, sc, &f) + tol >= benefit(k, sc, &f));
        }
    }
}
