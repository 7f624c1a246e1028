//! Property-based tests of the core algebra: linear snapshot expressions,
//! the per-event propagation map, bitsets, the benefit model, and the
//! per-event facts a workload's cells are assembled from.
//!
//! The correctness of shared execution rests on two algebraic facts:
//! evaluation is a *ring homomorphism* from expressions to per-query
//! values (`eval(a + b) = eval(a) + eval(b)`), and the per-event
//! propagation map commutes with evaluation. Both are asserted here on
//! randomized inputs.

use hamlet_core::agg::{ring_of_attr, MmVal, NodeVal};
use hamlet_core::bitset::QSet;
use hamlet_core::burst::{compile_groups, BurstRepr};
use hamlet_core::expr::LinearExpr;
use hamlet_core::optimizer::benefit::{CLOSE_MEMBER_NS, FOLD_MEMBER_NS, OPEN_MEMBER_NS};
use hamlet_core::optimizer::{benefit, nonshared_cost, shared_cost, solo_member_cost, CostFactors};
use hamlet_core::snapshot::SnapTable;
use hamlet_core::{analyze, AggSkeleton};
use hamlet_query::{AggFunc, CmpOp, Pattern, Query, QueryId, SelectionPredicate, Window};
use hamlet_types::{AttrValue, Event, EventTypeId, TrendVal, Ts};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

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

    /// Benefit = NonShared − Shared identically (Def. 12), and one more
    /// sharing member moves the benefit by exactly what it adds: the solo
    /// pass it no longer runs, less its value in every event-level
    /// snapshot, its predecessor sum at the graphlet's open and its
    /// resolution at the close.
    #[test]
    fn benefit_model_identities(
        b in 1.0f64..1e4,
        repr in 0usize..3,
        k in 2.0f64..64.0,
        sc in 0.0f64..1e3,
    ) {
        let repr = [BurstRepr::Count, BurstRepr::Cells, BurstRepr::Events][repr];
        let f = CostFactors { b, repr };
        let lhs = benefit(k, sc, &f);
        let rhs = nonshared_cost(k, &f) - shared_cost(k, sc, &f);
        prop_assert!((lhs - rhs).abs() <= 1e-6 * lhs.abs().max(1.0));
        let marginal = benefit(k + 1.0, sc, &f) - benefit(k, sc, &f);
        let open = OPEN_MEMBER_NS + CLOSE_MEMBER_NS;
        let expected = solo_member_cost(&f) - sc * FOLD_MEMBER_NS - open;
        // `marginal` is a difference of values up to ~1e7, so the
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

/// A splitmix64 stream: the random workloads and events below are drawn
/// from one seed.
fn stream_of(mut seed: u64) -> impl FnMut() -> u64 {
    move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A small attribute value of either numeric variant, signed zeros
/// included, so selections compare across variants and `0.0` / `-0.0`.
fn small_value(next: &mut impl FnMut() -> u64) -> AttrValue {
    let v = (next() % 5) as i64 - 1;
    match next() % 4 {
        0 => AttrValue::Int(v),
        1 => AttrValue::Float(-0.0),
        _ => AttrValue::Float(v as f64 * 0.5),
    }
}

proptest! {
    /// Every group's cell of an event, read off the workload's one
    /// selection row, equals what the members' own selections and the
    /// group's skeleton say, for every group, type and event. The
    /// workloads mix windows (several groups), `COUNT` / `SUM` / `AVG` /
    /// `MIN` / `MAX`, selections shared between groups and not, and more
    /// than 64 distinct selections on the head type (a row of two words).
    #[test]
    fn cells_from_the_selection_row_match_each_member(seed in any::<u64>()) {
        let mut next = stream_of(seed);
        let (a, b) = (EventTypeId(0), EventTypeId(1));
        let n = 14 + next() % 10;
        let queries: Vec<Arc<Query>> = (0..n)
            .map(|i| {
                let within = [10, 20, 30][(next() % 3) as usize];
                let agg = match next() % 6 {
                    0 => AggFunc::CountStar,
                    1 => AggFunc::CountType(b),
                    2 => AggFunc::Sum(b, 1),
                    3 => AggFunc::Avg(b, 1),
                    4 => AggFunc::Min(b, 1),
                    _ => AggFunc::Max(b, 1),
                };
                let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
                let op = |r: u64| ops[(r % 6) as usize];
                // Five selections on `A` no other query has (70+ in all).
                let mut selections: Vec<SelectionPredicate> = (0..5)
                    .map(|j| SelectionPredicate {
                        ty: a,
                        attr: 0,
                        op: op(next()),
                        value: AttrValue::Int((5 * i + j) as i64),
                    })
                    .collect();
                // A few on `B` from a small pool, shared across groups.
                for _ in 0..next() % 3 {
                    let (attr, op) = ((next() % 2) as usize, op(next()));
                    let value = small_value(&mut next);
                    selections.push(SelectionPredicate { ty: b, attr, op, value });
                }
                let pat = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
                let window = Window::tumbling(within);
                let q = Query::new(QueryId(i as u32), pat, agg, selections, vec![], vec![], vec![], window);
                Arc::new(q.unwrap())
            })
            .collect();
        let plan = analyze(&queries).unwrap();
        prop_assert!(plan.groups.len() > 1);
        let (rts, table) = compile_groups(&plan.groups);
        prop_assert!(table[a.idx()].words() >= 2, "over 64 distinct selections on A");
        for t in 0..200u64 {
            let ty = if next().is_multiple_of(4) { a } else { b };
            let first = match ty == a {
                true => AttrValue::Int((next() % 130) as i64),
                false => small_value(&mut next),
            };
            let e = Event::new(Ts(t), ty, vec![first, small_value(&mut next)]);
            let sels = &table[ty.idx()];
            let mut row = vec![0; sels.width()];
            sels.row_into(&e, &mut row);
            for rt in &rts {
                let Some(tl) = rt.template.local(ty) else { continue };
                if rt.burst_repr(tl) != BurstRepr::Cells {
                    continue;
                }
                let cell = rt.cell(tl, &row);
                for q in 0..rt.k() {
                    let accepts = rt.sel[tl][q].iter().all(|p| p.matches(&e));
                    prop_assert_eq!(cell.mask.contains(q), accepts, "member {} type {}", q, tl);
                }
                let identity = |is_min| match is_min {
                    true => MmVal::MIN_IDENTITY.0,
                    false => MmVal::MAX_IDENTITY.0,
                };
                let val = match rt.skeleton {
                    AggSkeleton::Linear { ty: t, attr: Some(at) } if t == ty => {
                        e.attr(at).map_or(0, |v| ring_of_attr(v.as_f64()).0)
                    }
                    AggSkeleton::MinMax { ty: t, attr, is_min } if t == ty => {
                        e.attr(attr).map_or(identity(is_min), |v| v.as_f64()).to_bits()
                    }
                    AggSkeleton::MinMax { is_min, .. } => identity(is_min).to_bits(),
                    _ => 0,
                };
                prop_assert_eq!(cell.val, val);
            }
        }
    }

    /// The window instances containing a tick depend only on its pane
    /// (`gcd(within, slide)`): instances start on multiples of `slide`,
    /// which the pane divides, as it divides `within`. The batched scan
    /// groups events into ranges by pane alone on this.
    #[test]
    fn every_tick_of_a_pane_lies_in_the_same_instances(
        within in 1u64..60,
        slide_seed in 1u64..60,
        t in 0u64..10_000,
    ) {
        let slide = 1 + (slide_seed - 1) % within;
        let w = Window::new(within, slide);
        let pane = hamlet_types::time::gcd(within, slide);
        let first = t / pane * pane;
        let of = |t: u64| w.instances_containing(Ts(t)).collect::<Vec<_>>();
        let expected = of(first);
        for tick in first..first + pane {
            prop_assert_eq!(of(tick), expected.clone(), "tick {} of pane {}", tick, t / pane);
        }
    }
}
