//! Shared generator machinery: rate control, bursty type sequencing,
//! attribute sampling, and the `Spec` each data set module is
//! described by.

use hamlet_query::{parse_query, Query};
use hamlet_types::{Event, EventTypeId, Ts, TypeRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One data set's description: every type carries every attribute; `hot`
/// is the Kleene type the workload shares, drawn with weight
/// `hot_weight` against 1 for each other type; the workload groups by
/// `group_by`.
pub(crate) struct Spec {
    pub(crate) types: &'static [&'static str],
    pub(crate) attrs: &'static [&'static str],
    pub(crate) hot: &'static str,
    pub(crate) hot_weight: f64,
    pub(crate) group_by: &'static str,
}

impl Spec {
    /// Registers every type, in order, with every attribute.
    pub(crate) fn registry(&self) -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        for t in self.types {
            reg.register(t, self.attrs);
        }
        Arc::new(reg)
    }

    /// Every type but the hot one, in schema order.
    pub(crate) fn cold(&self) -> Vec<&'static str> {
        self.types
            .iter()
            .copied()
            .filter(|t| *t != self.hot)
            .collect()
    }

    /// The stream under `cfg`, attributes from `make`: the hot type
    /// arrives in bursts of `cfg.mean_burst`, every other type in runs of
    /// `min(2, mean_burst)`.
    pub(crate) fn generate(
        &self,
        reg: &TypeRegistry,
        cfg: &GenConfig,
        make: impl FnMut(&mut StdRng, Ts, EventTypeId, u64) -> Event,
    ) -> Vec<Event> {
        let mix: Vec<(EventTypeId, f64, f64)> = self
            .types
            .iter()
            .map(|t| {
                let id = reg.type_id(t).expect("registered");
                if *t == self.hot {
                    (id, self.hot_weight, cfg.mean_burst)
                } else {
                    (id, 1.0, 2.0_f64.min(cfg.mean_burst))
                }
            })
            .collect();
        generate_stream(cfg, BurstyMix::with_bursts(&mix), make)
    }

    /// `k` queries `SEQ(X, Hot+)` that differ only in `X`, which cycles
    /// through [`Spec::cold`]: the shared-Kleene workload of §6.1.
    pub(crate) fn workload(&self, reg: &TypeRegistry, k: usize, window_secs: u64) -> Vec<Query> {
        let firsts = self.cold();
        (0..k)
            .map(|i| {
                let text = format!(
                    "RETURN COUNT(*) PATTERN SEQ({}, {}+) GROUP BY {} WITHIN {window_secs}",
                    firsts[i % firsts.len()],
                    self.hot,
                    self.group_by
                );
                parse_query(reg, i as u32, &text).expect("workload query parses")
            })
            .collect()
    }
}

/// Generation parameters common to all data sets.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Average events per minute (the paper's speed-up knob, §6.1).
    pub events_per_min: u64,
    /// Stream length in minutes.
    pub minutes: u64,
    /// Mean same-type run length — the expected burst size `b` (Def. 10).
    /// 1.0 means types alternate freely; the paper's stock experiments use
    /// ~120 events per burst (§6.2).
    pub mean_burst: f64,
    /// Number of distinct partition-key values (districts / houses /
    /// companies); 0 is read as 1.
    pub num_groups: u64,
    /// Zipf exponent for the key distribution (0 = uniform, ~1 = realistic
    /// hot-key skew).
    pub group_skew: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Maximum out-of-order lateness, in stream ticks. 0 (the default)
    /// emits the stream in timestamp order; > 0 applies a seeded
    /// [`bounded_delay_shuffle`] so every generator can exercise the
    /// pipeline's out-of-order ingestion: an event can trail the running
    /// timestamp maximum by at most this many ticks.
    pub max_lateness: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            events_per_min: 10_000,
            minutes: 1,
            mean_burst: 40.0,
            num_groups: 4,
            group_skew: 0.0,
            seed: 7,
            max_lateness: 0,
        }
    }
}

impl GenConfig {
    /// Total number of events the config yields.
    pub fn total_events(&self) -> u64 {
        self.events_per_min * self.minutes
    }
}

/// Weighted event-type mix with bursty (geometric run-length) sequencing.
///
/// Consecutive events keep the current type with probability
/// `1 − 1/mean_burst`, yielding geometric same-type runs with the requested
/// mean — the burst structure the HAMLET optimizer exploits (Def. 10).
pub struct BurstyMix {
    types: Vec<EventTypeId>,
    weights: Vec<f64>,
    /// Per-type stay probability (`1 − 1/mean_burst` of that type).
    stay: Vec<f64>,
    total_weight: f64,
    current: Option<usize>,
}

impl BurstyMix {
    /// Creates a mix from `(type, weight, mean_burst)` triples — Kleene
    /// types typically get long runs, bookkeeping types short ones.
    pub fn with_bursts(mix: &[(EventTypeId, f64, f64)]) -> Self {
        assert!(!mix.is_empty(), "empty type mix");
        assert!(
            mix.iter().all(|(_, _, m)| *m >= 1.0),
            "mean burst must be ≥ 1"
        );
        let types = mix.iter().map(|(t, _, _)| *t).collect();
        let weights: Vec<f64> = mix.iter().map(|(_, w, _)| *w).collect();
        let stay = mix.iter().map(|(_, _, m)| 1.0 - 1.0 / m).collect();
        let total_weight = weights.iter().sum();
        BurstyMix {
            types,
            weights,
            stay,
            total_weight,
            current: None,
        }
    }

    /// Draws the next event type.
    pub fn next_type(&mut self, rng: &mut StdRng) -> EventTypeId {
        if let Some(cur) = self.current {
            if rng.gen::<f64>() < self.stay[cur] {
                return self.types[cur];
            }
        }
        // Switch: redraw excluding the current type, so run lengths are
        // exactly geometric with the requested mean.
        let cur = self.current;
        let excluded: f64 = cur.map(|c| self.weights[c]).unwrap_or(0.0);
        let pool = self.total_weight - excluded;
        if pool <= 0.0 {
            // Single-type mix: stay forever.
            self.current = Some(0);
            return self.types[0];
        }
        let mut x = rng.gen::<f64>() * pool;
        let mut pick = None;
        for (i, w) in self.weights.iter().enumerate() {
            if Some(i) == cur {
                continue;
            }
            x -= w;
            if x <= 0.0 {
                pick = Some(i);
                break;
            }
        }
        let pick = pick.unwrap_or_else(|| {
            (0..self.types.len())
                .rev()
                .find(|i| Some(*i) != cur)
                .expect("pool non-empty")
        });
        self.current = Some(pick);
        self.types[pick]
    }
}

/// Spreads `total` events uniformly over `minutes` of stream time
/// (integral seconds) and materializes them through `make`.
pub fn generate_stream(
    cfg: &GenConfig,
    mut mix: BurstyMix,
    mut make: impl FnMut(&mut StdRng, Ts, EventTypeId, u64) -> Event,
) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total = cfg.total_events();
    let span_secs = (cfg.minutes * 60).max(1);
    let groups = cfg.num_groups.max(1);
    let zipf = crate::zipf::Zipf::new(groups, cfg.group_skew);
    let mut out = Vec::with_capacity(total as usize);
    for i in 0..total {
        let t = Ts(i * span_secs / total.max(1));
        let ty = mix.next_type(&mut rng);
        let group = if cfg.group_skew > 0.0 {
            zipf.sample(&mut rng)
        } else {
            rng.gen_range(0..groups)
        };
        out.push(make(&mut rng, t, ty, group));
    }
    if cfg.max_lateness > 0 {
        bounded_delay_shuffle(&mut out, cfg.max_lateness, cfg.seed);
    }
    out
}

/// Reorders an in-order stream into a *bounded-lateness* out-of-order
/// stream: every timestamp tick draws a seeded delivery delay in
/// `[0, max_lateness]` ticks, and events are re-emitted in delivery
/// order. The result satisfies the bounded-delay network model —
/// no event trails the running timestamp maximum by more than
/// `max_lateness` ticks ([`max_observed_lateness`]) — so a reorder
/// stage with watermark slack ≥ `max_lateness` (see `hamlet-pipeline`)
/// reconstructs the original order exactly.
///
/// The delay is drawn *per tick*, not per event: a delayed tick delays
/// all its events together, preserving their relative order. (Intra-tick
/// order carries semantic weight — the engine treats arrival order as
/// the tie-break for equal timestamps — so shuffling within a tick would
/// change aggregates, not just delivery.)
pub fn bounded_delay_shuffle(events: &mut [Event], max_lateness: u64, seed: u64) {
    if max_lateness == 0 || events.len() < 2 {
        return;
    }
    // Distinct seed domain so the shuffle does not replay the generator's
    // attribute draws.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_5EED_0DDE_11A5);
    // The input is in timestamp order, so each tick's delay is drawn once
    // when the tick starts.
    let mut cur: Option<(u64, u64)> = None;
    let mut keys: Vec<(u64, usize)> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let t = e.time.ticks();
        let d = match cur {
            Some((tick, d)) if tick == t => d,
            _ => {
                let d = rng.gen_range(0..=max_lateness);
                cur = Some((t, d));
                d
            }
        };
        keys.push((t.saturating_add(d), i));
    }
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    apply_permutation(events, &order);
}

/// Reorders `events` so position `p` holds the element that was at
/// `order[p]` (cycle-chasing, O(n) swaps, no clones).
fn apply_permutation(events: &mut [Event], order: &[usize]) {
    let mut visited = vec![false; order.len()];
    for start in 0..order.len() {
        if visited[start] || order[start] == start {
            visited[start] = true;
            continue;
        }
        let mut pos = start;
        loop {
            visited[pos] = true;
            let src = order[pos];
            if src == start {
                break;
            }
            events.swap(pos, src);
            pos = src;
        }
    }
}

/// Maximum lateness of a stream: the largest amount (in ticks) by which
/// any event trails the running timestamp maximum of its prefix. 0 for
/// in-order streams; for [`bounded_delay_shuffle`] output it is at most
/// the configured bound.
pub fn max_observed_lateness(events: &[Event]) -> u64 {
    let mut max_seen = 0u64;
    let mut late = 0u64;
    for e in events {
        let t = e.time.ticks();
        max_seen = max_seen.max(t);
        late = late.max(max_seen - t);
    }
    late
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The empirical mean same-type run length of a stream.
    pub(crate) fn mean_run_length(events: &[Event]) -> f64 {
        if events.is_empty() {
            return 0.0;
        }
        let mut runs = 1u64;
        for w in events.windows(2) {
            if w[0].ty != w[1].ty {
                runs += 1;
            }
        }
        events.len() as f64 / runs as f64
    }

    fn mini_registry() -> (TypeRegistry, Vec<EventTypeId>) {
        let mut reg = TypeRegistry::new();
        let ts = (0..4)
            .map(|i| reg.register(&format!("T{i}"), &["g"]))
            .collect();
        (reg, ts)
    }

    #[test]
    fn stream_respects_rate_and_order() {
        let (_, ts) = mini_registry();
        let cfg = GenConfig {
            events_per_min: 600,
            minutes: 2,
            mean_burst: 5.0,
            num_groups: 3,
            group_skew: 0.0,
            seed: 1,
            max_lateness: 0,
        };
        let mix = BurstyMix::with_bursts(&[(ts[0], 1.0, 5.0), (ts[1], 1.0, 5.0)]);
        let evs = generate_stream(&cfg, mix, |_, t, ty, g| {
            Event::new(t, ty, vec![hamlet_types::AttrValue::Int(g as i64)])
        });
        assert_eq!(evs.len(), 1200);
        assert!(evs.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(evs.last().unwrap().time.ticks() < 120);
    }

    #[test]
    fn burst_model_hits_requested_mean() {
        let (_, ts) = mini_registry();
        for target in [1.5, 10.0, 50.0] {
            let cfg = GenConfig {
                events_per_min: 60_000,
                minutes: 1,
                mean_burst: target,
                num_groups: 1,
                group_skew: 0.0,
                seed: 42,
                max_lateness: 0,
            };
            let mix = BurstyMix::with_bursts(&[
                (ts[0], 1.0, target),
                (ts[1], 1.0, target),
                (ts[2], 1.0, target),
            ]);
            let evs = generate_stream(&cfg, mix, |_, t, ty, _| Event::new(t, ty, vec![]));
            let got = mean_run_length(&evs);
            assert!(
                (got - target).abs() / target < 0.25,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (_, ts) = mini_registry();
        let cfg = GenConfig {
            events_per_min: 1000,
            seed: 9,
            ..GenConfig::default()
        };
        let make = |_: &mut StdRng, t: Ts, ty: EventTypeId, _: u64| Event::new(t, ty, vec![]);
        let mix = || BurstyMix::with_bursts(&[(ts[0], 1.0, 40.0), (ts[1], 2.0, 40.0)]);
        let a = generate_stream(&cfg, mix(), make);
        let b = generate_stream(&cfg, mix(), make);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty type mix")]
    fn empty_mix_rejected() {
        BurstyMix::with_bursts(&[]);
    }

    #[test]
    fn bounded_delay_shuffle_respects_the_bound() {
        let (_, ts) = mini_registry();
        let cfg = GenConfig {
            events_per_min: 6_000,
            minutes: 2,
            mean_burst: 5.0,
            num_groups: 3,
            group_skew: 0.0,
            seed: 11,
            max_lateness: 0,
        };
        let mix = BurstyMix::with_bursts(&[(ts[0], 1.0, 5.0), (ts[1], 1.0, 5.0)]);
        let make = |_: &mut StdRng, t: Ts, ty: EventTypeId, g: u64| {
            Event::new(t, ty, vec![hamlet_types::AttrValue::Int(g as i64)])
        };
        let ordered = generate_stream(&cfg, mix, make);
        assert_eq!(max_observed_lateness(&ordered), 0);
        for bound in [1u64, 5, 30] {
            let mut shuffled = ordered.clone();
            bounded_delay_shuffle(&mut shuffled, bound, 77);
            let late = max_observed_lateness(&shuffled);
            assert!(late <= bound, "lateness {late} exceeds bound {bound}");
            // The shuffle is a permutation: sorting by (time, original
            // intra-tick order) restores the stream exactly.
            let mut restored = shuffled.clone();
            restored.sort_by_key(|e| e.time);
            assert_eq!(restored, ordered, "bound {bound} lost or mutated events");
        }
        // A meaningful bound actually perturbs the order.
        let mut shuffled = ordered.clone();
        bounded_delay_shuffle(&mut shuffled, 30, 77);
        assert_ne!(shuffled, ordered, "shuffle was a no-op");
        assert!(max_observed_lateness(&shuffled) > 0);
    }

    #[test]
    fn shuffle_preserves_intra_tick_order() {
        let (_, ts) = mini_registry();
        // 50 ticks × 4 events per tick, payload identifies the slot.
        let ordered: Vec<Event> = (0..200u64)
            .map(|i| {
                Event::new(
                    Ts(i / 4),
                    ts[(i % 2) as usize],
                    vec![hamlet_types::AttrValue::Int(i as i64)],
                )
            })
            .collect();
        let mut shuffled = ordered.clone();
        bounded_delay_shuffle(&mut shuffled, 7, 3);
        // Within each tick the payloads stay ascending: ties are never
        // reordered (they carry semantic weight for the engine).
        for w in shuffled.windows(2) {
            if w[0].time == w[1].time {
                assert!(
                    w[0].attrs[0].as_f64() < w[1].attrs[0].as_f64(),
                    "intra-tick order broken: {w:?}"
                );
            }
        }
    }

    #[test]
    fn shuffle_is_deterministic_and_seed_sensitive() {
        let (_, ts) = mini_registry();
        let ordered: Vec<Event> = (0..300u64)
            .map(|t| Event::new(Ts(t), ts[0], vec![]))
            .collect();
        let mut a = ordered.clone();
        let mut b = ordered.clone();
        let mut c = ordered.clone();
        bounded_delay_shuffle(&mut a, 10, 5);
        bounded_delay_shuffle(&mut b, 10, 5);
        bounded_delay_shuffle(&mut c, 10, 6);
        assert_eq!(a, b, "same seed must reproduce the same order");
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn gen_config_applies_max_lateness() {
        let (_, ts) = mini_registry();
        let make = |_: &mut StdRng, t: Ts, ty: EventTypeId, _: u64| Event::new(t, ty, vec![]);
        let cfg = GenConfig {
            events_per_min: 2_000,
            ..GenConfig::default()
        };
        let mix = || BurstyMix::with_bursts(&[(ts[0], 1.0, 40.0), (ts[1], 1.0, 40.0)]);
        let ordered = generate_stream(&cfg, mix(), make);
        let late_cfg = GenConfig {
            max_lateness: 10,
            ..cfg.clone()
        };
        let shuffled = generate_stream(&late_cfg, mix(), make);
        assert!(max_observed_lateness(&shuffled) > 0, "lateness injected");
        assert!(max_observed_lateness(&shuffled) <= 10);
        let mut restored = shuffled.clone();
        restored.sort_by_key(|e| e.time);
        assert_eq!(restored, ordered, "same content, different delivery");
    }

    #[test]
    fn zero_groups_is_one_group() {
        let (_, ts) = mini_registry();
        for group_skew in [0.0, 0.8] {
            let cfg = GenConfig {
                num_groups: 0,
                group_skew,
                ..GenConfig::default()
            };
            let mix = BurstyMix::with_bursts(&[(ts[0], 1.0, 4.0), (ts[1], 1.0, 4.0)]);
            let mut groups = Vec::new();
            generate_stream(&cfg, mix, |_, t, ty, g| {
                groups.push(g);
                Event::new(t, ty, vec![])
            });
            assert_eq!(groups.len(), 10_000);
            assert!(groups.iter().all(|&g| g == 0), "skew {group_skew}");
        }
    }
}
