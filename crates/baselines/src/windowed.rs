//! The windowed runtime the three baselines share. Each evaluates a list
//! of [`Unit`]s — a GRETA query, a flattened SHARON query, a two-step
//! construction group — and keeps, per unit, every live window instance
//! of every partition. What a unit states is its algorithm alone; the
//! partition key, the window-instance map, the expiry loop, the latency
//! stamp and the memory gauge are written here once, so the three
//! engines measure the same things the same way.

use hamlet_core::executor::WindowResult;
use hamlet_core::metrics::{LatencyRecorder, MemoryGauge};
use hamlet_query::Window;
use hamlet_types::{AttrValue, Event, GroupKey, Ts, TypeRegistry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Events between two memory-gauge samples; [`Windowed::flush`] takes
/// one more before it drains.
const SAMPLE_EVERY: u64 = 256;

/// One baseline's algorithm over one evaluation unit. The trait lives in
/// a private module: nothing outside this crate can implement it.
pub trait Unit {
    /// The state of one window instance of one partition.
    type State;
    /// Whether `e` reaches this unit at all.
    fn accepts(&self, e: &Event) -> bool;
    /// The state of a window instance no event has reached yet.
    fn open(&self) -> Self::State;
    /// Folds `e` into one window instance that contains it.
    fn fold(&self, state: &mut Self::State, e: &Event);
    /// Appends the results of a closed window instance to `out`.
    fn emit(&mut self, state: Self::State, key: &GroupKey, start: Ts, out: &mut Vec<WindowResult>);
    /// Byte-accounted size of one window instance's state.
    fn bytes(&self, state: &Self::State) -> usize;
}

/// A unit, the partitioning and window it is evaluated under, and its
/// live window instances: partition key → window start → (state, arrival
/// stamp of the last event folded in).
struct Live<U: Unit> {
    unit: U,
    attrs: Vec<Arc<str>>,
    window: Window,
    partitions: HashMap<GroupKey, BTreeMap<u64, (U::State, Instant)>>,
}

/// A baseline engine: its units under one windowed runtime. Only the
/// baselines' own constructors build one.
pub struct Windowed<U: Unit> {
    reg: Arc<TypeRegistry>,
    units: Vec<Live<U>>,
    latency: LatencyRecorder,
    gauge: MemoryGauge,
    events: u64,
}

impl<U: Unit> Windowed<U> {
    /// The runtime over `units`, each with its partition attributes and
    /// window.
    pub(crate) fn over(
        reg: Arc<TypeRegistry>,
        units: impl IntoIterator<Item = (U, Vec<Arc<str>>, Window)>,
    ) -> Self {
        let units = (units.into_iter())
            .map(|(unit, attrs, window)| Live {
                unit,
                attrs,
                window,
                partitions: HashMap::new(),
            })
            .collect();
        Windowed {
            reg,
            units,
            latency: LatencyRecorder::new(),
            gauge: MemoryGauge::new(),
            events: 0,
        }
    }

    /// The evaluation units, in construction order.
    pub(crate) fn units(&self) -> impl Iterator<Item = &U> {
        self.units.iter().map(|live| &live.unit)
    }

    /// Processes one event; returns the results of the windows its time
    /// closed.
    pub fn process(&mut self, e: &Event) -> Vec<WindowResult> {
        // hamlet-lint: allow(wallclock) -- arrival stamp for the latency recorder; never reaches results
        let now = Instant::now();
        let mut out = Vec::new();
        self.expire(e.time.ticks(), &mut out);
        for live in &mut self.units {
            if !live.unit.accepts(e) {
                continue;
            }
            let key = (live.attrs.iter())
                .map(|name| {
                    (self.reg.attr_index(e.ty, name))
                        .and_then(|i| e.attr(i).cloned())
                        .unwrap_or(AttrValue::Int(0))
                })
                .collect();
            let windows = live.partitions.entry(GroupKey(key)).or_default();
            for start in live.window.instances_containing(e.time) {
                let (state, arrival) =
                    (windows.entry(start.ticks())).or_insert_with(|| (live.unit.open(), now));
                live.unit.fold(state, e);
                *arrival = now;
            }
        }
        self.events += 1;
        if self.events.is_multiple_of(SAMPLE_EVERY) {
            self.gauge.sample(self.state_bytes());
        }
        out
    }

    /// Emits every window instance that ends at or before `watermark`.
    fn expire(&mut self, watermark: u64, out: &mut Vec<WindowResult>) {
        for live in &mut self.units {
            let within = live.window.within;
            // hamlet-lint: allow(unordered-iter) -- baseline emission order is unspecified; the harness sorts before comparing (tests/equivalence.rs)
            for (key, windows) in live.partitions.iter_mut() {
                while let Some(first) = windows.first_entry() {
                    if hamlet_types::time::window_end(*first.key(), within) > watermark {
                        break;
                    }
                    let (start, (state, arrival)) = first.remove_entry();
                    self.latency.record(arrival.elapsed());
                    live.unit.emit(state, key, Ts(start), out);
                }
            }
            // hamlet-lint: allow(unordered-iter) -- prunes empty partitions; no order-sensitive effect
            live.partitions.retain(|_, windows| !windows.is_empty());
        }
    }

    /// Finalizes all open windows. The gauge samples the state first:
    /// a stream shorter than the sampling cadence would otherwise peak
    /// at 0.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        self.gauge.sample(self.state_bytes());
        let mut out = Vec::new();
        self.expire(u64::MAX, &mut out);
        out
    }

    /// Per-result latency: from the last event folded into a window
    /// instance to its close.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Peak byte-accounted state (the §6.1 memory metric), sampled every
    /// 256 events and at flush.
    pub fn peak_memory(&self) -> usize {
        self.gauge.peak()
    }

    /// Current byte-accounted state.
    pub fn state_bytes(&self) -> usize {
        (self.units.iter())
            .map(|live| {
                (live.partitions)
                    // hamlet-lint: allow(unordered-iter) -- commutative sum (memory accounting)
                    .values()
                    .flat_map(BTreeMap::values)
                    .map(|(state, _)| live.unit.bytes(state))
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::{Unit, Windowed};
    use crate::{GretaEngine, SharonEngine, TwoStepEngine};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{AttrValue, Event, Ts, TypeRegistry};
    use std::sync::Arc;

    fn peak_is_the_flush_sample<U: Unit>(mut eng: Windowed<U>, events: &[Event]) {
        for e in events {
            eng.process(e);
        }
        let before = eng.state_bytes();
        eng.flush();
        assert!(before > 0);
        assert_eq!(eng.peak_memory(), before);
        assert_eq!(eng.state_bytes(), 0);
    }

    /// A stream shorter than the sampling cadence reaches no periodic
    /// sample: every engine's peak is the state it held at the flush.
    #[test]
    fn short_streams_peak_at_the_flush_sample() {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g"]);
        let b = reg.register("B", &["g"]);
        let reg = Arc::new(reg);
        let pattern = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
        let q = Query::count_star(0, pattern, Window::tumbling(100));
        let events: Vec<Event> = (0..40u64)
            .map(|t| {
                let ty = if t % 8 == 0 { a } else { b };
                Event::new(Ts(t), ty, vec![AttrValue::Int((t % 3) as i64)])
            })
            .collect();
        let qs = || vec![q.clone()];
        peak_is_the_flush_sample(GretaEngine::new(reg.clone(), qs()).unwrap(), &events);
        peak_is_the_flush_sample(SharonEngine::new(reg.clone(), qs(), 8).unwrap(), &events);
        peak_is_the_flush_sample(TwoStepEngine::new(reg, qs(), Some(1000)).unwrap(), &events);
    }
}
