//! What a buffered burst is made of.
//!
//! Events arrive in bursts (Def. 10) and wait in their window instances'
//! runs until the burst ends. What waits is chosen per (share group,
//! event type) from the compiled group alone ([`BurstRepr`]): a count, a
//! column of [`Cell`]s, or the events. This module holds that choice,
//! the cell constructor and codec, what can be read off a buffered burst
//! without replaying it (exact divergence), and the buffer itself — a
//! run with its pending burst (`RunState`: append, flush with one
//! sharing decision, the run-state record of the checkpoint formats).
//! The replay is [`crate::run::Run::replay`].

use crate::agg::MmVal;
use crate::bitset::QSet;
use crate::checkpoint::{CheckpointError, Dec, Enc};
use crate::executor::{DivergenceMode, EngineConfig, EngineStats};
use crate::optimizer::{decide, DivergenceEstimator};
use crate::run::{BurstCtx, GroupRuntime, Run};
use crate::workload::AggSkeleton;
use hamlet_types::Event;
use std::sync::Arc;
use std::time::Instant;

/// How the executor buffers a pending burst of one type. A function of
/// the compiled group and the type alone — never configured.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BurstRepr {
    /// [`GroupRuntime::uniform_bursts`] groups: a burst is its length.
    Count,
    /// Types without an edge predicate: a burst is a column of [`Cell`]s.
    Cells,
    /// Types with an edge predicate, and no other: pairwise scans need
    /// the events, so they are cloned.
    Events,
}

impl BurstRepr {
    /// The representation's tag in a checkpointed pending-burst record.
    pub(crate) fn tag(self) -> u8 {
        match self {
            BurstRepr::Count => 0,
            BurstRepr::Cells => 1,
            BurstRepr::Events => 2,
        }
    }
}

/// All a replay reads of one buffered event of a [`BurstRepr::Cells`]
/// type, computed once per (event, group) when the event is appended.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct Cell {
    /// Holds `q` iff member `q`'s selections on the type accept the
    /// event (members without one always accept; so does every index past
    /// the group's width).
    pub mask: QSet,
    /// The one number the skeleton reads: the ring weight for `Linear`
    /// (0 off the target type), the target attribute's `f64` bits for
    /// `MinMax` (the lattice identity off the target type), 0 otherwise.
    pub val: u64,
}

impl Cell {
    /// Serializes the cell (checkpoint codec).
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.u64(self.mask.0);
        e.u64(self.val);
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<Cell, CheckpointError> {
        Ok(Cell {
            mask: QSet(d.u64()?),
            val: d.u64()?,
        })
    }
}

/// A complete burst handed to [`Run::replay`], in the representation
/// [`GroupRuntime::burst_repr`] assigns its type.
#[derive(Copy, Clone, Debug)]
pub enum Burst<'a> {
    /// That many events of a uniform group.
    Count(u64),
    /// A column of cells.
    Cells(&'a [Cell]),
    /// The events themselves.
    Events(&'a [Event]),
}

impl Burst<'_> {
    /// Number of events in the burst.
    pub fn len(&self) -> u64 {
        match self {
            Burst::Count(b) => *b,
            Burst::Cells(c) => c.len() as u64,
            Burst::Events(e) => e.len() as u64,
        }
    }

    /// True iff the burst holds no event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl GroupRuntime {
    /// How a pending burst of local type `tl` is buffered.
    #[inline]
    pub fn burst_repr(&self, tl: usize) -> BurstRepr {
        self.repr[tl]
    }

    /// [`burst_repr`](Self::burst_repr) from the compiled tables; the
    /// constructor resolves it once per type.
    pub(crate) fn resolve_repr(&self, tl: usize) -> BurstRepr {
        if self.uniform_bursts() {
            BurstRepr::Count
        } else if self.type_any_edge[tl] {
            BurstRepr::Events
        } else {
            BurstRepr::Cells
        }
    }

    /// The cell of `e`, an event of local type `tl`
    /// ([`BurstRepr::Cells`] types only).
    #[inline]
    pub fn cell(&self, tl: usize, e: &Event) -> Cell {
        let mut mask = !QSet::new();
        for q in self.sel_members[tl].iter() {
            if !self.selects(tl, q, e) {
                mask.remove(q);
            }
        }
        let val = match &self.skeleton {
            AggSkeleton::MinMax { ty, attr, is_min } => {
                let v = if e.ty == *ty { e.attr(*attr) } else { None };
                let id = if *is_min {
                    MmVal::MIN_IDENTITY
                } else {
                    MmVal::MAX_IDENTITY
                };
                v.map_or(id.0, |v| v.as_f64()).to_bits()
            }
            _ => self.weight(e).0 .0,
        };
        Cell { mask, val }
    }

    /// `events` (all of local type `tl`) as the burst the executor would
    /// have buffered for them; `cells` backs the column if there is one.
    pub(crate) fn burst_of<'a>(
        &self,
        tl: usize,
        events: &'a [Event],
        cells: &'a mut Vec<Cell>,
    ) -> Burst<'a> {
        match self.burst_repr(tl) {
            BurstRepr::Count => Burst::Count(events.len() as u64),
            BurstRepr::Cells => {
                cells.extend(events.iter().map(|e| self.cell(tl, e)));
                Burst::Cells(cells)
            }
            BurstRepr::Events => Burst::Events(events),
        }
    }

    /// Exact per-candidate divergence counts of a burst, added into
    /// `diverging` (one slot per member of `candidates[tl]`, ascending):
    /// an event "diverges" for a member when the member rejects it while
    /// at least one other candidate accepts — the Def. 9 snapshot
    /// trigger. A cell column answers from its masks (word ops, no second
    /// predicate pass); only buffered events are scanned, O(k·b). The EMA
    /// estimator ([`crate::optimizer::stats`]) avoids both.
    pub fn divergence(&self, tl: usize, burst: &Burst<'_>, diverging: &mut [u64]) {
        let cands = self.candidates[tl];
        let mut count = |accepting: QSet| {
            let rejecting = cands & !accepting;
            if !rejecting.is_empty() && rejecting != cands {
                for (d, q) in diverging.iter_mut().zip(cands.iter()) {
                    *d += rejecting.contains(q) as u64;
                }
            }
        };
        match burst {
            // Uniform groups have no selections: nothing diverges.
            Burst::Count(_) => {}
            Burst::Cells(cells) => cells.iter().for_each(|c| count(c.mask)),
            Burst::Events(events) => (events.iter())
                .for_each(|e| count(cands.iter().filter(|&q| self.selects(tl, q, e)).collect())),
        }
    }
}

/// One window instance's run and the burst pending in front of it.
pub(crate) struct RunState {
    pub(crate) run: Run,
    burst_ty: Option<usize>,
    /// The pending burst, buffered in the representation
    /// [`GroupRuntime::burst_repr`] assigns its type: a bare count for
    /// *uniform* groups (their events carry no information beyond their
    /// number, and the flush replays them in closed form), a column of
    /// [`Cell`]s for types without edge predicates, cloned events only
    /// where pairwise scans need them. Exactly one of the three is in use
    /// at a time.
    burst_count: u64,
    cells: Vec<Cell>,
    burst: Vec<Event>,
    burst_pane: u64,
    pub(crate) last_arrival: Option<Instant>,
    /// [`mem_bytes`](Self::mem_bytes) as the engine's byte counter
    /// (`FlushEnv::bytes`) holds it: kept by `append`, re-measured once
    /// per replayed burst, taken back out when the run is released.
    pub(crate) accounted: usize,
}

/// Events of one type, pane and window-instance set on their way into a
/// pending burst, already in the representation of their type.
#[derive(Copy, Clone)]
pub(crate) enum Chunk<'a> {
    Count(u64),
    Cells(&'a [Cell]),
    /// Events of a segment by `(segment index, local type)`.
    Events(&'a [Event], &'a [(u32, u32)]),
}

impl<'a> Chunk<'a> {
    /// `range` of `seg` (all of `rt`'s local type `tl`) as a chunk in the
    /// type's representation; `cells` backs the column if there is one.
    pub(crate) fn of(
        rt: &GroupRuntime,
        tl: usize,
        seg: &'a [Event],
        range: &'a [(u32, u32)],
        cells: &'a mut Vec<Cell>,
    ) -> Chunk<'a> {
        match rt.burst_repr(tl) {
            BurstRepr::Count => Chunk::Count(range.len() as u64),
            BurstRepr::Cells => {
                cells.clear();
                cells.extend(range.iter().map(|&(sj, _)| rt.cell(tl, &seg[sj as usize])));
                Chunk::Cells(cells)
            }
            BurstRepr::Events => Chunk::Events(seg, range),
        }
    }

    /// The first `n` events of the chunk.
    pub(crate) fn take(self, n: usize) -> Chunk<'a> {
        match self {
            Chunk::Count(_) => Chunk::Count(n as u64),
            Chunk::Cells(c) => Chunk::Cells(&c[..n]),
            Chunk::Events(seg, range) => Chunk::Events(seg, &range[..n]),
        }
    }
}

/// What flushing a pending burst needs besides the run: the decision's
/// inputs and scratch, and the places a decision is accounted.
pub(crate) struct FlushEnv<'a> {
    pub(crate) cfg: &'a EngineConfig,
    pub(crate) estimator: &'a mut DivergenceEstimator,
    pub(crate) stats: &'a mut EngineStats,
    pub(crate) ctx: &'a mut BurstCtx,
    /// The engine's count of byte-accounted run state
    /// ([`HamletEngine::state_bytes`](crate::HamletEngine::state_bytes)).
    pub(crate) bytes: &'a mut usize,
}

impl RunState {
    pub(crate) fn new(rt: Arc<GroupRuntime>) -> RunState {
        RunState::around(Run::new(rt))
    }

    /// `run` with no pending burst and no arrival stamp (wall-clock
    /// stamps do not survive a restore; the next arrival re-stamps).
    fn around(run: Run) -> RunState {
        RunState {
            accounted: run.mem_bytes(),
            run,
            burst_ty: None,
            burst_count: 0,
            cells: Vec::new(),
            burst: Vec::new(),
            burst_pane: 0,
            last_arrival: None,
        }
    }

    /// Back to [`RunState::new`] over the same runtime with every buffer's
    /// capacity kept — what a finished run's slot holds until the next
    /// window instance of its group takes it.
    pub(crate) fn recycle(&mut self) {
        self.run.recycle();
        self.burst_ty = None;
        self.burst_count = 0;
        self.cells.clear();
        self.burst.clear();
        self.burst_pane = 0;
        self.last_arrival = None;
        self.accounted = self.run.mem_bytes();
    }

    /// Byte-accounted state: the run plus the buffered burst (§6.1
    /// memory metric).
    pub(crate) fn mem_bytes(&self) -> usize {
        self.run.mem_bytes()
            + self.cells.len() * std::mem::size_of::<Cell>()
            + self.burst.iter().map(Event::mem_bytes).sum::<usize>()
    }

    /// Appends `chunk` (events of local type `tl` in pane `pane`) to the
    /// pending burst, flushing it first if they open a new one (Def. 10)
    /// — the one way into a run.
    pub(crate) fn append(
        &mut self,
        tl: usize,
        pane: u64,
        chunk: Chunk<'_>,
        now: Option<Instant>,
        env: &mut FlushEnv<'_>,
    ) {
        if self.burst_ty != Some(tl) || self.burst_pane != pane {
            self.flush(env);
        }
        self.burst_ty = Some(tl);
        self.burst_pane = pane;
        // The buffer grows by exactly what is appended.
        let grown = match chunk {
            Chunk::Count(n) => {
                self.burst_count += n;
                0
            }
            Chunk::Cells(cells) => {
                self.cells.extend_from_slice(cells);
                std::mem::size_of_val(cells)
            }
            Chunk::Events(seg, range) => {
                let at = self.burst.len();
                (self.burst).extend((range.iter()).map(|&(sj, _)| seg[sj as usize].clone()));
                self.burst[at..].iter().map(Event::mem_bytes).sum()
            }
        };
        self.accounted += grown;
        *env.bytes += grown;
        if let Some(now) = now {
            self.last_arrival = Some(now);
        }
    }

    /// Flushes the pending burst, if any: one sharing decision (§4.2),
    /// one replay, and the statistics fed back to the estimator.
    pub(crate) fn flush(&mut self, env: &mut FlushEnv<'_>) {
        let Some(tl) = self.burst_ty else { return };
        let burst = match self.run.runtime().burst_repr(tl) {
            BurstRepr::Count => Burst::Count(self.burst_count),
            BurstRepr::Cells => Burst::Cells(&self.cells),
            BurstRepr::Events => Burst::Events(&self.burst),
        };
        let b = burst.len();
        if b == 0 {
            return;
        }
        // The clock is read only where `stats.decision_time` is reported.
        // hamlet-lint: allow(wallclock) -- decision-time accounting only (stats.decision_time)
        let t0 = (env.cfg.obs || env.cfg.track_latency).then(Instant::now);
        let ctx = &mut *env.ctx;
        self.run.burst_shape_into(tl, ctx);
        let exact = matches!(env.cfg.divergence, DivergenceMode::Exact);
        if exact {
            (self.run.runtime()).divergence(tl, &burst, &mut ctx.diverging);
        } else {
            for (d, &q) in ctx.diverging.iter_mut().zip(&ctx.candidates) {
                *d = env.estimator.predict(tl, q, b);
            }
        }
        let dec = decide(env.cfg.policy, ctx, b);
        if let Some(t0) = t0 {
            env.stats.decision_time += t0.elapsed();
        }
        env.stats.decisions += 1;
        let snaps_before = self.run.stats().event_snapshots;
        self.run.replay(tl, burst, dec.share);
        // Feed the statistics back: exact mode learns the true per-member
        // divergence; EMA mode attributes the event-level snapshots the
        // burst actually created across the sharing members.
        if exact {
            for (&q, &d) in ctx.candidates.iter().zip(&ctx.diverging) {
                env.estimator.observe(tl, q, d, b);
            }
        } else {
            let created = self.run.stats().event_snapshots - snaps_before;
            if dec.share.is_empty() {
                // No sharing happened; decay gently toward the prediction.
                for &q in &ctx.candidates {
                    let predicted = env.estimator.predict(tl, q, b);
                    env.estimator.observe(tl, q, predicted, b);
                }
            } else {
                env.estimator.observe_aggregate(tl, dec.share, created, b);
            }
        }
        self.burst.clear();
        self.cells.clear();
        self.burst_count = 0;
        self.burst_ty = None;
        // A replay moves the run's size by what only a measurement knows
        // (snapshots, graphlets, stored events): one per burst.
        let now = self.mem_bytes();
        *env.bytes = *env.bytes - self.accounted + now;
        self.accounted = now;
    }

    /// Serializes the run and its pending burst — the one run-state
    /// record of the full and the delta format alike (layout in
    /// `docs/checkpoint-format.md`).
    pub(crate) fn encode(&self, e: &mut Enc) {
        self.run.encode(e);
        match self.burst_ty {
            None => e.some(false),
            Some(tl) => {
                e.some(true);
                e.usize(tl);
                let repr = self.run.runtime().burst_repr(tl);
                e.u8(repr.tag());
                match repr {
                    BurstRepr::Count => e.u64(self.burst_count),
                    BurstRepr::Cells => {
                        e.usize(self.cells.len());
                        for c in &self.cells {
                            c.encode(e);
                        }
                    }
                    BurstRepr::Events => {
                        e.usize(self.burst.len());
                        for ev in &self.burst {
                            e.event(ev);
                        }
                    }
                }
            }
        }
        e.u64(self.burst_pane);
    }

    /// Mirror of [`encode`](Self::encode) over a group's compiled
    /// runtime. `legacy` selects the record of `HMEN` v2–v4 / `HMDL` v1
    /// ([`decode_v4`](Self::decode_v4)).
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        rt: &Arc<GroupRuntime>,
        legacy: bool,
    ) -> Result<RunState, CheckpointError> {
        if legacy {
            return Self::decode_v4(d, rt);
        }
        let mut rs = RunState::around(Run::decode(d, rt.clone())?);
        if d.some()? {
            let tl = burst_type(d.usize()?, rt)?;
            rs.burst_ty = Some(tl);
            let repr = rt.burst_repr(tl);
            let tag = d.u8()?;
            if tag != repr.tag() {
                return Err(CheckpointError::Corrupt(format!(
                    "pending burst tagged {tag}, type {tl} buffers {repr:?}"
                )));
            }
            match repr {
                BurstRepr::Count => rs.burst_count = d.u64()?,
                BurstRepr::Cells => {
                    for _ in 0..d.seq_len()? {
                        rs.cells.push(Cell::decode(d)?);
                    }
                }
                BurstRepr::Events => {
                    for _ in 0..d.seq_len()? {
                        rs.burst.push(d.event()?);
                    }
                }
            }
        }
        rs.burst_pane = d.u64()?;
        rs.accounted = rs.mem_bytes();
        Ok(rs)
    }

    /// The run-state record up to `HMEN` v4: buffered events plus the
    /// count-only tail, whatever the type. They pass through the same
    /// constructors an append uses, so the restored burst is what this
    /// engine would have buffered — including the old *mixed* burst of a
    /// uniform group (events and a tail), which becomes a bare count.
    fn decode_v4(d: &mut Dec<'_>, rt: &Arc<GroupRuntime>) -> Result<RunState, CheckpointError> {
        let mut rs = RunState::around(Run::decode(d, rt.clone())?);
        if d.some()? {
            rs.burst_ty = Some(burst_type(d.usize()?, rt)?);
        }
        for _ in 0..d.seq_len()? {
            rs.burst.push(d.event()?);
        }
        rs.burst_count = d.u64()?;
        rs.burst_pane = d.u64()?;
        if let Some(tl) = rs.burst_ty {
            let repr = rt.burst_repr(tl);
            if rs.burst_count != 0 && repr != BurstRepr::Count {
                return Err(CheckpointError::Corrupt(format!(
                    "count-only burst tail on type {tl}, which buffers {repr:?}"
                )));
            }
            match repr {
                BurstRepr::Count => rs.burst_count += rs.burst.drain(..).count() as u64,
                BurstRepr::Cells => rs.cells.extend(rs.burst.drain(..).map(|e| rt.cell(tl, &e))),
                BurstRepr::Events => {}
            }
        }
        rs.accounted = rs.mem_bytes();
        Ok(rs)
    }
}

/// A decoded pending-burst type, bounds-checked against the template.
fn burst_type(tl: usize, rt: &GroupRuntime) -> Result<usize, CheckpointError> {
    let nt = rt.template.num_types();
    if tl < nt {
        Ok(tl)
    } else {
        Err(CheckpointError::Corrupt(format!("burst type {tl} of {nt}")))
    }
}
