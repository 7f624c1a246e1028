//! What a buffered burst is made of.
//!
//! Events arrive in bursts (Def. 10) and wait in their window instances'
//! runs until the burst ends. What waits is chosen per (share group,
//! event type) from the compiled group alone ([`BurstRepr`]): a count, a
//! column of [`Cell`]s, or the events. This module holds that choice,
//! the cell constructor and codec, what can be read off a buffered burst
//! without replaying it (exact divergence: the `sc` of every sharing
//! decision), and the buffer itself — a run with its pending burst
//! (`RunState`: append, flush with one sharing decision, the run-state
//! record of the checkpoint formats). The replay is
//! [`crate::run::Run::replay`].

use crate::agg::{ring_of_attr, MmVal};
use crate::bitset::QSet;
use crate::checkpoint::{codec_struct, CheckpointError, Codec, Dec, Enc};
use crate::checkpoint::{ENGINE_VERSION, ENGINE_VERSION_V4};
use crate::executor::{EngineConfig, EngineStats};
use crate::optimizer::decide;
use crate::run::{BurstCtx, GroupRuntime, Run};
use crate::workload::{AggSkeleton, ShareGroup};
use hamlet_query::{CompiledSelection, SelectionPredicate};
use hamlet_types::{AttrValue, Event};
use std::sync::Arc;
use std::time::Instant;

/// How the executor buffers a pending burst of one type. A function of
/// the compiled group and the type alone — never configured.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum BurstRepr {
    /// [`GroupRuntime::uniform_bursts`] groups: a burst is its length.
    Count,
    /// Types without an edge predicate: a burst is a column of [`Cell`]s.
    #[default]
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

// The mask is stored as its bare word, no length prefix.
codec_struct!(Cell { mask as u64, val });

/// The value a cell carries, as a group's skeleton reads it off an event
/// of one type.
#[derive(Clone, Debug, PartialEq)]
enum Fact {
    /// The same for every event: 0 without a weight, the lattice
    /// identity off the `MIN` / `MAX` target type.
    Const(u64),
    /// The attribute's ring weight (`SUM` / `AVG` target type).
    Ring(usize),
    /// The attribute's `f64` bits, or the lattice identity without it
    /// (`MIN` / `MAX` target type).
    Lattice { attr: usize, id: u64 },
}

impl Fact {
    #[inline]
    fn read(&self, e: &Event) -> u64 {
        match *self {
            Fact::Const(v) => v,
            Fact::Ring(a) => e.attr(a).map_or(0, |v| ring_of_attr(v.as_f64()).0),
            Fact::Lattice { attr, id } => e.attr(attr).map_or(id, |v| v.as_f64().to_bits()),
        }
    }
}

/// The per-event facts every share group's cells of one event type are
/// made of: the distinct selections on the type of every group that
/// buffers it as cells, then their distinct values. The scan evaluates
/// each once per event into the event's *row*
/// ([`Selections::row_into`]); a group's cell is its need masks applied
/// to the row's words plus one of its values ([`GroupRuntime::cell`]).
#[derive(Debug, Default)]
pub struct Selections {
    preds: Vec<CompiledSelection>,
    facts: Vec<Fact>,
}

impl Selections {
    /// Words of a row's selection bits: one per 64 selections.
    #[inline]
    pub fn words(&self) -> usize {
        self.preds.len().div_ceil(64)
    }

    /// Length of a row: its words, then its values.
    #[inline]
    pub fn width(&self) -> usize {
        self.words() + self.facts.len()
    }

    /// Writes `e`'s row into the first [`width`](Self::width) words of
    /// `row`: bit `i` of the words iff the `i`-th selection accepts `e`,
    /// then each value.
    #[inline]
    pub fn row_into(&self, e: &Event, row: &mut [u64]) {
        let (words, vals) = row.split_at_mut(self.words());
        words.fill(0);
        for (i, p) in self.preds.iter().enumerate() {
            words[i / 64] |= u64::from(p.matches(e)) << (i % 64);
        }
        for (v, f) in vals.iter_mut().zip(&self.facts) {
            *v = f.read(e);
        }
    }
}

/// Selection equality as evaluation sees it: the constant compared by
/// variant and bits, since `total_cmp` tells `0.0` from `-0.0` where `==`
/// does not.
fn same_selection(a: &SelectionPredicate, b: &SelectionPredicate) -> bool {
    let value = match (&a.value, &b.value) {
        (AttrValue::Float(x), AttrValue::Float(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    };
    a.ty == b.ty && a.attr == b.attr && a.op == b.op && value
}

/// The runtimes of `groups` over one selection table, and the table
/// (indexed by event type id): per type, the distinct selections and
/// values of every group that buffers the type as cells, so a workload
/// evaluates each once per event however many groups read it.
pub fn compile_groups(groups: &[ShareGroup]) -> (Vec<Arc<GroupRuntime>>, Vec<Arc<Selections>>) {
    let mut rts: Vec<GroupRuntime> = groups.iter().map(GroupRuntime::unbound).collect();
    let nty = (rts.iter().flat_map(|rt| &rt.template.types))
        .map(|t| t.idx() + 1)
        .max()
        .unwrap_or(0);
    let mut keys: Vec<Vec<SelectionPredicate>> = vec![Vec::new(); nty];
    let mut facts: Vec<Vec<Fact>> = vec![Vec::new(); nty];
    for rt in &rts {
        for (tl, ty) in rt.template.types.iter().enumerate() {
            if rt.repr[tl] != BurstRepr::Cells {
                continue;
            }
            let (keys, facts) = (&mut keys[ty.idx()], &mut facts[ty.idx()]);
            for s in rt.queries.iter().flat_map(|q| &q.selections) {
                if s.ty == *ty && !keys.iter().any(|k| same_selection(k, s)) {
                    keys.push(s.clone());
                }
            }
            if !facts.contains(&rt.fact(tl)) {
                facts.push(rt.fact(tl));
            }
        }
    }
    let table: Vec<Arc<Selections>> = (keys.iter().zip(facts))
        .map(|(keys, facts)| {
            let preds = keys.iter().map(CompiledSelection::new).collect();
            Arc::new(Selections { preds, facts })
        })
        .collect();
    for rt in &mut rts {
        rt.bind(&keys, &table);
    }
    (rts.into_iter().map(Arc::new).collect(), table)
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
        } else if !self.edge_members[tl].is_empty() {
            BurstRepr::Events
        } else {
            BurstRepr::Cells
        }
    }

    /// The cell of an event of local type `tl` ([`BurstRepr::Cells`]
    /// types only) from its row of the type's selection table
    /// ([`Selections::row_into`]). Member `q` accepts iff every selection
    /// bit it needs is set.
    #[inline]
    pub fn cell(&self, tl: usize, row: &[u64]) -> Cell {
        let (need, nw) = (&self.need[tl], self.sels[tl].words());
        let mut mask = !QSet::new();
        for q in self.sel_members[tl].iter() {
            if (need[q * nw..(q + 1) * nw].iter().zip(row)).any(|(n, w)| n & !w != 0) {
                mask.remove(q);
            }
        }
        let val = row[self.val[tl]];
        Cell { mask, val }
    }

    /// [`cell`](Self::cell) of `e` alone: its row is evaluated first,
    /// into `row` (reused).
    pub(crate) fn event_cell(&self, tl: usize, e: &Event, row: &mut Vec<u64>) -> Cell {
        row.resize(self.sels[tl].width(), 0);
        self.sels[tl].row_into(e, row);
        self.cell(tl, row)
    }

    /// Attaches the selection table `table` (per event type, from
    /// [`compile_groups`]; `keys` its selections as interned): every
    /// member's selections on a [`BurstRepr::Cells`] type become bits of
    /// the type's word row, the cell value one of the row's values.
    fn bind(&mut self, keys: &[Vec<SelectionPredicate>], table: &[Arc<Selections>]) {
        let (mut sels, mut need, mut val) = (Vec::new(), Vec::new(), Vec::new());
        for tl in 0..self.template.num_types() {
            let ty = self.template.types[tl].idx();
            if self.repr[tl] != BurstRepr::Cells {
                sels.push(Arc::new(Selections::default()));
                need.push(Vec::new());
                val.push(0);
                continue;
            }
            let nw = table[ty].words();
            let mut bits = vec![0u64; self.k() * nw];
            for (q, query) in self.queries.iter().enumerate() {
                for s in query.selections.iter().filter(|s| s.ty.idx() == ty) {
                    let i = keys[ty].iter().position(|k| same_selection(k, s));
                    // hamlet-lint: allow(panic-hygiene) -- the table interned every selection of every group it was built from
                    let i = i.expect("selection interned");
                    bits[q * nw + i / 64] |= 1 << (i % 64);
                }
            }
            let f = table[ty].facts.iter().position(|f| *f == self.fact(tl));
            // hamlet-lint: allow(panic-hygiene) -- as above, for values
            val.push(nw + f.expect("value interned"));
            sels.push(table[ty].clone());
            need.push(bits);
        }
        (self.sels, self.need, self.val) = (sels, need, val);
    }

    /// The value a cell of local type `tl` carries.
    fn fact(&self, tl: usize) -> Fact {
        let target = |ty| ty == self.template.types[tl];
        match self.skeleton {
            AggSkeleton::Linear { ty, attr: Some(a) } if target(ty) => Fact::Ring(a),
            AggSkeleton::MinMax { ty, attr, is_min } => {
                let id = if is_min {
                    MmVal::MIN_IDENTITY
                } else {
                    MmVal::MAX_IDENTITY
                };
                let id = id.0.to_bits();
                if target(ty) {
                    Fact::Lattice { attr, id }
                } else {
                    Fact::Const(id)
                }
            }
            _ => Fact::Const(0),
        }
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
                let row = &mut Vec::new();
                cells.extend(events.iter().map(|e| self.event_cell(tl, e, row)));
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
    /// predicate pass); only buffered events are scanned, O(k·b). Every
    /// sharing decision reads its `sc` from here.
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

/// One decision in this many is timed; each timed one stands for all of
/// them in `EngineStats::decision_time`.
const DECISION_SAMPLE: u64 = 16;

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
    /// per replayed burst another burst follows, taken back out when the
    /// run is released.
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
    /// type's representation; `rows` holds the segment's rows of the
    /// selection table and the width of one, `cells` backs the column if
    /// there is one.
    pub(crate) fn of(
        rt: &GroupRuntime,
        tl: usize,
        seg: &'a [Event],
        range: &'a [(u32, u32)],
        rows: (&[u64], usize),
        cells: &'a mut Vec<Cell>,
    ) -> Chunk<'a> {
        match rt.burst_repr(tl) {
            BurstRepr::Count => Chunk::Count(range.len() as u64),
            BurstRepr::Cells => {
                cells.clear();
                let (rows, width) = rows;
                let row = |sj: u32| &rows[sj as usize * width..][..width];
                cells.extend(range.iter().map(|&(sj, _)| rt.cell(tl, row(sj))));
                Chunk::Cells(cells)
            }
            BurstRepr::Events => Chunk::Events(seg, range),
        }
    }
}

/// What flushing a pending burst needs besides the run: the decision's
/// inputs and scratch, and the places a decision is accounted.
pub(crate) struct FlushEnv<'a> {
    pub(crate) cfg: &'a EngineConfig,
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

    /// Flushes the pending burst, if any, in front of the next one:
    /// [`settle`](Self::settle) it, then re-measure the run — a replay
    /// moves its size by what only a measurement knows (snapshots,
    /// graphlets, stored events), so once per burst.
    fn flush(&mut self, env: &mut FlushEnv<'_>) {
        if self.settle(env) {
            let now = self.mem_bytes();
            *env.bytes = *env.bytes - self.accounted + now;
            self.accounted = now;
        }
    }

    /// Settles the pending burst, if any: one sharing decision (§4.2) on
    /// its exact divergence counts and one replay. Returns whether there
    /// was one. `accounted` is left as it was: a run closed by this is
    /// released next, which takes `accounted` back out of the engine's
    /// count, so re-measuring it would be thrown away.
    pub(crate) fn settle(&mut self, env: &mut FlushEnv<'_>) -> bool {
        let Some(tl) = self.burst_ty else {
            return false;
        };
        let burst = match self.run.runtime().burst_repr(tl) {
            BurstRepr::Count => Burst::Count(self.burst_count),
            BurstRepr::Cells => Burst::Cells(&self.cells),
            BurstRepr::Events => Burst::Events(&self.burst),
        };
        let b = burst.len();
        if b == 0 {
            return false;
        }
        // The clock is read only where `stats.decision_time` is reported,
        // and there for one decision in `DECISION_SAMPLE`: a clock pair
        // costs about what a decision does. The last of each block is
        // timed, so the engine's first, cold decision (its scratch still
        // growing) does not stand for sixteen.
        let timed = (env.cfg.obs || env.cfg.track_latency)
            && env.stats.decisions % DECISION_SAMPLE == DECISION_SAMPLE - 1;
        // hamlet-lint: allow(wallclock) -- decision-time accounting only (stats.decision_time)
        let t0 = timed.then(Instant::now);
        let (ctx, rt) = (&mut *env.ctx, self.run.runtime());
        rt.burst_shape_into(tl, ctx);
        rt.divergence(tl, &burst, &mut ctx.diverging);
        let dec = decide(env.cfg.policy, ctx, b);
        if let Some(t0) = t0 {
            env.stats.decision_time += t0.elapsed() * DECISION_SAMPLE as u32;
        }
        env.stats.decisions += 1;
        self.run.replay(tl, burst, dec.share);
        self.burst.clear();
        self.cells.clear();
        self.burst_count = 0;
        self.burst_ty = None;
        true
    }

    /// Serializes the run and its pending burst — the one run-state
    /// record of the full and the delta format alike (layout in
    /// `docs/checkpoint-format.md`).
    pub(crate) fn encode(&self, e: &mut Enc) {
        self.run.encode(e);
        e.some(self.burst_ty.is_some());
        if let Some(tl) = self.burst_ty {
            e.usize(tl);
            let repr = self.run.runtime().burst_repr(tl);
            e.u8(repr.tag());
            match repr {
                BurstRepr::Count => e.u64(self.burst_count),
                BurstRepr::Cells => self.cells.encode(e),
                BurstRepr::Events => self.burst.encode(e),
            }
        }
        e.u64(self.burst_pane);
    }

    /// Mirror of [`encode`](Self::encode) over a group's compiled
    /// runtime, for a record of `HMEN` `version`: before v7 its run is
    /// the dense one (`Run::decode`), and v4's is the record of `HMEN`
    /// v2–v4 / `HMDL` v1 ([`decode_v4`](Self::decode_v4)).
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        rt: &Arc<GroupRuntime>,
        version: u16,
    ) -> Result<RunState, CheckpointError> {
        if version == ENGINE_VERSION_V4 {
            return Self::decode_v4(d, rt);
        }
        let run = Run::decode(d, rt.clone(), version < ENGINE_VERSION)?;
        let mut rs = RunState::around(run);
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
                BurstRepr::Cells => rs.cells = Codec::decode(d)?,
                BurstRepr::Events => rs.burst = Codec::decode(d)?,
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
        let mut rs = RunState::around(Run::decode(d, rt.clone(), true)?);
        if d.some()? {
            rs.burst_ty = Some(burst_type(d.usize()?, rt)?);
        }
        rs.burst = Codec::decode(d)?;
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
                BurstRepr::Cells => {
                    let row = &mut Vec::new();
                    (rs.cells).extend(rs.burst.drain(..).map(|e| rt.event_cell(tl, &e, row)));
                }
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
