// L2 fixture: the shape of the engine's state record — a run-state
// record with a tagged payload whose arms nest another pair (`Cell`) and
// a legacy reader under a name of its own, and the one body pair, whose
// removal list is written only for a delta, with the tail helper it
// calls on both sides. Every pair is positionally symmetric. Must be
// clean.
pub struct Cell {
    mask: u64,
    val: u64,
}

impl Cell {
    pub fn encode(&self, e: &mut Enc) {
        e.u64(self.mask);
        e.u64(self.val);
    }

    pub fn decode(d: &mut Dec<'_>) -> Result<Cell, CodecError> {
        Ok(Cell {
            mask: d.u64()?,
            val: d.u64()?,
        })
    }
}

pub struct RunState {
    ty: Option<usize>,
    count: u64,
    cells: Vec<Cell>,
    events: Vec<Event>,
    pane: u64,
}

impl RunState {
    pub fn encode(&self, e: &mut Enc, tag: u8) {
        match self.ty {
            None => e.some(false),
            Some(tl) => {
                e.some(true);
                e.usize(tl);
                e.u8(tag);
                match tag {
                    0 => e.u64(self.count),
                    1 => {
                        e.usize(self.cells.len());
                        for c in &self.cells {
                            c.encode(e);
                        }
                    }
                    _ => {
                        e.usize(self.events.len());
                        for ev in &self.events {
                            e.event(ev);
                        }
                    }
                }
            }
        }
        e.u64(self.pane);
    }

    pub fn decode(d: &mut Dec<'_>, legacy: bool) -> Result<RunState, CodecError> {
        if legacy {
            return Self::decode_v4(d);
        }
        let mut rs = RunState::default();
        if d.some()? {
            rs.ty = Some(d.usize()?);
            match d.u8()? {
                0 => rs.count = d.u64()?,
                1 => {
                    for _ in 0..d.seq_len()? {
                        rs.cells.push(Cell::decode(d)?);
                    }
                }
                _ => {
                    for _ in 0..d.seq_len()? {
                        rs.events.push(d.event()?);
                    }
                }
            }
        }
        rs.pane = d.u64()?;
        Ok(rs)
    }

    fn decode_v4(d: &mut Dec<'_>) -> Result<RunState, CodecError> {
        let mut rs = RunState::default();
        if d.some()? {
            rs.ty = Some(d.usize()?);
        }
        for _ in 0..d.seq_len()? {
            rs.events.push(d.event()?);
        }
        rs.count = d.u64()?;
        rs.pane = d.u64()?;
        Ok(rs)
    }
}

pub struct Engine {
    gone: Vec<u64>,
    runs: Vec<RunState>,
    counter: u64,
}

fn encode_tail(eng: &Engine, e: &mut Enc) {
    e.u64(eng.counter);
}

fn decode_tail(d: &mut Dec<'_>) -> Result<u64, CodecError> {
    d.u64()
}

fn encode_body(eng: &Engine, delta: bool, e: &mut Enc) {
    if delta {
        e.usize(eng.gone.len());
        for key in &eng.gone {
            e.u64(*key);
        }
    }
    e.usize(eng.runs.len());
    for rs in &eng.runs {
        rs.encode(e, 1);
    }
    encode_tail(eng, e);
}

fn decode_body(d: &mut Dec<'_>, delta: bool, legacy: bool) -> Result<Engine, CodecError> {
    let mut gone = Vec::new();
    if delta {
        for _ in 0..d.seq_len()? {
            gone.push(d.u64()?);
        }
    }
    let mut runs = Vec::new();
    for _ in 0..d.seq_len()? {
        runs.push(RunState::decode(d, legacy)?);
    }
    let counter = decode_tail(d)?;
    Ok(Engine {
        gone,
        runs,
        counter,
    })
}
