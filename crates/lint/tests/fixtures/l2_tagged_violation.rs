// L2 fixture: the state record of `l2_tagged_allowed.rs` with three
// seeded asymmetries — the tagged payload's decode arms read cells
// before the count, the tail record reads a `u32` where `u64` was
// written, and `decode_body` reads the removal list after the runs
// where `encode_body` writes it before them. Each must be flagged.
pub struct Cell {
    mask: u64,
    val: u64,
}

impl Codec for Cell {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.mask);
        e.u64(self.val);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Cell, CodecError> {
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
                    1 => self.cells.encode(e),
                    _ => self.events.encode(e),
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
                1 => rs.cells = Codec::decode(d)?,
                0 => rs.count = d.u64()?,
                _ => rs.events = Codec::decode(d)?,
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
        rs.events = Codec::decode(d)?;
        rs.count = d.u64()?;
        rs.pane = d.u64()?;
        Ok(rs)
    }
}

pub struct Tail {
    counter: u64,
}

impl Codec for Tail {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.counter);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Tail, CodecError> {
        Ok(Tail {
            counter: d.u32()? as u64,
        })
    }
}

pub struct Engine {
    gone: Vec<u64>,
    runs: Vec<RunState>,
    tail: Tail,
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
    eng.tail.encode(e);
}

fn decode_body(d: &mut Dec<'_>, delta: bool, legacy: bool) -> Result<Engine, CodecError> {
    let mut runs = Vec::new();
    for _ in 0..d.seq_len()? {
        runs.push(RunState::decode(d, legacy)?);
    }
    let mut gone = Vec::new();
    if delta {
        for _ in 0..d.seq_len()? {
            gone.push(d.u64()?);
        }
    }
    let tail = Tail::decode(d)?;
    Ok(Engine { gone, runs, tail })
}
