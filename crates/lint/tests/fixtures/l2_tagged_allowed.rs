// L2 fixture: the shape of the engine's run-state record — a tagged
// payload whose arms nest another pair (`Cell`), a legacy reader under a
// name of its own, and the header / tail / partition helpers the engine
// codecs call on both sides. Every pair is positionally symmetric. Must
// be clean.
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
    epoch: u64,
    runs: Vec<RunState>,
    counter: u64,
}

impl Engine {
    fn encode_partition(&self, e: &mut Enc) {
        e.usize(self.runs.len());
        for rs in &self.runs {
            rs.encode(e, 1);
        }
    }

    fn decode_partition(&self, d: &mut Dec<'_>, legacy: bool) -> Result<Vec<RunState>, CodecError> {
        let mut runs = Vec::new();
        for _ in 0..d.seq_len()? {
            runs.push(RunState::decode(d, legacy)?);
        }
        Ok(runs)
    }

    fn encode_tail(&self, e: &mut Enc) {
        e.u64(self.counter);
    }

    fn decode_tail(&self, d: &mut Dec<'_>) -> Result<u64, CodecError> {
        d.u64()
    }

    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        write_engine_header(&mut e, self.epoch);
        self.encode_partition(&mut e);
        self.encode_tail(&mut e);
        e.finish()
    }

    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Dec::new(bytes);
        let (version, epoch) = read_engine_header(&mut d)?;
        self.runs = self.decode_partition(&mut d, version < 5)?;
        self.counter = self.decode_tail(&mut d)?;
        self.epoch = epoch;
        Ok(())
    }
}
