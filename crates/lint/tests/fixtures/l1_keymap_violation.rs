// L1 fixture: the same emission shape over the engine's key-hashed map
// alias, whose iteration order is a hash order too. Must be flagged.
use crate::keyhash::KeyMap;

pub struct Emitter {
    partitions: KeyMap<u64, Vec<u64>>,
}

impl Emitter {
    pub fn emit_expired(&mut self, wm: u64, out: &mut Vec<(u64, u64)>) {
        for (key, runs) in self.partitions.iter_mut() {
            runs.retain(|&end| end > wm);
            out.push((*key, runs.len() as u64));
        }
    }
}
