//! Result sinks: where a live pipeline's window results go.
//!
//! Each shard worker hands its results to the [`Sink`] itself, one
//! worker at a time, so a slow sink holds the workers (and through their
//! bounded channels the source) instead of buffering unbounded results.
//! The sink is handed back by
//! [`PipelineHandle::drain`](crate::PipelineHandle::drain), so whatever
//! it accumulated is available after shutdown.

use hamlet_core::executor::WindowResult;

/// Consumes batches of window results as the pipeline emits them.
pub trait Sink: Send {
    /// Accepts one batch of results (never empty). Results of one engine
    /// arrive in emission order; batches from different shard workers
    /// interleave arbitrarily.
    fn accept(&mut self, batch: Vec<WindowResult>);
}

/// Collects every result in arrival order — the sink the equivalence
/// tests drain and compare against an offline run.
#[derive(Default)]
pub struct VecSink {
    /// All accepted results.
    pub results: Vec<WindowResult>,
}

impl VecSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for VecSink {
    fn accept(&mut self, batch: Vec<WindowResult>) {
        self.results.extend(batch);
    }
}

/// Counts results without retaining them — for sustained-load runs where
/// retaining every window would distort the memory story.
#[derive(Default)]
pub struct CountingSink {
    /// Results accepted so far.
    pub count: u64,
}

impl CountingSink {
    /// New zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for CountingSink {
    fn accept(&mut self, batch: Vec<WindowResult>) {
        self.count += batch.len() as u64;
    }
}

/// Discards everything (pure engine benchmarking).
#[derive(Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn accept(&mut self, _batch: Vec<WindowResult>) {}
}

/// Any closure over result batches is a sink.
impl<F: FnMut(Vec<WindowResult>) + Send> Sink for F {
    fn accept(&mut self, batch: Vec<WindowResult>) {
        self(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_core::executor::AggValue;
    use hamlet_query::QueryId;
    use hamlet_types::{GroupKey, Ts};

    fn row(start: u64) -> WindowResult {
        WindowResult {
            query: QueryId(1),
            group_key: GroupKey::empty(),
            window_start: Ts(start),
            value: AggValue::Count(start),
        }
    }

    #[test]
    fn sinks_accumulate() {
        let mut v = VecSink::new();
        v.accept(vec![row(1), row(2)]);
        v.accept(vec![row(3)]);
        assert_eq!(v.results.len(), 3);

        let mut c = CountingSink::new();
        c.accept(vec![row(1), row(2)]);
        assert_eq!(c.count, 2);

        NullSink.accept(vec![row(9)]);

        let mut seen = 0usize;
        {
            let mut f = |batch: Vec<WindowResult>| seen += batch.len();
            Sink::accept(&mut f, vec![row(1)]);
        }
        assert_eq!(seen, 1);
    }
}
