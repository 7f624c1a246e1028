//! Per-share-group metrics and their order-insensitive merge.

use std::collections::BTreeMap;

/// Live counters for one share group (graphlet), plus the placement
/// decision the optimizer priced for it.
///
/// A group is identified by its *signature*: the sorted list of
/// `(original query id, half)` pairs it serves, where half `0` is a
/// whole pattern and `1`/`2` are the left/right halves of a split
/// pattern. The signature — not the positional group index — is the
/// merge key, so counters from differently-ordered shard snapshots
/// combine deterministically.
///
/// Counter semantics (all monotonic within an engine epoch):
///
/// * `events_routed` — events appended to this group's bursts.
/// * `runs_created` — new runs opened (one per fresh window × key).
/// * `runs_expired` — runs finalized by watermark expiry, flush, or
///   churn drain.
/// * `shared_bursts` / `solo_bursts` — burst flushes the optimizer
///   decided to share vs. process per-query (Def. 12).
/// * `graphlet_snapshots` / `event_snapshots` — snapshot reuse at
///   graphlet vs. per-event granularity inside shared processing.
/// * `results_emitted` — window results attributed to this group.
///
/// `benefit` and `shared` are *placement state*, not counters: they
/// hold the Def. 12 benefit and sharing decision priced when the group
/// was placed (engine build or the most recent churn epoch).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupMetrics {
    /// Positional group index inside the engine that produced this
    /// snapshot (informational; the merge key is `sig`).
    pub group: u32,
    /// Sorted `(original query id, half)` signature of the group.
    pub sig: Vec<(u32, u8)>,
    /// Whether the optimizer placed this group as shared.
    pub shared: bool,
    /// Def. 12 benefit priced at placement (re-priced at each churn), in
    /// estimated ns saved per nominal burst.
    pub benefit: f64,
    /// Events appended to this group's bursts.
    pub events_routed: u64,
    /// New runs opened.
    pub runs_created: u64,
    /// Runs finalized (expiry, flush, or churn drain).
    pub runs_expired: u64,
    /// Burst flushes processed shared.
    pub shared_bursts: u64,
    /// Burst flushes processed per-query.
    pub solo_bursts: u64,
    /// Snapshots reused at graphlet granularity.
    pub graphlet_snapshots: u64,
    /// Snapshots reused at per-event granularity.
    pub event_snapshots: u64,
    /// Window results attributed to this group.
    pub results_emitted: u64,
}

impl GroupMetrics {
    /// A zeroed metrics record for group `group` with signature `sig`.
    pub fn new(group: u32, sig: Vec<(u32, u8)>) -> Self {
        GroupMetrics {
            group,
            sig,
            ..GroupMetrics::default()
        }
    }

    /// The exported name and help text of each of the eight counters, in
    /// [`counters`](Self::counters) order: a group row's key in
    /// `--metrics-json`, and the Prometheus family
    /// `hamlet_group_<name>_total`.
    pub const COUNTERS: [(&'static str, &'static str); 8] = [
        ("events_routed", "Events routed into the group."),
        ("runs_created", "Per-key window runs created."),
        ("runs_expired", "Runs finalized by watermark expiry."),
        ("shared_bursts", "Bursts processed shared."),
        ("solo_bursts", "Bursts processed per-query."),
        ("graphlet_snapshots", "Graphlet-level snapshots taken."),
        ("event_snapshots", "Event-level snapshots taken."),
        ("results", "Window results emitted by the group."),
    ];

    /// The eight counters, in the fixed order checkpoints store them
    /// (`docs/checkpoint-format.md`): everything but the placement
    /// fields.
    pub fn counters_mut(&mut self) -> [&mut u64; 8] {
        [
            &mut self.events_routed,
            &mut self.runs_created,
            &mut self.runs_expired,
            &mut self.shared_bursts,
            &mut self.solo_bursts,
            &mut self.graphlet_snapshots,
            &mut self.event_snapshots,
            &mut self.results_emitted,
        ]
    }

    /// The values of [`counters_mut`](Self::counters_mut), same order.
    pub fn counters(&self) -> [u64; 8] {
        [
            self.events_routed,
            self.runs_created,
            self.runs_expired,
            self.shared_bursts,
            self.solo_bursts,
            self.graphlet_snapshots,
            self.event_snapshots,
            self.results_emitted,
        ]
    }

    /// Add `other`'s counters into `self` (placement fields are left
    /// untouched; shards of one engine agree on them by construction).
    pub fn add_counters(&mut self, other: &GroupMetrics) {
        for (c, v) in self.counters_mut().into_iter().zip(other.counters()) {
            *c += v;
        }
    }

    /// Human/exporter label for the signature: `"3"` for a whole
    /// query, `"3L"`/`"3R"` for split halves, members joined with `+`
    /// (e.g. `"1+2+7L"`).
    pub fn sig_label(&self) -> String {
        let mut out = String::new();
        for (i, (q, half)) in self.sig.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            out.push_str(&q.to_string());
            match half {
                0 => {}
                1 => out.push('L'),
                2 => out.push('R'),
                h => {
                    out.push('#');
                    out.push_str(&h.to_string());
                }
            }
        }
        out
    }

    /// Total burst flushes (shared + solo).
    pub fn bursts(&self) -> u64 {
        self.shared_bursts + self.solo_bursts
    }
}

/// Merge per-shard group-metrics snapshots into one canonical vector.
///
/// Counters for groups with the same signature are summed; placement
/// fields (`shared`, `benefit`, `group`) are taken from the first
/// shard that reports the signature. All shards of one engine carry
/// identical `shared` and `benefit` — a placement is priced a priori
/// from the compiled group and the policy, never from a shard's share of
/// the stream — so this is not a tie-break in practice. The
/// result is sorted by signature, which makes the merge insensitive to
/// both shard order and group order within a shard — a 1-worker run
/// and a 4-worker run of the same plan produce byte-identical output.
pub fn merge_group_metrics<I>(shards: I) -> Vec<GroupMetrics>
where
    I: IntoIterator<Item = Vec<GroupMetrics>>,
{
    let mut by_sig: BTreeMap<Vec<(u32, u8)>, GroupMetrics> = BTreeMap::new();
    for shard in shards {
        for gm in shard {
            match by_sig.get_mut(&gm.sig) {
                Some(acc) => acc.add_counters(&gm),
                None => {
                    by_sig.insert(gm.sig.clone(), gm);
                }
            }
        }
    }
    by_sig.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gm(sig: Vec<(u32, u8)>, routed: u64) -> GroupMetrics {
        let mut g = GroupMetrics::new(0, sig);
        g.events_routed = routed;
        g.runs_created = routed / 2;
        g
    }

    #[test]
    fn merge_sums_by_signature() {
        let a = vec![gm(vec![(1, 0)], 10), gm(vec![(2, 1), (3, 1)], 4)];
        let b = vec![gm(vec![(2, 1), (3, 1)], 6), gm(vec![(1, 0)], 1)];
        let merged = merge_group_metrics([a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].sig, vec![(1, 0)]);
        assert_eq!(merged[0].events_routed, 11);
        assert_eq!(merged[1].sig, vec![(2, 1), (3, 1)]);
        assert_eq!(merged[1].events_routed, 10);
        assert_eq!(merged[1].runs_created, 5);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let a = vec![gm(vec![(1, 0)], 10), gm(vec![(5, 2)], 3)];
        let b = vec![gm(vec![(5, 2)], 7)];
        let ab = merge_group_metrics([a.clone(), b.clone()]);
        let ba = merge_group_metrics([b, a]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_keeps_placement_from_first_reporter() {
        let mut x = gm(vec![(1, 0)], 1);
        x.shared = true;
        x.benefit = 2.5;
        let y = gm(vec![(1, 0)], 2);
        let merged = merge_group_metrics([vec![x], vec![y]]);
        assert_eq!(merged.len(), 1);
        assert!(merged[0].shared);
        assert_eq!(merged[0].benefit, 2.5);
        assert_eq!(merged[0].events_routed, 3);
    }

    #[test]
    fn sig_labels() {
        assert_eq!(gm(vec![(3, 0)], 0).sig_label(), "3");
        assert_eq!(gm(vec![(1, 0), (7, 1)], 0).sig_label(), "1+7L");
        assert_eq!(gm(vec![(7, 2)], 0).sig_label(), "7R");
        assert_eq!(gm(vec![(9, 5)], 0).sig_label(), "9#5");
    }
}
