//! Per-layer metrics, measured from outside: `SaveReport` stage timings,
//! `disc_obs` counter deltas, the serve `stats` verb, and the spans of
//! [`crate::trace`].
//!
//! Every workload prints the same list. Counts and times are per pass
//! (one repair, one streamed tail, one served pass); a layer the
//! workload does not drive reads 0, which is the prediction for it.

use std::collections::BTreeMap;

use disc_core::SaveReport;
use disc_obs::Snapshot;

use crate::common::{median, metric, Metric};
use crate::trace::{self, Span};

/// Raw per-layer totals over the traced measured phase.
#[derive(Debug, Default)]
pub struct Layers {
    /// Passes the totals cover; every count and time is divided by it.
    pub passes: f64,
    pub generate_s: f64,
    pub csv_roundtrip_s: f64,
    /// Counter deltas over the traced passes' main phase.
    pub counters: Counts,
    /// Counter deltas over their catch-up phase (replica or recovery),
    /// kept apart so the main phase's ratios are its own.
    pub catchup: Counts,
    pub rset_build_s: f64,
    pub detect_s: f64,
    pub save_s: f64,
    /// Σ(durable ingest wall − `stages.total`).
    pub ingest_overhead_s: f64,
    pub checkpoint_s: f64,
    pub checkpoints: f64,
    /// Acked durable ingests (leader and stream), for per-ingest ratios.
    pub durable_ingests: f64,
    pub durable_rows: f64,
    /// The serve `stats` verb's ingest latency histogram, summed over
    /// passes: lower bound in µs → count.
    pub server_ingest_buckets: BTreeMap<u64, u64>,
    /// `stages.total` of each frame the follower replays, in ms.
    pub engine_ms: Vec<f64>,
    pub bootstrap_s: f64,
    pub poll_s: f64,
    /// Untraced over traced throughput, minus one.
    pub overhead_frac: f64,
    pub spans: Vec<Span>,
}

impl Layers {
    /// Adds one report's stage timings.
    pub fn absorb(&mut self, report: &SaveReport) {
        let st = &report.stats.stages;
        self.rset_build_s += st.rset_build.as_secs_f64();
        self.detect_s += st.detect.as_secs_f64();
        self.save_s += st.save.as_secs_f64();
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let per = |x: f64| {
            if self.passes > 0.0 {
                x / self.passes
            } else {
                0.0
            }
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let g = |k: &str| c.get(k) as f64;
        let range = g("index.grid.range_queries")
            + g("index.brute.range_queries")
            + g("index.vptree.range_queries");
        let knn = g("index.grid.knn_queries")
            + g("index.brute.knn_queries")
            + g("index.vptree.knn_queries");
        let visited = g("index.grid.rows_visited")
            + g("index.brute.rows_visited")
            + g("index.vptree.rows_visited");
        let packed = g("kernel.packed_calls");
        let snap_writes = g("persist.snapshot.writes");
        let r = |k: &str| self.catchup.get(k) as f64;
        let frames = r("repl.frames_applied");
        let self_s = |layer: &str| per(trace::self_seconds(&self.spans, layer));
        vec![
            metric("data.generate_s", self.generate_s, "s"),
            metric("data.csv_roundtrip_s", self.csv_roundtrip_s, "s"),
            metric("data.self_s", self_s("data"), "s"),
            metric("distance.packed_calls", per(packed), "count"),
            metric(
                "distance.fallback_calls",
                per(g("kernel.fallback_calls")),
                "count",
            ),
            metric(
                "distance.early_exit_frac",
                ratio(g("kernel.early_exits"), packed),
                "frac",
            ),
            metric("index.range_queries", per(range), "count"),
            metric("index.knn_queries", per(knn), "count"),
            metric("index.rows_visited", per(visited), "count"),
            metric("index.rows_per_query", ratio(visited, range + knn), "rows"),
            metric("index.rebuilds", per(g("index.dynamic.rebuilds")), "count"),
            metric("core.rset_build_s", per(self.rset_build_s), "s"),
            metric("core.detect_s", per(self.detect_s), "s"),
            metric("core.save_s", per(self.save_s), "s"),
            metric("core.search_nodes", per(g("search.nodes")), "count"),
            metric("core.lb_prunes", per(g("search.lb_prunes")), "count"),
            metric(
                "core.outliers_saved",
                per(g("pipeline.outliers_saved")),
                "count",
            ),
            metric("core.dirty_rows", per(g("engine.dirty_rows")), "count"),
            metric("core.resaves", per(g("engine.resaves")), "count"),
            metric("core.promotions", per(g("engine.promotions")), "count"),
            metric("core.self_s", self_s("core"), "s"),
            metric(
                "persist.ingest_overhead_s",
                per(self.ingest_overhead_s),
                "s",
            ),
            metric(
                "persist.checkpoint_s",
                ratio(self.checkpoint_s, self.checkpoints),
                "s",
            ),
            metric(
                "persist.snapshot_bytes",
                ratio(g("persist.snapshot.bytes_written"), snap_writes),
                "bytes",
            ),
            metric(
                "persist.fsyncs_per_ingest",
                ratio(g("persist.wal.fsyncs"), self.durable_ingests),
                "count",
            ),
            metric(
                "persist.wal_bytes_per_row",
                ratio(g("persist.wal.bytes_written"), self.durable_rows),
                "bytes",
            ),
            metric("persist.self_s", self_s("persist"), "s"),
            metric(
                "serve.server_ingest_p50_us",
                bucket_p50(&self.server_ingest_buckets),
                "us",
            ),
            metric("serve.engine_p50_ms", median(&self.engine_ms), "ms"),
            metric(
                "serve.overloaded",
                per(g("serve.rejected_overloaded")),
                "count",
            ),
            metric("serve.self_s", self_s("serve"), "s"),
            metric("replicate.bootstrap_s", self.bootstrap_s, "s"),
            metric("replicate.poll_s", per(self.poll_s), "s"),
            metric("replicate.frames_applied", per(frames), "count"),
            metric(
                "replicate.bytes_per_frame",
                ratio(r("repl.bytes_shipped"), r("repl.frames_shipped")),
                "bytes",
            ),
            metric("replicate.self_s", self_s("replicate"), "s"),
            metric("trace.overhead_frac", self.overhead_frac, "frac"),
            metric("trace.spans", self.spans.len() as f64, "count"),
        ]
    }
}

/// The lower bound of the log₂ bucket that holds the median.
fn bucket_p50(buckets: &BTreeMap<u64, u64>) -> f64 {
    let total: u64 = buckets.values().sum();
    let mut seen = 0;
    for (&lo, &n) in buckets {
        seen += n;
        if total > 0 && 2 * seen >= total {
            return lo as f64;
        }
    }
    0.0
}

/// Summed counter deltas.
#[derive(Debug, Default, Clone)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    /// Adds what the counters gained since `before`.
    pub fn add_since(&mut self, before: &Snapshot) {
        for (key, v) in Snapshot::take().delta_since(before).iter() {
            *self.0.entry(key).or_default() += v;
        }
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }
}
