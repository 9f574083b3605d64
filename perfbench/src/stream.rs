//! `stream_durable`: the `repair_batch` rows through
//! `DurableEngine::ingest` in fixed batches of 64, one WAL fsync per
//! batch. It runs the engine's incremental path, where δ_η maintenance
//! and dirty-set re-saves dominate, and its final dataset must be
//! byte-identical to `repair_batch`'s output at the same seed.
//!
//! Set-up preloads every row but the last [`tail`] as one batch into a
//! template store and checkpoints it. A pass copies the template, opens
//! it, and streams the tail (the ingest ops), reading each acked batch
//! back, with the outlier list, through the typed query API (the read
//! ops). The store is then dropped unclosed, so reopening it replays the
//! tail from the WAL (the catch-up), and `checkpoint()` is timed on the
//! recovered store.

use std::path::Path;

use disc_core::{Query, Response};
use disc_data::Dataset;
use disc_distance::Value;
use disc_obs::Snapshot;
use disc_persist::DurableEngine;

use crate::common::{self, digest, median, metric, percentile, timed, Args, Ops, WorkDir};
use crate::layers::Layers;
use crate::trace::{self, span};
use crate::Outcome;

const BATCH: usize = 64;

fn tail(args: &Args) -> usize {
    if args.tiny {
        2 * BATCH
    } else {
        16 * BATCH
    }
}

fn open(dir: &Path) -> Result<(DurableEngine, disc_persist::RecoveryReport), String> {
    DurableEngine::open(dir, common::saver_from_blob, common::store_options())
        .map_err(|e| e.to_string())
}

/// Builds the template store: every row but the tail, checkpointed.
fn setup(input: &Dataset, dir: &Path, tail: usize, ops: &mut Ops) -> Result<(), String> {
    let mut store = span("persist.create", || {
        DurableEngine::create_with_config(
            dir,
            input.schema().clone(),
            &common::engine_config(),
            common::store_options(),
        )
    })
    .map_err(|e| e.to_string())?;
    let prefix = input.rows()[..input.len() - tail].to_vec();
    let report = span("persist.ingest", || store.ingest(prefix)).map_err(|e| e.to_string())?;
    ops.op(!report.degraded);
    span("persist.checkpoint", || store.checkpoint()).map_err(|e| e.to_string())
}

#[derive(Default)]
struct Samples {
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    pass_s: Vec<f64>,
    catchup_s: f64,
    digests: Vec<u64>,
}

/// Reads the rows of the batch just acked through the typed query API
/// and lists the current outliers: every row must read back as sent
/// (read-your-writes), and its classification must agree with the
/// outlier list.
fn read_back(store: &DurableEngine, first: usize, batch: &[Vec<Value>]) -> bool {
    let engine = store.engine();
    let Response::Outliers(outliers) = engine.query(Query::Outliers) else {
        return false;
    };
    batch.iter().enumerate().all(|(i, sent)| {
        let row = first + i;
        let current = matches!(
            engine.query(Query::CurrentRow { row }),
            Response::CurrentRow(Some(_))
        );
        let counted = matches!(
            engine.query(Query::NeighborCount { row }),
            Response::NeighborCount(Some(_))
        );
        let classified = match engine.query(Query::IsInlier { row }) {
            Response::IsInlier(inlier) => inlier != outliers.binary_search(&row).is_ok(),
            _ => false,
        };
        let original = match engine.query(Query::OriginalRow { row }) {
            Response::OriginalRow(Some(r)) => r == sent.as_slice(),
            _ => false,
        };
        current && counted && classified && original
    })
}

#[allow(clippy::too_many_arguments)]
fn pass(
    input: &Dataset,
    tail: usize,
    template: &Path,
    dir: &Path,
    tamper: bool,
    ops: &mut Ops,
    layers: &mut Layers,
    out: &mut Samples,
) -> Result<(), String> {
    common::copy_dir(template, dir).map_err(|e| e.to_string())?;
    let (mut store, _) = open(dir)?;
    let first = input.len() - tail;

    let before = Snapshot::take();
    let mut pass_s = 0.0;
    for (b, batch) in input.rows()[first..].chunks(BATCH).enumerate() {
        trace::op(|| {
            let rows = batch.to_vec();
            let (report, secs) = timed(|| span("persist.ingest", || store.ingest(rows)));
            pass_s += secs;
            out.ingest_ms.push(secs * 1e3);
            match report {
                Ok(report) => {
                    layers.ingest_overhead_s += secs - report.stats.stages.total.as_secs_f64();
                    layers.absorb(&report);
                    ops.op(!report.degraded);
                }
                Err(e) => {
                    eprintln!("perfbench: ingest failed: {e}");
                    ops.op(false);
                }
            }
            layers.durable_ingests += 1.0;
            layers.durable_rows += batch.len() as f64;
            let (ok, secs) =
                timed(|| span("core.query", || read_back(&store, first + b * BATCH, batch)));
            out.read_ms.push(secs * 1e3);
            ops.check(ok, "acked batch reads back");
        });
    }
    layers.counters.add_since(&before);
    out.pass_s.push(pass_s);

    let mut state = store.engine().export_state();
    let mut streamed = store.engine().dataset().rows().to_vec();
    // Dropped without a checkpoint: the tail lives only in the WAL.
    drop(store);

    let before = Snapshot::take();
    let (reopened, secs) = timed(|| span("persist.open", || open(dir)));
    layers.catchup.add_since(&before);
    let (mut store, recovery) = reopened?;
    out.catchup_s += secs;

    if tamper {
        common::flip_cell(&mut state.current);
        common::flip_cell(&mut streamed);
    }
    ops.check(
        recovery.replayed_rows == tail as u64,
        "recovery replays the streamed tail",
    );
    ops.check(
        store.engine().export_state() == state,
        "the reopened store equals the streamed state",
    );
    let d = digest(&streamed);
    if let Some(&first) = out.digests.first() {
        ops.check(d == first, "every pass streams identically");
    }
    out.digests.push(d);

    let before = Snapshot::take();
    let (done, secs) = timed(|| span("persist.checkpoint", || store.checkpoint()));
    layers.counters.add_since(&before);
    ops.op(done.is_ok());
    layers.checkpoint_s += secs;
    layers.checkpoints += 1.0;
    drop(store);
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Outcome {
    let n = crate::repair::size(args);
    let tail = tail(args);
    let mut ops = Ops::default();
    let mut layers = Layers::default();
    let work = WorkDir::new("stream_durable").expect("create the work directory");

    let mut setup_s = Vec::new();
    let mut input = None;
    let mut template = work.path("template-0");
    for i in 0..crate::common::SETUPS {
        template = work.path(&format!("template-{i}"));
        let ((made, built), secs) = timed(|| {
            let (ds, gen_s) = timed(|| span("data.generate", || common::generate(n, args.seed)));
            layers.generate_s = gen_s;
            let built = setup(&ds, &template, tail, &mut ops);
            (ds, built)
        });
        setup_s.push(secs);
        if let Err(e) = built {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
        if i + 1 < crate::common::SETUPS {
            let _ = std::fs::remove_dir_all(&template);
        }
        input = Some(made);
    }
    let input = input.expect("at least one setup");
    let pass_dir = work.path("pass");

    let run_pass = |ops: &mut Ops, layers: &mut Layers, out: &mut Samples| {
        if let Err(e) = pass(
            &input,
            tail,
            &template,
            &pass_dir,
            args.tamper,
            ops,
            layers,
            out,
        ) {
            eprintln!("perfbench: pass failed: {e}");
            ops.check(false, "pass completes");
            let _ = std::fs::remove_dir_all(&pass_dir);
        }
    };
    run_pass(&mut ops, &mut Layers::default(), &mut Samples::default());
    common::reset_peak_rss();

    let measure = |seconds: f64, ops: &mut Ops, layers: &mut Layers| {
        let mut out = Samples::default();
        let start = std::time::Instant::now();
        let mut attempts = 0;
        while attempts < 3 || start.elapsed().as_secs_f64() < seconds {
            run_pass(ops, layers, &mut out);
            attempts += 1;
        }
        layers.passes += out.pass_s.len() as f64;
        out
    };
    let rate = |o: &Samples| (tail * o.pass_s.len()) as f64 / o.pass_s.iter().sum::<f64>();
    let out = crate::measure_phases(args, &mut ops, &mut layers, measure, rate);
    let peak_rss_mb = common::peak_rss_mb();

    let reference = crate::repair::reference_digest(n, args.seed);
    ops.check(
        out.digests.first() == Some(&reference),
        "streamed output = repair_batch output",
    );

    Outcome {
        e2e: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("rows_per_s", rate(&out), "rows/s"),
            metric("ingest_p50_ms", percentile(&out.ingest_ms, 50.0), "ms"),
            metric("ingest_p90_ms", percentile(&out.ingest_ms, 90.0), "ms"),
            metric("read_p50_ms", percentile(&out.read_ms, 50.0), "ms"),
            metric("read_p90_ms", percentile(&out.read_ms, 90.0), "ms"),
            metric(
                "catchup_rows_per_s",
                (tail * out.pass_s.len()) as f64 / out.catchup_s,
                "rows/s",
            ),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        ops,
        layers,
    }
}
