//! `repair_batch`: the one-shot `Saver::save_all` that `disc repair`
//! runs. Most of its work is the RSet build (η-NN per inlier) in `core`
//! over `index` and `distance`; it never touches `persist`, `serve` or
//! `replicate`.
//!
//! A pass reads the input CSV, repairs it (the ingest op: batch repair
//! is a one-shot ingest), scans the repaired rows for the violations
//! left, as `disc detect` would (the read op), and writes the repaired
//! CSV and reads it back into a second dataset (the catch-up).
//!
//! The read op is that two-worker scan rather than the single-threaded
//! CSV parse: the parse takes 8 ms or 13 ms depending on whether the
//! scheduler has just moved the thread to the other core, so its median
//! jumped by a quarter between identical runs.

use disc_core::{detect_outliers_parallel, Saver};
use disc_data::{csv, Dataset};
use disc_obs::Snapshot;

use crate::common::{self, digest, metric, percentile, timed, Args, Ops};
use crate::layers::Layers;
use crate::trace::{self, span};
use crate::Outcome;

struct Setup {
    input: Dataset,
    /// The input as the CSV text `disc repair` would read.
    text: String,
    saver: Box<dyn Saver>,
}

fn setup(n: usize, seed: u64, ops: &mut Ops, layers: &mut Layers) -> Setup {
    let (input, gen_s) = timed(|| span("data.generate", || common::generate(n, seed)));
    let ((text, parsed), rt_s) = timed(|| {
        span("data.csv_roundtrip", || {
            let text = csv::to_string(&input);
            let parsed = csv::from_str(&text).map(|d| digest(d.rows()));
            (text, parsed)
        })
    });
    ops.check(
        parsed == Ok(digest(input.rows())),
        "CSV round trip of the input",
    );
    layers.generate_s = gen_s;
    layers.csv_roundtrip_s = rt_s;
    let saver = common::batch_saver(input.schema());
    Setup { input, text, saver }
}

#[derive(Default)]
struct Samples {
    read_ms: Vec<f64>,
    save_s: Vec<f64>,
    catchup_s: f64,
    digests: Vec<u64>,
}

/// One repair pass, with its output checks.
fn pass(s: &Setup, tamper: bool, ops: &mut Ops, layers: &mut Layers, out: &mut Samples) {
    trace::op(|| {
        let parsed = span("data.csv_read", || csv::from_str(&s.text));
        ops.op(parsed.is_ok());
        let mut ds = parsed.unwrap_or_else(|_| Dataset::new(s.input.schema().clone(), Vec::new()));

        let before = Snapshot::take();
        let (report, secs) = timed(|| span("core.save_all", || s.saver.save_all(&mut ds)));
        layers.counters.add_since(&before);
        layers.absorb(&report);
        out.save_s.push(secs);
        let unfinished = (report.failed.len() + report.skipped.len()) as u64;
        ops.ops(report.outliers.len() as u64, unfinished);

        let (_, secs) = timed(|| {
            span("core.detect", || {
                let (dist, c) = (s.saver.distance(), s.saver.constraints());
                detect_outliers_parallel(ds.rows(), dist, c, common::nproc())
            })
        });
        out.read_ms.push(secs * 1e3);
        ops.op(true);

        let (back, secs) = timed(|| {
            span("data.csv_catchup", || {
                csv::from_str(&csv::to_string(&ds)).map(|d| digest(d.rows()))
            })
        });
        out.catchup_s += secs;

        if tamper {
            common::flip_cell(ds.rows_mut());
        }
        ops.check(
            report.saved.len() + report.unsaved.len() + report.failed.len() + report.skipped.len()
                == report.outliers.len(),
            "saved + unsaved + failed + skipped = outliers",
        );
        // The output is the input with exactly the reported adjustments.
        let mut expected = s.input.rows().to_vec();
        for saved in &report.saved {
            expected[saved.row] = saved.adjustment.values.clone();
        }
        let out_digest = digest(ds.rows());
        ops.check(
            out_digest == digest(&expected),
            "repaired rows = input + reported adjustments",
        );
        ops.check(back == Ok(out_digest), "repaired CSV reads back bit-equal");
        if let Some(&first) = out.digests.first() {
            ops.check(out_digest == first, "every pass repairs identically");
        }
        out.digests.push(out_digest);
    })
}

/// The repaired output's digest at `seed`: what `stream_durable` must
/// reproduce.
pub fn reference_digest(n: usize, seed: u64) -> u64 {
    let mut ds = common::generate(n, seed);
    let saver = common::batch_saver(ds.schema());
    saver.save_all(&mut ds);
    digest(ds.rows())
}

pub fn size(args: &Args) -> usize {
    if args.tiny {
        400
    } else {
        10_000
    }
}

pub fn run(args: &Args) -> Outcome {
    let n = size(args);
    let mut ops = Ops::default();
    let mut layers = Layers::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    // Set-up takes milliseconds here and is single-threaded: 15 ms, or
    // 24 ms while the scheduler keeps moving the thread between cores.
    // A median of such two-mode samples jumps between the modes from run
    // to run, so report the mean of many.
    for _ in 0..15 {
        let (made, secs) = timed(|| setup(n, args.seed, &mut ops, &mut layers));
        setup_s.push(secs);
        s = Some(made);
    }
    let s = s.expect("at least one setup");

    // Warm-up: the first pass after idle runs well above the rest.
    pass(
        &s,
        args.tamper,
        &mut ops,
        &mut Layers::default(),
        &mut Samples::default(),
    );
    common::reset_peak_rss();

    let measure = |seconds: f64, ops: &mut Ops, layers: &mut Layers| {
        let mut out = Samples::default();
        let start = std::time::Instant::now();
        while out.save_s.len() < 3 || start.elapsed().as_secs_f64() < seconds {
            pass(&s, args.tamper, ops, layers, &mut out);
        }
        layers.passes += out.save_s.len() as f64;
        out
    };
    let rows = s.input.len() as f64;
    let rate = |o: &Samples| rows * o.save_s.len() as f64 / o.save_s.iter().sum::<f64>();
    let out = crate::measure_phases(args, &mut ops, &mut layers, measure, rate);
    let peak_rss_mb = common::peak_rss_mb();

    let save_ms: Vec<f64> = out.save_s.iter().map(|x| x * 1e3).collect();
    Outcome {
        e2e: vec![
            metric(
                "setup_s",
                setup_s.iter().sum::<f64>() / setup_s.len() as f64,
                "s",
            ),
            metric("rows_per_s", rate(&out), "rows/s"),
            metric("ingest_p50_ms", percentile(&save_ms, 50.0), "ms"),
            metric("ingest_p90_ms", percentile(&save_ms, 90.0), "ms"),
            metric("read_p50_ms", percentile(&out.read_ms, 50.0), "ms"),
            metric("read_p90_ms", percentile(&out.read_ms, 90.0), "ms"),
            metric(
                "catchup_rows_per_s",
                rows * out.save_s.len() as f64 / out.catchup_s,
                "rows/s",
            ),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        ops,
        layers,
    }
}
