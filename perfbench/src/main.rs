//! The DISC engine benchmark; see `README.md` next to this package.
//!
//! `perfbench --workload <repair_batch|stream_durable|serve_mixed>
//! --seed N --seconds S --trace <0|1> [--size tiny|full] [--tamper]`
//!
//! Generates the workload's input from the seed, sets it up several
//! times (`setup_s` summarises them), runs one untimed warm-up pass, then
//! measures for `S` seconds and checks every output. The last stdout
//! line is one JSON object: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. A failed output check makes the
//! run exit 1 after printing `"correct": false`.

mod common;
mod layers;
mod repair;
mod serve;
mod stream;
mod trace;

use common::{metric, Args, Metric, Ops};
use layers::Layers;

/// What a workload run hands back for printing.
pub struct Outcome {
    /// End-to-end metrics, all but `ok_op_frac` (added from `ops`).
    pub e2e: Vec<Metric>,
    pub ops: Ops,
    pub layers: Layers,
}

/// Runs the measured phase. Untraced runs measure for the full time.
/// A traced run measures in four slices, untraced, traced, traced,
/// untraced, so that a drift over the run (a machine that speeds up or
/// slows down) cancels out of the throughput gap it reports as the tracing overhead. Its
/// per-layer totals come from the traced slices.
pub fn measure_phases<T>(
    args: &Args,
    ops: &mut Ops,
    layers: &mut Layers,
    mut measure: impl FnMut(f64, &mut Ops, &mut Layers) -> T,
    rate: impl Fn(&T) -> f64,
) -> T {
    if !args.trace {
        return measure(args.seconds, ops, layers);
    }
    let mut rates = [0.0; 2];
    let mut last = None;
    for traced in [false, true, true, false] {
        trace::set_enabled(traced);
        let out = if traced {
            measure(args.seconds / 4.0, ops, layers)
        } else {
            measure(args.seconds / 4.0, ops, &mut Layers::default())
        };
        rates[usize::from(traced)] += rate(&out);
        last = Some(out);
    }
    trace::set_enabled(false);
    layers.overhead_frac = rates[0] / rates[1] - 1.0;
    layers.spans = trace::take_all();
    last.expect("four slices ran")
}

fn git_revision() -> String {
    std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <repair_batch|stream_durable|serve_mixed> \
                 --seed N --seconds S --trace <0|1> [--size tiny|full] [--tamper]"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "repair_batch" => repair::run(&args),
        "stream_durable" => stream::run(&args),
        "serve_mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let Outcome {
        mut e2e,
        ops,
        layers,
    } = outcome;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={} nproc={} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" },
        common::nproc(),
        git_revision()
    );
    let metrics = if args.trace {
        if let Err(e) = trace::write(
            &layers.spans,
            &std::path::Path::new(".bench_trace")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed)),
        ) {
            eprintln!("perfbench: writing spans: {e}");
        }
        layers.metrics()
    } else {
        e2e.push(metric("ok_op_frac", ops.ok_frac(), "frac"));
        e2e
    };
    common::print_result(&ops, &metrics);
    if ops.failed_checks > 0 {
        std::process::exit(1);
    }
}
