//! `serve_mixed`: a durable leader started with `Server::start` on a
//! preloaded store. Two client connections each run a closed loop over a
//! fixed, seeded op sequence: one 4-row `ingest` per three `query` reads
//! of acked rows. Small batches make `serve`, `persist` (fsync and
//! publish) and the reads a large share of each op, and writes run
//! beside reads.
//!
//! After the load a follower catches up alone through
//! `Follower::catch_up_once` and must end bit-equal to the leader. The
//! leader idles meanwhile, so `replicate` is measured without competing
//! with it for the cores.
//!
//! Set-up builds two closed template stores: the preloaded leader, and a
//! follower bootstrapped from it. Every pass restores both from the
//! templates, so every pass runs the same ops on stores of the same
//! size. A store that kept growing over the run would make the figures
//! averages over a size range set by how many passes fit in the time,
//! that is, by the speed of the machine and of the program.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use disc_bench::serve_client::{IngestOutcome, ServeClient};
use disc_data::Dataset;
use disc_distance::Value;
use disc_obs::Snapshot;
use disc_persist::DurableEngine;
use disc_replicate::{Follower, FollowerOptions};
use disc_serve::json::{self, Json};
use disc_serve::{EngineBackend, Server, ServerConfig, ServerHandle};

use crate::common::{self, digest, median, metric, percentile, timed, Args, Ops, WorkDir};
use crate::layers::Layers;
use crate::trace::{self, span};
use crate::Outcome;

/// Closed-loop clients (= cores on the reference box).
const CLIENTS: usize = 2;
/// Rows per ingest request.
const BATCH: usize = 4;
/// Query reads per ingest.
const READS: usize = 3;

struct Sizes {
    preload: usize,
    /// Ingests per client per pass.
    ingests: usize,
}

impl Sizes {
    fn of(args: &Args) -> Sizes {
        if args.tiny {
            Sizes {
                preload: 200,
                ingests: 10,
            }
        } else {
            Sizes {
                preload: 2_000,
                ingests: 100,
            }
        }
    }

    /// Rows one client ingests in a pass.
    fn per_client(&self) -> usize {
        self.ingests * BATCH
    }

    /// Rows generated: the preload plus every client's ingests.
    fn n(&self) -> usize {
        self.preload + CLIENTS * self.per_client()
    }
}

/// One client's op sequence: its batches, each followed by [`READS`]
/// queries of preloaded (acked) rows drawn from a seeded generator.
fn plan(rows: &[Vec<Value>], preload: usize, seed: u64) -> Vec<(Vec<Vec<Value>>, [usize; READS])> {
    let mut state = seed | 1;
    let mut next = || {
        // xorshift64*: a fixed sequence per seed.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as usize % preload
    };
    rows.chunks(BATCH)
        .map(|batch| (batch.to_vec(), [next(), next(), next()]))
        .collect()
}

#[derive(Default)]
struct ClientRun {
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// `(generation, rows)` of every acked ingest.
    acked: Vec<(u64, Vec<Vec<Value>>)>,
    attempted: u64,
    failed: u64,
}

impl ClientRun {
    fn ingest(&mut self, client: &mut ServeClient, batch: &[Vec<Value>]) {
        trace::op(|| {
            let (outcome, secs) = timed(|| span("serve.ingest", || client.ingest(batch)));
            self.ingest_ms.push(secs * 1e3);
            self.attempted += 1;
            match outcome {
                Ok(IngestOutcome::Acked { generation }) => {
                    self.acked.push((generation, batch.to_vec()))
                }
                // Overloaded, refused or lost: all count as failed.
                Ok(_) | Err(_) => self.failed += 1,
            }
        })
    }

    fn read(&mut self, client: &mut ServeClient, row: usize) {
        trace::op(|| {
            let line = format!(r#"{{"op":"query","row":{row}}}"#);
            let (resp, secs) = timed(|| span("serve.query", || client.request(&line)));
            self.read_ms.push(secs * 1e3);
            self.attempted += 1;
            let ok = resp
                .ok()
                .and_then(|r| json::parse(&r).ok())
                .is_some_and(|d| {
                    d.get("ok") == Some(&Json::Bool(true))
                        && d.get("row").and_then(Json::as_usize) == Some(row)
                });
            if !ok {
                self.failed += 1;
            }
        })
    }
}

/// Runs one client's plan. The two clients take turns in step: while
/// one sends its ingest, the other sends its three reads, so writes run
/// beside reads but never queue behind each other. Left free-running,
/// the ingests queue behind each other about half the time and the
/// reads wait for a scheduler slice (1–4 ms) about one time in ten,
/// which puts p50 and p90 on the edge between two modes and makes them
/// swing by a quarter or more between identical runs.
fn drive(
    client: &mut ServeClient,
    ops: &[(Vec<Vec<Value>>, [usize; READS])],
    reads_first: bool,
    step: &Barrier,
) -> ClientRun {
    let mut run = ClientRun::default();
    for (batch, reads) in ops {
        for half in [reads_first, !reads_first] {
            if half {
                for &row in reads {
                    run.read(client, row);
                }
            } else {
                run.ingest(client, batch);
            }
            step.wait();
        }
    }
    trace::flush_thread();
    run
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_queue: 64,
        writer_throttle: None,
        poll_interval: Duration::from_millis(25),
        shutdown_flag: None,
    }
}

fn follower_options() -> FollowerOptions {
    FollowerOptions {
        store: common::store_options(),
        max_frames: 256,
        poll_interval: Duration::from_millis(50),
        min_backoff: Duration::from_millis(50),
        max_backoff: Duration::from_secs(5),
        io_timeout: Duration::from_secs(30),
    }
}

/// The two closed template stores every pass starts from.
struct Templates {
    leader: PathBuf,
    follower: PathBuf,
}

/// Builds the templates in `dir`: the leader store with the preload,
/// checkpointed, and a follower bootstrapped from it while it serves.
/// Both are closed again before this returns.
fn setup(
    input: &Dataset,
    preload: usize,
    dir: &Path,
    layers: &mut Layers,
) -> Result<Templates, String> {
    let t = Templates {
        leader: dir.join("leader"),
        follower: dir.join("follower"),
    };
    let mut store = span("persist.create", || {
        DurableEngine::create_with_config(
            &t.leader,
            input.schema().clone(),
            &common::engine_config(),
            common::store_options(),
        )
    })
    .map_err(|e| e.to_string())?;
    let rows = input.rows()[..preload].to_vec();
    span("persist.ingest", || store.ingest(rows)).map_err(|e| e.to_string())?;
    span("persist.checkpoint", || store.checkpoint()).map_err(|e| e.to_string())?;
    let handle = span("serve.start", || {
        Server::start(EngineBackend::Durable(store), server_config())
    })
    .map_err(|e| e.to_string())?;
    let (follower, secs) = timed(|| {
        span("replicate.bootstrap", || {
            Follower::bootstrap(
                &t.follower,
                handle.addr().to_string(),
                Box::new(common::saver_from_blob),
                follower_options(),
            )
        })
    });
    layers.bootstrap_s = secs;
    drop(follower.map_err(|e| e.to_string())?);
    handle.request_shutdown();
    match handle.wait().close_error {
        None => Ok(t),
        Some(e) => Err(e),
    }
}

/// A running leader with its follower and connected clients.
struct Cluster {
    handle: ServerHandle,
    follower: Follower,
    clients: Vec<ServeClient>,
}

/// Copies the templates into `dir` and starts a leader and follower on
/// the copies. The clients connect now, and make one round trip each,
/// so the accept loop's polling stays out of the timed load.
fn restore(t: &Templates, dir: &Path) -> Result<Cluster, String> {
    let (leader_dir, follower_dir) = (dir.join("leader"), dir.join("follower"));
    common::copy_dir(&t.leader, &leader_dir).map_err(|e| e.to_string())?;
    common::copy_dir(&t.follower, &follower_dir).map_err(|e| e.to_string())?;
    let (store, _) = DurableEngine::open(
        &leader_dir,
        common::saver_from_blob,
        common::store_options(),
    )
    .map_err(|e| e.to_string())?;
    let handle =
        Server::start(EngineBackend::Durable(store), server_config()).map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    // An existing follower store is reopened, not bootstrapped again.
    let follower = Follower::bootstrap(
        &follower_dir,
        addr.clone(),
        Box::new(common::saver_from_blob),
        follower_options(),
    )
    .map_err(|e| e.to_string())?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
        c.read_at("report").map_err(|e| e.to_string())?;
        clients.push(c);
    }
    Ok(Cluster {
        handle,
        follower,
        clients,
    })
}

/// The `stats` verb's ingest latency histogram, `(lower µs, count)`.
fn ingest_buckets(client: &mut ServeClient) -> Vec<(u64, u64)> {
    let Ok(doc) = client.request(r#"{"op":"stats"}"#) else {
        return Vec::new();
    };
    json::parse(&doc)
        .ok()
        .as_ref()
        .and_then(|d| d.get("latency_micros"))
        .and_then(|l| l.get("ingest"))
        .and_then(|h| h.get("buckets"))
        .and_then(Json::as_array)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    let p = p.as_array()?;
                    Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[derive(Default)]
struct Samples {
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    rows: f64,
    load_s: f64,
    catchup_s: f64,
    /// Digest of the leader's final current rows, per pass.
    digests: Vec<u64>,
}

struct Load<'a> {
    input: &'a Dataset,
    sizes: Sizes,
    seed: u64,
    templates: Templates,
    dir: PathBuf,
    tamper: bool,
}

impl Load<'_> {
    /// One pass: restore the templates, closed-loop load on the leader,
    /// then the follower catches up alone and is compared with the
    /// leader, and the leader is shut down and must hold exactly the
    /// preload plus every acked batch.
    fn pass(&self, ops: &mut Ops, layers: &mut Layers, out: &mut Samples) -> Result<(), String> {
        let mut c = restore(&self.templates, &self.dir)?;
        let first_generation = c.handle.snapshot().generation;
        let preload = self.sizes.preload;
        let plans: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let start = preload + k * self.sizes.per_client();
                plan(
                    &self.input.rows()[start..start + self.sizes.per_client()],
                    preload,
                    self.seed ^ (k as u64 + 1).wrapping_mul(0x9e37_79b9),
                )
            })
            .collect();

        let before = Snapshot::take();
        let started = Instant::now();
        let step = Barrier::new(CLIENTS);
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let workers: Vec<_> = c
                .clients
                .iter_mut()
                .zip(&plans)
                .enumerate()
                .map(|(k, (client, plan))| {
                    let step = &step;
                    s.spawn(move || drive(client, plan, k % 2 == 1, step))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let load_s = started.elapsed().as_secs_f64();
        layers.counters.add_since(&before);
        for (lo, n) in ingest_buckets(&mut c.clients[0]) {
            *layers.server_ingest_buckets.entry(lo).or_default() += n;
        }

        let mut acked = Vec::new();
        for run in runs {
            out.ingest_ms.extend(run.ingest_ms);
            out.read_ms.extend(run.read_ms);
            ops.ops(run.attempted, run.failed);
            acked.extend(run.acked);
        }
        acked.sort_by_key(|a| a.0);
        let last = acked.last().map_or(first_generation, |a| a.0);
        let acked_rows: usize = acked.iter().map(|a| a.1.len()).sum();
        layers.durable_ingests += acked.len() as f64;
        layers.durable_rows += acked_rows as f64;
        out.rows += acked_rows as f64;
        out.load_s += load_s;

        // Acks precede publication; wait (untimed) for the last ack's
        // generation to be readable on the leader.
        let deadline = Instant::now() + Duration::from_secs(30);
        while c.handle.snapshot().generation < last && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        let before = Snapshot::take();
        let started = Instant::now();
        let mut ok = true;
        loop {
            if started.elapsed() > Duration::from_secs(60) {
                eprintln!("perfbench: follower stuck below generation {last}");
                ok = false;
                break;
            }
            match span("replicate.catch_up_once", || c.follower.catch_up_once()) {
                Ok(step) => {
                    for (_, report) in &step.applied {
                        layers.absorb(report);
                        layers
                            .engine_ms
                            .push(report.stats.stages.total.as_secs_f64() * 1e3);
                    }
                    if step.caught_up && c.follower.generation() >= last {
                        break;
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: catch-up failed: {e}");
                    ok = false;
                    break;
                }
            }
        }
        let catchup_s = started.elapsed().as_secs_f64();
        layers.catchup.add_since(&before);
        layers.poll_s += catchup_s;
        out.catchup_s += catchup_s;
        ops.op(ok);
        ops.check(
            c.follower.state() == *c.handle.snapshot(),
            "follower state = leader state at the last acked generation",
        );

        let Cluster {
            handle,
            follower,
            clients,
        } = c;
        drop(clients);
        drop(follower);
        handle.request_shutdown();
        let leader = handle.wait();
        let mut original = leader.state.original;
        if self.tamper {
            common::flip_cell(&mut original);
        }
        let mut expected: Vec<Vec<Value>> = self.input.rows()[..preload].to_vec();
        for (_, rows) in acked.iter() {
            expected.extend(rows.iter().cloned());
        }
        ops.check(
            leader.close_error.is_none()
                && leader.generation == first_generation + acked.len() as u64,
            "leader closes cleanly at the last acked generation",
        );
        ops.check(original == expected, "leader holds exactly the acked rows");
        let d = digest(&leader.state.current);
        if let Some(&first) = out.digests.first() {
            ops.check(d == first, "every pass serves identically");
        }
        out.digests.push(d);
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut ops = Ops::default();
    let mut layers = Layers::default();
    let work = WorkDir::new("serve_mixed").expect("create the work directory");
    let sizes = Sizes::of(args);

    let mut setup_s = Vec::new();
    let mut made = None;
    for i in 0..common::SETUPS {
        let dir = work.path(&format!("setup-{i}"));
        let ((input, templates), secs) = timed(|| {
            let (ds, gen_s) =
                timed(|| span("data.generate", || common::generate(sizes.n(), args.seed)));
            layers.generate_s = gen_s;
            let t = setup(&ds, sizes.preload, &dir, &mut layers);
            (ds, t)
        });
        setup_s.push(secs);
        match templates {
            Ok(t) => made = Some((input, t)),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1);
            }
        }
        if i > 0 {
            let _ = std::fs::remove_dir_all(work.path(&format!("setup-{}", i - 1)));
        }
    }
    let (input, templates) = made.expect("at least one setup");
    let load = Load {
        input: &input,
        sizes,
        seed: args.seed,
        templates,
        dir: work.path("pass"),
        tamper: args.tamper,
    };
    let run_pass = |ops: &mut Ops, layers: &mut Layers, out: &mut Samples| {
        if let Err(e) = load.pass(ops, layers, out) {
            eprintln!("perfbench: pass failed: {e}");
            ops.check(false, "pass completes");
            let _ = std::fs::remove_dir_all(&load.dir);
        }
    };

    // Warm-up, then the peak resident set counts from here on.
    run_pass(&mut ops, &mut Layers::default(), &mut Samples::default());
    common::reset_peak_rss();

    let measure = |seconds: f64, ops: &mut Ops, layers: &mut Layers| {
        let mut out = Samples::default();
        let start = Instant::now();
        let mut passes = 0;
        while passes < 1 || start.elapsed().as_secs_f64() < seconds {
            run_pass(ops, layers, &mut out);
            passes += 1;
        }
        layers.passes += passes as f64;
        out
    };
    let out = crate::measure_phases(args, &mut ops, &mut layers, measure, |o| o.rows / o.load_s);
    let peak_rss_mb = common::peak_rss_mb();

    Outcome {
        e2e: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("rows_per_s", out.rows / out.load_s, "rows/s"),
            metric("ingest_p50_ms", percentile(&out.ingest_ms, 50.0), "ms"),
            metric("ingest_p90_ms", percentile(&out.ingest_ms, 90.0), "ms"),
            metric("read_p50_ms", percentile(&out.read_ms, 50.0), "ms"),
            metric("read_p90_ms", percentile(&out.read_ms, 90.0), "ms"),
            metric("catchup_rows_per_s", out.rows / out.catchup_s, "rows/s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        ops,
        layers,
    }
}
