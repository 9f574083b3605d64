//! Shared pieces: arguments, the generated input, pinned engine knobs,
//! output digests, statistics and the result line.

use std::path::{Path, PathBuf};
use std::time::Instant;

use disc_core::{Budget, DistanceConstraints, EngineConfig, Parallelism, Saver, SaverConfig};
use disc_data::{ClusterSpec, Dataset, ErrorInjector, Schema};
use disc_distance::{Norm, Value};
use disc_persist::StoreOptions;

/// ε of every workload (the `disc generate` data's natural scale).
pub const EPS: f64 = 2.5;
/// η of every workload.
pub const ETA: usize = 4;
/// κ of every workload.
pub const KAPPA: usize = 2;
/// Attributes per generated row.
pub const ARITY: usize = 3;
/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `tiny` shrinks every input for the smoke tests.
    pub tiny: bool,
    /// Flip one output cell before the output checks (smoke tests).
    pub tamper: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut tiny = false;
        let mut tamper = false;
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value("--workload")?),
                "--seed" => {
                    seed = Some(
                        value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    }
                }
                "--size" => {
                    tiny = match value("--size")?.as_str() {
                        "tiny" => true,
                        "full" => false,
                        other => return Err(format!("--size must be tiny or full, got {other:?}")),
                    }
                }
                "--tamper" => tamper = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            tiny,
            tamper,
        })
    }
}

/// Worker threads: one per available core, pinned explicitly so no
/// engine knob falls back to its own auto-detection.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `disc generate` data: `n` clustered rows over 3 classes with n/50
/// dirty rows injected and n/100 natural outliers appended.
///
/// The rows are then spread so that clean, dirty and natural rows are
/// evenly interleaved: every slice a workload ingests holds the same
/// share of each, whatever the seed. Without this the outlier count of
/// a 1,024-row tail varies by about ±18% from seed to seed, and so does
/// the work of ingesting it.
pub fn generate(n: usize, seed: u64) -> Dataset {
    let mut ds = ClusterSpec::new(n, ARITY, 3, seed).generate();
    let log = ErrorInjector::new(n / 50, n / 100, seed ^ 0xC11).inject(&mut ds);
    let mut kind = vec![0usize; ds.len()];
    for e in &log.errors {
        kind[e.row] = 1;
    }
    for &row in &log.natural_rows {
        kind[row] = 2;
    }
    // The j-th of k rows of one kind goes to position (j + ½) / k.
    let mut counts = [0usize; 3];
    for &k in &kind {
        counts[k] += 1;
    }
    let mut seen = [0usize; 3];
    let mut keyed: Vec<(f64, usize, usize)> = kind
        .iter()
        .enumerate()
        .map(|(row, &k)| {
            let key = (seen[k] as f64 + 0.5) / counts[k] as f64;
            seen[k] += 1;
            (key, k, row)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let order: Vec<usize> = keyed.into_iter().map(|(_, _, row)| row).collect();
    ds.select(&order)
}

/// Every engine knob, pinned: one shard, `nproc` workers, no deadline.
pub fn engine_config() -> EngineConfig {
    EngineConfig::new(ARITY, EPS, ETA)
        .kappa(KAPPA)
        .shards(1)
        .parallelism(Parallelism(nproc()))
        .budget(Budget::unlimited())
}

/// Store options, pinned: one shard, checkpoints only when asked.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        snapshot_every: None,
        shards: Some(1),
    }
}

/// The saver `disc repair` runs, with the same pinned knobs.
pub fn batch_saver(schema: &Schema) -> Box<dyn Saver> {
    Box::new(
        SaverConfig::new(
            DistanceConstraints::new(EPS, ETA),
            schema.tuple_distance(Norm::L2),
        )
        .kappa(KAPPA)
        .parallelism(Parallelism(nproc()))
        .budget(Budget::unlimited())
        .build_approx()
        .expect("pinned saver knobs are valid"),
    )
}

/// The saver factory for reopening a store. The stored blob carries the
/// semantic knobs; the runtime ones (workers, budget) are re-pinned.
pub fn saver_from_blob(schema: &Schema, blob: &[u8]) -> Result<Box<dyn Saver>, disc_core::Error> {
    EngineConfig::decode(blob)?
        .parallelism(Parallelism(nproc()))
        .budget(Budget::unlimited())
        .build_saver_for(schema)
}

/// FNV-1a over every cell's kind tag and bit pattern: equal digests mean
/// bit-equal rows.
pub fn digest(rows: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        eat(&(row.len() as u64).to_le_bytes());
        for v in row {
            match v {
                Value::Null => eat(&[0]),
                Value::Num(x) => {
                    eat(&[1]);
                    eat(&x.to_bits().to_le_bytes());
                }
                Value::Text(s) => {
                    eat(&[2]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
            }
        }
    }
    h
}

/// Changes one numeric cell by one ulp: the smallest change an output
/// check must still catch.
pub fn flip_cell(rows: &mut [Vec<Value>]) {
    let row = rows.len() / 2;
    if let Some(Value::Num(x)) = rows.get_mut(row).and_then(|r| r.first_mut()) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set to the current one, so that
/// [`peak_rss_mb`] covers only what runs after this call rather than the
/// set-up. Free heap pages go back to the kernel first: the allocator
/// keeps a varying share of what the set-up freed, and that share would
/// otherwise set the new baseline. Where the kernel refuses the reset,
/// the peak stays the process's own.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Operation accounting behind `attempted`, `failed` and `ok_op_frac`.
/// Every timed operation and every output check is one attempt.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: u64,
}

impl Ops {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one output check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.op(ok);
        if !ok {
            self.failed_checks += 1;
            eprintln!("perfbench: output check failed: {what}");
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints the result line (always the last line of stdout).
pub fn print_result(ops: &Ops, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        ops.failed_checks == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}

/// A scratch directory for stores, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `.bench_work/<workload>-<pid>` under the current directory.
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Recursively copies a store directory (a snapshot plus its WAL).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
