//! E19: metadata read throughput under reader concurrency.
//!
//! The paper's scalability argument (Sections 2.1, 4.2) assumes consumers
//! can access tailored metadata cheaply. This experiment measures the
//! aggregate read throughput of the two consumer paths while 1..8 threads
//! read the same item as fast as they can:
//!
//! * `sub_get`  — reads through a shared [`Subscription`] handle (the
//!   cached-handler fast path: no manager bookkeeping at all);
//! * `key_read` — reads by [`MetadataKey`] through the manager (the
//!   sharded handler index: one shard read lock per access).
//!
//! Rows are appended to `results/e19_read_contention.csv` tagged with the
//! `E19_PHASE` label, so the pre-change baseline (global bookkeeping
//! mutex on every read) and the sharded/cached implementation can be
//! recorded in the same file and compared. Each configuration runs
//! `E19_TRIALS` times (default 3) and the best trial is kept — a
//! min-noise estimator, since scheduler interference on a shared host
//! only ever subtracts throughput. `E19_QUICK=1` shortens the runs to a
//! CI smoke invocation.
//!
//! [`Subscription`]: streammeta_core::Subscription

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streammeta_bench::table::Table;
use streammeta_core::{ItemDef, MetadataKey, MetadataManager, MetadataValue, NodeId, NodeRegistry};
use streammeta_time::{Clock, WallClock};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Measurement {
    mode: &'static str,
    threads: usize,
    reads: u64,
    elapsed: Duration,
}

impl Measurement {
    fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `threads` readers for `dur`, each executing `read` in a tight
/// loop; returns the total number of reads performed.
fn run_readers(threads: usize, dur: Duration, read: impl Fn() + Sync) -> (u64, Duration) {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let stop = &stop;
            let total = &total;
            let read = &read;
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        read();
                    }
                    n += 64;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::SeqCst);
    });
    (total.load(Ordering::Relaxed), started.elapsed())
}

fn main() {
    let quick = std::env::var("E19_QUICK").is_ok();
    let millis: u64 = std::env::var("E19_MILLIS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 250 });
    let dur = Duration::from_millis(millis);
    let trials: usize = std::env::var("E19_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(if quick { 1 } else { 3 });
    let phase = std::env::var("E19_PHASE").unwrap_or_else(|_| "sharded".into());

    println!(
        "E19 — read-path contention ({millis}ms wall runs, best of {trials}, phase `{phase}`)\n"
    );

    let clock: Arc<dyn Clock> = WallClock::shared();
    let manager = MetadataManager::new(clock);
    let node = NodeId(0);
    let reg = NodeRegistry::new(node);
    reg.define(ItemDef::static_value("cfg.value", 42u64));
    manager.attach_node(reg);
    let key = MetadataKey::new(node, "cfg.value");
    let sub = Arc::new(manager.subscribe(key.clone()).expect("subscribe"));
    assert_eq!(sub.get(), MetadataValue::U64(42));

    // Best trial per configuration: interference from co-tenants only
    // ever lowers throughput, so the max is the least-noisy estimate.
    let best_of = |mode: &'static str, threads: usize, read: &(dyn Fn() + Sync)| {
        (0..trials)
            .map(|_| {
                let (reads, elapsed) = run_readers(threads, dur, read);
                Measurement {
                    mode,
                    threads,
                    reads,
                    elapsed,
                }
            })
            .max_by(|a, b| a.reads_per_sec().total_cmp(&b.reads_per_sec()))
            .expect("at least one trial")
    };

    let mut measurements: Vec<Measurement> = Vec::new();
    for &threads in &THREAD_COUNTS {
        measurements.push(best_of("sub_get", threads, &|| {
            std::hint::black_box(sub.get());
        }));
        measurements.push(best_of("key_read", threads, &|| {
            std::hint::black_box(manager.read(&key).expect("included"));
        }));
    }

    let mut table = Table::new(&["mode", "threads", "reads", "reads/sec (M)"]);
    for m in &measurements {
        table.row(vec![
            m.mode.to_string(),
            m.threads.to_string(),
            m.reads.to_string(),
            format!("{:.2}", m.reads_per_sec() / 1e6),
        ]);
    }
    table.print();

    // Scaling factor: throughput at max threads over single-threaded.
    for mode in ["sub_get", "key_read"] {
        let tp = |threads: usize| {
            measurements
                .iter()
                .find(|m| m.mode == mode && m.threads == threads)
                .map(|m| m.reads_per_sec())
                .unwrap_or(0.0)
        };
        if tp(1) > 0.0 {
            println!(
                "\n{mode}: {:.2}x aggregate throughput at 8 threads vs 1 thread",
                tp(8) / tp(1)
            );
        }
    }

    // Append tagged rows so baseline and sharded phases share one CSV.
    let out_dir = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let out_path = format!("{out_dir}/e19_read_contention.csv");
    let mut csv = String::new();
    if !std::path::Path::new(&out_path).exists() {
        csv.push_str("phase,mode,threads,reads,elapsed_ms,reads_per_sec\n");
    }
    for m in &measurements {
        csv.push_str(&format!(
            "{phase},{},{},{},{:.3},{:.0}\n",
            m.mode,
            m.threads,
            m.reads,
            m.elapsed.as_secs_f64() * 1e3,
            m.reads_per_sec()
        ));
    }
    let write = std::fs::create_dir_all(&out_dir).and_then(|()| {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out_path)
            .and_then(|mut f| f.write_all(csv.as_bytes()))
    });
    match write {
        Ok(()) => println!("\nCSV rows appended to {out_path}"),
        Err(e) => println!("\ncould not write {out_path} ({e}); CSV follows:\n{csv}"),
    }
}
