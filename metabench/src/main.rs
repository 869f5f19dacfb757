//! The streammeta benchmark: update→notified latency and throughput,
//! subscribe/unsubscribe latency, read throughput and catalog-query
//! latency over four closed-loop workloads, plus per-layer attribution
//! from a separate traced run. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path metabench/Cargo.toml -- \
//!     --workload fanout --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any reference check failed.

mod churn;
mod fanout;
mod harness;
mod model;
mod pace;
mod plane;
mod reads;
mod rng;
mod spans;
mod stats;
mod world;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Build, Checks, Outcome};

pub const WORKLOADS: [&str; 4] = ["fanout", "burst", "churn", "plane"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit, and the base it rests on.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: base.into(),
    }
}

/// Latency percentile `p` of `samples` (ns) in `unit` (`us` or `ms`), or
/// an error when too few samples lie beyond it.
fn latency(
    name: &'static str,
    samples: &mut stats::Samples,
    p: f64,
    unit: &'static str,
) -> Result<Metric, String> {
    let seen = samples.seen();
    let kept = samples.sorted();
    let v = stats::percentile(kept, p).ok_or_else(|| {
        format!(
            "{name}: {} samples leave fewer than {} beyond p{}",
            kept.len(),
            stats::MIN_BEYOND,
            p * 100.0
        )
    })?;
    let ns_per_unit = if unit == "ms" { 1e6 } else { 1e3 };
    let base = format!("n={seen}, {} kept", kept.len());
    Ok(metric(name, v as f64 / ns_per_unit, unit, base))
}

fn end_to_end(o: &mut Outcome) -> Result<Vec<Metric>, String> {
    let e = &mut o.e2e;
    let (secs, _) = o.untraced;
    let factor = stats::median(&e.factors);
    Ok(vec![
        metric(
            "setup_s",
            stats::median(&o.setup_s),
            "s",
            format!(
                "median of {}; {:.4} s as measured",
                o.setup_s.len(),
                stats::median(&o.setup_measured_s)
            ),
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB", "process high-water"),
        metric(
            "updates_per_s",
            stats::median(&e.update_rates),
            "1/s",
            format!(
                "median of {} chunks, host-speed factor median {factor:.3}; {} updates in {secs:.2} s",
                e.update_rates.len(),
                e.updates
            ),
        ),
        latency("notify_p50_us", &mut e.notify_ns, 0.5, "us")?,
        latency("notify_p99_us", &mut e.notify_ns, 0.99, "us")?,
        latency("subscribe_p50_us", &mut e.subscribe_ns, 0.5, "us")?,
        latency("subscribe_p99_us", &mut e.subscribe_ns, 0.99, "us")?,
        latency("unsubscribe_p50_us", &mut e.unsubscribe_ns, 0.5, "us")?,
        latency("unsubscribe_p99_us", &mut e.unsubscribe_ns, 0.99, "us")?,
        metric(
            "reads_per_s",
            stats::median(&e.read_rates),
            "1/s",
            format!(
                "median of {} passes or chunks; {} reads",
                e.read_rates.len(),
                e.reads
            ),
        ),
        latency("catalog_query_p50_ms", &mut e.catalog_ns, 0.5, "ms")?,
    ])
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics from the traced segments' spans and counters.
fn per_layer(o: &Outcome) -> Vec<Metric> {
    let s = &o.spans;
    let c = &o.counters;
    let mean = |name: &str| {
        let a = s.agg(name);
        div(a.total_ns as f64, a.count as f64)
    };
    let n = |name: &str| s.agg(name).count as f64;
    let fire = s.agg("manager.fire_event");
    let flush = s.agg("epoch.flush_epoch");
    let pump = s.agg("partition.pump");
    let fire_recomputes = s.child_count("manager.fire_event", "handler.compute") as f64;
    let flush_recomputes = s.child_count("epoch.flush_epoch", "handler.compute") as f64;
    let updates = n("manager.fire_event") + n("epoch.enqueue") + n("partition.fire_event");
    let deliveries: u64 = ["manager.fire_event", "epoch.flush_epoch", "partition.pump"]
        .iter()
        .map(|p| s.child_count(p, "handler.observer"))
        .sum();
    let subscribes = n("inclusion.subscribe");
    let unsubscribes = n("inclusion.unsubscribe");
    let new_handlers = s.count("inclusion.new_handlers") as f64;
    let removed = s.count("inclusion.removed_handlers") as f64;
    let applies = s.count("partition.applies") as f64;
    let rate = |(secs, steps): (f64, u64)| div(steps as f64, secs);
    let base = |what: &str, count: f64| format!("{what}={count}");
    vec![
        metric(
            "manager.fire_ns_per_update",
            mean("manager.fire_event"),
            "ns",
            base("updates", fire.count as f64),
        ),
        metric(
            "manager.sweep_self_ns_per_recompute",
            div(fire.self_ns as f64, fire_recomputes),
            "ns",
            base("recomputes", fire_recomputes),
        ),
        metric(
            "manager.recomputes_per_update",
            div(fire_recomputes, fire.count as f64),
            "count",
            base("updates", fire.count as f64),
        ),
        metric(
            "manager.dep_read_ns",
            mean("manager.dep"),
            "ns",
            base("reads", n("manager.dep")),
        ),
        metric(
            "handler.compute_ns_per_recompute",
            mean("handler.compute"),
            "ns",
            base("recomputes", n("handler.compute")),
        ),
        metric(
            "handler.deliveries_per_update",
            div(deliveries as f64, updates),
            "count",
            base("updates", updates),
        ),
        metric(
            "handler.observer_ns_per_delivery",
            mean("handler.observer"),
            "ns",
            base("deliveries", n("handler.observer")),
        ),
        metric(
            "epoch.enqueue_ns",
            mean("epoch.enqueue"),
            "ns",
            base("enqueues", n("epoch.enqueue")),
        ),
        metric(
            "epoch.flush_self_ns_per_recompute",
            div(flush.self_ns as f64, flush_recomputes),
            "ns",
            base("recomputes", flush_recomputes),
        ),
        metric(
            "epoch.coalesced_share",
            div(c.coalesced as f64, n("epoch.enqueue")),
            "ratio",
            base("enqueues", n("epoch.enqueue")),
        ),
        metric(
            "epoch.recomputes_per_epoch",
            div(flush_recomputes, flush.count as f64),
            "count",
            base("epochs", flush.count as f64),
        ),
        metric(
            "inclusion.subscribe_ns_per_new_handler",
            div(s.agg("inclusion.subscribe").total_ns as f64, new_handlers),
            "ns",
            base("new_handlers", new_handlers),
        ),
        metric(
            "inclusion.new_handlers_per_subscribe",
            div(new_handlers, subscribes),
            "count",
            base("subscribes", subscribes),
        ),
        metric(
            "inclusion.shared_subscribe_share",
            div(s.count("inclusion.shared_subscribes") as f64, subscribes),
            "ratio",
            base("subscribes", subscribes),
        ),
        metric(
            "inclusion.unsubscribe_ns_per_removed_handler",
            div(s.agg("inclusion.unsubscribe").total_ns as f64, removed),
            "ns",
            base("removed_handlers", removed),
        ),
        metric(
            "inclusion.removed_handlers_per_unsubscribe",
            div(removed, unsubscribes),
            "count",
            base("unsubscribes", unsubscribes),
        ),
        metric(
            "subscription.get_ns",
            mean("subscription.get"),
            "ns",
            base("gets", n("subscription.get")),
        ),
        metric(
            "shards.read_ns",
            mean("shards.read"),
            "ns",
            base("reads", n("shards.read")),
        ),
        metric(
            "reads.fast_share",
            div(c.fast_reads as f64, (c.fast_reads + c.shard_reads) as f64),
            "ratio",
            base("reads", (c.fast_reads + c.shard_reads) as f64),
        ),
        metric(
            "partition.fire_ns_per_update",
            mean("partition.fire_event"),
            "ns",
            base("updates", n("partition.fire_event")),
        ),
        metric(
            "partition.pump_self_ns_per_apply",
            div(pump.self_ns as f64, applies),
            "ns",
            base("applies", applies),
        ),
        metric(
            "partition.applies_per_update",
            div(c.remote_updates as f64, n("partition.fire_event")),
            "count",
            base("updates", n("partition.fire_event")),
        ),
        metric(
            "partition.applies_per_changed_link",
            div(applies, s.count("partition.changed_links") as f64),
            "count",
            base("changed_links", s.count("partition.changed_links") as f64),
        ),
        metric(
            "trace.records_per_op",
            div(c.trace_records as f64, s.roots as f64),
            "count",
            base("framework_calls", s.roots as f64),
        ),
        metric(
            "trace.dropped_share",
            div(c.trace_dropped as f64, c.trace_records as f64),
            "ratio",
            base("records", c.trace_records as f64),
        ),
        metric(
            "catalog.rows_ms",
            mean("catalog.catalog_rows") / 1e6,
            "ms",
            base("calls", n("catalog.catalog_rows")),
        ),
        metric(
            "cql.self_ms",
            (mean("cql.query_once") - mean("catalog.catalog_rows")) / 1e6,
            "ms",
            base("queries", n("cql.query_once")),
        ),
        metric(
            "bench.trace_overhead_pct",
            (div(rate(o.untraced), rate(o.traced)) - 1.0) * 100.0,
            "%",
            format!("{:.0} vs {:.0} steps/s", rate(o.untraced), rate(o.traced)),
        ),
    ]
}

/// The process's resident-set high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and `usage` is a
    // valid, writable value of it for the duration of the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return Err("getrusage failed".into());
    }
    // Linux reports kilobytes.
    Ok(usage.maxrss as f64 / 1024.0)
}

fn build(args: &Args) -> impl FnMut(&mut Checks) -> Build + '_ {
    move |checks| match args.workload.as_str() {
        "fanout" => fanout::build(args.seed, false, checks),
        "burst" => fanout::build(args.seed, true, checks),
        "churn" => churn::build(args.seed, checks),
        _ => plane::build(args.seed, checks),
    }
}

/// `--workload all`: every workload untraced, then traced, each in a
/// process of its own so that peak memory and spans stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("metabench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace])
                .status();
            ok &= matches!(status, Ok(s) if s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("metabench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut o = harness::run(args.seconds, args.trace, build(&args));
    let metrics = if args.trace {
        let path = std::path::PathBuf::from(format!(
            "metabench/out/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match o.spans.write_jsonl(&path) {
            Ok(()) => println!("spans: {} kept in {}", o.spans.kept.len(), path.display()),
            Err(e) => eprintln!("metabench: could not write {}: {e}", path.display()),
        }
        Ok(per_layer(&o))
    } else {
        end_to_end(&mut o)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("metabench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &o.checks.notes {
        eprintln!("check failed: {note}");
    }
    let (attempted, failed) = (o.checks.attempted, o.checks.failed);
    println!(
        "workload {} seed {} trace {}: {} checked operations, {} failed ({:.4}%)",
        args.workload,
        args.seed,
        args.trace as u8,
        attempted,
        failed,
        div(100.0 * failed as f64, attempted as f64)
    );
    for m in &metrics {
        println!(
            "{:<45} {:>16.4} {:<6} ({})",
            m.name, m.value, m.unit, m.base
        );
    }
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
