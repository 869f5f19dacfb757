//! E24: partitioned-plane churn — cross-partition subscription latency,
//! propagation fan-out, and partition-kill degradation.
//!
//! The workload shards ~100k metadata item definitions over 8
//! in-process partitions behind the plane's consistent-hash router and
//! opens ~10k cross-partition subscriptions: each one a `mirror` item on
//! one partition whose `dep_remote` target lives on another, resolved
//! through the plane's proxy items and remote-subscription protocol.
//!
//! Phases:
//!  1. *Include churn*: open every cross-partition subscription,
//!     measuring per-subscription include latency (definition lookup,
//!     transitive proxy inclusion, owner-side subscribe, link set-up).
//!  2. *Propagation*: rounds of owner-side updates, pumped across the
//!     partition channels; measures update throughput and the remote
//!     fan-out (messages applied per fired source event).
//!  3. *Partition kill/revive*: every proxy homed on a live partition
//!     whose owner died must serve **fresh-or-degraded** — its last
//!     good value marked degraded, never unavailable, never silently
//!     stale — and recover after `revive` re-seeds the links.
//!  4. *Exclude churn*: drop subscriptions, measuring per-subscription
//!     exclude latency (cascade teardown and link release).
//!  5. *Traced determinism*: a small 8-partition run with every update
//!     span-sampled writes per-partition traces, merges them with
//!     `tracelint::merge_traces`, asserts rules T1–T8 clean (proxy
//!     version monotonicity across the partition boundary included) and
//!     exports `$RESULTS_DIR/e24_trace.jsonl` for offline linting.
//!
//! `E24_QUICK=1` shrinks the workload for CI smoke runs. Results go to
//! `$RESULTS_DIR/e24_partition_churn.csv` (metric,value) and
//! `$RESULTS_DIR/BENCH_e24.json`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use streammeta_analyze::tracelint;
use streammeta_core::{
    to_jsonl, EventKey, ItemDef, MetadataKey, MetadataValue, NodeId, NodeRegistry,
    PartitionedMetadataPlane, RingBufferSink, SpanSampling, Subscription,
};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

const PARTITIONS: usize = 8;
/// First node id of the dependent (mirror-hosting) nodes.
const DEP_BASE: u32 = 2_000_000;

fn quick() -> bool {
    std::env::var("E24_QUICK").is_ok_and(|v| v == "1")
}

struct Workload {
    src_nodes: usize,
    items_per_node: usize,
    subs: usize,
    rounds: usize,
    fires_per_round: usize,
}

impl Workload {
    fn new(quick: bool) -> Workload {
        if quick {
            Workload {
                src_nodes: 100,
                items_per_node: 80,
                subs: 800,
                rounds: 40,
                fires_per_round: 32,
            }
        } else {
            Workload {
                src_nodes: 1000,
                items_per_node: 100,
                subs: 10_000,
                rounds: 200,
                fires_per_round: 64,
            }
        }
    }

    fn total_items(&self) -> usize {
        self.src_nodes * self.items_per_node
    }
}

/// One open cross-partition subscription: the dependent's mirror handle
/// plus the routing facts the phases assert against.
struct Link {
    sub: Subscription,
    src_node: usize,
    src_key: MetadataKey,
    home: usize,
    owner: usize,
}

/// Builds the sharded topology: `src_nodes` source nodes, each defining
/// `items_per_node` triggered items republishing the node's counter on
/// its `bump` event.
fn build_sources(plane: &PartitionedMetadataPlane, w: &Workload) -> Vec<Arc<AtomicU64>> {
    let mut counters = Vec::with_capacity(w.src_nodes);
    for n in 0..w.src_nodes {
        let state = Arc::new(AtomicU64::new(0));
        let reg = NodeRegistry::new(NodeId(n as u32));
        for i in 0..w.items_per_node {
            let s = state.clone();
            reg.define(
                ItemDef::triggered(format!("m{i}"))
                    .on_event("bump")
                    .compute(move |_| MetadataValue::U64(s.load(Ordering::Relaxed)))
                    .build(),
            );
        }
        plane.attach_node(reg);
        counters.push(state);
    }
    counters
}

/// Picks the j-th cross-partition pair: a source item (spread over the
/// whole keyspace with a coprime stride) and a dependent node id whose
/// owner partition differs from the source's.
fn pair(plane: &PartitionedMetadataPlane, w: &Workload, j: usize) -> (usize, MetadataKey, u32) {
    let idx = (j * 9973) % w.total_items();
    let src_node = idx / w.items_per_node;
    let src_key = MetadataKey::new(
        NodeId(src_node as u32),
        format!("m{}", idx % w.items_per_node),
    );
    let owner = plane.owner_of(src_key.node);
    let mut dep = DEP_BASE + j as u32;
    while plane.owner_of(NodeId(dep)) == owner {
        dep += w.subs as u32;
    }
    (src_node, src_key, dep)
}

fn percentile(sorted: &[u128], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i] as f64 / 1000.0 // ns -> us
}

/// The traced deterministic phase: a small 8-partition plane with every
/// update span-sampled. Per-partition ring sinks are merged with
/// `merge_traces`, linted T1–T8 (version monotonicity, span causality
/// and lineage across the partition boundary), and the merged JSONL is
/// exported for the offline `tracelint` binary.
fn traced_phase(out_dir: &str) -> (usize, usize) {
    let clock = VirtualClock::shared();
    let plane = PartitionedMetadataPlane::new(clock.clone(), PARTITIONS);
    let w = Workload {
        src_nodes: 16,
        items_per_node: 1,
        subs: 16,
        rounds: 6,
        fires_per_round: 16,
    };
    let sinks: Vec<Arc<RingBufferSink>> = plane
        .partitions()
        .iter()
        .map(|m| {
            let sink = RingBufferSink::new(1 << 16);
            m.set_span_sampling(SpanSampling::Ratio(1));
            m.set_trace_sink(Some(sink.clone()));
            sink
        })
        .collect();
    let counters = build_sources(&plane, &w);
    let mut links = Vec::new();
    for j in 0..w.subs {
        let (src_node, src_key, dep) = pair(&plane, &w, j);
        let reg = NodeRegistry::new(NodeId(dep));
        let k = src_key.clone();
        reg.define(
            ItemDef::triggered("mirror")
                .dep_remote("r", k)
                .compute(|ctx| ctx.dep("r"))
                .build(),
        );
        plane.attach_node(reg);
        // Observed subscriptions make every mirror store emit a
        // span-bearing notification (exercises T8 across partitions).
        let sub = plane
            .partition(plane.owner_of(NodeId(dep)))
            .subscribe_with(MetadataKey::new(NodeId(dep), "mirror"), |_| {})
            .expect("traced subscribe");
        links.push(Link {
            home: plane.owner_of(NodeId(dep)),
            owner: plane.owner_of(src_key.node),
            sub,
            src_node,
            src_key,
        });
    }
    // Deterministic rounds: owner-side stores at t, pumped at t+1, so a
    // child span's record always follows its cross-partition parent in
    // merged (timestamp) order.
    for r in 1..=w.rounds as u64 {
        for (n, c) in counters.iter().enumerate() {
            c.store(r, Ordering::Relaxed);
            plane.fire_event(EventKey::new(NodeId(n as u32), "bump"));
        }
        clock.advance(TimeSpan(1));
        plane.tick(clock.now());
        clock.advance(TimeSpan(1));
    }
    // Kill/revive one owner partition mid-trace: degradation, retries
    // and recovery must all replay as legal T3/T4/T5 sequences.
    let killed = links[0].owner;
    plane.kill_partition(killed);
    clock.advance(TimeSpan(10));
    plane.tick(clock.now());
    plane.revive_partition(killed);
    clock.advance(TimeSpan(10));
    plane.tick(clock.now());
    drop(links);

    let per_partition: Vec<Vec<streammeta_core::TraceRecord>> =
        sinks.iter().map(|s| s.snapshot()).collect();
    let merged = tracelint::merge_traces(&per_partition);
    let violations = tracelint::lint(&merged);
    assert!(
        violations.is_empty(),
        "merged multi-partition trace violates T1-T8:\n{}",
        violations
            .iter()
            .take(20)
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let jsonl = to_jsonl(&merged);
    let path = format!("{out_dir}/e24_trace.jsonl");
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, &jsonl)) {
        println!("could not write {path} ({e})");
    }
    (merged.len(), violations.len())
}

fn main() {
    let quick = quick();
    let w = Workload::new(quick);
    println!("E24 — partitioned-plane churn over {PARTITIONS} partitions");
    println!(
        "{} items, {} cross-partition subscriptions, {} propagation rounds{}\n",
        w.total_items(),
        w.subs,
        w.rounds,
        if quick { " (quick mode)" } else { "" }
    );

    let mut csv = String::from("metric,value\n");
    let mut json = Vec::<(String, String)>::new();
    let record = |csv: &mut String, json: &mut Vec<(String, String)>, k: &str, v: String| {
        let _ = writeln!(csv, "{k},{v}");
        json.push((k.to_string(), v));
    };
    let out_dir = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".into());

    let clock = VirtualClock::shared();
    let plane = PartitionedMetadataPlane::new(clock.clone(), PARTITIONS);
    let t0 = Instant::now();
    let counters = build_sources(&plane, &w);
    let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
    println!("built {} definitions in {build_ms:.0} ms", w.total_items());

    // Phase 1 — include churn.
    let mut links: Vec<Link> = Vec::with_capacity(w.subs);
    let mut include_ns: Vec<u128> = Vec::with_capacity(w.subs);
    for j in 0..w.subs {
        let (src_node, src_key, dep) = pair(&plane, &w, j);
        let reg = NodeRegistry::new(NodeId(dep));
        let k = src_key.clone();
        reg.define(
            ItemDef::triggered("mirror")
                .dep_remote("r", k)
                .compute(|ctx| ctx.dep("r"))
                .build(),
        );
        plane.attach_node(reg);
        let t = Instant::now();
        let sub = plane
            .subscribe(MetadataKey::new(NodeId(dep), "mirror"))
            .expect("cross-partition subscribe");
        include_ns.push(t.elapsed().as_nanos());
        links.push(Link {
            home: plane.owner_of(NodeId(dep)),
            owner: plane.owner_of(src_key.node),
            sub,
            src_node,
            src_key,
        });
    }
    include_ns.sort_unstable();
    assert_eq!(plane.remote_link_count(), w.subs, "one proxy link per sub");
    println!(
        "include churn: {} links, p50 {:.1} us, p99 {:.1} us",
        w.subs,
        percentile(&include_ns, 0.50),
        percentile(&include_ns, 0.99)
    );

    // Phase 2 — propagation rounds.
    let mut node_value = vec![0u64; w.src_nodes];
    let mut applied_total = 0usize;
    let mut fired_total = 0usize;
    let t = Instant::now();
    for r in 0..w.rounds {
        for f in 0..w.fires_per_round {
            let n = (r * w.fires_per_round + f) % w.src_nodes;
            let v = node_value[n] + 1;
            node_value[n] = v;
            counters[n].store(v, Ordering::Relaxed);
            plane.fire_event(EventKey::new(NodeId(n as u32), "bump"));
            fired_total += 1;
        }
        applied_total += plane.pump();
    }
    let prop_secs = t.elapsed().as_secs_f64().max(1e-9);
    let fanout = applied_total as f64 / fired_total.max(1) as f64;
    println!(
        "propagation: {fired_total} fires, {applied_total} remote updates applied \
         (fan-out {fanout:.2}), {:.0} fires/s",
        fired_total as f64 / prop_secs
    );
    // Freshness spot-check: every mirror whose source node was updated
    // serves the owner's current value through its proxy.
    let mut checked = 0;
    for l in links.iter() {
        if node_value[l.src_node] == 0 || checked >= 200 {
            continue;
        }
        assert_eq!(
            l.sub.get(),
            MetadataValue::U64(node_value[l.src_node]),
            "mirror of {} out of date after pump",
            l.src_key
        );
        checked += 1;
    }
    assert!(checked > 0, "propagation touched no subscribed mirror");

    // Phase 3 — partition kill: fresh-or-degraded reads only.
    let killed = links[0].owner;
    let pre_kill = node_value.clone();
    plane.kill_partition(killed);
    // Owner-side updates during the outage are lost in transit.
    for l in links.iter().take(64) {
        if l.owner == killed {
            let v = pre_kill[l.src_node] + 1;
            counters[l.src_node].store(v, Ordering::Relaxed);
            plane.fire_event(EventKey::new(NodeId(l.src_node as u32), "bump"));
        }
    }
    plane.pump();
    let (mut degraded_reads, mut fresh_reads) = (0u64, 0u64);
    for l in links.iter() {
        let v = plane
            .partition(l.home)
            .read_versioned(&l.src_key)
            .expect("proxy read during outage");
        assert!(
            v.value.is_available(),
            "read of {} must stay fresh-or-degraded, got unavailable",
            l.src_key
        );
        if l.owner == killed {
            assert!(
                v.degraded,
                "dead-owner proxy {} must be degraded",
                l.src_key
            );
            assert_eq!(
                v.value,
                MetadataValue::U64(pre_kill[l.src_node]),
                "degraded read must serve the last good value"
            );
            degraded_reads += 1;
        } else {
            assert!(!v.degraded, "live-owner proxy {} degraded", l.src_key);
            fresh_reads += 1;
        }
    }
    plane.revive_partition(killed);
    plane.pump();
    for l in links.iter().take(64) {
        if l.owner == killed {
            let v = plane
                .partition(l.home)
                .read_versioned(&l.src_key)
                .expect("proxy read after revive");
            assert!(!v.degraded, "revive must recover {}", l.src_key);
        }
    }
    println!(
        "partition kill: {degraded_reads} degraded + {fresh_reads} fresh reads \
         (all available), revive recovered"
    );
    assert!(degraded_reads > 0, "the killed partition owned no links");

    // Phase 4 — exclude churn.
    let half = links.len() / 2;
    let mut exclude_ns: Vec<u128> = Vec::with_capacity(half);
    for l in links.drain(..half) {
        let t = Instant::now();
        drop(l.sub);
        exclude_ns.push(t.elapsed().as_nanos());
    }
    exclude_ns.sort_unstable();
    assert_eq!(
        plane.remote_link_count(),
        w.subs - half,
        "each exclusion released its link"
    );
    println!(
        "exclude churn: {half} drops, p50 {:.1} us, p99 {:.1} us",
        percentile(&exclude_ns, 0.50),
        percentile(&exclude_ns, 0.99)
    );
    drop(links);
    assert_eq!(plane.remote_link_count(), 0);

    // Phase 5 — traced determinism + offline lint export.
    let (trace_records, trace_violations) = traced_phase(&out_dir);
    println!(
        "traced phase: {trace_records} merged records, {trace_violations} violations \
         (T1-T8 clean), JSONL at {out_dir}/e24_trace.jsonl"
    );

    record(&mut csv, &mut json, "partitions", PARTITIONS.to_string());
    record(
        &mut csv,
        &mut json,
        "items_defined",
        w.total_items().to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "cross_partition_subscriptions",
        w.subs.to_string(),
    );
    record(&mut csv, &mut json, "build_ms", format!("{build_ms:.1}"));
    for (name, ns) in [("include", &include_ns), ("exclude", &exclude_ns)] {
        for (tag, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            record(
                &mut csv,
                &mut json,
                &format!("{name}_latency_us_{tag}"),
                format!("{:.2}", percentile(ns, p)),
            );
        }
    }
    record(
        &mut csv,
        &mut json,
        "propagation_fires",
        fired_total.to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "remote_updates_applied",
        applied_total.to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "propagation_fanout_avg",
        format!("{fanout:.3}"),
    );
    record(
        &mut csv,
        &mut json,
        "propagation_fires_per_sec",
        format!("{:.0}", fired_total as f64 / prop_secs),
    );
    record(
        &mut csv,
        &mut json,
        "kill_degraded_reads",
        degraded_reads.to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "kill_fresh_reads",
        fresh_reads.to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "kill_fresh_or_degraded",
        "1".to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "trace_records",
        trace_records.to_string(),
    );
    record(
        &mut csv,
        &mut json,
        "trace_violations",
        trace_violations.to_string(),
    );

    let csv_path = format!("{out_dir}/e24_partition_churn.csv");
    let mut json_text = String::from("{\n");
    for (i, (k, v)) in json.iter().enumerate() {
        let sep = if i + 1 == json.len() { "" } else { "," };
        let _ = writeln!(json_text, "  \"{k}\": {v}{sep}");
    }
    json_text.push_str("}\n");
    let json_path = format!("{out_dir}/BENCH_e24.json");
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&csv_path, &csv))
        .and_then(|()| std::fs::write(&json_path, &json_text))
    {
        Ok(()) => println!("\nCSV written to {csv_path}\nJSON written to {json_path}"),
        Err(e) => println!("could not write {out_dir}/ ({e}); CSV follows:\n{csv}"),
    }
    println!(
        "\nE24 invariants held: {} cross-partition links churned, kill-phase reads all \
         fresh-or-degraded, merged trace T1-T8 clean.",
        w.subs
    );
}
