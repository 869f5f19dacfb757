//! Consistency of the manager metrics table: after a workload that moves
//! the manager's counters, every `METRICS` row reads the same value as
//! its `meta.<name>` item (which carries the row's doc) and as its line
//! in the Prometheus exposition — or, while the row is unavailable, the
//! item reads `Unavailable` and the exposition omits it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use streammeta_core::{
    EpochConfig, EvalCtx, EventKey, FallbackPolicy, ItemDef, MetadataKey, MetadataManager,
    MetadataValue, Metric, MetricDef, NodeId, NodeRegistry, PartitionedMetadataPlane,
    PropagationMode, META_NODE, METRICS,
};
use streammeta_profiler::{manager_metric_name, Recorder};
use streammeta_time::{Clock, TimeSpan, VirtualClock};

/// Twice the value of the dependency `role`.
fn twice(ctx: &EvalCtx, role: &str) -> MetadataValue {
    let v = ctx.dep(role).as_u64();
    v.map_or(MetadataValue::Unavailable, |v| MetadataValue::U64(v * 2))
}

/// Runs the workload on one partition of a two-partition plane and
/// returns that partition's manager (with the meta node installed) and
/// the subscriptions keeping the workload's items included.
fn exercised_partition() -> (Arc<MetadataManager>, Vec<streammeta_core::Subscription>) {
    let clock = VirtualClock::shared();
    let plane = PartitionedMetadataPlane::new(clock.clone(), 2);
    let src = NodeId(1);
    let home = 1 - plane.owner_of(src);
    let mut free = (2..200).map(NodeId).filter(|n| plane.owner_of(*n) == home);
    let (dep, local) = (free.next().unwrap(), free.next().unwrap());

    let rate = Arc::new(AtomicU64::new(1));
    let owner = NodeRegistry::new(src);
    let r = rate.clone();
    owner.define(
        ItemDef::triggered("rate")
            .on_event("bump")
            .compute(move |_| MetadataValue::U64(r.load(Ordering::SeqCst)))
            .build(),
    );
    plane.attach_node(owner);
    let remote = NodeRegistry::new(dep);
    remote.define(
        ItemDef::triggered("double")
            .dep_remote("r", MetadataKey::new(src, "rate"))
            .compute(|ctx| twice(ctx, "r"))
            .build(),
    );
    plane.attach_node(remote);

    let state = Arc::new(AtomicU64::new(1));
    let reg = NodeRegistry::new(local);
    let s = state.clone();
    reg.define(
        ItemDef::triggered("c")
            .on_event("tick")
            .compute(move |_| MetadataValue::U64(s.load(Ordering::SeqCst)))
            .build(),
    );
    reg.define(
        ItemDef::triggered("twice")
            .dep_local("c")
            .compute(|ctx| twice(ctx, "c"))
            .build(),
    );
    reg.define(
        ItemDef::periodic("flaky", TimeSpan(10))
            .fallback(FallbackPolicy {
                max_retries: 1,
                backoff: TimeSpan(2),
                quarantine_after: 2,
                cool_down: TimeSpan(1000),
            })
            .compute(|_| panic!("down"))
            .build(),
    );
    plane.attach_node(reg);
    let mgr = plane.partition(home).clone();
    mgr.enable_catalog_trace(4);

    let key = |path: &str| MetadataKey::new(local, path);
    let mut subs = vec![
        mgr.subscribe(key("twice")).unwrap(),
        mgr.subscribe(key("flaky")).unwrap(),
    ];
    // A cross-partition link and one remote update applied to it.
    subs.push(plane.subscribe(MetadataKey::new(dep, "double")).unwrap());
    rate.store(2, Ordering::SeqCst);
    plane.fire_event(EventKey::new(src, "bump"));
    plane.pump();
    // A contained failure: retries, then a quarantine trip.
    clock.advance(TimeSpan(50));
    mgr.periodic().advance_to(clock.now());
    // A per-event propagation, then an epoch flush with coalescing.
    state.store(2, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(local, "tick"));
    mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
        max_batch: 100,
        max_delay: TimeSpan(u64::MAX),
    }));
    state.store(3, Ordering::SeqCst);
    mgr.fire_event(EventKey::new(local, "tick"));
    mgr.fire_event(EventKey::new(local, "tick"));
    mgr.flush_epoch();
    // A key read and a cached read.
    assert_eq!(mgr.read(&key("twice")), Ok(MetadataValue::U64(6)));
    assert_eq!(subs[0].get(), MetadataValue::U64(6));

    mgr.install_meta_node(TimeSpan(10));
    (mgr, subs)
}

/// Asserts `seen` lies between two reads of `def` taken around it.
fn assert_between(def: &MetricDef, before: Option<u64>, seen: Option<u64>, after: Option<u64>) {
    match (before, seen, after) {
        (Some(lo), Some(v), Some(hi)) => {
            assert!(lo <= v && v <= hi, "{}: {v} not in {lo}..={hi}", def.name)
        }
        (None, None, None) => {}
        other => panic!("{}: availability changed: {other:?}", def.name),
    }
}

#[test]
fn every_metric_reads_the_same_through_every_exposure() {
    let (mgr, _subs) = exercised_partition();
    // Every row but these moved (the last has no sink installed).
    let idle = [
        Metric::DeadlineMisses,
        Metric::DeadlineOverruns,
        Metric::StaleServes,
        Metric::TraceRotated,
    ];
    for def in METRICS.iter().filter(|def| !idle.contains(&def.metric)) {
        assert!(def.read(&mgr) > Some(0), "workload moves {}", def.name);
    }
    assert_eq!(mgr.metric(Metric::TraceRotated), None, "no file sink");

    let meta = mgr.registry(META_NODE).unwrap();
    let rec = Recorder::new(mgr.clone());
    for def in &METRICS {
        assert_eq!(def.metric.def().name, def.name, "rows in enum order");
        let item = meta.get(&def.item.into()).expect("meta item defined");
        assert_eq!(item.doc(), Some(def.doc), "{}", def.item);

        let sub = mgr
            .subscribe(MetadataKey::new(META_NODE, def.item))
            .unwrap();
        let before = def.read(&mgr);
        let seen = sub.get().as_u64();
        assert_between(def, before, seen, def.read(&mgr));
        drop(sub);

        let name = manager_metric_name(def);
        let before = def.read(&mgr);
        let text = rec.render_prometheus();
        let after = def.read(&mgr);
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")));
        let seen = line.map(|v| v.parse::<u64>().expect("integer sample"));
        assert_between(def, before, seen, after);
        let typed = format!("# TYPE {name} {}\n", def.kind.as_str());
        assert_eq!(text.contains(&typed), before.is_some(), "{name}");
    }
}
