//! Reflexive meta-metadata: the manager's own runtime statistics exposed
//! as ordinary metadata items.
//!
//! The paper motivates runtime metadata with "analysis gives insight into
//! system behavior" — and the metadata framework itself is a system worth
//! observing. [`METRICS`] is the one declaration of the manager's
//! metrics: each row names a metric, documents it, gives its kind and
//! says how its value is read. Every view of them is derived from that
//! table: [`MetadataManager::install_meta_node`] attaches a synthetic
//! node ([`META_NODE`]) with one `meta.<name>` item per row,
//! [`ManagerStats`] carries the rows marked `stats`, and the profiler's
//! Prometheus exposition renders every row. Consumers — a profiler's
//! `Recorder`, a load shedder, an optimizer — subscribe to the items
//! through the normal pub-sub API, with the usual tailored-provision
//! guarantee: nothing is maintained until subscribed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use streammeta_time::TimeSpan;

use crate::item::ItemDef;
use crate::manager::MetadataManager;
use crate::registry::NodeRegistry;
use crate::{MetadataValue, NodeId};
use MetricSource::{Derived, Slot};

/// The synthetic query-graph node owning the manager's self-describing
/// metadata items. Reserved; real graph nodes must not use this id.
pub const META_NODE: NodeId = NodeId(u32::MAX);

/// Whether a metric only grows or moves both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonic total.
    Counter,
    /// A current level.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// How a metric's value is read.
#[derive(Clone, Copy)]
enum MetricSource {
    /// The metric's relaxed `AtomicU64` slot in the manager.
    Slot,
    /// A read of other state; `None` means `Unavailable`.
    Derived(fn(&MetadataManager) -> Option<u64>),
}

/// One row of [`METRICS`].
pub struct MetricDef {
    /// The metric this row declares.
    pub metric: Metric,
    /// Bare name: the [`ManagerStats`] field and the suffix of the item
    /// and Prometheus names.
    pub name: &'static str,
    /// The [`META_NODE`] item, `meta.<name>`.
    pub item: &'static str,
    /// One-line description (the item's doc).
    pub doc: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    source: MetricSource,
}

impl MetricDef {
    /// The current value; `None` while the metric is unavailable. Slot
    /// rows take no lock.
    pub fn read(&self, mgr: &MetadataManager) -> Option<u64> {
        match self.source {
            Slot => Some(mgr.slot(self.metric).load(Ordering::Relaxed)),
            Derived(read) => read(mgr),
        }
    }
}

impl Metric {
    /// The metric's row in [`METRICS`].
    pub fn def(self) -> &'static MetricDef {
        &METRICS[self as usize]
    }
}

/// Declares the [`Metric`] enum, the [`METRICS`] table, [`ManagerStats`]
/// and [`MetadataManager::stats`] from one list of rows:
/// `Variant name: Kind, source, "doc" [, stats type];`.
macro_rules! metrics {
    ($($variant:ident $name:ident: $kind:ident, $source:expr, $doc:literal
        $(, stats $ty:ty)?;)*) => {
        /// A manager metric; names its row in [`METRICS`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Metric {
            $(#[doc = $doc] $variant,)*
        }

        /// Every manager metric, in declaration order.
        pub static METRICS: [MetricDef; [$(Metric::$variant),*].len()] = [$(MetricDef {
            metric: Metric::$variant,
            name: stringify!($name),
            item: concat!("meta.", stringify!($name)),
            doc: $doc,
            kind: MetricKind::$kind,
            source: $source,
        }),*];

        /// Aggregate counters of the manager: the [`METRICS`] rows used
        /// by the scalability experiments.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ManagerStats {
            $($(#[doc = $doc] pub $name: $ty,)?)*
        }

        impl MetadataManager {
            /// Aggregate statistics (each field one [`METRICS`] read).
            pub fn stats(&self) -> ManagerStats {
                ManagerStats {
                    $($($name: self.metric(Metric::$variant).unwrap_or_default() as $ty,)?)*
                }
            }
        }
    };
}

metrics! {
    Handlers handlers: Gauge, Derived(|m| Some(m.handler_count() as u64)),
        "live metadata handlers", stats usize;
    Subscriptions subscriptions: Gauge, Derived(|m| Some(m.subscription_total())),
        "sum of all subscription counts", stats usize;
    Computes computes: Counter, Slot, "total compute-function evaluations", stats u64;
    Updates updates: Counter, Slot, "total stored value changes", stats u64;
    Accesses accesses: Counter, Derived(|m| Some(m.access_total())),
        "total consumer accesses", stats u64;
    Propagations propagations: Counter, Slot, "total trigger-propagation rounds", stats u64;
    PropagationDepth propagation_depth: Gauge, Derived(|m| Some(m.last_propagation_depth())),
        "high-water BFS depth of recent propagation rounds";
    ComputeFailures compute_failures: Counter, Slot,
        "contained compute-function panics", stats u64;
    DeadlineMisses deadline_misses: Counter, Slot,
        "periodic refreshes that ran a full window late", stats u64;
    FastReads fast_reads: Counter, Derived(|m| Some(m.fast_read_total())),
        "reads served through cached subscription handlers (no manager lock)", stats u64;
    ShardReads shard_reads: Counter, Slot,
        "key-based handler lookups served by the sharded index", stats u64;
    DeadlineOverruns deadline_overruns: Counter, Slot,
        "evaluations that overran their declared compute deadline", stats u64;
    Retries retries: Counter, Slot,
        "backoff retries scheduled after failed evaluations", stats u64;
    QuarantineTrips quarantine_trips: Counter, Slot,
        "times the quarantine circuit breaker tripped", stats u64;
    Quarantined quarantined: Gauge, Derived(|m| Some(m.quarantined_count() as u64)),
        "currently quarantined metadata items";
    StaleServes stale_serves: Counter, Slot,
        "reads served a degraded (stale last-good) value", stats u64;
    Epochs epochs: Counter, Slot,
        "epoch flushes performed in epoch propagation mode", stats u64;
    CoalescedUpdates coalesced_updates: Counter, Slot,
        "source updates coalesced into an already-pending epoch", stats u64;
    // Ring evictions lose records; file rotations only retire them to
    // the rotated file, so the two are counted apart.
    TraceDropped trace_dropped: Counter, Derived(|m| m.catalog_trace().map(|t| t.dropped())),
        "records evicted from the catalog trace ring buffer";
    TraceRotated trace_rotated: Counter, Derived(|m| m.file_trace().map(|t| t.rotations())),
        "size-limit rotations of the registered trace file sink";
    SpansDropped spans_dropped: Counter, Derived(|m| m.catalog_spans().map(|s| s.dropped())),
        "finished spans evicted from the sys.spans ring";
    RemoteSubscriptions remote_subscriptions: Gauge, Slot,
        "live cross-partition proxy links homed on this partition";
    RemoteUpdates remote_updates: Counter, Slot,
        "cross-partition update messages applied to local proxies";
}

impl MetadataManager {
    /// The current value of `metric`; `None` while it is unavailable.
    pub fn metric(&self, metric: Metric) -> Option<u64> {
        metric.def().read(self)
    }

    /// Attaches the reflexive meta node and returns its registry.
    ///
    /// Every [`METRICS`] row becomes an on-demand `meta.<name>` item
    /// reading the row; `meta.computes_rate` adds a periodic rate
    /// (computes per time unit) over `rate_window`. Installation defines
    /// items only — no handler exists and nothing is computed until
    /// something subscribes.
    pub fn install_meta_node(self: &Arc<Self>, rate_window: TimeSpan) -> Arc<NodeRegistry> {
        let reg = NodeRegistry::new(META_NODE);
        for def in &METRICS {
            let weak = self.weak_self();
            let read = move || weak.upgrade().and_then(|mgr| def.read(&mgr));
            reg.define(
                ItemDef::on_demand(def.item)
                    .doc(def.doc)
                    .compute(move |_| read().map_or(MetadataValue::Unavailable, MetadataValue::U64))
                    .build(),
            );
        }
        let weak = self.weak_self();
        let last = Mutex::new(self.metric(Metric::Computes).unwrap_or_default());
        reg.define(
            ItemDef::periodic("meta.computes_rate", rate_window)
                .doc("compute evaluations per time unit, per window")
                .compute(move |ctx| {
                    let Some(mgr) = weak.upgrade() else {
                        return MetadataValue::Unavailable;
                    };
                    // Consume the delta on every evaluation, so the first
                    // real window starts clean after the windowless one.
                    let now = mgr.metric(Metric::Computes).unwrap_or_default();
                    let delta = now.saturating_sub(std::mem::replace(&mut *last.lock(), now));
                    match ctx.window() {
                        Some(w) if !w.is_zero() => MetadataValue::F64(delta as f64 / w.as_f64()),
                        _ => MetadataValue::Unavailable,
                    }
                })
                .build(),
        );
        self.attach_node(reg.clone());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItemDef, MetadataKey};
    use streammeta_time::{Clock, TimeSpan, VirtualClock};

    fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
        let clock = VirtualClock::shared();
        let mgr = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(0));
        reg.define(
            ItemDef::on_demand("x")
                .compute(|_| MetadataValue::U64(7))
                .build(),
        );
        mgr.attach_node(reg);
        mgr.install_meta_node(TimeSpan(10));
        (clock, mgr)
    }

    #[test]
    fn install_defines_without_computing() {
        let (_clock, mgr) = setup();
        assert!(mgr.registry(META_NODE).is_some());
        assert_eq!(mgr.handler_count(), 0);
        assert_eq!(mgr.stats().computes, 0);
    }

    #[test]
    fn meta_handlers_counts_itself() {
        let (_clock, mgr) = setup();
        let handlers = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.handlers"))
            .unwrap();
        // The meta item's own handler is part of the count it reports.
        assert_eq!(handlers.get().as_u64(), Some(1));
        let _x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        assert_eq!(handlers.get().as_u64(), Some(2));
    }

    #[test]
    fn computes_rate_measures_manager_activity() {
        let (clock, mgr) = setup();
        let rate = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.computes_rate"))
            .unwrap();
        let x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        assert!(!rate.get().is_available());
        for _ in 0..20 {
            x.get(); // one on-demand compute each
        }
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
        // 20 accesses of `x` in a 10-unit window, plus the boundary
        // evaluation of the rate item itself: (20 + 1) / 10.
        assert_eq!(rate.get_f64(), Some(2.1));
    }

    #[test]
    fn trace_eviction_accounting_separates_drops_from_rotations() {
        let (_clock, mgr) = setup();
        let dropped = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.trace_dropped"))
            .unwrap();
        let rotated = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.trace_rotated"))
            .unwrap();
        // Neither sink installed yet.
        assert!(!dropped.get().is_available());
        assert!(!rotated.get().is_available());
        // A 2-record ring: the third record evicts one, rotations stay 0.
        mgr.enable_catalog_trace(2);
        let x = mgr.subscribe(MetadataKey::new(NodeId(0), "x")).unwrap();
        x.get();
        drop(x);
        assert!(dropped.get().as_u64().unwrap() > 0);
        assert!(!rotated.get().is_available());
        // A roomy file sink: rotations stay 0, and ring drops are not
        // double-counted into it.
        let dir = std::env::temp_dir().join(format!(
            "streammeta-meta-rot-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let file = crate::trace::RotatingFileSink::create(dir.join("t.jsonl"), 1 << 20).unwrap();
        mgr.set_file_trace(Some(file));
        assert_eq!(rotated.get().as_u64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_counters_track_failures_and_misses() {
        let (clock, mgr) = setup();
        let reg = mgr.registry(NodeId(0)).unwrap();
        reg.define(
            ItemDef::on_demand("boom")
                .compute(|_| panic!("intentional"))
                .build(),
        );
        let failures = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.compute_failures"))
            .unwrap();
        let misses = mgr
            .subscribe(MetadataKey::new(META_NODE, "meta.deadline_misses"))
            .unwrap();
        assert_eq!(failures.get().as_u64(), Some(0));
        let boom = mgr.subscribe(MetadataKey::new(NodeId(0), "boom")).unwrap();
        assert_eq!(boom.get(), MetadataValue::Unavailable);
        assert_eq!(failures.get().as_u64(), Some(1));

        assert_eq!(misses.get().as_u64(), Some(0));
        reg.define(
            ItemDef::periodic("tick", TimeSpan(5))
                .compute(|ctx| MetadataValue::U64(ctx.now().units()))
                .build(),
        );
        let _tick = mgr.subscribe(MetadataKey::new(NodeId(0), "tick")).unwrap();
        // Jump four windows at once: the catch-up firings at t=5,10,15 all
        // complete a full window late; the one at t=20 is on time.
        clock.advance(TimeSpan(20));
        mgr.periodic().advance_to(clock.now());
        assert_eq!(misses.get().as_u64(), Some(3));
    }
}
