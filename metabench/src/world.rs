//! Builds the framework's item definitions from a [`Dag`] and watches
//! what the framework does with them: the benchmark's compute closures
//! count recomputes (and flag an item recomputed twice in one round) and
//! its observers check that versions strictly increase.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use streammeta_core::{
    DepTarget, EventKey, ItemDef, MetadataKey, MetadataValue, NodeId, NodeRegistry, VersionedValue,
};

use crate::model::{raw_value, Dag, Def};
use crate::spans;

pub const EVENT: &str = "tick";

/// Counts shared by every compute closure and observer of one build.
pub struct Probe {
    pub computes: AtomicU64,
    pub deliveries: AtomicU64,
    /// Items recomputed twice within one round.
    pub repeats: AtomicU64,
    /// The current round (source update or epoch); 0 between rounds.
    round: AtomicU64,
    last_round: Vec<AtomicU64>,
}

impl Probe {
    pub fn new(items: usize) -> Arc<Probe> {
        Arc::new(Probe {
            computes: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            repeats: AtomicU64::new(0),
            round: AtomicU64::new(0),
            last_round: (0..items).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Starts round `round`; [`Self::end_round`] ends it, so that
    /// inclusion-time computes outside any update are not counted as
    /// repeats.
    pub fn start_round(&self, round: u64) {
        self.round.store(round, Relaxed);
    }

    pub fn end_round(&self) {
        self.round.store(0, Relaxed);
    }

    fn computed(&self, item: usize) {
        self.computes.fetch_add(1, Relaxed);
        let round = self.round.load(Relaxed);
        if round != 0 && self.last_round[item].swap(round, Relaxed) == round {
            self.repeats.fetch_add(1, Relaxed);
        }
    }
}

/// Per-source update counters, read by the raw items' computes.
pub type Sources = Arc<Vec<AtomicU64>>;

pub fn sources(n: usize) -> Sources {
    Arc::new((0..n).map(|_| AtomicU64::new(0)).collect())
}

pub fn snapshot(c: &Sources) -> Vec<u64> {
    c.iter().map(|x| x.load(Relaxed)).collect()
}

pub fn key(dag: &Dag, i: usize) -> MetadataKey {
    let item = &dag.items[i];
    MetadataKey::new(NodeId(item.node), item.name.as_str())
}

pub fn event(dag: &Dag, source: usize) -> EventKey {
    EventKey::new(NodeId(dag.source_nodes[source]), EVENT)
}

/// One node registry per node of `dag`, in node order.
pub fn registries(dag: &Dag, sources: &Sources, probe: &Arc<Probe>) -> Vec<Arc<NodeRegistry>> {
    let mut by_node: BTreeMap<u32, Arc<NodeRegistry>> = BTreeMap::new();
    for (i, item) in dag.items.iter().enumerate() {
        let probe = probe.clone();
        let def = match &item.def {
            Def::Raw { source, offset } => {
                let (sources, source, offset) = (sources.clone(), *source, *offset);
                ItemDef::triggered(item.name.as_str())
                    .on_event(EVENT)
                    .compute(move |_| {
                        let _g = spans::enter("handler.compute");
                        probe.computed(i);
                        MetadataValue::U64(raw_value(sources[source].load(Relaxed), offset))
                    })
            }
            Def::Sum { deps, plus } => {
                let mut b = ItemDef::triggered(item.name.as_str());
                let roles: Vec<String> = (0..deps.len()).map(|k| format!("d{k}")).collect();
                for (role, &d) in roles.iter().zip(deps) {
                    let dep = &dag.items[d];
                    let target = if dep.node == item.node {
                        DepTarget::Local(dep.name.as_str().into())
                    } else {
                        DepTarget::Remote(key(dag, d))
                    };
                    b = b.dep(role, target);
                }
                let plus = *plus;
                b.compute(move |ctx| {
                    let _g = spans::enter("handler.compute");
                    probe.computed(i);
                    let mut sum = plus;
                    for role in &roles {
                        let v = {
                            let _d = spans::enter("manager.dep");
                            ctx.dep(role)
                        };
                        match v.as_u64() {
                            Some(x) => sum += x,
                            None => return MetadataValue::Unavailable,
                        }
                    }
                    MetadataValue::U64(sum)
                })
            }
        };
        by_node
            .entry(item.node)
            .or_insert_with(|| NodeRegistry::new(NodeId(item.node)))
            .define(def.build());
    }
    by_node.into_values().collect()
}

/// What one observer has seen.
#[derive(Default)]
pub struct Seen {
    pub version: AtomicU64,
    pub value: AtomicU64,
    pub deliveries: AtomicU64,
    /// Deliveries whose version did not exceed the previous one.
    pub regressions: AtomicU64,
}

/// An observer callback recording into `seen`.
pub fn observer(
    seen: &Arc<Seen>,
    probe: &Arc<Probe>,
) -> impl Fn(&VersionedValue) + Send + Sync + 'static {
    let (seen, probe) = (seen.clone(), probe.clone());
    move |v| {
        let _g = spans::enter("handler.observer");
        probe.deliveries.fetch_add(1, Relaxed);
        if seen.deliveries.fetch_add(1, Relaxed) > 0 && v.version <= seen.version.load(Relaxed) {
            seen.regressions.fetch_add(1, Relaxed);
        }
        seen.version.store(v.version, Relaxed);
        seen.value
            .store(v.value.as_u64().unwrap_or(u64::MAX), Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::five;
    use streammeta_core::MetadataManager;
    use streammeta_time::VirtualClock;

    /// The framework, built from the five-item DAG, agrees with the model:
    /// subscribing `d` includes only `b` and `d`, and a tick recomputes
    /// exactly those and notifies `d`'s observer with the model's value.
    #[test]
    fn framework_matches_the_five_item_model() {
        let dag = five();
        let sources = sources(1);
        let probe = Probe::new(dag.items.len());
        let manager = MetadataManager::new(VirtualClock::shared());
        for reg in registries(&dag, &sources, &probe) {
            manager.attach_node(reg);
        }
        let seen = Arc::new(Seen::default());
        let sub = manager
            .subscribe_with(key(&dag, 3), observer(&seen, &probe))
            .expect("subscribe d");
        let included = dag.closure([3]);
        let keys: Vec<MetadataKey> = (0..5)
            .filter(|&i| included[i])
            .map(|i| key(&dag, i))
            .collect();
        assert_eq!(manager.included_keys(), keys);

        sources[0].store(3, Relaxed);
        probe.start_round(1);
        let before = probe.computes.load(Relaxed);
        manager.fire_event(event(&dag, 0));
        probe.end_round();
        let reach = dag.reach(0, &included).iter().filter(|&&r| r).count() as u64;
        assert_eq!(probe.computes.load(Relaxed) - before, reach);
        assert_eq!(reach, 2);
        let want = dag.values(&[3])[3];
        assert_eq!(want, 3 * crate::model::RAW_STRIDE + 3);
        assert_eq!(seen.value.load(Relaxed), want);
        assert_eq!(sub.get().as_u64(), Some(want));
        assert_eq!(seen.regressions.load(Relaxed), 0);
        assert_eq!(probe.repeats.load(Relaxed), 0);
        drop(sub);
        assert_eq!(manager.handler_count(), 0);
    }
}
