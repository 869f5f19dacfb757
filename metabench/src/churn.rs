//! `churn`: subscribe and unsubscribe against a bounded live set over a
//! 100k-item catalog, with reads, occasional source updates and
//! `sys.handlers` queries beside them, and the operator's observability
//! (catalog trace ring, latency profiling) left on.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use streammeta_core::{MetadataKey, MetadataManager, RingBufferSink, Subscription};
use streammeta_cql::{attach_system, Catalog};
use streammeta_time::VirtualClock;

use crate::harness::{self, ns, Build, Checks, Counters, E2e, Workload};
use crate::model::{churn_dag, raw_value, Dag, Def, CHURN_NODES, CHURN_PER_NODE};
use crate::reads;
use crate::rng::{Rng, Zipf};
use crate::spans;
use crate::world::{self, Probe, Seen};

/// The live set is kept within `LIVE ± LIVE_BAND` subscriptions.
const LIVE: usize = 2000;
const LIVE_BAND: usize = 200;
/// Reads per operation, half by handle and half by key.
const READS_PER_OP: usize = 16;
/// A source update every `FIRE_EVERY` operations, a `sys.handlers`
/// query every `QUERY_EVERY`.
const FIRE_EVERY: u64 = 4;
const QUERY_EVERY: u64 = 2048;
const TRACE_RING: usize = 4096;
const NODE_SKEW: f64 = 1.0;

struct Live {
    item: usize,
    sub: Subscription,
    seen: Arc<Seen>,
}

pub struct Churn {
    dag: Dag,
    keys: Vec<MetadataKey>,
    dependents: Vec<Vec<usize>>,
    rng: Rng,
    zipf: Zipf,
    node_by_rank: Vec<usize>,
    manager: Arc<MetadataManager>,
    ring: Arc<RingBufferSink>,
    catalog: Catalog,
    sources: world::Sources,
    probe: Arc<Probe>,
    live: Vec<Live>,
    /// Model inclusion: live subscriptions plus included dependents per
    /// item, and live subscriptions per item.
    holders: Vec<u32>,
    subscribed: Vec<u32>,
    included: u64,
    baseline: usize,
    ops: u64,
    round: u64,
    /// Scratch for the per-update reach walk.
    mark: Vec<u64>,
}

pub fn build(seed: u64, checks: &mut Checks) -> Build {
    let mut rng = Rng::new(seed);
    let dag = churn_dag(&mut rng);
    let keys: Vec<MetadataKey> = (0..dag.items.len()).map(|i| world::key(&dag, i)).collect();
    let mut dependents = vec![Vec::new(); dag.items.len()];
    for i in 0..dag.items.len() {
        for &d in dag.deps(i) {
            dependents[d].push(i);
        }
    }
    let node_by_rank = rng.permutation(CHURN_NODES);
    let sources = world::sources(CHURN_NODES);
    let probe = Probe::new(dag.items.len());
    let n = dag.items.len();

    let start = Instant::now();
    let manager = MetadataManager::new(VirtualClock::shared());
    let ring = manager.enable_catalog_trace(TRACE_RING);
    manager.set_latency_profiling(true);
    let baseline = manager.handler_count();
    for reg in world::registries(&dag, &sources, &probe) {
        manager.attach_node(reg);
    }
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, manager.clone());
    let mut w = Churn {
        zipf: Zipf::new(CHURN_NODES, NODE_SKEW),
        dag,
        keys,
        dependents,
        rng,
        node_by_rank,
        manager,
        ring,
        catalog,
        sources,
        probe,
        live: Vec::with_capacity(LIVE + LIVE_BAND + 1),
        holders: vec![0; n],
        subscribed: vec![0; n],
        included: 0,
        baseline,
        ops: 0,
        round: 0,
        mark: vec![0; n],
    };
    for _ in 0..LIVE {
        w.subscribe(&mut E2e::default(), checks);
    }
    let secs = start.elapsed().as_secs_f64();
    (Box::new(w), secs)
}

impl Churn {
    fn include(&mut self, i: usize) {
        self.holders[i] += 1;
        if self.holders[i] == 1 {
            self.included += 1;
            for k in 0..self.dag.deps(i).len() {
                self.include(self.dag.deps(i)[k]);
            }
        }
    }

    fn exclude(&mut self, i: usize) {
        self.holders[i] -= 1;
        if self.holders[i] == 0 {
            self.included -= 1;
            for k in 0..self.dag.deps(i).len() {
                self.exclude(self.dag.deps(i)[k]);
            }
        }
    }

    /// The reference value of item `i` from the source counters.
    fn expect(&self, i: usize) -> u64 {
        match &self.dag.items[i].def {
            Def::Raw { source, offset } => raw_value(self.sources[*source].load(Relaxed), *offset),
            Def::Sum { deps, plus } => deps.iter().map(|&d| self.expect(d)).sum::<u64>() + plus,
        }
    }

    fn subscribe(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let node = self.node_by_rank[self.zipf.sample(&mut self.rng)];
        let item = node * CHURN_PER_NODE + self.rng.below(CHURN_PER_NODE);
        let seen = Arc::new(Seen::default());
        let observer = world::observer(&seen, &self.probe);
        let traced = spans::enabled();
        let h0 = if traced {
            self.manager.handler_count()
        } else {
            0
        };
        let t = Instant::now();
        let sub = {
            let _g = spans::enter("inclusion.subscribe");
            self.manager
                .subscribe_with(self.keys[item].clone(), observer)
        };
        e2e.subscribe_ns.push(ns(t));
        if traced {
            harness::subscribed(h0, self.manager.handler_count());
        }
        match sub {
            Ok(sub) => {
                let want = self.expect(item);
                let got = seen.value.load(Relaxed);
                checks.check(got == want, || {
                    format!(
                        "subscribe {}: snapshot {got}, expected {want}",
                        self.keys[item]
                    )
                });
                self.include(item);
                self.subscribed[item] += 1;
                self.live.push(Live { item, sub, seen });
            }
            Err(e) => checks.check(false, || format!("subscribe {}: {e}", self.keys[item])),
        }
    }

    fn unsubscribe(&mut self, e2e: &mut E2e) {
        let Live { item, sub, .. } = self.live.swap_remove(self.rng.below(self.live.len()));
        let traced = spans::enabled();
        let h0 = if traced {
            self.manager.handler_count()
        } else {
            0
        };
        let t = Instant::now();
        {
            let _g = spans::enter("inclusion.unsubscribe");
            drop(sub);
        }
        e2e.unsubscribe_ns.push(ns(t));
        if traced {
            harness::unsubscribed(h0, self.manager.handler_count());
        }
        self.subscribed[item] -= 1;
        self.exclude(item);
    }

    fn reads(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let mut picks = [0usize; READS_PER_OP];
        for p in &mut picks {
            *p = self.rng.below(self.live.len());
        }
        let mut got = [(); READS_PER_OP].map(|_| None);
        let t = Instant::now();
        for (k, &p) in picks.iter().enumerate() {
            let l = &self.live[p];
            got[k] = Some(if k % 2 == 0 {
                let _g = spans::enter("subscription.get");
                Ok(l.sub.get())
            } else {
                let _g = spans::enter("shards.read");
                self.manager.read(&self.keys[l.item])
            });
        }
        e2e.read_ns += ns(t);
        e2e.reads += READS_PER_OP as u64;
        for (k, &p) in picks.iter().enumerate() {
            let item = self.live[p].item;
            let got = got[k].as_ref().expect("every pick was read");
            reads::check_read(checks, &self.keys[item], got.as_ref(), self.expect(item));
        }
    }

    /// Fires the source of a live subscription; every included item the
    /// update reaches must recompute once and every live observer on
    /// them be notified once.
    fn fire(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let item = self.live[self.rng.below(self.live.len())].item;
        let source = self.dag.items[item].node as usize;
        self.sources[source].fetch_add(1, Relaxed);
        self.round += 1;
        self.probe.start_round(self.round);
        spans::set_update(self.round);
        let (c0, d0) = (
            self.probe.computes.load(Relaxed),
            self.probe.deliveries.load(Relaxed),
        );
        let event = world::event(&self.dag, source);
        let t = Instant::now();
        {
            let _g = spans::enter("manager.fire_event");
            self.manager.fire_event(event);
        }
        e2e.notify_ns.push(ns(t));
        self.probe.end_round();
        e2e.updates += 1;
        let (want_c, want_d) = self.reach(source * CHURN_PER_NODE);
        let computes = self.probe.computes.load(Relaxed) - c0;
        let deliveries = self.probe.deliveries.load(Relaxed) - d0;
        checks.check(computes == want_c && deliveries == want_d, || {
            format!(
                "update of node {source}: {computes} recomputes / {deliveries} deliveries, \
                 expected {want_c} / {want_d}"
            )
        });
    }

    /// Included items downstream of `root` (inclusive), and the live
    /// subscriptions on them.
    fn reach(&mut self, root: usize) -> (u64, u64) {
        let stamp = self.round;
        let (mut items, mut subs) = (0, 0);
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if self.holders[i] == 0 || self.mark[i] == stamp {
                continue;
            }
            self.mark[i] = stamp;
            items += 1;
            subs += self.subscribed[i] as u64;
            stack.extend_from_slice(&self.dependents[i]);
        }
        (items, subs)
    }
}

impl Workload for Churn {
    fn step(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        self.ops += 1;
        let n = self.live.len();
        let grow = n < LIVE - LIVE_BAND || (n <= LIVE + LIVE_BAND && self.rng.below(2) == 0);
        if grow {
            self.subscribe(e2e, checks);
        } else {
            self.unsubscribe(e2e);
        }
        self.reads(e2e, checks);
        if self.ops.is_multiple_of(FIRE_EVERY) {
            self.fire(e2e, checks);
        }
        if self.ops.is_multiple_of(QUERY_EVERY) {
            reads::catalog_query(&self.catalog, &self.manager, self.included, e2e, checks);
        }
    }

    /// The loop itself subscribes, reads and queries; this only records
    /// the chunk's read rate.
    fn between(&mut self, e2e: &mut E2e, _checks: &mut Checks) {
        if e2e.read_ns > 0 {
            e2e.read_rates
                .push(e2e.reads as f64 / (e2e.read_ns as f64 / 1e9));
        }
    }

    fn check(&mut self, checks: &mut Checks) {
        let closure = self.dag.closure(self.live.iter().map(|l| l.item));
        let want: Vec<&MetadataKey> = (0..closure.len())
            .filter(|&i| closure[i])
            .map(|i| &self.keys[i])
            .collect();
        let mut want: Vec<MetadataKey> = want.into_iter().cloned().collect();
        want.sort();
        let got = self.manager.included_keys();
        checks.check(got == want && want.len() as u64 == self.included, || {
            format!(
                "included set: {} keys, closure of the live subscriptions: {} (model {})",
                got.len(),
                want.len(),
                self.included
            )
        });
        for l in &self.live {
            let (got, want) = (l.seen.value.load(Relaxed), self.expect(l.item));
            let regressions = l.seen.regressions.load(Relaxed);
            checks.check(got == want && regressions == 0, || {
                format!(
                    "{}: observed {got} (expected {want}), {regressions} version regressions",
                    self.keys[l.item]
                )
            });
        }
        let repeats = self.probe.repeats.swap(0, Relaxed);
        checks.check(repeats == 0, || {
            format!("{repeats} items recomputed more than once in one update")
        });
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_stats(&self.manager.stats(), self.manager.shard_read_count());
        c.trace_dropped = self.ring.dropped();
        c.trace_records = self.ring.len() as u64 + c.trace_dropped;
        c
    }

    fn teardown(&mut self, _e2e: &mut E2e, checks: &mut Checks) {
        while !self.live.is_empty() {
            self.unsubscribe(&mut E2e::default());
        }
        let left = self.manager.handler_count();
        checks.check(left == self.baseline && self.included == 0, || {
            format!(
                "{left} handlers left after teardown, baseline {}",
                self.baseline
            )
        });
    }
}
