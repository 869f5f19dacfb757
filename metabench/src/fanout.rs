//! `fanout` and `burst`: source updates propagated over a
//! query-graph-shaped DAG, per event or through the epoch queue.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use streammeta_core::{EpochConfig, MetadataKey, MetadataManager, PropagationMode, Subscription};
use streammeta_cql::{attach_system, Catalog};
use streammeta_time::{TimeSpan, VirtualClock};

use crate::harness::{self, ns, Build, Checks, Counters, E2e, Workload};
use crate::model::{fanout_dag, Dag, FANOUT_SOURCES};
use crate::reads;
use crate::rng::{Rng, Zipf};
use crate::spans;
use crate::world::{self, Probe, Seen};

/// Updates per `burst` tick, and the hot sources they land on.
const BURST_UPDATES: usize = 32;
const BURST_HOT: usize = 4;
const SOURCE_SKEW: f64 = 1.0;
/// Sources whose subscriptions are all dropped and re-subscribed
/// between chunks.
const RESUBSCRIBED_SOURCES: usize = 16;

/// A subscribed combo or total and what its observer has seen.
struct Watched {
    item: usize,
    sub: Option<Subscription>,
    seen: Arc<Seen>,
}

pub struct Fanout {
    dag: Dag,
    by_rank: Vec<usize>,
    zipf: Zipf,
    rng: Rng,
    epoch: bool,
    manager: Arc<MetadataManager>,
    catalog: Catalog,
    sources: world::Sources,
    probe: Arc<Probe>,
    watched: Vec<Watched>,
    keys: Vec<MetadataKey>,
    /// Each source's slice of `watched`.
    watched_of: Vec<Range<usize>>,
    /// Recomputes and deliveries one update of each source causes.
    recomputes: Vec<u64>,
    deliveries: Vec<u64>,
    baseline: usize,
    round: u64,
}

pub fn build(seed: u64, epoch: bool, checks: &mut Checks) -> Build {
    let mut rng = Rng::new(seed);
    let (dag, by_rank) = fanout_dag(&mut rng);
    // Combos and totals, grouped by source (items are generated per
    // source).
    let items: Vec<usize> = (0..dag.items.len())
        .filter(|&i| !dag.deps(i).is_empty())
        .collect();
    let all = vec![true; dag.items.len()];
    let mut recomputes = vec![0; FANOUT_SOURCES];
    let mut deliveries = vec![0; FANOUT_SOURCES];
    let mut watched_of = Vec::with_capacity(FANOUT_SOURCES);
    for s in 0..FANOUT_SOURCES {
        let reach = dag.reach(s, &all);
        recomputes[s] = reach.iter().filter(|&&r| r).count() as u64;
        let first = items.partition_point(|&i| dag.items[i].node < dag.source_nodes[s]);
        let end = items.partition_point(|&i| dag.items[i].node <= dag.source_nodes[s]);
        deliveries[s] = (end - first) as u64;
        watched_of.push(first..end);
    }
    let keys: Vec<MetadataKey> = items.iter().map(|&i| world::key(&dag, i)).collect();
    let sources = world::sources(FANOUT_SOURCES);
    let probe = Probe::new(dag.items.len());

    let start = Instant::now();
    let manager = MetadataManager::new(VirtualClock::shared());
    if epoch {
        manager.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
            max_batch: usize::MAX,
            max_delay: TimeSpan(u64::MAX),
        }));
    }
    let baseline = manager.handler_count();
    for reg in world::registries(&dag, &sources, &probe) {
        manager.attach_node(reg);
    }
    let mut w = Fanout {
        zipf: Zipf::new(FANOUT_SOURCES, SOURCE_SKEW),
        watched: items
            .iter()
            .map(|&item| Watched {
                item,
                sub: None,
                seen: Arc::default(),
            })
            .collect(),
        dag,
        by_rank,
        rng,
        epoch,
        catalog: Catalog::new(),
        manager,
        sources,
        probe,
        keys,
        watched_of,
        recomputes,
        deliveries,
        baseline,
        round: 0,
    };
    for k in 0..w.watched.len() {
        w.subscribe(k, &mut E2e::default(), checks);
    }
    attach_system(&mut w.catalog, w.manager.clone());
    let secs = start.elapsed().as_secs_f64();
    (Box::new(w), secs)
}

impl Fanout {
    fn pick(&mut self) -> usize {
        self.by_rank[self.zipf.sample(&mut self.rng)]
    }

    fn bump(&mut self, s: usize) {
        self.sources[s].fetch_add(1, Relaxed);
    }

    fn next_round(&mut self) {
        self.round += 1;
        self.probe.start_round(self.round);
        spans::set_update(self.round);
    }

    /// Subscribes `watched[k]` with a fresh observer.
    fn subscribe(&mut self, k: usize, e2e: &mut E2e, checks: &mut Checks) {
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
            self.manager.subscribe_with(self.keys[k].clone(), observer)
        };
        e2e.subscribe_ns.push(ns(t));
        if traced {
            harness::subscribed(h0, self.manager.handler_count());
        }
        match sub {
            Ok(sub) => {
                self.watched[k] = Watched {
                    item: self.watched[k].item,
                    sub: Some(sub),
                    seen,
                }
            }
            Err(e) => checks.check(false, || format!("subscribe {}: {e}", self.keys[k])),
        }
    }

    fn unsubscribe(&mut self, k: usize, e2e: &mut E2e) {
        let Some(sub) = self.watched[k].sub.take() else {
            return;
        };
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
    }

    fn per_event(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let s = self.pick();
        self.bump(s);
        self.next_round();
        let (c0, d0) = (
            self.probe.computes.load(Relaxed),
            self.probe.deliveries.load(Relaxed),
        );
        let event = world::event(&self.dag, s);
        let t = Instant::now();
        {
            let _g = spans::enter("manager.fire_event");
            self.manager.fire_event(event);
        }
        e2e.notify_ns.push(ns(t));
        self.probe.end_round();
        e2e.updates += 1;
        let computes = self.probe.computes.load(Relaxed) - c0;
        let deliveries = self.probe.deliveries.load(Relaxed) - d0;
        checks.check(
            computes == self.recomputes[s] && deliveries == self.deliveries[s],
            || {
                format!(
                    "update of source {s}: {computes} recomputes / {deliveries} deliveries, \
                     expected {} / {}",
                    self.recomputes[s], self.deliveries[s]
                )
            },
        );
    }

    fn burst(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let hot: Vec<usize> = (0..BURST_HOT).map(|_| self.pick()).collect();
        let c0 = self.probe.computes.load(Relaxed);
        let mut fired = Vec::with_capacity(BURST_UPDATES);
        for _ in 0..BURST_UPDATES {
            let s = hot[self.rng.below(BURST_HOT)];
            self.bump(s);
            let event = world::event(&self.dag, s);
            let t = Instant::now();
            {
                let _g = spans::enter("epoch.enqueue");
                self.manager.fire_event(event);
            }
            fired.push((s, t));
        }
        let enqueued_computes = self.probe.computes.load(Relaxed) - c0;
        self.next_round();
        let d0 = self.probe.deliveries.load(Relaxed);
        let swept = {
            let _g = spans::enter("epoch.flush_epoch");
            self.manager.flush_epoch()
        };
        let done = Instant::now();
        self.probe.end_round();
        for (_, t) in &fired {
            e2e.notify_ns
                .push(done.duration_since(*t).as_nanos() as u64);
        }
        e2e.updates += BURST_UPDATES as u64;
        let distinct: BTreeSet<usize> = fired.iter().map(|(s, _)| *s).collect();
        let want_c: u64 = distinct.iter().map(|&s| self.recomputes[s]).sum();
        let want_d: u64 = distinct.iter().map(|&s| self.deliveries[s]).sum();
        let computes = self.probe.computes.load(Relaxed) - c0;
        let deliveries = self.probe.deliveries.load(Relaxed) - d0;
        checks.check(
            enqueued_computes == 0
                && swept == distinct.len()
                && computes == want_c
                && deliveries == want_d,
            || {
                format!(
                    "epoch over {} sources: swept {swept}, {computes} recomputes \
                     ({enqueued_computes} while enqueueing) / {deliveries} deliveries, \
                     expected {want_c} / {want_d}",
                    distinct.len()
                )
            },
        );
    }

    /// Model values of every watched item.
    fn wanted(&self) -> Vec<u64> {
        let values = self.dag.values(&world::snapshot(&self.sources));
        self.watched.iter().map(|w| values[w.item]).collect()
    }
}

impl Workload for Fanout {
    fn step(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        if self.epoch {
            self.burst(e2e, checks)
        } else {
            self.per_event(e2e, checks)
        }
    }

    /// Drops and re-subscribes every subscription of a few sources (the
    /// last drop excludes the source's subgraph, the first re-subscribe
    /// includes it again), reads every subscription, and counts
    /// `sys.handlers`.
    fn between(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        for _ in 0..RESUBSCRIBED_SOURCES {
            let range = self.watched_of[self.rng.below(FANOUT_SOURCES)].clone();
            for k in range.clone() {
                self.unsubscribe(k, e2e);
            }
            for k in range {
                self.subscribe(k, e2e, checks);
            }
        }
        let want = self.wanted();
        let subs: Vec<&Subscription> = self.watched.iter().filter_map(|w| w.sub.as_ref()).collect();
        let manager = &self.manager;
        for _ in 0..reads::PASSES {
            reads::pass(&subs, &self.keys, &want, |k| manager.read(k), e2e, checks);
        }
        let n = self.dag.items.len() as u64;
        reads::catalog_query(&self.catalog, &self.manager, n, e2e, checks);
    }

    fn check(&mut self, checks: &mut Checks) {
        let want = self.wanted();
        for (w, want) in self.watched.iter().zip(want) {
            let got = w.seen.value.load(Relaxed);
            let regressions = w.seen.regressions.load(Relaxed);
            checks.check(w.sub.is_some() && got == want && regressions == 0, || {
                format!(
                    "{}: observed {got} (expected {want}), {regressions} version regressions",
                    world::key(&self.dag, w.item)
                )
            });
        }
        let repeats = self.probe.repeats.swap(0, Relaxed);
        checks.check(repeats == 0, || {
            format!("{repeats} items recomputed more than once in one round")
        });
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_stats(&self.manager.stats(), self.manager.shard_read_count());
        c
    }

    fn teardown(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        for k in 0..self.watched.len() {
            self.unsubscribe(k, e2e);
        }
        let left = self.manager.handler_count();
        checks.check(left == self.baseline, || {
            format!(
                "{left} handlers left after teardown, baseline {}",
                self.baseline
            )
        });
    }
}
