//! `plane`: owner updates forwarded to cross-partition mirrors through a
//! `PartitionedMetadataPlane` of 8 partitions, with a few mirrors
//! dropped and re-subscribed every tick.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use streammeta_core::{MetadataKey, NodeId, PartitionedMetadataPlane, Subscription};
use streammeta_cql::{attach_system, Catalog};
use streammeta_time::VirtualClock;

use crate::harness::{self, ns, Build, Checks, Counters, E2e, Workload};
use crate::model::{plane_dag, Dag, MIRROR_BASE, PLANE_MIRRORS, PLANE_OWNERS, PLANE_PER_OWNER};
use crate::reads;
use crate::rng::{Rng, Zipf};
use crate::spans;
use crate::world::{self, Probe, Seen};

const PARTITIONS: usize = 8;
/// Owner updates per tick, then one pump; mirrors re-subscribed per tick.
const FIRES_PER_TICK: usize = 16;
const RESUBSCRIBES_PER_TICK: usize = 4;
const OWNER_SKEW: f64 = 1.0;
/// Index of the first mirror item in the graph.
const FIRST_MIRROR: usize = PLANE_OWNERS * PLANE_PER_OWNER;

struct Mirror {
    sub: Subscription,
    seen: Arc<Seen>,
}

pub struct Plane {
    dag: Dag,
    rng: Rng,
    zipf: Zipf,
    owner_by_rank: Vec<usize>,
    plane: Arc<PartitionedMetadataPlane>,
    catalog: Catalog,
    sources: world::Sources,
    probe: Arc<Probe>,
    /// Empty only while a re-subscribe replaces the mirror.
    mirrors: Vec<Option<Mirror>>,
    /// Mirrors (by index) of each owner node.
    mirrors_of: Vec<Vec<usize>>,
    /// Mirror `j`'s owner item key.
    owner_keys: Vec<MetadataKey>,
    /// Handlers partition 0 holds while every mirror is live: a mirror
    /// and a proxy per mirror homed there, and every owner item it owns.
    p0_handlers: u64,
    baseline: usize,
    round: u64,
}

/// Mirror `j`'s owner item.
fn owner(dag: &Dag, j: usize) -> usize {
    dag.deps(FIRST_MIRROR + j)[0]
}

pub fn build(seed: u64, checks: &mut Checks) -> Build {
    let mut rng = Rng::new(seed);
    let mut dag = plane_dag(&mut rng);
    let owner_by_rank = rng.permutation(PLANE_OWNERS);
    let mut mirrors_of = vec![Vec::new(); PLANE_OWNERS];
    for j in 0..PLANE_MIRRORS {
        mirrors_of[dag.items[owner(&dag, j)].node as usize].push(j);
    }
    // Place every mirror on another partition than its owner (routing is
    // a fixed hash of the node id, so any plane of this size agrees).
    let router = PartitionedMetadataPlane::new(VirtualClock::shared(), PARTITIONS);
    let mut p0_handlers = 0;
    for j in 0..PLANE_MIRRORS {
        let owned_by = router.owner_of(NodeId(dag.items[owner(&dag, j)].node));
        let mut node = MIRROR_BASE + j as u32;
        while router.owner_of(NodeId(node)) == owned_by {
            node += PLANE_MIRRORS as u32;
        }
        dag.items[FIRST_MIRROR + j].node = node;
        p0_handlers += 2 * (router.owner_of(NodeId(node)) == 0) as u64 + (owned_by == 0) as u64;
    }
    drop(router);
    let owner_keys = (0..PLANE_MIRRORS)
        .map(|j| world::key(&dag, owner(&dag, j)))
        .collect();
    let sources = world::sources(PLANE_OWNERS);
    let probe = Probe::new(dag.items.len());

    let start = Instant::now();
    let plane = PartitionedMetadataPlane::new(VirtualClock::shared(), PARTITIONS);
    let baseline = handlers(&plane);
    for reg in world::registries(&dag, &sources, &probe) {
        plane.attach_node(reg);
    }
    let mut mirrors = Vec::with_capacity(PLANE_MIRRORS);
    for j in 0..PLANE_MIRRORS {
        match subscribe(&plane, &dag, &probe, j) {
            Ok(m) => mirrors.push(Some(m)),
            Err(e) => {
                checks.check(false, || format!("subscribe mirror {j}: {e}"));
                fatal(checks);
            }
        }
    }
    plane.pump();
    let mut catalog = Catalog::new();
    attach_system(&mut catalog, plane.partition(0).clone());
    let secs = start.elapsed().as_secs_f64();

    let w = Plane {
        zipf: Zipf::new(PLANE_OWNERS, OWNER_SKEW),
        dag,
        rng,
        owner_by_rank,
        plane,
        catalog,
        sources,
        probe,
        mirrors,
        mirrors_of,
        owner_keys,
        p0_handlers,
        baseline,
        round: 0,
    };
    (Box::new(w), secs)
}

/// Ends the run on a failed subscription, which leaves no mirror to
/// measure.
fn fatal(checks: &Checks) -> ! {
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    std::process::exit(1)
}

fn handlers(plane: &PartitionedMetadataPlane) -> usize {
    plane.partitions().iter().map(|m| m.handler_count()).sum()
}

fn subscribe(
    plane: &PartitionedMetadataPlane,
    dag: &Dag,
    probe: &Arc<Probe>,
    j: usize,
) -> streammeta_core::Result<Mirror> {
    let key: MetadataKey = world::key(dag, FIRST_MIRROR + j);
    let seen = Arc::new(Seen::default());
    let home = plane.partition(plane.owner_of(key.node));
    let sub = home.subscribe_with(key, world::observer(&seen, probe))?;
    Ok(Mirror { sub, seen })
}

impl Plane {
    fn expect(&self, j: usize) -> u64 {
        let owner = owner(&self.dag, j);
        let crate::model::Def::Raw { source, offset } = self.dag.items[owner].def else {
            unreachable!("owner items are raw")
        };
        crate::model::raw_value(self.sources[source].load(Relaxed), offset)
    }

    fn check_mirror(&self, j: usize, checks: &mut Checks) {
        let m = self.mirrors[j]
            .as_ref()
            .expect("every mirror is live between ticks");
        let (got, want) = (m.seen.value.load(Relaxed), self.expect(j));
        let regressions = m.seen.regressions.load(Relaxed);
        checks.check(got == want && regressions == 0, || {
            format!("mirror {j}: observed {got} (owner {want}), {regressions} version regressions")
        });
    }

    fn resubscribe(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let j = self.rng.below(PLANE_MIRRORS);
        let old = self.mirrors[j]
            .take()
            .expect("every mirror is live between ticks");
        let traced = spans::enabled();
        let h0 = if traced { handlers(&self.plane) } else { 0 };
        let t = Instant::now();
        {
            let _g = spans::enter("inclusion.unsubscribe");
            drop(old);
        }
        e2e.unsubscribe_ns.push(ns(t));
        let h1 = if traced { handlers(&self.plane) } else { 0 };
        let t = Instant::now();
        let fresh = {
            let _g = spans::enter("inclusion.subscribe");
            subscribe(&self.plane, &self.dag, &self.probe, j)
        };
        e2e.subscribe_ns.push(ns(t));
        if traced {
            harness::unsubscribed(h0, h1);
            harness::subscribed(h1, handlers(&self.plane));
        }
        match fresh {
            Ok(m) => self.mirrors[j] = Some(m),
            Err(e) => {
                checks.check(false, || format!("re-subscribe mirror {j}: {e}"));
                fatal(checks);
            }
        }
        self.check_mirror(j, checks);
    }
}

impl Workload for Plane {
    fn step(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let mut fired = [(0usize, None::<Instant>); FIRES_PER_TICK];
        for slot in fired.iter_mut() {
            let n = self.owner_by_rank[self.zipf.sample(&mut self.rng)];
            self.sources[n].fetch_add(1, Relaxed);
            self.round += 1;
            self.probe.start_round(self.round);
            spans::set_update(self.round);
            let event = world::event(&self.dag, n);
            let t = Instant::now();
            {
                let _g = spans::enter("partition.fire_event");
                self.plane.fire_event(event);
            }
            *slot = (n, Some(t));
        }
        // A link may carry several changes into one pump, so a mirror may
        // legitimately recompute more than once per pump.
        self.probe.end_round();
        let applied = {
            let _g = spans::enter("partition.pump");
            self.plane.pump()
        };
        let done = Instant::now();
        for (_, t) in &fired {
            let t = t.expect("every slot fired");
            e2e.notify_ns.push(done.duration_since(t).as_nanos() as u64);
        }
        e2e.updates += FIRES_PER_TICK as u64;
        let nodes: BTreeSet<usize> = fired.iter().map(|(n, _)| *n).collect();
        let changed: usize = nodes.iter().map(|&n| self.mirrors_of[n].len()).sum();
        spans::count("partition.applies", applied as u64);
        spans::count("partition.changed_links", changed as u64);
        for &n in &nodes {
            for &j in &self.mirrors_of[n] {
                self.check_mirror(j, checks);
            }
        }
        for _ in 0..RESUBSCRIBES_PER_TICK {
            self.resubscribe(e2e, checks);
        }
    }

    fn check(&mut self, checks: &mut Checks) {
        for j in 0..PLANE_MIRRORS {
            self.check_mirror(j, checks);
        }
        let repeats = self.probe.repeats.swap(0, Relaxed);
        checks.check(repeats == 0, || {
            format!("{repeats} owner items recomputed more than once in one update")
        });
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for m in self.plane.partitions() {
            c.add_stats(&m.stats(), m.shard_read_count());
            c.remote_updates += m.remote_update_count();
        }
        c
    }

    /// Reads every mirror by handle and its owner item by key through
    /// the plane's router, and counts partition 0's `sys.handlers`.
    fn between(&mut self, e2e: &mut E2e, checks: &mut Checks) {
        let subs: Vec<&Subscription> = self.mirrors.iter().flatten().map(|m| &m.sub).collect();
        let want: Vec<u64> = (0..PLANE_MIRRORS).map(|j| self.expect(j)).collect();
        let plane = &self.plane;
        let read = |k: &MetadataKey| plane.read_versioned(k).map(|v| v.value);
        for _ in 0..reads::PASSES {
            reads::pass(&subs, &self.owner_keys, &want, read, e2e, checks);
        }
        let p0 = self.plane.partition(0);
        reads::catalog_query(&self.catalog, p0, self.p0_handlers, e2e, checks);
    }

    fn teardown(&mut self, _e2e: &mut E2e, checks: &mut Checks) {
        self.mirrors.clear();
        self.plane.pump();
        let left = handlers(&self.plane);
        checks.check(left == self.baseline, || {
            format!(
                "{left} handlers left after teardown, baseline {}",
                self.baseline
            )
        });
    }
}
