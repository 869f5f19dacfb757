//! Multi-threaded wall-clock executor.
//!
//! Exercises the synchronization design of Section 4.2: "the concurrency
//! between the processing of stream elements and metadata access" — worker
//! threads push elements through the graph (node behaviors serialize on
//! their own mutexes) while metadata consumers read concurrently through
//! the manager, and a periodic worker pool fires the due updates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streammeta_core::NodeId;

use crate::probes::EngineProbes;
use streammeta_graph::{NodeKind, QueryGraph};
use streammeta_streams::Element;
use streammeta_time::Clock;

/// One unit of work: deliver `element` to `node`'s `port`.
struct WorkItem {
    node: NodeId,
    port: usize,
    element: Element,
}

/// What flows through the work channel: an element delivery, or a
/// shutdown sentinel. The feeder enqueues one sentinel per worker at the
/// deadline, which lets workers block on `recv` while idle instead of
/// polling a stop flag on a timeout.
enum Work {
    Item(WorkItem),
    Shutdown,
}

/// The sending side of the work channel. `queued` counts the work in
/// the channel: incremented before every send, decremented after every
/// receive (it feeds the queue gauge and the drain check).
#[derive(Clone)]
struct WorkSender {
    tx: Sender<Work>,
    queued: Arc<AtomicU64>,
}

impl WorkSender {
    fn send(&self, work: Work) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        let _ = self.tx.send(work);
    }
}

/// Counters of one threaded run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedRunStats {
    /// Elements processed by workers.
    pub processed: u64,
    /// Elements released by sources.
    pub source_elements: u64,
}

/// Runs `graph` for `duration` with `workers` processing threads.
///
/// The caller is responsible for driving periodic metadata (typically via
/// [`streammeta_time::WorkerPool`] on `graph.manager().periodic()`).
pub fn run_threaded(
    graph: &Arc<QueryGraph>,
    clock: &Arc<dyn Clock>,
    duration: Duration,
    workers: usize,
) -> ThreadedRunStats {
    run_threaded_with(graph, clock, duration, workers, None)
}

/// Like [`run_threaded`], additionally publishing channel backlog, busy
/// workers and processed counts into `probes` (no-ops per monitor unless
/// the corresponding [`crate::probes::ENGINE_NODE`] item is subscribed).
pub fn run_threaded_with(
    graph: &Arc<QueryGraph>,
    clock: &Arc<dyn Clock>,
    duration: Duration,
    workers: usize,
    probes: Option<&EngineProbes>,
) -> ThreadedRunStats {
    let workers = workers.max(1);
    if let Some(p) = probes {
        p.workers.set(workers as f64);
    }
    let queue_gauge = probes.map(|p| p.queue_elements.clone());
    let busy_gauge = probes.map(|p| p.busy_workers.clone());
    let processed_counter = probes.map(|p| p.processed.clone());
    let (tx, rx) = mpsc::channel();
    let tx = WorkSender {
        tx,
        queued: Arc::new(AtomicU64::new(0)),
    };
    // Workers take turns on the one receiver.
    let rx = Arc::new(Mutex::new(rx));
    let processed = Arc::new(AtomicU64::new(0));
    let source_elements = Arc::new(AtomicU64::new(0));
    // Items taken off the channel but not yet fanned back into it. An
    // empty channel alone does not mean the run is drained: a worker
    // mid-`process` is about to enqueue downstream elements, and a
    // worker that exits on the empty-channel snapshot abandons them to
    // whichever single worker happens to survive. Workers only exit
    // when the channel is empty AND nothing is in flight.
    let in_flight = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Feeder: release due source elements as wall time passes.
        {
            let graph = graph.clone();
            let clock = clock.clone();
            let tx = tx.clone();
            let source_elements = source_elements.clone();
            let queue_gauge = queue_gauge.clone();
            scope.spawn(move || {
                // Name this flame track for the Chrome-trace exporter.
                graph.manager().label_trace_thread("feeder");
                let deadline = Instant::now() + duration;
                let sources: Vec<NodeId> = graph
                    .nodes()
                    .into_iter()
                    .filter(|n| graph.kind(*n) == NodeKind::Source)
                    .collect();
                let mut buf = Vec::new();
                while Instant::now() < deadline {
                    let now = clock.now();
                    for &src in &sources {
                        buf.clear();
                        graph.pull_source(src, now, &mut buf);
                        source_elements.fetch_add(buf.len() as u64, Ordering::Relaxed);
                        for e in buf.drain(..) {
                            for (node, port) in graph.downstream(src) {
                                tx.send(Work::Item(WorkItem {
                                    node,
                                    port,
                                    element: e.clone(),
                                }));
                            }
                        }
                    }
                    if let Some(g) = &queue_gauge {
                        g.set(tx.queued.load(Ordering::SeqCst) as f64);
                    }
                    // Epoch propagation mode: the feeder is the time-slice
                    // driver — a pending epoch whose oldest update aged
                    // past `max_delay` flushes here (no-op in the default
                    // per-event mode).
                    graph.manager().flush_epoch_if_due(clock.now());
                    std::thread::sleep(Duration::from_micros(200));
                }
                // A single relayed sentinel: the worker that finds the
                // run drained re-sends it for the next one before
                // exiting, so it passes through every worker exactly
                // once. (One sentinel per worker would livelock: each
                // worker would see the others' sentinels still queued
                // and never observe an empty channel.)
                tx.send(Work::Shutdown);
            });
        }
        // Workers: process items, fanning results back into the channel.
        for worker in 0..workers {
            let graph = graph.clone();
            let clock = clock.clone();
            let rx = rx.clone();
            let tx = tx.clone();
            let processed = processed.clone();
            let in_flight = in_flight.clone();
            let busy_gauge = busy_gauge.clone();
            let processed_counter = processed_counter.clone();
            scope.spawn(move || {
                graph
                    .manager()
                    .label_trace_thread(&format!("worker-{worker}"));
                let mut out = Vec::new();
                loop {
                    // The guard is a temporary of this statement: the
                    // receiver is released before the work is done.
                    let work = rx.lock().expect("work receiver").recv();
                    match work {
                        Ok(Work::Item(item)) => {
                            // In flight before it leaves `queued`, so the
                            // drain check always sees it in one of them.
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            tx.queued.fetch_sub(1, Ordering::SeqCst);
                            if let Some(g) = &busy_gauge {
                                g.add(1.0);
                            }
                            out.clear();
                            graph.process(
                                item.node,
                                item.port,
                                &item.element,
                                clock.now(),
                                &mut out,
                            );
                            processed.fetch_add(1, Ordering::Relaxed);
                            if let Some(c) = &processed_counter {
                                c.record();
                            }
                            for e in out.drain(..) {
                                for (node, port) in graph.downstream(item.node) {
                                    tx.send(Work::Item(WorkItem {
                                        node,
                                        port,
                                        element: e.clone(),
                                    }));
                                }
                            }
                            // Decremented only after the downstream
                            // elements are back in the channel, so the
                            // exit condition never sees them in neither
                            // place.
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            if let Some(g) = &busy_gauge {
                                g.add(-1.0);
                            }
                        }
                        Ok(Work::Shutdown) => {
                            tx.queued.fetch_sub(1, Ordering::SeqCst);
                            if tx.queued.load(Ordering::SeqCst) == 0
                                && in_flight.load(Ordering::SeqCst) == 0
                            {
                                // Drained: relay the sentinel to wake the
                                // next blocked worker, then exit. The last
                                // relay is dropped with the channel.
                                tx.send(Work::Shutdown);
                                break;
                            }
                            // Not drained: a worker mid-`process` is about
                            // to fan elements back in, or items are still
                            // queued behind this sentinel. Recirculate it
                            // and keep draining.
                            tx.send(Work::Shutdown);
                            std::thread::yield_now();
                        }
                        Err(_) => break, // all senders gone; nothing can arrive
                    }
                }
            });
        }
        drop(tx);
    });

    // Shutdown drain: whatever the epoch queue still holds (a partial
    // epoch below both flush bounds) is swept now, so no update enqueued
    // during the run is lost at exit.
    graph.manager().flush_epoch();

    ThreadedRunStats {
        processed: processed.load(Ordering::Relaxed),
        source_elements: source_elements.load(Ordering::Relaxed),
    }
}
