//! E18: reflexive observability — the framework watching itself.
//!
//! A query runs on the multi-threaded wall-clock executor while a
//! `Recorder` subscribes to the manager's own meta-metadata node
//! (handler count, compute rate, deadline misses) and to the engine's
//! probe items (channel backlog, worker utilization). The time series is
//! exported as CSV into `results/` and the final values are rendered in
//! Prometheus text exposition format.

use std::sync::Arc;
use std::time::Duration;

use streammeta_core::{MetadataKey, MetadataManager, Metric, META_NODE};
use streammeta_engine::{run_threaded_with, EngineProbes, ENGINE_NODE};
use streammeta_graph::{FilterPredicate, MetadataConfig, QueryGraph};
use streammeta_profiler::Recorder;
use streammeta_streams::{ConstantRate, TupleGen};
use streammeta_time::{Clock, TimeSpan, Timestamp, WallClock, WorkerPool};

fn main() {
    println!("E18 — reflexive observability on the threaded executor (500ms wall run)\n");
    let clock: Arc<dyn Clock> = WallClock::shared();
    let manager = MetadataManager::new(clock.clone());
    let graph = Arc::new(QueryGraph::with_config(
        manager.clone(),
        MetadataConfig {
            rate_window: TimeSpan(10_000), // 10ms periodic windows
        },
    ));
    let src = graph.source(
        "s",
        Box::new(ConstantRate::new(
            Timestamp(0),
            TimeSpan(20), // one element every 20us
            TupleGen::Sequence,
            1,
        )),
    );
    let f = graph.filter(
        "f",
        src,
        FilterPredicate::AttrLt {
            col: 0,
            bound: i64::MAX,
        },
        1,
    );
    let _sink = graph.sink_discard("k", f);

    // The engine publishes its own runtime state ...
    let probes = EngineProbes::new();
    probes.install(&manager, TimeSpan(50_000));
    // ... and the manager publishes stats about itself.
    manager.install_meta_node(TimeSpan(50_000));

    // A plain subscription keeps the manager busy so the meta items have
    // something to report.
    let _rate = manager
        .subscribe(MetadataKey::new(f, "input_rate"))
        .expect("input_rate");

    let mut recorder = Recorder::new(manager.clone());
    for (label, node, item) in [
        ("meta_handlers", META_NODE, Metric::Handlers.def().item),
        ("meta_computes_rate", META_NODE, "meta.computes_rate"),
        (
            "meta_deadline_misses",
            META_NODE,
            Metric::DeadlineMisses.def().item,
        ),
        (
            "meta_propagation_depth",
            META_NODE,
            Metric::PropagationDepth.def().item,
        ),
        ("queue_elements", ENGINE_NODE, "engine.queue_elements"),
        (
            "worker_utilization",
            ENGINE_NODE,
            "engine.worker_utilization",
        ),
    ] {
        recorder
            .track(label, MetadataKey::new(node, item))
            .expect(item);
    }

    let pool = WorkerPool::start(manager.periodic().clone(), clock.clone(), 1);
    let stats = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            run_threaded_with(&graph, &clock, Duration::from_millis(500), 4, Some(&probes))
        });
        // Sample the series every ~25ms while the engine runs.
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(25));
            recorder.sample();
        }
        handle.join().expect("threaded run")
    });
    pool.shutdown();

    println!(
        "processed {} elements from {} source elements\n",
        stats.processed, stats.source_elements
    );

    let csv = recorder.to_csv();
    println!(
        "recorded {} samples of {} series",
        csv.lines().count().saturating_sub(1),
        6
    );
    let out_dir = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let out_path = format!("{out_dir}/e18_observability.csv");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&out_path, &csv)) {
        Ok(()) => println!("CSV written to {out_path}\n"),
        Err(e) => {
            println!("could not write {out_dir}/ ({e}); CSV follows:\n{csv}\n");
        }
    }

    println!("Prometheus exposition of the final values:\n");
    print!("{}", recorder.render_prometheus());
}
