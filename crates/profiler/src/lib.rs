//! # streammeta-profiler — system profiling over metadata
//!
//! The paper's fourth motivating application (Section 1): "Researchers and
//! administrators may also benefit from runtime metadata because its
//! analysis gives insight into system behavior."
//!
//! The [`Recorder`] subscribes to metadata items and samples them into
//! time series; experiments use it to plot figure data and compute
//! summaries, and it exports plain CSV.

use std::fmt::Write as _;
use std::sync::Arc;

use streammeta_core::{
    finished_spans, MetadataKey, MetadataManager, MetadataValue, Metric, MetricDef, MetricKind,
    Result, Subscription, SystemRelation, TraceRecord, META_NODE, METRICS,
};
use streammeta_time::Timestamp;

/// One tracked time series.
struct Series {
    label: String,
    sub: Subscription,
    /// Sample rounds that happened before this series was tracked; its
    /// first sample belongs to round `lead`, not round 0.
    lead: usize,
    samples: Vec<(Timestamp, Option<f64>)>,
}

/// Summary statistics of a series (over available samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSummary {
    /// Number of samples with an available numeric value.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

/// Records subscribed metadata values over time.
pub struct Recorder {
    manager: Arc<MetadataManager>,
    series: Vec<Series>,
    /// Sample rounds taken so far.
    rounds: usize,
}

impl Recorder {
    /// A recorder bound to `manager`.
    pub fn new(manager: Arc<MetadataManager>) -> Self {
        Recorder {
            manager,
            series: Vec::new(),
            rounds: 0,
        }
    }

    /// Subscribes to `key` and tracks it under `label`. Returns the
    /// series index.
    pub fn track(&mut self, label: impl Into<String>, key: MetadataKey) -> Result<usize> {
        let sub = self.manager.subscribe(key)?;
        self.series.push(Series {
            label: label.into(),
            sub,
            lead: self.rounds,
            samples: Vec::new(),
        });
        Ok(self.series.len() - 1)
    }

    /// Tracks the [`META_NODE`] failure-containment counters — retries,
    /// quarantine trips, currently-quarantined items, stale serves,
    /// deadline overruns — under `meta_*` labels in one call, for chaos
    /// experiments and dashboards. Requires the manager's meta node
    /// (`install_meta_node`) to be installed first. Returns the series
    /// indices in the order listed above.
    pub fn track_containment(&mut self) -> Result<[usize; 5]> {
        let mut out = [0; 5];
        for (slot, metric) in out.iter_mut().zip([
            Metric::Retries,
            Metric::QuarantineTrips,
            Metric::Quarantined,
            Metric::StaleServes,
            Metric::DeadlineOverruns,
        ]) {
            let def = metric.def();
            let label = format!("meta_{}", def.name);
            *slot = self.track(label, MetadataKey::new(META_NODE, def.item))?;
        }
        Ok(out)
    }

    /// Samples every tracked item at the current clock instant.
    pub fn sample(&mut self) {
        let now = self.manager.clock().now();
        self.rounds += 1;
        for s in &mut self.series {
            let v = match s.sub.get() {
                MetadataValue::Unavailable => None,
                v => v.as_f64(),
            };
            s.samples.push((now, v));
        }
    }

    /// Number of tracked series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The label of series `idx`.
    pub fn label(&self, idx: usize) -> &str {
        &self.series[idx].label
    }

    /// The samples of series `idx` (time, value-if-available).
    pub fn series(&self, idx: usize) -> &[(Timestamp, Option<f64>)] {
        &self.series[idx].samples
    }

    /// Summary statistics of series `idx`, if any value was available.
    pub fn summary(&self, idx: usize) -> Option<SeriesSummary> {
        let vals: Vec<f64> = self.series[idx]
            .samples
            .iter()
            .filter_map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            return None;
        }
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for v in &vals {
            min = min.min(*v);
            max = max.max(*v);
            sum += v;
        }
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let pct = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[rank.min(sorted.len() - 1)]
        };
        Some(SeriesSummary {
            count: vals.len(),
            min,
            max,
            mean: sum / vals.len() as f64,
            p50: pct(0.50),
            p95: pct(0.95),
        })
    }

    /// All series as CSV: `time,<label1>,<label2>,...` rows aligned on
    /// sample round. Series tracked after sampling started are padded
    /// with leading `NA` cells so later rows stay aligned.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
        }
        out.push('\n');
        let cell = |s: &Series, round: usize| -> Option<(Timestamp, Option<f64>)> {
            round
                .checked_sub(s.lead)
                .and_then(|i| s.samples.get(i))
                .copied()
        };
        for round in 0..self.rounds {
            let t = self
                .series
                .iter()
                .find_map(|s| cell(s, round).map(|(t, _)| t))
                .unwrap_or(Timestamp::ZERO);
            let _ = write!(out, "{t}");
            for s in &self.series {
                out.push(',');
                match cell(s, round).and_then(|(_, v)| v) {
                    Some(v) => {
                        let _ = write!(out, "{v}");
                    }
                    None => out.push_str("NA"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// The tracked items in Prometheus text exposition format: one gauge
    /// per series with `node`/`item` labels, read at call time (what a
    /// scrape would see), followed by every [`METRICS`] row under
    /// [`manager_metric_name`]. Non-numeric and unavailable values are
    /// skipped.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            let Some(v) = s.sub.get_f64() else {
                continue;
            };
            let name = prometheus_name(&s.label);
            let key = s.sub.key();
            let _ = writeln!(out, "# HELP {name} metadata item {key}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(
                out,
                "{name}{{node=\"{}\",item=\"{}\"}} {v}",
                key.node, key.item
            );
        }
        // Every manager metric is exported, whether or not anything
        // subscribes to its META_NODE item (distinct `streammeta_manager_*`
        // names keep them from colliding with tracked `streammeta_meta_*`
        // series). Unavailable rows are skipped.
        for def in &METRICS {
            let Some(v) = def.read(&self.manager) else {
                continue;
            };
            let name = manager_metric_name(def);
            let _ = writeln!(out, "# HELP {name} {}", def.doc);
            let _ = writeln!(out, "# TYPE {name} {}", def.kind.as_str());
            let _ = writeln!(out, "{name} {v}");
        }
        // Per-handler compute-latency quantiles as one Prometheus summary
        // family. Quantiles exist only while the manager's latency
        // profiling switch is on; handlers without observations are
        // skipped so the exposition stays empty-but-well-formed when
        // profiling is off.
        let mut wrote_header = false;
        for key in self.manager.included_keys() {
            let Some(stats) = self.manager.handler_stats(&key) else {
                continue;
            };
            let quantiles = [
                ("0.5", stats.latency_p50),
                ("0.95", stats.latency_p95),
                ("0.99", stats.latency_p99),
            ];
            if quantiles.iter().all(|(_, v)| v.is_none()) {
                continue;
            }
            if !wrote_header {
                let _ = writeln!(
                    out,
                    "# HELP streammeta_handler_compute_seconds per-handler compute latency (requires latency profiling)"
                );
                let _ = writeln!(out, "# TYPE streammeta_handler_compute_seconds summary");
                wrote_header = true;
            }
            for (q, v) in quantiles {
                let Some(ns) = v else { continue };
                let _ = writeln!(
                    out,
                    "streammeta_handler_compute_seconds{{node=\"{}\",item=\"{}\",quantile=\"{q}\"}} {}",
                    key.node,
                    key.item,
                    ns as f64 * 1e-9
                );
            }
            let _ = writeln!(
                out,
                "streammeta_handler_compute_seconds_count{{node=\"{}\",item=\"{}\"}} {}",
                key.node, key.item, stats.computes
            );
        }
        out
    }
}

/// Renders one catalog snapshot (see
/// [`streammeta_core::MetadataManager::catalog_rows`]) as an aligned,
/// human-readable table: a header row of the relation's column names, a
/// rule, then one line per row with every column left-aligned to its
/// widest cell.
pub fn render_relation(relation: SystemRelation, rows: &[Vec<MetadataValue>]) -> String {
    let columns = relation.columns();
    let mut widths: Vec<usize> = columns.iter().map(|c| c.name.len()).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, cell)| {
                    // Text cells unquoted: keys and labels read better.
                    let s = match cell.as_text() {
                        Some(t) => t.to_string(),
                        None => cell.to_string(),
                    };
                    if let Some(w) = widths.get_mut(i) {
                        *w = (*w).max(s.len());
                    }
                    s
                })
                .collect()
        })
        .collect();
    let mut out = format!("{} ({} rows)\n", relation.name(), rows.len());
    let mut line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut row = String::new();
        for (i, cell) in cells.enumerate() {
            if i > 0 {
                row.push_str("  ");
            }
            let _ = write!(row, "{cell:<width$}", width = widths[i]);
        }
        out.push_str(row.trim_end());
        out.push('\n');
    };
    line(&mut columns.iter().map(|c| c.name));
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut rule.iter().map(String::as_str));
    for row in &rendered {
        line(&mut row.iter().map(String::as_str));
    }
    out
}

/// The Prometheus name of a manager metric: `streammeta_manager_<name>`,
/// with the conventional `_total` suffix for counters.
pub fn manager_metric_name(def: &MetricDef) -> String {
    match def.kind {
        MetricKind::Counter => format!("streammeta_manager_{}_total", def.name),
        MetricKind::Gauge => format!("streammeta_manager_{}", def.name),
    }
}

/// Sanitizes a series label into a Prometheus metric name
/// (`streammeta_` prefix, `[a-zA-Z0-9_:]` body).
fn prometheus_name(label: &str) -> String {
    let mut name = String::from("streammeta_");
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    name
}

/// Renders span-carrying trace records as a Chrome `trace_event` JSON
/// document (load it at `chrome://tracing` or in Perfetto): one complete
/// ("X") slice per span, closed by its last record (see
/// [`finished_spans`]) and placed on the flame track of the thread that
/// emitted that record, nested under its parent by time containment.
/// `threads` maps compact trace thread ids (see
/// [`streammeta_core::MetadataManager::trace_thread_labels`]) to track
/// names; unlabelled or untagged records land on track 0. Timestamps are
/// the clock's native units passed through as Chrome microseconds.
pub fn render_chrome_trace(
    records: &[TraceRecord],
    threads: &std::collections::BTreeMap<u64, String>,
) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };
    for (tid, name) in threads {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }
    for r in finished_spans(records) {
        let ctx = r.span.as_ref().expect("finished spans carry a span");
        sep(&mut out, &mut first);
        let name = match r.event.key() {
            Some(key) => format!("{} {key}", r.event.kind()),
            None => r.event.kind().to_string(),
        };
        let roots: Vec<String> = ctx.roots.iter().map(u64::to_string).collect();
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":{},\"parent\":{},\"roots\":\"{}\",\"depth\":{}}}}}",
            escape(&name),
            r.tid.unwrap_or(0),
            ctx.start.units(),
            r.at.units().saturating_sub(ctx.start.units()),
            ctx.span,
            ctx.parent.unwrap_or(0),
            roots.join(","),
            ctx.depth
        );
    }
    out.push_str("]}");
    out
}

/// Renders trace records as an aligned, human-readable listing; include
/// and exclude cascades are indented by dependency depth.
pub fn render_trace(records: &[TraceRecord]) -> String {
    use streammeta_core::TraceEvent;
    let mut out = String::new();
    for r in records {
        let indent = match &r.event {
            TraceEvent::Include { depth, .. } | TraceEvent::PropagationStep { depth, .. } => {
                *depth * 2
            }
            _ => 0,
        };
        let _ = writeln!(
            out,
            "{:>6} {:>10}  {:indent$}{}",
            r.seq,
            r.at.units(),
            "",
            r.event,
            indent = indent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_core::{ItemDef, NodeId, NodeRegistry};
    use streammeta_time::{TimeSpan, VirtualClock};

    fn setup() -> (Arc<VirtualClock>, Arc<MetadataManager>) {
        let clock = VirtualClock::shared();
        let mgr = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(0));
        reg.define(
            ItemDef::on_demand("t")
                .compute(|ctx| MetadataValue::U64(ctx.now().units()))
                .build(),
        );
        reg.define(ItemDef::static_value("label", "x"));
        mgr.attach_node(reg);
        (clock, mgr)
    }

    #[test]
    fn records_and_summarises() {
        let (clock, mgr) = setup();
        let mut rec = Recorder::new(mgr);
        let idx = rec.track("time", MetadataKey::new(NodeId(0), "t")).unwrap();
        for _ in 0..5 {
            clock.advance(TimeSpan(10));
            rec.sample();
        }
        let s = rec.summary(idx).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 50.0);
        assert_eq!(s.mean, 30.0);
        assert_eq!(s.p50, 30.0);
        assert_eq!(s.p95, 50.0);
        assert_eq!(rec.series(idx).len(), 5);
        assert_eq!(rec.label(idx), "time");
    }

    #[test]
    fn csv_export_includes_na_for_unavailable() {
        let (clock, mgr) = setup();
        let mut rec = Recorder::new(mgr);
        rec.track("time", MetadataKey::new(NodeId(0), "t")).unwrap();
        // Text values are not numeric: sampled as NA.
        rec.track("label", MetadataKey::new(NodeId(0), "label"))
            .unwrap();
        clock.advance(TimeSpan(1));
        rec.sample();
        let csv = rec.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time,time,label"));
        assert_eq!(lines.next(), Some("1,1,NA"));
    }

    #[test]
    fn late_tracked_series_pads_leading_na() {
        let (clock, mgr) = setup();
        let mut rec = Recorder::new(mgr);
        rec.track("time", MetadataKey::new(NodeId(0), "t")).unwrap();
        clock.advance(TimeSpan(1));
        rec.sample();
        clock.advance(TimeSpan(1));
        rec.sample();
        // Tracked after two rounds: its samples belong to rounds 2+.
        let late = rec.track("late", MetadataKey::new(NodeId(0), "t")).unwrap();
        clock.advance(TimeSpan(1));
        rec.sample();
        let csv = rec.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time,time,late"));
        assert_eq!(lines.next(), Some("1,1,NA"));
        assert_eq!(lines.next(), Some("2,2,NA"));
        assert_eq!(lines.next(), Some("3,3,3"));
        assert_eq!(lines.next(), None);
        // Per-series views are unpadded.
        assert_eq!(rec.series(late).len(), 1);
    }

    #[test]
    fn prometheus_renders_current_values_with_labels() {
        let (clock, mgr) = setup();
        let mut rec = Recorder::new(mgr);
        rec.track("clock time", MetadataKey::new(NodeId(0), "t"))
            .unwrap();
        // Non-numeric values are skipped.
        rec.track("label", MetadataKey::new(NodeId(0), "label"))
            .unwrap();
        clock.advance(TimeSpan(7));
        let text = rec.render_prometheus();
        assert!(text.contains("# HELP streammeta_clock_time metadata item n0/t"));
        assert!(text.contains("# TYPE streammeta_clock_time gauge"));
        assert!(text.contains("streammeta_clock_time{node=\"n0\",item=\"t\"} 7"));
        assert!(!text.contains("streammeta_label"));
    }

    #[test]
    fn trace_listing_indents_by_depth() {
        use streammeta_core::{RingBufferSink, TraceEvent};
        let (_clock, mgr) = setup();
        let sink = RingBufferSink::new(16);
        mgr.set_trace_sink(Some(sink.clone()));
        let _sub = mgr.subscribe(MetadataKey::new(NodeId(0), "t")).unwrap();
        let text = render_trace(&sink.snapshot());
        assert!(text.contains("subscribe n0/t"));
        assert!(text.contains("include n0/t"));
        assert!(sink
            .snapshot()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Include { depth: 0, .. })));
    }

    #[test]
    fn track_containment_follows_the_meta_counters() {
        use streammeta_core::FallbackPolicy;
        use streammeta_time::Clock;
        let clock = VirtualClock::shared();
        let mgr = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(0));
        reg.define(
            ItemDef::periodic("flaky", TimeSpan(10))
                .fallback(FallbackPolicy {
                    max_retries: 1,
                    backoff: TimeSpan(2),
                    quarantine_after: 10,
                    cool_down: TimeSpan(100),
                })
                .compute(|_| panic!("down"))
                .build(),
        );
        mgr.attach_node(reg);
        mgr.install_meta_node(TimeSpan(10));
        let mut rec = Recorder::new(mgr.clone());
        let [retries, trips, quarantined, stale, overruns] = rec.track_containment().unwrap();
        assert_eq!(rec.label(retries), "meta_retries");
        assert_eq!(rec.label(trips), "meta_quarantine_trips");
        assert_eq!(rec.label(quarantined), "meta_quarantined");
        assert_eq!(rec.label(stale), "meta_stale_serves");
        assert_eq!(rec.label(overruns), "meta_deadline_overruns");
        let _sub = mgr.subscribe(MetadataKey::new(NodeId(0), "flaky")).unwrap();
        clock.advance(TimeSpan(20));
        mgr.periodic().advance_to(clock.now());
        rec.sample();
        // Two boundaries, one retry each: the retry gauge follows the
        // manager's counter, and the render includes the gauge.
        assert_eq!(
            rec.summary(retries).unwrap().max,
            mgr.stats().retries as f64
        );
        assert!(mgr.stats().retries > 0);
        assert!(rec
            .render_prometheus()
            .contains("streammeta_meta_retries{node="));
    }

    #[test]
    fn prometheus_exports_manager_containment_counters() {
        use streammeta_core::FallbackPolicy;
        use streammeta_time::Clock;
        let clock = VirtualClock::shared();
        let mgr = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(0));
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
        mgr.attach_node(reg);
        let rec = Recorder::new(mgr.clone());
        // Counters are exported even with no tracked series at all.
        let text = rec.render_prometheus();
        for name in [
            "streammeta_manager_retries_total",
            "streammeta_manager_quarantine_trips_total",
            "streammeta_manager_stale_serves_total",
            "streammeta_manager_deadline_overruns_total",
            "streammeta_manager_epochs_total",
            "streammeta_manager_coalesced_updates_total",
        ] {
            assert!(text.contains(&format!("# TYPE {name} counter")), "{name}");
            assert!(text.contains(&format!("\n{name} 0\n")), "{name}");
        }
        assert!(text.contains("# TYPE streammeta_manager_quarantined gauge"));
        assert!(text.contains("\nstreammeta_manager_quarantined 0\n"));
        // Drive the flaky item into quarantine; the exposition follows.
        let _sub = mgr.subscribe(MetadataKey::new(NodeId(0), "flaky")).unwrap();
        clock.advance(TimeSpan(50));
        mgr.periodic().advance_to(clock.now());
        let stats = mgr.stats();
        assert!(stats.retries > 0 && stats.quarantine_trips > 0);
        let text = rec.render_prometheus();
        assert!(text.contains(&format!(
            "streammeta_manager_retries_total {}",
            stats.retries
        )));
        assert!(text.contains(&format!(
            "streammeta_manager_quarantine_trips_total {}",
            stats.quarantine_trips
        )));
        assert!(text.contains("streammeta_manager_quarantined 1"));
    }

    #[test]
    fn observability_doc_lists_every_metric() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for def in &METRICS {
            let row = format!("| `{}` | `{}` |", def.item, manager_metric_name(def));
            assert!(doc.contains(&row), "docs/OBSERVABILITY.md lacks {row}");
        }
        // And back: every documented `meta.*` row names a live metric.
        for item in doc.lines().filter_map(|l| l.strip_prefix("| `meta.")) {
            let item = format!("meta.{}", &item[..item.find('`').unwrap_or(0)]);
            assert!(
                METRICS.iter().any(|def| def.item == item),
                "docs/OBSERVABILITY.md documents stale {item}"
            );
        }
    }

    #[test]
    fn relation_rendering_aligns_columns() {
        use streammeta_time::Clock;
        let (clock, mgr) = setup();
        let reg = NodeRegistry::new(NodeId(1));
        reg.define(
            ItemDef::periodic("rate", TimeSpan(10))
                .compute(|_| MetadataValue::F64(1.0))
                .build(),
        );
        mgr.attach_node(reg);
        let _sub = mgr.subscribe(MetadataKey::new(NodeId(1), "rate")).unwrap();
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
        let rows = mgr.catalog_rows(SystemRelation::Handlers);
        let text = render_relation(SystemRelation::Handlers, &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "sys.handlers (1 rows)");
        assert!(lines[1].starts_with("key"));
        assert!(lines[1].contains("subscriptions"));
        assert!(lines[2].starts_with("---"));
        assert!(lines[3].starts_with("n1/rate"));
        // Columns align: "key" and the first cell start at offset 0 and
        // the second column starts at the same offset in every line.
        let offset = lines[1].find("node").unwrap();
        assert!(lines[3][offset..].starts_with('1'), "{:?}", lines[3]);
        // Empty snapshots still render a header.
        let empty = render_relation(SystemRelation::Quarantine, &[]);
        assert!(empty.starts_with("sys.quarantine (0 rows)"));
        assert!(empty.contains("key  state"));
    }

    #[test]
    fn prometheus_exports_handler_latency_quantiles() {
        let (_clock, mgr) = setup();
        let rec = Recorder::new(mgr.clone());
        // Off by default: no summary family at all.
        let sub = mgr.subscribe(MetadataKey::new(NodeId(0), "t")).unwrap();
        sub.get();
        assert!(!rec
            .render_prometheus()
            .contains("streammeta_handler_compute_seconds"));
        mgr.set_latency_profiling(true);
        for _ in 0..5 {
            sub.get();
        }
        let text = rec.render_prometheus();
        assert!(text.contains("# TYPE streammeta_handler_compute_seconds summary"));
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                text.contains(&format!(
                    "streammeta_handler_compute_seconds{{node=\"n0\",item=\"t\",quantile=\"{q}\"}}"
                )),
                "missing quantile {q}:\n{text}"
            );
        }
        assert!(text.contains("streammeta_handler_compute_seconds_count{node=\"n0\",item=\"t\"} 6"));
    }

    #[test]
    fn chrome_trace_renders_one_slice_per_span_on_labelled_tracks() {
        use streammeta_core::{DepTarget, RingBufferSink, SpanSampling};
        use streammeta_time::TimeSpan;
        let clock = VirtualClock::shared();
        let mgr = MetadataManager::new(clock.clone());
        let reg = NodeRegistry::new(NodeId(1));
        reg.define(ItemDef::static_value("size", 9u64));
        reg.define(
            ItemDef::triggered("cost")
                .dep("size", DepTarget::Local("size".into()))
                .compute(|ctx| ctx.dep("size"))
                .build(),
        );
        mgr.attach_node(reg);
        let sink = RingBufferSink::new(64);
        mgr.set_trace_sink(Some(sink.clone()));
        mgr.set_span_sampling(SpanSampling::Ratio(1));
        mgr.set_trace_thread_ids(true);
        mgr.label_trace_thread("test-main");
        let _sub = mgr.subscribe(MetadataKey::new(NodeId(1), "cost")).unwrap();
        clock.advance(TimeSpan(3));
        mgr.notify_changed(MetadataKey::new(NodeId(1), "size"));
        let labels = mgr.trace_thread_labels();
        let json = render_chrome_trace(&sink.snapshot(), &labels);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"test-main\""));
        // The source update and its propagation hop each render exactly
        // one slice, linked by span/parent args.
        assert!(json.contains("\"name\":\"source_update\""));
        assert!(json.contains("\"name\":\"propagation_step n1/cost\""));
        let slices = json.matches("\"ph\":\"X\"").count();
        let spans: std::collections::BTreeSet<u64> = sink
            .snapshot()
            .iter()
            .filter_map(|r| r.span.as_ref().map(|s| s.span))
            .collect();
        assert_eq!(slices, spans.len());
    }

    /// The unsigned integer after the first `"name":` in `text`.
    fn json_u64(text: &str, name: &str) -> u64 {
        let rest = &text[text.find(&format!("\"{name}\":")).expect(name) + name.len() + 3..];
        let end = rest.find(|c: char| !c.is_ascii_digit());
        rest[..end.unwrap_or(rest.len())].parse().unwrap()
    }

    #[test]
    fn sys_spans_and_chrome_slices_agree_on_every_span() {
        use std::collections::BTreeMap;
        use std::sync::atomic::{AtomicBool, Ordering};
        use streammeta_core::{EpochConfig, EventKey, FallbackPolicy, PropagationMode};
        use streammeta_core::{SpanSampling, SystemRelation};
        use streammeta_time::Clock;
        let (clock, mgr) = setup();
        let reg = NodeRegistry::new(NodeId(1));
        // A `ticks` recompute takes two time units, so its hops have extent.
        let c = clock.clone();
        reg.define(
            ItemDef::triggered("ticks")
                .on_event("tick")
                .compute(move |ctx| {
                    c.advance(TimeSpan(2));
                    MetadataValue::U64(ctx.now().units())
                })
                .build(),
        );
        reg.define(
            ItemDef::periodic("rate", TimeSpan(10))
                .compute(|ctx| MetadataValue::U64(ctx.now().units()))
                .build(),
        );
        // `flaky` fails while `broken` is set; its policy retries 10 later.
        let broken = Arc::new(AtomicBool::new(false));
        let b = broken.clone();
        reg.define(
            ItemDef::triggered("flaky")
                .on_event("poke")
                .fallback(FallbackPolicy::conservative())
                .compute(move |ctx| match b.load(Ordering::SeqCst) {
                    false => MetadataValue::U64(ctx.now().units()),
                    true => MetadataValue::Unavailable,
                })
                .build(),
        );
        mgr.attach_node(reg);
        let ring = mgr.enable_catalog_trace(1024);
        mgr.set_span_sampling(SpanSampling::Ratio(1));
        let key = |item| MetadataKey::new(NodeId(1), item);
        let fire = |event| mgr.fire_event(EventKey::new(NodeId(1), event));
        // Sampled subscribes; the observer makes `ticks` hops notify too.
        let _ticks = mgr.subscribe_with(key("ticks"), |_| {}).unwrap();
        let _rate = mgr.subscribe(key("rate")).unwrap();
        let _flaky = mgr.subscribe(key("flaky")).unwrap();
        fire("tick"); // a per-event sweep
        broken.store(true, Ordering::SeqCst);
        fire("poke"); // fails, then retries past the periodic boundary
        broken.store(false, Ordering::SeqCst);
        clock.advance(TimeSpan(10));
        mgr.periodic().advance_to(clock.now());
        mgr.set_propagation_mode(PropagationMode::Epoch(EpochConfig {
            max_batch: usize::MAX,
            max_delay: TimeSpan(u64::MAX),
        }));
        fire("tick");
        fire("tick");
        mgr.flush_epoch();

        let records = ring.snapshot();
        let rows = mgr.catalog_rows(SystemRelation::Spans);
        assert_eq!((ring.len(), ring.dropped()), (records.len(), 0));
        let has = |kind: &str, item: &str| {
            rows.iter().any(|r| {
                r[5].as_text() == Some(kind) && r[4].as_text().unwrap_or("").ends_with(item)
            })
        };
        for kind in ["subscribe", "include", "source_update", "epoch_flushed"] {
            assert!(has(kind, ""), "no {kind} span");
        }
        assert!(has("periodic_fired", "rate"));
        // The sweep hop stored, notified, then stepped: it closes last.
        assert!(has("propagation_step", "ticks"));
        // The failing sweep hop's retry (depth 2) closes at its store.
        assert!(rows
            .iter()
            .any(|r| { r[5].as_text() == Some("value_stored") && r[6].as_u64() == Some(2) }));

        let time = |v: &MetadataValue| match v {
            MetadataValue::Time(t) => t.units(),
            other => panic!("not a time: {other:?}"),
        };
        let catalog: BTreeMap<u64, (u64, u64, u64)> = rows
            .iter()
            .map(|r| {
                let hop = (
                    r[1].as_u64().unwrap(),
                    time(&r[7]),
                    r[9].as_span().unwrap().0,
                );
                (r[0].as_u64().unwrap(), hop)
            })
            .collect();
        assert_eq!(catalog.len(), rows.len(), "a span id repeats in sys.spans");
        assert!(catalog.values().any(|&(_, _, duration)| duration > 0));
        let json = render_chrome_trace(&records, &BTreeMap::new());
        let chrome: BTreeMap<u64, (u64, u64, u64)> = json
            .split("\"ph\":\"X\"")
            .skip(1)
            .map(|x| {
                let hop = (json_u64(x, "parent"), json_u64(x, "ts"), json_u64(x, "dur"));
                (json_u64(x, "span"), hop)
            })
            .collect();
        assert_eq!(catalog, chrome);
    }

    #[test]
    fn empty_summary_is_none() {
        let (_clock, mgr) = setup();
        let mut rec = Recorder::new(mgr);
        let idx = rec.track("t", MetadataKey::new(NodeId(0), "t")).unwrap();
        assert!(rec.summary(idx).is_none());
        assert!(!rec.is_empty());
        assert_eq!(rec.len(), 1);
    }
}
