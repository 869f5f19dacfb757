//! Trace bus: structured observability events for the metadata framework
//! itself.
//!
//! The manager narrates its own lifecycle — subscriptions, the automatic
//! DFS inclusion/exclusion of dependencies (Section 2.4 of the paper),
//! trigger-propagation rounds (Section 3.2.3), periodic firings and
//! compute failures — to an installed [`TraceSink`]. With no sink
//! installed the hot path pays a single relaxed atomic load; event
//! construction is behind that gate.
//!
//! This module is also the trace's JSONL codec, the only code that knows
//! the wire format: [`TraceRecord::to_json`] / [`to_jsonl`] write it and
//! [`TraceRecord::from_json`] / [`parse_jsonl`] read it back, both
//! derived from the one declaration of the event kinds below.

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use streammeta_time::{TimeSpan, Timestamp};

use crate::{DepSource, Mechanism, MetadataKey};

/// Sampling policy for causal lineage spans (see [`SpanContext`]).
///
/// Like the trace gate, the decision is one relaxed atomic load on the
/// hot path: with `Off` (the default) no span is ever minted and
/// propagation pays nothing beyond that load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanSampling {
    /// No spans are minted (the default).
    #[default]
    Off,
    /// One of every `n` source updates mints a root span and carries
    /// lineage through its whole cascade. `Ratio(1)` traces everything.
    Ratio(u64),
}

/// Causal span context carried by a [`TraceRecord`].
///
/// A *root* span (`parent == None`, `roots == [span]`) is minted per
/// sampled source update — a `fire_event`/`notify_changed` call, a
/// periodic firing, or a subscription — and every downstream hop
/// (propagation recompute, retry, quarantine trip, observer
/// notification) gets a child span whose `parent` is the hop it was
/// caused by. In epoch propagation mode several coalesced source
/// updates feed one recompute, so `roots` lists *all* contributing root
/// span ids (sorted, deduplicated); in per-event mode it has exactly
/// one element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanContext {
    /// This hop's span id (unique per manager, minted from 1).
    pub span: u64,
    /// The causing hop's span id; `None` for root spans.
    pub parent: Option<u64>,
    /// Root span ids (trace ids) this hop descends from — more than one
    /// when coalesced epoch updates merged several cascades.
    pub roots: Vec<u64>,
    /// Hop count below the root (root = 0).
    pub depth: u32,
    /// When the hop started (the record's `at` is when it was emitted,
    /// i.e. the hop's end).
    pub start: Timestamp,
}

impl SpanContext {
    /// A root span: its own id is the trace id.
    pub fn root(span: u64, start: Timestamp) -> Self {
        SpanContext {
            span,
            parent: None,
            roots: vec![span],
            depth: 0,
            start,
        }
    }

    /// A child hop of `self` with a freshly minted id, inheriting the
    /// root set.
    pub fn child(&self, span: u64, start: Timestamp) -> Self {
        SpanContext {
            span,
            parent: Some(self.span),
            roots: self.roots.clone(),
            depth: self.depth + 1,
            start,
        }
    }
}

/// The codec of a declared field: the type after `as`, else the field's
/// own type.
macro_rules! codec {
    ($ty:ty as $codec:ty) => {
        $codec
    };
    ($ty:ty) => {
        $ty
    };
}

/// Per-field steps of the derived `key()` and `Display`: the field named
/// `key` is the item the event concerns and shows bare; every other
/// field shows as ` name=value`.
macro_rules! trace_field {
    (key_of $found:ident, key, $v:ident) => {
        $found = Some($v)
    };
    (key_of $found:ident, $name:ident, $v:ident) => {
        let _ = $v;
    };
    (show $f:ident, key, $v:ident) => {
        write!($f, " {}", $v)?
    };
    (show $f:ident, $name:ident, $v:ident) => {
        write!($f, concat!(" ", stringify!($name), "={}"), $v)?
    };
}

/// Declares [`TraceEvent`] once: each variant's kind string and its
/// fields in JSONL order, each read and written by its field type's
/// [`Codec`] (or the one named after `as`). `kind()`, `key()`, the JSONL
/// encoder and decoder and `Display` (`kind[ key]( name=value)*`) are
/// all derived from this one listing. A `key` field must come first, so
/// that it follows `event` in every JSONL line.
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty $(as $codec:ty)?,)*
        }
    )*) => {
        /// One structured event on the trace bus.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl TraceEvent {
            /// Every kind with its own JSONL field names, in order.
            #[cfg(test)]
            const SCHEMA: &'static [(&'static str, &'static [&'static str])] =
                &[$(($kind, &[$(stringify!($field)),*]),)*];

            /// Short machine-readable event name (the JSONL `event` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $kind,)*
                }
            }

            /// The item the event concerns, if any (manager-wide events like
            /// [`TraceEvent::EpochFlushed`] have none).
            pub fn key(&self) -> Option<&MetadataKey> {
                let mut found = None;
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(trace_field!(key_of found, $field, $field);)*
                    })*
                }
                found
            }

            /// Appends the event's own fields to a JSONL object.
            fn encode(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(put::<codec!($ty $(as $codec)?)>(out, stringify!($field), $field);)*
                    })*
                }
            }

            /// Rebuilds an event of kind `kind` from a parsed JSONL object.
            fn decode(kind: &str, obj: &JsonObject) -> Result<Self, String> {
                Ok(match kind {
                    $($kind => TraceEvent::$variant {
                        $($field: get::<codec!($ty $(as $codec)?)>(obj, stringify!($field))?,)*
                    },)*
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }

            /// An event of a random kind with random field values.
            #[cfg(test)]
            fn arbitrary(rng: &mut proptest::TestRng) -> Self {
                let kinds: &[fn(&mut proptest::TestRng) -> TraceEvent] = &[$(|_rng| {
                    TraceEvent::$variant {
                        $($field: <codec!($ty $(as $codec)?) as tests::Arbitrary>::arbitrary(_rng),)*
                    }
                }),*];
                kinds[rng.below(kinds.len() as u64) as usize](rng)
            }
        }

        impl fmt::Display for TraceEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.kind())?;
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(trace_field!(show f, $field, $field);)*
                    })*
                }
                Ok(())
            }
        }
    };
}

trace_events! {
    /// An external subscription request arrived for `key`.
    Subscribe = "subscribe" {
        /// The requested item.
        key: MetadataKey,
    }
    /// An external unsubscription arrived for `key`.
    Unsubscribe = "unsubscribe" {
        /// The released item.
        key: MetadataKey,
    }
    /// The inclusion DFS materialised a handler for `key`.
    Include = "include" {
        /// The included item.
        key: MetadataKey,
        /// The item's provision mechanism (a [`Mechanism::label`]).
        mechanism: &'static str as Mechanism,
        /// Dependency depth below the subscription root (root = 0).
        depth: usize,
    }
    /// Exclusion dropped the handler of `key`.
    Exclude = "exclude" {
        /// The excluded item.
        key: MetadataKey,
        /// Handlers still alive after this drop.
        remaining: usize,
    }
    /// One handler was recomputed during a trigger-propagation round.
    PropagationStep = "propagation_step" {
        /// The recomputed item.
        key: MetadataKey,
        /// Identifier of the propagation round (monotone per manager).
        round: u64,
        /// Distance from the origin in the inverted dependency graph.
        depth: usize,
        /// Whether the recomputation changed the stored value.
        changed: bool,
    }
    /// A periodic handler fired at a window boundary.
    PeriodicFired = "periodic_fired" {
        /// The refreshed item.
        key: MetadataKey,
        /// The scheduled window boundary.
        boundary: Timestamp,
        /// The actual instant the refresh ran.
        fired_at: Timestamp,
        /// Whether the refresh ran a full window late (deadline miss).
        missed: bool,
    }
    /// A compute function panicked; the value became `Unavailable`.
    ComputeFailed = "compute_failed" {
        /// The failing item.
        key: MetadataKey,
    }
    /// An evaluation overran its declared compute budget.
    DeadlineExceeded = "deadline_exceeded" {
        /// The slow item.
        key: MetadataKey,
        /// The declared budget.
        budget: TimeSpan,
        /// The measured evaluation time.
        elapsed: TimeSpan,
    }
    /// A failed evaluation scheduled a backoff retry.
    RetryScheduled = "retry_scheduled" {
        /// The failing item.
        key: MetadataKey,
        /// Retry number within the current failure episode (1-based).
        attempt: u32,
        /// Delay until the retry fires.
        delay: TimeSpan,
    }
    /// Repeated failures tripped the quarantine circuit breaker.
    QuarantineTripped = "quarantine_tripped" {
        /// The quarantined item.
        key: MetadataKey,
        /// When the cool-down ends and the recovery probe runs.
        until: Timestamp,
    }
    /// A quarantined item's recovery probe succeeded.
    QuarantineRecovered = "quarantine_recovered" {
        /// The recovered item.
        key: MetadataKey,
    }
    /// A refresh stored a changed value (the version is the handler's
    /// monotone store counter — the tracelint T1 monotonicity witness).
    ValueStored = "value_stored" {
        /// The updated item.
        key: MetadataKey,
        /// The stored value's version.
        version: u64,
    }
    /// A sampled source update minted a root span: the anchor every
    /// downstream hop's lineage must resolve to (tracelint rule T8).
    /// Emitted once per sampled `fire_event` / `notify_changed` call,
    /// before the update is swept (per-event mode) or enqueued (epoch
    /// mode).
    SourceUpdate = "source_update" {
        /// The updated source, rendered (`n1/rate` item or `n1!tick`
        /// event).
        origin: String,
        /// The source's kind, a [`DepSource::kind`]: `"item"` or
        /// `"event"`.
        origin_kind: &'static str as DepSource,
    }
    /// A stored value change was delivered to push observers — the end
    /// of a causal cascade, and the event whose lineage tracelint T8
    /// verifies back to a [`TraceEvent::SourceUpdate`] anchor.
    Notified = "notified" {
        /// The updated item.
        key: MetadataKey,
        /// The delivered value's version.
        version: u64,
        /// Observers the snapshot was delivered to.
        observers: usize,
    }
    /// An epoch flush swept a batch of coalesced source updates
    /// (epoch propagation mode only; the per-item recomputations still
    /// emit their own [`TraceEvent::PropagationStep`] records).
    EpochFlushed = "epoch_flushed" {
        /// Identifier of the epoch (monotone per manager).
        epoch: u64,
        /// Distinct source updates swept by this epoch.
        origins: usize,
        /// Handlers recomputed by the sweep.
        recomputed: usize,
        /// Deepest recomputed handler's BFS distance from its origin.
        max_depth: usize,
    }
}

/// One sequenced, timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Per-manager emission sequence number.
    pub seq: u64,
    /// Clock instant of emission.
    pub at: Timestamp,
    /// The event.
    pub event: TraceEvent,
    /// Causal lineage, when span sampling caught this hop.
    pub span: Option<SpanContext>,
    /// Compact emitting-thread id (assigned first-sight per manager),
    /// when [`crate::MetadataManager::set_trace_thread_ids`] is on — the
    /// Chrome-trace exporter's flame track.
    pub tid: Option<u64>,
    /// Partition id of the emitting manager, when it is part of a
    /// [`crate::PartitionedMetadataPlane`] (see
    /// [`crate::MetadataManager::set_trace_partition`]). Merged
    /// multi-partition traces key per-item lint state by
    /// `(part, key)`.
    pub part: Option<u64>,
}

impl TraceRecord {
    /// A record with no span context, thread id or partition tag.
    pub fn new(seq: u64, at: Timestamp, event: TraceEvent) -> Self {
        TraceRecord {
            seq,
            at,
            event,
            span: None,
            tid: None,
            part: None,
        }
    }

    /// The record as one JSON object (a JSONL line, without the newline):
    /// `seq`, `at`, `event`, the event's own fields, then the span fields
    /// (`span`, `parent`, `roots`, `span_depth`, `span_start`), `tid` and
    /// `part` when present.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"at\":{},\"event\":\"{}\"",
            self.seq,
            self.at.units(),
            self.event.kind()
        );
        self.event.encode(&mut out);
        if let Some(span) = &self.span {
            put::<u64>(&mut out, "span", &span.span);
            put_opt::<u64>(&mut out, "parent", &span.parent);
            put::<Vec<u64>>(&mut out, "roots", &span.roots);
            put::<u32>(&mut out, "span_depth", &span.depth);
            put::<Timestamp>(&mut out, "span_start", &span.start);
        }
        put_opt::<u64>(&mut out, "tid", &self.tid);
        put_opt::<u64>(&mut out, "part", &self.part);
        out.push('}');
        out
    }

    /// Parses one line written by [`Self::to_json`]; fields may come in
    /// any order and unknown fields are ignored.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let obj = parse_object(line)?;
        let span = match get_opt::<u64>(&obj, "span")? {
            Some(span) => Some(SpanContext {
                span,
                parent: get_opt::<u64>(&obj, "parent")?,
                roots: get::<Vec<u64>>(&obj, "roots")?,
                depth: get::<u32>(&obj, "span_depth")?,
                start: get::<Timestamp>(&obj, "span_start")?,
            }),
            None => None,
        };
        Ok(TraceRecord {
            seq: get::<u64>(&obj, "seq")?,
            at: get::<Timestamp>(&obj, "at")?,
            event: TraceEvent::decode(&get::<String>(&obj, "event")?, &obj)?,
            span,
            tid: get_opt::<u64>(&obj, "tid")?,
            part: get_opt::<u64>(&obj, "part")?,
        })
    }
}

/// Renders records as JSON Lines, one [`TraceRecord::to_json`] object
/// per line: the inverse of [`parse_jsonl`].
pub fn to_jsonl<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    records.into_iter().map(|r| r.to_json() + "\n").collect()
}

/// Parses a JSONL export (as [`to_jsonl`] and [`RotatingFileSink`] write
/// it) back into records, skipping blank lines. Reports the 1-based line
/// number of the first malformed line.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceRecord>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            TraceRecord::from_json(line.trim()).map_err(|e| format!("line {}: {e}", idx + 1))
        })
        .collect()
}

/// A string written as a quoted JSON string literal, with `"`, `\` and
/// every control character escaped. Everything in the workspace that
/// writes a JSON string writes it through this.
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// One scalar value of a flat JSON object: an unescaped string, or a
/// number or boolean as written.
struct JsonVal {
    quoted: bool,
    text: String,
}

impl JsonVal {
    /// The value's text, if it is quoted the way the field type is.
    fn text(&self, quoted: bool) -> Result<&str, String> {
        if self.quoted != quoted {
            let found = if self.quoted { "string" } else { "bare value" };
            return Err(format!("unexpected {found} `{}`", self.text));
        }
        Ok(&self.text)
    }
}

type JsonObject = HashMap<String, JsonVal>;

/// How the values of one field type travel in a JSONL line. Every
/// [`TraceEvent`] and [`TraceRecord`] field is written and read through
/// its type's codec.
trait Codec {
    /// The field type.
    type Value;
    /// Appends `v` as a JSON value.
    fn encode(v: &Self::Value, out: &mut String);
    /// Reads a value back, or says why `v` is not one.
    fn decode(v: &JsonVal) -> Result<Self::Value, String>;
}

/// Written with `Display` and read with `FromStr`: numbers and booleans
/// bare, keys (`n<node>/<path>`) and strings quoted.
macro_rules! text_codec {
    ($($ty:ty => $quoted:literal,)*) => {$(
        impl Codec for $ty {
            type Value = $ty;
            fn encode(v: &$ty, out: &mut String) {
                let _ = if $quoted {
                    write!(out, "{}", JsonStr(&v.to_string()))
                } else {
                    write!(out, "{v}")
                };
            }
            fn decode(v: &JsonVal) -> Result<$ty, String> {
                let text = v.text($quoted)?;
                text.parse().map_err(|e| format!("`{text}`: {e}"))
            }
        }
    )*};
}

text_codec! {
    u64 => false,
    usize => false,
    u32 => false,
    bool => false,
    String => true,
    MetadataKey => true,
}

/// Clock values: their `units()` as a bare number.
macro_rules! time_codec {
    ($($ty:ident),*) => {$(
        impl Codec for $ty {
            type Value = $ty;
            fn encode(v: &$ty, out: &mut String) {
                u64::encode(&v.units(), out);
            }
            fn decode(v: &JsonVal) -> Result<$ty, String> {
                u64::decode(v).map($ty)
            }
        }
    )*};
}

time_codec!(Timestamp, TimeSpan);

/// Label fields: one of the owner type's `'static` labels, quoted.
macro_rules! label_codec {
    ($($owner:ty: $labels:expr;)*) => {$(
        impl Codec for $owner {
            type Value = &'static str;
            fn encode(v: &&'static str, out: &mut String) {
                let _ = write!(out, "{}", JsonStr(v));
            }
            fn decode(v: &JsonVal) -> Result<&'static str, String> {
                let text = v.text(true)?;
                $labels
                    .into_iter()
                    .find(|label| *label == text)
                    .ok_or_else(|| format!("unknown label `{text}`"))
            }
        }
    )*};
}

label_codec! {
    Mechanism: Mechanism::LABELS;
    DepSource: DepSource::KINDS;
}

/// Span roots: one comma-separated string (`"1,4"`), since the flat
/// JSONL dialect has scalar values only.
impl Codec for Vec<u64> {
    type Value = Vec<u64>;
    fn encode(v: &Vec<u64>, out: &mut String) {
        let roots: Vec<String> = v.iter().map(u64::to_string).collect();
        let _ = write!(out, "\"{}\"", roots.join(","));
    }
    fn decode(v: &JsonVal) -> Result<Vec<u64>, String> {
        v.text(true)?
            .split(',')
            .filter(|root| !root.is_empty())
            .map(|root| root.parse().map_err(|_| format!("bad root id `{root}`")))
            .collect()
    }
}

/// Appends `,"name":value`.
fn put<C: Codec>(out: &mut String, name: &str, v: &C::Value) {
    let _ = write!(out, ",\"{name}\":");
    C::encode(v, out);
}

/// Appends `,"name":value` when `v` is present.
fn put_opt<C: Codec>(out: &mut String, name: &str, v: &Option<C::Value>) {
    if let Some(v) = v {
        put::<C>(out, name, v);
    }
}

/// Reads the field `name`, which must be present.
fn get<C: Codec>(obj: &JsonObject, name: &str) -> Result<C::Value, String> {
    get_opt::<C>(obj, name)?.ok_or_else(|| format!("missing field `{name}`"))
}

/// Reads the field `name`, if present.
fn get_opt<C: Codec>(obj: &JsonObject, name: &str) -> Result<Option<C::Value>, String> {
    obj.get(name)
        .map(|v| C::decode(v).map_err(|e| format!("field `{name}`: {e}")))
        .transpose()
}

/// Parses one flat JSON object: string, number and boolean values only,
/// which is all the trace dialect uses.
fn parse_object(line: &str) -> Result<JsonObject, String> {
    let separator = |c: char| c == ',' || c.is_whitespace();
    let mut rest = line
        .strip_prefix('{')
        .and_then(|body| body.strip_suffix('}'))
        .ok_or("not a JSON object")?
        .trim_start_matches(separator);
    let mut map = HashMap::new();
    while !rest.is_empty() {
        let (name, after) = parse_string(rest)?;
        rest = after
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after `{name}`"))?
            .trim_start();
        let (val, after) = if rest.starts_with('"') {
            let (text, after) = parse_string(rest)?;
            (JsonVal { quoted: true, text }, after)
        } else {
            let end = rest.find(separator).unwrap_or(rest.len());
            let text = &rest[..end];
            let number = !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit());
            if !(number || text == "true" || text == "false") {
                return Err(format!("bad value `{text}` for `{name}`"));
            }
            let text = text.to_string();
            (
                JsonVal {
                    quoted: false,
                    text,
                },
                &rest[end..],
            )
        };
        map.insert(name, val);
        rest = after.trim_start_matches(separator);
    }
    Ok(map)
}

/// Parses the quoted JSON string `s` starts with, returning its unescaped
/// content and the rest of `s`.
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let body = s.strip_prefix('"').ok_or("expected a quoted name")?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .ok()
                        .filter(|_| hex.len() == 4)
                        .ok_or("bad \\u escape")?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err("bad escape".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// Receives trace records from a [`crate::MetadataManager`].
///
/// Implementations must be cheap and non-blocking — records are emitted
/// from inside subscription and propagation paths, under a read lock of
/// the manager's sink slot, so a sink must not install or remove a
/// manager's trace sink itself.
pub trait TraceSink: Send + Sync {
    /// Accepts one record.
    fn record(&self, record: TraceRecord);
}

/// A bounded in-memory trace sink: keeps the most recent `capacity`
/// records, counting the ones it had to evict.
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl RingBufferSink {
    /// A ring buffer holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(RingBufferSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        })
    }

    /// Maximum retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// The most recent `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let buf = self.buf.lock();
        let skip = buf.len().saturating_sub(n);
        buf.iter().skip(skip).cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Discards all retained records (the drop counter is kept).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }

    /// The retained records as JSON Lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(self.buf.lock().iter())
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, record: TraceRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }
}

/// A bounded-file JSONL trace sink with rotation.
///
/// [`RingBufferSink`] silently evicts once wrapped, so a long chaos run
/// lints an incomplete trace. This sink streams every record to
/// `path` as JSON Lines and, when the active file exceeds `max_bytes`,
/// rotates it to `<path>.1` (overwriting any previous rotation) and
/// starts a fresh file — so the two files together always hold the most
/// recent window *without gaps inside it*, and no record is dropped
/// mid-file. The rotation count is exported through the `sys.trace`
/// catalog relation.
pub struct RotatingFileSink {
    path: std::path::PathBuf,
    max_bytes: u64,
    state: Mutex<FileState>,
    rotations: AtomicU64,
    records: AtomicU64,
}

struct FileState {
    file: std::fs::File,
    written: u64,
}

impl RotatingFileSink {
    /// Creates (truncating) `path` and writes JSONL records to it,
    /// rotating to `<path>.1` whenever the active file would exceed
    /// `max_bytes` (at least 4 KiB).
    pub fn create(
        path: impl Into<std::path::PathBuf>,
        max_bytes: u64,
    ) -> std::io::Result<Arc<Self>> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(Arc::new(RotatingFileSink {
            path,
            max_bytes: max_bytes.max(4096),
            state: Mutex::new(FileState { file, written: 0 }),
            rotations: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }))
    }

    /// The active file's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// The rotated file's path (`<path>.1`), whether or not it exists yet.
    pub fn rotated_path(&self) -> std::path::PathBuf {
        let mut os = self.path.as_os_str().to_owned();
        os.push(".1");
        std::path::PathBuf::from(os)
    }

    /// How many times the active file has been rotated out.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Total records written across all rotations.
    pub fn records_written(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Flushes OS buffers on the active file.
    pub fn flush(&self) -> std::io::Result<()> {
        use std::io::Write;
        self.state.lock().file.flush()
    }

    /// Reads the full retained trace back (rotated file first, then the
    /// active one), as JSONL.
    pub fn read_retained(&self) -> std::io::Result<String> {
        let _guard = self.state.lock();
        let mut out = String::new();
        if let Ok(older) = std::fs::read_to_string(self.rotated_path()) {
            out.push_str(&older);
        }
        out.push_str(&std::fs::read_to_string(&self.path)?);
        Ok(out)
    }
}

impl TraceSink for RotatingFileSink {
    fn record(&self, record: TraceRecord) {
        use std::io::Write;
        let line = record.to_json();
        let mut state = self.state.lock();
        if state.written > 0 && state.written + line.len() as u64 + 1 > self.max_bytes {
            // Rotate: flush, move aside, reopen. Failures degrade to
            // keeping the current file (the sink must never panic on the
            // propagation path): a failed rename leaves the active file
            // in place, so it must not be truncated by reopening it.
            let _ = state.file.flush();
            if std::fs::rename(&self.path, self.rotated_path()).is_ok() {
                if let Ok(fresh) = std::fs::File::create(&self.path) {
                    state.file = fresh;
                    state.written = 0;
                    self.rotations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if writeln!(state.file, "{line}").is_ok() {
            state.written += line.len() as u64 + 1;
            self.records.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Folds a trace into its finished spans: one record per span id, the
/// last record carrying that id (a hop can emit several — stored, then
/// notified — and the last one marks its completion), ordered by span
/// id. Every span view (`sys.spans`, the Chrome exporter) closes its
/// spans with this one rule.
pub fn finished_spans(records: &[TraceRecord]) -> Vec<&TraceRecord> {
    let mut last = std::collections::BTreeMap::new();
    for r in records {
        if let Some(ctx) = &r.span {
            last.insert(ctx.span, r);
        }
    }
    last.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord::new(seq, Timestamp(seq), event)
    }

    fn key(path: &str) -> MetadataKey {
        MetadataKey::new(NodeId(1), path)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let sink = RingBufferSink::new(2);
        for i in 0..4 {
            sink.record(rec(i, TraceEvent::Subscribe { key: key("a") }));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 2);
        let snap = sink.snapshot();
        assert_eq!(snap[0].seq, 2);
        assert_eq!(snap[1].seq, 3);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn rotating_file_sink_rotates_without_gaps() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rot_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        // Each line is ~60 bytes; write enough to force >1 rotation.
        for i in 0..200 {
            sink.record(rec(i, TraceEvent::Subscribe { key: key("a") }));
        }
        sink.flush().unwrap();
        assert!(sink.rotations() >= 1, "expected at least one rotation");
        assert_eq!(sink.records_written(), 200);
        // The retained window (rotated + active) is contiguous: seqs
        // strictly increase line over line and end at the last record.
        let retained = sink.read_retained().unwrap();
        let seqs: Vec<u64> = retained
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"seq\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "gap in window");
        assert_eq!(*seqs.last().unwrap(), 199);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_boundary_keeps_the_exact_fit_line_in_one_file() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rotb_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        // A key long enough that a fixed number of identical lines fills
        // the minimum file size exactly.
        let line_len = rec(0, TraceEvent::Subscribe { key: key("a") })
            .to_json()
            .len();
        let pad = 512 - (line_len + 1);
        let long_key = key(&format!("a{}", "x".repeat(pad)));
        let one = |seq: u64| {
            rec(
                seq,
                TraceEvent::Subscribe {
                    key: long_key.clone(),
                },
            )
        };
        assert_eq!(one(0).to_json().len() + 1, 512, "line length is exact");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        // Eight 512-byte lines land exactly on the 4096-byte limit: the
        // eighth fits (written + len + 1 == max_bytes is not over) and
        // must NOT rotate — it stays wholly in the active file.
        for i in 0..8 {
            sink.record(one(i));
        }
        sink.flush().unwrap();
        assert_eq!(sink.rotations(), 0, "exact fit must not rotate");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4096,
            "active file filled to the limit"
        );
        assert!(!sink.rotated_path().exists());
        // The ninth line overflows: rotate first, then write — the line
        // appears exactly once, wholly in the fresh active file.
        sink.record(one(8));
        sink.flush().unwrap();
        assert_eq!(sink.rotations(), 1);
        let active = std::fs::read_to_string(&path).unwrap();
        let rotated = std::fs::read_to_string(sink.rotated_path()).unwrap();
        assert_eq!(active.lines().count(), 1);
        assert_eq!(rotated.lines().count(), 8);
        assert!(active.contains("\"seq\":8"));
        assert!(!rotated.contains("\"seq\":8"), "boundary line duplicated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_under_concurrent_writers_never_tears_a_line() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rotc_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        let per_thread = 200u64;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        sink.record(rec(
                            t * per_thread + i,
                            TraceEvent::ValueStored {
                                key: key("concurrent"),
                                version: i + 1,
                            },
                        ));
                    }
                });
            }
        });
        sink.flush().unwrap();
        assert_eq!(sink.records_written(), 4 * per_thread);
        assert!(sink.rotations() >= 1, "workload must rotate");
        // Every retained line is a complete JSONL object — rotation must
        // never interleave two writers' partial lines.
        let retained = sink.read_retained().unwrap();
        let mut lines = 0usize;
        for line in retained.lines() {
            assert!(
                line.starts_with("{\"seq\":") && line.ends_with('}'),
                "torn line: {line:?}"
            );
            assert!(
                line.contains("\"event\":\"value_stored\""),
                "torn line: {line:?}"
            );
            lines += 1;
        }
        assert!(lines > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rotation_keeps_appending_to_the_active_file() {
        let dir = std::env::temp_dir().join(format!(
            "streammeta_rotf_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = RotatingFileSink::create(&path, 4096).unwrap();
        // A directory in the rotated file's place makes every rename fail.
        std::fs::create_dir_all(sink.rotated_path()).unwrap();
        for i in 0..200 {
            sink.record(rec(i, TraceEvent::Subscribe { key: key("a") }));
        }
        sink.flush().unwrap();
        assert_eq!(sink.rotations(), 0, "no rotation happened");
        assert_eq!(sink.records_written(), 200);
        let active = std::fs::read_to_string(&path).unwrap();
        let seqs: Vec<u64> = parse_jsonl(&active)
            .unwrap()
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>(), "no record lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each of the 15 kinds with its exact JSONL line and `Display` text.
    #[test]
    fn codec_golden_every_kind() {
        let root = SpanContext::root(4, Timestamp(1));
        assert_eq!(root.roots, vec![4]);
        let child = root.child(9, Timestamp(2));
        assert_eq!(child.parent, Some(4));
        assert_eq!(child.roots, vec![4]);
        assert_eq!(child.depth, 1);
        let mut stored = rec(
            11,
            TraceEvent::ValueStored {
                key: key("rate"),
                version: 17,
            },
        );
        stored.part = Some(5);
        let mut source = rec(
            12,
            TraceEvent::SourceUpdate {
                origin: "n1!tick".into(),
                origin_kind: "event",
            },
        );
        source.span = Some(root);
        let mut notified = rec(
            13,
            TraceEvent::Notified {
                key: key("rate"),
                version: 3,
                observers: 2,
            },
        );
        notified.span = Some(SpanContext {
            span: 12,
            parent: Some(7),
            roots: vec![1, 4],
            depth: 2,
            start: Timestamp(5),
        });
        notified.tid = Some(1);
        let golden = [
            (
                rec(0, TraceEvent::Subscribe { key: key("a") }),
                r#"{"seq":0,"at":0,"event":"subscribe","key":"n1/a"}"#,
                "subscribe n1/a",
            ),
            (
                rec(1, TraceEvent::Unsubscribe { key: key("a") }),
                r#"{"seq":1,"at":1,"event":"unsubscribe","key":"n1/a"}"#,
                "unsubscribe n1/a",
            ),
            (
                rec(
                    2,
                    TraceEvent::Include {
                        key: key("rate"),
                        mechanism: "periodic",
                        depth: 2,
                    },
                ),
                r#"{"seq":2,"at":2,"event":"include","key":"n1/rate","mechanism":"periodic","depth":2}"#,
                "include n1/rate mechanism=periodic depth=2",
            ),
            (
                rec(
                    3,
                    TraceEvent::Exclude {
                        key: key("x"),
                        remaining: 3,
                    },
                ),
                r#"{"seq":3,"at":3,"event":"exclude","key":"n1/x","remaining":3}"#,
                "exclude n1/x remaining=3",
            ),
            (
                rec(
                    4,
                    TraceEvent::PropagationStep {
                        key: key("x"),
                        round: 3,
                        depth: 2,
                        changed: true,
                    },
                ),
                r#"{"seq":4,"at":4,"event":"propagation_step","key":"n1/x","round":3,"depth":2,"changed":true}"#,
                "propagation_step n1/x round=3 depth=2 changed=true",
            ),
            (
                rec(
                    5,
                    TraceEvent::PeriodicFired {
                        key: key("rate"),
                        boundary: Timestamp(100),
                        fired_at: Timestamp(105),
                        missed: false,
                    },
                ),
                r#"{"seq":5,"at":5,"event":"periodic_fired","key":"n1/rate","boundary":100,"fired_at":105,"missed":false}"#,
                "periodic_fired n1/rate boundary=100 fired_at=105 missed=false",
            ),
            (
                rec(6, TraceEvent::ComputeFailed { key: key("rate") }),
                r#"{"seq":6,"at":6,"event":"compute_failed","key":"n1/rate"}"#,
                "compute_failed n1/rate",
            ),
            (
                rec(
                    7,
                    TraceEvent::DeadlineExceeded {
                        key: key("rate"),
                        budget: TimeSpan(5),
                        elapsed: TimeSpan(9),
                    },
                ),
                r#"{"seq":7,"at":7,"event":"deadline_exceeded","key":"n1/rate","budget":5,"elapsed":9}"#,
                "deadline_exceeded n1/rate budget=5 elapsed=9",
            ),
            (
                rec(
                    8,
                    TraceEvent::RetryScheduled {
                        key: key("rate"),
                        attempt: 2,
                        delay: TimeSpan(12),
                    },
                ),
                r#"{"seq":8,"at":8,"event":"retry_scheduled","key":"n1/rate","attempt":2,"delay":12}"#,
                "retry_scheduled n1/rate attempt=2 delay=12",
            ),
            (
                rec(
                    9,
                    TraceEvent::QuarantineTripped {
                        key: key("rate"),
                        until: Timestamp(400),
                    },
                ),
                r#"{"seq":9,"at":9,"event":"quarantine_tripped","key":"n1/rate","until":400}"#,
                "quarantine_tripped n1/rate until=400",
            ),
            (
                rec(10, TraceEvent::QuarantineRecovered { key: key("rate") }),
                r#"{"seq":10,"at":10,"event":"quarantine_recovered","key":"n1/rate"}"#,
                "quarantine_recovered n1/rate",
            ),
            (
                stored,
                r#"{"seq":11,"at":11,"event":"value_stored","key":"n1/rate","version":17,"part":5}"#,
                "value_stored n1/rate version=17",
            ),
            (
                source,
                r#"{"seq":12,"at":12,"event":"source_update","origin":"n1!tick","origin_kind":"event","span":4,"roots":"4","span_depth":0,"span_start":1}"#,
                "source_update origin=n1!tick origin_kind=event",
            ),
            (
                notified,
                r#"{"seq":13,"at":13,"event":"notified","key":"n1/rate","version":3,"observers":2,"span":12,"parent":7,"roots":"1,4","span_depth":2,"span_start":5,"tid":1}"#,
                "notified n1/rate version=3 observers=2",
            ),
            (
                rec(
                    14,
                    TraceEvent::EpochFlushed {
                        epoch: 7,
                        origins: 3,
                        recomputed: 12,
                        max_depth: 2,
                    },
                ),
                r#"{"seq":14,"at":14,"event":"epoch_flushed","epoch":7,"origins":3,"recomputed":12,"max_depth":2}"#,
                "epoch_flushed epoch=7 origins=3 recomputed=12 max_depth=2",
            ),
        ];
        let kinds: Vec<&str> = golden.iter().map(|(r, _, _)| r.event.kind()).collect();
        let declared: Vec<&str> = TraceEvent::SCHEMA.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(kinds, declared, "one golden line per declared kind");
        let sink = RingBufferSink::new(golden.len());
        for (record, line, text) in &golden {
            assert_eq!(record.to_json(), *line);
            assert_eq!(record.event.to_string(), *text);
            assert_eq!(record.event.key().is_some(), line.contains("\"key\""));
            assert_eq!(TraceRecord::from_json(line).as_ref(), Ok(record));
            sink.record(record.clone());
        }
        assert_eq!(golden[10].0.event.key(), Some(&key("rate")));
        // The ring exports one object per line, and the whole export
        // parses back.
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = golden.iter().map(|(_, line, _)| *line).collect();
        assert_eq!(jsonl, format!("{}\n", lines.join("\n")));
        let records: Vec<TraceRecord> = golden.into_iter().map(|(r, _, _)| r).collect();
        assert_eq!(parse_jsonl(&jsonl), Ok(records));
    }

    /// Random values of a codec's field type.
    pub(super) trait Arbitrary: Codec {
        fn arbitrary(rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! arbitrary {
        ($($codec:ty: $draw:expr;)*) => {$(
            impl Arbitrary for $codec {
                fn arbitrary(rng: &mut TestRng) -> Self::Value {
                    $draw(rng)
                }
            }
        )*};
    }

    /// Strings with every character the escaper treats specially, and `/`
    /// and `.` so that keys get nested paths.
    const ESCAPE_WORTHY: &str = "[a-z./\"\\\n\t\r\u{1}é ]{0,12}";

    arbitrary! {
        u64: |rng: &mut TestRng| rng.next_u64();
        usize: |rng: &mut TestRng| rng.next_u64() as usize;
        u32: |rng: &mut TestRng| rng.next_u64() as u32;
        bool: |rng: &mut TestRng| rng.next_u64() & 1 == 1;
        Timestamp: |rng: &mut TestRng| Timestamp(rng.next_u64());
        TimeSpan: |rng: &mut TestRng| TimeSpan(rng.next_u64());
        String: |rng: &mut TestRng| ESCAPE_WORTHY.generate(rng);
        MetadataKey: |rng: &mut TestRng| MetadataKey::new(
            NodeId(rng.next_u64() as u32),
            format!("p{}", ESCAPE_WORTHY.generate(rng)),
        );
        Mechanism: |rng: &mut TestRng| Mechanism::LABELS[rng.below(Mechanism::LABELS.len() as u64) as usize];
        DepSource: |rng: &mut TestRng| DepSource::KINDS[rng.below(DepSource::KINDS.len() as u64) as usize];
    }

    /// Every kind, with field values drawn by each field's codec.
    struct AnyEvent;

    impl Strategy for AnyEvent {
        type Value = TraceEvent;
        fn generate(&self, rng: &mut TestRng) -> TraceEvent {
            TraceEvent::arbitrary(rng)
        }
    }

    proptest! {
        #[test]
        fn codec_round_trips_arbitrary_records(
            (seq, at) in (0..u64::MAX, 0..u64::MAX),
            event in AnyEvent,
            span in prop::option::of((
                0..u64::MAX,
                prop::option::of(0..u64::MAX),
                prop::collection::vec(0..u64::MAX, 0..4),
                0..u32::MAX,
                0..u64::MAX,
            )),
            tid in prop::option::of(0..u64::MAX),
            part in prop::option::of(0..u64::MAX),
        ) {
            let record = TraceRecord {
                seq,
                at: Timestamp(at),
                event,
                span: span.map(|(span, parent, roots, depth, start)| SpanContext {
                    span,
                    parent,
                    roots,
                    depth,
                    start: Timestamp(start),
                }),
                tid,
                part,
            };
            let line = record.to_json();
            prop_assert!(line.bytes().all(|b| b >= 0x20), "raw control byte in {line}");
            prop_assert_eq!(TraceRecord::from_json(&line), Ok(record));
        }
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let err = parse_jsonl(
            "{\"seq\":0,\"at\":0,\"event\":\"subscribe\",\"key\":\"n1/a\"}\nnot json\n",
        )
        .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn observability_doc_lists_every_trace_kind() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let table: Vec<&str> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| event | JSONL fields |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        let rows: Vec<String> = TraceEvent::SCHEMA
            .iter()
            .map(|(kind, fields)| {
                let fields: Vec<String> = fields.iter().map(|f| format!("`{f}`")).collect();
                format!("| `{kind}` | {} |", fields.join(", "))
            })
            .collect();
        // Both directions: every declared kind has its row, and every
        // row is a declared kind with exactly its fields.
        assert_eq!(table, rows, "docs/OBSERVABILITY.md layer-1 event table");
    }
}
