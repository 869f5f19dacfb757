//! The read and catalog measurements shared by the workloads: read
//! passes over subscriptions, and `sys.handlers` queries.

use std::time::Instant;

use streammeta_core::{
    MetadataKey, MetadataManager, MetadataValue, Result, Subscription, SystemRelation,
};
use streammeta_cql::{query_once, Catalog};

use crate::harness::{ns, Checks, E2e};
use crate::spans;

pub const COUNT_HANDLERS: &str = "SELECT COUNT(*) FROM sys.handlers";

/// Read passes per between-chunk measurement; the first finds the caches
/// as the update loop left them, the others warm.
pub const PASSES: usize = 4;

/// One pass that reads every subscription by handle, then every key by
/// key, comparing each value with `want`.
pub fn pass(
    subs: &[&Subscription],
    keys: &[MetadataKey],
    want: &[u64],
    read: impl Fn(&MetadataKey) -> Result<MetadataValue>,
    e2e: &mut E2e,
    checks: &mut Checks,
) {
    let n = subs.len();
    let mut by_handle = Vec::with_capacity(n);
    let mut by_key = Vec::with_capacity(n);
    let t = Instant::now();
    for sub in subs {
        let _g = spans::enter("subscription.get");
        by_handle.push(sub.get());
    }
    for key in keys {
        let _g = spans::enter("shards.read");
        by_key.push(read(key));
    }
    let pass_ns = ns(t);
    e2e.read_ns += pass_ns;
    e2e.reads += 2 * n as u64;
    e2e.read_rates.push(2.0 * n as f64 / (pass_ns as f64 / 1e9));
    for i in 0..n {
        check_read(checks, &keys[i], Ok(&by_handle[i]), want[i]);
        check_read(checks, &keys[i], by_key[i].as_ref(), want[i]);
    }
}

pub fn check_read(
    checks: &mut Checks,
    key: &MetadataKey,
    got: std::result::Result<&MetadataValue, &streammeta_core::MetadataError>,
    want: u64,
) {
    let ok = matches!(got, Ok(v) if v.as_u64() == Some(want));
    checks.check(ok, || format!("read {key}: {got:?}, expected {want}"));
}

/// A direct `catalog_rows(SystemRelation::Handlers)` call, spanned.
fn catalog_rows(manager: &MetadataManager) {
    let _g = spans::enter("catalog.catalog_rows");
    std::hint::black_box(manager.catalog_rows(SystemRelation::Handlers));
}

/// One timed `sys.handlers` count, checked against `expected`. Traced
/// runs also time a direct `catalog_rows` call before and after it, so
/// that the query's own share can be told from the rows it scans.
pub fn catalog_query(
    catalog: &Catalog,
    manager: &MetadataManager,
    expected: u64,
    e2e: &mut E2e,
    checks: &mut Checks,
) {
    let traced = spans::enabled();
    if traced {
        catalog_rows(manager);
    }
    let t = Instant::now();
    let result = {
        let _g = spans::enter("cql.query_once");
        query_once(catalog, COUNT_HANDLERS)
    };
    e2e.catalog_ns.push(ns(t));
    if traced {
        catalog_rows(manager);
    }
    let count = result
        .as_ref()
        .ok()
        .and_then(|r| r.rows.first()?.first()?.as_f64());
    checks.check(count == Some(expected as f64), || {
        format!("{COUNT_HANDLERS}: {result:?}, expected {expected}")
    });
}
