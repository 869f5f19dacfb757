//! Mutation coverage for the trace linter: each test corrupts one
//! invariant of a healthy checked-in fixture trace and asserts the
//! matching rule — and only that rule — fires. This is the guarantee
//! that the linter would actually catch a runtime regression of the
//! corresponding semantics, not just pass clean traces.

use streammeta_analyze::tracelint::{lint, TraceRule};
use streammeta_bench::trace_fixtures;
use streammeta_core::{parse_jsonl, TraceEvent, TraceRecord};

/// Loads the checked-in records of one fixture.
fn records_of(id: &str) -> Vec<TraceRecord> {
    let fixture = trace_fixtures::by_id(id).expect("fixture id");
    let path = trace_fixtures::fixture_dir().join(fixture.file_name());
    let jsonl = std::fs::read_to_string(&path).expect("checked-in fixture");
    let records = parse_jsonl(&jsonl).expect("parseable fixture");
    assert!(lint(&records).is_empty(), "{id}: fixture must start clean");
    records
}

/// Asserts the mutated trace fires `expected` and nothing else.
fn assert_fires_only(records: &[TraceRecord], expected: TraceRule) {
    let violations = lint(records);
    assert!(!violations.is_empty(), "mutation must fire {expected:?}");
    for v in &violations {
        assert_eq!(v.rule, expected, "mutation for {expected:?} leaked {v}",);
    }
}

#[test]
fn t1_version_regression_is_caught() {
    let mut records = records_of("TR3");
    // Flatten the second store of some key onto the first's version.
    let mut last: Option<(String, u64)> = None;
    let mut mutated = false;
    for rec in &mut records {
        if let TraceEvent::ValueStored { key, version } = &mut rec.event {
            match &last {
                Some((prev_key, prev_version)) if prev_key == &key.to_string() => {
                    *version = *prev_version;
                    mutated = true;
                    break;
                }
                _ => last = Some((key.to_string(), *version)),
            }
        }
    }
    assert!(mutated, "TR3 must contain two stores of one key");
    assert_fires_only(&records, TraceRule::VersionMonotonicity);
}

#[test]
fn t2_epoch_regression_is_caught() {
    let mut records = records_of("TR2");
    // Replay an epoch id: the second flush claims the first's epoch.
    let mut first: Option<u64> = None;
    let mut mutated = false;
    for rec in &mut records {
        if let TraceEvent::EpochFlushed { epoch, .. } = &mut rec.event {
            match first {
                None => first = Some(*epoch),
                Some(e) => {
                    *epoch = e;
                    mutated = true;
                    break;
                }
            }
        }
    }
    assert!(mutated, "TR2 must contain two epoch flushes");
    assert_fires_only(&records, TraceRule::EpochSerialization);
}

#[test]
fn t2_duplicate_recompute_in_one_round_is_caught() {
    let mut records = records_of("TR1");
    // Pull a later round's recompute of one key into an earlier round.
    let mut rounds: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PropagationStep { round, .. } => Some(*round),
            _ => None,
        })
        .collect();
    rounds.dedup();
    assert!(rounds.len() >= 2, "TR1 must contain two propagation rounds");
    let (first, second) = (rounds[0], rounds[1]);
    for rec in &mut records {
        if let TraceEvent::PropagationStep { round, .. } = &mut rec.event {
            if *round == second {
                *round = first;
            }
        }
    }
    assert_fires_only(&records, TraceRule::EpochSerialization);
}

#[test]
fn t3_activity_after_exclusion_is_caught() {
    let mut records = records_of("TR4");
    // Turn an item's (re-)inclusion into an exclusion: all its later
    // recomputations and stores become activity on an excluded item.
    let mut mutated = false;
    for rec in &mut records {
        if let TraceEvent::Include { key, .. } = &rec.event {
            rec.event = TraceEvent::Exclude {
                key: key.clone(),
                remaining: 0,
            };
            mutated = true;
            break;
        }
    }
    assert!(mutated, "TR4 must contain an inclusion");
    assert_fires_only(&records, TraceRule::ExclusionLiveness);
}

#[test]
fn t4_activity_inside_the_cool_down_is_caught() {
    let mut records = records_of("TR3");
    // Stretch the first breaker's cool-down past the whole trace: the
    // recorded follow-up activity now happens inside it.
    let mut mutated = false;
    for rec in &mut records {
        if let TraceEvent::QuarantineTripped { until, .. } = &mut rec.event {
            until.0 = u64::MAX;
            mutated = true;
            break;
        }
    }
    assert!(mutated, "TR3 must contain a quarantine trip");
    assert_fires_only(&records, TraceRule::QuarantineLegality);
}

#[test]
fn t4_recovery_without_a_trip_is_caught() {
    let mut records = records_of("TR3");
    // Erase every trip, leaving the recovery dangling. Keeping the
    // record stream intact (seq/at untouched) isolates the rule: the
    // trips become inert periodic_fired-free compute failures.
    for rec in &mut records {
        if let TraceEvent::QuarantineTripped { key, .. } = &rec.event {
            rec.event = TraceEvent::ComputeFailed { key: key.clone() };
        }
    }
    assert_fires_only(&records, TraceRule::QuarantineLegality);
}

#[test]
fn t5_skipped_retry_attempt_is_caught() {
    let mut records = records_of("TR3");
    let mut mutated = false;
    for rec in &mut records {
        if let TraceEvent::RetryScheduled { attempt, .. } = &mut rec.event {
            if *attempt == 2 {
                *attempt = 3;
                mutated = true;
                break;
            }
        }
    }
    assert!(mutated, "TR3 must contain a second retry attempt");
    assert_fires_only(&records, TraceRule::RetryConformance);
}

#[test]
fn t5_shrinking_backoff_is_caught() {
    let mut records = records_of("TR3");
    let mut mutated = false;
    for rec in &mut records {
        if let TraceEvent::RetryScheduled { attempt, delay, .. } = &mut rec.event {
            if *attempt == 2 {
                delay.0 = 1; // below the attempt-1 delay
                mutated = true;
                break;
            }
        }
    }
    assert!(mutated, "TR3 must contain a second retry attempt");
    assert_fires_only(&records, TraceRule::RetryConformance);
}

#[test]
fn t6_sequence_replay_is_caught() {
    let mut records = records_of("TR1");
    assert!(records.len() >= 3);
    records[2].seq = records[1].seq;
    assert_fires_only(&records, TraceRule::StreamWellFormed);
}

#[test]
fn t6_time_regression_is_caught() {
    let mut records = records_of("TR1");
    // Rewind the last record's clock below its predecessor's.
    let prev_at = records[records.len() - 2].at;
    assert!(prev_at.0 > 0, "TR1 must advance the clock");
    records.last_mut().unwrap().at.0 = prev_at.0 - 1;
    assert_fires_only(&records, TraceRule::StreamWellFormed);
}
