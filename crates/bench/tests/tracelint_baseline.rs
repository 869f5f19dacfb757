//! Baseline: every checked-in fixture trace parses, matches its
//! deterministic generator byte for byte, and lints clean under the
//! trace-replay invariant rules `T1`–`T8`.
//!
//! The byte-equality check is what keeps the checked-in files honest:
//! if a trace-emitting code path changes, this test fails until the
//! fixtures are regenerated (`cargo run -p streammeta-bench --bin
//! tracelint -- --write-fixtures`) and the diff is reviewed.

use streammeta_analyze::tracelint::lint;
use streammeta_bench::trace_fixtures;
use streammeta_core::parse_jsonl;

#[test]
fn checked_in_traces_match_their_generators_and_lint_clean() {
    for fixture in trace_fixtures::all() {
        let path = trace_fixtures::fixture_dir().join(fixture.file_name());
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: cannot read {} ({e}); run `tracelint --write-fixtures`",
                fixture.id,
                path.display()
            )
        });
        let generated = fixture.generate();
        assert_eq!(
            on_disk, generated,
            "{}: checked-in trace is out of sync with its generator; \
             run `tracelint --write-fixtures` and review the diff",
            fixture.id
        );

        let records = parse_jsonl(&on_disk)
            .unwrap_or_else(|e| panic!("{}: unparseable fixture: {e}", fixture.id));
        assert!(!records.is_empty(), "{}: empty fixture", fixture.id);

        let violations = lint(&records);
        assert!(
            violations.is_empty(),
            "{}: healthy fixture must lint clean, got:\n{}",
            fixture.id,
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn fixture_traces_round_trip_through_the_parser() {
    for fixture in trace_fixtures::all() {
        let jsonl = fixture.generate();
        let records = parse_jsonl(&jsonl).expect("parse");
        let reserialized: String = records
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        assert_eq!(jsonl, reserialized, "{}: lossy round trip", fixture.id);
    }
}

#[test]
fn fixture_registry_ids_are_unique_and_files_exist() {
    let mut seen = std::collections::BTreeSet::new();
    for fixture in trace_fixtures::all() {
        assert!(seen.insert(fixture.id), "duplicate id {}", fixture.id);
        assert!(
            trace_fixtures::fixture_dir()
                .join(fixture.file_name())
                .is_file(),
            "{}: missing checked-in file",
            fixture.id
        );
    }
}
