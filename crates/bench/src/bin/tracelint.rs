//! `tracelint` — trace-replay invariant linting over checked-in fixture
//! traces and experiment-written JSONL exports.
//!
//! Replays JSONL traces through `streammeta_analyze::tracelint` (rules
//! `T1`–`T6`: version monotonicity, epoch serialization, exclusion
//! liveness, quarantine legality, retry/backoff conformance, stream
//! well-formedness). Three sources of traces:
//!
//! * with no arguments, the checked-in fixtures under
//!   `crates/bench/fixtures/traces/*.jsonl`, which must lint clean
//!   *and* still match what their deterministic generators produce;
//! * explicit file paths (e.g. the traces the E20 chaos and E22 batch
//!   experiments write for CI), which must lint clean;
//! * fixture ids (`TR1`…), regenerated in-process and linted.
//!
//! Usage:
//!
//! ```text
//! tracelint [--json] [--list] [--write-fixtures] [FIXTURE_ID|PATH ...]
//! ```
//!
//! `--write-fixtures` regenerates the checked-in files from the
//! generators (run after intentionally changing trace semantics). With
//! `--json`, output is line-delimited JSON for CI baselining. Exit code
//! 0 means every selected trace was parseable, clean, and in sync.

use std::process::ExitCode;

use streammeta_analyze::tracelint::{lint_jsonl, TraceRule, TraceViolation};
use streammeta_bench::trace_fixtures::{self, TraceFixture};
use streammeta_core::JsonStr;

fn render_violations(label: &str, violations: &[TraceViolation], json: bool) {
    if json {
        for v in violations {
            println!(
                "{{\"trace\":{},\"rule\":\"{}\",\"seq\":{},\"key\":{},\"message\":{}}}",
                JsonStr(label),
                v.rule.code(),
                v.seq,
                v.key
                    .as_deref()
                    .map_or_else(|| "null".to_string(), |k| JsonStr(k).to_string()),
                JsonStr(&v.message)
            );
        }
    } else {
        for v in violations {
            println!("     {v}");
        }
    }
}

/// Lints one labelled JSONL blob; returns whether it was clean.
fn lint_one(label: &str, jsonl: &str, json: bool) -> bool {
    let violations = lint_jsonl(jsonl);
    let ok = violations.is_empty();
    if json {
        println!(
            "{{\"trace\":{},\"ok\":{ok},\"violations\":{}}}",
            JsonStr(label),
            violations.len()
        );
    } else {
        let lines = jsonl.lines().filter(|l| !l.trim().is_empty()).count();
        println!(
            "{:<28} {} ({} record(s), {} violation(s))",
            label,
            if ok { "ok" } else { "FAIL" },
            lines,
            violations.len()
        );
    }
    render_violations(label, &violations, json);
    ok
}

/// Checks one fixture: the checked-in file exists, matches the
/// generator byte for byte, and lints clean.
fn run_fixture(fixture: &TraceFixture, json: bool) -> bool {
    let path = trace_fixtures::fixture_dir().join(fixture.file_name());
    let generated = fixture.generate();
    let on_disk = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            println!(
                "{:<28} FAIL (cannot read {}: {e}; run `tracelint --write-fixtures`)",
                fixture.id,
                path.display()
            );
            return false;
        }
    };
    if on_disk != generated {
        println!(
            "{:<28} FAIL (checked-in trace is out of sync with its generator; \
             run `tracelint --write-fixtures` and review the diff)",
            fixture.id
        );
        return false;
    }
    lint_one(fixture.id, &on_disk, json)
}

fn write_fixtures() -> std::io::Result<()> {
    let dir = trace_fixtures::fixture_dir();
    std::fs::create_dir_all(&dir)?;
    for fixture in trace_fixtures::all() {
        let path = dir.join(fixture.file_name());
        std::fs::write(&path, fixture.generate())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let list = args.iter().any(|a| a == "--list");
    let write = args.iter().any(|a| a == "--write-fixtures");
    let operands: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if list {
        println!("rules:");
        for rule in TraceRule::ALL {
            println!("  {:<3} {}", rule.code(), rule.name());
        }
        println!("fixtures:");
        for f in trace_fixtures::all() {
            println!("  {:<4} {}", f.id, f.name);
        }
        return ExitCode::SUCCESS;
    }

    if write {
        return match write_fixtures() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tracelint: writing fixtures failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = 0usize;
    let mut total = 0usize;
    if operands.is_empty() {
        for fixture in trace_fixtures::all() {
            total += 1;
            if !run_fixture(fixture, json) {
                failed += 1;
            }
        }
    } else {
        for operand in &operands {
            total += 1;
            let ok = if let Some(fixture) = trace_fixtures::by_id(operand) {
                lint_one(fixture.id, &fixture.generate(), json)
            } else {
                match std::fs::read_to_string(operand) {
                    Ok(jsonl) => lint_one(operand, &jsonl, json),
                    Err(e) => {
                        eprintln!("tracelint: cannot read `{operand}`: {e} (try --list)");
                        false
                    }
                }
            };
            if !ok {
                failed += 1;
            }
        }
    }

    if json {
        println!("{{\"summary\":{{\"traces\":{total},\"failed\":{failed}}}}}");
    } else {
        println!("\n{total} trace(s), {failed} failure(s)");
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
