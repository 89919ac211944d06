//! Dependency-free JSON for run reports.
//!
//! [`report_to_json`] writes a report, so `spin-replay` and the service
//! can byte-diff recorded, replayed and resumed reports without a serde
//! dependency (the build is offline). [`first_report_difference`] reads
//! two such reports back and names the first field where they differ;
//! the private readers below parse just enough of JSON this codebase
//! emitted to serve it.

use std::fmt::Write as _;
use superpin::{SliceEnd, SliceReport, SuperPinReport};

/// Finds the raw text between the brackets of `"field":[...]` in
/// `json`, honoring nesting and string literals. `None` when the field
/// is absent.
fn extract_array<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":[");
    let start = json.find(&needle)? + needle.len();
    let mut depth = 1usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, ch) in json[start..].char_indices() {
        if in_string {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a JSON array body into its top-level elements (text slices),
/// honoring nesting and string literals.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut from = 0usize;
    for (i, ch) in body.char_indices() {
        if in_string {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&body[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    if from < body.len() {
        parts.push(&body[from..]);
    }
    parts
}

/// Reads the numeric value of a top-level `"field":<number>` pair from
/// emitted JSON — enough parsing for [`first_report_difference`] to
/// compare two reports' scalar fields.
fn extract_number(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|ch: char| !matches!(ch, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn slice_end_name(end: SliceEnd) -> &'static str {
    match end {
        SliceEnd::SignatureDetected => "signature",
        SliceEnd::RecordsExhausted => "records",
        SliceEnd::Exited => "exited",
        SliceEnd::ToolEnded => "tool",
    }
}

fn slice_to_json(out: &mut String, slice: &SliceReport) {
    let _ = write!(
        out,
        "{{\"num\":{},\"insts\":{},\"records_played\":{},\"end\":\"{}\",\
         \"start_cycles\":{},\"wake_cycles\":{},\"end_cycles\":{},\
         \"app\":{},\"analysis\":{},\"jit\":{},\"dispatch\":{},\"syscall\":{},\
         \"insts_executed\":{},\"traces_executed\":{},\"analysis_calls\":{},\
         \"if_checks\":{},\"then_calls\":{},\"shared_adoptions\":{},\
         \"shared_misses\":{},\"shared_contention\":{},\
         \"lookups\":{},\"hits\":{},\"traces_compiled\":{},\"insts_compiled\":{},\
         \"flushes\":{},\"smc_flushes\":{},\"cow_copies\":{}}}",
        slice.num,
        slice.insts,
        slice.records_played,
        slice_end_name(slice.end),
        slice.start_cycles,
        slice.wake_cycles,
        slice.end_cycles,
        slice.engine.cycles.app,
        slice.engine.cycles.analysis,
        slice.engine.cycles.jit,
        slice.engine.cycles.dispatch,
        slice.engine.cycles.syscall,
        slice.engine.insts_executed,
        slice.engine.traces_executed,
        slice.engine.analysis_calls,
        slice.engine.if_checks,
        slice.engine.then_calls,
        slice.engine.shared_cache_adoptions,
        slice.engine.shared_cache_misses,
        slice.engine.shared_cache_contention,
        slice.cache.lookups,
        slice.cache.hits,
        slice.cache.traces_compiled,
        slice.cache.insts_compiled,
        slice.cache.flushes,
        slice.cache.smc_flushes,
        slice.cow_copies,
    );
}

/// The report's top-level numeric fields, in emission order. Replay
/// verification walks this list to *name* the first differing field.
pub const REPORT_FIELDS: &[&str] = &[
    "total_cycles",
    "master_exit_cycles",
    "native_cycles",
    "fork_other_cycles",
    "sleep_cycles",
    "pipeline_cycles",
    "master_insts",
    "master_syscalls",
    "syscall_stops",
    "timeout_stops",
    "quick_checks",
    "full_checks",
    "stack_checks",
    "detections",
    "forks_on_timeout",
    "forks_on_syscall",
    "stall_events",
    "master_cow_copies",
    "epochs",
    "slice_retries",
    "slices_degraded",
    "peak_resident_bytes",
    "slices_deferred",
    "checkpoints_dropped",
    "caches_evicted",
];

/// Serializes a complete run report as one-line JSON. Deterministic
/// field order; two equal reports produce byte-equal JSON, so CI can
/// `diff` recorded vs. replayed report files directly.
pub fn report_to_json(report: &SuperPinReport) -> String {
    let mut out = String::from("{");
    let values = [
        report.total_cycles,
        report.master_exit_cycles,
        report.breakdown.native_cycles,
        report.breakdown.fork_other_cycles,
        report.breakdown.sleep_cycles,
        report.breakdown.pipeline_cycles,
        report.master_insts,
        report.master_syscalls,
        report.ptrace.syscall_stops,
        report.ptrace.timeout_stops,
        report.sig_stats.quick_checks,
        report.sig_stats.full_checks,
        report.sig_stats.stack_checks,
        report.sig_stats.detections,
        report.forks_on_timeout,
        report.forks_on_syscall,
        report.stall_events,
        report.master_cow_copies,
        report.epochs,
        report.slice_retries,
        report.slices_degraded,
        report.peak_resident_bytes,
        report.slices_deferred,
        report.checkpoints_dropped,
        report.caches_evicted,
    ];
    for (field, value) in REPORT_FIELDS.iter().zip(values) {
        let _ = write!(out, "\"{field}\":{value},");
    }
    out.push_str("\"slices\":[");
    for (i, slice) in report.slices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        slice_to_json(&mut out, slice);
    }
    out.push_str("]}");
    out
}

/// Names the first field where two report JSONs differ: a
/// [`REPORT_FIELDS`] entry, `slices.len`, or `slices[i]`. `None` when
/// they agree everywhere this comparison looks (for byte-equal JSON,
/// always `None`).
pub fn first_report_difference(a: &str, b: &str) -> Option<String> {
    for field in REPORT_FIELDS {
        if extract_number(a, field) != extract_number(b, field) {
            return Some((*field).to_string());
        }
    }
    let slices_a = extract_array(a, "slices")
        .map(split_top_level)
        .unwrap_or_default();
    let slices_b = extract_array(b, "slices")
        .map(split_top_level)
        .unwrap_or_default();
    if slices_a.len() != slices_b.len() {
        return Some("slices.len".to_string());
    }
    for (i, (sa, sb)) in slices_a.iter().zip(&slices_b).enumerate() {
        if sa != sb {
            return Some(format!("slices[{i}]"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_reads_emitted_fields() {
        assert_eq!(extract_number("{\"x\":12.5}", "x"), Some(12.5));
        assert_eq!(extract_number("{\"x\":-3e2,\"y\":1}", "x"), Some(-300.0));
        assert_eq!(extract_number("{\"x\":1}", "no_such_field"), None);
        // The needle is exact: a field whose *suffix* matches another
        // name must not satisfy a lookup for the shorter name alone
        // when the shorter name is absent... it does match textually —
        // callers use distinct field names, as the emitters here do.
        assert_eq!(
            extract_number("{\"epochs\":42,\"x\":1}", "epochs"),
            Some(42.0)
        );
    }

    #[test]
    fn array_extraction_honors_strings_and_nesting() {
        let json = "{\"history\":[{\"key\":\"a]b\",\"v\":[1,2]},{\"key\":\"c\"}],\"z\":1}";
        let body = extract_array(json, "history").expect("array present");
        assert_eq!(body, "{\"key\":\"a]b\",\"v\":[1,2]},{\"key\":\"c\"}");
        let parts = split_top_level(body);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], "{\"key\":\"a]b\",\"v\":[1,2]}");
        assert_eq!(parts[1], "{\"key\":\"c\"}");
        assert_eq!(extract_array(json, "missing"), None);
    }

    #[test]
    fn escaped_quotes_and_brackets_inside_strings_are_opaque() {
        let json = "{\"a\":[{\"s\":\"q\\\"[}]\",\"n\":1},{\"n\":2}],\"b\":[]}";
        let body = extract_array(json, "a").expect("array present");
        let parts = split_top_level(body);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("\\\""));
        assert_eq!(parts[1], "{\"n\":2}");
        assert_eq!(extract_array(json, "b"), Some(""));
        assert!(split_top_level("").is_empty());
    }

    #[test]
    fn report_json_diffing_names_the_first_divergent_field() {
        use superpin::{SuperPinReport, TimeBreakdown};
        use superpin_vm::ptrace::PtraceStats;
        let base = SuperPinReport {
            total_cycles: 100,
            master_exit_cycles: 90,
            breakdown: TimeBreakdown::default(),
            master_insts: 50,
            master_syscalls: 3,
            ptrace: PtraceStats::default(),
            slices: Vec::new(),
            sig_stats: Default::default(),
            forks_on_timeout: 2,
            forks_on_syscall: 0,
            stall_events: 0,
            master_cow_copies: 0,
            epochs: 7,
            slice_retries: 0,
            slices_degraded: 0,
            peak_resident_bytes: 0,
            slices_deferred: 0,
            checkpoints_dropped: 0,
            caches_evicted: 0,
        };
        let a = report_to_json(&base);
        assert_eq!(first_report_difference(&a, &a), None);
        let mut perturbed = base.clone();
        perturbed.epochs = 8;
        let b = report_to_json(&perturbed);
        assert_eq!(first_report_difference(&a, &b).as_deref(), Some("epochs"));
        let mut reparsed_ok = base;
        reparsed_ok.total_cycles = 101;
        let c = report_to_json(&reparsed_ok);
        assert_eq!(
            first_report_difference(&a, &c).as_deref(),
            Some("total_cycles")
        );
    }
}
