//! `spin-replay` — record, replay, and diff SuperPin runs.
//!
//! ```text
//! spin-replay record gcc -o gcc.splog --threads 4 --chaos-seed 2 --chaos-rate 0.02
//! spin-replay replay gcc.splog --threads 1 --emit-report report.json
//! spin-replay diff gcc.splog gcc-perturbed.splog
//! ```
//!
//! `record` executes a workload live, streaming its nondeterministic
//! surface (syscall effects, epoch plans, governed admissions, the
//! fault ledger) into a versioned `.splog` log alongside the final
//! report. `replay` re-executes a run from the log alone — at any
//! `--threads` count — and verifies the replayed report field for field
//! against the recording. `diff` replays two logs in lockstep and
//! bisects their first divergence to an epoch barrier, quantum window,
//! and master instruction range. `fsck` walks either SuperPin container
//! — a `.splog` recording or an `SPWAL` fleet journal, which share one
//! CRC-framed layer — and prints a frame census plus an integrity
//! verdict; `--repair` copies a damaged journal's intact prefix into a
//! `<file>.salvaged` quarantine copy, never touching the original. A
//! `.splog` is written in one shot, so a damaged one is re-recorded.
//!
//! Exit status: 0 on success (`replay` verified / `diff` identical /
//! `fsck` clean), 1 on divergence, damage, or simulator error, 2 on
//! usage or I/O errors.

use std::process::ExitCode;
use superpin::{FailPlan, SharedMem};
use superpin_replay::json::report_to_json;
use superpin_replay::log::explain_decode_failure;
use superpin_replay::wal::{
    atomic_write, salvage_frames, FrameDamage, WAL_FRAME_COMMIT, WAL_FRAME_END, WAL_FRAME_HEADER,
    WAL_FRAME_RECORD, WAL_MAGIC, WAL_VERSION,
};
use superpin_replay::{
    diff_logs, record_run, replay_run, verify_replay, DiffOutcome, ReplayLog, RunRecipe, MAGIC,
    VERSION,
};
use superpin_tools::{ICount1, ICount2};
use superpin_workloads::Scale;

const USAGE: &str = "\
usage: spin-replay <verb> [options]

verbs:
  record <workload> -o <log.splog>   run live, write the log
  replay <log.splog>                 re-execute from the log, verify
  diff <a.splog> <b.splog>           lockstep-replay both, report the
                                     first divergence
  fsck <file> [--repair]             frame census + integrity verdict
                                     for a .splog or SPWAL file;
                                     --repair copies a damaged SPWAL's
                                     intact prefix into <file>.salvaged

record options:
  -o <path>            output log path (required)
  -t <tool>            icount1 | icount2 (default icount1)
  --scale <s>          tiny | small | medium | large (default tiny)
  --input <n>          workload input id (default 0)
  --threads <n>        host threads, at least 1 (default 1)
  --spmsec <n>         timeslice in paper milliseconds (default 2000)
  --spmp <n>           max running slices (default 8)
  --chaos-seed <n>     arm fault injection with this seed
  --chaos-rate <r>     fault rate in [0,1] (default 0.01 when armed)
  --mem-budget <bytes> arm the memory governor
  --supervise          arm the slice supervisor (implied by chaos)
  --tag <str>          free-form provenance tag stored in the header

replay options:
  --threads <n>        host threads for the replay, at least 1 (default 1)

common options:
  --emit-report <path> write the (recorded / replayed) report as JSON
  --help               show this help";

fn fail(message: &str) -> ExitCode {
    eprintln!("spin-replay: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_scale(text: &str) -> Option<Scale> {
    match text {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        "large" => Some(Scale::Large),
        _ => None,
    }
}

/// A `--threads` value: a thread count of at least 1.
fn parse_threads(text: &str) -> Result<usize, String> {
    match text.parse() {
        Ok(0) => Err("`--threads` must be at least 1 (1 = serial execution)".to_owned()),
        Ok(threads) => Ok(threads),
        Err(_) => Err(format!("`--threads` got `{text}`; expected a thread count")),
    }
}

/// A `--chaos-rate` value: a probability in [0, 1] (NaN is not one).
fn parse_chaos_rate(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
        Ok(_) => Err(format!(
            "`--chaos-rate` is a probability and must be within [0, 1] (got `{text}`)"
        )),
        Err(_) => Err(format!(
            "`--chaos-rate` got `{text}`; expected a probability in [0, 1]"
        )),
    }
}

fn load_log(path: &str) -> Result<ReplayLog, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // On failure, re-walk the frames to say *why*: a truncation (kill
    // mid-write) reads very differently from corruption.
    ReplayLog::decode(&bytes).map_err(|e| format!("{path}: {}", explain_decode_failure(&bytes, &e)))
}

fn write_file(path: &str, contents: &[u8]) -> Result<(), String> {
    atomic_write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match args[0].as_str() {
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "fsck" => cmd_fsck(&args[1..]),
        other => fail(&format!("unknown verb `{other}`")),
    }
}

struct RecordArgs {
    recipe: RunRecipe,
    out: String,
    emit_report: Option<String>,
}

fn parse_record_args(args: &[String]) -> Result<RecordArgs, String> {
    let mut workload = None;
    let mut out = None;
    let mut emit_report = None;
    let mut scale = Scale::Tiny;
    let mut input = 0u64;
    let mut tool = "icount1".to_string();
    let mut threads = 1usize;
    let mut spmsec = 2000u64;
    let mut spmp = 8usize;
    let mut chaos_seed = None;
    let mut chaos_rate = 0.01f64;
    let mut mem_budget = None;
    let mut supervise = false;
    let mut tag = String::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "-o" => out = Some(value("-o")?),
            "-t" => tool = value("-t")?,
            "--scale" => {
                let text = value("--scale")?;
                scale = parse_scale(&text).ok_or_else(|| format!("unknown scale `{text}`"))?;
            }
            "--input" => input = value("--input")?.parse().map_err(|_| "bad --input")?,
            "--threads" => threads = parse_threads(&value("--threads")?)?,
            "--spmsec" => spmsec = value("--spmsec")?.parse().map_err(|_| "bad --spmsec")?,
            "--spmp" => spmp = value("--spmp")?.parse().map_err(|_| "bad --spmp")?,
            "--chaos-seed" => {
                chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse()
                        .map_err(|_| "bad --chaos-seed")?,
                )
            }
            "--chaos-rate" => chaos_rate = parse_chaos_rate(&value("--chaos-rate")?)?,
            "--mem-budget" => {
                mem_budget = Some(
                    value("--mem-budget")?
                        .parse()
                        .map_err(|_| "bad --mem-budget")?,
                )
            }
            "--supervise" => supervise = true,
            "--tag" => tag = value("--tag")?,
            "--emit-report" => emit_report = Some(value("--emit-report")?),
            other if !other.starts_with('-') && workload.is_none() => {
                workload = Some(other.to_string());
            }
            other => return Err(format!("unknown record option `{other}`")),
        }
    }

    let workload = workload.ok_or("record needs a workload name")?;
    let out = out.ok_or("record needs -o <path>")?;
    let mut recipe = RunRecipe::standard(&workload, scale);
    recipe.input = input;
    recipe.tool = tool;
    recipe.threads = threads;
    recipe.spmsec = spmsec;
    recipe.spmp = spmp;
    recipe.chaos = chaos_seed.map(|seed| FailPlan::new(seed, chaos_rate));
    recipe.mem_budget = mem_budget;
    recipe.supervise = supervise;
    recipe.tag = tag;
    Ok(RecordArgs {
        recipe,
        out,
        emit_report,
    })
}

fn cmd_record(args: &[String]) -> ExitCode {
    let parsed = match parse_record_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return fail(&message),
    };
    let shared = SharedMem::new();
    let recorded = match parsed.recipe.tool.as_str() {
        "icount1" => record_run(&parsed.recipe, ICount1::new(&shared), &shared),
        "icount2" => record_run(&parsed.recipe, ICount2::new(&shared), &shared),
        other => return fail(&format!("unknown tool `{other}`")),
    };
    let log = match recorded {
        Ok(log) => log,
        Err(err) => {
            eprintln!("spin-replay: record failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(message) = write_file(&parsed.out, &log.encode()) {
        return fail(&message);
    }
    if let Some(path) = &parsed.emit_report {
        if let Err(message) = write_file(path, report_to_json(&log.report).as_bytes()) {
            return fail(&message);
        }
    }
    println!(
        "recorded {} at threads={}: {} events, {} epochs, {} slices -> {}",
        log.recipe.name,
        log.recipe.threads,
        log.events.len(),
        log.report.epochs,
        log.report.slices.len(),
        parsed.out,
    );
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut log_path = None;
    let mut threads = 1usize;
    let mut emit_report = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().map(|text| parse_threads(text)) {
                Some(Ok(n)) => threads = n,
                Some(Err(message)) => return fail(&message),
                None => return fail("--threads needs a value"),
            },
            "--emit-report" => match iter.next() {
                Some(path) => emit_report = Some(path.clone()),
                None => return fail("--emit-report needs a path"),
            },
            other if !other.starts_with('-') && log_path.is_none() => {
                log_path = Some(other.to_string());
            }
            other => return fail(&format!("unknown replay option `{other}`")),
        }
    }
    let log_path = match log_path {
        Some(path) => path,
        None => return fail("replay needs a log path"),
    };
    let log = match load_log(&log_path) {
        Ok(log) => log,
        Err(message) => return fail(&message),
    };
    let shared = SharedMem::new();
    let replayed = match log.recipe.tool.as_str() {
        "icount1" => replay_run(&log, threads, ICount1::new(&shared), &shared),
        "icount2" => replay_run(&log, threads, ICount2::new(&shared), &shared),
        other => return fail(&format!("log records unknown tool `{other}`")),
    };
    let report = match replayed {
        Ok(report) => report,
        Err(err) => {
            eprintln!("spin-replay: replay DIVERGED: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &emit_report {
        if let Err(message) = write_file(path, report_to_json(&report).as_bytes()) {
            return fail(&message);
        }
    }
    match verify_replay(&log, &report) {
        None => {
            println!(
                "replay of {} verified: report identical to the recording \
                 (recorded threads={}, replayed threads={}, {} epochs)",
                log.recipe.name, log.recipe.threads, threads, report.epochs,
            );
            ExitCode::SUCCESS
        }
        Some(field) => {
            eprintln!("spin-replay: replay DIVERGED: first differing report field: {field}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if paths.len() != 2 || args.len() != 2 {
        return fail("diff needs exactly two log paths");
    }
    let (log_a, log_b) = match (load_log(paths[0]), load_log(paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(message), _) | (_, Err(message)) => return fail(&message),
    };
    let shared_a = SharedMem::new();
    let shared_b = SharedMem::new();
    let outcome = match (log_a.recipe.tool.as_str(), log_b.recipe.tool.as_str()) {
        ("icount1", "icount1") => diff_logs(
            &log_a,
            ICount1::new(&shared_a),
            &shared_a,
            &log_b,
            ICount1::new(&shared_b),
            &shared_b,
        ),
        ("icount1", "icount2") => diff_logs(
            &log_a,
            ICount1::new(&shared_a),
            &shared_a,
            &log_b,
            ICount2::new(&shared_b),
            &shared_b,
        ),
        ("icount2", "icount1") => diff_logs(
            &log_a,
            ICount2::new(&shared_a),
            &shared_a,
            &log_b,
            ICount1::new(&shared_b),
            &shared_b,
        ),
        ("icount2", "icount2") => diff_logs(
            &log_a,
            ICount2::new(&shared_a),
            &shared_a,
            &log_b,
            ICount2::new(&shared_b),
            &shared_b,
        ),
        (a, b) => return fail(&format!("cannot diff tools `{a}` vs `{b}`")),
    };
    match outcome {
        Ok(DiffOutcome::Identical { epochs }) => {
            println!(
                "identical: {} vs {} agree at every epoch barrier ({epochs} epochs)",
                paths[0], paths[1]
            );
            ExitCode::SUCCESS
        }
        Ok(DiffOutcome::Diverged(report)) => {
            println!("{report}");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("spin-replay: diff failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the salvaged prefix next to the original, never over it.
fn write_quarantine(path: &str, bytes: &[u8]) -> ExitCode {
    let out = format!("{path}.salvaged");
    match atomic_write(&out, bytes) {
        Ok(()) => {
            println!("  repaired: {} byte(s) -> {out}", bytes.len());
            ExitCode::FAILURE // the original is still damaged
        }
        Err(err) => fail(&format!("cannot write {out}: {err}")),
    }
}

fn cmd_fsck(args: &[String]) -> ExitCode {
    let mut repair = false;
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return fail(&format!("unknown fsck option `{other}`")),
        }
    }
    let Some(path) = path else {
        return fail("fsck needs a file path");
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) => return fail(&format!("cannot read {path}: {err}")),
    };
    // Both containers share one frame layer; only the preamble (and
    // whether commit markers are expected) differs.
    let (magic, version, journal) = if bytes.starts_with(WAL_MAGIC) {
        (WAL_MAGIC, WAL_VERSION, true)
    } else if bytes.starts_with(MAGIC) {
        (MAGIC, VERSION, false)
    } else {
        eprintln!(
            "spin-replay: {path}: unrecognized magic {:?} — not a .splog or SPWAL file",
            &bytes[..bytes.len().min(5)]
        );
        return ExitCode::from(2);
    };
    let scanned = match salvage_frames(&bytes, magic, version) {
        Ok(scanned) => scanned,
        Err(err) => {
            eprintln!("spin-replay: {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let (mut headers, mut records, mut commits, mut ends) = (0usize, 0usize, 0usize, 0usize);
    for frame in &scanned.frames {
        match frame.kind {
            WAL_FRAME_HEADER => headers += 1,
            WAL_FRAME_RECORD => records += 1,
            WAL_FRAME_COMMIT => commits += 1,
            WAL_FRAME_END => ends += 1,
            _ => {}
        }
    }
    println!(
        "{path}: {}, {} intact frame(s): {headers} header, {records} record, \
         {commits} commit, {ends} end",
        String::from_utf8_lossy(magic),
        scanned.frames.len()
    );
    let last_committed = scanned
        .last_committed
        .map_or_else(|| "none".to_owned(), |round| round.to_string());
    if journal {
        println!(
            "  durable prefix: {} of {} byte(s), last committed round: {last_committed}",
            scanned.committed_len,
            bytes.len(),
        );
    }
    match &scanned.damage {
        None if scanned.clean_end => {
            if !journal {
                if let Err(err) = ReplayLog::decode(&bytes) {
                    println!("  verdict: frames intact but not a whole recording ({err})");
                    return ExitCode::FAILURE;
                }
            }
            println!("  verdict: clean (complete run, sealed with an end frame)");
            return ExitCode::SUCCESS;
        }
        None if journal => {
            println!("  verdict: in-progress (no end frame yet; resumable as-is)");
            return ExitCode::SUCCESS;
        }
        None => println!("  verdict: truncated (end frame missing)"),
        Some(FrameDamage::Torn { offset }) if journal => println!(
            "  verdict: truncated (salvageable, last committed round {last_committed}); \
             torn frame at byte {offset}"
        ),
        Some(FrameDamage::Torn { offset }) => {
            println!("  verdict: truncated; torn frame at byte {offset}")
        }
        Some(FrameDamage::Corrupt { offset, detail }) => println!(
            "  verdict: corrupt at offset {offset} ({detail}); {} byte(s) salvageable",
            scanned.valid_len
        ),
    }
    match (repair, journal) {
        (true, true) => write_quarantine(&path, &bytes[..scanned.valid_len]),
        (true, false) => {
            println!("  repair: a .splog is written in one shot — re-record the run instead");
            ExitCode::FAILURE
        }
        (false, _) => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_args_reject_out_of_range_values() {
        // (extra record arguments, the flag an error must name — or
        // `None` when the arguments must parse).
        let table: &[(&[&str], Option<&str>)] = &[
            (&[], None),
            (
                &[
                    "--threads",
                    "4",
                    "--chaos-seed",
                    "2",
                    "--chaos-rate",
                    "0.02",
                ],
                None,
            ),
            (&["--chaos-rate", "0"], None),
            (&["--chaos-rate", "1"], None),
            (&["--threads", "0"], Some("--threads")),
            (&["--threads", "-1"], Some("--threads")),
            (&["--threads", "four"], Some("--threads")),
            (&["--chaos-rate", "1.5"], Some("--chaos-rate")),
            (&["--chaos-rate", "-0.1"], Some("--chaos-rate")),
            (&["--chaos-rate", "nan"], Some("--chaos-rate")),
            (&["--chaos-rate", "inf"], Some("--chaos-rate")),
            (&["--chaos-rate", "often"], Some("--chaos-rate")),
        ];
        for &(extra, rejected) in table {
            let args: Vec<String> = ["gcc", "-o", "gcc.splog"]
                .iter()
                .chain(extra)
                .map(|arg| (*arg).to_owned())
                .collect();
            match (parse_record_args(&args), rejected) {
                (Ok(parsed), None) => assert!(parsed.recipe.threads >= 1, "{extra:?}"),
                (Err(message), Some(flag)) => {
                    assert!(message.contains(flag), "{extra:?}: `{message}`")
                }
                (Ok(_), Some(flag)) => panic!("{extra:?} parsed; `{flag}` must be rejected"),
                (Err(message), None) => panic!("{extra:?} rejected: {message}"),
            }
        }
        let parsed = parse_record_args(&["gcc", "-o", "x", "--threads", "3"].map(String::from))
            .expect("parses");
        assert_eq!(parsed.recipe.threads, 3);
    }
}
