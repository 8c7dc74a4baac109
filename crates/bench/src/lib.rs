//! Shared plumbing for the EPRONS figure-regeneration harness.
//!
//! Every figure of the paper's evaluation has a binary in `src/bin/`
//! (`fig01` … `fig15`) that regenerates its rows/series with this crate's
//! simulators. Conventions:
//!
//! * pass `--quick` (or set `EPRONS_QUICK=1`) for a shorter, noisier run;
//! * pass `--journal <path>` to enable telemetry and dump the structured
//!   run journal as JSON-lines when the binary finishes (via [`finish`]);
//! * output goes through `eprons_core::report::Table` so EXPERIMENTS.md
//!   can quote it verbatim;
//! * all runs are deterministic from [`BASE_SEED`].

use std::path::PathBuf;

use eprons_core::config::ClusterConfig;
use eprons_core::report::{journal_kind_table_with_drops, metrics_table};

pub mod harness;
pub mod obsctl;

/// Master seed shared by the harness binaries.
pub const BASE_SEED: u64 = 2018;

/// `true` when the caller asked for a fast, lower-fidelity run.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("EPRONS_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Simulated seconds of query arrivals per sweep point.
pub fn sweep_duration_s() -> f64 {
    if quick() {
        5.0
    } else {
        20.0
    }
}

/// The default cluster configuration with the SLA total replaced
/// (constraint sweeps keep the 5 ms network budget and move the server
/// budget, like the paper's Figs. 12b/13).
pub fn cfg_with_total_ms(total_ms: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.sla = cfg.sla.with_total(total_ms * 1.0e-3);
    cfg
}

/// Formats an optional rate as a percentage with two decimals, or `n/a`
/// when no completions produced a rate at all (e.g. a zero-completion
/// epoch under `--quick` durations). Table cells must never panic on an
/// empty measurement.
pub fn pct_or_na(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.2}", r * 100.0),
        None => "n/a".to_string(),
    }
}

/// The value of `--<name> <value>` (or `--<name>=<value>`) on the
/// command line, if given; the first occurrence wins. A trailing bare
/// `--<name>` prints `error: --<name> requires <what>` and exits with
/// status 2.
pub fn arg_value(name: &str, what: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    find_arg(&args, name).unwrap_or_else(|()| {
        eprintln!("error: --{name} requires {what}");
        std::process::exit(2);
    })
}

/// [`arg_value`] over an explicit argument list; `Err` when the flag is
/// the last argument and has no value.
fn find_arg(args: &[String], name: &str) -> Result<Option<String>, ()> {
    let flag = format!("--{name}");
    let eq = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if *a == flag {
            return args.get(i + 1).cloned().map(Some).ok_or(());
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// The `--k <arity>` (or `--k=<arity>`) fat-tree arity, if given. Anything
/// but an even number >= 4 is an error (exit status 2).
pub fn fat_tree_k_arg() -> Option<usize> {
    let v = arg_value("k", "an arity")?;
    match v.parse::<usize>() {
        Ok(k) if k >= 4 && k % 2 == 0 => Some(k),
        _ => {
            eprintln!("error: --k requires an even fat-tree arity >= 4, got {v:?}");
            std::process::exit(2);
        }
    }
}

/// The `--journal <path>` (or `--journal=<path>`) argument, if given.
pub fn journal_path() -> Option<PathBuf> {
    arg_value("journal", "a path").map(PathBuf::from)
}

/// Standard harness banner. Enables telemetry when `--journal` was given,
/// so every layer's events land in the journal [`finish`] writes out.
pub fn banner(fig: &str, what: &str) {
    if let Some(path) = journal_path() {
        eprons_obs::set_enabled(true);
        println!("   (journaling to {})", path.display());
    }
    println!("== EPRONS reproduction: {fig} — {what} ==");
    println!(
        "   (seed {BASE_SEED}, {} mode)\n",
        if quick() { "quick" } else { "full" }
    );
}

/// Harness epilogue: when `--journal <path>` was given, writes the run
/// journal as JSON-lines to that path and prints the event/metric summary
/// tables. A no-op otherwise.
pub fn finish() {
    let Some(path) = journal_path() else {
        return;
    };
    let journal = eprons_obs::journal();
    match journal.write_jsonl(&path) {
        Ok(n) => println!("\nwrote {n} journal events to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write journal to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        journal_kind_table_with_drops(&journal.snapshot(), journal.dropped())
    );
    println!("{}", metrics_table(&eprons_obs::registry().snapshot()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_duration_modes() {
        // Not running with --quick in the test harness.
        assert!(sweep_duration_s() > 0.0);
    }

    #[test]
    fn pct_or_na_formats_and_degrades() {
        assert_eq!(pct_or_na(Some(0.0512)), "5.12");
        assert_eq!(pct_or_na(Some(0.0)), "0.00");
        assert_eq!(pct_or_na(None), "n/a");
    }

    #[test]
    fn find_arg_accepts_both_forms() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = args(&["bin", "--quick", "--out", "x.json", "--k=8"]);
        assert_eq!(find_arg(&a, "out"), Ok(Some("x.json".into())));
        assert_eq!(find_arg(&a, "k"), Ok(Some("8".into())));
        assert_eq!(find_arg(&a, "csv"), Ok(None));
        // First occurrence wins; a prefix of another flag is not a match.
        let a = args(&["bin", "--out=a", "--out", "b", "--outfile", "c"]);
        assert_eq!(find_arg(&a, "out"), Ok(Some("a".into())));
        assert_eq!(find_arg(&args(&["bin", "--outfile", "c"]), "out"), Ok(None));
        // A bare trailing flag has no value.
        assert_eq!(find_arg(&args(&["bin", "--journal"]), "journal"), Err(()));
        assert_eq!(
            find_arg(&args(&["bin", "--journal="]), "journal"),
            Ok(Some(String::new()))
        );
    }

    #[test]
    fn cfg_with_total_keeps_network_budget() {
        let cfg = cfg_with_total_ms(22.0);
        assert!((cfg.sla.total_s() - 22.0e-3).abs() < 1e-9);
        assert!((cfg.sla.network_budget_s - 5.0e-3).abs() < 1e-12);
    }
}
