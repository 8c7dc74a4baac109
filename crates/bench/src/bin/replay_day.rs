//! Replay day: day-scoped incremental evaluation vs. per-epoch rebuild
//! on a committed production-shaped trace.
//!
//! The day replays `data/replay_qps.trace` — a bursty high-QPS search
//! day with long plateaus and three demand bursts — plus the matching
//! background-batch trace through the online controller on a k=16
//! fat-tree, with a core switch dying inside the midday burst (minute
//! 730, recovering at 770). Both runs use day-scope semantics (constant
//! master seed, demand snapped to the warm-start grid), so they evaluate
//! bit-identical epoch specs; they differ only in *how* each epoch's
//! context is produced:
//!
//! * **rebuild** — `DayScopeConfig { incremental: false }`: every epoch
//!   rebuilds its `ScenarioContext` from scratch (the baseline);
//! * **incremental** — `DayScopeConfig { incremental: true }`: epochs
//!   draw contexts from the day's [`DayContext`] LRU (evaluation memos
//!   and the pod-solve cache surviving across epochs), so a repeated
//!   operating point is answered from its context's memo.
//!
//! Asserted contract (gated in CI via the committed `BENCH_replay.json`):
//!
//! * the incremental day's total energy is **bit-identical** to the
//!   rebuild day's (`f64::to_bits`, per-epoch and day-total) — caching
//!   must be invisible in results;
//! * full mode only: incremental wall-clock is >= 4x faster than
//!   per-epoch rebuild.
//!
//! The incremental timeline lands in `results/replay_day.csv` (or at
//! `--csv <path>`; bit-identical across reruns), and the metrics land
//! in `BENCH_replay.json` for the CI regression gate.

use std::time::Instant;

use eprons_bench::harness::{format_secs, Runner, Sample};
use eprons_bench::{arg_value, banner, fat_tree_k_arg, finish, quick, BASE_SEED};
use eprons_core::controller::{day_total_energy_j, save_day_csv, DayConfig, DayRecord};
use eprons_core::optimizer::{aggregation_candidates, scale_factor_candidates};
use eprons_core::report::Table;
use eprons_core::{
    simulate_day_with_failures, ClusterConfig, DayScopeConfig, DayStrategy, FailureEvent,
    FailureEventKind, FailureSchedule, OnlineConfig, ReplayTrace, TraceScenario,
};
use eprons_obs::{Event, JournalEntry, Json};
use eprons_topo::FatTree;

/// The `--out <path>` (or `--out=<path>`) argument; defaults to the
/// committed `BENCH_replay.json` (CI quick runs point elsewhere so they
/// never clobber the full-run artifact the gate reads).
fn out_arg() -> std::path::PathBuf {
    arg_value("out", "a path")
        .unwrap_or_else(|| "BENCH_replay.json".into())
        .into()
}

/// The `--csv <path>` (or `--csv=<path>`) argument: where the incremental
/// timeline goes. Defaults to the committed `results/replay_day.csv`, so
/// quick and CI runs pass a scratch path instead.
fn csv_arg() -> std::path::PathBuf {
    arg_value("csv", "a path")
        .unwrap_or_else(|| "results/replay_day.csv".into())
        .into()
}

/// Times one full day simulation and records it as a one-shot sample.
/// A day is far too expensive to iterate, so the harness's warm-up +
/// repeat loop is skipped; `single_sample` marks the degenerate spread.
fn time_day(
    r: &mut Runner,
    name: &str,
    cfg: &ClusterConfig,
    strategy: &DayStrategy,
    day: &DayConfig,
    schedule: &FailureSchedule,
) -> (Vec<DayRecord>, f64) {
    let t0 = Instant::now();
    let records = simulate_day_with_failures(cfg, strategy, day, schedule);
    let dt = t0.elapsed().as_secs_f64();
    println!("{name:<44} {:>8} iters  wall {:>12}", 1, format_secs(dt));
    r.samples.push(Sample {
        name: name.to_string(),
        iters: 1,
        mean_s: dt,
        min_s: dt,
        max_s: dt,
    });
    (records, dt)
}

/// `(hits, misses, evictions)` of the last `DayCacheReport` for `cache`
/// among `entries`. Exits non-zero when the day journaled none.
fn cache_report(entries: &[JournalEntry], cache: &str) -> (u64, u64, u64) {
    entries
        .iter()
        .rev()
        .find_map(|e| match &e.event {
            Event::DayCacheReport {
                cache: name,
                hits,
                misses,
                evictions,
                ..
            } if name == cache => Some((*hits, *misses, *evictions)),
            _ => None,
        })
        .unwrap_or_else(|| {
            eprintln!("error: the incremental day journaled no {cache} report");
            std::process::exit(1);
        })
}

fn main() {
    banner(
        "Replay day",
        "incremental day-scoped evaluation vs per-epoch rebuild on a committed trace",
    );
    // Output paths are read up front so a malformed flag fails before
    // the days run, not after.
    let (out, csv) = (out_arg(), csv_arg());
    // Telemetry stays on even without --journal: the artifact reports
    // the day's cache tallies from the `DayCacheReport` events it
    // journals, which are only recorded while obs is enabled. The
    // overhead applies to both timed runs equally.
    eprons_obs::set_enabled(true);

    let qps = ReplayTrace::load(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/replay_qps.trace"
    )))
    .expect("load replay_qps.trace");
    let bg = ReplayTrace::load(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/replay_bg.trace"
    )))
    .expect("load replay_bg.trace");

    let mut cfg = ClusterConfig {
        fat_tree_k: fat_tree_k_arg().unwrap_or(16),
        ..ClusterConfig::default()
    };
    // Same egress cap as failure_day: one flow per peer means per-flow
    // demand must shrink as the host count grows, or the K-scaled
    // aggregate oversubscribes the 1 Gbps edge uplinks at k >= 8.
    let n = cfg.num_servers() as f64;
    cfg.query_flow_mbps = cfg.query_flow_mbps.min(300.0 / (n - 1.0));
    println!(
        "fat-tree k = {} ({} servers)",
        cfg.fat_tree_k,
        cfg.num_servers()
    );

    // A core switch dies inside the midday burst and recovers 40 minutes
    // later; both runs replay the identical schedule.
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let core = ft.core(0, 0).0;
    let schedule = FailureSchedule::scripted(vec![
        FailureEvent {
            minute: 730.0,
            switch: core,
            kind: FailureEventKind::Fail,
        },
        FailureEvent {
            minute: 770.0,
            switch: core,
            kind: FailureEventKind::Recover,
        },
    ]);
    println!("injecting: switch {core} (core 0,0) fails at minute 730, recovers at 770\n");

    let large_k = cfg.fat_tree_k >= 12;
    let rebuild_day = DayConfig {
        // Full mode reconfigures on the paper's 10-minute optimization
        // period (§IV-B) — 144 epochs, where a plateau-heavy production
        // day revisits the same few operating points over and over and
        // per-epoch rebuild is almost entirely redundant work. Quick
        // mode coarsens to 6 epochs for the CI smoke pass.
        epoch_minutes: if quick() { 240 } else { 10 },
        sim_seconds: match (quick(), large_k) {
            (true, _) => 0.5,
            (false, true) => 1.0,
            (false, false) => 2.0,
        },
        peak_utilization: 0.5,
        seed: BASE_SEED,
        warm_start: true,
        search_trace: TraceScenario::Replay(qps),
        background_trace: TraceScenario::Replay(bg),
        online: Some(OnlineConfig::enabled()),
        day_scope: Some(DayScopeConfig {
            incremental: false,
            ..DayScopeConfig::default()
        }),
    };
    let incremental_day = DayConfig {
        day_scope: Some(DayScopeConfig::default()),
        ..rebuild_day.clone()
    };
    let strategy = DayStrategy::Eprons {
        candidates: if large_k {
            scale_factor_candidates(2)
        } else {
            aggregation_candidates()
        },
    };

    // The incremental day runs first: any process warm-up benefit (page
    // tables, allocator arenas) then accrues to the rebuild baseline,
    // making the reported speedup conservative.
    let mut r = Runner::new(0.0, 1);
    let mark = eprons_obs::journal().len();
    let (incremental, incremental_s) = time_day(
        &mut r,
        "day_replay/incremental",
        &cfg,
        &strategy,
        &incremental_day,
        &schedule,
    );
    let ((dc_hits, dc_misses, dc_evictions), (ec_hits, ec_misses, _)) = {
        let day = &eprons_obs::journal().snapshot()[mark..];
        (
            cache_report(day, "core.daycache"),
            cache_report(day, "core.evalcache"),
        )
    };
    let (rebuild, rebuild_s) = time_day(
        &mut r,
        "day_replay/rebuild",
        &cfg,
        &strategy,
        &rebuild_day,
        &schedule,
    );
    assert_eq!(rebuild.len(), incremental.len());

    let mut t = Table::new(
        "rebuild vs incremental on the replay day",
        &["minute", "load", "bg", "rebuild-W", "incr-W", "sw", "ok"],
    );
    for (b, i) in rebuild.iter().zip(&incremental) {
        t.row(&[
            format!("{:.0}", i.minute),
            format!("{:.2}", i.search_load),
            format!("{:.2}", i.background_util),
            format!("{:.0}", b.breakdown.total_w()),
            format!("{:.0}", i.breakdown.total_w()),
            format!("{}", i.active_switches),
            format!("{}", i.feasible),
        ]);
    }
    println!("{t}");

    // --- Bit identity: caching must be invisible in results. ---
    let rebuild_j = day_total_energy_j(&rebuild, &rebuild_day);
    let incremental_j = day_total_energy_j(&incremental, &incremental_day);
    let mut bit_identical = rebuild_j.to_bits() == incremental_j.to_bits();
    for (e, (b, i)) in rebuild.iter().zip(&incremental).enumerate() {
        let same = b.breakdown.total_w().to_bits() == i.breakdown.total_w().to_bits()
            && b.active_switches == i.active_switches
            && b.feasible == i.feasible;
        if !same {
            eprintln!(
                "epoch {e} (minute {:.0}): rebuild {} W / {} sw, incremental {} W / {} sw",
                b.minute,
                b.breakdown.total_w(),
                b.active_switches,
                i.breakdown.total_w(),
                i.active_switches,
            );
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "incremental day diverged from the rebuild baseline \
         (rebuild {rebuild_j} J vs incremental {incremental_j} J)"
    );

    let speedup = rebuild_s / incremental_s;
    println!(
        "wall:     rebuild {}, incremental {} ({speedup:.2}x)",
        format_secs(rebuild_s),
        format_secs(incremental_s)
    );
    println!("energy:   {rebuild_j:.1} J, bit-identical across modes");
    println!("daycache: {dc_hits} hits / {dc_misses} misses / {dc_evictions} evictions");
    println!("evalcache: {ec_hits} hits / {ec_misses} misses");

    const SPEEDUP_TARGET: f64 = 4.0;
    let met = bit_identical && speedup >= SPEEDUP_TARGET;

    if let Some(dir) = csv.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the timeline's directory");
    }
    save_day_csv(&incremental, &csv).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", csv.display());
        std::process::exit(1);
    });
    println!("timeline written to {}", csv.display());

    // Machine-readable artifact for the CI gate (committed from a full
    // run as BENCH_replay.json).
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("eprons.bench.replay/v1".into())),
        ("quick".into(), Json::Bool(quick())),
        ("seed".into(), Json::Num(BASE_SEED as f64)),
        ("k".into(), Json::Num(cfg.fat_tree_k as f64)),
        (
            "epoch_minutes".into(),
            Json::Num(rebuild_day.epoch_minutes as f64),
        ),
        ("suites".into(), r.to_json()),
        (
            "speedup".into(),
            Json::Obj(vec![
                ("incremental_over_rebuild".into(), Json::Num(speedup)),
                ("target".into(), Json::Num(SPEEDUP_TARGET)),
                ("met".into(), Json::Bool(met)),
            ]),
        ),
        (
            "daycache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(dc_hits as f64)),
                ("misses".into(), Json::Num(dc_misses as f64)),
                ("evictions".into(), Json::Num(dc_evictions as f64)),
            ]),
        ),
        (
            "evalcache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(ec_hits as f64)),
                ("misses".into(), Json::Num(ec_misses as f64)),
            ]),
        ),
        ("bit_identical".into(), Json::Bool(bit_identical)),
        ("energy_j".into(), Json::Num(rebuild_j)),
    ]);
    std::fs::write(&out, format!("{report}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!("metrics written to {}", out.display());
    finish();

    // The wall-clock contract is asserted last so a miss still leaves
    // the artifact, timeline, and journal on disk for diagnosis.
    if quick() {
        println!("\n(quick mode: {SPEEDUP_TARGET}x wall-clock target reported, not asserted)");
    } else {
        assert!(
            speedup >= SPEEDUP_TARGET,
            "incremental speedup {speedup:.2}x below the {SPEEDUP_TARGET}x target"
        );
        println!("\ncontract holds: bit-identical energy, >={SPEEDUP_TARGET}x wall-clock");
    }
}
