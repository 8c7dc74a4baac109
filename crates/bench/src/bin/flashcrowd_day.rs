//! Flash-crowd day: the online controller vs. the epoch-batch loop on an
//! adversarial trace.
//!
//! The day is hostile on purpose: a flash crowd erupts mid-morning on
//! top of the diurnal search load (40-minute ramp to +45 % of peak, held
//! 80 minutes, 60-minute decay) and two core switches die during the
//! ramp — exactly when marginal hardware is being woken — recovering
//! ~40 minutes later. The epoch-batch loop re-optimizes every epoch from
//! scratch and flaps switches as the surge sweeps demand through the
//! candidate thresholds. The online controller (hysteresis priced by the
//! §IV-B transition model + bounded deferral of latency-tolerant
//! background demand) should ride through the same day with materially
//! less churn at no total-energy premium.
//!
//! Asserted contract (the PR's headline number, gated in CI via the
//! committed `BENCH_flashcrowd.json`):
//!
//! * switch churn (on+off toggles) drops by >= 30 % vs. epoch-batch;
//! * day total energy *including* transition energy is no worse;
//! * the online day misses the SLA on no more epochs than batch.
//!
//! The online timeline lands in `results/flashcrowd_day.csv` (or at
//! `--csv <path>`; bit-identical across reruns and thread budgets — the
//! online loop is sequential and the epoch internals are
//! determinism-hardened), and the metrics land in `BENCH_flashcrowd.json`
//! (or at `--out <path>`) for the CI regression gate.

use eprons_bench::{arg_value, banner, finish, quick, BASE_SEED};
use eprons_core::controller::{
    day_churn_count, day_total_energy_j, day_transition_energy_j, save_day_csv, DayConfig,
    DayRecord,
};
use eprons_core::optimizer::aggregation_candidates;
use eprons_core::report::Table;
use eprons_core::{
    simulate_day_with_failures, ClusterConfig, DayStrategy, FailureEvent, FailureEventKind,
    FailureSchedule, FlashCrowd, OnlineConfig, TraceScenario,
};
use eprons_sim::SimRng;
use eprons_topo::FatTree;
use eprons_workload::correlated_failures_during_ramp;

/// Day total energy plus the transition energy its churn would cost on
/// real hardware — the fair currency for a controller that trades
/// reconfigurations against steady-state draw.
fn total_energy_j(records: &[DayRecord], day: &DayConfig, cfg: &ClusterConfig) -> f64 {
    day_total_energy_j(records, day) + day_transition_energy_j(records, &cfg.failure.transition)
}

fn sla_miss_epochs(records: &[DayRecord]) -> usize {
    records.iter().filter(|r| !r.feasible).count()
}

/// The `--out <path>` (or `--out=<path>`) argument; defaults to the
/// committed `BENCH_flashcrowd.json` (CI quick runs point elsewhere so
/// they never clobber the full-run artifact the gate reads).
fn out_arg() -> std::path::PathBuf {
    arg_value("out", "a path")
        .unwrap_or_else(|| "BENCH_flashcrowd.json".into())
        .into()
}

/// The `--csv <path>` (or `--csv=<path>`) argument: where the online
/// timeline goes. Defaults to the committed full-run
/// `results/flashcrowd_day.csv`, so quick and CI runs pass a scratch path
/// instead.
fn csv_arg() -> std::path::PathBuf {
    arg_value("csv", "a path")
        .unwrap_or_else(|| "results/flashcrowd_day.csv".into())
        .into()
}

fn main() {
    banner(
        "Flash-crowd day",
        "online hysteresis + deferral vs. epoch-batch on an adversarial trace",
    );
    let (out, csv) = (out_arg(), csv_arg());
    let cfg = ClusterConfig::default();
    let crowd = FlashCrowd::reference();
    let window = crowd.ramp_window();
    println!(
        "flash crowd: +{:.0}% of peak, ramp [{}, {}) min, decay by minute {}",
        crowd.surge * 100.0,
        window.0,
        window.1,
        window.1 + crowd.decay_minutes
    );

    // Two core switches die during the ramp (correlated with the surge —
    // marginal hardware fails when it is being woken) and recover ~40
    // minutes later. Both strategies replay the identical schedule.
    let topo = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let cores: Vec<usize> = topo.core_switches().iter().map(|n| n.0).collect();
    let failures = correlated_failures_during_ramp(
        window,
        &cores,
        2,
        40.0,
        &mut SimRng::seed_from_u64(BASE_SEED ^ 0xf1a5),
    );
    let mut events = Vec::with_capacity(failures.len() * 2);
    for f in &failures {
        println!(
            "injecting: switch {} fails at minute {:.1}, recovers at {:.1}",
            f.switch,
            f.fail_minute,
            f.fail_minute + f.downtime_minutes
        );
        events.push(FailureEvent {
            minute: f.fail_minute,
            switch: f.switch,
            kind: FailureEventKind::Fail,
        });
        events.push(FailureEvent {
            minute: f.fail_minute + f.downtime_minutes,
            switch: f.switch,
            kind: FailureEventKind::Recover,
        });
    }
    let schedule = FailureSchedule::scripted(events);

    let batch_day = DayConfig {
        // Hourly reconfiguration, like the paper's day replays (fig15,
        // failure_day); quick mode only cheapens the queue simulation.
        epoch_minutes: 60,
        sim_seconds: if quick() { 2.0 } else { 4.0 },
        peak_utilization: 0.5,
        seed: BASE_SEED,
        warm_start: true,
        search_trace: TraceScenario::FlashCrowd(crowd),
        ..DayConfig::default()
    };
    let online_day = DayConfig {
        online: Some(OnlineConfig::enabled()),
        ..batch_day.clone()
    };
    let strategy = DayStrategy::Eprons {
        candidates: aggregation_candidates(),
    };

    let batch = simulate_day_with_failures(&cfg, &strategy, &batch_day, &schedule);
    let online = simulate_day_with_failures(&cfg, &strategy, &online_day, &schedule);
    assert_eq!(batch.len(), online.len());

    let mut t = Table::new(
        "epoch-batch vs online on the flash-crowd day",
        &[
            "minute", "load", "batch-W", "online-W", "b-sw", "o-sw", "held", "defer", "drain", "ok",
        ],
    );
    for (b, o) in batch.iter().zip(&online) {
        t.row(&[
            format!("{:.0}", o.minute),
            format!("{:.2}", o.search_load),
            format!("{:.0}", b.breakdown.total_w()),
            format!("{:.0}", o.breakdown.total_w()),
            format!("{}", b.active_switches),
            format!("{}", o.active_switches),
            if o.held_by_hysteresis { "H" } else { "-" }.into(),
            format!("{:.0}", o.deferred_mbps_min),
            format!("{:.0}", o.drained_mbps_min),
            format!("{}", o.feasible),
        ]);
    }
    println!("{t}");

    let churn_batch = day_churn_count(&batch);
    let churn_online = day_churn_count(&online);
    let reduction = 1.0 - churn_online as f64 / churn_batch.max(1) as f64;
    let batch_j = total_energy_j(&batch, &batch_day, &cfg);
    let online_j = total_energy_j(&online, &online_day, &cfg);
    let miss_batch = sla_miss_epochs(&batch);
    let miss_online = sla_miss_epochs(&online);
    let holds = online.iter().filter(|r| r.held_by_hysteresis).count();
    let deferred: f64 = online.iter().map(|r| r.deferred_mbps_min).sum();
    let drained: f64 = online.iter().map(|r| r.drained_mbps_min).sum();

    println!(
        "churn:  batch {churn_batch} toggles, online {churn_online} \
         (-{:.0}%, {holds} hysteresis hold(s))",
        reduction * 100.0
    );
    println!(
        "energy: batch {batch_j:.0} J, online {online_j:.0} J \
         ({:+.3}% incl. transition energy)",
        (online_j / batch_j - 1.0) * 100.0
    );
    println!(
        "SLA:    batch misses {miss_batch} epoch(s), online misses {miss_online}; \
         deferred {deferred:.0} mbps-min, drained {drained:.0}"
    );

    // --- The PR's contract, asserted hard. ---
    const CHURN_TARGET: f64 = 0.30;
    assert!(
        reduction >= CHURN_TARGET,
        "online churn reduction {:.1}% below the {:.0}% target",
        reduction * 100.0,
        CHURN_TARGET * 100.0
    );
    assert!(
        online_j <= batch_j * (1.0 + 1.0e-6),
        "online day costs more energy: {online_j:.0} J vs batch {batch_j:.0} J"
    );
    assert!(
        miss_online <= miss_batch,
        "online day misses SLA on more epochs ({miss_online}) than batch ({miss_batch})"
    );
    println!("\ncontract holds: >=30% churn cut, energy no worse, SLA no worse");

    if let Some(dir) = csv.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the timeline's directory");
    }
    save_day_csv(&online, &csv).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", csv.display());
        std::process::exit(1);
    });
    println!("timeline written to {}", csv.display());

    // Machine-readable artifact for the CI gate (committed from a full
    // run as BENCH_flashcrowd.json).
    let json = format!(
        "{{\n  \"schema\": \"eprons.bench.flashcrowd/v1\",\n  \"quick\": {},\n  \
         \"seed\": {BASE_SEED},\n  \"epoch_minutes\": {},\n  \
         \"batch\": {{ \"churn\": {churn_batch}, \"energy_j\": {batch_j:.1}, \
         \"sla_miss_epochs\": {miss_batch} }},\n  \
         \"online\": {{ \"churn\": {churn_online}, \"energy_j\": {online_j:.1}, \
         \"sla_miss_epochs\": {miss_online}, \"holds\": {holds}, \
         \"deferred_mbps_min\": {deferred:.1}, \"drained_mbps_min\": {drained:.1} }},\n  \
         \"churn_reduction\": {reduction:.4},\n  \
         \"energy_ratio\": {:.6},\n  \
         \"target\": {CHURN_TARGET},\n  \"met\": {}\n}}\n",
        quick(),
        batch_day.epoch_minutes,
        online_j / batch_j,
        reduction >= CHURN_TARGET && online_j <= batch_j * (1.0 + 1.0e-6),
    );
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!("metrics written to {}", out.display());
    finish();
}
