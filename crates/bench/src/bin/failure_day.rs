//! Fault-injected diurnal day: graceful degradation under a mid-day
//! core-switch failure (§IV-B's "backup paths" remark, exercised).
//!
//! Replays the Fig. 15 EPRONS day twice — failure-free, and with a core
//! switch dying at 12:10 and recovering at 12:50 — and prints the
//! degraded timeline: which epoch was hit, which degradation-ladder rung
//! handled it (in-epoch repair / reconsolidation / all-on fallback), the
//! boot energy charged for woken backups, and the total-energy premium
//! the failure costs. Asserts the paper-level contract: the failed epoch
//! never violates the SLA silently, and the failure day costs strictly
//! more energy than the clean one (hung-switch draw + boot transients).
//!
//! The full timeline lands in `results/failure_day.csv`; two invocations
//! with the same seed are bit-identical.
//!
//! `--k <arity>` (or `--k=<arity>`) replays the day on a larger fat-tree
//! (default 4). The per-pair query demand is rescaled so total egress
//! per host stays within the edge-uplink budget — at the default demand
//! the all-pairs flow count oversubscribes uplinks once k ≥ 8.

use eprons_bench::{banner, fat_tree_k_arg, finish, quick, BASE_SEED};
use eprons_core::controller::{day_total_energy_j, save_day_csv, DayConfig};
use eprons_core::optimizer::{aggregation_candidates, scale_factor_candidates};
use eprons_core::report::Table;
use eprons_core::{
    simulate_day, simulate_day_with_failures, ClusterConfig, DayStrategy, FailureEvent,
    FailureEventKind, FailureSchedule,
};
use eprons_topo::FatTree;

fn main() {
    banner(
        "Failure day",
        "fault-injected diurnal day with graceful degradation (§IV-B)",
    );
    let mut cfg = ClusterConfig::default();
    if let Some(k) = fat_tree_k_arg() {
        cfg.fat_tree_k = k;
    }
    // Hold total query egress per host at 300 Mbps: one flow per peer
    // means per-flow demand must shrink as the host count grows, or the
    // K-scaled aggregate oversubscribes the 1 Gbps edge uplinks at k>=8.
    // At k=4 the cap is not binding, so the default day is untouched.
    let n = cfg.num_servers() as f64;
    cfg.query_flow_mbps = cfg.query_flow_mbps.min(300.0 / (n - 1.0));
    println!(
        "fat-tree k = {} ({} servers)\n",
        cfg.fat_tree_k,
        cfg.num_servers()
    );
    // From k = 12 up the default Auto strategy consolidates pod-by-pod,
    // so a K-ladder candidate set routes every epoch plan — and the
    // rung-2 masked replan after the failure — through the hierarchical
    // decomposition (pod-masked repair: re-solve the failed pod, serve
    // the rest from the epoch's PodSolveCache). The aggregation presets
    // stay at small k, where Auto is monolithic and the presets are the
    // paper's Fig. 15 day. The quick day is coarser at large k so the
    // CI journal-audit pass at k=16 (1024 servers) stays affordable.
    let large_k = cfg.fat_tree_k >= 12;
    let day = DayConfig {
        epoch_minutes: match (quick(), large_k) {
            (true, true) => 240,
            (true, false) => 120,
            (false, _) => 60,
        },
        sim_seconds: match (quick(), large_k) {
            (true, true) => 1.0,
            (true, false) => 2.0,
            (false, _) => 4.0,
        },
        peak_utilization: 0.5,
        seed: BASE_SEED,
        warm_start: true,
        ..DayConfig::default()
    };
    let strategy = DayStrategy::Eprons {
        candidates: if large_k {
            scale_factor_candidates(2)
        } else {
            aggregation_candidates()
        },
    };

    // The victim: core(0,0) is active in every aggregation preset, so the
    // failure always hits the chosen configuration. Fail at 12:10 and
    // recover at 12:50 — inside one epoch for both epoch lengths.
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

    let baseline = simulate_day(&cfg, &strategy, &day);
    let degraded = simulate_day_with_failures(&cfg, &strategy, &day, &schedule);

    let mut t = Table::new(
        "degraded vs clean EPRONS day",
        &[
            "minute",
            "clean-W",
            "failed-W",
            "switches",
            "failed-sw",
            "stage",
            "boot-J",
            "feasible",
        ],
    );
    for (b, d) in baseline.iter().zip(&degraded) {
        t.row(&[
            format!("{:.0}", d.minute),
            format!("{:.0}", b.breakdown.total_w()),
            format!("{:.0}", d.breakdown.total_w()),
            format!("{}", d.active_switches),
            if d.failed_switches.is_empty() {
                "-".into()
            } else {
                d.failed_switches
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(";")
            },
            d.degradation.map_or("-".into(), |s| s.label().to_string()),
            format!("{:.0}", d.boot_energy_j),
            format!("{}", d.feasible),
        ]);
    }
    println!("{t}");

    let base_j = day_total_energy_j(&baseline, &day);
    let deg_j = day_total_energy_j(&degraded, &day);
    println!("clean day:   {base_j:>12.0} J");
    println!(
        "failure day: {deg_j:>12.0} J  (+{:.0} J / +{:.4}% — hung-switch draw + boot energy)",
        deg_j - base_j,
        (deg_j / base_j - 1.0) * 100.0
    );

    // --- The §IV-B contract, asserted hard. ---
    let hit: Vec<_> = degraded
        .iter()
        .filter(|r| !r.failed_switches.is_empty())
        .collect();
    assert_eq!(hit.len(), 1, "the scripted failure spans exactly one epoch");
    let r = hit[0];
    assert!(
        r.degradation.is_some(),
        "the failed epoch must record its degradation rung"
    );
    assert!(
        r.boot_energy_j > 0.0,
        "repair/recovery must charge boot energy"
    );
    for (b, d) in baseline.iter().zip(&degraded) {
        assert!(
            d.feasible || d.degradation.is_some() || !b.feasible,
            "minute {}: SLA violated silently",
            d.minute
        );
    }
    assert!(
        deg_j > base_j,
        "failure day must cost more energy than the clean day"
    );
    println!(
        "\ncontract holds: failed epoch handled via '{}' rung, no silent SLA loss",
        r.degradation.expect("asserted above").label()
    );

    std::fs::create_dir_all("results").expect("create results/");
    let csv = std::path::Path::new("results/failure_day.csv");
    save_day_csv(&degraded, csv).expect("write timeline CSV");
    println!("timeline written to {}", csv.display());
    finish();
}
