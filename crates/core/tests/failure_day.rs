//! `controller::simulate_day_with_failures` contracts: the degradation
//! ladder keeps a scripted mid-day switch failure SLA-safe (or says so
//! loudly), charges §IV-B boot energy so the failed day costs more than
//! the clean one, and stays bit-deterministic across thread budgets.
//!
//! Own test binary: the determinism check overrides the process-wide
//! thread budget, which must not race the library's unit tests.

use eprons_core::controller::{day_total_energy_j, DayConfig};
use eprons_core::optimizer::aggregation_candidates;
use eprons_core::{
    set_thread_budget, simulate_day, simulate_day_with_failures, ClusterConfig, DayRecord,
    DayStrategy, FailureEvent, FailureEventKind, FailureSchedule, OnlineConfig,
};
use eprons_topo::FatTree;

fn quick_day() -> DayConfig {
    DayConfig {
        epoch_minutes: 240, // 6 epochs, for test speed
        sim_seconds: 2.0,
        peak_utilization: 0.5,
        seed: 99,
        warm_start: true,
        ..DayConfig::default()
    }
}

/// A core switch dying at 12:10 and coming back at 12:50 — both inside
/// the [720, 960) epoch of the quick day, so exactly one epoch degrades.
fn midday_core_failure(cfg: &ClusterConfig) -> FailureSchedule {
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let core = ft.core(0, 0).0;
    FailureSchedule::scripted(vec![
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
    ])
}

fn eprons() -> DayStrategy {
    DayStrategy::Eprons {
        candidates: aggregation_candidates(),
    }
}

/// Every number in a day record, as exact bits (the superset of the
/// clean-day check: failure fields included).
fn record_bits(r: &DayRecord) -> Vec<u64> {
    let mut v = vec![
        r.minute.to_bits(),
        r.search_load.to_bits(),
        r.background_util.to_bits(),
        r.breakdown.server_w.to_bits(),
        r.breakdown.network_w.to_bits(),
        r.active_switches as u64,
        r.e2e_p95_s.to_bits(),
        r.feasible as u64,
        r.boot_energy_j.to_bits(),
        r.degradation.map_or(u64::MAX, |d| d as u64),
    ];
    v.extend(r.active_switch_ids.iter().map(|&id| id as u64));
    v.extend(r.failed_switches.iter().map(|&id| id as u64));
    v
}

#[test]
fn empty_schedule_is_bit_identical_to_simulate_day() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let a = simulate_day(&cfg, &eprons(), &day);
    let b = simulate_day_with_failures(&cfg, &eprons(), &day, &FailureSchedule::none());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(record_bits(x), record_bits(y));
        assert!(x.failed_switches.is_empty());
        assert_eq!(x.boot_energy_j, 0.0);
        assert!(x.degradation.is_none());
    }
}

#[test]
fn scripted_failure_day_is_deterministic_across_thread_budgets() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let schedule = midday_core_failure(&cfg);
    let a = simulate_day_with_failures(&cfg, &eprons(), &day, &schedule);
    set_thread_budget(Some(1));
    let b = simulate_day_with_failures(&cfg, &eprons(), &day, &schedule);
    set_thread_budget(None);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            record_bits(x),
            record_bits(y),
            "epoch at minute {} diverged across runs",
            x.minute
        );
    }
}

#[test]
fn degraded_epoch_stays_protected_and_costs_boot_energy() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let schedule = midday_core_failure(&cfg);
    let baseline = simulate_day(&cfg, &eprons(), &day);
    let degraded = simulate_day_with_failures(&cfg, &eprons(), &day, &schedule);

    // Exactly one epoch carries the failure (fail + recover both land in
    // [720, 960)), and it must be handled by a ladder rung — never a
    // silent SLA violation: each record is feasible, or flags its
    // degradation, or the clean baseline missed that epoch too.
    let hit: Vec<&DayRecord> = degraded
        .iter()
        .filter(|r| !r.failed_switches.is_empty())
        .collect();
    assert_eq!(hit.len(), 1, "the failure spans exactly one epoch");
    let r = hit[0];
    assert!(720.0 <= r.minute && r.minute < 960.0);
    assert!(
        r.degradation.is_some(),
        "a mid-epoch failure must mark its ladder rung"
    );
    assert!(
        r.boot_energy_j > 0.0,
        "repair/recovery must charge §IV-B boot energy"
    );
    for (b, d) in baseline.iter().zip(&degraded) {
        assert!(
            d.feasible || d.degradation.is_some() || !b.feasible,
            "minute {}: silent SLA violation",
            d.minute
        );
    }

    // Dead-draw accounting: the crashed switch burns power without
    // forwarding, and woken backups boot at 36 W for 72.52 s, so the
    // failed day costs strictly more energy than the clean one.
    let base_j = day_total_energy_j(&baseline, &day);
    let deg_j = day_total_energy_j(&degraded, &day);
    assert!(
        deg_j > base_j,
        "failure day {deg_j:.0} J must exceed clean day {base_j:.0} J"
    );

    // Epochs the failure never touches are bit-identical to the clean
    // run — the schedule is pure data consulted per epoch.
    for (b, d) in baseline.iter().zip(&degraded) {
        if d.failed_switches.is_empty() {
            assert_eq!(record_bits(b), record_bits(d));
        }
    }
}

#[test]
fn online_day_without_hysteresis_or_deferral_matches_the_batch_day() {
    // The online controller runs the same epoch step as the batch loop;
    // only hysteresis and deferral add behavior. With both off it must
    // reproduce the batch day bit for bit, failure epoch included.
    let cfg = ClusterConfig::default();
    let batch_day = quick_day();
    let online_day = DayConfig {
        online: Some(OnlineConfig::default()),
        ..quick_day()
    };
    let schedule = midday_core_failure(&cfg);
    let batch = simulate_day_with_failures(&cfg, &eprons(), &batch_day, &schedule);
    let online = simulate_day_with_failures(&cfg, &eprons(), &online_day, &schedule);
    assert_eq!(batch.len(), online.len());
    assert!(batch.iter().any(|r| r.degradation.is_some()));
    for (b, o) in batch.iter().zip(&online) {
        assert_eq!(
            record_bits(b),
            record_bits(o),
            "epoch at minute {} diverged between online and batch days",
            b.minute
        );
        assert_eq!(o.deferred_mbps_min, 0.0);
        assert_eq!(o.drained_mbps_min, 0.0);
        assert!(!o.held_by_hysteresis);
    }
    assert_eq!(
        day_total_energy_j(&batch, &batch_day).to_bits(),
        day_total_energy_j(&online, &online_day).to_bits()
    );
}
