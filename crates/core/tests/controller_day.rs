//! `controller::simulate_day` contracts: seeded determinism of the whole
//! epoch timeline, and the paper's headline outcome — a full EPRONS day
//! consumes less energy than a no-power-management day (Fig. 15).
//!
//! Own test binary: the determinism check overrides the process-wide
//! thread budget, which must not race the library's unit tests.

use eprons_core::controller::{day_total_energy_j, DayConfig};
use eprons_core::optimizer::aggregation_candidates;
use eprons_core::{
    set_thread_budget, simulate_day, ClusterConfig, DayRecord, DayStrategy, OnlineConfig,
};

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

/// Every number in a day record, as exact bits.
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
    ];
    v.extend(r.active_switch_ids.iter().map(|&id| id as u64));
    v
}

#[test]
fn day_timeline_is_deterministic_given_seed() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let strategy = DayStrategy::Eprons {
        candidates: aggregation_candidates(),
    };
    let a = simulate_day(&cfg, &strategy, &day);
    // Same seed, different thread budget: the timeline (every epoch's
    // choice, power split, switch set, and tail) must be bit-identical.
    set_thread_budget(Some(1));
    let b = simulate_day(&cfg, &strategy, &day);
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
fn sequential_day_matches_fanned_out_day_bit_for_bit() {
    // Every epoch runs through the one day step, whether the epochs go in
    // sequence or fan out across the thread budget. A TimeTrader batch
    // day fans out; the same day under an online controller with
    // hysteresis and deferral off runs in sequence and adds no behavior,
    // so it must reproduce the fanned-out day in every record bit and in
    // total energy.
    let cfg = ClusterConfig::default();
    let strategy = DayStrategy::TimeTrader;
    let fanned_day = quick_day();
    let sequential_day = DayConfig {
        online: Some(OnlineConfig::default()),
        ..quick_day()
    };
    let fanned = simulate_day(&cfg, &strategy, &fanned_day);
    let sequential = simulate_day(&cfg, &strategy, &sequential_day);
    assert_eq!(sequential.len(), fanned.len());
    for (s, f) in sequential.iter().zip(&fanned) {
        assert_eq!(
            record_bits(s),
            record_bits(f),
            "epoch at minute {} diverged between sequential and fanned-out days",
            s.minute
        );
    }
    let sequential_j = day_total_energy_j(&sequential, &sequential_day);
    let fanned_j = day_total_energy_j(&fanned, &fanned_day);
    assert_eq!(sequential_j.to_bits(), fanned_j.to_bits());
}

#[test]
fn eprons_day_uses_less_energy_than_no_power_management() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let nopm = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day);
    let eprons = simulate_day(
        &cfg,
        &DayStrategy::Eprons {
            candidates: aggregation_candidates(),
        },
        &day,
    );
    let nopm_j = day_total_energy_j(&nopm, &day);
    let eprons_j = day_total_energy_j(&eprons, &day);
    assert!(nopm_j > 0.0);
    assert!(
        eprons_j < nopm_j,
        "EPRONS day {eprons_j:.0} J must undercut no-PM day {nopm_j:.0} J"
    );
}
