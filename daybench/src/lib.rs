//! Workloads, timed day runs and the traced per-layer sweep of the
//! repository benchmark. `main.rs` wraps these in a small CLI that
//! `run.py` starts once per sample, so every sample runs in a fresh
//! process with cold process-global caches.

use std::path::Path;
use std::time::Instant;

use eprons_core::cluster::ClusterRun;
use eprons_core::optimizer::{aggregation_candidates, scale_factor_candidates};
use eprons_core::{
    candidate_power_floor_w, day_churn_count, day_total_energy_j, day_transition_energy_j,
    simulate_day_with_failures, ClusterConfig, ConsolidationSpec, DayConfig, DayContext, DayRecord,
    DayScopeConfig, DayStrategy, FailureEvent, FailureEventKind, FailureSchedule, NetworkPlan,
    OnlineConfig, ReplayTrace, ScenarioContext, ScenarioSpec, ServerEvaluation, ServerScheme,
    TraceScenario,
};
use eprons_sim::SimRng;
use eprons_topo::{FatTree, NodeId};

/// Minutes in the simulated day.
pub const MINUTES_PER_DAY: usize = 1440;

/// The benchmark's workloads (see `NOTES.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Committed bursty trace, k=16, online controller, day-scoped
    /// incremental evaluation.
    ReplayK16,
    /// The same day with per-epoch context rebuild.
    RebuildK16,
    /// The paper's Fig. 15 diurnal day on the 16-server k=4 fabric.
    PaperDayK4,
}

impl Workload {
    /// Every workload the binary runs.
    pub const ALL: [Workload; 3] = [
        Workload::ReplayK16,
        Workload::RebuildK16,
        Workload::PaperDayK4,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayK16 => "replay-k16",
            Workload::RebuildK16 => "rebuild-k16",
            Workload::PaperDayK4 => "paper-day-k4",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Epoch length in minutes of the timed day.
    pub fn epoch_minutes(self) -> usize {
        match self {
            Workload::ReplayK16 | Workload::RebuildK16 => 240,
            Workload::PaperDayK4 => 120,
        }
    }

    /// Simulated seconds of query arrivals per epoch evaluation.
    pub fn sim_seconds(self) -> f64 {
        match self {
            Workload::ReplayK16 | Workload::RebuildK16 => 0.5,
            Workload::PaperDayK4 => 4.0,
        }
    }

    /// Epochs in the timed day.
    pub fn epochs(self) -> usize {
        MINUTES_PER_DAY / self.epoch_minutes()
    }
}

/// Everything a day needs, built before the first call into the day loop.
pub struct Setup {
    /// Cluster parameters.
    pub cfg: ClusterConfig,
    /// Day parameters (traces, epochs, seed, controller mode).
    pub day: DayConfig,
    /// The EPRONS strategy with the workload's candidate ladder.
    pub strategy: DayStrategy,
    /// Switch failures injected during the day.
    pub schedule: FailureSchedule,
    /// Seconds spent loading or generating the demand traces.
    pub load_s: f64,
    /// Seconds spent in `FatTree::new`.
    pub fattree_s: f64,
}

impl Setup {
    /// The candidate ladder the day's EPRONS strategy searches.
    pub fn candidates(&self) -> &[ConsolidationSpec] {
        match &self.strategy {
            DayStrategy::Eprons { candidates } => candidates,
            _ => &[],
        }
    }
}

/// Checks that a per-minute demand trace covers the day with values in
/// [0, 1].
fn check_trace(name: &str, minutes: &[f64]) -> Result<(), String> {
    if minutes.len() != MINUTES_PER_DAY {
        return Err(format!(
            "{name}: {} minutes, want {MINUTES_PER_DAY}",
            minutes.len()
        ));
    }
    match minutes.iter().position(|v| !(0.0..=1.0).contains(v)) {
        Some(i) => Err(format!("{name}: minute {i} holds {}", minutes[i])),
        None => Ok(()),
    }
}

/// The simulator's own RNG seed: program configuration, the same for
/// every benchmark seed (the repository's `BASE_SEED`).
pub const PROGRAM_SEED: u64 = 2018;

/// Builds a workload's inputs from `input_seed` — demand traces, cluster
/// and day configuration, fat-tree and failure schedule. The day's own
/// RNG runs from [`PROGRAM_SEED`]. `data_dir` holds the committed replay
/// traces.
///
/// The replay workloads replay the committed traces verbatim and draw
/// the core switch that fails from minute 730 to 770 from the seed; the
/// paper day samples the diurnal demand profiles from the seed.
pub fn setup(w: Workload, input_seed: u64, data_dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut rng = SimRng::seed_from_u64(input_seed);
    let d = DayConfig::default();
    let (search, background) = match w {
        Workload::ReplayK16 | Workload::RebuildK16 => {
            let load = |file: &str| {
                let path = data_dir.join(file);
                ReplayTrace::load(&path).map_err(|e| format!("cannot load {}: {e}", path.display()))
            };
            (
                load("replay_qps.trace")?.minutes().to_vec(),
                load("replay_bg.trace")?.minutes().to_vec(),
            )
        }
        Workload::PaperDayK4 => (
            d.search_trace.sample_day(&mut rng.fork(1)),
            d.background_trace.sample_day(&mut rng.fork(2)),
        ),
    };
    check_trace("search", &search)?;
    check_trace("background", &background)?;
    let search_trace = TraceScenario::Replay(ReplayTrace::new(search));
    let background_trace = TraceScenario::Replay(ReplayTrace::new(background));
    let load_s = t0.elapsed().as_secs_f64();

    let mut cfg = ClusterConfig::default();
    if w != Workload::PaperDayK4 {
        cfg.fat_tree_k = 16;
        // One query flow per peer: per-flow demand shrinks with the host
        // count so the aggregate fits the 1 Gbps edge uplinks (the cap
        // the replay and failure-day harnesses use).
        let n = cfg.num_servers() as f64;
        cfg.query_flow_mbps = cfg.query_flow_mbps.min(300.0 / (n - 1.0));
    }

    let t1 = Instant::now();
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let fattree_s = t1.elapsed().as_secs_f64();
    if ft.hosts().len() != cfg.num_servers() {
        return Err(format!(
            "fat-tree has {} hosts, config expects {}",
            ft.hosts().len(),
            cfg.num_servers()
        ));
    }

    let (schedule, strategy, online, day_scope) = match w {
        Workload::ReplayK16 | Workload::RebuildK16 => {
            let mut pick = rng.fork(3);
            let half = cfg.fat_tree_k / 2;
            let core = ft.core(pick.index(half), pick.index(half)).0;
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
            let scope = DayScopeConfig {
                incremental: w == Workload::ReplayK16,
                ..DayScopeConfig::default()
            };
            (
                schedule,
                DayStrategy::Eprons {
                    candidates: scale_factor_candidates(2),
                },
                Some(OnlineConfig::enabled()),
                Some(scope),
            )
        }
        Workload::PaperDayK4 => (
            FailureSchedule::none(),
            DayStrategy::Eprons {
                candidates: aggregation_candidates(),
            },
            None,
            None,
        ),
    };
    let day = DayConfig {
        epoch_minutes: w.epoch_minutes(),
        sim_seconds: w.sim_seconds(),
        peak_utilization: 0.5,
        seed: PROGRAM_SEED,
        warm_start: true,
        search_trace,
        background_trace,
        online,
        day_scope,
    };
    Ok(Setup {
        cfg,
        day,
        strategy,
        schedule,
        load_s,
        fattree_s,
    })
}

/// The outcome of one timed day.
pub struct DayOutcome {
    /// One record per epoch.
    pub records: Vec<DayRecord>,
    /// Host wall seconds of the `simulate_day_with_failures` call.
    pub day_s: f64,
    /// Day energy plus switch transition energy, joules.
    pub energy_j: f64,
    /// Epochs that ran an SLA-violating configuration.
    pub sla_misses: usize,
    /// Switch power toggles across the day.
    pub switch_toggles: usize,
}

/// Runs and times one day, then checks its records: one per epoch, each
/// with finite, positive power.
pub fn run_day(s: &Setup) -> Result<DayOutcome, String> {
    let t0 = Instant::now();
    let records = simulate_day_with_failures(&s.cfg, &s.strategy, &s.day, &s.schedule);
    let day_s = t0.elapsed().as_secs_f64();
    let epochs = MINUTES_PER_DAY / s.day.epoch_minutes;
    if records.len() != epochs {
        return Err(format!("{} records for {epochs} epochs", records.len()));
    }
    for (e, r) in records.iter().enumerate() {
        let (sv, net, total) = (
            r.breakdown.server_w,
            r.breakdown.network_w,
            r.breakdown.total_w(),
        );
        if !(sv.is_finite() && net.is_finite() && sv >= 0.0 && net >= 0.0 && total > 0.0) {
            return Err(format!("epoch {e}: power server {sv} W, network {net} W"));
        }
    }
    let energy_j = day_total_energy_j(&records, &s.day)
        + day_transition_energy_j(&records, &s.cfg.failure.transition);
    if !(energy_j.is_finite() && energy_j > 0.0) {
        return Err(format!("day energy {energy_j} J"));
    }
    Ok(DayOutcome {
        sla_misses: records.iter().filter(|r| !r.feasible).count(),
        switch_toggles: day_churn_count(&records),
        records,
        day_s,
        energy_j,
    })
}

/// The per-epoch inputs the traced sweep replays: what the day's own
/// records say each epoch saw.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochInput {
    /// Epoch index within the day.
    pub epoch: usize,
    /// Normalized search load at the epoch midpoint.
    pub search_load: f64,
    /// Background utilization the epoch was evaluated at.
    pub background_util: f64,
}

impl EpochInput {
    /// One line per epoch; floats travel as exact bit patterns.
    pub fn to_line(&self) -> String {
        format!(
            "epoch {} {:016x} {:016x}",
            self.epoch,
            self.search_load.to_bits(),
            self.background_util.to_bits()
        )
    }

    /// Inverse of [`EpochInput::to_line`].
    pub fn parse_line(line: &str) -> Result<EpochInput, String> {
        let bad = || format!("malformed epoch line {line:?}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 4 || f[0] != "epoch" {
            return Err(bad());
        }
        let bits = |s: &str| {
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| bad())
        };
        Ok(EpochInput {
            epoch: f[1].parse().map_err(|_| bad())?,
            search_load: bits(f[2])?,
            background_util: bits(f[3])?,
        })
    }

    /// The inputs of every record of a day.
    pub fn of_day(records: &[DayRecord]) -> Vec<EpochInput> {
        records
            .iter()
            .enumerate()
            .map(|(epoch, r)| EpochInput {
                epoch,
                search_load: r.search_load,
                background_util: r.background_util,
            })
            .collect()
    }
}

/// The warm-start demand grid day-scoped runs snap demand onto (5 %
/// steps), as the day controller does.
fn quantize_demand(x: f64) -> f64 {
    (x / 0.05).round() * 0.05
}

/// The scenario axes the day controller evaluates `input`'s epoch at.
pub fn epoch_spec(day: &DayConfig, input: &EpochInput) -> ScenarioSpec {
    let util = (day.peak_utilization * input.search_load).max(0.02);
    let (util, seed) = if day.day_scope.is_some() {
        (quantize_demand(util).max(0.05), day.seed)
    } else {
        (
            util,
            day.seed ^ (input.epoch as u64).wrapping_mul(0x9E37_79B9),
        )
    };
    ScenarioSpec::of_run(&ClusterRun {
        server_utilization: util,
        background_util: input.background_util,
        duration_s: day.sim_seconds,
        warmup_s: 0.0,
        seed,
        ..ClusterRun::default()
    })
}

/// Wall seconds of every call into one layer.
#[derive(Debug, Default, Clone)]
pub struct Calls {
    /// Seconds per call, in call order.
    pub secs: Vec<f64>,
}

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.secs.push(t0.elapsed().as_secs_f64());
        out
    }
}

/// Per-call timings of one traced sweep, by layer.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Epochs swept.
    pub epochs: usize,
    /// Fat-tree servers (the ISNs each server evaluation simulates).
    pub servers: usize,
    /// Context acquisitions (`DayContext::context_for` or
    /// `ScenarioContext::build`).
    pub context: Calls,
    /// Context requests served by reviving a day-cache slot.
    pub context_hits: u64,
    /// `candidate_power_floor_w` calls.
    pub bounds: Calls,
    /// `NetworkPlan::build_masked` calls that returned a plan.
    pub plan_ok: Calls,
    /// `NetworkPlan::build_masked` calls that proved the candidate
    /// unroutable.
    pub plan_fail: Calls,
    /// `ServerEvaluation::run` calls, one per routable candidate.
    pub eval: Calls,
    /// Wall seconds of the whole sweep loop.
    pub wall_s: f64,
}

/// Sweeps every candidate of the ladder over each epoch in `inputs`,
/// acquiring each epoch's context and failure mask the way the day
/// controller does and timing each layer's public entry point from here.
/// As in the controller's search, the mask holds the switches down when
/// the epoch opens; a failure that starts and ends inside an epoch is
/// left to the controller's degradation ladder and masks nothing here. Bounds and plans
/// are computed directly, bypassing the per-context memos, so each time
/// is the layer's real work.
pub fn sweep(s: &Setup, inputs: &[EpochInput]) -> Result<SweepReport, String> {
    let scheme = ServerScheme::EpronsServer;
    let incremental = s.day.day_scope.as_ref().is_some_and(|d| d.incremental);
    let day_ctx = incremental.then(|| {
        let slots = s.day.day_scope.as_ref().map_or(1, |d| d.max_slots);
        DayContext::new(&s.cfg, slots)
    });
    let mut rep = SweepReport {
        epochs: inputs.len(),
        servers: s.cfg.num_servers(),
        ..SweepReport::default()
    };
    let t0 = Instant::now();
    for input in inputs {
        let spec = epoch_spec(&s.day, input);
        let ctx = rep.context.time(|| match &day_ctx {
            Some(dc) => dc.context_for(&spec),
            None => ScenarioContext::build(&s.cfg, &spec),
        });
        let start = (input.epoch * s.day.epoch_minutes) as f64;
        let mask: Vec<NodeId> = s
            .schedule
            .failed_at(start)
            .into_iter()
            .map(NodeId)
            .collect();
        for &cand in s.candidates() {
            let floor = rep
                .bounds
                .time(|| candidate_power_floor_w(&ctx, scheme, cand, &mask));
            if !(floor.is_finite() && floor > 0.0) {
                return Err(format!(
                    "epoch {}: {} floor {floor} W",
                    input.epoch,
                    cand.label()
                ));
            }
            let t = Instant::now();
            let plan = NetworkPlan::build_masked(&ctx, cand, &mask);
            let dt = t.elapsed().as_secs_f64();
            match plan {
                Ok(plan) => {
                    rep.plan_ok.secs.push(dt);
                    let eval = rep.eval.time(|| ServerEvaluation::run(&ctx, &plan, scheme));
                    std::hint::black_box(eval);
                }
                Err(_) => rep.plan_fail.secs.push(dt),
            }
        }
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.context_hits = day_ctx.map_or(0, |dc| dc.stats().hits);
    Ok(rep)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(MINUTES_PER_DAY % w.epoch_minutes(), 0);
        }
        assert_eq!(Workload::parse("replay"), None);
    }

    #[test]
    fn epoch_lines_round_trip_exact_bits() {
        let input = EpochInput {
            epoch: 7,
            search_load: 0.1 + 0.2,
            background_util: 1.0 / 3.0,
        };
        assert_eq!(EpochInput::parse_line(&input.to_line()), Ok(input));
        assert!(EpochInput::parse_line("epoch 1 zz 00").is_err());
        assert!(EpochInput::parse_line("epoch 1 00 00 -").is_err());
    }

    #[test]
    fn day_scoped_specs_snap_demand_and_keep_the_seed() {
        let mut day = DayConfig {
            seed: 9,
            day_scope: Some(DayScopeConfig::default()),
            ..DayConfig::default()
        };
        let input = EpochInput {
            epoch: 3,
            search_load: 0.43,
            background_util: 0.2,
        };
        let spec = epoch_spec(&day, &input);
        assert_eq!(spec.seed, 9);
        assert!((spec.server_utilization - 0.2).abs() < 1e-12);
        day.day_scope = None;
        let spec = epoch_spec(&day, &input);
        assert_ne!(spec.seed, 9);
        assert!((spec.server_utilization - 0.215).abs() < 1e-12);
    }
}
