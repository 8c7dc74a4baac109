//! Discrete-event ISN simulation driving a DVFS policy.
//!
//! Mirrors the paper's search-engine simulator (§V-A): requests arrive with
//! per-request deadlines, the policy re-selects the frequency at every
//! arrival and departure instant, service progresses as
//! `t_fixed + work / f` with the in-flight request re-scaled when the
//! frequency changes, and a power meter integrates busy/idle core power
//! into energy.
//!
//! The paper's ISNs are 12-core CPUs (§V-A), but its power scheme is
//! per-core, so the cluster simulates one core per ISN. The same loop runs
//! `c` cores sharing one queue ([`CoreSimConfig::cores`]) to check that
//! approximation: a pooled M/G/c queue waits less than one M/G/1 core at
//! equal per-core load, so the one-core model is conservative. Dedicated
//! per-core queues need no mode of their own: they are `c` one-core runs.

use eprons_sim::{EnergyMeter, SimRng};

use crate::freq::FreqLadder;
use crate::policy::DvfsPolicy;
use crate::power::CpuPowerModel;
use crate::request::ArrivalSpec;
use crate::vp::{InflightHead, VpEngine};

/// Core-simulator configuration.
#[derive(Debug, Clone)]
pub struct CoreSimConfig {
    /// Available frequencies.
    pub ladder: FreqLadder,
    /// Power model (per core).
    pub power: CpuPowerModel,
    /// Decision overhead subtracted from every budget (the paper replaces
    /// `D` with `D − overhead`, §III-C; ≈30 µs measured).
    pub decision_overhead_s: f64,
    /// Measurement window start: requests arriving earlier, and power
    /// consumed earlier, are excluded from the results. Lets slow-settling
    /// feedback policies (TimeTrader's 5 s period) reach steady state
    /// before being scored.
    pub measure_from_s: f64,
    /// Cores sharing the request queue (at least 1). The cluster runs the
    /// per-core model, 1.
    pub cores: usize,
}

impl Default for CoreSimConfig {
    fn default() -> Self {
        CoreSimConfig {
            ladder: FreqLadder::paper_default(),
            power: CpuPowerModel::default(),
            decision_overhead_s: 30.0e-6,
            measure_from_s: 0.0,
            cores: 1,
        }
    }
}

/// A request waiting in the queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: f64,
    budget: f64,
    deadline: f64,
    work_gc: f64,
    tag: u64,
}

/// The request in service.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    arrival: f64,
    budget: f64,
    deadline: f64,
    rem_work_gc: f64,
    done_work_gc: f64,
    rem_fixed_s: f64,
    tag: u64,
}

/// One core's state.
struct Core {
    inflight: Option<Inflight>,
    freq: f64,
    /// Whether the core was idle (possibly asleep) before the current
    /// event.
    was_idle: bool,
    /// Metering starts at the measurement window; power set before then
    /// is held in `pending_w` and becomes the meter's initial level.
    meter: Option<EnergyMeter>,
    pending_w: f64,
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct CoreSimResult {
    /// Per-request server latency (completion − arrival), completion order.
    pub latencies: Vec<f64>,
    /// Per-request budget, aligned with `latencies`.
    pub budgets: Vec<f64>,
    /// Per-request caller tag, aligned with `latencies`.
    pub tags: Vec<u64>,
    /// Per-request arrival time, aligned with `latencies`.
    pub arrivals: Vec<f64>,
    /// End of simulation (last completion), seconds.
    pub sim_end_s: f64,
    /// Start of the measurement window (warmup excluded), seconds.
    pub measure_start_s: f64,
    /// Energy of all cores within the measurement window, joules.
    pub energy_j: f64,
    /// Busy (serving) time of all cores within the measurement window,
    /// seconds.
    pub busy_s: f64,
    /// Cores simulated.
    pub cores: usize,
}

impl CoreSimResult {
    /// Length of the measurement window, seconds.
    pub fn measured_span_s(&self) -> f64 {
        (self.sim_end_s - self.measure_start_s).max(0.0)
    }

    /// Average power per core over the measurement window, watts.
    pub fn avg_core_power_w(&self) -> f64 {
        let span = self.measured_span_s();
        if span > 0.0 {
            self.energy_j / span / self.cores as f64
        } else {
            0.0
        }
    }

    /// Per-core utilization (busy fraction of the measurement window).
    pub fn utilization(&self) -> f64 {
        let span = self.measured_span_s();
        if span > 0.0 {
            self.busy_s / span / self.cores as f64
        } else {
            0.0
        }
    }

    /// Latency percentile (e.g. 0.95), if any request completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(eprons_num::quantile::percentile(&self.latencies, p))
        }
    }

    /// Fraction of requests that exceeded their own budget.
    pub fn miss_rate(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        let misses = self
            .latencies
            .iter()
            .zip(&self.budgets)
            .filter(|(l, b)| *l > *b)
            .count();
        Some(misses as f64 / self.latencies.len() as f64)
    }

    /// Mean latency, if any.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(self.latencies.iter().sum::<f64>() / self.latencies.len() as f64)
        }
    }
}

/// Runs an ISN's cores through an arrival trace under a policy.
///
/// `arrivals` must be sorted by arrival time. Works are sampled from the
/// engine's service model using `seed`, so a run is fully reproducible.
///
/// The cores share one queue, ordered by the policy's EDF flag; a free
/// core takes the queue's head. Every core re-selects its own frequency
/// at every event (per-core DVFS, as on the paper's hardware), seeing its
/// in-flight request plus the shared backlog thinned to every `c`-th
/// request: with `c` servers draining it, position `i` is served after
/// about `i / c` rounds. Only a core waking from idle pays the policy's
/// wake latency.
///
/// # Panics
/// Panics if `cfg.cores == 0` or the arrivals are unsorted.
pub fn simulate_core(
    policy: &mut dyn DvfsPolicy,
    engine: &mut VpEngine,
    arrivals: &[ArrivalSpec],
    cfg: &CoreSimConfig,
    seed: u64,
) -> CoreSimResult {
    assert!(cfg.cores > 0, "need at least one core");
    assert!(
        arrivals
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "arrival trace must be time-sorted"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let fixed_s = engine.service().fixed_s();
    let measure_from = cfg.measure_from_s.max(0.0);
    let idle_w = policy.idle_power_w().unwrap_or(cfg.power.core_idle_w());

    let mut waiting: Vec<Pending> = Vec::new();
    let mut cores: Vec<Core> = (0..cfg.cores)
        .map(|_| Core {
            inflight: None,
            freq: cfg.ladder.max(),
            was_idle: true,
            meter: None,
            pending_w: idle_w,
        })
        .collect();
    let mut last_t = 0.0_f64;
    let mut busy_s = 0.0_f64;

    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut budgets = Vec::with_capacity(arrivals.len());
    let mut tags = Vec::with_capacity(arrivals.len());
    let mut arrival_times = Vec::with_capacity(arrivals.len());
    // Telemetry is aggregated locally and flushed once at the end of the
    // run so the event loop stays allocation- and lock-free.
    let obs_on = eprons_obs::enabled();
    let mut freq_transitions = 0u64;
    let mut decisions = 0u64;

    let mut next_arrival = 0usize;
    loop {
        // Next event: the earliest completion (lowest core on ties) or
        // the next arrival, which wins ties.
        let mut comp: Option<(usize, f64)> = None;
        for (i, c) in cores.iter().enumerate() {
            if let Some(fl) = &c.inflight {
                let at = last_t + fl.rem_fixed_s + fl.rem_work_gc / c.freq;
                if comp.is_none_or(|(_, t)| at < t) {
                    comp = Some((i, at));
                }
            }
        }
        let arr_at = arrivals.get(next_arrival).map(|a| a.arrival_s);
        let (t, completing) = match (arr_at, comp) {
            (None, None) => break,
            (Some(a), None) => (a, None),
            (None, Some((i, c))) => (c, Some(i)),
            (Some(a), Some((i, c))) => {
                if a <= c {
                    (a, None)
                } else {
                    (c, Some(i))
                }
            }
        };
        // Advance in-flight progress (and busy-time accounting) to `t`.
        let dt = t - last_t;
        for c in cores.iter_mut() {
            if let Some(f) = c.inflight.as_mut() {
                // Busy time counts only within the measurement window.
                busy_s += (t - last_t.max(measure_from)).max(0.0).min(dt);
                let eat_fixed = dt.min(f.rem_fixed_s);
                f.rem_fixed_s -= eat_fixed;
                let work_time = dt - eat_fixed;
                let cycles = work_time * c.freq;
                let done = cycles.min(f.rem_work_gc);
                f.rem_work_gc -= done;
                f.done_work_gc += done;
            }
        }
        last_t = t;

        match completing {
            None => {
                let spec = arrivals[next_arrival];
                next_arrival += 1;
                let work = engine.service().sample_work(&mut rng);
                waiting.push(Pending {
                    arrival: spec.arrival_s,
                    budget: spec.budget_s,
                    deadline: spec.deadline(),
                    work_gc: work,
                    tag: spec.tag,
                });
            }
            Some(i) => {
                let fl = cores[i].inflight.take().expect("completion on a busy core");
                if fl.arrival >= measure_from {
                    latencies.push(t - fl.arrival);
                    budgets.push(fl.budget);
                    tags.push(fl.tag);
                    arrival_times.push(fl.arrival);
                }
                policy.on_completion(t, t - fl.arrival, fl.budget);
            }
        }

        // Every free core takes the next waiting request.
        for c in cores.iter_mut() {
            if c.inflight.is_none() && !waiting.is_empty() {
                let idx = if policy.reorders_edf() {
                    waiting
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            a.deadline
                                .partial_cmp(&b.deadline)
                                .expect("deadlines are finite")
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty")
                } else {
                    0
                };
                let p = waiting.remove(idx);
                // A core woken from deep sleep pays the wake latency as
                // extra frequency-independent time on the first request.
                let wake = if c.was_idle {
                    policy.wake_latency_s()
                } else {
                    0.0
                };
                c.inflight = Some(Inflight {
                    arrival: p.arrival,
                    budget: p.budget,
                    deadline: p.deadline,
                    rem_work_gc: p.work_gc,
                    done_work_gc: 0.0,
                    rem_fixed_s: fixed_s + wake,
                    tag: p.tag,
                });
            }
            c.was_idle = c.inflight.is_none();
        }

        // Decision instant: the backlog in processing order, then each
        // core's deadlines — its head plus its share of the backlog.
        let mut rest: Vec<&Pending> = waiting.iter().collect();
        if policy.reorders_edf() {
            rest.sort_by(|a, b| {
                a.deadline
                    .partial_cmp(&b.deadline)
                    .expect("deadlines are finite")
            });
        }
        for c in cores.iter_mut() {
            let mut deadlines: Vec<f64> = Vec::with_capacity(waiting.len() + 1);
            let head = c.inflight.as_ref().map(|fl| {
                deadlines.push(fl.deadline);
                InflightHead {
                    done_work_gc: fl.done_work_gc,
                    rem_fixed_s: fl.rem_fixed_s,
                }
            });
            deadlines.extend(rest.iter().step_by(cfg.cores).map(|p| p.deadline));

            let dec = if policy.needs_model() {
                engine.decision(t + cfg.decision_overhead_s, head, &deadlines)
            } else {
                // Feedback / fixed policies never read the model: hand
                // them an empty decision and skip the convolutions.
                engine.decision(t, None, &[])
            };
            let new_f = policy.choose_frequency(t, &dec, &cfg.ladder);
            decisions += 1;
            if new_f != c.freq {
                freq_transitions += 1;
            }
            c.freq = new_f;
            let w = if c.inflight.is_some() {
                cfg.power.core_busy_w(c.freq)
            } else {
                idle_w
            };
            if t < measure_from {
                c.pending_w = w;
            } else {
                let pending_w = c.pending_w;
                c.meter
                    .get_or_insert_with(|| EnergyMeter::new(measure_from, pending_w))
                    .set_power(t, w);
            }
        }
    }

    if obs_on {
        let reg = eprons_obs::registry();
        reg.counter("server.dvfs.transitions").add(freq_transitions);
        reg.counter("server.vp.decisions").add(decisions);
        eprons_obs::record(eprons_obs::Event::FreqTransition {
            policy: policy.name().to_string(),
            transitions: freq_transitions,
            decisions,
            final_ghz: cores[0].freq,
        });
    }

    let sim_end = last_t.max(measure_from);
    let energy_j = cores
        .iter()
        .map(|c| match &c.meter {
            Some(m) => m.energy_until(sim_end),
            None => EnergyMeter::new(measure_from, c.pending_w).energy_until(sim_end),
        })
        .sum();
    CoreSimResult {
        latencies,
        budgets,
        tags,
        arrivals: arrival_times,
        sim_end_s: sim_end,
        measure_start_s: measure_from,
        energy_j,
        busy_s,
        cores: cfg.cores,
    }
}

/// Builds an open-loop Poisson arrival trace with a constant budget —
/// the workhorse of the Fig. 12 server experiments.
pub fn poisson_trace(
    rng: &mut SimRng,
    rate_per_s: f64,
    duration_s: f64,
    budget_s: f64,
) -> Vec<ArrivalSpec> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(rate_per_s);
        if t >= duration_s {
            break;
        }
        out.push(ArrivalSpec {
            arrival_s: t,
            budget_s,
            tag: out.len() as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        AvgVpPolicy, DeepSleepPolicy, MaxFreqPolicy, MaxVpPolicy, TimeTraderPolicy,
    };
    use crate::service::ServiceModel;
    use eprons_num::Pmf;

    fn deterministic_service() -> ServiceModel {
        // Exactly 2.7e-3 Gc (1 ms at 2.7 GHz), no fixed part.
        ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 0.0)
    }

    fn xapian_service(seed: u64) -> ServiceModel {
        let mut rng = SimRng::seed_from_u64(seed);
        ServiceModel::synthetic_xapian(&mut rng, 20_000, 160)
    }

    #[test]
    fn maxfreq_isolated_requests_have_service_latency() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        // 10 requests far apart: no queueing.
        let arrivals: Vec<ArrivalSpec> = (0..10)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64,
                budget_s: 0.025,
                tag: i as u64,
            })
            .collect();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            1,
        );
        assert_eq!(r.latencies.len(), 10);
        for &l in &r.latencies {
            // sample_with jitters within the PMF bin (±step/2 Gc ≈ ±1.9 µs).
            assert!((l - 1.0e-3).abs() < 5.0e-6, "latency {l}");
        }
        assert_eq!(r.miss_rate(), Some(0.0));
    }

    #[test]
    fn queueing_inflates_latency() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        // 3 simultaneous arrivals: latencies 1, 2, 3 ms.
        let arrivals = vec![
            ArrivalSpec {
                arrival_s: 0.0,
                budget_s: 0.025,
                tag: 0
            };
            3
        ];
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            1,
        );
        let mut lats = r.latencies.clone();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((lats[0] - 1.0e-3).abs() < 5.0e-6);
        assert!((lats[1] - 2.0e-3).abs() < 1.0e-5);
        assert!((lats[2] - 3.0e-3).abs() < 1.5e-5);
    }

    #[test]
    fn rubik_slows_down_with_slack_and_still_meets_deadlines() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxVpPolicy::rubik();
        // Sparse arrivals with 10 ms budget: Rubik should run at 1.2 GHz
        // (2.7e-3 Gc / 1.2 GHz = 2.25 ms < 10 ms) and still make deadlines.
        let arrivals: Vec<ArrivalSpec> = (0..50)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64 * 0.02,
                budget_s: 0.010,
                tag: i as u64,
            })
            .collect();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            2,
        );
        assert_eq!(r.miss_rate(), Some(0.0));
        // Latency ≈ 2.25 ms (ran at the floor), not 1 ms.
        let mean = r.mean_latency().unwrap();
        assert!(
            (2.0e-3..2.6e-3).contains(&mean),
            "expected ≈2.25 ms at the DVFS floor, got {mean}"
        );
    }

    #[test]
    fn energy_ordering_matches_paper() {
        // Same trace, slack-rich budgets: MaxFreq > Rubik ≥ EPRONS energy.
        let svc = xapian_service(3);
        let cfg = CoreSimConfig::default();
        let mut rng = SimRng::seed_from_u64(4);
        // 30% utilization: rate = 0.3 / E[service@fmax].
        let mean_t = svc.mean_service_time(2.7);
        let arrivals = poisson_trace(&mut rng, 0.3 / mean_t, 120.0, 0.030);

        let run = |policy: &mut dyn DvfsPolicy| {
            let mut engine = VpEngine::new(svc.clone());
            simulate_core(policy, &mut engine, &arrivals, &cfg, 5)
        };
        let r_max = run(&mut MaxFreqPolicy);
        let r_rubik = run(&mut MaxVpPolicy::rubik());
        let r_eprons = run(&mut AvgVpPolicy::eprons());

        assert!(
            r_rubik.energy_j < r_max.energy_j,
            "Rubik ({}) must beat MaxFreq ({})",
            r_rubik.energy_j,
            r_max.energy_j
        );
        assert!(
            r_eprons.energy_j <= r_rubik.energy_j + 1e-9,
            "EPRONS ({}) must not exceed Rubik ({})",
            r_eprons.energy_j,
            r_rubik.energy_j
        );
        // And all policies keep the overall tail near the SLA.
        assert!(r_rubik.miss_rate().unwrap() < 0.08);
        assert!(r_eprons.miss_rate().unwrap() < 0.08);
    }

    #[test]
    fn eprons_meets_average_tail_constraint() {
        let svc = xapian_service(6);
        let cfg = CoreSimConfig::default();
        let mut rng = SimRng::seed_from_u64(7);
        let mean_t = svc.mean_service_time(2.7);
        let arrivals = poisson_trace(&mut rng, 0.3 / mean_t, 200.0, 0.030);
        let mut engine = VpEngine::new(svc);
        let mut policy = AvgVpPolicy::eprons();
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 8);
        let miss = r.miss_rate().unwrap();
        assert!(
            miss <= 0.08,
            "EPRONS-Server must keep the miss rate near 5%, got {miss}"
        );
        // And it must actually exploit slack: p95 close to the budget.
        let p95 = r.latency_percentile(0.95).unwrap();
        assert!(
            p95 > 0.5 * 0.030,
            "p95 {p95} should approach the 30 ms budget (slack exploited)"
        );
    }

    #[test]
    fn utilization_accounting() {
        let svc = xapian_service(9);
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(10);
        let arrivals = poisson_trace(&mut rng, 0.2 / mean_t, 300.0, 0.030);
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            11,
        );
        let u = r.utilization();
        assert!(
            (0.15..0.25).contains(&u),
            "expected ≈20% utilization at fmax, got {u}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let svc = xapian_service(12);
        let mut rng = SimRng::seed_from_u64(13);
        let arrivals = poisson_trace(&mut rng, 50.0, 30.0, 0.030);
        let run = || {
            let mut engine = VpEngine::new(svc.clone());
            let mut policy = AvgVpPolicy::eprons();
            simulate_core(
                &mut policy,
                &mut engine,
                &arrivals,
                &CoreSimConfig::default(),
                14,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn timetrader_tracks_target_coarsely() {
        let svc = xapian_service(15);
        let cfg = CoreSimConfig::default();
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(16);
        let arrivals = poisson_trace(&mut rng, 0.3 / mean_t, 300.0, 0.030);
        let mut engine = VpEngine::new(svc);
        let mut policy = TimeTraderPolicy::new(0.030, cfg.ladder.len());
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 17);
        // It saves energy vs MaxFreq…
        let mut engine2 = VpEngine::new(engine.service().clone());
        let mut maxf = MaxFreqPolicy;
        let r_max = simulate_core(&mut maxf, &mut engine2, &arrivals, &cfg, 17);
        assert!(r.energy_j < r_max.energy_j);
        // …while keeping a bounded miss rate over the long run.
        assert!(r.miss_rate().unwrap() < 0.15);
    }

    #[test]
    fn all_requests_complete() {
        let svc = xapian_service(18);
        let mut rng = SimRng::seed_from_u64(19);
        let arrivals = poisson_trace(&mut rng, 100.0, 20.0, 0.030);
        let n = arrivals.len();
        let mut engine = VpEngine::new(svc);
        let mut policy = AvgVpPolicy::eprons();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            20,
        );
        assert_eq!(r.latencies.len(), n);
        assert_eq!(r.budgets.len(), n);
        assert!(r.sim_end_s >= arrivals.last().unwrap().arrival_s);
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let svc = deterministic_service();
        let cfg = CoreSimConfig {
            measure_from_s: 5.0,
            ..Default::default()
        };
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        // 10 requests at t = 0..9 s; the first five fall in the warmup.
        let arrivals: Vec<ArrivalSpec> = (0..10)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64,
                budget_s: 0.025,
                tag: i as u64,
            })
            .collect();
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 30);
        assert_eq!(r.latencies.len(), 5, "warmup completions excluded");
        assert!(r.tags.iter().all(|&t| t >= 5));
        assert_eq!(r.measure_start_s, 5.0);
        // Average power is idle-dominated but measured only post-warmup.
        let avg = r.avg_core_power_w();
        assert!(avg >= cfg.power.core_idle_w() - 1e-9);
        assert!(r.measured_span_s() <= 5.0 + 0.01);
    }

    #[test]
    fn warmup_equals_no_warmup_for_stationary_policy() {
        // MaxFreq is stationary: per-request latencies after the warmup
        // match the same requests in an unwarmed run.
        let svc = xapian_service(31);
        let mut rng = SimRng::seed_from_u64(32);
        let arrivals = poisson_trace(&mut rng, 100.0, 20.0, 0.030);
        let run = |measure_from: f64| {
            let cfg = CoreSimConfig {
                measure_from_s: measure_from,
                ..Default::default()
            };
            let mut engine = VpEngine::new(svc.clone());
            let mut policy = MaxFreqPolicy;
            simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 33)
        };
        let full = run(0.0);
        let warmed = run(10.0);
        // The warmed run's (tag → latency) pairs are a subset of the full
        // run's.
        use std::collections::HashMap;
        let full_map: HashMap<u64, f64> = full
            .tags
            .iter()
            .copied()
            .zip(full.latencies.iter().copied())
            .collect();
        for (tag, lat) in warmed.tags.iter().zip(&warmed.latencies) {
            assert!((full_map[tag] - lat).abs() < 1e-12);
        }
        assert!(warmed.latencies.len() < full.latencies.len());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        let arrivals = vec![
            ArrivalSpec {
                arrival_s: 1.0,
                budget_s: 0.025,
                tag: 0,
            },
            ArrivalSpec {
                arrival_s: 0.5,
                budget_s: 0.025,
                tag: 1,
            },
        ];
        simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            0,
        );
    }

    /// The shared-queue tests' service model.
    fn pooled_service(seed: u64) -> ServiceModel {
        let mut rng = SimRng::seed_from_u64(seed);
        ServiceModel::synthetic_xapian(&mut rng, 15_000, 128)
    }

    fn with_cores(cores: usize) -> CoreSimConfig {
        CoreSimConfig {
            cores,
            ..CoreSimConfig::default()
        }
    }

    #[test]
    fn one_core_reproduces_the_per_core_simulator_bit_for_bit() {
        // The cluster simulates one core per ISN, so every cluster golden
        // rests on these bits: per policy family (fixed, model-driven,
        // feedback, deep sleep with its wake latency), with and without a
        // warmup window, the request count and the bits of the latency
        // sum, energy, busy time and end time.
        let svc = pooled_service(70);
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(71);
        let arrivals = poisson_trace(&mut rng, 0.5 / mean_t, 60.0, 0.030);
        const GOLDEN: &str = "\
            0 no-power-management 6597 4048b1e57e78be80 4065a4e863c303ea 403dbbce847c3704 404dfba86a8389b4
            0 eprons-server 6597 405a4700302fb2ea 405b912940e27d95 404794c0b47854cc 404dfd0647ed01c0
            0 timetrader 6597 405100d00f0ea0ac 4061b2853afb7b9d 404145bf42c4a237 404dfbbe1bf79f55
            0 deep-sleep 6597 4058fb9abb269535 40585e9c93056f88 4047a0107b62024f 404dfcbe683d9a82
            10 no-power-management 5499 4044e549810b01d7 40620e4d059e3bc0 4038d4dadec4ca25 404dfba86a8389b4
            10 eprons-server 5499 4055fbd562553440 40571537d4ababef 4043a89bbf4edb1b 404dfd0647ed01c0
            10 timetrader 5499 404e1d7736121616 405c622097dfb961 403d916d27fe6e90 404dfbbe1bf79f55
            10 deep-sleep 5499 4054f074c22e857d 40546cabe7d37026 4043b5347bd2b506 404dfcbe683d9a82";
        for row in GOLDEN.lines() {
            let f: Vec<&str> = row.split_whitespace().collect();
            let (measure_from, name) = (f[0].parse::<f64>().unwrap(), f[1]);
            let cfg = CoreSimConfig {
                measure_from_s: measure_from,
                ..with_cores(1)
            };
            let mut policy: Box<dyn DvfsPolicy> = match name {
                "no-power-management" => Box::new(MaxFreqPolicy),
                "eprons-server" => Box::new(AvgVpPolicy::eprons()),
                "timetrader" => Box::new(TimeTraderPolicy::new(0.030, cfg.ladder.len())),
                _ => Box::new(DeepSleepPolicy::new()),
            };
            assert_eq!(policy.name(), name);
            let mut engine = VpEngine::new(svc.clone());
            let r = simulate_core(policy.as_mut(), &mut engine, &arrivals, &cfg, 72);
            let latency_sum: f64 = r.latencies.iter().sum();
            let got = [latency_sum, r.energy_j, r.busy_s, r.sim_end_s].map(f64::to_bits);
            let want: Vec<u64> = f[3..]
                .iter()
                .map(|h| u64::from_str_radix(h, 16).unwrap())
                .collect();
            assert_eq!(r.latencies.len().to_string(), f[2], "{row}");
            assert_eq!(got.to_vec(), want, "{row}: one-core run drifted");
        }
    }

    #[test]
    fn pooling_cuts_queueing_at_equal_per_core_load() {
        // 4 cores at 4× the arrival rate vs 1 core: the pooled queue waits
        // less (M/M/c beats c × M/M/1).
        let svc = pooled_service(73);
        let mean_t = svc.mean_service_time(2.7);
        let per_core_util = 0.6;
        let mut rng = SimRng::seed_from_u64(74);
        let one = poisson_trace(&mut rng, per_core_util / mean_t, 120.0, 0.030);
        let mut rng = SimRng::seed_from_u64(74);
        let four = poisson_trace(&mut rng, 4.0 * per_core_util / mean_t, 120.0, 0.030);

        let mut e1 = VpEngine::new(svc.clone());
        let r1 = simulate_core(&mut MaxFreqPolicy, &mut e1, &one, &with_cores(1), 75);
        let mut e4 = VpEngine::new(svc);
        let r4 = simulate_core(&mut MaxFreqPolicy, &mut e4, &four, &with_cores(4), 75);
        let m1 = r1.mean_latency().unwrap();
        let m4 = r4.mean_latency().unwrap();
        assert!(
            m4 < m1,
            "pooled 4-core latency {m4} should beat single-core {m1}"
        );
    }

    #[test]
    fn single_core_model_is_conservative_for_eprons() {
        // The cluster simulator's 1-core-per-ISN approximation must be an
        // upper bound: the pooled server meets deadlines at least as
        // easily.
        let svc = pooled_service(76);
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(77);
        let single_trace = poisson_trace(&mut rng, 0.4 / mean_t, 90.0, 0.025);
        let mut rng = SimRng::seed_from_u64(77);
        let pooled_trace = poisson_trace(&mut rng, 4.0 * 0.4 / mean_t, 90.0, 0.025);

        let mut e1 = VpEngine::new(svc.clone());
        let mut p1 = AvgVpPolicy::eprons();
        let approx = simulate_core(&mut p1, &mut e1, &single_trace, &with_cores(1), 78);
        let mut e2 = VpEngine::new(svc);
        let mut p2 = AvgVpPolicy::eprons();
        let pooled = simulate_core(&mut p2, &mut e2, &pooled_trace, &with_cores(4), 78);
        assert!(
            pooled.miss_rate().unwrap() <= approx.miss_rate().unwrap() + 0.02,
            "pooled misses {} vs per-core model {}",
            pooled.miss_rate().unwrap(),
            approx.miss_rate().unwrap()
        );
    }

    #[test]
    fn all_requests_complete_across_cores() {
        let svc = pooled_service(79);
        let cfg = with_cores(12);
        let mut rng = SimRng::seed_from_u64(80);
        let arrivals = poisson_trace(&mut rng, 300.0, 10.0, 0.030);
        let n = arrivals.len();
        let mut e = VpEngine::new(svc);
        let mut p = AvgVpPolicy::eprons();
        let r = simulate_core(&mut p, &mut e, &arrivals, &cfg, 81);
        assert_eq!(r.latencies.len(), n);
        let mut tags = r.tags.clone();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), n);
        assert_eq!(r.cores, 12);
        assert!(r.avg_core_power_w() >= cfg.power.core_idle_w() - 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let svc = pooled_service(82);
        let mut e = VpEngine::new(svc);
        simulate_core(&mut MaxFreqPolicy, &mut e, &[], &with_cores(0), 0);
    }
}
