//! The joint server+network power optimizer (paper §IV).
//!
//! EPRONS "minimizes the entire data center's power consumption through
//! dynamically searching the optimal parameter K … while guaranteeing the
//! latency constraints". Concretely: evaluate each candidate network
//! configuration (scale factor `K` or aggregation preset), keep those that
//! meet the end-to-end SLA, and choose the one with the lowest *total*
//! power. When nothing is feasible the optimizer "turns on a minimal
//! number of additional network links and switches": it falls back to the
//! candidate with the lowest measured tail latency.
//!
//! Both search strategies run on the staged pipeline: candidates share one
//! [`ScenarioContext`], so the per-candidate cost is consolidation +
//! latency sampling + DVFS simulation, never a workload rebuild. Use
//! [`optimize_in_context`] / [`adaptive_k_in_context`] directly when a
//! context is already in hand (the day controller builds one per epoch);
//! the template-taking entry points build it for you.

use std::collections::HashSet;

use eprons_net::flow::Flow;
use eprons_net::PathArena;
use eprons_topo::{AggregationLevel, LinkId, MultipathTopology, NodeId};

use crate::cluster::{ClusterError, ClusterRun, ClusterRunResult, ConsolidationSpec};
use crate::config::ClusterConfig;
use crate::scenario::{scheme_idle_floor_w, ScenarioContext};

/// The optimizer's selection.
#[derive(Debug, Clone)]
pub struct JointChoice {
    /// The chosen network configuration.
    pub spec: ConsolidationSpec,
    /// Its measured run.
    pub result: ClusterRunResult,
    /// Whether the choice met the SLA (false = least-bad fallback).
    pub feasible: bool,
    /// Candidates actually measured before committing (the optimizer's
    /// cost currency — [`adaptive_k`] exists to make this smaller than
    /// the full ladder's).
    pub evaluated: u64,
}

/// Journals one measured candidate's verdict (no-op when telemetry is
/// off). Shared by both search strategies so the trace schema cannot
/// drift between them.
fn journal_candidate(spec: ConsolidationSpec, result: &ClusterRunResult, feasible: bool) {
    if eprons_obs::enabled() {
        eprons_obs::record(eprons_obs::Event::OptimizerCandidate {
            k: spec.label(),
            total_w: result.breakdown.total_w(),
            p95_us: result.e2e_latency.p95_s * 1.0e6,
            feasible,
        });
    }
}

/// Journals a candidate that failed to evaluate at all.
fn journal_failure(spec: ConsolidationSpec, err: &ClusterError) {
    if eprons_obs::enabled() {
        eprons_obs::record(eprons_obs::Event::CandidateFailed {
            k: spec.label(),
            error: err.to_string(),
        });
    }
}

/// Journals the committed choice and returns it.
fn journal_choice(choice: JointChoice) -> JointChoice {
    if eprons_obs::enabled() {
        eprons_obs::record(eprons_obs::Event::OptimizerChoice {
            k: choice.spec.label(),
            total_w: choice.result.breakdown.total_w(),
            p95_us: choice.result.e2e_latency.p95_s * 1.0e6,
            feasible: choice.feasible,
            evaluated: choice.evaluated,
        });
    }
    choice
}

/// Evaluates `candidates` (in parallel) under the given run template and
/// returns the minimum-total-power feasible choice, or the lowest-latency
/// candidate if none is feasible. Returns `None` only if every candidate
/// fails outright (e.g. consolidation cannot place the traffic anywhere).
///
/// Convenience wrapper over [`optimize_total_power_traced`] that drops the
/// per-candidate failure reasons.
pub fn optimize_total_power(
    cfg: &ClusterConfig,
    template: &ClusterRun,
    candidates: &[ConsolidationSpec],
) -> Option<JointChoice> {
    optimize_total_power_traced(cfg, template, candidates).0
}

/// [`optimize_total_power`] with full decision tracing: every candidate's
/// verdict is journaled (when telemetry is on) as an `OptimizerCandidate`
/// or `CandidateFailed` event, the commit as an `OptimizerChoice`, and the
/// failures are returned alongside the choice so callers can report *why*
/// candidates dropped out instead of silently swallowing their errors.
///
/// Builds one [`ScenarioContext`] from the template and delegates to
/// [`optimize_in_context`].
pub fn optimize_total_power_traced(
    cfg: &ClusterConfig,
    template: &ClusterRun,
    candidates: &[ConsolidationSpec],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    if candidates.is_empty() {
        return (None, Vec::new());
    }
    let ctx = ScenarioContext::for_template(cfg, template);
    optimize_in_context(&ctx, template.scheme, candidates)
}

/// The exhaustive search against an already-built scenario: evaluates
/// every candidate (fanning out over the thread budget), journals each
/// verdict, and commits the minimum-total-power feasible candidate (or
/// the lowest-tail fallback).
pub fn optimize_in_context(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    candidates: &[ConsolidationSpec],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    optimize_in_context_masked(ctx, scheme, candidates, &[])
}

/// [`optimize_in_context`] with a failed-switch mask: every candidate is
/// consolidated with `excluded` switches forced off, so the ladder an
/// epoch searches after a failure never routes through dead hardware
/// (the next-epoch half of the degradation ladder, §IV-B).
pub fn optimize_in_context_masked(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    candidates: &[ConsolidationSpec],
    excluded: &[eprons_topo::NodeId],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    let cfg = ctx.cfg();
    let mut search_span = eprons_obs::Span::enter("optimizer.search");
    if eprons_obs::enabled() {
        search_span.note(format!("mode=exhaustive candidates={}", candidates.len()));
    }
    let results = ctx.evaluate_candidates_masked(scheme, candidates, excluded);
    let mut ok: Vec<(ConsolidationSpec, ClusterRunResult, bool)> = Vec::new();
    let mut failures: Vec<(ConsolidationSpec, ClusterError)> = Vec::new();
    for (spec, res) in results {
        match res {
            Ok(r) => {
                let feasible = r.is_feasible(cfg);
                journal_candidate(spec, &r, feasible);
                ok.push((spec, r, feasible));
            }
            Err(e) => {
                journal_failure(spec, &e);
                failures.push((spec, e));
            }
        }
    }
    if ok.is_empty() {
        return (None, failures);
    }
    let evaluated = ok.len() as u64;
    // Feasible set → min total power.
    let feasible = ok
        .iter()
        .filter(|(_, _, feasible)| *feasible)
        .min_by(|a, b| {
            a.1.breakdown
                .total_w()
                .partial_cmp(&b.1.breakdown.total_w())
                .expect("power is finite")
        });
    let choice = if let Some((spec, result, _)) = feasible {
        JointChoice {
            spec: *spec,
            result: result.clone(),
            feasible: true,
            evaluated,
        }
    } else {
        // Fallback: least-bad latency (most generous network).
        let (spec, result, _) = ok
            .iter()
            .min_by(|a, b| {
                a.1.e2e_latency
                    .p95_s
                    .partial_cmp(&b.1.e2e_latency.p95_s)
                    .expect("latency is finite")
            })
            .expect("non-empty");
        JointChoice {
            spec: *spec,
            result: result.clone(),
            feasible: false,
            evaluated,
        }
    };
    (Some(journal_choice(choice)), failures)
}

/// A provably-sound lower bound on the total power any evaluation of
/// `spec` can report, computed without simulating anything.
///
/// Two summands, both floors of what the accounting stage later adds up:
///
/// * **Network.** For the aggregation presets the active set is known in
///   advance — the preset switches minus the mask, links on iff both
///   endpoints are on — so the bound is the *exact* DCN power the plan
///   will report. For `GreedyK` the bound counts only the *mandatory*
///   elements: nodes/links present in every candidate path of a flow must
///   be powered by any assignment that routes it, and greedy never powers
///   a link it does not use.
/// * **Servers.** Every simulated core draws at least its policy's idle
///   floor at every instant ([`scheme_idle_floor_w`] is the same floor
///   stage 3 integrates through trailing idle), so each server reports at
///   least `server_w(floor)`.
///
/// Soundness (`bound ≤ measured total`) is what lets the ladder skip a
/// candidate whose bound exceeds a feasible incumbent's measured power
/// without changing which candidate wins.
pub fn candidate_power_floor_w(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    spec: ConsolidationSpec,
    excluded: &[NodeId],
) -> f64 {
    let cfg = ctx.cfg();
    let d = &*ctx.data;
    let topo = d.ft.topology();
    let masked: HashSet<NodeId> = excluded.iter().copied().collect();
    let server_floor =
        ctx.num_servers() as f64 * cfg.cpu.server_w(scheme_idle_floor_w(cfg, scheme));
    let net_floor = match spec {
        ConsolidationSpec::AllOn | ConsolidationSpec::Level(_) => {
            let level = match spec {
                ConsolidationSpec::Level(l) => l,
                _ => AggregationLevel::Agg0,
            };
            let on: HashSet<NodeId> = level
                .active_switches(&d.ft)
                .into_iter()
                .filter(|n| !masked.contains(n))
                .collect();
            let is_on = |n: NodeId| !topo.node(n).kind.is_switch() || on.contains(&n);
            let links = topo
                .links()
                .filter(|(_, l)| is_on(l.a) && is_on(l.b))
                .count();
            cfg.net_power.power_w_for_counts(on.len(), links)
        }
        ConsolidationSpec::GreedyK(_) => {
            let (sw, ln) = mandatory_counts(&d.arena, d.flows.flows(), excluded);
            cfg.net_power.power_w_for_counts(sw, ln)
        }
    };
    server_floor + net_floor
}

/// Switches and links that every routing of `flows` over `arena` must
/// power, less the `excluded` switches and their links: `(switches,
/// links)`, the element counts behind the `GreedyK` power floor.
///
/// A host pair's mandatory elements are those in all of its candidate
/// paths. On the shared-segment store that is the pair's two uplinks plus
/// its access pair's precomputed mandatory segment, so one pass marks the
/// used access pairs and uplinks in flat vectors and a second unions the
/// used pairs' segments (no per-flow hashing). A per-pair store (or a
/// pair the table cannot resolve) intersects its candidates directly,
/// once per distinct host pair.
fn mandatory_counts<T: MultipathTopology>(
    arena: &PathArena<T>,
    flows: &[Flow],
    excluded: &[NodeId],
) -> (usize, usize) {
    let topo = arena.topology();
    let mut on_sw = vec![false; topo.num_nodes()];
    let mut on_ln = vec![false; topo.num_links()];
    let table = arena.mandatory_segments();
    let mut used = vec![false; table.map_or(0, |t| t.num_pairs())];
    let mut direct: HashSet<(NodeId, NodeId)> = HashSet::new();
    for fl in flows {
        match table.and_then(|t| t.access_pair(fl.src, fl.dst)) {
            Some(ap) => {
                used[ap.pair] = true;
                on_ln[ap.src_uplink.0] = true;
                on_ln[ap.dst_uplink.0] = true;
            }
            None => {
                if direct.insert((fl.src, fl.dst)) {
                    mark_candidate_intersection(arena, fl.src, fl.dst, &mut on_sw, &mut on_ln);
                }
            }
        }
    }
    if let Some(t) = table {
        for (pair, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            t.nodes(pair).for_each(|n| on_sw[n.0] = true);
            t.links(pair).for_each(|l| on_ln[l.0] = true);
        }
    }
    // Masked elements can never be powered (a flow whose mandatory
    // hardware is dead makes the candidate fail instead).
    let mut dead = vec![false; topo.num_nodes()];
    for n in excluded {
        dead[n.0] = true;
    }
    let switches = on_sw
        .iter()
        .zip(&dead)
        .filter(|&(&on, &d)| on && !d)
        .count();
    let links = topo
        .links()
        .filter(|(l, lk)| on_ln[l.0] && !dead[lk.a.0] && !dead[lk.b.0])
        .count();
    (switches, links)
}

/// Marks the interior nodes and the links common to every candidate path
/// of `(src, dst)` (nothing if it has no candidate).
fn mark_candidate_intersection(
    topo: &dyn MultipathTopology,
    src: NodeId,
    dst: NodeId,
    on_sw: &mut [bool],
    on_ln: &mut [bool],
) {
    let mut sw: Vec<NodeId> = Vec::new();
    let mut ln: Vec<LinkId> = Vec::new();
    let mut first = true;
    topo.for_each_candidate(src, dst, &mut |p| {
        if first {
            sw.extend_from_slice(p.interior());
            ln.extend_from_slice(p.links);
            first = false;
        } else {
            sw.retain(|x| p.interior().contains(x));
            ln.retain(|x| p.links.contains(x));
        }
    });
    sw.iter().for_each(|n| on_sw[n.0] = true);
    ln.iter().for_each(|l| on_ln[l.0] = true);
}

/// [`optimize_in_context_masked`] with lower-bound pruning and
/// best-first candidate ordering — same winner, fewer simulations.
///
/// Candidates are evaluated cheapest-bound-first, and once a feasible
/// incumbent exists every remaining candidate whose
/// [`candidate_power_floor_w`] *strictly* exceeds the incumbent's
/// measured total is skipped: its measurement could only come in above
/// its bound, so it cannot tie or beat the incumbent. Skips are journaled
/// as `CandidatePruned` events and counted under
/// `core.optimizer.pruned`; they do not count toward
/// [`JointChoice::evaluated`].
///
/// **Bit-identity.** The returned choice equals the exhaustive sweep's
/// bit for bit: bounds are sound, ties are never pruned (strict
/// inequality), and the final selection re-ranks the measured survivors
/// in original candidate order, reproducing the exhaustive `min_by`
/// tie-breaking. When nothing is feasible, no pruning has happened (an
/// incumbent is a precondition), so the least-bad fallback also matches.
pub fn optimize_in_context_pruned(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    candidates: &[ConsolidationSpec],
    excluded: &[eprons_topo::NodeId],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    let cfg = ctx.cfg();
    let obs_on = eprons_obs::enabled();
    let mut search_span = eprons_obs::Span::enter("optimizer.search");
    if obs_on {
        search_span.note(format!("mode=pruned candidates={}", candidates.len()));
    }
    // Leaf span: bound computation is the search's only serial work of
    // note, so give the flame view a frame for it.
    let bounds_span = eprons_obs::Span::enter("optimizer.bounds");
    // The GreedyK bound counts mandatory elements only, so it does not
    // depend on K: every rung of a K ladder shares one computation.
    let mut greedy_floor: Option<f64> = None;
    let floors: Vec<f64> = candidates
        .iter()
        .map(|&spec| match spec {
            ConsolidationSpec::GreedyK(_) => *greedy_floor
                .get_or_insert_with(|| candidate_power_floor_w(ctx, scheme, spec, excluded)),
            _ => candidate_power_floor_w(ctx, scheme, spec, excluded),
        })
        .collect();
    drop(bounds_span);
    // Cheapest bound first: the likely winner is measured early, so the
    // incumbent that powers the pruning exists as soon as possible.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&i, &j| {
        floors[i]
            .partial_cmp(&floors[j])
            .expect("power bounds are finite")
            .then(i.cmp(&j))
    });

    let mut measured: Vec<Option<(ClusterRunResult, bool)>> =
        (0..candidates.len()).map(|_| None).collect();
    let mut failures: Vec<(ConsolidationSpec, ClusterError)> = Vec::new();
    let mut incumbent_w: Option<f64> = None;
    let mut evaluated = 0u64;
    for &i in &order {
        let spec = candidates[i];
        if let Some(best_w) = incumbent_w {
            if floors[i] > best_w {
                if obs_on {
                    eprons_obs::registry()
                        .counter("core.optimizer.pruned")
                        .inc();
                    eprons_obs::record(eprons_obs::Event::CandidatePruned {
                        k: spec.label(),
                        bound_w: floors[i],
                        incumbent_w: best_w,
                    });
                }
                continue;
            }
        }
        let mut cand_span = eprons_obs::Span::enter("optimizer.candidate");
        if obs_on {
            cand_span.note(format!("spec={}", spec.label()));
        }
        match ctx.evaluate_masked(scheme, spec, excluded) {
            Ok(r) => {
                evaluated += 1;
                let feasible = r.is_feasible(cfg);
                journal_candidate(spec, &r, feasible);
                if feasible {
                    let w = r.breakdown.total_w();
                    incumbent_w = Some(incumbent_w.map_or(w, |b| b.min(w)));
                }
                measured[i] = Some((r, feasible));
            }
            Err(e) => {
                journal_failure(spec, &e);
                failures.push((spec, e));
            }
        }
    }
    // Re-rank the survivors in original candidate order so tie-breaking
    // matches the exhaustive sweep exactly.
    let ok: Vec<(ConsolidationSpec, &ClusterRunResult, bool)> = measured
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.as_ref().map(|(r, f)| (candidates[i], r, *f)))
        .collect();
    if ok.is_empty() {
        return (None, failures);
    }
    let feasible = ok
        .iter()
        .filter(|(_, _, feasible)| *feasible)
        .min_by(|a, b| {
            a.1.breakdown
                .total_w()
                .partial_cmp(&b.1.breakdown.total_w())
                .expect("power is finite")
        });
    let choice = if let Some(&(spec, result, _)) = feasible {
        JointChoice {
            spec,
            result: result.clone(),
            feasible: true,
            evaluated,
        }
    } else {
        let &(spec, result, _) = ok
            .iter()
            .min_by(|a, b| {
                a.1.e2e_latency
                    .p95_s
                    .partial_cmp(&b.1.e2e_latency.p95_s)
                    .expect("latency is finite")
            })
            .expect("non-empty");
        JointChoice {
            spec,
            result: result.clone(),
            feasible: false,
            evaluated,
        }
    };
    (Some(journal_choice(choice)), failures)
}

/// The paper's candidate ladder: the four Fig. 9 aggregation presets.
pub fn aggregation_candidates() -> Vec<ConsolidationSpec> {
    eprons_topo::AggregationLevel::ALL
        .iter()
        .map(|&l| ConsolidationSpec::Level(l))
        .collect()
}

/// A scale-factor ladder for `K`-based consolidation (Fig. 11's sweep).
pub fn scale_factor_candidates(k_max: usize) -> Vec<ConsolidationSpec> {
    (1..=k_max)
        .map(|k| ConsolidationSpec::GreedyK(k as f64))
        .collect()
}

/// The §II feedback variant: "latency-aware traffic consolidation
/// dynamically adjusts the scale factor K to control the network latency".
/// Starting at `K = 1` (maximum consolidation, minimum DCN power), the
/// controller raises K — reserving more headroom and thereby activating
/// more switches — until the measured end-to-end tail meets the SLA, and
/// returns the first feasible configuration. Unlike
/// [`optimize_total_power`] it does not evaluate the whole ladder, so it
/// converges with fewer measurements at the cost of possibly stopping one
/// step early on non-monotone instances.
pub fn adaptive_k(cfg: &ClusterConfig, template: &ClusterRun, k_max: usize) -> Option<JointChoice> {
    let ctx = ScenarioContext::for_template(cfg, template);
    adaptive_k_in_context(&ctx, template.scheme, k_max)
}

/// [`adaptive_k`] against an already-built scenario. The sequential K
/// ladder shares the context too: each step re-runs only consolidation,
/// latency sampling, and the DVFS sweep.
pub fn adaptive_k_in_context(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    k_max: usize,
) -> Option<JointChoice> {
    adaptive_k_in_context_hinted(ctx, scheme, k_max, None)
}

/// [`adaptive_k_in_context`] with the previous epoch's winning `K` as an
/// ordering hint: the hinted rung is measured *first* — when demand
/// barely moved since the last epoch, that single evaluation is the
/// eventual commit, in hand before the confirmation walk runs — and the
/// usual ascending walk then resumes from `K = 1`, reusing the hinted
/// measurement when it reaches that rung instead of re-simulating it.
///
/// The committed choice is identical to the unhinted walk bit for bit
/// (still the smallest feasible `K`; every rung below a feasible hint is
/// still checked, and fallback tie-breaking happens in walk order). Only
/// [`JointChoice::evaluated`] can differ: a hint above the true winner
/// costs one extra measurement.
pub fn adaptive_k_in_context_hinted(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    k_max: usize,
    hint_k: Option<usize>,
) -> Option<JointChoice> {
    let cfg = ctx.cfg();
    let mut search_span = eprons_obs::Span::enter("optimizer.search");
    if eprons_obs::enabled() {
        search_span.note(format!("mode=adaptive-k k_max={k_max}"));
    }
    let mut evaluated = 0u64;
    let measure =
        |spec: ConsolidationSpec, evaluated: &mut u64| -> Option<(ClusterRunResult, bool)> {
            let mut cand_span = eprons_obs::Span::enter("optimizer.candidate");
            if eprons_obs::enabled() {
                cand_span.note(format!("spec={}", spec.label()));
            }
            match ctx.evaluate(scheme, spec) {
                Ok(r) => {
                    *evaluated += 1;
                    let feasible = r.is_feasible(cfg);
                    journal_candidate(spec, &r, feasible);
                    Some((r, feasible))
                }
                Err(e) => {
                    journal_failure(spec, &e); // K too large for the capacity
                    None
                }
            }
        };
    let mut prefetched: Option<(usize, Option<(ClusterRunResult, bool)>)> = None;
    if let Some(h) = hint_k {
        if h > 1 && h <= k_max {
            let spec = ConsolidationSpec::GreedyK(h as f64);
            prefetched = Some((h, measure(spec, &mut evaluated)));
        }
    }
    let mut best_fallback: Option<(f64, JointChoice)> = None;
    for k in 1..=k_max {
        let spec = ConsolidationSpec::GreedyK(k as f64);
        let measured = match &prefetched {
            Some((h, res)) if *h == k => res.clone(),
            _ => measure(spec, &mut evaluated),
        };
        let Some((result, feasible)) = measured else {
            continue;
        };
        let choice = JointChoice {
            spec,
            result,
            feasible,
            evaluated,
        };
        if feasible {
            return Some(journal_choice(choice));
        }
        let tail = choice.result.e2e_latency.p95_s;
        if best_fallback.as_ref().is_none_or(|(t, _)| tail < *t) {
            best_fallback = Some((tail, choice));
        }
    }
    best_fallback.map(|(_, mut c)| {
        c.evaluated = evaluated;
        journal_choice(c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ServerScheme;
    use crate::scenario::ScenarioSpec;
    use eprons_net::flow::FlowSet;
    use eprons_net::FlowClass;
    use eprons_topo::{LeafSpine, NodeKind, Path, Topology};

    fn template() -> ClusterRun {
        ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::AllOn, // overwritten per candidate
            server_utilization: 0.3,
            background_util: 0.1,
            duration_s: 4.0,
            warmup_s: 0.0,
            seed: 7,
        }
    }

    /// Brute-force oracle for [`mandatory_counts`]: intersects every
    /// distinct host pair's candidates (hash sets over a
    /// `for_each_candidate` walk), then, per mask, drops masked switches
    /// and their links.
    fn oracle_counts(
        topo: &dyn MultipathTopology,
        flows: &[Flow],
        masks: &[Vec<NodeId>],
    ) -> Vec<(usize, usize)> {
        let mut m_sw: HashSet<NodeId> = HashSet::new();
        let mut m_ln: HashSet<LinkId> = HashSet::new();
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        for fl in flows {
            if !seen.insert((fl.src, fl.dst)) {
                continue;
            }
            let mut common: Option<(HashSet<NodeId>, HashSet<LinkId>)> = None;
            topo.for_each_candidate(fl.src, fl.dst, &mut |p| {
                let psw: HashSet<NodeId> = p.interior().iter().copied().collect();
                let pln: HashSet<LinkId> = p.links.iter().copied().collect();
                match &mut common {
                    None => common = Some((psw, pln)),
                    Some((sw, ln)) => {
                        sw.retain(|x| psw.contains(x));
                        ln.retain(|x| pln.contains(x));
                    }
                }
            });
            if let Some((sw, ln)) = common {
                m_sw.extend(sw);
                m_ln.extend(ln);
            }
        }
        let t = topo.topology();
        masks
            .iter()
            .map(|mask| {
                let sw = m_sw.iter().filter(|n| !mask.contains(n)).count();
                let ln = m_ln
                    .iter()
                    .filter(|&&l| !mask.contains(&t.link(l).a) && !mask.contains(&t.link(l).b))
                    .count();
                (sw, ln)
            })
            .collect()
    }

    /// Asserts [`mandatory_counts`] equals the oracle under every mask and
    /// returns the oracle's counts.
    fn assert_counts_match<T: MultipathTopology>(
        arena: &PathArena<T>,
        flows: &[Flow],
        masks: &[Vec<NodeId>],
    ) -> Vec<(usize, usize)> {
        let oracle = oracle_counts(arena, flows, masks);
        for (mask, want) in masks.iter().zip(&oracle) {
            assert_eq!(mandatory_counts(arena, flows, mask), *want, "mask={mask:?}");
        }
        oracle
    }

    /// Every ordered host pair once, plus a repeat of each source's
    /// first pair (duplicates must not change the counts).
    fn all_pair_flows(hosts: &[NodeId]) -> FlowSet {
        let mut fs = FlowSet::new();
        for &a in hosts {
            for &b in hosts {
                if a != b {
                    fs.add(a, b, 1.0, FlowClass::LatencySensitive);
                }
            }
            if let Some(&b) = hosts.iter().find(|&&b| b != a) {
                fs.add(a, b, 5.0, FlowClass::LatencyTolerant);
            }
        }
        fs
    }

    #[test]
    fn greedy_floor_matches_brute_force_oracle_on_fat_trees() {
        let schemes = ServerScheme::ALL
            .into_iter()
            .chain([ServerScheme::DeepSleep]);
        for k in [4usize, 8, 12] {
            let cfg = ClusterConfig {
                fat_tree_k: k,
                ..ClusterConfig::default()
            };
            let spec = ScenarioSpec {
                server_utilization: 0.2,
                background_util: 0.1,
                duration_s: 0.2,
                warmup_s: 0.0,
                seed: 11,
            };
            let ctx = ScenarioContext::build(&cfg, &spec);
            let ft = &ctx.data.ft;
            let masks = [
                vec![],
                vec![ft.core_switches()[0]],
                vec![ft.edge_switches()[1]],
                vec![ft.agg_switches()[2], ft.core_switches()[k / 2]],
            ];
            let oracle = assert_counts_match(&ctx.data.arena, ctx.data.flows.flows(), &masks);
            for (mask, &(sw, ln)) in masks.iter().zip(&oracle) {
                for scheme in schemes.clone() {
                    let oracle = ctx.num_servers() as f64
                        * cfg.cpu.server_w(scheme_idle_floor_w(&cfg, scheme))
                        + cfg.net_power.power_w_for_counts(sw, ln);
                    for kk in [1.0, 2.0] {
                        let floor = candidate_power_floor_w(
                            &ctx,
                            scheme,
                            ConsolidationSpec::GreedyK(kk),
                            mask,
                        );
                        assert_eq!(
                            floor.to_bits(),
                            oracle.to_bits(),
                            "k={k} mask={mask:?} {}: {floor} vs oracle {oracle}",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mandatory_counts_match_oracle_on_a_leaf_spine() {
        let ls = LeafSpine::new(4, 3, 3, 1000.0);
        let arena = PathArena::build(&ls);
        assert!(arena.is_shared());
        let flows = all_pair_flows(arena.host_list());
        let masks = [
            vec![],
            vec![ls.spines()[0]],
            vec![ls.leaves()[1]],
            vec![ls.leaves()[2], ls.spines()[1]],
        ];
        assert_counts_match(&arena, flows.flows(), &masks);
        // A single spine makes the whole leaf-spine-leaf path mandatory.
        let one = LeafSpine::new(3, 1, 2, 1000.0);
        let arena = PathArena::build(&one);
        let flows = all_pair_flows(arena.host_list());
        assert_eq!(mandatory_counts(&arena, flows.flows(), &[]), (4, 9));
    }

    /// Two hosts, both dual-homed to two switches: the arena takes the
    /// per-pair store, so the counts come from the direct walk.
    #[derive(Debug)]
    struct DualHomed {
        topo: Topology,
        hosts: Vec<NodeId>,
        switches: Vec<NodeId>,
    }

    impl DualHomed {
        fn new() -> Self {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Host, "a");
            let b = topo.add_node(NodeKind::Host, "b");
            let s1 = topo.add_node(NodeKind::EdgeSwitch, "s1");
            let s2 = topo.add_node(NodeKind::EdgeSwitch, "s2");
            let s3 = topo.add_node(NodeKind::CoreSwitch, "s3");
            for (x, y) in [(a, s1), (a, s2), (b, s1), (b, s2), (s1, s3), (s2, s3)] {
                topo.add_link(x, y, 1000.0);
            }
            DualHomed {
                topo,
                hosts: vec![a, b],
                switches: vec![s1, s2, s3],
            }
        }
    }

    impl MultipathTopology for DualHomed {
        fn topology(&self) -> &Topology {
            &self.topo
        }

        fn host_list(&self) -> &[NodeId] {
            &self.hosts
        }

        /// Via `s1`, via `s2`, and the detour `s1 → s3 → s2`: `s1` and
        /// the source's link to it are in two of three paths, nothing
        /// interior is in all of them.
        fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
            let [s1, s2, s3] = [self.switches[0], self.switches[1], self.switches[2]];
            [
                vec![src, s1, dst],
                vec![src, s2, dst],
                vec![src, s1, s3, s2, dst],
            ]
            .into_iter()
            .map(|nodes| Path {
                links: nodes
                    .windows(2)
                    .map(|w| self.topo.link_between(w[0], w[1]).unwrap())
                    .collect(),
                nodes,
            })
            .collect()
        }
    }

    #[test]
    fn per_pair_store_keeps_the_direct_walk() {
        let fabric = DualHomed::new();
        let arena = PathArena::build(&fabric);
        assert!(!arena.is_shared());
        let flows = all_pair_flows(&fabric.hosts);
        let masks = [vec![], vec![fabric.switches[0]], vec![fabric.switches[2]]];
        assert_eq!(
            assert_counts_match(&arena, flows.flows(), &masks)[0],
            (0, 0)
        );
        // Single-path variant: every element of the one path is mandatory
        // (`s1` and its two host links), and masking `s1` drops them all.
        let single = PathArena::build(SinglePath(DualHomed::new()));
        assert!(!single.is_shared());
        let counts = assert_counts_match(&single, flows.flows(), &masks);
        assert_eq!(counts, vec![(1, 2), (0, 0), (1, 2)]);
    }

    /// [`DualHomed`] restricted to the candidate via `s1`.
    #[derive(Debug)]
    struct SinglePath(DualHomed);

    impl MultipathTopology for SinglePath {
        fn topology(&self) -> &Topology {
            self.0.topology()
        }

        fn host_list(&self) -> &[NodeId] {
            self.0.host_list()
        }

        fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
            self.0
                .candidate_paths(src, dst)
                .into_iter()
                .take(1)
                .collect()
        }
    }

    #[test]
    fn picks_a_feasible_minimum_power_candidate() {
        let cfg = ClusterConfig::default();
        let choice = optimize_total_power(&cfg, &template(), &aggregation_candidates()).unwrap();
        assert!(choice.feasible, "30 ms SLA at light load must be feasible");
        assert_eq!(choice.evaluated, 4, "the full ladder is always measured");
        // With light background and a 30 ms SLA, an aggressive aggregation
        // should win (fewer switches than Agg0's 20).
        assert!(
            choice.result.active_switches < 20,
            "expected consolidation to pay off, kept {}",
            choice.result.active_switches
        );
    }

    #[test]
    fn tight_sla_forces_more_switches_on() {
        let mut cfg = ClusterConfig::default();
        let loose = optimize_total_power(&cfg, &template(), &aggregation_candidates()).unwrap();
        // Tighten the SLA drastically: the optimizer must react by
        // selecting a configuration with at least as many switches.
        cfg.sla = cfg.sla.with_total(9.0e-3);
        let tight = optimize_total_power(&cfg, &template(), &aggregation_candidates()).unwrap();
        assert!(
            tight.result.active_switches >= loose.result.active_switches,
            "tight SLA kept {} switches, loose kept {}",
            tight.result.active_switches,
            loose.result.active_switches
        );
    }

    #[test]
    fn candidate_builders() {
        assert_eq!(aggregation_candidates().len(), 4);
        let ks = scale_factor_candidates(5);
        assert_eq!(ks.len(), 5);
        assert!(matches!(ks[0], ConsolidationSpec::GreedyK(k) if k == 1.0));
        assert!(matches!(ks[4], ConsolidationSpec::GreedyK(k) if k == 5.0));
    }

    #[test]
    fn adaptive_k_finds_a_feasible_configuration() {
        let cfg = ClusterConfig::default();
        let choice = adaptive_k(&cfg, &template(), 5).unwrap();
        assert!(choice.feasible, "30 ms SLA at light load must be reachable");
        assert!(matches!(choice.spec, ConsolidationSpec::GreedyK(_)));
        // Feedback stops at the first feasible K — the most consolidated
        // network that meets the SLA.
        assert!(choice.result.active_switches <= 20);
    }

    #[test]
    fn adaptive_k_measures_fewer_candidates_than_the_full_ladder() {
        // The whole point of the feedback variant: on a feasible instance
        // it commits after the first feasible K instead of measuring the
        // entire ladder.
        let cfg = ClusterConfig::default();
        let ctx = ScenarioContext::for_template(&cfg, &template());
        let full = optimize_in_context(
            &ctx,
            ServerScheme::EpronsServer,
            &scale_factor_candidates(5),
        )
        .0
        .unwrap();
        let adaptive = adaptive_k_in_context(&ctx, ServerScheme::EpronsServer, 5).unwrap();
        assert!(adaptive.feasible);
        assert_eq!(full.evaluated, 5);
        assert!(
            adaptive.evaluated < full.evaluated,
            "adaptive measured {} of {} candidates",
            adaptive.evaluated,
            full.evaluated
        );
        // And the configuration it stops at is feasible under the same
        // scenario the exhaustive search measured.
        assert!(adaptive.result.is_feasible(&cfg));
    }

    #[test]
    fn adaptive_k_falls_back_to_least_bad_when_impossible() {
        let mut cfg = ClusterConfig::default();
        cfg.sla = cfg.sla.with_total(7.0e-3); // nothing meets 7 ms
        let choice = adaptive_k(&cfg, &template(), 3).unwrap();
        assert!(!choice.feasible);
        assert_eq!(choice.evaluated, 3, "infeasible ladders are fully measured");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let cfg = ClusterConfig::default();
        let (choice, failures) = optimize_total_power_traced(&cfg, &template(), &[]);
        assert!(choice.is_none());
        assert!(failures.is_empty());
    }

    #[test]
    fn traced_surfaces_failure_reasons() {
        let cfg = ClusterConfig::default();
        // An absurd K makes every latency-sensitive reservation exceed link
        // capacity: that candidate must fail with a reported reason while
        // the sane candidate still wins.
        let cands = [
            ConsolidationSpec::GreedyK(1.0),
            ConsolidationSpec::GreedyK(1.0e6),
        ];
        let (choice, failures) = optimize_total_power_traced(&cfg, &template(), &cands);
        let choice = choice.expect("K=1 evaluates");
        assert!(matches!(choice.spec, ConsolidationSpec::GreedyK(k) if k == 1.0));
        assert_eq!(choice.evaluated, 1, "only the sane candidate measured");
        assert_eq!(failures.len(), 1);
        let (spec, err) = &failures[0];
        assert!(matches!(spec, ConsolidationSpec::GreedyK(k) if *k == 1.0e6));
        assert!(err.to_string().contains("consolidation failed"));
    }
}
