//! Central finite-difference derivatives of the mean message latency.
//!
//! The analytical model gives `T_W` (eq. 15) as an implicit function of
//! the offered rate λ, the message size `M` and the population `N`
//! through the effective-rate fixed point, so closed-form derivatives
//! would have to differentiate through the bisection. Instead this
//! module evaluates symmetric probe pairs around the operating point
//! and forms second-order central differences — all probes run as
//! lanes of one kernel solve on the thread's arena
//! ([`kernel::with_arena`]), so a full sensitivity evaluation costs a
//! single lockstep kernel solve.
//!
//! Both entry points come in a slice form that answers a whole set of
//! configurations at once — a capacity plan's frontier, the
//! `reproduce sensitivity` sweep. [`evaluate_batch`] solves every
//! configuration's probes as one kernel solve, and
//! [`lambda_for_latency_batch`] makes each stage of the λ search one
//! solve over the configurations still in it. A kernel solve of a
//! handful of lanes costs 1.0–1.3 µs per lane against 0.3–0.4 µs per
//! lane at a few hundred, so batching cut a capacity plan's frontier
//! sensitivity by about 40%. Lanes never share data, so every configuration's answer
//! and error are the ones it gets alone; the single-point forms are a
//! batch of one.
//!
//! Derivative conventions (units matter — λ is per-processor
//! messages/µs, `T_W` is µs):
//!
//! * `dlatency_dlambda` — µs per unit of per-processor rate (µs²):
//!   how fast latency climbs as every processor offers more load.
//! * `dlatency_dbyte` — µs per payload byte at fixed shape.
//! * `dlatency_dnode` — µs per added *processor* (the per-cluster
//!   population probe moves `C` processors at once; the difference is
//!   normalised back to one processor).
//!
//! Step sizes are the classic central-difference compromise between
//! truncation error (`O(h²)`) and round-off (`O(ε/h)`): `1e-5`
//! relative for λ; the integer axes use the smallest steps their grids
//! allow (±16 bytes, ±1 node per cluster) and fall back to one-sided
//! differences at the domain edge. See EXPERIMENTS.md ("Sensitivity
//! artefact") for the full rationale.

use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::kernel::{self, LaneBounds, LaneOutcome, LaneService};
use crate::service::ServiceTimes;
use crate::solver;
use std::cell::RefCell;

/// Relative half-step for the λ probes: the pair is evaluated at
/// `λ·(1 ∓ LAMBDA_REL_STEP)`.
const LAMBDA_REL_STEP: f64 = 1e-5;
/// Half-step in bytes for the message-size probes.
const MESSAGE_STEP_BYTES: u64 = 16;
/// Half-step in processors *per cluster* for the population probes.
const NODES_STEP: usize = 1;
/// Probes on the geometric λ ladder of [`lambda_for_latency`].
const LADDER: usize = 47;
/// The rungs [`lambda_for_latency`] solves first; the crossing is then
/// searched among the rungs between two of them.
const COARSE: [usize; 7] = [0, 8, 16, 24, 32, 40, 46];

/// Latency derivatives of one configuration at its operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// Mean message latency `T_W` at the operating point (µs).
    pub latency_us: f64,
    /// `∂T_W/∂λ` — µs per unit per-processor rate (µs²). Positive,
    /// steepest at the saturation knee; beyond it the retention
    /// mechanism (waiting processors stop generating) flattens the
    /// curve again.
    pub dlatency_dlambda: f64,
    /// `∂T_W/∂M` — µs per payload byte.
    pub dlatency_dbyte: f64,
    /// `∂T_W/∂N` — µs per added processor at fixed cluster count.
    pub dlatency_dnode: f64,
    /// The closed-form saturation rate (messages/µs/processor).
    pub saturation_lambda: f64,
    /// Offered-rate headroom `saturation_lambda − λ` (messages/µs).
    pub lambda_headroom: f64,
}

/// Evaluates all three derivatives of `config` with one batched kernel
/// pass over the centre point and its probe pairs: a batch of one for
/// [`evaluate_batch`].
pub fn evaluate(config: &SystemConfig) -> Result<Sensitivity, ModelError> {
    evaluate_batch(std::slice::from_ref(config)).remove(0)
}

/// [`evaluate`] for every configuration of `configs`, in order: the
/// operating points and probe pairs of all of them are the lanes of
/// one kernel solve on the thread's arena. Each configuration's result,
/// its error included, is the one [`evaluate`] gives it alone, because
/// lanes never share data.
pub fn evaluate_batch(configs: &[SystemConfig]) -> Vec<Result<Sensitivity, ModelError>> {
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { probes, lanes, .. } = scratch;
        lanes.clear();
        probes.clear();
        probes.extend(configs.iter().map(|config| Probes::push(config, lanes)));
        lanes.solve(false);
        configs
            .iter()
            .zip(probes.drain(..))
            .map(|(config, probes)| probes?.read(config, &lanes.outcomes))
            .collect()
    })
}

/// Where one configuration's probes sit among a batch's lanes, and the
/// probe values its differences divide by.
#[derive(Debug, Clone, Copy)]
struct Probes {
    /// The operating point's lane; the probes follow it.
    start: usize,
    lam_hi: f64,
    lam_lo: f64,
    m_hi: u64,
    m_lo: u64,
    i_lam_hi: usize,
    i_lam_lo: Option<usize>,
    i_m_hi: usize,
    i_m_lo: Option<usize>,
    i_n_hi: usize,
    i_n_lo: Option<usize>,
}

impl Probes {
    /// Validates `config` and appends its operating point and up to six
    /// probes to `lanes`.
    fn push(config: &SystemConfig, lanes: &mut Lanes) -> Result<Probes, ModelError> {
        config.validate()?;

        let lambda = config.lambda_per_us;
        let h_l = lambda * LAMBDA_REL_STEP;
        let lam_hi = lambda + h_l;
        let lam_lo = lambda - h_l;
        if lam_hi <= lambda {
            return Err(ModelError::InvalidConfig {
                name: "lambda_per_us",
                reason: "the relative lambda step underflows at this lambda",
            });
        }

        let m = config.message_bytes;
        let dm = MESSAGE_STEP_BYTES;
        let m_hi = m + dm;
        // One-sided at the small-message edge: the lower probe must stay
        // at least one byte.
        let m_lo = if m > dm { m - dm } else { m };

        let n0 = config.nodes_per_cluster;
        let dn = NODES_STEP;
        // One-sided at the small-population edge: the lower probe needs
        // at least one node per cluster and two nodes in total.
        let n_lo_ok = n0 > dn && config.clusters * (n0 - dn) >= 2;

        // The operating point and up to six probes, numbered from it.
        let start = lanes.configs.len();
        let mut push = |lane: SystemConfig| {
            lanes.configs.push(lane);
            lanes.configs.len() - 1 - start
        };
        push(*config);
        let i_lam_hi = push(config.with_lambda(lam_hi));
        let i_lam_lo = (lam_lo > 0.0).then(|| push(config.with_lambda(lam_lo)));
        let i_m_hi = push(config.with_message_bytes(m_hi));
        let i_m_lo = (m_lo != m).then(|| push(config.with_message_bytes(m_lo)));
        let mut up = *config;
        up.nodes_per_cluster = n0 + dn;
        let i_n_hi = push(up);
        let i_n_lo = n_lo_ok.then(|| {
            let mut down = *config;
            down.nodes_per_cluster = n0 - dn;
            push(down)
        });
        Ok(Probes {
            start,
            lam_hi,
            lam_lo,
            m_hi,
            m_lo,
            i_lam_hi,
            i_lam_lo,
            i_m_hi,
            i_m_lo,
            i_n_hi,
            i_n_lo,
        })
    }

    /// Forms `config`'s differences from its lanes' outcomes.
    fn read(
        self,
        config: &SystemConfig,
        outcomes: &[LaneOutcome],
    ) -> Result<Sensitivity, ModelError> {
        let Probes { start, lam_hi, lam_lo, m_hi, m_lo, .. } = self;
        let lat = |i: usize| latency(&outcomes[start + i]);
        let lambda = config.lambda_per_us;
        let dm = MESSAGE_STEP_BYTES;
        let dn = NODES_STEP;

        let t0 = lat(0)?;
        let dlatency_dlambda = match self.i_lam_lo {
            Some(ilo) => (lat(self.i_lam_hi)? - lat(ilo)?) / (lam_hi - lam_lo),
            None => (lat(self.i_lam_hi)? - t0) / (lam_hi - lambda),
        };
        let dlatency_dbyte = match self.i_m_lo {
            Some(ilo) => (lat(self.i_m_hi)? - lat(ilo)?) / ((m_hi - m_lo) as f64),
            None => (lat(self.i_m_hi)? - t0) / (dm as f64),
        };
        let c = config.clusters as f64;
        let dlatency_dnode = match self.i_n_lo {
            Some(ilo) => (lat(self.i_n_hi)? - lat(ilo)?) / (2.0 * c * dn as f64),
            None => (lat(self.i_n_hi)? - t0) / (c * dn as f64),
        };

        let service = ServiceTimes::compute(config)?;
        let saturation_lambda = solver::saturation_lambda(config, &service);
        Ok(Sensitivity {
            latency_us: t0,
            dlatency_dlambda,
            dlatency_dbyte,
            dlatency_dnode,
            saturation_lambda,
            lambda_headroom: saturation_lambda - lambda,
        })
    }
}

/// A lane's mean latency, or its error.
fn latency(outcome: &LaneOutcome) -> Result<f64, ModelError> {
    match outcome {
        LaneOutcome::Solved(report, _) => Ok(report.latency.mean_message_latency_us),
        LaneOutcome::Failed(e) => Err(e.clone()),
        LaneOutcome::Pruned { .. } => unreachable!("an unbounded solve never prunes"),
    }
}

/// Largest per-processor rate (messages/µs) whose predicted mean
/// latency stays at or below `latency_budget_us`, or `None` when even
/// near-zero load violates the budget: a batch of one for
/// [`lambda_for_latency_batch`].
///
/// Offered load is *not* bounded by [`solver::saturation_lambda`]:
/// beyond the knee the retention mechanism keeps the fixed point
/// stable and latency keeps climbing slowly, so the search looks for
/// the first rung over budget on a geometric ladder of 47 probes that
/// reaches far past saturation, then polishes the crossing with Newton
/// steps on the central-difference derivative; any step that leaves
/// the bracket falls back to bisection, so the bracket always shrinks.
///
/// Latency rises with λ along the ladder, so the first rung over
/// budget is found without solving every rung: 7 coarse rungs (every
/// eighth, and the last) bracket it, and the at most 7 rungs between
/// two coarse ones find it. A model error on any rung solved falls back
/// to solving the whole ladder, which reports the error of the lowest
/// failing rung; errors come from the ladder's ends (an offered rate
/// out of range), which the coarse rungs include. Each polish iteration
/// evaluates three probes (`x−h`, `x`, `x+h`), and stops once the
/// bracket is within `1e-12` relative or after 40 iterations. If
/// latency stays within budget all the way to `2¹⁶·saturation_lambda`
/// (deep in the retention plateau), that ceiling is returned.
///
/// The polish does not always converge fast. Where the crossing lies in
/// the retention plateau, latency is nearly flat in λ, the Newton step
/// lands on the same side of the crossing every time, and only one
/// edge of the bracket moves. On the first frontier point of the
/// benchmark's seed-1 plan 0 (`C2x128/FastEthernet+FastEthernet/Pr128/
/// nonblocking`) five rounds bring the bracket to 2.6e-10 relative;
/// then only its high edge moves for 30 rounds, 28 of which each move
/// `x` by about 1.6e-14 (9.1e-12 relative), and the polish converges
/// in round 37. This is the one answer to λ-headroom questions in
/// capacity planning.
pub fn lambda_for_latency(
    config: &SystemConfig,
    latency_budget_us: f64,
) -> Result<Option<f64>, ModelError> {
    lambda_for_latency_batch(std::slice::from_ref(config), latency_budget_us).remove(0)
}

/// [`lambda_for_latency`] for every configuration of `configs` under one
/// budget, in order. Each stage of the search is one kernel solve on
/// the thread's arena over the points still in it: the coarse rungs of
/// every point, then the fine rungs, then the whole ladder of any point
/// a rung error sent back to it, then each Newton round of the points
/// still polishing. Each configuration's answer, its error included, is
/// the one [`lambda_for_latency`] gives it alone, because lanes never
/// share data.
pub fn lambda_for_latency_batch(
    configs: &[SystemConfig],
    latency_budget_us: f64,
) -> Vec<Result<Option<f64>, ModelError>> {
    let budget = latency_budget_us;
    let mut answers: Vec<Result<Option<f64>, ModelError>> = Vec::with_capacity(configs.len());
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { searches, lanes, .. } = scratch;
        searches.clear();
        for (index, config) in configs.iter().enumerate() {
            match Search::start(config, budget) {
                Ok(search) => {
                    answers.push(Ok(None));
                    searches.push((index, search));
                }
                Err(e) => answers.push(Err(e)),
            }
        }

        // Each stage gathers the lanes of the searches in `stage`, solves
        // them at once, and hands each search its own outcomes.
        let mut run = |stage: fn(&Stage) -> bool, searches: &mut [(usize, Search)]| {
            lanes.clear();
            for (_, search) in searches.iter().filter(|(_, s)| stage(&s.stage)) {
                search.push_rates(lanes);
            }
            lanes.solve(true);
            let mut outcomes = &lanes.outcomes[..];
            for (index, search) in searches.iter_mut().filter(|(_, s)| stage(&s.stage)) {
                let (mine, rest) = outcomes.split_at(search.rates());
                outcomes = rest;
                if let Some(answer) = search.advance(mine, budget) {
                    answers[*index] = answer;
                }
            }
        };
        run(|s| *s == Stage::Coarse, searches);
        run(|s| matches!(s, Stage::Fine(_)), searches);
        run(|s| *s == Stage::Full, searches);
        while searches.iter().any(|(_, s)| s.stage == Stage::Polish) {
            run(|s| *s == Stage::Polish, searches);
        }
    });
    answers
}

/// The stage a point's λ search is in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Solving the coarse rungs.
    Coarse,
    /// Solving the rungs strictly between coarse rungs `k − 1` and `k`.
    Fine(usize),
    /// Solving the whole ladder, after a rung failed.
    Full,
    /// Polishing the crossing in `[lo, hi]` at `x`, after `round` rounds.
    Polish,
    /// Answered.
    Done,
}

/// One point's λ search between the stages of
/// [`lambda_for_latency_batch`].
#[derive(Debug, Clone, Copy)]
struct Search {
    config: SystemConfig,
    lane: LaneService,
    /// The ladder's scale: rung `j` is `scale·2^(j−30)`.
    scale: f64,
    stage: Stage,
    lo: f64,
    hi: f64,
    x: f64,
    round: usize,
}

impl Search {
    /// Validates the inputs and starts `config`'s search at the coarse
    /// rungs.
    fn start(config: &SystemConfig, budget: f64) -> Result<Search, ModelError> {
        config.validate()?;
        if !(budget.is_finite() && budget > 0.0) {
            return Err(ModelError::InvalidConfig {
                name: "latency_budget_us",
                reason: "latency budget must be finite and positive",
            });
        }
        let lane = LaneService::compute(config)?;
        let sat = lane.saturation_lambda;
        let scale = if sat.is_finite() && sat > 0.0 { sat } else { config.lambda_per_us };
        Ok(Search {
            config: *config,
            lane,
            scale,
            stage: Stage::Coarse,
            lo: 0.0,
            hi: 0.0,
            x: 0.0,
            round: 0,
        })
    }

    /// Rung `j` of the geometric ladder: `scale·2^k` for k = −30..=16
    /// covers near-zero load through deep retention-plateau overload.
    fn rung(&self, j: usize) -> f64 {
        self.scale * ((j as i32 - 30) as f64).exp2()
    }

    /// The rungs of a fine stage.
    fn fine(k: usize) -> std::ops::Range<usize> {
        COARSE[k - 1] + 1..COARSE[k]
    }

    /// How many rates this stage solves.
    fn rates(&self) -> usize {
        match self.stage {
            Stage::Coarse => COARSE.len(),
            Stage::Fine(k) => Self::fine(k).len(),
            Stage::Full => LADDER,
            Stage::Polish => 3,
            Stage::Done => 0,
        }
    }

    /// Appends this stage's rates as lanes with the point's one
    /// `LaneService`.
    fn push_rates(&self, lanes: &mut Lanes) {
        let mut push = |lambda: f64| lanes.push(self.config.with_lambda(lambda), self.lane);
        match self.stage {
            Stage::Coarse => COARSE.iter().for_each(|&j| push(self.rung(j))),
            Stage::Fine(k) => Self::fine(k).for_each(|j| push(self.rung(j))),
            Stage::Full => (0..LADDER).for_each(|j| push(self.rung(j))),
            Stage::Polish => {
                let (x, h) = (self.x, self.x * 1e-5);
                [x - h, x, x + h].into_iter().for_each(push);
            }
            Stage::Done => {}
        }
    }

    /// Takes this stage's outcomes and moves to the next stage; returns
    /// the answer once there is one.
    fn advance(
        &mut self,
        outcomes: &[LaneOutcome],
        budget: f64,
    ) -> Option<Result<Option<f64>, ModelError>> {
        let lats = outcomes.iter().map(latency);
        match self.stage {
            Stage::Coarse | Stage::Fine(_) => {
                // Any rung error sends the point to the whole ladder.
                let Ok(over) = first_over(lats, budget) else {
                    self.stage = Stage::Full;
                    return None;
                };
                match (self.stage, over) {
                    (Stage::Coarse, Some(0)) => self.finish(Ok(None)),
                    (Stage::Coarse, None) => self.finish(Ok(Some(self.rung(LADDER - 1)))),
                    (Stage::Coarse, Some(k)) => {
                        self.stage = Stage::Fine(k);
                        None
                    }
                    (Stage::Fine(k), over) => {
                        let fine = Self::fine(k);
                        self.polish(fine.start + over.unwrap_or(fine.len()))
                    }
                    _ => unreachable!("only the searched stages read rungs here"),
                }
            }
            Stage::Full => match first_over(lats, budget) {
                Err(e) => self.finish(Err(e)),
                Ok(Some(0)) => self.finish(Ok(None)),
                Ok(None) => self.finish(Ok(Some(self.rung(LADDER - 1)))),
                Ok(Some(first_over)) => self.polish(first_over),
            },
            Stage::Polish => {
                let mut probes = [0.0; 3];
                for (probe, lat) in probes.iter_mut().zip(lats) {
                    match lat {
                        Ok(lat) => *probe = lat,
                        Err(e) => return self.finish(Err(e)),
                    }
                }
                let [t_lo, t, t_hi] = probes;
                let (x, h) = (self.x, self.x * 1e-5);
                if t <= budget {
                    self.lo = x;
                } else {
                    self.hi = x;
                }
                self.round += 1;
                if (self.hi - self.lo) <= 1e-12 * self.hi {
                    return self.finish(Ok(Some(self.lo)));
                }
                let deriv = (t_hi - t_lo) / (2.0 * h);
                let newton = if deriv.is_finite() && deriv > 0.0 {
                    x - (t - budget) / deriv
                } else {
                    f64::NAN
                };
                self.x = if newton > self.lo && newton < self.hi {
                    newton
                } else {
                    0.5 * (self.lo + self.hi)
                };
                if self.round == POLISH_ROUNDS {
                    return self.finish(Ok(Some(self.lo)));
                }
                None
            }
            Stage::Done => unreachable!("an answered search solves nothing"),
        }
    }

    /// Starts the polish between rung `first_over` and the rung below.
    fn polish(&mut self, first_over: usize) -> Option<Result<Option<f64>, ModelError>> {
        (self.lo, self.hi) = (self.rung(first_over - 1), self.rung(first_over));
        self.x = 0.5 * (self.lo + self.hi);
        self.stage = Stage::Polish;
        None
    }

    fn finish(
        &mut self,
        answer: Result<Option<f64>, ModelError>,
    ) -> Option<Result<Option<f64>, ModelError>> {
        self.stage = Stage::Done;
        Some(answer)
    }
}

/// The position of the first latency over `budget`, `None` when there is
/// none, or the first error among them in order.
fn first_over(
    lats: impl Iterator<Item = Result<f64, ModelError>>,
    budget: f64,
) -> Result<Option<usize>, ModelError> {
    let mut over = None;
    for (j, lat) in lats.enumerate() {
        if lat? > budget && over.is_none() {
            over = Some(j);
        }
    }
    Ok(over)
}

/// Newton rounds of one λ search at most.
const POLISH_ROUNDS: usize = 40;

/// A batch's lanes: their configurations, each with its caller-held
/// `LaneService` on the λ search, and the outcomes of their solve.
#[derive(Default)]
struct Lanes {
    configs: Vec<SystemConfig>,
    service: Vec<LaneService>,
    bounds: Vec<LaneBounds>,
    outcomes: Vec<LaneOutcome>,
}

impl Lanes {
    fn clear(&mut self) {
        self.configs.clear();
        self.service.clear();
        self.bounds.clear();
    }

    fn push(&mut self, config: SystemConfig, lane: LaneService) {
        self.configs.push(config);
        self.service.push(lane);
        self.bounds.push(LaneBounds::NONE);
    }

    /// Solves the lanes, if any, as one kernel solve on this thread's
    /// arena: with the pushed `LaneService`s when `held`, else deriving
    /// each lane's service from its topology.
    fn solve(&mut self, held: bool) {
        self.outcomes.clear();
        if self.configs.is_empty() {
            return;
        }
        let bounded = held.then_some((&self.service[..], &self.bounds[..]));
        kernel::with_arena(|arena| arena.solve_into(&self.configs, bounded, &mut self.outcomes));
    }
}

/// One thread's reusable sensitivity buffers, so a warm call allocates
/// only the results it returns.
#[derive(Default)]
struct Scratch {
    lanes: Lanes,
    probes: Vec<Result<Probes, ModelError>>,
    searches: Vec<(usize, Search)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;
    use crate::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(clusters: usize) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, Architecture::NonBlocking).unwrap()
    }

    #[test]
    fn derivatives_have_the_right_signs() {
        let s = evaluate(&cfg(16)).unwrap();
        assert!(s.latency_us > 0.0);
        assert!(s.dlatency_dlambda > 0.0, "more load must cost latency");
        assert!(s.dlatency_dbyte > 0.0, "bigger messages must cost latency");
        assert!(s.dlatency_dnode > 0.0, "more contending processors must cost latency");
        assert!(s.saturation_lambda > 0.0 && s.saturation_lambda.is_finite());
    }

    #[test]
    fn lambda_derivative_matches_a_coarse_secant() {
        // The central difference at 1e-5 must agree with a 1e-3-wide
        // secant to within the secant's own truncation error.
        let base = cfg(8);
        let s = evaluate(&base).unwrap();
        let l = base.lambda_per_us;
        let up = AnalyticalModel::evaluate(&base.with_lambda(l * 1.001)).unwrap();
        let down = AnalyticalModel::evaluate(&base.with_lambda(l * 0.999)).unwrap();
        let secant = (up.latency.mean_message_latency_us - down.latency.mean_message_latency_us)
            / (l * 0.002);
        let rel = (s.dlatency_dlambda - secant).abs() / secant.abs();
        assert!(rel < 1e-2, "central FD {} vs secant {secant}: rel {rel}", s.dlatency_dlambda);
    }

    #[test]
    fn derivative_steepens_toward_the_knee() {
        // Below the saturation knee the latency curve is convex, so
        // the λ-derivative must grow as load approaches saturation.
        // (Beyond the knee retention flattens it again, which is why
        // the probes sit at fractions of the closed-form rate.)
        let base = cfg(16);
        let sat = evaluate(&base).unwrap().saturation_lambda;
        let near = evaluate(&base.with_lambda(0.95 * sat)).unwrap();
        let far = evaluate(&base.with_lambda(0.5 * sat)).unwrap();
        assert!(near.dlatency_dlambda > far.dlatency_dlambda);
    }

    #[test]
    fn edge_populations_fall_back_to_one_sided_steps() {
        // C=256 leaves one node per cluster: the N− probe is invalid
        // and the M/λ axes still work.
        let s = evaluate(&cfg(256)).unwrap();
        assert!(s.dlatency_dnode.is_finite());
        assert!(s.dlatency_dlambda > 0.0);
    }

    #[test]
    fn newton_lambda_hits_the_budget_from_below() {
        let base = cfg(16);
        let budget = 5_000.0; // 5 ms, comfortably above zero load
        let best = lambda_for_latency(&base, budget).unwrap().expect("budget is feasible");
        let at = AnalyticalModel::evaluate(&base.with_lambda(best)).unwrap();
        assert!(at.latency.mean_message_latency_us <= budget * (1.0 + 1e-9));
        let above = AnalyticalModel::evaluate(&base.with_lambda(best * 1.001)).unwrap();
        assert!(above.latency.mean_message_latency_us > budget);
    }

    #[test]
    fn newton_lambda_agrees_with_a_serial_bisection_oracle() {
        // An independent oracle: a plain serial bisection on per-point
        // scalar evaluations.
        let base = cfg(16);
        let budget = 5_000.0;
        let newton = lambda_for_latency(&base, budget).unwrap().unwrap();
        let latency_at = |lam: f64| {
            AnalyticalModel::evaluate(&base.with_lambda(lam))
                .unwrap()
                .latency
                .mean_message_latency_us
        };
        let (mut lo, mut hi) = (1e-8, 1e-2);
        assert!(latency_at(lo) <= budget && latency_at(hi) > budget);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if latency_at(mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let rel = (newton - lo).abs() / lo;
        assert!(rel < 1e-3, "newton {newton} vs bisection {lo}: rel {rel}");
    }

    #[test]
    fn newton_lambda_detects_impossible_budgets() {
        // Budget below the zero-load service mix: nothing fits.
        assert_eq!(lambda_for_latency(&cfg(16), 1.0).unwrap(), None);
    }

    #[test]
    fn newton_lambda_rejects_bad_budgets() {
        assert!(lambda_for_latency(&cfg(4), f64::NAN).is_err());
        assert!(lambda_for_latency(&cfg(4), -5.0).is_err());
    }
}
