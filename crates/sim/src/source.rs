//! The paper's message generator, shared by every simulator.
//!
//! Each processor thinks for an exponential time of mean `1/λ`
//! (assumption 1), then sends one message to a destination drawn by the
//! configured [`TrafficPattern`] (uniform over all other nodes by
//! default, assumption 3). With blocked sources (assumption 4) the
//! processor thinks again only once its message is delivered; an open
//! source thinks again as soon as it generates.

use crate::config::SimConfig;
use hmcs_core::routing::TrafficPattern;
use hmcs_des::engine::Scheduler;
use hmcs_des::rng::{RngStream, UniformInt};
use hmcs_des::time::SimTime;

/// Think times and destinations for contiguously numbered clusters.
#[derive(Debug)]
pub(crate) struct Source {
    /// RNG stream ids of the think times and the destinations.
    streams: [u64; 2],
    think_rng: RngStream,
    dest_rng: RngStream,
    lambda_per_us: f64,
    blocked: bool,
    pattern: TrafficPattern,
    /// Cluster index of every node.
    cluster_of_node: Vec<usize>,
    /// First node of every cluster.
    cluster_start: Vec<usize>,
    /// Precomputed sampler over the `n - 1` non-source destinations.
    dest_any: UniformInt,
    /// Per cluster, a precomputed sampler over its non-source local
    /// destinations (`None` for single-node clusters).
    dest_intra: Vec<Option<UniformInt>>,
}

impl Source {
    /// A source for clusters of `cluster_nodes[i]` processors numbered
    /// in cluster order, generating at `lambda_per_us` each, drawing on
    /// `cfg.seed`'s think and destination `streams`.
    pub(crate) fn new<S>(
        cfg: &SimConfig<S>,
        streams: [u64; 2],
        lambda_per_us: f64,
        cluster_nodes: &[usize],
    ) -> Self {
        let mut cluster_of_node = Vec::with_capacity(cluster_nodes.iter().sum());
        let mut cluster_start = Vec::with_capacity(cluster_nodes.len());
        for (i, &size) in cluster_nodes.iter().enumerate() {
            cluster_start.push(cluster_of_node.len());
            cluster_of_node.extend(std::iter::repeat_n(i, size));
        }
        Source {
            streams,
            think_rng: RngStream::new(cfg.seed, streams[0]),
            dest_rng: RngStream::new(cfg.seed, streams[1]),
            lambda_per_us,
            blocked: cfg.blocked_sources,
            pattern: cfg.pattern,
            dest_any: UniformInt::new(cluster_of_node.len() - 1),
            dest_intra: cluster_nodes
                .iter()
                .map(|&size| (size >= 2).then(|| UniformInt::new(size - 1)))
                .collect(),
            cluster_of_node,
            cluster_start,
        }
    }

    /// Rebuilds both RNG streams from `seed` with the same stream ids,
    /// so a reset source replays a fresh one's draws bit for bit.
    pub(crate) fn reset(&mut self, seed: u64) {
        self.think_rng = RngStream::new(seed, self.streams[0]);
        self.dest_rng = RngStream::new(seed, self.streams[1]);
    }

    /// Number of processors.
    pub(crate) fn nodes(&self) -> usize {
        self.cluster_of_node.len()
    }

    /// Cluster index of `node`.
    pub(crate) fn cluster_of(&self, node: usize) -> usize {
        self.cluster_of_node[node]
    }

    /// Draws one think time.
    pub(crate) fn think(&mut self) -> SimTime {
        SimTime::from_us(self.think_rng.exponential(self.lambda_per_us))
    }

    /// Draws the destination of a message generated by `src`.
    pub(crate) fn destination(&mut self, src: usize) -> usize {
        match self.pattern {
            TrafficPattern::Uniform => self.dest_any.sample_excluding(&mut self.dest_rng, src),
            TrafficPattern::Localized { locality } => {
                let cluster = self.cluster_of(src);
                match self.dest_intra[cluster] {
                    Some(intra) if self.dest_rng.bernoulli(locality) => {
                        // Uniform within the source's cluster, excluding
                        // the source itself.
                        let base = self.cluster_start[cluster];
                        base + intra.sample_excluding(&mut self.dest_rng, src - base)
                    }
                    _ => self.dest_any.sample_excluding(&mut self.dest_rng, src),
                }
            }
            TrafficPattern::Hotspot { node, fraction } => {
                let hot = node.min(self.nodes() - 1);
                if src != hot && self.dest_rng.bernoulli(fraction) {
                    hot
                } else {
                    self.dest_any.sample_excluding(&mut self.dest_rng, src)
                }
            }
        }
    }

    /// A source has just generated: an open source schedules its next
    /// attempt `next` after a fresh think time.
    pub(crate) fn generated<E: Copy>(&mut self, now: SimTime, s: &mut Scheduler<E>, next: E) {
        if !self.blocked {
            s.schedule_in(now, self.think(), next);
        }
    }

    /// A source's message was delivered: a blocked source resumes
    /// thinking only now (assumption 4) and schedules `next`.
    pub(crate) fn delivered<E: Copy>(&mut self, now: SimTime, s: &mut Scheduler<E>, next: E) {
        if self.blocked {
            s.schedule_in(now, self.think(), next);
        }
    }
}
