//! Cross-artefact memoisation of simulation runs.
//!
//! `reproduce all` re-simulates several identical configurations: the
//! ablation baseline arms, the packet-validation flow column, and the
//! bounds sweep all run paper-preset systems that the figure sweeps
//! already simulated under the same seed and budget. Simulator runs
//! are pure functions of their [`SimConfig`] — repeating one returns a
//! bit-identical [`SimResult`] — so a process-wide memo table keyed by
//! the config's exact value can return the stored result instead of
//! re-simulating, without changing a single output byte.
//!
//! The key is the config's `Debug` rendering: Rust formats every float
//! as the shortest string that round-trips to the same bits, so the
//! rendering is injective on configs. Two configs share a key exactly
//! when they are bit-identical, which is exactly the condition under
//! which the deterministic simulators agree bit for bit.
//!
//! The table is **bounded**: entries beyond `DEFAULT_CAPACITY` evict
//! the least-recently-used key, so a long-running process (the
//! `hmcs-serve` daemon, a soak test) cannot grow it without limit. An
//! eviction only costs a re-simulation on the next identical request —
//! it never changes any result.
//!
//! Hits, misses and evictions are counted in the metrics registry (and
//! therefore appear in every run manifest) under `SIM_CACHE_HITS` /
//! `SIM_CACHE_MISSES` / `SIM_CACHE_EVICTIONS`, so a dedup
//! regression is visible in CI.
//!
//! Concurrency: the table is shared across the batch pool's workers.
//! A miss releases the lock while simulating, so two workers may race
//! on the same config; both compute the same result and the second
//! insert is a no-op in effect. Errors are not cached — they are cheap
//! to recompute and never occur in the reproduce pipeline.

use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_sim::flow::FlowSimulator;
use hmcs_sim::packet::PacketSimulator;
use hmcs_sim::{SimConfig, SimResult};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Metrics counter: memoised runs served from the table.
pub(crate) const SIM_CACHE_HITS: &str = "bench.sim_cache.hits";
/// Metrics counter: runs that had to simulate.
pub(crate) const SIM_CACHE_MISSES: &str = "bench.sim_cache.misses";
/// Metrics counter: least-recently-used entries dropped at the bound.
pub(crate) const SIM_CACHE_EVICTIONS: &str = "bench.sim_cache.evictions";

/// Entry bound of the process-global table. `reproduce all` peaks at
/// well under 200 distinct configs, so the bound never fires there; it
/// exists for long-running processes that stream novel configs.
pub(crate) const DEFAULT_CAPACITY: usize = 512;

/// A bounded least-recently-used map. Recency is a monotone tick
/// stamped on insert and on hit; eviction scans for the minimum stamp.
/// The O(n) scan is deliberate: eviction happens at most once per
/// *simulation* (milliseconds to seconds), so a few hundred key
/// comparisons are noise and the simple structure stays obviously
/// correct.
struct LruTable {
    entries: HashMap<String, (SimResult, u64)>,
    capacity: usize,
    tick: u64,
}

impl LruTable {
    fn new(capacity: usize) -> Self {
        LruTable { entries: HashMap::new(), capacity: capacity.max(1), tick: 0 }
    }

    fn get(&mut self, key: &str) -> Option<SimResult> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(result, used)| {
            *used = tick;
            result.clone()
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry while over capacity. Returns the number of evictions.
    fn insert(&mut self, key: String, result: SimResult) -> usize {
        self.tick += 1;
        self.entries.insert(key, (result, self.tick));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("over-capacity table is non-empty");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }
}

fn table() -> &'static Mutex<LruTable> {
    static TABLE: OnceLock<Mutex<LruTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(LruTable::new(DEFAULT_CAPACITY)))
}

fn run_cached(
    key: String,
    run: impl FnOnce() -> Result<SimResult, ModelError>,
) -> Result<SimResult, ModelError> {
    if let Some(result) = table().lock().expect("sim cache poisoned").get(&key) {
        metrics::counter(SIM_CACHE_HITS).incr();
        return Ok(result);
    }
    metrics::counter(SIM_CACHE_MISSES).incr();
    let result = run()?;
    let evicted = table().lock().expect("sim cache poisoned").insert(key, result.clone());
    metrics::counter(SIM_CACHE_EVICTIONS).add(evicted as u64);
    Ok(result)
}

/// [`FlowSimulator::run`] through the memo table.
pub fn flow_run(cfg: &SimConfig) -> Result<SimResult, ModelError> {
    run_cached(format!("flow/{cfg:?}"), || FlowSimulator::run(cfg))
}

/// [`PacketSimulator::run`] through the memo table.
pub fn packet_run(cfg: &SimConfig) -> Result<SimResult, ModelError> {
    run_cached(format!("packet/{cfg:?}"), || PacketSimulator::run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::config::SystemConfig;
    use hmcs_core::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(seed: u64) -> SimConfig {
        let system =
            SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::NonBlocking).unwrap();
        SimConfig::new(system).with_messages(400).with_seed(seed)
    }

    fn result(seed: u64) -> SimResult {
        FlowSimulator::run(&cfg(seed)).unwrap()
    }

    #[test]
    fn cached_runs_are_bit_identical_to_direct_runs() {
        let c = cfg(9001);
        let direct = FlowSimulator::run(&c).unwrap();
        let first = flow_run(&c).unwrap();
        let second = flow_run(&c).unwrap();
        assert_eq!(first, direct);
        assert_eq!(second, direct);

        let direct = PacketSimulator::run(&c).unwrap();
        assert_eq!(packet_run(&c).unwrap(), direct);
        assert_eq!(packet_run(&c).unwrap(), direct);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let a = flow_run(&cfg(9002)).unwrap();
        let b = flow_run(&cfg(9003)).unwrap();
        assert_ne!(a.mean_latency_us, b.mean_latency_us);
        // The flow and packet simulators never share entries even for
        // the same config.
        let c = cfg(9004);
        let flow = flow_run(&c).unwrap();
        let packet = packet_run(&c).unwrap();
        assert_ne!(flow.mean_latency_us, packet.mean_latency_us);
    }

    #[test]
    fn lru_evicts_least_recently_used_at_the_bound() {
        let mut lru = LruTable::new(2);
        assert_eq!(lru.insert("a".into(), result(1)), 0);
        assert_eq!(lru.insert("b".into(), result(2)), 0);
        // Touch "a" so "b" becomes the coldest entry.
        assert!(lru.get("a").is_some());
        assert_eq!(lru.insert("c".into(), result(3)), 1);
        assert_eq!(lru.len(), 2);
        assert!(lru.contains("a"), "recently-used entry must survive");
        assert!(!lru.contains("b"), "least-recently-used entry must be evicted");
        assert!(lru.contains("c"));
        // Evicted keys miss; surviving keys still hit with their value.
        assert!(lru.get("b").is_none());
        assert_eq!(lru.get("a").unwrap(), result(1));
    }

    #[test]
    fn eviction_increments_the_metric_and_preserves_results() {
        // Drive the real run_cached path against the global table: the
        // global capacity (512) is far above what tests insert, so
        // force evictions through a dedicated small table instead.
        let mut lru = LruTable::new(1);
        let evictions_before = metrics::counter(SIM_CACHE_EVICTIONS).get();
        metrics::counter(SIM_CACHE_EVICTIONS).add(lru.insert("x".into(), result(11)) as u64);
        metrics::counter(SIM_CACHE_EVICTIONS).add(lru.insert("y".into(), result(12)) as u64);
        assert_eq!(metrics::counter(SIM_CACHE_EVICTIONS).get(), evictions_before + 1);
        // A re-inserted key returns the same bit-identical result.
        assert!(lru.get("x").is_none());
        assert_eq!(lru.insert("x".into(), result(11)), 1);
        assert_eq!(lru.get("x").unwrap(), result(11));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut lru = LruTable::new(0);
        lru.insert("only".into(), result(21));
        assert_eq!(lru.len(), 1);
        lru.insert("next".into(), result(22));
        assert_eq!(lru.len(), 1);
        assert!(lru.contains("next"));
    }
}
