//! Cross-crate observability integration: the metrics registry in
//! `hmcs-core` must see traffic from every layer that claims to be
//! instrumented — the fixed-point solver, the batch pool, the
//! flow/packet simulators and the replication driver — and the whole
//! pipeline must stay numerically identical with recording disabled.

use hmcs_core::config::SystemConfig;
use hmcs_core::kernel;
use hmcs_core::metrics::{self, keys};
use hmcs_core::model::AnalyticalModel;
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_TOTAL_NODES};
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::FlowSimulator;
use hmcs_sim::metrics_keys as sim_keys;
use hmcs_sim::replication::{run_replications, Simulator};
use hmcs_sim::shard::{run_sharded, uniform_partition, ShardOptions};
use hmcs_topology::transmission::Architecture;
use std::sync::Mutex;

/// Both tests toggle or depend on the process-global enabled flag, so
/// they must not interleave. Poisoning is fine to ignore: a failed
/// test already failed.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn system() -> SystemConfig {
    SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap()
}

/// One sweep + one simulation + one replication batch must leave a
/// coherent trail in the global registry: solver counters from core,
/// pool counters from batch, event/replication counters from sim.
#[test]
fn every_layer_reports_into_the_global_registry() {
    let _serial = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    metrics::set_enabled(true);
    let solver_before = metrics::counter(keys::SOLVER_SOLVES).get();
    let batch_before = metrics::counter(keys::BATCH_ITEMS).get();
    let flow_before = metrics::counter(sim_keys::FLOW_EVENTS).get();
    let reps_before = metrics::counter(sim_keys::REPLICATION_RUNS).get();
    let shards_before = metrics::counter(sim_keys::SHARD_RUNS).get();
    let bnd_in_before = metrics::counter(sim_keys::SHARD_BOUNDARY_IN).get();
    let bnd_out_before = metrics::counter(sim_keys::SHARD_BOUNDARY_OUT).get();

    let base = system();
    let configs: Vec<SystemConfig> = PAPER_CLUSTER_COUNTS
        .iter()
        .map(|&c| {
            let mut cfg = base;
            cfg.clusters = c;
            cfg.nodes_per_cluster = PAPER_TOTAL_NODES / c;
            cfg
        })
        .collect();
    let points = kernel::evaluate_batch(&configs, 3);
    assert!(points.iter().all(Result::is_ok));

    let sim_cfg = SimConfig::new(base).with_messages(2_000).with_warmup(500).with_seed(77);
    FlowSimulator::run(&sim_cfg).unwrap();
    run_replications(&sim_cfg, Simulator::Flow, 3).unwrap();
    let shard_cfg = SimConfig::new(base).with_messages(800).with_warmup(200).with_seed(78);
    run_sharded(
        &shard_cfg,
        &uniform_partition(base.clusters, base.nodes_per_cluster),
        &ShardOptions::default(),
    )
    .unwrap();

    let solves = metrics::counter(keys::SOLVER_SOLVES).get() - solver_before;
    assert!(
        solves >= PAPER_CLUSTER_COUNTS.len() as u64,
        "sweep of {} points recorded only {solves} solves",
        PAPER_CLUSTER_COUNTS.len()
    );
    assert!(
        metrics::counter(keys::BATCH_ITEMS).get() - batch_before
            >= PAPER_CLUSTER_COUNTS.len() as u64,
        "batch pool did not count the sweep items"
    );
    assert!(
        metrics::counter(sim_keys::FLOW_EVENTS).get() > flow_before,
        "flow simulator did not report its event count"
    );
    assert_eq!(
        metrics::counter(sim_keys::REPLICATION_RUNS).get() - reps_before,
        3,
        "replication driver must count each run"
    );
    // The sharded driver: 8 shards × 2 fixed-point passes, exchanging
    // boundary load in both directions.
    assert_eq!(
        metrics::counter(sim_keys::SHARD_RUNS).get() - shards_before,
        2 * base.clusters as u64,
        "shard driver must count each shard of each pass"
    );
    assert!(
        metrics::counter(sim_keys::SHARD_BOUNDARY_IN).get() > bnd_in_before,
        "shard driver must count background boundary messages in"
    );
    assert!(
        metrics::counter(sim_keys::SHARD_BOUNDARY_OUT).get() > bnd_out_before,
        "shard driver must count external boundary messages out"
    );

    // The snapshot renders every key it saw; spot-check the categories.
    let rendered = metrics::global().snapshot().render();
    for key in [
        keys::SOLVER_SOLVES,
        keys::BATCH_ITEMS,
        sim_keys::FLOW_EVENTS,
        sim_keys::SHARD_RUNS,
        sim_keys::SHARD_BOUNDARY_IN,
        sim_keys::SHARD_BOUNDARY_OUT,
        sim_keys::SHARD_BUSY_US,
        sim_keys::SHARD_IDLE_US,
    ] {
        assert!(rendered.contains(key), "snapshot render missing {key}");
    }
}

/// Disabling the global flag silences counters without perturbing a
/// single bit of the simulation or analytical output.
#[test]
fn disabling_metrics_changes_counters_not_results() {
    struct ReEnable;
    impl Drop for ReEnable {
        fn drop(&mut self) {
            metrics::set_enabled(true);
        }
    }
    let _serial = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ReEnable;

    let base = system();
    let sim_cfg = SimConfig::new(base).with_messages(1_500).with_warmup(300).with_seed(11);

    metrics::set_enabled(true);
    let report_on = AnalyticalModel::evaluate(&base).unwrap();
    let sim_on = FlowSimulator::run(&sim_cfg).unwrap();

    metrics::set_enabled(false);
    let flow_before = metrics::counter(sim_keys::FLOW_EVENTS).get();
    let report_off = AnalyticalModel::evaluate(&base).unwrap();
    let sim_off = FlowSimulator::run(&sim_cfg).unwrap();
    let flow_after = metrics::counter(sim_keys::FLOW_EVENTS).get();

    assert_eq!(flow_before, flow_after, "disabled counters must not move");
    assert_eq!(report_on, report_off, "analytical output must not depend on metrics");
    assert_eq!(sim_on.mean_latency_us, sim_off.mean_latency_us);
    assert_eq!(sim_on.messages, sim_off.messages);
}
