//! The batch pool's metrics, asserted as exact deltas on the global
//! registry. This is the only test in its binary: every other test that
//! runs a batch would move the same process-global counters while it
//! runs.

use hmcs_core::batch::par_map;
use hmcs_core::metrics::{self, keys};

#[test]
fn par_map_records_batch_metrics() {
    let calls_before = metrics::counter(keys::BATCH_CALLS).get();
    let items_before = metrics::counter(keys::BATCH_ITEMS).get();
    let items: Vec<u64> = (0..37).collect();
    let out = par_map(&items, 4, |&x| x * 2);
    assert_eq!(out[36], 72);
    assert_eq!(metrics::counter(keys::BATCH_CALLS).get(), calls_before + 1);
    assert_eq!(metrics::counter(keys::BATCH_ITEMS).get(), items_before + 37);
    let workers = metrics::histogram(keys::BATCH_WORKER_ITEMS).snapshot();
    assert!(workers.count >= 2, "multi-worker batch should record per-worker drain");
}
