//! Per-thread work tallies: counts of what the kernel and the design
//! optimizer did, which do not depend on the host the way CPU time
//! does.
//!
//! Every kernel solve adds its [`Work`] to the tally of the thread that
//! ran it, and a batch adds the work of the blocks its helper threads
//! solved to the calling thread's tally; the optimizer's enumeration
//! adds the designs it priced. A caller reads [`tally`] before and after
//! a call and takes the difference: the tally belongs to one thread, so
//! calls on other threads never land in it.

use std::cell::Cell;
use std::ops::{AddAssign, Sub};

/// Counts of solver and planner work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Kernel solves: one per block of lanes an arena solved, whether on
    /// the calling thread or on a helper.
    pub solves: u64,
    /// Blocks of a batch sent to the kernel's helper threads.
    pub helper_blocks: u64,
    /// Kernel lanes solved, one per configuration.
    pub lanes: u64,
    /// Lane evaluations of the kernel's lockstep passes: each pass
    /// evaluates the residual once for every lane of its span, live or
    /// finished. The endpoint probes are not counted.
    pub lane_passes: u64,
    /// Evaluations of the residual that live lanes used, the two
    /// endpoint probes included. A converged lane's `solver_iterations`
    /// also counts the residual at its root, which is never made.
    pub evaluations: u64,
    /// Designs the optimizer's enumeration priced one by one.
    pub designs_priced: u64,
}

impl AddAssign for Work {
    fn add_assign(&mut self, other: Work) {
        self.solves += other.solves;
        self.helper_blocks += other.helper_blocks;
        self.lanes += other.lanes;
        self.lane_passes += other.lane_passes;
        self.evaluations += other.evaluations;
        self.designs_priced += other.designs_priced;
    }
}

impl Sub for Work {
    type Output = Work;

    fn sub(self, earlier: Work) -> Work {
        Work {
            solves: self.solves - earlier.solves,
            helper_blocks: self.helper_blocks - earlier.helper_blocks,
            lanes: self.lanes - earlier.lanes,
            lane_passes: self.lane_passes - earlier.lane_passes,
            evaluations: self.evaluations - earlier.evaluations,
            designs_priced: self.designs_priced - earlier.designs_priced,
        }
    }
}

thread_local! {
    static TALLY: Cell<Work> = const {
        Cell::new(Work {
            solves: 0,
            helper_blocks: 0,
            lanes: 0,
            lane_passes: 0,
            evaluations: 0,
            designs_priced: 0,
        })
    };
}

/// The work done for this thread so far.
pub fn tally() -> Work {
    TALLY.get()
}

/// Adds `work` to this thread's tally.
pub(crate) fn record(work: Work) {
    TALLY.with(|t| {
        let mut sum = t.get();
        sum += work;
        t.set(sum);
    });
}
