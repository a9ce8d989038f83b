//! Timing / counter reports returned by queries and mutations.

use std::time::Duration;

use rtcore::LaunchReport;

/// One timed phase of a query: simulated device time (from the SIMT cost
/// model) plus host wall-clock time of the software execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// Simulated device time.
    pub device: Duration,
    /// Host wall-clock time.
    pub wall: Duration,
}

impl Phase {
    /// Sums two phases.
    pub fn merge(&self, other: &Phase) -> Phase {
        Phase {
            device: self.device + other.device,
            wall: self.wall + other.wall,
        }
    }
}

/// Per-phase breakdown of a query — the components plotted in Fig. 9(b):
/// `k`-prediction, query-side BVH buildup, forward cast, backward cast.
/// Point and Range-Contains queries only populate `forward`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    /// Sampling + cost-model sweep that picks `k` (§3.4).
    pub k_prediction: Phase,
    /// Building the BVH over the incoming queries (Range-Intersects
    /// includes this in query time — §6.1 Timing).
    pub bvh_build: Phase,
    /// Forward casting pass (or the only pass for point/contains).
    pub forward: Phase,
    /// Backward casting pass.
    pub backward: Phase,
}

impl Breakdown {
    /// Total across all phases.
    pub fn total(&self) -> Phase {
        self.k_prediction
            .merge(&self.bvh_build)
            .merge(&self.forward)
            .merge(&self.backward)
    }
}

/// Result of a query: merged hardware counters plus the phase breakdown.
#[derive(Clone, Debug, Default)]
pub struct QueryReport {
    /// Merged launch counters across all passes.
    pub launch: LaunchReport,
    /// Phase timings.
    pub breakdown: Breakdown,
    /// The multicast `k` actually used (1 when multicast is off or not
    /// applicable).
    pub chosen_k: usize,
    /// Selectivity estimated by the sampling pass, when one ran.
    pub estimated_selectivity: Option<f64>,
}

impl QueryReport {
    /// Total simulated device time (the headline number benches report).
    pub fn device_time(&self) -> Duration {
        self.breakdown.total().device
    }

    /// Total host wall time.
    pub fn wall_time(&self) -> Duration {
        self.breakdown.total().wall
    }

    /// IS-shader precision: how many IS invocations produced a real
    /// result. Low precision means the hardware box tests are feeding
    /// the shaders many false positives (footnote 2) — e.g. from
    /// refit-degraded BVHs (§6.7) or heavy multicast grazing.
    pub fn is_precision(&self, results: u64) -> f64 {
        let calls = self.launch.totals.is_calls;
        if calls == 0 {
            return 1.0;
        }
        results as f64 / calls as f64
    }

    /// Average BVH nodes visited per cast ray — the traversal-depth
    /// diagnostic behind the `O(log N)` search-cost term of the §3.4
    /// cost model. Counts wide (BVH4) node pops, the only node work a
    /// launch charges.
    pub fn nodes_per_ray(&self) -> f64 {
        let rays = self.launch.totals.rays;
        if rays == 0 {
            return 0.0;
        }
        self.launch.totals.wide_nodes_visited as f64 / rays as f64
    }

    /// Largest number of IS invocations handled by one thread — the
    /// §3.4 load-imbalance metric Ray Multicast bounds by `N/k`.
    pub fn max_is_per_thread(&self) -> u64 {
        self.launch.max_is_per_thread
    }
}

/// Result of an index mutation (insert / delete / update).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationReport {
    /// Number of rectangles affected.
    pub affected: usize,
    /// Simulated device time (GAS build/refit + IAS rebuild/refit).
    pub device_time: Duration,
    /// Host wall-clock time.
    pub wall_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_merge_and_total() {
        let a = Phase {
            device: Duration::from_nanos(10),
            wall: Duration::from_nanos(20),
        };
        let b = Phase {
            device: Duration::from_nanos(5),
            wall: Duration::from_nanos(1),
        };
        let m = a.merge(&b);
        assert_eq!(m.device, Duration::from_nanos(15));
        assert_eq!(m.wall, Duration::from_nanos(21));

        let bd = Breakdown {
            k_prediction: a,
            bvh_build: b,
            forward: a,
            backward: b,
        };
        assert_eq!(bd.total().device, Duration::from_nanos(30));
    }
}
