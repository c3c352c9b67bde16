//! Workload plug-in point for deployments.
//!
//! A [`SourceAdapter`] bundles everything a backend needs to run a monitoring
//! query against a fleet of data sources: the declarative query plan, a
//! calibrated per-operator cost profile, and per-source record generators.
//! The paper's three workloads ([`crate::experiment::ScenarioSpec`]) are
//! adapters; new scenarios implement this trait and plug into
//! [`crate::deploy::Deployment`] without touching the experiment harness.

use std::sync::Mutex;

use streamkit::logical::LogicalPlan;
use streamkit::physical::CostProfile;

use crate::engine::block::EpochSource;
use crate::experiment::ScenarioSpec;

/// A deployable workload: query plan + calibrated costs + generators.
pub trait SourceAdapter: Send + Sync {
    /// Workload name (reports, traces).
    fn name(&self) -> String;

    /// The declarative query to deploy.
    fn logical_plan(&self) -> LogicalPlan;

    /// Calibrated per-operator cost models.
    fn costs(&self) -> CostProfile;

    /// The record generator for source `i` of `n`. Generators must be
    /// deterministic per `(i, n)` so different backends see identical
    /// streams (the basis of backend-parity exactness checks).
    fn generator(&self, i: u32, n: u32) -> Box<dyn EpochSource>;

    /// A wire-serializable descriptor a remote `jarvis-node` can rebuild
    /// this workload's plan and costs from, or `None` when the workload
    /// cannot be described (closures, ad-hoc generators). TCP deployments
    /// require `Some`.
    fn remote_workload(&self) -> Option<crate::deploy::remote::RemoteWorkload> {
        None
    }
}

impl SourceAdapter for ScenarioSpec {
    fn name(&self) -> String {
        ScenarioSpec::name(self).to_string()
    }

    fn logical_plan(&self) -> LogicalPlan {
        ScenarioSpec::logical_plan(self)
    }

    fn costs(&self) -> CostProfile {
        ScenarioSpec::costs(self)
    }

    fn generator(&self, i: u32, n: u32) -> Box<dyn EpochSource> {
        ScenarioSpec::generator(self, i, n)
    }

    fn remote_workload(&self) -> Option<crate::deploy::remote::RemoteWorkload> {
        Some(crate::deploy::remote::RemoteWorkload::of_scenario(self))
    }
}

/// An ad-hoc workload: any query plan with caller-supplied generators.
///
/// This is the migration path for code that used to hand the (removed)
/// `Runner` shim a
/// `LogicalPlan` plus a vector of boxed generators, and the plug-in point
/// for scenarios outside the paper's three (custom queries, injected
/// anomalies, trace replay). Generators are taken once per source, so one
/// `CustomWorkload` drives exactly one deployment.
pub struct CustomWorkload {
    name: String,
    plan: LogicalPlan,
    costs: CostProfile,
    generators: Mutex<Vec<Option<Box<dyn EpochSource>>>>,
}

impl CustomWorkload {
    /// Creates a workload from a plan, calibrated costs, and one generator
    /// per source.
    pub fn new(
        name: impl Into<String>,
        plan: LogicalPlan,
        costs: CostProfile,
        generators: Vec<Box<dyn EpochSource>>,
    ) -> CustomWorkload {
        CustomWorkload {
            name: name.into(),
            plan,
            costs,
            generators: Mutex::new(generators.into_iter().map(Some).collect()),
        }
    }

    /// Number of generators supplied.
    pub fn generator_count(&self) -> usize {
        self.generators
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

impl SourceAdapter for CustomWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn logical_plan(&self) -> LogicalPlan {
        self.plan.clone()
    }

    fn costs(&self) -> CostProfile {
        self.costs.clone()
    }

    fn generator(&self, i: u32, _n: u32) -> Box<dyn EpochSource> {
        self.generators
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_mut(i as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| {
                panic!(
                    "CustomWorkload '{}' has no generator for source {i}: each workload \
                     drives exactly one deployment",
                    self.name
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;

    #[test]
    fn scenario_specs_are_adapters() {
        let w: Box<dyn SourceAdapter> = Box::new(ScenarioSpec::pingmesh_s2s(Scale::X1));
        assert_eq!(w.name(), "S2SProbe");
        assert_eq!(w.logical_plan().ops.len(), 3);
    }

    #[test]
    fn adapter_generators_are_deterministic() {
        let w = ScenarioSpec::log_analytics(Scale::X1);
        let a = SourceAdapter::generator(&w, 0, 2).generate_epoch_batch(0, 1.0);
        let b = SourceAdapter::generator(&w, 0, 2).generate_epoch_batch(0, 1.0);
        assert_eq!(a, b, "same source index must replay the same stream");
    }
}
