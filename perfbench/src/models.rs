//! Timing adapters for the traced explore run: two `CostModel` wrappers
//! that time the calls the sweep runner makes, one outside the estimate
//! cache and one around the estimator the cache wraps.

use dhdl_core::Design;
use dhdl_dse::{CacheStats, CostModel};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::Platform;

use crate::trace::{Layer, Tracer};

/// The estimator the cache wraps, calling `elaborate` and `estimate_net`
/// as separate timed steps. `Estimator::estimate` is exactly these two
/// calls, so estimates are bit-identical to the untimed path.
pub struct TimedEstimator<'a> {
    pub estimator: &'a Estimator,
    pub tracer: &'a Tracer,
}

impl CostModel for TimedEstimator<'_> {
    fn estimate(&self, design: &Design) -> Estimate {
        let net = self
            .tracer
            .span(Layer::Elaborate, || self.estimator.elaborate(design));
        self.tracer.span(Layer::EstimateNet, || {
            self.estimator.estimate_net(design, &net)
        })
    }

    fn platform(&self) -> &Platform {
        self.estimator.platform()
    }
}

/// A wrapper outside `CachedModel`: times the two calls the sweep runner
/// makes, its warm fast-path lookups and its keyed estimates (whose self
/// time, once the inner estimator's spans are taken out, is the cache's
/// keying work).
pub struct TimedModel<'a, M: CostModel> {
    pub inner: M,
    pub tracer: &'a Tracer,
}

impl<M: CostModel> CostModel for TimedModel<'_, M> {
    fn estimate(&self, design: &Design) -> Estimate {
        self.tracer
            .span(Layer::CacheKey, || self.inner.estimate(design))
    }

    fn platform(&self) -> &Platform {
        self.inner.platform()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn lookup_params(&self, params_key: u64) -> Option<Estimate> {
        self.tracer
            .span(Layer::CacheLookup, || self.inner.lookup_params(params_key))
    }

    fn estimate_devices(&self, params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        self.tracer.span(Layer::CacheKey, || {
            self.inner.estimate_devices(params_key, design, k)
        })
    }
}
