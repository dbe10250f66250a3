//! The shared, memoized layer cost model.
//!
//! Every consumer of the analytical model — [`crate::engine::simulate`], the
//! [`crate::scenario::Scenario`] grid runner, `bpvec-serve`'s batch cost
//! tables, [`crate::roofline()`] — ultimately asks the same question: *what
//! does one layer cost at one precision, batch size, platform and memory?*
//! The answer is a pure function of those inputs, and the tiling search
//! behind the traffic term is by far its most expensive part, so this module
//! centralizes the computation ([`layer_cost`]) and memoizes it
//! ([`CostModel`]).
//!
//! ## The memoization key
//!
//! An entry is keyed by **layer shape × precision × batch × platform ×
//! memory**, concretely:
//!
//! * the layer's [`LayerKind`] (its full geometry — *not* its name, so
//!   identically-shaped layers share entries: ResNet-50's repeated
//!   bottleneck convolutions, the same network appearing in several
//!   workloads, every replica of a serving cluster);
//! * the layer's `(act_bits, weight_bits)` precision;
//! * the whole-batch size;
//! * the platform fingerprint (design, unit count, clock, power budgets,
//!   scratchpad capacity — `f64` fields keyed by their exact bit patterns);
//! * the memory fingerprint (bandwidth and access energy bit patterns; the
//!   *name* is deliberately excluded, so two sweeps over numerically
//!   identical memories share entries).
//!
//! Below the full-cost memo sits a second, broader memo for the tiling
//! traffic alone, keyed by **layer shape × precision × batch × scratchpad
//! working set**: the tile search does not depend on compute units or
//! memory speed, so all Table II platforms (same 112 KB scratchpad) and
//! every memory system share one search per layer point.
//!
//! ## When entries are reused
//!
//! * **Across cells of a scenario grid** — the same workload evaluated on a
//!   second memory system reuses nothing *numerically* (memory is in the
//!   key) but the same workload on a second *platform with the same
//!   scratchpad* shares no entry either; sharing happens when the full key
//!   matches. The big structural wins are below.
//! * **Across batch sizes in serving cost tables** — each batch size is its
//!   own entry, but the table for max batch 16 fully contains the entries
//!   for max batch 4, so policies of different batch caps share work.
//! * **Across replicas, policies and clusters** — `bpvec-serve` builds one
//!   table per (backend, traffic) behind an `Arc` and every replica of
//!   every cluster cell reads the same entries.
//! * **Within one network** — repeated layer shapes (ResNet stages,
//!   Inception branches, the two identical recurrent layers) collapse to
//!   one entry each.
//!
//! Cached and uncached paths produce **bit-identical** results: the cache
//! stores the exact `f64`s [`layer_cost`] computes, and
//! [`CostModel::simulate`] aggregates them in the same order
//! [`crate::engine::simulate`] does. A release-mode test in
//! `crates/bench/tests/perf_contracts.rs` holds a fresh model's sweep at
//! least 2x faster than the uncached one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use bpvec_dnn::{Layer, LayerKind, Network};

use crate::accel::{AcceleratorConfig, Design};
use crate::engine::{Boundedness, LayerResult, NetworkResult, SimConfig};
use crate::memory::DramSpec;
use crate::tiling;

/// Everything the analytical model knows about one layer at one
/// (precision, batch, platform, memory) point. Whole-batch quantities,
/// mirroring [`LayerResult`] minus the layer name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// MACs executed (batch total).
    pub macs: u64,
    /// Compute time, seconds.
    pub compute_s: f64,
    /// DRAM traffic, bytes.
    pub traffic_bytes: u64,
    /// Memory time, seconds.
    pub memory_s: f64,
    /// Layer latency after double-buffered overlap: `max(compute, memory)`.
    pub latency_s: f64,
    /// Which side bounds the layer.
    pub bound: Boundedness,
    /// Core energy over the layer's latency, joules.
    pub core_energy_j: f64,
    /// DRAM access energy, joules.
    pub dram_energy_j: f64,
}

/// Computes one layer's cost from first principles (no cache).
///
/// This is *the* analytical model: [`crate::engine::simulate`] and
/// [`CostModel`] both call it, so cached and uncached paths cannot drift.
#[must_use]
pub fn layer_cost(layer: &Layer, accel: &AcceleratorConfig, dram: &DramSpec, b: u64) -> LayerCost {
    let traffic = tiling::layer_traffic(layer, accel.scratchpad.working_bytes(), b);
    layer_cost_from_traffic(layer, accel, dram, b, traffic)
}

/// The cheap tail of [`layer_cost`] once the tiled traffic is known — the
/// arithmetic both the cached and uncached paths share.
fn layer_cost_from_traffic(
    layer: &Layer,
    accel: &AcceleratorConfig,
    dram: &DramSpec,
    b: u64,
    traffic: u64,
) -> LayerCost {
    let core_power_w = (accel.core_power_mw + accel.sram_power_mw) * 1e-3;
    let macs = layer.macs() * b;
    let compute_s = if macs == 0 {
        0.0
    } else {
        macs as f64 / accel.macs_per_second(layer.act_bits, layer.weight_bits)
    };
    let memory_s = dram.transfer_time_s(traffic);
    let latency_s = compute_s.max(memory_s);
    let bound = if compute_s >= memory_s {
        Boundedness::Compute
    } else {
        Boundedness::Memory
    };
    // The core burns its budget for the whole layer (clock tree, SRAM and
    // leakage do not gate off while the layer waits on memory).
    let core_energy_j = core_power_w * latency_s;
    let dram_energy_j = dram.access_energy_j(traffic);
    LayerCost {
        macs,
        compute_s,
        traffic_bytes: traffic,
        memory_s,
        latency_s,
        bound,
        core_energy_j,
        dram_energy_j,
    }
}

/// Platform identity for the memo key. `f64` parameters key by bit
/// pattern: two configs hash equal exactly when every number is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AccelKey {
    design: Design,
    mac_units: u64,
    freq_bits: u64,
    core_power_bits: u64,
    sram_power_bits: u64,
    scratchpad_bytes: u64,
}

impl AccelKey {
    fn of(accel: &AcceleratorConfig) -> Self {
        AccelKey {
            design: accel.design,
            mac_units: accel.mac_units,
            freq_bits: accel.freq_mhz.to_bits(),
            core_power_bits: accel.core_power_mw.to_bits(),
            sram_power_bits: accel.sram_power_mw.to_bits(),
            scratchpad_bytes: accel.scratchpad.capacity_bytes,
        }
    }
}

/// Memory identity for the memo key — numbers only, never the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DramKey {
    bandwidth_bits: u64,
    energy_bits: u64,
}

impl DramKey {
    fn of(dram: &DramSpec) -> Self {
        DramKey {
            bandwidth_bits: dram.bandwidth_gb_s.to_bits(),
            energy_bits: dram.energy_pj_per_bit.to_bits(),
        }
    }
}

/// The full memo key: layer shape × precision × batch × platform × memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CostKey {
    kind: LayerKind,
    act_bits: u32,
    weight_bits: u32,
    batch: u64,
    accel: AccelKey,
    dram: DramKey,
}

/// The traffic-level key: the tiling search (the expensive part of a layer
/// cost) depends only on the layer shape, precision, batch, and scratchpad
/// working set — *not* on the platform's compute units or the memory's
/// speed. All three Table II platforms share a 112 KB scratchpad, so one
/// tiling search serves every platform and memory in a sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TrafficKey {
    kind: LayerKind,
    act_bits: u32,
    weight_bits: u32,
    batch: u64,
    working_bytes: u64,
}

/// A thread-safe memo of [`layer_cost`] results; see the [module
/// docs](self) for the key and reuse characteristics.
///
/// One `CostModel` is meant to be *shared*: [`crate::Scenario`] creates one
/// per run and threads it through every cell, `bpvec-serve` shares one
/// across its whole platform × policy × cluster × traffic grid. Sharing is
/// what converts the duplicated per-consumer cost loops the seed had into
/// hash lookups.
#[derive(Debug, Default)]
pub struct CostModel {
    /// Full per-layer costs (layer × precision × batch × platform × memory).
    /// `RwLock`, not `Mutex`: warm grids are overwhelmingly read traffic
    /// from many rayon workers at once, and readers must not serialize.
    cache: RwLock<HashMap<CostKey, LayerCost>>,
    /// Tiling traffic (layer × precision × batch × scratchpad): shared
    /// across platforms and memories, so a cost miss on a new platform
    /// still skips the tiling search when any other platform with the same
    /// scratchpad saw the layer first.
    traffic: RwLock<HashMap<TrafficKey, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CostModel {
    /// An empty cost model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One layer's cost, memoized.
    #[must_use]
    pub fn layer_cost(
        &self,
        layer: &Layer,
        accel: &AcceleratorConfig,
        dram: &DramSpec,
        batch: u64,
    ) -> LayerCost {
        let key = CostKey {
            kind: layer.kind,
            act_bits: layer.act_bits.bits(),
            weight_bits: layer.weight_bits.bits(),
            batch,
            accel: AccelKey::of(accel),
            dram: DramKey::of(dram),
        };
        if let Some(hit) = self
            .cache
            .read()
            .expect("cost-model cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        // Full-cost miss: the tiling traffic may still be cached from a
        // different platform or memory (it depends only on the scratchpad).
        // Everything is computed outside the locks: concurrent misses on
        // the same key may duplicate work, but the result is identical and
        // the tiling search never runs under a lock.
        let traffic = self.layer_traffic(layer, accel.scratchpad.working_bytes(), batch);
        let cost = layer_cost_from_traffic(layer, accel, dram, batch, traffic);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache
            .write()
            .expect("cost-model cache poisoned")
            .insert(key, cost);
        cost
    }

    /// One layer's tiled DRAM traffic, memoized across platforms/memories.
    fn layer_traffic(&self, layer: &Layer, working_bytes: u64, batch: u64) -> u64 {
        let key = TrafficKey {
            kind: layer.kind,
            act_bits: layer.act_bits.bits(),
            weight_bits: layer.weight_bits.bits(),
            batch,
            working_bytes,
        };
        if let Some(&hit) = self
            .traffic
            .read()
            .expect("cost-model traffic cache poisoned")
            .get(&key)
        {
            return hit;
        }
        let traffic = tiling::layer_traffic(layer, working_bytes, batch);
        self.traffic
            .write()
            .expect("cost-model traffic cache poisoned")
            .insert(key, traffic);
        traffic
    }

    /// Simulates a whole network through the memo — bit-identical to
    /// [`crate::engine::simulate`] (both aggregate [`layer_cost`] values in
    /// layer order).
    #[must_use]
    pub fn simulate(&self, network: &Network, config: &SimConfig) -> NetworkResult {
        let b = config.batching.batch_for(network.id);
        let mut layers = Vec::with_capacity(network.layers.len());
        let mut latency = 0.0f64;
        let mut energy = 0.0f64;
        for layer in &network.layers {
            let c = self.layer_cost(layer, &config.accel, &config.dram, b);
            latency += c.latency_s;
            energy += c.core_energy_j + c.dram_energy_j;
            layers.push(LayerResult {
                name: layer.name.clone(),
                macs: c.macs,
                compute_s: c.compute_s,
                traffic_bytes: c.traffic_bytes,
                memory_s: c.memory_s,
                latency_s: c.latency_s,
                bound: c.bound,
                core_energy_j: c.core_energy_j,
                dram_energy_j: c.dram_energy_j,
            });
        }
        NetworkResult {
            network: network.id,
            batch: b,
            layers,
            latency_s: latency / b as f64,
            energy_j: energy / b as f64,
            macs: network.total_macs(),
        }
    }

    /// Distinct entries currently cached.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.cache.read().expect("cost-model cache poisoned").len()
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records the memo's lookup counters into `registry` under `cost.*`:
    /// `cost.hits`/`cost.misses` accumulate as counters (several models can
    /// share one registry), `cost.entries` and `cost.hit_rate` are gauges
    /// reflecting this model's current state.
    pub fn record_metrics(&self, registry: &bpvec_obs::MetricsRegistry) {
        let hits = self.hits();
        let misses = self.misses();
        registry.counter_add("cost.hits", hits);
        registry.counter_add("cost.misses", misses);
        registry.gauge_set("cost.entries", self.entries() as f64);
        if hits + misses > 0 {
            registry.gauge_set("cost.hit_rate", hits as f64 / (hits + misses) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use bpvec_core::BitWidth;
    use bpvec_dnn::{BitwidthPolicy, NetworkId, PrecisionPolicy};

    fn cfg() -> SimConfig {
        SimConfig::new(AcceleratorConfig::bpvec(), DramSpec::ddr4())
    }

    #[test]
    fn cached_simulation_is_bit_identical_to_the_engine() {
        for id in NetworkId::ALL {
            for policy in [
                PrecisionPolicy::homogeneous8(),
                PrecisionPolicy::heterogeneous(),
                PrecisionPolicy::uniform(BitWidth::INT2),
            ] {
                let net = Network::build_precise(id, &policy).unwrap();
                let model = CostModel::new();
                let cached = model.simulate(&net, &cfg());
                let direct = simulate(&net, &cfg());
                assert_eq!(cached, direct, "{id} {policy}");
                // A second pass serves entirely from the cache and still
                // matches.
                let again = model.simulate(&net, &cfg());
                assert_eq!(again, direct);
                assert!(model.hits() >= net.layers.len() as u64);
            }
        }
    }

    #[test]
    fn transformer_stack_cost_is_the_sum_of_its_layer_costs() {
        use bpvec_dnn::transformer_block;
        // SplitMix64 over stack shapes: for *any* transformer stack —
        // prefill or decode, any head geometry — the whole-network result
        // must equal the per-layer costs summed in layer order, through
        // both the direct engine and the memoized model.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let config = cfg();
        for round in 0..8 {
            let heads = 1usize << (next() % 4);
            let head_dim = 8 * (1 + next() as usize % 8);
            let hidden = heads * head_dim;
            let decode = round % 2 == 1;
            let kv_len = 1 + next() as usize % 256;
            let q_len = if decode { 1 } else { kv_len };
            let blocks = 1 + next() as usize % 3;
            let mut layers = Vec::new();
            for bi in 0..blocks {
                transformer_block(&mut layers, &format!("b{bi}"), hidden, heads, q_len, kv_len);
            }
            let net = Network {
                id: NetworkId::BertBase,
                policy: PrecisionPolicy::homogeneous8(),
                layers,
            };
            let b = config.batching.batch_for(net.id);
            let direct = simulate(&net, &config);
            let mut latency = 0.0f64;
            let mut energy = 0.0f64;
            for layer in &net.layers {
                let c = layer_cost(layer, &config.accel, &config.dram, b);
                latency += c.latency_s;
                energy += c.core_energy_j + c.dram_energy_j;
            }
            let shape = format!("{heads}h×{head_dim} q{q_len} kv{kv_len} ×{blocks}");
            assert_eq!(direct.latency_s, latency / b as f64, "{shape}");
            assert_eq!(direct.energy_j, energy / b as f64, "{shape}");
            let model = CostModel::new();
            assert_eq!(model.simulate(&net, &config), direct, "{shape}");
            assert_eq!(model.simulate(&net, &config), direct, "warm {shape}");
        }
    }

    #[test]
    fn repeated_shapes_share_entries_within_one_network() {
        let net = Network::build(NetworkId::ResNet50, BitwidthPolicy::Homogeneous8);
        let model = CostModel::new();
        let _ = model.simulate(&net, &cfg());
        // ResNet-50 repeats its bottleneck shapes heavily: far fewer
        // distinct entries than layers.
        assert!(
            model.entries() < net.layers.len(),
            "{} entries for {} layers",
            model.entries(),
            net.layers.len()
        );
        assert!(model.hits() > 0);
    }

    #[test]
    fn memory_name_is_not_part_of_the_key() {
        let net = Network::build(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
        let model = CostModel::new();
        let a = SimConfig::new(AcceleratorConfig::bpvec(), DramSpec::ddr4());
        let renamed = SimConfig::new(
            AcceleratorConfig::bpvec(),
            DramSpec::custom("DDR4-twin", 16.0, 15.0),
        );
        let ra = model.simulate(&net, &a);
        let before = model.entries();
        let rb = model.simulate(&net, &renamed);
        assert_eq!(model.entries(), before, "identical numbers share entries");
        assert_eq!(ra.latency_s, rb.latency_s);
    }

    #[test]
    fn different_platforms_and_batches_do_not_collide() {
        let net = Network::build(NetworkId::ResNet18, BitwidthPolicy::Heterogeneous);
        let model = CostModel::new();
        let bp = model.simulate(
            &net,
            &SimConfig::new(AcceleratorConfig::bpvec(), DramSpec::ddr4()),
        );
        let tpu = model.simulate(
            &net,
            &SimConfig::new(AcceleratorConfig::tpu_like(), DramSpec::ddr4()),
        );
        assert_ne!(bp.latency_s, tpu.latency_s);
        assert_eq!(
            bp,
            simulate(
                &net,
                &SimConfig::new(AcceleratorConfig::bpvec(), DramSpec::ddr4())
            )
        );
        assert_eq!(
            tpu,
            simulate(
                &net,
                &SimConfig::new(AcceleratorConfig::tpu_like(), DramSpec::ddr4())
            )
        );
    }
}
