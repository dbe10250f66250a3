//! Fleet topology: regions → clusters → replicas, tenant classes, and
//! admission control.
//!
//! A [`FleetSpec`] layers a geographic hierarchy over the flat replica
//! pool the event loop simulates: each region hosts a set of clusters,
//! each cluster a set of replicas, and the pool is the concatenation in
//! declaration order. Arrivals carry a [`TenantClass`] (sampled by
//! weight) whose home region receives the request; when the home region
//! is at its queue cap the request spills to the least-loaded region with
//! capacity (or is dropped when spilling is off or nothing has room), and
//! per-tenant in-flight quotas shed load before it ever reaches a queue.
//! Routing inside the chosen region picks the least-loaded cluster, then
//! applies the fleet's [`Router`] across that cluster's replicas.
//!
//! All routing reads O(regions + clusters) maintained counters — never a
//! scan of the whole replica pool — so a 10M-request sweep over 1k+
//! replicas stays cheap per arrival. Per-tenant and per-region rollups
//! stream into fixed-size [`TenantRollup`]/[`RegionRollup`] accumulators,
//! preserving the O(1)-memory contract of
//! [`crate::ServingOutcome::summary`].

use bpvec_sim::{DramSpec, Evaluator};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cluster::Router;
use crate::scheduler::BatchPolicy;
use crate::sim::{RunOptions, ServiceModel, ServingOutcome, ServingRun, Topology};
use crate::streaming::{QuantileSketch, RegionRollup, TenantRollup};
use crate::TrafficSpec;

/// One region of the fleet: a label plus its cluster grid and an optional
/// cap on requests simultaneously in the region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Display label (`us-east`, …).
    pub label: String,
    /// Clusters hosted in this region.
    pub clusters: u32,
    /// Replicas per cluster.
    pub replicas_per_cluster: u32,
    /// Max requests simultaneously in the region (queued + in flight);
    /// beyond it arrivals spill or drop. `None` = unbounded.
    pub queue_cap: Option<u64>,
}

impl RegionSpec {
    /// A region of `clusters` × `replicas_per_cluster` replicas.
    #[must_use]
    pub fn new(label: impl Into<String>, clusters: u32, replicas_per_cluster: u32) -> Self {
        RegionSpec {
            label: label.into(),
            clusters,
            replicas_per_cluster,
            queue_cap: None,
        }
    }

    /// Caps requests simultaneously in the region.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: u64) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Replicas hosted by this region.
    #[must_use]
    pub fn replicas(&self) -> u64 {
        u64::from(self.clusters) * u64::from(self.replicas_per_cluster)
    }
}

/// One tenant class: sampling weight, home region, and its serving
/// contract (SLA + admission quota).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantClass {
    /// Display label (`premium`, …).
    pub label: String,
    /// Relative share of arrivals this tenant generates.
    pub weight: f64,
    /// Region index arrivals of this tenant land in first.
    pub home_region: usize,
    /// Per-tenant latency SLA, counted exactly in the tenant rollup.
    pub sla_s: Option<f64>,
    /// Admission quota: max requests this tenant may have in the system
    /// at once; arrivals beyond it are dropped. `None` = unbounded.
    pub max_in_flight: Option<u64>,
}

impl TenantClass {
    /// A tenant with the given sampling weight, homed at region 0.
    #[must_use]
    pub fn new(label: impl Into<String>, weight: f64) -> Self {
        TenantClass {
            label: label.into(),
            weight,
            home_region: 0,
            sla_s: None,
            max_in_flight: None,
        }
    }

    /// Homes the tenant's arrivals at `region`.
    #[must_use]
    pub fn home(mut self, region: usize) -> Self {
        self.home_region = region;
        self
    }

    /// Attaches a latency SLA.
    #[must_use]
    pub fn with_sla(mut self, sla_s: f64) -> Self {
        self.sla_s = Some(sla_s);
        self
    }

    /// Caps the tenant's simultaneous in-system requests.
    #[must_use]
    pub fn with_quota(mut self, max_in_flight: u64) -> Self {
        self.max_in_flight = Some(max_in_flight);
        self
    }
}

/// The full fleet: regions, tenants, intra-cluster routing, and the
/// inter-tier forwarding model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Regions, in replica-pool order.
    pub regions: Vec<RegionSpec>,
    /// Tenant classes arrivals are sampled from.
    pub tenants: Vec<TenantClass>,
    /// Router applied across the chosen cluster's replicas.
    /// [`Router::LeastDegraded`] falls back to join-shortest-queue (fleet
    /// runs are static-control, where the two are identical).
    pub router: Router,
    /// Whether an arrival whose home region is at its cap spills to the
    /// least-loaded region with capacity (otherwise it drops).
    pub spill: bool,
    /// Inter-tier forward latency added between admission and the replica
    /// queue (0 = requests land instantly, no transit events).
    pub forward_delay_s: f64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetSpec {
    /// An empty fleet; add regions and tenants builder-style.
    #[must_use]
    pub fn new() -> Self {
        FleetSpec {
            regions: Vec::new(),
            tenants: Vec::new(),
            router: Router::RoundRobin,
            spill: true,
            forward_delay_s: 0.0,
        }
    }

    /// Adds a region.
    #[must_use]
    pub fn region(mut self, region: RegionSpec) -> Self {
        self.regions.push(region);
        self
    }

    /// Adds a tenant class.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantClass) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Sets the intra-cluster router.
    #[must_use]
    pub fn with_router(mut self, router: Router) -> Self {
        self.router = router;
        self
    }

    /// Enables or disables cross-region spill.
    #[must_use]
    pub fn with_spill(mut self, spill: bool) -> Self {
        self.spill = spill;
        self
    }

    /// Sets the inter-tier forward delay.
    #[must_use]
    pub fn with_forward_delay(mut self, delay_s: f64) -> Self {
        self.forward_delay_s = delay_s;
        self
    }

    /// Total replicas across every region.
    #[must_use]
    pub fn total_replicas(&self) -> u64 {
        self.regions.iter().map(RegionSpec::replicas).sum()
    }
}

/// Checks a fleet spec for use with `traffic`, mirroring the scenario
/// validators' error style.
pub(crate) fn validate_fleet(fleet: &FleetSpec, traffic: &TrafficSpec) -> Result<(), String> {
    if fleet.regions.is_empty() {
        return Err("fleet: needs at least one region".into());
    }
    for r in &fleet.regions {
        if r.clusters == 0 || r.replicas_per_cluster == 0 {
            return Err(format!(
                "fleet: region `{}` needs clusters >= 1 and replicas_per_cluster >= 1",
                r.label
            ));
        }
        if r.queue_cap == Some(0) {
            return Err(format!(
                "fleet: region `{}` queue cap must be >= 1",
                r.label
            ));
        }
    }
    if fleet.total_replicas() > u64::from(u32::MAX) {
        return Err("fleet: replica pool exceeds u32".into());
    }
    if fleet.tenants.is_empty() {
        return Err("fleet: needs at least one tenant class".into());
    }
    for t in &fleet.tenants {
        if !(t.weight > 0.0 && t.weight.is_finite()) {
            return Err(format!(
                "fleet: tenant `{}` weight must be positive and finite",
                t.label
            ));
        }
        if t.home_region >= fleet.regions.len() {
            return Err(format!(
                "fleet: tenant `{}` home region {} out of range ({} regions)",
                t.label,
                t.home_region,
                fleet.regions.len()
            ));
        }
        if let Some(sla) = t.sla_s {
            if !(sla > 0.0 && sla.is_finite()) {
                return Err(format!("fleet: tenant `{}` SLA must be positive", t.label));
            }
        }
        if t.max_in_flight == Some(0) {
            return Err(format!("fleet: tenant `{}` quota must be >= 1", t.label));
        }
    }
    if !(fleet.forward_delay_s >= 0.0 && fleet.forward_delay_s.is_finite()) {
        return Err("fleet: forward delay must be finite and >= 0".into());
    }
    if traffic.process.is_closed() {
        return Err(format!(
            "fleet: traffic `{}` is closed-loop; fleet runs are open-loop only",
            traffic.label
        ));
    }
    Ok(())
}

/// Per-tenant live accumulators (counters + latency sketch).
#[derive(Debug)]
struct TenantAcc {
    outstanding: u64,
    arrived: u64,
    dropped: u64,
    completed: u64,
    sketch: QuantileSketch,
    sla_hits: u64,
}

/// Per-region live accumulators.
#[derive(Debug)]
struct RegionAcc {
    in_system: u64,
    arrived: u64,
    dropped: u64,
    completed: u64,
    sketch: QuantileSketch,
    busy_s: f64,
}

/// Runtime fleet state owned by the simulator: flattened topology maps,
/// O(regions + clusters) load counters, and streaming rollups.
#[derive(Debug)]
pub(crate) struct FleetState {
    spec: FleetSpec,
    /// Replica index → region index.
    region_of_shard: Vec<u32>,
    /// Replica index → global cluster index.
    cluster_of_shard: Vec<u32>,
    /// Global cluster index → replica index range `[start, end)`.
    cluster_range: Vec<(usize, usize)>,
    /// Region index → global cluster index range `[start, end)`.
    region_clusters: Vec<(usize, usize)>,
    /// Per-cluster round-robin cursors.
    rr_next: Vec<usize>,
    /// Per-cluster requests in system.
    cluster_in_system: Vec<u64>,
    tenant_weight_total: f64,
    tenants: Vec<TenantAcc>,
    regions: Vec<RegionAcc>,
}

impl FleetState {
    pub(crate) fn new(spec: &FleetSpec) -> Self {
        let mut region_of_shard = Vec::new();
        let mut cluster_of_shard = Vec::new();
        let mut cluster_range = Vec::new();
        let mut region_clusters = Vec::new();
        let mut shard = 0usize;
        for (ri, region) in spec.regions.iter().enumerate() {
            let first_cluster = cluster_range.len();
            for _ in 0..region.clusters {
                let start = shard;
                for _ in 0..region.replicas_per_cluster {
                    region_of_shard.push(ri as u32);
                    cluster_of_shard.push(cluster_range.len() as u32);
                    shard += 1;
                }
                cluster_range.push((start, shard));
            }
            region_clusters.push((first_cluster, cluster_range.len()));
        }
        let clusters = cluster_range.len();
        FleetState {
            region_of_shard,
            cluster_of_shard,
            cluster_range,
            region_clusters,
            rr_next: vec![0; clusters],
            cluster_in_system: vec![0; clusters],
            tenant_weight_total: spec.tenants.iter().map(|t| t.weight).sum(),
            tenants: spec
                .tenants
                .iter()
                .map(|_| TenantAcc {
                    outstanding: 0,
                    arrived: 0,
                    dropped: 0,
                    completed: 0,
                    sketch: QuantileSketch::new(),
                    sla_hits: 0,
                })
                .collect(),
            regions: spec
                .regions
                .iter()
                .map(|_| RegionAcc {
                    in_system: 0,
                    arrived: 0,
                    dropped: 0,
                    completed: 0,
                    sketch: QuantileSketch::new(),
                    busy_s: 0.0,
                })
                .collect(),
            spec: spec.clone(),
        }
    }

    pub(crate) fn forward_delay_s(&self) -> f64 {
        self.spec.forward_delay_s
    }

    /// Samples a tenant index proportionally to the class weights.
    pub(crate) fn sample_tenant(&self, rng: &mut StdRng) -> usize {
        if self.spec.tenants.len() <= 1 {
            return 0;
        }
        let mut u = rng.gen_range(0.0..self.tenant_weight_total);
        for (i, t) in self.spec.tenants.iter().enumerate() {
            if u < t.weight {
                return i;
            }
            u -= t.weight;
        }
        self.spec.tenants.len() - 1
    }

    fn region_has_capacity(&self, region: usize) -> bool {
        self.spec.regions[region]
            .queue_cap
            .is_none_or(|cap| self.regions[region].in_system < cap)
    }

    /// Admission decision for one arrival of `tenant`: `Some(region)` when
    /// admitted (tenant quota honored, home-first placement with optional
    /// spill), `None` when the request is shed.
    pub(crate) fn admit(&mut self, tenant: usize) -> Option<usize> {
        self.tenants[tenant].arrived += 1;
        let home = self.spec.tenants[tenant].home_region;
        let over_quota = self.spec.tenants[tenant]
            .max_in_flight
            .is_some_and(|q| self.tenants[tenant].outstanding >= q);
        let region = if over_quota {
            None
        } else if self.region_has_capacity(home) {
            Some(home)
        } else if self.spec.spill {
            // Least-loaded region with headroom, ties to the lowest index.
            (0..self.regions.len())
                .filter(|&r| self.region_has_capacity(r))
                .min_by_key(|&r| (self.regions[r].in_system, r))
        } else {
            None
        };
        match region {
            Some(r) => {
                self.tenants[tenant].outstanding += 1;
                self.regions[r].in_system += 1;
                self.regions[r].arrived += 1;
                Some(r)
            }
            None => {
                self.tenants[tenant].dropped += 1;
                self.regions[home].dropped += 1;
                None
            }
        }
    }

    /// Picks the replica inside `region` for a request of `class`:
    /// least-loaded cluster first, then the fleet router across that
    /// cluster's replicas (`depth` reads a replica's current depth).
    pub(crate) fn pick_replica(
        &mut self,
        region: usize,
        class: usize,
        depth: impl Fn(usize) -> u64,
    ) -> usize {
        let (c0, c1) = self.region_clusters[region];
        let cluster = (c0..c1)
            .min_by_key(|&c| (self.cluster_in_system[c], c))
            .expect("regions have at least one cluster");
        self.cluster_in_system[cluster] += 1;
        let (s0, s1) = self.cluster_range[cluster];
        let n = s1 - s0;
        match self.spec.router {
            Router::RoundRobin => {
                let s = s0 + self.rr_next[cluster];
                self.rr_next[cluster] = (self.rr_next[cluster] + 1) % n;
                s
            }
            Router::NetworkAffinity => s0 + class % n,
            Router::JoinShortestQueue | Router::LeastDegraded => (s0..s1)
                .min_by_key(|&s| (depth(s), s))
                .expect("clusters have at least one replica"),
        }
    }

    /// Accrues one dispatched batch's service time to the replica's region.
    pub(crate) fn note_busy(&mut self, shard: usize, svc_s: f64) {
        self.regions[self.region_of_shard[shard] as usize].busy_s += svc_s;
    }

    /// Books one completion: releases the load counters and streams the
    /// sojourn into the tenant/region rollups (post-warmup only).
    pub(crate) fn on_complete(
        &mut self,
        shard: usize,
        tenant: usize,
        sojourn_s: f64,
        measured: bool,
    ) {
        let region = self.region_of_shard[shard] as usize;
        let cluster = self.cluster_of_shard[shard] as usize;
        self.cluster_in_system[cluster] -= 1;
        let t = &mut self.tenants[tenant];
        t.outstanding -= 1;
        t.completed += 1;
        let r = &mut self.regions[region];
        r.in_system -= 1;
        r.completed += 1;
        if measured {
            t.sketch.observe(sojourn_s);
            if self.spec.tenants[tenant]
                .sla_s
                .is_none_or(|sla| sojourn_s <= sla)
            {
                t.sla_hits += 1;
            }
            r.sketch.observe(sojourn_s);
        }
    }

    /// Freezes the live accumulators into reportable rollups.
    pub(crate) fn finish(self) -> (Vec<TenantRollup>, Vec<RegionRollup>) {
        let tenants = self
            .spec
            .tenants
            .iter()
            .zip(&self.tenants)
            .map(|(spec, acc)| TenantRollup {
                label: spec.label.clone(),
                arrived: acc.arrived,
                dropped: acc.dropped,
                completed: acc.completed,
                measured: acc.sketch.count(),
                mean_s: acc.sketch.mean(),
                p99_s: acc.sketch.quantile(0.99),
                max_s: acc.sketch.max(),
                sla_s: spec.sla_s,
                sla_hits: acc.sla_hits,
            })
            .collect();
        let regions = self
            .spec
            .regions
            .iter()
            .zip(&self.regions)
            .map(|(spec, acc)| RegionRollup {
                label: spec.label.clone(),
                replicas: spec.clusters * spec.replicas_per_cluster,
                arrived: acc.arrived,
                dropped: acc.dropped,
                completed: acc.completed,
                measured: acc.sketch.count(),
                mean_s: acc.sketch.mean(),
                p99_s: acc.sketch.quantile(0.99),
                busy_s: acc.busy_s,
            })
            .collect();
        (tenants, regions)
    }
}

/// [`ServingRun::try_run`] on a [`Topology::Fleet`] with static control
/// and no trace sink, panicking on a malformed configuration.
///
/// Only the `fleet-serve` workload of the `perfbench` benchmark still
/// calls this; the benchmark's sources change only together with the
/// benchmark, and new code calls [`ServingRun::try_run`].
///
/// # Panics
///
/// On every configuration [`ServingRun::try_run`] rejects.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_fleet(
    backend: &dyn Evaluator,
    memory: &DramSpec,
    policy: BatchPolicy,
    fleet: &FleetSpec,
    traffic: &TrafficSpec,
    service: ServiceModel,
    seed: u64,
    options: RunOptions,
) -> ServingOutcome {
    let run = ServingRun {
        backend,
        memory: *memory,
        policy,
        topology: Topology::Fleet(fleet),
        traffic,
        control: None,
        service,
        seed,
    };
    run.try_run(options, None)
        .unwrap_or_else(|e| panic!("run_fleet: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> FleetSpec {
        FleetSpec::new()
            .region(RegionSpec::new("east", 2, 2).with_queue_cap(4))
            .region(RegionSpec::new("west", 1, 2))
            .tenant(TenantClass::new("gold", 3.0).home(0).with_sla(0.01))
            .tenant(TenantClass::new("free", 1.0).home(1).with_quota(2))
    }

    #[test]
    fn topology_flattens_in_declaration_order() {
        let s = spec();
        assert_eq!(s.total_replicas(), 6);
        let st = FleetState::new(&s);
        assert_eq!(st.region_of_shard, vec![0, 0, 0, 0, 1, 1]);
        assert_eq!(st.cluster_of_shard, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(st.cluster_range, vec![(0, 2), (2, 4), (4, 6)]);
        assert_eq!(st.region_clusters, vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn quota_sheds_and_releases() {
        let mut st = FleetState::new(&spec());
        // Tenant 1 ("free") has quota 2: third concurrent arrival drops.
        assert_eq!(st.admit(1), Some(1));
        assert_eq!(st.admit(1), Some(1));
        assert_eq!(st.admit(1), None);
        assert_eq!(st.tenants[1].dropped, 1);
        // A completion frees the slot (replica 4 lives in region 1).
        st.cluster_in_system[2] += 1; // pick_replica normally does this
        st.on_complete(4, 1, 0.001, true);
        assert_eq!(st.admit(1), Some(1));
    }

    #[test]
    fn capped_home_region_spills_to_least_loaded() {
        let mut st = FleetState::new(&spec());
        // Fill region 0 (cap 4) with tenant-0 arrivals.
        for _ in 0..4 {
            assert_eq!(st.admit(0), Some(0));
        }
        // Next gold arrival spills west.
        assert_eq!(st.admit(0), Some(1));
        assert_eq!(st.regions[1].arrived, 1);
        // With spill off, the same state drops instead.
        let mut no_spill = FleetState::new(&spec().with_spill(false));
        for _ in 0..4 {
            assert_eq!(no_spill.admit(0), Some(0));
        }
        assert_eq!(no_spill.admit(0), None);
        assert_eq!(no_spill.regions[0].dropped, 1);
    }

    #[test]
    fn pick_replica_balances_clusters_then_routes() {
        let mut st = FleetState::new(&spec().with_router(Router::RoundRobin));
        // Region 0 has clusters 0 and 1; successive picks alternate them.
        let a = st.pick_replica(0, 0, |_| 0);
        let b = st.pick_replica(0, 0, |_| 0);
        assert_eq!(st.cluster_of_shard[a], 0, "first pick fills cluster 0");
        assert_eq!(
            st.cluster_of_shard[b], 1,
            "second pick balances to cluster 1"
        );
    }

    #[test]
    fn tenant_sampling_follows_weights() {
        let st = FleetState::new(&spec());
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let gold = (0..n).filter(|_| st.sample_tenant(&mut rng) == 0).count();
        let frac = gold as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "{frac}");
    }

    #[test]
    fn validation_rejects_malformed_fleets() {
        let t = TrafficSpec::new(
            "t",
            crate::ArrivalProcess::poisson(10.0),
            crate::RequestMix::single(bpvec_sim::Workload::new(
                bpvec_dnn::NetworkId::Rnn,
                bpvec_dnn::BitwidthPolicy::Homogeneous8,
            )),
            10,
        );
        assert!(validate_fleet(&FleetSpec::new(), &t).is_err(), "no regions");
        let no_tenant = FleetSpec::new().region(RegionSpec::new("r", 1, 1));
        assert!(validate_fleet(&no_tenant, &t).is_err(), "no tenants");
        let bad_home = no_tenant.clone().tenant(TenantClass::new("a", 1.0).home(7));
        assert!(validate_fleet(&bad_home, &t).is_err(), "home out of range");
        let ok = no_tenant.tenant(TenantClass::new("a", 1.0));
        assert!(validate_fleet(&ok, &t).is_ok());
        let closed = TrafficSpec::new(
            "c",
            crate::ArrivalProcess::closed_loop(2, 0.0),
            t.mix.clone(),
            10,
        );
        assert!(
            validate_fleet(&ok, &closed).is_err(),
            "closed-loop rejected"
        );
    }
}
