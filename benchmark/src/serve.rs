//! `serve-steps`: a closed loop of four equal-weight tenants keeping a
//! warmed `alya-serve` pool busy with short Forward-Euler RSP sessions on
//! the ~1.5k-element Bolund serve case.
//!
//! The loop admits sessions (tenants in a seeded order each round) until
//! the pool or every quota refuses, runs one scheduler round, and repeats;
//! once the measured window closes it stops admitting and drains. A step
//! is one work item, timed by the service's own latency reservoir.

use std::sync::Arc;
use std::time::Instant;

use alya_core::Variant;
use alya_mesh::{Rng64, TerrainMeshBuilder, TetMesh};
use alya_serve::{PoolConfig, Service, ServiceConfig, SessionSpec, SharedCase};
use alya_solver::{FractionalStep, StepConfig};

use crate::fields::{self, Perturbation};
use crate::layers::Layers;
use crate::stats::multiset_difference;
use crate::{host, ms_since, Measured, Opts, Workload};

/// The `BENCH_serve` case size.
const TARGET_ELEMS: usize = 2_000;
const TENANTS: usize = 4;
/// Concurrent sessions per tenant; the pool holds all of them.
const QUOTA: u32 = 2;
const STEPS_PER_SESSION: u32 = 4;
/// FNV-1a offset basis, the seed `alya-serve` digests a session with.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub struct Serve {
    case: Arc<SharedCase>,
    service: Service,
    spec: SessionSpec,
    tenants: Vec<u32>,
    rng: Rng64,
    /// Digest a fresh solver gives the case: every session must match.
    reference_digest: u64,
    /// Latency reservoir, outcomes and pool counters after the warm-up.
    warm_latencies: Vec<u64>,
    warm_outcomes: usize,
    warm_cold_builds: u64,
    warm_binds: u64,
}

fn digest(solver: &FractionalStep<'_>) -> u64 {
    let h = alya_serve::digest_bits(FNV_OFFSET, solver.velocity().as_slice());
    alya_serve::digest_bits(h, solver.pressure().as_slice())
}

impl Serve {
    /// Builds the case, the reference digest and the warmed pool.
    pub fn setup(seed: u64) -> Self {
        alya_machine::par::set_thread_cap(Some(crate::workers()));
        let mesh = TerrainMeshBuilder::with_approx_elements(TARGET_ELEMS).build();
        let cfg = StepConfig {
            dt: 5e-4,
            props: fields::PROPS,
            body_force: fields::BODY_FORCE,
            ..StepConfig::default()
        };
        let pert = Perturbation::new(seed);
        let case = Arc::new(SharedCase::new(
            "bolund-serve",
            mesh,
            cfg,
            Variant::Rsp,
            |p| pert.apply(0.25, [0.1 + 0.3 * p[2], 0.0, 0.0], p),
        ));

        let mut fresh = FractionalStep::from_shared_parts(
            Arc::clone(&case.mesh),
            case.config.clone(),
            case.parts.clone(),
        );
        fresh.set_bc((*case.bc).clone());
        fresh.reset(&case.init_velocity);
        fresh.run(case.variant, STEPS_PER_SESSION as usize);
        let reference_digest = digest(&fresh);

        let capacity = TENANTS * QUOTA as usize;
        let service = Service::new(ServiceConfig {
            pool: PoolConfig {
                capacity,
                stripes: capacity,
                leak_slot_state_for_audit: false,
            },
            latency_window: 1 << 18,
            ..ServiceConfig::default()
        });
        let tenants: Vec<u32> = (0..TENANTS)
            .map(|i| service.add_tenant(&format!("tenant-{i}"), 1, QUOTA))
            .collect();
        let spec = SessionSpec::new(Arc::clone(&case), STEPS_PER_SESSION);
        // Warm-up: every slot builds once, so the measured loop only reuses.
        for &t in tenants.iter().cycle().take(capacity) {
            service
                .admit(t, &spec)
                .expect("the warm-up fits the pool and the quotas");
        }
        service.run_to_idle();
        let warm = service.report();
        Self {
            warm_latencies: warm.step_ns_sorted,
            warm_outcomes: warm.outcomes.len(),
            warm_cold_builds: warm.cold_builds,
            warm_binds: warm.warm_binds,
            case,
            service,
            spec,
            tenants,
            rng: Rng64::new(seed),
            reference_digest,
        }
    }
}

impl Workload for Serve {
    fn mesh(&self) -> &TetMesh {
        &self.case.mesh
    }

    fn run(&mut self, opts: Opts, mut trace: Option<&mut Layers>) -> Measured {
        let mut m = Measured::default();
        let workers = crate::workers();
        alya_machine::par::set_thread_cap(Some(workers));
        let mut order = self.tenants.clone();
        let (mut admitted, mut refusals, mut items) = (0u64, 0u64, 0u64);
        let mut round_ns = 0u128;
        let t0 = Instant::now();
        loop {
            if t0.elapsed().as_secs_f64() < opts.seconds {
                // Fisher–Yates with the seeded generator: the admission
                // order across tenants is the seed's.
                for i in (1..order.len()).rev() {
                    order.swap(i, self.rng.range_usize(0, i + 1));
                }
                for &t in &order {
                    loop {
                        match self.service.admit(t, &self.spec) {
                            Ok(_) => admitted += 1,
                            Err(_) => {
                                refusals += 1;
                                break;
                            }
                        }
                    }
                }
            }
            let t = Instant::now();
            let n = self.service.run_round();
            if n == 0 {
                break;
            }
            round_ns += t.elapsed().as_nanos();
            items += n as u64;
            if let Some(layers) = trace.as_deref_mut() {
                layers.add("serve.round_ms", "ms", ms_since(t));
                layers.add("serve.items_per_round", "count", n as f64);
            }
        }
        m.wall_s = t0.elapsed().as_secs_f64();
        m.steps = items;

        let report = self.service.report();
        let latencies = multiset_difference(&report.step_ns_sorted, &self.warm_latencies);
        m.check(latencies.len() as u64 == items, || {
            format!(
                "latency reservoir holds {} measured items, the loop ran {items}",
                latencies.len()
            )
        });
        m.step_ms = latencies.iter().map(|&ns| ns as f64 * 1e-6).collect();

        let retired = &report.outcomes[self.warm_outcomes.min(report.outcomes.len())..];
        let want = self.reference_digest;
        m.check(retired.len() as u64 == admitted, || {
            format!("{admitted} sessions admitted, {} retired", retired.len())
        });
        for o in retired {
            m.check(o.digest == want, || {
                format!(
                    "session in slot {} gen {} digest {:016x} != fresh solver {want:016x}",
                    o.slot, o.generation, o.digest
                )
            });
        }
        let contract = alya_analyze::serve::check_report(&report);
        m.check(contract.is_clean(), || {
            format!("serve contract: {contract}")
        });
        let cold_steady = report.cold_builds - self.warm_cold_builds;
        m.check(cold_steady == 0, || {
            format!("{cold_steady} cold builds in the measured phase")
        });
        m.named.push((
            "sessions_per_s",
            "1/s",
            vec![retired.len() as f64 / m.wall_s],
        ));

        if let Some(layers) = trace {
            let item_ns: u64 = latencies.iter().sum();
            layers.add(
                "serve.busy_frac",
                "ratio",
                item_ns as f64 / (round_ns as f64 * workers as f64),
            );
            layers.add(
                "serve.admit_refusals_per_session",
                "ratio",
                refusals as f64 / admitted.max(1) as f64,
            );
            layers.add(
                "serve.warm_binds",
                "count",
                (report.warm_binds - self.warm_binds) as f64,
            );
            layers.add("serve.cold_builds_steady", "count", cold_steady as f64);
            layers.add("serve.fairness_spread", "ratio", report.fairness_spread());
        }
        self.warm_latencies = report.step_ns_sorted;
        self.warm_outcomes = report.outcomes.len();
        self.warm_cold_builds = report.cold_builds;
        self.warm_binds = report.warm_binds;
        m
    }

    fn context(&self) -> Vec<String> {
        let (ne, nn) = (self.case.mesh.num_elements(), self.case.mesh.num_nodes());
        let sessions = TENANTS * QUOTA as usize;
        vec![
            host::working_set(
                "bolund-serve",
                ne,
                nn,
                fields::assembly_bytes(ne, nn) + sessions * fields::solver_bytes(nn),
            ),
            format!(
                "serve {TENANTS} tenants x quota {QUOTA} = pool {sessions}, \
                 {STEPS_PER_SESSION} Forward-Euler RSP steps per session, serial assembly, \
                 {} workers",
                crate::workers()
            ),
        ]
    }
}
