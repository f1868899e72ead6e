//! `step-bolund`: fractional steps on the ~12k-element Bolund terrain —
//! SSP-RK3 (three RHS assemblies per step, the paper's convention), RSPR,
//! no-slip ground, default CG tolerance and parallel colored assembly at
//! the worker cap.
//!
//! The traced run replays each step's phases from outside on the state
//! the step started from, through the same public functions the step
//! calls, and checks the replay lands on the step's velocity and pressure
//! bit for bit. `step.other_ms` is the step's wall time minus the phases.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use alya_core::{assemble_parallel, AssemblyInput, Variant};
use alya_fem::bc::DirichletBc;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::{TerrainMeshBuilder, TetMesh};
use alya_solver::cg::{solve_cg_with, CgScratch, LinOp};
use alya_solver::poisson::{self, ProjectionOp};
use alya_solver::{CaseParts, FractionalStep, StepConfig, TimeScheme};

use crate::fields::{self, Perturbation};
use crate::layers::Layers;
use crate::{host, ms_since, Measured, Opts, Workload};

const TARGET_ELEMS: usize = 12_000;
const VARIANT: Variant = Variant::Rspr;
/// Steps every run measures, however short its window.
const MIN_STEPS: u64 = 3;

pub struct Step {
    mesh: Arc<TetMesh>,
    parts: CaseParts,
    config: StepConfig,
    bc: DirichletBc,
    solver: FractionalStep<'static>,
}

impl Step {
    /// Builds the mesh, the solver parts and a solver at `t = 0`.
    pub fn setup(seed: u64) -> Self {
        alya_machine::par::set_thread_cap(Some(crate::workers()));
        let mesh = Arc::new(TerrainMeshBuilder::with_approx_elements(TARGET_ELEMS).build());
        let parts = CaseParts::build(&mesh);
        let config = StepConfig {
            dt: 5e-4,
            scheme: TimeScheme::SspRk3,
            props: fields::PROPS,
            body_force: fields::BODY_FORCE,
            parallel: true,
            ..StepConfig::default()
        };
        // No-slip on the ground layer, which follows the cliff's hill.
        let mut bc = DirichletBc::new();
        bc.fix_where(
            &mesh,
            |p| p[2] < 0.02 + 0.2 * (-((p[0] - 1.0).powi(2) + (p[1] - 1.0).powi(2)) / 0.125).exp(),
            |_| [0.0; 3],
        );
        let pert = Perturbation::new(seed);
        let init = VectorField::from_fn(&mesh, |p| {
            let u = 0.2 * fields::log_law(p[2]);
            pert.apply(u, [u, 0.0, 0.0], p)
        });
        let mut solver =
            FractionalStep::from_shared_parts(Arc::clone(&mesh), config.clone(), parts.clone());
        solver.set_bc(bc.clone());
        solver.reset(&init);
        Self {
            mesh,
            parts,
            config,
            bc,
            solver,
        }
    }
}

impl Workload for Step {
    fn mesh(&self) -> &TetMesh {
        &self.mesh
    }

    fn run(&mut self, opts: Opts, mut trace: Option<&mut Layers>) -> Measured {
        let mut m = Measured::default();
        alya_machine::par::set_thread_cap(Some(crate::workers()));
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < opts.seconds || m.steps < MIN_STEPS {
            let before = trace.is_some().then(|| {
                (
                    self.solver.velocity().clone(),
                    self.solver.pressure().clone(),
                )
            });
            let t = Instant::now();
            let stats = self.solver.step(VARIANT);
            let step_ms = ms_since(t);
            m.step_ms.push(step_ms);
            m.steps += 1;
            let n = m.steps;
            m.check(stats.cg.converged, || {
                format!("step {n}: CG did not converge: {:?}", stats.cg)
            });
            let finite = self
                .solver
                .velocity()
                .as_slice()
                .iter()
                .all(|v| v.is_finite())
                && self
                    .solver
                    .pressure()
                    .as_slice()
                    .iter()
                    .all(|v| v.is_finite());
            m.check(finite, || {
                format!("step {n}: non-finite velocity or pressure")
            });
            m.check(stats.divergence_after < stats.divergence_before, || {
                format!(
                    "step {n}: divergence {} after projection, {} before",
                    stats.divergence_after, stats.divergence_before
                )
            });
            if let (Some(layers), Some((u0, p0))) = (trace.as_deref_mut(), before) {
                let phases = self.replay(&u0, &p0);
                let same = phases.velocity.as_slice() == self.solver.velocity().as_slice()
                    && phases.pressure.as_slice() == self.solver.pressure().as_slice();
                m.check(same, || {
                    format!("step {n}: the phase replay does not reproduce the step")
                });
                phases.record(layers, step_ms, stats.cg.iterations);
            }
        }
        m.wall_s = t0.elapsed().as_secs_f64();
        m
    }

    fn context(&self) -> Vec<String> {
        let (ne, nn) = (self.mesh.num_elements(), self.mesh.num_nodes());
        vec![
            host::working_set(
                "bolund-12k",
                ne,
                nn,
                fields::assembly_bytes(ne, nn) + fields::solver_bytes(nn),
            ),
            format!(
                "step SSP-RK3 RSPR dt {} no-slip ground ({} constraints) cg_tol {} \
                 parallel assembly through {} at {} workers",
                self.config.dt,
                self.bc.len(),
                self.config.cg_tol,
                self.parts.strategy.name(),
                crate::workers()
            ),
        ]
    }
}

/// A projection operator that times and counts its applies.
struct TimedOp<'a> {
    inner: ProjectionOp<'a>,
    applies: Cell<u64>,
    ns: Cell<u128>,
}

impl LinOp for TimedOp<'_> {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(x, y);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos());
        self.applies.set(self.applies.get() + 1);
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn precond_diagonal(&self) -> Vec<f64> {
        self.inner.precond_diagonal()
    }

    fn precond_diagonal_into(&self, out: &mut [f64]) {
        self.inner.precond_diagonal_into(out);
    }

    fn apply_flops(&self) -> u64 {
        self.inner.apply_flops()
    }
}

/// One replayed step: the state it reached and each phase's time.
struct Phases {
    velocity: VectorField,
    pressure: ScalarField,
    momentum_ms: f64,
    divergence_ms: f64,
    projection_ms: f64,
    correction_ms: f64,
    applies: u64,
    apply_ms: f64,
    apply_flops: u64,
}

impl Phases {
    fn record(&self, layers: &mut Layers, step_ms: f64, cg_iters: usize) {
        let phases =
            self.momentum_ms + self.divergence_ms + self.projection_ms + self.correction_ms;
        layers.add("step.wall_ms", "ms", step_ms);
        layers.add("step.momentum_ms", "ms", self.momentum_ms);
        layers.add("step.divergence_ms", "ms", self.divergence_ms);
        layers.add("step.projection_ms", "ms", self.projection_ms);
        layers.add("step.correction_ms", "ms", self.correction_ms);
        layers.add("step.other_ms", "ms", step_ms - phases);
        layers.add("cg.iters_per_step", "count", cg_iters as f64);
        layers.add(
            "cg.apply_ms",
            "ms",
            self.apply_ms / self.applies.max(1) as f64,
        );
        layers.add(
            "cg.flops_per_step",
            "flop",
            (self.applies * self.apply_flops) as f64,
        );
    }
}

impl Step {
    /// Replays one step from `(u0, p0)` with the statement order of
    /// `FractionalStep::step`, timing each phase.
    fn replay(&self, u0: &VectorField, p0: &ScalarField) -> Phases {
        let mesh: &TetMesh = &self.mesh;
        let cfg = &self.config;
        let mass = self.parts.mass.as_slice();
        let rho = cfg.props.density;
        let temperature = ScalarField::zeros(mesh.num_nodes());

        let t = Instant::now();
        let stage = |state: &VectorField, dt: f64| -> VectorField {
            let input = AssemblyInput::new(mesh, state, p0, &temperature)
                .props(cfg.props)
                .body_force(cfg.body_force)
                .vreman_c(cfg.vreman_c);
            let rhs = assemble_parallel(VARIANT, &input, &self.parts.strategy);
            let mut out = state.clone();
            for (node, &mass) in mass.iter().enumerate() {
                let m = (mass * rho).max(1e-300);
                let r = rhs.get(node);
                let mut v = out.get(node);
                for d in 0..3 {
                    v[d] += dt * r[d] / m;
                }
                out.set(node, v);
            }
            self.bc.apply_to_field(&mut out);
            out
        };
        let u1 = stage(u0, cfg.dt);
        let mut u2 = stage(&u1, cfg.dt);
        for (w, a) in u2.as_mut_slice().iter_mut().zip(u0.as_slice()) {
            *w = 0.75 * a + 0.25 * *w;
        }
        self.bc.apply_to_field(&mut u2);
        let mut u_star = stage(&u2, cfg.dt);
        for (w, a) in u_star.as_mut_slice().iter_mut().zip(u0.as_slice()) {
            *w = *a / 3.0 + 2.0 / 3.0 * *w;
        }
        self.bc.apply_to_field(&mut u_star);
        let momentum_ms = ms_since(t);

        let t = Instant::now();
        std::hint::black_box(poisson::weak_divergence(mesh, &u_star).norm());
        let mut b = poisson::weak_divergence(mesh, &u_star);
        for v in b.as_mut_slice() {
            *v *= rho / cfg.dt;
        }
        let divergence_ms = ms_since(t);

        let t = Instant::now();
        let op = TimedOp {
            inner: ProjectionOp {
                mesh,
                mass,
                diag: Cow::Borrowed(self.parts.proj_diag.as_slice()),
            },
            applies: Cell::new(0),
            ns: Cell::new(0),
        };
        let mut x = p0.as_slice().to_vec();
        solve_cg_with(
            &op,
            b.as_slice(),
            &mut x,
            cfg.cg_tol,
            cfg.cg_max_iters,
            &mut CgScratch::new(),
        );
        let projection_ms = ms_since(t);

        let t = Instant::now();
        let grad_p = poisson::weak_gradient_adjoint(mesh, &x);
        for (node, &mass) in mass.iter().enumerate() {
            let g = grad_p.get(node);
            let m = mass.max(1e-300);
            let mut v = u_star.get(node);
            for d in 0..3 {
                v[d] -= cfg.dt / rho * g[d] / m;
            }
            u_star.set(node, v);
        }
        self.bc.apply_to_field(&mut u_star);
        let correction_ms = ms_since(t);

        Phases {
            velocity: u_star,
            pressure: ScalarField::from_values(x),
            momentum_ms,
            divergence_ms,
            projection_ms,
            correction_ms,
            applies: op.applies.get(),
            apply_ms: op.ns.get() as f64 * 1e-6,
            apply_flops: op.inner.apply_flops(),
        }
    }
}
