//! `assemble-bolund`: the paper's kernel alone — momentum-RHS assembly
//! (RSPR) on the ~98k-element terrain. One step is one RHS on each of
//! three paths: `ParallelStrategy::auto` at the worker cap, the same at
//! one worker, and `DistributedDriver` at the rank cap with overlap on.
//! Every RHS is checked against the serial one.
//!
//! The traced run adds the layers underneath: the serial kernels (scalar
//! and packed, one worker) and every parallel strategy at the worker cap.

use std::time::Instant;

use alya_bench::case::Case;
use alya_core::{
    assemble_parallel, assemble_serial, assemble_serial_with, DistributedDriver, ExecMode,
    ParallelStrategy, Variant,
};
use alya_fem::VectorField;
use alya_machine::par;
use alya_mesh::TetMesh;

use crate::fields::{self, Perturbation};
use crate::layers::Layers;
use crate::{host, ms_since, Measured, Opts, Workload};

/// The `BENCH_drivers` / `BENCH_comm` case size.
const TARGET_ELEMS: usize = 100_000;
const VARIANT: Variant = Variant::Rspr;
/// Largest relative difference any path's RHS may show against serial.
const TOLERANCE: f64 = 1e-12;

pub struct Assemble {
    /// The `BENCH_drivers` case with the seed's velocity perturbation.
    case: Case,
    auto_n: ParallelStrategy,
    auto_1: ParallelStrategy,
    ranks: DistributedDriver,
    reference: VectorField,
    /// The other strategies, built on the first traced run.
    strategies: Vec<ParallelStrategy>,
}

impl Assemble {
    fn rel_error(&self, rhs: &VectorField) -> f64 {
        rhs.max_abs_diff(&self.reference) / self.reference.max_abs()
    }

    fn melem_s(&self, ms: f64) -> f64 {
        self.case.mesh.num_elements() as f64 / (ms * 1e3)
    }

    /// Times one assembly and checks its RHS against serial; returns
    /// milliseconds.
    fn timed(&self, m: &mut Measured, name: &str, assemble: impl FnOnce() -> VectorField) -> f64 {
        let t = Instant::now();
        let rhs = assemble();
        let ms = ms_since(t);
        let err = self.rel_error(&rhs);
        m.check(err <= TOLERANCE, || {
            format!("{name}: relative RHS error {err:e} against serial")
        });
        ms
    }

    fn traced_layers(&mut self, m: &mut Measured, layers: &mut Layers) {
        let workers = crate::workers();
        if self.strategies.is_empty() {
            par::set_thread_cap(Some(workers));
            let mesh = &self.case.mesh;
            self.strategies = vec![
                ParallelStrategy::colored(mesh),
                ParallelStrategy::partitioned(mesh, workers),
                ParallelStrategy::sharded(mesh, workers),
            ];
        }
        let input = self.case.input();
        par::set_thread_cap(Some(1));
        for (variant, mode, name) in [
            (Variant::Rsp, ExecMode::Scalar, "kernels.rsp_melem_s"),
            (Variant::Rspr, ExecMode::Scalar, "kernels.rspr_melem_s"),
            (Variant::Rsp, ExecMode::Packed, "kernels.rsp_packed_melem_s"),
            (
                Variant::Rspr,
                ExecMode::Packed,
                "kernels.rspr_packed_melem_s",
            ),
        ] {
            let ms = self.timed(m, name, || assemble_serial_with(variant, &input, mode));
            layers.add(name, "Melem/s", self.melem_s(ms));
        }
        par::set_thread_cap(Some(workers));
        for s in &self.strategies {
            let name = format!("drivers.{}_melem_s", s.name());
            let ms = self.timed(m, &name, || assemble_parallel(VARIANT, &input, s));
            layers.add(&name, "Melem/s", self.melem_s(ms));
        }
    }

    /// Builds the case, the strategies `auto` picks, the distributed
    /// driver and the serial reference RHS.
    pub fn setup(seed: u64) -> Self {
        let workers = crate::workers();
        let mut case = Case::bolund(TARGET_ELEMS);
        let pert = Perturbation::new(seed);
        for (n, &p) in case.mesh.coords().iter().enumerate() {
            let u = pert.apply(fields::log_law(p[2]), case.velocity.get(n), p);
            case.velocity.set(n, u);
        }
        par::set_thread_cap(Some(1));
        let auto_1 = ParallelStrategy::auto(&case.mesh);
        par::set_thread_cap(Some(workers));
        let auto_n = ParallelStrategy::auto(&case.mesh);
        let ranks = DistributedDriver::new(&case.mesh, workers);
        let reference = assemble_serial(VARIANT, &case.input());
        Self {
            case,
            auto_n,
            auto_1,
            ranks,
            reference,
            strategies: Vec::new(),
        }
    }
}

impl Workload for Assemble {
    fn mesh(&self) -> &TetMesh {
        &self.case.mesh
    }

    fn run(&mut self, opts: Opts, mut trace: Option<&mut Layers>) -> Measured {
        let mut m = Measured::default();
        let workers = crate::workers();
        let expected_halo = self.ranks.expected_halo_bytes() as u64;
        let (mut auto_ms, mut serial_ms, mut ranks_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut blocked_ms = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < opts.seconds || m.steps == 0 {
            let input = self.case.input();
            let step = Instant::now();

            par::set_thread_cap(Some(workers));
            let auto = self.timed(&mut m, "auto", || {
                assemble_parallel(VARIANT, &input, &self.auto_n)
            });
            auto_ms.push(auto);
            par::set_thread_cap(Some(1));
            let serial = self.timed(&mut m, "auto at 1 worker", || {
                assemble_parallel(VARIANT, &input, &self.auto_1)
            });
            serial_ms.push(serial);
            par::set_thread_cap(Some(workers));
            let mut comm = None;
            let ms = self.timed(&mut m, "distributed", || {
                let (rhs, report) = self.ranks.assemble(VARIANT, &input);
                comm = Some(report);
                rhs
            });
            ranks_ms.push(ms);
            let comm = comm.expect("the distributed assembly ran");
            blocked_ms.push(comm.blocked_wait_s * 1e3);
            let halo = comm.total_bytes();
            m.check(halo == expected_halo, || {
                format!("distributed: {halo} halo bytes, closed form {expected_halo}")
            });

            m.step_ms.push(ms_since(step));
            m.steps += 1;
            if let Some(layers) = trace.as_deref_mut() {
                layers.add("distributed.assemble_ms", "ms", ms);
                layers.add("comm.halo_bytes", "B", halo as f64);
                layers.add("comm.messages", "count", comm.total_messages() as f64);
                layers.add("drivers.auto_melem_s", "Melem/s", self.melem_s(auto));
                layers.add(
                    "drivers.auto_1worker_melem_s",
                    "Melem/s",
                    self.melem_s(serial),
                );
                self.traced_layers(&mut m, layers);
            }
        }
        m.wall_s = t0.elapsed().as_secs_f64();
        let melem = |ms: &[f64]| -> Vec<f64> { ms.iter().map(|&t| self.melem_s(t)).collect() };
        m.named
            .push(("assembly_melem_s", "Melem/s", melem(&auto_ms)));
        m.named
            .push(("assembly_serial_melem_s", "Melem/s", melem(&serial_ms)));
        m.named
            .push(("assembly_ranks_melem_s", "Melem/s", melem(&ranks_ms)));
        m.named.push(("comm_blocked_wait_ms", "ms", blocked_ms));
        if let Some(layers) = trace {
            let contract = VARIANT.contract();
            layers.add("kernels.flops_per_elem", "flop", contract.flops as f64);
            layers.add(
                "kernels.bytes_per_elem",
                "B",
                (contract.global_ldst() * 8) as f64,
            );
            let auto = crate::stats::Summary::of(&melem(&auto_ms)).map(|s| s.median);
            let serial = layers.median("kernels.rspr_melem_s");
            if let (Some(auto), Some(serial)) = (auto, serial) {
                layers.add(
                    "drivers.parallel_eff",
                    "ratio",
                    auto / (workers as f64 * serial),
                );
            }
        }
        m
    }

    fn context(&self) -> Vec<String> {
        let (ne, nn) = (self.case.mesh.num_elements(), self.case.mesh.num_nodes());
        vec![
            host::working_set("bolund-terrain", ne, nn, fields::assembly_bytes(ne, nn)),
            format!(
                "assemble RSPR: ParallelStrategy::auto picked {} at {} workers and {} at 1 \
                 worker; DistributedDriver {} ranks, overlap {}, closed-form halo {} bytes",
                self.auto_n.name(),
                crate::workers(),
                self.auto_1.name(),
                self.ranks.num_ranks(),
                self.ranks.overlap_enabled(),
                self.ranks.expected_halo_bytes()
            ),
        ]
    }
}
