//! Scaffolding shared by the scalar kernel variants.
//!
//! The four scalar kernels repeat two kinds of code verbatim: the
//! array-style kernels (B, RS) share their gather prefix and their
//! scatter readback, and the scalar-private kernels (RSP, RSPR) share the
//! whole specialized prologue — gather into tracked privates, constant
//! geometry, velocity gradient, on-the-fly Vreman — plus the per-point
//! convection vector, the mean-pressure/effective-viscosity pair, and the
//! diffusion flux contraction. These helpers are those pieces, factored
//! once.
//!
//! They must be *bitwise* and *event-stream* neutral: every caller's
//! recorded trace is pinned by the contract checker (pass 1) and by the
//! bitwise equivalence suite, so a helper that reorders one load or one
//! `Def` fails both at once. Helpers take the caller's catalog offsets and its `PrivAlloc` so
//! the address and id sequences are exactly what the inlined code
//! produced.

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::{self, ScatterSink};
use crate::input::AssemblyInput;
use crate::kernels::{get3, PrivAlloc, Pv};
use crate::layout::{self, Layout};
use crate::ops;
use crate::workspace::Ws;

/// Gathers connectivity, coordinates, velocity and pressure into the
/// workspace arrays at the caller's catalog offsets — the common gather
/// prefix of the array-style kernels.
#[inline]
pub(crate) fn gather_nodal_into_ws<R: Recorder>(
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
    ws: &mut Ws,
    (elcod, elvel, elpre): (usize, usize, usize),
    rec: &mut R,
) -> [u32; 4] {
    let nodes = gather::gather_conn(input, e, lay, rec);
    let coords = gather::gather_coords(input, &nodes, lay, rec);
    for a in 0..4 {
        ws.st3(elcod + 3 * a, coords[a], lay, rec);
    }
    let vel = gather::gather_velocity(input, &nodes, lay, rec);
    for a in 0..4 {
        ws.st3(elvel + 3 * a, vel[a], lay, rec);
    }
    let pre = gather::gather_scalar(input.pressure, layout::PRES_BASE, &nodes, lay, rec);
    for a in 0..4 {
        ws.st(elpre + a, pre[a], lay, rec);
    }
    nodes
}

/// Reads the completed 12-entry elemental RHS back from the workspace and
/// scatters it — the common epilogue of the array-style kernels.
#[inline]
pub(crate) fn scatter_rhs_from_ws<R: Recorder, S: ScatterSink>(
    sink: &mut S,
    nodes: &[u32; 4],
    elrhs: usize,
    ws: &mut Ws,
    lay: &Layout,
    rec: &mut R,
) {
    let mut out = [[0.0; 3]; 4];
    for a in 0..4 {
        for d in 0..3 {
            out[a][d] = ws.ld(elrhs + 3 * a + d, lay, rec);
        }
    }
    gather::scatter_elemental(sink, nodes, &out, lay, rec);
}

/// Everything the scalar-private kernels compute before their accumulation
/// phases: the private state that outlives the prologue.
pub(crate) struct SpecPrologue {
    /// Gathered connectivity.
    pub nodes: [u32; 4],
    /// Gathered nodal velocities.
    pub vel: [[Pv; 3]; 4],
    /// Gathered nodal pressures.
    pub pre: [Pv; 4],
    /// Constant shape-function gradients.
    pub grads: [[Pv; 3]; 4],
    /// Element volume.
    pub vol: Pv,
    /// Constant velocity gradient tensor.
    pub gve: [[Pv; 3]; 3],
    /// Vreman turbulent viscosity, one value per element.
    pub nut: Pv,
}

/// The shared RSP/RSPR prologue: gather straight into tracked private
/// values, constant geometry (coordinates die inside), constant velocity
/// gradient, Vreman ν_t on the fly. Private ids 0..=50, in this exact
/// definition order — the register-pressure pins of both contracts depend
/// on it.
#[inline]
pub(crate) fn specialized_prologue<R: Recorder>(
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> SpecPrologue {
    // --- Gather straight into private values. ---
    let nodes = gather::gather_conn(input, e, lay, rec);
    let coords_raw = gather::gather_coords(input, &nodes, lay, rec);
    let coords: [[Pv; 3]; 4] = [
        pa.def3(coords_raw[0], rec),
        pa.def3(coords_raw[1], rec),
        pa.def3(coords_raw[2], rec),
        pa.def3(coords_raw[3], rec),
    ];
    let vel_raw = gather::gather_velocity(input, &nodes, lay, rec);
    let vel: [[Pv; 3]; 4] = [
        pa.def3(vel_raw[0], rec),
        pa.def3(vel_raw[1], rec),
        pa.def3(vel_raw[2], rec),
        pa.def3(vel_raw[3], rec),
    ];
    let pre_raw = gather::gather_scalar(input.pressure, layout::PRES_BASE, &nodes, lay, rec);
    let pre: [Pv; 4] = [
        pa.def(pre_raw[0], rec),
        pa.def(pre_raw[1], rec),
        pa.def(pre_raw[2], rec),
        pa.def(pre_raw[3], rec),
    ];

    // --- Geometry once; coordinates die here. ---
    let elcod = [
        get3(&coords[0], rec),
        get3(&coords[1], rec),
        get3(&coords[2], rec),
        get3(&coords[3], rec),
    ];
    let (grads_raw, vol_raw) = ops::tet4_grads(&elcod, rec);
    let grads: [[Pv; 3]; 4] = [
        pa.def3(grads_raw[0], rec),
        pa.def3(grads_raw[1], rec),
        pa.def3(grads_raw[2], rec),
        pa.def3(grads_raw[3], rec),
    ];
    let vol = pa.def(vol_raw, rec);

    // --- Constant velocity gradient. ---
    let mut gve_raw = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut gv = 0.0;
            for a in 0..4 {
                gv += grads[a][i].get(rec) * vel[a][j].get(rec);
            }
            rec.fma(4);
            gve_raw[i][j] = gv;
        }
    }
    let gve: [[Pv; 3]; 3] = [
        pa.def3(gve_raw[0], rec),
        pa.def3(gve_raw[1], rec),
        pa.def3(gve_raw[2], rec),
    ];

    // --- Vreman on the fly. ---
    let gve_for_nut = [get3(&gve[0], rec), get3(&gve[1], rec), get3(&gve[2], rec)];
    rec.flop(2);
    let delta = vol.get(rec).cbrt();
    let nut = pa.def(ops::vreman(&gve_for_nut, delta, input.vreman_c, rec), rec);

    SpecPrologue {
        nodes,
        vel,
        pre,
        grads,
        vol,
        gve,
        nut,
    }
}

/// One Gauss point's convection vector `ρ (u·∇)u` from private state:
/// transient advection vector (defined, then immediately consumed), then
/// the contraction against the velocity gradient.
#[inline]
pub(crate) fn gauss_convection<R: Recorder>(
    g: usize,
    vel: &[[Pv; 3]; 4],
    gve: &[[Pv; 3]; 3],
    rho: f64,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> [Pv; 3] {
    let mut adv_raw = [0.0; 3];
    for (d, adv_d) in adv_raw.iter_mut().enumerate() {
        let mut adv = 0.0;
        for a in 0..4 {
            adv += Tet4::SHAPE[g][a] * vel[a][d].get(rec);
        }
        rec.fma(4);
        *adv_d = adv;
    }
    let adv = pa.def3(adv_raw, rec);
    let mut con_raw = [0.0; 3];
    for (d, con_d) in con_raw.iter_mut().enumerate() {
        let mut con = 0.0;
        for i in 0..3 {
            con += adv[i].get(rec) * gve[i][d].get(rec);
        }
        rec.fma(3);
        rec.flop(1);
        *con_d = rho * con;
    }
    pa.def3(con_raw, rec)
}

/// The mean elemental pressure and the effective viscosity `μ + ρ ν_t`,
/// defined as two private values.
#[inline]
pub(crate) fn mean_pressure_and_mu_eff<R: Recorder>(
    pre: &[Pv; 4],
    nut: Pv,
    rho: f64,
    mu: f64,
    pa: &mut PrivAlloc,
    rec: &mut R,
) -> (Pv, Pv) {
    rec.flop(4);
    let pbar = pa.def(
        0.25 * (pre[0].get(rec) + pre[1].get(rec) + pre[2].get(rec) + pre[3].get(rec)),
        rec,
    );
    rec.flop(2);
    let mu_eff = pa.def(mu + rho * nut.get(rec), rec);
    (pbar, mu_eff)
}

/// The diffusion flux for one `(node, component)`: `Σ_b (∇N_a·∇N_b) u_b`.
#[inline]
pub(crate) fn diffusion_flux<R: Recorder>(
    a: usize,
    d: usize,
    grads: &[[Pv; 3]; 4],
    vel: &[[Pv; 3]; 4],
    rec: &mut R,
) -> f64 {
    let mut flux = 0.0;
    for b in 0..4 {
        let mut gdot = 0.0;
        for i in 0..3 {
            gdot += grads[a][i].get(rec) * grads[b][i].get(rec);
        }
        rec.fma(3);
        rec.fma(1);
        flux += gdot * vel[b][d].get(rec);
    }
    flux
}
