//! The **RSP** kernel: Restructured + Specialized + Privatized.
//!
//! Identical math to [`crate::kernels::rs`], but every intermediate is a
//! thread-private scalar. With the compile-time loop bounds of the
//! specialized path, a compiler maps these to registers; the register
//! allocator in `alya-machine` replays that decision over the `Def`/`Use`
//! events this kernel emits, spilling to local memory only beyond the
//! register budget. The irreducible global traffic that remains is the
//! nodal gather/scatter.

use alya_fem::element::Tet4;
use alya_machine::Recorder;

use crate::gather::Frame;
use crate::input::AssemblyInput;
use crate::kernels::{get3, shared, PrivAlloc, Pv};
use crate::lanes::Lane;

/// Assembles one element (or one pack) the RSP way.
// alya:hot
pub fn element<V: Lane, F: Frame<V>, R: Recorder>(
    input: &AssemblyInput,
    frame: &mut F,
    rec: &mut R,
) {
    let rho = input.props.density;
    let mu = input.props.viscosity;
    let mut pa = PrivAlloc::new();

    // --- Gather, geometry, velocity gradient, Vreman (shared prologue). ---
    let shared::SpecPrologue {
        vel,
        pre,
        grads,
        vol,
        gve,
        nut,
    } = shared::specialized_prologue(input, frame, &mut pa, rec);

    // --- RHS accumulators, live across the Gauss loop. ---
    let zero = [V::splat(0.0); 3];
    let mut rhs: [[Pv<V>; 3]; 4] = [
        pa.def3(zero, rec),
        pa.def3(zero, rec),
        pa.def3(zero, rec),
        pa.def3(zero, rec),
    ];

    rec.flop(1);
    let gpvol = V::splat(0.25) * vol.get(rec);

    // --- Gauss loop: transient advection/convection, immediate use. ---
    for g in 0..Tet4::NUM_GAUSS {
        let con = shared::gauss_convection(g, &vel, &gve, rho, &mut pa, rec);
        for a in 0..4 {
            for d in 0..3 {
                rec.flop(2);
                let inc = -gpvol * Tet4::SHAPE[g][a] * con[d].get(rec);
                rec.flop(1);
                let new = rhs[a][d].get(rec) + inc;
                rhs[a][d].set(new, rec);
            }
        }
    }

    // --- Pressure, force, diffusion. ---
    let (pbar, mu_eff) = shared::mean_pressure_and_mu_eff(&pre, nut, rho, mu, &mut pa, rec);
    let volv = vol.get(rec);
    for a in 0..4 {
        for d in 0..3 {
            rec.fma(2);
            rec.flop(2);
            let inc =
                volv * pbar.get(rec) * grads[a][d].get(rec) + gpvol * rho * input.body_force[d];
            rec.flop(1);
            let new = rhs[a][d].get(rec) + inc;
            rhs[a][d].set(new, rec);
        }
    }
    for a in 0..4 {
        for d in 0..3 {
            let flux = shared::diffusion_flux(a, d, &grads, &vel, rec);
            rec.flop(3);
            let new = rhs[a][d].get(rec) - volv * mu_eff.get(rec) * flux;
            rhs[a][d].set(new, rec);
        }
    }

    // --- Scatter the completed elemental RHS. ---
    let mut elrhs = [zero; 4];
    for a in 0..4 {
        elrhs[a] = get3(&rhs[a], rec);
    }
    frame.scatter_elemental(&elrhs, rec);
}
