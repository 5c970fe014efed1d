#!/usr/bin/env python3
"""Residual scaling demo: near-bubble vs far-bump perturbation families.

Two sweeps over eps:
  near  -- bump on the bubble core; the linearized operator responds at
           first order, so the residual dual norm scales like eps
  far   -- bump far out in log radius at a=0; the linear coupling dies off
           with the bump position and the p-homogeneous part takes over,
           giving eps^(p-1)

The residual is the exact radial dual norm.  Prints both tables and
the fitted log-log slopes.
"""

import argparse

import numpy as np

from cknlab.critical import radial_dual_norm
from cknlab.fields import gaussian_bump_profile, make_radial_grid
from cknlab.functionals import weighted_grad_pnorm
from cknlab.manifold import canonical_profile
from cknlab.params import derive_params


def sweep(ps, grid, center, width, eps_list, label):
    v = canonical_profile(ps, grid)
    bump = gaussian_bump_profile(grid, ps.n, center, width)
    z = (1.0 / weighted_grad_pnorm(bump, ps) ** (1.0 / ps.p)) * bump
    norms = []
    print(f"\n{label} family, bump at t={center}:")
    for eps in eps_list:
        norms.append(radial_dual_norm(v + eps * z, ps))
        print(f"  eps={eps:.3e}  residual={norms[-1]:.6e}")
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    print(f"  slope: {slope:.4f}")
    return slope


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=5)
    args = ap.parse_args(argv)
    eps_list = np.logspace(-3.25, -1.75, args.points)

    ps = derive_params(5, 3.0, 0.0, 0.3)
    grid = make_radial_grid(-30.0, 40.0, 1536)
    s_near = sweep(ps, grid, 0.5, 0.8, eps_list, "near")
    s_far = sweep(ps, grid, 33.0, 0.8, eps_list, "far")
    print(f"\nnear slope {s_near:.3f} (expect 1)   far slope {s_far:.3f} (expect p-1 = {ps.p - 1:g})")


if __name__ == "__main__":
    main()
