"""Sampled properness scan: Mabuchi energy against the Aubin-Yau J^E.

Draws admissible potentials over a ladder of amplitudes, one stack per
amplitude, evaluates the pair (J^E, M) for each, and fits the best affine
lower bound M >= alpha J^E - C over the sample.  The fit is descriptive,
not a theorem: it reports how the lower bound looks on the sampled slice,
plus the entropy floor that makes it plausible.
"""

import argparse
import sys

import numpy as np

from jflow import (PathSpec, TorusGrid, eval_entropy, eval_IE_JE, eval_mabuchi,
                   fit_properness, metric_field)
from jflow.hermitian import SettingError, as_matrix
from jflow.sampling import make_rng, random_admissible_potential


def scan(args) -> tuple:
    """(J^E, M, entropy) lists, one array per amplitude."""
    grid = TorusGrid(n=2, points=args.points, mode="invariant")
    chi0 = as_matrix([[1.4, 0.25 + 0.10j], [0.25 - 0.10j, 1.0]])
    rng = make_rng(args.seed, stream=17)
    path = PathSpec("linear", args.mabuchi_steps)

    je_vals, mab_vals, ent_vals = [], [], []
    for amplitude in args.amplitudes:
        # one stack per amplitude: each field gets the bits of its own call
        phis = random_admissible_potential(rng, grid, chi0, band=args.band,
                                           amplitude=amplitude,
                                           deriv="spectral",
                                           count=args.per_amplitude)
        metric = metric_field(grid, chi0, phis, "spectral")
        je_vals.append(eval_IE_JE(metric)[1])
        mab_vals.append(eval_mabuchi(metric, path))
        ent_vals.append(eval_entropy(metric))
    return je_vals, mab_vals, ent_vals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=16)
    parser.add_argument("--per-amplitude", type=int, default=8)
    parser.add_argument("--amplitudes", type=float, nargs="+",
                        default=[0.1, 0.2, 0.4, 0.8, 1.2])
    parser.add_argument("--band", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mabuchi-steps", type=int, default=32)
    args = parser.parse_args(argv)

    try:
        samples = scan(args)
    except SettingError as err:  # a grid, band or amplitude out of range
        parser.error(str(err))
    je_vals, mab_vals, ent_vals = (np.concatenate(v) for v in samples)
    fit = fit_properness(je_vals, mab_vals)

    print(f"samples      {fit['samples']} "
          f"({len(args.amplitudes)} amplitudes x {args.per_amplitude})")
    print(f"J^E range    [{je_vals.min():.4e}, {je_vals.max():.4e}]")
    print(f"M range      [{mab_vals.min():.4e}, {mab_vals.max():.4e}]")
    print(f"entropy min  {ent_vals.min():.4e} (Jensen floor is 0)")
    print(f"fit          M >= {fit['alpha']:.4f} * J^E - {fit['C']:.4e} "
          f"(min slack {fit['min_slack']:.3e})")
    if fit["alpha"] <= 0.0:
        print("warning: fitted slope is not positive on this slice")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
