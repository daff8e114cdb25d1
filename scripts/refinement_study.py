"""Grid refinement study for the maximum-principle band.

Runs the reference instance at a ladder of resolutions and reports how
far the sampled trace extremes escape the initial band at each level.
The escape is a pure discretization artifact, so it should shrink at
the order of the stencil (or sit at the floor when the band is exact,
as it is for this instance).
"""

import argparse
import sys

import numpy as np

from jflow import (FlowSetup, TorusGrid, cosine_mode, monitor_max_principle,
                   refinement_shrink, run)


def run_level(points: int, amplitude: float, t_max: float) -> dict:
    grid = TorusGrid(n=2, points=points, mode="invariant")
    setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=2.0 * np.eye(2),
                      tol_converge=1e-8, t_max=t_max,
                      sample_interval=max(10, points))
    result = run(setup, cosine_mode(grid, [1, 0], amplitude))
    monitor = monitor_max_principle(result)
    return {
        "points": points,
        "verdict": result.verdict,
        "steps": result.steps,
        "wall": result.wall_time_s,
        "residual": result.records[-1].residual,
        "band": monitor["band"],
        "escape": monitor["band_violation"],
        "chi_escape": monitor["chi_bound_violation"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, nargs="+",
                        default=[16, 32, 64])
    parser.add_argument("--amplitude", type=float, default=0.3)
    parser.add_argument("--t-max", type=float, default=600.0)
    args = parser.parse_args(argv)

    rows = [run_level(points, args.amplitude, args.t_max)
            for points in args.levels]
    print(f"{'N':>4}  {'verdict':<10} {'steps':>7} {'wall/s':>7} "
          f"{'residual':>10} {'band escape':>12} {'chi escape':>11}")
    for row in rows:
        print(f"{row['points']:>4}  {row['verdict']:<10} {row['steps']:>7} "
              f"{row['wall']:>7.1f} {row['residual']:>10.2e} "
              f"{row['escape']:>12.3e} {row['chi_escape']:>11.3e}")

    ok = True
    for coarse, fine in zip(rows, rows[1:]):
        shrunk = refinement_shrink(coarse["escape"], fine["escape"])
        ok = ok and shrunk
        print(f"N={coarse['points']} -> N={fine['points']}: "
              f"escape {coarse['escape']:.3e} -> {fine['escape']:.3e} "
              f"(shrinks 4x or sits at floor: {shrunk})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
