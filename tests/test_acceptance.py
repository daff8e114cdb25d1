"""The ten acceptance checks, each printing one verdict line.

Every check exercises the package at the scale and tolerance it must hold
at: 1e4 random pairs per dimension for the cone equivalences, the frozen
n = 2 flow instance at two resolutions, 1e3 random fields for the energy
inequalities, and 1e3 exact rational pairs on the blow-up lattice.  The
verdict lines are replayed in the terminal summary (see conftest).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from jflow import (
    FlowSetup,
    NewtonSettings,
    SINGULARITY_NOTE,
    TorusGrid,
    builtin_lattice,
    cosine_mode,
    divisor_search,
    eval_mabuchi,
    metric_field,
    monitor_max_principle,
    nakai_test,
    newton_solve,
    refinement_shrink,
    run,
    verify_certificate,
)
from jflow.cone import class_condition
from jflow.functionals import (
    path_functional_bundle,
    path_independence_gap,
)
from jflow.sampling import (
    make_rng,
    random_admissible_potential,
    random_rational_class,
    suite_cone,
    suite_conditions,
    suite_functionals,
)
from oracles import average_scalar_curvature

SEED = 0
FLOW_DIMS = (2, 3, 4)


def _flow_instance(points: int, **kwargs) -> dict:
    grid = TorusGrid(n=2, points=points, mode="invariant")
    setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=2.0 * np.eye(2),
                      tol_converge=1e-8, t_max=600.0, **kwargs)
    phi0 = cosine_mode(grid, [1, 0], 0.3)
    t0 = time.perf_counter()
    result = run(setup, phi0)
    return {"setup": setup, "result": result,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def flow32():
    return _flow_instance(32, sample_interval=10)


@pytest.fixture(scope="module")
def flow64():
    # coarser sampling keeps the doubled grid affordable
    return _flow_instance(64, sample_interval=50)


@pytest.fixture(scope="module")
def conditions_suite():
    t0 = time.perf_counter()
    report = suite_conditions(seed=SEED, samples=10_000, dims=FLOW_DIMS,
                              cone_dims=FLOW_DIMS)
    return {"report": report, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def functionals_suite():
    return suite_functionals(seed=SEED, count=1000)


def test_criterion_01_cone_oracle_equivalence(conditions_suite, criterion):
    report = conditions_suite["report"]
    elapsed = conditions_suite["elapsed"]
    disagreements = sum(
        report["per_dim"][str(n)]["cone_disagreements"]
        + report["per_dim"][str(n)]["scalar_api_disagreements"]
        for n in FLOW_DIMS)
    ok = (report["samples_per_dim"] >= 10_000
          and disagreements == 0
          and elapsed <= 60.0)
    detail = (f"{report['samples_per_dim']} pairs per n in {FLOW_DIMS}, "
              f"{disagreements} disagreements, {elapsed:.1f} s")
    assert criterion(1, ok, detail)


def test_criterion_02_implication_chain(conditions_suite, criterion):
    per_dim = conditions_suite["report"]["per_dim"]
    chain = sum(per_dim[str(n)]["chain_violations"] for n in FLOW_DIMS)
    n2 = per_dim["2"]["n2_equality_violations"]
    ok = chain == 0 and n2 == 0
    detail = (f"{chain} chain violations, "
              f"{n2} n=2 equality violations on 10000 samples")
    assert criterion(2, ok, detail)


def test_criterion_03_flow_convergence(flow32, criterion):
    result = flow32["result"]
    last = result.records[-1]
    lam = result.final.metric.relative_eigenvalues(np.eye(2))
    recip_gap = float(np.max(np.abs((1.0 / lam).sum(axis=-1) - 1.0)))
    ok = (result.verdict == "converged"
          and last.residual < 1e-8
          and recip_gap <= 1e-7
          and flow32["elapsed"] <= 300.0)
    detail = (f"residual {last.residual:.2e} at t={last.t:.1f}, "
              f"sup|sum 1/lam - 1| = {recip_gap:.2e}, "
              f"{flow32['elapsed']:.0f} s")
    assert criterion(3, ok, detail)


def test_criterion_04_band_and_refinement(flow32, flow64, criterion):
    mon32 = monitor_max_principle(flow32["result"])
    mon64 = monitor_max_principle(flow64["result"])
    eps32 = mon32["band_violation"]
    eps64 = mon64["band_violation"]
    ok = (flow64["result"].verdict == "converged"
          and mon32["band_ok"] and mon64["band_ok"]
          and refinement_shrink(eps32, eps64))
    detail = (f"band escape {eps32:.1e} (N=32) vs {eps64:.1e} (N=64), "
              f"floor {mon32['floor']:.0e}")
    assert criterion(4, ok, detail)


def test_criterion_05_descent_identity(flow32, criterion):
    records = flow32["result"].records
    jhat = np.array([r.Jhat for r in records])
    t = np.array([r.t for r in records])
    diss = np.asarray(flow32["result"].diss_totals)
    dt = np.diff(t)
    mismatch = np.abs(np.diff(jhat) + np.diff(diss)) / dt
    # |Jhat| shrinks to roundoff at the critical point, where the sampled
    # difference quotient is pure cancellation noise; the floor keeps the
    # tolerance meaningful there without loosening it along the descent
    tol = 1e-4 * np.maximum(np.abs(jhat[1:]), 1e-7 * abs(jhat[0]))
    worst = float(np.max(mismatch / tol))
    monotone = bool(np.all(np.diff(jhat) <= 1e-12 * abs(jhat[0])))
    ok = worst <= 1.0 and monotone
    detail = (f"max |dJhat/dt + dissipation| / tol = {worst:.2e} over "
              f"{len(dt)} intervals, monotone={monotone}")
    assert criterion(5, ok, detail)


def test_criterion_06_uniqueness(flow32, criterion):
    setup = flow32["setup"]
    grid = setup.grid
    phi_flow = flow32["result"].final.phi
    solutions = [phi_flow - phi_flow.mean()]
    iters = []
    for seed in (101, 202, 303):
        rng = make_rng(seed, stream=9)
        phi_seed = random_admissible_potential(rng, grid, setup.chi0,
                                               band=2, amplitude=0.4)
        phi_star, report = newton_solve(grid, setup.omega, setup.chi0,
                                        phi_seed, NewtonSettings(tol=1e-10))
        assert report.converged, report.message
        solutions.append(phi_star)
        iters.append(report.iterations)
    gap = max(float(np.max(np.abs(a - b)))
              for i, a in enumerate(solutions) for b in solutions[i + 1:])
    ok = gap <= 1e-6
    detail = (f"pairwise sup gap {gap:.2e} across flow limit + 3 Newton "
              f"seeds (iterations {iters})")
    assert criterion(6, ok, detail)


def test_criterion_07_functional_identities(functionals_suite, criterion):
    gaps = functionals_suite["gaps"]
    grid = TorusGrid(n=2, points=16)
    chi0 = np.array([[1.4, 0.25 + 0.10j], [0.25 - 0.10j, 1.0]])
    omega = np.array([[1.0, 0.10j], [-0.10j, 0.8]])
    path_worst = 0.0
    for k in range(5):
        rng = make_rng(k, stream=11)
        phi = random_admissible_potential(rng, grid, chi0, band=3,
                                          deriv="spectral")
        metric = metric_field(grid, chi0, phi, "spectral")
        evaluators = [
            (lambda path, key=key: path_functional_bundle(
                metric, omega, path)[key], 64)
            for key in ("J", "I", "Jhat")]
        evaluators.append(
            (lambda path: eval_mabuchi(metric, path), 32))
        for fn, steps in evaluators:
            rel = path_independence_gap(fn, steps=steps)[2]
            path_worst = max(path_worst, rel)
    ok = (gaps["jhat_shift"] <= 1e-8
          and path_worst <= 1e-5
          and gaps["sandwich_low"] >= 0.0
          and gaps["sandwich_high"] >= 0.0
          and gaps["ie_routes"] <= 1e-8
          and functionals_suite["samples"] == 1000)
    detail = (f"shift {gaps['jhat_shift']:.1e}, paths {path_worst:.1e}, "
              f"sandwich slacks ({gaps['sandwich_low']:.1e}, "
              f"{gaps['sandwich_high']:.1e}) on 1000 fields, "
              f"IE routes {gaps['ie_routes']:.1e}")
    assert criterion(7, ok, detail)


def test_criterion_08_entropy_and_curvature(functionals_suite, criterion):
    entropy_min = functionals_suite["gaps"]["entropy_min"]
    chi0 = np.diag([2.0, 2.5, 3.0]).astype(complex)

    def sample_phi(grid):
        return (cosine_mode(grid, [1, 0, 0], 0.30)
                + cosine_mode(grid, [0, 1, 1], 0.20, 0.5)
                + cosine_mode(grid, [1, 1, 0], 0.10, 1.1))

    def rbar_at(points):
        grid = TorusGrid(n=3, points=points)
        metric = metric_field(grid, chi0, sample_phi(grid))
        return abs(average_scalar_curvature(metric))

    dx2 = {points: (2.0 * np.pi / points) ** 2 for points in (12, 16, 24, 32)}
    c_measured = rbar_at(12) / dx2[12]
    bound_holds = all(rbar_at(points) <= c_measured * dx2[points]
                      for points in (16, 24, 32))
    ok = entropy_min >= -1e-6 and bound_holds
    detail = (f"min entropy {entropy_min:.3e} on 1000 fields; "
              f"|Rbar| <= C dx^2 with measured C = {c_measured:.2e} "
              f"(N=16,24,32)")
    assert criterion(8, ok, detail)


def test_criterion_09_exact_cone_certificates(criterion):
    lattice = builtin_lattice("blowup_p2_1")
    report = divisor_search(lattice, (3, 1))
    remainder = nakai_test(lattice, report.remainder)
    products = tuple(int(p) for p in
                     (remainder.square,) + remainder.curve_products)
    worked = (report.status == "certificate"
              and report.candidate.support == ("E",)
              and report.candidate.coefficients == (Fraction(2),)
              and products == (8, 1, 2)
              and verify_certificate(lattice, (3, 1), report))

    rng = make_rng(77, stream=13)
    t0 = time.perf_counter()
    pairs = 0
    identity_failures = 0
    while pairs < 1000:
        omega = random_rational_class(rng, lattice)
        chi0 = random_rational_class(rng, lattice)
        if omega is None or chi0 is None:
            continue
        out = class_condition(lattice, omega, chi0)
        if not (out["identity_square"] and out["identity_mixed"]):
            identity_failures += 1
        pairs += 1
    elapsed = time.perf_counter() - t0
    ok = (worked and identity_failures == 0 and elapsed <= 10.0)
    detail = (f"3H+E -> 2E with remainder products {products}; "
              f"{identity_failures} identity failures on {pairs} rational "
              f"pairs in {elapsed:.1f} s")
    assert criterion(9, ok, detail)


def test_criterion_10_singularity_statement(criterion):
    required = ("cannot be reproduced", "negative self-intersection",
                "blow-up monitor", "divisor certificates")
    stated = all(phrase in SINGULARITY_NOTE for phrase in required)
    # the stated reason is checkable: the torus-like lattice has no
    # negative curves, while the blow-up lattice that the certificates
    # run on does
    flat_side = not any(
        c.negative for c in builtin_lattice("product_curves").curves)
    blowup_names = tuple(
        c.name for c in builtin_lattice("blowup_p2_1").curves if c.negative)
    blowup_side = blowup_names == ("E",)
    ok = stated and flat_side and blowup_side
    detail = (f"note states the limitation and both substitutes; "
              f"negative curves: product_curves=0, blowup_p2_1=1")
    assert criterion(10, ok, detail)
