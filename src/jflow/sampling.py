"""Deterministic randomized checks over the algebraic core.

Everything here is driven by counter-based Philox streams keyed on
(seed, stream), so a seed pins the entire sample sequence and the resulting
report is byte-identical across runs.  Reports carry no timestamps; hash
them with report_digest to assert reproducibility.

Three suites are bundled:

  conditions   verdict implications C2 => C3 => C1 on random positive
               Hermitian pencils, coincidence of all three at n = 2, the
               reciprocal-sum trace identity, and sign agreement between the
               eigenvalue margin of the cone form and a brute-force wedge
               expansion of (chi' - (n-1) omega) ^ chi'^{n-2} carried out in
               the pencil eigenbasis.
  functionals  energy inequalities on random admissible potentials:
               I^E >= 0, the sandwich I^E/(n+1) <= J^E <= n I^E/(n+1),
               agreement of the two I^E routes, entropy nonnegativity, and
               translation invariance of the normalized flow energy.
  cone         exact identities of the surface class condition on random
               rational Kahler pairs, plus soundness of every divisor
               certificate the search produces.

The fault argument is a test-only hook: "c2-sign" flips the sign of the C2
margin inside this module's checker (the library itself is untouched), so a
healthy suite must fail and dump counterexamples.  It exists to demonstrate
that the suite has teeth.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np

from .cone import (SurfaceLattice, _pairings, builtin_lattice,
                   class_condition, divisor_search, verify_certificate)
from .functionals import (eval_entropy, eval_IE_JE, flow_functional_bundle,
                          ie_second_form)
from .hermitian import (as_matrix, condition_margins_batch, cone_form_positive,
                        pencil_eigenvalues_batch, wedge_coefficient_batch)
from .torus import TorusGrid, complex_hessian_of, metric_field

FAULTS = ("c2-sign",)

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed on (seed, stream); counter-based, so streams
    with distinct keys never overlap."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_positive_pair_batch(rng: np.random.Generator, n: int,
                               count: int) -> tuple:
    """count independent positive Hermitian pairs (g, chi) of size n.

    Complex Wishart matrices normalized by n, plus 0.05 I so the Cholesky
    factorizations stay comfortably away from breakdown.  chi carries an
    extra per-sample log-uniform scale reaching past n(n-1), because the
    conditions under test compare reciprocal pencil eigenvalues against
    1/(n-1); without the scale almost every raw Wishart pair would sit on
    the failing side and the passing verdicts would go unexercised.
    """
    def draw():
        a = rng.standard_normal((count, n, n)) \
            + 1j * rng.standard_normal((count, n, n))
        return a @ a.conj().swapaxes(-1, -2) / n + 0.05 * np.eye(n)

    g = draw()
    chi = draw()
    top = max(8.0, 4.0 * n * n)
    scale = np.exp(rng.uniform(np.log(0.5), np.log(top), size=count))
    return g, chi * scale[:, None, None]


def random_positive_pair(rng: np.random.Generator, n: int) -> tuple:
    g, chi = random_positive_pair_batch(rng, n, 1)
    return g[0], chi[0]


def wavevector_representatives(naxes: int, band: int) -> list:
    """One integer wavevector per +-pair with sup-norm at most band."""
    out = []
    for k in itertools.product(range(-band, band + 1), repeat=naxes):
        if all(c == 0 for c in k):
            continue
        lead = next(c for c in k if c != 0)
        if lead > 0:
            out.append(k)
    return out


def random_admissible_potential(rng: np.random.Generator, grid: TorusGrid,
                                chi0, band: int = 2, amplitude: float = 0.6,
                                rel_margin: float = 0.25,
                                deriv: str = "fd4") -> np.ndarray:
    """Random band-limited trig polynomial with a guaranteed metric margin.

    Coefficients decay like 1/(1+|k|^2); the draw is then rescaled so that
    the smallest eigenvalue of chi0 + H stays above rel_margin times the
    smallest eigenvalue of chi0 on every grid point, using the Weyl bound
    lambda_min(chi0 + s H) >= lambda_min(chi0) + s min lambda_min(H).
    The zero mode is never drawn, so the mean is zero by construction.
    """
    coords = grid.meshgrid()
    phi = grid.zeros()
    for k in wavevector_representatives(grid.naxes, band):
        weight = amplitude / (1.0 + float(sum(c * c for c in k)))
        coef = weight * rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(c * x for c, x in zip(k, coords))
        phi = phi + coef * np.cos(arg + phase)

    hess = complex_hessian_of(phi, grid, deriv)
    hmin = float(np.linalg.eigvalsh(hess).min())
    lam0 = float(np.linalg.eigvalsh(np.asarray(chi0, dtype=complex)).min())
    if hmin < 0.0:
        allowed = (1.0 - rel_margin) * lam0
        scale = min(1.0, allowed / (-hmin))
        phi = scale * phi
    return phi


def _is_kahler(pairings) -> bool:
    return min(pairings) > 0


def _is_failing_with_positive_square(pairings) -> bool:
    return min(pairings[:2]) > 0 >= min(pairings[2:], default=1)


def random_rational_class(rng: np.random.Generator, lattice: SurfaceLattice,
                          predicate=_is_kahler,
                          tries: int = 400) -> tuple | None:
    """Rejection-sample a rational class v with predicate(pairings) true.

    Components are integers in [-5, 5] over one shared denominator from 1
    to 4; predicate reads the signs of their cone._pairings (v.v,
    v.reference and v.c for each listed curve c).  Returns None when the
    budget runs out: a predicate can be unsatisfiable, e.g. a failing class
    with positive square on a lattice without negative curves.
    """
    for _ in range(tries):
        den = int(rng.integers(0, 4)) + 1
        nums = rng.integers(-5, 6, size=lattice.rank).tolist()
        if any(nums) and predicate(_pairings(lattice, nums)):
            return tuple(Fraction(x, den) for x in nums)
    return None


def _counterexample(dim: int, prop: str, lam: np.ndarray,
                    margins: dict, index: int) -> dict:
    return {
        "dim": dim,
        "property": prop,
        "sample_index": int(index),
        "lambdas": [float(v) for v in lam],
        "margins": {k: float(v) for k, v in margins.items()},
    }


def _pick_minimal(indices: np.ndarray, lam: np.ndarray):
    """The three violating samples whose spectra lie nearest 1, so the
    dumped counterexamples are the tamest ones available."""
    if indices.size == 0:
        return []
    score = np.abs(np.log(lam[indices])).sum(axis=-1)
    order = indices[np.argsort(score, kind="stable")]
    return [int(i) for i in order[:3]]


def suite_conditions(seed: int, samples: int = 10_000,
                     dims: tuple = (2, 3, 4, 5),
                     cone_dims: tuple = (2, 3, 4),
                     fault: str | None = None) -> dict:
    """Implication chain, n = 2 coincidence, trace identity, cone oracle."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULTS}")
    per_dim = {}
    counterexamples = []
    passed = True
    for n in dims:
        rng = make_rng(seed, stream=100 + n)
        g, chi = random_positive_pair_batch(rng, n, samples)
        lam = pencil_eigenvalues_batch(g, chi)
        margins = condition_margins_batch(lam)
        c1m, c3m = margins["C1"], margins["C3"]
        c2m = margins["C2"]
        if fault == "c2-sign":
            c2m = -c2m
        c1, c2, c3 = c1m > 0, c2m > 0, c3m > 0

        viol_23 = np.where(c2 & ~c3)[0]
        viol_31 = np.where(c3 & ~c1)[0]
        for prop, viol in (("c2-implies-c3", viol_23),
                           ("c3-implies-c1", viol_31)):
            for i in _pick_minimal(viol, lam):
                counterexamples.append(_counterexample(
                    n, prop, lam[i],
                    {"C1": c1m[i], "C2": c2m[i], "C3": c3m[i]}, i))

        eq_violations = 0
        if n == 2:
            mismatch = np.where((c1 != c2) | (c2 != c3))[0]
            eq_violations = int(mismatch.size)
            for i in _pick_minimal(mismatch, lam):
                counterexamples.append(_counterexample(
                    n, "n2-verdict-equality", lam[i],
                    {"C1": c1m[i], "C2": c2m[i], "C3": c3m[i]}, i))

        # trace identity: sum of reciprocals equals tr(chi^{-1} g)
        recip = (1.0 / lam).sum(axis=-1)
        tr = np.einsum("...ii->...", np.linalg.solve(chi, g)).real
        spectrum_gap = np.abs(recip - tr) / np.maximum(np.abs(tr), 1.0)
        spectrum_violations = int((spectrum_gap > 1e-9).sum())

        cone_disagreements = None
        cone_min_abs_margin = None
        scalar_disagreements = None
        if n in cone_dims:
            low = np.linalg.cholesky(g)
            x = np.linalg.solve(low, chi)
            m = np.linalg.solve(
                low, x.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
            _, u = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))
            t = np.linalg.solve(low.conj().swapaxes(-1, -2), u)
            th = t.conj().swapaxes(-1, -2)
            omega_t = th @ g @ t
            chi_t = th @ chi @ t
            form = chi_t - (n - 1) * omega_t
            mats = [form] + [chi_t] * (n - 2)
            wedge_positive = np.ones(samples, dtype=bool)
            for k in range(n):
                coeff = wedge_coefficient_batch(mats, n, k)
                wedge_positive &= coeff > 0.0
            cone_pass = margins["C3"] > 0.0
            disagree = np.where(wedge_positive != cone_pass)[0]
            cone_disagreements = int(disagree.size)
            cone_min_abs_margin = float(np.abs(margins["C3"]).min())
            for i in _pick_minimal(disagree, lam):
                counterexamples.append(_counterexample(
                    n, "cone-wedge-oracle", lam[i],
                    {"C3": margins["C3"][i]}, i))
            scalar_disagreements = 0
            for i in range(min(50, samples)):
                rep = cone_form_positive(g[i], chi[i])
                if rep.passed != bool(wedge_positive[i]):
                    scalar_disagreements += 1
                    counterexamples.append(_counterexample(
                        n, "cone-scalar-api", lam[i],
                        {"C3": margins["C3"][i]}, i))

        dim_passed = (viol_23.size == 0 and viol_31.size == 0
                      and eq_violations == 0 and spectrum_violations == 0
                      and not cone_disagreements
                      and not scalar_disagreements)
        passed = passed and dim_passed
        per_dim[str(n)] = {
            "c1_pass": int(c1.sum()),
            "c2_pass": int(c2.sum()),
            "c3_pass": int(c3.sum()),
            "chain_violations": int(viol_23.size + viol_31.size),
            "n2_equality_violations": eq_violations,
            "spectrum_violations": spectrum_violations,
            "spectrum_gap_max": float(spectrum_gap.max()),
            "cone_disagreements": cone_disagreements,
            "cone_min_abs_margin": cone_min_abs_margin,
            "scalar_api_disagreements": scalar_disagreements,
            "passed": dim_passed,
        }
    return {
        "name": "conditions",
        "samples_per_dim": samples,
        "dims": [int(d) for d in dims],
        "cone_dims": [int(d) for d in cone_dims],
        "fault": fault,
        "per_dim": per_dim,
        "counterexamples": counterexamples,
        "passed": passed,
    }


def suite_functionals(seed: int, count: int = 1000) -> dict:
    """Energy inequalities on random admissible potentials, n = 2, N = 16.

    Spectral derivatives with band-limited draws keep every grid sum an
    exact integral of a trig polynomial, so the two I^E routes agree to
    roundoff and the sandwich holds up to a 1e-12 comparison slack that
    accounts for summing pointwise-nonnegative quantities in floats.
    Translation invariance is checked on every tenth sample.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    points, band = 16, 3
    grid = TorusGrid(n=2, points=points, mode="invariant")
    chi0 = as_matrix([[1.4, 0.25 + 0.10j], [0.25 - 0.10j, 1.0]])
    omega = np.array([[1.0, 0.10j], [-0.10j, 0.8]])
    rng = make_rng(seed, stream=300)
    gaps = {"sandwich_low": 0.0, "sandwich_high": 0.0, "ie_routes": 0.0,
            "entropy_min": np.inf, "ie_min": np.inf, "jhat_shift": 0.0}
    failures = []
    for i in range(count):
        phi = random_admissible_potential(
            rng, grid, chi0, band=band, amplitude=0.6, rel_margin=0.25,
            deriv="spectral")
        metric = metric_field(grid, chi0, phi, "spectral")
        ie, je = eval_IE_JE(metric)
        slack = 1e-12 * max(1.0, abs(ie))
        low = je - ie / 3.0
        high = 2.0 * ie / 3.0 - je
        gaps["sandwich_low"] = min(gaps["sandwich_low"], low)
        gaps["sandwich_high"] = min(gaps["sandwich_high"], high)
        gaps["ie_min"] = min(gaps["ie_min"], ie)
        if ie < -slack:
            failures.append({"sample": i, "property": "ie-nonnegative",
                             "value": float(ie)})
        if low < -slack:
            failures.append({"sample": i, "property": "sandwich-low",
                             "value": float(low)})
        if high < -slack:
            failures.append({"sample": i, "property": "sandwich-high",
                             "value": float(high)})
        ie2 = ie_second_form(metric)
        route_gap = abs(ie - ie2) / max(1.0, abs(ie))
        gaps["ie_routes"] = max(gaps["ie_routes"], route_gap)
        if route_gap > 1e-8:
            failures.append({"sample": i, "property": "ie-two-routes",
                             "value": float(route_gap)})
        ent = eval_entropy(metric)
        gaps["entropy_min"] = min(gaps["entropy_min"], ent)
        if ent < -1e-6:
            failures.append({"sample": i, "property": "entropy-nonnegative",
                             "value": float(ent)})
        if i % 10 == 0:
            base = flow_functional_bundle(metric, omega)
            # the shifted potential is differentiated afresh, so the check
            # also covers the stencil's blindness to constants
            shifted = flow_functional_bundle(
                metric_field(grid, chi0, phi + 0.7, "spectral"), omega)
            shift_gap = abs(base["Jhat"] - shifted["Jhat"]) \
                / max(1.0, abs(base["Jhat"]))
            gaps["jhat_shift"] = max(gaps["jhat_shift"], shift_gap)
            if shift_gap > 1e-9:
                failures.append({"sample": i, "property": "jhat-translation",
                                 "value": float(shift_gap)})
    return {
        "name": "functionals",
        "samples": count,
        "points": points,
        "band": band,
        "gaps": {k: float(v) for k, v in gaps.items()},
        "failures": failures[:10],
        "failure_count": len(failures),
        "passed": not failures,
    }


def suite_cone(seed: int, count: int = 1000) -> dict:
    """Exact identities and certificate soundness on rational classes.

    Even samples draw a random Kahler pair and check the class-condition
    identities; whenever the condition class fails the cone test, the
    divisor search must produce a certificate that re-verifies.  Odd
    samples draw a failing class with positive square directly and demand
    the same.  The shipped lattices carry complete negative-curve lists, so
    a no-certificate outcome on them is a failure.
    """
    names = ("blowup_p2_1", "blowup_p2_2")
    lattices = [builtin_lattice(name) for name in names]
    rng = make_rng(seed, stream=500)
    identity_failures = 0
    verify_failures = 0
    no_certificate = 0
    certificates = 0
    kahler_targets = 0
    draw_exhaustion = 0
    failures = []
    for i in range(count):
        lattice = lattices[i % len(lattices)]
        if i % 2 == 0:
            omega = random_rational_class(rng, lattice)
            chi0 = random_rational_class(rng, lattice)
            if omega is None or chi0 is None:
                draw_exhaustion += 1
                continue
            cond = class_condition(lattice, omega, chi0)
            if not (cond["identity_square"] and cond["identity_mixed"]):
                identity_failures += 1
                failures.append({"sample": i, "property": "exact-identity",
                                 "lattice": lattice.name,
                                 "omega": [str(x) for x in omega],
                                 "chi0": [str(x) for x in chi0]})
                continue
            if not cond["needs_divisor"]:
                kahler_targets += 1
                continue
            alpha = cond["target"]
        else:
            alpha = random_rational_class(
                rng, lattice, predicate=_is_failing_with_positive_square)
            if alpha is None:
                draw_exhaustion += 1
                continue
        report = divisor_search(lattice, alpha)
        if report.status == "kahler":
            kahler_targets += 1
            continue
        if report.status == "no-certificate":
            no_certificate += 1
            failures.append({"sample": i, "property": "no-certificate",
                             "lattice": lattice.name,
                             "alpha": [str(x) for x in alpha],
                             "reason": report.reason})
            continue
        certificates += 1
        if not verify_certificate(lattice, alpha, report):
            verify_failures += 1
            failures.append({"sample": i, "property": "verify-certificate",
                             "lattice": lattice.name,
                             "alpha": [str(x) for x in alpha],
                             "certificate": report.as_dict()})

    product = builtin_lattice("product_curves")
    product_always_kahler = True
    product_checked = 0
    for _ in range(100):
        omega = random_rational_class(rng, product)
        chi0 = random_rational_class(rng, product)
        if omega is None or chi0 is None:
            continue
        cond = class_condition(product, omega, chi0)
        product_checked += 1
        if cond["needs_divisor"]:
            product_always_kahler = False
            failures.append({"property": "product-curves-kahler",
                             "omega": [str(x) for x in omega],
                             "chi0": [str(x) for x in chi0]})

    passed = (identity_failures == 0 and verify_failures == 0
              and no_certificate == 0 and product_always_kahler
              and draw_exhaustion == 0)
    return {
        "name": "cone",
        "samples": count,
        "lattices": list(names),
        "identity_failures": identity_failures,
        "certificates": certificates,
        "verify_failures": verify_failures,
        "no_certificate": no_certificate,
        "kahler_targets": kahler_targets,
        "draw_exhaustion": draw_exhaustion,
        "product_checked": product_checked,
        "product_always_kahler": product_always_kahler,
        "failures": failures[:10],
        "passed": passed,
    }


DEFAULT_SIZES = {"conditions": 10_000, "functionals": 1000, "cone": 1000}


def run_property_suites(seed: int, sizes: dict | None = None,
                        fault: str | None = None) -> dict:
    """All three suites under one seed; the report is hashable and stable."""
    merged = dict(DEFAULT_SIZES)
    if sizes:
        unknown = set(sizes) - set(DEFAULT_SIZES)
        if unknown:
            raise ValueError(f"unknown suite sizes: {sorted(unknown)}")
        merged.update({k: int(v) for k, v in sizes.items()})
    suites = {
        "conditions": suite_conditions(seed, samples=merged["conditions"],
                                       fault=fault),
        "functionals": suite_functionals(seed, count=merged["functionals"]),
        "cone": suite_cone(seed, count=merged["cone"]),
    }
    return {
        "seed": int(seed),
        "fault": fault,
        "sizes": merged,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def report_digest(report: dict) -> str:
    """SHA-256 of the canonical JSON encoding; equal digests mean
    byte-identical reports."""
    return hashlib.sha256(canonical_json(report).encode("ascii")).hexdigest()
