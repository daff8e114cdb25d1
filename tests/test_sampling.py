"""Deterministic random sampling and the property suites."""

import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from jflow import (
    TorusGrid,
    builtin_lattice,
    make_rng,
    nakai_test,
    random_admissible_potential,
    report_digest,
    run_property_suites,
)
from jflow import sampling, torus
from jflow.hermitian import SettingError
from jflow.sampling import (
    FAULTS,
    _mode_table,
    canonical_json,
    random_rational_class,
    suite_conditions,
    suite_cone,
    suite_functionals,
)
from jflow.torus import metric_field
from oracles import (admissible_potential_loop, random_positive_pair_batch,
                     representatives_loop)


class Reached(Exception):
    """Raised by a stub to show that a call got that far."""


def _no_table(*args):
    raise AssertionError("a mode table was built past the mode cap")


class TestGenerators:
    def test_rng_reproducible(self):
        a = make_rng(7, 3).standard_normal(5)
        b = make_rng(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_rng_streams_differ(self):
        a = make_rng(7, 0).standard_normal(5)
        b = make_rng(7, 1).standard_normal(5)
        assert not np.allclose(a, b)

    def test_positive_pair_batch(self):
        g, chi = random_positive_pair_batch(make_rng(1), 3, 20)
        assert g.shape == (20, 3, 3)
        assert chi.shape == (20, 3, 3)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        assert np.all(np.linalg.eigvalsh(chi) > 0)

    def test_positive_pair_scalar(self):
        g, chi = (m[0] for m in random_positive_pair_batch(make_rng(2), 2, 1))
        assert g.shape == (2, 2)
        assert np.linalg.eigvalsh(chi)[0] > 0

    def test_batch_produces_both_verdicts(self):
        # the chi scaling must leave both passing and failing samples for
        # every dimension the suites exercise
        from jflow.hermitian import condition_margins_batch, pencil_eigenvalues_batch

        for n in (2, 3, 4):
            g, chi = random_positive_pair_batch(make_rng(11, n), n, 400)
            lam = pencil_eigenvalues_batch(g, chi)
            c2 = condition_margins_batch(lam)["C2"] > 0
            assert 0 < int(c2.sum()) < 400

    def test_wavevector_representatives(self):
        reps = [tuple(k) for k in _mode_table(2, 1)[0].tolist()]
        assert len(reps) == 4
        for k in reps:
            assert tuple(-c for c in k) not in reps

    def test_admissible_potential_margin(self):
        grid = TorusGrid(n=2, points=16)
        chi0 = np.array([[1.4, 0.25], [0.25, 1.0]])
        rng = make_rng(5, 1)
        lam0 = float(np.linalg.eigvalsh(chi0).min())
        for _ in range(10):
            phi = random_admissible_potential(rng, grid, chi0, band=2,
                                              rel_margin=0.25)
            assert abs(phi.mean()) < 1e-12
            metric = metric_field(grid, chi0, phi)
            lam_min = float(metric.relative_eigenvalues(np.eye(2)).min())
            # the Weyl bound is conservative, so the actual margin clears
            # the requested floor
            assert lam_min >= 0.25 * lam0 - 1e-12

    @pytest.mark.parametrize("kwargs, name", [
        ({"band": 0}, "band"), ({"band": -2}, "band"),
        ({"count": 0}, "count"), ({"count": -1, "band": 1}, "count"),
    ])
    def test_admissible_potential_refuses_bad_arguments(self, kwargs, name):
        self.assert_refused(TorusGrid(n=2, points=16), kwargs, name,
                            "must be at least 1")

    @pytest.mark.parametrize("kwargs, name, reason", [
        pytest.param({"band": 9}, "band", "must be at most points // 2 = 8",
                     id="band-past-half"),
        pytest.param({"amplitude": 0.0}, "amplitude", "must be positive",
                     id="amplitude-zero"),
        pytest.param({"amplitude": -0.5, "band": 1}, "amplitude",
                     "must be positive", id="amplitude-negative"),
    ])
    def test_admissible_potential_refuses_out_of_range(self, kwargs, name,
                                                       reason):
        self.assert_refused(TorusGrid(n=2, points=16), kwargs, name, reason)

    @pytest.mark.parametrize("grid, band, modes", [
        # 364 modes over 8^6 cells; 2.1 million modes over 45^4 cells, whose
        # table alone would take seconds; 24 modes over 1024^2 cells
        pytest.param(TorusGrid(n=3, points=8, mode="full"), 1, 364,
                     id="six-axes-band-1"),
        pytest.param(TorusGrid(n=2, points=45, mode="full"), 22, 2050312,
                     id="n2-full-band-22"),
        pytest.param(TorusGrid(n=2, points=1024), 3, 24, id="band-3-of-24"),
    ])
    def test_draw_past_the_mode_cap_refused(self, monkeypatch, cosine_sizes,
                                            grid, band, modes):
        monkeypatch.setattr(sampling, "_mode_table", _no_table)
        self.assert_refused(grid, {"band": band}, "band",
                            f"{modes} modes over the grid exceed 16777216 "
                            f"cosines")
        assert cosine_sizes == []

    def test_largest_band_under_the_cap_is_drawn(self, monkeypatch):
        # band 2 on 1024^2 cells is 12 modes, 12.6 million cosines: the
        # checks pass and the draw reaches cosine_mode with all 12
        def reached(grid, kvecs, *args):
            raise Reached(len(kvecs))

        monkeypatch.setattr(sampling, "cosine_mode", reached)
        with pytest.raises(Reached) as info:
            random_admissible_potential(make_rng(5, 1),
                                        TorusGrid(n=2, points=1024),
                                        np.eye(2), band=2)
        assert info.value.args == (12,)

    @staticmethod
    def assert_refused(grid, kwargs, name, reason):
        # refused before any draw, so the generator keeps its state
        rng = make_rng(5, 1)
        state = rng.bit_generator.state
        with pytest.raises(SettingError) as info:
            random_admissible_potential(rng, grid, np.eye(grid.n), **kwargs)
        assert (info.value.field, info.value.reason) == (name, reason)
        np.testing.assert_equal(rng.bit_generator.state, state)

    def test_rational_class_default_predicate(self):
        lattice = builtin_lattice("blowup_p2_1")
        vec = random_rational_class(make_rng(3), lattice)
        assert vec is not None
        assert nakai_test(lattice, vec).passed

    def test_rational_class_can_exhaust(self):
        # no failing class with positive square exists without negative
        # curves on this lattice, so the draw must give up cleanly
        from jflow.sampling import _is_failing_with_positive_square

        product = builtin_lattice("product_curves")
        vec = random_rational_class(make_rng(4), product, tries=50,
                                    predicate=_is_failing_with_positive_square)
        assert vec is None

    def test_rational_class_matches_fraction_loop(self):
        # the Fraction rejection loop that the integer pairings replaced:
        # the same draws and the same accepted classes, for both in-tree
        # predicates
        from jflow.sampling import _is_failing_with_positive_square

        def fraction_loop(rng, lattice, accept):
            for _ in range(400):
                den = int(rng.integers(0, 4)) + 1
                nums = rng.integers(-5, 6, size=lattice.rank)
                vec = tuple(Fraction(int(x), den) for x in nums)
                if any(vec) and accept(nakai_test(lattice, vec)):
                    return vec
            return None

        def failing(rep):
            return (not rep.passed and rep.square > 0
                    and rep.reference_product > 0)

        routes = ((random_rational_class, lambda rep: rep.passed),
                  (lambda rng, lat: random_rational_class(
                      rng, lat, predicate=_is_failing_with_positive_square),
                   failing))
        for name in ("blowup_p2_1", "blowup_p2_2", "product_curves"):
            lattice = builtin_lattice(name)
            for seed in range(8):
                for draw, accept in routes:
                    new_rng, old_rng = make_rng(seed), make_rng(seed)
                    for _ in range(3):
                        assert draw(new_rng, lattice) == fraction_loop(
                            old_rng, lattice, accept)
                    assert new_rng.integers(1 << 60) == old_rng.integers(
                        1 << 60)


# (n, mode, points, bands): every layout of n = 1, 2, 3 at bands 1-3 but the
# six-axis one, whose 262,144 cells pass the mode cap at band 1
MODE_TABLE_GRIDS = [
    (1, "invariant", 16, (1, 2, 3)),
    (1, "full", 16, (1, 2, 3)),
    (2, "invariant", 16, (1, 2, 3)),
    (2, "full", 8, (1, 2, 3)),
    (3, "invariant", 8, (1, 2, 3)),
]


class TestModeTable:
    """The cached wavevector table and the stacked trig sum against the
    per-mode loop they replaced: bit-identical potentials and draws."""

    @staticmethod
    def assert_same_draws(grid, chi0, band, deriv, seed=0, calls=2):
        new_rng, old_rng = make_rng(seed, band), make_rng(seed, band)
        for _ in range(calls):
            new = random_admissible_potential(new_rng, grid, chi0, band=band,
                                              deriv=deriv)
            old = admissible_potential_loop(old_rng, grid, chi0, band=band,
                                            deriv=deriv)
            assert new.tobytes() == old.tobytes()
        np.testing.assert_equal(new_rng.bit_generator.state,
                                old_rng.bit_generator.state)

    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("n, mode, points, bands", MODE_TABLE_GRIDS)
    def test_bitwise_equal_to_per_mode_loop(self, n, mode, points, bands,
                                            deriv):
        grid = TorusGrid(n=n, points=points, mode=mode)
        chi0 = np.diag(np.linspace(1.5, 1.0, n))
        for band in bands:
            self.assert_same_draws(grid, chi0, band, deriv)

    def test_one_mode_per_block_bitwise_equal(self, monkeypatch,
                                              cosine_sizes):
        # a block budget below one field's cells puts each mode in a block
        # of its own, as on any grid of more than _BLOCK_CELLS cells; the
        # derivative mode changes only the margin's Hessian, which the
        # cases above cover
        grid = TorusGrid(n=2, points=8, mode="full")
        monkeypatch.setattr(torus, "_BLOCK_CELLS", 8**4 - 1)
        self.assert_same_draws(grid, np.diag([2.0, 1.0]), 1, "fd4", calls=1)
        assert cosine_sizes == [8**4] * 40 * 2

    def test_blocks_of_modes_keep_the_order(self, monkeypatch, cosine_sizes):
        # twelve modes in blocks of five, five and two; the per-mode oracle
        # takes one cosine per cell at a time
        grid = TorusGrid(n=2, points=16)
        budget = 5 * 16 * 16 + 3
        monkeypatch.setattr(torus, "_BLOCK_CELLS", budget)
        for deriv in ("fd4", "spectral"):
            self.assert_same_draws(grid, np.eye(2), 2, deriv, seed=3)
        assert max(cosine_sizes) <= budget
        draw = [5 * 256, 5 * 256, 2 * 256] + [256] * 12
        assert cosine_sizes == draw * 2 * 2

    def test_table_matches_representatives(self):
        for naxes in (1, 2, 3, 4):
            for band in (1, 2, 3):
                reps = representatives_loop(naxes, band)
                kvecs, denom = _mode_table(naxes, band)
                assert [tuple(k) for k in kvecs.tolist()] == reps
                assert denom.tolist() == [1.0 + sum(c * c for c in k)
                                          for k in reps]
        assert _mode_table(3, 2)[0] is _mode_table(3, 2)[0]

    def test_cached_table_is_read_only(self):
        kvecs, denom = _mode_table(2, 2)
        with pytest.raises(ValueError):
            kvecs[0, 0] = 7
        with pytest.raises(ValueError):
            denom[0] = 1.0
        with pytest.raises(ValueError):
            denom.sort()


class TestSuites:
    def test_conditions_suite_passes(self):
        report = suite_conditions(seed=42, samples=300, dims=(2, 3),
                                  cone_dims=(2, 3))
        assert report["passed"]
        assert report["counterexamples"] == []
        for stats in report["per_dim"].values():
            assert stats["chain_violations"] == 0
            assert stats["cone_disagreements"] == 0
            assert 0 < stats["c1_pass"]

    def test_conditions_fault_detected(self):
        report = suite_conditions(seed=42, samples=2000, dims=(2, 3),
                                  cone_dims=(), fault="c2-sign")
        assert not report["passed"]
        assert report["counterexamples"]
        props = {c["property"] for c in report["counterexamples"]}
        assert props & {"c2-implies-c3", "n2-verdict-equality"}

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            suite_conditions(seed=1, samples=10, fault="c3-sign")

    def test_functionals_suite_passes(self):
        report = suite_functionals(seed=42, count=12)
        assert report["passed"]
        assert report["failure_count"] == 0
        assert report["gaps"]["ie_routes"] <= 1e-8
        assert report["gaps"]["entropy_min"] >= -1e-6
        assert report["gaps"]["sandwich_low"] >= -1e-12

    def test_functionals_suite_builds_four_metrics_per_block(self,
                                                            monkeypatch):
        # one block of 64 fields: the metric, the second Radau node of its
        # one bundle, and the shifted tenth with its own second node
        builds = []
        init = torus.MetricField.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(torus.MetricField, "__init__", counting_init)
        assert suite_functionals(0, count=64)["passed"]
        assert len(builds) == 4

    def test_functionals_count_validated(self):
        with pytest.raises(ValueError):
            suite_functionals(seed=1, count=0)

    def test_cone_suite_passes(self):
        report = suite_cone(seed=42, count=30)
        assert report["passed"]
        assert report["identity_failures"] == 0
        assert report["verify_failures"] == 0
        assert report["no_certificate"] == 0
        assert report["certificates"] > 0
        assert report["product_always_kahler"]

    def test_run_property_suites_sizes_validated(self):
        with pytest.raises(ValueError):
            run_property_suites(1, sizes={"flow": 10})

    @pytest.mark.parametrize("size", [0, -3])
    @pytest.mark.parametrize("suite", ["conditions", "functionals", "cone"])
    def test_suite_sizes_below_one_rejected(self, suite, size):
        sizes = {"conditions": 1, "functionals": 1, "cone": 1, suite: size}
        with pytest.raises(ValueError, match="must be at least 1"):
            run_property_suites(0, sizes=sizes)

    @pytest.mark.parametrize("sizes", [{"cone": 0}, {"functionals": 100_001}])
    def test_suite_sizes_refused_before_any_suite_runs(self, monkeypatch,
                                                       sizes):
        # every size is checked against 1..MAX_SUITE_SIZE = 100,000 before
        # the conditions suite, which runs first, can start
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the sizes were checked")

        monkeypatch.setattr(sampling, "suite_conditions", no_suite)
        name, size = next(iter(sizes.items()))
        with pytest.raises(ValueError, match=f"{name} size must be at least 1 "
                           f"and at most 100000, not {size}"):
            run_property_suites(0, sizes=sizes)

    def test_report_digest_deterministic(self):
        sizes = {"conditions": 200, "functionals": 5, "cone": 20}
        a = run_property_suites(42, sizes=sizes)
        b = run_property_suites(42, sizes=sizes)
        assert canonical_json(a) == canonical_json(b)
        assert report_digest(a) == report_digest(b)
        assert a["all_passed"]

    def test_cone_suite_digest_pinned(self):
        # exact arithmetic and integer Philox draws only, so unlike the
        # full proptest digest this one does not depend on the platform's
        # floating point
        assert report_digest(suite_cone(0, count=200)) == (
            "fdadaa71bff04820260b4195bf77f0a2de1159addf0eb7f3d52948961db2ae2f")

    def test_float_suite_digests_pinned(self):
        # these read floating point (pencils, grid functionals), so a
        # different BLAS or CPU may move them; a refactor that keeps the
        # arithmetic must not.  The functionals pin moved once, when the
        # energies left the mixed-density expansion for the exact node
        # route: the I^E route gap, ie_min and the Jhat shift gap moved by
        # rounding, and every verdict stayed.  The conditions pin moved
        # once, when the digest left out the two kernel-noise fields
        assert report_digest(suite_functionals(0, count=200)) == (
            "54afe1c51d44933abf2ade07af2f7a747dbded8f36fa8683bd9f9b06688120ae")
        assert report_digest(suite_conditions(0, samples=2000)) == (
            "3527f145335ad8234b55c3c2c6a7fd47a88fd68d6dd00e1794214fb2f793eee2")

    @pytest.mark.parametrize("key, digest_moves", [
        ("spectrum_gap_max", False), ("cone_min_abs_margin", False),
        ("c1_pass", True)])
    def test_digest_leaves_out_kernel_noise_only(self, key, digest_moves):
        # a full report and its conditions suite alone hash the same when
        # only a noise field moves; the report itself keeps the field
        report = run_property_suites(
            0, sizes={"conditions": 50, "functionals": 1, "cone": 1})
        moved = json.loads(canonical_json(report))
        moved["suites"]["conditions"]["per_dim"]["2"][key] += 1
        assert canonical_json(moved) != canonical_json(report)
        for a, b in ((moved, report), (moved["suites"]["conditions"],
                                       report["suites"]["conditions"])):
            assert (report_digest(a) != report_digest(b)) == digest_moves

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="OPENBLAS_CORETYPE names x86 kernels")
    def test_conditions_digest_independent_of_blas_kernel(self):
        # OpenBLAS kernels round the complex Wishart products of the pencil
        # draws differently; only the two noise fields follow them
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("from jflow.sampling import report_digest, suite_conditions; "
                "print(report_digest(suite_conditions(0, samples=2000)))")
        cores, digests = set(), set()
        for core in ("Haswell", "Nehalem", "Prescott"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core,
                       OPENBLAS_VERBOSE="2", PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  timeout=120, check=True)
            cores.update(re.findall(r"Core: (\w+)",
                                    proc.stdout + proc.stderr))
            digests.add(proc.stdout.split()[-1])
        assert len(cores) >= 2, cores
        assert digests == {
            "3527f145335ad8234b55c3c2c6a7fd47a88fd68d6dd00e1794214fb2f793eee2"}

    def test_report_digest_seed_sensitivity(self):
        sizes = {"conditions": 100, "functionals": 2, "cone": 10}
        a = run_property_suites(42, sizes=sizes)
        b = run_property_suites(43, sizes=sizes)
        assert report_digest(a) != report_digest(b)

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json(
            {"a": [1, 2], "b": 1}
        )

    def test_fault_propagates_to_combined_report(self):
        sizes = {"conditions": 2000, "functionals": 1, "cone": 2}
        report = run_property_suites(42, sizes=sizes, fault="c2-sign")
        assert report["fault"] == "c2-sign"
        assert not report["all_passed"]
        assert FAULTS == ("c2-sign",)


class TestConditionBlocks:
    """suite_conditions draws, builds and reduces its pencils in blocks of
    _BLOCK_CELLS matrix entries, replaying each block's saved generator
    states: the report may not depend on the block size, and its memory
    does not grow with the sample count."""

    CASES = ({"samples": 1500}, {"samples": 7},
             {"samples": 1500, "fault": "c2-sign"})

    def reports(self) -> list:
        return [canonical_json(suite_conditions(0, **case))
                for case in self.CASES]

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        default = self.reports()
        # the fault's counterexamples reach past the first block of every
        # budget below, so their global sample indices are compared too
        faulty = json.loads(default[-1])["counterexamples"]
        assert max(c["sample_index"] for c in faulty) >= 9
        # one pencil per block, then blocks of 9, 4, 2 and 1 for n = 2...5
        for cells in (1, 37):
            monkeypatch.setattr(sampling, "_BLOCK_CELLS", cells)
            assert self.reports() == default

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blocks_of_pairs_are_the_whole_batch(self, n):
        count = 23
        for block in (1, 4, count):
            new_rng, old_rng = make_rng(9, n), make_rng(9, n)
            blocks = list(sampling._positive_pair_blocks(new_rng, n, count,
                                                         block))
            starts = range(0, count, block)
            assert [rows for rows, _, _ in blocks] == [
                slice(lo, min(lo + block, count)) for lo in starts]
            whole = random_positive_pair_batch(old_rng, n, count)
            for part, batch in zip(list(zip(*blocks))[1:], whole):
                assert np.concatenate(part).tobytes() == batch.tobytes()
            np.testing.assert_equal(new_rng.bit_generator.state,
                                    old_rng.bit_generator.state)

    def test_memory_does_not_grow_with_the_sample_count(self):
        def peak(samples: int) -> int:
            tracemalloc.start()
            try:
                suite_conditions(0, samples=samples, dims=(4,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # four (samples, 4, 4) normal arrays, which draws held whole would
        # add; the per-sample results (spectra, traces, margins) stay below
        # a tenth of them
        raw = 4 * (16_000 - 4_000) * 16 * 8
        assert peak(16_000) - peak(4_000) <= 0.1 * raw
