"""Flow driver: stepping, verdicts, monitors, series output."""

from dataclasses import replace

import numpy as np
import pytest

from jflow import flow
from jflow import (
    CSV_COLUMNS,
    FlowSetup,
    SingularFormError,
    TorusGrid,
    blowup_monitor,
    cosine_mode,
    dt_control,
    monitor_max_principle,
    refinement_shrink,
    run,
    step,
    write_series_csv,
)
from jflow.flow import (
    MonitorRecord,
    RunResult,
    _dissipation_rate,
    _jhat_monotone,
    _sample,
    flow_state,
)
from jflow.sampling import make_rng, random_admissible_potential
from oracles import wedge_trace_consistency


def parabolic_dt(setup, state):
    """The fixed step 0.9 dx^2 / (2 max lambda_max(h)) that the stage
    algebra tests step at, in the arithmetic of the former step bound."""
    h = state.metric.h_matrix(setup.omega)
    top = float(np.linalg.eigvalsh(h)[..., -1].max()) / setup.grid.n
    return 0.9 * setup.grid.dx**2 / (2.0 * setup.grid.n * top)


def small_setup(**overrides):
    grid = TorusGrid(n=1, points=16, mode="invariant")
    defaults = dict(grid=grid, omega=np.eye(1), chi0=2.0 * np.eye(1))
    defaults.update(overrides)
    return FlowSetup(**defaults)


class TestFlowSetup:
    def test_class_constant(self):
        grid = TorusGrid(n=2, points=16)
        setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=2.0 * np.eye(2))
        assert setup.c == pytest.approx(0.5)
        assert setup.omega_scale == 1.0

    def test_normalize_rescales_to_unit_class(self):
        grid = TorusGrid(n=2, points=16)
        setup = FlowSetup(grid=grid, omega=np.diag([3.0, 1.0]),
                          chi0=np.diag([2.0, 2.0]), normalize=True)
        assert setup.grid.n * setup.c == pytest.approx(1.0, rel=1e-14)
        assert setup.omega_scale == pytest.approx(0.5)
        assert np.allclose(setup.omega, np.diag([1.5, 0.5]))

    @pytest.mark.parametrize("forms, name", [
        ((np.diag([1.0, -1.0]), np.eye(2)), "omega"),
        ((np.eye(2), np.diag([1.0, -0.5])), "chi0"),
        ((np.eye(2), np.zeros((2, 2))), "chi0")])
    def test_forms_must_be_positive_and_are_named(self, forms, name):
        # no grid is involved: the refusal names the form, not the grid
        grid = TorusGrid(n=2, points=16)
        with pytest.raises(SingularFormError,
                           match=f"form '{name}' is not positive definite"):
            FlowSetup(grid=grid, omega=forms[0], chi0=forms[1])

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            small_setup(sample_interval=0)
        with pytest.raises(ValueError):
            small_setup(t_max=0.0)


class TestStepping:
    def test_dt_control_flat_example(self, monkeypatch):
        # chi = omega = I in two variables gives h = I, so on an invariant
        # grid rho = s_max^2 / 4 and the ceiling is SAFETY * 2.785 * 4 /
        # s_max^2, with s_max the largest fd4 symbol on the grid.
        grid = TorusGrid(n=2, points=16)
        setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=np.eye(2))
        state = flow_state(setup, grid.zeros())
        k = np.arange(grid.points)
        s_max = np.max((8.0 * np.sin(k * grid.dx)
                        - np.sin(2.0 * k * grid.dx)) / (6.0 * grid.dx))
        assert dt_control(setup, state) == pytest.approx(
            0.9 * 2.785 * 4.0 / s_max**2, rel=1e-13
        )
        # SAFETY is read at call time
        monkeypatch.setattr(flow, "SAFETY", 0.5)
        assert dt_control(setup, state) == pytest.approx(
            0.5 * 2.785 * 4.0 / s_max**2, rel=1e-13
        )

    def test_dt_control_full_grid_doubles_rho(self):
        # on a full grid |w_a|^2 = s(k_x)^2 + s(k_y)^2 reaches 2 s_max^2
        grids = [TorusGrid(n=2, points=8, mode=mode)
                 for mode in ("invariant", "full")]
        ceilings = []
        for grid in grids:
            setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=np.eye(2))
            ceilings.append(dt_control(setup, flow_state(setup,
                                                         grid.zeros())))
        assert ceilings[1] == pytest.approx(ceilings[0] / 2.0, rel=1e-13)

    def test_step_error_estimate_is_fourth_order(self):
        # err = (dt/6) sup|k4 - k5| measures the local error of the
        # third-order companion, so halving dt divides it by about 16
        setup = small_setup()
        phi0 = (cosine_mode(setup.grid, [1], 0.2)
                + cosine_mode(setup.grid, [2], 0.1))
        state = flow_state(setup, phi0)
        dt = dt_control(setup, state) / 4.0
        ratio = step(setup, state, dt).err / step(setup, state, dt / 2.0).err
        assert 12.8 < ratio < 20.0

    def test_equilibrium_is_stationary(self):
        setup = small_setup()
        state = flow_state(setup, setup.grid.zeros())
        assert state.residual == pytest.approx(0.0, abs=1e-14)
        after = step(setup, state, 0.1)
        assert np.max(np.abs(after.phi)) < 1e-14
        assert after.diss == pytest.approx(0.0, abs=1e-16)

    def test_nan_ends_in_blowup(self, monkeypatch):
        # a NaN fails the metric's pivot test, so a NaN stage raises
        # SingularFormError like a positivity loss
        setup = small_setup()
        state = flow_state(setup, cosine_mode(setup.grid, [1], 0.2))
        phidot = state.phidot.copy()
        phidot[5] = np.nan
        with pytest.raises(SingularFormError):
            step(setup, replace(state, phidot=phidot), 1e-3)
        # and run ends on it as blow-up, sampling the last accepted state
        real_step, starts = flow.step, []

        def nan_fourth_step(setup, state, dt, *evaluate):
            starts.append(state)
            if len(starts) == 4:
                state = replace(state, phidot=phidot)
            return real_step(setup, state, dt, *evaluate)

        monkeypatch.setattr(flow, "step", nan_fourth_step)
        result = run(setup, state.phi)
        assert result.verdict == "blowup" and len(starts) == 4
        assert result.steps + result.rejected_steps == 3
        assert result.steps >= 1 and result.final is starts[-1]
        # the start, three whole steps and the NaN stage that raised
        assert result.evaluations == 1 + 4 * 3 + 1
        last = result.records[-1]
        assert (last.t, last.residual) == (starts[-1].t, starts[-1].residual)

    def test_linear_decay_rate(self):
        # In the linearized regime a single mode decays like
        # exp(-t s^2 / 16) for chi0 = 2 I_1 and omega = I_1, where s is the
        # stencil symbol: h = 1/4 and the mode eigenvalue is s^2 / 4.
        setup = small_setup()
        grid = setup.grid
        eps = 1e-5
        state = flow_state(setup, cosine_mode(grid, [1], eps))
        s = (8.0 * np.sin(grid.dx) - np.sin(2.0 * grid.dx)) / (6.0 * grid.dx)
        rate = s * s / 16.0
        horizon = 3.0
        dt = parabolic_dt(setup, state)
        nsteps = int(np.ceil(horizon / dt))
        dt = horizon / nsteps
        for _ in range(nsteps):
            state = step(setup, state, dt)
        expected = eps * np.exp(-rate * horizon)
        # read the mode amplitude from its Fourier bin: cell-centred
        # samples never reach the crest, so a grid max would be biased
        amplitude = 2.0 * np.abs(np.fft.rfft(state.phi.ravel())[1]) / grid.points
        assert amplitude == pytest.approx(expected, rel=1e-4)

    def test_dissipation_matches_jhat_drop(self):
        # d Jhat / dt = -n int phidot^2 det chi, so the accumulated
        # dissipation must equal the drop in Jhat between two states.
        from jflow import flow_functional_bundle

        def jhat(state):
            return flow_functional_bundle(state.metric, setup.omega)["Jhat"]

        setup = small_setup()
        state = flow_state(setup, cosine_mode(setup.grid, [1], 0.2))
        j0 = jhat(state)
        dt = parabolic_dt(setup, state)
        for _ in range(50):
            state = step(setup, state, dt)
        j1 = jhat(state)
        assert j0 - j1 == pytest.approx(state.diss, rel=1e-8)

    def test_positivity_loss_raises(self):
        setup = small_setup()
        state = flow_state(setup, cosine_mode(setup.grid, [1], 0.5))
        with pytest.raises(SingularFormError):
            step(setup, state, 1e6)

    def test_rhs_dissipation_nonnegative(self):
        setup = small_setup()
        state = flow_state(setup, cosine_mode(setup.grid, [1], 0.3))
        phidot, diss = state.phidot, _dissipation_rate(setup, state)
        assert diss >= 0.0
        want = (setup.c
                - state.metric.trace_with(setup.omega_factor) / setup.grid.n)
        assert np.max(np.abs(phidot - want)) < 1e-14

    def test_blowup_monitor_value(self):
        # phi = cos x with omega = I_1: |phi| + |Delta phi| peaks where both
        # terms align, at (1 + s^2/4) times the largest cosine sample, which
        # on a cell-centred grid is cos(dx/2) rather than 1.
        grid = TorusGrid(n=1, points=64)
        setup = FlowSetup(grid=grid, omega=np.eye(1), chi0=2.0 * np.eye(1))
        state = flow_state(setup, cosine_mode(grid, [1], 1.0))
        s = (8.0 * np.sin(grid.dx) - np.sin(2.0 * grid.dx)) / (6.0 * grid.dx)
        want = (1.0 + s * s / 4.0) * np.cos(grid.dx / 2.0)
        assert blowup_monitor(setup, state) == pytest.approx(want, rel=1e-12)


class TestRunVerdicts:
    def test_converges_to_flat(self):
        setup = small_setup(t_max=400.0)
        result = run(setup, cosine_mode(setup.grid, [1], 0.1))
        assert result.verdict == "converged"
        assert result.final.residual < setup.tol_converge
        assert result.jhat_monotone
        # the critical metric is the background itself here
        assert np.max(np.abs(result.final.metric.chi - 2.0)) < 1e-6

    def test_timeout_verdict(self):
        setup = small_setup(t_max=0.5)
        result = run(setup, cosine_mode(setup.grid, [1], 0.2))
        assert result.verdict == "timeout"
        assert result.final.t == 0.5

    def test_blowup_verdict_via_ceiling(self, monkeypatch):
        monkeypatch.setattr(flow, "BLOWUP_CEILING", 1e-3)
        setup = small_setup(t_max=10.0)
        result = run(setup, cosine_mode(setup.grid, [1], 0.2))
        assert result.verdict == "blowup"

    def test_positivity_loss_on_the_first_trial_step(self, monkeypatch):
        # 7 cos x1 leaves chi0 = 2 a margin of 1/4; at ten times the
        # stability ceiling the first trial step leaves the cone, and run
        # reports blow-up before any accepted step instead of retrying at
        # a smaller dt.  At the shipped SAFETY the same problem runs to
        # t_max.
        setup = small_setup(t_max=50.0)
        phi0 = cosine_mode(setup.grid, [1], 7.0)
        monkeypatch.setattr(flow, "SAFETY", 10.0)
        result = run(setup, phi0)
        assert result.verdict == "blowup"
        assert result.steps == 0 and result.rejected_steps == 0
        assert [r.t for r in result.records] == [0.0]
        assert result.final.t == 0.0
        monkeypatch.setattr(flow, "SAFETY", 0.9)
        shipped = run(setup, phi0)
        assert shipped.verdict == "timeout" and shipped.final.t == 50.0

    def test_blowup_after_accepted_steps_samples_the_last_state(
            self, monkeypatch):
        # the fourth trial step loses positivity, before the tenth accepted
        # step would have sampled; the run samples the last accepted state
        real_step = flow.step
        calls = []

        def failing_step(setup, state, dt, *evaluate):
            calls.append(state.t)
            if len(calls) == 4:
                raise SingularFormError("metric lost positivity on the grid")
            return real_step(setup, state, dt, *evaluate)

        monkeypatch.setattr(flow, "step", failing_step)
        setup = small_setup()
        result = run(setup, cosine_mode(setup.grid, [1], 0.2))
        assert result.verdict == "blowup"
        assert result.steps + result.rejected_steps == 3
        assert result.steps > 0
        # the fourth step raised before it evaluated a stage
        assert result.evaluations == 1 + 4 * 3
        assert len(result.records) == len(result.diss_totals) == 2
        last = result.records[-1]
        assert last.t == result.final.t == calls[-1] > 0.0
        assert last.residual == result.final.residual
        assert result.diss_totals[-1] == result.final.diss

    def test_immediate_convergence_at_equilibrium(self):
        setup = small_setup()
        result = run(setup, setup.grid.zeros())
        assert result.verdict == "converged"
        assert result.steps == 0
        assert len(result.records) == 1

    def test_deterministic_replay(self):
        setup = small_setup(t_max=2.0)
        phi0 = cosine_mode(setup.grid, [1], 0.2)
        a = run(setup, phi0)
        b = run(setup, phi0)
        assert a.steps == b.steps
        assert np.array_equal(a.final.phi, b.final.phi)
        for ra, rb in zip(a.records, b.records):
            assert ra.row() == rb.row()

    def test_records_carry_companions(self):
        setup = small_setup(t_max=1.0)
        result = run(setup, cosine_mode(setup.grid, [1], 0.2))
        assert len(result.diss_totals) == len(result.records)
        assert len(result.min_rel_eig) == len(result.records)
        assert np.all(np.diff(result.diss_totals) >= 0.0)


def descent_ratio(result):
    """Worst |dJhat/dt + dissipation rate| over criterion 5's tolerance."""
    jhat = np.array([r.Jhat for r in result.records])
    t = np.array([r.t for r in result.records])
    mismatch = np.abs(np.diff(jhat) + np.diff(result.diss_totals)) / np.diff(t)
    tol = 1e-4 * np.maximum(np.abs(jhat[1:]), 1e-7 * abs(jhat[0]))
    return float(np.max(mismatch / tol))


class TestControlledRun:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flow16_instance_passes_its_checks(self, seed):
        # the benchmark's flow16 instance under the error-controlled step
        from jflow.sampling import make_rng, random_admissible_potential

        grid = TorusGrid(n=2, points=16)
        setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=2.0 * np.eye(2),
                          deriv="fd4", sample_interval=10, tol_converge=1e-8)
        phi0 = random_admissible_potential(make_rng(seed, stream=7), grid,
                                           setup.chi0, band=2, amplitude=0.4)
        result = run(setup, phi0)
        assert result.verdict == "converged"
        assert descent_ratio(result) <= 1.0
        assert monitor_max_principle(result)["band_ok"]

    def test_max_steps_counts_accepted_steps(self):
        # the first step, taken at the ceiling, is too long for the error
        # test and is retried; only accepted steps are counted
        setup = small_setup(max_steps=20)
        phi0 = (cosine_mode(setup.grid, [1], 0.2)
                + cosine_mode(setup.grid, [3], 0.05))
        result = run(setup, phi0)
        assert result.verdict == "timeout"
        assert result.rejected_steps > 0
        assert result.steps == 20
        assert len(result.records) == 3

    def test_max_steps_is_a_hard_stop(self):
        # the cap falls between samples (sample_interval is 10); the run
        # stops at it and samples the state it stopped at
        setup = small_setup(max_steps=5)
        phi0 = (cosine_mode(setup.grid, [1], 0.2)
                + cosine_mode(setup.grid, [3], 0.05))
        result = run(setup, phi0)
        assert result.verdict == "timeout"
        assert result.steps == 5
        assert len(result.records) == 2
        assert result.records[-1].t == result.final.t

    def test_t_max_is_a_hard_stop(self):
        # the stability ceiling here is far above t_max, so the first step
        # is the one shortened to land on it
        setup = small_setup(t_max=1e-3)
        result = run(setup, cosine_mode(setup.grid, [1], 0.2))
        assert result.verdict == "timeout"
        assert result.final.t == 1e-3
        assert result.records[-1].t == 1e-3
        assert result.steps == 1

    def test_tolerance_near_rounding_needs_no_rejection_storm(self):
        # the error test floors sup|phidot| where rounding in k4 - k5
        # would otherwise be read as error and every step rejected
        setup = small_setup(tol_converge=1e-14)
        result = run(setup, cosine_mode(setup.grid, [1], 0.3))
        assert result.verdict == "converged"
        assert result.rejected_steps <= 2

    @staticmethod
    def _descent_defect(deriv, points):
        """|dJhat + dq| / |dJhat| over t in [0, 1] for a potential of two
        variables, stepped at the parabolic step."""
        from jflow import flow_functional_bundle

        grid = TorusGrid(n=2, points=points)
        setup = FlowSetup(grid=grid, omega=np.diag([1.0, 0.8]),
                          chi0=np.array([[2.0, 0.3], [0.3, 1.5]]),
                          deriv=deriv)
        phi0 = (cosine_mode(grid, [1, 0], 0.3)
                + cosine_mode(grid, [1, 1], 0.15, 0.4)
                + cosine_mode(grid, [0, 2], 0.05))
        state = flow_state(setup, phi0)

        def jhat(st):
            return flow_functional_bundle(st.metric, setup.omega)["Jhat"]

        j0 = jhat(state)
        nsteps = int(np.ceil(1.0 / parabolic_dt(setup, state)))
        for _ in range(nsteps):
            state = step(setup, state, 1.0 / nsteps)
        drop = jhat(state) - j0
        return abs(drop + state.diss) / abs(drop)

    def test_descent_defect_two_dimensional_fd4(self):
        # fd4 sums by parts exactly but breaks the product rule, so the
        # flow is the gradient flow of the discrete Jhat only up to a
        # defect of fourth order in dx
        coarse = self._descent_defect("fd4", 16)
        fine = self._descent_defect("fd4", 32)
        assert fine * 8.0 <= coarse

    @pytest.mark.parametrize("points", [16, 32])
    def test_descent_defect_two_dimensional_spectral(self, points):
        assert self._descent_defect("spectral", points) <= 1e-8


class TestMonotoneCheck:
    def test_accepts_decreasing(self):
        assert _jhat_monotone([3.0, 2.0, 1.0])
        assert _jhat_monotone([1.0])

    def test_accepts_rounding_noise(self):
        assert _jhat_monotone([1.0, 1.0 + 1e-12])

    def test_rejects_growth(self):
        assert not _jhat_monotone([1.0, 1.1])


def fake_result(lam_pairs, eig_mins=None):
    records = []
    for lam_min, lam_max in lam_pairs:
        records.append(MonitorRecord(
            t=0.0, residual=0.0, lam_min=lam_min, lam_max=lam_max, J=0.0,
            I=0.0, Jhat=0.0, IE=0.0, JE=0.0, entropy=0.0, mabuchi=0.0,
            blowup=0.0, sup_phi=0.0, inf_phi=0.0, dt=0.0))
    mins = None if eig_mins is None else np.asarray(eig_mins, dtype=float)
    return RunResult(verdict="converged", records=records, final=None,
                     steps=0, wall_time_s=0.0, jhat_monotone=True,
                     diss_totals=np.zeros(len(records)), min_rel_eig=mins)


class TestMaxPrincipleMonitor:
    def test_clean_band(self):
        result = fake_result([(1.0, 2.0), (1.2, 1.8), (1.4, 1.6)],
                             eig_mins=[0.6, 0.7, 0.8])
        mon = monitor_max_principle(result)
        assert mon["band"] == (1.0, 2.0)
        assert mon["band_violation"] == 0.0
        assert mon["band_ok"]
        assert mon["chi_lower_bound"] == pytest.approx(0.5)
        assert mon["chi_bound_violation"] == 0.0

    def test_detects_escape(self):
        result = fake_result([(1.0, 2.0), (0.9, 2.3)])
        mon = monitor_max_principle(result)
        assert mon["band_violation"] == pytest.approx(0.3)
        assert not mon["band_ok"]

    def test_detects_eigenvalue_dip(self):
        result = fake_result([(1.0, 2.0), (1.0, 2.0)], eig_mins=[0.5, 0.4])
        mon = monitor_max_principle(result)
        assert mon["chi_bound_violation"] == pytest.approx(0.1)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            monitor_max_principle(fake_result([]))

    def test_refinement_shrink_rules(self):
        assert refinement_shrink(1e-3, 2e-4)
        assert not refinement_shrink(1e-3, 5e-4)
        # both magnitudes at rounding level pass regardless of their ratio
        assert refinement_shrink(1e-14, 9e-14)
        assert refinement_shrink(0.0, 0.0)


class TestSeriesOutput:
    def test_csv_header_and_roundtrip(self, tmp_path):
        setup = small_setup(t_max=1.0)
        result = run(setup, cosine_mode(setup.grid, [1], 0.2))
        target = tmp_path / "series.csv"
        write_series_csv(target, result.records)
        lines = target.read_text(encoding="ascii").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0].startswith("t,residual,lam_min,lam_max,J,I,Jhat")
        assert len(lines) == len(result.records) + 1
        back = [float(v) for v in lines[1].split(",")]
        assert tuple(back) == result.records[0].row()

    def test_wedge_trace_consistency(self):
        grid = TorusGrid(n=2, points=12)
        setup = FlowSetup(grid=grid, omega=np.diag([1.0, 0.8]),
                          chi0=np.diag([2.0, 2.5]))
        phi0 = cosine_mode(grid, [1, 0], 0.3) + cosine_mode(grid, [1, 1], 0.1)
        state = flow_state(setup, phi0)
        assert wedge_trace_consistency(setup, state) < 1e-12

    def test_residual_of_matches_state(self):
        setup = small_setup()
        state = flow_state(setup, cosine_mode(setup.grid, [1], 0.2))
        lam = state.metric.trace_with(setup.omega_factor)
        want = float(np.max(np.abs(setup.c - lam / setup.grid.n)))
        assert want == state.residual


class TestFieldBuilds:
    """A state's fields are built once; its consumers read them."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        import sys

        import jflow.torus

        original = getattr(jflow.torus, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("jflow") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _state():
        grid = TorusGrid(n=2, points=12)
        setup = FlowSetup(grid=grid, omega=np.diag([1.0, 0.8]),
                          chi0=np.diag([2.0, 2.5]))
        phi0 = cosine_mode(grid, [1, 0], 0.3) + cosine_mode(grid, [1, 1], 0.1)
        return setup, flow_state(setup, phi0)

    def test_sample_reads_state_fields(self, monkeypatch):
        from jflow import MetricField

        setup, state = self._state()
        builds = self._count_calls(monkeypatch, "metric_field")
        hessians = self._count_calls(monkeypatch, "complex_hessian_of")
        original = MetricField.__init__
        fields = []

        def counted(metric, *args, **kwargs):
            fields.append(args)
            original(metric, *args, **kwargs)

        monkeypatch.setattr(MetricField, "__init__", counted)
        rec, _ = _sample(setup, state, 0.1)
        # the functionals read the state's field, and the exact quadrature
        # builds one metric per interior node (t = 1/3 at n = 2) from the
        # state's Hessian
        assert builds == [] and hessians == []
        metric = state.metric
        assert len(fields) == 1
        grid, chi0, phi, hessian, deriv = fields[0]
        t = 1.0 / 3.0
        assert (grid, deriv) == (metric.grid, metric.deriv)
        assert chi0 is metric.chi0
        assert np.abs(phi - t * metric.phi).max() < 1e-15
        assert np.abs(hessian - t * metric.hessian).max() < 1e-15
        assert rec.mabuchi == rec.entropy

    def test_step_traces_four_times(self, monkeypatch):
        from jflow import MetricField

        setup, state = self._state()
        dt = parabolic_dt(setup, state)
        original = MetricField.trace_with
        traces = []

        def counted(metric, factor):
            traces.append(metric)
            return original(metric, factor)

        monkeypatch.setattr(MetricField, "trace_with", counted)
        builds = self._count_calls(monkeypatch, "metric_field")
        step(setup, state, dt)
        assert len(traces) == 4
        assert len(builds) == 4

    def test_run_counts_every_evaluation(self, monkeypatch):
        # the seed-0 flow16_converge instance of perfbench: each flow_state
        # call builds one metric, so evaluations is the traced
        # metric_field count, rejected steps included
        grid = TorusGrid(n=2, points=16, mode="invariant")
        setup = FlowSetup(grid=grid, omega=np.eye(2), chi0=2.0 * np.eye(2))
        phi0 = random_admissible_potential(make_rng(0, stream=7), grid,
                                           setup.chi0, band=2, amplitude=0.4)
        builds = self._count_calls(monkeypatch, "metric_field")
        result = run(setup, phi0)
        assert result.verdict == "converged" and result.rejected_steps > 0
        assert result.evaluations == len(builds) == 605
        assert result.evaluations == 1 + 4 * (result.steps
                                              + result.rejected_steps)

    def test_step_makes_no_lapack_factor_or_solve(self, monkeypatch):
        setup, state = self._state()
        dt = parabolic_dt(setup, state)
        calls = []
        for name in ("cholesky", "solve"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        step(setup, state, dt)
        assert calls == []
