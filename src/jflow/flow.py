"""Time integration of the trace-form parabolic flow on the torus.

The evolution is d(phi)/dt = c - (1/n) Lambda_{chi_phi} omega with constant
background forms omega and chi0.  Stepping is classical four-stage
Runge-Kutta under two limits.  The stability ceiling dt_control is
safety * 2.785 / rho, where rho bounds the frozen-coefficient symbol of the
linearization and 2.785 is where the RK4 stability region crosses the
negative real axis; refreshed at every sample, it is the largest step the
run takes.  Under it an accuracy controller sizes each step from the
embedded third-order estimate of its local error (see step and run), which
reads phi alone.

Alongside phi the stepper integrates the dissipation
q(t) = int_0^t n * (int phidot^2 det chi dV) ds with the same RK4 weights,
reusing the stage evaluations.  The descent identity d(Jhat)/dt = -dq/dt can
then be checked between any two samples without quadrature error from the
time axis dominating; the controller never reads Jhat or q, so that check
stays independent of it.

A monitor sample integrates no path: J, I and Jhat come in closed form and
the Mabuchi column is the entropy (see _sample).
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .hermitian import SettingError, SingularFormError, as_matrix
from .torus import (
    MetricField,
    TorusGrid,
    class_constant_c,
    form_factor,
    integrate_top,
    laplacian_w,
    metric_field,
    symbol_mesh,
)
from .functionals import eval_IE_JE, eval_entropy, flow_functional_bundle

SINGULARITY_NOTE = (
    "Flat-torus limitation: on a flat torus every translation-invariant "
    "Kahler class satisfies the cone condition, because there are no "
    "subvarieties of negative self-intersection to obstruct it. Genuine "
    "finite- or infinite-time singularity formation of this flow over such "
    "a subvariety therefore cannot be reproduced in this discretization. "
    "The blow-up monitor sup(|phi| + |Laplacian_omega phi|) and the exact "
    "surface-lattice divisor certificates in the cone module are the "
    "desk-scale substitutes for that regime."
)

CSV_COLUMNS = (
    "t", "residual", "lam_min", "lam_max", "J", "I", "Jhat", "IE", "JE",
    "entropy", "mabuchi", "blowup", "sup_phi", "inf_phi", "dt",
)

# where the RK4 stability region meets the negative real axis (Hairer &
# Wanner, Solving ODEs II, IV.2), rounded down
RK4_REAL_STABILITY = 2.785

# a step is accepted when its local error estimate is at most this
# fraction of dt * sup|phidot|
STEP_ERROR_TOL = 1e-4

# monitor violation magnitudes at or below this are rounding, and count
# as zero
VIOLATION_FLOOR = 1e-13


class NumericalFailureError(RuntimeError):
    """A step produced non-finite values."""


@dataclass(frozen=True)
class FlowSetup:
    """Problem data and policy knobs for one flow run.

    normalize=True rescales omega so that n * c = 1 (the standard gauge for
    the convergence conditions); the factor applied is kept for the audit
    trail.  c and omega_factor, the Cholesky factor every trace reads, are
    derived from the (rescaled) forms.  Tolerances follow the module
    defaults: convergence at sup residual 1e-8, sampling every 10 accepted
    steps.  t_max and max_steps are hard stops: run ends no later than
    t = t_max (its last step is shortened to land there) and after at most
    max_steps accepted steps, whichever comes first.  safety is the
    fraction of the RK4 stability ceiling (dt_control) capping every step.
    """

    grid: TorusGrid
    omega: np.ndarray
    chi0: np.ndarray
    deriv: str = "fd4"
    normalize: bool = False
    tol_converge: float = 1e-8
    t_max: float = 1e3
    safety: float = 0.9
    sample_interval: int = 10
    blowup_ceiling: float = 1e6
    max_steps: int = 10_000_000
    c: float = field(init=False)
    omega_scale: float = field(init=False)
    omega_factor: np.ndarray = field(init=False)

    def __post_init__(self):
        om = as_matrix(self.omega)
        ch = as_matrix(self.chi0)
        c0 = class_constant_c(om, ch)
        scale = 1.0
        if self.normalize:
            scale = 1.0 / (self.grid.n * c0)
            om = om * scale
            c0 = class_constant_c(om, ch)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "chi0", ch)
        object.__setattr__(self, "c", c0)
        object.__setattr__(self, "omega_scale", scale)
        object.__setattr__(self, "omega_factor", form_factor(om))
        if not self.t_max > 0.0:
            raise SettingError("t_max", "must be positive")
        if not (0.0 < self.safety <= 1.0):
            raise SettingError("safety", "must lie in (0, 1]")
        if self.sample_interval < 1:
            raise SettingError("sample_interval", "must be at least 1")


@dataclass(frozen=True)
class FlowState:
    """One point of a trajectory: potential, its fields, diagnostics.

    metric and lam = Lambda_chi omega are built once, by _make_state, and
    every consumer of the state reads them: the residual, the next step's
    first RK4 stage, and every monitor and functional of a sample; phi is
    metric.phi.  diss is the accumulated n * int phidot^2 det chi dV ds from
    t = 0, and err the local error estimate of the step that produced it.
    """

    t: float
    metric: MetricField
    lam: np.ndarray
    residual: float
    diss: float = 0.0
    err: float = 0.0

    @property
    def phi(self) -> np.ndarray:
        return self.metric.phi


@dataclass(frozen=True)
class MonitorRecord:
    """One sampled row of the flow time series (the CSV column set); dt is
    the step proposed after the sample, never above the ceiling."""

    t: float
    residual: float
    lam_min: float
    lam_max: float
    J: float
    I: float
    Jhat: float
    IE: float
    JE: float
    entropy: float
    mabuchi: float
    blowup: float
    sup_phi: float
    inf_phi: float
    dt: float

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


@dataclass
class RunResult:
    verdict: str
    records: list
    final: FlowState
    steps: int
    wall_time_s: float
    jhat_monotone: bool
    # per-sample companions to records (same length):
    diss_totals: np.ndarray = None
    min_rel_eig: np.ndarray = None
    # steps retried with a smaller dt; not counted in steps
    rejected_steps: int = 0


def flow_rhs(setup: FlowSetup, metric: MetricField, lam: np.ndarray) -> tuple:
    """Pointwise velocity field and its dissipation integral, given the
    trace field lam = Lambda_chi omega of the metric.

    Returns (phidot, n * int phidot^2 det chi dV).
    """
    phidot = setup.c - lam / setup.grid.n
    dens = integrate_top(phidot * phidot * metric.det(), setup.grid)
    return phidot, setup.grid.n * dens


def residual_of(setup: FlowSetup, lam: np.ndarray) -> float:
    """sup |c - lam/n| for the trace field lam = Lambda_chi omega."""
    return float(np.max(np.abs(setup.c - lam / setup.grid.n)))


def _make_state(setup: FlowSetup, t: float, phi: np.ndarray,
               diss: float = 0.0) -> FlowState:
    """Build the state's metric and trace field once; raises
    SingularFormError if phi is not admissible."""
    metric = metric_field(setup.grid, setup.chi0, phi, setup.deriv)
    lam = metric.trace_with(setup.omega_factor)
    return FlowState(t=t, metric=metric, lam=lam,
                     residual=residual_of(setup, lam), diss=diss)


def initial_state(setup: FlowSetup, phi0: np.ndarray) -> FlowState:
    """Validates admissibility of phi0; raises SingularFormError if lost."""
    return _make_state(setup, 0.0, np.array(phi0, dtype=float))


def dt_control(setup: FlowSetup, state: FlowState) -> float:
    """RK4 stability ceiling from the linearization at the state.

    The linearization (1/n) h^{ab} d^2/dz_a dzbar_b, h = chi^{-1} omega
    chi^{-1}, has with frozen coefficients the symbol
    -(1/(4n)) Re sum_ab h_ab w_a conj(w_b) (w_a from torus.symbol_mesh).
    Its modulus is at most rho = (m/4) s_max^2 max_x lambda_max(h), with
    s_max = max |derivative_symbol| and m = 1 on invariant and 2 on full
    grids.  Returns setup.safety * 2.785 / rho.
    """
    h = state.metric.h_matrix(setup.omega)
    top = float(np.linalg.eigvalsh(h)[..., -1].max())
    # each w_a varies along its own axes, so max_k |w|^2 is a sum of maxima
    wsq = sum(float(np.max((w * np.conj(w)).real))
              for w in symbol_mesh(setup.grid, setup.deriv))
    rho = top * wsq / (4.0 * setup.grid.n)
    return setup.safety * RK4_REAL_STABILITY / rho


def step(setup: FlowSetup, state: FlowState, dt: float) -> FlowState:
    """One RK4 update of (phi, dissipation accumulator).

    The new state's err is (dt/6) sup|k4 - k5|, with k5 = phidot(phi_new)
    the next step's first stage: the gap to the third-order companion with
    weights (1/6, 1/3, 1/3, 0, 1/6), so the estimate costs no extra stage.

    Raises SingularFormError if any stage or the result loses positivity
    (the caller reports it as blow-up) and NumericalFailureError on NaN.
    """

    def stage(phi):
        metric = metric_field(setup.grid, setup.chi0, phi, setup.deriv)
        return flow_rhs(setup, metric, metric.trace_with(setup.omega_factor))

    k1, d1 = flow_rhs(setup, state.metric, state.lam)
    k2, d2 = stage(state.phi + 0.5 * dt * k1)
    k3, d3 = stage(state.phi + 0.5 * dt * k2)
    k4, d4 = stage(state.phi + dt * k3)
    phi_new = state.phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    diss_new = state.diss + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    if not np.all(np.isfinite(phi_new)):
        raise NumericalFailureError(f"non-finite potential at t={state.t}")
    new = _make_state(setup, state.t + dt, phi_new, diss_new)
    k5 = setup.c - new.lam / setup.grid.n
    return replace(new, err=(dt / 6.0) * float(np.max(np.abs(k4 - k5))))


def _step_factor(err: float, tol: float) -> float:
    """Next-step factor of a third-order estimate, clipped to [0.2, 2]."""
    if err == 0.0:
        return 2.0
    return min(2.0, max(0.2, 0.9 * (tol / err) ** (1.0 / 3.0)))


def blowup_monitor(setup: FlowSetup, state: FlowState) -> float:
    """sup over the grid of |phi| + |Laplacian_omega phi|."""
    lap = laplacian_w(setup.omega, state.metric.hessian)
    return float(np.max(np.abs(state.phi) + np.abs(lap)))


def _sample(setup: FlowSetup, state: FlowState, dt: float) -> tuple:
    """MonitorRecord plus the minimum relative eigenvalue of chi vs omega.

    Every functional and monitor reads the state's fields; none rebuilds
    the metric of phi.
    """
    metric, phi = state.metric, state.phi
    bundle = flow_functional_bundle(metric, setup.omega)
    ie, je = eval_IE_JE(metric)
    # Chen-Tian with Ric(chi0) = Rbar = 0 (flat torus): Mabuchi = entropy
    entropy = eval_entropy(metric)
    rec = MonitorRecord(
        t=state.t,
        residual=state.residual,
        lam_min=float(state.lam.min()),
        lam_max=float(state.lam.max()),
        J=bundle["J"],
        I=bundle["I"],
        Jhat=bundle["Jhat"],
        IE=ie,
        JE=je,
        entropy=entropy,
        mabuchi=entropy,
        blowup=blowup_monitor(setup, state),
        sup_phi=float(phi.max()),
        inf_phi=float(phi.min()),
        dt=dt,
    )
    eig_min = float(metric.relative_eigenvalues(setup.omega).min())
    return rec, eig_min


def _jhat_monotone(jhats: Sequence) -> bool:
    arr = np.asarray(jhats, dtype=float)
    if arr.shape[0] < 2:
        return True
    allowed = 1e-9 * np.maximum(1.0, np.abs(arr[:-1]))
    return bool(np.all(np.diff(arr) <= allowed))


def run(setup: FlowSetup, phi0: np.ndarray) -> RunResult:
    """Drive the flow to convergence, blow-up, or timeout.

    Convergence means sup residual < tol_converge with the sampled Jhat
    sequence monotone non-increasing over the trailing 100 samples (up to a
    relative slack of 1e-9 for rounding noise).

    A step is accepted when its error estimate (FlowState.err) is at most
    tol = STEP_ERROR_TOL * dt * sup|phidot| at its start, with sup|phidot|
    floored where its rounding would dominate the estimate (about 4e-11 c,
    far below any useful tol_converge).  A rejected step is retried with a
    smaller dt.  Each next step is dt * clip(0.9 (tol/err)^(1/3), 0.2, 2),
    never above the stability ceiling dt_control, which is refreshed at
    every sample: the metric moves little between samples, and a step that
    went unstable under a stale ceiling would show in the error estimate
    and be retried.  sample_interval and max_steps count accepted steps,
    and a record's dt is the step proposed after its sample.  t_max and
    max_steps are hard stops: both are tested after every accepted step,
    the step that reaches t_max is shortened to end on it, and the state
    at either stop is sampled.
    """
    t_start = time.perf_counter()
    state = initial_state(setup, phi0)
    ceiling = dt_control(setup, state)
    dt = ceiling
    records = []
    eig_mins = []
    diss_totals = []
    window = collections.deque(maxlen=100)

    def take_sample(current_dt):
        rec, eig_min = _sample(setup, state, current_dt)
        records.append(rec)
        eig_mins.append(eig_min)
        diss_totals.append(state.diss)
        window.append(rec.Jhat)

    take_sample(dt)
    verdict = None
    steps = 0
    rejected = 0
    # phidot = c - lam/n, and so k4 - k5, carries rounding of a few eps*c;
    # an error test against a smaller velocity would reject noise forever
    noise_floor = 16.0 * np.finfo(float).eps * setup.c / STEP_ERROR_TOL
    if state.residual < setup.tol_converge:
        verdict = "converged"
    while verdict is None:
        last = setup.t_max - state.t <= dt
        h = setup.t_max - state.t if last else dt
        try:
            trial = step(setup, state, h)
        except SingularFormError:
            verdict = "blowup"
            break
        tol = STEP_ERROR_TOL * h * max(state.residual, noise_floor)
        factor = _step_factor(trial.err, tol)
        if trial.err > tol:
            rejected += 1
            dt = h * factor
            continue
        state = replace(trial, t=setup.t_max) if last else trial
        steps += 1
        dt = min(h * factor, ceiling)
        stop = last or steps >= setup.max_steps
        if stop or steps % setup.sample_interval == 0:
            ceiling = dt_control(setup, state)
            dt = min(dt, ceiling)
            take_sample(dt)
            if records[-1].blowup > setup.blowup_ceiling:
                verdict = "blowup"
            elif state.residual < setup.tol_converge and _jhat_monotone(window):
                verdict = "converged"
            elif stop:
                verdict = "timeout"

    if records[-1].t < state.t:
        take_sample(dt)
    wall = time.perf_counter() - t_start
    return RunResult(
        verdict=verdict,
        records=records,
        final=state,
        steps=steps,
        wall_time_s=wall,
        jhat_monotone=_jhat_monotone([r.Jhat for r in records]),
        diss_totals=np.asarray(diss_totals),
        min_rel_eig=np.asarray(eig_mins),
        rejected_steps=rejected,
    )


def monitor_max_principle(result: RunResult) -> dict:
    """Band violations of the trace monitor along a sampled trajectory.

    The sampled extremes of Lambda_chi omega must stay inside the initial
    band; the induced lower bound on chi (minimum relative eigenvalue at
    least the reciprocal of the initial upper extreme) is checked from the
    per-sample eigenvalue minima.  Violations are reported as magnitudes,
    with anything at or below VIOLATION_FLOOR treated as zero.
    """
    recs = result.records
    if len(recs) < 1:
        raise ValueError("empty trajectory")
    lam0_min, lam0_max = recs[0].lam_min, recs[0].lam_max
    upper = max((r.lam_max - lam0_max) for r in recs)
    lower = max((lam0_min - r.lam_min) for r in recs)
    band_violation = max(upper, lower, 0.0)
    eig_floor = 1.0 / lam0_max
    eig_violation = 0.0
    if result.min_rel_eig is not None and len(result.min_rel_eig):
        eig_violation = max(0.0, float(eig_floor - result.min_rel_eig.min()))
    return {
        "band": (lam0_min, lam0_max),
        "band_violation": band_violation,
        "band_ok": band_violation <= VIOLATION_FLOOR,
        "chi_lower_bound": eig_floor,
        "chi_bound_violation": eig_violation,
        "floor": VIOLATION_FLOOR,
    }


def refinement_shrink(coarse: float, fine: float) -> bool:
    """True when a violation magnitude shrinks by 4 under refinement.

    A fine magnitude at or below VIOLATION_FLOOR counts as a pass: a scheme
    whose violations sit at rounding level has nothing left to shrink.
    """
    return fine <= VIOLATION_FLOOR or fine * 4.0 <= coarse


def write_series_csv(path, records: Sequence) -> None:
    """Pinned 15-column time series, 17 significant digits."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            handle.write(",".join("%.17g" % v for v in rec.row()) + "\n")


def wedge_trace_consistency(setup: FlowSetup, state: FlowState) -> float:
    """Max gap between the wedge and trace forms of the velocity.

    The right-hand side c - (omega wedge chi^{n-1})/(chi^n) evaluated with
    the brute-force wedge coefficients must match c - Lambda/n pointwise;
    checked on 16 evenly spaced grid points.
    """
    from .hermitian import wedge_oracle

    grid = setup.grid
    chi = state.metric.chi.reshape(-1, grid.n, grid.n)
    lam_flat = state.lam.reshape(-1)
    idx = np.linspace(0, chi.shape[0] - 1, min(16, chi.shape[0]))
    worst = 0.0
    for i in idx.astype(int):
        top = wedge_oracle([(setup.omega, 1), (chi[i], grid.n - 1)])
        bottom = wedge_oracle([(chi[i], grid.n)])
        wedge_rhs = setup.c - top / bottom
        trace_rhs = setup.c - lam_flat[i] / grid.n
        worst = max(worst, abs(wedge_rhs - trace_rhs))
    return worst
