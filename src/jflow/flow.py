"""Time integration of the trace-form parabolic flow on the torus.

The evolution is d(phi)/dt = c - (1/n) Lambda_{chi_phi} omega with constant
background forms omega and chi0.  Stepping is classical four-stage
Runge-Kutta under two limits.  The stability ceiling dt_control is
SAFETY * 2.785 / rho, where rho bounds the frozen-coefficient symbol of the
linearization and 2.785 is where the RK4 stability region crosses the
negative real axis; refreshed at every sample, it is the largest step the
run takes.  Under it an accuracy controller sizes each step from the
embedded third-order estimate of its local error (see step and run), which
reads phi alone.

Every RK4 stage is a FlowState built by flow_state, the one route from a
potential to its metric, Lambda, phidot = c - Lambda/n and the residual;
critical's Newton iterates take the same route.  Its metric refuses a
stage that loses positivity or holds a NaN with SingularFormError, which
run reports as blow-up.  Alongside phi the stepper integrates the
dissipation q(t) = int_0^t n * (int phidot^2 det chi dV) ds with the same
RK4 weights, reading each stage's phidot and metric.  The
descent identity d(Jhat)/dt = -dq/dt can then be checked between any two
samples without quadrature error from the time axis dominating; the
controller never reads Jhat or q, so that check stays independent of it.

A monitor sample reads J, I, Jhat, I^E and J^E from one exact quadrature,
and the Mabuchi column is the entropy (see _sample).
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .hermitian import (SettingError, SingularFormError, as_matrix,
                        require_positive)
from .torus import (
    MetricField,
    TorusGrid,
    _hessian_trace,
    class_constant_c,
    form_factor,
    integrate_top,
    metric_field,
    symbol_mesh,
)
from .functionals import eval_entropy, flow_functional_bundle

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

# fraction of the RK4 stability ceiling that caps every step
SAFETY = 0.9

# a step is accepted when its local error estimate is at most this
# fraction of dt * sup|phidot|
STEP_ERROR_TOL = 1e-4

# monitor violation magnitudes at or below this are rounding, and count
# as zero
VIOLATION_FLOOR = 1e-13

# a sampled blow-up monitor above this ends the run with verdict "blowup"
BLOWUP_CEILING = 1e6


@dataclass(frozen=True)
class FlowSetup:
    """Problem data, stopping rule and sampling cadence of one flow run.

    normalize=True rescales omega so that n * c = 1 (the standard gauge for
    the convergence conditions); the factor applied is kept for the audit
    trail.  c and omega_factor, the Cholesky factor every trace reads, are
    derived from the (rescaled) forms.  Tolerances follow the module
    defaults: convergence at sup residual 1e-8, sampling every 10 accepted
    steps.  t_max and max_steps are hard stops: run ends no later than
    t = t_max (its last step is shortened to land there) and after at most
    max_steps accepted steps, whichever comes first.  Step and blow-up
    policy are module constants: SAFETY, STEP_ERROR_TOL, BLOWUP_CEILING.
    """

    grid: TorusGrid
    omega: np.ndarray
    chi0: np.ndarray
    deriv: str = "fd4"
    normalize: bool = False
    tol_converge: float = 1e-8
    t_max: float = 1e3
    sample_interval: int = 10
    max_steps: int = 10_000_000
    c: float = field(init=False)
    omega_scale: float = field(init=False)
    omega_factor: np.ndarray = field(init=False)

    def __post_init__(self):
        om = as_matrix(self.omega)
        ch = as_matrix(self.chi0)
        require_positive(om, "omega")
        require_positive(ch, "chi0")
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
        for name in ("tol_converge", "t_max"):
            if not getattr(self, name) > 0.0:
                raise SettingError(name, "must be positive")
        for name in ("sample_interval", "max_steps"):
            if getattr(self, name) < 1:
                raise SettingError(name, "must be at least 1")


@dataclass(frozen=True)
class FlowState:
    """A trajectory point, RK4 stage or Newton iterate, with its fields.

    metric, lam = Lambda_chi omega, phidot = c - lam/n and residual =
    sup|phidot| are built once, by flow_state, and every consumer reads
    them, from RK4 stages and Newton's right-hand side to every monitor of
    a sample; phi is metric.phi.  diss is the accumulated n * int phidot^2
    det chi dV ds from t = 0, err the estimate of the step that made it.
    """

    t: float
    metric: MetricField
    lam: np.ndarray
    phidot: np.ndarray
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


def flow_state(setup: FlowSetup, phi: np.ndarray, t: float = 0.0,
               diss: float = 0.0) -> FlowState:
    """The state of phi: its metric, lam, phidot = c - lam/n and sup|phidot|,
    each built once; raises SingularFormError if phi is not admissible."""
    metric = metric_field(setup.grid, setup.chi0, phi, setup.deriv)
    lam = metric.trace_with(setup.omega_factor)
    phidot = setup.c - lam / setup.grid.n
    return FlowState(t=t, metric=metric, lam=lam, phidot=phidot,
                     residual=float(np.max(np.abs(phidot))), diss=diss)


def _dissipation_rate(setup: FlowSetup, state: FlowState) -> float:
    """n * int phidot^2 det chi dV at the state."""
    dens = integrate_top(state.phidot * state.phidot * state.metric.det(),
                         setup.grid)
    return setup.grid.n * dens


def dt_control(setup: FlowSetup, state: FlowState) -> float:
    """RK4 stability ceiling from the linearization at the state.

    The linearization (1/n) h^{ab} d^2/dz_a dzbar_b, h = chi^{-1} omega
    chi^{-1}, has with frozen coefficients the symbol
    -(1/(4n)) Re sum_ab h_ab w_a conj(w_b) (w_a from torus.symbol_mesh).
    Its modulus is at most rho = (m/4) s_max^2 max_x lambda_max(h), with
    s_max = max |derivative_symbol| and m = 1 on invariant and 2 on full
    grids.  Returns SAFETY * 2.785 / rho.
    """
    h = state.metric.h_matrix(setup.omega)
    top = float(np.linalg.eigvalsh(h)[..., -1].max())
    # each w_a varies along its own axes, so max_k |w|^2 is a sum of maxima
    wsq = sum(float(np.max((w * np.conj(w)).real))
              for w in symbol_mesh(setup.grid, setup.deriv))
    rho = top * wsq / (4.0 * setup.grid.n)
    return SAFETY * RK4_REAL_STABILITY / rho


def step(setup: FlowSetup, state: FlowState, dt: float) -> FlowState:
    """One RK4 update of (phi, dissipation accumulator).

    Stages are FlowStates of one setup, so k_i is stage i's phidot.  The
    new state's err is (dt/6) sup|k4 - k5|, with k5 = new.phidot the next
    step's first stage: the gap to the third-order companion with
    weights (1/6, 1/3, 1/3, 0, 1/6), so the estimate costs no extra stage.

    Raises SingularFormError if any stage or the result loses positivity
    or holds a NaN; the caller reports either as blow-up.
    """
    s2 = flow_state(setup, state.phi + 0.5 * dt * state.phidot)
    s3 = flow_state(setup, state.phi + 0.5 * dt * s2.phidot)
    s4 = flow_state(setup, state.phi + dt * s3.phidot)
    k1, k2, k3, k4 = state.phidot, s2.phidot, s3.phidot, s4.phidot
    d1, d2, d3, d4 = (_dissipation_rate(setup, s) for s in (state, s2, s3, s4))
    phi_new = state.phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    diss_new = state.diss + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    new = flow_state(setup, phi_new, state.t + dt, diss_new)
    k5 = new.phidot
    return replace(new, err=(dt / 6.0) * float(np.max(np.abs(k4 - k5))))


def _step_factor(err: float, tol: float) -> float:
    """Next-step factor of a third-order estimate, clipped to [0.2, 2]."""
    if err == 0.0:
        return 2.0
    return min(2.0, max(0.2, 0.9 * (tol / err) ** (1.0 / 3.0)))


def blowup_monitor(setup: FlowSetup, state: FlowState) -> float:
    """sup over the grid of |phi| + |Laplacian_omega phi| (_hessian_trace)."""
    lap = _hessian_trace(np.linalg.inv(setup.omega), state.metric.hessian)
    return float(np.max(np.abs(state.phi) + np.abs(lap)))


def _sample(setup: FlowSetup, state: FlowState, dt: float) -> tuple:
    """MonitorRecord plus the minimum relative eigenvalue of chi vs omega.

    Every functional and monitor reads the state's fields: none rebuilds
    the metric of phi, and the bundle builds only its interior node metrics.
    """
    metric, phi = state.metric, state.phi
    bundle = flow_functional_bundle(metric, setup.omega)
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
        IE=bundle["IE"],
        JE=bundle["JE"],
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
    state = flow_state(setup, np.array(phi0, dtype=float))
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
            if records[-1].blowup > BLOWUP_CEILING:
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

