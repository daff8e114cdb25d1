"""Per-layer metrics computed from the spans of one traced job.

Each metric is registered with its unit, the direction that is better,
whether it is an exact count (which must repeat exactly between traced runs
of one seed) and the wrap targets it needs: a span name, or a span name as
looked up in one module's namespace (``name@module``).  A metric whose wrap
targets were not installed, because they no longer exist, or whose calls
no longer pass through them, is reported absent.  A layer the workload never
calls reads 0.

Self time is a span's duration minus the durations of its direct child
spans.  Latencies (``ms_p50``/``ms_p90``) are single-call durations.
"""

from __future__ import annotations

import json

import numpy as np

from perfbench.tracer import RAISED, RETURNED_NONE

# name -> (unit, better, exact, needs, fn(spans, job, plain_wall))
METRICS = {}


def register(name, unit, better, exact, needs, fn):
    METRICS[name] = (unit, better, exact, tuple(needs), fn)


class Spans:
    """Spans of one traced job, loaded from the tracer's dump."""

    def __init__(self, path):
        with np.load(path) as dump:
            self.kind = dump["kind"]
            self.parent = dump["parent"]
            self.start = dump["start"]
            self.end = dump["end"]
            self.flags = dump["flags"]
            self.kinds = json.loads(str(dump["kinds"]))
            self.installed = set(json.loads(str(dump["installed"])))
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.dur[has_parent],
                                 minlength=self.kind.size)
        self.self_time = self.dur - child_time

    def ids(self, name: str, binding: str | None = None) -> np.ndarray:
        kinds = [k for k, (n, b) in enumerate(self.kinds)
                 if n == name and (binding is None or b == binding)]
        return np.flatnonzero(np.isin(self.kind, kinds))

    def under(self, name: str, binding: str, parent: int) -> np.ndarray:
        """Spans of ``name`` looked up in ``binding`` whose enclosing span is
        ``parent``."""
        idx = self.ids(name, binding)
        return idx[self.parent[idx] == parent]

    def calls(self, name: str) -> int:
        return int(self.ids(name).size)

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.ids(name)].sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self.ids(name)].sum())

    def ms(self, name: str, q: float) -> float:
        idx = self.ids(name)
        if idx.size == 0:
            return 0.0
        return float(np.percentile(self.dur[idx], q) * 1e3)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


# generic families ------------------------------------------------------------

for _name in ("flow.step", "torus.metric_field", "torus.MetricField",
              "torus.complex_hessian_of", "torus.null_mode_projection",
              "functionals.flow_functional_bundle",
              "hermitian.cone_form_positive", "cone.nakai_test",
              "cone.divisor_search", "sampling.random_rational_class"):
    register(f"{_name}.calls", "count", "lower", True, [_name],
             lambda s, job, wall, n=_name: s.calls(n))

for _name in ("flow.dt_control", "flow.blowup_monitor",
              "torus.complex_hessian_of", "torus.trace_with", "torus.h_matrix",
              "torus.scalar_curvature", "torus.null_mode_projection",
              "functionals.flow_functional_bundle", "functionals.eval_mabuchi",
              "functionals.eval_IE_JE", "functionals.eval_entropy",
              "functionals.ie_second_form",
              "hermitian.pencil_eigenvalues_batch",
              "hermitian.wedge_coefficient_batch", "cone.nakai_test",
              "cone.divisor_search", "cone.class_condition",
              "cone.verify_certificate",
              "sampling.random_admissible_potential"):
    register(f"{_name}.self_s", "s", "lower", False, [_name],
             lambda s, job, wall, n=_name: s.self_s(n))

for _name, _qs in (("flow.step", (50, 90)),
                   ("functionals.flow_functional_bundle", (50,)),
                   ("functionals.eval_mabuchi", (50,)),
                   ("cone.divisor_search", (50, 90))):
    for _q in _qs:
        register(f"{_name}.ms_p{_q}", "ms", "lower", False, [_name],
                 lambda s, job, wall, n=_name, q=_q: s.ms(n, q))

for _suite in ("suite_conditions", "suite_functionals", "suite_cone"):
    _name = f"sampling.{_suite}"
    register(f"{_name}.s", "s", "lower", False, [_name],
             lambda s, job, wall, n=_name: s.total_s(n))


# flow: samples are what run does between two step spans ----------------------

def sample_gaps(s: Spans) -> list:
    """(start, end) of every gap between step spans of a run that holds a
    functional bundle, i.e. of every monitor sample."""
    gaps = []
    step_ids = s.ids("flow.step")
    bundle_ids = s.ids("functionals.flow_functional_bundle")
    for run in s.ids("flow.run"):
        steps = step_ids[s.parent[step_ids] == run]
        bundles = bundle_ids[s.parent[bundle_ids] == run]
        step_start, step_end = s.start[steps], s.end[steps]
        for k in np.unique(np.searchsorted(step_start, s.start[bundles])):
            lo = s.start[run] if k == 0 else step_end[k - 1]
            hi = s.end[run] if k == steps.size else step_start[k]
            gaps.append((lo, hi))
    return gaps


def _sample_ms(s: Spans, q: float) -> float:
    gaps = sample_gaps(s)
    if not gaps:
        return 0.0
    return float(np.percentile([hi - lo for lo, hi in gaps], q) * 1e3)


def _metric_builds_per_sample(s: Spans, job, wall) -> float:
    gaps = sample_gaps(s)
    starts = s.start[s.ids("torus.MetricField")]
    inside = sum(int(((starts >= lo) & (starts < hi)).sum())
                 for lo, hi in gaps)
    return _ratio(inside, len(gaps))


_SAMPLE_NEEDS = ("flow.run", "flow.step", "functionals.flow_functional_bundle")
register("flow.samples", "count", "lower", True, _SAMPLE_NEEDS,
         lambda s, job, wall: len(sample_gaps(s)))
for _q in (50, 90):
    register(f"flow.sample.ms_p{_q}", "ms", "lower", False, _SAMPLE_NEEDS,
             lambda s, job, wall, q=_q: _sample_ms(s, q))
register("functionals.metric_builds_per_sample", "1/sample", "lower", True,
         _SAMPLE_NEEDS + ("torus.MetricField",), _metric_builds_per_sample)


# critical: the Newton ladder -------------------------------------------------

LADDER = (32, 64, 128)


def _solves(s: Spans, job) -> list:
    """[(points, span index, op)] for each newton_solve, in call order."""
    solve_ids = s.ids("critical.newton_solve")
    ops = [op for op in job["ops"] if "points" in op]
    return [(op["points"], idx, op) for idx, op in zip(solve_ids, ops)]


def _applies(s: Spans, solve: int) -> np.ndarray:
    """Applications of the linearized operator within one solve.

    newton_solve's operator closure and _pcg are not wrapped, so each call of
    the Hessian that newton_solve looks up in the critical module, directly
    under the solve's span, is one application.
    """
    return s.under("torus.complex_hessian_of", "critical", solve)


def applies_per_solve(s: Spans, job) -> list:
    """[(points, op, operator applications)] for each solve."""
    return [(points, op, int(_applies(s, idx).size))
            for points, idx, op in _solves(s, job)]


def _applies_by_points(s: Spans, job) -> dict | None:
    """{points: operator applications}, or None when a solve that took a
    Newton step shows none: the operator is then applied through a path the
    wrappers do not see, and the count would read a false 0."""
    out = {}
    for points, op, count in applies_per_solve(s, job):
        if op["iterations"] and not count:
            return None
        out[points] = out.get(points, 0) + count
    return out


def _applies_per_iter(s: Spans, job, points) -> float | None:
    applies = _applies_by_points(s, job)
    if applies is None:
        return None
    return _ratio(applies.get(points, 0), _iters_by_points(job).get(points, 0))


def _operator_applies(s: Spans, job, wall) -> int | None:
    applies = _applies_by_points(s, job)
    return None if applies is None else sum(applies.values())


def _iters_by_points(job) -> dict:
    out = {}
    for op in job["ops"]:
        if "points" in op:
            out[op["points"]] = out.get(op["points"], 0) + op["iterations"]
    return out


def _solve_ms(s: Spans, job, wall, points) -> float:
    durs = [s.dur[idx] for p, idx, _ in _solves(s, job) if p == points]
    return float(np.median(durs) * 1e3) if durs else 0.0


def _line_search_accept_ratio(s: Spans, job, wall) -> float:
    """Accepted Newton steps over trial residual evaluations; the first
    residual_field call of each solve evaluates the start, not a trial."""
    solves = _solves(s, job)
    trials = [s.under("critical.residual_field", "critical", idx).size
              for _, idx, _ in solves]
    if not all(trials):
        return None  # the start residual is evaluated out of sight
    accepted = sum(op["accepted"] for _, _, op in solves)
    return _ratio(accepted, sum(trials) - len(solves))


def _apply_ms_p50(s: Spans, job, wall) -> float | None:
    if _applies_by_points(s, job) is None:
        return None
    durs = [s.dur[_applies(s, idx)] for _, idx, _ in _solves(s, job)]
    durs = np.concatenate(durs) if durs else np.zeros(0)
    return float(np.percentile(durs, 50) * 1e3) if durs.size else 0.0


_HESS_CRIT = ("critical.newton_solve", "torus.complex_hessian_of@critical")
for _points in LADDER:
    register(f"critical.solve_ms.N{_points}", "ms", "lower", False,
             ["critical.newton_solve"],
             lambda s, job, wall, p=_points: _solve_ms(s, job, wall, p))
    register(f"critical.applies_per_newton_iter.N{_points}", "ratio", "lower",
             True, _HESS_CRIT,
             lambda s, job, wall, p=_points: _applies_per_iter(s, job, p))
register("critical.newton_iters", "count", "lower", True, (),
         lambda s, job, wall: sum(_iters_by_points(job).values()))
register("critical.operator_applies", "count", "lower", True, _HESS_CRIT,
         _operator_applies)
register("critical.cg_iters_reported", "count", "lower", True, (),
         lambda s, job, wall: sum(sum(op["cg_iterations"])
                                  for op in job["ops"] if "points" in op))
register("critical.apply_ms_p50", "ms", "lower", False, _HESS_CRIT,
         _apply_ms_p50)
register("critical.line_search_accept_ratio", "ratio", "higher", True,
         ("critical.newton_solve", "critical.residual_field@critical"),
         _line_search_accept_ratio)
register("critical.solves_failed", "count", "lower", True, (),
         lambda s, job, wall: sum(1 for op in job["ops"]
                                  if "points" in op and not op["ok"]))


# sampling: rejection draws ---------------------------------------------------

def _rational_accept_ratio(s: Spans, job, wall) -> float:
    """Accepted draws over predicate calls (nakai_test spans directly under
    random_rational_class)."""
    draws = s.ids("sampling.random_rational_class")
    accepted = int(((s.flags[draws] & (RETURNED_NONE | RAISED)) == 0).sum())
    tests = s.ids("cone.nakai_test")
    predicate_calls = int(np.isin(s.parent[tests], draws).sum())
    return _ratio(accepted, predicate_calls)


register("sampling.rational_accept_ratio", "ratio", "higher", True,
         ("sampling.random_rational_class", "cone.nakai_test"),
         _rational_accept_ratio)


# whole job -------------------------------------------------------------------

register("trace.overhead_ratio", "ratio", "lower", False, (),
         lambda s, job, wall: job["wall_s"] / wall - 1.0)
register("fail_ratio", "ratio", "lower", True, (),
         lambda s, job, wall: _ratio(sum(not op["ok"] for op in job["ops"]),
                                     len(job["ops"])))


LAYER_ORDER = ("flow", "torus", "functionals", "critical", "hermitian", "cone",
               "sampling", "trace", "fail_ratio")
METRICS = dict(sorted(METRICS.items(), key=lambda item: (
    LAYER_ORDER.index(item[0].split(".")[0]), item[0])))


def layer_metrics(spans: Spans, job: dict, plain_wall: float) -> dict:
    """{name: value, or None when the metric is absent: a wrap target it
    needs is gone, or the calls it counts no longer pass through it}."""
    out = {}
    for name, (_, _, _, needs, fn) in METRICS.items():
        if any(n not in spans.installed for n in needs):
            out[name] = None
        else:
            out[name] = fn(spans, job, plain_wall)
    return out
