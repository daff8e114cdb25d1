"""Numerical laboratory for a trace-form metric flow on flat complex tori.

Constant positive Hermitian pairs (omega, chi0) on T^{2n} drive the scalar
evolution d(phi)/dt = c - Lambda_{chi_phi} omega / n.  The package bundles
the pointwise spectral conditions controlling convergence, the energy
functionals the flow descends, an RK4 integrator with monitors, a Newton
solver for the critical equation, exact rational cone arithmetic on surface
intersection lattices, and deterministic randomized property suites.  The
brute-force reference routes the tests check these against (the wedge
oracle, the mixed-density energies, the linearized operator, the mean
scalar curvature) live in tests/oracles.py, not here.

Set JFLOW_THREADS before launching to cap the BLAS thread pool; the value is
copied into the usual thread-count variables here, which works as long as
this package is imported before numpy is.
"""

import os as _os

if "JFLOW_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["JFLOW_THREADS"])

from .hermitian import (BOUNDARY_TOL, ConditionReport, ShapeError,
                        SingularFormError, condition_report,
                        cone_form_positive, relative_spectrum, trace_pair)
from .torus import (MetricField, TorusGrid, class_constant_c,
                    complex_hessian_of, cosine_mode, integrate_top,
                    load_field, metric_field, save_field)
from .functionals import (PathSpec, eval_IE_JE, eval_entropy, eval_mabuchi,
                          fit_properness, flow_functional_bundle,
                          ie_second_form, path_independence_gap, volume_of)
from .flow import (CSV_COLUMNS, SINGULARITY_NOTE, FlowSetup, FlowState,
                   MonitorRecord, RunResult, blowup_monitor, dt_control,
                   monitor_max_principle, refinement_shrink, run, step,
                   write_series_csv)
from .critical import NewtonReport, NewtonSettings, newton_solve
from .cone import (BUILTIN_LATTICES, ConeError, Curve, DivisorSearchReport,
                   LatticeError, NakaiReport, SurfaceLattice, builtin_lattice,
                   class_condition, divisor_search, intersect,
                   lattice_from_dict, load_lattice, nakai_test,
                   verify_certificate)
from .sampling import (make_rng, random_admissible_potential, report_digest,
                       run_property_suites)

__version__ = "0.1.0"
