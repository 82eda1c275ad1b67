"""Which polystab functions the traced run wraps, and the per-layer metrics.

Every span name is a per-layer time metric; its value is the summed self time
of the spans with that name, so the times add up to the traced total apart
from the time outside any span.  Counts come from the arguments and return
values each wrapper sees.  A target missing from the program (renamed or
removed by a later change) is skipped and its metrics read 0.
"""
from __future__ import annotations

MB = 1024.0 * 1024.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _interior_points(t, args, kwargs, Q):
    t.count("quadrature.interior_points", len(Q.interior_weights))


def _split_scheme(t, args, kwargs, Q):
    t.count("quadrature.split_scheme_calls")
    _interior_points(t, args, kwargs, Q)


def _mesh_vertices(t, args, kwargs, mesh):
    t.count("mesh.vertices", mesh.num_vertices)


def _locate_points(t, args, kwargs, result):
    ids, _ = result
    t.count("mesh.locate_points", len(ids))


def _operator_rows(t, args, kwargs, op):
    t.count("hessfit.point_operator_rows", op.shape[0])


def _evaluator(t, args, kwargs, result):
    t.count("functionals.evaluators")


def _mabuchi_points(t, args, kwargs, result):
    ev, u = args[0], _arg(args, kwargs, 1, "u")
    if hasattr(u, "mesh"):
        Q = ev._mesh_graded_for(u.mesh)  # cached by the call just traced
    elif getattr(u, "guillemin_type", False):
        Q = ev.graded
    else:
        Q = ev.scheme
    t.count("functionals.mabuchi_points", len(Q.interior_weights))


def _abreu_points(t, args, kwargs, values):
    t.count("functionals.abreu_points", len(values))


def _creases(t, args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    if grid is not None:
        t.count("stability.creases_evaluated", len(grid))


def _certificate_samples(t, args, kwargs, cert):
    t.count("stability.certificate_samples", cert.provenance.get("sup_samples", 0))


def _lp(t, args, kwargs, result):
    m, n = _arg(args, kwargs, 1, "A").shape
    t.count("simplex_lp.calls")
    t.count("simplex_lp.pivots", result.iterations)
    t.record_max("simplex_lp.rows", m)
    t.record_max("simplex_lp.cols", n)
    # phase-I tableau: m + 1 rows, n + m + 1 columns of float64 (computed, not measured)
    t.record_max("simplex_lp.tableau_mb", (m + 1) * (n + m + 1) * 8 / MB)


def _energy_setup(t, args, kwargs, result):
    t.count("solver.quadrature_points", args[0].npts)


def _descent(t, args, kwargs, state):
    t.count("solver.iterations", state.iterations)


# (module, qualified name, span name, counter hook)
SPANS = [
    ("polystab.polytope", "build_polytope", "polytope.build_s", None),
    ("polystab.fileio", "read_polytope", "fileio.read_s", None),
    ("polystab.fileio", "Report.render", "fileio.render_s",
     lambda t, a, k, text: t.count("fileio.report_bytes", len(text.encode("utf-8")))),
    ("polystab.quadrature", "standard_scheme", "quadrature.build_s", _interior_points),
    ("polystab.quadrature", "graded_scheme", "quadrature.build_s", _interior_points),
    ("polystab.quadrature", "split_scheme", "quadrature.build_s", _split_scheme),
    ("polystab.quadrature", "mesh_graded_scheme", "quadrature.build_s", _interior_points),
    ("polystab.mesh", "make_mesh", "mesh.make_mesh_s", _mesh_vertices),
    ("polystab.mesh", "Mesh.locate", "mesh.locate_s", _locate_points),
    ("polystab.hessfit", "HessianSurrogate.__init__", "hessfit.surrogate_s", None),
    ("polystab.hessfit", "HessianSurrogate.point_operator", "hessfit.point_operator_s",
     _operator_rows),
    ("polystab.functionals", "FunctionalEvaluator.__init__", "functionals.evaluator_init_s",
     _evaluator),
    ("polystab.functionals", "mesh_linear_forms", "functionals.linear_forms_s", None),
    ("polystab.functionals", "FunctionalEvaluator.mabuchi", "functionals.mabuchi_s",
     _mabuchi_points),
    ("polystab.functionals", "FunctionalEvaluator.abreu_operator",
     "functionals.abreu_operator_s", _abreu_points),
    ("polystab.stability", "StabilityLP.__init__", "stability.lp_assembly_s", None),
    ("polystab.stability", "crease_sweep", "stability.crease_sweep_s", _creases),
    ("polystab.stability", "properness_certificate", "stability.certificate_s",
     _certificate_samples),
    ("polystab.simplex_lp", "solve_lp", "simplex_lp.solve_s", _lp),
    ("polystab.solver", "DiscreteEnergy.__init__", "solver.setup_s", _energy_setup),
    ("polystab.solver", "solve_2d_descent", "solver.descent_s", _descent),
]

# (module, qualified name, counter hook): counted without a span
COUNTERS = [
    ("polystab.quadrature", "triangle_rule",
     lambda t, a, k, r: t.count("quadrature.triangle_rule_calls")),
    ("polystab.functionals", "FunctionalEvaluator.linear_functional",
     lambda t, a, k, r: t.count("functionals.linear_functional_calls")),
    ("polystab.solver", "DiscreteEnergy.value",
     lambda t, a, k, r: t.count("solver.energy_evals")),
    ("polystab.solver", "DiscreteEnergy.gradient",
     lambda t, a, k, r: t.count("solver.gradient_evals")),
]

COUNT_METRICS = [
    "simplex_lp.calls", "simplex_lp.pivots",
    "stability.creases_evaluated", "stability.certificate_samples",
    "functionals.evaluators", "functionals.linear_functional_calls",
    "functionals.mabuchi_points", "functionals.abreu_points",
    "quadrature.triangle_rule_calls", "quadrature.interior_points",
    "quadrature.split_scheme_calls",
    "mesh.vertices", "mesh.locate_points",
    "hessfit.point_operator_rows",
    "solver.iterations", "solver.energy_evals", "solver.gradient_evals",
    "solver.quadrature_points",
    "fileio.report_bytes",
]
MAX_METRICS = ["simplex_lp.rows", "simplex_lp.cols", "simplex_lp.tableau_mb"]
TIME_METRICS = list(dict.fromkeys(name for _, _, name, _ in SPANS))

# every per-layer metric a traced run prints: (name, unit, better)
PER_LAYER = (
    [(name, "s", "lower") for name in TIME_METRICS]
    + [(name, "bytes" if name.endswith("_bytes") else "count", "lower")
       for name in COUNT_METRICS]
    + [(name, "MB" if name.endswith("_mb") else "count", "lower") for name in MAX_METRICS]
    + [("solver.accept_ratio", "1", "higher"),
       ("trace.total_s", "s", "lower"),
       ("trace.outside_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def install(tracer):
    for module, qualname, name, hook in SPANS:
        tracer.span(module, qualname, name, hook)
    for module, qualname, hook in COUNTERS:
        tracer.counter(module, qualname, hook)


def layer_metrics(tracer, total_s):
    """Per-layer metrics of one traced run whose traced section took `total_s`."""
    self_s = tracer.self_times()
    out = {name: self_s.get(name, 0.0) for name in TIME_METRICS}
    out.update({name: tracer.counts.get(name, 0.0) for name in COUNT_METRICS})
    out.update({name: tracer.maxima.get(name, 0.0) for name in MAX_METRICS})
    evals = out["solver.energy_evals"]
    out["solver.accept_ratio"] = out["solver.iterations"] / evals if evals else 0.0
    out["trace.total_s"] = total_s
    out["trace.outside_s"] = total_s - tracer.top_level_time()
    return out
