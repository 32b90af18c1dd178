"""Per-layer tracing of qlip from outside the package.

The tracer wraps the public functions and methods named in ``LAYERS`` with
light timing wrappers.  A module-level function is patched in every qlip
module that binds it (``roproj`` reaches the face-lattice build only through
its own ``face_lattice`` name, for example), a method is patched on its class.
Each wrapper records one span per call; spans nest through a ``contextvars``
variable holding the open parent, so a layer's self time is its inclusive time
minus the time covered by its traced children.

The hot symbols close about a million spans per job, so spans are folded into
per-symbol accumulators as they close instead of being kept one by one; the
accumulators live in memory and the worker writes them out when it ends.
"""

import contextvars
import functools
import importlib
import math
import statistics
import time

import numpy as np

_OPEN_SPAN = contextvars.ContextVar("perfbench_open_span", default=None)

CS = ("calls", "s")
CSS = ("calls", "s", "self_s")
CIS = ("calls", "items", "s")
CISS = ("calls", "items", "s", "self_s")


def _rows(args, kwargs):
    """Rows of the point array passed after ``self`` (1 for a single point)."""
    shape = np.shape(args[1])
    return 1 if len(shape) == 1 else int(shape[0])


def _tuples(index):
    """Number of tuples in a (..., q, n) array argument."""
    def count(args, kwargs):
        return int(math.prod(np.shape(args[index])[:-2]))
    return count


def _extended_nodes(args, kwargs):
    f, keep = args[0], np.asarray(args[1], dtype=bool)
    return int((~keep & f.mask).sum())


def _grid_nodes(args, kwargs):
    return int(math.prod(args[0].values.shape[:-2]))


def _retract_rows(args, kwargs):
    select = kwargs.get("select", args[2] if len(args) > 2 else None)
    if select is None:
        return int(math.prod(np.shape(args[0])[:-1]))
    return int(np.count_nonzero(select))


def _is_retry(args, kwargs, result):
    margin = kwargs.get("margin", args[2] if len(args) > 2 else 1e-6)
    return 1 if margin == 1e-3 else 0


def _sweeps(args, kwargs, result):
    return len(result[1]["history"])


class Layer:
    """One traced symbol: where it lives, what it reports and which
    end-to-end metric it should move."""

    def __init__(self, module, symbol, suffixes, moves, items=None,
                 extra=None):
        self.module = module
        self.symbol = symbol
        self.suffixes = suffixes
        self.moves = moves
        self.items = items
        self.extra = extra  # (metric name, fn(args, kwargs, result) -> count)

    @property
    def name(self):
        return "%s.%s" % (self.module, self.symbol)


_RHO_STAR = "rho_star_eval_22_s, energy_split_22_s on cone"
_XI = "competitor_s on cone; approx_spike_s on currents"
_MATCH = "dirmin_s, matched_energy_s on grid"
_EXTEND = "approx_spike_s, persistence_s on currents; competitor_s on cone"
_PIPELINE = ("gen_current_s, approx_spike_s, persistence_s, harmonic_s on "
             "currents; competitor_s on cone")

LAYERS = [
    Layer("embed", "build_embedding", CS, "setup_s on cone"),
    Layer("embed", "face_lattice", CS, "setup_s on cone"),
    Layer("embed", "FaceLattice.nearest_point_batch", CISS, _RHO_STAR, _rows),
    Layer("embed", "FaceLattice.skeleton_distance_batch", CISS, _RHO_STAR,
          _rows),
    Layer("embed", "FaceLattice.closure_distance", CSS, _RHO_STAR),
    Layer("embed", "FaceLattice.nearest_point", CSS, _RHO_STAR),
    Layer("embed", "FaceLattice.skeleton_distance", CSS, _RHO_STAR),
    Layer("embed", "xi_batch", CIS, _XI, _tuples(1)),
    Layer("embed", "xi_inverse", CSS, _XI),
    Layer("coneproj", "project_polyhedral_cone", CSS,
          "energy_split_22_s, rho_star_eval_22_s on cone"),
    Layer("coneproj", "kirszbraun_value", CSS,
          "energy_split_22_s, rho_star_eval_22_s on cone"),
    Layer("coneproj", "pava_pinned", CS, "rho_star_eval_13_s on cone"),
    Layer("coneproj", "offset_enclosing_center", CS,
          "matched_energy_s on grid; approx_spike_s on currents"),
    Layer("roproj", "default_machinery", CS, "setup_s on cone"),
    Layer("roproj", "AlmostProjection.rho_star_batch", CISS, _RHO_STAR,
          _rows),
    Layer("roproj", "AlmostProjection.rho_flat", CISS, _RHO_STAR, _rows),
    Layer("roproj", "AlmostProjection.rho_star", CSS, _RHO_STAR),
    Layer("roproj", "AlmostProjection.rho_sharp", CSS, _RHO_STAR),
    Layer("roproj", "AlmostProjection.tube_level", CSS, _RHO_STAR),
    Layer("roproj", "AlmostProjection.clamp_to_neighborhood", CSS, _RHO_STAR,
          extra=("roproj.rho_star.retries", _is_retry)),
    Layer("qfield", "matched_diff_sq", CIS, _MATCH, _tuples(0)),
    Layer("qfield", "dirichlet_energy", CSS, _MATCH),
    Layer("qfield", "energy_density", CSS, _MATCH),
    Layer("qfield", "lipschitz_and_osc", CSS, _MATCH),
    Layer("qfield", "lipschitz_extend", CIS, _EXTEND, _extended_nodes),
    Layer("qfield", "mollify_embedded", CIS, _EXTEND, _grid_nodes),
    Layer("qfield", "retract_embedded", CIS, _EXTEND, _retract_rows),
    Layer("qfield", "disk_weights", CS, _EXTEND),
    Layer("qspace", "metric_g", CS, "matched_energy_s on grid"),
    Layer("currents", "ExcessField", CSS, _PIPELINE),
    Layer("currents", "maximal_excess", CSS, _PIPELINE),
    Layer("currents", "mass_ratio_profile", CSS, _PIPELINE),
    Layer("currents", "lipschitz_approximation", CSS, _PIPELINE),
    Layer("currents", "build_competitor", CSS, _PIPELINE),
    Layer("probes", "solve_dir_minimizer", CSS,
          "dirmin_s on grid; harmonic_s on currents",
          extra=("probes.solve_dir_minimizer.sweeps", _sweeps)),
    Layer("probes", "spsolve", CS, "dirmin_s on grid; harmonic_s on currents"),
    Layer("probes", "energy_split_probe", CS, "energy_split_22_s on cone"),
    Layer("probes", "persistence_probe", CS, "persistence_s on currents"),
    Layer("probes", "harmonic_approx_probe", CS, "harmonic_s on currents"),
    Layer("cli", "main", CS, "every job metric, on all workloads"),
]

# Metrics derived from the accumulators rather than read off one symbol:
# name -> (unit, what it should move).
DERIVED = {
    "roproj.rho_star.retries": ("count", _RHO_STAR),
    "roproj.rho_star.first_try_ratio": ("ratio", _RHO_STAR),
    "probes.solve_dir_minimizer.sweeps": ("count", "dirmin_s on grid"),
    "cli.artifact_bytes": ("bytes", "every job metric, on all workloads"),
    "trace.run_s": ("s", "run_s with tracing on"),
    "trace.untraced_run_s": ("s", "run_s of the same passes, tracing off"),
    "trace.overhead": ("ratio", "trace.run_s / trace.untraced_run_s - 1"),
}

UNITS = {"calls": "count", "items": "count", "s": "s", "self_s": "s"}


def metric_table():
    """(name, unit, what it should move) of every per-layer metric the traced
    run reports, in table order."""
    rows = [("%s.%s" % (layer.name, sfx), UNITS[sfx], layer.moves)
            for layer in LAYERS for sfx in layer.suffixes]
    return rows + [(name, unit, moves)
                   for name, (unit, moves) in DERIVED.items()]


def metric_names():
    return [name for name, _, _ in metric_table()]


def metric_units():
    return {name: unit for name, unit, _ in metric_table()}


def _wrap(orig, acc, items, extra):
    """Timing wrapper; acc = [calls, items, inclusive s, self s, extra]."""
    clock = time.perf_counter

    def traced(*args, **kwargs):
        children = [0.0]
        token = _OPEN_SPAN.set(children)
        start = clock()
        try:
            result = orig(*args, **kwargs)
        finally:
            dur = clock() - start
            _OPEN_SPAN.reset(token)
            parent = _OPEN_SPAN.get()
            if parent is not None:
                parent[0] += dur
            acc[0] += 1
            acc[2] += dur
            acc[3] += dur - children[0]
            if items is not None:
                acc[1] += items(args, kwargs)
        if extra is not None:
            acc[4] += extra(args, kwargs, result)
        return result

    return functools.update_wrapper(traced, orig)


class Tracer:
    """Installs the wrappers on demand and keeps their accumulators."""

    def __init__(self, layers=LAYERS, package="qlip"):
        self.layers = layers
        self.acc = {layer.name: [0, 0, 0.0, 0.0, 0] for layer in layers}
        self._patches = self._resolve(package)

    def _resolve(self, package):
        """(owner, attribute, original, wrapper) for every binding to patch;
        fails loudly when a listed symbol no longer exists."""
        modules = [importlib.import_module("%s.%s" % (package, name))
                   for name in ("qspace", "coneproj", "embed", "roproj",
                                "qfield", "currents", "probes", "cli")]
        patches = []
        for layer in self.layers:
            home = importlib.import_module("%s.%s" % (package, layer.module))
            owner_name, _, attr = layer.symbol.rpartition(".")
            acc = self.acc[layer.name]
            extra = layer.extra[1] if layer.extra else None
            if owner_name:
                owner = getattr(home, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise AttributeError("traced symbol %s.%s no longer exists"
                                         % (package, layer.name))
                orig = vars(owner)[attr]
                patches.append((owner, attr, orig,
                                _wrap(orig, acc, layer.items, extra)))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                raise AttributeError("traced symbol %s.%s no longer exists"
                                     % (package, layer.name))
            if isinstance(orig, type):
                # a constructor: time __init__ on the class itself
                init = vars(orig)["__init__"]
                patches.append((orig, "__init__", init,
                                _wrap(init, acc, layer.items, extra)))
                continue
            wrapper = _wrap(orig, acc, layer.items, extra)
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is orig:
                        patches.append((mod, key, orig, wrapper))
        return patches

    @property
    def bindings(self):
        """(owner, attribute, original) of every patched binding."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._patches]

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def snapshot(self):
        return {name: list(acc) for name, acc in self.acc.items()}


def layer_metrics(setup, passes):
    """Per-layer metrics from accumulator snapshots.

    `setup` holds what set-up accumulated; `passes` one delta per traced pass
    over the workload's jobs.  Counts are set-up plus the first pass (every
    pass repeats them); times are set-up plus the median pass."""
    out = {}
    extras = {}
    for layer in LAYERS:
        base = setup[layer.name]
        per_pass = [p[layer.name] for p in passes]
        first = per_pass[0]
        fields = {
            "calls": base[0] + first[0],
            "items": base[1] + first[1],
            "s": base[2] + statistics.median([p[2] for p in per_pass]),
            "self_s": base[3] + statistics.median([p[3] for p in per_pass]),
        }
        for sfx in layer.suffixes:
            out["%s.%s" % (layer.name, sfx)] = fields[sfx]
        if layer.extra:
            extras[layer.extra[0]] = base[4] + first[4]
    rho_star = out["roproj.AlmostProjection.rho_star.calls"]
    retries = extras["roproj.rho_star.retries"]
    out["roproj.rho_star.retries"] = retries
    out["roproj.rho_star.first_try_ratio"] = (
        1.0 - retries / rho_star if rho_star else 1.0)
    out["probes.solve_dir_minimizer.sweeps"] = \
        extras["probes.solve_dir_minimizer.sweeps"]
    return out


def delta(after, before):
    return {name: [a - b for a, b in zip(after[name], before[name])]
            for name in after}

