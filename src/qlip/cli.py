"""Command line driver: current generation, the approximation pipeline,
retraction evaluation, Dirichlet minimization, probes and reporting.

Every run writes its artifacts under ``--out`` together with a manifest
recording the command line, the merged configuration, the seed, the
hashes of any input files and the sha256 of every artifact.  Identical
(command, config, seed) reruns produce hash-identical artifacts; the
manifest differs only in its wall-clock field.

Exit codes: 0 success, 1 probe verdict failure (report still written),
2 unknown command or bad usage, 3 malformed configuration or input.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import currents as cu
from . import probes as pb
from . import qfield as qf
from .embed import xi_batch
from .qspace import random_qpoint
from .roproj import default_machinery

SCHEMA = 1

_CURRENT_KINDS = ("flat", "spike", "w32", "custom-graph")


class ConfigError(ValueError):
    """Unusable configuration or input file; maps to exit code 3."""


# ---------------------------------------------------------------------------
# serialization helpers


def _plain(obj):
    """json.dumps fallback: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


def _fmt(x) -> str:
    return "%.12g" % float(x)


class _Sink:
    """Artifact writer that tracks sha256 hashes for the manifest."""

    def __init__(self, out: Path):
        self.out = out
        self.hashes = {}
        self.inputs = {}

    def write(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text)
        self.hashes[name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def write_json(self, name: str, obj) -> Path:
        return self.write(name, _dumps(obj))

    def note_input(self, path) -> bytes:
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError("cannot read input file %s: %s" % (path, exc))
        self.inputs[str(path)] = hashlib.sha256(raw).hexdigest()
        return raw


# ---------------------------------------------------------------------------
# configuration


_COMMON_DEFAULTS = {"out": "qlip-out", "seed": 0}

# Options of every command that builds a current (gen-current, approx,
# probe): flag, argparse keywords, config default.  The current kind and
# --scale default per command.
_CURRENT_OPTIONS = (
    ("--scale", {"type": float}, None),
    ("--res", {"type": int}, None),
    ("--radius4", {"type": float}, None),
    ("--q", {"type": int}, None),
    ("--n", {"type": int}, None),
    ("--heights", {"help": "JSON (q, n) height rows"}, None),
    ("--spike-center", {"nargs": 2, "type": float}, (0.3, 0.2)),
    ("--spike-radius", {"type": float}, 0.05),
    ("--spike-excess", {"type": float}, 0.008),
    ("--input", {"help": "current JSON for custom-graph; field JSON for "
                         "probe reverse-holder"}, None),
)


def _current_defaults(current, scale, **extra) -> dict:
    cfg = {flag[2:].replace("-", "_"): default
           for flag, _, default in _CURRENT_OPTIONS}
    return dict(cfg, current=current, scale=scale, **extra)


# The config keys each probe reads, besides out and seed.  Setting any other
# key, by flag or in the config file, is a usage error (exit 3).
_PROBE_KEYS = {
    "gradient-lp": ("scales", "res", "p1"),
    "persistence": ("current", "scale", "res", "s_list"),
    "reverse-holder": ("input", "boundary", "res", "starts", "p11"),
    "excess": tuple(_current_defaults(None, None)),  # all of _make_current's
    "harmonic": ("scales", "res"),
    "energy-split": ("n", "q", "res"),
}


_DEFAULTS = {
    "gen-current": _current_defaults("w32", 1.0, profile_points=25),
    "approx": _current_defaults("flat", 1.0, delta11=None, beta=0.1,
                                strict=None),
    "rho-star-eval": {
        "n": 1, "q": 2, "c0": 0.1, "delta": 0.1, "samples": 200,
    },
    "dirmin": {
        "boundary": "sqrt-branch", "res": 33, "starts": 4, "radius": 1.0,
    },
    "probe": _current_defaults(None, None, probe=None, scales=None,
                               s_list=None, p1=None, p11=None,
                               boundary="sqrt-branch", starts=None),
    "report": {"dir": None},
}


def _load_config_file(path: str, inputs: dict) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    inputs[str(path)] = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise ConfigError("unsupported config schema %r" % obj.get("schema"))
    obj.pop("schema", None)
    return obj


def _merge_config(args) -> tuple:
    """Defaults < config file < explicit command-line flags."""
    cfg = dict(_DEFAULTS[args.cmd])
    cfg.update(_COMMON_DEFAULTS)
    inputs, given = {}, set()
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config, inputs)
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        cfg.update(file_cfg)
        given.update(file_cfg)
    for key in list(cfg):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
            given.add(key)

    if isinstance(cfg.get("heights"), str):
        try:
            cfg["heights"] = json.loads(cfg["heights"])
        except json.JSONDecodeError as exc:
            raise ConfigError("heights must be JSON: %s" % exc)
    for key in ("scales", "s_list", "spike_center"):
        if cfg.get(key) is not None:
            cfg[key] = tuple(float(v) for v in cfg[key])
    if cfg.get("current") is not None and cfg["current"] not in _CURRENT_KINDS:
        raise ConfigError("unknown current kind %r" % cfg["current"])
    if args.cmd == "probe":
        if cfg["probe"] not in _PROBE_KEYS:
            raise ConfigError("unknown probe %r" % cfg["probe"])
        unread = sorted(given.difference(_PROBE_KEYS[cfg["probe"]], ("probe", "out", "seed")))
        if unread:
            raise ConfigError("probe %s does not read %s" % (cfg["probe"], ", ".join(
                "--" + key.replace("_", "-") for key in unread)))
    if args.cmd in ("dirmin", "probe") and cfg["boundary"] not in _TRACES:
        raise ConfigError("unknown boundary %r" % cfg["boundary"])
    return cfg, inputs


def _opt(cfg: dict, key: str, default):
    """cfg[key], set to `default` when unset so the manifest records it."""
    if cfg.get(key) is None:
        cfg[key] = default
    return cfg[key]


# ---------------------------------------------------------------------------
# current factory


def _make_current(cfg: dict, sink: _Sink) -> cu.GraphCurrent:
    kind = cfg["current"]
    try:
        if kind == "w32":
            return cu.w32_current(_opt(cfg, "scale", 1.0),
                                  res=_opt(cfg, "res", 129),
                                  radius4=_opt(cfg, "radius4", 1.0))
        if kind == "flat":
            return cu.flat_current(q=_opt(cfg, "q", 2), n=_opt(cfg, "n", 1),
                                   heights=cfg.get("heights"),
                                   res=_opt(cfg, "res", 65),
                                   radius4=_opt(cfg, "radius4", 1.0))
        if kind == "spike":
            spike = cu.Spike(tuple(cfg["spike_center"]),
                             float(cfg["spike_radius"]),
                             float(cfg["spike_excess"]))
            return cu.flat_current(q=_opt(cfg, "q", 2), n=_opt(cfg, "n", 1),
                                   heights=cfg.get("heights"),
                                   res=_opt(cfg, "res", 129),
                                   radius4=_opt(cfg, "radius4", 4.0),
                                   spikes=(spike,))
    except ValueError as exc:
        raise ConfigError(str(exc))
    if kind == "custom-graph":
        if not cfg.get("input"):
            raise ConfigError("custom-graph needs --input <current JSON>")
        raw = sink.note_input(cfg["input"])
        try:
            blob = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError("input is not valid JSON: %s" % exc)
        if "current" in blob:
            blob = blob["current"]
        if "base" not in blob:
            raise ConfigError("input does not look like a serialized current")
        try:
            return cu.current_from_json(blob)
        except (KeyError, ValueError) as exc:
            raise ConfigError("cannot rebuild current: %s" % exc)
    raise ConfigError("unknown current kind %r" % kind)


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_current(cfg: dict, sink: _Sink) -> int:
    T = _make_current(cfg, sink)
    ex = cu.ExcessField(T)
    r1 = min(1.0, T.radius4)
    metrics = {
        "q": T.q, "n": T.n, "res": T.base.res, "radius4": T.radius4,
        "radius": r1,
        "mass": ex.ball_mass(T.center, r1),
        "excess": ex.ball_excess(T.center, r1),
        "excess_ratio": ex.excess_ratio(r1),
        "height": cu.height(T),
        "spikes": len(T.spikes),
    }
    if T.sheet_values is not None:
        k = max(int(_opt(cfg, "profile_points", 25)), 2)
        radii = np.linspace(0.98 * r1 / k, 0.98 * r1, k)
        profile, drop = cu.mass_ratio_profile(T, radii)
        metrics["profile"] = [[rho, val] for rho, val in profile]
        metrics["profile_violation"] = drop
    blob = {"schema": SCHEMA, "kind": cfg["current"],
            "scale": cfg.get("scale"), "metrics": metrics,
            "current": T.to_json()}
    sink.write_json("current.json", blob)
    return 0


def _cmd_approx(cfg: dict, sink: _Sink) -> int:
    T = _make_current(cfg, sink)
    ex = cu.ExcessField(T)
    E = ex.excess_ratio(T.radius4)
    beta = float(_opt(cfg, "beta", 0.1))
    if not 0.0 < beta < 1.0 / (2 * T.m):
        raise ConfigError("beta out of range")
    delta11 = cfg.get("delta11")
    if delta11 is None:
        # threshold keeping the smallness hypothesis honest, floored so a
        # zero-excess current keeps its full good set
        delta11 = max(max(E, 0.0) ** (2 * beta), 1.25 * 16 ** T.m * E, 1e-4)
    try:
        u, K, rep = cu.lipschitz_approximation(T, float(delta11),
                                               strict=bool(cfg.get("strict")), ex=ex)
    except ValueError as exc:
        raise ConfigError(str(exc))
    dist = np.linalg.norm(T.base.nodes() - T.center, axis=-1)
    ball3 = (dist <= 3 * T.r + 1e-12) & T.base.mask
    blob = {"schema": SCHEMA, "kind": cfg["current"],
            "delta11": float(delta11), "report": rep,
            "k_count": int(K.sum()), "ball_count": int(ball3.sum()),
            "k_fraction": float(K.sum() / ball3.sum()),
            "lip_u_over_sqrt_delta11": rep["lip_u"] / math.sqrt(delta11)}
    sink.write_json("approx.json", blob)
    return 0


def _cmd_rho_star_eval(cfg: dict, sink: _Sink) -> int:
    n, q = int(cfg["n"]), int(cfg["q"])
    try:
        mach = default_machinery(n, q, c0=float(cfg["c0"]),
                                 delta=float(cfg["delta"]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    rng = np.random.default_rng(int(cfg["seed"]))
    k = max(int(cfg["samples"]), 1)
    tuples = np.stack([random_qpoint(rng, q, n).points for _ in range(k)])
    on_cone = xi_batch(mach.spec, tuples)
    delta = mach.ladder.delta
    tube = delta ** (n * q + 1)
    rows = []
    for sigma in (0.0, 0.5 * tube, 0.5 * delta, 2.0 * delta):
        noise = rng.normal(size=on_cone.shape)
        noise /= np.linalg.norm(noise, axis=-1, keepdims=True)
        x = on_cone + sigma * noise
        _, before = mach.lattice.nearest_point_batch(x)
        ret = mach.rho_star_batch(x)
        _, resid = mach.lattice.nearest_point_batch(ret)
        disp = np.linalg.norm(ret - x, axis=-1)
        rows.append({"sigma": float(sigma),
                     "max_input_dist": float(before.max()),
                     "max_residual": float(resid.max()),
                     "max_displacement": float(disp.max()),
                     "mean_displacement": float(disp.mean())})
    cols = list(rows[0])
    csv = [",".join(cols)]
    csv += [",".join(_fmt(row[c]) for c in cols) for row in rows]
    sink.write("rho-star.csv", "\n".join(csv) + "\n")
    sink.write_json("rho-star.json", {
        "schema": SCHEMA, "n": n, "q": q, "delta": delta,
        "c0": mach.ladder.ck(0), "samples": k, "rows": rows,
        "summary": {"max_residual": max(r["max_residual"] for r in rows),
                    "max_displacement": max(r["max_displacement"]
                                            for r in rows)}})
    return 0


_TRACES = {
    # boundary data -> (callable, q, n, closed-form disk energy or None)
    "sqrt-branch": (lambda p: _sqrt_rows(p), 2, 2, 2.0 * math.pi),
    "linear": (lambda p: np.array([[p[0]]]), 1, 1, math.pi),
    "const": (lambda p: np.array([[0.3], [-0.4]]), 2, 1, 0.0),
}


def _sqrt_rows(p):
    v = complex(p[0], p[1]) ** 0.5
    return np.array([[v.real, v.imag], [-v.real, -v.imag]])


def _cmd_dirmin(cfg: dict, sink: _Sink) -> int:
    trace, q, n, reference = _TRACES[cfg["boundary"]]
    try:
        f, rep = pb.solve_dir_minimizer(
            trace, res=int(cfg["res"]), q=q, n=n, radius=float(cfg["radius"]),
            starts=int(cfg["starts"]), seed=int(cfg["seed"]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    blob = {"schema": SCHEMA, "boundary": cfg["boundary"], "q": q, "n": n,
            "res": int(cfg["res"]), "reference_energy": reference}
    for key in ("energy", "history", "start_energies", "converged",
                "center_separation", "branch_offset", "spacing"):
        blob[key] = rep[key]
    if reference:
        blob["energy_gap_rel"] = abs(rep["energy"] - reference) / reference
    sink.write_json("dirmin.json", blob)
    sink.write_json("dirmin-field.json", f.to_json())
    return 0


def _probe_config(cfg: dict) -> pb.ProbeConfig:
    # explicit --scales goes to the probe call, not the config: short
    # sweeps are legitimate for some probes and would fail validate()
    kw = {"seed": int(cfg["seed"])}
    for key in ("p1", "p11"):
        if cfg.get(key) is not None:
            kw[key] = float(cfg[key])
    pc = pb.ProbeConfig(**kw)
    try:
        pc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return pc


def _split_fields(mach, res: int):
    """Smooth embedded field plus a copy pushed off the image cone."""
    q = mach.spec.dims.q
    n = mach.spec.dims.n

    def fn(p):
        a = 0.2 * math.sin(2.0 * p[0]) + 0.1 * p[1]
        out = np.empty((q, n))
        for j in range(q):
            for i in range(n):
                out[j, i] = a + 0.5 * j + 0.1 * math.cos((i + 1.0) * p[0])
        return out

    f = qf.from_callable(qf.square(1.0), res, fn, q=q, n=n)
    emb = xi_batch(mach.spec, f.values.reshape(-1, q, n))
    emb = emb.reshape(res, res, -1)
    x, y = np.meshgrid(*f.axes(), indexing="ij")
    wob = np.stack([np.sin((i + 2.0) * x + i) * np.cos((i % 3 + 1.0) * y)
                    for i in range(emb.shape[-1])], axis=-1)
    thresh = mach.ladder.delta ** (n * q + 1)
    return [(emb, f.spacing, None),
            (emb + 3.0 * thresh * wob, f.spacing, None)]


def _cmd_probe(cfg: dict, sink: _Sink) -> int:
    name = cfg["probe"]
    pc = _probe_config(cfg)
    try:
        if name == "gradient-lp":
            cfg["p1"] = pc.p1
            report = pb.gradient_lp_probe(scales=_opt(cfg, "scales", pc.scales),
                                          res=int(_opt(cfg, "res", 65)),
                                          config=pc)
        elif name == "persistence":
            if cfg.get("current") not in (None, "w32"):
                raise ConfigError(
                    "persistence probe runs on the branched benchmark only")
            res = int(_opt(cfg, "res", 129))
            lam = float(_opt(cfg, "scale", 1.0))
            report = pb.persistence_probe(
                s_list=tuple(_opt(cfg, "s_list", (0.05, 0.1, 0.2))),
                factory=lambda radius4: cu.w32_current(lam, res=res,
                                                       radius4=radius4),
                res=res, config=pc)
        elif name == "reverse-holder":
            if cfg.get("input"):
                raw = sink.note_input(cfg["input"])
                try:
                    u = qf.QGridFunction.from_json(json.loads(raw.decode()))
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                        ValueError) as exc:
                    raise ConfigError("cannot load field: %s" % exc)
                radius = u.domain.radius
            else:
                trace, q, n, _ = _TRACES[cfg["boundary"]]
                u, _rep = pb.solve_dir_minimizer(
                    trace, res=int(_opt(cfg, "res", 49)), q=q, n=n,
                    starts=int(_opt(cfg, "starts", 4)),
                    seed=int(cfg["seed"]))
                radius = 1.0
            cfg["p11"] = pc.p11
            report = pb.reverse_holder_probe(u, radius=radius, config=pc)
        elif name == "excess":
            _opt(cfg, "current", "w32")
            _opt(cfg, "scale", 2.0 ** -6)
            cfg["res"] = int(_opt(cfg, "res", 97))
            report = pb.excess_probes(_make_current(cfg, sink), config=pc)
        elif name == "harmonic":
            res = int(_opt(cfg, "res", 49))
            report = pb.harmonic_approx_probe(
                scales=_opt(cfg, "scales", pc.scales[:3]), res=res, config=pc)
        elif name == "energy-split":
            # n = 2 exercises the off-cone bucket but builds a much larger
            # embedding; the default stays with the cheap machinery
            mach = default_machinery(int(_opt(cfg, "n", 1)),
                                     int(_opt(cfg, "q", 2)))
            fields = _split_fields(mach, int(_opt(cfg, "res", 21)))
            report = pb.energy_split_probe(mach, fields, config=pc)
        else:
            raise ConfigError("unknown probe %r" % name)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))
    sink.write_json("probe-%s.json" % name,
                    {"schema": SCHEMA, "probe": name,
                     "report": report.to_json()})
    sink.write("probe-%s.csv" % name, report.to_csv())
    return 0 if report.passed else 1


def _fits_str(fits: dict) -> str:
    return " ".join("%s=%s" % (k, _fmt(v)) for k, v in sorted(fits.items())
                    if isinstance(v, (int, float)) and math.isfinite(v))


def _classify(rel: str, blob: dict, rows: list, dats: dict) -> None:
    if isinstance(blob.get("report"), dict) and "rows" in blob["report"]:
        rep = blob["report"]
        rows.append([rel, "probe:" + rep["name"],
                     "pass" if rep["passed"] else "FAIL",
                     _fits_str(rep["fits"])])
        if rep["name"] == "persistence":
            dats["persistence"] += [
                "# %s" % rel] + [
                " ".join(_fmt(row[c]) for c in ("s", "lhs", "shape"))
                for row in rep["rows"] if "s" in row]
        if rep["name"] == "gradient_lp":
            dats["gradient-lp"] += [
                "# %s" % rel] + [
                " ".join(_fmt(row[c]) for c in ("scale", "lhs", "rhs",
                                                "ratio"))
                for row in rep["rows"] if "scale" in row]
    elif "metrics" in blob:
        m = blob["metrics"]
        rows.append([rel, "current:" + blob.get("kind", "?"), "ok",
                     "excess_ratio=%s mass=%s" % (_fmt(m["excess_ratio"]),
                                                  _fmt(m["mass"]))])
        if "profile" in m:
            dats["mass-ratio"] += ["# %s" % rel] + [
                "%s %s" % (_fmt(rho), _fmt(val)) for rho, val in m["profile"]]
    elif "k_fraction" in blob:
        rows.append([rel, "approx", "ok",
                     "k_fraction=%s lip_u=%s" % (
                         _fmt(blob["k_fraction"]),
                         _fmt(blob["report"]["lip_u"]))])
    elif "energy" in blob and "history" in blob:
        rows.append([rel, "dirmin:" + blob.get("boundary", "?"),
                     "ok" if blob.get("converged") else "FAIL",
                     "energy=%s" % _fmt(blob["energy"])])
    elif "summary" in blob and "rows" in blob:
        rows.append([rel, "rho-star", "ok",
                     "max_residual=%s" % _fmt(blob["summary"]
                                              ["max_residual"])])
    else:
        rows.append([rel, "data", "-", ""])


def _cmd_report(cfg: dict, sink: _Sink) -> int:
    root = Path(cfg.get("dir") or sink.out)
    if not root.is_dir():
        raise ConfigError("artifact directory %s missing" % root)
    skip = {"manifest.json", "summary.json"}
    rows = []
    dats = {"mass-ratio": [], "persistence": [], "gradient-lp": []}
    for path in sorted(root.rglob("*.json")):
        if path.name in skip:
            continue
        rel = path.relative_to(root).as_posix()
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("corrupt artifact %s: %s" % (rel, exc))
        if not isinstance(blob, dict):
            raise ConfigError("corrupt artifact %s: not an object" % rel)
        _classify(rel, blob, rows, dats)
    header = "artifact | kind | status | details"
    lines = [header, "-" * len(header)]
    lines += [" | ".join(r) for r in rows]
    sink.write("summary.txt", "\n".join(lines) + "\n")
    sink.write_json("summary.json", {"schema": SCHEMA, "rows": rows,
                                     "count": len(rows)})
    for stem, content in sorted(dats.items()):
        if content:
            sink.write(stem + ".dat", "\n".join(content) + "\n")
    return 0


_HANDLERS = {
    "gen-current": _cmd_gen_current,
    "approx": _cmd_approx,
    "rho-star-eval": _cmd_rho_star_eval,
    "dirmin": _cmd_dirmin,
    "probe": _cmd_probe,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_current_options(parser) -> None:
    for flag, kw, _ in _CURRENT_OPTIONS:
        parser.add_argument(flag, **kw)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="artifact directory (default qlip-out)")
    common.add_argument("--seed", type=int)
    common.add_argument("--config", help="JSON config file")

    ap = argparse.ArgumentParser(
        prog="qlip", description="Q-valued graph current toolbox")
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="command")

    g = sub.add_parser("gen-current", parents=[common],
                       help="build a benchmark current and its metrics")
    g.add_argument("current", choices=_CURRENT_KINDS)
    _add_current_options(g)
    g.add_argument("--profile-points", type=int)

    a = sub.add_parser("approx", parents=[common],
                       help="run the Lipschitz approximation pipeline")
    a.add_argument("--current", choices=_CURRENT_KINDS)
    _add_current_options(a)
    a.add_argument("--delta11", type=float)
    a.add_argument("--beta", type=float)
    a.add_argument("--strict", action="store_true", default=None)

    r = sub.add_parser("rho-star-eval", parents=[common],
                       help="sample the retraction onto the embedded cone")
    r.add_argument("--n", type=int)
    r.add_argument("--q", type=int)
    r.add_argument("--c0", type=float)
    r.add_argument("--delta", type=float)
    r.add_argument("--samples", type=int)

    d = sub.add_parser("dirmin", parents=[common],
                       help="minimize the matched Dirichlet energy")
    d.add_argument("--boundary", choices=sorted(_TRACES))
    d.add_argument("--res", type=int)
    d.add_argument("--starts", type=int)
    d.add_argument("--radius", type=float)

    p = sub.add_parser("probe", parents=[common],
                       help="run one empirical estimate")
    p.add_argument("probe", choices=_PROBE_KEYS)
    p.add_argument("--current", choices=_CURRENT_KINDS)
    _add_current_options(p)
    p.add_argument("--scales", nargs="+", type=float)
    p.add_argument("--s-list", nargs="+", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--p11", type=float)
    p.add_argument("--boundary", choices=sorted(_TRACES))
    p.add_argument("--starts", type=int)

    rp = sub.add_parser("report", parents=[common],
                        help="aggregate artifacts into a summary and .dat")
    rp.add_argument("--dir", help="directory to scan (default --out)")
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown commands and bad usage, 0 on --help
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        cfg, inputs = _merge_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        sink = _Sink(out)
        sink.inputs.update(inputs)
        status = _HANDLERS[args.cmd](cfg, sink)
    except ConfigError as exc:
        print("qlip: %s" % exc, file=sys.stderr)
        return 3
    manifest = {
        "schema": SCHEMA,
        "command": list(argv) if argv is not None else sys.argv[1:],
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "seed": cfg.get("seed", 0),
        "input_hashes": sink.inputs,
        "outputs": sorted(sink.hashes),
        "artifacts": sink.hashes,
        "wall_clock_s": time.perf_counter() - started,
    }
    (out / "manifest.json").write_text(_dumps(manifest))
    return status


if __name__ == "__main__":
    sys.exit(main())
