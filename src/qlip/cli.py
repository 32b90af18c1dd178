"""Command line driver: current generation, the approximation pipeline,
retraction evaluation, Dirichlet minimization, probes and reporting.

Every run writes its artifacts under ``--out`` together with a manifest
recording the command line, the merged configuration, the seed, the
hashes of any input files and the sha256 of every artifact.  Identical
(command, config, seed) reruns produce hash-identical artifacts; the
manifest differs only in its wall-clock field.

Each flag is declared once, in ``_FLAGS``; a command's parser takes the
keys that its rows of ``_READS`` read, and ``--config`` names a JSON file of
the same keys, each holding a value its flag could parse to.

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
from .roproj import default_machinery

SCHEMA = 1

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


def _read_json(path, what: str, inputs: dict, decode):
    """decode(the JSON value of the file at path), with the file's sha256
    noted in inputs.  A file that cannot be read or parsed, or whose value
    decode rejects with KeyError, TypeError or ValueError, is a ConfigError
    (exit 3)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc))
    inputs[str(path)] = hashlib.sha256(raw).hexdigest()
    try:
        return decode(json.loads(raw.decode()))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("%s %s is not valid JSON: %s" % (what, path, exc))
    except KeyError as exc:
        raise ConfigError("%s %s lacks the key %s" % (what, path, exc))
    except (TypeError, ValueError) as exc:
        raise ConfigError("cannot load %s %s: %s" % (what, path, exc))


# ---------------------------------------------------------------------------
# configuration


# The keys each run reads, with their defaults: one row per command, per
# probe and per current kind.  A row "<row> --<key>" replaces <row> when that
# key is given (reverse-holder and approx have one row per input mode).
# Every command reads the "*" row too; a row in _CURRENT_ROWS also reads its
# current kind's row, and its own defaults for current keys apply only when
# that kind reads them.  Giving any other key, by flag or in the config file,
# is an error (exit 3).  A None default means "derive it" or "not given".
_READS = {
    "*": {"out": "qlip-out", "seed": 0},
    "gen-current": {"profile_points": 25},
    # a current rebuilt from a file has no analytic sheets to profile
    "gen-current --input": {},
    "approx": {"current": "flat", "delta11": None, "beta": 0.1,
               "strict": False},
    # beta serves only to derive delta11
    "approx --delta11": {"current": "flat", "delta11": None, "strict": False},
    "rho-star-eval": {"n": 1, "q": 2, "c0": 0.1, "delta": 0.1,
                      "samples": 200},
    "dirmin": {"boundary": "sqrt-branch", "res": 33, "starts": 1,
               "radius": 1.0},
    "report": {"dir": None},
    "probe gradient-lp": {"scales": pb.ProbeConfig.scales, "res": 65,
                          "p1": pb.ProbeConfig.p1},
    "probe persistence": {"current": "w32", "scale": 1.0, "res": 129,
                          "s_list": (0.05, 0.1, 0.2)},
    "probe reverse-holder": {"boundary": "sqrt-branch", "res": 49,
                             "p11": pb.ProbeConfig.p11},
    "probe reverse-holder --input": {"input": None,
                                     "p11": pb.ProbeConfig.p11},
    "probe excess": {"current": "w32", "scale": 2.0 ** -6, "res": 97},
    "probe harmonic": {"scales": pb.ProbeConfig.scales[:3], "res": 49},
    "probe energy-split": {"n": 1, "q": 2, "res": 21},
    "current w32": {"scale": 1.0, "res": 129, "radius4": 1.0},
    "current flat": {"q": 2, "n": 1, "heights": None, "res": 65,
                     "radius4": 1.0},
    "current spike": {"q": 2, "n": 1, "heights": None, "res": 129,
                      "radius4": 4.0, "spike_center": (0.3, 0.2),
                      "spike_radius": 0.05, "spike_excess": 0.008},
    "current custom-graph": {"input": None},
}
_CURRENT_ROWS = ("gen-current", "approx", "probe excess")
_CURRENT_KEYS = {key for row in _READS if row.startswith("current ")
                 for key in _READS[row]}


def _names(prefix: str) -> list:
    """The probes (prefix "probe") or current kinds ("current") of _READS."""
    return list(dict.fromkeys(row.split()[1] for row in _READS
                              if row.startswith(prefix + " ")))


def _config_keys(obj) -> dict:
    """A config file's keys: its JSON object, schema checked and dropped."""
    if not isinstance(obj, dict):
        raise ValueError("its root must be a JSON object")
    schema = obj.pop("schema", SCHEMA)
    if schema != SCHEMA:
        raise ValueError("unsupported schema %r" % schema)
    return obj


def _merge_config(args) -> tuple:
    """The run's row of _READS: its defaults < config file < flags.  A null
    in the config file, like an absent flag, leaves the default; any other
    config value must be one its flag could parse to."""
    inputs = {}
    given = (_read_json(args.config, "config", inputs, _config_keys)
             if args.config else {})
    given = {key: val for key, val in given.items() if val is not None}
    for key, val in given.items():
        if key in _FLAGS and not (_fits(_FLAGS[key], val) or key == "heights"
                                  and isinstance(val, list)):
            raise ConfigError("config key %s: --%s cannot take %s" % (
                key, key.replace("_", "-"), json.dumps(val)))
    given.update((key, val) for key, val in vars(args).items()
                 if val is not None and key not in ("cmd", "config"))
    row, reads = args.cmd, dict(_READS["*"])
    if row == "probe":
        row += " " + given["probe"]
        reads["probe"] = given["probe"]
    base = row
    for key in sorted(given):
        if "%s --%s" % (base, key) in _READS:
            row = "%s --%s" % (base, key)
    reads.update(_READS[row])
    label = row
    if base in _CURRENT_ROWS:
        kind = given.get("current", reads.get("current"))
        own = _READS["current " + kind]
        reads = dict(own, **{key: val for key, val in reads.items()
                             if key not in _CURRENT_KEYS or key in own})
        reads["current"] = kind
        label += " with current " + kind
    unread = sorted(set(given) - set(reads))
    if unread:
        raise ConfigError("%s does not read %s" % (label, ", ".join(
            "--" + key.replace("_", "-") for key in unread)))
    cfg = dict(reads, **given)

    if isinstance(cfg.get("heights"), str):
        try:
            cfg["heights"] = json.loads(cfg["heights"])
        except json.JSONDecodeError as exc:
            raise ConfigError("heights must be JSON: %s" % exc)
    for key in ("scales", "s_list", "spike_center"):
        if key in cfg:
            cfg[key] = tuple(float(v) for v in cfg[key])
    return cfg, inputs


def _fits(kw: dict, val) -> bool:
    """Whether a JSON value is one that the flag with argparse keywords kw
    could parse to: a list of its nargs length, one of its choices, a bool
    for a switch, else of its type (a number for float, never a bool)."""
    if "nargs" in kw:
        return (isinstance(val, list) and len(val) > 0
                and kw["nargs"] in ("+", len(val))
                and all(_fits({"type": kw["type"]}, v) for v in val))
    if "choices" in kw:
        return val in kw["choices"]
    if "action" in kw or isinstance(val, bool):
        return "action" in kw and isinstance(val, bool)
    typ = kw.get("type", str)
    return isinstance(val, (int, float) if typ is float else typ)


# ---------------------------------------------------------------------------
# current factory


def _make_current(cfg: dict, sink: _Sink) -> cu.GraphCurrent:
    kind = cfg["current"]
    try:
        if kind == "w32":
            return cu.w32_current(cfg["scale"], res=cfg["res"],
                                  radius4=cfg["radius4"])
        if kind != "custom-graph":
            spikes = ()
            if kind == "spike":
                spikes = (cu.Spike(cfg["spike_center"],
                                   float(cfg["spike_radius"]),
                                   float(cfg["spike_excess"])),)
            return cu.flat_current(q=cfg["q"], n=cfg["n"],
                                   heights=cfg["heights"], res=cfg["res"],
                                   radius4=cfg["radius4"], spikes=spikes)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not cfg["input"]:
        raise ConfigError("custom-graph needs --input <current JSON>")
    return _read_json(cfg["input"], "input", sink.inputs, _current_blob)


def _current_blob(blob) -> cu.GraphCurrent:
    """The current of a current JSON, bare or as gen-current wrote it."""
    if "current" in blob:
        blob = blob["current"]
    if "base" not in blob:
        raise ValueError("it does not look like a serialized current")
    T = cu.current_from_json(blob)
    T.excess  # built here so an unsupported q fails as bad input
    return T


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_current(cfg: dict, sink: _Sink) -> int:
    T = _make_current(cfg, sink)
    ex = T.excess
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
        k = cfg["profile_points"]
        if k < 2:
            raise ConfigError("a mass-ratio profile needs profile_points >= 2")
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
    delta11 = cfg["delta11"]
    if delta11 is None:
        beta = float(cfg["beta"])
        if not 0.0 < beta < 1.0 / (2 * T.m):
            raise ConfigError("beta out of range")
        # threshold keeping the smallness hypothesis honest, floored so a
        # zero-excess current keeps its full good set
        E = T.excess.excess_ratio(T.radius4)
        delta11 = max(max(E, 0.0) ** (2 * beta), 1.25 * 16 ** T.m * E, 1e-4)
    try:
        u, K, rep = cu.lipschitz_approximation(T, float(delta11),
                                               strict=cfg["strict"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    blob = {"schema": SCHEMA, "kind": cfg["current"],
            "delta11": float(delta11), "report": rep,
            "k_count": int(K.sum()), "ball_count": int(u.mask.sum()),
            "k_fraction": float(K.sum() / u.mask.sum()),
            "lip_u_over_sqrt_delta11": rep["lip_u"] / math.sqrt(delta11)}
    sink.write_json("approx.json", blob)
    return 0


def _cmd_rho_star_eval(cfg: dict, sink: _Sink) -> int:
    n, q = cfg["n"], cfg["q"]
    try:
        mach = default_machinery(n, q, c0=float(cfg["c0"]),
                                 delta=float(cfg["delta"]))
    except ValueError as exc:
        raise ConfigError(str(exc))
    k = cfg["samples"]
    if k < 1:
        raise ConfigError("an evaluation needs samples >= 1")
    rng = np.random.default_rng(cfg["seed"])
    on_cone = xi_batch(mach.spec, rng.normal(size=(k, q, n)))
    delta, tube = mach.ladder.delta, mach.ladder.tube(mach.ladder.nq)
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


def _sqrt_rows(p):
    """The two branches of sqrt(x + iy) at points (..., 2), as (..., 2, 2)."""
    v = np.sqrt(p[..., 0] + 1j * p[..., 1])
    sheet = np.stack([v.real, v.imag], axis=-1)
    return np.stack([sheet, -sheet], axis=-2)


_TRACES = {
    # boundary data -> (points (..., 2) -> values (..., q, n), unit-disk energy
    # E(1), degree a of homogeneity); the disk of radius R has energy E(1) R^(2a)
    "sqrt-branch": (_sqrt_rows, 2.0 * math.pi, 0.5),
    "linear": (lambda p: p[..., None, :1], math.pi, 1.0),
    "const": (lambda p: np.broadcast_to([[0.3], [-0.4]], p.shape[:-1] + (2, 1)),
              0.0, 0.0),
}


def _cmd_dirmin(cfg: dict, sink: _Sink) -> int:
    trace, unit_energy, degree = _TRACES[cfg["boundary"]]
    radius = float(cfg["radius"])
    reference = unit_energy * radius ** (2.0 * degree)
    try:
        f, rep = pb.solve_dir_minimizer(
            trace, res=cfg["res"], radius=radius,
            starts=cfg["starts"], seed=cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    blob = {"schema": SCHEMA, "boundary": cfg["boundary"], "q": f.q, "n": f.n,
            "res": cfg["res"], "reference_energy": reference}
    for key in ("energy", "history", "start_energies", "converged",
                "center_diameter", "branch_offset", "spacing"):
        blob[key] = rep[key]
    if reference:
        blob["energy_gap_rel"] = abs(rep["energy"] - reference) / reference
    sink.write_json("dirmin.json", blob)
    sink.write_json("dirmin-field.json", f.to_json())
    return 0


def _probe_config(cfg: dict) -> pb.ProbeConfig:
    pc = pb.ProbeConfig(seed=cfg["seed"], **{
        key: float(cfg[key]) for key in ("p1", "p11") if key in cfg})
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
        x, y = p[..., 0, None, None], p[..., 1, None, None]
        return (0.2 * np.sin(2.0 * x) + 0.1 * y + 0.5 * np.arange(q)[:, None]
                + 0.1 * np.cos((np.arange(n) + 1.0) * x))

    f = qf.from_callable(qf.square(1.0), res, fn)
    emb = xi_batch(mach.spec, f.values.reshape(-1, q, n))
    emb = emb.reshape(res, res, -1)
    x, y = np.meshgrid(*f.axes(), indexing="ij")
    wob = np.stack([np.sin((i + 2.0) * x + i) * np.cos((i % 3 + 1.0) * y)
                    for i in range(emb.shape[-1])], axis=-1)
    thresh = mach.ladder.tube(mach.ladder.nq)
    return [(emb, f.spacing), (emb + 3.0 * thresh * wob, f.spacing)]


def _cmd_probe(cfg: dict, sink: _Sink) -> int:
    name = cfg["probe"]
    pc = _probe_config(cfg)
    try:
        if name == "gradient-lp":
            report = pb.gradient_lp_probe(scales=cfg["scales"],
                                          res=cfg["res"], config=pc)
        elif name == "persistence":
            if cfg["current"] != "w32":
                raise ConfigError(
                    "persistence probe runs on the branched benchmark only")
            res = cfg["res"]
            lam = float(cfg["scale"])
            report = pb.persistence_probe(
                s_list=cfg["s_list"],
                factory=lambda radius4: cu.w32_current(lam, res=res,
                                                       radius4=radius4),
                config=pc)
        elif name == "reverse-holder":
            if "input" in cfg:
                u = _read_json(cfg["input"], "input", sink.inputs,
                               qf.QGridFunction.from_json)
                radius = u.domain.radius
            else:
                u, _rep = pb.solve_dir_minimizer(_TRACES[cfg["boundary"]][0],
                                                 res=cfg["res"])
                radius = 1.0
            report = pb.reverse_holder_probe(u, radius=radius, config=pc)
        elif name == "excess":
            report = pb.excess_probes(_make_current(cfg, sink), config=pc)
        elif name == "harmonic":
            report = pb.harmonic_approx_probe(
                scales=cfg["scales"], res=cfg["res"], config=pc)
        else:  # energy-split
            # n = 2 exercises the off-cone bucket but builds a much larger
            # embedding; the default stays with the cheap machinery
            mach = default_machinery(cfg["n"], cfg["q"])
            fields = _split_fields(mach, cfg["res"])
            report = pb.energy_split_probe(mach, fields, config=pc)
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
    root = Path(cfg["dir"] or sink.out)
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


_COMMANDS = {
    # command: (handler, help text, positional key or None)
    "gen-current": (_cmd_gen_current,
                    "build a benchmark current and its metrics", "current"),
    "approx": (_cmd_approx, "run the Lipschitz approximation pipeline", None),
    "rho-star-eval": (_cmd_rho_star_eval,
                      "sample the retraction onto the embedded cone", None),
    "dirmin": (_cmd_dirmin, "minimize the matched Dirichlet energy", None),
    "probe": (_cmd_probe, "run one empirical estimate", "probe"),
    "report": (_cmd_report,
               "aggregate artifacts into a summary and .dat", None),
}


# ---------------------------------------------------------------------------
# argument parsing


# Every flag once: key -> argparse keywords.  A subparser declares, in this
# order, the keys its command's rows of _READS read (see build_parser).
_FLAGS = {
    "out": {"help": "artifact directory (default qlip-out)"},
    "seed": {"type": int},
    "config": {"help": "JSON config file"},
    "current": {"choices": _names("current")},
    "scale": {"type": float},
    "res": {"type": int},
    "radius4": {"type": float},
    "q": {"type": int},
    "n": {"type": int},
    "heights": {"help": "JSON (q, n) height rows"},
    "spike_center": {"nargs": 2, "type": float},
    "spike_radius": {"type": float},
    "spike_excess": {"type": float},
    "input": {"help": "current JSON for custom-graph; field JSON for "
                      "probe reverse-holder"},
    "profile_points": {"type": int},
    "delta11": {"type": float},
    "beta": {"type": float},
    "strict": {"action": "store_true", "default": None},
    "c0": {"type": float},
    "delta": {"type": float},
    "samples": {"type": int},
    "scales": {"nargs": "+", "type": float},
    "s_list": {"nargs": "+", "type": float},
    "p1": {"type": float},
    "p11": {"type": float},
    "boundary": {"choices": sorted(_TRACES)},
    "starts": {"type": int},
    "radius": {"type": float},
    "dir": {"help": "directory to scan (default --out)"},
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the flags of the keys that its rows
    of _READS read: the "*" row, every row whose first word is the command,
    and every current kind's keys when one of those rows builds a current."""
    ap = argparse.ArgumentParser(
        prog="qlip", description="Q-valued graph current toolbox")
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="command")
    for cmd, (_, text, positional) in _COMMANDS.items():
        rows = [row for row in _READS if row.split()[0] in ("*", cmd)]
        keys = {"config"}.union(*map(_READS.get, rows))
        if set(rows) & set(_CURRENT_ROWS):
            keys |= _CURRENT_KEYS
        parser = sub.add_parser(cmd, help=text)
        if positional:
            parser.add_argument(positional, choices=_names(positional))
        for key in _FLAGS:
            if key in keys:
                parser.add_argument("--" + key.replace("_", "-"),
                                    **_FLAGS[key])
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
        status = _COMMANDS[args.cmd][0](cfg, sink)
    except ConfigError as exc:
        print("qlip: %s" % exc, file=sys.stderr)
        return 3
    manifest = {
        "schema": SCHEMA,
        "command": list(argv) if argv is not None else sys.argv[1:],
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "seed": cfg["seed"],
        "input_hashes": sink.inputs,
        "outputs": sorted(sink.hashes),
        "artifacts": sink.hashes,
        "wall_clock_s": time.perf_counter() - started,
    }
    (out / "manifest.json").write_text(_dumps(manifest))
    return status


if __name__ == "__main__":
    sys.exit(main())
