"""Command line driver: exit codes, artifact content, manifests,
determinism and report aggregation.

Closed-form anchors reused from the library tests: the branched
two-sheet benchmark has excess ratio 3*scale*r at radius r, the branch
separation integral is 4 pi s^5 / 5, and the two-valued square-root
minimizer energy is 2 pi.
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qlip import cli
from qlip import probes as pb
from qlip import qfield as qf


def _read(path):
    return json.loads(path.read_text())


def test_unknown_command_exit_2():
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


def test_help_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "gen-current" in capsys.readouterr().out


def test_malformed_config_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = str(tmp_path / "a")
    assert cli.main(["gen-current", "flat", "--config", str(bad),
                     "--out", out]) == 3
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": 99}))
    assert cli.main(["gen-current", "flat", "--config", str(wrong),
                     "--out", out]) == 3
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"schema": 1, "bogus": 2}))
    assert cli.main(["gen-current", "flat", "--config", str(extra),
                     "--out", out]) == 3
    assert cli.main(["gen-current", "flat", "--config",
                     str(tmp_path / "absent.json"), "--out", out]) == 3


def test_gen_current_w32_scale(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["gen-current", "w32", "--scale", "0.125",
                     "--res", "65", "--out", str(out)]) == 0
    blob = _read(out / "current.json")
    # excess over the unit cylinder scales linearly in the sheet scale
    assert blob["metrics"]["excess_ratio"] == pytest.approx(0.375, rel=1e-6)
    assert blob["metrics"]["mass"] == pytest.approx(
        math.pi * (2.0 + 3.0 * 0.125), rel=1e-6)
    assert blob["metrics"]["profile_violation"] <= 1e-6
    manifest = _read(out / "manifest.json")
    raw = (out / "current.json").read_bytes()
    assert manifest["artifacts"]["current.json"] == \
        hashlib.sha256(raw).hexdigest()
    assert manifest["seed"] == 0


def test_gen_current_flat_heights(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["gen-current", "flat", "--heights", "[[0.2], [-0.2]]",
                     "--res", "49", "--out", str(out)]) == 0
    m = _read(out / "current.json")["metrics"]
    assert m["mass"] == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert abs(m["excess_ratio"]) <= 1e-9
    assert m["height"] == pytest.approx(0.4, abs=1e-12)


def test_custom_graph_roundtrip(tmp_path):
    first = tmp_path / "first"
    assert cli.main(["gen-current", "w32", "--scale", "0.25", "--res", "49",
                     "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert cli.main(["gen-current", "custom-graph",
                     "--input", str(first / "current.json"),
                     "--out", str(second)]) == 0
    blob = _read(second / "current.json")
    assert blob["metrics"]["q"] == 2 and blob["metrics"]["n"] == 2
    # grid-backed rebuild: no analytic sheets, so no profile block
    assert "profile" not in blob["metrics"]
    manifest = _read(second / "manifest.json")
    assert len(manifest["input_hashes"]) == 1
    # files written before "chart" was dropped come from outside the
    # program and still load, to the same current
    blob = _read(first / "current.json")
    assert "chart" not in blob["current"]
    blob["current"]["chart"] = None
    (tmp_path / "old.json").write_text(json.dumps(blob))
    assert cli.main(["gen-current", "custom-graph",
                     "--input", str(tmp_path / "old.json"),
                     "--out", str(tmp_path / "old")]) == 0
    assert (tmp_path / "old" / "current.json").read_bytes() == \
        (second / "current.json").read_bytes()
    missing = tmp_path / "third"
    assert cli.main(["gen-current", "custom-graph", "--input",
                     str(tmp_path / "nope.json"), "--out", str(missing)]) == 3


def test_approx_flat_full_ball(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["approx", "--current", "flat", "--out", str(out)]) == 0
    blob = _read(out / "approx.json")
    assert blob["k_fraction"] == 1.0
    assert blob["report"]["lip_u"] == 0.0
    assert blob["report"]["hypothesis_ok"]


def test_approx_spike_benchmark(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["approx", "--current", "spike", "--delta11", "0.05",
                     "--out", str(out)]) == 0
    blob = _read(out / "approx.json")
    rep = blob["report"]
    assert rep["hypothesis_ok"]
    assert blob["k_fraction"] < 1.0
    assert rep["graph_match_exact"]
    assert rep["area_bad"] <= 4.0 * rep["bad_bound"]


def test_manifest_records_applied_defaults(tmp_path):
    out = tmp_path / "approx"
    assert cli.main(["approx", "--current", "spike", "--out", str(out)]) == 0
    cfg = _read(out / "manifest.json")["config"]
    assert {k: cfg[k] for k in ("res", "radius4", "q", "n")} == \
        {"res": 129, "radius4": 4.0, "q": 2, "n": 1}
    out = tmp_path / "excess"
    assert cli.main(["probe", "excess", "--res", "33", "--out", str(out)]) == 0
    cfg = _read(out / "manifest.json")["config"]
    assert {k: cfg[k] for k in ("current", "scale", "res", "radius4")} == \
        {"current": "w32", "scale": 2.0 ** -6, "res": 33, "radius4": 1.0}


def test_rho_star_eval(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["rho-star-eval", "--samples", "60",
                     "--out", str(out)]) == 0
    blob = _read(out / "rho-star.json")
    assert blob["summary"]["max_residual"] <= 1e-7
    lines = (out / "rho-star.csv").read_text().strip().split("\n")
    assert lines[0].startswith("sigma,")
    assert len(lines) == 5


def test_dirmin_sqrt_branch_cli(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["dirmin", "--boundary", "sqrt-branch", "--res", "33",
                     "--starts", "4", "--out", str(out)]) == 0
    blob = _read(out / "dirmin.json")
    assert blob["reference_energy"] == pytest.approx(2.0 * math.pi)
    assert blob["energy_gap_rel"] <= 0.08
    assert blob["converged"]
    assert blob["branch_offset"] < 2.0 * blob["spacing"]
    # the stored field round-trips and feeds the reverse Hoelder probe
    u = qf.QGridFunction.from_json(_read(out / "dirmin-field.json"))
    assert u.q == 2 and u.n == 2
    assert cli.main(["probe", "reverse-holder",
                     "--input", str(out / "dirmin-field.json"),
                     "--out", str(out)]) == 0
    rep = _read(out / "probe-reverse-holder.json")["report"]
    assert rep["passed"] and rep["fits"]["C"] <= 5.0


def test_probe_persistence_cli(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["probe", "persistence", "--current", "w32",
                     "--s-list", "0.1", "0.2", "--res", "97",
                     "--out", str(out)]) == 0
    rep = _read(out / "probe-persistence.json")["report"]
    for row in rep["rows"]:
        closed = 4.0 * math.pi * row["s"] ** 5 / 5.0
        assert row["lhs"] == pytest.approx(closed, rel=0.03)
    assert rep["fits"]["s_exponent"] >= 4.0
    csv = (out / "probe-persistence.csv").read_text()
    assert csv.split("\n")[0].split(",")[0] == "s"


def test_probe_gradient_lp_cli(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["probe", "gradient-lp", "--res", "49",
                     "--out", str(out)]) == 0
    rep = _read(out / "probe-gradient-lp.json")["report"]
    assert rep["passed"]
    assert rep["fits"]["ratio_spread"] <= 3.0


def test_probe_failure_exit_1(tmp_path):
    # concentrated excess violates the weak bound: deterministic failure
    out = tmp_path / "run"
    assert cli.main(["probe", "excess", "--current", "spike", "--res", "97",
                     "--out", str(out)]) == 1
    rep = _read(out / "probe-excess.json")["report"]
    assert not rep["passed"]
    assert (out / "manifest.json").exists()


def test_probe_manifest_records_what_ran(tmp_path):
    default = list(pb.ProbeConfig().scales)
    runs = (("gradient-lp", [], "gradient-lp", {"scales": default, "p1": 1.25}),
            ("harmonic", [], "harmonic", {"scales": default[:3]}),
            ("reverse-holder", ["--starts", "2"], "reverse-holder",
             {"starts": 2, "p11": 1.5}))
    for probe, extra, stem, want in runs:
        out = tmp_path / probe
        assert cli.main(["probe", probe, "--res", "33", "--seed", "1",
                         "--out", str(out)] + extra) in (0, 1)
        cfg = _read(out / "manifest.json")["config"]
        assert {k: cfg[k] for k in want} == want
        if "scales" in want:
            rows = _read(out / ("probe-%s.json" % stem))["report"]["rows"]
            assert [row["scale"] for row in rows] == want["scales"]


@pytest.mark.parametrize("argv, config", [
    pytest.param(["harmonic", "--starts", "2"], {}, id="harmonic---starts"),
    pytest.param(["excess", "--starts", "2"], {}, id="excess---starts"),
    pytest.param(["gradient-lp", "--radius4", "2"], {},
                 id="gradient-lp---radius4"),
    pytest.param(["reverse-holder", "--radius4", "2"], {},
                 id="reverse-holder---radius4"),
    pytest.param(["gradient-lp", "--s-list", "0.1", "--scale", "0.5",
                  "--boundary", "linear", "--q", "3"], {},
                 id="gradient-lp---s-list---scale---boundary---q"),
    pytest.param(["harmonic", "--p1", "1.3", "--n", "4"], {},
                 id="harmonic---p1---n"),
    # a config-file key counts as given, even when it equals the default
    pytest.param(["gradient-lp"], {"boundary": "sqrt-branch"},
                 id="gradient-lp-config-boundary"),
])
def test_probe_flag_of_another_probe_exit_3(tmp_path, capsys, argv, config):
    extra = []
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        extra = ["--config", str(path)]
    assert cli.main(["probe"] + argv + extra + [
        "--res", "33", "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    flags = [a for a in argv if a.startswith("--")]
    flags += ["--" + key.replace("_", "-") for key in config]
    assert all(flag in err for flag in flags)


def test_probe_bad_exponent_exit_3(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["probe", "gradient-lp", "--p1", "1.9",
                     "--out", str(out)]) == 3


@pytest.mark.parametrize("argv", [["dirmin", "--res", "1"],
                                  ["gen-current", "w32", "--res", "1"],
                                  ["probe", "energy-split", "--res", "1"]])
def test_single_node_grid_exit_3(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert "res >= 2" in capsys.readouterr().err


def test_rerun_hash_identical(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["gen-current", "w32", "--scale", "0.125",
                         "--res", "49", "--seed", "7",
                         "--out", str(out)]) == 0
        hashes.append(_read(out / "manifest.json")["artifacts"])
    assert hashes[0] == hashes[1]
    assert (tmp_path / "a" / "current.json").read_bytes() == \
        (tmp_path / "b" / "current.json").read_bytes()


def test_report_aggregation(tmp_path):
    out = tmp_path / "suite"
    assert cli.main(["gen-current", "w32", "--scale", "0.5", "--res", "49",
                     "--out", str(out)]) == 0
    assert cli.main(["probe", "persistence", "--current", "w32",
                     "--s-list", "0.1", "0.2", "--res", "65",
                     "--out", str(out)]) == 0
    assert cli.main(["probe", "gradient-lp", "--res", "33",
                     "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    assert cli.main(["report", "--dir", str(out), "--out", str(rep)]) == 0
    summary = (rep / "summary.txt").read_text()
    assert "probe:persistence" in summary and "pass" in summary
    assert "current:w32" in summary
    for stem in ("mass-ratio", "persistence", "gradient-lp"):
        dat = (rep / (stem + ".dat")).read_text().strip().split("\n")
        assert dat[0].startswith("#") and len(dat) >= 2
    # numeric .dat payload parses
    vals = np.loadtxt(rep / "persistence.dat")
    assert vals.shape[1] == 3
    before = {p.name: p.read_bytes() for p in rep.iterdir()
              if p.name != "manifest.json"}
    assert cli.main(["report", "--dir", str(out), "--out", str(rep)]) == 0
    after = {p.name: p.read_bytes() for p in rep.iterdir()
             if p.name != "manifest.json"}
    assert before == after


def test_report_empty_and_corrupt(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rep = tmp_path / "rep"
    assert cli.main(["report", "--dir", str(empty), "--out", str(rep)]) == 0
    assert _read(rep / "summary.json")["rows"] == []
    assert cli.main(["report", "--dir", str(tmp_path / "absent"),
                     "--out", str(rep)]) == 3
    (empty / "junk.json").write_text("{broken")
    assert cli.main(["report", "--dir", str(empty), "--out", str(rep)]) == 3


_CURRENT_DEFAULTS = {"res": None, "radius4": None, "q": None, "n": None,
                     "heights": None, "input": None,
                     "spike_center": (0.3, 0.2), "spike_radius": 0.05,
                     "spike_excess": 0.008}
_COMMON_DEFAULTS = {"out": "qlip-out", "seed": 0}


@pytest.mark.parametrize("argv, want", [
    (["gen-current", "w32"],
     dict(_CURRENT_DEFAULTS, current="w32", scale=1.0, profile_points=25)),
    (["approx"],
     dict(_CURRENT_DEFAULTS, current="flat", scale=1.0, delta11=None,
          beta=0.1, strict=None)),
    (["rho-star-eval"],
     {"n": 1, "q": 2, "c0": 0.1, "delta": 0.1, "samples": 200}),
    (["dirmin"],
     {"boundary": "sqrt-branch", "res": 33, "starts": 4, "radius": 1.0}),
    (["probe", "excess"],
     dict(_CURRENT_DEFAULTS, probe="excess", current=None, scale=None,
          scales=None, s_list=None, p1=None, p11=None,
          boundary="sqrt-branch", starts=None)),
    (["report"], {"dir": None}),
])
def test_merged_config_keys_and_defaults(argv, want):
    cfg, inputs = cli._merge_config(cli.build_parser().parse_args(argv))
    assert cfg == dict(want, **_COMMON_DEFAULTS)
    assert inputs == {}


@pytest.mark.parametrize("head", [["gen-current", "spike"],
                                  ["approx", "--current", "spike"],
                                  ["probe", "excess", "--current", "spike"]])
def test_shared_current_flags(head):
    argv = head + ["--scale", "0.5", "--res", "17", "--radius4", "2.0",
                   "--q", "3", "--n", "2", "--spike-center", "0.1", "-0.2",
                   "--spike-radius", "0.03", "--spike-excess", "0.002",
                   "--input", "cur.json", "--heights", "[[0, 1], [2, 3]]"]
    want = {"current": "spike", "scale": 0.5, "res": 17, "radius4": 2.0,
            "q": 3, "n": 2, "spike_center": (0.1, -0.2),
            "spike_radius": 0.03, "spike_excess": 0.002, "input": "cur.json",
            "heights": [[0, 1], [2, 3]]}
    cfg, _ = cli._merge_config(cli.build_parser().parse_args(argv))
    assert {k: cfg[k] for k in want} == want


def test_entry_point_smoke():
    exe = shutil.which("qlip")
    cmd = [exe] if exe else [sys.executable, "-m", "qlip.cli"]
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-current" in proc.stdout


def test_import_leaves_signal_and_ndimage_unloaded():
    """scipy.signal and scipy.ndimage load only when a convolution or a
    running maximum first runs, not on `import qlip.cli`."""
    import os

    import qlip

    root = os.path.dirname(os.path.dirname(os.path.abspath(qlip.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, qlip.cli; print(sorted(m for m in "
            "('scipy.signal', 'scipy.ndimage') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
