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

from qlip import cli, embed, roproj
from qlip import probes as pb
from qlip import qfield as qf
from qlip import qspace as qs


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


def test_flag_table_matches_the_reads_table(capsys):
    """Each flag is read by some row of _READS (--config by every run), each
    key a row reads is a flag or a command's positional, and every command's
    parser builds."""
    read = set().union(*cli._READS.values())
    positional = {pos for _, _, pos in cli._COMMANDS.values() if pos}
    assert set(cli._FLAGS) - read == {"config"}
    assert read - set(cli._FLAGS) <= positional
    for cmd in ("gen-current", "approx", "rho-star-eval", "dirmin", "probe",
                "report"):
        assert cli.main([cmd, "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qlip " + cmd)


@pytest.mark.parametrize("argv, config", [
    pytest.param(["rho-star-eval", "--samples", "2"], {"n": "x"},
                 id="int-flag-string"),
    pytest.param(["dirmin", "--starts", "1"], {"res": [1, 2]},
                 id="int-flag-list"),
    pytest.param(["probe", "harmonic"], {"scales": 0.5},
                 id="nargs-flag-number"),
    pytest.param(["approx"], {"strict": "no"}, id="switch-string"),
    pytest.param(["rho-star-eval", "--samples", "2"], {"seed": 1.9},
                 id="seed-float"),
])
def test_config_value_its_flag_cannot_take_exit_3(tmp_path, capsys, argv,
                                                  config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(path),
                            "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert all("config key %s:" % key in err for key in config)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, config, fits", [
    (["approx"], {"strict": True, "beta": 0, "res": 33}, True),
    (["approx"], {"strict": 1}, False),
    (["approx"], {"beta": True}, False),
    (["approx"], {"current": "spike", "spike_center": [0, 0.5]}, True),
    (["approx"], {"current": "spike", "spike_center": [0.1]}, False),
    (["approx"], {"current": "spike", "spike_center": ["0.1", "0.2"]}, False),
    (["approx"], {"current": "cone"}, False),
    (["approx"], {"heights": [[0.2], [-0.2]]}, True),
    (["approx"], {"heights": "[[0.2], [-0.2]]"}, True),
    (["approx"], {"heights": 0.2}, False),
    (["probe", "harmonic"], {"scales": [0.25]}, True),
    (["probe", "harmonic"], {"scales": []}, False),
    (["dirmin"], {"boundary": "linear", "out": "d"}, True),
    (["dirmin"], {"boundary": "cubic"}, False),
    (["dirmin"], {"out": 3}, False),
])
def test_config_value_fits_its_flag(tmp_path, argv, config, fits):
    """A config value passes as it is when its flag could parse to it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    args = cli.build_parser().parse_args(argv + ["--config", str(path)])
    if not fits:
        with pytest.raises(cli.ConfigError, match="config key"):
            cli._merge_config(args)
        return
    cfg, _ = cli._merge_config(args)
    kept = {key: cfg[key] for key in config if key != "heights"}
    assert json.loads(json.dumps(kept)) == {key: config[key] for key in kept}


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


def test_custom_graph_above_bank_limit_exit_3(tmp_path, capsys):
    # a grid-backed q = 8 current would match its cells over all 8!
    # permutations; it is refused as input, and no bank is built
    flat = tmp_path / "flat"
    assert cli.main(["gen-current", "flat", "--q", "8", "--res", "9",
                     "--out", str(flat)]) == 0
    banks = qs._perm_bank.cache_info().currsize
    assert cli.main(["gen-current", "custom-graph", "--input",
                     str(flat / "current.json"),
                     "--out", str(tmp_path / "rebuilt")]) == 3
    assert "q = 8" in capsys.readouterr().err
    assert qs._perm_bank.cache_info().currsize == banks


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


def test_rho_star_eval_over_face_budget_exit_3(tmp_path, monkeypatch, capsys):
    # a lattice over the face budget is an unsupported regime, not a crash
    monkeypatch.setattr(embed, "_LATTICE_CACHE", {})
    monkeypatch.setattr(roproj, "_MACHINERY_CACHE", {})
    monkeypatch.setattr(embed, "_FACE_BUDGET", 19)
    assert cli.main(["rho-star-eval", "--n", "1", "--q", "3", "--samples", "2",
                     "--out", str(tmp_path / "run")]) == 3
    assert "(1, 3) cone has more than 19 faces" in capsys.readouterr().err


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


@pytest.mark.parametrize("boundary, reference", [
    pytest.param("sqrt-branch", math.pi, id="sqrt-branch"),
    pytest.param("linear", math.pi / 4.0, id="linear")])
def test_dirmin_reference_scales_with_radius(tmp_path, boundary, reference):
    # the traces are homogeneous of degrees 1/2 and 1, so the disk of radius
    # R = 1/2 has energy E(1) R^(2a): 2 pi R and pi R^2
    out = tmp_path / "run"
    assert cli.main(["dirmin", "--boundary", boundary, "--radius", "0.5",
                     "--res", "33", "--starts", "2", "--seed", "1",
                     "--out", str(out)]) == 0
    blob = _read(out / "dirmin.json")
    assert blob["reference_energy"] == pytest.approx(reference)
    assert blob["energy_gap_rel"] <= 0.05


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
            ("reverse-holder", ["--p11", "1.4"], "reverse-holder",
             {"p11": 1.4}))
    for probe, extra, stem, want in runs:
        out = tmp_path / probe
        assert cli.main(["probe", probe, "--res", "33", "--seed", "1",
                         "--out", str(out)] + extra) in (0, 1)
        cfg = _read(out / "manifest.json")["config"]
        assert {k: cfg[k] for k in want} == want
        assert "starts" not in cfg
        if "scales" in want:
            rows = _read(out / ("probe-%s.json" % stem))["report"]["rows"]
            assert [row["scale"] for row in rows] == want["scales"]


@pytest.mark.parametrize("argv, config", [
    pytest.param(["harmonic", "--p11", "1.4"], {}, id="harmonic---p11"),
    pytest.param(["excess", "--boundary", "linear"], {},
                 id="excess---boundary"),
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


@pytest.mark.parametrize("probe", cli._names("probe"))
def test_no_probe_reads_starts(tmp_path, probe):
    """No probe's minimizer takes random starts, so --starts is no probe's
    flag: argparse rejects it (exit 2)."""
    assert cli.main(["probe", probe, "--starts", "2",
                     "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


def test_probe_bad_exponent_exit_3(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["probe", "gradient-lp", "--p1", "1.9",
                     "--out", str(out)]) == 3


_FLOORS = {"--res": "res >= 2", "--samples": "samples >= 1",
           "--profile-points": "profile_points >= 2", "--starts": "starts >= 1"}


@pytest.mark.parametrize("argv", [["dirmin", "--res", "1"],
                                  ["gen-current", "w32", "--res", "1"],
                                  ["probe", "energy-split", "--res", "1"],
                                  ["rho-star-eval", "--samples", "0"],
                                  ["gen-current", "w32", "--res", "9",
                                   "--profile-points", "0"],
                                  ["dirmin", "--res", "9", "--starts", "0"],
                                  ["probe", "reverse-holder", "--res", "1"]])
def test_single_node_grid_exit_3(tmp_path, capsys, argv):
    """A grid of one node, and any count below its floor, exits 3 and names
    the floor; none is clamped up to it."""
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert _FLOORS[argv[-2]] in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, text, message", [
    (["gen-current", "custom-graph"], None, "custom-graph needs --input"),
    (["gen-current", "custom-graph", "--input", "FILE"], "{nope",
     "is not valid JSON"),
    (["gen-current", "custom-graph", "--input", "FILE"], '{"res": 9}',
     "does not look like a serialized current"),
    (["gen-current", "custom-graph", "--input", "FILE"], '{"base": 5}',
     "cannot load input"),
    (["probe", "reverse-holder", "--input", "FILE"], '{"domain": 1}',
     "cannot load input"),
    (["probe", "reverse-holder", "--input", "FILE"], "[1]",
     "cannot load input"),
    (["gen-current", "flat", "--config", "FILE"], "[1]",
     "its root must be a JSON object"),
    (["gen-current", "flat", "--heights", "notjson"], None,
     "heights must be JSON"),
    (["approx", "--beta", "0.5"], None, "beta out of range"),
    (["approx", "--current", "spike", "--delta11", "1e-6", "--strict"], None,
     "excess too large for the threshold"),
    (["probe", "persistence", "--current", "flat"], None,
     "persistence probe runs on the branched benchmark only"),
    (["report", "--dir", "DIR"], "[1, 2]", "not an object"),
])
def test_unusable_input_exit_3(tmp_path, capsys, argv, text, message):
    """Each unusable input or setting exits 3 with one `qlip:` line that
    names the fault, never with a traceback.  FILE in argv names a file of
    the given text, DIR the directory that holds it."""
    path = tmp_path / "dir" / "in.json"
    if text is not None:
        path.parent.mkdir()
        path.write_text(text)
    argv = [{"FILE": str(path), "DIR": str(path.parent)}.get(a, a)
            for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qlip: ") and message in err, err


_FLAT = {"q": 2, "n": 1, "heights": None, "res": 65, "radius4": 1.0}
_COMMON_DEFAULTS = {"out": "qlip-out", "seed": 0}


@pytest.mark.parametrize("argv, want", [
    (["gen-current", "w32"],
     {"current": "w32", "scale": 1.0, "res": 129, "radius4": 1.0,
      "profile_points": 25}),
    (["approx"],
     dict(_FLAT, current="flat", delta11=None, beta=0.1, strict=False)),
    # a given delta11 is used as is: beta, which only derives it, is unread
    (["approx", "--delta11", "0.01"],
     dict(_FLAT, current="flat", delta11=0.01, strict=False)),
    # a rebuilt current has no sheets to profile
    (["gen-current", "custom-graph", "--input", "cur.json"],
     {"current": "custom-graph", "input": "cur.json"}),
    (["rho-star-eval"],
     {"n": 1, "q": 2, "c0": 0.1, "delta": 0.1, "samples": 200}),
    (["dirmin"],
     {"boundary": "sqrt-branch", "res": 33, "starts": 1, "radius": 1.0}),
    (["probe", "excess"],
     {"probe": "excess", "current": "w32", "scale": 2.0 ** -6, "res": 97,
      "radius4": 1.0}),
    (["report"], {"dir": None}),
    # excess keeps its res for every kind, and its scale only for w32
    (["probe", "excess", "--current", "flat"],
     dict(_FLAT, probe="excess", current="flat", res=97)),
    (["probe", "reverse-holder"],
     {"probe": "reverse-holder", "boundary": "sqrt-branch", "res": 49,
      "p11": 1.5}),
    (["probe", "reverse-holder", "--input", "f.json"],
     {"probe": "reverse-holder", "input": "f.json", "p11": 1.5}),
])
def test_merged_config_keys_and_defaults(argv, want):
    cfg, inputs = cli._merge_config(cli.build_parser().parse_args(argv))
    assert cfg == dict(want, **_COMMON_DEFAULTS)
    assert inputs == {}


def test_config_null_leaves_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"res": None, "starts": 2}))
    argv = ["dirmin", "--config", str(path)]
    cfg, inputs = cli._merge_config(cli.build_parser().parse_args(argv))
    assert (cfg["res"], cfg["starts"]) == (33, 2)
    assert list(inputs) == [str(path)]


@pytest.mark.parametrize("head", [["gen-current", "spike"],
                                  ["approx", "--current", "spike"],
                                  ["probe", "excess", "--current", "spike"]])
def test_shared_current_flags(head):
    argv = head + ["--res", "17", "--radius4", "2.0",
                   "--q", "3", "--n", "2", "--spike-center", "0.1", "-0.2",
                   "--spike-radius", "0.03", "--spike-excess", "0.002",
                   "--heights", "[[0, 1], [2, 3]]"]
    want = {"current": "spike", "res": 17, "radius4": 2.0,
            "q": 3, "n": 2, "spike_center": (0.1, -0.2),
            "spike_radius": 0.03, "spike_excess": 0.002,
            "heights": [[0, 1], [2, 3]]}
    cfg, _ = cli._merge_config(cli.build_parser().parse_args(argv))
    assert {k: cfg[k] for k in want} == want


@pytest.mark.parametrize("argv, config, unread", [
    pytest.param(["gen-current", "w32", "--q", "3", "--n", "2",
                  "--heights", "[[1]]"], {}, ["--q", "--n", "--heights"],
                 id="gen-current-w32"),
    pytest.param(["approx", "--current", "flat", "--spike-radius", "0.2",
                  "--spike-excess", "0.5"], {},
                 ["--spike-radius", "--spike-excess"], id="approx-flat"),
    pytest.param(["gen-current", "custom-graph", "--input", "cur.json",
                  "--scale", "3", "--radius4", "0.5"], {},
                 ["--scale", "--radius4"], id="gen-current-custom-graph"),
    pytest.param(["probe", "reverse-holder", "--input", "field.json",
                  "--boundary", "linear", "--res", "99"], {},
                 ["--boundary", "--res"],
                 id="reverse-holder-input"),
    pytest.param(["gen-current", "spike", "--scale", "0.5"], {}, ["--scale"],
                 id="gen-current-spike-scale"),
    pytest.param(["approx", "--current", "spike", "--input", "cur.json"], {},
                 ["--input"], id="approx-spike-input"),
    pytest.param(["probe", "excess", "--current", "spike", "--scale", "0.5",
                  "--input", "cur.json"], {}, ["--scale", "--input"],
                 id="excess-spike-scale-input"),
    pytest.param(["dirmin"], {"samples": 3}, ["--samples"],
                 id="dirmin-config-samples"),
    pytest.param(["approx", "--current", "flat", "--res", "33",
                  "--delta11", "0.01", "--beta", "0.05"], {}, ["--beta"],
                 id="approx-delta11-beta"),
    pytest.param(["gen-current", "custom-graph", "--input", "cur.json",
                  "--profile-points", "5"], {}, ["--profile-points"],
                 id="gen-current-custom-graph-profile-points"),
])
def test_unread_flag_exit_3(tmp_path, capsys, argv, config, unread):
    """Any command exits 3 on a key its row does not read, given by flag or
    in the config file, and names it."""
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "does not read" in err
    assert all(flag in err for flag in unread)
    assert not (tmp_path / "run").exists()


def test_manifest_config_is_the_row(tmp_path):
    """The manifest's config holds the row's keys, seed and the probe or
    current name, and nothing else."""
    field = tmp_path / "dirmin"
    assert cli.main(["dirmin", "--res", "33", "--starts", "1",
                     "--out", str(field)]) == 0
    runs = (
        (["probe", "reverse-holder",
          "--input", str(field / "dirmin-field.json")],
         {"probe", "input", "p11"}),
        (["approx", "--current", "spike"],
         {"current", "delta11", "beta", "strict", "q", "n", "heights", "res",
          "radius4", "spike_center", "spike_radius", "spike_excess"}),
        (["gen-current", "flat", "--res", "17"],
         {"current", "profile_points", "q", "n", "heights", "res",
          "radius4"}),
    )
    for i, (argv, keys) in enumerate(runs):
        out = tmp_path / str(i)
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert set(_read(out / "manifest.json")["config"]) == keys | {"seed"}
    # flat and spike never read --scale; current.json says so
    assert _read(tmp_path / "2" / "current.json")["scale"] is None


def test_entry_point_smoke():
    exe = shutil.which("qlip")
    cmd = [exe] if exe else [sys.executable, "-m", "qlip.cli"]
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-current" in proc.stdout


def _fresh_stdout(code):
    """Standard output of `code` run in a fresh interpreter on this qlip."""
    import os

    import qlip

    root = os.path.dirname(os.path.dirname(os.path.abspath(qlip.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_signal_and_ndimage_unloaded():
    """`import qlip.cli` loads no scipy module that a command loads on first
    use: scipy.signal and scipy.ndimage (a convolution, a running maximum),
    scipy.optimize (a Hungarian matching, a root bracket), scipy.sparse (a
    Dirichlet solve), scipy.spatial (a hull diameter) and scipy.linalg;
    `import qlip.qspace` leaves scipy.optimize unloaded."""
    for module, lazy in (("qlip.cli", ("scipy.signal", "scipy.ndimage",
                                       "scipy.optimize", "scipy.linalg",
                                       "scipy.sparse", "scipy.spatial")),
                         ("qlip.qspace", ("scipy.optimize",))):
        code = (f"import sys, {module}; print(sorted(m for m in {lazy!r} "
                "if m in sys.modules))")
        assert _fresh_stdout(code) == "[]", module


def test_machinery_builds_load_no_scipy():
    """A cold `default_machinery` for (1, 2), (1, 3) and (2, 2), face
    lattice and all, and one rho_star_batch of off-cone rows on the (2, 2)
    machine load no scipy module: the face test and the face kernel's
    closure projection are numpy's."""
    code = ("import sys; import numpy as np; "
            "from qlip.roproj import default_machinery; "
            "[default_machinery(n, q) for n, q in ((1, 2), (1, 3), (2, 2))]; "
            "m = default_machinery(2, 2); "
            "m.rho_star_batch(np.random.default_rng(0).normal(size=(8, m.spec.dims.big_n))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_stdout(code) == "[]"
