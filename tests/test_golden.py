"""Golden artifacts: a fixed list of CLI commands at seed 1 must reproduce,
byte for byte, the artifacts recorded in ``tests/golden/artifacts.json``.

For each command the table keeps its exit code, the manifest's ``config``
section and the sha256 of every artifact except the manifest (whose wall
clock differs between runs).  A change that moves an artifact moves its
hash here; such a change rewrites the table with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved hashes, old -> new, with the reason.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from qlip import cli

TABLE = Path(__file__).resolve().parent / "golden" / "artifacts.json"
SEED = 1

COMMANDS = {
    "rho-star": ["rho-star-eval", "--n", "2", "--q", "2", "--samples", "10"],
    "rho-star-13": ["rho-star-eval", "--n", "1", "--q", "3", "--samples", "10"],
    "rho-star-13-40": ["rho-star-eval", "--n", "1", "--q", "3",
                       "--samples", "40"],
    "rho-star-12": ["rho-star-eval", "--n", "1", "--q", "2", "--samples", "60"],
    "rho-star-200": ["rho-star-eval", "--n", "2", "--q", "2", "--samples", "200"],
    "approx": ["approx", "--current", "spike"],
    "reverse-holder": ["probe", "reverse-holder", "--res", "33"],
    "dirmin": ["dirmin", "--res", "33", "--starts", "2"],
    "dirmin-linear": ["dirmin", "--boundary", "linear", "--res", "17",
                      "--starts", "1"],
    "dirmin-const": ["dirmin", "--boundary", "const", "--res", "17",
                     "--starts", "1"],
    "energy-split": ["probe", "energy-split", "--res", "9"],
    "energy-split-22": ["probe", "energy-split", "--n", "2", "--q", "2",
                        "--res", "9"],
    "gen-current": ["gen-current", "w32", "--scale", "0.125", "--res", "33"],
    "gradient-lp": ["probe", "gradient-lp", "--res", "33"],
    "gen-current-spike": ["gen-current", "spike", "--res", "33"],
    "persistence": ["probe", "persistence"],
    "excess": ["probe", "excess"],
    "harmonic": ["probe", "harmonic", "--res", "33"],
}


def run_all(root: Path) -> dict:
    """Each command's exit code, manifest config and artifact hashes."""
    table = {}
    for label, argv in COMMANDS.items():
        out = root / label
        status = cli.main(argv + ["--seed", str(SEED), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        table[label] = {
            "argv": argv,
            "exit": status,
            "config": manifest["config"],
            "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(out.iterdir())
                          if p.name != "manifest.json"},
        }
    return table


def test_artifacts_match_the_golden_table(tmp_path):
    want = json.loads(TABLE.read_text())
    got = json.loads(json.dumps(run_all(tmp_path)))  # tuples as lists
    assert sorted(got) == sorted(want)
    moved = [label for label in want if got[label] != want[label]]
    assert moved == [], "artifacts moved: " + ", ".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = run_all(Path(tmp))
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} commands to {TABLE}", file=sys.stderr)
