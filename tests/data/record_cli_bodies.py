"""Re-record ``cli_bodies.json``, the JSON bodies of the fixed CLI runs in ``RUNS``.

    PYTHONPATH=src python tests/data/record_cli_bodies.py
    PYTHONPATH=src python tests/data/record_cli_bodies.py --diff

``tests/test_cli.py::test_fixed_cli_bodies_unchanged`` replays these runs and
requires each body byte for byte.  A change that moves a body tables every
moved number in CHANGES.md, with the error the parent declared for it, and
then re-records the file with this script.  ``--diff`` writes nothing: it
prints one Markdown row per moved leaf of a body (argv, key path, recorded
value, current value, relative move |current - recorded|/|recorded|), a run
of ``RUNS`` not yet recorded included, and exits 1 if anything moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from llt_lab.cli import main

PATH = pathlib.Path(__file__).with_name("cli_bodies.json")

ABOUT = ("canonical JSON bodies of fixed CLI runs, as written to standard output; "
         "a change that moves one tables the move in CHANGES.md and re-records this "
         "file with record_cli_bodies.py")

# cheap runs that reach the cell engine on both sides of its short side, both
# sides of the oscillation factor's Poisson pair for a continuous and a box
# density, the compact cf side, the lattice sums, the wrapped autocorrelation
# of every catalog family, and the Fourier inverse of general noise for a
# decaying and a compact cf, the regularity integral of a monotone cf, of a
# cf whose zeros are searched for and of a product, the pi-lattice zero
# check of a product, the one verdict on the condition for a source whose
# max |f(pi k)| lies between the default tol and 1e-8, and A_n at an n where
# forming x sqrt(n) + n in floating point would move it; the cell engine's
# row blocks on the compact cf side, on the default grid with a partial last
# block, and under the tensor product; the regularity integral and the Poisson
# check of a product read on its components; the parity split of the 2-D
# model under the corner steps
RUNS = [
    ["density", "--source", "uniform:h=1", "--n", "16", "--grid=-5,5,201"],
    ["density", "--source", "laplace:b=1", "--n", "256", "--grid=-5,5,201"],
    ["converge", "--source", "uniform:h=1", "--n", "4,16", "--grid=-5,5,201"],
    ["oscillate", "--source", "laplace:b=1", "--n", "16", "--grid=-5,5,201"],
    ["limits", "--source", "laplace:b=1"],
    ["limits", "--source", "uniform:h=1"],
    ["autocorr", "--source", "laplace:b=1"],
    ["autocorr", "--source", "uniform:h=1"],
    ["limits", "--source", "fejer:T=0.7"],
    ["poisson", "--source", "laplace:b=1"],
    ["oscillate", "--source", "uniform:h=1", "--n", "17", "--grid=-5,5,201"],
    ["autocorr", "--source", "gaussian:sigma=1"],
    ["autocorr", "--source", "fejer:T=0.7"],
    ["density", "--source", "laplace:b=1", "--noise", "uniform", "--n", "16", "--grid=-5,5,201"],
    ["density", "--source", "fejer:T=0.7", "--noise", "gaussian", "--n", "64", "--grid=-5,5,201"],
    ["regularity", "--source", "laplace:b=1", "--kind", "condition_3_1"],
    ["regularity", "--source", "uniform:h=1", "--kind", "condition_2_3"],
    ["regularity", "--source", "product:laplace:b=1,laplace:b=1", "--kind", "condition_2_3",
     "--k", "4"],
    ["check-condition", "--source", "product:uniform:h=1,uniform:h=1", "--k", "5"],
    ["check-condition", "--source", "gaussian:sigma=2"],
    ["converge", "--source", "gaussian:sigma=2", "--n", "16,17,64,65", "--grid=-5,5,201"],
    ["oscillate", "--source", "laplace:b=1", "--n", "123456789", "--grid=-5,5,201"],
    ["density", "--source", "fejer:T=0.7", "--n", "64", "--grid=-5,5,201"],
    ["density", "--source", "gaussian:sigma=1", "--n", "4096"],
    ["density", "--source", "product:uniform:h=1,uniform:h=1", "--n", "64", "--grid=-5,5,101"],
    ["regularity", "--source", "product:gaussian:sigma=1,gaussian:sigma=1", "--kind",
     "condition_3_1", "--k", "4"],
    ["poisson", "--source", "product:gaussian:sigma=1,gaussian:sigma=1"],
    ["converge", "--source", "product:laplace:b=1,laplace:b=1", "--n", "4,5,16,17",
     "--grid=-3,3,41"],
]


def _run(argv: list):
    """(exit code, standard output) of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def body(argv: list) -> str:
    """Standard output of one run, without its final newline."""
    code, text = _run(argv)
    if code != 0 or not text.endswith("\n"):
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")
    return text[:-1]


def _leaves(value, path=""):
    """(key path, canonical JSON text) of every leaf of a parsed body."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def _relative_move(before, after) -> str:
    """|after - before|/|before| of two numeric leaves' JSON texts, or a
    dash where either is not a number or before is 0."""
    try:
        old, new = float(before), float(after)
    except (TypeError, ValueError):
        return "—"
    return f"{abs(new - old) / abs(old):.2g}" if old else "—"


def moved_rows(recorded: list) -> list:
    """Markdown rows | argv | key path | recorded | current | relative move |
    for every leaf that moved, replaying the recorded runs and then the runs
    of ``RUNS`` that are not recorded; a run that fails, or a body that moved
    with no leaf moving, is one row for the whole body."""
    known = [r["argv"] for r in recorded]
    rows = []
    for argv, old in ([(r["argv"], r["body"]) for r in recorded]
                      + [(a, None) for a in RUNS if a not in known]):
        code, new = _run(argv)
        if code == 0 and new == f"{old}\n":
            continue
        cmd = f"`{' '.join(argv)}`"
        if code != 0:
            rows.append(f"| {cmd} | (exit code) | 0 | {code} | — |")
        elif old is None:
            rows.append(f"| {cmd} | (body) | — | not recorded | — |")
        else:
            before, after = (dict(_leaves(json.loads(b))) for b in (old, new))
            keys = [k for k in {**before, **after} if before.get(k) != after.get(k)]
            rows += [f"| {cmd} | `{k}` | {before.get(k, '—')} | {after.get(k, '—')} "
                     f"| {_relative_move(before.get(k), after.get(k))} |"
                     for k in keys] or [f"| {cmd} | (body) | recorded | moved | — |"]
    return rows


def main_record(path: pathlib.Path) -> None:
    runs = [{"argv": argv, "body": body(argv)} for argv in RUNS]
    path.write_text(json.dumps({"about": ABOUT, "runs": runs}, indent=1) + "\n",
                    encoding="utf-8")


def main_diff(path: pathlib.Path) -> int:
    rows = moved_rows(json.loads(path.read_text(encoding="utf-8"))["runs"])
    if rows:
        print("| run | key | recorded | current | relative move |\n|---|---|---|---|---|")
        print("\n".join(rows))
    return 1 if rows else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(main_diff(PATH))
    if sys.argv[1:]:
        sys.exit("usage: record_cli_bodies.py [--diff]")
    main_record(PATH)
