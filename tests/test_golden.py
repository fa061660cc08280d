"""Golden corpus: byte-for-byte stdout of fixed `dims` / `operators` /
`series` / `verify` invocations, text and --json, plus one error path.

The expected files live in ``tests/golden/``.  After a deliberate output
change, rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and
say in the change description which outputs moved and why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mellinsys.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (file stem, argv, exit code); covers d > 1 and n = 1..3
CASES = [
    ("dims-3-2-1", ["dims", "3", "2", "1"], 0),
    ("dims-6-4-2-json", ["dims", "6", "4", "2", "--json"], 0),
    ("dims-4-3-2-1", ["dims", "4", "3", "2", "1"], 0),
    ("operators-2-1-horn", ["operators", "2", "1", "--check-horn"], 0),
    ("operators-3-2-1-horn-json",
     ["operators", "3", "2", "1", "--check-horn", "--json"], 0),
    ("operators-4-2", ["operators", "4", "2"], 0),
    ("operators-4-3-2-1", ["operators", "4", "3", "2", "1"], 0),
    ("operators-7-5-3-1-horn-json",
     ["operators", "7", "5", "3", "1", "--check-horn", "--json"], 0),
    ("operators-7-6", ["operators", "7", "6"], 0),
    ("operators-6-5-3-1-horn",
     ["operators", "6", "5", "3", "1", "--check-horn"], 0),
    ("series-3-2-1-principal-json",
     ["series", "3", "2", "1", "--principal", "--order", "6", "--json"], 0),
    ("series-6-4-2-principal-generating",
     ["series", "6", "4", "2", "--principal", "--order", "10",
      "--generating-check"], 0),
    ("series-2-1-basis", ["series", "2", "1", "--basis", "0"], 0),
    ("series-4-3-2-1-basis-json",
     ["series", "4", "3", "2", "1", "--basis", "1,0,2", "--order", "6",
      "--json"], 0),
    ("series-3-2-1-roots", ["series", "3", "2", "1", "--roots", "--order", "5"],
     0),
    ("series-4-2-roots-json",
     ["series", "4", "2", "--roots", "--order", "8", "--json"], 0),
    ("series-7-5-3-1-roots",
     ["series", "7", "5", "3", "1", "--roots", "--order", "6"], 0),
    ("series-5-3-principal-roots",
     ["series", "5", "3", "--principal", "--roots", "--order", "7"], 0),
    ("verify-3-2-1", ["verify", "3", "2", "1"], 0),
    ("verify-4-2-1-order-6", ["verify", "4", "2", "1", "--order", "6"], 0),
    ("verify-6-4-2", ["verify", "6", "4", "2"], 0),
    ("verify-9-3", ["verify", "9", "3"], 0),
    ("verify-5-3-1-json", ["verify", "5", "3", "1", "--json"], 0),
    ("error-dims-3-3-1", ["dims", "3", "3", "1"], 1),
    ("verify-6-4-2-json", ["verify", "6", "4", "2", "--json"], 0),
    ("series-4-3-2-1-roots-json",
     ["series", "4", "3", "2", "1", "--roots", "--order", "4", "--json"], 0),
    ("series-5-3-1-principal-generating-json",
     ["series", "5", "3", "1", "--principal", "--generating-check",
      "--order", "8", "--json"], 0),
    ("dims-4-3-2-1-json", ["dims", "4", "3", "2", "1", "--json"], 0),
    ("verify-4-3-2-1-order-9",
     ["verify", "4", "3", "2", "1", "--order", "9"], 0),
    ("series-3-2-1-basis-order-15",
     ["series", "3", "2", "1", "--basis", "1,2", "--order", "15"], 0),
    ("series-6-4-2-basis-json",
     ["series", "6", "4", "2", "--basis", "5,3", "--order", "20", "--json"],
     0),
    ("series-3-2-roots-generating",
     ["series", "3", "2", "--roots", "--generating-check", "--order", "2"], 0),
    ("series-2-1-roots-order-0-json",
     ["series", "2", "1", "--roots", "--order", "0", "--json"], 0),
    ("series-5-3-principal-roots-json",
     ["series", "5", "3", "--principal", "--roots", "--order", "7", "--json"],
     0),
    ("operators-7-6-json", ["operators", "7", "6", "--json"], 0),
    ("verify-5-1", ["verify", "5", "1"], 0),
    ("verify-7-6-json", ["verify", "7", "6", "--json"], 0),
    ("verify-5-4-3-2", ["verify", "5", "4", "3", "2"], 0),
    ("verify-6-5-3-1-order-15",
     ["verify", "6", "5", "3", "1", "--order", "15"], 0),
    ("operators-7-6-5-4-horn",
     ["operators", "7", "6", "5", "4", "--check-horn"], 0),
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stem,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(stem, argv, code):
    got_code, out, err = run(argv)
    assert got_code == code
    assert out == (GOLDEN / f"{stem}.out").read_text()
    if code:
        assert err == (GOLDEN / f"{stem}.err").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv, code in CASES:
        got_code, out, err = run(argv)
        if got_code != code:
            sys.exit(f"{stem}: exit {got_code}, expected {code}")
        (GOLDEN / f"{stem}.out").write_text(out)
        if code:
            (GOLDEN / f"{stem}.err").write_text(err)
