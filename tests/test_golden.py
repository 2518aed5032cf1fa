"""Byte-for-byte CLI output: the README's commands (all but the depth-4001
`table`, which CI runs) and two more `table` runs, in-process with
--no-timing, against the stdout and exit codes committed under
tests/golden/.

After an intended change of output, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from gppairs.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    "digits_half": ["digits", "--epsilon", "1/2", "--count", "10"],
    "digits_transcendental": ["digits", "--epsilon", "1-pi^2/e^3", "--count", "40"],
    "verify_all": ["verify", "--pair", "all", "--depth", "200"],
    "counterexample": ["counterexample", "--epsilon", "0.2928"],
    "discover_row6": ["discover", "--row", "6"],
    "corollary": ["corollary", "--max-n", "150"],
    "plotdata_figure2": ["plotdata", "--figure", "2", "--csv", "--range", "0.40:0.60",
                         "--depth", "62"],
    "sweep": ["sweep", "--depth", "21", "--csv"],
    "table": ["table"],
    "table_deeper": ["table", "--depth", "41", "--digit-depth", "15", "--l-bound", "10"],
    "table_l_bound_2": ["table", "--l-bound", "2"],
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--no-timing", *argv])
    return code, out.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run(CASES[name])
    assert code == codes[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        print(name, codes[name], file=sys.stderr)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
