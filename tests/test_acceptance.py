"""The thirteen acceptance criteria, one test and one printed line each.

C1-C12 are the exact verification battery from quantcat.selftest, run
here at full budget.  Each result must also equal its entry in
golden/selftest.json (witnesses, modes, detail counts), so
a change that keeps the verdicts but moves a witness is caught.  C13
drives the installed CLI end to end: deterministic reports (also under
`python -O`) and a
presheaf fragment that parses back to the category it came from.  Every
comparison is exact equality.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from quantcat import selftest
from quantcat.cli import _jsonable, parse_workspace

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "selftest.json").read_text())


def _settle(result):
    line = f"{result['name']} {result['detail']['label']}: {result['verdict'].upper()}"
    if result["witness"]:
        line += f"  ({result['witness']})"
    print(line)
    assert result["verdict"] == "pass", result


@pytest.mark.parametrize("criterion, golden", zip(selftest.CRITERIA, GOLDEN),
                         ids=[f"C{i}" for i in range(1, 13)])
def test_criterion(criterion, golden):
    result = criterion()
    _settle(result)
    assert _jsonable(result) == golden


def _start(*argv, flags=()):
    return subprocess.Popen([sys.executable, *flags, "-m", "quantcat.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _finish(proc):
    """Drain both pipes, then reap: the result subprocess.run would give."""
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _cli(*argv):
    return _finish(_start(*argv))


def test_c13_cli_round_trip(tmp_path):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({
        "quantales": [{"name": "B", "kind": "boolean2"}],
        "categories": [{"name": "C2", "quantale": "B",
                        "objects": ["p", "q"], "hom": [[1, 1], [0, 1]]}],
    }))

    # two independent processes, run side by side; the second under -O,
    # which strips assert statements, so no verdict may rest on one
    started = [_start("selftest", "--format", "json", flags=flags)
               for flags in ((), ("-O",))]
    first, second = (_finish(p) for p in started)
    ok = first.returncode == second.returncode == 0
    ok = ok and first.stdout == second.stdout
    verdicts = [c["verdict"] for c in json.loads(first.stdout)["checks"]] \
        if ok else []
    ok = ok and verdicts == ["pass"] * 12

    emitted = _cli("compute", "presheaf", "--category", "C2",
                   "--format", "json", "--workspace", str(ws))
    ok = ok and emitted.returncode == 0
    if ok:
        fragment = json.loads(emitted.stdout)["workspace"]
        frag_path = tmp_path / "frag.json"
        frag_path.write_text(json.dumps(fragment))
        back = parse_workspace(str(frag_path))
        ok = ok and not back.failures
        orig = parse_workspace(str(ws)).get("category", "C2")
        PX = back.get("category", "P(C2)")
        y = back.get("functor", "y_C2")
        ok = ok and back.get("category", "C2").same_shape(orig)
        ok = ok and PX.objects == ("[0,0]", "[1,0]", "[1,1]")
        ok = ok and y.dom.same_shape(orig) and y.cod.same_shape(PX)
        ok = ok and [y.on_label(x) for x in orig.objects] == ["[1,0]", "[1,1]"]

    print(f"C13 CLI determinism and workspace round-trip: "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok
