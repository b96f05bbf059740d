"""The analysis scripts under ``scripts/`` run end to end at small sizes.

Each runs as its own process on ``src/``, as the README shows, and must
exit 0 and print its summary line.
"""
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NUM = r"[-+]?\d+\.\d+"


@pytest.mark.parametrize("args, summary", [
    (["dtc_scaling.py", "--T", "4", "6", "8", "--chi", "8", "16"],
     rf"^fit S = a \+ b log T: a={_NUM} b={_NUM}$"),
    (["trotter_entropy.py", "--t", "0.4", "--eps", "0.2", "0.1",
      "--chi", "8", "16"],
     rf"^eps=0\.1 +T= +4  S_half={_NUM}  chi_converged=True  "
     rf"S\(2eps\)/S\(eps\)={_NUM}$"),
    (["relaxation_rate.py", "--T-max", "8", "--chi", "16",
      "--fit-from", "2", "--fit-to", "6"],
     rf"^fit log\|C\| over T=2\.\.6: rate={_NUM} per period, R\^2={_NUM}$"),
], ids=["dtc_scaling", "trotter_entropy", "relaxation_rate"])
def test_script_runs(args, summary):
    path = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", args[0])]
                         + args[1:], capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert re.search(summary, run.stdout, re.MULTILINE), run.stdout
