"""Cold start: importing ergolab and running the LP-free routes loads no scipy.

The LP-free routes checked: gheat solve, lab-enumerate, lab-audit, and
slln_audit on random preserving systems.

Every CLI command runs in a fresh interpreter, so an import at module level
is paid on every run.  scipy is needed only for a hull-distance LP, and
must be imported inside the function that solves it.  numpy.ma is needed
by none of these routes either; numpy imports it lazily, for instance from
np.unique, so the same routes are checked not to load it.  `import ergolab`
itself loads neither `ergolab.scenario` nor `ergolab.wrapped`.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def loads_ma():
    return "numpy.ma" in sys.modules

seen = {}
import ergolab
seen["import"] = scipy_modules()
seen["import-ma"] = loads_ma()
seen["import-engine-2"] = sorted({"ergolab.scenario", "ergolab.wrapped"} & set(sys.modules))
from ergolab import cli, finite
with contextlib.redirect_stdout(io.StringIO()):
    seen["gheat-solve-code"] = cli.main(["gheat", "solve", "--t", "0.01"])
    seen["gheat-solve"] = scipy_modules()
    seen["gheat-solve-ma"] = loads_ma()
    seen["lab-enumerate-code"] = cli.main(["lab-enumerate", "--n", "4"])
    seen["lab-enumerate"] = scipy_modules()
    seen["lab-enumerate-ma"] = loads_ma()
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "three_cycle.json")
        with open(spec, "w") as fh:
            json.dump({"n": 3, "theta": [1, 2, 0], "priors": [[1 / 3, 1 / 3, 1 / 3]]}, fh)
        seen["lab-audit-code"] = cli.main(["lab-audit", "--spec", spec])
    seen["lab-audit"] = scipy_modules()
    seen["lab-audit-ma"] = loads_ma()
import numpy as np
from ergolab.credal import Rv
rng = np.random.default_rng(7)
for n in range(1, 9):
    system = finite.random_preserving_system(n, rng)
    finite.slln_audit(system, Rv(tuple(rng.uniform(-1.0, 1.0, n))))
seen["random-slln"] = scipy_modules()
seen["random-slln-ma"] = loads_ma()
finite.hull_distance(np.eye(4)[:3], np.eye(4)[3])
seen["hull-distance"] = scipy_modules()
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_an_lp():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300, check=True
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["gheat-solve-code"] == 0
    assert seen["lab-enumerate-code"] == 0
    assert seen["lab-audit-code"] == 0
    assert seen["import"] == []
    # the package exports only the types a user builds: scenario and wrapped load on demand
    assert seen["import-engine-2"] == []
    assert seen["gheat-solve"] == []
    assert seen["lab-enumerate"] == []
    assert seen["lab-audit"] == []
    assert seen["random-slln"] == []
    for route in ("import", "gheat-solve", "lab-enumerate", "lab-audit", "random-slln"):
        assert seen[f"{route}-ma"] is False, route
    # the guard is not vacuous: the LP route does load scipy
    assert "scipy.optimize" in seen["hull-distance"]
