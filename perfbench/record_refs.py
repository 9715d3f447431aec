"""Record the references the benchmark checks its outputs against.

    PYTHONPATH=src python3 perfbench/record_refs.py

Writes perfbench/refs.json.  Run it only when a change is meant to alter the
program's outputs, and say so in that change.  The references do not depend
on the workload seed: for lab-sweep they are the accepted (map, catalog)
pairs for every n <= 4 and, for each, the four indecomposability statements
plus fixed-space simplicity and ergodicity.  oracle-refine is checked against
closed forms and the FD-vs-DP tolerance, so it needs no recorded reference.
"""

from __future__ import annotations

import json

from ergolab import finite
from workloads import REFS_PATH, pair_key, statements_code


def lab_refs() -> dict:
    statements = {}
    for n in (1, 2, 3, 4):
        catalog = finite.prior_catalog(n)
        for s in finite.enumerate_preserving_systems(n, catalog):
            key = pair_key(n, s.theta, s.priors, catalog)
            statements[key] = statements_code(finite.indecomposability_audit(s), finite.fixed_space_audit(s))
    return {"statements": statements}


def main() -> None:
    with open(REFS_PATH, "w") as fh:
        json.dump({"lab-sweep": lab_refs()}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
