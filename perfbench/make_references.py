"""Regenerate perfbench/references.json: the committed reference objective of
every default workload instance, each solved by a different method than the
workload uses (cp for the bcp and single-tree workloads, bcp for lifted_cp).

Usage, from the root of a checkout:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os

from cardcvar import driver

from workloads import WORKLOADS, make_instance, solve

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    refs = {}
    for name, wl in WORKLOADS.items():
        method = "bcp" if wl.method == "cp" else "cp"
        refs[name] = {}
        for seed in wl.seeds:
            rep = solve(method, make_instance(seed, wl.n, wl.s, wl.k),
                        time_limit=driver.TIME_LIMIT_DEFAULT)
            if rep.status != driver.OPTIMAL:
                raise SystemExit(f"{name} seed {seed}: {method} ended "
                                 f"{rep.status}")
            refs[name][str(seed)] = rep.obj
            print(f"{name} seed {seed}: {method} obj {rep.obj!r} "
                  f"in {rep.time_sec:.1f} s", flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
