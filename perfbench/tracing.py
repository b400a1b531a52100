"""Layer spans recorded from outside the program.

Tracer replaces the public entry point of each layer with a timing wrapper
for as long as it is installed. Every caller on the solve path looks these
names up through their module at call time, so the wrappers see every call:

    driver.theta_lb, driver.extract_portfolio    -> driver.theta_lb, driver.extract
    master.master_solve                          -> master
    lower.solve_lower_cp                         -> lower
    lower.solve_lower_lifted                     -> lower.lifted
    numeric.solve on a ConvexProgram             -> numeric.dense
    numeric.solve on a ScenarioProgram           -> numeric.scenario
    numeric.feasible                             -> numeric.feasible

Each span is [name, start, end, parent index, solve id, info]; the solve
itself is the root span "driver.solve". Spans stay in memory until the run
ends. A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import time

from cardcvar import driver, lower, master, numeric

# layers whose self time is reported on its own; everything else under a
# solve (root span, theta_lb and extract wrappers) is the driver's residue
LAYERS = ("master", "lower", "lower.lifted", "numeric.dense",
          "numeric.scenario", "numeric.feasible")

NAME, START, END, PARENT, SOLVE, INFO = range(6)


class Tracer:
    """Span recorder; install() patches the layer entry points and
    uninstall() restores the originals."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solve_id = -1
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def solve(self, fn, *args):
        """Run one whole solve under a fresh root span."""
        self._solve_id += 1
        return self._timed("driver.solve", fn)(*args)

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _master(self, fn):
        def wrapper(state, *args, **kwargs):
            rec = self._open("master")
            before = state.node_count
            try:
                return fn(state, *args, **kwargs)
            finally:
                rec[INFO] = state.node_count - before
                self._close(rec)
        return wrapper

    def _lower(self, fn):
        def wrapper(*args, **kwargs):
            rec = self._open("lower")
            try:
                res = fn(*args, **kwargs)
                rec[INFO] = None if res is None else res.iters
                return res
            finally:
                self._close(rec)
        return wrapper

    def _numeric(self, fn):
        def wrapper(prog, *args, **kwargs):
            scen = isinstance(prog, numeric.ScenarioProgram)
            rec = self._open("numeric.scenario" if scen else "numeric.dense")
            try:
                sol = fn(prog, *args, **kwargs)
                rec[INFO] = sol.status
                return sol
            finally:
                self._close(rec)
        return wrapper

    def install(self):
        patches = [
            (driver, "theta_lb", self._timed("driver.theta_lb",
                                             driver.theta_lb)),
            (driver, "extract_portfolio",
             self._timed("driver.extract", driver.extract_portfolio)),
            (master, "master_solve", self._master(master.master_solve)),
            (lower, "solve_lower_cp", self._lower(lower.solve_lower_cp)),
            (lower, "solve_lower_lifted",
             self._timed("lower.lifted", lower.solve_lower_lifted)),
            (numeric, "solve", self._numeric(numeric.solve)),
            (numeric, "feasible", self._timed("numeric.feasible",
                                              numeric.feasible)),
        ]
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Self time of every span, after checking that each child lies inside
    its parent and that siblings do not overlap."""
    own = [s[END] - s[START] for s in spans]
    last_end = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if not (parent[START] <= s[START] <= s[END] <= parent[END]):
            raise ValueError(f"span {i} ({s[NAME]}) leaves its parent {p}")
        if s[START] < last_end.get(p, parent[START]):
            raise ValueError(f"span {i} ({s[NAME]}) overlaps a sibling")
        last_end[p] = s[END]
        own[p] -= s[END] - s[START]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times summed over all solves in spans."""
    own = self_times(spans)
    m = {f"{name}.{kind}": 0.0 if kind == "s" else 0
         for name in LAYERS for kind in ("calls", "s")}
    m.update({"master.nodes": 0, "lower.inner_iters": 0,
              "lower.infeasible": 0, "numeric.dense.failed": 0,
              "driver.theta_lb.s": 0.0, "driver.extract.s": 0.0})
    wall = driver_self = 0.0
    for s, t in zip(spans, own):
        name, info = s[NAME], s[INFO]
        if name in LAYERS:
            m[name + ".calls"] += 1
            m[name + ".s"] += t
        else:
            driver_self += t
        if name == "driver.solve":
            wall += s[END] - s[START]
        elif name in ("driver.theta_lb", "driver.extract"):
            m[name + ".s"] += s[END] - s[START]
        elif name == "master":
            m["master.nodes"] += info
        elif name == "lower":
            if info is None:
                m["lower.infeasible"] += 1
            else:
                m["lower.inner_iters"] += info
        elif name == "numeric.dense" and info != numeric.OPTIMAL:
            m["numeric.dense.failed"] += 1
    m["trace.wall_s"] = wall
    m["driver.self_s"] = wall - sum(m[name + ".s"] for name in LAYERS)
    # self times partition each root span, so the residue computed from the
    # wall must equal the driver spans' own self time
    if abs(m["driver.self_s"] - driver_self) > 1e-6 * (1.0 + wall):
        raise ValueError(f"layer self times miss {m['driver.self_s']:.6f} s "
                         f"vs driver self {driver_self:.6f} s")
    calls = m["lower.calls"]
    m["numeric.dense.per_lower"] = (m["numeric.dense.calls"] / calls
                                    if calls else 0.0)
    return m
