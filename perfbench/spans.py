"""Spans and counts at the boundaries through which clfpde calls each layer.

The tracer replaces module-level names (the ones clfpde.pipeline, sim,
semilinear and lyapunov look up at call time) with timing wrappers, so
spans follow the program's real call path with no edit to the program.
Spans stay in memory; write_csv dumps them when the run ends.
"""

import csv
import functools
import os
from collections import defaultdict
from time import perf_counter

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.spans = []        # [name, op, parent index, start, end, amount]
        self.stack = []
        self.op = SETUP_OP

    def record(self, name, start, end):
        self.spans.append([name, self.op, -1, start, end, 0])

    def wrap(self, name, fn, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self.stack.pop()
            if amount is not None:
                span[5] = amount(args)
            return result
        return traced

    def per_op(self):
        """{op: {name: [self time, count, amount, inclusive time]}} and margin calls per op."""
        table = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0, 0.0]))
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        design_margins = defaultdict(int)
        for i, (name, op, parent, start, end, amount) in enumerate(self.spans):
            row = table[op][name]
            row[0] += end - start - child[i]
            row[1] += 1
            row[2] += amount
            row[3] += end - start
            if name == "semilinear.margin" and parent >= 0 \
                    and self.spans[parent][0] == "semilinear.design":
                design_margins[op] += 1
        return table, design_margins

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "op", "parent", "start", "end", "amount"])
            for i, span in enumerate(self.spans):
                writer.writerow([i] + span)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def install(tracer):
    """Wrap every layer boundary; return nothing, the modules now call the wrappers."""
    from clfpde import artifact, lyapunov, pipeline, semilinear, sim
    from clfpde.semilinear import NonlinearitySpec

    boundaries = [
        (pipeline, "design", "pipeline.design", None),
        (pipeline, "certify", "pipeline.certify", None),
        (pipeline, "simulate", "pipeline.simulate", None),
        (pipeline, "eigensolve", "spectral.eigensolve", None),
        (pipeline, "build_shape_set", "shapes.build", None),
        (pipeline, "design_gains", "reduced.gains", None),
        (pipeline, "select_clf_params", "lyapunov.clf", None),
        (pipeline, "build_feedback_law", "lyapunov.clf", None),
        (pipeline, "build_semilinear_design", "semilinear.design", None),
        (semilinear, "nonlinear_admissibility_margins", "semilinear.margin", None),
        (semilinear, "linear_admissibility_margins", "semilinear.margin", None),
        (NonlinearitySpec, "evaluate", "semilinear.f", lambda a: getattr(a[1], "size", 1)),
        (pipeline, "simulate_linear", "sim.simulate", None),
        (pipeline, "simulate_semilinear", "sim.simulate", None),
        (sim, "write_trajectory_csv", "sim.csv_write", lambda a: os.path.getsize(a[1])),
        (artifact, "save_artifact", "artifact.save", lambda a: _dir_bytes(a[1])),
        (artifact, "load_artifact", "artifact.load", None),
    ]
    boundaries += [(m, "coupling_table", "lyapunov.coupling_table", None)
                   for m in (lyapunov, pipeline, sim, semilinear)]
    for owner, attr, name, amount in boundaries:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), amount))
