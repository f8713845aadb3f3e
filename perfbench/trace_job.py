"""Run one benchmark job with pwl's layer functions wrapped in timers.

The wrappers live here, not in pwl: each traced name is replaced in every
loaded module namespace that holds it (pwl.cli.hecke_matrix,
pwl.slope.charpoly_mod, ...), and methods are replaced on their class.
The job then runs in this process exactly as the untraced job would, so
its stdout is byte-identical; the trace goes to stderr as one final line
"TRACE {json}" with, per wrapped name, inclusive seconds (outermost calls
only), self seconds (minus wrapped callees) and calls, plus a few counts.

    PYTHONPATH=src python3 perfbench/trace_job.py cli --no-meta slopes ...
    PYTHONPATH=src python3 perfbench/trace_job.py family --seed 1
"""

import functools
import importlib
import json
import sys
import time


def _letters(counts, args, result):
    counts["gamma1.express.letters"] += len(result)


def _reps(counts, args, result):
    counts["cohomology.t_ell_reps.reps"] += len(result)


def _charpoly_n(counts, args, result):
    key = "linalg.charpoly_mod.n"
    counts[key] = max(counts[key], len(args[0]))


# (module, attribute path, span name, counter fed from the call)
TARGETS = [
    ("pwl.gamma1", "free_basis", "gamma1.free_basis", None),
    ("pwl.gamma1", "FreeBasisData.express", "gamma1.express", _letters),
    ("pwl.cohomology", "t_ell_reps", "cohomology.t_ell_reps", _reps),
    ("pwl.cohomology", "hecke_matrix", "cohomology.hecke_matrix", None),
    ("pwl.cohomology", "hecke_images", "cohomology.hecke_images", None),
    ("pwl.cohomology", "h1", "cohomology.h1", None),
    ("pwl.cohomology", "H1Presentation.induced_matrix",
     "cohomology.induced_matrix", None),
    ("pwl.linalg", "charpoly_mod", "linalg.charpoly_mod", _charpoly_n),
    ("pwl.linalg", "smith_mod", "linalg.smith_mod", None),
    ("pwl.linalg", "mat_mul", "linalg.mat_mul", None),
    ("pwl.sympow", "sym_matrix", "sympow.sym_matrix", None),
    ("pwl.iwasawa", "act_family", "iwasawa.act_family", None),
    ("pwl.iwasawa", "sp_vector", "iwasawa.sp_vector", None),
    ("pwl.slope", "newton_polygon", "slope.newton_polygon", None),
    ("pwl.slope", "slope_factor", "slope.slope_factor", None),
]
COUNTS = ("gamma1.express.letters", "cohomology.t_ell_reps.reps",
          "linalg.charpoly_mod.n")


class Tracer:
    """Inclusive and self time and call counts per wrapped name."""

    def __init__(self):
        self.spans = {name: {"s": 0.0, "self_s": 0.0, "calls": 0}
                      for _, _, name, _ in TARGETS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = []  # targets pwl no longer defines
        self._stack = []   # child seconds of each open call
        self._depth = {}   # open calls per name, for recursion

    def wrap(self, name, fn, counter):
        span = self.spans[name]
        self._depth[name] = 0
        stack, depth, counts = self._stack, self._depth, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                span["self_s"] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if not depth[name]:
                    span["s"] += dt
                span["calls"] += 1
            if counter is not None:
                counter(counts, args, result)
            return result
        return wrapped

    def report(self):
        return {"spans": self.spans, "counts": self.counts,
                "missing": self.missing}


def install(tracer):
    """Wrap every target and rebind it wherever it was imported.  A target
    that is gone keeps zero calls and is listed as missing."""
    for modname, path, name, counter in TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, orig, counter)
        setattr(owner, attr, wrapped)
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", {})
            for key, val in list(names.items()):
                if val is orig:
                    names[key] = wrapped


def main(argv):
    kind, args = argv[0], argv[1:]
    if kind == "cli":
        import pwl.cli
        job = functools.partial(pwl.cli.main, args, prog_name="pwl")
    elif kind == "family":
        import family_job
        job = functools.partial(family_job.main, args)
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        job()
    except SystemExit as exc:
        code = exc.code or 0
    sys.stdout.flush()
    print("TRACE " + json.dumps(tracer.report(), sort_keys=True),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
