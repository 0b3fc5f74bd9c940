"""Run the morsebath CLI in this process with a span around each layer call.

Usage: python3 morsebench/tracer.py SPANS_JSON CLI_ARG...

Every public function of the bath, correlation, dynamics, observables
and kernels modules is wrapped, wherever a morsebath module refers to
it, together with the CLI's per-point function (one request per sweep
point).  Spans stay in memory and are written to SPANS_JSON when the
CLI returns.  A span is [id, parent id, request, name, start, end,
terms, grid points]; terms and grid points are taken from the kernel
arguments and from the correlation model built.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = ("bath", "correlation", "dynamics", "observables")
ID, PARENT, REQUEST, NAME, START, END, TERMS, GRID = range(8)

# name -> (terms, grid points) of one call, from its arguments and result
COUNTERS = {
    "kernels.phase_sum": lambda args, result: (len(args[0]), len(args[2])),
    "kernels.gamma_sum": lambda args, result: (len(args[0]), len(args[3])),
    "correlation.build_correlation": lambda args, result: (len(result.weights), 0),
}


class Tracer:
    """Nested spans of one thread, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "cli.point":
                self.request += 1
            span = [len(self.spans), self.stack[-1] if self.stack else -1, self.request,
                    name, time.perf_counter(), 0.0, 0, 0]
            self.spans.append(span)
            self.stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[TERMS], span[GRID] = counter(args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Replace every reference to a layer function by its traced wrapper; returns cli.main traced."""
    import morsebath.cli as cli
    from morsebath import kernels

    names = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"morsebath.{short}"]
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                names[fn] = f"{short}.{attr}"
    names[kernels.phase_sum] = "kernels.phase_sum"
    names[kernels.gamma_sum] = "kernels.gamma_sum"
    names[cli._sweep_point] = "cli.point"
    wrappers = {id(fn): tracer.wrap(name, fn) for fn, name in names.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "morsebath" or mod_name.startswith("morsebath."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
    return tracer.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import morsebath.cli  # noqa: F401  (timed: the import is the set-up layer)
    import_s = time.perf_counter() - start
    tracer = Tracer()
    status = install(tracer)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
