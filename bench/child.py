"""Child processes of the benchmark; run with ``src`` on ``PYTHONPATH``.

    python3 bench/child.py setup PROBLEM
        Import gkzlog, load and validate PROBLEM with ``cli.load_problem``,
        then print the ``time.perf_counter_ns()`` reading (CLOCK_MONOTONIC,
        shared with the parent) at which that finished.

    python3 bench/child.py trace SPANS_JSON CLI_ARG...
        Run ``gkzlog.cli.main(CLI_ARG...)`` with every layer function
        wrapped (see ``layers.py``), keep one span per call in memory, and
        write the spans to SPANS_JSON when main returns.  Exits with
        main's exit code.

    python3 bench/child.py check CLI_ARG...
        Run the CLI as ``trace`` does, under a profile hook that counts the
        calls of every wrapped function (``missed_calls``); print each
        function called more often than it has spans and exit 1 if there
        is one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

import layers


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.functions: list = []  # the wrapped originals, by function id
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.functions.append(fn)
        count = layers.COUNTS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            returned = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                value = count(args, result) if returned and count is not None else 0
                spans[index] = (fid, start, end, parent, value)

        return traced


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions in every gkzlog namespace.

    Functions are rebound wherever a gkzlog module imported them by name
    (``f_coeffs`` lives in both ``coefficients`` and ``logseries``), so
    no call on the CLI path bypasses its span.
    """
    modules = {layer: importlib.import_module(f"gkzlog.{layer}") for layer in layers.LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            qualified = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and qualified not in layers.UNWRAPPED
            ):
                wrapped[obj] = recorder.wrap(qualified, obj)
        for class_name, methods in layers.METHODS.get(layer, {}).items():
            cls = getattr(module, class_name)
            for method in methods:
                original = vars(cls)[method]
                setattr(cls, method, recorder.wrap(f"{layer}.{class_name}.{method}", original))
    namespaces = [m for n, m in sys.modules.items() if n == "gkzlog" or n.startswith("gkzlog.")]
    for module in namespaces:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])


def missed_calls(recorder: Recorder, call) -> list[str]:
    """Run ``call()``; list the wrapped functions that ran without a span.

    A profile hook counts every call of each wrapped function's code
    object, through its wrapper or past it, so a binding that ``install``
    missed shows as more calls than spans.  The hook slows the run several
    times over: this is a check of the wrapping, not a measurement.
    """
    fids = {fn.__code__: fid for fid, fn in enumerate(recorder.functions)}
    calls = [0] * len(recorder.functions)

    def profile(frame, event, arg):
        if event == "call":
            fid = fids.get(frame.f_code)
            if fid is not None:
                calls[fid] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    spans = [0] * len(calls)
    for span in recorder.spans:
        spans[span[0]] += 1
    return [
        f"{name}: {calls[fid]} calls, {spans[fid]} spans"
        for fid, name in enumerate(recorder.names)
        if calls[fid] != spans[fid]
    ]


def setup(problem_path: str) -> int:
    from gkzlog.cli import load_problem

    load_problem(problem_path)
    print(perf_counter_ns(), flush=True)
    return 0


def trace(spans_path: str, argv: list[str]) -> int:
    import gkzlog.cli

    recorder = Recorder()
    install(recorder)
    code = gkzlog.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"names": recorder.names, "spans": recorder.spans}, handle, separators=(",", ":")
        )
    return code


def check(argv: list[str]) -> int:
    import gkzlog.cli

    recorder = Recorder()
    install(recorder)
    codes = []
    missed = missed_calls(recorder, lambda: codes.append(gkzlog.cli.main(argv)))
    for line in missed:
        print(f"missed: {line}")
    print(f"{len(recorder.spans)} spans, {len(missed)} functions with calls past the trace")
    return 1 if missed else codes[0]


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    if len(sys.argv) >= 4 and sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    if len(sys.argv) >= 3 and sys.argv[1] == "check":
        sys.exit(check(sys.argv[2:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
