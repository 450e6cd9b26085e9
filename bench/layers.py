"""Layer map of gkzlog and the per-layer metrics computed from trace spans.

A layer is a gkzlog module.  The traced child (``child.py trace``) wraps
every public function a layer module defines, plus the methods listed in
``METHODS``, and records one span per call::

    (function id, start ns, end ns, parent span index or -1, value)

``value`` is a work count read from the call's arguments or result, for
the functions in ``COUNTS``, and 0 otherwise.  ``layer_metrics`` turns a
span list into the named per-layer metrics.  Metric names ending in
``_s`` are self times (span minus child spans) summed over the listed
functions, except ``cli.load_s`` and ``cli.total_s``, which are whole
spans.  ``linalg`` and ``rationals`` are helpers, not layers: their time
counts toward the layer that called them.
"""

from __future__ import annotations

LAYERS = (
    "cli",
    "ci_mirror",
    "polytope",
    "logseries",
    "operators",
    "coefficients",
    "support",
    "lattice",
)

# Public functions left unwrapped.  nsupp runs once per box point (236k
# times on the hexagon) and only support functions call it, so a span per
# call would mostly time the tracer; the points it checks are counted
# from enumerate_box instead.
UNWRAPPED = frozenset({"support.nsupp"})

METHODS = {
    "lattice": {"RelationLattice": ("coords_of", "contains")},
    "logseries": {"LogSeries": ("__add__", "__sub__", "__neg__", "scale", "mul_log_linear")},
}


def _length_of_result(args, result):
    return len(result)


def _length_of_first_argument(args, result):
    return len(args[0])


def _verify_counts(args, result):
    return [result.checked_term_count, len(result.violations)]


COUNTS = {
    "lattice.enumerate_box": _length_of_result,
    "support.support_items": _length_of_result,
    "logseries.build_F": _length_of_result,
    "logseries.build_G": _length_of_result,
    "logseries.build_H_diag": _length_of_result,
    "logseries.build_H_off": _length_of_result,
    "operators.verify_box_annihilation": _verify_counts,
    "operators.verify_euler_annihilation": _verify_counts,
    # mirror_map passes the F tail to the inverse and the G tail to the
    # product; nothing else on the CLI path calls either.
    "ci_mirror.graded_inverse_one_plus": _length_of_first_argument,
    "ci_mirror.graded_mul": _length_of_first_argument,
    "ci_mirror.mirror_map": lambda args, result: len(result.coefficients),
}

SELF_TIME_GROUPS = {
    "lattice.kernel_s": ("lattice.kernel_basis",),
    "lattice.enumerate_s": ("lattice.enumerate_box",),
    "logseries.build_s": (
        "logseries.build_F",
        "logseries.build_G",
        "logseries.build_H_diag",
        "logseries.build_H_off",
        "logseries.build_H_table",
        "logseries.first_order_coefficient",
        "logseries.second_order_diag_coefficient",
        "logseries.second_order_off_coefficient",
    ),
    "logseries.algebra_s": (
        "logseries.LogSeries.__add__",
        "logseries.LogSeries.__sub__",
        "logseries.LogSeries.__neg__",
        "logseries.LogSeries.scale",
        "logseries.LogSeries.mul_log_linear",
        "logseries.combine_first_order",
        "logseries.combine_second_order",
    ),
    "logseries.render_s": ("logseries.to_text",),
    "operators.verify_s": (
        "operators.verify_box_annihilation",
        "operators.verify_euler_annihilation",
    ),
    "operators.apply_s": (
        "operators.apply_box",
        "operators.apply_euler",
        "operators.differentiate",
    ),
    "ci_mirror.grading_s": ("ci_mirror.positive_grading",),
    "ci_mirror.graded_s": (
        "ci_mirror.graded_mul",
        "ci_mirror.graded_inverse_one_plus",
        "ci_mirror.graded_exp",
        "ci_mirror.graded_log",
    ),
    "polytope.hull_s": (
        "polytope.minkowski_hull",
        "polytope.interior_lattice_points",
        "polytope.has_unique_interior_point",
    ),
}

WHOLE_SPAN_GROUPS = {
    "cli.load_s": ("cli.load_problem",),
    "cli.total_s": ("cli.main",),
}

CALL_COUNTS = {
    "lattice.enumerate_calls": ("lattice.enumerate_box",),
    "lattice.coords_of_calls": ("lattice.RelationLattice.coords_of",),
    "support.scans": ("support.check_minimal", "support.support_items"),
    "coefficients.bracket_calls": ("coefficients.bracket",),
    "coefficients.f_coeffs_calls": ("coefficients.f_coeffs",),
    "coefficients.elem_sym_calls": ("coefficients.elem_sym_shifted",),
    "coefficients.mono_sum_calls": ("coefficients.mono_sum_shifted",),
}

BUILDERS = (
    "logseries.build_F",
    "logseries.build_G",
    "logseries.build_H_diag",
    "logseries.build_H_off",
)
SCANS = ("support.check_minimal", "support.support_items")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# Every per-layer metric, in the order they are printed.
PER_LAYER = (
    tuple(f"{layer}.self_s" for layer in LAYERS)
    + tuple(SELF_TIME_GROUPS)
    + tuple(WHOLE_SPAN_GROUPS)
    + tuple(CALL_COUNTS)
    + (
        "lattice.box_points",
        "support.points_scanned",
        "support.points_kept",
        "support.kept_ratio",
        "logseries.terms_built",
        "operators.residual_terms",
        "operators.violations",
        "ci_mirror.tail_terms",
        "ci_mirror.coefficients",
        "ci_mirror.useful_ratio",
        "cli.artifact_bytes",
        "trace.spans",
        "trace.wall_s",
        "trace.outside_s",
        "trace.overhead_s",
    )
)


def layer_metrics(names, spans):
    """Per-layer metrics of one traced run, except the ``trace.*`` and
    ``cli.artifact_bytes`` entries, which need the parent's measurements.

    ``names`` maps function ids (span field 0) to names like
    ``lattice.enumerate_box``; the layer is the part before the first dot.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_ns = [0] * len(spans)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            child_ns[span[3]] += durations[index]
    self_ns, whole_ns, calls, values = {}, {}, {}, {}
    for index, (fid, _, _, parent, value) in enumerate(spans):
        name = names[fid]
        self_ns[name] = self_ns.get(name, 0) + durations[index] - child_ns[index]
        whole_ns[name] = whole_ns.get(name, 0) + durations[index]
        calls[name] = calls.get(name, 0) + 1
        values.setdefault(name, []).append(value)

    def total(table, group):
        return sum(table.get(name, 0) for name in group)

    metrics = {}
    for layer in LAYERS:
        layer_ns = sum(ns for name, ns in self_ns.items() if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = layer_ns / 1e9
    for metric, group in SELF_TIME_GROUPS.items():
        metrics[metric] = total(self_ns, group) / 1e9
    for metric, group in WHOLE_SPAN_GROUPS.items():
        metrics[metric] = total(whole_ns, group) / 1e9
    for metric, group in CALL_COUNTS.items():
        metrics[metric] = total(calls, group)

    scanned = 0
    scanned_by_items = 0
    for fid, _, _, parent, value in spans:
        if names[fid] == "lattice.enumerate_box" and parent >= 0:
            caller = names[spans[parent][0]]
            if caller in SCANS:
                scanned += value
            if caller == "support.support_items":
                scanned_by_items += value
    kept = sum(values.get("support.support_items", []))
    verify = values.get("operators.verify_box_annihilation", []) + values.get(
        "operators.verify_euler_annihilation", []
    )
    box_points = sum(values.get("lattice.enumerate_box", []))
    coefficients = sum(values.get("ci_mirror.mirror_map", []))
    metrics.update(
        {
            "lattice.box_points": box_points,
            "support.points_scanned": scanned,
            "support.points_kept": kept,
            "support.kept_ratio": kept / scanned_by_items if scanned_by_items else 0.0,
            "logseries.terms_built": sum(sum(values.get(name, [])) for name in BUILDERS),
            "operators.residual_terms": sum(checked for checked, _ in verify),
            "operators.violations": sum(bad for _, bad in verify),
            "ci_mirror.tail_terms": sum(values.get("ci_mirror.graded_inverse_one_plus", []))
            + sum(values.get("ci_mirror.graded_mul", [])),
            "ci_mirror.coefficients": coefficients,
            "ci_mirror.useful_ratio": coefficients / box_points if box_points else 0.0,
            "trace.spans": len(spans),
        }
    )
    return metrics
