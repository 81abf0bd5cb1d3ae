"""Names and units of every metric the benchmark reports.

`BENCHMARK.json` at the repository root lists the same names; the
benchmark's own tests keep the two in step.
"""

from __future__ import annotations

from statistics import median

from workloads import REFERENCE

END_TO_END = {
    "job_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SELFTEST_SUITES = tuple(REFERENCE["selftest"]["suites"])

# layer -> (reported fields, derived per-unit field or None)
_LAYERS = {
    "certify.search_zero_plane": (("calls", "self_s"), "us_per_frame_iter"),
    "certify.certify_theta": (("calls", "self_s"), None),
    "certify.kernel_solution": (("calls", "self_s", "errors"), None),
    "certify.kernel_match": (("calls", "self_s"), None),
    "certify.bracket_floor": (("calls", "self_s"), "us_per_sample"),
    "certify.identity_suite": (("self_s",), None),
    "zeroplane.lemma_equations_residual": (("calls", "self_s"), "ms_per_pair"),
    "zeroplane.conditionA_residual": (("calls", "self_s"), None),
    "zeroplane.conditionB_residual": (("calls", "self_s"), None),
    "zeroplane.conditionC_residual": (("calls", "self_s"), None),
    "zeroplane.horizontal_basis": (("calls", "self_s"), None),
    "zeroplane.condition_basis": (("calls", "self_s"), None),
    "embeddings.point_p": (("calls", "self_s"), None),
    "embeddings.rho_rank": (("calls", "self_s"), None),
    "embeddings.adp_h1_basis": (("calls", "self_s"), None),
    "embeddings.phi3_alg": (("calls", "self_s"), None),
    "liealg.bracket": (("calls", "self_s"), None),
    "liealg.adjoint": (("calls", "self_s"), None),
    "liealg.g0_inner": (("calls", "self_s"), None),
    "liealg.split_kp": (("calls", "self_s"), None),
    "quat.Quaternion.mul": (("calls",), None),
}

_UNITS = {"calls": "count", "errors": "count", "self_s": "s",
          "us_per_frame_iter": "us", "us_per_sample": "us", "ms_per_pair": "ms"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer, (fields, derived) in _LAYERS.items():
        for f in fields + ((derived,) if derived else ()):
            units[f"{layer}.{f}"] = _UNITS[f]
    units["cli.self_s"] = "s"
    for suite in SELFTEST_SUITES:
        units[f"cli.selftest.{suite}_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def per_layer_values(layers: dict, suite_s: dict[str, list[float]],
                     overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from the traced job's `Tracer.layers()`, the
    untraced jobs' per-suite times and the tracing overhead."""
    values = {}
    for layer, (fields, derived) in _LAYERS.items():
        stats = layers.get(layer)
        for f in fields:
            values[f"{layer}.{f}"] = getattr(stats, f) if stats else 0
        if derived:
            scale = {"us_per_frame_iter": 1e6, "us_per_sample": 1e6,
                     "ms_per_pair": 1e3}[derived]
            base = (stats.calls if derived == "ms_per_pair" else stats.work) if stats else 0
            values[f"{layer}.{derived}"] = scale * stats.total_s / base if base else 0.0
    values["cli.self_s"] = sum(stats.self_s for name, stats in layers.items()
                               if name.startswith("cli."))
    for suite in SELFTEST_SUITES:
        times = suite_s.get(suite)
        values[f"cli.selftest.{suite}_s"] = median(times) if times else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
