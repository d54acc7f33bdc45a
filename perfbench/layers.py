"""Per-layer metrics of the traced run, and which end-to-end metric each
one should move, on which workload.

Times are seconds per pass at reference host speed (see probe.py), the
mean over the traced passes of the time the pass spent in the named spans:
"total" counts the outermost span of the group (so recursion is not counted
twice), "self" subtracts the time covered by child spans. Counts are exact
totals over the run's count window, the first passes, whose inputs depend
only on the seed. A layer a workload does not touch reads 0.
"""

from __future__ import annotations

TAILS = ["sampling.tail_probabilities", "sampling.binomial_tail_above", "sampling.binomial_tail_below"]
MC = ["sampling.mc_stability", "sampling.mc_stability_curve"]
QUERY = ["annindex.query_traced", "annindex.query"]
SUITES = ["parseval", "oracle_equivalence", "log_convexity", "sandwich", "chernoff_domination"]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# (name, unit, better, how it is measured from (SpanTable, tracer counters,
# workload counts), what it should move). Times come per pass in raw seconds;
# `None` marks the tracing overhead, which the run measures itself.
PER_LAYER = [
    ("points.load_text_s", "s", "lower", lambda s, c, w: s.total_per_pass(["points.load_points_text"]),
     "index_build_s on ann-cli"),
    ("points.pack_s", "s", "lower", lambda s, c, w: s.total_per_pass(["points.points_to_bit_matrix"]),
     "index_build_s on ann-cli"),
    ("points.hamming_calls", "count", "lower", lambda s, c, w: s.calls(["points.hamming"]),
     "query_p50_ms on ann-query"),
    ("points.hamming_s", "s", "lower", lambda s, c, w: s.total_per_pass(["points.hamming"]),
     "query_p50_ms on ann-query"),
    ("points.rows_to_points_s", "s", "lower", lambda s, c, w: s.total_per_pass(["points.bit_rows_to_points"]),
     "mc_samples_per_s on stability-mc"),
    ("hashing.eval_calls", "count", "lower", lambda s, c, w: s.calls(["hashing.eval"]),
     "query_qps, query_p99_ms on ann-query; mc_samples_per_s on stability-mc"),
    ("hashing.eval_s", "s", "lower", lambda s, c, w: s.total_per_pass(["hashing.eval"]),
     "query_qps, query_p99_ms on ann-query; mc_samples_per_s on stability-mc"),
    ("hashing.draw_calls", "count", "lower", lambda s, c, w: s.calls(["hashing.draw"]),
     "mc_samples_per_s on stability-mc"),
    ("hashing.draw_s", "s", "lower", lambda s, c, w: s.total_per_pass(["hashing.draw"]),
     "mc_samples_per_s on stability-mc"),
    ("hashing.collision_codes_s", "s", "lower", lambda s, c, w: s.total_per_pass(["hashing.collision_codes"]),
     "certify_s on stability-exact"),
    ("hashing.exact_sensitivity_s", "s", "lower", lambda s, c, w: s.total_per_pass(["hashing.exact_sensitivity"]),
     "certify_s on stability-exact"),
    ("spectral.family_spectrum_s", "s", "lower", lambda s, c, w: s.self_per_pass(["spectral.family_spectrum"]),
     "certify_s on stability-exact (self time: mostly the FWHT)"),
    ("spectral.curve_s", "s", "lower", lambda s, c, w: s.total_per_pass(["spectral.stability_curve"]),
     "certify_s on stability-exact"),
    ("spectral.certificate_s", "s", "lower", lambda s, c, w: s.total_per_pass(["spectral.check_log_convexity"]),
     "certify_s on stability-exact"),
    ("spectral.oracle_s", "s", "lower", lambda s, c, w: s.total_per_pass(["spectral.brute_force_stability"]),
     "certify_s on stability-exact"),
    ("sampling.mc_self_s", "s", "lower", lambda s, c, w: s.self_per_pass(MC),
     "mc_samples_per_s on stability-mc"),
    ("sampling.mc_samples", "count", "higher", lambda s, c, w: c.get("mc_samples", 0),
     "mc_samples_per_s on stability-mc"),
    ("sampling.tail_s", "s", "lower", lambda s, c, w: s.total_per_pass(TAILS),
     "certify_s on stability-exact"),
    ("bounds.chernoff_ledger_s", "s", "lower", lambda s, c, w: s.total_per_pass(["bounds.chernoff_ledger"]),
     "certify_s on stability-exact"),
    ("annindex.query_self_s", "s", "lower", lambda s, c, w: s.self_per_pass(QUERY),
     "query_qps, query_p50_ms, query_p99_ms on ann-query"),
    ("annindex.tables_probed_mean", "count", "lower",
     lambda s, c, w: _ratio(c.get("tables_probed", 0), c.get("queries", 0)),
     "query_qps, query_p50_ms on ann-query"),
    ("annindex.candidates", "count", "lower", lambda s, c, w: c.get("candidates", 0),
     "query_p50_ms on ann-query"),
    ("annindex.candidates_mean", "count", "lower",
     lambda s, c, w: _ratio(c.get("candidates", 0), c.get("queries", 0)),
     "query_p50_ms on ann-query"),
    ("annindex.far_candidates", "count", "lower", lambda s, c, w: c.get("far_candidates", 0),
     "query_p50_ms on ann-query"),
    ("annindex.candidate_hit_ratio", "ratio", "higher",
     lambda s, c, w: _ratio(c.get("hits", 0), c.get("candidates", 0)),
     "query_p50_ms, recall on ann-query"),
    ("annindex.build_self_s", "s", "lower", lambda s, c, w: s.self_per_pass(["annindex.build"]),
     "index_build_s on ann-cli"),
    ("annindex.save_s", "s", "lower", lambda s, c, w: s.total_per_pass(["annindex.save_index"]),
     "index_build_s on ann-cli"),
    ("annindex.load_s", "s", "lower", lambda s, c, w: s.total_per_pass(["annindex.load_index"]),
     "index_query_s on ann-cli"),
    ("annindex.total_entries", "count", "lower", lambda s, c, w: w.get("annindex.total_entries", 0),
     "index_build_s, index_query_s on ann-cli"),
    ("annindex.max_bucket", "count", "lower", lambda s, c, w: w.get("annindex.max_bucket", 0),
     "index_build_s, index_query_s on ann-cli"),
    ("annindex.index_bytes", "count", "lower", lambda s, c, w: w.get("annindex.index_bytes", 0),
     "index_build_s, index_query_s, index_bytes on ann-cli"),
    *[
        (f"verify.{suite}_s", "s", "lower", (lambda s, c, w, suite=suite: s.total_per_pass([f"verify.suite_{suite}"])),
         "certify_s on stability-exact")
        for suite in SUITES
    ],
    ("cli.self_s", "s", "lower", lambda s, c, w: s.layer_self_per_pass("cli"),
     "argument parsing and CSV writing: near zero on every CLI workload"),
    ("trace.spans", "count", "lower", lambda s, c, w: s.calls(s.names),
     "tracing cost: spans recorded in the count window"),
    ("trace.overhead_s", "s", "lower", None,
     "tracing cost: traced minus untraced pass time"),
]


def layer_metrics(spans, tracer, wl, scale: float, overhead: float) -> dict:
    """Every per-layer metric; times are multiplied by the host-speed scale."""
    counts = wl.counts()
    out = {}
    for name, unit, _, fn, _ in PER_LAYER:
        if fn is None:
            out[name] = (overhead, unit)
        else:
            value = fn(spans, tracer.counters, counts)
            out[name] = (value * scale if unit == "s" else value, unit)
    return out
