"""The repo benchmark (see ``BENCHMARK.json`` and ``perfbench/run.py``).

Modules: ``run`` (the command), ``harness`` (one workload in one
process), ``serve_boot`` (the traced ``repro serve`` bootstrap),
``tracer`` and ``layers`` (the traced per-layer profile), ``checks``
(output checks), ``stats`` (percentiles, self time, failure tally) and
``host`` (host facts recorded as metadata).
"""
