"""Benchmark harness support: deployments, sweep points, and one registry.

The benchmark files under ``benchmarks/`` regenerate the paper's evaluation
(Figure 6, the §6 overhead claim, and the replication-style trade-offs) plus
ablations; this package holds the machinery they share with the CLI:

* :mod:`~repro.bench.deployments`, :mod:`~repro.bench.baseline`,
  :mod:`~repro.bench.workloads` — canned replicated deployments, the
  *unreplicated* pair the overhead claim compares against, and the
  open-loop driver.
* :mod:`~repro.bench.sweeps`, :mod:`~repro.bench.livebench`,
  :mod:`~repro.bench.shardbench` — the ``run_*_point`` functions: one
  measured experiment at one sweep value.
* :mod:`~repro.bench.registry` — one declared row per ``python -m repro``
  sweep command and the single ``run_bench`` that sweeps, records,
  compares, gates and prints them.
* :mod:`~repro.bench.regression`, :mod:`~repro.bench.stats` — the
  ``BENCH_*.json`` record, its per-series comparator, and the one
  :class:`Summary` both use.
* :mod:`~repro.bench.reporting`, :mod:`~repro.bench.plot` — result tables
  with paper-vs-measured context, ASCII plots.
"""

from repro.bench.baseline import BaselinePair
from repro.bench.deployments import ClientServerDeployment, build_client_server
from repro.bench.plot import ascii_plot
from repro.bench.reporting import print_table
from repro.bench.stats import Summary, summarize
from repro.bench.workloads import OpenLoopDriverServant, uniform_schedule

__all__ = [
    "BaselinePair",
    "ClientServerDeployment",
    "build_client_server",
    "print_table",
    "ascii_plot",
    "Summary",
    "summarize",
    "OpenLoopDriverServant",
    "uniform_schedule",
]
