"""Unit tests for bench statistics and ASCII plotting."""

import pytest

from repro.bench.plot import ascii_plot
from repro.bench.stats import summarize


def test_summary_moments():
    summary = summarize([1.0, 2.0, 3.0])
    assert summary.n == 3
    assert summary.mean == 2.0
    assert summary.minimum == 1.0
    assert summary.maximum == 3.0
    assert summary.stdev == pytest.approx(1.0)
    assert summary.ci95_halfwidth == pytest.approx(1.96 / 3 ** 0.5)


def test_summary_single_sample():
    summary = summarize([5.0])
    assert summary.stdev == 0.0
    assert summary.ci95_halfwidth == 0.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_format_scales():
    summary = summarize([0.010, 0.012])
    text = summary.format(scale=1000, digits=1)
    assert text.startswith("11.0 ±")


def test_summary_nearest_rank_quantiles_are_samples():
    summary = summarize([40.0, 10.0, 30.0, 20.0])
    assert summary.median == 20.0
    assert summary.p95 == 40.0
    assert summarize([7.0]).median == summarize([7.0]).p95 == 7.0
    # nearest rank never interpolates: 95 % of 20 samples is the 19th
    assert summarize(list(range(1, 21))).p95 == 19.0


def test_aggregate_runs_all_seeds():
    """One sample per seed, kept in seed order."""
    seen = []

    def measure(seed):
        seen.append(seed)
        return float(seed)

    summary = summarize([measure(seed) for seed in (3, 4, 5)])
    assert seen == [3, 4, 5]
    assert summary.samples == (3.0, 4.0, 5.0)
    assert summary.mean == 4.0


def test_aggregate_with_deterministic_simulation():
    """Same seed → same sample; different seeds may differ slightly."""
    from repro.bench.deployments import build_client_server, measure_recovery

    def measure(seed):
        deployment = build_client_server(server_replicas=2, state_size=200,
                                         warmup=0.1, seed=seed)
        return measure_recovery(deployment, "s2")

    a = summarize([measure(0), measure(0)])
    assert a.samples[0] == a.samples[1]


def test_ascii_plot_renders_extremes():
    text = ascii_plot([1, 10, 100], [5.0, 10.0, 20.0],
                      x_label="size", y_label="ms", logx=True)
    assert "20" in text          # y max label
    assert "5" in text           # y min label
    assert "size" in text
    assert "(log x)" in text
    assert text.count("*") == 3


def test_ascii_plot_monotone_series_monotone_rows():
    xs = list(range(1, 11))
    ys = [float(x) for x in xs]
    text = ascii_plot(xs, ys, width=20, height=10)
    rows = [line.split("|", 1)[1] for line in text.splitlines()
            if "|" in line]
    cols = [row.index("*") for row in rows if "*" in row]
    assert cols == sorted(cols, reverse=True)


def test_ascii_plot_flat_series():
    text = ascii_plot([1, 2, 3], [7.0, 7.0, 7.0])
    assert "*" in text


def test_ascii_plot_validates_inputs():
    with pytest.raises(ValueError):
        ascii_plot([], [])
    with pytest.raises(ValueError):
        ascii_plot([1, 2], [1.0])
