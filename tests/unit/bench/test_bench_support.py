"""Unit tests for the benchmark support layer."""

import pytest

from repro.bench.baseline import BaselinePair
from repro.bench.deployments import (
    build_client_server,
    make_weighted_kvstore_factory,
    measure_recovery,
)
from repro.bench.reporting import print_table
from repro.ftcorba.properties import ReplicationStyle


def test_baseline_pair_round_trips():
    pair = BaselinePair(make_weighted_kvstore_factory(10, 0.0005))
    pair.run(0.2)
    assert pair.client.completed > 100
    assert pair.client.mean_latency > 0.0005
    assert pair.server.servant.echo_count == pair.client.completed \
        or pair.server.servant.echo_count == pair.client.completed + 1


def test_baseline_latency_tracks_op_cost():
    fast = BaselinePair(make_weighted_kvstore_factory(10, 0.0002))
    slow = BaselinePair(make_weighted_kvstore_factory(10, 0.002))
    fast.run(0.2)
    slow.run(0.2)
    assert slow.client.mean_latency > fast.client.mean_latency


def test_weighted_factory_jitter_is_deterministic():
    factory = make_weighted_kvstore_factory(10, 0.001, jitter=0.2)
    a, b = factory(), factory()
    durations_a = []
    durations_b = []
    for _ in range(5):
        durations_a.append(a._operation_duration("echo"))
        a.echo(0)
        durations_b.append(b._operation_duration("echo"))
        b.echo(0)
    assert durations_a == durations_b          # replica determinism
    assert len(set(durations_a)) > 1           # actually jittered
    mean = sum(durations_a) / len(durations_a)
    assert 0.0008 < mean < 0.0012


def test_build_client_server_deploys_and_streams():
    deployment = build_client_server(server_replicas=2, state_size=50,
                                     warmup=0.2)
    assert deployment.driver.acked > 100
    for node in deployment.server_nodes:
        assert deployment.server_servant(node).echo_count > 100


def test_build_client_server_waits_for_a_slow_ring():
    """Under the live runtime's Totem timeouts the ring is not formed (and
    the server group not created) 50 ms in; the deployment waits for it
    instead of asking a ring that knows no group yet for its reference."""
    from repro.live import LIVE_TOTEM_CONFIG

    deployment = build_client_server(server_replicas=2, state_size=50,
                                     totem_config=LIVE_TOTEM_CONFIG,
                                     warmup=0.2)
    assert deployment.driver.acked > 0
    assert 0 < measure_recovery(deployment, "s2") < 1.0


def test_measure_recovery_returns_positive_time():
    deployment = build_client_server(server_replicas=2, state_size=50,
                                     warmup=0.1)
    recovery_time = measure_recovery(deployment, "s2")
    assert 0 < recovery_time < 1.0


def test_measure_recovery_times_out_when_unrecoverable():
    deployment = build_client_server(server_replicas=2, state_size=50,
                                     warmup=0.1)
    # kill BOTH server replicas: nobody holds the state, recovery stalls
    deployment.system.kill_node("s1")
    with pytest.raises(TimeoutError):
        measure_recovery(deployment, "s2", timeout=1.5)


def test_print_table_renders_all_cells(capsys):
    text = print_table("My Title", ["a", "bbb"],
                       [[1, 2.5], ["x", 3e-9]], paper_note="note")
    out = capsys.readouterr().out
    assert "My Title" in text and "My Title" in out
    assert "paper: note" in text
    assert "2.500" in text
    assert "3.000e-09" in text


def test_print_table_handles_empty_rows():
    text = print_table("Empty", ["col"], [])
    assert "Empty" in text


def test_deployment_styles():
    for style in (ReplicationStyle.WARM_PASSIVE,
                  ReplicationStyle.COLD_PASSIVE):
        deployment = build_client_server(style=style, server_replicas=2,
                                         state_size=50,
                                         checkpoint_interval=0.1,
                                         warmup=0.2)
        assert deployment.driver.acked > 50
