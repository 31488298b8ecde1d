#!/usr/bin/env python
"""Narrated recovery: watch the §5.1 protocol step by step.

Runs the paper's kill-and-relaunch experiment once with tracing enabled and
prints the annotated timeline — fault injection, ring membership events,
the get_state() synchronization point, the fabricated set_state() with its
piggybacked state, the handshake replay, and reinstatement — followed by a
per-recovery summary, the online audit verdict, and a health snapshot.

Run:  python examples/recovery_timeline.py
"""

from repro.bench.deployments import build_client_server
from repro.ftcorba.properties import ReplicationStyle
from repro.obs.health import render_health
from repro.tools import recovery_phase_report, render_timeline


def main():
    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=50_000,
        warmup=0.2,
        keep_trace_records=True,
    )
    system = deployment.system
    # verify the §5.1 invariants live while the fault plays out
    auditor = system.attach_auditor()

    print("killing server replica s2 …")
    kill_time = system.now
    system.kill_node("s2")
    system.run_for(0.1)
    system.restart_node("s2")
    system.wait_for(
        lambda: deployment.server_group.is_operational_on("s2"), timeout=5.0
    )
    system.run_for(0.05)

    print("\n=== timeline (fault → reinstatement) ===")
    print(render_timeline(
        system.tracer,
        categories={"fault", "process", "totem", "recovery"},
        since=kill_time,
        group="store",
    ))

    print("\n=== recovery summary ===")
    for report in recovery_phase_report(system.tracer):
        total_ms = (report.total or 0) * 1000
        print(f"  group={report.group} node={report.node}  "
              f"state={report.state_bytes} B  "
              f"re-launch→reinstated: {total_ms:.2f} ms")

    s1 = deployment.server_servant("s1")
    s2 = deployment.server_servant("s2")
    system.run_for(0.2)
    print(f"\nconsistency after recovery: s1={s1.echo_count} "
          f"s2={s2.echo_count}  equal={s1.echo_count == s2.echo_count}")
    assert s1.echo_count == s2.echo_count

    print("\n=== online audit ===")
    auditor.finish()
    print(auditor.summary())

    print("\n=== health snapshot ===")
    print(render_health(system), end="")
    assert auditor.ok


if __name__ == "__main__":
    main()
