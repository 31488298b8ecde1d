"""Property: the simulator's lazy ``Scheduler.move`` runs exactly what a
cancel plus a fresh ``call_at`` would.

A random program of ``call_at`` / ``cancel`` / ``move`` / ``step`` /
``run_until`` / ``run_while`` operations drives the real scheduler and a
reference that keeps one heap entry per arm and implements every move as
cancel-and-re-push.  Both must run the same callbacks in the same order at
the same times, and agree on which handles are pending.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.scheduler import Scheduler

#: Deadlines are drawn from a coarse grid so that ties (broken by
#: insertion order) are common.
DELAYS = st.integers(min_value=0, max_value=6).map(lambda n: n * 0.25)

OPS = st.lists(st.one_of(
    st.tuples(st.just("at"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("move"), st.integers(min_value=0, max_value=30),
              DELAYS),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), DELAYS),
    st.tuples(st.just("run_while"), DELAYS,
              st.integers(min_value=0, max_value=3)),
), max_size=60)


class Reference:
    """Cancel-and-re-push scheduling: every arm is its own heap entry."""

    def __init__(self) -> None:
        self.now = 0.0
        self.heap = []
        self.seq = itertools.count()
        self.live = {}            # timer id -> (time, seq) it runs at
        self.log = []

    def call_at(self, time, timer):
        key = (time, next(self.seq))
        self.live[timer] = key
        heapq.heappush(self.heap, (*key, timer))

    def cancel(self, timer):
        self.live.pop(timer, None)

    def _head(self):
        while self.heap:
            time, seq, timer = self.heap[0]
            if self.live.get(timer) == (time, seq):
                return time
            heapq.heappop(self.heap)
        return None

    def step(self):
        if self._head() is None:
            return False
        time, _, timer = heapq.heappop(self.heap)
        del self.live[timer]
        self.now = time
        self.log.append((timer, time))
        return True

    def run_until(self, time):
        while (head := self._head()) is not None and head <= time:
            self.step()
        self.now = max(self.now, time)

    def run_while(self, predicate, timeout):
        deadline = self.now + timeout
        while predicate():
            head = self._head()
            if head is None or head > deadline:
                self.now = max(self.now, deadline)
                return not predicate()
            self.step()
        return True


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_move_runs_exactly_what_cancel_and_repush_would(ops):
    real, ref = Scheduler(), Reference()
    log = []
    handles = []                  # timer id -> its current real handle

    def arm(time):
        timer = len(handles)
        handles.append(real.call_at(
            time, lambda: log.append((timer, real.now))))
        ref.call_at(time, timer)

    for op in ops:
        kind = op[0]
        if kind == "at":
            arm(real.now + op[1])
        elif kind == "cancel" and handles:
            timer = op[1] % len(handles)
            handles[timer].cancel()
            ref.cancel(timer)
        elif kind == "move" and handles:
            timer = op[1] % len(handles)
            due = real.now + op[2]
            movable = timer in ref.live and due >= ref.live[timer][0]
            moved = real.move(handles[timer], due)
            if timer in ref.live:
                assert moved == movable
            if moved:
                ref.cancel(timer)
                ref.call_at(due, timer)
            else:
                # Cannot move: the caller cancels and schedules afresh.
                handles[timer].cancel()
                ref.cancel(timer)
                fresh = real.call_at(
                    due, lambda timer=timer: log.append((timer, real.now)))
                handles[timer] = fresh
                ref.call_at(due, timer)
        elif kind == "step":
            assert real.step() == ref.step()
        elif kind == "run_until":
            real.run_until(real.now + op[1])
            ref.run_until(ref.now + op[1])
        elif kind == "run_while":
            want = len(log) + op[2]
            assert (real.run_while(lambda: len(log) < want, op[1])
                    == ref.run_while(lambda: len(ref.log) < want, op[1]))
        assert log == ref.log and real.now == ref.now
        assert [h.pending for h in handles] == \
            [timer in ref.live for timer in range(len(handles))]
    real.run()
    while ref.step():
        pass
    assert log == ref.log
    assert real.pending() == 0
