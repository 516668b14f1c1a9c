"""Tests for PhaseTimer and the absence of clock listeners."""

import time

import pytest

from repro.gpusim.clock import SimClock
from repro.gpusim.trace import PhaseTimer


class TestClockListeners:
    def test_legacy_listener_shim_is_gone(self):
        # A clock is its buckets: nothing subscribes to single charges
        # (the breakdown bars read a snapshot).  Check the *class*: after
        # a property is deleted, instance assignment would silently create
        # a plain attribute, so hasattr on an instance alone would not
        # catch a reintroduction.
        for name in ("listener", "add_listener", "remove_listener"):
            assert name not in vars(SimClock)
            assert not hasattr(SimClock(), name)
        assert not {"_legacy_listener", "_listeners"} & set(vars(SimClock()))


class TestPhaseTimerNesting:
    def test_flat_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.001)
        with timer.phase("a"):
            time.sleep(0.001)
        assert timer.seconds("a") > 0

    def test_nested_phase_charges_self_time_only(self):
        # Generous inner/outer gap: outer self-time is ~2 ms plus
        # scheduling noise, so a 50 ms inner phase keeps the comparison
        # safe even on a loaded CI machine.
        timer = PhaseTimer()
        with timer.phase("outer"):
            time.sleep(0.002)
            with timer.phase("inner"):
                time.sleep(0.05)
        inner = timer.seconds("inner")
        outer = timer.seconds("outer")
        assert inner >= 0.05
        # Self time: the outer phase must not re-count the inner 50 ms.
        assert outer < inner

    def test_reentrant_same_name(self):
        timer = PhaseTimer()
        with timer.phase("p"):
            time.sleep(0.001)
            with timer.phase("p"):
                time.sleep(0.001)
        # Both activations recorded once each, no double counting: the
        # total equals the gross outer duration.
        assert timer.seconds("p") == pytest.approx(timer.total, rel=0.5)

    def test_render_preserves_first_entry_order(self):
        timer = PhaseTimer()
        with timer.phase("first"):
            with timer.phase("second"):
                pass
        out = timer.render()
        assert out.index("first") < out.index("second")
