"""The speed scaling of speed.py.

Run from the repository root: python -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench")]

import speed  # noqa: E402


def meter(share, compute, memory):
    m = speed.Meter.__new__(speed.Meter)
    m.share, m.compute, m.memory = share, compute, memory
    return m


def test_reference_speed_scales_by_one():
    m = meter(0.25, [speed.REF_COMPUTE_S] * 10, [speed.REF_MEMORY_S] * 10)
    assert m.scale() == pytest.approx(1.0)


def test_scale_blends_the_kernels_by_share():
    m = meter(0.25, [2 * speed.REF_COMPUTE_S] * 10,
              [speed.REF_MEMORY_S] * 10)
    assert m.scale() == pytest.approx(1 / (0.75 * 2 + 0.25 * 1))
    assert m.scale(0.0) == pytest.approx(0.5)
    assert m.scale(1.0) == pytest.approx(1.0)


def test_a_preempted_sample_is_trimmed():
    ref = speed.REF_COMPUTE_S
    m = meter(0.0, [ref] * 9 + [100 * ref], [speed.REF_MEMORY_S])
    assert m.scale() == pytest.approx(1.0)


def test_samples_follow_request_time():
    m = speed.Meter(0.5)
    start = len(m.compute)
    m.after(10.4 * speed.EVERY_S)
    assert len(m.compute) - start == 10
    m.after(0.7 * speed.EVERY_S)
    assert len(m.compute) - start == 11
    assert len(m.memory) == -(-len(m.compute) // speed.MEMORY_EVERY)
