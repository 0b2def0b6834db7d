import copy

import numpy as np
import pytest

import qcode.golden as golden
from qcode import (GeneratorSpec, build_system, frequency_vector,
                   load_examples)

SEED = 20260817

# Mixed parity patterns whose frequency mass must be positive for the
# closed-form spectrum to apply at p=3.
MIXED_PARITIES = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


@pytest.fixture(scope="session")
def systems():
    return {p: build_system(p) for p in (1, 2, 3)}


@pytest.fixture(scope="session")
def examples():
    return load_examples()


@pytest.fixture(scope="session")
def design256(examples):
    """The frozen 256-run, 14-factor generator and its expected values."""
    data = examples["design_256x14"]
    V = tuple(tuple(row) for row in data["V"])
    return GeneratorSpec(len(V), 3, V), data


@pytest.fixture(scope="session")
def f256(design256):
    return frequency_vector(design256[0])


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_generator(rng, n: int, p: int) -> GeneratorSpec:
    V = tuple(tuple(int(x) for x in rng.integers(0, 4, size=p))
              for _ in range(n))
    return GeneratorSpec(n, p, V)


def random_precondition_generator(rng, n: int) -> GeneratorSpec:
    """Random p=3 generator with guaranteed mass on each mixed parity.

    Rejection sampling is hopeless here (a few percent pass rate), so
    the first three rows are drawn from the three mixed classes
    directly and the rest uniformly.
    """
    if n < 3:
        raise ValueError("preconditions need at least 3 rows")
    rows = []
    for parity in MIXED_PARITIES:
        rows.append(tuple(int(rng.choice((1, 3)) if b
                              else rng.choice((0, 2))) for b in parity))
    for _ in range(n - 3):
        rows.append(tuple(int(x) for x in rng.integers(0, 4, size=3)))
    return GeneratorSpec(n, 3, tuple(rows))


def tamper_design_256x14(monkeypatch, field, cell):
    """Make load_examples return the frozen data with one cell bumped."""
    real = golden.load_examples()

    def tampered():
        ex = copy.deepcopy(real)
        ex["design_256x14"][field][cell] += 2
        return ex

    monkeypatch.setattr(golden, "load_examples", tampered)


def miscount_scan(monkeypatch):
    """Make the subset scan behind `analyze` report one word too many in
    the first cell of its spectrum."""
    import qcode.theory as theory
    from qcode import WordSpectrum
    real = theory.spectrum_bruteforce

    def miscounted(*args, **kwargs):
        (length, rho, count), *rest = real(*args, **kwargs).entries
        return WordSpectrum(((length, rho, count + 1), *rest))

    monkeypatch.setattr(theory, "spectrum_bruteforce", miscounted)
