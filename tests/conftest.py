import tracemalloc

import pytest

from latticecft.lattices import (
    BUNDLED_GRAMS,
    EXTRA_GRAMS,
    discriminant_group,
    validate_even_lattice,
)


@pytest.fixture(scope="session")
def bundled():
    """name -> (lattice, discriminant group) for the bundled Gram matrices."""
    out = {}
    for name, gram in BUNDLED_GRAMS.items():
        lat = validate_even_lattice(gram)
        out[name] = (lat, discriminant_group(lat))
    return out


@pytest.fixture(scope="session")
def small_lattices():
    """Bundled plus extra small lattices, for sweeps."""
    out = {}
    for name, gram in {**BUNDLED_GRAMS, **EXTRA_GRAMS}.items():
        lat = validate_even_lattice(gram)
        out[name] = (lat, discriminant_group(lat))
    return out


@pytest.fixture
def traced_peak():
    """peak(fn): the most memory tracemalloc saw allocated while fn() ran, in bytes."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
