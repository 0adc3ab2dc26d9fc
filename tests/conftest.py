"""Shared fixtures: the two small complexes used throughout the tests.

``worked_example`` is a quasi-tree on six vertices whose facet-complement
ideal, relation trees and Betti numbers are all known in closed form;
``near_miss`` looks similar but has no leaf order, which exercises every
negative branch.  ``cyclic_garbage`` counts what a call leaves for the
cycle collector.
"""

import gc

import pytest

from srideals import SimplicialComplex


@pytest.fixture
def worked_example() -> SimplicialComplex:
    return SimplicialComplex(6, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (3, 4, 6)])


@pytest.fixture
def near_miss() -> SimplicialComplex:
    return SimplicialComplex(6, [(1, 2, 3), (3, 4, 5), (2, 4, 6)])


@pytest.fixture
def cyclic_garbage():
    """A function that calls fn(*args) with the cycle collector off and
    returns the number of objects the call left in reference cycles."""

    def count(fn, *args):
        gc.collect()
        gc.disable()
        try:
            fn(*args)
            return gc.collect()
        finally:
            gc.enable()

    return count
