import numpy as np
import pytest

import nk6
from nk6 import cayley


@pytest.fixture(scope="session")
def table():
    return nk6.default_table()


@pytest.fixture(scope="session")
def dvv(table):
    return nk6.dvv_immersion(table)


@pytest.fixture(scope="session")
def geodesic(table):
    return nk6.totally_geodesic_immersion(table)


@pytest.fixture()
def counted_dvv(table):
    """A fresh DVV immersion that logs (order, rows) of each jet call in
    `jet_calls`."""
    imm = nk6.dvv_immersion(table)
    inner = imm.jet
    imm.jet_calls = []

    def jet(q, order):
        imm.jet_calls.append((order, int(np.prod(np.shape(q)[:-1]))))
        return inner(q, order)

    imm.jet = jet
    return imm


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def random_chart_points(imm, n, seed=0, margin=0.05):
    return imm.chart.random_points(n, np.random.default_rng(seed), margin=margin)


def relabeled_table(seed):
    """The Cayley-Dickson triples under a fixed basis relabeling, drawn from
    `seed` (the identity for seed 0), with the global sign flip for odd seeds."""
    perm = np.arange(1, 8) if seed == 0 else np.random.default_rng(seed).permutation(7) + 1
    sign = -1 if seed % 2 else 1
    triples = [((perm[i - 1], perm[j - 1], perm[k - 1]), sign * s)
               for (i, j, k), s in cayley.CAYLEY_DICKSON_TRIPLES]
    return cayley.MulTable.from_triples(triples, source=f"relabeled-{seed}")
