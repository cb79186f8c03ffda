import numpy as np
import pytest

import nk6


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
