"""The packed table's row operations against scipy's own operators.

``PackedMdp`` calls the compiled CSR routines of the private
``scipy.sparse._sparsetools`` directly.  These tests hold it to the bits of
the public operators that call the same routines, so a scipy release that
moves or changes one fails here, and they check that the solve path builds
no scipy matrix at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import _compressed

from mdpreduce import (
    GenSpec,
    PackedMdp,
    Substochastic,
    gen_ht,
    gen_transient,
    solve_average_cost,
    solve_total_cost,
)

#: Signed rates with both zeros, next to ordinary ones.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    """A packed table of 1-6 states with 1-3 rows each (one-row states
    too), rows of 0 to n distinct targets in any order, and signed rates."""
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = [
        draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        for _ in range(sum(counts))
    ]
    indices = [y for row in rows for y in row]
    data = draw(st.lists(_VALUES, min_size=len(indices), max_size=len(indices)))
    table = PackedMdp(
        np.zeros(len(rows)),
        np.concatenate(([0], np.cumsum(counts))),
        np.concatenate(([0], np.cumsum([len(row) for row in rows]))),
        indices,
        data,
    )
    return table


@st.composite
def tables_and_operands(draw):
    table = draw(tables())
    n, m, nnz = len(table.first) - 1, len(table.c), len(table.data)
    v = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))
    data = np.array(draw(st.lists(_VALUES, min_size=nnz, max_size=nnz)))
    rows = np.array(draw(st.lists(st.integers(0, m - 1), max_size=2 * m)), dtype=np.intp)
    return table, v, data, rows


class TestKernelParity:
    @settings(max_examples=300, deadline=None)
    @given(tables_and_operands())
    def test_same_bytes_as_scipy(self, case):
        table, v, data, rows = case
        R = table.R
        assert np.shares_memory(R.indptr, table.indptr)
        if table.data.size:  # an empty array shares no memory
            assert np.shares_memory(R.data, table.data)
            assert np.shares_memory(R.indices, table.indices)

        assert table.matvec(v).tobytes() == (R @ v).tobytes()
        twin = sparse.csr_matrix((data, R.indices, R.indptr), shape=R.shape)
        assert table.matvec(v, data).tobytes() == (twin @ v).tobytes()

        expected = R[rows]
        gathered = table.gather(rows)
        assert gathered.indptr.tobytes() == expected.indptr.tobytes()
        assert gathered.indices.tobytes() == expected.indices.tobytes()
        assert gathered.data.tobytes() == expected.data.tobytes()
        assert gathered.matvec(v).tobytes() == (expected @ v).tobytes()
        assert table.dense_rows(rows).tobytes() == expected.toarray().tobytes()
        assert table.dense_rows(rows).shape == expected.shape

    def test_int32_indices_as_scipy_chooses(self):
        table = PackedMdp(np.zeros(2), [0, 2], np.array([0, 1, 2]), np.array([0, 0]), [0.5, 1.0])
        assert table.indptr.dtype == table.indices.dtype == np.int32
        assert table.R.indptr.dtype == np.int32

    def test_bad_operands_raise(self):
        table = PackedMdp(np.zeros(2), [0, 2], [0, 1, 2], [0, 0], [0.5, 1.0])
        with pytest.raises(ValueError):
            table.matvec(np.ones(2))
        with pytest.raises(ValueError):
            table.matvec(np.ones(1), np.ones(3))
        with pytest.raises(ValueError):
            table.matvec(np.ones(1), out=np.zeros(3))
        with pytest.raises(IndexError):
            table.gather([2])
        with pytest.raises(IndexError):
            table.gather([-1])


@pytest.fixture(scope="module")
def instances():
    """Instances made before any count starts: a 12-state pair, a 300-state
    transient one and a 600-state sparse one with bounded hitting times."""
    kill = Substochastic((0.2, 0.5))
    return {
        "t12": gen_transient(GenSpec(12, 3, rate_class=kill, seed=7)),
        "a12": gen_ht(GenSpec(12, 3, seed=5), ell=0),
        "t300": gen_transient(GenSpec(300, 5, rate_class=kill, seed=1)),
        "a600": gen_ht(GenSpec(600, 5, density=0.0167, seed=1), ell=0),
    }


def test_the_solve_path_builds_no_scipy_matrix(instances, monkeypatch, calls):
    # construction, indexing and arithmetic of scipy's CSR and CSC types
    # all pass through this initializer
    made = []
    init = _compressed._cs_matrix.__init__

    def counted(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counted)
    for method in ("vi", "howard", "dantzig"):
        solve_total_cost(instances["t12"], method=method)
        solve_average_cost(instances["a12"], 0, method=method)
    solve_total_cost(instances["t300"], method="howard")
    solve_average_cost(instances["a600"], 0, method="howard")
    assert made == []
    assert calls["bicgstab"] > 0  # the large systems ran on gathered rows
