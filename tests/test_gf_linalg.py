import random

import pytest

from conftest import FANO_ROWS, oracle_rank_mod_p, random_gf_matrix
from flagmatroids import gf_linalg as gl
from flagmatroids.errors import IndexOutOfRange, MatrixTooLarge, NotPrime


def test_field_rejects_non_primes():
    for bad in (0, 1, 4, 9, 15, 2 ** 16):
        with pytest.raises(NotPrime):
            gl.field(bad)
    assert gl.field(2).p == 2
    assert gl.field(65521).p == 65521  # largest prime below 2^16


def test_every_memo_is_bounded():
    # field(p) is keyed by a prime read from the input
    memos = [f for f in vars(gl).values() if hasattr(f, "cache_info")]
    assert {f.__name__ for f in memos} >= {"field"}
    for f in memos:
        assert f.cache_info().maxsize is not None, f.__name__


def test_matrix_cap():
    with pytest.raises(MatrixTooLarge):
        gl.zero(2, 33, 1)


@pytest.mark.parametrize("entries", [(0, -1), (3, 0), (1, 7)], ids=["negative", "p", "past-p"])
def test_matrix_entries_must_be_reduced(entries):
    with pytest.raises(IndexOutOfRange, match="^entry not reduced mod p$"):
        gl.GFMatrix(gl.field(3), 1, 2, entries)


def test_matrix_entry_checks_at_the_edges():
    assert gl.GFMatrix(gl.field(3), 1, 2, (0, 2)).entries == (0, 2)
    empty = gl.GFMatrix(gl.field(3), 0, 4, ())
    assert (empty.rows, empty.cols, empty.entries) == (0, 4, ())
    with pytest.raises(IndexOutOfRange, match="^entry count does not match shape$"):
        gl.GFMatrix(gl.field(3), 0, 4, (0,))


def test_rank_examples(fano):
    assert gl.rank(gl.identity(2, 3)) == 3
    assert gl.rank(fano) == 3
    assert oracle_rank_mod_p(FANO_ROWS, 2) == 3
    assert gl.rank(gl.zero(3, 2, 4)) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        a = random_gf_matrix(rng, p, rng.randint(1, 5), rng.randint(1, 5))
        assert gl.rank(a) == gl.rank(gl.transpose(a))
        assert gl.rank(a) == oracle_rank_mod_p(a.row_lists(), p)


def test_kernel_examples(fano):
    assert gl.kernel_basis(gl.identity(3, 2)) == []
    assert gl.kernel_basis(gl.matrix(2, [[1, 1]])) == [(1, 1)]
    kb = gl.kernel_basis(fano)
    assert len(kb) == 4
    for v in kb:
        col = gl.matrix(2, [[x] for x in v], cols=1)
        assert all(e == 0 for e in gl.matmul(fano, col).entries)


def test_kernel_count_property():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        a = random_gf_matrix(rng, p, rng.randint(1, 4), rng.randint(1, 6))
        kb = gl.kernel_basis(a)
        assert len(kb) == a.cols - gl.rank(a)
        for v in kb:
            col = gl.matrix(p, [[x] for x in v], cols=1)
            assert all(e == 0 for e in gl.matmul(a, col).entries)


def test_submatrix_helpers(fano):
    top = gl.prefix_rows(fano, 2)
    assert top.rows == 2 and top.row_lists() == FANO_ROWS[:2]
    vand = gl.matrix(5, [[1, 1, 1, 1], [0, 1, 2, 3]])
    assert gl.is_nonsingular(gl.select_cols(vand, [0, 2]))
    assert not gl.is_nonsingular(gl.zero(2, 1, 1))
    assert gl.is_nonsingular(gl.matrix(2, [], cols=0))  # empty matrix


def test_operations_are_pure():
    a = gl.matrix(3, [[1, 2, 0], [0, 1, 1]])
    assert gl.kernel_basis(a) == gl.kernel_basis(a)
    assert gl.rref(a) == gl.rref(a)
    assert a == gl.matrix(3, [[1, 2, 0], [0, 1, 1]])
