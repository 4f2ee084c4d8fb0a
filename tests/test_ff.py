import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeiso.ff import FFMatrix, FieldCtx, field, kernel, rank, rref, solve

FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2), FieldCtx(2, 3)]
# Prime fields and extensions of degree 2 and 3, up to GF(25), for the
# digit-plane products.
PRODUCT_FIELDS = FIELDS + [FieldCtx(5, 2)]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"GF({f.order})")
def test_field_axioms_exhaustive(f):
    n = f.order
    for a in range(n):
        assert f.add[a, 0] == a
        assert f.mul[a, 1] == a
        assert f.mul[a, 0] == 0
        assert f.add[a, f.neg[a]] == 0
        if a:
            assert f.mul[a, f.inv[a]] == 1
        for b in range(n):
            assert f.add[a, b] == f.add[b, a]
            assert f.mul[a, b] == f.mul[b, a]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"GF({f.order})")
def test_frobenius_is_additive(f):
    p = f.p
    for a in range(f.order):
        for b in range(f.order):
            lhs = f.pow(int(f.add[a, b]), p)
            rhs = f.add[f.pow(a, p), f.pow(b, p)]
            assert lhs == rhs


def test_multiplicative_group_is_cyclic():
    f = FieldCtx(3, 2)
    for g in range(1, f.order):
        powers = {f.pow(g, k) for k in range(f.order - 1)}
        if len(powers) == f.order - 1:
            return
    pytest.fail("no generator found in GF(9)^x")


def test_minus_one():
    assert FieldCtx(2).minus_one == 1
    assert FieldCtx(3).minus_one == 2
    f9 = FieldCtx(3, 2)
    assert f9.add[f9.minus_one, 1] == 0


@st.composite
def matrices(draw, f, max_dim=5):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(st.integers(0, f.order - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return FFMatrix(f, data)


@given(M=matrices(FieldCtx(3)))
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(M):
    assert rank(M) == rank(M.transpose())


@given(M=matrices(FieldCtx(2, 2)))
@settings(max_examples=60, deadline=None)
def test_kernel_is_annihilated(M):
    K = kernel(M)
    assert K.cols + rank(M) == M.cols
    if K.cols:
        assert not (M @ K).data.any()


@given(M=matrices(FieldCtx(5)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_solve_roundtrip(M, data):
    x = data.draw(
        st.lists(st.integers(0, 4), min_size=M.cols, max_size=M.cols)
    )
    X = FFMatrix(M.field, [[v] for v in x])
    B = M @ X
    Y = solve(M, B)
    assert Y is not None
    assert M @ Y == B


def test_rref_shape_and_pivots():
    f = FieldCtx(3)
    M = FFMatrix(f, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    R, rk, pivots = rref(M)
    assert rk == 2
    assert pivots == [0, 2]
    # [1,2] and [2,1] are proportional over GF(3).
    assert rank(M) == 2


def schoolbook(A, B):
    """A @ B summed entry by entry with the field's add and mul tables."""
    f = A.field
    out = np.zeros((A.rows, B.cols), dtype=np.int64)
    for i in range(A.rows):
        for j in range(B.cols):
            acc = 0
            for k in range(A.cols):
                acc = int(f.add[acc, f.mul[A.data[i, k], B.data[k, j]]])
            out[i, j] = acc
    return out


@given(
    f=st.sampled_from(PRODUCT_FIELDS),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    zero=st.sampled_from(["none", "left", "right"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_matmul_matches_schoolbook(f, shape, zero, data):
    r, n, c = shape

    def draw(rows, cols, is_zero):
        if is_zero:
            return FFMatrix.zeros(f, rows, cols)
        entries = st.integers(0, f.order - 1)
        row = st.lists(entries, min_size=cols, max_size=cols)
        return FFMatrix(f, data.draw(st.lists(row, min_size=rows, max_size=rows)))

    A = draw(r, n, zero == "left")
    B = draw(n, c, zero == "right")
    assert np.array_equal((A @ B).data, schoolbook(A, B))


@pytest.mark.parametrize("f", PRODUCT_FIELDS, ids=lambda f: f"GF({f.order})")
def test_matmul_inner_dimension_one_and_zeros(f):
    top = f.order - 1
    col = FFMatrix(f, [[top], [1], [0]])
    row = FFMatrix(f, [[top, 1, 0, top]])
    for A, B in [
        (col, row),
        (row.transpose(), FFMatrix(f, [[top]])),
        (FFMatrix.zeros(f, 3, 1), row),
        (col, FFMatrix.zeros(f, 1, 4)),
    ]:
        assert np.array_equal((A @ B).data, schoolbook(A, B))


def test_matmul_refuses_inner_dimensions_beyond_float_exactness():
    # Empty outer dimensions allocate nothing, so only the bound can refuse.
    f = FieldCtx(2)  # (p - 1)^2 = 1: exact while the inner dimension is below 2^53
    ok = FFMatrix(f, np.zeros((0, 2**53 - 1), dtype=np.int64))
    assert (ok @ FFMatrix(f, np.zeros((2**53 - 1, 0), dtype=np.int64))).data.shape == (0, 0)
    big = FFMatrix(f, np.zeros((0, 2**53), dtype=np.int64))
    with pytest.raises(ValueError):
        big @ FFMatrix(f, np.zeros((2**53, 0), dtype=np.int64))
    g = FieldCtx(1021)  # 1020^2 * 8.7e9 > 2^53
    with pytest.raises(ValueError):
        FFMatrix(g, np.zeros((0, 8_700_000_000), dtype=np.int64)) @ FFMatrix(
            g, np.zeros((8_700_000_000, 0), dtype=np.int64)
        )


@given(M=matrices(FieldCtx(3, 2), max_dim=7))
@settings(max_examples=60, deadline=None)
def test_kernel_is_identity_on_free_columns(M):
    K = kernel(M)
    _, _, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    assert K.cols == len(free)
    assert np.array_equal(K.data[free], np.eye(len(free), dtype=np.int64))


def test_matmul_matches_integer_arithmetic_mod_p():
    f = FieldCtx(7)
    rng = np.random.default_rng(0)
    A = rng.integers(0, 7, size=(4, 3))
    B = rng.integers(0, 7, size=(3, 5))
    got = (FFMatrix(f, A) @ FFMatrix(f, B)).data
    assert np.array_equal(got, (A @ B) % 7)


def test_kron_identity():
    f = FieldCtx(3)
    A = FFMatrix(f, [[1, 2], [0, 1]])
    K = FFMatrix.identity(f, 2).kron(A)
    assert K.rows == 4 and K.cols == 4
    assert np.array_equal(K.data[:2, :2], A.data)
    assert np.array_equal(K.data[2:, 2:], A.data)
    assert not K.data[:2, 2:].any()


def test_interned_field_is_shared_and_read_only():
    f = field(3, 2)
    assert field(3, 2) is f
    assert field(5) is field(5, 1)
    assert f == FieldCtx(3, 2)
    for table in (f.add, f.mul, f.neg, f.inv, f.place, f.planes, f.fold):
        with pytest.raises(ValueError):
            table[0] = 0


def test_field_order_cap():
    with pytest.raises(ValueError):
        FieldCtx(2, 11)


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        FieldCtx(6)
