import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeiso import ff
from heckeiso.ff import (
    MAX_FIELD_ORDER,
    FFMatrix,
    FieldCtx,
    _is_prime,
    _least_irreducible,
    _poly_from_int,
    _poly_mulmod,
    field,
    kernel,
    rank,
    rref,
    solve,
)

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
    batch=st.sampled_from([None, (1, None), (3, None), (3, 3)]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_matmul_matches_schoolbook(f, shape, zero, batch, data):
    """Plain products, and stacks of products: (b, r, n) @ (n, c) and (b, r, n) @ (b, n, c)."""
    r, n, c = shape

    def draw(rows, cols, is_zero):
        if is_zero:
            return FFMatrix.zeros(f, rows, cols)
        entries = st.integers(0, f.order - 1)
        row = st.lists(entries, min_size=cols, max_size=cols)
        return FFMatrix(f, data.draw(st.lists(row, min_size=rows, max_size=rows)))

    def stack(rows, cols, is_zero, count):
        mats = [draw(rows, cols, is_zero) for _ in range(count or 1)]
        return mats, FFMatrix(f, np.stack([M.data for M in mats]) if count else mats[0].data)

    left, A = stack(r, n, zero == "left", batch and batch[0])
    right, B = stack(n, c, zero == "right", batch and batch[1])
    got = (A @ B).data
    assert got.shape == np.broadcast_shapes(A.data.shape[:-2], B.data.shape[:-2]) + (r, c)
    for i, product in enumerate(got.reshape(-1, r, c)):
        want = schoolbook(left[i % len(left)], right[i % len(right)])
        assert np.array_equal(product, want)


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


def kernel_reference(A):
    """The kernel read off ``rref`` of all of A, with no presolve."""
    f = A.field
    R, rk, pivots = rref(A)
    free = np.ones(A.cols, dtype=bool)
    free[pivots] = False
    free_cols = np.flatnonzero(free)
    K = np.zeros((A.cols, free_cols.size), dtype=np.int64)
    K[free_cols, np.arange(free_cols.size)] = 1
    K[pivots] = f.neg[R.data[:rk, free_cols]]
    return K


KERNEL_FIELDS = [field(2), field(3), field(2, 2), field(3, 2), field(5, 2)]


@st.composite
def presolvable(draw):
    """Planted forcing chains among random rows, rows and columns shuffled.

    Chain row i is nonzero at its own column c_i and at c_(i-1), and may be
    nonzero at c_0 .. c_(i-2): only once c_(i-1) is dropped does it have a
    single live nonzero, so each chain needs one presolve round per row.
    """
    f = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 8))
    entry, nonzero = st.integers(0, f.order - 1), st.integers(1, f.order - 1)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        chain = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        for i, c in enumerate(chain):
            row = [0] * n
            for earlier in chain[: max(i - 1, 0)]:
                row[earlier] = draw(entry)
            if i:
                row[chain[i - 1]] = draw(nonzero)
            row[c] = draw(nonzero)
            rows.append(row)
    for _ in range(draw(st.integers(0, 4))):
        rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    rows = draw(st.permutations(rows))
    return FFMatrix(f, np.array(rows, dtype=np.int64).reshape(len(rows), n))


@given(A=presolvable())
@settings(max_examples=300, deadline=None)
def test_kernel_presolve_matches_plain_rref(A):
    """Entry for entry the kernel of ``rref`` on all of A; what reaches ``rref``
    has no row with a single nonzero left, so the presolve ran to its end."""
    reduced = []

    def recording_rref(M):
        reduced.append(M.data)
        return rref(M)

    with mock.patch.object(ff, "rref", recording_rref):
        K = kernel(A)
    want = kernel_reference(A)
    assert K.data.shape == want.shape
    assert np.array_equal(K.data, want)
    assert all(((M != 0).sum(axis=1) != 1).all() for M in reduced)


def field_tables_loop(p, m):
    """add, mul, neg and inv as the O(q^2) polynomial loop built them."""
    order = p**m
    if m == 1:
        rng = np.arange(p, dtype=np.int64)
        inv = np.zeros(p, dtype=np.int64)
        for a in range(1, p):
            inv[a] = pow(a, p - 2, p)
        return (rng[:, None] + rng[None, :]) % p, (rng[:, None] * rng[None, :]) % p, (-rng) % p, inv
    modulus = _least_irreducible(p, m)
    polys = [_poly_from_int(e, p) for e in range(order)]
    add = np.zeros((order, order), dtype=np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(order):
        pa = polys[a]
        for b in range(a, order):
            pb = polys[b]
            s = 0
            for k in range(max(len(pa), len(pb))):
                ca = pa[k] if k < len(pa) else 0
                cb = pb[k] if k < len(pb) else 0
                s += ((ca + cb) % p) * p**k
            add[a, b] = add[b, a] = s
            prod = _poly_mulmod(pa, pb, modulus, p)
            mul[a, b] = mul[b, a] = sum(c * p**k for k, c in enumerate(prod))
    neg = np.zeros(order, dtype=np.int64)
    for a in range(order):
        neg[a] = sum(((-c) % p) * p**k for k, c in enumerate(polys[a]))
    inv = np.zeros(order, dtype=np.int64)
    for a in range(1, order):
        acc, base, e = 1, a, order - 2
        while e:
            if e & 1:
                acc = int(mul[acc, base])
            base = int(mul[base, base])
            e >>= 1
        inv[a] = acc
    return add, mul, neg, inv


def test_field_tables_match_polynomial_loop():
    orders = [(p, m) for p in range(2, 82) if _is_prime(p) for m in range(1, 7) if p**m <= 81]
    assert len(orders) == 32
    for p, m in orders:
        f = FieldCtx(p, m)
        for got, want in zip((f.add, f.mul, f.neg, f.inv), field_tables_loop(p, m)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (p, m)


def pow_loop(f, a, e):
    """a^e by square-and-multiply over the multiplication table, inverting for e < 0."""
    if e < 0:
        a, e = int(f.inv[a]), -e
    acc, base = 1, a
    while e:
        if e & 1:
            acc = int(f.mul[acc, base])
        base = int(f.mul[base, base])
        e >>= 1
    return acc


def test_pow_from_exp_log_tables_matches_square_and_multiply():
    orders = [(p, m) for p in range(2, 82) if _is_prime(p) for m in range(1, 7) if p**m <= 81]
    assert len(orders) == 32
    for p, m in orders:
        f = field(p, m)
        q = f.order
        assert f.exp[0] == 1 and len(set(f.exp.tolist())) == q - 1
        for a in range(q):
            for e in range(-q, q + 1):
                assert f.pow(a, e) == pow_loop(f, a, e), (p, m, a, e)


def test_largest_field_builds_in_under_a_second():
    start = time.perf_counter()
    f = FieldCtx(2, 10)
    assert time.perf_counter() - start < 1.0
    assert f.order == 1024
    a = np.arange(1, 1024)
    assert (f.mul[a, f.inv[a]] == 1).all()


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
    for table in (f.add, f.mul, f.neg, f.inv, f.exp, f.log, f.place, f.planes, f.fold):
        with pytest.raises(ValueError):
            table[0] = 0


def test_field_order_cap():
    with pytest.raises(ValueError):
        FieldCtx(2, 11)


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        FieldCtx(6)


@pytest.mark.parametrize("p,m", [(2**61 - 1, 1), (3, 10**7), (3, 10**8), (2**61 - 1, 10**8)])
def test_oversized_field_is_refused_before_primality_or_powers(p, m):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_FIELD_ORDER}"):
        FieldCtx(p, m)
    assert time.perf_counter() - start < 0.1
