"""
Exact dense linear algebra over finite fields GF(p^m).

Field elements are encoded as integers 0 .. p^m - 1 whose base-p digits
(little-endian) are the coefficients of the representing polynomial.  The
modulus is the lexicographically least monic irreducible polynomial of the
requested degree, so a (p, m) pair always names the same field.

Elementwise arithmetic is table-driven: full addition, multiplication,
negation and inversion tables as numpy arrays keep row operations in
``rref``, ``kron`` and sums vectorized.  The constructor only validates
(p, m) and finds the modulus; the tables are built together on the first
read of any, and numpy is imported on the first use of ``np`` (in this module,
``zerohecke`` and ``oracle``), so work without linear algebra, such as
parsing modules and deciding isomorphisms, never loads it.  Addition and
negation act digit by digit; multiplication, inversion and powers come from
the antilog/log tables of the least primitive element (kept as ``exp`` and
``log``), by one path for m = 1 and m > 1.  For m = 1 that element is the
least primitive root mod p, so ``field(p).exp`` is the one table of its
powers.  ``field(p, m)`` returns one shared FieldCtx per field,
so its tables are read-only.  Matrix products use delayed reduction (as in
FFLAS-FFPACK): both factors are split into their m base-p digit planes, the
m^2 plane products are float64 BLAS products, exact while
inner_dim * m * (p - 1)^2 < 2^53, and the polynomial coefficients are
reduced mod p and then mod the modulus polynomial.  On a prime field the
entries are their own single digit plane, so a product is one float64 BLAS
product and one reduction mod p.  A product also takes stacks of matrices
along leading axes, one BLAS product per matrix.  ``kernel`` first drops the
unknowns that rows with a single nonzero force to 0 (singleton-row presolve)
and runs ``rref`` on the rest; the basis is the same as from ``rref`` of the
whole matrix.  Dense matrices only; dimensions in this package stay small.
"""

from __future__ import annotations

from functools import cached_property


class _Numpy:
    """numpy, imported on the first attribute read (see the module docstring)."""

    def __getattr__(self, name):
        import numpy

        self.__dict__.update(vars(numpy))  # later reads skip this hook
        return getattr(numpy, name)


np = _Numpy()

# Full q x q tables are built on first use, so keep the field order bounded.
MAX_FIELD_ORDER = 1024

# float64 holds every integer below 2^53 exactly, whatever the summation order.
_FLOAT_EXACT = 2 ** 53


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_from_int(e: int, p: int) -> list[int]:
    """Little-endian coefficient list of the polynomial encoded by e."""
    coeffs = []
    while e:
        coeffs.append(e % p)
        e //= p
    return coeffs


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Multiply two polynomials and reduce mod a monic modulus, all over GF(p)."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    # Reduce: modulus is monic of degree m.
    m = len(modulus) - 1
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(m):
                prod[k - m + j] = (prod[k - m + j] - c * modulus[j]) % p
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


def _poly_divisible(a: list[int], b: list[int], p: int) -> bool:
    """Whether polynomial b divides a over GF(p).  b need not be monic."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    lb_inv = pow(lb, p - 2, p)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        c = (a[-1] * lb_inv) % p
        for j in range(db + 1):
            a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        while a and a[-1] == 0:
            a.pop()
    return not any(a)


def _least_irreducible(p: int, m: int) -> list[int]:
    """Lexicographically least monic irreducible of degree m over GF(p).

    The search orders candidates x^m + c, c running over the p^m lower
    parts in increasing integer encoding, and tests by trial division
    against every polynomial of degree 1 .. m//2.
    """
    if m == 1:
        return [0, 1]  # the polynomial x
    for low in range(p ** m):
        cand = _poly_from_int(low, p)
        cand += [0] * (m - len(cand)) + [1]
        # Trial divisors: all polynomials of degree up to m//2 with a
        # nonzero leading coefficient.
        reducible = False
        for d in range(1, m // 2 + 1):
            for enc in range(p ** d, p ** (d + 1)):
                div = _poly_from_int(enc, p)
                if _poly_divisible(cand, div, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return cand
    raise RuntimeError("no irreducible polynomial found (unreachable)")


def _primitive_powers(p: int, modulus: list[int]) -> np.ndarray:
    """g^0, ..., g^(q-2) encoded, for the least primitive element g of GF(p)[x]/(modulus).

    Multiplication by a candidate g is the m x m matrix over GF(p) whose
    column j holds the digits of g x^j; g is primitive when its powers first
    return to 1 after q - 1 steps.
    """
    m = len(modulus) - 1
    order = p ** m
    place = p ** np.arange(m, dtype=np.int64)
    for g in range(1 if order == 2 else 2, order):
        g_poly = _poly_from_int(g, p)
        G = np.zeros((m, m), dtype=np.int64)
        for j in range(m):
            col = _poly_mulmod(g_poly, [0] * j + [1], modulus, p)
            G[: len(col), j] = col
        powers = [1]
        v = G[:, 0]  # the digits of g
        while (e := int(v @ place)) != 1:
            powers.append(e)
            v = G @ v % p
        if len(powers) == order - 1:
            return np.array(powers, dtype=np.int64)
    raise RuntimeError("no primitive element (unreachable)")


def _read_only(table: np.ndarray) -> np.ndarray:
    """Freeze a field table: an interned field shares its tables with every user."""
    table.setflags(write=False)
    return table


class FieldCtx:
    """A finite field GF(p^m) with table-driven elementwise arithmetic.

    Attributes:
        p, m: characteristic and extension degree.
        order: p^m.
        modulus: little-endian coefficients of the monic modulus polynomial.
        add, mul: (order x order) numpy lookup tables.
        neg, inv: length-order numpy lookup tables (inv[0] is 0 by convention).
        exp, log: exp[i] = g^i for i < order - 1, g the least primitive
            element, and log[exp[i]] = i (log[0] is 0 and is never read).
        place: the place values p^i, i < m, that encode a coefficient vector.
        planes, fold: tables of the matrix product (see below).
    Every table is built on first use, the seven above together.
    """

    def __init__(self, p: int, m: int = 1):
        # Bound p and m before trial division or p ** m, which take time
        # (and memory) growing with them.
        if p > MAX_FIELD_ORDER:
            raise ValueError(f"field characteristic {p} exceeds cap {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be positive")
        order = 1
        for _ in range(m):  # at most 10 steps, as 2 <= p
            order *= p
            if order > MAX_FIELD_ORDER:
                raise ValueError(f"field order {p}^{m} exceeds cap {MAX_FIELD_ORDER}")
        self.p = p
        self.m = m
        self.order = order
        self.modulus = _least_irreducible(p, m)

    _TABLES = frozenset({"place", "exp", "log", "add", "mul", "neg", "inv"})

    def __getattr__(self, name):
        """Build the elementwise tables on the first read of any of them."""
        if name not in FieldCtx._TABLES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        p, m, order = self.p, self.m, self.order
        place = p ** np.arange(m, dtype=np.int64)

        # Elementwise tables from the base-p digits and from one exp/log table
        # of a primitive element g: every nonzero element is a power of g, and
        # g^i g^j = g^(i + j mod q - 1).  The same path serves m = 1.
        digits = np.arange(order)[:, None] // place % p
        add = np.zeros((order, order), dtype=np.int64)
        for i in range(m):  # digit by digit, so no temporary exceeds one table
            add += (digits[:, None, i] + digits[None, :, i]) % p * place[i]
        exp = _primitive_powers(p, self.modulus)
        log = np.zeros(order, dtype=np.int64)
        log[exp] = np.arange(order - 1)
        mul = exp[(log[:, None] + log[None, :]) % (order - 1)]
        mul[0, :] = mul[:, 0] = 0
        inv = exp[-log % (order - 1)]
        inv[0] = 0
        neg = (-digits) % p @ place
        tables = dict(place=place, exp=exp, log=log, add=add, mul=mul, neg=neg, inv=inv)
        for attr, table in tables.items():
            setattr(self, attr, _read_only(table))
        return tables[name]

    # Tables of the matrix product, built on first use like the elementwise
    # ones: a field used elementwise multiplies no matrices.
    @cached_property
    def planes(self) -> np.ndarray:
        """(order x m) float64 base-p digits: planes[e, i] is the coefficient of x^i in e."""
        digits = (np.arange(self.order)[:, None] // self.place) % self.p
        return _read_only(digits.astype(np.float64))

    @cached_property
    def fold(self) -> np.ndarray:
        """(m x m^2) matrix whose column i*m + j is x^(i+j) reduced mod the modulus."""
        m = self.m
        x_pow = [[1]]
        for _ in range(2 * m - 2):
            x_pow.append(_poly_mulmod(x_pow[-1], [0, 1], self.modulus, self.p))
        fold = np.zeros((m, m * m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                fold[: len(x_pow[i + j]), i * m + j] = x_pow[i + j]
        return _read_only(fold)

    @property
    def minus_one(self) -> int:
        return int(self.neg[1])

    def pow(self, a: int, e: int) -> int:
        """a^e in the field, read off the exp/log tables; 0^e is 1 for e = 0, else 0."""
        if a == 0:
            return int(e == 0)
        return int(self.exp[int(self.log[a]) * e % (self.order - 1)])

    def nonzero(self) -> list[int]:
        return list(range(1, self.order))

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash(("FieldCtx", self.p, self.m))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


_FIELDS: dict[tuple[int, int], FieldCtx] = {}


def field(p: int, m: int = 1) -> FieldCtx:
    """The one shared FieldCtx of GF(p^m), built on first request.

    There are finitely many fields below MAX_FIELD_ORDER, so the cache is
    bounded; a refused (p, m) raises on every request and is never stored.
    """
    f = _FIELDS.get((p, m))
    if f is None:
        f = _FIELDS[(p, m)] = FieldCtx(p, m)
    return f


class FFMatrix:
    """A dense matrix over a FieldCtx, entries stored as an int64 numpy array.

    ``data`` may carry leading batch axes, a stack of matrices of one shape:
    ``@`` then multiplies the stacks matrix by matrix, broadcasting as
    ``np.matmul`` does, and the elementwise operations act entry by entry.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: FieldCtx, data):
        self.field = field
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim < 2:
            raise ValueError("FFMatrix data must be a matrix or a stack of matrices")
        self.data = arr

    @classmethod
    def zeros(cls, field: FieldCtx, rows: int, cols: int) -> "FFMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: FieldCtx, n: int) -> "FFMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        return FFMatrix(self.field, self.field.add[self.data, other.data])

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        f = self.field
        return FFMatrix(f, f.add[self.data, f.neg[other.data]])

    def __neg__(self) -> "FFMatrix":
        return FFMatrix(self.field, self.field.neg[self.data])

    def scale(self, c: int) -> "FFMatrix":
        return FFMatrix(self.field, self.field.mul[self.data, c])

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        f = self.field
        p, m = f.p, f.m
        if self.cols * m * (p - 1) ** 2 >= _FLOAT_EXACT:
            raise ValueError(
                f"inner dimension {self.cols} too large for an exact product over {f}"
            )
        if m == 1:
            prod = self.data.astype(np.float64) @ other.data.astype(np.float64)
            return FFMatrix(f, prod.astype(np.int64) % p)
        # Stacking A's digit planes vertically and B's horizontally gives all
        # m^2 plane products A_i @ B_j from one BLAS call per matrix.
        r, n, c = self.rows, self.cols, other.cols
        a = np.moveaxis(f.planes[self.data], -1, -3)
        a = a.reshape(*a.shape[:-3], m * r, n)
        b = f.planes[other.data].reshape(*other.data.shape[:-2], n, c * m)
        prods = (a @ b).astype(np.int64) % p
        # (..., i, row, col, j) -> (..., row, col, i*m + j), then fold x^(i+j).
        prods = np.moveaxis(prods.reshape(*prods.shape[:-2], m, r, c, m), -4, -2)
        low = prods.reshape(*prods.shape[:-2], m * m) @ f.fold.T % p
        return FFMatrix(f, low @ f.place)

    def transpose(self) -> "FFMatrix":
        return FFMatrix(self.field, np.swapaxes(self.data, -1, -2).copy())

    def kron(self, other: "FFMatrix") -> "FFMatrix":
        self._check(other)
        f = self.field
        # One broadcast table lookup: out[i, k, j, l] = self[i, j] * other[k, l].
        out = f.mul[self.data[:, None, :, None], other.data[None, :, None, :]]
        return FFMatrix(f, out.reshape(self.rows * other.rows, self.cols * other.cols))

    def flatten_row(self) -> np.ndarray:
        """Row-major flattening as a plain numpy vector."""
        return self.data.reshape(-1).copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FFMatrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    def __hash__(self):
        raise TypeError("FFMatrix is unhashable")

    def _check(self, other: "FFMatrix"):
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __repr__(self) -> str:
        return f"FFMatrix({self.field}, {self.data.tolist()})"


def rref(M: FFMatrix) -> tuple[FFMatrix, int, list[int]]:
    """Reduced row echelon form.

    Returns:
        (R, rank, pivots): R row-equivalent to M in RREF, rank = number of
        pivots, pivots = pivot column indices in increasing order.
    """
    f = M.field
    R = M.data.copy()
    nrows, ncols = R.shape
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(R[r:, col])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = f.mul[R[r], int(f.inv[R[r, col]])]
        mask = R[:, col] != 0
        mask[r] = False
        if mask.any():
            R[mask] = f.add[R[mask], f.mul[f.neg[R[mask, col]][:, None], R[r][None, :]]]
        pivots.append(col)
        r += 1
    return FFMatrix(f, R), len(pivots), pivots


def rank(M: FFMatrix) -> int:
    return rref(M)[1]


def solve(A: FFMatrix, B: FFMatrix):
    """Solve A X = B.  Returns an FFMatrix or None if inconsistent.

    Deterministic solution: free variables are set to 0.
    """
    if A.field != B.field:
        raise ValueError("field mismatch")
    if A.rows != B.rows:
        raise ValueError("row count mismatch")
    f = A.field
    aug = FFMatrix(f, np.concatenate([A.data, B.data], axis=1))
    R, _, pivots = rref(aug)
    n = A.cols
    if any(p >= n for p in pivots):
        return None
    X = np.zeros((n, B.cols), dtype=np.int64)
    for i, p in enumerate(pivots):
        X[p] = R.data[i, n:]
    return FFMatrix(f, X)


def kernel(A: FFMatrix) -> FFMatrix:
    """A basis of the right null space, returned as matrix columns.

    Column j is the solution that is 1 at the j-th free column, 0 at the
    other free columns, and minus that column of the RREF at the pivots.

    A row with exactly one nonzero among the live columns forces its unknown
    to 0, and dropping that column can leave another such row, so forced
    columns are dropped until no row has a single live nonzero; only the
    rest goes through ``rref``.  A forced column is a pivot column of the full
    RREF and the free columns are the same, so the basis is the one ``rref``
    of all of A gives.
    """
    f = A.field
    nz = A.data != 0
    live = np.ones(A.cols, dtype=bool)
    count = nz.sum(axis=1)  # nonzeros per row among the live columns
    while (single := count == 1).any():
        forced = nz[single].any(axis=0) & live
        live ^= forced
        count -= nz[:, forced].sum(axis=1)
    cols = np.flatnonzero(live)
    R, rk, pivots = rref(FFMatrix(f, A.data[count > 0][:, cols]))
    free = np.ones(cols.size, dtype=bool)
    free[pivots] = False
    free_cols = np.flatnonzero(free)
    K = np.zeros((A.cols, free_cols.size), dtype=np.int64)
    K[cols[free_cols], np.arange(free_cols.size)] = 1
    K[cols[pivots]] = f.neg[R.data[:rk, free_cols]]
    return FFMatrix(f, K)
