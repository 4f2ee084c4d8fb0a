"""
0-Hecke algebras of finite Coxeter groups over a finite field, together with
generic module machinery shared with the brute-force oracle:

  * hom_space        -- a basis of intertwiners between two modules: the
                        generators that act diagonally on both modules
                        select the unknowns that may be nonzero, and the
                        solution spaces of the others are intersected one
                        generator at a time, so each linear system has at
                        most dim M * dim N rows,
  * stable_hom_dim   -- Hom modulo maps factoring through projectives,
  * is_projective    -- vanishing stable End (the trivial objects of Hovey's
                        Gorenstein projective model structure),
  * reflection_row_map -- right multiplication by T_s on {T_w e_a} as a
                        ``RowMap``, one rule for the 0-Hecke algebra (one
                        point a) and the oracle's torus blocks.

A Hom system above HOM_UNKNOWNS_CAP unknowns is refused before allocation.

The machinery only needs an algebra object exposing ``field``, ``dim``,
``gen_names`` (one per generator), ``gen_action`` (right multiplication
matrices of the generators on the algebra basis, read only when a free
module is built) and ``basis_words``, so it works uniformly for 0-Hecke
algebras and the oracle's parahoric algebra models.  ``basis_words`` is an
int table built once with the algebra (``word_table``): row b spells basis
element b as a product of generators, right-aligned and padded on the left
with the letter len(gen_names), which acts as the identity.  A free cover
reads a module's action on every basis element off this table with one
batched product per letter position.

Modules are given by one right-action matrix per generator; rows are module
elements, so the action of a product ab is A_a @ A_b.
"""

from __future__ import annotations

from .ff import FFMatrix, FieldCtx, kernel, np, rank
from .weyl import CoxeterGroup, coxeter_order, parse_cox_type

ZERO_HECKE_CAP = 1024
# Unknowns of the largest Hom system solved: the largest H_F the oracle
# admits, so a character against any admitted regular module still fits.
HOM_UNKNOWNS_CAP = 4096


class RowMap:
    """A square matrix over a field with at most one nonzero entry per row.

    Row i holds vals[i] in column cols[i]; vals[i] = 0 is a zero row, whose
    column is ignored.  It takes O(dim) storage where the dense matrix takes
    dim^2, and a product is one index gather and one field multiply per row.
    Unlike the oracle's ``MonomialMatrix`` (a lift: a permutation with pi
    exponents), rows may vanish and columns may repeat.
    """

    __slots__ = ("field", "cols", "vals")

    def __init__(self, field: FieldCtx, cols: np.ndarray, vals: np.ndarray):
        self.field = field
        self.cols = cols
        self.vals = vals

    def __matmul__(self, other: "RowMap") -> "RowMap":
        # Row i of the product is vals[i] times row cols[i] of other.
        return RowMap(
            self.field, other.cols[self.cols], self.field.mul[self.vals, other.vals[self.cols]]
        )

    def __eq__(self, other) -> bool:
        live = self.vals != 0
        return (
            isinstance(other, RowMap)
            and self.field == other.field
            and np.array_equal(self.vals, other.vals)
            and np.array_equal(self.cols[live], other.cols[live])
        )

    def dense(self) -> FFMatrix:
        n = len(self.cols)
        A = np.zeros((n, n), dtype=np.int64)
        A[np.arange(n), self.cols] = self.vals
        return FFMatrix(self.field, A)


def reflection_row_map(field: FieldCtx, ws, up, moved) -> RowMap:
    """Right multiplication by T_s on the basis {T_w e_a}, w slowest.

    ws[w] indexes ws, up[w] says whether l(ws) = l(w) + 1, and moved[a]
    indexes s.a among the k points a.  T_w e_a T_s is T_{ws} e_{s.a} when
    the length adds, and -[s.a = a] T_w e_a when it drops.
    """
    moved = np.asarray(moved, dtype=np.int64)
    k = len(moved)
    up = np.asarray(up)[:, None]
    here = np.arange(len(up) * k).reshape(-1, k)
    cols = np.where(up, np.asarray(ws)[:, None] * k + moved, here)
    vals = np.where(up, 1, np.where(moved == np.arange(k), field.minus_one, 0))
    return RowMap(field, cols.ravel(), vals.ravel())


class ZeroHeckeAlg:
    """The 0-Hecke algebra of a finite Coxeter group.

    Basis {H_w}, multiplication H_w H_s = H_{ws} if length goes up and
    -H_w otherwise; so the braid relations hold and H_s^2 = -H_s.
    """

    def __init__(self, group: CoxeterGroup, field: FieldCtx):
        self.group = group
        self.field = field
        self.dim = len(group)
        if self.dim > ZERO_HECKE_CAP:
            raise ValueError(f"|W| = {self.dim} exceeds cap {ZERO_HECKE_CAP}")
        index = {w: i for i, w in enumerate(group.elements)}
        self.gen_names = list(range(group.rank))
        self.basis_words = word_table([group.word[w] for w in group.elements], group.rank)

        # The one-point case of the T_s row rule: H_w H_s = H_{ws} or -H_w.
        lengths = np.array([group.length[w] for w in group.elements])
        gens = []
        for gi in self.gen_names:
            ws = np.array([index[group.multiply_gen(w, gi)] for w in group.elements])
            gens.append(reflection_row_map(field, ws, lengths[ws] > lengths, [0]))
        minus = RowMap(field, np.arange(self.dim), np.full(self.dim, field.minus_one))
        _check_relations(gens, _bond_table(group), dict.fromkeys(range(group.rank), minus))
        self.gen_action = [R.dense() for R in gens]

    def regular_module(self) -> "HModule":
        return HModule(self, self.dim, list(self.gen_action), check=False)


def _check_zero_hecke_relations(mats, group: CoxeterGroup, field: FieldCtx, dim: int):
    """Braid relations and H_s^2 = -H_s, i.e. Q_s = -1 for every generator."""
    minus_id = -FFMatrix.identity(field, dim)
    _check_relations(mats, _bond_table(group), dict.fromkeys(range(group.rank), minus_id))


def _bond_table(group: CoxeterGroup) -> dict[tuple[int, int], float]:
    """Coxeter bond orders m(s, t) read off the root permutation action."""
    bonds = {}
    n = group.rank
    for i in range(n):
        for j in range(i + 1, n):
            # Order of s_i s_j as a permutation.
            si, sj = group.generators[i], group.generators[j]
            prod = tuple(si[sj[k]] for k in range(len(si)))
            m, cur = 1, prod
            ident = tuple(range(len(si)))
            while cur != ident:
                cur = tuple(prod[cur[k]] for k in range(len(cur)))
                m += 1
                if m > 64:
                    raise ValueError("unbounded bond order")
            bonds[(i, j)] = m
    return bonds


def _check_relations(mats, bonds, quadratic):
    """Assert the braid relations and T_s^2 = T_s Q_s on action matrices.

    ``bonds`` maps index pairs (i, j) of ``mats`` to their Coxeter order
    (inf: no relation); ``quadratic`` maps a generator's index to its Q_s.
    """
    for (i, j), m in bonds.items():
        if m != float("inf"):
            if _alternating(mats[i], mats[j], int(m)) != _alternating(mats[j], mats[i], int(m)):
                raise AssertionError(f"braid relation fails for generators {i},{j}")
    for i, Q in quadratic.items():
        A = mats[i]
        if A @ A != A @ Q:
            raise AssertionError(f"quadratic relation fails for generator {i}")


def _alternating(A: FFMatrix, B: FFMatrix, m: int) -> FFMatrix:
    out = A
    for k in range(1, m):
        out = out @ (B if k % 2 else A)
    return out


class HModule:
    """A finite-dimensional right module given by generator action matrices."""

    def __init__(self, algebra, dim: int, action: list[FFMatrix], check: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        if len(action) != len(algebra.gen_names):
            raise ValueError("one action matrix per algebra generator is required")
        for A in action:
            if A.rows != dim or A.cols != dim:
                raise ValueError("action matrix has wrong shape")
        if check and isinstance(algebra, ZeroHeckeAlg):
            _check_zero_hecke_relations(action, algebra.group, algebra.field, dim)


def build_zero_hecke(cox_type, field: FieldCtx) -> ZeroHeckeAlg:
    """Build the 0-Hecke algebra of a finite Coxeter type; |W| is read off the
    type and refused above ZERO_HECKE_CAP before any element is listed."""
    cox_type = parse_cox_type(cox_type)
    order = coxeter_order(cox_type)
    if order > ZERO_HECKE_CAP:
        raise ValueError(f"|W| = {order} exceeds cap {ZERO_HECKE_CAP}")
    return ZeroHeckeAlg(CoxeterGroup(cox_type), field)


def character_module(alg: ZeroHeckeAlg, L) -> HModule:
    """The 1-dimensional character with H_s acting by -1 for s in L, else 0."""
    f = alg.field
    L = set(L)
    mats = []
    for gi in alg.gen_names:
        val = f.minus_one if gi in L else 0
        mats.append(FFMatrix(f, [[val]]))
    return HModule(alg, 1, mats, check=False)


def word_table(words, identity: int) -> np.ndarray:
    """Words as the rows of an int table, right-aligned and padded on the left
    with the letter ``identity``, which is the number of generators."""
    width = max(1, max(map(len, words), default=0))
    table = np.full((len(words), width), identity, dtype=np.int64)
    for row, word in zip(table, words):
        row[width - len(word) :] = word
    return table


def _basis_actions(module: HModule) -> FFMatrix:
    """Action of every algebra basis element on the module, stacked (basis, dim, dim).

    Column j of the word table holds letter j of every basis word, so one
    batched product per column multiplies all words out together; the
    padding letter acts as the identity.
    """
    f = module.algebra.field
    eye = np.eye(module.dim, dtype=np.int64)
    letters = np.stack([A.data for A in module.action] + [eye])
    words = module.algebra.basis_words
    acts = FFMatrix(f, letters[words[:, 0]])
    for column in words.T[1:]:
        acts = acts @ FFMatrix(f, letters[column])
    return acts


def intertwiners(field: FieldCtx, acts_M, acts_N, dim_M: int, dim_N: int) -> list[FFMatrix]:
    """A basis of the matrices F (dim_M x dim_N) with A_g F = F B_g for all g.

    acts_M and acts_N list the action matrices A_g and B_g generator by
    generator.  A generator that acts diagonally on both sides, A_g =
    diag(a) and B_g = diag(b), imposes (a_i - b_j) F_ij = 0, so it only
    decides which entries may be nonzero: all such generators together give
    one boolean mask, and K starts as the unit columns the mask keeps.  With
    vec_col(F) the column-major vectorisation, every other generator imposes
    S_g vec_col(F) = 0 for the Sylvester block S_g = I (x) A_g - B_g^T (x) I,
    and replaces K by K . kernel(S_g K), one generator at a time.  S_g K is
    computed as A_g F - F B_g over the columns F of K, so no system has more
    than dim_M * dim_N rows, and the loop stops once K is empty.
    """
    _check_unknowns(dim_M * dim_N)
    mask = np.ones((dim_M, dim_N), dtype=bool)
    rest = []
    for A, B in zip(acts_M, acts_N):
        if _is_diagonal(A) and _is_diagonal(B):
            mask &= np.diagonal(A.data)[:, None] == np.diagonal(B.data)[None, :]
        else:
            rest.append((A, B))
    kept = np.flatnonzero(mask.T)
    if kept.size == 0:
        return []
    K = np.zeros((dim_M * dim_N, kept.size), dtype=np.int64)
    K[kept, np.arange(kept.size)] = 1
    K = FFMatrix(field, K)
    for A, B in rest:
        K = K @ kernel(_sylvester_times(A, B, K, dim_M, dim_N))
        if K.cols == 0:
            return []
    # Undo the column-major vectorisation.
    F = K.data.reshape(dim_N, dim_M, K.cols).transpose(2, 1, 0)
    return [FFMatrix(field, F[j].copy()) for j in range(K.cols)]


def _check_unknowns(n: int):
    if n > HOM_UNKNOWNS_CAP:
        raise ValueError(f"Hom system with {n} unknowns exceeds cap {HOM_UNKNOWNS_CAP}")


def _is_diagonal(A: FFMatrix) -> bool:
    return np.count_nonzero(A.data) == np.count_nonzero(np.diagonal(A.data))


def _sylvester_times(A: FFMatrix, B: FFMatrix, K: FFMatrix, dM: int, dN: int) -> FFMatrix:
    """S K for S = I (x) A - B^T (x) I, as vec_col(A F - F B) per column F of K."""
    f = A.field
    c = K.cols
    X = K.data.reshape(dN, dM, c)  # X[j, i, k] = F_k[i, j]
    AF = A @ FFMatrix(f, X.transpose(1, 0, 2).reshape(dM, dN * c))
    AF = AF.data.reshape(dM, dN, c).transpose(1, 0, 2).reshape(dN * dM, c)
    FB = B.transpose() @ FFMatrix(f, X.reshape(dN, dM * c))
    return FFMatrix(f, AF) - FFMatrix(f, FB.data.reshape(dN * dM, c))


def hom_space(M: HModule, N: HModule) -> list[FFMatrix]:
    """A basis of Hom(M, N): matrices F with A^M_g F = F A^N_g for all g.

    With rows as module elements, a hom is x -> x F for F of shape
    (dim M, dim N).  The equations are solved by ``intertwiners``; for the
    oracle's torus blocks the idempotents e_a act diagonally, so they only
    select the unknowns of one torus eigenspace before any reflection is
    solved for.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules over different algebras")
    return intertwiners(M.algebra.field, M.action, N.action, M.dim, N.dim)


def _free_module(alg, d: int) -> HModule:
    """The free right module A^d, basis ordered (copy, algebra basis)."""
    # I_d (x) R_g is block placement: the identity's entries 0 and 1 encode
    # the field's 0 and 1, so the integer Kronecker product is the field one.
    # A^1 is the regular module, whose matrices are shared, not copied.
    eye = np.eye(d, dtype=np.int64)
    mats = [R if d == 1 else FFMatrix(alg.field, np.kron(eye, R.data)) for R in alg.gen_action]
    return HModule(alg, d * alg.dim, mats, check=False)


def _free_cover(module: HModule) -> tuple[HModule, FFMatrix]:
    """A surjection pi: A^d -> M with d = dim M.

    The (copy i, basis b) row of the cover matrix is row i of the action of
    basis element b on M, so the i-th free generator maps onto the i-th
    basis vector of M.
    """
    alg = module.algebra
    d = module.dim
    acts = _basis_actions(module).data
    P = acts.transpose(1, 0, 2).reshape(d * alg.dim, d)
    return _free_module(alg, d), FFMatrix(alg.field, P)


def is_projective(M: HModule) -> bool:
    """Whether the stable endomorphisms of M vanish.

    The maps factoring through a projective form a two-sided ideal of
    End(M); it contains id_M exactly when it is all of End(M).
    """
    return stable_hom_dim(M, M) == 0


def stable_hom_dim(M: HModule, N: HModule) -> int:
    """dim Hom(M, N) minus the dimension of maps factoring through a free cover.

    Any map factoring through some projective also factors through the fixed
    surjection theta: A^d -> N, so the quotient dimension is independent of
    the chosen cover, whose Hom(M, A^d) is bounded before it is built.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules over different algebras")
    f = M.algebra.field
    _check_unknowns(M.dim * N.dim * M.algebra.dim)
    homs = hom_space(M, N)
    if not homs:
        return 0
    free, theta = _free_cover(N)
    sigmas = hom_space(M, free)
    if not sigmas:
        return len(homs)
    rows = [(S @ theta).flatten_row() for S in sigmas]
    projected_rank = rank(FFMatrix(f, np.stack(rows)))
    return len(homs) - projected_rank
