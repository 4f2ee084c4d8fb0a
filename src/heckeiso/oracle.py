"""
Brute-force finite-dimensional models of the parahoric subalgebras H_F and of
the simple supersingular modules, used to verify the combinatorial layer by
exact linear algebra.

Group elements are tracked through strictly monomial matrices whose entries
are c * pi^k with c in F_q and pi a formal uniformizer (exponents are plain
integers).  Right multiplication by T_s is given by the braid rule in the
length-additive case and the quadratic relation in the length-drop case.  The
lifts satisfy the braid relations, so the lift of w times the lift of s is
the lift of ws whenever the length adds; every build asserts this exactly,
coefficients included, rather than folding a torus correction in.

Projectivity and stable Hom of characters are decided in torus blocks.  The
order (q-1)^N of T(F_q) is prime to p, so F[T] is split semisimple with
orthogonal idempotents e_a, and the e_a over a W_F-orbit gamma sum to a
central idempotent e_gamma of H_F.  A character lies in the block e_gamma H_F
of its own orbit and is projective there exactly when it is projective over
H_F; stable Hom into a character outside the block is 0.  Each block is built
directly on the basis {T_w e_a : w in W_F, a in gamma}, once per orbit and
cached on its algebra.  Every generator there has at most one entry per row,
so it is stored as a ``RowMap`` (a target column and a value per row), and
the block asserts its own relations exactly by composing row maps; the dense
matrices exist only while a module over the block is solved.  The dense H_F
on {T_t T_w} is built only on demand, as the reference the relation suite
and the tests read.

The oracle is restricted to q = p prime and GL-product specs, where the
quadratic relation takes its simplest form (the coroots are injective, so
|mu_alpha| = 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import ff
from .ff import FFMatrix, FieldCtx, np, rank
from .gln import SimpleSS
from .haff import AffChar, conj_char
from .weyl import AffineDynkin, Face, GroupSpec, NodeId
from .zerohecke import (
    HModule,
    RowMap,
    _check_relations,
    intertwiners,
    is_projective,
    reflection_row_map,
    stable_hom_dim,
    word_table,
)

FACE_ALG_CAP = 4096


class MonomialMatrix:
    """A strictly monomial matrix: one entry c * pi^k per row and column.

    Stored compactly as (perm, coeff, exp) with M[i, perm[i]] = coeff[i] *
    pi^(exp[i]); coefficients live in F_p for a fixed prime p.
    """

    __slots__ = ("p", "perm", "coeff", "exp")

    def __init__(self, p: int, perm, coeff, exp):
        self.p = p
        self.perm = tuple(int(x) for x in perm)
        self.coeff = tuple(int(c) % p for c in coeff)
        self.exp = tuple(int(e) for e in exp)
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("support is not a permutation")
        if any(c == 0 for c in self.coeff):
            raise ValueError("monomial coefficients must be nonzero")

    @classmethod
    def identity(cls, p: int, n: int) -> "MonomialMatrix":
        return cls(p, range(n), [1] * n, [0] * n)

    @classmethod
    def from_entries(cls, p: int, n: int, entries: dict) -> "MonomialMatrix":
        """Build from {(row, col): (coeff, exp)}; unmentioned rows get 1 on the diagonal."""
        perm = list(range(n))
        coeff = [1] * n
        exp = [0] * n
        for (i, j), (c, e) in entries.items():
            perm[i], coeff[i], exp[i] = j, c, e
        return cls(p, perm, coeff, exp)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        n = len(self.perm)
        perm = [other.perm[self.perm[i]] for i in range(n)]
        coeff = [self.coeff[i] * other.coeff[self.perm[i]] for i in range(n)]
        exp = [self.exp[i] + other.exp[self.perm[i]] for i in range(n)]
        return MonomialMatrix(self.p, perm, coeff, exp)

    def inv(self) -> "MonomialMatrix":
        n = len(self.perm)
        perm = [0] * n
        coeff = [1] * n
        exp = [0] * n
        for i in range(n):
            j = self.perm[i]
            perm[j] = i
            coeff[j] = pow(self.coeff[i], self.p - 2, self.p)
            exp[j] = -self.exp[i]
        return MonomialMatrix(self.p, perm, coeff, exp)

    def power(self, k: int) -> "MonomialMatrix":
        base = self if k >= 0 else self.inv()
        out = MonomialMatrix.identity(self.p, len(self.perm))
        for _ in range(abs(k)):
            out = out @ base
        return out

    def is_diagonal(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def key(self) -> tuple:
        """Identifies the underlying extended-Weyl-group element mod T(F_q)."""
        return (self.perm, self.exp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialMatrix)
            and self.p == other.p
            and self.perm == other.perm
            and self.coeff == other.coeff
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.p, self.perm, self.coeff, self.exp))

    def __repr__(self) -> str:
        return f"MonomialMatrix(p={self.p}, perm={self.perm}, coeff={self.coeff}, exp={self.exp})"


@dataclass(frozen=True)
class Lifts:
    """Monomial lifts of the simple affine reflections and rotation generators."""

    spec: GroupSpec
    s: dict
    omega: dict
    size: int


def _factor_offset(spec: GroupSpec, i: int) -> int:
    return sum(spec.factors[: i - 1])


def coroot_coords(spec: GroupSpec, node: NodeId) -> tuple[int, int]:
    """Diagonal coordinates (plus, minus) of the coroot attached to a node."""
    i, j = node
    off = _factor_offset(spec, i)
    n = spec.factors[i - 1]
    if j >= 1:
        return off + j - 1, off + j
    return off + n - 1, off


def build_lifts(spec: GroupSpec) -> Lifts:
    """Explicit monomial lifts, with every group identity asserted.

    The non-affine reflections use the 2x2 block [[0,1],[-1,0]]; the affine
    reflection of each factor is defined as the rotation conjugate of the
    last finite one, which makes the rotation conjugation identity exact
    (the torus correction is the identity, recorded by the assertions).
    """
    p = spec.p
    N = spec.num_coords
    s_lifts: dict[NodeId, MonomialMatrix] = {}
    omega: dict[int, MonomialMatrix] = {}

    for i, n in enumerate(spec.factors, start=1):
        off = _factor_offset(spec, i)
        for j in range(1, n):
            c1, c2 = off + j - 1, off + j
            s_lifts[(i, j)] = MonomialMatrix.from_entries(
                p, N, {(c2, c1): (p - 1, 0), (c1, c2): (1, 0)}
            )
        om = MonomialMatrix.from_entries(
            p,
            N,
            {**{(off + (j + 1) % n, off + j): (1, 1 if j == n - 1 else 0) for j in range(n)}},
        )
        omega[i] = om
        s_lifts[(i, 0)] = om @ s_lifts[(i, n - 1)] @ om.inv()

    lifts = Lifts(spec, s_lifts, omega, N)
    _assert_lift_identities(lifts)
    return lifts


def _coroot_of_minus_one(spec: GroupSpec, node: NodeId) -> MonomialMatrix:
    a, b = coroot_coords(spec, node)
    p = spec.p
    return MonomialMatrix.from_entries(
        spec.p, spec.num_coords, {(a, a): (p - 1, 0), (b, b): (p - 1, 0)}
    )


def _assert_lift_identities(lifts: Lifts):
    spec = lifts.spec
    p = spec.p
    N = lifts.size
    for node, M in lifts.s.items():
        if M @ M != _coroot_of_minus_one(spec, node):
            raise AssertionError(f"lift of {node} fails s^2 = coroot(-1)")
    for i, n in enumerate(spec.factors, start=1):
        om = lifts.omega[i]
        # omega^n is pi times the identity on the factor block.
        off = _factor_offset(spec, i)
        central = MonomialMatrix.from_entries(
            p, N, {(off + j, off + j): (1, 1) for j in range(n)}
        )
        if om.power(n) != central:
            raise AssertionError(f"omega_{i}^{n} is not pi times the identity")
        om_inv = om.inv()
        for j in range(n):
            conj = om @ lifts.s[(i, j)] @ om_inv
            target = lifts.s[(i, (j + 1) % n)]
            correction = conj @ target.inv()
            if correction != MonomialMatrix.identity(p, N):
                raise AssertionError(
                    f"rotation conjugation of s_({i},{j}) has nontrivial correction"
                )
    # Braid relations inside each factor (bond 3 for adjacent cycle nodes of
    # n >= 3, commuting otherwise; GL_2 factors have an infinite bond).
    for i, n in enumerate(spec.factors, start=1):
        if n < 3:
            continue
        for j in range(n):
            for k in range(j + 1, n):
                a, b = lifts.s[(i, j)], lifts.s[(i, k)]
                d = (j - k) % n
                if d in (1, n - 1):
                    lhs = a @ b @ a
                    rhs = b @ a @ b
                else:
                    lhs = a @ b
                    rhs = b @ a
                if lhs != rhs:
                    raise AssertionError(f"lift braid relation fails for {(i, j)},{(i, k)}")


# ---------------------------------------------------------------------------
# Torus bookkeeping: an element of T(F_q) is a tuple of exponents of the
# fixed primitive root, one per diagonal coordinate.


def _permute(M: MonomialMatrix, t: tuple[int, ...]) -> tuple[int, ...]:
    """Permute coordinates as the lift M does.

    For a torus element t this is the conjugate M t M^-1; for the exponents
    a of a torus character it is w.a, the character t -> a(w^-1 t w).
    """
    return tuple(t[M.perm[i]] for i in range(len(t)))


def _weyl_order(face: Face) -> int:
    """|W_F| read off S_F: a cyclic run of L consecutive nodes on a factor is of type A_L."""
    order = 1
    for i, n in enumerate(face.spec.factors, start=1):
        held = [(i, j) in face.subset for j in range(n)]
        start = held.index(False)  # a face misses a node of every factor
        run = 0
        for k in range(1, n + 1):
            if held[(start + k) % n]:
                run += 1
            else:
                order *= math.factorial(run + 1)
                run = 0
    return order


class BruteFaceAlg:
    """Finite-dimensional model of H_F with the torus part included.

    Holds the lifts and W_F, each w as the lift of its reduced word; the
    rest is built on first use.  ``block(xi)`` is the block of xi's
    W_F-orbit, where the oracle's projectivity and stable Hom run.
    ``gen_action`` and ``basis_words`` are the dense regular representation
    on the basis pairs (t, w), t in T(F_q), w in W_F: right multiplication
    by the torus generators T_t and by the T_shat for s in S_F, the reference
    that ``check_face_relations``, ``e_xi_matrix`` and the tests read.
    ``dim`` = (q-1)^N |W_F|, with |W_F| read off S_F, is refused above
    FACE_ALG_CAP before W_F or anything proportional to the torus is built.
    """

    def __init__(self, spec: GroupSpec, face: Face, field: FieldCtx):
        if spec.q != spec.p:
            raise ValueError("the oracle only supports prime q")
        if field.p != spec.p:
            raise ValueError("field characteristic must equal p")
        self.spec = spec
        self.face = face
        self.field = field
        p = spec.p
        N = spec.num_coords
        weyl_order = _weyl_order(face)
        self.dim = (p - 1) ** N * weyl_order
        if self.dim > FACE_ALG_CAP:
            raise ValueError(f"algebra dimension {self.dim} exceeds cap {FACE_ALG_CAP}")
        self.lifts = build_lifts(spec)

        # W_F by breadth-first closure over the lifted generators.
        s_nodes = sorted(face.subset)
        self.s_nodes = s_nodes
        ident = MonomialMatrix.identity(p, N)
        elems = [ident]
        words: list[tuple[int, ...]] = [()]
        index = {ident.key(): 0}
        lengths = [0]
        frontier = [0]
        while frontier:
            nxt = []
            for wi in frontier:
                for gi, node in enumerate(s_nodes):
                    Mws = elems[wi] @ self.lifts.s[node]
                    k = Mws.key()
                    if k not in index:
                        index[k] = len(elems)
                        elems.append(Mws)
                        words.append(words[wi] + (gi,))
                        lengths.append(lengths[wi] + 1)
                        nxt.append(index[k])
            frontier = nxt
        if len(elems) != weyl_order:
            raise AssertionError(f"W_F has {len(elems)} elements, S_F predicts {weyl_order}")
        order = sorted(range(len(elems)), key=lambda i: (lengths[i], words[i]))
        self.w_mats = [elems[i] for i in order]
        self.w_words = [words[i] for i in order]
        self.w_lengths = [lengths[i] for i in order]
        self.w_index = {m.key(): i for i, m in enumerate(self.w_mats)}
        self._root_powers = ff.field(p).exp
        self._torus_radix = (p - 1) ** np.arange(N - 1, -1, -1, dtype=np.int64)
        self._blocks: dict[tuple[int, ...], OrbitBlock] = {}
        self._steps: dict[NodeId, tuple[np.ndarray, np.ndarray]] = {}
        self.torus_gens = list(range(N)) if p > 2 else []
        self.gen_names = [("t", c) for c in self.torus_gens] + [("s", s) for s in s_nodes]

    @functools.cached_property
    def s_bonds(self) -> dict[tuple[int, int], float]:
        """The Coxeter orders m(s, s') of S_F, keyed by positions in ``s_nodes``."""
        bond, nodes = AffineDynkin(self.spec).bond, self.s_nodes
        pairs = itertools.combinations(range(len(nodes)), 2)
        return {(a, b): bond(nodes[a], nodes[b]) for a, b in pairs}

    def torus_exponents(self, xi) -> tuple[int, ...]:
        """The exponents a (mod p-1) with xi(t) = g^(a . t), g the fixed primitive root."""
        mod = self.spec.p - 1
        return tuple(e % mod for e in xi.coordinate_exponents())

    def block(self, xi) -> "OrbitBlock":
        """The block of the W_F-orbit of xi, built on first use and cached."""
        a = self.torus_exponents(xi)
        blk = self._blocks.get(a)
        if blk is None:
            orbit = {_permute(Mw, a) for Mw in self.w_mats}
            blk = OrbitBlock(self, orbit)
            self._blocks.update(dict.fromkeys(orbit, blk))
        return blk

    # -- the dense regular representation -----------------------------------
    @functools.cached_property
    def torus_array(self) -> np.ndarray:
        """T(F_q) as rows of exponents; a row's index is its base-(p-1) value."""
        elems = list(itertools.product(range(self.spec.p - 1), repeat=self.spec.num_coords))
        return np.array(elems, dtype=np.int64).reshape(len(elems), self.spec.num_coords)

    def _torus_pos(self, t: np.ndarray) -> np.ndarray:
        """Index in ``torus_array`` of exponent rows, reduced mod p-1."""
        return t % (self.spec.p - 1) @ self._torus_radix

    @functools.cached_property
    def gen_action(self) -> list[FFMatrix]:
        acts = []
        for c in self.torus_gens:
            unit = np.zeros(len(self.torus_array), dtype=np.int64)
            unit[self._torus_radix[c]] = 1
            acts.append(self.torus_element_action(unit))
        return acts + [self._reflection_action_matrix(node) for node in self.s_nodes]

    @functools.cached_property
    def basis_words(self) -> np.ndarray:
        """T_t T_w as the torus generators' powers, then the reduced word of w."""
        nt = len(self.torus_gens)
        words = [
            tuple(c for c in range(nt) for _ in range(t[c])) + tuple(nt + gi for gi in word)
            for t in self.torus_array.tolist()
            for word in self.w_words
        ]
        return word_table(words, len(self.gen_names))

    def torus_element_action(self, coeffs: np.ndarray) -> FFMatrix:
        """Right multiplication by sum_u coeffs[u] T_u, u in ``torus_array`` order.

        T_t T_w T_u = T_{t + w u w^-1} T_w, with w u w^-1 read off the lift
        of w as a permutation of the diagonal coordinates.
        """
        nw = len(self.w_mats)
        U = self.torus_array
        perms = np.array([Mw.perm for Mw in self.w_mats], dtype=np.int64)
        rows = np.arange(self.dim).reshape(len(U), nw)
        A = np.zeros((self.dim, self.dim), dtype=np.int64)
        for ui in np.flatnonzero(coeffs):
            # (t + w u w^-1) for every basis pair (t, w), as a torus index.
            shifted = self._torus_pos(U[:, None, :] + U[ui][perms][None, :, :])
            A[rows, shifted * nw + np.arange(nw)] = coeffs[ui]
        return FFMatrix(self.field, A)

    def coroot_sum(self, node: NodeId) -> np.ndarray:
        """F[T] coefficients of the sum of T_u over the image of F_q^x under the coroot of s."""
        ca, cb = coroot_coords(self.spec, node)
        u = np.zeros((self.spec.p - 1, self.spec.num_coords), dtype=np.int64)
        u[:, ca] = np.arange(self.spec.p - 1)
        u[:, cb] = -u[:, ca]
        coeffs = np.zeros(len(self.torus_array), dtype=np.int64)
        coeffs[self._torus_pos(u)] = 1
        return coeffs

    def reflection_steps(self, node: NodeId) -> tuple[np.ndarray, np.ndarray]:
        """(ws, up): for every w in W_F, as indices, ws and whether l(ws) = l(w) + 1.

        When the length adds, the lift of w times the lift of s is exactly
        the lift of ws, coefficients included, so T_w T_s = T_{ws}: the lifts
        satisfy the braid relations (``_assert_lift_identities``), and a
        nontrivial torus correction raises.  Computed once per node, on
        first use.
        """
        steps = self._steps.get(node)
        if steps is None:
            Ms = self.lifts.s[node]
            ws, up = [], []
            for wi, Mw in enumerate(self.w_mats):
                Mws = Mw @ Ms
                wsi = self.w_index[Mws.key()]
                ws.append(wsi)
                up.append(self.w_lengths[wsi] == self.w_lengths[wi] + 1)
                if up[-1] and Mws != self.w_mats[wsi]:
                    raise AssertionError(f"lift of w s for s = {node} is not the lift of ws")
            steps = self._steps[node] = (np.array(ws, dtype=np.int64), np.array(up))
        return steps

    def _reflection_action_matrix(self, node: NodeId) -> FFMatrix:
        """T_t T_w T_s = T_t T_{ws} when l(ws) = l(w) + 1, and T_t T_w times
        the coroot sum of s otherwise."""
        ws, up = self.reflection_steps(node)
        nt = len(self.torus_array)
        rows = np.arange(self.dim).reshape(nt, len(self.w_mats))
        drop = self.torus_element_action(self.coroot_sum(node)).data
        A = drop * np.tile(~up, nt)[:, None]
        A[rows[:, up], rows[:, ws[up]]] = 1
        return FFMatrix(self.field, A)

    def character_module(self, chi: AffChar) -> HModule:
        """chi as a module over the dense H_F."""
        f = self.field
        a = self.torus_exponents(chi.xi)
        mats = []
        for kind, data in self.gen_names:
            if kind == "t":
                mats.append(FFMatrix(f, [[self._root_powers[a[data]]]]))
            else:
                val = f.minus_one if data in chi.J else 0
                mats.append(FFMatrix(f, [[val]]))
        return HModule(self, 1, mats, check=False)

    def torus_idempotent(self, chars) -> np.ndarray:
        """Coefficients in F[T] of the sum of e_a = |T|^-1 sum_u xi_a(u)^-1 T_u over a in chars.

        The order of T(F_q) is prime to p, so each e_a is the idempotent
        onto the xi_a-eigenspace of the torus.
        """
        f = self.field
        mod = self.spec.p - 1
        U = self.torus_array
        total = np.zeros(len(U), dtype=np.int64)
        for a in chars:
            total = f.add[total, self._root_powers[-(U @ np.array(a, dtype=np.int64)) % mod]]
        return f.mul[total, f.inv[len(U) % f.p]]


class OrbitBlock:
    """The block e_gamma H_F of one W_F-orbit gamma of torus characters.

    F[T] has orthogonal idempotents e_a with T_t e_a = a(t) e_a and
    T_w e_a = e_{w.a} T_w, so e_gamma, their sum over gamma, is central.  The
    block has the basis {T_w e_a : w in W_F, a in gamma}, w slowest, and is
    generated by the e_a, acting diagonally by 0 or 1, followed by the T_s
    for s in S_F.  As T_w e_a T_s = T_w T_s e_{a'} with a' = s^-1.a, T_s has
    at most one entry per row:

      * l(ws) = l(w) + 1: T_w T_s = T_{ws}, the lifts of w and s multiplying
        to the lift of ws exactly, so the row goes to T_{ws} e_{a'};
      * l(ws) = l(w) - 1: T_w T_s is T_w times the sum of T_u over the
        coroot image of s, which acts on e_{a'} by q - 1 = -1 when s fixes
        a' and by 0 otherwise, so the row goes to -[s.a = a] T_w e_a.

    This is the rule of ``zerohecke.reflection_row_map``, which the 0-Hecke
    algebra shares as its one-point case.  Every generator is stored only as
    a ``RowMap`` in ``gens``, the T_s built from the algebra's
    ``reflection_steps``, and
    every build asserts the block's relations on the row maps, with no dense
    product.  A basis word is the reduced word of w followed by the letter
    of e_a.  Exposes ``field``, ``dim``, ``gen_names``, ``basis_words`` and
    ``gen_action``, so the generic projectivity and stable-Hom machinery
    applies unchanged; ``gen_action`` builds the dense matrices anew on each
    access, so the block keeps no dim x dim array.
    """

    def __init__(self, alg: BruteFaceAlg, chars):
        f = alg.field
        self.alg = alg
        self.field = f
        self.chars = sorted(chars)
        self.index = {a: i for i, a in enumerate(self.chars)}
        k = len(self.chars)
        self.dim = k * len(alg.w_mats)
        self.gen_names = [("e", a) for a in self.chars] + [("s", s) for s in alg.s_nodes]
        diagonal = np.arange(self.dim)
        letters = diagonal % k
        self.gens = [RowMap(f, diagonal, (letters == i).astype(np.int64)) for i in range(k)]
        self.gens += [self._reflection_action(node) for node in alg.s_nodes]
        self.basis_words = word_table(
            [tuple(k + gi for gi in word) + (i,) for word in alg.w_words for i in range(k)],
            len(self.gen_names),
        )
        self._check_relations()

    @property
    def gen_action(self) -> list[FFMatrix]:
        """The dense generator matrices, built on each access."""
        return [g.dense() for g in self.gens]

    def _reflection_action(self, node: NodeId) -> RowMap:
        s_inv = self.alg.lifts.s[node].inv()
        moved = [self.index[_permute(s_inv, a)] for a in self.chars]
        ws, up = self.alg.reflection_steps(node)
        return reflection_row_map(self.field, ws, up, moved)

    def _check_relations(self):
        """Assert the relations of e_gamma H_F on the generator row maps.

        The e_a are orthogonal idempotents summing to 1, read on their
        diagonals: a diagonal entry is idempotent when it is 0 or 1, and two
        diagonal matrices are orthogonal when no position is nonzero in both.
        T_s e_a = e_{s.a} T_s, the braid relations and T_s^2 = T_s (-sum of
        the e_a that s fixes) are checked by composing row maps.
        """
        alg = self.alg
        f = self.field
        k = len(self.chars)
        es = self.gens[:k]
        diagonal = np.arange(self.dim)
        if any((e.cols != diagonal)[e.vals != 0].any() for e in es):
            raise AssertionError("an e_a does not act diagonally")
        D = np.stack([e.vals for e in es])
        held = np.count_nonzero(D, axis=0)
        if (f.mul[D, D] != D).any() or (held > 1).any():
            raise AssertionError("the e_a are not orthogonal idempotents")
        # With 0/1 entries and at most one 1 per position, the sum is the count.
        if (held != 1).any():
            raise AssertionError("the e_a do not sum to 1")
        quadratic = []
        for node, T in zip(alg.s_nodes, self.gens[k:]):
            moved = [self.index[_permute(alg.lifts.s[node], a)] for a in self.chars]
            for i, j in enumerate(moved):
                if T @ es[i] != es[j] @ T:
                    raise AssertionError(f"T_s e_a = e_(s.a) T_s fails at {node}, {self.chars[i]}")
            fixed = D[[i for i, j in enumerate(moved) if i == j]].sum(axis=0)
            quadratic.append(RowMap(f, diagonal, fixed * f.minus_one))
        _check_hecke_relations(alg, self.gens, k, quadratic)

    def character_module(self, chi: AffChar) -> HModule | None:
        """chi as a module over the block, or None when e_gamma kills chi.

        e_a acts by 1 for the exponents a of chi and by 0 otherwise, T_s by
        -1 for s in J and by 0 otherwise.
        """
        a = self.alg.torus_exponents(chi.xi)
        if a not in self.index:
            return None
        f = self.field
        values = [int(b == a) for b in self.chars]
        values += [f.minus_one if s in chi.J else 0 for s in self.alg.s_nodes]
        return HModule(self, 1, [FFMatrix(f, [[v]]) for v in values], check=False)


_FACE_ALG_CACHE: dict[tuple, BruteFaceAlg] = {}


def build_face_algebra(spec: GroupSpec, face: Face, field: FieldCtx) -> BruteFaceAlg:
    key = (spec, frozenset(face.subset), field.p, field.m)
    alg = _FACE_ALG_CACHE.get(key)
    if alg is None:
        alg = BruteFaceAlg(spec, face, field)
        _FACE_ALG_CACHE[key] = alg
    return alg


def _check_hecke_relations(alg: BruteFaceAlg, mats, offset: int, quadratic):
    """Braid relations of S_F and T_s^2 = T_s Q_s on mats[offset:], Q_s listed as S_F."""
    bonds = {(offset + a, offset + b): m for (a, b), m in alg.s_bonds.items()}
    _check_relations(mats, bonds, {offset + gi: Q for gi, Q in enumerate(quadratic)})


def check_face_relations(alg: BruteFaceAlg):
    """Assert the braid relations and T_s^2 = T_s (coroot sum of s) on the dense H_F."""
    quadratic = [alg.torus_element_action(alg.coroot_sum(node)) for node in alg.s_nodes]
    _check_hecke_relations(alg, alg.gen_action, len(alg.torus_gens), quadratic)


def e_xi_matrix(alg: BruteFaceAlg, xi) -> FFMatrix:
    """The idempotent e_xi = |T|^{-1} sum_t xi(t) T_{t^{-1}} in the regular rep."""
    return alg.torus_element_action(alg.torus_idempotent([alg.torus_exponents(xi)]))


def brute_res_projective(spec: GroupSpec, chi: AffChar, face: Face, field: FieldCtx) -> bool:
    """Projectivity of the restriction of chi to H_F: its stable End in chi's block is 0."""
    block = build_face_algebra(spec, face, field).block(chi.xi)
    return is_projective(block.character_module(chi))


def brute_stable_hom(
    spec: GroupSpec, chi: AffChar, chi2: AffChar, face: Face, field: FieldCtx
) -> int:
    """Stable Hom dimension between the restrictions of two characters to H_F.

    It is computed in the block of chi; when chi2 lies outside it, e_gamma
    kills chi2 and every homomorphism x -> x F satisfies
    x F = x e_gamma F = x F e_gamma = 0.
    """
    block = build_face_algebra(spec, face, field).block(chi.xi)
    N = block.character_module(chi2)
    return 0 if N is None else stable_hom_dim(block.character_module(chi), N)


# ---------------------------------------------------------------------------
# Brute module models of simple supersingular modules.


@dataclass
class ModuleModel:
    """Explicit action matrices of a simple supersingular module."""

    spec: GroupSpec
    field: FieldCtx
    dim: int
    gen_names: list
    action: list
    basis: list


def brute_module_model(m: SimpleSS) -> ModuleModel:
    """Action matrices on the basis {v (x) T_{omega^k}, 0 <= k_i < d_i}.

    T_{omega_i} shifts k_i, multiplying by lambda_i on wraparound; the torus
    and reflection generators act diagonally through the rotated character,
    with the rotation conjugations exact for the constructed lifts.
    """
    spec = m.spec
    if spec.q != spec.p:
        raise ValueError("the oracle only supports prime q")
    field = m.field
    if field.p != spec.p:
        raise ValueError("field too small: characteristic must be p")
    d = m.stab.d
    basis = list(itertools.product(*(range(di) for di in d)))
    dim = len(basis)
    bidx = {k: i for i, k in enumerate(basis)}
    roots = ff.field(spec.p).exp
    mod = spec.p - 1

    # The basis vector v (x) T_{omega^k} carries the character conjugated by
    # omega^k, which is the rotation of chi by -k in diagram coordinates.
    chis = [
        conj_char(spec, m.chi, tuple((-ki) % n for ki, n in zip(k, spec.factors)))
        for k in basis
    ]

    gen_names: list = []
    action: list = []

    if mod > 1:
        exps = np.array([chi_k.xi.coordinate_exponents() for chi_k in chis]) % mod
        for c in range(spec.num_coords):
            gen_names.append(("t", c))
            action.append(FFMatrix(field, np.diag(roots[exps[:, c]])))

    for node in sorted(spec.nodes()):
        vals = [field.minus_one if node in chi_k.J else 0 for chi_k in chis]
        gen_names.append(("s", node))
        action.append(FFMatrix(field, np.diag(vals)))

    # The omegas are invertible, so an intertwiner of them intertwines their
    # inverses too: the inverses add no equation and are not listed.
    for i in range(1, spec.r + 1):
        A = np.zeros((dim, dim), dtype=np.int64)
        lam = m.lam[i - 1]
        for k in basis:
            ki = k[i - 1]
            up = list(k)
            up[i - 1] = (ki + 1) % d[i - 1]
            coeff = lam if ki + 1 == d[i - 1] else 1
            A[bidx[k], bidx[tuple(up)]] = coeff
        gen_names.append(("omega", i))
        action.append(FFMatrix(field, A))

    for j in range(spec.torus_rank):
        gen_names.append(("omega_t", j))
        action.append(FFMatrix(field, np.diag([m.nu[j]] * dim)))

    return ModuleModel(spec, field, dim, gen_names, action, basis)


def brute_mod_isomorphic(m: SimpleSS, m2: SimpleSS) -> bool:
    """Module-category isomorphism decided by an explicit intertwiner search."""
    if m.field != m2.field:
        raise ValueError("field mismatch")
    if m.spec != m2.spec:
        raise ValueError("spec mismatch")
    A = brute_module_model(m)
    B = brute_module_model(m2)
    if A.gen_names != B.gen_names:
        raise AssertionError("generator lists disagree")
    if A.dim != B.dim:
        return False
    basis = intertwiners(m.field, A.action, B.action, A.dim, B.dim)
    if not basis:
        return False
    F = basis[0]
    if rank(F) != A.dim:
        raise AssertionError("nonzero intertwiner between simples must be invertible")
    return True
