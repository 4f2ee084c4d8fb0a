"""
Brute-force finite-dimensional models of the parahoric subalgebras H_F and of
the simple supersingular modules, used to verify the combinatorial layer by
exact linear algebra.

Group elements are tracked through strictly monomial matrices whose entries
are c * pi^k with c in F_q and pi a formal uniformizer (exponents are plain
integers).  The algebra H_F is realized on the basis {T_t T_what : t in
T(F_q), w in W_F} with right multiplication given by the braid rule in the
length-additive case and the quadratic relation in the length-drop case; all
torus corrections are computed from the matrix lifts, never asserted.

Projectivity and stable Hom of characters are decided in torus blocks.  The
order (q-1)^N of T(F_q) is prime to p, so F[T] is split semisimple, and the
idempotents e_a of its characters, summed over a W_F-orbit gamma, give a
central idempotent e_gamma of H_F.  A character lies in the block
e_gamma H_F of its own orbit, of dimension |gamma| |W_F|, and is projective
there exactly when it is projective over H_F; stable Hom into a character
outside the block is 0.  Each block is built once per orbit and cached on its
algebra; e_gamma is read off the lifts' conjugation of the torus, and its
idempotency and centrality, the block's stability under every generator and
e_gamma acting by 1 on the character are asserted exactly.

The oracle is restricted to q = p prime and GL-product specs, where the
quadratic relation takes its simplest form (the coroots are injective, so
|mu_alpha| = 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ff import FFMatrix, FieldCtx, rank, rref, smallest_primitive_root, solve
from .gln import SimpleSS
from .haff import AffChar, conj_char
from .weyl import Face, GroupSpec, NodeId
from .zerohecke import HModule, _alternating, intertwiners, is_projective, stable_hom_dim

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
    omega_torus: dict
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

    omega_torus = {
        j: MonomialMatrix.from_entries(p, N, {(sum(spec.factors) + j, sum(spec.factors) + j): (1, 1)})
        for j in range(spec.torus_rank)
    }

    lifts = Lifts(spec, s_lifts, omega, omega_torus, N)
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


def _dlog_table(p: int) -> dict[int, int]:
    g = smallest_primitive_root(p)
    table = {}
    acc = 1
    for e in range(p - 1):
        table[acc] = e
        acc = (acc * g) % p
    return table


def _conj_torus(M: MonomialMatrix, t: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate a torus element by a monomial matrix (coordinate permutation)."""
    return tuple(t[M.perm[i]] for i in range(len(t)))


def _torus_from_matrix(M: MonomialMatrix, dlog: dict[int, int]) -> tuple[int, ...]:
    if not M.is_diagonal() or any(e != 0 for e in M.exp):
        raise AssertionError("torus correction is not a residue-field diagonal")
    return tuple(dlog[c] for c in M.coeff)


class BruteFaceAlg:
    """Finite-dimensional model of H_F with the torus part included.

    Basis pairs (t, w) with t in T(F_q), w in W_F; generator matrices give
    right multiplication by the torus generators T_t and by the T_shat for
    s in S_F.  Exposes the same interface as ZeroHeckeAlg (field, dim,
    gen_action, basis_words), so the generic projectivity and stable-Hom
    machinery applies unchanged.
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
        self.lifts = build_lifts(spec)
        self.dlog = _dlog_table(p)
        self.gen_root = smallest_primitive_root(p)

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
        order = sorted(range(len(elems)), key=lambda i: (lengths[i], words[i]))
        self.w_mats = [elems[i] for i in order]
        self.w_words = [words[i] for i in order]
        self.w_lengths = [lengths[i] for i in order]
        self.w_index = {m.key(): i for i, m in enumerate(self.w_mats)}

        mod = p - 1
        self.torus_elems = [tuple(t) for t in itertools.product(range(mod), repeat=N)]
        self.torus_index = {t: i for i, t in enumerate(self.torus_elems)}
        # The same elements as an array; a row's index is its base-(p-1)
        # value, so the first coordinate varies slowest.
        self.torus_array = np.array(self.torus_elems, dtype=np.int64).reshape(-1, N)
        self._torus_radix = mod ** np.arange(N - 1, -1, -1, dtype=np.int64)
        self._root_powers = np.array([field.pow(self.gen_root, e) for e in range(mod)])
        self._blocks: dict[tuple[int, ...], TorusBlock] = {}

        nw = len(self.w_mats)
        self.dim = len(self.torus_elems) * nw
        if self.dim > FACE_ALG_CAP:
            raise ValueError(f"algebra dimension {self.dim} exceeds cap {FACE_ALG_CAP}")

        self.torus_gens = list(range(N)) if mod > 1 else []
        self.gen_names = [("t", c) for c in self.torus_gens] + [("s", s) for s in s_nodes]

        self.gen_action = []
        for c in self.torus_gens:
            unit = np.zeros(len(self.torus_elems), dtype=np.int64)
            unit[self.torus_index[tuple(1 if k == c else 0 for k in range(N))]] = 1
            self.gen_action.append(self.torus_element_action(unit))
        for gi, node in enumerate(s_nodes):
            self.gen_action.append(self._reflection_action_matrix(node))

        self.basis_words = []
        for ti, t in enumerate(self.torus_elems):
            for wi in range(nw):
                word: list[int] = []
                for c in self.torus_gens:
                    word.extend([self.torus_gens.index(c)] * t[c])
                word.extend(len(self.torus_gens) + gi for gi in self.w_words[wi])
                self.basis_words.append(tuple(word))

    # -- index helpers ----------------------------------------------------
    def basis_index(self, t: tuple[int, ...], wi: int) -> int:
        return self.torus_index[t] * len(self.w_mats) + wi

    def _torus_add(self, a, b):
        mod = self.spec.p - 1
        if mod == 0:
            return a
        return tuple((x + y) % mod for x, y in zip(a, b))

    # -- structural matrices ----------------------------------------------
    def torus_element_action(self, coeffs: np.ndarray) -> FFMatrix:
        """Right multiplication by sum_u coeffs[u] T_u, u in ``torus_elems`` order.

        T_t T_w T_u = T_{t + w u w^-1} T_w, with w u w^-1 read off the lift
        of w as a permutation of the diagonal coordinates.
        """
        mod = self.spec.p - 1
        nw = len(self.w_mats)
        U = self.torus_array
        perms = np.array([Mw.perm for Mw in self.w_mats], dtype=np.int64)
        rows = np.arange(self.dim).reshape(len(U), nw)
        A = np.zeros((self.dim, self.dim), dtype=np.int64)
        for ui in np.flatnonzero(coeffs):
            # (t + w u w^-1) for every basis pair (t, w), as a torus index.
            shifted = (U[:, None, :] + U[ui][perms][None, :, :]) % mod @ self._torus_radix
            A[rows, shifted * nw + np.arange(nw)] = coeffs[ui]
        return FFMatrix(self.field, A)

    def _reflection_action_matrix(self, node: NodeId) -> FFMatrix:
        f = self.field
        spec = self.spec
        A = np.zeros((self.dim, self.dim), dtype=np.int64)
        Ms = self.lifts.s[node]
        ca, cb = coroot_coords(spec, node)
        mod = spec.p - 1
        for wi, Mw in enumerate(self.w_mats):
            Mws = Mw @ Ms
            wsi = self.w_index[Mws.key()]
            if self.w_lengths[wsi] == self.w_lengths[wi] + 1:
                tau = _torus_from_matrix(Mws @ self.w_mats[wsi].inv(), self.dlog)
                for ti, t in enumerate(self.torus_elems):
                    src = self.basis_index(t, wi)
                    A[src, self.basis_index(self._torus_add(t, tau), wsi)] = 1
            else:
                # Length drop: T_{t w} T_s = sum over u in the coroot image of
                # T_{t . (w u w^-1), w}.
                for e in range(max(mod, 1)):
                    u = [0] * spec.num_coords
                    if mod:
                        u[ca] = e % mod
                        u[cb] = (-e) % mod
                    u = tuple(u)
                    for ti, t in enumerate(self.torus_elems):
                        src = self.basis_index(t, wi)
                        conj = _conj_torus(Mw, u)
                        tgt = self.basis_index(self._torus_add(t, conj), wi)
                        A[src, tgt] = int(f.add[A[src, tgt], 1])
        return FFMatrix(f, A)

    # -- torus characters and blocks ----------------------------------------
    def torus_exponents(self, xi) -> tuple[int, ...]:
        """The exponents a (mod p-1) with xi(t) = g^(a . t), g the fixed primitive root."""
        mod = self.spec.p - 1
        return tuple(e % mod for e in xi.coordinate_exponents())

    def character_module(self, chi: AffChar) -> HModule:
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

    def block(self, xi) -> "TorusBlock":
        """The block of the W_F-orbit of xi, built on first use and cached."""
        a = self.torus_exponents(xi)
        blk = self._blocks.get(a)
        if blk is None:
            # Conjugating xi by w permutes its exponents as the lift of w
            # permutes the diagonal coordinates.
            orbit = frozenset(tuple(a[i] for i in Mw.perm) for Mw in self.w_mats)
            blk = TorusBlock(self, orbit)
            self._blocks.update(dict.fromkeys(orbit, blk))
        return blk


class TorusBlock:
    """The block e_gamma H_F of one W_F-orbit gamma of torus characters.

    e_gamma is the sum of the e_a over a in gamma; its idempotency and its
    centrality are asserted in the regular representation of H_F.  The
    basis is {T_t T_w e_gamma}: every w in W_F (slowest) times the first
    |gamma| torus elements t whose T_t e_gamma are independent.  The actions
    R'_g of the generators solve E R_g = R'_g E, for E the rows of the basis
    in H_F, and the equation is asserted.  Only R'_g and the basis words are
    kept.  The words are those of T_t T_w, which act on a module M as
    T_t T_w e_gamma does once M e_gamma = M.  Exposes ``field``, ``dim``,
    ``gen_action`` and ``basis_words``, so the generic projectivity and
    stable-Hom machinery applies unchanged.
    """

    def __init__(self, alg: BruteFaceAlg, chars):
        f = alg.field
        self.alg = alg
        self.field = f
        self.coeffs = alg.torus_idempotent(chars)
        nw = len(alg.w_mats)
        # Row (t, w) of Re is T_t T_w e_gamma; row 0 is e_gamma itself.
        Re = alg.torus_element_action(self.coeffs)
        e = FFMatrix(f, Re.data[:1])
        if e @ Re != e:
            raise AssertionError("e_gamma is not idempotent")
        g_e = FFMatrix(f, np.stack([R.data[0] for R in alg.gen_action])) @ Re
        for g, R in enumerate(alg.gen_action):
            if not np.array_equal((e @ R).data[0], g_e.data[g]):
                raise AssertionError(f"e_gamma does not commute with generator {alg.gen_names[g]}")

        # T_t e_gamma lies in F[T], the columns (u, 1).
        in_ft = Re.data[::nw, ::nw]
        _, rk, chosen = rref(FFMatrix(f, in_ft.T))
        if rk != len(chars):
            raise AssertionError(f"F[T] e_gamma has dimension {rk}, not |gamma| = {len(chars)}")
        B = FFMatrix(f, in_ft[chosen])
        pivots = rref(B)[2]
        rows = [t * nw + wi for wi in range(nw) for t in chosen]
        cols = [u * nw + wi for wi in range(nw) for u in pivots]
        E = FFMatrix(f, Re.data[rows])
        # E restricted to cols is I (x) B[:, pivots], so E has full row rank.
        eye = np.eye(nw, dtype=np.int64)
        if not np.array_equal(E.data[:, cols], np.kron(eye, B.data[:, pivots])):
            raise AssertionError("block basis rows are not independent")
        b_inv = solve(FFMatrix(f, B.data[:, pivots]), FFMatrix.identity(f, rk))
        e_inv = FFMatrix(f, np.kron(eye, b_inv.data))

        self.dim = len(rows)
        self.basis_words = [alg.basis_words[r] for r in rows]
        self.gen_action = []
        for g, R in enumerate(alg.gen_action):
            ER = E @ R
            act = FFMatrix(f, ER.data[:, cols]) @ e_inv
            if act @ E != ER:
                raise AssertionError(f"block is not stable under generator {alg.gen_names[g]}")
            self.gen_action.append(act)

    def restrict(self, M: HModule) -> HModule | None:
        """A character module of H_F as a module over the block.

        e_gamma acts on a 1-dimensional M by 0 or 1, computed from M's
        torus generators.  Returns None for 0, the same action matrices over
        the block for 1.
        """
        if M.algebra is not self.alg or M.dim != 1:
            raise ValueError("restrict takes a character module of the block's algebra")
        f = self.field
        mod = self.alg.spec.p - 1
        U = self.alg.torus_array
        # M(T_u) for every u, as the product of the generators' powers.
        values = np.ones(len(U), dtype=np.int64)
        for c in self.alg.torus_gens:
            m_c = int(M.action[c].data[0, 0])
            powers = np.array([f.pow(m_c, k) for k in range(mod)], dtype=np.int64)
            values = f.mul[values, powers[U[:, c]]]
        e_val = (FFMatrix(f, self.coeffs[None, :]) @ FFMatrix(f, values[:, None])).data[0, 0]
        if e_val == 0:
            return None
        if e_val != 1:
            raise AssertionError("e_gamma acts on a character by neither 0 nor 1")
        return HModule(self, 1, M.action, check=False)


_FACE_ALG_CACHE: dict[tuple, BruteFaceAlg] = {}


def build_face_algebra(spec: GroupSpec, face: Face, field: FieldCtx) -> BruteFaceAlg:
    key = (spec, frozenset(face.subset), field.p, field.m)
    alg = _FACE_ALG_CACHE.get(key)
    if alg is None:
        alg = BruteFaceAlg(spec, face, field)
        _FACE_ALG_CACHE[key] = alg
    return alg


def check_face_relations(alg: BruteFaceAlg):
    """Assert braid and quadratic relations on the regular representation."""
    from .weyl import AffineDynkin

    diagram = AffineDynkin(alg.spec)
    offset = len(alg.torus_gens)
    nodes = alg.s_nodes
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            m = diagram.bond(nodes[a], nodes[b])
            A, B = alg.gen_action[offset + a], alg.gen_action[offset + b]
            if m == 2:
                if A @ B != B @ A:
                    raise AssertionError(f"T_s for {nodes[a]},{nodes[b]} fail to commute")
            elif m != float("inf"):
                if _alternating(A, B, int(m)) != _alternating(B, A, int(m)):
                    raise AssertionError(f"braid fails for {nodes[a]},{nodes[b]}")
    mod = alg.spec.p - 1
    for gi, node in enumerate(nodes):
        A = alg.gen_action[offset + gi]
        # T_s^2 = T_s . sum of T_u over the image of F_q^x under the coroot.
        ca, cb = coroot_coords(alg.spec, node)
        coroot = np.zeros(len(alg.torus_elems), dtype=np.int64)
        for e in range(mod):
            u = [0] * alg.spec.num_coords
            u[ca], u[cb] = e, -e % mod
            coroot[alg.torus_index[tuple(u)]] = 1
        if A @ A != A @ alg.torus_element_action(coroot):
            raise AssertionError(f"quadratic relation fails at {node}")


def e_xi_matrix(alg: BruteFaceAlg, xi) -> FFMatrix:
    """The idempotent e_xi = |T|^{-1} sum_t xi(t) T_{t^{-1}} in the regular rep."""
    return alg.torus_element_action(alg.torus_idempotent([alg.torus_exponents(xi)]))


def _block_module(spec: GroupSpec, chi: AffChar, face: Face, field: FieldCtx):
    """The block of chi's torus orbit in H_F and chi's module over it."""
    alg = build_face_algebra(spec, face, field)
    block = alg.block(chi.xi)
    M = block.restrict(alg.character_module(chi))
    if M is None:
        raise AssertionError("e_gamma kills the character it was built from")
    return block, M


def brute_res_projective(spec: GroupSpec, chi: AffChar, face: Face, field: FieldCtx) -> bool:
    """Projectivity of the restriction of chi to H_F, by the splitting test in chi's block."""
    return is_projective(_block_module(spec, chi, face, field)[1])


def brute_stable_hom(
    spec: GroupSpec, chi: AffChar, chi2: AffChar, face: Face, field: FieldCtx
) -> int:
    """Stable Hom dimension between the restrictions of two characters to H_F.

    It is computed in the block of chi; when e_gamma kills chi2, every
    homomorphism x -> x F satisfies x F = x e_gamma F = x F e_gamma = 0.
    """
    block, M = _block_module(spec, chi, face, field)
    N = block.restrict(block.alg.character_module(chi2))
    return 0 if N is None else stable_hom_dim(M, N)


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
    g = smallest_primitive_root(spec.p)
    mod = spec.p - 1

    # The basis vector v (x) T_{omega^k} carries the character conjugated by
    # omega^k, which is the rotation of chi by -k in diagram coordinates.
    chis = [
        conj_char(spec, m.chi, tuple((-ki) % n for ki, n in zip(k, spec.factors)))
        for k in basis
    ]

    gen_names: list = []
    action: list = []

    def diag(vals) -> FFMatrix:
        A = np.zeros((dim, dim), dtype=np.int64)
        for i, v in enumerate(vals):
            A[i, i] = v
        return FFMatrix(field, A)

    if mod > 1:
        for c in range(spec.num_coords):
            vals = []
            for chi_k in chis:
                a = chi_k.xi.coordinate_exponents()
                vals.append(field.pow(g, a[c] % mod))
            gen_names.append(("t", c))
            action.append(diag(vals))

    for node in sorted(spec.nodes()):
        vals = [field.minus_one if node in chi_k.J else 0 for chi_k in chis]
        gen_names.append(("s", node))
        action.append(diag(vals))

    for i in range(1, spec.r + 1):
        A = np.zeros((dim, dim), dtype=np.int64)
        Ainv = np.zeros((dim, dim), dtype=np.int64)
        lam = m.lam[i - 1]
        lam_inv = int(field.inv[lam])
        for k in basis:
            ki = k[i - 1]
            up = list(k)
            up[i - 1] = (ki + 1) % d[i - 1]
            coeff = lam if ki + 1 == d[i - 1] else 1
            A[bidx[k], bidx[tuple(up)]] = coeff
            down = list(k)
            down[i - 1] = (ki - 1) % d[i - 1]
            coeff = lam_inv if ki == 0 else 1
            Ainv[bidx[k], bidx[tuple(down)]] = coeff
        gen_names.append(("omega", i))
        action.append(FFMatrix(field, A))
        gen_names.append(("omega_inv", i))
        action.append(FFMatrix(field, Ainv))

    for j in range(spec.torus_rank):
        nu = m.nu[j]
        gen_names.append(("omega_t", j))
        action.append(diag([nu] * dim))
        gen_names.append(("omega_t_inv", j))
        action.append(diag([int(field.inv[nu])] * dim))

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
