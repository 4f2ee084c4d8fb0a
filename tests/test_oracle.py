import itertools
import random
import time

import numpy as np
import pytest

from heckeiso.ff import FFMatrix, FieldCtx, rank, smallest_primitive_root
from heckeiso.gln import build_simple, enumerate_simples, mod_isomorphic
from heckeiso.haff import aff_char, res_face_projective, s_xi, torus_char
from heckeiso.oracle import (
    MonomialMatrix,
    brute_mod_isomorphic,
    brute_module_model,
    brute_res_projective,
    brute_stable_hom,
    build_face_algebra,
    build_lifts,
    check_face_relations,
    coroot_coords,
    e_xi_matrix,
)
from heckeiso.weyl import Face, build_spec, faces
from heckeiso.zerohecke import is_projective, stable_hom_dim

GF3 = FieldCtx(3)
GL3 = build_spec([3], 0, 3)
GL2 = build_spec([2], 0, 3)
GL22 = build_spec([2, 2], 0, 3)
GL2T = build_spec([2], 1, 3)
GL32 = build_spec([3, 2], 0, 3)


def flat_torus_char(spec, flat):
    """The torus character with exponents ``flat`` in diagonal-coordinate order."""
    exps = []
    off = 0
    for n in spec.factors:
        exps.append(tuple(flat[off : off + n]))
        off += n
    return torus_char(spec, exps, flat[off:])


def all_chars(spec):
    from heckeiso.haff import AffChar

    q = spec.q
    exp_ranges = [range(q - 1) if q > 2 else range(1) for _ in range(spec.num_coords)]
    for flat in itertools.product(*exp_ranges):
        xi = flat_torus_char(spec, flat)
        nodes = sorted(s_xi(spec, xi))
        for mask in range(2 ** len(nodes)):
            J = frozenset(nodes[t] for t in range(len(nodes)) if mask >> t & 1)
            yield AffChar(xi, J)


def test_monomial_matrix_algebra():
    a = MonomialMatrix(3, (1, 0), (1, 2), (1, -1))
    b = a.inv()
    assert a @ b == MonomialMatrix.identity(3, 2)
    assert b @ a == MonomialMatrix.identity(3, 2)
    assert a.power(2).is_diagonal()
    with pytest.raises(ValueError):
        MonomialMatrix(3, (0, 0), (1, 1), (0, 0))
    with pytest.raises(ValueError):
        MonomialMatrix(3, (0, 1), (1, 0), (0, 0))


@pytest.mark.parametrize("factors,q", [([2], 3), ([3], 3), ([4], 3), ([3, 2], 3), ([2], 5)])
def test_lift_identities_assert_at_construction(factors, q):
    spec = build_spec(factors, q=q, torus_rank=1)
    lifts = build_lifts(spec)
    # Spot-check beyond the built-in assertions: distinct factors commute.
    if spec.r >= 2:
        a = lifts.s[(1, 0)]
        b = lifts.s[(2, 0)]
        assert a @ b == b @ a
    # Torus-direction generators are central diagonal matrices.
    t = lifts.omega_torus[0]
    assert t.is_diagonal()
    for M in lifts.s.values():
        assert t @ M == M @ t


def test_face_algebra_dimension():
    alg = build_face_algebra(GL3, Face(GL3, frozenset({(1, 0), (1, 1)})), GF3)
    # (q-1)^3 torus elements times |W_F| = |S_3| = 6.
    assert alg.dim == 8 * 6
    chamber = build_face_algebra(GL3, Face(GL3, frozenset()), GF3)
    assert chamber.dim == 8


def test_oversized_face_is_refused_before_weyl_group_is_listed():
    # (5,5)/q=3, S_F = four nodes per factor: |W_F| = 120^2 and dim = 2^10 |W_F|.
    spec = build_spec([5, 5], 0, 3)
    face = Face(spec, frozenset((i, j) for i in (1, 2) for j in range(4)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        build_face_algebra(spec, face, GF3)
    assert time.perf_counter() - start < 0.1


def test_face_algebra_requires_prime_q():
    spec = build_spec([2], 0, 9)
    with pytest.raises(ValueError):
        build_face_algebra(spec, Face(spec, frozenset()), FieldCtx(3, 2))


@pytest.mark.parametrize("spec", [GL2, GL3, GL22], ids=["GL2", "GL3", "GL2xGL2"])
def test_braid_and_quadratic_relations(spec):
    for F in faces(spec):
        check_face_relations(build_face_algebra(spec, F, GF3))


@pytest.mark.parametrize(
    "face_nodes,exps",
    [
        ({(1, 1), (1, 2)}, (0, 0, 0)),
        ({(1, 0), (1, 1)}, (0, 0, 0)),
        ({(1, 2)}, (0, 1, 1)),
    ],
)
def test_e_xi_idempotent_central_and_quadratic(face_nodes, exps):
    alg = build_face_algebra(GL3, Face(GL3, frozenset(face_nodes)), GF3)
    xi = torus_char(GL3, [exps])
    assert frozenset(face_nodes) <= s_xi(GL3, xi)
    E = e_xi_matrix(alg, xi)
    assert E @ E == E
    offset = len(alg.torus_gens)
    for gi in range(len(alg.s_nodes)):
        T = alg.gen_action[offset + gi]
        assert E @ T == T @ E
        # (e_xi T_s)^2 = -e_xi T_s
        X = E @ T
        assert X @ X == -X
    # Central against the torus part as well.
    for c in range(len(alg.torus_gens)):
        R = alg.gen_action[c]
        assert E @ R == R @ E


def torus_action_loop(alg, t0):
    """Right multiplication by T_{t0}, T_t T_w T_t0 = T_{t + w t0 w^-1} T_w, pair by pair."""
    mod = alg.spec.p - 1
    nw = len(alg.w_mats)
    index = {tuple(t): i for i, t in enumerate(alg.torus_array.tolist())}
    A = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for t, ti in index.items():
        for wi, Mw in enumerate(alg.w_mats):
            conj = [t0[Mw.perm[i]] for i in range(len(t0))]
            shifted = tuple((a + b) % mod for a, b in zip(t, conj))
            A[ti * nw + wi, index[shifted] * nw + wi] = 1
    return FFMatrix(alg.field, A)


def torus_correction(M, p):
    """Exponents, in the smallest primitive root, of a residue-field diagonal M."""
    assert M.is_diagonal() and not any(M.exp)
    g = smallest_primitive_root(p)
    dlog = {pow(g, e, p): e for e in range(p - 1)}
    return tuple(dlog[c] for c in M.coeff)


def reflection_action_loop(alg, node):
    """Right multiplication by T_s, pair by pair.

    T_t T_w T_s = T_{t + tau} T_{ws} when l(ws) = l(w) + 1, tau the torus
    correction of the lifts, and otherwise the sum of T_{t + w u w^-1} T_w
    over u in the coroot image of s.
    """
    mod = alg.spec.p - 1
    nw = len(alg.w_mats)
    index = {tuple(t): i for i, t in enumerate(alg.torus_array.tolist())}
    ca, cb = coroot_coords(alg.spec, node)
    Ms = alg.lifts.s[node]
    A = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for wi, Mw in enumerate(alg.w_mats):
        Mws = Mw @ Ms
        wsi = alg.w_index[Mws.key()]
        for t, ti in index.items():
            if alg.w_lengths[wsi] == alg.w_lengths[wi] + 1:
                tau = torus_correction(Mws @ alg.w_mats[wsi].inv(), alg.spec.p)
                shifted = tuple((a + b) % mod for a, b in zip(t, tau))
                A[ti * nw + wi, index[shifted] * nw + wsi] = 1
                continue
            for e in range(mod):
                u = [0] * alg.spec.num_coords
                u[ca], u[cb] = e, -e % mod
                shifted = tuple((t[i] + u[Mw.perm[i]]) % mod for i in range(len(t)))
                A[ti * nw + wi, index[shifted] * nw + wi] += 1
    return FFMatrix(alg.field, A % alg.spec.p)


@pytest.mark.parametrize(
    "spec,field", [(GL3, GF3), (GL2T, GF3), (build_spec([2], 0, 5), FieldCtx(5))],
    ids=["GL3/3", "GL2xT/3", "GL2/5"],
)
def test_torus_element_action_matches_loop_reference(spec, field):
    f = field
    mod = spec.p - 1
    g = smallest_primitive_root(spec.p)
    xis = list({chi.xi: None for chi in all_chars(spec)})[:3]
    for F in faces(spec):
        alg = build_face_algebra(spec, F, field)
        units = [tuple(int(k == c) for k in range(spec.num_coords)) for c in alg.torus_gens]
        for c, unit in zip(alg.torus_gens, units):
            assert alg.gen_action[c] == torus_action_loop(alg, unit)
        offset = len(alg.torus_gens)
        for gi, node in enumerate(alg.s_nodes):
            assert alg.gen_action[offset + gi] == reflection_action_loop(alg, node)
        # e_xi = |T|^-1 sum_t xi(t) T_{t^-1}, summed matrix by matrix.
        for xi in xis:
            a = xi.coordinate_exponents()
            total = FFMatrix.zeros(f, alg.dim, alg.dim)
            for t in alg.torus_array.tolist():
                val = f.pow(g, sum(x * y for x, y in zip(a, t)) % mod)
                inverse = tuple(-x % mod for x in t)
                total = total + torus_action_loop(alg, inverse).scale(val)
            expected = total.scale(int(f.inv[len(alg.torus_array) % f.p]))
            assert e_xi_matrix(alg, xi) == expected


def test_regular_module_of_face_algebra_is_projective():
    alg = build_face_algebra(GL2, Face(GL2, frozenset({(1, 0)})), GF3)
    from heckeiso.zerohecke import HModule

    regular = HModule(alg, alg.dim, list(alg.gen_action), check=False)
    assert is_projective(regular)


@pytest.mark.parametrize(
    "spec,field",
    [(GL2, GF3), (GL3, GF3), (GL22, GF3), (build_spec([2], 0, 5), FieldCtx(5))],
    ids=["GL2/3", "GL3/3", "GL2xGL2/3", "GL2/5"],
)
def test_projectivity_oracle_agrees(spec, field):
    for chi in all_chars(spec):
        for F in faces(spec):
            assert brute_res_projective(spec, chi, F, field) == res_face_projective(
                spec, chi, F
            ), (chi, F)


def test_stable_hom_zero_for_distinct_restrictions():
    chi = aff_char(GL3, [(0, 0, 0)], {(1, 0), (1, 1)})
    chi2 = aff_char(GL3, [(0, 0, 0)], {(1, 1)})
    F_both = Face(GL3, frozenset({(1, 0), (1, 1)}))
    assert brute_stable_hom(GL3, chi, chi2, F_both, GF3) == 0
    # On F1 = {s1, s2} the two restrictions coincide and are not projective.
    F1 = Face(GL3, frozenset({(1, 1), (1, 2)}))
    assert brute_stable_hom(GL3, chi, chi2, F1, GF3) == 1
    # Projective restriction contributes 0 even against itself.
    F0 = Face(GL3, frozenset({(1, 0), (1, 1)}))
    assert brute_stable_hom(GL3, chi, chi, F0, GF3) == 0


def test_module_model_dimension_and_invertibility():
    chi = aff_char(GL3, [(0, 0, 0)], {(1, 0)})
    m = build_simple(GL3, chi, [2], [], GF3)
    model = brute_module_model(m)
    assert model.dim == 3
    for name, A in zip(model.gen_names, model.action):
        if name[0] in ("omega", "omega_inv", "omega_t", "omega_t_inv"):
            assert rank(A) == model.dim
    # omega followed by its inverse is the identity.
    by_name = dict(zip(model.gen_names, model.action))
    assert by_name[("omega", 1)] @ by_name[("omega_inv", 1)] == FFMatrix.identity(
        GF3, model.dim
    )
    # omega^3 acts by the scalar lambda.
    cube = by_name[("omega", 1)] @ by_name[("omega", 1)] @ by_name[("omega", 1)]
    assert cube == FFMatrix.identity(GF3, model.dim).scale(2)


def test_brute_mod_isomorphic_matches_predicate():
    for spec in (GL2, GL3):
        simples = enumerate_simples(spec, GF3)
        for a, b in itertools.combinations_with_replacement(simples, 2):
            assert brute_mod_isomorphic(a, b) == mod_isomorphic(a, b), (a, b)


def test_brute_mod_isomorphic_positive_case():
    from heckeiso.haff import conj_char

    chi = aff_char(GL3, [(0, 0, 0)], {(1, 0)})
    a = build_simple(GL3, chi, [2], [], GF3)
    b = build_simple(GL3, conj_char(GL3, chi, (2,)), [2], [], GF3)
    assert brute_mod_isomorphic(a, b)
    c = build_simple(GL3, chi, [1], [], GF3)
    assert not brute_mod_isomorphic(a, c)


def assert_blocks_match_full_algebra(spec, face, chars, field=GF3):
    """Block answers against is_projective/stable_hom_dim on all of H_F.

    Each character's projectivity and diagonal stable Hom are checked, and
    stable Hom against the next character in the same block and the next
    one in another block.  The full-algebra answers depend only on the
    restricted module, so they are computed once per restriction.
    """
    alg = build_face_algebra(spec, face, field)
    reference = {}

    def full(chi, chi2=None):
        key = tuple((alg.torus_exponents(c.xi), c.J & face.subset) for c in (chi, chi2) if c is not None)
        if key not in reference:
            M = alg.character_module(chi)
            if chi2 is None:
                reference[key] = is_projective(M)
            else:
                reference[key] = stable_hom_dim(M, alg.character_module(chi2))
        return reference[key]

    blocks = [alg.block(chi.xi) for chi in chars]
    kinds = set()
    for i, chi in enumerate(chars):
        assert brute_res_projective(spec, chi, face, field) == full(chi), (chi, face)
        partners = [chi]
        for same in (True, False):
            others = [j for j in range(len(chars)) if j != i and (blocks[j] is blocks[i]) == same]
            if others:
                partners.append(chars[min(others, key=lambda j: (j - i) % len(chars))])
                kinds.add(same)
        for chi2 in partners:
            got = brute_stable_hom(spec, chi, chi2, face, field)
            assert got == full(chi, chi2), (chi, chi2, face)
    return kinds


@pytest.mark.parametrize("spec", [GL3, GL22, GL2T], ids=["GL3", "GL2xGL2", "GL2xT"])
def test_block_answers_match_full_algebra(spec):
    chars = list(all_chars(spec))
    kinds = set()
    for face in faces(spec):
        kinds |= assert_blocks_match_full_algebra(spec, face, chars)
    # Off-diagonal pairs occurred both inside one block and across blocks.
    assert kinds == {True, False}


def test_block_answers_match_full_algebra_gl3xgl2_sample():
    rng = random.Random(20)
    all_faces = faces(GL32)
    dims = {F: build_face_algebra(GL32, F, GF3).dim for F in all_faces}
    largest = [F for F in all_faces if dims[F] == 384]
    sample = rng.sample(largest, 2) + rng.sample([F for F in all_faces if dims[F] < 384], 2)
    chars = list(all_chars(GL32))
    for face in sample:
        assert_blocks_match_full_algebra(GL32, face, rng.sample(chars, 4))


def test_block_dimension_is_orbit_size_times_weyl_group():
    alg = build_face_algebra(GL3, Face(GL3, frozenset({(1, 1), (1, 2)})), GF3)
    xi = torus_char(GL3, [(0, 1, 1)])
    block = alg.block(xi)
    # S_3 moves (0, 1, 1) to its three rotations of one coordinate.
    assert block.dim == 3 * 6
    assert alg.block(torus_char(GL3, [(1, 0, 1)])) is block
    assert alg.block(torus_char(GL3, [(0, 0, 0)])).dim == 6


def test_regular_module_of_a_block_is_projective():
    from heckeiso.zerohecke import HModule

    alg = build_face_algebra(GL2, Face(GL2, frozenset({(1, 0)})), GF3)
    for exps in [(0, 0), (0, 1)]:
        block = alg.block(torus_char(GL2, [exps]))
        regular = HModule(block, block.dim, list(block.gen_action), check=False)
        assert is_projective(regular)
        assert stable_hom_dim(regular, regular) == 0


@pytest.mark.parametrize(
    "spec,field",
    [(GL3, GF3), (GL2T, GF3), (build_spec([2], 0, 5), FieldCtx(5)), (GL22, GF3)],
    ids=["GL3/3", "GL2xT/3", "GL2/5", "GL2xGL2/3"],
)
def test_block_embeds_in_full_algebra(spec, field):
    """The rows T_w e_a of the dense H_F satisfy E R_g = R'_g E for every e_a and T_s.

    T_w e_a is row T_w of right multiplication by e_a on H_F, so E is read
    off the dense reference, independently of the block's own formulas.
    """
    for F in faces(spec):
        alg = build_face_algebra(spec, F, field)
        offset = len(alg.torus_gens)
        e = {
            a: alg.torus_element_action(alg.torus_idempotent([a]))
            for a in itertools.product(range(spec.p - 1), repeat=spec.num_coords)
        }
        blocks = {id(b): b for b in (alg.block(flat_torus_char(spec, a)) for a in e)}
        assert sum(b.dim for b in blocks.values()) == alg.dim
        for block in blocks.values():
            k = len(block.chars)
            # The identity T_1 has torus index 0, so T_w is basis row w.
            rows = [e[a].data[wi] for wi in range(len(alg.w_mats)) for a in block.chars]
            E = FFMatrix(field, np.stack(rows))
            assert rank(E) == block.dim
            dense = [e[a] for a in block.chars] + alg.gen_action[offset:]
            assert len(dense) == len(block.gen_action) == k + len(alg.s_nodes)
            for R, R_block in zip(dense, block.gen_action):
                assert E @ R == R_block @ E, (F, block.chars)
