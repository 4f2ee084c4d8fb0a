import itertools
import time
import tracemalloc

import numpy as np
import pytest

from heckeiso.ff import FFMatrix, FieldCtx, kernel, rank, solve
from heckeiso.haff import aff_char, iter_chars
from heckeiso.oracle import build_face_algebra
from heckeiso.weyl import build_spec, faces
from heckeiso.zerohecke import (
    HOM_UNKNOWNS_CAP,
    HModule,
    _basis_actions,
    _free_cover,
    build_zero_hecke,
    character_module,
    hom_space,
    intertwiners,
    is_projective,
    stable_hom_dim,
)

GF3 = FieldCtx(3)


def all_characters(alg):
    n = len(alg.gen_names)
    out = []
    for mask in range(2 ** n):
        L = {i for i in range(n) if mask >> i & 1}
        out.append((frozenset(L), character_module(alg, L)))
    return out


def test_a1_regular_action_matrix():
    alg = build_zero_hecke("A1", GF3)
    # Basis (H_e, H_s); H_e H_s = H_s, H_s H_s = -H_s.
    assert alg.gen_action[0].data.tolist() == [[0, 1], [0, 2]]


def test_regular_module_dimension():
    alg = build_zero_hecke("A2", GF3)
    assert alg.regular_module().dim == 6
    assert is_projective(alg.regular_module())


def test_character_count_is_two_to_rank():
    for ctype in ("A1", "A2", "B2"):
        alg = build_zero_hecke(ctype, GF3)
        chars = all_characters(alg)
        assert len(chars) == 2 ** len(alg.gen_names)


@pytest.mark.parametrize("ctype", ["A2", "B2", "G2"])
def test_irreducible_projective_characters_are_trivial_and_sign(ctype):
    alg = build_zero_hecke(ctype, GF3)
    n = len(alg.gen_names)
    for L, module in all_characters(alg):
        expected = L == frozenset() or L == frozenset(range(n))
        assert is_projective(module) is expected


def test_product_type_projectivity_is_componentwise():
    alg = build_zero_hecke("A2xA1", GF3)
    # Generators 0,1 form the A2 component; generator 2 the A1 component.
    for L, module in all_characters(alg):
        a2 = L & {0, 1}
        expected = a2 in (frozenset(), frozenset({0, 1}))
        assert is_projective(module) is expected


def test_stable_hom_is_diagonal_with_projectives_killed():
    alg = build_zero_hecke("A2", GF3)
    chars = all_characters(alg)
    for (L, M), (L2, N) in itertools.product(chars, chars):
        # Only the trivial and the sign character are projective.
        projective = L in (frozenset(), frozenset({0, 1}))
        expected = int(L == L2 and not projective)
        assert stable_hom_dim(M, N) == expected


def splitting_test(M):
    """Does the identity of M factor through a free cover?

    Builds pi: A^d -> M, computes the image of Hom(M, A^d) under
    sigma -> pi . sigma inside Hom(M, M), and checks membership of id.
    """
    f = M.algebra.field
    free, P = _free_cover(M)
    sigmas = hom_space(M, free)
    if not sigmas:
        return M.dim == 0
    rows = [(S @ P).flatten_row() for S in sigmas]
    A = FFMatrix(f, np.stack(rows)).transpose()
    target = FFMatrix(f, FFMatrix.identity(f, M.dim).flatten_row()[:, None])
    return solve(A, target) is not None


@pytest.mark.parametrize("field", [GF3, FieldCtx(3, 2)], ids=["GF3", "GF9"])
@pytest.mark.parametrize("ctype", ["A1", "A2", "B2", "G2", "A2xA1"])
def test_is_projective_matches_splitting_test_zero_hecke(ctype, field):
    alg = build_zero_hecke(ctype, field)
    regular = alg.regular_module()
    for M in [M for _, M in all_characters(alg)] + [regular]:
        got = is_projective(M)
        assert got is splitting_test(M)
        assert got or M is not regular


@pytest.mark.parametrize("factors", [[3], [2, 2]], ids=["GL3", "GL2xGL2"])
def test_is_projective_matches_splitting_test_block_characters(factors):
    spec = build_spec(factors, 0, 3)
    chars = list(iter_chars(spec))
    seen = set()
    for face in faces(spec):
        alg = build_face_algebra(spec, face, GF3)
        for chi in chars:
            M = alg.block(chi.xi).character_module(chi)
            seen.add(is_projective(M))
            assert is_projective(M) is splitting_test(M), (face, chi)
    assert seen == {True, False}


@pytest.mark.parametrize("ctype,dim", [("A3", 24), ("B3", 48)])
def test_oversized_hom_system_is_refused_before_allocation(ctype, dim):
    regular = build_zero_hecke(ctype, GF3).regular_module()
    assert regular.dim == dim
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"exceeds cap {HOM_UNKNOWNS_CAP}"):
            is_projective(regular)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 20_000_000


def test_intertwiners_bound_their_unknowns():
    with pytest.raises(ValueError, match=f"exceeds cap {HOM_UNKNOWNS_CAP}"):
        intertwiners(GF3, [], [], 65, 64)
    # At the cap the system is solved: 1 against 0 on the diagonal keeps no unknown.
    one, zero = FFMatrix.identity(GF3, 64), FFMatrix.zeros(GF3, 64, 64)
    assert intertwiners(GF3, [one], [zero], 64, 64) == []


@pytest.mark.parametrize("ctype", ["F4", "D5", "B5", "E6", "E7", "E8"])
def test_oversized_zero_hecke_is_refused_before_enumeration(ctype):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap"):
        build_zero_hecke(ctype, GF3)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("ctype", ["", "A2x", "Q3"])
def test_malformed_coxeter_type_is_a_value_error(ctype):
    with pytest.raises(ValueError):
        build_zero_hecke(ctype, GF3)


def test_hom_space_of_equal_characters():
    alg = build_zero_hecke("B2", GF3)
    M = character_module(alg, {0})
    N = character_module(alg, {1})
    assert len(hom_space(M, M)) == 1
    assert len(hom_space(M, N)) == 0


def test_bad_action_matrices_rejected():
    alg = build_zero_hecke("A1", GF3)
    from heckeiso.ff import FFMatrix

    # H_s acting by 1 violates H_s^2 = -H_s.
    with pytest.raises(AssertionError):
        HModule(alg, 1, [FFMatrix(GF3, [[1]])])
    with pytest.raises(ValueError):
        HModule(alg, 2, [FFMatrix(GF3, [[0]])])


def test_extension_field_coefficients():
    alg = build_zero_hecke("A2", FieldCtx(3, 2))
    S = character_module(alg, {0})
    assert not is_projective(S)
    assert stable_hom_dim(S, S) == 1


def assert_hom_space_is_stacked_kernel(M, N):
    """hom_space spans the kernel of all Sylvester blocks stacked into one system."""
    f = M.algebra.field
    basis = hom_space(M, N)
    for F in basis:
        for A, B in zip(M.action, N.action):
            assert A @ F == F @ B
    idM, idN = FFMatrix.identity(f, M.dim), FFMatrix.identity(f, N.dim)
    blocks = [(idN.kron(A) - B.transpose().kron(idM)).data for A, B in zip(M.action, N.action)]
    stacked = kernel(FFMatrix(f, np.concatenate(blocks, axis=0)))
    assert len(basis) == stacked.cols
    if basis:
        # Column-major vectorisations of the returned F, one per column.
        vecs = FFMatrix(f, np.stack([F.transpose().flatten_row() for F in basis], axis=1))
        both = FFMatrix(f, np.concatenate([stacked.data, vecs.data], axis=1))
        assert rank(vecs) == len(basis)
        assert rank(both) == stacked.cols


@pytest.mark.parametrize("field", [GF3, FieldCtx(3, 2)], ids=["GF3", "GF9"])
@pytest.mark.parametrize("ctype", ["A2", "B2"])
def test_hom_space_matches_stacked_system_zero_hecke(ctype, field):
    alg = build_zero_hecke(ctype, field)
    regular = alg.regular_module()
    modules = [module for _, module in all_characters(alg)] + [regular]
    for M, N in itertools.product(modules, modules):
        assert_hom_space_is_stacked_kernel(M, N)
    # The free module of rank dim A, which is_projective(regular) maps into.
    copies = FFMatrix.identity(field, regular.dim)
    free = HModule(
        alg, regular.dim * alg.dim, [copies.kron(R) for R in alg.gen_action], check=False
    )
    assert_hom_space_is_stacked_kernel(regular, free)


@pytest.mark.parametrize("factors", [[3], [2, 2]], ids=["GL3", "GL2xGL2"])
def test_hom_space_matches_stacked_system_face_algebras(factors):
    spec = build_spec(factors, 0, 3)
    zeros = [(0,) * n for n in factors]
    twisted = [(0,) * (n - 1) + (1,) for n in factors]
    chars = [
        aff_char(spec, zeros, set()),
        aff_char(spec, zeros, {(1, 0)}),
        aff_char(spec, zeros, {(1, 1)}),
        aff_char(spec, twisted, set()),
    ]
    for face in faces(spec):
        alg = build_face_algebra(spec, face, GF3)
        regular = HModule(alg, alg.dim, list(alg.gen_action), check=False)
        modules = [alg.character_module(chi) for chi in chars]
        for M in modules:
            assert_hom_space_is_stacked_kernel(M, regular)
            for N in modules:
                assert_hom_space_is_stacked_kernel(M, N)
        # The torus blocks, where the e_a act diagonally and become the mask.
        for block in {id(b): b for b in (alg.block(chi.xi) for chi in chars)}.values():
            regular = HModule(block, block.dim, list(block.gen_action), check=False)
            modules = [block_character(block, chi) for chi in chars]
            for M in modules:
                assert_hom_space_is_stacked_kernel(M, regular)
                assert_hom_space_is_stacked_kernel(regular, M)
                for N in modules:
                    assert_hom_space_is_stacked_kernel(M, N)


def block_character(block, chi):
    """chi's action on the generators of a torus block.

    e_a acts by 1 for chi's exponents a and by 0 otherwise, T_s by -1 for s
    in J.  Outside the orbit every e_a acts by 0, so nothing of the block's
    regular module survives the e_a.
    """
    f = block.field
    a = block.alg.torus_exponents(chi.xi)
    values = [int(b == a) for b in block.chars]
    values += [f.minus_one if s in chi.J else 0 for s in block.alg.s_nodes]
    M = HModule(block, 1, [FFMatrix(f, [[v]]) for v in values], check=False)
    inside = block.character_module(chi)
    assert (inside is not None) == (a in block.chars)
    assert inside is None or inside.action == M.action
    return M


def diagonal_module(alg, subsets):
    """The direct sum of the characters with H_s acting by -1 for s in each L."""
    f = alg.field
    mats = [
        FFMatrix(f, np.diag([f.minus_one if s in L else 0 for L in subsets]))
        for s in alg.gen_names
    ]
    return HModule(alg, len(subsets), mats)


def test_hom_space_when_every_generator_is_diagonal():
    alg = build_zero_hecke("A2", GF3)
    M = diagonal_module(alg, [{0}, {1}, {0, 1}, set()])
    N = diagonal_module(alg, [{1}, {0}, {0}, {0, 1}, {1}])
    assert_hom_space_is_stacked_kernel(M, N)
    # One unit matrix per pair of equal summands: {0} and {1} twice, {0, 1} once.
    assert len(hom_space(M, N)) == 5


def test_hom_space_is_empty_when_the_mask_keeps_nothing():
    alg = build_zero_hecke("A2", GF3)
    M = diagonal_module(alg, [{0}])
    N = diagonal_module(alg, [{1}, set(), {0, 1}])
    assert hom_space(M, N) == []
    assert_hom_space_is_stacked_kernel(M, N)


def table_words(alg):
    """The rows of ``basis_words`` with the padding stripped, which sits only on the left."""
    pad = len(alg.gen_action)
    words = []
    for row in alg.basis_words.tolist():
        while row and row[0] == pad:
            row.pop(0)
        assert pad not in row
        words.append(tuple(row))
    return words


def basis_actions_reference(module):
    """Each basis word multiplied out one letter at a time, each distinct prefix once."""
    prefix = {(): FFMatrix.identity(module.algebra.field, module.dim)}
    acts = []
    for word in table_words(module.algebra):
        k = len(word)
        while word[:k] not in prefix:
            k -= 1
        act = prefix[word[:k]]
        for j in range(k, len(word)):
            act = act @ module.action[word[j]]
            prefix[word[: j + 1]] = act
        acts.append(act)
    return acts


def assert_batched_basis_actions(module, words):
    """The word table spells ``words``, and the batched actions and free cover
    equal the per-word products and the cover assembled row by row."""
    alg, d = module.algebra, module.dim
    assert table_words(alg) == [tuple(w) for w in words]
    want = basis_actions_reference(module)
    acts = _basis_actions(module)
    assert acts.data.shape == (alg.dim, d, d)
    for got, act in zip(acts.data, want):
        assert np.array_equal(got, act.data)
    P = np.zeros((d * alg.dim, d), dtype=np.int64)
    for i in range(d):
        for b, act in enumerate(want):
            P[i * alg.dim + b, :] = act.data[i, :]
    free, cover = _free_cover(module)
    assert free.dim == d * alg.dim
    assert np.array_equal(cover.data, P)


@pytest.mark.parametrize("field", [GF3, FieldCtx(3, 2)], ids=["GF3", "GF9"])
@pytest.mark.parametrize("ctype", ["A2", "B2", "G2", "A3"])
def test_batched_basis_actions_zero_hecke(ctype, field):
    alg = build_zero_hecke(ctype, field)
    words = [alg.group.word[w] for w in alg.group.elements]
    for module in [M for _, M in all_characters(alg)] + [alg.regular_module()]:
        assert_batched_basis_actions(module, words)


@pytest.mark.parametrize("factors", [[3], [2, 2]], ids=["GL3", "GL2xGL2"])
def test_batched_basis_actions_torus_blocks(factors):
    """Every character's block module and every block's regular module, on every face."""
    spec = build_spec(factors, 0, 3)
    chars = list(iter_chars(spec))
    for face in faces(spec):
        alg = build_face_algebra(spec, face, GF3)
        blocks = {}
        for chi in chars:
            block = alg.block(chi.xi)
            k = len(block.chars)
            # The reduced word of w, then the letter of e_a.
            words = [tuple(k + gi for gi in w) + (i,) for w in alg.w_words for i in range(k)]
            assert_batched_basis_actions(block.character_module(chi), words)
            blocks[id(block)] = block, words
        for block, words in blocks.values():
            regular = HModule(block, block.dim, list(block.gen_action), check=False)
            assert_batched_basis_actions(regular, words)


def test_batched_basis_actions_dense_face_algebra():
    spec = build_spec([2], 0, 3)
    for face in faces(spec):
        alg = build_face_algebra(spec, face, GF3)
        nt = len(alg.torus_gens)
        # The torus generators' powers, then the reduced word of w.
        words = [
            tuple(c for c in range(nt) for _ in range(t[c])) + tuple(nt + gi for gi in w)
            for t in alg.torus_array.tolist()
            for w in alg.w_words
        ]
        regular = HModule(alg, alg.dim, list(alg.gen_action), check=False)
        assert_batched_basis_actions(regular, words)
