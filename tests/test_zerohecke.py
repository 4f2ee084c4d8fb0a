import itertools

import numpy as np
import pytest

from heckeiso.ff import FFMatrix, FieldCtx, kernel, rank
from heckeiso.haff import aff_char
from heckeiso.oracle import build_face_algebra
from heckeiso.weyl import build_spec, faces
from heckeiso.zerohecke import (
    HModule,
    build_zero_hecke,
    character_module,
    hom_space,
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
        expected = int(L == L2 and not is_projective(M))
        assert stable_hom_dim(M, N) == expected


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
