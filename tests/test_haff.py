import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeiso.haff import (
    AffChar,
    aff_char,
    conj_char,
    has_finite_pd,
    ho_delta_hom,
    is_supersingular,
    res_face_projective,
    s_xi,
    stabilizer,
    torus_char,
)
from heckeiso.weyl import Face, build_spec, faces

GL3 = build_spec([3], 0, 3)
GL2 = build_spec([2], 0, 3)
GL32 = build_spec([3, 2], 0, 3)


def all_chars(spec):
    q = spec.q
    exp_ranges = [range(q - 1) if q > 2 else range(1) for _ in range(spec.num_coords)]
    for flat in itertools.product(*exp_ranges):
        exps = []
        off = 0
        for n in spec.factors:
            exps.append(tuple(flat[off : off + n]))
            off += n
        xi = torus_char(spec, exps, flat[off:])
        nodes = sorted(s_xi(spec, xi))
        for mask in range(2 ** len(nodes)):
            J = frozenset(nodes[t] for t in range(len(nodes)) if mask >> t & 1)
            yield AffChar(xi, J)


def test_s_xi_trivial_character_is_everything():
    xi = torus_char(GL3, [(0, 0, 0)])
    assert s_xi(GL3, xi) == frozenset(GL3.nodes())


def test_s_xi_cyclic_condition():
    # a = (0, 0, 1): only the pair (a_1, a_2) agrees, which is node s1_1.
    xi = torus_char(GL3, [(0, 0, 1)])
    assert s_xi(GL3, xi) == frozenset({(1, 1)})


def test_cached_s_xi_is_outside_eq_hash_and_repr():
    xi, fresh = torus_char(GL3, [(0, 0, 1)]), torus_char(GL3, [(0, 0, 1)])
    assert xi.sxi == s_xi(GL3, xi) and xi.sxi is xi.sxi
    assert xi == fresh and hash(xi) == hash(fresh) and repr(xi) == repr(fresh)
    chi = AffChar(xi, frozenset())
    assert chi.rotation_forms and chi == AffChar(fresh, frozenset())
    assert repr(chi) == repr(AffChar(fresh, frozenset()))


def test_j_outside_s_xi_rejected():
    with pytest.raises(ValueError):
        aff_char(GL3, [(0, 0, 1)], {(1, 2)})


def test_supersingularity_examples():
    assert is_supersingular(GL3, aff_char(GL3, [(0, 0, 0)], {(1, 0)}))
    assert is_supersingular(GL3, aff_char(GL3, [(0, 0, 0)], {(1, 0), (1, 1)}))
    # Twisted trivial and twisted sign restrictions are excluded.
    assert not is_supersingular(GL3, aff_char(GL3, [(0, 0, 0)], set()))
    assert not is_supersingular(GL3, aff_char(GL3, [(0, 0, 0)], {(1, 0), (1, 1), (1, 2)}))
    # No condition when S_1 is not inside S_xi.
    assert is_supersingular(GL3, aff_char(GL3, [(0, 0, 1)], set()))


def test_pure_torus_always_supersingular():
    spec = build_spec([], 2, 3)
    chi = aff_char(spec, [], set(), torus_exponents=(1, 0))
    assert is_supersingular(spec, chi)


def test_finite_pd():
    chi = aff_char(GL2, [(0, 0)], {(1, 0)})
    assert has_finite_pd(GL2, chi)
    chi2 = aff_char(GL2, [(0, 1)], set())
    assert not has_finite_pd(GL2, chi2)
    assert not has_finite_pd(GL3, aff_char(GL3, [(0, 0, 0)], {(1, 0)}))
    with pytest.raises(ValueError):
        has_finite_pd(GL3, aff_char(GL3, [(0, 0, 0)], set()))


def test_res_face_projective_cases():
    chi = aff_char(GL3, [(0, 0, 0)], {(1, 0), (1, 1)})
    chamber = Face(GL3, frozenset())
    assert res_face_projective(GL3, chi, chamber)
    # Values agree on {s0, s1}.
    assert res_face_projective(GL3, chi, Face(GL3, frozenset({(1, 0), (1, 1)})))
    # Adjacent values -1 vs 0 on {s1, s2}.
    assert not res_face_projective(GL3, chi, Face(GL3, frozenset({(1, 1), (1, 2)})))
    # S_F outside S_xi.
    chi3 = aff_char(GL3, [(0, 0, 1)], set())
    assert not res_face_projective(GL3, chi3, Face(GL3, frozenset({(1, 0)})))


def test_conj_char_matches_rotation_example():
    chi = aff_char(GL3, [(0, 0, 0)], {(1, 0), (1, 1)})
    rot = conj_char(GL3, chi, (1,))
    assert rot.J == frozenset({(1, 1), (1, 2)})
    spec5 = build_spec([3], 0, 5)
    xi = torus_char(spec5, [(0, 1, 2)])
    rot_xi = conj_char(spec5, AffChar(xi, frozenset()), (1,)).xi
    assert rot_xi.exponents == ((2, 0, 1),)


def test_conj_char_preserves_structure():
    for chi in all_chars(GL32):
        for ks in itertools.product(range(3), range(2)):
            rot = conj_char(GL32, chi, ks)
            assert len(rot.J) == len(chi.J)
            assert is_supersingular(GL32, rot) == is_supersingular(GL32, chi)
            back = conj_char(GL32, rot, tuple((-k) % n for k, n in zip(ks, GL32.factors)))
            assert back == chi


def test_stabilizer_divides_and_exceeds_one():
    chi = aff_char(GL3, [(0, 0, 0)], {(1, 0)})
    assert stabilizer(GL3, chi).d == (3,)
    chi2 = aff_char(GL2, [(0, 1)], set())
    assert stabilizer(GL2, chi2).d == (2,)
    for chi in all_chars(GL32):
        if not is_supersingular(GL32, chi):
            continue
        d = stabilizer(GL32, chi).d
        for di, n in zip(d, GL32.factors):
            assert n % di == 0
            assert di > 1


def _gl3_pair(J1, J2):
    return (
        aff_char(GL3, [(0, 0, 0)], J1),
        aff_char(GL3, [(0, 0, 0)], J2),
    )


def test_ho_delta_hom_special_pattern():
    chi, chi2 = _gl3_pair({(1, 0), (1, 1)}, {(1, 1)})
    assert ho_delta_hom(GL3, chi, chi2) == {"dim": 1, "contains_iso": False}
    # Symmetric in the two inputs.
    assert ho_delta_hom(GL3, chi2, chi) == {"dim": 1, "contains_iso": False}


def test_ho_delta_hom_rejects_disjoint_singleton():
    chi, chi2 = _gl3_pair({(1, 0), (1, 1)}, {(1, 2)})
    assert ho_delta_hom(GL3, chi, chi2)["dim"] == 0


def test_ho_delta_hom_errors():
    chi, chi2 = _gl3_pair({(1, 0)}, {(1, 0)})
    with pytest.raises(ValueError):
        ho_delta_hom(GL3, chi, chi2)
    with pytest.raises(ValueError):
        ho_delta_hom(GL3, aff_char(GL3, [(0, 0, 0)], set()), chi2)
    fpd = aff_char(GL2, [(0, 0)], {(1, 0)})
    other = aff_char(GL2, [(0, 0)], {(1, 1)})
    with pytest.raises(ValueError):
        ho_delta_hom(GL2, fpd, other)


def test_ho_delta_hom_needs_one_rank_two_component():
    spec = build_spec([4], 0, 3)
    chi = aff_char(spec, [(0, 0, 0, 0)], {(1, 0), (1, 1)})
    chi2 = aff_char(spec, [(0, 0, 0, 0)], {(1, 1)})
    assert ho_delta_hom(spec, chi, chi2)["dim"] == 0


def test_ho_delta_hom_product_requires_matching_rank_one_parts():
    chi = aff_char(GL32, [(0, 0, 0), (0, 0)], {(1, 0), (1, 1), (2, 0)})
    same = aff_char(GL32, [(0, 0, 0), (0, 0)], {(1, 1), (2, 0)})
    other = aff_char(GL32, [(0, 0, 0), (0, 0)], {(1, 1), (2, 1)})
    assert ho_delta_hom(GL32, chi, same)["dim"] == 1
    assert ho_delta_hom(GL32, chi, other)["dim"] == 0


@given(st.sampled_from([2, 3, 4]), st.data())
@settings(max_examples=50, deadline=None)
def test_supersingular_and_fpd_rotation_invariant(n, data):
    spec = build_spec([n], 0, 3)
    chars = [c for c in all_chars(spec)]
    chi = data.draw(st.sampled_from(chars))
    k = data.draw(st.integers(0, n - 1))
    rot = conj_char(spec, chi, (k,))
    assert is_supersingular(spec, rot) == is_supersingular(spec, chi)
    if is_supersingular(spec, chi):
        assert has_finite_pd(spec, rot) == has_finite_pd(spec, chi)
