import math
import time

import pytest

from heckeiso.weyl import (
    AffineDynkin,
    CoxeterGroup,
    Face,
    build_spec,
    closure_leq,
    coxeter_order,
    faces,
    node_name,
    parse_cox_type,
    parse_node,
)


def test_build_spec_sorts_and_validates():
    spec = build_spec([2, 3], 0, 9)
    assert spec.factors == (3, 2)
    assert (spec.p, spec.f) == (3, 2)
    assert spec.num_nodes == 5
    assert spec.num_coords == 5
    with pytest.raises(ValueError):
        build_spec([1], 0, 3)
    with pytest.raises(ValueError):
        build_spec([2], 0, 12)
    with pytest.raises(ValueError):
        build_spec([2], -1, 3)


def test_node_names_roundtrip():
    for node in build_spec([3, 2], 2, 3).nodes():
        assert parse_node(node_name(node)) == node


def test_gl2_bond_is_infinite():
    spec = build_spec([2], 0, 3)
    d = AffineDynkin(spec)
    assert d.bond((1, 0), (1, 1)) == math.inf


def test_gl3_diagram_is_a_triangle():
    spec = build_spec([3], 0, 3)
    d = AffineDynkin(spec)
    for j in range(3):
        assert d.bond((1, j), (1, (j + 1) % 3)) == 3


def test_gl4_diagram_is_a_cycle():
    spec = build_spec([4], 0, 3)
    d = AffineDynkin(spec)
    assert d.bond((1, 0), (1, 1)) == 3
    assert d.bond((1, 0), (1, 3)) == 3
    assert d.bond((1, 0), (1, 2)) == 2


def test_cross_component_nodes_commute():
    spec = build_spec([3, 2], 0, 3)
    d = AffineDynkin(spec)
    assert d.bond((1, 0), (2, 0)) == 2
    assert not d.adjacent((1, 1), (2, 1))


@pytest.mark.parametrize(
    "factors,count",
    [([2], 3), ([3], 7), ([4], 15), ([2, 2], 9), ([3, 2], 21)],
)
def test_face_count(factors, count):
    spec = build_spec(factors, 0, 3)
    assert len(faces(spec)) == count
    # product over components of 2^{n_i} - 1
    expected = 1
    for n in spec.factors:
        expected *= 2 ** n - 1
    assert count == expected


def test_face_rejects_full_component():
    spec = build_spec([2], 0, 3)
    with pytest.raises(ValueError):
        Face(spec, frozenset({(1, 0), (1, 1)}))
    with pytest.raises(ValueError):
        Face(spec, frozenset({(2, 0)}))


def test_closure_is_subset_inclusion():
    spec = build_spec([3], 0, 3)
    fs = faces(spec)
    chamber = fs[0]
    assert chamber.subset == frozenset()
    for F in fs:
        assert closure_leq(chamber, F)
        assert closure_leq(F, F)
    two = Face(spec, frozenset({(1, 0), (1, 1)}))
    one = Face(spec, frozenset({(1, 0)}))
    assert closure_leq(one, two)
    assert not closure_leq(two, one)


@pytest.mark.parametrize(
    "ctype,order",
    [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("G2", 12), ("A1xA1", 4), ("A2xA1", 12)],
)
def test_coxeter_orders(ctype, order):
    assert len(CoxeterGroup(parse_cox_type(ctype))) == order


@pytest.mark.parametrize(
    "ctype,order",
    [("F4", 1152), ("D5", 1920), ("B5", 3840), ("E6", 51840), ("E7", 2903040), ("E8", 696729600)],
)
def test_coxeter_order_is_read_off_the_type(ctype, order):
    assert coxeter_order(parse_cox_type(ctype)) == order


@pytest.mark.parametrize("ctype", ["E7", "E8"])
def test_group_above_max_elements_is_refused_before_enumeration(ctype):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large to enumerate"):
        CoxeterGroup(parse_cox_type(ctype))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("ctype", ["", "A2x", "x", "2A", "Q3", "A0", "D2", "E9", "F3", "G3", "A9"])
def test_malformed_or_unknown_coxeter_type_is_refused(ctype):
    with pytest.raises(ValueError):
        CoxeterGroup(parse_cox_type(ctype))


def test_coxeter_length_matches_inversions():
    g = CoxeterGroup(parse_cox_type("B2"))
    for w in g.elements:
        assert g.length[w] == g.inversion_length(w)


def test_coxeter_words_multiply_back():
    g = CoxeterGroup(parse_cox_type("A2"))
    identity = tuple(range(len(g.roots)))
    for w in g.elements:
        cur = identity
        for gi in g.word[w]:
            cur = g.multiply_gen(cur, gi)
        assert cur == w
