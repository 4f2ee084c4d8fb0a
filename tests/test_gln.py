import functools
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeiso.ff import FieldCtx
from heckeiso.gln import (
    SimpleSS,
    UnsupportedInstance,
    _canonical_key,
    build_simple,
    enumerate_simples,
    ho_iso_witness,
    ho_isomorphic,
    mod_iso_witness,
    mod_isomorphic,
    restriction_decomposition,
)
from heckeiso.haff import (
    AffChar,
    TorusChar,
    aff_char,
    conj_char,
    has_finite_pd,
    ho_delta_hom,
    is_supersingular,
    iter_chars,
    s_xi,
    stabilizer,
)
from heckeiso.weyl import build_spec

GF3 = FieldCtx(3)
GF5 = FieldCtx(5)
GL3 = build_spec([3], 0, 3)
GL2 = build_spec([2], 0, 3)
GL32 = build_spec([3, 2], 0, 3)


@functools.cache
def simples_gf3(spec):
    """enumerate_simples over GF(3), computed once per spec for the property tests."""
    return enumerate_simples(spec, GF3)


def gl3_simple(J, lam, field=GF3, a=0):
    chi = aff_char(GL3, [(a, a, a)], J)
    return build_simple(GL3, chi, [lam], [], field)


def test_build_simple_validation():
    chi = aff_char(GL3, [(0, 0, 0)], set())
    with pytest.raises(ValueError):
        build_simple(GL3, chi, [1], [], GF3)  # not supersingular
    good = aff_char(GL3, [(0, 0, 0)], {(1, 0)})
    with pytest.raises(ValueError):
        build_simple(GL3, good, [0], [], GF3)  # zero scalar
    with pytest.raises(ValueError):
        build_simple(GL3, good, [1, 1], [], GF3)  # wrong arity
    with pytest.raises(ValueError):
        build_simple(GL3, good, [1], [], GF5)  # wrong characteristic


def test_dimension_is_product_of_stabilizer_orders():
    m = gl3_simple({(1, 0)}, 1)
    assert m.stab.d == (3,)
    assert m.dim == 3
    chi = aff_char(GL32, [(0, 0, 0), (0, 1)], {(1, 0), (1, 1)})
    m2 = build_simple(GL32, chi, [1, 1], [], GF3)
    assert m2.stab.d == (3, 2)
    assert m2.dim == 6


def test_restriction_decomposition_lists_all_rotations():
    m = gl3_simple({(1, 0)}, 1)
    parts = restriction_decomposition(m)
    assert len(parts) == m.dim
    assert {frozenset(c.J) for c in parts} == {
        frozenset({(1, 0)}),
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
    }


def test_mod_isomorphic_under_rotation():
    a = gl3_simple({(1, 0)}, 2)
    b = gl3_simple({(1, 1)}, 2)
    assert mod_isomorphic(a, b)
    assert mod_iso_witness(a, b) == (1,)


def test_mod_isomorphic_respects_scalars():
    a = gl3_simple({(1, 0)}, 1)
    b = gl3_simple({(1, 1)}, 2)
    assert not mod_isomorphic(a, b)


def test_mod_isomorphic_distinct_j_sizes():
    a = gl3_simple({(1, 0)}, 1)
    b = gl3_simple({(1, 0), (1, 1)}, 1)
    assert not mod_isomorphic(a, b)


def test_twist_enumeration_rejects_non_prime_q():
    spec = build_spec([2], 0, 9)
    chi = aff_char(spec, [(0, 1)], set())
    m = build_simple(spec, chi, [1], [], FieldCtx(3, 2))
    m2 = build_simple(spec, chi, [2], [], FieldCtx(3, 2))
    with pytest.raises(UnsupportedInstance):
        mod_isomorphic(m, m2)


def test_prime_power_refusal_boundary():
    spec = build_spec([2], 0, 9)
    gf9 = FieldCtx(3, 2)

    def simple(exps, J, lam):
        return build_simple(spec, aff_char(spec, [exps], J), [lam], [], gf9)

    # S_xi = S on both sides: differing lambda is answered, not refused.
    assert mod_iso_witness(simple((0, 0), {(1, 0)}, 1), simple((0, 0), {(1, 0)}, 2)) is None
    # S_xi != S, conjugate characters with equal lambda: the rotation is returned.
    assert mod_iso_witness(simple((0, 1), set(), 1), simple((1, 0), set(), 1)) == (1,)
    # S_xi != S, characters not conjugate: differing lambda is answered.
    assert mod_iso_witness(simple((0, 1), set(), 1), simple((0, 2), set(), 2)) is None
    with pytest.raises(UnsupportedInstance):
        enumerate_simples(build_spec([2], 0, 4), FieldCtx(2, 2))


def _rotate(spec, chi, ks):
    """chi conjugated by the rotation ks, shifting exponents and J on each factor."""
    exps = []
    for i, n in enumerate(spec.factors, start=1):
        a = chi.xi.exponents[i - 1]
        exps.append(tuple(a[(j - ks[i - 1]) % n] for j in range(n)))
    J = frozenset((i, (j + ks[i - 1]) % spec.factors[i - 1]) for (i, j) in chi.J)
    return AffChar(TorusChar(spec, tuple(exps), chi.xi.torus_exponents), J)


class _RotationSearch:
    """Module isomorphism by search over all prod n_i rotations of the group."""

    def __init__(self, spec, chars):
        self.spec = spec
        self.rotations = list(itertools.product(*(range(n) for n in spec.factors)))
        self.rotated = {chi: [_rotate(spec, chi, ks) for ks in self.rotations] for chi in chars}

    def refuse(self, chi):
        if self.spec.q != self.spec.p and s_xi(self.spec, chi.xi) != frozenset(self.spec.nodes()):
            raise UnsupportedInstance("prime power")

    def witness(self, m, m2):
        """The first rotation in product order carrying m to m2."""
        if m.nu != m2.nu:
            return None
        for ks, rot in zip(self.rotations, self.rotated[m.chi]):
            if rot != m2.chi:
                continue
            if m.lam != m2.lam:
                self.refuse(m.chi)
                return None
            return ks
        return None

    def key(self, m):
        self.refuse(m.chi)
        return min(rot.sort_key() for rot in self.rotated[m.chi]) + (m.lam, m.nu)

    def stabilizer(self, chi):
        """Least k > 0 with chi fixed by k on factor i alone, per factor."""
        ds = []
        for i, n in enumerate(self.spec.factors):
            ds.append(next(
                k for k in range(1, n + 1)
                if _rotate(self.spec, chi, tuple(k if f == i else 0 for f in range(self.spec.r)))
                == chi
            ))
        return tuple(ds)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedInstance:
        return "refused"


@pytest.mark.parametrize(
    "factors,torus_rank,q,degree",
    [([3, 2], 0, 3, 1), ([2, 2], 1, 3, 1), ([4], 0, 3, 1), ([3], 0, 4, 2)],
)
def test_per_factor_rotation_forms_match_the_rotation_search(factors, torus_rank, q, degree):
    """Witnesses, key classes, stabilizers and refusals against the search over
    all rotations, on every pair of supersingular characters with equal scalars
    and with lambda (or nu) changed on one side."""
    spec = build_spec(factors, torus_rank, q)
    field = FieldCtx(spec.p, degree)
    chars = [chi for chi in iter_chars(spec) if is_supersingular(spec, chi)]
    ref = _RotationSearch(spec, chars)
    ones = (1,) * (spec.r + spec.torus_rank)
    variants = [ones, (2,) + ones[1:]]
    if spec.torus_rank:
        variants.append(ones[:-1] + (2,))

    def split(scalars):
        return scalars[: spec.r], scalars[spec.r :]

    for chi in chars:
        assert stabilizer(spec, chi).d == ref.stabilizer(chi)
        for ks, rot in zip(ref.rotations, ref.rotated[chi]):
            assert conj_char(spec, chi, ks) == rot

    refusals = 0
    for chi in chars:
        m = build_simple(spec, chi, *split(ones), field)
        for chi2 in chars:
            for scalars in variants:
                m2 = build_simple(spec, chi2, *split(scalars), field)
                want = _outcome(ref.witness, m, m2)
                refusals += want == "refused"
                assert _outcome(mod_iso_witness, m, m2) == want, (m, m2)
    assert refusals == 0 if q == spec.p else refusals > 0

    classes = {}
    modules = [build_simple(spec, chi, *split(s), field) for chi in chars for s in variants]
    for m in modules:
        want = _outcome(ref.key, m)
        got = _outcome(_canonical_key, m)
        assert (got == "refused") == (want == "refused"), m
        if want != "refused":
            assert classes.setdefault(got, want) == want, m
    assert len(set(classes.values())) == len(classes)


def _brute_exceptional(spec, chi, chi2, rotations):
    """The rank-2 pattern by search over pairs of rotations: the GL_3
    singleton inside the pair and equal J on every GL_2 component."""
    if spec.factors[:1] != (3,) or any(n != 2 for n in spec.factors[1:]):
        return None
    if chi.xi != chi2.xi or s_xi(spec, chi.xi) != frozenset(spec.nodes()):
        return None
    comp1 = frozenset(spec.component_nodes(1))
    for big, small, orient in ((chi, chi2, "left"), (chi2, chi, "right")):
        if len(big.J & comp1) != 2 or len(small.J & comp1) != 1:
            continue
        for ka in rotations:
            Ja = conj_char(spec, big, ka).J
            for kb in rotations:
                Jb = conj_char(spec, small, kb).J
                if Jb & comp1 <= Ja & comp1 and Ja - comp1 == Jb - comp1:
                    return orient
    return None


@pytest.mark.parametrize("factors", [[3], [3, 2], [3, 2, 2]])
def test_exception_matches_rotation_search(factors):
    """ho_iso_witness and ho_delta_hom against the search over rotations.

    The pool is every infinite-pd simple with all its rotated copies; pairs
    are taken within equal (xi, lambda, nu), since any other pair misses the
    pattern on its first test.  On (3, 2, 2) only lambda = 1 and xi = 1 are
    kept, to bound the time: the decisions read xi only through equality
    and S_xi, which every other S_xi = S group shares.
    """
    spec = build_spec(factors, 0, 3)
    rotations = list(itertools.product(*(range(n) for n in spec.factors)))
    identity = [rotations[0]]
    groups = {}
    for m in enumerate_simples(spec, GF3):
        if has_finite_pd(spec, m.chi):
            continue
        for ks in rotations:
            chi = conj_char(spec, m.chi, ks)
            group = groups.setdefault((chi.xi, m.lam, m.nu), {})
            group[chi] = build_simple(spec, chi, m.lam, m.nu, GF3)
    if len(factors) == 3:
        groups = {
            key: g for key, g in groups.items()
            if key[1] == (1, 1, 1) and not any(any(t) for t in key[0].exponents)
        }
    exceptional = 0
    for group in groups.values():
        for a, b in itertools.product(group.values(), repeat=2):
            orient = _brute_exceptional(spec, a.chi, b.chi, rotations)
            ok, witness = ho_iso_witness(a, b)
            if orient is None:
                assert not witness.startswith("exceptional"), (a, b)
            else:
                exceptional += 1
                assert ok and witness.startswith("exceptional"), (a, b)
                assert witness.endswith(f"orientation {orient})"), (a, b)
            if a.chi != b.chi:
                literal = _brute_exceptional(spec, a.chi, b.chi, identity)
                assert ho_delta_hom(spec, a.chi, b.chi)["dim"] == (literal is not None)
    assert exceptional > 0


@pytest.mark.parametrize(
    "factors,degree,classes",
    [([3, 2], 2, 1536), ([4, 2], 1, 252), ([2, 2, 2], 1, 216)],
)
def test_enumerate_class_counts(factors, degree, classes):
    """Class counts of the independent model in perfbench/workloads.json."""
    spec = build_spec(factors, 0, 3)
    assert len(enumerate_simples(spec, FieldCtx(3, degree))) == classes


def test_ho_isomorphic_exceptional_pair():
    a = gl3_simple({(1, 0), (1, 1)}, 1)
    b = gl3_simple({(1, 1)}, 1)
    assert not mod_isomorphic(a, b)
    assert ho_isomorphic(a, b)
    assert ho_isomorphic(b, a)
    ok, witness = ho_iso_witness(a, b)
    assert ok and "exceptional" in witness


def test_ho_isomorphic_exceptional_needs_containment():
    a = gl3_simple({(1, 0), (1, 1)}, 1)
    b = gl3_simple({(1, 2)}, 1)
    # The singleton {s2} is a rotation of {s1}, which sits inside a rotation
    # of the pair, so these are still stably isomorphic.
    assert ho_isomorphic(a, b)
    # Distinct scalars break it.
    c = gl3_simple({(1, 1)}, 2)
    assert not ho_isomorphic(a, c)


def test_ho_isomorphic_rejects_finite_pd():
    chi = aff_char(GL2, [(0, 0)], {(1, 0)})
    m = build_simple(GL2, chi, [1], [], GF3)
    with pytest.raises(ValueError):
        ho_isomorphic(m, m)


def test_ho_equals_mod_for_gl2():
    simples = enumerate_simples(GL2, GF3)
    live = [m for m in simples if not has_finite_pd(GL2, m.chi)]
    assert live
    for a, b in itertools.combinations_with_replacement(live, 2):
        assert ho_isomorphic(a, b) == mod_isomorphic(a, b)


def test_enumerate_simples_distinct_classes():
    simples = enumerate_simples(GL3, GF3)
    assert len(simples) == 16
    for a, b in itertools.combinations(simples, 2):
        assert not mod_isomorphic(a, b)
    # Deterministic order.
    again = enumerate_simples(GL3, GF3)
    assert [m.sort_key() for m in again] == [m.sort_key() for m in simples]


def test_json_roundtrip():
    m = gl3_simple({(1, 0), (1, 1)}, 2)
    from heckeiso.gln import SimpleSS

    back = SimpleSS.from_json(GL3, m.to_json())
    assert back == m
    # Every parse of GF(3) shares one interned field.
    assert SimpleSS.from_json(GL3, m.to_json()).field is back.field


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_mod_iso_is_an_equivalence_on_samples(data):
    simples = simples_gf3(GL3)
    a = data.draw(st.sampled_from(simples))
    b = data.draw(st.sampled_from(simples))
    assert mod_isomorphic(a, a)
    assert mod_isomorphic(a, b) == mod_isomorphic(b, a)
    rot = data.draw(st.integers(0, 2))
    twisted = build_simple(GL3, conj_char(GL3, a.chi, (rot,)), a.lam, a.nu, GF3)
    assert mod_isomorphic(a, twisted)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ho_iso_symmetric_and_implied_by_mod_iso(data):
    simples = simples_gf3(GL32)
    a = data.draw(st.sampled_from(simples))
    b = data.draw(st.sampled_from(simples))
    assert ho_isomorphic(a, b) == ho_isomorphic(b, a)
    if mod_isomorphic(a, b):
        assert ho_isomorphic(a, b)


# Module JSON for (3,2)/q=3: arbitrary JSON values, unbounded integers
# included, with the real keys, node names and near-valid values mixed in.
_KEYS = ["field", "chi", "lambda", "nu", "p", "m", "exponents", "torus_exponents", "J"]
_NODES = ["s1_0", "s1_1", "s1_2", "s2_0", "s2_1", "s3_0", "s1"]
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-2, 4)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(_NODES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)
_EDITS = [
    ("module", "field"),
    ("module", "chi"),
    ("module", "lambda"),
    ("module", "nu"),
    ("chi", "exponents"),
    ("chi", "torus_exponents"),
    ("chi", "J"),
    ("field", "p"),
    ("field", "m"),
]


def _module_parts():
    """A valid module, with its "field" and "chi" objects, by name."""
    field = {"p": 3}
    chi = {"exponents": [[0, 0, 0], [0, 0]], "J": ["s1_0", "s1_1", "s2_0"]}
    return {"module": {"field": field, "chi": chi, "lambda": [1, 2]}, "chi": chi, "field": field}


@st.composite
def _edited_module(draw):
    """A valid module with up to three keys deleted or given another value."""
    parts = _module_parts()
    values = _json | st.lists(st.integers(-1, 3) | st.integers(), max_size=3) | st.just(2**61 - 1)
    for part, key in draw(st.lists(st.sampled_from(_EDITS), max_size=3, unique=True)):
        if draw(st.booleans()):
            parts[part].pop(key, None)
        else:
            parts[part][key] = draw(values)
    return parts["module"]


@settings(max_examples=400, deadline=None)
@given(_json | _edited_module())
def test_from_json_returns_a_module_or_raises_value_error(obj):
    start = time.perf_counter()
    try:
        assert isinstance(SimpleSS.from_json(GL32, obj), SimpleSS)
    except ValueError:
        pass
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "part,key",
    [
        ("module", "field"),
        ("module", "chi"),
        ("module", "lambda"),
        ("field", "p"),
        ("chi", "exponents"),
        ("chi", "J"),
    ],
)
def test_missing_key_is_a_value_error_naming_it(part, key):
    parts = _module_parts()
    assert isinstance(SimpleSS.from_json(GL32, parts["module"]), SimpleSS)
    del parts[part][key]
    with pytest.raises(ValueError, match=f"{part} is missing the key {key!r}"):
        SimpleSS.from_json(GL32, parts["module"])
