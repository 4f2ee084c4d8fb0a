"""
End-to-end acceptance checks.  Each test prints a single PASS/FAIL line so
the suite output doubles as an acceptance report.
"""

import itertools
import json
import time

import pytest

from heckeiso.cli import main
from heckeiso.ff import FieldCtx
from heckeiso.gln import enumerate_simples, ho_isomorphic, mod_isomorphic
from heckeiso.haff import (
    AffChar,
    conj_char,
    has_finite_pd,
    ho_delta_hom,
    is_supersingular,
    res_face_projective,
    s_xi,
    stabilizer,
    torus_char,
)
from heckeiso.oracle import (
    brute_mod_isomorphic,
    brute_res_projective,
    brute_stable_hom,
    build_face_algebra,
    build_lifts,
    check_face_relations,
    e_xi_matrix,
)
from heckeiso.weyl import Face, build_spec, faces
from heckeiso.zerohecke import (
    build_zero_hecke,
    character_module,
    is_projective,
    stable_hom_dim,
)


def report(name, started):
    print(f"acceptance {name}: PASS ({time.time() - started:.2f}s)")


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


def _module_json(exps, J, lam, p):
    return {
        "chi": {"exponents": [list(exps)], "torus_exponents": [], "J": J},
        "lambda": [lam],
        "nu": [],
        "field": {"p": p, "m": 1},
    }


def _classify(tmp_path, q, obj_a, obj_b):
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    out = tmp_path / "out.json"
    fa.write_text(json.dumps(obj_a))
    fb.write_text(json.dumps(obj_b))
    code = main(
        ["classify", "--factors", "3", "--q", str(q), "--format", "json",
         "--out", str(out), str(fa), str(fb)]
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    return row[0] == "True", row[1] == "True"


def test_acceptance_1_gl3_exceptional_fixture(tmp_path):
    started = time.time()
    for q in (3, 5):
        for a in range(q - 1):
            exps = (a, a, a)
            for lam in range(1, q):
                big = _module_json(exps, ["s1_0", "s1_1"], lam, q)
                for lam2 in range(1, q):
                    small = _module_json(exps, ["s1_1"], lam2, q)
                    mod_iso, ho_iso = _classify(tmp_path, q, big, small)
                    assert not mod_iso
                    assert ho_iso == (lam == lam2), (q, a, lam, lam2)
    assert time.time() - started < 1.0
    report("1 (exceptional fixture, q=3 and q=5)", started)


def _exceptional_pattern(spec, a, b):
    """Independent restatement of the rank-2 exception for shape (3, 2, ..)."""
    if a.lam != b.lam or a.nu != b.nu:
        return False
    full = frozenset(spec.nodes())
    comp1 = set(spec.component_nodes(1))
    rotations = list(itertools.product(*(range(n) for n in spec.factors)))
    for x, y in ((a, b), (b, a)):
        for ka in rotations:
            ca = conj_char(spec, x.chi, ka)
            if s_xi(spec, ca.xi) != full:
                break
            for kb in rotations:
                cb = conj_char(spec, y.chi, kb)
                if ca.xi != cb.xi:
                    continue
                if any(
                    ca.J & set(spec.component_nodes(i)) != cb.J & set(spec.component_nodes(i))
                    for i in range(2, spec.r + 1)
                ):
                    continue
                Ja, Jb = ca.J & comp1, cb.J & comp1
                if len(Ja) == 2 and len(Jb) == 1 and Jb <= Ja:
                    return True
    return False


def test_acceptance_2_sweeps_match_theorem():
    started = time.time()
    fields = [FieldCtx(3), FieldCtx(3, 2)]
    for factors in ([2], [4], [2, 2]):
        spec = build_spec(factors, 0, 3)
        for field in fields:
            simples = [
                m for m in enumerate_simples(spec, field)
                if not has_finite_pd(spec, m.chi)
            ]
            for a, b in itertools.combinations_with_replacement(simples, 2):
                assert ho_isomorphic(a, b) == mod_isomorphic(a, b), (factors, a, b)
    spec = build_spec([3, 2], 0, 3)
    simples = enumerate_simples(spec, FieldCtx(3))
    exceptional = 0
    for a, b in itertools.combinations_with_replacement(simples, 2):
        mod_iso = mod_isomorphic(a, b)
        ho_iso = ho_isomorphic(a, b)
        if mod_iso:
            assert ho_iso
        elif ho_iso:
            exceptional += 1
            assert _exceptional_pattern(spec, a, b), (a, b)
        else:
            assert not _exceptional_pattern(spec, a, b), (a, b)
    assert exceptional > 0
    assert time.time() - started < 60.0
    report("2 (homotopy vs module sweeps)", started)


def test_acceptance_3_projectivity_oracle():
    started = time.time()
    cases = [
        (build_spec([2], 0, 3), FieldCtx(3)),
        (build_spec([3], 0, 3), FieldCtx(3)),
        (build_spec([2, 2], 0, 3), FieldCtx(3)),
        (build_spec([2], 0, 5), FieldCtx(5)),
    ]
    checked = 0
    for spec, field in cases:
        for chi in all_chars(spec):
            for F in faces(spec):
                assert brute_res_projective(spec, chi, F, field) == res_face_projective(
                    spec, chi, F
                ), (spec.factors, chi, F)
                checked += 1
    assert checked > 1000
    assert time.time() - started < 120.0
    report(f"3 (projectivity oracle, {checked} instances)", started)


def test_acceptance_4_norton_suite():
    started = time.time()
    field = FieldCtx(3)
    for ctype, components in [
        ("A1", [[0]]),
        ("A2", [[0, 1]]),
        ("B2", [[0, 1]]),
        ("G2", [[0, 1]]),
        ("A1xA1", [[0], [1]]),
        ("A2xA1", [[0, 1], [2]]),
    ]:
        alg = build_zero_hecke(ctype, field)
        n = len(alg.gen_names)
        subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2 ** n)]
        assert len(subsets) == 2 ** n
        modules = {L: character_module(alg, L) for L in subsets}
        # Projective exactly when trivial or sign on every component.
        projective = {
            L: all(L & set(comp) in (set(), set(comp)) for comp in components) for L in subsets
        }
        for L, M in modules.items():
            assert is_projective(M) is projective[L], (ctype, L)
        for L, M in modules.items():
            for L2, N in modules.items():
                expected = int(L == L2 and not projective[L])
                assert stable_hom_dim(M, N) == expected, (ctype, L, L2)
    assert time.time() - started < 30.0
    report("4 (Norton suite)", started)


def test_acceptance_5_relation_suite():
    started = time.time()
    # Lift identities assert internally at construction.
    for factors, q in [([2], 3), ([3], 3), ([4], 3), ([2, 2], 3), ([3, 2], 3), ([2], 5)]:
        build_lifts(build_spec(factors, 1, q))
    field = FieldCtx(3)
    for factors in ([2], [3], [2, 2]):
        spec = build_spec(factors, 0, 3)
        for F in faces(spec):
            alg = build_face_algebra(spec, F, field)
            check_face_relations(alg)
            # e_xi identities whenever S_F lies in S_xi.
            seen_xi = set()
            for chi in all_chars(spec):
                if chi.xi in seen_xi or not F.subset <= s_xi(spec, chi.xi):
                    continue
                seen_xi.add(chi.xi)
                E = e_xi_matrix(alg, chi.xi)
                assert E @ E == E
                for T in alg.gen_action:
                    assert E @ T == T @ E
                offset = len(alg.torus_gens)
                for gi in range(len(alg.s_nodes)):
                    X = E @ alg.gen_action[offset + gi]
                    assert X @ X == -X
    report("5 (relation suite)", started)


def test_acceptance_6_hom_decision_fixture():
    started = time.time()
    for factors in ([3], [3, 2]):
        spec = build_spec(factors, 0, 3)
        chars = [
            c for c in all_chars(spec)
            if is_supersingular(spec, c) and not has_finite_pd(spec, c)
        ]
        comp1 = set(spec.component_nodes(1))
        for a, b in itertools.permutations(chars, 2):
            got = ho_delta_hom(spec, a, b)
            # Independent restatement of the dimension-one pattern: the
            # values on the rank-2 component are (-1,-1,0) against (0,-1,0)
            # up to relabeling, i.e. a singleton J-part inside a 2-element one.
            Ja, Jb = a.J & comp1, b.J & comp1
            small, big = sorted((Ja, Jb), key=len)
            expected = (
                a.xi == b.xi
                and s_xi(spec, a.xi) == frozenset(spec.nodes())
                and all(
                    a.J & set(spec.component_nodes(i)) == b.J & set(spec.component_nodes(i))
                    for i in range(2, spec.r + 1)
                )
                and len(small) == 1
                and len(big) == 2
                and small <= big
            )
            assert got["dim"] == int(expected), (a, b)
            assert got["contains_iso"] is False
    # The distinguished face {s', s''} gives stable Hom of dimension 1.
    gl3 = build_spec([3], 0, 3)
    chi = AffChar(torus_char(gl3, [(0, 0, 0)]), frozenset({(1, 0), (1, 1)}))
    chi2 = AffChar(torus_char(gl3, [(0, 0, 0)]), frozenset({(1, 1)}))
    F1 = Face(gl3, frozenset({(1, 1), (1, 2)}))
    assert brute_stable_hom(gl3, chi, chi2, F1, FieldCtx(3)) == 1
    report("6 (hom-decision fixture)", started)


def test_acceptance_7_invariant_battery():
    started = time.time()
    field = FieldCtx(3)
    for factors in ([2], [3], [3, 2]):
        spec = build_spec(factors, 0, 3)
        rotations = list(itertools.product(*(range(n) for n in spec.factors)))
        for chi in all_chars(spec):
            for ks in rotations:
                rot = conj_char(spec, chi, ks)
                assert len(rot.J) == len(chi.J)
                assert is_supersingular(spec, rot) == is_supersingular(spec, chi)
                if is_supersingular(spec, chi):
                    assert has_finite_pd(spec, rot) == has_finite_pd(spec, chi)
            if is_supersingular(spec, chi):
                d = stabilizer(spec, chi).d
                for di, n in zip(d, spec.factors):
                    assert n % di == 0
                    assert di > 1
        simples = enumerate_simples(spec, field)
        for m in simples:
            prod = 1
            for di in m.stab.d:
                prod *= di
            assert m.dim == prod
        live = [m for m in simples if not has_finite_pd(spec, m.chi)]
        for a, b in itertools.combinations_with_replacement(live, 2):
            assert ho_isomorphic(a, a)
            assert ho_isomorphic(a, b) == ho_isomorphic(b, a)
            if mod_isomorphic(a, b):
                assert ho_isomorphic(a, b)
    for factors in ([2], [3]):
        spec = build_spec(factors, 0, 3)
        simples = enumerate_simples(spec, field)
        for a, b in itertools.combinations_with_replacement(simples, 2):
            assert brute_mod_isomorphic(a, b) == mod_isomorphic(a, b)
    report("7 (invariant battery)", started)
