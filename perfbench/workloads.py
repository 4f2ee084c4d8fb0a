"""
Input generation, timed operations and correctness gates of the three
benchmark workloads (decide, enumerate, oracle).

Generation never calls the program: characters, modules and faces are
plain tuples, and every expected answer comes from the small restatement
of the combinatorics below (rotations, S_xi, supersingularity, face
projectivity, the rank-2 exception).  Only ``setup`` and ``run_op`` call
the program, always through module attributes looked up at call time, so
the tracer's wrappers see every call.

Conventions follow the program: node (i, j) is position j of GL factor i
(1-based), j = 0 the affine node; a torus character is one exponent tuple
per factor plus the torus exponents, all mod q - 1.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONFIG = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())


# ---------------------------------------------------------------------------
# Shapes and the independent combinatorial model.


@dataclass(frozen=True)
class Shape:
    factors: tuple[int, ...]
    torus_rank: int
    q: int
    field_degree: int

    @classmethod
    def from_config(cls, entry: dict) -> "Shape":
        return cls(tuple(entry["factors"]), entry["torus_rank"], entry["q"], entry["field_degree"])

    @property
    def p(self) -> int:
        return next(d for d in range(2, self.q + 1) if self.q % d == 0)

    @property
    def field_order(self) -> int:
        return self.p ** self.field_degree

    @property
    def label(self) -> str:
        facs = ",".join(map(str, self.factors))
        return f"{facs}/t{self.torus_rank}/q{self.q}/m{self.field_degree}"

    def nodes(self) -> frozenset:
        return frozenset((i, j) for i, n in enumerate(self.factors, 1) for j in range(n))

    def component(self, i: int) -> frozenset:
        return frozenset((i, j) for j in range(self.factors[i - 1]))

    def rotations(self):
        return itertools.product(*(range(n) for n in self.factors))


@dataclass(frozen=True)
class Char:
    exps: tuple[tuple[int, ...], ...]
    texps: tuple[int, ...]
    J: frozenset


@dataclass(frozen=True)
class Module:
    chi: Char
    lam: tuple[int, ...]
    nu: tuple[int, ...]


def s_xi(shape: Shape, exps) -> frozenset:
    """Nodes whose coroot pairs two equal exponents (cyclically) mod q - 1."""
    mod = shape.q - 1
    out = set()
    for i, (n, a) in enumerate(zip(shape.factors, exps), 1):
        for j in range(n):
            if (a[j - 1] - a[j]) % mod == 0:
                out.add((i, j))
    return frozenset(out)


def rotate(shape: Shape, chi: Char, ks) -> Char:
    """Rotate factor i by ks[i-1]: exponent positions and J both shift up."""
    exps = tuple(
        tuple(a[(j - k) % n] for j in range(n)) for n, a, k in zip(shape.factors, chi.exps, ks)
    )
    J = frozenset((i, (j + ks[i - 1]) % shape.factors[i - 1]) for i, j in chi.J)
    return Char(exps, chi.texps, J)


def supersingular(shape: Shape, chi: Char) -> bool:
    sx = s_xi(shape, chi.exps)
    for i in range(1, len(shape.factors) + 1):
        comp = shape.component(i)
        if comp <= sx and (not chi.J & comp or comp <= chi.J):
            return False
    return True


def finite_pd(shape: Shape, chi: Char) -> bool:
    return all(n == 2 for n in shape.factors) and s_xi(shape, chi.exps) == shape.nodes()


def adjacent(shape: Shape, s, t) -> bool:
    if s[0] != t[0]:
        return False
    n = shape.factors[s[0] - 1]
    return n == 2 or (s[1] - t[1]) % n in (1, n - 1)


def face_projective(shape: Shape, chi: Char, face: frozenset) -> bool:
    """Restriction of chi to H_F is projective: S_F inside S_xi, and adjacent
    nodes of S_F carry equal chi values."""
    if not face <= s_xi(shape, chi.exps):
        return False
    return not any(
        adjacent(shape, s, t) and ((s in chi.J) != (t in chi.J))
        for s, t in itertools.combinations(sorted(face), 2)
    )


def face_subsets(shape: Shape) -> list[frozenset]:
    """Faces as node subsets proper in every component."""
    per_comp = [
        [frozenset((i, j) for j in range(n) if mask >> j & 1) for mask in range(2 ** n - 1)]
        for i, n in enumerate(shape.factors, 1)
    ]
    return [frozenset().union(*combo) for combo in itertools.product(*per_comp)]


def mod_iso(shape: Shape, a: Module, b: Module) -> bool:
    """Rotation-conjugate characters with equal scalars (the T(F_q)-twists of
    lambda are trivial because xi is invariant under the stabilizing rotation)."""
    if a.lam != b.lam or a.nu != b.nu:
        return False
    return any(rotate(shape, a.chi, ks) == b.chi for ks in shape.rotations())


def exceptional(shape: Shape, a: Module, b: Module) -> bool:
    """The rank-2 exception for factor shape (3, 2, ..., 2)."""
    if shape.factors[:1] != (3,) or any(n != 2 for n in shape.factors[1:]):
        return False
    full = shape.nodes()
    if s_xi(shape, a.chi.exps) != full or s_xi(shape, b.chi.exps) != full:
        return False
    if (a.chi.exps, a.chi.texps, a.lam, a.nu) != (b.chi.exps, b.chi.texps, b.lam, b.nu):
        return False
    c1 = shape.component(1)
    others = [shape.component(i) for i in range(2, len(shape.factors) + 1)]
    for big, small in ((a, b), (b, a)):
        if len(big.chi.J & c1) != 2 or len(small.chi.J & c1) != 1:
            continue
        for ka in shape.rotations():
            Ja = rotate(shape, big.chi, ka).J
            for kb in shape.rotations():
                Jb = rotate(shape, small.chi, kb).J
                if Jb & c1 <= Ja & c1 and all(Ja & c == Jb & c for c in others):
                    return True
    return False


def refused(shape: Shape, a: Module, b: Module) -> bool:
    """Whether mod_iso_witness refuses the pair: prime-power q, conjugate
    characters with different lambda, and S != S_xi on either side, which
    needs the T(F_q)-twist enumeration implemented only for prime q."""
    if shape.q == shape.p or a.nu != b.nu or a.lam == b.lam:
        return False
    full = shape.nodes()
    if s_xi(shape, a.chi.exps) == full and s_xi(shape, b.chi.exps) == full:
        return False
    return any(rotate(shape, a.chi, ks) == b.chi for ks in shape.rotations())


def canonical_key(shape: Shape, m: Module) -> tuple:
    return min(
        (c.exps, c.texps, tuple(sorted(c.J)), m.lam, m.nu)
        for c in (rotate(shape, m.chi, ks) for ks in shape.rotations())
    )


def candidates(shape: Shape):
    """Every (chi, scalars) enumerate_simples examines: supersingular
    characters times nonzero scalar tuples."""
    mod = shape.q - 1
    r = len(shape.factors)
    scalars = list(itertools.product(range(1, shape.field_order), repeat=r + shape.torus_rank))
    for flat in itertools.product(range(mod), repeat=sum(shape.factors) + shape.torus_rank):
        exps, texps = _split(shape, flat), tuple(flat[sum(shape.factors) :])
        sx = sorted(s_xi(shape, exps))
        for mask in range(2 ** len(sx)):
            chi = Char(exps, texps, frozenset(s for t, s in enumerate(sx) if mask >> t & 1))
            if supersingular(shape, chi):
                for sc in scalars:
                    yield Module(chi, sc[:r], sc[r:])


def _split(shape: Shape, flat) -> tuple:
    out, off = [], 0
    for n in shape.factors:
        out.append(tuple(flat[off : off + n]))
        off += n
    return tuple(out)


# ---------------------------------------------------------------------------
# Random draws.


def random_char(
    rng: random.Random, shape: Shape, *, full_sxi=False, ss=True, infinite_pd=False
) -> Char:
    """A character (J, xi), supersingular when ss is set; infinite_pd skips
    characters of finite projective dimension, where ho_isomorphic is
    undefined."""
    if infinite_pd and all(n == 2 for n in shape.factors):
        full_sxi = False  # S = S_xi has finite projective dimension here
    mod = shape.q - 1
    while True:
        if full_sxi:
            exps = tuple((rng.randrange(mod),) * n for n in shape.factors)
        else:
            exps = tuple(tuple(rng.randrange(mod) for _ in range(n)) for n in shape.factors)
        texps = tuple(rng.randrange(mod) for _ in range(shape.torus_rank))
        J = frozenset(s for s in sorted(s_xi(shape, exps)) if rng.random() < 0.5)
        chi = Char(exps, texps, J)
        if ss and not supersingular(shape, chi):
            continue
        if not (infinite_pd and finite_pd(shape, chi)):
            return chi


def random_scalars(rng: random.Random, shape: Shape, k: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, shape.field_order) for _ in range(k))


def random_module(rng: random.Random, shape: Shape, *, infinite_pd=False) -> Module:
    chi = random_char(rng, shape, full_sxi=rng.random() < 0.25, infinite_pd=infinite_pd)
    return Module(
        chi,
        random_scalars(rng, shape, len(shape.factors)),
        random_scalars(rng, shape, shape.torus_rank),
    )


def random_rotation(rng: random.Random, shape: Shape) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for n in shape.factors)


def pair_of_kind(
    rng: random.Random, shape: Shape, kind: str, *, infinite_pd=False
) -> tuple[Module, Module]:
    if kind == "rotation":
        a = random_module(rng, shape, infinite_pd=infinite_pd)
        b = Module(rotate(shape, a.chi, random_rotation(rng, shape)), a.lam, a.nu)
    elif kind == "other_lambda":
        a = random_module(rng, shape, infinite_pd=infinite_pd)
        i = rng.randrange(len(a.lam))
        new = rng.choice([x for x in range(1, shape.field_order) if x != a.lam[i]])
        b = Module(a.chi, a.lam[:i] + (new,) + a.lam[i + 1 :], a.nu)
    elif kind == "exceptional":
        # xi constant on every factor (S = S_xi); two J-nodes versus one
        # inside them on the GL_3 factor, the same single node elsewhere.
        chi = random_char(rng, shape, full_sxi=True, ss=False)
        pair = rng.sample(range(3), 2)
        rest = frozenset((i, rng.randrange(2)) for i in range(2, len(shape.factors) + 1))
        big = Char(chi.exps, chi.texps, rest | {(1, j) for j in pair})
        small = Char(chi.exps, chi.texps, rest | {(1, rng.choice(pair))})
        lam = random_scalars(rng, shape, len(shape.factors))
        nu = random_scalars(rng, shape, shape.torus_rank)
        a = Module(rotate(shape, big, random_rotation(rng, shape)), lam, nu)
        b = Module(rotate(shape, small, random_rotation(rng, shape)), lam, nu)
    elif kind == "random":
        a = random_module(rng, shape, infinite_pd=infinite_pd)
        b = random_module(rng, shape, infinite_pd=infinite_pd)
    else:
        raise ValueError(f"unknown pair kind {kind}")
    return (a, b) if rng.random() < 0.5 else (b, a)


def module_json(shape: Shape, m: Module) -> dict:
    """The classify file format."""
    return {
        "chi": {
            "exponents": [list(t) for t in m.chi.exps],
            "torus_exponents": list(m.chi.texps),
            "J": [f"s{i}_{j}" for i, j in sorted(m.chi.J)],
        },
        "lambda": list(m.lam),
        "nu": list(m.nu),
        "field": {"p": shape.p, "m": shape.field_degree},
    }


# ---------------------------------------------------------------------------
# Workloads.  ``make_round`` is the benchmark's input generation, ``setup``
# and ``run_op`` are the program's work, ``check`` is the per-op gate and
# ``final_gate`` the checks that need the program again (brute samples).


@dataclass
class Op:
    kind: str
    shape: int  # index into the workload's shapes (or 0-Hecke types)
    args: tuple
    expected: object
    size: int = 1  # ops this item counts as (enumerate: candidates)


class Workload:
    name = ""

    def __init__(self):
        self.cfg = CONFIG[self.name]
        self.shapes = [Shape.from_config(e) for e in self.cfg["round"]]

    def setup(self, hk) -> dict:
        """Program work before the first op: specs and fields."""
        return {
            "hk": hk,
            "specs": [hk.weyl.build_spec(s.factors, s.torus_rank, s.q) for s in self.shapes],
            "fields": [hk.ff.FieldCtx(s.p, s.field_degree) for s in self.shapes],
        }

    def make_round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run_op(self, ctx: dict, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result, rng: random.Random) -> bool:
        return result == op.expected

    def refusal_expected(self, op: Op) -> bool:
        return False

    def final_gate(self, ctx: dict, rng: random.Random, kept: list[Op]) -> list[str]:
        return []

    def latency_samples(self, calls) -> list[tuple[float, int]]:
        """Per-op latencies as (seconds, ops) samples from the timed calls,
        given as (op.shape, op.size, seconds) triples."""
        return [(dt / size, size) for _, size, dt in calls]

    def traced_counts(self, ctx: dict, results: list, refused: int) -> dict:
        """Per-layer counts and ratios only this workload can give, from the
        (op, result) pairs of the traced pass; the others report 0."""
        return {}


class Decide(Workload):
    name = "decide"

    def make_round(self, rng):
        ops = []
        for si, (shape, entry) in enumerate(zip(self.shapes, self.cfg["round"])):
            for kind, count in entry["kinds"].items():
                for _ in range(count):
                    a, b = pair_of_kind(rng, shape, kind, infinite_pd=True)
                    m = mod_iso(shape, a, b)
                    ho = m or exceptional(shape, a, b)
                    ops.append(
                        Op(
                            kind,
                            si,
                            (module_json(shape, a), module_json(shape, b), a, b),
                            {"mod": m, "ho": ho, "refused": refused(shape, a, b)},
                        )
                    )
        rng.shuffle(ops)
        return ops

    def run_op(self, ctx, op):
        gln = ctx["hk"].gln
        spec = ctx["specs"][op.shape]
        a = gln.SimpleSS.from_json(spec, op.args[0])
        b = gln.SimpleSS.from_json(spec, op.args[1])
        ks = gln.mod_iso_witness(a, b)
        ho, witness = gln.ho_iso_witness(a, b)
        return {"mod": ks is not None, "ho": ho, "exceptional": witness.startswith("exceptional")}

    def refusal_expected(self, op):
        return op.expected["refused"]

    def check(self, op, result, rng):
        exp = op.expected
        return result["mod"] == exp["mod"] and result["ho"] == exp["ho"] and (
            result["exceptional"] == (exp["ho"] and not exp["mod"])
        )

    def traced_counts(self, ctx, results, refused):
        answered = [r for _, r in results if r is not None]
        n = len(results)
        return {
            "gln.decisions": n,
            "gln.mod_iso_ratio": sum(r["mod"] for r in answered) / n,
            "gln.exceptional_ratio": sum(r["exceptional"] for r in answered) / n,
            "gln.unsupported_ratio": refused / n,
        }

    def final_gate(self, ctx, rng, kept):
        """Cross-check labels of a seeded sample against brute_mod_isomorphic."""
        hk = ctx["hk"]
        prime = [op for op in kept if self.shapes[op.shape].q == self.shapes[op.shape].p]
        bad = []
        for op in rng.sample(prime, min(self.cfg["brute_sample_ops"], len(prime))):
            spec, field = ctx["specs"][op.shape], ctx["fields"][op.shape]
            a, b = (program_module(hk, spec, field, m) for m in op.args[2:])
            if hk.oracle.brute_mod_isomorphic(a, b) != op.expected["mod"]:
                bad.append(f"decide: brute_mod_isomorphic disagrees with the {op.kind} label")
        return bad


class Enumerate(Workload):
    name = "enumerate"

    def __init__(self):
        super().__init__()
        self.candidates = [sum(1 for _ in candidates(s)) for s in self.shapes]

    def make_round(self, rng):
        order = list(range(len(self.shapes)))
        rng.shuffle(order)
        return [Op("enumerate", i, (), None, self.candidates[i]) for i in order]

    def run_op(self, ctx, op):
        return ctx["hk"].gln.enumerate_simples(
            ctx["specs"][op.shape], ctx["fields"][op.shape], cap=10 ** 7
        )

    def check(self, op, result, rng):
        """Representatives are pairwise non-isomorphic and as many as there
        are classes; seeded candidates each match exactly one of them."""
        shape = self.shapes[op.shape]
        keys = {canonical_key(shape, _plain(r)) for r in result}
        if len(keys) != len(result) or len(keys) != self.cfg["classes"][shape.label]:
            return False
        for _ in range(self.cfg["sampled_candidates_per_call"]):
            m = random_module(rng, shape)
            if canonical_key(shape, m) not in keys:
                return False
        return True

    def latency_samples(self, calls):
        """Candidates are not timed one by one: each shape's candidates get
        the shape's mean time per candidate over the run."""
        busy = [0.0] * len(self.shapes)
        count = [0] * len(self.shapes)
        for shape, size, dt in calls:
            busy[shape] += dt
            count[shape] += size
        return [(b / n, n) for b, n in zip(busy, count) if n]

    def traced_counts(self, ctx, results, refused):
        candidates = sum(op.size for op, _ in results)
        classes = sum(len(r) for _, r in results if r is not None)
        return {"gln.candidates": candidates, "gln.classes_per_candidate": classes / candidates}


class Oracle(Workload):
    name = "oracle"

    def __init__(self):
        super().__init__()
        self.faces = [face_subsets(s) for s in self.shapes]
        zh = self.cfg["zero_hecke"]
        self.zh_types = zh["types"]
        self.zh_ranks = [sum(int(part[1:]) for part in t.split("x")) for t in self.zh_types]

    def setup(self, hk):
        ctx = super().setup(hk)
        weyl, oracle, zerohecke = hk.weyl, hk.oracle, hk.zerohecke
        ctx["faces"] = []
        ctx["face_algebras"] = []
        for spec, field in zip(ctx["specs"], ctx["fields"]):
            by_subset = {frozenset(f.subset): f for f in weyl.faces(spec)}
            ctx["faces"].append(by_subset)
            ctx["face_algebras"] += [
                oracle.build_face_algebra(spec, f, field) for f in by_subset.values()
            ]
        zfield = hk.ff.FieldCtx(self.cfg["zero_hecke"]["p"])
        ctx["zero_hecke"] = [zerohecke.build_zero_hecke(t, zfield) for t in self.zh_types]
        return ctx

    def traced_counts(self, ctx, results, refused):
        return {"oracle.face_alg.max_dim": max(a.dim for a in ctx["face_algebras"])}

    def make_round(self, rng):
        ops = []
        for si, (shape, entry) in enumerate(zip(self.shapes, self.cfg["round"])):
            for face in self.faces[si]:
                for _ in range(entry["res_projective_per_face"]):
                    chi = random_char(rng, shape, full_sxi=rng.random() < 0.5, ss=False)
                    proj = face_projective(shape, chi, face)
                    ops.append(Op("res_projective", si, (chi, face), proj))
                for _ in range(entry["stable_hom_per_face"]):
                    # Diagonal stable Hom is 1 exactly when the restriction
                    # is not projective.
                    chi = random_char(rng, shape, full_sxi=rng.random() < 0.5, ss=False)
                    proj = face_projective(shape, chi, face)
                    ops.append(Op("stable_hom", si, (chi, face), 0 if proj else 1))
            for kind, count in entry["mod_iso"].items():
                for _ in range(count):
                    a, b = pair_of_kind(rng, shape, kind)
                    ops.append(Op("mod_iso", si, (a, b), mod_iso(shape, a, b)))
        zh = self.cfg["zero_hecke"]
        for ti, rank in enumerate(self.zh_ranks):
            gens = range(rank)
            subsets = [
                frozenset(c) for k in range(rank + 1) for c in itertools.combinations(gens, k)
            ]
            # A character of an irreducible 0-Hecke algebra is projective
            # exactly when it is trivial or sign; stable Hom between
            # characters is diagonal with the projectives killed.
            for _ in range(zh["is_projective"]):
                L = rng.choice(subsets)
                ops.append(Op("zh_projective", ti, (L,), len(L) in (0, rank)))
            for _ in range(zh["stable_hom_equal"]):
                L = rng.choice(subsets)
                ops.append(Op("zh_stable_hom", ti, (L, L), 0 if len(L) in (0, rank) else 1))
            for _ in range(zh["stable_hom_distinct"]):
                L, L2 = rng.sample(subsets, 2)
                ops.append(Op("zh_stable_hom", ti, (L, L2), 0))
        rng.shuffle(ops)
        return ops

    def run_op(self, ctx, op):
        hk = ctx["hk"]
        if op.kind.startswith("zh_"):
            alg = ctx["zero_hecke"][op.shape]
            mods = [hk.zerohecke.character_module(alg, L) for L in op.args]
            if op.kind == "zh_projective":
                return hk.zerohecke.is_projective(mods[0])
            return hk.zerohecke.stable_hom_dim(*mods)
        spec, field = ctx["specs"][op.shape], ctx["fields"][op.shape]
        if op.kind == "mod_iso":
            a, b = (program_module(hk, spec, field, m) for m in op.args)
            return hk.oracle.brute_mod_isomorphic(a, b)
        chi = _aff_char(hk, spec, op.args[0])
        face = ctx["faces"][op.shape][op.args[1]]
        if op.kind == "res_projective":
            return hk.oracle.brute_res_projective(spec, chi, face, field)
        return hk.oracle.brute_stable_hom(spec, chi, chi, face, field)


def _aff_char(hk, spec, chi: Char):
    return hk.haff.aff_char(spec, chi.exps, chi.J, chi.texps)


def program_module(hk, spec, field, m: Module):
    """The program's SimpleSS for a generated module."""
    return hk.gln.build_simple(spec, _aff_char(hk, spec, m.chi), m.lam, m.nu, field)


def _plain(rep) -> Module:
    xi = rep.chi.xi
    return Module(Char(xi.exponents, xi.torus_exponents, frozenset(rep.chi.J)), rep.lam, rep.nu)


WORKLOADS = {w.name: w for w in (Decide, Enumerate, Oracle)}
