"""
Simple supersingular modules over the pro-p Iwahori-Hecke algebra of a
GL-product group, and the two isomorphism decisions:

  * mod_isomorphic -- isomorphism in the module category, i.e. conjugacy of
    the pair (chi, scalar data) under the length-zero group;
  * ho_isomorphic  -- isomorphism in the Gorenstein homotopy category, which
    adds an exceptional identification exactly for factor shape (3, 2, ..., 2).

A simple supersingular module is recorded as a supersingular character chi
together with the scalar by which each rotation generator omega_i^{d_i} acts
(lambda_i) and the scalar of each central torus-lift generator (nu_j).  Its
dimension is the product of the d_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ff import FieldCtx, smallest_primitive_root
from .haff import (
    AffChar,
    Stabilizer,
    TorusChar,
    conj_char,
    has_finite_pd,
    is_supersingular,
    s_xi,
    stabilizer,
)
from .weyl import GroupSpec, json_int, json_ints


class UnsupportedInstance(ValueError):
    """Raised when a decision falls outside the implemented parameter range."""


@dataclass(frozen=True)
class SimpleSS:
    """Datum of a simple supersingular module: (chi, lambda-scalars, nu-scalars)."""

    spec: GroupSpec
    chi: AffChar
    lam: tuple[int, ...]
    nu: tuple[int, ...]
    field: FieldCtx

    @property
    def stab(self) -> Stabilizer:
        return stabilizer(self.spec, self.chi)

    @property
    def dim(self) -> int:
        d = 1
        for di in self.stab.d:
            d *= di
        return d

    def sort_key(self) -> tuple:
        return self.chi.sort_key() + (self.lam, self.nu)

    def to_json(self) -> dict:
        return {
            "chi": self.chi.to_json(),
            "lambda": list(self.lam),
            "nu": list(self.nu),
            "field": {"p": self.field.p, "m": self.field.m},
        }

    @classmethod
    def from_json(cls, spec: GroupSpec, obj: dict) -> "SimpleSS":
        field = FieldCtx(
            json_int(obj["field"]["p"], "field p"), json_int(obj["field"].get("m", 1), "field m")
        )
        chi = AffChar.from_json(spec, obj["chi"])
        return build_simple(spec, chi, obj["lambda"], obj.get("nu", ()), field)


def build_simple(spec: GroupSpec, chi: AffChar, lam, nu, field: FieldCtx) -> SimpleSS:
    """Validate and assemble a SimpleSS datum."""
    if chi.spec != spec:
        raise ValueError("character belongs to a different spec")
    if not is_supersingular(spec, chi):
        raise ValueError("character is not supersingular")
    if field.p != spec.p:
        raise ValueError("coefficient field characteristic must equal p")
    lam = json_ints(lam, "lambda")
    nu = json_ints(nu, "nu")
    if len(lam) != spec.r:
        raise ValueError("one lambda scalar per GL factor is required")
    if len(nu) != spec.torus_rank:
        raise ValueError("one nu scalar per torus coordinate is required")
    for x in lam + nu:
        if not (1 <= x < field.order):
            raise ValueError("scalars must be nonzero field elements")
    return SimpleSS(spec, chi, lam, nu, field)


def restriction_decomposition(m: SimpleSS) -> list[AffChar]:
    """The characters in the restriction of m to the stabilizer subalgebra.

    One rotation of chi per transversal index 0 <= k_i < d_i, each with
    multiplicity dim V = 1.
    """
    spec = m.spec
    out = []
    for ks in itertools.product(*(range(d) for d in m.stab.d)):
        out.append(conj_char(spec, m.chi, ks))
    return out


def _all_rotations(spec: GroupSpec):
    return itertools.product(*(range(n) for n in spec.factors))


def _twist_factors(m: SimpleSS, chi: AffChar) -> set[tuple[int, ...]]:
    """Scalar multipliers on the lambda tuple from conjugating by T(F_q).

    Conjugating the pair by t multiplies lambda_i by xi(t . rho_i(t)^{-1})
    where rho_i rotates the factor-i coordinates by d_i.  Since omega_i^{d_i}
    stabilizes chi, xi is invariant under rho_i and every factor collapses
    to 1; the enumeration below keeps the decision honest rather than
    asserting that collapse.
    """
    spec = m.spec
    if spec.q != spec.p:
        raise UnsupportedInstance(
            "T(F_q)-twist enumeration is only supported for prime q when S != S_xi"
        )
    q = spec.q
    d = stabilizer(spec, chi).d
    exps = chi.xi.exponents
    # Enumerate t through one generator exponent per coordinate and close
    # under the group structure; the twist map is linear in the exponents,
    # so generators suffice.
    gen = smallest_primitive_root(q)
    base: set[tuple[int, ...]] = {tuple([1] * spec.r)}
    field = m.field
    for c in range(spec.num_coords):
        tw = []
        for i, n in enumerate(spec.factors, start=1):
            off = sum(spec.factors[: i - 1])
            if off <= c < off + n:
                j = c - off
                a = exps[i - 1]
                # exponent of xi at coordinate c minus at the rotated coordinate
                e = (a[j] - a[(j - d[i - 1]) % n]) % (q - 1)
            else:
                e = 0
            tw.append(field.pow(gen % field.order, e) if e else 1)
        base.add(tuple(tw))
    # Close under componentwise multiplication.
    closed = set(base)
    frontier = set(base)
    while frontier:
        new = set()
        for a in frontier:
            for b in base:
                c = tuple(int(field.mul[x, y]) for x, y in zip(a, b))
                if c not in closed:
                    new.add(c)
        closed |= new
        frontier = new
    return closed


def mod_isomorphic(m: SimpleSS, m2: SimpleSS) -> bool:
    return mod_iso_witness(m, m2) is not None


def mod_iso_witness(m: SimpleSS, m2: SimpleSS):
    """A conjugating rotation tuple if the modules are isomorphic, else None.

    Rotations leave the scalar tuples unchanged (the lifted rotation
    generators commute), so a witness is a rotation matching the characters
    with equal scalars; when S != S_xi and q is prime, T(F_q)-twists of the
    lambda tuple are additionally enumerated.
    """
    if m.spec != m2.spec or m.field != m2.field:
        raise ValueError("modules live over different specs or fields")
    if m.nu != m2.nu:
        return None
    spec = m.spec
    full = frozenset(spec.nodes())
    needs_twists = s_xi(spec, m.chi.xi) != full or s_xi(spec, m2.chi.xi) != full
    for ks in _all_rotations(spec):
        if conj_char(spec, m.chi, ks) != m2.chi:
            continue
        if m.lam == m2.lam:
            return ks
        if needs_twists:
            field = m.field
            for tw in _twist_factors(m2, m2.chi):
                twisted = tuple(int(field.mul[x, t]) for x, t in zip(m.lam, tw))
                if twisted == m2.lam:
                    return ks
    return None


def _exceptional_witness(m: SimpleSS, m2: SimpleSS):
    """Exceptional-pattern witness for shape (3, 2, ..., 2), or None.

    Requires xi = xi' with S = S_xi, equal scalar tuples, and after suitable
    rotations: two J-nodes versus one on the A_2-type component with the
    singleton contained in the pair, and equal J on every other component.
    """
    spec = m.spec
    if spec.factors[:1] != (3,) or any(n != 2 for n in spec.factors[1:]):
        return None
    full = frozenset(spec.nodes())
    if s_xi(spec, m.chi.xi) != full or s_xi(spec, m2.chi.xi) != full:
        return None
    if m.chi.xi != m2.chi.xi:
        return None
    if m.lam != m2.lam or m.nu != m2.nu:
        return None
    comp1 = set(spec.component_nodes(1))
    for big, small, orient in ((m, m2, "left"), (m2, m, "right")):
        if len(big.chi.J & comp1) != 2 or len(small.chi.J & comp1) != 1:
            continue
        for ka in _all_rotations(spec):
            Ja = conj_char(spec, big.chi, ka).J
            for kb in _all_rotations(spec):
                Jb = conj_char(spec, small.chi, kb).J
                if not (Jb & comp1) <= (Ja & comp1):
                    continue
                ok = True
                for i in range(2, spec.r + 1):
                    comp = set(spec.component_nodes(i))
                    if Ja & comp != Jb & comp:
                        ok = False
                        break
                if ok:
                    return {"orientation": orient, "rotations": (ka, kb)}
    return None


def ho_isomorphic(m: SimpleSS, m2: SimpleSS) -> bool:
    return ho_iso_witness(m, m2)[0]


def ho_iso_witness(m: SimpleSS, m2: SimpleSS) -> tuple[bool, str]:
    """Decision plus a human-readable witness string."""
    for x in (m, m2):
        if has_finite_pd(x.spec, x.chi):
            raise ValueError(
                "ho_isomorphic requires infinite projective dimension "
                "(module is trivial in the homotopy category otherwise)"
            )
    ks = mod_iso_witness(m, m2)
    if ks is not None:
        return True, f"module-category isomorphism, rotation {ks}"
    exc = _exceptional_witness(m, m2)
    if exc is not None:
        return True, (
            "exceptional stable isomorphism on the rank-2 component "
            f"(|J| pattern 2 vs 1, orientation {exc['orientation']})"
        )
    return False, "none"


def _canonical_key(m: SimpleSS) -> tuple:
    """Minimal serialized form over all conjugations; equal keys = Mod-isomorphic."""
    spec = m.spec
    best = None
    full = frozenset(spec.nodes())
    needs_twists = s_xi(spec, m.chi.xi) != full
    for ks in _all_rotations(spec):
        chi = conj_char(spec, m.chi, ks)
        lam_options = [m.lam]
        if needs_twists:
            field = m.field
            lam_options = [
                tuple(int(field.mul[x, t]) for x, t in zip(m.lam, tw))
                for tw in _twist_factors(m, chi)
            ]
        for lam in lam_options:
            key = chi.sort_key() + (lam, m.nu)
            if best is None or key < best:
                best = key
    return best


def enumerate_simples(
    spec: GroupSpec, field: FieldCtx, cap: int = 20000
) -> list[SimpleSS]:
    """One representative per Mod-isomorphism class, deterministically ordered.

    Characters range over all exponent tuples mod q-1 and all supersingular
    J-patterns; scalars range over the nonzero field elements.
    """
    q = spec.q
    reps: dict[tuple, SimpleSS] = {}
    exp_ranges = [range(q - 1) if q > 2 else range(1) for _ in range(spec.num_coords)]
    count = 0
    for flat in itertools.product(*exp_ranges):
        exps = []
        off = 0
        for n in spec.factors:
            exps.append(tuple(flat[off : off + n]))
            off += n
        torus_exps = tuple(flat[off:])
        xi = TorusChar(spec, tuple(exps), torus_exps)
        sxi = sorted(s_xi(spec, xi))
        for mask in range(2 ** len(sxi)):
            J = frozenset(sxi[t] for t in range(len(sxi)) if mask >> t & 1)
            chi = AffChar(xi, J)
            if not is_supersingular(spec, chi):
                continue
            scalar_ranges = [field.nonzero()] * (spec.r + spec.torus_rank)
            for scalars in itertools.product(*scalar_ranges):
                lam = scalars[: spec.r]
                nu = scalars[spec.r :]
                m = SimpleSS(spec, chi, lam, nu, field)
                count += 1
                if count > cap:
                    raise ValueError(f"enumeration exceeds cap {cap}")
                key = _canonical_key(m)
                prev = reps.get(key)
                if prev is None or m.sort_key() < prev.sort_key():
                    reps[key] = m
    return sorted(reps.values(), key=lambda m: m.sort_key())
