"""
Simple supersingular modules over the pro-p Iwahori-Hecke algebra of a
GL-product group, and the two isomorphism decisions:

  * mod_isomorphic -- isomorphism in the module category, i.e. conjugacy of
    the pair (chi, scalar data) under the length-zero group;
  * ho_isomorphic  -- isomorphism in the Gorenstein homotopy category, which
    adds an exceptional identification exactly for factor shape (3, 2, ..., 2).

For prime-power q (q != p) a character with S_xi != S is refused with
UnsupportedInstance wherever the answer would rest on lambda being fixed by
T(F_q)-conjugation: that holds because xi is invariant under the stabilizing
rotations, but the brute oracle that cross-checks it covers prime q only.

A simple supersingular module is recorded as a supersingular character chi
together with the scalar by which each rotation generator omega_i^{d_i} acts
(lambda_i) and the scalar of each central torus-lift generator (nu_j).  Its
dimension is the product of the d_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import ff
from .ff import FieldCtx
from .haff import (
    AffChar,
    Stabilizer,
    conj_char,
    exceptional_orientation,
    has_finite_pd,
    is_supersingular,
    iter_chars,
    stabilizer,
)
from .weyl import GroupSpec, json_int, json_ints, json_key, json_object


class UnsupportedInstance(ValueError):
    """Raised when a decision falls outside the implemented parameter range."""


class CapExceeded(ValueError):
    """Raised when an enumeration examines more candidates than its cap."""


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
        obj = json_object(obj, "module")
        fobj = json_object(json_key(obj, "field", "module"), "field")
        p = json_int(json_key(fobj, "p", "field"), "field p")
        field = ff.field(p, json_int(fobj.get("m", 1), "field m"))
        chi = AffChar.from_json(spec, json_key(obj, "chi", "module"))
        lam = json_key(obj, "lambda", "module")
        return build_simple(spec, chi, lam, obj.get("nu", ()), field)


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


def _refuse_prime_power(spec: GroupSpec, chi: AffChar) -> None:
    """Raise UnsupportedInstance when q != p and S_xi != S (module docstring)."""
    if spec.q != spec.p and chi.xi.sxi != frozenset(spec.nodes()):
        raise UnsupportedInstance(
            "prime-power q is only supported for characters with S_xi = S"
        )


def mod_isomorphic(m: SimpleSS, m2: SimpleSS) -> bool:
    return mod_iso_witness(m, m2) is not None


def mod_iso_witness(m: SimpleSS, m2: SimpleSS):
    """The least conjugating rotation tuple if the modules are isomorphic, else None.

    Rotations leave the scalar tuples unchanged (the lifted rotation
    generators commute), so a witness is a rotation matching the characters
    with equal scalars.  Rotations act on each factor separately and leave
    the torus exponents alone, so after comparing those the witness is, on
    each factor i, the least k_i whose rotation form of m.chi is the
    unrotated form of m2.chi; that tuple is also the lexicographically least
    conjugating rotation.  Conjugate characters with different lambda are
    refused with UnsupportedInstance for prime-power q when S_xi != S (see the
    module docstring); conjugate characters share the size of S_xi, so
    checking one side covers both.
    """
    if m.spec != m2.spec or m.field != m2.field:
        raise ValueError("modules live over different specs or fields")
    if m.nu != m2.nu or m.chi.xi.torus_exponents != m2.chi.xi.torus_exponents:
        return None
    ks = []
    for forms, forms2 in zip(m.chi.rotation_forms, m2.chi.rotation_forms):
        if forms2[0] not in forms:
            return None
        ks.append(forms.index(forms2[0]))
    if m.lam != m2.lam:
        _refuse_prime_power(m.spec, m.chi)
        return None
    return tuple(ks)


def _exceptional_witness(m: SimpleSS, m2: SimpleSS):
    """Orientation of the exceptional pattern for shape (3, 2, ..., 2), or None.

    The pattern of haff.exceptional_orientation with equal scalar tuples; it
    is invariant under rotating either side, so no rotation is searched.
    """
    if m.lam != m2.lam or m.nu != m2.nu:
        return None
    return exceptional_orientation(m.spec, m.chi, m2.chi)


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
    orient = _exceptional_witness(m, m2)
    if orient is not None:
        return True, (
            "exceptional stable isomorphism on the rank-2 component "
            f"(|J| pattern 2 vs 1, orientation {orient})"
        )
    return False, "none"


def _canonical_key(m: SimpleSS) -> tuple:
    """Equal keys = Mod-isomorphic: per factor the least rotation form, then the
    torus exponents and the scalars (see mod_iso_witness)."""
    _refuse_prime_power(m.spec, m.chi)
    forms = tuple(min(f) for f in m.chi.rotation_forms)
    return forms + (m.chi.xi.torus_exponents, m.lam, m.nu)


def enumerate_simples(
    spec: GroupSpec, field: FieldCtx, cap: int = 20000
) -> list[SimpleSS]:
    """One representative per Mod-isomorphism class, deterministically ordered.

    Characters range over all exponent tuples mod q-1 and all supersingular
    J-patterns; scalars range over the nonzero field elements.
    """
    reps: dict[tuple, SimpleSS] = {}
    scalar_tuples = list(itertools.product(field.nonzero(), repeat=spec.r + spec.torus_rank))
    count = 0
    for chi in iter_chars(spec):
        if not is_supersingular(spec, chi):
            continue
        for scalars in scalar_tuples:
            m = SimpleSS(spec, chi, scalars[: spec.r], scalars[spec.r :], field)
            count += 1
            if count > cap:
                raise CapExceeded(f"enumeration exceeds cap {cap}")
            key = _canonical_key(m)
            prev = reps.get(key)
            if prev is None or m.sort_key() < prev.sort_key():
                reps[key] = m
    return sorted(reps.values(), key=lambda m: m.sort_key())
