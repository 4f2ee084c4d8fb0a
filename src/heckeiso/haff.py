"""
Characters of the affine subalgebra H_aff for GL-product groups.

A torus character xi of T(F_q) = (F_q^x)^N is stored by exponent tuples mod
q - 1, one tuple per GL factor plus one exponent per extra torus coordinate.
A character chi of H_aff is a pair (J, xi) with J contained in S_xi, the set
of simple affine reflections whose coroot image lies in ker(xi); chi sends
T_shat to -1 for s in J and to 0 otherwise.

This module provides the enumeration of all characters, supersingularity,
the finite-projective-dimension test, the face-restriction projectivity
predicate, the rank-2 exceptional pattern and the stable Hom decision between
distinct characters, diagram rotations of characters, and stabilizers.
Rotations act on each GL factor separately, so conjugacy, canonical forms
and stabilizers are read factor by factor off ``AffChar.rotation_forms``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .weyl import (
    AffineDynkin,
    Face,
    GroupSpec,
    NodeId,
    json_ints,
    json_key,
    json_object,
    node_name,
    parse_node,
)


@dataclass(frozen=True)
class TorusChar:
    """Exponent model of a character of T(F_q)."""

    spec: GroupSpec
    exponents: tuple[tuple[int, ...], ...]
    torus_exponents: tuple[int, ...]

    def __post_init__(self):
        spec = self.spec
        if len(self.exponents) != spec.r:
            raise ValueError("one exponent tuple per GL factor is required")
        for n, tup in zip(spec.factors, self.exponents):
            if len(tup) != n:
                raise ValueError("exponent tuple length must match the factor")
        if len(self.torus_exponents) != spec.torus_rank:
            raise ValueError("one exponent per torus coordinate is required")
        modulus = spec.q - 1
        red = tuple(tuple(a % modulus for a in tup) for tup in self.exponents)
        object.__setattr__(self, "exponents", red)
        object.__setattr__(
            self, "torus_exponents", tuple(b % modulus for b in self.torus_exponents)
        )

    @cached_property
    def sxi(self) -> frozenset[NodeId]:
        """S_xi (see s_xi), computed once per character; not part of eq, hash or repr."""
        return s_xi(self.spec, self)

    def coordinate_exponents(self) -> tuple[int, ...]:
        """All exponents in diagonal-coordinate order (factors, then torus)."""
        flat: list[int] = []
        for tup in self.exponents:
            flat.extend(tup)
        flat.extend(self.torus_exponents)
        return tuple(flat)


def torus_char(spec: GroupSpec, exponents, torus_exponents=()) -> TorusChar:
    return TorusChar(
        spec,
        tuple(tuple(t) for t in exponents),
        tuple(torus_exponents),
    )


def s_xi(spec: GroupSpec, xi: TorusChar) -> frozenset[NodeId]:
    """Nodes whose coroot lands in ker(xi).

    For node s_{i,j} with j >= 1 the coroot pairs coordinates j and j+1 of
    factor i, so membership means a_{i,j} = a_{i,j+1} mod q-1; the affine
    node s_{i,0} pairs the last coordinate with the first.
    """
    out = set()
    modulus = spec.q - 1
    for i, n in enumerate(spec.factors, start=1):
        a = xi.exponents[i - 1]
        for j in range(n):
            left = a[j - 1] if j >= 1 else a[n - 1]
            right = a[j] if j >= 1 else a[0]
            if (left - right) % modulus == 0:
                out.add((i, j))
    return frozenset(out)


@dataclass(frozen=True)
class AffChar:
    """A character chi = (J, xi) of H_aff; requires J contained in S_xi."""

    xi: TorusChar
    J: frozenset[NodeId]

    def __post_init__(self):
        if not frozenset(self.J) <= self.xi.sxi:
            raise ValueError("J must be contained in S_xi")
        object.__setattr__(self, "J", frozenset(self.J))

    @cached_property
    def rotation_forms(self) -> tuple[tuple[tuple, ...], ...]:
        """Per GL factor i, the factor's form under each rotation k < n_i.

        The form of factor i under k is (exponent tuple of factor i shifted
        up by k, sorted positions j of the nodes s_{i,j} of J shifted up by
        k mod n_i): the factor-i part of conj_char(chi, k on factor i).
        Computed once per character; not part of eq, hash or repr.
        """
        forms = []
        for i, n in enumerate(self.spec.factors, start=1):
            a = self.xi.exponents[i - 1]
            js = [j for (f, j) in self.J if f == i]
            forms.append(tuple(
                (a[n - k :] + a[: n - k], tuple(sorted((j + k) % n for j in js)))
                for k in range(n)
            ))
        return tuple(forms)

    @property
    def spec(self) -> GroupSpec:
        return self.xi.spec

    def value(self, node: NodeId) -> int:
        """chi(T_shat) as the integer -1 or 0."""
        return -1 if node in self.J else 0

    def sort_key(self) -> tuple:
        return (
            self.xi.exponents,
            self.xi.torus_exponents,
            tuple(sorted(self.J)),
        )

    def to_json(self) -> dict:
        return {
            "exponents": [list(t) for t in self.xi.exponents],
            "torus_exponents": list(self.xi.torus_exponents),
            "J": [node_name(s) for s in sorted(self.J)],
        }

    @classmethod
    def from_json(cls, spec: GroupSpec, obj: dict) -> "AffChar":
        obj = json_object(obj, "chi")
        rows, names = json_key(obj, "exponents", "chi"), json_key(obj, "J", "chi")
        if not isinstance(rows, list):
            raise ValueError(f"exponents must be a list of integer lists, got {rows!r}")
        if not isinstance(names, list):
            raise ValueError(f"J must be a list of node names, got {names!r}")
        xi = torus_char(
            spec,
            [json_ints(row, "exponent") for row in rows],
            json_ints(obj.get("torus_exponents", []), "torus exponent"),
        )
        return cls(xi, frozenset(parse_node(n) for n in names))


def iter_chars(spec: GroupSpec):
    """All characters (J, xi) of H_aff, deterministically ordered.

    The flat exponent tuple runs lexicographically over all residues mod
    q - 1; for each xi, J runs over the subsets of S_xi by bit mask over its
    sorted nodes.
    """
    for flat in itertools.product(range(spec.q - 1), repeat=spec.num_coords):
        exps = []
        off = 0
        for n in spec.factors:
            exps.append(tuple(flat[off : off + n]))
            off += n
        xi = TorusChar(spec, tuple(exps), tuple(flat[off:]))
        sxi = sorted(xi.sxi)
        for mask in range(2 ** len(sxi)):
            yield AffChar(xi, frozenset(sxi[t] for t in range(len(sxi)) if mask >> t & 1))


def aff_char(spec: GroupSpec, exponents, J, torus_exponents=()) -> AffChar:
    xi = torus_char(spec, exponents, torus_exponents)
    return AffChar(xi, frozenset(J))


def is_supersingular(spec: GroupSpec, chi: AffChar) -> bool:
    """Whether chi is supersingular.

    The quoted criterion says the restriction of chi to every irreducible
    component must be neither a twisted trivial nor a twisted sign character.
    A twist can only exist on component i when every coroot of S_i lies in
    ker(xi), i.e. S_i is contained in S_xi; in that case the restriction is
    twisted trivial iff J misses S_i and twisted sign iff J contains S_i.
    When S_i is not contained in S_xi no twisted trivial/sign restriction can
    occur, so the component imposes no condition.  A pure torus (r = 0) has
    every character supersingular by convention.
    """
    sxi = chi.xi.sxi
    for i in range(1, spec.r + 1):
        comp = set(spec.component_nodes(i))
        if comp <= sxi:
            inter = chi.J & comp
            if not inter or inter == comp:
                return False
    return True


def has_finite_pd(spec: GroupSpec, chi: AffChar) -> bool:
    """Finite projective dimension test for a supersingular character.

    Holds exactly when the finite root system is a product of A_1's (every
    n_i = 2) and S_xi is all of S.
    """
    if not is_supersingular(spec, chi):
        raise ValueError("finite-pd test requires a supersingular character")
    if any(n != 2 for n in spec.factors):
        return False
    return chi.xi.sxi == frozenset(spec.nodes())


def res_face_projective(spec: GroupSpec, chi: AffChar, F: Face) -> bool:
    """Whether the restriction of chi to H_F is projective.

    Not projective when S_F is not contained in S_xi; otherwise not
    projective exactly when two adjacent nodes of S_F carry different chi
    values.  The chamber (S_F empty) is always projective since H_C is the
    semisimple group algebra of T(F_q).
    """
    sxi = chi.xi.sxi
    nodes = sorted(F.subset)
    if not frozenset(nodes) <= sxi:
        return False
    diagram = AffineDynkin(spec)
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            s, t = nodes[a], nodes[b]
            if diagram.adjacent(s, t) and chi.value(s) != chi.value(t):
                return False
    return True


def exceptional_orientation(spec: GroupSpec, chi: AffChar, chi2: AffChar):
    """Orientation of the rank-2 exceptional pattern between chi and chi2.

    The pattern needs factor shape (3, 2, ..., 2), xi = xi' with S_xi = S,
    and J meeting the GL_3 component in two nodes on one side and one on the
    other.  Returns "left" when chi carries the pair, "right" when chi2 does,
    and None otherwise.  Up to rotation this is the whole condition: the
    singleton rotates into the pair, and supersingularity leaves J a single
    node on each GL_2 component, which a rotation moves onto the other side's.
    """
    if spec.factors[:1] != (3,) or any(n != 2 for n in spec.factors[1:]):
        return None
    if chi.xi != chi2.xi or chi.xi.sxi != frozenset(spec.nodes()):
        return None
    comp = frozenset(spec.component_nodes(1))
    sizes = (len(chi.J & comp), len(chi2.J & comp))
    return {(2, 1): "left", (1, 2): "right"}.get(sizes)


def ho_delta_hom(spec: GroupSpec, chi: AffChar, chi2: AffChar) -> dict:
    """Dimension of the image of [chi, chi2] under restriction to all faces.

    Returns {"dim": 0 or 1, "contains_iso": bool}.  The dimension is 1
    exactly when the characters show the exceptional pattern (see
    exceptional_orientation), J and J' agree on every rank-1 component, and
    on the rank-2 component the value patterns are, up to permuting the three
    nodes and swapping the inputs, chi = (-1, -1, 0) and chi2 = (0, -1, 0)
    with the two nodes carrying the middle values adjacent (automatic on the
    affine triangle), i.e. the singleton lies inside the pair.
    """
    if chi == chi2:
        raise ValueError("ho_delta_hom requires distinct characters")
    for c in (chi, chi2):
        if not is_supersingular(spec, c):
            raise ValueError("ho_delta_hom requires supersingular characters")
        if has_finite_pd(spec, c):
            raise ValueError("ho_delta_hom requires infinite projective dimension")
    if exceptional_orientation(spec, chi, chi2) is not None:
        comp = frozenset(spec.component_nodes(1))
        small, big = sorted((chi.J & comp, chi2.J & comp), key=len)
        if chi.J - comp == chi2.J - comp and small <= big:
            return {"dim": 1, "contains_iso": False}
    return {"dim": 0, "contains_iso": False}


def conj_char(spec: GroupSpec, chi: AffChar, rotation) -> AffChar:
    """Conjugate chi by the length-zero rotation (k_1, ..., k_r).

    Node values and exponent positions both shift up by k_i on factor i:
    the rotated character takes at node s_{i,j} the value chi took at
    s_{i,j-k_i}, matching the diagram rotation of J.  Factor i of the result
    is the rotation form chi.rotation_forms[i-1][k_i mod n_i].
    """
    ks = tuple(int(k) for k in rotation)
    if len(ks) != spec.r:
        raise ValueError("one rotation amount per GL factor is required")
    forms = [f[k % len(f)] for f, k in zip(chi.rotation_forms, ks)]
    xi = TorusChar(spec, tuple(a for a, _ in forms), chi.xi.torus_exponents)
    J = frozenset((i, j) for i, (_, js) in enumerate(forms, start=1) for j in js)
    return AffChar(xi, J)


@dataclass(frozen=True)
class Stabilizer:
    """The rotation part of the stabilizer of chi: d_i | n_i per factor."""

    d: tuple[int, ...]


def stabilizer(spec: GroupSpec, chi: AffChar) -> Stabilizer:
    """Least positive rotation amounts fixing chi, one per factor.

    d_i is the period of factor i's rotation forms: rotating factor i by k
    fixes chi exactly when it fixes factor i's form.
    """
    ds = []
    for forms in chi.rotation_forms:
        n = len(forms)
        d = next((k for k in range(1, n) if forms[k] == forms[0]), n)
        if n % d:
            raise AssertionError("stabilizer order must divide n_i")
        ds.append(d)
    return Stabilizer(tuple(ds))
