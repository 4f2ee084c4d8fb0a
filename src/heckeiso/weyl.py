"""
Group specifications, affine Dynkin diagram combinatorics, the face lattice,
and enumeration of finite Coxeter groups.

The groups handled are G = GL_{n_1} x ... x GL_{n_r} x (torus)^l over a local
field with residue field of size q.  Each GL_{n_i} factor with n_i >= 3
contributes a cycle of n_i affine nodes; a GL_2 factor contributes two nodes
joined by an infinite bond.  A face is modeled as a node subset that is proper
in every component, per the order-reversing bijection between faces of the
closed fundamental chamber and such subsets.

Finite Coxeter groups are enumerated exactly through the permutation action
of the simple reflections on the (integral) root set of the type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

INF = math.inf

# A node is a pair (component index starting at 1, position 0..n_i-1);
# position 0 is the affine node of its cycle.
NodeId = tuple[int, int]


def node_name(node: NodeId) -> str:
    return f"s{node[0]}_{node[1]}"


def parse_node(name: str) -> NodeId:
    if not isinstance(name, str):
        raise ValueError(f"node name must be a string like 's1_0', got {name!r}")
    body = name.lstrip("s")
    i, j = body.split("_")
    return (int(i), int(j))


def json_int(value, what: str) -> int:
    """An integer read from JSON; bools, floats and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """A JSON object; lists, strings and numbers are refused."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_key(obj: dict, key: str, what: str):
    """obj[key] for a required key of a JSON object; a missing key is a ValueError."""
    if key not in obj:
        raise ValueError(f"{what} is missing the key {key!r}")
    return obj[key]


def json_ints(values, what: str) -> tuple[int, ...]:
    """A list of integers read from JSON; bools, floats and strings are refused."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    for v in values:
        json_int(v, what)
    return tuple(values)


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p^f, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            n = q
            while n % p == 0:
                n //= p
                f += 1
            if n != 1:
                raise ValueError(f"q={q} is not a prime power")
            return p, f
    raise ValueError(f"q={q} is not a prime power")


@dataclass(frozen=True)
class GroupSpec:
    """G = GL_{n_1} x ... x GL_{n_r} x (torus)^l with residue field size q."""

    factors: tuple[int, ...]
    torus_rank: int
    q: int
    p: int
    f: int

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def num_nodes(self) -> int:
        return sum(self.factors)

    @property
    def num_coords(self) -> int:
        """Number of diagonal torus coordinates: sum of n_i plus torus rank."""
        return sum(self.factors) + self.torus_rank

    def nodes(self) -> list[NodeId]:
        return [(i + 1, j) for i, n in enumerate(self.factors) for j in range(n)]

    def component_nodes(self, i: int) -> list[NodeId]:
        return [(i, j) for j in range(self.factors[i - 1])]

    def to_json(self) -> dict:
        return {"factors": list(self.factors), "torus_rank": self.torus_rank, "q": self.q}


def build_spec(factors, torus_rank: int, q: int) -> GroupSpec:
    """Validate and canonicalize a group specification.

    Factors are silently sorted non-increasing; q must be a prime power and
    every GL factor must have n_i >= 2.
    """
    facs = tuple(sorted((int(n) for n in factors), reverse=True))
    if any(n < 2 for n in facs):
        raise ValueError("every GL factor needs n_i >= 2")
    if torus_rank < 0:
        raise ValueError("torus rank must be non-negative")
    p, f = _factor_prime_power(q)
    return GroupSpec(factors=facs, torus_rank=int(torus_rank), q=int(q), p=p, f=f)


class AffineDynkin:
    """Bond data of the affine Dynkin diagram attached to a GroupSpec."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.nodes = spec.nodes()

    def bond(self, s: NodeId, t: NodeId):
        """Coxeter bond order m(s, t) in {2, 3, inf}; 2 means they commute."""
        if s == t:
            raise ValueError("bond is defined for distinct nodes")
        if s[0] != t[0]:
            return 2
        n = self.spec.factors[s[0] - 1]
        if n == 2:
            return INF
        d = (s[1] - t[1]) % n
        return 3 if d in (1, n - 1) else 2

    def adjacent(self, s: NodeId, t: NodeId) -> bool:
        return s != t and self.bond(s, t) != 2


@dataclass(frozen=True)
class Face:
    """A face of the closed chamber, encoded by its node subset S_F.

    Properness: the subset misses at least one node of every component.
    The chamber itself is the face with the empty subset.
    """

    spec: GroupSpec
    subset: frozenset[NodeId]

    def __post_init__(self):
        for node in self.subset:
            i, j = node
            if not (1 <= i <= self.spec.r and 0 <= j < self.spec.factors[i - 1]):
                raise ValueError(f"node {node} outside the diagram")
        for i, n in enumerate(self.spec.factors, start=1):
            if sum(1 for s in self.subset if s[0] == i) == n:
                raise ValueError(f"subset contains all of component {i}")


def faces(spec: GroupSpec) -> list[Face]:
    """All faces, in deterministic lexicographic order.

    Per component, proper subsets are ordered by their indicator vector read
    as a binary number (position 0 least significant); components combine by
    cartesian product in component order.
    """
    per_component = []
    for i, n in enumerate(spec.factors, start=1):
        subsets = []
        for mask in range(2 ** n - 1):
            subsets.append(frozenset((i, j) for j in range(n) if mask >> j & 1))
        per_component.append(subsets)
    out = []
    for combo in itertools.product(*per_component) if per_component else [()]:
        out.append(Face(spec, frozenset().union(*combo) if combo else frozenset()))
    return out


def closure_leq(F: Face, F2: Face) -> bool:
    """Whether F2 lies in the closure of F, i.e. S_F is a subset of S_{F2}."""
    if F.spec != F2.spec:
        raise ValueError("faces belong to different specs")
    return F.subset <= F2.subset


# ---------------------------------------------------------------------------
# Finite Coxeter groups via the root permutation action.

CoxType = tuple[tuple[str, int], ...]

MAX_RANK = 8

# |W| of each irreducible type, None for a rank the type does not have.
_WEYL_ORDERS = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2 ** n * math.factorial(n),
    "C": lambda n: 2 ** n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n) if n >= 3 else None,
    "E": {6: 51840, 7: 2903040, 8: 696729600}.get,
    "F": {4: 1152}.get,
    "G": {2: 12}.get,
}


def parse_cox_type(descr) -> CoxType:
    """Accept 'A2', 'A2xA1', [('A',2),('A',1)], etc.; a malformed part is a ValueError."""
    if isinstance(descr, str):
        parts = descr.replace("*", "x").split("x")
        if not all(len(p) > 1 and p[0].isalpha() and p[1:].isdigit() for p in parts):
            raise ValueError(f"malformed Coxeter type {descr!r}")
        return tuple((p[0].upper(), int(p[1:])) for p in parts)
    return tuple((str(l).upper(), int(n)) for l, n in descr)


def coxeter_order(cox_type: CoxType) -> int:
    """|W| read off the classification, before any root or element is listed.

    An unknown letter, a rank the letter does not have, or a total rank
    above MAX_RANK is a ValueError.
    """
    if sum(n for _, n in cox_type) > MAX_RANK:
        raise ValueError(f"rank above cap {MAX_RANK}")
    order = 1
    for letter, n in cox_type:
        factor = _WEYL_ORDERS[letter](n) if letter in _WEYL_ORDERS and n >= 1 else None
        if factor is None:
            raise ValueError(f"no finite Coxeter type {letter}{n}")
        order *= factor
    return order


def cartan_matrix(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix C with C[i][j] = <alpha_j, alpha_i^vee>, for a letter and
    rank that ``coxeter_order`` admits."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif letter in ("B", "C"):
        for i in range(rank - 2):
            link(i, i + 1)
        if rank >= 2:
            if letter == "B":
                link(rank - 2, rank - 1, -2, -1)
            else:
                link(rank - 2, rank - 1, -1, -2)
    elif letter == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif letter == "E":
        # Bourbaki labels 1..rank mapped to 0..rank-1; node 2 hangs off node 4.
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif letter == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    else:  # G2
        link(0, 1, -3, -1)
    return C


def _roots_of_type(cox_type: CoxType) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """All roots (in simple-root coordinates) and the block Cartan matrix."""
    total = sum(n for _, n in cox_type)
    C = [[0] * total for _ in range(total)]
    off = 0
    for letter, n in cox_type:
        block = cartan_matrix(letter, n)
        for i in range(n):
            for j in range(n):
                C[off + i][off + j] = block[i][j]
        off += n

    simple = [tuple(1 if k == i else 0 for k in range(total)) for i in range(total)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        frontier = {_reflect(C, i, v) for v in frontier for i in range(total)} - roots
        roots |= frontier
    return sorted(roots), C


def _reflect(C, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """The simple reflection s_i(v) = v - <v, alpha_i^vee> alpha_i, in simple-root coordinates."""
    w = list(v)
    w[i] -= sum(c * x for c, x in zip(C[i], v))
    return tuple(w)


class CoxeterGroup:
    """A finite Coxeter group enumerated as permutations of its root set.

    Elements are tuples perm with perm[i] = index of w(root_i) in the sorted
    root list.  Lengths come from breadth-first search depth over the fixed
    generator order and are cross-checked against the inversion count.
    """

    MAX_ELEMENTS = 100000

    def __init__(self, cox_type: CoxType):
        self.cox_type = cox_type
        self.rank = sum(n for _, n in cox_type)
        order = coxeter_order(cox_type)
        if order > self.MAX_ELEMENTS:
            raise ValueError(f"group of order {order} too large to enumerate")
        roots, C = _roots_of_type(cox_type)
        self.roots = roots
        self._index = {r: i for i, r in enumerate(roots)}
        gens = [tuple(self._index[_reflect(C, i, v)] for v in roots) for i in range(self.rank)]
        self.generators = gens

        identity = tuple(range(len(roots)))
        self.elements = [identity]
        self.length = {identity: 0}
        self.word = {identity: ()}
        frontier = [identity]
        while frontier:
            nxt = []
            for w in frontier:
                for gi, s in enumerate(gens):
                    ws = tuple(w[s[i]] for i in range(len(roots)))
                    if ws not in self.length:
                        self.length[ws] = self.length[w] + 1
                        self.word[ws] = self.word[w] + (gi,)
                        self.elements.append(ws)
                        nxt.append(ws)
            frontier = nxt
        self.elements.sort(key=lambda w: (self.length[w], self.word[w]))
        if len(self.elements) != order:
            raise AssertionError(f"enumerated {len(self.elements)} elements, expected {order}")

    def multiply_gen(self, w: tuple, gi: int) -> tuple:
        """Right multiplication w -> w s_{gi}."""
        s = self.generators[gi]
        return tuple(w[s[i]] for i in range(len(w)))

    def inversion_length(self, w: tuple) -> int:
        """Number of positive roots sent to negative roots by w."""
        count = 0
        for i, v in enumerate(self.roots):
            if all(c >= 0 for c in v) and any(c > 0 for c in v):
                if any(c < 0 for c in self.roots[w[i]]):
                    count += 1
        return count

    def __len__(self) -> int:
        return len(self.elements)
