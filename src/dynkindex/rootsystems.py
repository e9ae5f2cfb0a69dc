"""Root systems of the simple Lie algebras over exact arithmetic.

Positive roots are integer coordinate vectors in the simple-root basis,
generated by root-string closure, each root looked up by its coordinates
packed into one int.  The invariant form gives long roots squared length 2.

Every type constant is computed once, in the constructor, as a scaled
integer: the half squared lengths of the simple roots and the Gram matrix
times the root-length ratio ``r``, and the product and the square sum of
the scaled pairings (rho, gamma) over the positive roots.  The forms sum
over these integers and divide once, so every result is an exact integer
or Fraction.  Only the fundamental weights and the weight form read the
inverse Cartan matrix, as ``det C`` and the adjugate ``det C * C^-1``,
computed on access by integer elimination from the leaves of the Dynkin
tree, one row of all n columns per vertex.  Broken invariants raise
``ArithmeticError`` in every run mode, ``python -O`` included.

Simple roots are numbered as in Bourbaki, so fundamental-weight coordinates
agree with the usual tables (e.g. the first fundamental weight of E6 carries
the 27-dimensional representation).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import lcm, prod
from operator import add, gt, index, mul, not_

FAMILIES = "ABCDEFG"
EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")

# Smallest accepted rank per classical family.  C2 and D3 duplicate B2 and A3
# and are accepted as alternative presentations of the same algebra; D2 would
# be reducible and is rejected.
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_LABEL_RE = re.compile(r"^([A-Ga-g])[_ ]?([0-9]+)$")


@dataclass(frozen=True, order=True)
class LieType:
    """Label of a simple Lie algebra: family A..G plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.is_exceptional:
            if str(self) not in EXCEPTIONAL:
                labels = ", ".join(x for x in EXCEPTIONAL if x[0] == self.family)
                raise ValueError(f"type {self.family} exists only as {labels}")
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"type {self.family} requires rank >= {_MIN_RANK[self.family]}"
            )

    @classmethod
    def parse(cls, label: str) -> "LieType":
        m = _LABEL_RE.match(label.strip())
        if not m:
            raise ValueError(f"cannot parse Lie type label {label!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    @property
    def is_exceptional(self) -> bool:
        return self.family in "EFG"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class ClassicalKind:
    """The facts of one classical kind sl, sp or so of V that the routes read."""

    paired: tuple[int, ...]  # the parities of the parts that pair up in a Jordan type
    squares: tuple[int, ...]  # squares of V summing to the adjoint: +1 Sym^2, -1 Lambda^2
    vector_index: int  # the Dynkin index of V
    families: tuple[tuple[str, int, int], ...]  # (family, a, b) with dim V = a * rank + b


# sl(V) = V (x) V* less the scalars is Sym^2 V + Lambda^2 V - 1 (V = V* over sl2).
_KIND_TABLE = {
    "sl": ClassicalKind((), (1, -1), 1, (("A", 1, 1),)),
    "sp": ClassicalKind((1,), (1,), 1, (("C", 2, 0),)),
    "so": ClassicalKind((0,), (-1,), 2, (("B", 2, 1), ("D", 2, 0))),
}
KINDS = tuple(_KIND_TABLE)


def classical_kind(name: str) -> ClassicalKind:
    """The record of a classical kind; the one check of a kind name."""
    if name not in _KIND_TABLE:
        raise ValueError(f"unknown kind {name!r}, expected sl, sp or so")
    return _KIND_TABLE[name]


def classical_type(kind: str, dim: int) -> LieType:
    """Simple type of the matrix algebra sl/sp/so of the given size; a rank
    below its family's smallest is refused (so4 is not simple; for so3 use
    sl2 = A1), and sp2 is A1."""
    record = classical_kind(kind)
    if kind == "sp" and dim == 2:
        return LieType("A", 1)  # sp2 = sl2
    for family, a, b in record.families:
        rank, rest = divmod(dim - b, a)
        if not rest and rank >= _MIN_RANK[family]:
            return LieType(family, rank)
    forms = " or ".join(
        f"{f}_n (n >= {_MIN_RANK[f]}) at dim {a if a > 1 else ''}n{f'+{b}' if b else ''}"
        for f, a, b in record.families
    )
    raise ValueError(f"no simple type {kind}{dim}: {kind} is {forms}")


def defining_module(lt: LieType) -> tuple[str, int] | None:
    """Classical kind and size of the defining module of a classical type,
    the inverse of classical_type; None for the exceptional types."""
    for kind, record in _KIND_TABLE.items():
        for family, a, b in record.families:
            if family == lt.family:
                return kind, a * lt.rank + b
    return None


def all_types(max_rank: int):
    """Every classical type from its smallest rank up to max_rank, family by
    family (A, B, C, D), then the exceptional types."""
    for family in "ABCD":
        for n in range(_MIN_RANK[family], max_rank + 1):
            yield LieType(family, n)
    for label in EXCEPTIONAL:
        yield LieType.parse(label)


@dataclass(frozen=True)
class Root:
    """A positive root: integer coordinates in the simple-root basis."""

    coords: tuple[int, ...]
    height: int
    is_long: bool
    norm2: Fraction


def _cartan_matrix(lt: LieType) -> tuple[tuple[int, ...], ...]:
    # Entry [i][j] is the pairing of alpha_i with the coroot of alpha_j.
    n = lt.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    fam = lt.family
    if fam in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B":
            bond(n - 2, n - 1, -2, -1)  # last simple root short
        if fam == "C":
            bond(n - 2, n - 1, -1, -2)  # last simple root long
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]:
            bond(i, j)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    else:  # G2, first root short
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in c)


def _require(condition: bool, message: str, *args) -> None:
    # An invariant check that, unlike assert, also runs under python -O.  With
    # args, the message is a str.format template, filled only on failure, so a
    # check that holds costs no formatting.
    if not condition:
        raise ArithmeticError(message.format(*args) if args else message)


def _integer(value, what: str) -> int:
    try:
        return index(value)  # refuses floats, Fractions and strings
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _integers(values, what: str) -> list[int]:
    values = tuple(values)  # an iterator is read once, before either pass
    try:
        return list(map(index, values))
    except TypeError:  # _integer names the first item that is not an integer
        return [_integer(x, what) for x in values]


def _dynkin_tree(cartan):
    # The one walk of the Dynkin diagram, breadth-first from vertex 0: the
    # neighbours, parents (-1 at vertex 0), visiting order and children.  Then,
    # eliminating from the leaves, sub[u] is the determinant of the subtree at u
    # and below[u] the product of sub over u's children: u's pivot is
    # sub[u] / below[u].  Raises unless the diagram is a tree with positive pivots.
    n = len(cartan)
    nbrs = [[v for v in range(n) if v != u and cartan[u][v]] for u in range(n)]
    _require(sum(map(len, nbrs)) == 2 * (n - 1), "Dynkin diagram is not a tree")
    parent = [-1] * n
    order = [0]
    for u in order:
        for v in nbrs[u]:
            if v and parent[v] < 0:
                parent[v] = u
                order.append(v)
    _require(len(order) == n, "Dynkin diagram is not a tree")
    children = [[v for v in nbrs[u] if v != parent[u]] for u in range(n)]
    sub = [0] * n
    below = [1] * n
    for u in reversed(order):
        below[u] = prod(sub[c] for c in children[u])
        sub[u] = cartan[u][u] * below[u] - sum(
            cartan[u][c] * cartan[c][u] * below[c] * (below[u] // sub[c])
            for c in children[u]
        )
        _require(sub[u] > 0, "Cartan matrix is not positive definite")
    return nbrs, parent, order, children, sub, below


def _simple_norms(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    # Half squared lengths d_j of the simple roots, scaled so max(d) = 1.
    # Symmetry of the form forces c[i][j] d_j = c[j][i] d_i along each bond,
    # so each d_v follows from its parent's along the walk of the tree.  From
    # d_0 = |product of the bond entries c[parent][v]| every division is exact.
    parent, order = _dynkin_tree(cartan)[1:3]
    d = [abs(prod(cartan[parent[v]][v] for v in order[1:]))] * len(cartan)
    for v in order[1:]:
        d[v] = d[parent[v]] * cartan[v][parent[v]] // cartan[parent[v]][v]
    top = max(d)
    return tuple(Fraction(x, top) for x in d)


def _positive_root_coords(cartan: tuple[tuple[int, ...], ...]):
    # Closure over integer root ids, simple roots first.  Each root keeps its
    # coroot pairings and, until it is read, the lengths of the alpha_i-strings
    # below it: gamma + alpha_i is a root iff that length exceeds the pairing,
    # and every edge gamma -> gamma + alpha_i records the new root's
    # alpha_i-string as gamma's plus one.  Ids ascend with height, so reading
    # them in order goes layer by layer and a root's strings are complete
    # before it is read.  The first edge into a root records its parent id
    # and step i; the simple roots record nothing.  No finite type has more than
    # max(n^2, 120) positive roots (B_n, C_n; E8), so a longer closure is refused.
    # A root's key packs its coordinates into one int, `width` bits each (a
    # coordinate is at most the height, so at most the cap): an edge adds unit[i].
    n = len(cartan)
    cap = max(n * n, 120)
    width = cap.bit_length()
    unit = [1 << (width * i) for i in range(n)]
    bonds = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    keys = list(unit)
    ids = {key: k for k, key in enumerate(keys)}
    ordered = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pairings = [list(row) for row in cartan]
    below = {k: [0] * n for k in range(n)}
    parents, steps = [], []
    for k, (key, coords) in enumerate(zip(keys, ordered)):  # both grow as roots are found
        p = pairings[k]
        q = below.pop(k)
        for i in compress(range(n), map(gt, q, p)):
            new = key + unit[i]
            m = ids.get(new)
            if m is None:
                m = ids[new] = len(keys)
                _require(m < cap, "root closure of {} passes {} roots", cartan, cap)
                keys.append(new)
                up = list(coords)
                up[i] += 1
                ordered.append(tuple(up))
                pairing = p.copy()  # p + cartan[i], entry by nonzero entry
                for j, c in bonds[i]:
                    pairing[j] += c
                pairings.append(pairing)
                below[m] = [0] * n
                parents.append(k)
                steps.append(i)
            below[m][i] = q[i] + 1
    return ordered, pairings, tuple(parents), tuple(steps)


def _cartan_adjugate(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # det C and det C * C^-1 in integers.  The Dynkin diagram is a tree, so
    # eliminating from the leaves towards vertex 0 creates no fill-in.  All n
    # columns are solved at once, as rows of right-hand sides: the forward pass
    # keeps each eliminated row t[u] as the integer row s[u] = t[u] * below[u],
    # s[u] = e_u * below[u] - sum over children c of C[u][c] (below[u] / sub[c]) s[c],
    # and back-substitution yields row u of det C * C^-1 with exact divisions.
    n = len(cartan)
    nbrs, parent, order, children, sub, below = _dynkin_tree(cartan)
    det = sub[0]
    s = [None] * n
    for u in reversed(order):
        s[u] = row = [0] * n
        row[u] = below[u]
        for c in children[u]:
            w = -cartan[u][c] * (below[u] // sub[c])
            row[:] = map(add, row, map(w.__mul__, s[c]))
    x = [s[0]] * n  # row 0 is det * s[0] / sub[0] = s[0]; the others follow
    for u in order[1:]:
        f = cartan[u][parent[u]] * below[u]
        x[u] = [(det * t - f * v) // sub[u] for t, v in zip(s[u], x[parent[u]])]
    # C X = det I, row by row over the tree's edges.
    for u in range(n):
        row = list(map(cartan[u][u].__mul__, x[u]))
        for v in nbrs[u]:
            row[:] = map(add, row, map(cartan[u][v].__mul__, x[v]))
        row[u] -= det
        _require(not any(row), "inexact inverse of the Cartan matrix")
    return det, tuple(map(tuple, x))


def _clear_denominators(vector) -> tuple[list[int], int]:
    # Integers v * den with den the least common denominator of the vector.
    den = lcm(*(v.denominator for v in vector))
    return [v.numerator * (den // v.denominator) for v in vector], den


def _int_bilinear(matrix, xs, ys) -> int:
    # xs^T matrix ys for integer vectors and an integer matrix.
    return sum(map(mul, xs, [sum(map(mul, row, ys)) for row in matrix]))


def _bilinear(matrix, x, y, scale: int) -> Fraction:
    # x^T matrix y / scale for an integer matrix: integer sums, one Fraction.
    xs, dx = _clear_denominators(x)
    ys, dy = _clear_denominators(y)
    return Fraction(_int_bilinear(matrix, xs, ys), scale * dx * dy)


class RootSystem:
    """Immutable container for the root data of one simple type.

    All attributes are fixed at construction: once ``__init__`` returns,
    assigning or deleting an instance attribute raises ``AttributeError``.
    Instances can be shared freely across threads.

    The type constants are attributes: ``rank``, ``dimension``, ``r``,
    ``theta``, ``coxeter_number`` h = 1 + height(theta), the dual Coxeter
    number ``dual_coxeter_number`` h* = 1 + (rho, theta-check),
    ``dual_coxeter_number_of_dual`` = 1 + height(theta_short) (h* of the
    Langlands dual), the ``exponents`` (the conjugate of the height
    distribution), and ``height_sums``, the height totals over the long and
    the short positive roots split by ``Root.is_long``, so a simply-laced
    type reads (total, 0).  The combination long + r * short is twice the
    squared length of the coroot half-sum.
    """

    def __init__(self, lie_type: LieType):
        try:
            self._construct(lie_type)
        except ArithmeticError as exc:
            raise ArithmeticError(f"{lie_type}: {exc}") from None

    def _construct(self, lie_type: LieType) -> None:
        self.lie_type = lie_type
        self.rank = lie_type.rank
        self.cartan = _cartan_matrix(lie_type)
        self.simple_norms = _simple_norms(self.cartan)
        # The shortest simple root has d = 1/r, so r is the common denominator.
        self.r = scale = lcm(*(d.denominator for d in self.simple_norms))
        _require(scale in (1, 2, 3), "root length ratio {} is not 1, 2 or 3", scale)
        int_norms = tuple(d.numerator * scale // d.denominator for d in self.simple_norms)
        int_gram = tuple(tuple(map(mul, row, int_norms)) for row in self.cartan)
        _require(int_gram == tuple(zip(*int_gram)), "Gram matrix is not symmetric")

        coords_list, pairings, parents, steps = _positive_root_coords(self.cartan)
        # scale * (gamma, gamma) along the parent edges:
        # |gamma + alpha_i|^2 = |gamma|^2 + 2 d_i (<gamma, alpha_i^vee> + 1).
        norms = [2 * w for w in int_norms]
        for parent, i in zip(parents, steps):
            norms.append(norms[parent] + 2 * int_norms[i] * (pairings[parent][i] + 1))
        norm2 = {norm: Fraction(norm, scale) for norm in set(norms)}
        heights = list(map(sum, coords_list))
        flags = list(map((2 * scale).__eq__, norms))
        roots = tuple(map(Root, coords_list, heights, flags, map(norm2.__getitem__, norms)))
        total = [sum(col) for col in zip(*coords_list)]
        long_total = [sum(col) for col in zip(*compress(coords_list, flags))]
        short_total = [t - lt for t, lt in zip(total, long_total)]
        self.positive_roots = roots
        self.dimension = self.rank + 2 * len(roots)

        # Exponents: the conjugate of the height distribution.
        counts = Counter(heights)
        exps = tuple(sum(1 for k in counts.values() if k >= j) for j in range(counts[1], 0, -1))
        _require(len(exps) == self.rank, "wrong number of exponents")
        _require(sum(2 * m + 1 for m in exps) == self.dimension, "exponents miss the dimension")
        self.exponents = exps

        top = max(heights)
        self.theta = roots[heights.index(top)]
        _require(counts[top] == 1, "highest root is not unique")
        _require(self.theta.norm2 == 2, "normalisation failed")
        self.coxeter_number = top + 1

        shorts = compress(range(len(roots)), map(not_, flags))
        self.theta_short = roots[max(shorts, key=heights.__getitem__, default=heights.index(top))]
        _require(self.theta_short.norm2 * scale == 2, "(theta_s, theta_s) * r is not 2")
        self.dual_coxeter_number_of_dual = 1 + self.theta_short.height

        # h* = 1 + (rho, theta-check) = 1 + (2 rho, theta) / 2, since
        # (theta, theta) = 2: one integer sum over the scaled Gram matrix.
        twice_rho_theta = _int_bilinear(int_gram, total, self.theta.coords)
        _require(twice_rho_theta % (2 * scale) == 0, "dual Coxeter number is not an integer")
        self.dual_coxeter_number = 1 + twice_rho_theta // (2 * scale)
        # A root's height is its coordinate sum, so the height totals are the
        # sums of the coordinate totals.
        self.height_sums = (sum(long_total), sum(short_total))

        self.rho = tuple(Fraction(t, 2) for t in total)
        # Coroot half-sum: each root contributes its coordinates divided by
        # its squared length, i.e. 1/2 for long roots and r/2 for short ones.
        self.rho_check = tuple(
            Fraction(lt + st * scale, 2) for lt, st in zip(long_total, short_total)
        )

        self._int_norms = int_norms
        self._int_gram = int_gram
        # Root k >= rank is root parents[k - rank] plus simple root steps[k - rank].
        self._root_parents = parents
        self._root_steps = steps
        # Over the positive roots, the Weyl denominator prod (rho, gamma) *
        # scale^N and sum (rho, gamma)^2 * scale^2 = h* (rho, rho) * scale^2.
        rho_pairings = self._scaled_root_pairings(int_norms)
        self._rho_product = prod(rho_pairings)
        self._rho_square_sum = sum(map(mul, rho_pairings, rho_pairings))
        self._index_denominator = self.dimension * scale**2 * self.dual_coxeter_number
        self._frozen = True

    def __setattr__(self, name: str, value) -> None:
        if "_frozen" in self.__dict__:
            raise AttributeError(f"{self!r} is immutable; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self!r} is immutable; cannot delete {name!r}")

    # -- bilinear form -----------------------------------------------------

    def form(self, x, y) -> Fraction:
        """Normalised invariant form between vectors in root coordinates.

        Sums over the integer Gram matrix scaled by ``r`` (rational
        entries are first put over a common denominator) and divides once.
        """
        return _bilinear(self._int_gram, x, y, self.r)

    def coroot_pairings(self, coords) -> tuple[int, ...]:
        """Pairings of an integer root-coordinate vector with every simple coroot."""
        return tuple(
            sum(ci * self.cartan[i][j] for i, ci in enumerate(coords))
            for j in range(self.rank)
        )

    def _scaled_root_pairings(self, shifted) -> list[int]:
        """r * (mu, gamma) for every positive root gamma, in root order,
        from r * (mu, alpha_i) for each simple root: one addition per
        root along its parent pointer."""
        values = list(shifted)
        for parent, i in zip(self._root_parents, self._root_steps):
            values.append(values[parent] + shifted[i])
        return values

    # -- weights -------------------------------------------------------------

    @property
    def fundamental_weights(self) -> tuple[tuple[Fraction, ...], ...]:
        """Fundamental weights as root-coordinate rows (inverse Cartan),
        read off the integer adjugate, which each access computes."""
        det, adjugate = _cartan_adjugate(self.cartan)
        value = {a: Fraction(a, det) for a in set(chain.from_iterable(adjugate))}
        return tuple(tuple(map(value.__getitem__, row)) for row in adjugate)

    def weight_form(self, a, b) -> Fraction:
        """Invariant form between two weights in fundamental coordinates.

        (omega_i, omega_j) = (C^-1)_ij d_j, so each call computes the integer
        matrix M_ij = det C * r * (omega_i, omega_j) from the adjugate,
        checks that it is symmetric, sums over it and divides once.
        """
        det, adjugate = _cartan_adjugate(self.cartan)
        gram = tuple(tuple(map(mul, row, self._int_norms)) for row in adjugate)
        _require(gram == tuple(zip(*gram)), "weight form is not symmetric")
        return _bilinear(gram, a, b, det * self.r)

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"


@lru_cache(maxsize=None)
def _build_cached(lt: LieType) -> RootSystem:
    return RootSystem(lt)


def build(label: str | LieType) -> RootSystem:
    """Build (or fetch from cache) the root system for a type label."""
    lt = LieType.parse(label) if isinstance(label, str) else label
    return _build_cached(lt)
