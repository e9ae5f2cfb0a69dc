"""Root systems of the simple Lie algebras over exact arithmetic.

Positive roots are integer coordinate vectors in the simple-root basis,
generated from the Cartan matrix by root-string closure.  The invariant
bilinear form is normalised so that long roots have squared length 2.

Every type constant is computed once, in the constructor, as a scaled
integer: the half squared lengths of the simple roots times ``_scale``, the
Gram matrix times ``_scale``, and the inverse Cartan matrix as ``det C`` and
the adjugate ``det C * C^-1``, found by eliminating from the leaves of the
Dynkin tree (integer-preserving in the sense of Bareiss).  The forms sum
over these integer matrices and divide once at the end, so every result is
an exact integer or Fraction.  Broken invariants raise ``ArithmeticError``
in every run mode, ``python -O`` included.

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
from itertools import compress
from math import lcm, prod
from operator import add, gt, index

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


def classical_type(kind: str, dim: int) -> LieType:
    """Simple type of the matrix algebra sl/sp/so of the given size.

    so3 and so4 are rejected: so4 is not simple and so3 has no standard
    presentation here (use sl2 / A1 instead).
    """
    if kind == "sl":
        if dim < 2:
            raise ValueError("sl requires dimension >= 2")
        return LieType("A", dim - 1)
    if kind == "sp":
        if dim < 2 or dim % 2:
            raise ValueError("sp requires even dimension >= 2")
        if dim == 2:
            return LieType("A", 1)
        return LieType("C", dim // 2)
    if kind == "so":
        if dim < 5:
            raise ValueError("so requires dimension >= 5 (so3/so4 are not supported)")
        if dim % 2:
            return LieType("B", (dim - 1) // 2)
        return LieType("D", dim // 2)
    raise ValueError(f"unknown classical kind {kind!r}, expected sl, sp or so")


def defining_module(lt: LieType) -> tuple[str, int] | None:
    """Classical kind and size of the defining module of a classical type,
    the inverse of classical_type; None for the exceptional types."""
    n = lt.rank
    return {
        "A": ("sl", n + 1),
        "B": ("so", 2 * n + 1),
        "C": ("sp", 2 * n),
        "D": ("so", 2 * n),
    }.get(lt.family)


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
        if fam == "B" and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # last simple root short
        if fam == "C" and n >= 2:
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


def _require(condition: bool, message: str) -> None:
    # An invariant check that, unlike assert, also runs under python -O.
    if not condition:
        raise ArithmeticError(message)


def _integer(value, what: str) -> int:
    try:
        return index(value)  # refuses floats, Fractions and strings
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _simple_norms(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    # Half squared lengths d_j of the simple roots, scaled so max(d) = 1.
    # Symmetry of the form forces c[i][j] d_j = c[j][i] d_i along each bond.
    n = len(cartan)
    d = {0: Fraction(1)}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and j not in d:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                queue.append(j)
    if len(d) != n:
        raise ValueError("Cartan matrix has a disconnected diagram")
    top = max(d.values())
    return tuple(d[j] / top for j in range(n))


def _positive_root_coords(cartan: tuple[tuple[int, ...], ...]):
    # Closure over integer root ids, simple roots first.  Each root keeps its
    # coroot pairings and, until it is read, the lengths of the alpha_i-strings
    # below it: gamma + alpha_i is a root iff that length exceeds the pairing,
    # and every edge gamma -> gamma + alpha_i records the new root's
    # alpha_i-string as gamma's plus one.  Ids ascend with height, so reading
    # them in order goes layer by layer and a root's strings are complete
    # before it is read.  The first edge into a root records its parent id
    # and step i; the simple roots record nothing.
    n = len(cartan)
    ordered = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    ids = {coords: k for k, coords in enumerate(ordered)}
    pairings = [list(row) for row in cartan]
    below = {k: [0] * n for k in range(n)}
    parents: list[int] = []
    steps: list[int] = []
    for k, coords in enumerate(ordered):  # the list grows as roots are found
        p = pairings[k]
        q = below.pop(k)
        for i in compress(range(n), map(gt, q, p)):
            up = list(coords)
            up[i] += 1
            new = tuple(up)
            m = ids.get(new)
            if m is None:
                m = ids[new] = len(ordered)
                ordered.append(new)
                pairings.append(list(map(add, p, cartan[i])))
                below[m] = [0] * n
                parents.append(k)
                steps.append(i)
            below[m][i] = q[i] + 1
    return ordered, pairings, tuple(parents), tuple(steps)


def _cartan_adjugate(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # det C and det C * C^-1 in integers.  The Dynkin diagram is a tree, so
    # eliminating from the leaves towards vertex 0 creates no fill-in.
    # sub[u] is the determinant of the subtree rooted at u and below[u] the
    # product of sub over the children of u, so u's pivot is sub[u] / below[u].
    # Each column j solves C x = e_j: the forward pass keeps every
    # eliminated right-hand side t[u] as the integer s[u] = t[u] * below[u],
    # and back-substitution yields det C * x with exact divisions.
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
    det = sub[0]
    # s[u] = e_j[u] * below[u] - sum over children c of
    # C[u][c] * (below[u] / sub[c]) * s[c].
    links = [
        [(c, cartan[u][c] * (below[u] // sub[c])) for c in children[u]] for u in range(n)
    ]
    columns = []
    for j in range(n):
        s = [0] * n
        for u in reversed(order):
            s[u] = (below[u] if u == j else 0) - sum(w * s[c] for c, w in links[u])
        x = [0] * n
        for u in order:
            up = cartan[u][parent[u]] * x[parent[u]] * below[u] if u else 0
            x[u] = (det * s[u] - up) // sub[u]
        # C x = det e_j, row by row over the tree's edges.
        for u in range(n):
            _require(
                cartan[u][u] * x[u] + sum(cartan[u][v] * x[v] for v in nbrs[u])
                == (det if u == j else 0),
                "inexact inverse of the Cartan matrix",
            )
        columns.append(x)
    return det, tuple(zip(*columns))


def _clear_denominators(vector) -> tuple[list[int], int]:
    # Integers v * den with den the least common denominator of the vector.
    den = lcm(*(v.denominator for v in vector))
    return [v.numerator * (den // v.denominator) for v in vector], den


def _int_bilinear(matrix, xs, ys) -> int:
    # xs^T matrix ys for integer vectors and an integer matrix.
    total = 0
    for xi, row in zip(xs, matrix):
        if xi:
            total += xi * sum(m * yj for m, yj in zip(row, ys) if yj)
    return total


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
        scale = lcm(*(d.denominator for d in self.simple_norms))
        int_norms = tuple(int(d * scale) for d in self.simple_norms)
        int_gram = tuple(
            tuple(c * w for c, w in zip(row, int_norms)) for row in self.cartan
        )
        _require(int_gram == tuple(zip(*int_gram)), "Gram matrix is not symmetric")

        coords_list, pairings, parents, steps = _positive_root_coords(self.cartan)
        # scale * (gamma, gamma) along the parent edges:
        # |gamma + alpha_i|^2 = |gamma|^2 + 2 d_i (<gamma, alpha_i^vee> + 1).
        norms = [2 * w for w in int_norms]
        for parent, i in zip(parents, steps):
            norms.append(norms[parent] + 2 * int_norms[i] * (pairings[parent][i] + 1))
        norm2 = {norm: Fraction(norm, scale) for norm in set(norms)}
        roots = [
            Root(coords, sum(coords), norm == 2 * scale, norm2[norm])
            for coords, norm in zip(coords_list, norms)
        ]
        total = [sum(col) for col in zip(*coords_list)]
        long_total = [sum(col) for col in zip(*(r.coords for r in roots if r.is_long))]
        short_total = [t - lt for t, lt in zip(total, long_total)]
        self.positive_roots = tuple(roots)
        self.dimension = self.rank + 2 * len(roots)

        # Exponents: the conjugate of the height distribution.
        counts = Counter(r.height for r in roots)
        exps = tuple(
            sum(1 for k in counts.values() if k >= j) for j in range(counts[1], 0, -1)
        )
        _require(len(exps) == self.rank, "wrong number of exponents")
        _require(
            sum(2 * m + 1 for m in exps) == self.dimension, "exponents miss the dimension"
        )
        self._exponents = exps

        self.theta = max(roots, key=lambda r: r.height)
        _require(
            sum(1 for r in roots if r.height == self.theta.height) == 1,
            "highest root is not unique",
        )
        _require(self.theta.norm2 == 2, "normalisation failed")

        shorts = [r for r in roots if not r.is_long]
        if shorts:
            self.theta_short = max(shorts, key=lambda r: r.height)
            ratio = 2 / self.theta_short.norm2
            _require(ratio in (2, 3), f"root length ratio {ratio} is not 2 or 3")
            self.r = int(ratio)
        else:
            self.theta_short = self.theta
            self.r = 1

        self.rho = tuple(Fraction(t, 2) for t in total)
        # Coroot half-sum: each root contributes its coordinates divided by
        # its squared length, i.e. 1/2 for long roots and r/2 for short ones.
        self.rho_check = tuple(
            Fraction(lt, 2) + Fraction(st * self.r, 2)
            for lt, st in zip(long_total, short_total)
        )

        # The scaled-integer kernel.  (omega_i, omega_j) = (C^-1)_ij d_j, so
        # the weight Gram matrix is the adjugate times the scaled norms.
        det, adjugate = _cartan_adjugate(self.cartan)
        weight_gram = tuple(
            tuple(a * w for a, w in zip(row, int_norms)) for row in adjugate
        )
        _require(weight_gram == tuple(zip(*weight_gram)), "weight form is not symmetric")
        self._scale = scale
        self._int_norms = int_norms
        self._int_gram = int_gram
        self._det = det
        self._adjugate = adjugate
        self._weight_gram = weight_gram
        # Root k >= rank is root parents[k - rank] plus simple root steps[k - rank].
        self._root_parents = parents
        self._root_steps = steps
        # Weyl denominator prod (rho, gamma) * scale^N over the positive roots.
        self._rho_product = prod(self._scaled_root_pairings(int_norms))
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

        Sums over the integer Gram matrix scaled by ``_scale`` (rational
        entries are first put over a common denominator) and divides once.
        """
        return _bilinear(self._int_gram, x, y, self._scale)

    def coroot_pairings(self, coords) -> tuple[int, ...]:
        """Pairings of an integer root-coordinate vector with every simple coroot."""
        return tuple(
            sum(ci * self.cartan[i][j] for i, ci in enumerate(coords))
            for j in range(self.rank)
        )

    def _scaled_root_pairings(self, shifted) -> list[int]:
        """scale * (mu, gamma) for every positive root gamma, in root order,
        from scale * (mu, alpha_i) for each simple root: one addition per
        root along its parent pointer."""
        values = list(shifted)
        for parent, i in zip(self._root_parents, self._root_steps):
            values.append(values[parent] + shifted[i])
        return values

    # -- weights -------------------------------------------------------------

    @property
    def fundamental_weights(self) -> tuple[tuple[Fraction, ...], ...]:
        """Fundamental weights as root-coordinate rows (inverse Cartan),
        read off the integer adjugate on each access."""
        return tuple(
            tuple(Fraction(a, self._det) for a in row) for row in self._adjugate
        )

    def weight_form(self, a, b) -> Fraction:
        """Invariant form between two weights in fundamental coordinates.

        Sums over the integer matrix M_ij = det C * scale * (omega_i, omega_j)
        and divides once.
        """
        return _bilinear(self._weight_gram, a, b, self._det * self._scale)

    # -- classical invariants ------------------------------------------------

    def coxeter_number(self) -> int:
        return self.theta.height + 1

    def dual_coxeter_number(self) -> int:
        # 1 + (rho, theta-check); theta-check = theta since (theta,theta) = 2.
        value = 1 + self.form(self.rho, self.theta.coords)
        _require(value.denominator == 1, f"dual Coxeter number {value} is not an integer")
        return int(value)

    def dual_coxeter_number_of_dual(self) -> int:
        """Dual Coxeter number of the Langlands dual root system."""
        return 1 + self.theta_short.height

    def exponents(self) -> tuple[int, ...]:
        """Exponents, read off as the conjugate of the height distribution."""
        return self._exponents

    def height_sums(self) -> tuple[int, int]:
        """Height totals over long and short positive roots.

        In the simply-laced case every root is reported under the short sum,
        matching the convention that makes the r-weighted combination equal
        twice the squared length of the coroot half-sum.
        """
        long_sum = sum(r.height for r in self.positive_roots if r.is_long)
        short_sum = sum(r.height for r in self.positive_roots if not r.is_long)
        if self.r == 1:
            return 0, long_sum + short_sum
        return long_sum, short_sum

    def rho_check_norm2_doubled(self) -> Fraction:
        return 2 * self.form(self.rho_check, self.rho_check)

    def strange_formula_holds(self) -> bool:
        """Freudenthal-de Vries: (rho,rho) = dim*h^*/12 in this normalisation."""
        expected = Fraction(self.dimension * self.dual_coxeter_number(), 12)
        return self.form(self.rho, self.rho) == expected

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"


@lru_cache(maxsize=None)
def _build_cached(lt: LieType) -> RootSystem:
    return RootSystem(lt)


def build(label: str | LieType) -> RootSystem:
    """Build (or fetch from cache) the root system for a type label."""
    lt = LieType.parse(label) if isinstance(label, str) else label
    return _build_cached(lt)
