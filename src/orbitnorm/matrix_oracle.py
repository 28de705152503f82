"""Exact matrix models of nilpotent elements preserving a bilinear form.

Everything here is exact over the rationals, with no floating point: entries
are plain ints, and a fractions.Fraction appears (and the fractions module is
imported) only for a quotient that is not integral.  Dimensions are counted by
exact ranks, so centralizer and orbit dimensions are certificates, not
estimates.  The orbit dimension is the rank of ad D on the isometry algebra g,
written in the form's own coordinates: Y in g is S = J Y with S^T = -eps S,
and Y commutes with D exactly when S D + D^T S = 0.  One sparse elimination
does all row reduction: ranks, centralizer dimensions, and the basis of and
coordinates in the image of a nilpotent map.  Models obey the one enumeration
bound (ORBIT_MAX_SIZE, else 40) that check, survey and hasse obey.
The construction is block-wise: a part whose parity matches the form type gets
a single Jordan block with an alternating-sign anti-diagonal Gram block; the
remaining parts (which the diagram condition forces to come in even
multiplicities) are paired on hyperbolic subspaces with the shift acting on
both halves.

The model works in characteristic 0.  The quantities checked through it
(orbit dimensions, degeneration codimensions, the column-erasure identity)
are the same in any good characteristic, which is why a characteristic-0
oracle can back combinatorics stated for characteristic p > 2; the tests
compare centralizer ranks over Q and over F_p for p in {3, 5, 7, 11}.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import neg

from .degeneration import DegenPair
from .errors import ContractError
from .partitions import EpsDiagram, Partition, check_size

__all__ = [
    "NilpotentModel",
    "build_nilpotent_model",
    "jordan_type",
    "algebra_dim",
    "centralizer_dim",
    "orbit_dim",
    "codim_oracle",
    "restrict_to_image",
    "mat_mul",
    "mat_rank",
]

Scalar = int  # else a fractions.Fraction, where not integral; naming it would import fractions
Matrix = list[list[Scalar]]
Row = dict[int, Scalar]  # sparse row: variable -> coefficient


def _zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = _zeros(rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


def _reduce(pivots: dict[int, Row], raw: Row) -> Row:
    """Subtract pivot rows from a row until its leading variable has no pivot."""
    row = {k: v for k, v in raw.items() if v}
    while row:
        var = max(row)
        pivot = pivots.get(var)
        if pivot is None:
            break
        factor = row.pop(var)
        for k, v in pivot.items():
            new = row.get(k, 0) - factor * v
            if new:
                row[k] = new
            else:
                row.pop(k, None)
    return row


def _quotient(v: Scalar, c: Scalar) -> Scalar:
    """v / c, exact: an int when c divides v, else a Fraction."""
    q, r = divmod(v, c)
    if not r:
        return q
    from fractions import Fraction  # on demand: the systems of built models never get here

    return Fraction(v, c)


def _eliminate(rows: list[Row]) -> tuple[dict[int, Row], list[int]]:
    """Gaussian elimination of sparse rows, pivoting on the largest variable.

    Returns the pivot rows by pivot variable, scaled so the pivot coefficient
    (left out) is 1, and the indices of the rows that raised the rank, in order.
    """
    pivots: dict[int, Row] = {}
    raised: list[int] = []
    for index, raw in enumerate(rows):
        row = _reduce(pivots, raw)
        if row:
            var = max(row)
            coeff = row.pop(var)
            pivots[var] = {k: _quotient(v, coeff) for k, v in row.items()}
            raised.append(index)
    return pivots, raised


def _columns(m: Matrix) -> list[Row]:
    return [dict(enumerate(col)) for col in zip(*m)]


def mat_rank(m: Matrix) -> int:
    """Rank over the rationals by exact elimination."""
    return len(_eliminate([{j: x for j, x in enumerate(row) if x} for row in m])[0])


class NilpotentModel(namedtuple("NilpotentModel", "eps gram nilpotent")):
    """A nilpotent matrix inside the isometry Lie algebra of an exact form."""

    __slots__ = ()

    eps: int
    gram: tuple[tuple[Scalar, ...], ...]
    nilpotent: tuple[tuple[Scalar, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def J(self) -> Matrix:
        return [list(row) for row in self.gram]

    @property
    def D(self) -> Matrix:
        return [list(row) for row in self.nilpotent]


def _freeze(m: Matrix) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in m)


def build_nilpotent_model(lam: Partition, eps: int) -> NilpotentModel:
    """Deterministic block-wise model with Jordan type lam."""
    lam = EpsDiagram(lam, eps).partition
    n = lam.size
    check_size(n)
    J = _zeros(n, n)
    D = _zeros(n, n)
    offset = 0
    pending: dict[int, int] = {}  # part size -> offset of an unpaired block
    self_dual_parity = 1 if eps == 1 else 0
    for m in lam:
        if m % 2 == self_dual_parity:
            # single block: Gram (e_i, e_j) = (-1)^(i+1) on the anti-diagonal
            for i in range(m):
                J[offset + i][offset + m - 1 - i] = (-1) ** (i + 1)
                if i + 1 < m:
                    D[offset + i][offset + i + 1] = 1
            offset += m
        elif m in pending:
            # hyperbolic pairing with the earlier block of the same size
            first = pending.pop(m)
            for i in range(m):
                sign = (-1) ** (i + 1)
                J[first + i][offset + m - 1 - i] = sign
                J[offset + m - 1 - i][first + i] = eps * sign
                if i + 1 < m:
                    D[offset + i][offset + i + 1] = 1
            offset += m
        else:
            pending[m] = offset
            for i in range(m - 1):
                D[offset + i][offset + i + 1] = 1
            offset += m
    if pending:
        raise ContractError(f"{lam} leaves unpaired blocks {sorted(pending)} for eps={eps:+d}")
    return NilpotentModel(eps=eps, gram=_freeze(J), nilpotent=_freeze(D))


def jordan_type(m: Matrix) -> Partition:
    """Jordan type of a nilpotent matrix from its rank sequence."""
    n = len(m)
    if n == 0:
        return Partition()
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    ranks = [n]
    for _ in range(n):
        power = mat_mul(power, m)
        ranks.append(mat_rank(power))
        if ranks[-1] == 0:
            break
    if ranks[-1] != 0:
        raise ContractError("matrix is not nilpotent")
    column_heights = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return Partition(column_heights).dual()


def algebra_dim(n: int, eps: int) -> int:
    """Dimension of so_n (eps=+1) or sp_n (eps=-1)."""
    if n < 0:
        raise ContractError(f"dimension must be nonnegative, got {n}")
    if eps == -1 and n % 2 == 1:
        raise ContractError(f"symplectic spaces are even-dimensional, got {n}")
    return n * (n - eps) // 2


def _check_model(model: NilpotentModel) -> NilpotentModel:
    """The model, once J is invertible, J^T = eps J and D^T J + J D = 0; else ContractError."""
    eps, J, D = model
    n = len(J)
    # (J D)^T = eps D^T J once J^T = eps J, so D^T J + J D = 0 reads (J D)^T = -eps J D
    sym = lambda m, sign: list(zip(*m)) == [tuple(row if sign == 1 else map(neg, row)) for row in m]
    for holds, problem in ((mat_rank(J) == n, "gram matrix is singular"),
                           (sym(J, eps), f"gram matrix is not eps={eps:+d} symmetric"),
                           (sym(mat_mul(J, D), -eps), "nilpotent map does not preserve the form")):
        if not holds:
            raise ContractError(problem)
    return model


def _centralizer_rows(model: NilpotentModel) -> list[Row]:
    """The entries i <= j of S D + D^T S = 0, with S = J Y and S_kl (k <= l) as variable kN + l.

    Y is in g exactly when S^T = -eps S (so S_kk = 0 for eps = +1), and then commutes with D
    exactly when S D + D^T S = 0, as J is invertible, J^T = eps J and D^T J + J D = 0, checked
    first.  Entry (i, j) has one term per nonzero of columns i and j of D, two in a built model.
    """
    eps, J, D = _check_model(model)
    n = len(J)
    d_cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*D)]
    rows: list[Row] = []
    for i in range(n):
        for j in range(i + (eps == 1), n):  # (S D + D^T S)_ij = sum_k S_ik D_kj + D_ki S_kj
            row: Row = {}
            for a, b, c in [(i, k, c) for k, c in d_cols[j]] + [(k, j, c) for k, c in d_cols[i]]:
                if a != b or eps == -1:
                    var = min(a, b) * n + max(a, b)
                    row[var] = row.get(var, 0) + (c if a <= b else -eps * c)
            if row:
                rows.append(row)
    return rows


def centralizer_dim(model: NilpotentModel) -> int:
    """dim { Y in g : Y D = D Y } = dim g minus the rank of ad D on g, by exact elimination."""
    return algebra_dim(model.dim, model.eps) - len(_eliminate(_centralizer_rows(model))[0])


@lru_cache(maxsize=None)
def _orbit_dim_cached(lam: tuple[int, ...], eps: int) -> int:
    model = build_nilpotent_model(Partition(lam), eps)
    return algebra_dim(model.dim, eps) - centralizer_dim(model)


def orbit_dim(lam: Partition, eps: int) -> int:
    """Adjoint-orbit dimension of the nilpotent class labelled by lam."""
    return _orbit_dim_cached(tuple(Partition(lam)), eps)


def codim_oracle(pair: DegenPair) -> int:
    """Codimension of the bottom orbit inside the closure of the top orbit."""
    return orbit_dim(pair.top, pair.eps) - orbit_dim(pair.bottom, pair.eps)


def _solve_in_span(basis: list[Row], targets: list[Row]) -> Matrix:
    """Coordinates of each target in the span of the basis, one list per target."""
    # tag u_j with variable -1-j; a reduced target keeps minus its coordinates there
    pivots = _eliminate([{**u, -1 - j: 1} for j, u in enumerate(basis)])[0]
    if min(pivots, default=0) < 0:
        raise ContractError("basis columns are dependent")
    coords = []
    for target in targets:
        rest = _reduce(pivots, target)
        if max(rest, default=-1) >= 0:
            raise ContractError("target column outside the span")
        coords.append([-rest.get(-1 - j, 0) for j in range(len(basis))])
    return coords


def restrict_to_image(model: NilpotentModel) -> NilpotentModel:
    """Model induced on the image of the nilpotent map, with the form flipped.

    The image carries the form beta(Dv, u) = (v, u); the map restricts to the
    image, and its Jordan type loses its first column.  The result is checked
    like any model, so a bad input cannot come back labelled with form type -eps.
    """
    D, J = model.D, model.J
    # the columns of D that raise the rank give a basis u_j = D e_{c_j} of the image
    columns = _columns(D)
    pivot_cols = _eliminate(columns)[1]
    if not pivot_cols:
        raise ContractError("zero map has no image to restrict to")
    # beta(u_i, u_j) = e_{c_i}^T J D e_{c_j}
    JD = mat_mul(J, D)
    gram = [[JD[ci][cj] for cj in pivot_cols] for ci in pivot_cols]
    # D maps the image into itself; D u_j is column c_j of D^2
    square = _columns(mat_mul(D, D))
    coords = _solve_in_span([columns[c] for c in pivot_cols], [square[c] for c in pivot_cols])
    restricted = [list(row) for row in zip(*coords)]
    return _check_model(NilpotentModel(-model.eps, _freeze(gram), _freeze(restricted)))
