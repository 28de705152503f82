"""Exact matrix models of nilpotent elements preserving a bilinear form.

Everything here is exact over the rationals, with no floating point: entries
are plain ints, and a fractions.Fraction appears (and the fractions module is
imported) only for a quotient that is not integral.  Dimensions are counted by
exact ranks, so centralizer and orbit dimensions are certificates, not
estimates.  The orbit dimension is the rank of ad D on the isometry algebra g,
written in the form's own coordinates: Y in g is S = J Y with S^T = -eps S,
and Y commutes with D exactly when S D + D^T S = 0.  Matrices are sparse rows
inside, with one elimination for all row reduction and one product for all
products.  A model is checked once, when it is made, for J invertible,
J^T = eps J, D^T J + J D = 0 and D nilpotent, and trusted after.  Nothing
here bounds the size of a model; the command line checks it first.
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

from collections import namedtuple
from itertools import compress

from .degeneration import DegenPair
from .errors import ContractError
from .partitions import EpsDiagram, Partition

Scalar = int  # else a fractions.Fraction, where not integral; naming it would import fractions
Matrix = list[list[Scalar]]
Row = dict[int, Scalar]  # sparse row: variable -> coefficient


def _rows(m) -> list[Row]:
    """Sparse rows of a dense matrix; of its transpose as _rows(zip(*m))."""
    return [dict(compress(enumerate(row), row)) for row in m]


def _mul(a: list[Row], b: list[Row]) -> list[Row]:
    """The product of two matrices in sparse rows."""
    out = []
    for arow in a:
        row: Row = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                row[j] = row.get(j, 0) + x * y
        out.append({j: v for j, v in row.items() if v})
    return out


def _is_nilpotent(m: list[Row]) -> bool:
    """Whether the square m is nilpotent: m^(2^k) = 0 for the least 2^k > n."""
    for _ in range(len(m).bit_length()):
        m = _mul(m, m)
    return not any(m)


def _square(m, n: int) -> bool:
    return len(m) == n and all(len(row) == n for row in m)


def _symmetric(m: list[Row], sign: int) -> bool:
    """Whether the square m has m^T = sign m."""
    return all(m[j].get(i, 0) == sign * x for i, row in enumerate(m) for j, x in row.items())


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


class NilpotentModel(namedtuple("NilpotentModel", "eps gram nilpotent")):
    """A nilpotent matrix inside the isometry Lie algebra of an exact form."""

    __slots__ = ()

    eps: int
    gram: tuple[tuple[Scalar, ...], ...]
    nilpotent: tuple[tuple[Scalar, ...], ...]

    def __new__(cls, eps: int, gram, nilpotent) -> "NilpotentModel":
        """ContractError unless J is invertible, J^T = eps J, D^T J + J D = 0 and D^n = 0."""
        n, J, D = len(gram), _rows(gram), _rows(nilpotent)
        if len(_eliminate(J)[0]) != n:
            raise ContractError("gram matrix is singular")
        if not (_square(gram, n) and _symmetric(J, eps)):
            raise ContractError(f"gram matrix is not eps={eps:+d} symmetric")
        # (J D)^T = eps D^T J once J^T = eps J, so D^T J + J D = 0 reads (J D)^T = -eps J D
        if not (_square(nilpotent, n) and _symmetric(_mul(J, D), -eps)):
            raise ContractError("nilpotent map does not preserve the form")
        if not _is_nilpotent(D):
            raise ContractError("nilpotent map is not nilpotent")
        return super().__new__(cls, eps, gram, nilpotent)

    @classmethod
    def _make(cls, iterable) -> "NilpotentModel":
        return cls(*iterable)  # _replace builds through _make, so it validates too

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def D(self) -> Matrix:
        return [list(row) for row in self.nilpotent]


def _freeze(m) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(row) for row in m)


def build_nilpotent_model(lam: Partition, eps: int) -> NilpotentModel:
    """Deterministic block-wise model with Jordan type lam."""
    lam = EpsDiagram(lam, eps).partition
    n = lam.size
    J, D = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    offset = 0
    pending: dict[int, int] = {}  # part size -> offset of an unpaired block
    self_dual_parity = 1 if eps == 1 else 0
    for m in lam:
        for i in range(m - 1):  # D is the Jordan matrix of lam for either eps
            D[offset + i][offset + i + 1] = 1
        if m % 2 == self_dual_parity:
            # single block: Gram (e_i, e_j) = (-1)^(i+1) on the anti-diagonal
            for i in range(m):
                J[offset + i][offset + m - 1 - i] = (-1) ** (i + 1)
        elif m in pending:
            # hyperbolic pairing with the earlier block of the same size
            first = pending.pop(m)
            for i in range(m):
                sign = (-1) ** (i + 1)
                J[first + i][offset + m - 1 - i] = sign
                J[offset + m - 1 - i][first + i] = eps * sign
        else:
            pending[m] = offset
        offset += m
    return NilpotentModel(eps=eps, gram=_freeze(J), nilpotent=_freeze(D))


def jordan_type(m: Matrix) -> Partition:
    """Jordan type of a nilpotent matrix from the ranks of its powers."""
    d = _rows(m)
    if not (_square(m, len(m)) and _is_nilpotent(d)):
        raise ContractError("matrix is not nilpotent")
    ranks, power = [len(d)], d
    while ranks[-1]:
        ranks.append(len(_eliminate(power)[0]))
        power = _mul(power, d)
    return Partition([a - b for a, b in zip(ranks, ranks[1:])]).dual()


def algebra_dim(n: int, eps: int) -> int:
    """Dimension of so_n (eps=+1) or sp_n (eps=-1)."""
    if n < 0:
        raise ContractError(f"dimension must be nonnegative, got {n}")
    if eps == -1 and n % 2 == 1:
        raise ContractError(f"symplectic spaces are even-dimensional, got {n}")
    return n * (n - eps) // 2


def _centralizer_rows(model: NilpotentModel) -> list[Row]:
    """The entries i <= j of S D + D^T S = 0, with S = J Y and S_kl (k <= l) as variable kN + l.

    Y is in g exactly when S^T = -eps S (so S_kk = 0 for eps = +1), and then commutes with D
    exactly when S D + D^T S = 0, as J is invertible, J^T = eps J and D^T J + J D = 0, which
    the model was checked for when it was made.  Entry (i, j) has one term per nonzero of
    columns i and j of D, two in a built model.
    """
    eps, J, D = model
    n = len(J)
    d_cols = [col.items() for col in _rows(zip(*D))]
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


def orbit_dim(lam: Partition, eps: int) -> int:
    """Adjoint-orbit dimension of the nilpotent class labelled by lam."""
    model = build_nilpotent_model(lam, eps)
    return algebra_dim(model.dim, eps) - centralizer_dim(model)


def codim_oracle(pair: DegenPair) -> int:
    """Codimension of the bottom orbit inside the closure of the top orbit."""
    return orbit_dim(pair.top, pair.eps) - orbit_dim(pair.bottom, pair.eps)


def _solve_in_span(basis: list[Row], targets: list[Row]) -> Matrix:
    """Coordinates of each target in the span of the basis, one list per target: the basis
    must be independent and each target in its span, which is not checked."""
    # tag u_j with variable -1-j; a reduced target keeps minus its coordinates there
    pivots = _eliminate([{**u, -1 - j: 1} for j, u in enumerate(basis)])[0]
    rests = [_reduce(pivots, target) for target in targets]
    return [[-rest.get(-1 - j, 0) for j in range(len(basis))] for rest in rests]


def restrict_to_image(model: NilpotentModel) -> NilpotentModel:
    """Model induced on the image of the nilpotent map, with the form flipped.

    The image carries the form beta(Dv, u) = (v, u); the map restricts to the image, and
    its Jordan type loses its first column.  A zero map gives the zero space and empty form.
    The input was checked when it was made, and the result is checked as it is made, so a
    form that is not of type -eps on the image, or a map that is not nilpotent there, is refused.
    """
    # the columns of D that raise the rank: a basis u_j = D e_{c_j} of the image, and D u_j in it
    columns = _rows(zip(*model.nilpotent))
    pivot_cols = _eliminate(columns)[1]
    # beta(u_i, u_j) = e_{c_i}^T J D e_{c_j}
    JD = _mul(_rows(model.gram), _rows(model.nilpotent))
    gram = [[JD[ci].get(cj, 0) for cj in pivot_cols] for ci in pivot_cols]
    # D maps the image into itself; D u_j is column c_j of D^2, so row c_j of D^T D^T
    square = _mul(columns, columns)
    coords = _solve_in_span([columns[c] for c in pivot_cols], [square[c] for c in pivot_cols])
    return NilpotentModel(-model.eps, _freeze(gram), _freeze(zip(*coords)))
