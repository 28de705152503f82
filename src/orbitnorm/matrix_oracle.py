"""Exact matrix models of nilpotent elements preserving a bilinear form.

Everything here runs over the rationals with fractions.Fraction; no floating
point.  Dimensions are counted by exact ranks, so centralizer and orbit
dimensions are certificates, not estimates.  The construction is block-wise:
a part whose parity matches the form type gets a single Jordan block with an
alternating-sign anti-diagonal Gram block; the remaining parts (which the
diagram condition forces to come in even multiplicities) are paired on
hyperbolic subspaces with the shift acting on both halves.

The model works in characteristic 0.  The quantities checked through it
(orbit dimensions, degeneration codimensions, the column-erasure identity)
are the same in any good characteristic, which is why a characteristic-0
oracle can back combinatorics stated for characteristic p > 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .degeneration import DegenPair
from .errors import CapacityError, ContractError
from .partitions import EpsDiagram, Partition, is_eps_diagram

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

#: Centralizer systems have N^2 unknowns; keep exact solves comfortable.
DEFAULT_MAX_DIM = 24

Matrix = list[list[Fraction]]


def _zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


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


def mat_rank(m: Matrix) -> int:
    """Rank over the rationals by Gaussian elimination."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


@dataclass(frozen=True)
class NilpotentModel:
    """A nilpotent matrix inside the isometry Lie algebra of an exact form."""

    dim: int
    eps: int
    gram: tuple[tuple[Fraction, ...], ...]
    nilpotent: tuple[tuple[Fraction, ...], ...]

    @property
    def J(self) -> Matrix:
        return [list(row) for row in self.gram]

    @property
    def D(self) -> Matrix:
        return [list(row) for row in self.nilpotent]

    def to_json(self) -> dict:
        def fmt(m):
            return [[f"{x.numerator}/{x.denominator}" for x in row] for row in m]

        return {
            "dim": self.dim,
            "eps": self.eps,
            "gram": fmt(self.gram),
            "nilpotent": fmt(self.nilpotent),
        }


def _freeze(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def build_nilpotent_model(
    lam: Partition, eps: int, max_dim: int = DEFAULT_MAX_DIM
) -> NilpotentModel:
    """Deterministic block-wise model with Jordan type lam."""
    lam = Partition(lam)
    if not is_eps_diagram(lam, eps):
        raise ContractError(f"{lam} is not a valid diagram for eps={eps:+d}")
    n = lam.size
    if n > max_dim:
        raise CapacityError(f"dimension {n} exceeds the oracle bound {max_dim}")
    J = _zeros(n, n)
    D = _zeros(n, n)
    offset = 0
    pending: dict[int, int] = {}  # part size -> offset of an unpaired block
    self_dual_parity = 1 if eps == 1 else 0
    for m in lam:
        if m % 2 == self_dual_parity:
            # single block: Gram (e_i, e_j) = (-1)^(i+1) on the anti-diagonal
            for i in range(m):
                J[offset + i][offset + m - 1 - i] = Fraction((-1) ** (i + 1))
                if i + 1 < m:
                    D[offset + i][offset + i + 1] = Fraction(1)
            offset += m
        elif m in pending:
            # hyperbolic pairing with the earlier block of the same size
            first = pending.pop(m)
            for i in range(m):
                sign = Fraction((-1) ** (i + 1))
                J[first + i][offset + m - 1 - i] = sign
                J[offset + m - 1 - i][first + i] = eps * sign
                if i + 1 < m:
                    D[offset + i][offset + i + 1] = Fraction(1)
            offset += m
        else:
            pending[m] = offset
            for i in range(m - 1):
                D[offset + i][offset + i + 1] = Fraction(1)
            offset += m
    if pending:
        raise ContractError(f"{lam} leaves unpaired blocks {sorted(pending)} for eps={eps:+d}")
    return NilpotentModel(dim=n, eps=eps, gram=_freeze(J), nilpotent=_freeze(D))


def jordan_type(m: Matrix) -> Partition:
    """Jordan type of a nilpotent matrix from its rank sequence."""
    n = len(m)
    if n == 0:
        return Partition()
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
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


def _sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparse system; pivot rows kept normalized."""
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for raw in rows:
        row = {k: v for k, v in raw.items() if v}
        while row:
            var = max(row)
            if var not in pivots:
                coeff = row.pop(var)
                pivots[var] = {k: v / coeff for k, v in row.items()}
                rank += 1
                break
            factor = row.pop(var)
            for k, v in pivots[var].items():
                new = row.get(k, Fraction(0)) - factor * v
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
    return rank


def centralizer_dim(model: NilpotentModel) -> int:
    """dim { Y : Y^T J + J Y = 0 and Y D = D Y }, by exact nullspace count."""
    n = model.dim
    J, D = model.J, model.D
    var = lambda i, j: i * n + j
    rows: list[dict[int, Fraction]] = []
    # (Y^T J + J Y)_{ij} = sum_k Y_{ki} J_{kj} + J_{ik} Y_{kj}
    for i in range(n):
        for j in range(n):
            row: dict[int, Fraction] = {}
            for k in range(n):
                if J[k][j]:
                    row[var(k, i)] = row.get(var(k, i), Fraction(0)) + J[k][j]
                if J[i][k]:
                    row[var(k, j)] = row.get(var(k, j), Fraction(0)) + J[i][k]
            if row:
                rows.append(row)
    # (Y D - D Y)_{ij}
    for i in range(n):
        for j in range(n):
            row = {}
            for k in range(n):
                if D[k][j]:
                    row[var(i, k)] = row.get(var(i, k), Fraction(0)) + D[k][j]
                if D[i][k]:
                    row[var(k, j)] = row.get(var(k, j), Fraction(0)) - D[i][k]
            if row:
                rows.append(row)
    return n * n - _sparse_rank(rows)


@lru_cache(maxsize=None)
def _orbit_dim_cached(lam: tuple[int, ...], eps: int, max_dim: int) -> int:
    model = build_nilpotent_model(Partition(lam), eps, max_dim)
    return algebra_dim(model.dim, eps) - centralizer_dim(model)


def orbit_dim(lam: Partition, eps: int, max_dim: int = DEFAULT_MAX_DIM) -> int:
    """Adjoint-orbit dimension of the nilpotent class labelled by lam."""
    return _orbit_dim_cached(tuple(Partition(lam)), eps, max_dim)


def codim_oracle(pair: DegenPair, max_dim: int = DEFAULT_MAX_DIM) -> int:
    """Codimension of the bottom orbit inside the closure of the top orbit."""
    return orbit_dim(pair.top, pair.eps, max_dim) - orbit_dim(pair.bottom, pair.eps, max_dim)


def _solve_in_span(basis_cols: Matrix, target_cols: Matrix) -> Matrix:
    """Coordinates of each target column in the span of the basis columns."""
    n, m = len(basis_cols), len(basis_cols[0])
    t = len(target_cols[0]) if target_cols else 0
    aug = [[basis_cols[i][j] for j in range(m)] + [target_cols[i][j] for j in range(t)]
           for i in range(n)]
    rank = 0
    pivot_rows = []
    for col in range(m):
        pivot = next((r for r in range(rank, n) if aug[r][col]), None)
        if pivot is None:
            raise ContractError("basis columns are dependent")
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[rank])]
        pivot_rows.append(rank)
        rank += 1
    for r in range(rank, n):
        if any(aug[r][m:]):
            raise ContractError("target column outside the span")
    return [[aug[i][m + j] for j in range(t)] for i in range(m)]


def restrict_to_image(model: NilpotentModel) -> NilpotentModel:
    """Model induced on the image of the nilpotent map, with the form flipped.

    The image carries the nondegenerate form beta(Dv, u) = (v, u); the map
    restricts to the image, and its Jordan type loses its first column.
    """
    n = model.dim
    D, J = model.D, model.J
    if all(not x for row in D for x in row):
        raise ContractError("zero map has no image to restrict to")
    # pivot columns of D give a basis of the image
    work = [row[:] for row in D]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(n):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        pivot_cols.append(col)
        rank += 1
    m = len(pivot_cols)
    basis = [[D[i][c] for c in pivot_cols] for i in range(n)]  # n x m, u_j = D e_{c_j}
    # beta(u_i, u_j) = e_{c_i}^T J D e_{c_j}
    JD = mat_mul(J, D)
    gram = [[JD[ci][cj] for cj in pivot_cols] for ci in pivot_cols]
    if mat_rank(gram) != m:
        raise ContractError("induced form is degenerate")
    # D maps the image into itself; express D u_j in the chosen basis
    d_basis = mat_mul(D, basis)
    restricted = _solve_in_span(basis, d_basis)
    return NilpotentModel(
        dim=m, eps=-model.eps, gram=_freeze(gram), nilpotent=_freeze(restricted)
    )
