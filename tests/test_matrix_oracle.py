import inspect
import random
import sys
from fractions import Fraction

import pytest

from orbitnorm import matrix_oracle, partitions
from orbitnorm.degeneration import DegenPair, covers, dominates
from orbitnorm.errors import CapacityError, ContractError
from orbitnorm.matrix_oracle import (
    NilpotentModel,
    algebra_dim,
    build_nilpotent_model,
    centralizer_dim,
    codim_oracle,
    jordan_type,
    mat_rank,
    orbit_dim,
    restrict_to_image,
)
from orbitnorm.partitions import Partition, enumerate_eps_diagrams, is_eps_diagram


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(a, b):
    """Dense product of two matrices: the former matrix_oracle.mat_mul."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def reference_rank(m):
    """Dense Gaussian elimination, column by column: the former mat_rank."""
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


def reference_jordan_type(m):
    """Jordan type of a nilpotent m from the dense ranks of its powers: the former jordan_type."""
    ranks, power = [len(m)], m
    while ranks[-1] and len(ranks) <= len(m):
        ranks.append(reference_rank(power))
        power = mat_mul(power, m)
    assert ranks[-1] == 0, "not nilpotent"
    return Partition([a - b for a, b in zip(ranks, ranks[1:])]).dual()


def reference_centralizer_dim(model):
    """Dense O(N^3) scan of J and D for the centralizer system: the former centralizer_dim."""
    n = model.dim
    J, D = model.J, model.D
    var = lambda i, j: i * n + j
    rows = []
    # (Y^T J + J Y)_{ij} = sum_k Y_{ki} J_{kj} + J_{ik} Y_{kj}
    for i in range(n):
        for j in range(n):
            row = {}
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
    return n * n - len(matrix_oracle._eliminate(rows)[0])


def closed_form_orbit_dim(lam, eps):
    """Collingwood-McGovern, Cor. 6.1.4: N(N-eps)/2 - (sum (lam*_i)^2 - eps #odd parts)/2."""
    n = sum(lam)
    squares = sum(c * c for c in Partition(lam).dual())
    odd = sum(1 for part in lam if part % 2)
    return n * (n - eps) // 2 - (squares - eps * odd) // 2


def rank_mod_p(rows, p):
    """Rank over F_p of sparse integer rows, pivoting on the largest variable."""
    pivots = {}
    for raw in rows:
        row = {k: v % p for k, v in raw.items() if v % p}
        while row:
            var = max(row)
            pivot = pivots.get(var)
            if pivot is None:
                inverse = pow(row[var], -1, p)
                pivots[var] = {k: v * inverse % p for k, v in row.items()}
                break
            factor = row[var]
            for k, v in pivot.items():
                new = (row.get(k, 0) - factor * v) % p
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
    return len(pivots)


def check_model_invariants(model):
    J, D = model.J, model.D
    n = model.dim
    assert mat_rank(J) == n
    for i in range(n):
        for j in range(n):
            assert J[j][i] == model.eps * J[i][j]
    # D^T J + J D = 0
    dtj = mat_mul([list(r) for r in zip(*D)], J)
    jd = mat_mul(J, D)
    for i in range(n):
        for j in range(n):
            assert dtj[i][j] + jd[i][j] == 0


class TestBuild:
    def test_paired_even_orthogonal(self):
        model = build_nilpotent_model(Partition([2, 2]), 1)
        check_model_invariants(model)
        assert jordan_type(model.D) == (2, 2)

    def test_zero_orbit(self):
        model = build_nilpotent_model(Partition([1, 1, 1]), 1)
        assert all(not x for row in model.D for x in row)
        check_model_invariants(model)

    def test_single_symplectic_block(self):
        model = build_nilpotent_model(Partition([2]), -1)
        check_model_invariants(model)
        assert jordan_type(model.D) == (2,)

    def test_invalid_diagram_rejected(self):
        with pytest.raises(ContractError):
            build_nilpotent_model(Partition([3, 1]), -1)

    def test_unpaired_blocks_raise(self, monkeypatch):
        # an explicit raise, not an assert, so the check survives python -O
        monkeypatch.setattr(partitions, "eps_violation", lambda p, eps: None)
        with pytest.raises(ContractError, match="unpaired blocks"):
            build_nilpotent_model(Partition([3, 1]), -1)

    def test_capacity(self, monkeypatch):
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        with pytest.raises(CapacityError, match="size 41 exceeds the enumeration bound 40"):
            build_nilpotent_model(Partition([41]), 1)

    def test_bound_is_a_constant(self, monkeypatch):
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        for f in (build_nilpotent_model, orbit_dim, codim_oracle):
            assert "max_dim" not in inspect.signature(f).parameters
        with pytest.raises(CapacityError, match="size 41 exceeds the enumeration bound 40"):
            orbit_dim(Partition([41]), 1)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_all_invariants_small(self, eps):
        for n in range(0, 13):
            for d in enumerate_eps_diagrams(n, eps):
                model = build_nilpotent_model(d.partition, eps)
                check_model_invariants(model)
                assert jordan_type(model.D) == d.partition


class TestJordanType:
    def test_canonical_blocks(self):
        model = build_nilpotent_model(Partition([3, 1]), 1)
        assert jordan_type(model.D) == (3, 1)

    def test_zero_matrix(self):
        zero = frac_matrix([[0] * 4 for _ in range(4)])
        assert jordan_type(zero) == (1, 1, 1, 1)

    def test_non_nilpotent_rejected(self):
        eye = frac_matrix([[1, 0], [0, 1]])
        with pytest.raises(ContractError):
            jordan_type(eye)

    @pytest.mark.parametrize("m", [[[0, 1]], [[0], [0]], [[0, 1], [0]]], ids=["1x2", "2x1", "ragged"])
    def test_non_square_rejected(self, m):
        with pytest.raises(ContractError, match="matrix is not nilpotent"):
            jordan_type(m)

    def test_conjugation_invariance(self):
        rng = random.Random(42)
        model = build_nilpotent_model(Partition([4, 2, 2]), -1)
        n = model.dim
        for _ in range(3):
            while True:
                g = frac_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                if mat_rank(g) == n:
                    break
            g_inv = _invert(g)
            conj = mat_mul(mat_mul(g, model.D), g_inv)
            assert jordan_type(conj) == reference_jordan_type(conj) == (4, 2, 2)


def _invert(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class TestDimensions:
    def test_algebra_dim(self):
        assert algebra_dim(8, -1) == 36
        assert algebra_dim(11, 1) == 55
        assert algebra_dim(0, 1) == 0

    def test_odd_symplectic_rejected(self):
        with pytest.raises(ContractError):
            algebra_dim(7, -1)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_negative_size_rejected(self, eps):
        with pytest.raises(ContractError, match=r"^dimension must be nonnegative, got -1$"):
            algebra_dim(-1, eps)

    def test_centralizer_small(self):
        assert centralizer_dim(build_nilpotent_model(Partition([1, 1]), -1)) == 3
        assert centralizer_dim(build_nilpotent_model(Partition([2]), -1)) == 1
        assert centralizer_dim(build_nilpotent_model(Partition([2, 1, 1]), -1)) == 6

    def test_orbit_dims(self):
        assert orbit_dim(Partition([1] * 6), -1) == 0
        assert orbit_dim(Partition([2, 1, 1]), -1) == 4
        assert orbit_dim(Partition([2, 2, 1]), 1) == 4

    @pytest.mark.parametrize("eps", [1, -1])
    def test_centralizer_against_dense_reference(self, eps):
        for n in range(0, 13):
            for d in enumerate_eps_diagrams(n, eps):
                model = build_nilpotent_model(d.partition, eps)
                rows = matrix_oracle._centralizer_rows(model)
                assert all(len(row) <= 2 for row in rows)
                assert centralizer_dim(model) == reference_centralizer_dim(model), d.partition

    @pytest.mark.parametrize("eps", [1, -1])
    def test_orbit_dim_closed_form(self, eps):
        diagrams = [d.partition for n in range(0, 17) for d in enumerate_eps_diagrams(n, eps)]
        diagrams += [lam for lam in (Partition([24]), Partition([1] * 24), Partition([12, 12]))
                     if is_eps_diagram(lam, eps)]
        for lam in diagrams:
            assert orbit_dim(lam, eps) == closed_form_orbit_dim(lam, eps), lam

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_centralizer_same_in_good_characteristic(self, p):
        # the paper works over a field of characteristic p > 2; the oracle over Q
        for eps in (1, -1):
            for n in range(0, 17):
                for d in enumerate_eps_diagrams(n, eps):
                    model = build_nilpotent_model(d.partition, eps)
                    rows = matrix_oracle._centralizer_rows(model)
                    assert all(type(v) is int for row in rows for v in row.values())
                    over_p = algebra_dim(n, eps) - rank_mod_p(rows, p)
                    assert over_p == centralizer_dim(model), (p, eps, d.partition)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_integer_path_builds_no_fraction(self, eps):
        # every quotient in a built model's system is exact, so no Fraction is made;
        # matched by code object, as in test_decide_does_not_reduce_or_classify
        made = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is Fraction.__new__.__code__:
                made.append(frame.f_code.co_name)

        diagrams = [d.partition for d in enumerate_eps_diagrams(20, eps)]
        matrix_oracle._orbit_dim_cached.cache_clear()
        sys.setprofile(profile)
        try:
            dims = [orbit_dim(lam, eps) for lam in diagrams]
        finally:
            sys.setprofile(None)
        assert made == []
        assert dims == [closed_form_orbit_dim(lam, eps) for lam in diagrams]


def _bad_models():
    """Models that break one property the centralizer system rests on, with its message."""
    shift = build_nilpotent_model(Partition([3, 1]), 1)
    D = shift.D
    D[0][2] += 1  # still nilpotent, but no longer in so(J)
    return {
        "singular": (build_nilpotent_model(Partition([1, 1, 1]), 1)._replace(
            gram=((1, 0, 0), (0, 1, 0), (0, 0, 0))), "gram matrix is singular"),
        "symmetry": (build_nilpotent_model(Partition([1, 1]), -1)._replace(
            gram=((1, 0), (0, 1))), "gram matrix is not eps=-1 symmetric"),
        "outside-g": (shift._replace(nilpotent=tuple(map(tuple, D))),
                      "nilpotent map does not preserve the form"),
        "not-square": (build_nilpotent_model(Partition([1, 1, 1]), 1)._replace(
            nilpotent=((0, 0), (0, 0), (0, 0))), "nilpotent map does not preserve the form"),
        # preserves the form, as diag(1, -1) lies in sp_2, but is semisimple
        "semisimple": (NilpotentModel(-1, ((0, 1), (-1, 0)), ((1, 0), (0, -1))),
                       "nilpotent map is not nilpotent"),
    }


class TestCentralizerSystem:
    @pytest.mark.parametrize("kind", ["singular", "symmetry", "outside-g", "not-square",
                                      "semisimple"])
    def test_bad_model_is_refused(self, kind, monkeypatch):
        # explicit raises, not asserts: a bad model never yields a dimension
        model, message = _bad_models()[kind]
        with pytest.raises(ContractError, match=message):
            centralizer_dim(model)
        monkeypatch.setattr(matrix_oracle, "build_nilpotent_model", lambda lam, eps: model)
        matrix_oracle._orbit_dim_cached.cache_clear()
        with pytest.raises(ContractError, match=message):
            orbit_dim(Partition([1] * model.dim), model.eps)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_system_counts(self, eps):
        # counts that do not drift with the machine: at most dim g rows of at most two
        # int terms, over the unknowns S_kl with k <= l (k < l for eps = +1)
        for n in range(0, 17):
            for d in enumerate_eps_diagrams(n, eps):
                rows = matrix_oracle._centralizer_rows(build_nilpotent_model(d.partition, eps))
                assert len(rows) <= algebra_dim(n, eps), d.partition
                for row in rows:
                    assert 0 < len(row) <= 2 and all(type(c) is int for c in row.values())
                    for var in row:
                        k, l = divmod(var, n)
                        assert k < l or (k == l and eps == -1), (d.partition, var)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_orbit_dim_closed_form_at_the_bound(self, eps, monkeypatch):
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        diagrams = [d.partition for d in enumerate_eps_diagrams(40, eps)]
        sample = random.Random(f"orbit-dim-40:{eps}").sample(diagrams, 12)
        sample += [lam for lam in (Partition([40]), Partition([39, 1]), Partition([1] * 40))
                   if is_eps_diagram(lam, eps)]
        for lam in sample:
            assert orbit_dim(lam, eps) == closed_form_orbit_dim(lam, eps), lam


class TestCodim:
    def test_paper_pairs(self):
        assert codim_oracle(DegenPair(-1, Partition([4, 2, 2]), Partition([6, 1, 1]))) == 2
        assert codim_oracle(DegenPair(1, Partition([1, 1, 1, 1]), Partition([2, 2]))) == 2

    def test_equal_pair(self):
        p = Partition([2, 2])
        assert codim_oracle(DegenPair(-1, p, p)) == 0

    @pytest.mark.parametrize("eps", [1, -1])
    def test_positive_and_additive(self, eps):
        for n in range(2, 9):
            diagrams = [d.partition for d in enumerate_eps_diagrams(n, eps)]
            for top in diagrams:
                for mid in diagrams:
                    if mid == top or not dominates(top, mid):
                        continue
                    assert codim_oracle(DegenPair(eps, mid, top)) > 0
                    for bot in diagrams:
                        if bot == mid or not dominates(mid, bot):
                            continue
                        a = codim_oracle(DegenPair(eps, bot, top))
                        b = codim_oracle(DegenPair(eps, bot, mid))
                        c = codim_oracle(DegenPair(eps, mid, top))
                        assert a == b + c

    @pytest.mark.parametrize("eps", [1, -1])
    def test_even(self, eps):
        for n in range(2, 9):
            diagrams = [d.partition for d in enumerate_eps_diagrams(n, eps)]
            for top in diagrams:
                for bot in diagrams:
                    if dominates(top, bot):
                        assert codim_oracle(DegenPair(eps, bot, top)) % 2 == 0


#: dim eta - dim sigma for a cover whose core is of family f, g or h with
#: parameter n: the dimension of the minimal orbit of so_{2n+1}, sp_{2n} and
#: so_{2n}.  The other families, a-e, have codimension 2.
TRUE_CODIM = {"f": lambda n: 4 * n - 4, "g": lambda n: 2 * n, "h": lambda n: 4 * n - 6}


class TestCoverCodim:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_closed_form_codim_of_every_cover(self, eps):
        # the closed form and the table's family agree on every cover up to n = 30
        for n in range(0, 31):
            for eta in enumerate_eps_diagrams(n, eps):
                top = closed_form_orbit_dim(eta.partition, eps)
                for w in covers(eta):
                    family, k = w.degen_type
                    expected = TRUE_CODIM[family](k) if family in TRUE_CODIM else 2
                    assert top - closed_form_orbit_dim(w.sigma, eps) == expected, (eta, w)


def _bent(lam, eps, field, entry):
    """The built model of lam with one entry of its gram or nilpotent matrix raised by 1."""
    model = build_nilpotent_model(Partition(lam), eps)
    bent = [list(row) for row in getattr(model, field)]
    bent[entry[0]][entry[1]] += 1
    return model._replace(**{field: tuple(map(tuple, bent))})


class TestRestrictToImage:
    def test_symplectic_611(self):
        model = build_nilpotent_model(Partition([6, 1, 1]), -1)
        restricted = restrict_to_image(model)
        assert restricted.eps == 1
        assert jordan_type(restricted.D) == (5,)
        check_model_invariants(restricted)

    def test_orthogonal_22(self):
        restricted = restrict_to_image(build_nilpotent_model(Partition([2, 2]), 1))
        assert restricted.eps == -1
        assert jordan_type(restricted.D) == (1, 1)

    def test_orthogonal_31(self):
        restricted = restrict_to_image(build_nilpotent_model(Partition([3, 1]), 1))
        assert restricted.eps == -1
        assert jordan_type(restricted.D) == (2,)

    def test_zero_map_rejected(self):
        with pytest.raises(ContractError):
            restrict_to_image(build_nilpotent_model(Partition([1, 1]), -1))

    @pytest.mark.parametrize("model,message", [
        (_bent([3, 1], 1, "gram", (1, 0)), r"gram matrix is not eps=\+1 symmetric"),
        (_bent([3, 1], 1, "gram", (2, 0)), "gram matrix is singular"),
        (_bent([4, 2], -1, "nilpotent", (0, 4)), "nilpotent map does not preserve the form"),
        # its image map would be ((0, 1), (1, 0)), not nilpotent, but D leaves so(J) first
        (_bent([3, 1], 1, "nilpotent", (2, 1)), "nilpotent map does not preserve the form"),
        # a map with too few rows or columns is refused before any entry is read
        (NilpotentModel(1, ((1, 0), (0, 1)), ((0, 1),)), "nilpotent map does not preserve the form"),
        (NilpotentModel(1, ((1, 0), (0, 1)), ((0,), (0,))),
         "nilpotent map does not preserve the form"),
    ], ids=["symmetry", "singular", "outside-g", "not-nilpotent", "short-map", "narrow-map"])
    def test_bad_image_is_refused(self, model, message):
        # the input is checked like any model before its image is built
        with pytest.raises(ContractError, match=message):
            restrict_to_image(model)

    @pytest.mark.parametrize("call,entry,message", [
        (0, (0, 0), "gram matrix is not eps=-1 symmetric"),
        (0, (1, 0), "gram matrix is singular"),
        (1, (0, 0), "nilpotent map does not preserve the form"),
        # the map becomes ((0, 1), (1, 0)): it preserves the form but is not nilpotent
        (1, (1, 0), "nilpotent map is not nilpotent"),
    ], ids=["symmetry", "singular", "outside-g", "not-nilpotent"])
    def test_bad_result_is_refused(self, monkeypatch, call, entry, message):
        # the image of [3,1] eps +1 has gram ((0,1),(-1,0)) and map ((0,1),(0,0)), frozen in
        # that order; bending one of them shows the result is checked, its form type -eps too
        model = build_nilpotent_model(Partition([3, 1]), 1)
        freeze, frozen = matrix_oracle._freeze, []

        def bent_freeze(m):
            out = [list(row) for row in freeze(m)]
            if len(frozen) == call:
                out[entry[0]][entry[1]] += 1
            frozen.append(out)
            return tuple(map(tuple, out))

        monkeypatch.setattr(matrix_oracle, "_freeze", bent_freeze)
        with pytest.raises(ContractError, match=message):
            restrict_to_image(model)
        assert len(frozen) == 2

    @pytest.mark.parametrize("eps", [1, -1])
    def test_column_erasure_identity_small(self, eps):
        for n in range(1, 13):
            for d in enumerate_eps_diagrams(n, eps):
                if set(d.partition) == {1}:
                    continue
                restricted = restrict_to_image(build_nilpotent_model(d.partition, eps))
                assert restricted.eps == -eps
                assert jordan_type(restricted.D) == d.partition.erase_first_column()
                check_model_invariants(restricted)


class TestRankAgainstReference:
    def test_random_matrices(self):
        rng = random.Random(20150)
        shapes = [(0, 0), (1, 0), (0, 3), (1, 1), (1, 5), (5, 1), (3, 7), (7, 3), (6, 6)]
        for rows, cols in shapes:
            for _ in range(20):
                m = frac_matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
                assert mat_rank(m) == reference_rank(m), m
        # rank-deficient: a product through an inner dimension below both sides; the sparse
        # product agrees with the dense one, also with no rows, no columns or no inner dimension
        rows_of = matrix_oracle._rows
        for rows, inner, cols in [(5, 2, 6), (6, 3, 4), (4, 1, 4), (8, 5, 8),
                                  (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)]:
            for _ in range(10):
                a = frac_matrix([[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)])
                b = frac_matrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)])
                m = mat_mul(a, b)
                assert mat_rank(m) == reference_rank(m) <= inner, m
                assert matrix_oracle._mul(rows_of(a), rows_of(b)) == rows_of(m), (a, b)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_model_matrices(self, eps):
        for n in range(0, 17):
            for d in enumerate_eps_diagrams(n, eps):
                model = build_nilpotent_model(d.partition, eps)
                assert mat_rank(model.J) == reference_rank(model.J) == n
                power = model.D
                while True:
                    assert mat_rank(power) == reference_rank(power), (d.partition, power)
                    if not any(x for row in power for x in row):
                        break
                    power = mat_mul(power, model.D)
                assert jordan_type(model.D) == reference_jordan_type(model.D) == d.partition


class TestSolveInSpan:
    def test_dependent_basis(self):
        basis = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
        with pytest.raises(ContractError, match="basis columns are dependent"):
            matrix_oracle._solve_in_span(basis, [{0: Fraction(1), 1: Fraction(2)}])

    def test_target_outside_span(self):
        basis = [{0: Fraction(1), 1: Fraction(1)}]
        with pytest.raises(ContractError, match="target column outside the span"):
            matrix_oracle._solve_in_span(basis, [{0: Fraction(1)}])

    def test_coordinates(self):
        basis = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}]
        target = {0: Fraction(2), 1: Fraction(5, 2), 2: Fraction(-1, 2)}
        assert matrix_oracle._solve_in_span(basis, [target, {}]) == [
            [Fraction(2), Fraction(1, 2)], [Fraction(0), Fraction(0)]]

