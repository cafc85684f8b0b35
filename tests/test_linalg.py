"""Exact linear algebra: every result is re-verified against the inputs."""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qlsmodcat import _kernel as _K, linalg
from qlsmodcat.comodule import regular_coaction
from qlsmodcat.cyclo import CycloNumber, context, zeta
from qlsmodcat.deformation import LiftingDatum, build_bigalois, transport
from qlsmodcat.groups import AbelianGroup, Character
from qlsmodcat.hopf import FiniteAlgebra, QlsDatum, pair_multiply
from qlsmodcat.linalg import (
    Subspace,
    accumulate,
    axpy_neg,
    combine,
    left_kernel,
    pone,
    rank,
    solve,
    span,
    through,
    vec_addmul,
)

from whole_kernel import whole_left_kernel

L = 4
D = context(L).degree


def vec_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for c, v in b.items():
        accumulate(out, c, v)
    return out


def vec_scale(f, a: dict, L: int) -> dict:
    out: dict = {}
    vec_addmul(out, a, f, context(L).reduction)
    return out


def _rand_pair(rng):
    return _K.norm_pair(tuple(rng.randint(-4, 4) for _ in range(D)), rng.randint(1, 3))


def _rand_vec(rng, ncols, density=0.7):
    out = {}
    for c in range(ncols):
        if rng.random() < density:
            p = _rand_pair(rng)
            if not _K.is_zero(p):
                out[c] = p
    return out


def test_known_rank_and_kernel():
    one = pone(L)
    rows = [{0: one, 1: one}, {1: one, 2: one}, {0: one, 2: one}]
    assert rank(rows, L) == 3
    # make the third row the sum of the first two: rank drops, kernel appears
    rows[2] = vec_add(rows[0], rows[1])
    assert rank(rows, L) == 2
    kers = left_kernel(rows, 3, L).rows
    assert len(kers) == 1
    assert combine(kers[0], rows, L) == {}


def test_left_kernel_dimension_count():
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [_rand_vec(rng, m) for _ in range(n)]
        r = rank(rows, L)
        kers = left_kernel(rows, m, L).rows
        assert len(kers) == n - r
        for k in kers:
            assert combine(k, rows, L) == {}
        assert rank(kers, L) == len(kers)


def test_solve_reconstructs_target():
    rng = random.Random(12)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [_rand_vec(rng, m) for _ in range(n)]
        coeffs = {i: _rand_pair(rng) for i in range(n)}
        target = combine(coeffs, rows, L)
        sol, = solve(rows, [target], m, L)
        assert sol is not None
        assert combine(sol, rows, L) == target


def test_solve_detects_unsolvable():
    one = pone(L)
    rows = [{0: one}, {1: one}]
    assert solve(rows, [{2: one}, {1: one}], 3, L) == [None, {1: one}]


def test_subspace_rref_is_canonical():
    rng = random.Random(13)
    for _ in range(10):
        vecs = [_rand_vec(rng, 5) for _ in range(3)]
        sp1 = span(vecs, L)
        # a different generating set of the same span
        shuffled = [
            vec_add(vecs[0], vecs[1]),
            vec_add(vec_scale(_rand_pair(rng), vecs[1], L), vecs[2]),
            vecs[1],
            vecs[0],
            vecs[2],
        ]
        sp2 = span(shuffled, L)
        assert sp1.dim == sp2.dim
        assert sp1.key() == sp2.key()


def test_subspace_membership():
    rng = random.Random(14)
    vecs = [_rand_vec(rng, 6) for _ in range(3)]
    sp = span(vecs, L)
    inside = combine({i: _rand_pair(rng) for i in range(3)}, vecs, L)
    assert sp.contains(inside)
    assert sp.contains({})
    residual = sp.reduce(inside)
    assert residual == {}


def test_kernel_of_zero_map_is_everything():
    rows = [{} for _ in range(3)]
    kers = left_kernel(rows, 2, L).rows
    assert len(kers) == 3


# Sparse vectors never store a zero entry: the axiom sweeps compare them
# as dicts, so a stored zero would make equal vectors compare unequal.
# Scalars are small multiples of powers of i, so sums cancel often.
scalars = st.builds(lambda n, d, k: zeta(L, k) * Fraction(n, d),
                    st.integers(-2, 2), st.sampled_from([1, 2]),
                    st.integers(0, L - 1))


def _sparse(entries) -> dict:
    """Reference sum of (key, CycloNumber) terms, zeros dropped, as pairs."""
    total: dict = {}
    for k, c in entries:
        total[k] = total.get(k, CycloNumber.zero(L)) + c
    return {k: c.raw() for k, c in total.items() if not c.is_zero()}


def _no_zero_entries(vec: dict) -> bool:
    return not any(_K.is_zero(v) for v in vec.values())


@given(st.lists(st.tuples(st.integers(0, 3), scalars), max_size=12))
def test_accumulate_drops_cancelled_entries(terms):
    store: dict = {}
    for k, c in terms:
        accumulate(store, k, c.raw())
    assert _no_zero_entries(store)
    assert store == _sparse(terms)


@given(st.lists(st.tuples(st.integers(0, 3), scalars), max_size=6),
       st.lists(st.tuples(st.integers(0, 3), scalars), max_size=6), scalars)
def test_vec_addmul_matches_dense_sum(acc_terms, vec_terms, coef):
    acc = _sparse(acc_terms)
    vec = _sparse(vec_terms)
    vec_addmul(acc, vec, coef.raw(), context(L).reduction)
    assert _no_zero_entries(acc)
    scaled = [(k, coef * CycloNumber._make(L, v)) for k, v in vec.items()]
    assert acc == _sparse(acc_terms + scaled)


# The loops below skip the product for the coefficient 1, and vec_addmul
# and axpy_neg do no arithmetic for 0.  A vector read from an artifact may
# hold explicit zero entries, and so may a copy of one that is being
# reduced; no path may store a zero, and a zero already held in a column
# of the added vector goes, as the plain sum would drop it.
ZERO, ONE = CycloNumber.zero(L), CycloNumber.one(L)
fast_coefs = st.one_of(st.just(ONE), st.just(ZERO), scalars)
with_zeros = st.dictionaries(st.integers(0, 3), st.one_of(st.just(ZERO), scalars),
                             max_size=5)


def _with_held_zeros(terms, vec: dict, keys) -> dict:
    """The sum of terms, plus explicit zeros at the keys of vec it lacks."""
    out = _sparse(terms)
    for k in keys:
        if k in vec and k not in out:
            out[k] = ZERO.raw()
    return out


@given(st.lists(st.tuples(st.integers(0, 3), scalars), max_size=6),
       with_zeros, fast_coefs, st.sets(st.integers(0, 3)))
def test_vec_addmul_fast_paths_match_dense_sum(acc_terms, vec, coef, zeros):
    acc = _with_held_zeros(acc_terms, vec, zeros)
    vec_addmul(acc, {k: c.raw() for k, c in vec.items()}, coef.raw(),
               context(L).reduction)
    assert _no_zero_entries(acc)
    assert acc == _sparse(acc_terms + [(k, coef * c) for k, c in vec.items()])


@given(st.lists(st.tuples(st.integers(0, 3), scalars), max_size=6),
       with_zeros, fast_coefs, st.sets(st.integers(0, 3)))
def test_axpy_neg_fast_paths_match_dense_sum(out_terms, row, f, zeros):
    out = _with_held_zeros(out_terms, row, zeros)
    axpy_neg(out, f.raw(), {k: c.raw() for k, c in row.items()},
             context(L).reduction)
    assert _no_zero_entries(out)
    assert out == _sparse(out_terms + [(k, -(f * c)) for k, c in row.items()])


pair_keys = st.tuples(st.integers(0, 1), st.integers(0, 1))


def _table(draw) -> dict:
    mult = {}
    for key in [(i, j) for i in range(2) for j in range(2)]:
        cell = _sparse(draw(st.lists(st.tuples(st.integers(0, 1), scalars),
                                     max_size=3)))
        if cell:
            mult[key] = cell
    return mult


@st.composite
def algebra_pairs(draw):
    """Two dim-2 tables (associativity plays no part here) and two vectors
    over index pairs."""
    unit = {0: pone(L)}
    first = FiniteAlgebra(["a", "b"], L, _table(draw), unit)
    second = FiniteAlgebra(["c", "d"], L, _table(draw), unit)
    x = _sparse(draw(st.lists(st.tuples(pair_keys, scalars), max_size=4)))
    y = _sparse(draw(st.lists(st.tuples(pair_keys, scalars), max_size=4)))
    return first, second, x, y


@st.composite
def unit_heavy_pairs(draw):
    """As ``algebra_pairs``, but every coefficient and table entry is 1,
    0 or a scalar, and zeros are kept as explicit entries."""
    coefs = fast_coefs.map(lambda c: c.raw())
    cells = st.dictionaries(st.integers(0, 1), coefs, min_size=1, max_size=2)
    unit = {0: pone(L)}

    def table():
        return draw(st.dictionaries(pair_keys, cells, max_size=4))

    first = FiniteAlgebra(["a", "b"], L, table(), unit)
    second = FiniteAlgebra(["c", "d"], L, table(), unit)
    x = draw(st.dictionaries(pair_keys, coefs, max_size=4))
    y = draw(st.dictionaries(pair_keys, coefs, max_size=4))
    return first, second, x, y


def _check_pair_product(first, second, x, y) -> None:
    out = pair_multiply(first, second, x, y)
    assert _no_zero_entries(out)

    def cyc(p):
        return CycloNumber._make(L, p)

    terms = []
    for (j1, k1), c1 in x.items():
        for (j2, k2), c2 in y.items():
            for m1, d1 in first.mult.get((j1, j2), {}).items():
                for m2, d2 in second.mult.get((k1, k2), {}).items():
                    terms.append(((m1, m2),
                                  cyc(c1) * cyc(c2) * cyc(d1) * cyc(d2)))
    assert out == _sparse(terms)


@given(algebra_pairs())
def test_pair_multiply_matches_dense_sum(case):
    _check_pair_product(*case)


@given(unit_heavy_pairs())
def test_pair_multiply_fast_paths_match_dense_sum(case):
    _check_pair_product(*case)


def _leg_loop(vec: dict, leg: int, images, M: int) -> dict:
    """The nested loop the leg map replaced, summed in CycloNumbers: each
    term's key is the key with its leg swapped for the image's key."""
    total: dict = {}
    for key, c in vec.items():
        for k, c2 in images[key[leg]].items():
            mid = k if isinstance(k, tuple) else (k,)
            new = (*key[:leg], *mid, *key[leg + 1:])
            total[new] = (total.get(new, CycloNumber.zero(M))
                          + CycloNumber._make(M, c) * CycloNumber._make(M, c2))
    return {k: c.raw() for k, c in total.items() if not c.is_zero()}


@st.composite
def leg_cases(draw):
    """A sparse 2- or 3-leg tensor over a basis of 3 at conductor 1, 4 or
    8, the leg to map (0, 1 or the last) and images keyed by an index, by
    a pair or by () (a contraction).  In half the cases element 1 maps to
    minus the image of 0, and each key with 0 in the leg has a twin with
    1 there and the same coefficient, so their terms cancel."""
    M = draw(st.sampled_from([1, 4, 8]))
    legs = draw(st.sampled_from([2, 3]))
    leg = draw(st.sampled_from(sorted({0, 1, legs - 1})))
    scal = st.builds(lambda n, d, k: zeta(M, k) * Fraction(n, d),
                     st.integers(-2, 2), st.sampled_from([1, 2]),
                     st.integers(0, M - 1))

    def sparse(keys, size):
        total: dict = {}
        for k, c in draw(st.lists(st.tuples(keys, scal), max_size=size)):
            total[k] = total.get(k, CycloNumber.zero(M)) + c
        return {k: c for k, c in total.items() if not c.is_zero()}

    width = draw(st.sampled_from([None, 0, 2]))
    image_keys = (st.integers(0, 2) if width is None
                  else st.tuples(*[st.integers(0, 2)] * width))
    images = [sparse(image_keys, 3) for _ in range(3)]
    vec = sparse(st.tuples(*[st.integers(0, 2)] * legs), 6)
    if draw(st.booleans()):
        images[1] = {k: -c for k, c in images[0].items()}
        vec = {k: c for k, c in vec.items() if k[leg] != 1}
        vec.update({k[:leg] + (1,) + k[leg + 1:]: c
                    for k, c in vec.items() if k[leg] == 0})
    images = [{k: c.raw() for k, c in img.items()} for img in images]
    return M, leg, {k: c.raw() for k, c in vec.items()}, images


@settings(max_examples=300, deadline=None)
@given(leg_cases())
def test_through_matches_the_nested_loop(case):
    M, leg, vec, images = case
    out = through(vec, leg, images, context(M).reduction)
    assert _no_zero_entries(out)
    assert out == _leg_loop(vec, leg, images, M)


# Subspace.reduce eliminates only the pivots in the vector's support; the
# reference below eliminates every pivot in order, as a dense RREF would.
def _all_pivot_reduce(sp: Subspace, vec: dict) -> dict:
    out = dict(vec)
    for piv, row in zip(sp.pivots, sp.rows):
        f = out.get(piv)
        if f is not None:
            axpy_neg(out, f, row, context(L).reduction)
    return out


def _is_rref(sp: Subspace) -> bool:
    one = pone(L)
    if sp.pivots != sorted(set(sp.pivots)) or len(sp.rows) != len(sp.pivots):
        return False
    for piv, row in zip(sp.pivots, sp.rows):
        if min(row) != piv or row[piv] != one or not _no_zero_entries(row):
            return False
        if any(piv in other for other in sp.rows if other is not row):
            return False
    return True


sparse_vecs = st.lists(st.tuples(st.integers(0, 5), scalars), max_size=5).map(_sparse)


@given(st.lists(sparse_vecs, max_size=6), st.lists(sparse_vecs, min_size=1, max_size=4))
def test_support_reduce_matches_all_pivot_reduce(inserted, probes):
    sp = Subspace(L)
    for v in inserted:
        assert sp.reduce(v) == _all_pivot_reduce(sp, v)
        sp.insert(v)
        assert _is_rref(sp)
    for v in probes:
        res = sp.reduce(v)
        assert res == _all_pivot_reduce(sp, v)
        assert _no_zero_entries(res)
        assert not set(res) & set(sp.pivots)


# Subspace.insert clears the new pivot column only in the rows its holder
# index names; the reference below clears it in every row, as a dense
# RREF would, and normalizes through CycloNumber.inv.
def _full_scan_key(vectors) -> tuple:
    red = context(L).reduction
    rows: list = []
    pivots: list = []
    for vec in vectors:
        res = dict(vec)
        for piv, row in zip(pivots, rows):
            f = res.get(piv)
            if f is not None:
                axpy_neg(res, f, row, red)
        if not res:
            continue
        piv = min(res)
        inv = CycloNumber._make(L, res[piv]).inv().raw()
        row = {c: _K.mul(inv, v, red) for c, v in res.items()}
        for r in rows:
            g = r.get(piv)
            if g is not None:
                axpy_neg(r, g, row, red)
        idx = bisect_left(pivots, piv)
        pivots.insert(idx, piv)
        rows.insert(idx, row)
    return tuple(tuple((c,) + row[c] for c in sorted(row)) for row in rows)


def _holders_from_rows(sp: Subspace) -> dict:
    out: dict = {}
    for piv, row in zip(sp.pivots, sp.rows):
        for c in row:
            out.setdefault(c, set()).add(piv)
    return out


@given(st.lists(sparse_vecs, max_size=8).flatmap(
    lambda vs: st.tuples(st.just(vs), st.permutations(vs))))
def test_insert_matches_full_scan_insert_in_any_order(case):
    vecs, shuffled = case
    reference = _full_scan_key(vecs)
    for order in (vecs, shuffled):
        sp = Subspace(L)
        for v in order:
            sp.insert(v)
            assert _is_rref(sp)
            assert sp._holders == _holders_from_rows(sp)
        assert sp.key() == reference


@given(st.lists(sparse_vecs, max_size=7).flatmap(
    lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))))
def test_left_kernel_is_the_kernel_in_canonical_form(case):
    """The kernel comes back as a Subspace in RREF: the same key as the
    span of its rows and of another basis of it (its rows permuted, each
    but the first plus the one before it), and every row combines the
    input rows to zero."""
    rows, perm = case
    kern = left_kernel(rows, 6, L)
    assert _is_rref(kern)
    assert kern._holders == _holders_from_rows(kern)
    for k in kern.rows:
        assert combine(k, rows, L) == {}
    assert kern.dim == len(rows) - rank(rows, L)
    permuted = [kern.rows[i] for i in perm if i < kern.dim]
    other = [vec_add(v, permuted[i - 1]) if i else v
             for i, v in enumerate(permuted)]
    assert span(kern.rows, L).key() == kern.key()
    assert span(other, L).key() == kern.key()


WIDTH = 3  # columns of each group in ``block_systems``


@st.composite
def block_systems(draw):
    """Rows at conductor 1, 2, 4, 6 or 8 over up to four groups of WIDTH
    columns, drawn in any order: empty rows, lone rows on columns of
    their own, rows on one group's columns, scaled copies of earlier rows
    and rows bridging two groups, so blocks interleave and share columns."""
    M = draw(st.sampled_from([1, 2, 4, 6, 8]))
    scal = st.builds(lambda n, d, k: (zeta(M, k) * Fraction(n, d)).raw(),
                     st.integers(-2, 2).filter(bool), st.sampled_from([1, 2]),
                     st.integers(0, M - 1))
    groups = draw(st.integers(1, 4))

    def on(cols):
        return {c: draw(scal) for c in cols}

    def group_row(g):
        cols = draw(st.lists(st.integers(0, WIDTH - 1), min_size=1,
                             max_size=WIDTH, unique=True))
        return on(g * WIDTH + c for c in cols)

    rows: list = []
    fresh = groups * WIDTH
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["empty", "lone", "group", "group",
                                     "copy", "bridge"]))
        if kind == "empty":
            rows.append({})
        elif kind == "lone":
            width = draw(st.integers(1, 2))
            rows.append(on(range(fresh, fresh + width)))
            fresh += width
        elif kind == "copy" and rows:
            f = draw(scal)
            red = context(M).reduction
            rows.append({c: _K.mul(f, v, red)
                         for c, v in draw(st.sampled_from(rows)).items()})
        elif kind == "bridge" and groups > 1:
            g, h = draw(st.lists(st.integers(0, groups - 1), min_size=2,
                                 max_size=2, unique=True))
            rows.append({**group_row(g), **group_row(h)})
        else:
            rows.append(group_row(draw(st.integers(0, groups - 1))))
    return M, rows, fresh


@settings(max_examples=300, deadline=None)
@given(block_systems())
def test_block_kernel_equals_the_whole_elimination(case):
    """Block by block, the kernel has the rows, pivots and key of one
    augmented elimination of all the rows."""
    M, rows, ncols = case
    got = left_kernel(rows, ncols, M)
    want = whole_left_kernel(rows, ncols, M)
    assert got.rows == want.rows
    assert got.pivots == want.pivots
    assert got.key() == want.key()


class _UnwalkableRows(list):
    """Rows that insert may extend but not walk or index."""

    def __iter__(self):
        raise AssertionError("insert walked every row")

    def __getitem__(self, i):
        raise AssertionError("insert indexed the rows")


class _CountingRowOf(dict):
    """Pivot -> row map that counts the rows read through it."""

    reads = 0

    def __getitem__(self, piv):
        self.reads += 1
        return super().__getitem__(piv)


def test_insert_touches_only_the_holders_of_the_new_pivot(monkeypatch):
    """Transport of the regular algebra of the dim-24 Z6 lifting (theta = 2,
    q = -1, mu = (1, 2), lambda_01 = -2): every insert reads no row but
    those its residual and the holders of its new pivot column name, and
    clears at most those holders."""
    G = AbelianGroup((6,))
    datum = QlsDatum(G, [G.element((1,))] * 2, [Character(G, (3,))] * 2)
    B = build_bigalois(LiftingDatum(datum, mu=[1, 2], lam={(0, 1): -2}))
    A = regular_coaction(B.right_hopf)
    assert A.dim == 24

    rows_used: list = []
    plain_axpy = linalg.axpy_neg

    def counting_axpy(out, f, row, red):
        rows_used.append(row)
        plain_axpy(out, f, row, red)

    plain_insert = Subspace.insert
    counts = []

    def guarded_insert(self, vec):
        res = self.reduce(vec)
        piv = min(res) if res else None
        held = sum(piv in r for r in self.rows)
        support = len(vec.keys() & self._row_of.keys())
        del rows_used[:]
        self.rows = _UnwalkableRows(self.rows)
        self._row_of = _CountingRowOf(self._row_of)
        try:
            grew = plain_insert(self, vec)
        finally:
            reads = self._row_of.reads
            self.rows = list.copy(self.rows)
            self._row_of = dict(self._row_of)
        assert grew == (piv is not None)
        assert reads <= support + held
        assert len(rows_used) <= support + held
        if grew:
            new_row = self.rows[self.pivots.index(piv)]
            clears = sum(r is new_row for r in rows_used)
            assert clears <= held
            counts.append((clears, held))
        return grew

    monkeypatch.setattr(linalg, "axpy_neg", counting_axpy)
    monkeypatch.setattr(Subspace, "insert", guarded_insert)
    transport(B, A)
    assert counts and any(held for _, held in counts)
