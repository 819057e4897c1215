"""Property tests of the minimax kernel (its two simplex paths included),
the oracle, the scalar solver and the sweep solvers' batched step.

Examples are drawn deterministically (derandomize) and their number is
bounded, so the suite stays reproducible and fast.  Coordinates lie on a
dyadic grid in [-1, 1]: exact in floating point, and full of the ties,
zeros and collinear samples that random reals rarely produce.  Properties
that hold only without ties draw a seed for a graph with uniform random
positions and values instead.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_simplex_paths_agree,
    assert_sweep_paths_agree,
    level_graph,
    naive_stage_loop,
    random_graph,
)
from lipext.errors import NoCertifiedSubset
from lipext.graph import Graph
from lipext.kpoint import (
    KernelBlock,
    LabeledPointSet,
    _pair_optimum,
    kpoint_oracle,
    kpoint_vector,
    minimax_kernel,
)
from lipext.scalar import gauss_seidel_scalar, solve_scalar

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

coordinate = st.integers(-2**20, 2**20).map(lambda i: math.ldexp(i, -20))


def row(k):
    return st.tuples(*[coordinate] * k)


@st.composite
def samples(draw):
    """(points, values, query): 1-8 samples, positions in R^1-3, values in
    R^1-3, distinct positions, query at least 1e-3 from every sample."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    size = draw(st.integers(1, 8))
    points = np.array(draw(st.lists(row(n), min_size=size, max_size=size, unique=True)))
    values = np.array(draw(st.lists(row(m), min_size=size, max_size=size)))
    x = np.array(draw(row(n)))
    assume(np.linalg.norm(points - x, axis=1).min() >= 1e-3)
    return points, values, x


def _kernel(points, values, x):
    """kpoint_vector's result, or the type of the error it raised."""
    try:
        return kpoint_vector(LabeledPointSet(points, values), x)
    except NoCertifiedSubset as exc:
        return type(exc)


@PROPERTY
@given(samples(), st.randoms(use_true_random=False))
def test_kernel_is_invariant_under_permutation(instance, rnd):
    # the kernel sees the samples in a canonical order, so a permuted input
    # gives the same bits, with the active set carried through the permutation
    points, values, x = instance
    perm = list(range(len(points)))
    rnd.shuffle(perm)
    base = _kernel(points, values, x)
    moved = _kernel(points[perm], values[perm], x)
    if isinstance(base, type):
        assert moved is base
        return
    assert moved.lam == base.lam and moved.max_violation == base.max_violation
    assert np.array_equal(moved.point, base.point)
    assert tuple(sorted(perm[i] for i in moved.active)) == base.active
    where = {perm[i]: c for i, c in zip(moved.active, moved.hull_coords)}
    assert np.array_equal([where[i] for i in base.active], base.hull_coords)


# near-regular simplices with dyadic vertices, for m = 2 and m = 3
SIMPLICES = {2: [[0.0, 1.0], [-0.875, -0.5], [0.875, -0.5]],
             3: [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]}


@st.composite
def simplex_calls(draw, m=None):
    """(values, dists) for one kernel call that can reach the simplex
    phase: 3-8 dyadic values in R^m (m = 2-3 unless given) at dyadic
    distances in (0, 4].  A call is one of three kinds:
    - random rows;
    - a jittered near-regular simplex of m + 1 rows at distances near 1,
      whose answer needs all of them, the other rows inside it and further
      away;
    - a needle triangle: values (-1, 0), (1, 0), (0, eps) with eps = 2^-10
      ... 2^-30 (below 2^-20 the triangle fails the SIMPLEX_TOL test) at
      distances 1, 1 and f * eps, the other rows at distances above 2.
      Some of these certify the triple and some nothing, as on the
      near-collinear grid.
    Before that, up to three rows repeat another exactly, which makes
    sphere systems singular."""
    m = draw(st.integers(2, 3)) if m is None else m
    n = draw(st.integers(3 if m == 2 else 4, 8))
    values = np.array(draw(st.lists(row(m), min_size=n, max_size=n)))
    length = st.integers(1, 2**10).map(lambda i: math.ldexp(i, -8))
    dists = np.array(draw(st.lists(length, min_size=n, max_size=n)))
    index = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        values[i] = values[j]
    kind = draw(st.sampled_from(["random", "simplex", "needle"]))
    if kind == "simplex":
        values *= 0.25
        values[:m + 1] = np.array(SIMPLICES[m]) + np.ldexp(values[:m + 1], -1)
        dists[:m + 1] = 1.0 + np.ldexp(dists[:m + 1], -6)
        dists[m + 1:] += 1.0
    elif kind == "needle":
        i, j, k = draw(st.permutations(range(n)))[:3]
        eps = math.ldexp(1.0, -draw(st.integers(10, 30)))
        dists += 2.0
        values[[i, j, k]] = 0.0
        values[i, 0], values[j, 0] = -1.0, 1.0
        values[k, 1] = eps
        dists[[i, j]] = 1.0
        dists[k] = eps * draw(st.integers(1, 15)) / 16.0
    return values, dists


@settings(PROPERTY, max_examples=200)
@given(simplex_calls())
def test_stacked_simplex_matches_the_loop(call):
    # the kernel's stacked pass against the per-candidate reference loop,
    # with roots on floats and on arrays: the same bits, or the same
    # NoCertifiedSubset
    assert_simplex_paths_agree(*call)


@PROPERTY
@given(samples(), st.randoms(use_true_random=False))
def test_oracle_is_invariant_under_permutation(instance, rnd):
    # the polish ranks samples in input order, but it certifies the unique
    # optimum, so only rounding may move lam
    points, values, x = instance
    perm = list(range(len(points)))
    rnd.shuffle(perm)
    base = kpoint_oracle(LabeledPointSet(points, values), x).lam
    moved = kpoint_oracle(LabeledPointSet(points[perm], values[perm]), x).lam
    assert abs(moved - base) <= 1e-12 * base


@PROPERTY
@given(samples(), st.integers(-64, 64), st.integers(-64, 64))
def test_kernel_scales_exactly_by_powers_of_two(instance, vexp, pexp):
    # values scaled by 2^vexp and positions by 2^pexp scale lam by
    # 2^(vexp - pexp) with no rounding: the kernel normalises both scales away
    points, values, x = instance
    base = _kernel(points, values, x)
    scaled = _kernel(np.ldexp(points, pexp), np.ldexp(values, vexp), np.ldexp(x, pexp))
    if isinstance(base, type):
        assert scaled is base
        return
    assert scaled.lam == math.ldexp(base.lam, vexp - pexp)
    assert np.array_equal(scaled.point, np.ldexp(base.point, vexp))
    assert scaled.active == base.active


# ---------------------------------------------------------------------------
# the scalar solver
# ---------------------------------------------------------------------------

@st.composite
def dyadic_graphs(draw):
    """Connected graph on 2-16 vertices: a random spanning tree plus up to
    n extra edges, distinct dyadic positions in the plane, and a nonempty
    boundary with dyadic values."""
    n = draw(st.integers(2, 16))
    ids = [f"v{i:02d}" for i in range(n)]
    pos = draw(st.lists(row(2), min_size=n, max_size=n, unique=True))
    edges = {tuple(sorted((k, draw(st.integers(0, k - 1))))) for k in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {tuple(sorted(e)) for e in extra if e[0] != e[1]}
    omega = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
    values = {v: draw(coordinate) for v in omega}
    return Graph(dict(zip(ids, pos)), [(ids[a], ids[b]) for a, b in sorted(edges)], omega,
                 values)


seeded_graphs = st.integers(0, 2**32 - 1).map(
    lambda seed: random_graph(np.random.default_rng(seed), max_vertices=30))


def relabel(g, name):
    """g with every vertex id v renamed name[v]."""
    return Graph({name[v]: p for v, p in g.positions.items()},
                 [(name[a], name[b], ln) for (a, b), ln in g.lengths.items()],
                 [name[v] for v in g.omega],
                 {name[v]: val for v, val in g.boundary_values.items()})


@PROPERTY
@given(dyadic_graphs())
def test_scalar_solve_is_invariant_under_order_preserving_relabelling(g):
    # the solver sees ids only through their order, ties included
    base = solve_scalar(g)
    moved = solve_scalar(relabel(g, {v: "x" + v for v in g.ids}))
    assert moved.stage_slopes == base.stage_slopes
    assert all(np.array_equal(moved.values["x" + v], base.values[v]) for v in g.ids)


@PROPERTY
@given(seeded_graphs, st.randoms(use_true_random=False))
def test_scalar_solve_is_invariant_under_relabelling(g, rnd):
    # without ties every stage takes the same path whatever the id order;
    # only the direction distances and path lengths are summed in may move
    # the last bits
    names = list(g.ids)
    rnd.shuffle(names)
    name = dict(zip(g.ids, names))
    base = solve_scalar(g)
    moved = solve_scalar(relabel(g, name))
    assert all(abs(moved.values[name[v]][0] - base.values[v][0]) <= 1e-12 for v in g.ids)


@PROPERTY
@given(seeded_graphs, st.floats(-8.0, 8.0))
def test_scalar_solve_is_shift_covariant(g, c):
    base = solve_scalar(g)
    shifted = Graph(g.positions, [(a, b, ln) for (a, b), ln in g.lengths.items()], g.omega,
                    {v: val + c for v, val in g.boundary_values.items()})
    moved = solve_scalar(shifted)
    assert all(abs(moved.values[v][0] - (base.values[v][0] + c)) <= 1e-12 * (1.0 + abs(c))
               for v in g.ids)


@PROPERTY
@given(dyadic_graphs())
def test_scalar_solve_obeys_the_maximum_principle(g):
    # every value lies in the range of the boundary data, with no rounding
    # slack: interpolation adds a nonnegative step to a path's lower end, and
    # that step could round past the upper end only if the last edge were
    # below 1e-16 of the path's length
    fb = [float(val[0]) for val in g.boundary_values.values()]
    lo, hi = min(fb), max(fb)
    res = solve_scalar(g)
    assert all(lo <= res.values[v][0] <= hi for v in g.ids)


@settings(PROPERTY, max_examples=200)
@given(st.integers(0, 2**32 - 1).map(level_graph))
def test_scalar_solve_matches_the_stage_loop_on_few_levels(g):
    # the one-pass finish at slope 0 gives the stage loop's values, the
    # sign of zero included, and its slope log
    values, slopes = naive_stage_loop(g)
    res = solve_scalar(g)
    got = [res.values[v][0] for v in g.ids]
    want = [values[v] for v in g.ids]
    assert got == want and np.array_equal(np.signbit(got), np.signbit(want))
    assert res.stage_slopes == slopes
    assert np.array_equal(np.signbit(res.stage_slopes), np.signbit(slopes))


# ---------------------------------------------------------------------------
# the batched pair step of the sweep solvers
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _as_block(calls, m):
    """(values, dists, count) of kernel calls (values in R^m, dists) as
    KernelBlock takes them: coordinates first, rows padded to the widest by
    repeats of their first sample."""
    count = np.array([len(d) for _, d in calls])
    width = count.max()
    values = np.empty((m, len(calls), width))
    dists = np.empty((len(calls), width))
    for r, (vals, lens) in enumerate(calls):
        n = count[r]
        values[:, r, :n] = np.asarray(vals).T
        values[:, r, n:] = np.asarray(vals)[:1].T
        dists[r, :n] = lens
        dists[r, n:] = lens[0]
    return values, dists, count


@st.composite
def neighbourhood_blocks(draw):
    """(values, dists, count): 1-6 neighbourhoods of 1-8 samples with
    values in R^m, m = 1-3, as a block (_as_block).  A row's values are
    dyadic, real (products and quotients round), constant, constant up to
    2^-50, or drawn from five levels with lengths 1 and 2, full of tied
    pairs."""
    m = draw(st.integers(1, 3))
    count = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    length = st.integers(1, 2**10).map(lambda i: math.ldexp(i, -8))
    calls = []
    for n in count:
        kind = draw(st.sampled_from(["dyadic", "real", "constant", "near-constant", "tied"]))
        if kind == "tied":
            level = st.integers(-2, 2).map(lambda i: 0.5 * i)
            vals = np.array(draw(st.lists(st.tuples(*[level] * m), min_size=n, max_size=n)))
            lens = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
        elif kind == "real":
            real = st.floats(-1.0, 1.0, allow_nan=False)
            vals = np.array(draw(st.lists(st.tuples(*[real] * m), min_size=n, max_size=n)))
            lens = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
        else:
            vals = np.array(draw(st.lists(row(m), min_size=n, max_size=n)))
            lens = draw(st.lists(length, min_size=n, max_size=n))
        if kind == "constant":
            vals = np.repeat(vals[:1], n, axis=0)
        elif kind == "near-constant":
            vals = vals[:1] + np.ldexp(vals, -50)
        calls.append((vals, lens))
    return _as_block(calls, m)


@st.composite
def simplex_blocks(draw):
    """(values, dists, count): 1-6 kernel calls of simplex_calls with one m,
    m = 2-3, as a block (_as_block): degrees 3-8, padded rows, needle and
    near-collinear triples, near-regular simplices and repeated values."""
    m = draw(st.integers(2, 3))
    calls = draw(st.lists(simplex_calls(m), min_size=1, max_size=6))
    return _as_block([(vals, dists.tolist()) for vals, dists in calls], m)


def _assert_block_is_the_local_rule(values, dists, count):
    """Every row the batched step certifies gets the per-vertex rule's bits
    and active set: the kernel's active tuple, and for m = 1 the pair
    formula's pair, or (0,) where its ratio is 0.  For m > 1 it certifies
    exactly the rows that the kernel certifies, in its constant test, pair
    phase or simplex phase, and the kernel raises NoCertifiedSubset on the
    others.  The active sets do not change the points."""
    m = values.shape[0]
    block = KernelBlock(dists, count)
    points, certified = block.step(values)
    again, again_certified, sets = block.step(values, active=True)
    assert np.array_equal(_bits(again), _bits(points)) and np.array_equal(again_certified, certified)
    for r, n in enumerate(count):
        rows, lens = values[:, r, :n].T, dists[r, :n].tolist()
        active = tuple(a for a in sets[r].tolist() if a >= 0)
        if m == 1:
            assert certified[r]
            point, ratio, pair = _pair_optimum(rows[:, 0].tolist(), lens)
            assert _bits(points[r, 0]) == _bits(point)
            assert active == (pair if ratio else (0,))
            continue
        try:
            want = minimax_kernel(list(rows), lens)
        except NoCertifiedSubset:
            assert not certified[r] and not active
            continue
        assert certified[r]
        assert np.array_equal(_bits(points[r]), _bits(want[1]))
        assert active == want[2]


@PROPERTY
@given(neighbourhood_blocks())
def test_batched_step_matches_the_local_rule(block):
    _assert_block_is_the_local_rule(*block)


@settings(PROPERTY, max_examples=200)
@given(simplex_blocks())
def test_batched_simplex_step_matches_the_kernel(block):
    # rows that reach the simplex phase, several to a stacked pass
    _assert_block_is_the_local_rule(*block)


@settings(PROPERTY, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_batching_does_not_change_the_sweep(seed, m):
    # every colour class batched, at the module's cutovers, or vertex by
    # vertex: the same bits, sweeps and largest moves
    assert_sweep_paths_agree(random_graph(np.random.default_rng(seed), max_vertices=40, m=m))


@settings(PROPERTY, max_examples=15)
@given(st.integers(0, 2**32 - 1).map(
    lambda seed: random_graph(np.random.default_rng(seed), max_vertices=80)))
def test_gauss_seidel_matches_the_path_solver(g):
    # the sweep solver, batched by colour class on the larger graphs, is the
    # path solver's independent cross-check (C02)
    sweep = gauss_seidel_scalar(g)
    exact = solve_scalar(g)
    assert all(abs(sweep.values[v][0] - exact.values[v][0]) <= 1e-6 for v in g.ids)
