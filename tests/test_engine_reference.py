"""Differential tests (reference_lasso.py) on seeded sweeps: the dense
fixpoint engine run from the cords alone against the rescan engine it
replaced; closure, which grows metric blocks and seeds the engine with
them, against that engine alone; and is_shellable against the counting
engine."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from treelasso import (
    DEFAULT_EPSILON,
    Cord,
    InconsistentDistanceError,
    PartialDistance,
    XTree,
    all_cords,
    closure,
    induced_distance,
    is_shellable,
    min_order_transversal,
    parse_newick,
    random_tree,
    triplet_cover,
    verify_shelling,
)
from treelasso.lasso import four_point
from treelasso.tolerance import approx_equal
from reference_lasso import counting_is_shellable, engine_closure, rescan_closure


def _outcome(fn, *args, **kwargs):
    """A closure's steps and final map, or the type and message it raised."""
    try:
        trace = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return trace.steps, dict(trace.final)


def _zero_interior(tree, rng):
    """The same tree with one interior edge set to length 0: the quartets
    across that edge tie in the four-point test."""
    edges = tree.edges()
    interior = [i for i, (u, v, _) in enumerate(edges) if not tree.is_leaf(u) and not tree.is_leaf(v)]
    k = rng.choice(interior)
    weighted = [(u, v, 0.0 if i == k else w) for i, (u, v, w) in enumerate(edges)]
    return XTree(weighted, {tree.leaf_vertex(t): t for t in tree.taxa})


def _case(seed):
    """A seeded (tree, cord set) pair, n = 4..12: a stable triplet cover,
    the cover with extras, the cover minus two cords, or half of all cords;
    about a third of the trees with more than four taxa have a zero-length
    interior edge."""
    rng = random.Random(seed)
    n = rng.randrange(4, 13)
    tree = random_tree(n, seed=seed, weight_range=(0.1, 2.0))
    if n > 4 and rng.random() < 0.35:
        tree = _zero_interior(tree, rng)
    order = sorted(tree.taxa)
    rng.shuffle(order)
    cover = set(triplet_cover(tree, min_order_transversal(tree, order)))
    pool = sorted(all_cords(tree.taxa) - cover)
    mode = seed % 4
    if mode == 1:
        cords = cover | set(rng.sample(pool, min(n, len(pool))))
    elif mode == 2:
        cords = cover - set(rng.sample(sorted(cover), 2))
    elif mode == 3:
        cords = set(rng.sample(sorted(all_cords(tree.taxa)), n * (n - 1) // 4))
    else:
        cords = cover
    return rng, tree, cords


def _swept(seed):
    """_case's distances, with one value perturbed (often inconsistent) when
    seed % 3 == 0; and whether it was."""
    rng, tree, cords = _case(seed)
    d = dict(induced_distance(tree, cords))
    if seed % 3 == 0:
        cord = rng.choice(sorted(d))
        d[cord] *= rng.uniform(0.5, 1.5)
    return PartialDistance(d), seed % 3 == 0


@pytest.mark.parametrize("exact_rational", [False, True])
def test_closure_trace_identical_to_rescan(exact_rational):
    # The engine run from the cords alone, closure before it took
    # reconstruct's route, is pinned to the rescan byte for byte.
    outcomes = set()
    for seed in range(80):
        d, _ = _swept(seed)
        expected = _outcome(rescan_closure, d, exact_rational=exact_rational)
        got = _outcome(engine_closure, d, exact_rational=exact_rational)
        assert got == expected, f"seed {seed}"
        outcomes.add(expected[0] if isinstance(expected[0], type) else len(expected[0]) > 0)
    # the sweep reaches derivations, and the inconsistency error with the
    # same message
    assert {True, InconsistentDistanceError} <= outcomes


def _assert_rederived(d, trace, exact_rational):
    """Each step's other five cords are given or derived by an earlier step,
    its quartet is strict the way its pivots say, and its value is the
    four-point formula on them: in floats bit for bit, or exactly."""
    number, eps = (Fraction, 0.0) if exact_rational else (float, DEFAULT_EPSILON)
    known = {c: number(v) for c, v in d.items()}
    for step in trace.steps:
        x, y, u, z = step.quadruple
        xy, uz, xu, yz, yu = (known[Cord(p, q)] for p, q in ((x, y), (u, z), (x, u), (y, z), (y, u)))
        assert four_point(xy + uz, xu + yz, eps) == (True, True), step
        assert step.cord == Cord(x, z) and step.cord not in known, step
        known[step.cord] = xu + yz - yu
        assert float(known[step.cord]) == step.value, step


@pytest.mark.parametrize("exact_rational", [False, True])
def test_closure_reaches_the_engine_fixpoint(exact_rational):
    # closure grows metric blocks and seeds the engine with them: the same
    # missing cords and final cords as the engine alone, values within eps
    # (exactly equal on exact input), a trace of the same length in another
    # order, and the same kind of error, which may name another clash.
    kinds = set()
    for seed in range(80):
        d, perturbed = _swept(seed)
        try:
            expected = engine_closure(d, exact_rational=exact_rational)
        except InconsistentDistanceError:
            with pytest.raises(InconsistentDistanceError):
                closure(d, exact_rational=exact_rational)
            kinds.add("raised")
            continue
        got = closure(d, exact_rational=exact_rational)
        assert got.missing == expected.missing, f"seed {seed}"
        assert got.final.cords == expected.final.cords, f"seed {seed}"
        assert len(got.steps) == len(expected.steps), f"seed {seed}"
        for cord in expected.final:
            a, b = got.final[cord], expected.final[cord]
            assert (a == b) if exact_rational else approx_equal(a, b), f"seed {seed}, {cord}"
        _assert_rederived(d, got, exact_rational)
        kinds.add((perturbed, bool(got.missing), bool(got.steps)))
    assert {"raised", (False, True, True), (False, False, True)} <= kinds


def test_closure_missing_is_every_pair_not_final():
    # missing is read off partner bitsets over final's keys, and is still the
    # frozenset of every pair of taxa that final leaves out.
    kinds = set()
    for seed in range(40):
        _, tree, cords = _case(seed)
        trace = closure(induced_distance(tree, cords))
        assert type(trace.missing) is frozenset
        assert trace.missing == all_cords(trace.final.taxa) - trace.final.cords, f"seed {seed}"
        kinds.add(bool(trace.missing))
    assert kinds == {False, True}


def test_zero_interior_edge_ties_match_rescan():
    # A zero-length interior edge makes every quartet across it a tie, so
    # the closure stalls on the same cords in both engines.
    for seed in range(12):
        rng = random.Random(seed)
        tree = _zero_interior(random_tree(8, seed=seed), rng)
        cover = triplet_cover(tree, min_order_transversal(tree))
        d = induced_distance(tree, cover)
        for exact_rational in (False, True):
            expected = rescan_closure(d, exact_rational=exact_rational)
            got = engine_closure(d, exact_rational=exact_rational)
            assert got.steps == expected.steps, f"seed {seed}"
            assert dict(got.final) == dict(expected.final)
            assert got.missing == expected.missing
            assert closure(d, exact_rational=exact_rational).missing == expected.missing
            # Within eps the tied quartets block some cord; exact arithmetic
            # may still see last-bit differences in the float inputs.
            assert got.missing or exact_rational


def test_shellability_matches_counting_reference():
    # The bitset closure answers every case, in shuffled taxon orders too.
    for seed in range(80):
        _, tree, cords = _case(seed)
        expected = counting_is_shellable(tree, cords)
        for rng in (None, random.Random(seed)):
            got = is_shellable(tree, cords, rng=rng)
            assert got.missing == expected.missing, f"seed {seed}"
            # missing is a view over the closure's partner bitsets: it reads as
            # the eager frozenset under len, in, iteration and bool too.
            assert len(got.missing) == len(expected.missing)
            assert frozenset(got.missing) == expected.missing
            assert all(c in got.missing for c in expected.missing)
            assert not any(c in got.missing for c in cords)
            assert bool(got.missing) == bool(expected.missing) == (not got)
            verify_shelling(tree, cords, got.steps)
            assert len(got.steps) == len(expected.steps)
            for step in got.steps:  # pivots (x, y) orient as  a x || y b
                a, b = step.cord.a, step.cord.b
                assert frozenset({a, step.pivots[0]}) in tree.quartet_topology(a, b, *step.pivots)


def test_shelling_result_keeps_the_mask_not_the_cords():
    # A 1500-leaf caterpillar with one cord leaves 1,124,249 cords missing;
    # as Cord objects they took 126 MiB, the partner bitsets take 0.1 MiB.
    newick = "t0001"
    for i in range(2, 1501):
        newick = f"({newick},t{i:04d})"
    tree = parse_newick(newick + ";")
    gc.collect()
    tracemalloc.start()
    try:
        result = is_shellable(tree, [Cord("t0001", "t0002")])
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 16 * 2**20
    assert len(result.missing) == 1500 * 1499 // 2 - 1
    assert Cord("t0001", "t0003") in result.missing and Cord("t0001", "t0002") not in result.missing
