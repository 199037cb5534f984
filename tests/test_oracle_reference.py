"""Differential tests: the pruned topological oracle against the exhaustive
one it replaced (reference_lasso.py) on seeded sweeps, LP and candidate
counts that pin the pruning down, against the exhaustive search and against
bounds taken along the quartet engine's derivations, the bound closure on
the closures' shared driver against the passes over every 4-taxon set it
replaced, and the soundness of both prunings: no pairing it forbids is one
the input tree displays, and no candidate the least-squares test skips
passes the LP and residual check; also every LP solved through milp
against linprog, and the pruning at n = 8 and 9 against both references."""

import functools
import math
import random

import numpy as np
import pytest
import scipy.optimize

import treelasso.lasso
from treelasso import (
    Cord,
    XTree,
    all_cords,
    all_topologies,
    min_order_transversal,
    random_tree,
    topological_lasso_oracle,
    triplet_cover,
)
from treelasso.tree import TreeError
from reference_lasso import engine_forbidden_pairings, exhaustive_oracle, insertion_topologies, pass_forbidden_pairings


@pytest.fixture
def forbidden_calls(monkeypatch):
    """Record the pairings the oracle's pruning forbids, one map per call."""
    calls = []
    prune = treelasso.lasso._forbidden_pairings

    def recorded(n, pairs, values, accept):
        forbidden = prune(n, pairs, values, accept)
        calls.append(forbidden)
        return forbidden

    monkeypatch.setattr(treelasso.lasso, "_forbidden_pairings", recorded)
    return calls


@pytest.fixture
def lp_calls(monkeypatch):
    """Count the LPs solved: the oracle's through milp, the exhaustive
    reference's through linprog (both are imported at call time)."""
    calls = [0]

    def counted(solve):
        def call(*args, **kwargs):
            calls[0] += 1
            return solve(*args, **kwargs)

        return call

    for name in ("milp", "linprog"):
        monkeypatch.setattr(scipy.optimize, name, counted(getattr(scipy.optimize, name)))
    return calls


@pytest.fixture
def fit_tests(monkeypatch):
    """Record every candidate that reaches the least-squares test, past the
    pruning, as (edges sorted as the LP's columns, leaf labels by vertex, A,
    b, accept, whether the test skipped it)."""
    tests, current = [], [None]
    enumerate_ = treelasso.lasso._topologies
    cannot_fit = treelasso.lasso._cannot_fit

    def topologies(taxa, forbidden):
        for candidate in enumerate_(taxa, forbidden):
            current[0] = candidate
            yield candidate

    def recorded(a_mat, b, accept):
        skipped = cannot_fit(a_mat, b, accept)
        bare, _, leaf_of = current[0]
        edges = sorted((min(e), max(e)) for e in bare)
        tests.append((edges, leaf_of, a_mat, b, accept, skipped))
        return skipped

    monkeypatch.setattr(treelasso.lasso, "_topologies", topologies)
    monkeypatch.setattr(treelasso.lasso, "_cannot_fit", recorded)
    return tests


def _outcome(oracle, tree, cords):
    """The witness's weighted edges and leaf labels, None, or the type and
    message of the exception raised."""
    try:
        witness = oracle(tree, cords)
    except (ValueError, KeyError, TreeError) as exc:
        return type(exc), str(exc)
    if witness is None:
        return None
    return witness.edges(), {t: witness.leaf_vertex(t) for t in witness.taxa}


def _short_interior(tree, rng):
    """The same tree with one interior edge at 1e-8..1e-5 (log-uniform),
    around the oracle's fit tolerance of 1e-7 times the largest distance."""
    edges = tree.edges()
    interior = [i for i, (u, v, _) in enumerate(edges) if not tree.is_leaf(u) and not tree.is_leaf(v)]
    k = rng.choice(interior)
    length = 10 ** rng.uniform(-8, -5)
    weighted = [(u, v, length if i == k else w) for i, (u, v, w) in enumerate(edges)]
    return XTree(weighted, {tree.leaf_vertex(t): t for t in tree.taxa})


def _case(seed):
    """A seeded (tree, cord set, has short edge) triple, n = 4..7: a stable
    triplet cover, the cover minus one or two cords, plus one cord, or a
    random subset of all cords; 30% of the trees have one short interior
    edge.  n = 7 comes once in 16 seeds: the reference solves up to 944 LPs
    there, about 2 s."""
    rng = random.Random(seed)
    n = 7 if seed % 16 == 1 else rng.choice((4, 5, 5, 6, 6))
    tree = random_tree(n, seed=seed, weight_range=(0.1, 2.0))
    short = rng.random() < 0.3
    if short:
        tree = _short_interior(tree, rng)
    order = sorted(tree.taxa)
    rng.shuffle(order)
    cover = set(triplet_cover(tree, min_order_transversal(tree, order)))
    pool = sorted(all_cords(tree.taxa) - cover)
    mode = seed % 5
    if mode == 1:
        cords = cover - set(rng.sample(sorted(cover), 1))
    elif mode == 2:
        cords = cover - set(rng.sample(sorted(cover), 2))
    elif mode == 3:
        cords = cover | {rng.choice(pool)} if pool else cover
    elif mode == 4:
        everything = sorted(all_cords(tree.taxa))
        cords = set(rng.sample(everything, rng.randrange(n, len(everything) + 1)))
    else:
        cords = cover
    return tree, cords, short


def test_witness_identical_to_exhaustive(lp_calls):
    seen, pruned_lps, exhaustive_lps = set(), 0, 0
    for seed in range(40):
        tree, cords, short = _case(seed)
        lp_calls[0] = 0
        expected = _outcome(exhaustive_oracle, tree, cords)
        exhaustive_lps += lp_calls[0]
        lp_calls[0] = 0
        got = _outcome(topological_lasso_oracle, tree, cords)
        pruned_lps += lp_calls[0]
        assert got == expected, f"seed {seed}"
        seen.add((short, expected is None))
    # short interior edges land on both sides: refuted and not refuted
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert pruned_lps * 10 < exhaustive_lps
    # Without the least-squares test the oracle solved 54 LPs here.
    assert pruned_lps == 27


def _near_threshold(seed):
    """(factor, tree, cover) with each interior edge of a six-taxon tree in
    turn at 1.5 and 3 times the fit tolerance: the first still admits a fit
    across it, the second does not.  The quartets across the edge involve
    derived cords, whose summed error bounds decide whether a candidate is
    dropped."""
    base = random_tree(6, seed=seed, weight_range=(0.5, 1.5))
    cover = sorted(triplet_cover(base, min_order_transversal(base)))
    fit_tol = 1e-7 * max(base.distance(c.a, c.b) for c in cover)
    edges = base.edges()
    for k, (u, v, _) in enumerate(edges):
        if base.is_leaf(u) or base.is_leaf(v):
            continue
        for factor in (1.5, 3.0):
            weighted = [(p, q, factor * fit_tol if i == k else w) for i, (p, q, w) in enumerate(edges)]
            tree = XTree(weighted, {base.leaf_vertex(t): t for t in base.taxa})
            yield factor, tree, triplet_cover(tree, min_order_transversal(tree))


@pytest.mark.parametrize("seed", [0, 4])
def test_witness_identical_near_prune_threshold(seed):
    outcomes = set()
    for factor, tree, cords in _near_threshold(seed):
        expected = _outcome(exhaustive_oracle, tree, cords)
        assert _outcome(topological_lasso_oracle, tree, cords) == expected, factor
        outcomes.add((factor, expected is None))
    assert outcomes == {(1.5, False), (3.0, True)}


def _displayed_forbidden(tree, forbidden):
    """The pairings in *forbidden* (leaf bitsets over the sorted taxa) that
    *tree* displays."""
    taxa = sorted(tree.taxa)
    shown = []
    for pairings in forbidden.values():
        for pair in pairings:
            p, q = ([t for i, t in enumerate(taxa) if bits >> i & 1] for bits in pair)
            if tree.quartet_topology(*p, *q) == frozenset({frozenset(p), frozenset(q)}):
                shown.append((p, q))
    return shown


def test_input_tree_displays_no_forbidden_pairing(forbidden_calls):
    # The input tree fits its own distances with residual 0, so the pruning
    # must keep every pairing it displays.
    trees = [_case(seed)[:2] for seed in range(200)]
    trees += [(tree, cords) for seed in (0, 4) for _, tree, cords in _near_threshold(seed)]
    pruned = 0
    for tree, cords in trees:
        forbidden_calls.clear()
        _outcome(topological_lasso_oracle, tree, cords)
        for forbidden in forbidden_calls:
            assert not _displayed_forbidden(tree, forbidden), (tree.newick(), sorted(cords))
            pruned += sum(map(len, forbidden.values()))
    assert pruned > 1000


def test_prunes_no_less_than_engine_bounds(lp_calls, monkeypatch):
    # Bounds taken along the quartet engine's derivations, as the oracle
    # took them before its own fixpoint, give the same outcome and never
    # fewer LPs than the oracle's own bounds.
    for seed in range(40):
        tree, cords, _ = _case(seed)
        lp_calls[0] = 0
        got = _outcome(topological_lasso_oracle, tree, cords)
        own = lp_calls[0]
        with monkeypatch.context() as patch:
            patch.setattr(treelasso.lasso, "_forbidden_pairings", engine_forbidden_pairings)
            lp_calls[0] = 0
            assert _outcome(topological_lasso_oracle, tree, cords) == got, f"seed {seed}"
        assert own <= lp_calls[0], f"seed {seed}"


class _Stop(Exception):
    """Raised in place of the oracle's pruning once its arguments are kept."""


def _sweep_cases():
    """The oracle inputs of the bound closure's sweep: _case seeds 0-399,
    _near_threshold seeds 0 and 4, and the min-order cover of
    random_tree(9, seed) for seeds 1-29, whole, less its third cord and
    less its last."""
    cases = [_case(seed)[:2] for seed in range(400)]
    cases += [(tree, cords) for seed in (0, 4) for _, tree, cords in _near_threshold(seed)]
    for seed in range(1, 30):
        tree = random_tree(9, seed=seed)
        cover = sorted(triplet_cover(tree, min_order_transversal(tree)))
        cases += [(tree, cover)] + [(tree, cover[:k] + cover[k + 1:]) for k in (2, len(cover) - 1)]
    return cases


def test_bound_closure_forbids_what_the_passes_forbid(monkeypatch):
    # Each call's arguments are kept and the oracle stopped there, before
    # any LP; then both closures run on them.
    calls = []
    prune = treelasso.lasso._forbidden_pairings

    def kept(*args):
        calls.append(args)
        raise _Stop

    monkeypatch.setattr(treelasso.lasso, "_forbidden_pairings", kept)
    for tree, cords in _sweep_cases():
        with pytest.raises(_Stop):
            topological_lasso_oracle(tree, cords)
    assert len(calls) == 499
    for args in calls:
        assert prune(*args) == pass_forbidden_pairings(*args), args[:2]


def test_outcomes_and_lps_identical_to_the_passes(lp_calls, monkeypatch):
    own = passes = 0
    for seed in range(200):
        tree, cords, _ = _case(seed)
        lp_calls[0] = 0
        got = _outcome(topological_lasso_oracle, tree, cords)
        own += lp_calls[0]
        with monkeypatch.context() as patch:
            patch.setattr(treelasso.lasso, "_forbidden_pairings", pass_forbidden_pairings)
            lp_calls[0] = 0
            assert _outcome(topological_lasso_oracle, tree, cords) == got, f"seed {seed}"
            passes += lp_calls[0]
    assert own == passes and own > 0


def _grown_cases(n, seeds):
    """The min-order cover of random_tree(n, seed), that cover less one
    cord and plus one cord (each drawn with random.Random(seed))."""
    for seed in seeds:
        tree, rng = random_tree(n, seed=seed), random.Random(seed)
        cover = sorted(triplet_cover(tree, min_order_transversal(tree)))
        extra = rng.choice(sorted(all_cords(tree.taxa) - set(cover)))
        yield tree, cover
        yield tree, [c for c in cover if c != rng.choice(cover)]
        yield tree, cover + [extra]


@functools.cache
def _all_insertions(n):
    """Every topology on n taxa in insertion order (reference_lasso's
    insertion_topologies), as an array of its sorted edges (u, v), an array
    of one side bitset per edge, and the leaf labels by vertex."""
    taxa = sorted(random_tree(n, seed=1).taxa)
    count = math.prod(range(1, 2 * n - 4, 2))
    edges, sides = np.zeros((count, 2 * n - 3, 2), dtype=np.int16), np.zeros((count, 2 * n - 3), dtype=np.int64)
    for k, tree in enumerate(insertion_topologies(taxa)):
        pairs = [(u, v) for u, v, _ in tree.edges()]
        edges[k] = pairs
        sides[k] = [tree._side_bits[pair] for pair in pairs]
    assert k == count - 1
    return edges, sides, {tree.leaf_vertex(t): t for t in taxa}


@pytest.mark.parametrize("n", [8, 9])
def test_pruning_at_eight_and_nine_taxa_matches_the_references(n, monkeypatch):
    # The forbidden maps equal the passes' over every 4-taxon set, and the
    # candidates are the trees of the full insertion order none of whose
    # sides displays a forbidden pairing by the enumeration's earlier side
    # test: p|q shows on side s when s holds one pair whole and nothing of
    # the other.  Inserting a leaf keeps the quartets on the earlier ones,
    # so testing whole trees is the same filter as testing partial ones.
    calls, prune = [], treelasso.lasso._forbidden_pairings

    def kept(*args):
        calls.append(args)
        raise _Stop

    monkeypatch.setattr(treelasso.lasso, "_forbidden_pairings", kept)
    edges, sides, leaf_of = _all_insertions(n)
    taxa = sorted(leaf_of.values())
    pruned = 0
    for tree, cords in _grown_cases(n, range(1, 4)):
        calls.clear()
        with pytest.raises(_Stop):
            topological_lasso_oracle(tree, cords)
        (args,) = calls
        forbidden = pass_forbidden_pairings(*args)
        assert prune(*args) == forbidden, (tree.newick(), cords)
        left = np.arange(len(sides))  # the trees that show no pairing tested so far
        for p, q in (pair for pairings in forbidden.values() for pair in pairings):
            s = sides[left]
            left = left[~(((s & p) == p) & ((s & q) == 0) | ((s & q) == q) & ((s & p) == 0)).any(axis=1)]
        got = []
        for bare, _, labels in treelasso.lasso._topologies(taxa, forbidden):
            assert labels == leaf_of
            got.append(sorted((min(e), max(e)) for e in bare))
        assert np.array_equal(np.array(got, dtype=np.int16).reshape(-1, *edges.shape[1:]), edges[left])
        pruned += len(sides) - len(left)
    assert pruned > 0


def test_milp_solves_every_lp_as_linprog_did(monkeypatch):
    # The oracle's LPs go through milp, with the rows stacked as one
    # LinearConstraint and HiGHS's output off; linprog, which it called
    # before, hands HiGHS the same model and settings.  Every LP of the
    # sweep is solved both ways: the same success flag, and the same x bit
    # for bit.
    lps, solve = [], scipy.optimize.milp

    def kept(c, *, constraints, bounds, options=None):
        res = solve(c, constraints=constraints, bounds=bounds, options=options)
        lps.append((c, constraints.A, constraints.ub, res))
        return res

    monkeypatch.setattr(scipy.optimize, "milp", kept)
    for seed in range(200):
        tree, cords, _ = _case(seed)
        _outcome(topological_lasso_oracle, tree, cords)
    assert len(lps) == 129
    for k, (c, a_ub, b_ub, res) in enumerate(lps):
        old = scipy.optimize.linprog(c=c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * len(c), method="highs")
        assert res.success == old.success, f"LP {k}: {c}, {a_ub}, {b_ub}"
        if old.success:
            assert res.x.tobytes() == old.x.tobytes(), f"LP {k}: {c}, {a_ub}, {b_ub}"


def test_errors_identical_to_exhaustive():
    tree = random_tree(5, seed=3)
    cases = [
        (tree, set()),
        (tree, {Cord("t01", "zz")}),
        (random_tree(10, seed=0), all_cords(random_tree(10, seed=0).taxa)),
        (XTree([(0, 4, 1.0), (1, 4, 1.0), (2, 5, 1.0), (3, 5, 1.0), (4, 5, 0.0)],
               {0: "a", 1: "b", 2: "c", 3: "d"}), {Cord("a", "b")}),
    ]
    for t, cords in cases:
        expected = _outcome(exhaustive_oracle, t, cords)
        assert isinstance(expected[0], type)
        assert _outcome(topological_lasso_oracle, t, cords) == expected


@pytest.mark.parametrize("n", range(3, 8))
def test_all_topologies_sequence_unchanged(n):
    taxa = [f"x{i}" for i in range(n)]
    got = [t.newick() for t in all_topologies(reversed(taxa))]
    assert got == [t.newick() for t in insertion_topologies(taxa)]
    assert len(set(got)) == len(got)


def test_example3_cover_needs_no_lp(snowflake6, cover9, lp_calls):
    assert topological_lasso_oracle(snowflake6, cover9) is None
    assert lp_calls[0] == 0


def test_full_cord_sets_need_no_lp(lp_calls):
    for seed in range(3):
        t = random_tree(5, seed=seed)
        assert topological_lasso_oracle(t, all_cords(t.taxa)) is None
    assert lp_calls[0] == 0


def test_cover_minus_hub_cord_needs_no_lp(lp_calls):
    # Every other cord of this cover touches t01 or t02, so without t01-t02
    # nothing is derived.  Only the 4-cycles t01-x-t02-y bound two pairings
    # of a 4-taxon set; the smaller sum forbids both other pairings.
    t = random_tree(8, seed=0)
    cover = set(triplet_cover(t, min_order_transversal(t)))
    assert Cord("t01", "t02") in cover
    assert topological_lasso_oracle(t, cover - {Cord("t01", "t02")}) is None
    assert lp_calls[0] == 0


def test_remark1_still_refuted(quartet_abcd, remark1_cords, lp_calls):
    witness = topological_lasso_oracle(quartet_abcd, remark1_cords)
    assert witness is not None and witness.splits() != quartet_abcd.splits()
    assert lp_calls[0] >= 1


def test_any_sure_quartet_bounds_a_cord(fit_tests, monkeypatch):
    # A stable cover of (t01,((t02,t05),t03):7e-7,t04).  The engine derives
    # t01-t03 across the 7e-7 edge, a quartet that is not sure, then t01-t05
    # from t01-t03 and t04-t05 from t01-t05, so none of the three is
    # bounded.  The quartet {t02, t03, t04, t05} bounds t04-t05 surely,
    # which forbids two pairings of {t01, t02, t04, t05} and saves two
    # candidates: LPs or least-squares skips.
    tree, cords, _ = _case(180)
    assert Cord("t04", "t05") not in cords and Cord("t01", "t03") not in cords
    expected = _outcome(exhaustive_oracle, tree, cords)
    assert _outcome(topological_lasso_oracle, tree, cords) == expected
    assert len(fit_tests) == 2
    monkeypatch.setattr(treelasso.lasso, "_forbidden_pairings", engine_forbidden_pairings)
    fit_tests.clear()
    assert _outcome(topological_lasso_oracle, tree, cords) == expected
    assert len(fit_tests) == 4


def test_least_squares_skips_only_candidates_the_lp_rejects(fit_tests):
    # Each skipped candidate goes through the LP and the residual check the
    # oracle would have run on it: the LP fails or its fit is off by more
    # than 2*fit_tol on some cord.
    cases = [_case(seed)[:2] for seed in range(200)]
    cases += [(tree, cords) for seed in (0, 4) for _, tree, cords in _near_threshold(seed)]
    for tree, cords in cases:
        _outcome(topological_lasso_oracle, tree, cords)
    skipped = [test for test in fit_tests if test[-1]]
    for edges, leaf_of, a_mat, b, accept, _ in skipped:
        fit_tol = accept / 2
        interior = np.array([0.0 if u in leaf_of or v in leaf_of else 1.0 for u, v in edges])
        res = scipy.optimize.linprog(
            c=interior,
            A_ub=np.vstack([a_mat, -a_mat]),
            b_ub=np.concatenate([b + fit_tol, -(b - fit_tol)]),
            bounds=[(0, None)] * len(edges),
            method="highs",
        )
        assert not res.success or np.max(np.abs(a_mat @ np.maximum(res.x, 0.0) - b)) > accept
    assert len(skipped) > 100 and len(skipped) < len(fit_tests)


@pytest.mark.parametrize("scale", [1e20, 1e25, 1e300])
def test_remark1_refuted_past_the_lp_bound(scale, remark1_cords):
    # HiGHS reads a bound of 1e20 or more as infinite; the oracle scales the
    # distances below 2**64, as the exhaustive search does, so the witness
    # is the exhaustive one and the unit-scale one, scaled.
    def quartet(s):
        return XTree([(0, 4, s), (1, 4, s), (2, 5, s), (3, 5, s), (4, 5, s)], {0: "a", 1: "b", 2: "c", 3: "d"})

    expected = _outcome(exhaustive_oracle, quartet(scale), remark1_cords)
    assert expected is not None and _outcome(topological_lasso_oracle, quartet(scale), remark1_cords) == expected
    unit = topological_lasso_oracle(quartet(1.0), remark1_cords)
    witness = topological_lasso_oracle(quartet(scale), remark1_cords)
    assert unit is not None and witness is not None
    assert witness.splits() == unit.splits()
    assert {t: witness.leaf_vertex(t) for t in witness.taxa} == {t: unit.leaf_vertex(t) for t in unit.taxa}
    assert [(u, v) for u, v, _ in witness.edges()] == [(u, v) for u, v, _ in unit.edges()]
    for (_, _, w), (_, _, w1) in zip(witness.edges(), unit.edges()):
        assert abs(w - scale * w1) <= scale * 1e-6
