"""The lazy step views of ShellingResult.steps and ClosureTrace.steps against
the eager builders they replaced (reference_lasso.py), step for step, on
the hop-closure families, the placement sweep and the reconstruct sweeps;
and the tuple behaviour the views keep."""

import random
import sys

import pytest

import treelasso.lasso
from reference_lasso import eager_closure_trace, eager_shelling_steps, engine_closure, heap_extend
from test_engine_reference import _case as engine_case
from test_hop_closure import _case as shelling_case
from test_placement import _cases as placement_cases
from test_reconstruct_closure_path import _noisy_case
from test_reconstruct_placement import _case as reconstruct_case
from treelasso import (
    ClosureStep,
    ClosureTrace,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    ShellingStep,
    closure,
    induced_distance,
    is_shellable,
    min_order_transversal,
    parse_cord_distances,
    random_tree,
    reconstruct,
    triplet_cover,
)
from treelasso.cords import _cords_over, _partner_bits
from treelasso.lasso import _closure_trace, _extend, _hop_closure


def _same_shelling(tree, cords, seed=None):
    """is_shellable's view against the eager steps of the same closure run,
    under the taxon order random.Random(seed) gives, if any."""
    rng = None if seed is None else random.Random(seed)
    _, blocks, derivations = _hop_closure(tree, _partner_bits(_cords_over(cords, tree), tree._index.taxa), rng)
    expected = eager_shelling_steps(tree, blocks, derivations)
    got = is_shellable(tree, cords, None if seed is None else random.Random(seed)).steps
    assert len(got) == len(expected)
    assert tuple(got) == expected and got == expected and expected == got
    return len(expected)


def test_shelling_views_equal_the_eager_steps_on_the_hop_closure_families():
    steps = 0
    for seed in range(600):
        _, tree, cords = shelling_case(seed)
        steps += _same_shelling(tree, cords) + _same_shelling(tree, cords, seed)
    assert steps > 10_000


def test_shelling_views_equal_the_eager_steps_on_the_placement_sweep():
    for k, (_, tree, cords) in enumerate(placement_cases()):
        _same_shelling(tree, cords)
        if k % 4 == 0:
            _same_shelling(tree, cords, k)


@pytest.fixture
def traces(monkeypatch):
    """Every trace the library builds, with the eager one of the same rows;
    both modules' names are patched, as reconstruct imports its own."""
    pairs = []
    made = treelasso.lasso._closure_trace

    def spy(d, taxa, rows):
        try:
            expected = eager_closure_trace(d, taxa, rows)
        except InconsistentDistanceError as exc:
            expected = str(exc)
        try:
            got = made(d, taxa, rows)
        except InconsistentDistanceError as exc:
            pairs.append((str(exc), expected))
            raise
        pairs.append((got, expected))
        return got

    monkeypatch.setattr(treelasso.lasso, "_closure_trace", spy)
    monkeypatch.setattr(sys.modules["treelasso.reconstruct"], "_closure_trace", spy)
    return pairs


def _assert_same_traces(pairs):
    for got, expected in pairs:
        if isinstance(expected, str):  # the same error, at the same row
            assert got == expected
            continue
        assert len(got.steps) == len(expected.steps)
        assert tuple(got.steps) == expected.steps and got.steps == expected.steps
        assert list(got.final._data.items()) == list(expected.final._data.items())
        assert got.lines() == expected.lines()


def _run(d):
    try:
        return reconstruct(d)
    except (InconsistentDistanceError, NonAdditiveError):
        return None


def test_closure_views_equal_the_eager_traces_on_the_reconstruct_sweeps(traces):
    for k in range(300):  # placements, and the inputs that take the closure path
        _, tree, cords = reconstruct_case(k)
        _run(induced_distance(tree, cords))
    for seed in range(300):
        _, tree, cords = shelling_case(seed)
        _run(induced_distance(tree, cords))
    for k in range(66):
        rng, tree, cords = _noisy_case(k)
        d = induced_distance(tree, cords)
        _run(PartialDistance({c: v * (1 + 1e-8 * rng.uniform(-1, 1)) for c, v in d.items()}))
    assert len(traces) > 500
    _assert_same_traces(traces)


def test_closure_views_equal_the_eager_traces_of_the_engine(traces):
    for seed in range(80):  # some trees have an interior edge of length 0
        rng, tree, cords = engine_case(seed)
        d = dict(induced_distance(tree, cords))
        perturbed = dict(d)
        perturbed[rng.choice(sorted(d))] *= rng.uniform(0.5, 1.5)
        for values, exact in ((d, False), (d, True), (perturbed, False)):
            try:
                closure(PartialDistance(values), exact_rational=exact)
            except InconsistentDistanceError:
                pass
    assert sum(isinstance(expected, str) for _, expected in traces) < len(traces) // 2
    _assert_same_traces(traces)


@pytest.mark.parametrize(
    "text, modes",
    [
        ("a\tb\t10\na\tc\t1\nb\tc\t1\na\td\t1\nb\td\t2\n", (False, True)),  # cd = -7.0
        ("t02\tt03\t1e+308\nt01\tt02\t5e-324\nt01\tt03\t1e+308\nt02\tt06\t0.0\nt01\tt06\t1e+308\n", (True,)),
    ],
    ids=["below 0", "beyond the float range"],
)
def test_a_bad_value_raises_as_the_eager_trace_did(traces, text, modes):
    d = parse_cord_distances(text)
    for run in (closure, reconstruct):
        for exact in modes:
            with pytest.raises(InconsistentDistanceError):
                run(d, exact_rational=exact)
    assert len(traces) == 2 * len(modes)
    assert all(isinstance(got, str) and got == expected for got, expected in traces)


def test_len_and_truth_build_no_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a step was built")

    tree = random_tree(30, seed=2)
    cover = set(triplet_cover(tree, min_order_transversal(tree)))
    less = cover - {min(cover)}
    monkeypatch.setattr(treelasso.lasso, "ShellingStep", refuse)
    monkeypatch.setattr(treelasso.lasso, "ClosureStep", refuse)
    yes, no = is_shellable(tree, cover), is_shellable(tree, less)
    assert yes.is_complete and yes and len(yes.steps) == 30 * 29 // 2 - len(cover)
    assert not no.is_complete and not no and no.steps and len(no.steps) < 30 * 29 // 2 - len(less)
    placed, short = reconstruct(induced_distance(tree, cover)), reconstruct(induced_distance(tree, less))
    assert placed.ok and len(placed.trace.steps) == 30 * 29 // 2 - len(cover)
    assert not short.ok and short.trace.steps and not short.trace.is_complete
    with pytest.raises(AssertionError, match="step was built"):
        next(iter(yes.steps))
    with pytest.raises(AssertionError, match="step was built"):
        placed.trace.steps[-1]


def test_the_views_act_as_tuples():
    tree = random_tree(12, seed=5)
    cover = set(triplet_cover(tree, min_order_transversal(tree)))
    d = induced_distance(tree, cover)
    for steps in (is_shellable(tree, cover).steps, reconstruct(d).trace.steps, closure(d).steps):
        eager = tuple(steps)
        assert tuple(steps) == eager and list(steps) == list(eager)  # iterates more than once
        assert len(eager) == 12 * 11 // 2 - len(cover)
        for k in (0, 1, len(eager) - 1, -1, -len(eager)):
            assert steps[k] == eager[k]
        for cut in (slice(None), slice(2, 9), slice(-5, None), slice(None, None, -3), slice(40, 50)):
            assert steps[cut] == eager[cut] and type(steps[cut]) is tuple
        for k in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                steps[k]
        assert steps == eager and eager == steps and not steps != eager
        assert steps != eager[:-1] and eager[1:] != steps and steps != list(eager)
        assert hash(steps) == hash(eager) and repr(steps) == repr(eager)
        assert list(reversed(steps)) == list(reversed(eager))
        assert eager[3] in steps and steps.index(eager[3]) == 3 and steps.count(eager[3]) == 1
    trace = closure(d)
    assert ClosureTrace(tuple(trace.steps), trace.final) == trace
    assert all(type(s) is ClosureStep for s in trace.steps)
    assert all(type(s) is ShellingStep for s in is_shellable(tree, cover).steps)


def test_extend_rows_name_as_the_trace_does():
    # _extend returns rows over taxon indices, lower end first, and its
    # trace names them lazily; the heap engine's rows name as the trace of
    # engine_closure, the heap engine run from the cords alone.
    tree = random_tree(9, seed=3)
    d = induced_distance(tree, set(triplet_cover(tree, min_order_transversal(tree))))
    taxa = sorted(d.taxa)
    rows, _ = _extend(taxa, d, 1e-9)
    heap_rows, _ = heap_extend(taxa, d, 1e-9)
    for rows, steps in ((rows, _closure_trace(d, taxa, rows).steps), (heap_rows, engine_closure(d).steps)):
        assert rows and all(len(row) == 5 and row[0] < row[3] for row in rows)
        assert [tuple(taxa.index(t) for t in s.quadruple) + (s.value,) for s in steps] == [tuple(r) for r in rows]
