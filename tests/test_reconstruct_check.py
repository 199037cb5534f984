"""reconstruct's final check names the smallest cord the tree misses, with
the same two numbers, on complete inputs (against closure -> NJ -> verify,
tests/reference_reconstruct.py) and on incomplete inputs that place or take
the closure path (against messages recorded from the check that walked the
input cords in sorted order), through the API and the command line; NJ
on values near the largest float; and exact closures that derive values
beyond it."""

import itertools
import math
import random
import subprocess
import sys
import warnings

import pytest

from reference_reconstruct import closure_nj_reconstruct
from test_pair_distances import _heavy_caterpillar, routes  # noqa: F401 (routes is a fixture)
from treelasso import (
    Cord,
    InconsistentDistanceError,
    NonAdditiveError,
    PartialDistance,
    XTree,
    all_cords,
    closure,
    format_cord_distances,
    full_distance,
    induced_distance,
    min_order_transversal,
    neighbor_joining,
    parse_cord_distances,
    random_tree,
    reconstruct,
    triplet_cover,
)
from treelasso.cli import main
from treelasso.reconstruct import VERIFY_EPSILON, _check


def _complete(seed):
    """The metric of a random tree with 2-4 values raised by 0.3."""
    rng = random.Random(f"complete:{seed}")
    d = dict(full_distance(random_tree(rng.randrange(5, 40), seed=seed)))
    for cord in rng.sample(sorted(d), rng.randrange(2, 5)):
        d[cord] += 0.3
    return PartialDistance(d)


def _placed(seed):
    """A stable cover plus n cords, three of the extra cords raised by 1: the
    first metric block spans X."""
    rng = random.Random(f"placement:{seed}")
    n = rng.randrange(8, 16)
    tree = random_tree(n, seed=seed)
    cover = set(triplet_cover(tree, min_order_transversal(tree)))
    extras = rng.sample(sorted(all_cords(tree.taxa) - cover), n)
    d = dict(induced_distance(tree, cover | set(extras)))
    for cord in rng.sample(extras, 3):
        d[cord] += 1.0
    return PartialDistance(d)


def _closed(seed):
    """Most pairs of a random tree with one or two interior edges of length
    0, two values scaled by 1+f: the first block stops short at a vertex the
    zero edge doubles, and the closure path completes."""
    rng = random.Random(f"z:{seed}")
    n = rng.randrange(6, 12)
    tree = random_tree(n, seed=seed)
    edges = tree.edges()
    interior = [k for k, (u, v, _) in enumerate(edges) if not tree.is_leaf(u) and not tree.is_leaf(v)]
    zero = set(rng.sample(interior, rng.choice((1, 2))))
    tree = XTree([(u, v, 0.0 if k in zero else w) for k, (u, v, w) in enumerate(edges)],
                 {tree.leaf_vertex(t): t for t in tree.taxa})
    pairs = sorted(all_cords(tree.taxa))
    d = dict(induced_distance(tree, set(pairs) - set(rng.sample(pairs, rng.randrange(1, n)))))
    f = rng.choice((1e-4, 1e-3, 1e-2, 0.1, 1.0))
    for cord in rng.sample(sorted(d), 2):
        d[cord] *= 1 + f
    return PartialDistance(d)


#: (input, path, message), the messages as the sorted walk over the input
#: cords gave them.  On _placed(1) the quartet of t05, t01, t04 and t06 ties
#: on its given values, so t05 hangs elsewhere than the position margin
#: put it, and the walk over that tree names t02-t05.
RECORDED = [
    (_placed(0), "placement", "reconstructed tree gives 9.317563606887871 for t03-t04, input says 10.31756360688787"),
    (_placed(1), "placement", "reconstructed tree gives 6.818401149213182 for t02-t05, input says 5.818401149213183"),
    (_placed(2), "placement", "reconstructed tree gives 13.493052646181997 for t02-t07, input says 6.283227376956051"),
    (_placed(3), "placement", "reconstructed tree gives 11.851647441576649 for t05-t12, input says 12.851647441576649"),
    (_closed(382), "closure", "reconstructed tree gives 5.921837211084362 for t01-t03, input says 5.905538811761193"),
    (_closed(655), "closure", "reconstructed tree gives 2.826761766737515 for t01-t03, input says 2.8309238027500268"),
    (_closed(924), "closure", "reconstructed tree gives 4.797031340255828 for t01-t02, input says 3.647610846118635"),
    (_closed(1209), "closure", "reconstructed tree gives 4.405827868933615 for t01-t03, input says 4.405857160512477"),
]


@pytest.fixture
def engine_calls(monkeypatch):
    """How often reconstruct ran the quartet engine: never on a placement."""
    calls = []
    module = sys.modules["treelasso.reconstruct"]
    engine = module._extend

    def spy(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(module, "_extend", spy)
    return calls


def _message(d):
    with pytest.raises(NonAdditiveError) as caught:
        reconstruct(d)
    return str(caught.value)


@pytest.mark.parametrize("seed", range(40))
def test_complete_input_names_the_cord_closure_and_nj_names(seed):
    d = _complete(seed)
    with pytest.raises(NonAdditiveError) as expected:
        closure_nj_reconstruct(d)
    assert str(expected.value).startswith("reconstructed tree gives")
    assert _message(d) == str(expected.value)


def _verdict(run, d, verify_eps):
    try:
        return run(d, verify_eps=verify_eps).tree.newick()
    except NonAdditiveError as exc:
        return str(exc)


def _on_the_boundary(seed):
    """A tree metric with one value moved, and the largest gap by which the
    NJ tree misses a value: the float |distance - value| the exact check
    compares."""
    rng = random.Random(f"boundary:{seed}")
    d = dict(full_distance(random_tree(rng.randrange(4, 30), seed=seed)))
    cord = rng.choice(sorted(d))
    d[cord] += rng.choice((1e-9, 1e-6, 1e-3, 0.3))
    d = PartialDistance(d)
    nj = neighbor_joining(d)
    return d, max(abs(nj.distance(*c) - v) for c, v in d.items())


@pytest.mark.parametrize("seed", range(16))
def test_verdicts_a_few_ulps_either_side_of_verify_eps(seed):
    # verify_eps set k ulps from the gap: the moved value then lies k ulps
    # inside or outside it, where only the exact sums decide.
    d, gap = _on_the_boundary(seed)
    verdicts = []
    for k in range(-2, 3):
        verify_eps = gap
        for _ in range(abs(k)):
            verify_eps = math.nextafter(verify_eps, math.inf if k > 0 else 0.0)
        verdicts.append(_verdict(reconstruct, d, verify_eps))
        assert verdicts[-1] == _verdict(closure_nj_reconstruct, d, verify_eps), (seed, k)
    assert verdicts[0].startswith("reconstructed tree gives") and not verdicts[2].startswith("reconstructed")


@pytest.mark.parametrize("k", range(len(RECORDED)))
def test_incomplete_input_names_the_recorded_cord(engine_calls, k):
    d, path, message = RECORDED[k]
    assert _message(d) == message
    assert bool(engine_calls) == (path == "closure")


@pytest.mark.parametrize("k", [0, 4, "complete"])
def test_the_command_line_prints_the_same_message(capsys, tmp_path, k):
    if k == "complete":
        d = _complete(0)
        with pytest.raises(NonAdditiveError) as expected:
            closure_nj_reconstruct(d)
        message = str(expected.value)
    else:
        d, _, message = RECORDED[k]
    path = tmp_path / "d.tsv"
    path.write_text(format_cord_distances(d))
    code = main(["reconstruct", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, "", f"error: inconsistent distances: {message}\n")


def test_a_raised_first_value_is_named_byte_for_byte():
    # CI's bad1000 case at n=60: the complete metric with its first value
    # raised by 1.0.  The check gives the tree's exact value, the one
    # place where a bulk distance reaches a message.
    first, rest = format_cord_distances(full_distance(random_tree(60, seed=1))).split("\n", 1)
    a, b, value = first.split("\t")
    d = parse_cord_distances(f"{a}\t{b}\t{float(value) + 1.0!r}\n{rest}")
    with pytest.raises(NonAdditiveError) as raised:
        reconstruct(d)
    assert str(raised.value) == "reconstructed tree gives 18.227930586797743 for t01-t02, input says 19.20347387578724"



def test_the_check_on_python_ints_names_the_first_failing_cord(routes):
    # Root-path sums past 2^61 take every cord through Python ints.  The
    # messages are those of the check that summed each path in floats first
    # and exactly only where the float sums could not vouch for a pass.
    tree = _heavy_caterpillar(16.0)
    d = dict(full_distance(tree))
    assert _check(tree, PartialDistance(d), VERIFY_EPSILON)
    d[Cord("c004", "c005")] += 1.0
    d[Cord("c002", "c006")] += 1.0
    raised = PartialDistance(d)
    assert not _check(tree, raised, VERIFY_EPSILON, quiet=True)
    with pytest.raises(NonAdditiveError) as caught:
        _check(tree, raised, VERIFY_EPSILON)
    assert str(caught.value) == "reconstructed tree gives 162.0 for c002-c006, input says 163.0"
    assert routes == ["_quotients_int"] * 4

#: A 5-taxon star, every distance 1e308: pendant edges of 5e307, whose row
#: sums overflow unless NJ scales them.
HUGE_STAR = PartialDistance({Cord(f"t{a}", f"t{b}"): 1e308 for a, b in itertools.combinations(range(5), 2)})
HUGE_STAR_NEWICK = "(t0:5e+307,t1:5e+307,(t2:5e+307,(t3:5e+307,t4:5e+307):0):0);"


def test_nj_scales_values_near_the_largest_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert neighbor_joining(HUGE_STAR).newick() == HUGE_STAR_NEWICK
        assert reconstruct(HUGE_STAR).tree.newick() == HUGE_STAR_NEWICK


def test_an_overflow_after_scaling_is_non_additive(monkeypatch):
    # No tree metric overflows once scaled, so no input reached this branch
    # in a seeded search: a join that always overflows stands in for one.
    def overflowing(dist, eps, scale):
        raise FloatingPointError("overflow encountered")

    monkeypatch.setattr(sys.modules["treelasso.reconstruct"], "_joins", overflowing)
    with pytest.raises(NonAdditiveError, match="^neighbor joining overflows on distances up to 1e\\+308$"):
        neighbor_joining(HUGE_STAR)


def test_huge_star_on_the_command_line(tmp_path):
    path = tmp_path / "star.tsv"
    path.write_text(format_cord_distances(HUGE_STAR))
    proc = subprocess.run(
        [sys.executable, "-m", "treelasso", "reconstruct", str(path)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, HUGE_STAR_NEWICK + "\n", "")


#: Legal values that fit no tree metric (d(t01,t06) passes d(t01,t02) +
#: d(t02,t06)): exact arithmetic derives t03-t06 as about 2e308, past the
#: largest float, where float sums overflow and the quartet never fires.
BEYOND_FLOAT = "t02\tt03\t1e+308\nt01\tt02\t5e-324\nt01\tt03\t1e+308\nt02\tt06\t0.0\nt01\tt06\t1e+308\n"
BEYOND_FLOAT_ERROR = "t03-t06 derivable as 2.0000000000000000e+308 via (t03,t01,t02,t06), beyond the float range"

#: Two quartets derive ae exactly, as about 2e308 and 3e308.  Exact metric
#: blocks place all five taxa first, on a tree whose b-d distance is 1e308
#: where the input says 1: the block check names bd, as does the check of
#: the placed tree.
BEYOND_FLOAT_CLASH = (
    "a\tb\t1e308\na\tc\t1.5e308\na\td\t1.5e308\nb\tc\t1e308\nb\td\t1\n"
    "c\td\t1\nb\te\t1.5e308\nc\te\t1e308\nd\te\t1e308\n"
)


@pytest.mark.parametrize(
    "text, cord, errors",
    [
        (BEYOND_FLOAT, Cord("t03", "t06"), [(InconsistentDistanceError, BEYOND_FLOAT_ERROR)] * 2),
        (
            BEYOND_FLOAT_CLASH,
            Cord("a", "e"),
            [
                (InconsistentDistanceError, "bd derivable as both 1.0 and 1e+308"),
                (NonAdditiveError, "reconstructed tree gives 1e+308 for bd, input says 1.0"),
            ],
        ),
    ],
    ids=["derived", "clash"],
)
def test_exact_values_beyond_the_float_range_are_inconsistent(text, cord, errors):
    d = parse_cord_distances(text)
    for run, (error, message) in zip((closure, reconstruct), errors):
        with pytest.raises(error) as raised:
            run(d, exact_rational=True)
        assert str(raised.value) == message
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the float sums overflow
        assert reconstruct(d).missing == {cord}


#: Values that fit no tree metric, on which exact metric blocks place all six
#: taxa: the placed tree's path between the ends of a given cord passes the
#: float range, where its exact sum overflows.
BEYOND_FLOAT_PATH = (
    "t0\tt1\t1.5e+308\nt0\tt2\t1e+308\nt0\tt5\t1e+308\nt1\tt2\t1.5e+308\nt1\tt3\t1e+308\n"
    "t1\tt4\t5e+307\nt2\tt4\t1e+308\nt2\tt5\t1.7e+308\nt3\tt4\t7.104680596865936e+307\nt3\tt5\t5e+307\n"
)


def test_a_placed_path_beyond_the_float_range_exits_3(tmp_path):
    message = "reconstructed tree has a cord's path beyond the float range"
    with pytest.raises(NonAdditiveError) as raised:
        reconstruct(parse_cord_distances(BEYOND_FLOAT_PATH), exact_rational=True)
    assert str(raised.value) == message
    path = tmp_path / "path.tsv"
    path.write_text(BEYOND_FLOAT_PATH)
    proc = subprocess.run(
        [sys.executable, "-m", "treelasso", "reconstruct", "--exact-rational", str(path)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: inconsistent distances: {message}\n")


@pytest.mark.parametrize("command", ["reconstruct", "closure"])
def test_float_sums_beyond_the_range_print_no_warning(tmp_path, command):
    # The quartet engine's sums overflow to inf (and inf - inf is nan): such
    # a quartet is never strict, and numpy says nothing about it.
    path = tmp_path / "beyond.tsv"
    path.write_text(BEYOND_FLOAT)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "treelasso", command, str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr
    assert proc.stderr.startswith("closure incomplete: 1 cord(s) missing\n")


@pytest.mark.parametrize("command", ["reconstruct", "closure"])
def test_exact_values_beyond_the_float_range_on_the_command_line(tmp_path, command):
    path = tmp_path / "beyond.tsv"
    path.write_text(BEYOND_FLOAT)
    proc = subprocess.run(
        [sys.executable, "-m", "treelasso", command, "--exact-rational", str(path)], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: inconsistent distances: {BEYOND_FLOAT_ERROR}\n"
