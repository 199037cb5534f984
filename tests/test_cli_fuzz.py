"""A seeded fuzz of the command line, run in process through cli.main: no
legal input may end in an exception, an exit status outside the contract,
or stdout that differs between two runs.

Inputs are random trees on 3-20 taxa with about 30 % of the edge weights
drawn from a set of extreme values, random cord subsets or stable covers
with cords added or removed, and the induced distances, some perturbed by
a factor or by relative noise.  Every subcommand runs, with --trace where
it has one and --oracle-topological on half the inputs with n <= 7.
"""

import contextlib
import io
import random

import pytest

from treelasso import (
    XTree,
    all_cords,
    format_cord_set,
    induced_distance,
    min_order_transversal,
    random_tree,
    triplet_cover,
)
from treelasso.cli import main

#: Weights that have ended in tracebacks or warnings before: zeros of both
#: signs, the smallest subnormal, values near the tolerances, and values
#: whose sums leave the float range.
WEIGHTS = (0.0, -0.0, 5e-324, 1e-300, 1e-9, 2.5e-8, 0.5, 1.0, 3.0, 1e12, 1e308, 1.7e308)

CASES = 60


def _tree(rng):
    n = rng.randint(3, 20)
    tree = random_tree(n, seed=rng.randrange(2**32))
    edges = [(u, v, rng.choice(WEIGHTS) if rng.random() < 0.3 else w) for u, v, w in tree.edges()]
    return XTree(edges, {tree.leaf_vertex(t): t for t in tree.taxa})


def _cords(rng, tree):
    everything = sorted(all_cords(tree.taxa))
    if rng.random() < 0.5:
        return set(rng.sample(everything, rng.randint(1, len(everything))))
    cover = set(triplet_cover(tree, min_order_transversal(tree)))
    extras = set(rng.sample(everything, rng.randint(0, tree.n_leaves)))
    dropped = set(rng.sample(sorted(cover), rng.randint(0, 2)))
    return (cover | extras) - dropped or cover


def _distances(rng, tree, cords):
    """The induced distances as file text, some perturbed; None when a path
    sum leaves the float range."""
    try:
        d = dict(induced_distance(tree, cords))
    except OverflowError:
        return None
    kind = rng.choice(("exact", "factor", "noise"))
    if kind == "factor":
        cord = rng.choice(sorted(d))
        d[cord] *= rng.uniform(0.5, 1.5)
    elif kind == "noise":
        d = {c: v * (1 + 1e-8 * rng.uniform(-1, 1)) for c, v in d.items()}
    return "".join(f"{c.a}\t{c.b}\t{v!r}\n" for c, v in sorted(d.items()))


def _commands(rng, tree, paths, has_distances):
    nwk, cords, tsv = paths
    oracle = tree.n_leaves <= 7 and rng.random() < 0.5  # up to a few seconds a run at n=7
    commands = [
        ["classify", nwk, cords, "--trace", "-", *(["--oracle-topological"] if oracle else [])],
        ["gencover", nwk, "--transversal", rng.choice(("min", "closest", "furthest")), "--seed", "1"],
        ["treefrom2d", cords],
        ["treefrom2d", cords, "--certify"],
        [
            "simulate", "--n", str(tree.n_leaves), "--trials", "2", "--seed", str(rng.randrange(100)),
            "--weight-range", ",".join(map(repr, sorted(rng.sample([w for w in WEIGHTS if w > 0], 2)))),
            "--dropout", str(rng.choice((0.0, 0.3))), "--extra", str(rng.randint(0, 3)),
        ],
    ]
    if has_distances:
        for command in ("reconstruct", "closure"):
            commands += [[command, tsv, "--trace", "-"], [command, tsv, "--trace", "-", "--exact-rational"]]
    return commands


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(5))
def test_cli_fuzz(tmp_path, seed):
    codes = set()
    for k in range(CASES // 5):
        rng = random.Random(f"cli-fuzz:{seed}:{k}")
        tree = _tree(rng)
        cords = _cords(rng, tree)
        text = _distances(rng, tree, cords)
        paths = [str(tmp_path / name) for name in ("t.nwk", "c.cords", "d.tsv")]
        for path, content in zip(paths, (tree.newick() + "\n", format_cord_set(cords), text or "")):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        for argv in _commands(rng, tree, paths, text is not None):
            code, out, err = _run(argv)
            case = (seed, k, argv, tree.newick())
            assert code in (0, 1, 2, 3), (case, code, err)
            assert "Traceback" not in err, case
            assert _run(argv)[:2] == (code, out), case
            codes.add(code)
    assert 0 in codes and 1 in codes
