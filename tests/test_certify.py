"""tree_from_2dtree(certify=True): the cords must be a shellable lasso of
the built tree.  That is exact on hop counts, so the check passes on fans,
whose repeatedly halved weights fall inside the float tolerance, and it
returns the same tree as certify=False."""

import random
import subprocess
import sys

import pytest

import treelasso.lasso
from treelasso import (
    Cord,
    ShellingResult,
    closest_leaf_transversal,
    is_2dtree,
    min_order_transversal,
    random_tree,
    tree_from_2dtree,
    triplet_cover,
)


def _fan(n):
    """x0000-x0001, and every later vertex joined to both of them."""
    labels = [f"x{i:04d}" for i in range(n)]
    return [Cord(labels[0], labels[1])] + [Cord(labels[k], t) for t in labels[2:] for k in (0, 1)]


def _ladder(n):
    """Vertex i joined to i-1 and i-2."""
    return [Cord(f"v{i:03d}", f"v{i - k:03d}") for i in range(n) for k in (1, 2) if i >= k]


def _two_d_tree(rng, n):
    """A random 2d-tree by the definition, with its defining ordering."""
    order = rng.sample([f"y{i}" for i in range(n)], n)
    cords = {Cord(order[0], order[1])}
    for i in range(2, n):
        cords.update(Cord(order[i], t) for t in rng.sample(order[:i], 2))
    return cords, order


def _certified_as_plain(cords, ordering):
    built = tree_from_2dtree(cords, ordering, certify=True)
    plain = tree_from_2dtree(cords, ordering)
    assert built.edges() == plain.edges(), ordering
    assert built.newick() == plain.newick()


@pytest.mark.parametrize("n", [35, 60])
def test_fan_certifies(n):
    cords = _fan(n)
    ordering = is_2dtree(cords)
    _certified_as_plain(cords, ordering)
    # The halved weights the float closure could not resolve.
    assert min(w for _, _, w in tree_from_2dtree(cords, ordering).edges()) < 1e-9


@pytest.mark.parametrize("n", [35, 60])
def test_fan_certifies_on_the_command_line(tmp_path, n):
    path = tmp_path / "fan.cords"
    path.write_text("".join(f"{c.a}\t{c.b}\n" for c in _fan(n)))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "treelasso", "treefrom2d", str(path), *flags],
            capture_output=True,
            text=True,
        )
        for flags in ([], ["--certify"])
    ]
    for proc in runs:
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
    assert runs[1].stdout == runs[0].stdout


def test_a_failed_check_names_shellability(monkeypatch):
    cords = _fan(5)
    unshellable = ShellingResult((), frozenset({Cord("x0002", "x0003")}))
    monkeypatch.setattr(treelasso.lasso, "is_shellable", lambda tree, cords: unshellable)
    with pytest.raises(AssertionError, match="shellable lasso"):
        tree_from_2dtree(cords, is_2dtree(cords), certify=True)
    tree_from_2dtree(cords, is_2dtree(cords))  # no check, no error


def test_certify_returns_the_plain_tree_on_a_seeded_sweep():
    checked = 0
    for n in range(3, 61, 3):  # stable covers, with their is_2dtree ordering
        tree = random_tree(n, seed=n)
        order = sorted(tree.taxa)
        random.Random(n).shuffle(order)
        for transversal in (min_order_transversal(tree, order), closest_leaf_transversal(tree)):
            cords = triplet_cover(tree, transversal)
            _certified_as_plain(cords, is_2dtree(cords, tree.taxa))
            checked += 1
    for seed in range(60):  # 2d-trees by the definition, with both orderings
        rng = random.Random(seed)
        cords, order = _two_d_tree(rng, rng.randrange(3, 31))
        for ordering in (order, is_2dtree(cords)):
            _certified_as_plain(cords, ordering)
            checked += 1
    for n in (3, 4, 10, 25, 60):
        for cords in (_ladder(n), _fan(n)):
            _certified_as_plain(cords, is_2dtree(cords))
            checked += 1
    assert checked == 40 + 120 + 10


def test_the_tolerance_parameter_is_gone():
    cords = _fan(4)
    with pytest.raises(TypeError):
        tree_from_2dtree(cords, is_2dtree(cords), certify=True, eps=1e-9)
