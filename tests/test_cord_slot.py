"""The tree's cord slot: a frozenset of cords is bound to a tree once, and
is_shellable's verdict on it is kept there for the rank certificate.

Every check must answer on a shared tree as on a freshly parsed one,
whichever cord sets and argument types came before; the certificate must
run no closure of its own after is_shellable has run on the same set; and
threads sharing a tree must not see each other's cords.
"""

import random
import sys
import threading

import treelasso.lasso
from treelasso import (
    all_cords,
    edge_weight_lasso_certificate,
    is_cover,
    is_shellable,
    is_triplet_cover,
    min_order_transversal,
    parse_newick,
    random_tree,
    triplet_cover,
)


def _shelling(tree, cords):
    result = is_shellable(tree, cords)
    return result.is_complete, set(result.missing), len(result.steps)


CHECKS = {
    "cover": is_cover,
    "triplet": is_triplet_cover,
    "shellable": _shelling,
    "certificate": edge_weight_lasso_certificate,
}

FORMS = {
    "frozenset": lambda cords: cords,
    "equal frozenset": frozenset,
    "set": set,
    "list": list,
    "generator": lambda cords: (c for c in cords),
}


def _cover(n, seed):
    tree = random_tree(n, seed=seed)
    cover = triplet_cover(tree, min_order_transversal(tree))
    return tree, cover, cover - {max(cover)}


def test_answers_on_a_shared_tree_equal_those_on_a_fresh_tree():
    rng = random.Random(28)
    for seed in range(1, 4):
        tree, cover, less = _cover(12 + 5 * seed, seed)
        text = tree.newick()
        shared = parse_newick(text)
        expected = {
            (id(cords), name): check(parse_newick(text), cords) for cords in (cover, less) for name, check in CHECKS.items()
        }
        assert expected[id(cover), "certificate"] and not expected[id(less), "certificate"]
        assert not expected[id(less), "shellable"][0]
        calls = [(cords, form, name) for cords in (cover, less) for form in FORMS for name in CHECKS] * 3
        rng.shuffle(calls)
        for cords, form, name in calls:
            got = CHECKS[name](shared, FORMS[form](cords))
            assert got == expected[id(cords), name], (seed, form, name)


def _spied(monkeypatch):
    runs = []
    closure = treelasso.lasso._hop_closure
    monkeypatch.setattr(treelasso.lasso, "_hop_closure", lambda *args: runs.append(1) or closure(*args))
    return runs


def test_the_certificate_reads_the_recorded_verdict(monkeypatch):
    tree, cover, less = _cover(20, 5)
    plus = cover | {min(all_cords(tree.taxa) - cover)}
    runs = _spied(monkeypatch)
    for cords in (cover, less, plus):
        fresh = parse_newick(tree.newick())
        runs.clear()
        shellable = is_shellable(fresh, cords).is_complete
        assert edge_weight_lasso_certificate(fresh, cords) == shellable
        assert len(runs) == 1
        fresh = parse_newick(tree.newick())
        runs.clear()
        assert edge_weight_lasso_certificate(fresh, cords) == shellable
        assert edge_weight_lasso_certificate(fresh, cords) == shellable
        assert len(runs) == (len(cords) >= len(fresh.edges()))  # fewer cords than edges: no shortcut
    # An equal set that is another object, or a list, is bound afresh.
    runs.clear()
    is_shellable(fresh, list(cover))
    edge_weight_lasso_certificate(fresh, list(cover))
    edge_weight_lasso_certificate(fresh, frozenset(cover))
    assert len(runs) == 3


def test_threads_sharing_a_tree_keep_their_own_cords():
    tree, cover, less = _cover(14, 7)
    sets = [cover, less, frozenset(cover), frozenset(less)]
    checks = (is_cover, is_triplet_cover, edge_weight_lasso_certificate)
    expected = [tuple(check(parse_newick(tree.newick()), c) for check in checks) for c in sets]
    assert len(set(expected)) == 2
    shared = parse_newick(tree.newick())
    wrong = []

    def work(k):
        for i in range(150):
            cords = sets[(k + i) % len(sets)]
            if i % 3 == 0:
                is_shellable(shared, cords)
            got = tuple(check(shared, cords) for check in checks)
            if got != expected[(k + i) % len(sets)]:
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong, wrong[:5]
