"""Command-line front end.

Subcommands: reconstruct, classify, gencover, simulate, treefrom2d, closure.
Reports go to stdout as TSV, diagnostics to stderr.  Exit statuses are a
stable contract: 0 success, 1 input error, 2 incomplete closure, 3 distance
inconsistency (non-tree-metric input).  The LASSO_EPSILON environment
variable overrides the comparison tolerance (default 1e-9).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time

from .cords import (
    CordFormatError,
    _content_lines,
    all_cords,
    cord_taxa,
    format_cord_distances,
    format_cord_set,
    graph_necessary_checks,
    induced_distance,
    parse_cord_distances,
    parse_cord_set,
)
from .cover import (
    closest_leaf_transversal,
    is_cover,
    is_triplet_cover,
    min_order_transversal,
    triplet_cover,
)
from .lasso import (
    InconsistentDistanceError,
    edge_weight_lasso_certificate,
    is_2dtree,
    is_shellable,
    topological_lasso_oracle,
    tree_from_2dtree,
)
from .reconstruct import NonAdditiveError, closure, reconstruct
from .tolerance import DEFAULT_EPSILON
from .tree import NewickError, TreeError, parse_newick, random_tree, split_weight_delta, is_equivalent

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCOMPLETE = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is taken by "incomplete
    # closure" here, so remap usage problems to the input-error status.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _epsilon() -> float:
    raw = os.environ.get("LASSO_EPSILON")
    if raw is None:
        return DEFAULT_EPSILON
    try:
        eps = float(raw)
    except ValueError:
        raise CordFormatError(f"LASSO_EPSILON is not a number: {raw!r}")
    if not math.isfinite(eps) or eps < 0:
        raise CordFormatError(f"LASSO_EPSILON must be finite and >= 0, got {raw!r}")
    return eps


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CordFormatError(f"cannot read {path}: {exc.strerror}")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommands --------------------------------------------------------------


def cmd_reconstruct(args) -> int:
    distances = parse_cord_distances(_read(args.distances), eps=args.eps)
    if len(distances.taxa) < 3:
        raise CordFormatError(
            f"need at least 3 taxa, the file mentions {len(distances.taxa)}"
        )
    result = reconstruct(distances, eps=args.eps, exact_rational=args.exact_rational)
    if args.trace:
        _write(args.trace, "".join(line + "\n" for line in result.trace.lines()))
    if not result.ok:
        print(f"closure incomplete: {len(result.missing)} cord(s) missing", file=sys.stderr)
        for cord in sorted(result.missing):
            print(f"{cord.a}\t{cord.b}", file=sys.stderr)
        return EXIT_INCOMPLETE
    _write(args.out, result.tree.newick() + "\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    tree = parse_newick(_read(args.tree))
    cords = parse_cord_set(_read(args.cords))
    if not tree.is_fully_resolved():
        raise TreeError("classify needs a fully-resolved tree")
    stray = cord_taxa(cords) - tree.taxa
    if stray:
        raise CordFormatError(f"cords mention taxa not in the tree: {sorted(stray)!r}")

    # The oracle runs first: when it rejects the input, nothing is printed.
    if args.oracle_topological:
        witness = topological_lasso_oracle(tree, cords, eps=args.eps)
    checks = graph_necessary_checks(cords, tree.taxa)
    print(f"connected\t{_yes(checks.connected)}")
    print(f"non-bipartite\t{_yes(checks.all_components_non_bipartite)}")
    print(f"cover\t{_yes(is_cover(tree, cords))}")
    print(f"triplet-cover\t{_yes(is_triplet_cover(tree, cords))}")
    shelling = is_shellable(tree, cords)
    print(f"shellable\t{_yes(shelling.is_complete)}")
    if args.trace:
        _write(args.trace, "".join(line + "\n" for line in shelling.lines()))
    ordering = is_2dtree(cords, tree.taxa)
    if ordering is None:
        print("2d-tree\tno")
    else:
        print(f"2d-tree\tyes\t{','.join(ordering)}")
    lasso = edge_weight_lasso_certificate(tree, cords)
    print(f"edge-weight-lasso\t{_yes(lasso)}\trank-target={len(tree.edges())}")
    if args.oracle_topological:
        if witness is None:
            print("topological-oracle\tgenerically-topological")
        else:
            print(f"topological-oracle\trefuted\t{witness.newick()}")
    return EXIT_OK


def cmd_gencover(args) -> int:
    tree = parse_newick(_read(args.tree))
    if not tree.is_fully_resolved():
        raise TreeError("gencover needs a fully-resolved tree")

    order = None
    if args.order:
        order = [line.strip() for line in _read(args.order).splitlines() if line.strip()]
    elif args.seed is not None:
        order = sorted(tree.taxa)
        random.Random(args.seed).shuffle(order)

    if args.assignment:
        f = _parse_assignment(_read(args.assignment), tree, order)
    elif args.transversal == "min":
        f = min_order_transversal(tree, order)
    else:
        f = closest_leaf_transversal(tree, mode=args.transversal, tiebreak=order, eps=args.eps)

    cords = triplet_cover(tree, f)
    expected = 2 * tree.n_leaves - 3
    print(f"|L| = {len(cords)} = 2n-3 = {expected}", file=sys.stderr)
    if len(cords) != expected:
        raise AssertionError(f"generated cover has size {len(cords)}, expected {expected}")
    _write(args.out, format_cord_set(cords))
    return EXIT_OK


def _parse_assignment(text: str, tree, order):
    """Transversal file: per line 'taxon1,taxon2,...<TAB>image-taxon'.
    Clusters not listed fall back to the min rule under *order*."""
    f = min_order_transversal(tree, order)  # its keys are the clusters of the tree
    for lineno, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise CordFormatError("expected 'taxa,...<TAB>image'", lineno)
        cluster = frozenset(t.strip() for t in fields[0].split(","))
        image = fields[1].strip()
        if cluster not in f:
            raise CordFormatError(f"{{{fields[0]}}} is not a cluster of the tree", lineno)
        if image not in cluster:
            raise CordFormatError(f"image {image!r} is outside the cluster", lineno)
        f[cluster] = image
    return f


def cmd_treefrom2d(args) -> int:
    cords = parse_cord_set(_read(args.cords))
    taxa = cord_taxa(cords)
    if len(taxa) < 3:
        raise CordFormatError(f"need at least 3 taxa, the file mentions {len(taxa)}")
    ordering = is_2dtree(cords)
    if ordering is None:
        raise CordFormatError("the cord set is not a 2d-tree")
    tree = tree_from_2dtree(cords, ordering, certify=args.certify)
    print(f"ordering: {','.join(ordering)}", file=sys.stderr)
    _write(args.out, tree.newick() + "\n")
    return EXIT_OK


def cmd_closure(args) -> int:
    distances = parse_cord_distances(_read(args.distances), eps=args.eps)
    trace = closure(distances, eps=args.eps, exact_rational=args.exact_rational)
    if args.trace:
        _write(args.trace, "".join(line + "\n" for line in trace.lines()))
    _write(args.out, format_cord_distances(trace.final))
    if not trace.is_complete:
        print(f"closure incomplete: {len(trace.missing)} cord(s) missing", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.n < 3:
        raise CordFormatError("--n must be at least 3")
    if args.trials < 1:
        raise CordFormatError("--trials must be at least 1")
    if not (0.0 <= args.dropout < 1.0):
        raise CordFormatError("--dropout must lie in [0, 1)")
    if args.extra < 0:
        raise CordFormatError("--extra must be >= 0")
    lo, hi = args.weight_range
    if not (0 < lo <= hi):
        raise CordFormatError("--weight-range needs 0 < lo <= hi")
    if not (args.n - 1) * hi < sys.float_info.max:  # a path has at most n-1 edges
        raise CordFormatError(f"--weight-range: a path of {args.n - 1} edges of weight {hi!r} leaves the float range")

    successes = 0
    total_steps = 0
    total_seconds = 0.0
    raised: list[str] = []  # the message of each trial whose reconstruct raised
    for trial in range(args.trials):
        rng = random.Random(f"{args.seed}:{trial}")
        tree = random_tree(args.n, seed=rng.randrange(2**63), weight_range=(lo, hi))
        order = sorted(tree.taxa)
        rng.shuffle(order)
        cover_cords = triplet_cover(tree, min_order_transversal(tree, order))

        pool = sorted(all_cords(tree.taxa) - cover_cords)
        extras = set(rng.sample(pool, min(args.extra, len(pool))))
        kept = set(cover_cords) | extras
        droppable = extras if not args.drop_cover else kept
        kept -= {c for c in sorted(droppable) if rng.random() < args.dropout}

        start = time.perf_counter()
        recovered = False
        steps = 0
        if kept:
            try:
                result = reconstruct(induced_distance(tree, kept), eps=args.eps)
            except (InconsistentDistanceError, NonAdditiveError) as exc:  # a trial not recovered
                raised.append(str(exc))
            else:
                steps = len(result.trace.steps)
                recovered = (
                    result.ok
                    and result.tree.taxa == tree.taxa
                    and is_equivalent(result.tree, tree)
                    and split_weight_delta(result.tree, tree) <= 1e-6
                )
        total_seconds += time.perf_counter() - start
        total_steps += steps
        successes += recovered

    print("n\ttrials\tdropout\textra\tsuccesses\tsuccess_rate\tmean_closure_steps")
    rate = successes / args.trials
    print(
        f"{args.n}\t{args.trials}\t{args.dropout}\t{args.extra}"
        f"\t{successes}\t{rate}\t{total_steps / args.trials}"
    )
    print(f"mean wall time: {1000.0 * total_seconds / args.trials:.3f} ms/trial", file=sys.stderr)
    if raised:
        print(f"{len(raised)} trial(s) raised, the first: inconsistent distances: {raised[0]}", file=sys.stderr)
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="treelasso",
        description="Tree reconstruction and cord-set classification from partial leaf distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="rebuild a tree from a cord-distance TSV")
    p.add_argument("distances", help="cord-distance TSV file")
    p.add_argument("-o", "--out", default=None, help="output Newick path (default stdout)")
    p.add_argument(
        "--trace",
        default=None,
        help="write how each missing distance was derived to this path: in placement order, "
        "or the placed blocks' cords and then the closure's",
    )
    p.add_argument("--exact-rational", action="store_true", help="exact arithmetic in the closure")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("classify", help="report cover/lasso properties of a cord set for a tree")
    p.add_argument("tree", help="Newick file (fully resolved)")
    p.add_argument("cords", help="cord-set file (taxonA<TAB>taxonB per line)")
    p.add_argument("--trace", default=None, help="write the shelling trace to this path")
    p.add_argument(
        "--oracle-topological",
        action="store_true",
        help="also run the exact topological oracle (pruned, n <= 9)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gencover", help="generate a stable triplet cover for a tree")
    p.add_argument("tree", help="Newick file (fully resolved)")
    p.add_argument("-o", "--out", default=None, help="output cords path (default stdout)")
    p.add_argument(
        "--transversal",
        choices=("min", "closest", "furthest"),
        default="min",
        help="transversal construction (default min)",
    )
    p.add_argument(
        "--order",
        default=None,
        help="file with one taxon per line: total order for min/tiebreaks (overrides --seed)",
    )
    p.add_argument(
        "--assignment",
        default=None,
        help="explicit cluster-to-taxon assignment file (overrides --transversal)",
    )
    p.add_argument("--seed", type=int, default=None, help="randomise the taxon order")
    p.set_defaults(func=cmd_gencover)

    p = sub.add_parser("simulate", help="success-rate campaign over random trees")
    p.add_argument("--n", type=int, required=True, help="number of leaves")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--weight-range",
        type=_parse_range,
        default=(0.5, 2.0),
        metavar="LO,HI",
        help="edge-weight range (default 0.5,2.0)",
    )
    p.add_argument("--dropout", type=float, default=0.0, help="drop probability per droppable cord")
    p.add_argument("--extra", type=int, default=0, help="extra random cords added per trial")
    p.add_argument(
        "--drop-cover",
        action="store_true",
        help="let --dropout hit the cover cords themselves, not just extras",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("treefrom2d", help="build a tree lassoed by a 2d-tree cord set")
    p.add_argument("cords", help="cord-set file")
    p.add_argument("-o", "--out", default=None, help="output Newick path (default stdout)")
    p.add_argument(
        "--certify", action="store_true", help="check that the cords are a shellable lasso of the result"
    )
    p.set_defaults(func=cmd_treefrom2d)

    p = sub.add_parser("closure", help="run the raw distance-extension fixpoint")
    p.add_argument("distances", help="cord-distance TSV file")
    p.add_argument("-o", "--out", default=None, help="output TSV path (default stdout)")
    p.add_argument("--trace", default=None, help="write the step trace to this path")
    p.add_argument("--exact-rational", action="store_true", help="exact arithmetic")
    p.set_defaults(func=cmd_closure)

    return parser


def _parse_range(raw: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO,HI got {raw!r}")
    return lo, hi


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # No RecursionError handler: the library never recurses on input size.
    try:
        args.eps = _epsilon()
        return args.func(args)
    except (NewickError, CordFormatError, TreeError, ValueError) as exc:
        if isinstance(exc, (InconsistentDistanceError, NonAdditiveError)):
            print(f"error: inconsistent distances: {exc}", file=sys.stderr)
            return EXIT_INCONSISTENT
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
