"""Command-line interface: subcommands, file formats, exit-status contract."""

import subprocess
import sys

import pytest

import treelasso.cli
import treelasso.lasso
from treelasso import induced_distance, is_equivalent, parse_newick
from treelasso.cli import main
from conftest import REMARK1_PAIRS, SNOWFLAKE6_NEWICK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example1_tsv(tmp_path, caterpillar7, lasso11):
    d = induced_distance(caterpillar7, lasso11)
    path = tmp_path / "example1.tsv"
    path.write_text("".join(f"{c.a}\t{c.b}\t{d[c]}\n" for c in d))
    return str(path)


@pytest.fixture
def snowflake_nwk(tmp_path):
    path = tmp_path / "snowflake.nwk"
    path.write_text(SNOWFLAKE6_NEWICK + "\n")
    return str(path)


class TestReconstructCommand:
    def test_example1_round_trip(self, capsys, tmp_path, example1_tsv, caterpillar7):
        out_path = tmp_path / "out.nwk"
        code, out, err = run(capsys, "reconstruct", example1_tsv, "-o", str(out_path))
        assert code == 0
        assert is_equivalent(parse_newick(out_path.read_text()), caterpillar7)

    def test_incomplete_closure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "partial.tsv"
        path.write_text("a\tb\t2.0\na\tc\t2.0\n")
        code, out, err = run(capsys, "reconstruct", str(path))
        assert code == 2
        assert out == ""
        assert "b\tc" in err

    def test_negative_distance_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t2.0\na\tc\t-1\n")
        code, out, err = run(capsys, "reconstruct", str(path))
        assert code == 1
        assert "line 2" in err

    def test_non_additive_exit_3(self, capsys, tmp_path):
        path = tmp_path / "nonadd.tsv"
        path.write_text("x\ty\t1.0\nx\tz\t1.0\ny\tz\t10.0\n")
        code, out, err = run(capsys, "reconstruct", str(path))
        assert code == 3
        assert "inconsistent" in err

    @pytest.mark.parametrize(
        "argv", [("reconstruct",), ("reconstruct", "--exact-rational"), ("closure",)]
    )
    def test_negative_derived_distance_exit_3(self, capsys, tmp_path, argv):
        # Well-formed, but the quartet on a, b, c, d derives d(c,d) = -7.
        path = tmp_path / "negative.tsv"
        path.write_text("a\tb\t10\na\tc\t1\nb\tc\t1\na\td\t1\nb\td\t2\n")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3
        assert out == ""
        assert err == "error: inconsistent distances: cd derivable as -7.0 via (c,b,a,d), below 0\n"

    def test_trace_file(self, capsys, tmp_path, example1_tsv):
        trace_path = tmp_path / "steps.txt"
        code, out, _ = run(capsys, "reconstruct", example1_tsv, "--trace", str(trace_path))
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 10  # 21 cords - 11 given
        assert all(":=" in line for line in lines)

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", str(tmp_path / "nope.tsv"))
        assert code == 1


class TestClassifyCommand:
    def test_snowflake_cover_all_yes(self, capsys, tmp_path, snowflake_nwk, cover9):
        cords_path = tmp_path / "cover.cords"
        cords_path.write_text("".join(f"{c.a}\t{c.b}\n" for c in sorted(cover9)))
        code, out, _ = run(
            capsys, "classify", snowflake_nwk, str(cords_path), "--oracle-topological"
        )
        assert code == 0
        report = dict(
            line.split("\t")[:2] for line in out.strip().splitlines()
        )
        assert report["connected"] == "yes"
        assert report["non-bipartite"] == "yes"
        assert report["cover"] == "yes"
        assert report["triplet-cover"] == "yes"
        assert report["shellable"] == "yes"
        assert report["2d-tree"] == "yes"
        assert report["edge-weight-lasso"] == "yes"
        assert report["topological-oracle"] == "generically-topological"

    def test_remark1_verdicts(self, capsys, tmp_path):
        tree_path = tmp_path / "quartet.nwk"
        tree_path.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        cords_path = tmp_path / "remark1.cords"
        cords_path.write_text(
            "".join(f"{a}\t{b}\n" for a, b in REMARK1_PAIRS)
        )
        code, out, _ = run(
            capsys, "classify", str(tree_path), str(cords_path), "--oracle-topological"
        )
        assert code == 0
        report = dict(line.split("\t")[:2] for line in out.strip().splitlines())
        assert report["2d-tree"] == "yes"
        assert report["shellable"] == "no"
        assert report["edge-weight-lasso"] == "no"
        assert report["topological-oracle"] == "refuted"

    def test_complete_shelling_answers_the_rank_line(self, capsys, monkeypatch, tmp_path, snowflake_nwk, cover9):
        cords_path = tmp_path / "cover.cords"
        cords_path.write_text("".join(f"{c.a}\t{c.b}\n" for c in sorted(cover9)))
        argv = ("classify", snowflake_nwk, str(cords_path), "--trace", "-")
        expected = run(capsys, *argv)

        def refuse(tree, cords):
            raise AssertionError("the rank ran on a shellable cord set")

        monkeypatch.setattr(treelasso.lasso, "_full_rank", refuse)
        assert run(capsys, *argv) == expected
        assert "edge-weight-lasso\tyes\trank-target=9\n" in expected[1]
        cords_path.write_text("".join(f"{c.a}\t{c.b}\n" for c in sorted(cover9)[1:]))
        with pytest.raises(AssertionError, match="rank ran"):
            main(list(argv))  # not shellable: the rank answers

    def test_a_no_runs_the_shelling_closure_once(self, capsys, monkeypatch, tmp_path):
        # Remark 1's 2d-tree: 2n-3 cords, not shellable, so the rank decides.
        tree_path = tmp_path / "quartet.nwk"
        tree_path.write_text("((a:1,b:1):1,(c:1,d:1):1);\n")
        cords_path = tmp_path / "remark1.cords"
        cords_path.write_text("".join(f"{a}\t{b}\n" for a, b in REMARK1_PAIRS))
        argv = ("classify", str(tree_path), str(cords_path))
        expected = run(capsys, *argv)
        calls = []
        closure = treelasso.lasso._hop_closure
        monkeypatch.setattr(treelasso.lasso, "_hop_closure", lambda *args: calls.append(args) or closure(*args))
        assert run(capsys, *argv) == expected
        assert "shellable\tno\n" in expected[1] and "edge-weight-lasso\tno\trank-target=5\n" in expected[1]
        assert len(calls) == 1

    def test_leaf_set_mismatch(self, capsys, tmp_path, snowflake_nwk):
        cords_path = tmp_path / "alien.cords"
        cords_path.write_text("a\tzz\n")
        code, _, err = run(capsys, "classify", snowflake_nwk, str(cords_path))
        assert code == 1

    @pytest.mark.parametrize(
        "n, cords, message",
        [(10, "cover", "oracle supports at most 9 taxa, got 10"), (5, "", "oracle needs a non-empty cord set")],
        ids=["ten-taxa", "no-cords"],
    )
    def test_oracle_rejection_prints_no_verdicts(self, capsys, tmp_path, n, cords, message):
        # The oracle runs before the first verdict line, so an input it
        # rejects leaves stdout empty rather than a partial report.
        from treelasso import format_cord_set, min_order_transversal, random_tree, triplet_cover

        tree = random_tree(n, seed=1)
        tree_path = tmp_path / "tree.nwk"
        tree_path.write_text(tree.newick() + "\n")
        cords_path = tmp_path / "cords.tsv"
        if cords:
            cords = format_cord_set(triplet_cover(tree, min_order_transversal(tree)))
        cords_path.write_text(cords)
        code, out, err = run(
            capsys, "classify", str(tree_path), str(cords_path), "--oracle-topological"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


    def test_oracle_on_overflowing_cord_distances(self, tmp_path):
        # Legal weights whose b-e path passes the float range: the oracle
        # names the overflow, with no traceback.
        tree = tmp_path / "big.nwk"
        tree.write_text("((a:1,b:1):1e308,(c:1,d:1):1e308,e:1e308);\n")
        cords = tmp_path / "big.cords"
        cords.write_text("a\tc\na\te\nc\te\na\tb\nc\td\nb\td\nb\te\n")
        proc = subprocess.run(
            [sys.executable, "-m", "treelasso", "classify", "--oracle-topological", str(tree), str(cords)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: topological oracle: a cord distance overflows the float range\n"
        assert "Traceback" not in proc.stderr

    def test_oracle_near_the_float_range_warns_nothing(self, tmp_path):
        # A fuzz input whose largest cord distance is 1e308: the oracle's
        # scaling and its least-squares test raise no warning, here errors.
        tree = tmp_path / "big.nwk"
        tree.write_text(
            "(t01:1e-300,((t02:0.6729481173202683,t04:1e+308):1.0747578066927839,t03:0)"
            ":1.4720385349102294,t05:0.7373173188222804);\n"
        )
        cords = tmp_path / "big.cords"
        cords.write_text("t01\tt02\nt01\tt03\nt01\tt04\nt01\tt05\nt02\tt04\nt02\tt05\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "treelasso", "classify", "--oracle-topological", str(tree), str(cords)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1].startswith("topological-oracle\trefuted\t")


class TestGencoverCommand:
    def test_example3_assignment_file(self, capsys, tmp_path, snowflake_nwk, cover9):
        # The full Example-3 transversal, co-singletons included (the
        # min-rule default would break stability for them).
        assignment = tmp_path / "assignment.tsv"
        taxa = ["a", "ap", "b", "bp", "c", "cp"]
        lines = []
        lines.append("a,ap\ta")
        lines.append("b,bp\tb")
        lines.append("c,cp\tc")
        lines.append("b,bp,c,cp\tb")   # X - {a,ap}
        lines.append("a,ap,c,cp\tc")   # X - {b,bp}
        lines.append("a,ap,b,bp\ta")   # X - {c,cp}
        co = {"a": "b", "ap": "b", "b": "c", "bp": "c", "c": "a", "cp": "a"}
        for x, image in co.items():
            rest = ",".join(t for t in taxa if t != x)
            lines.append(f"{rest}\t{image}")
        assignment.write_text("".join(line + "\n" for line in lines))

        out_path = tmp_path / "cover.cords"
        code, _, err = run(
            capsys,
            "gencover",
            snowflake_nwk,
            "--assignment",
            str(assignment),
            "-o",
            str(out_path),
        )
        assert code == 0
        assert "|L| = 9" in err
        produced = {
            tuple(line.split("\t")) for line in out_path.read_text().strip().splitlines()
        }
        assert produced == {(c.a, c.b) for c in cover9}

    def test_min_mode_size(self, capsys, tmp_path):
        tree_path = tmp_path / "random10.nwk"
        from treelasso import random_tree

        tree_path.write_text(random_tree(10, seed=3).newick() + "\n")
        code, out, err = run(capsys, "gencover", str(tree_path))
        assert code == 0
        assert "|L| = 17" in err
        assert len(out.strip().splitlines()) == 17

    def test_three_leaf_star(self, capsys, tmp_path):
        tree_path = tmp_path / "star.nwk"
        tree_path.write_text("(x,y,z);\n")
        code, out, _ = run(capsys, "gencover", str(tree_path))
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_unstable_assignment_exit_1(self, capsys, tmp_path):
        # Re-pick one cherry cluster of the min-rule transversal to its
        # larger taxon, where some larger cluster still picks the smaller.
        from treelasso import min_order_transversal, random_tree, stability_violation

        tree = random_tree(400, seed=1)
        f = min_order_transversal(tree)
        for x, y in tree.cherries():
            unstable = dict(f)
            unstable[frozenset({x, y})] = y
            witness = stability_violation(unstable, tree)
            if witness is not None:
                break
        tree_path = tmp_path / "tree.nwk"
        tree_path.write_text(tree.newick() + "\n")
        assignment = tmp_path / "assignment.tsv"
        assignment.write_text(f"{x},{y}\t{y}\n")
        code, out, err = run(capsys, "gencover", str(tree_path), "--assignment", str(assignment))
        assert code == 1
        assert out == ""
        assert "transversal is not stable" in err
        # The message names the witness's two picks, and no library-only option.
        a, b = witness
        assert f"f(A) = {unstable[a]} " in err and f"f(B) = {unstable[b]}," in err
        assert f"|A| = {len(a)}, |B| = {len(b)}, B = {{{','.join(sorted(b))}}}" in err
        assert "force=True" not in err

    @pytest.mark.parametrize("mode", ["min", "closest", "furthest"])
    def test_overflowing_leaf_distances(self, tmp_path, mode):
        # Legal weights whose leaf distances pass the float range: the
        # min-order cover needs none, closest and furthest name the overflow.
        tree = tmp_path / "big.nwk"
        tree.write_text("((a:1e308,b:1e308):1e308,(c:1e308,d:1e308):1e308,e:1e308);\n")
        proc = subprocess.run(
            [sys.executable, "-m", "treelasso", "gencover", str(tree), "--transversal", mode],
            capture_output=True,
            text=True,
        )
        if mode == "min":
            assert (proc.returncode, proc.stderr) == (0, "|L| = 7 = 2n-3 = 7\n")
            assert len(proc.stdout.splitlines()) == 7
            return
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: closest/furthest transversals: a leaf distance overflows the float range\n"
        assert "Traceback" not in proc.stderr

    def test_closest_and_furthest_modes(self, capsys, tmp_path, snowflake_nwk):
        for mode in ("closest", "furthest"):
            code, out, _ = run(
                capsys, "gencover", snowflake_nwk, "--transversal", mode
            )
            assert code == 0
            assert len(out.strip().splitlines()) == 9


class TestTreefrom2dCommand:
    def test_remark1_cords(self, capsys, tmp_path):
        cords_path = tmp_path / "remark1.cords"
        cords_path.write_text("".join(f"{a}\t{b}\n" for a, b in REMARK1_PAIRS))
        code, out, err = run(capsys, "treefrom2d", str(cords_path), "--certify")
        assert code == 0
        tree = parse_newick(out)
        assert tree.is_fully_resolved()
        assert tree.taxa == {"a", "b", "c", "d"}

    def test_non_2dtree_rejected(self, capsys, tmp_path):
        cords_path = tmp_path / "cycle.cords"
        cords_path.write_text("a\tb\nb\tc\nc\td\nd\ta\n")
        code, _, err = run(capsys, "treefrom2d", str(cords_path))
        assert code == 1
        assert "not a 2d-tree" in err


class TestClosureCommand:
    def test_complete_closure(self, capsys, example1_tsv):
        code, out, _ = run(capsys, "closure", example1_tsv)
        assert code == 0
        assert len(out.strip().splitlines()) == 21

    def test_incomplete_exit_2(self, capsys, tmp_path):
        path = tmp_path / "partial.tsv"
        path.write_text("a\tb\t1.0\nc\td\t1.0\n")
        code, out, err = run(capsys, "closure", str(path))
        assert code == 2
        assert len(out.strip().splitlines()) == 2  # echoes the fixpoint


class TestSimulateCommand:
    def test_stable_covers_always_succeed(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "8", "--trials", "12", "--seed", "5"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split("\t"), row.split("\t")))
        assert fields["success_rate"] == "1.0"

    def test_seed_determinism(self, capsys):
        args = ("simulate", "--n", "6", "--trials", "8", "--seed", "11", "--extra", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_heavy_dropout_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--n", "6", "--trials", "10", "--seed", "2",
            "--dropout", "0.95", "--drop-cover",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split("\t"), row.split("\t")))
        assert float(fields["success_rate"]) <= 0.2

    @pytest.mark.parametrize(
        "flags, row",
        [
            (("--seed", "1", "--extra", "5", "--dropout", "0.3"), "12\t20\t0.3\t5\t20\t1.0\t41.55"),
            (("--seed", "1", "--extra", "5", "--dropout", "0.3", "--drop-cover"), "12\t20\t0.3\t5\t0\t0.0\t10.2"),
            (("--seed", "2", "--dropout", "0.1", "--drop-cover"), "12\t20\t0.1\t0\t1\t0.05\t19.45"),
        ],
    )
    def test_report_is_pinned(self, capsys, flags, row):
        # As printed when every trial went through the closure and NJ: the
        # success_rate and mean_closure_steps columns are a contract.
        code, out, _ = run(capsys, "simulate", "--n", "12", "--trials", "20", *flags)
        assert code == 0
        assert out == f"n\ttrials\tdropout\textra\tsuccesses\tsuccess_rate\tmean_closure_steps\n{row}\n"

    def test_a_trial_that_raises_counts_as_not_recovered(self, capsys):
        # Exact tree metrics near 1e12 miss the absolute final check of
        # reconstruct on rounding alone.  The campaign goes on, and stderr
        # counts the trials that raised and gives the first message.
        code, out, err = run(
            capsys, "simulate", "--n", "6", "--trials", "2", "--seed", "87",
            "--weight-range", "3.0,1000000000000.0", "--extra", "1",
        )
        assert code == 0
        assert out == "n\ttrials\tdropout\textra\tsuccesses\tsuccess_rate\tmean_closure_steps\n6\t2\t0.0\t1\t0\t0.0\t0.0\n"
        assert err.splitlines()[1:] == [
            "2 trial(s) raised, the first: inconsistent distances: reconstructed tree gives 1618883897529.018"
            " for t02-t04, input says 1618883897529.0183"
        ]

    def test_bad_parameters_exit_1(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "2", "--trials", "5")
        assert code == 1

    def test_weights_whose_path_sums_overflow_exit_1(self, capsys):
        # Two edges of 1e308 already pass the largest float; 1e307 fits.
        code, _, err = run(capsys, "simulate", "--n", "3", "--trials", "1", "--weight-range", "1,1e308")
        assert (code, err) == (1, "error: --weight-range: a path of 2 edges of weight 1e+308 leaves the float range\n")
        assert run(capsys, "simulate", "--n", "3", "--trials", "1", "--weight-range", "1,1e307")[0] == 0


class TestEpsilonOverride:
    def test_env_epsilon_respected(self, capsys, tmp_path, monkeypatch):
        # With a huge epsilon the strict inequality of the extension rule
        # never fires, so nothing is derivable.
        path = tmp_path / "quartet.tsv"
        path.write_text(
            "x\ty\t2.0\nu\tz\t2.0\nx\tu\t3.0\ny\tu\t3.0\ny\tz\t3.0\n"
        )
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 0  # derives xz normally
        monkeypatch.setenv("LASSO_EPSILON", "10.0")
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 2  # the margin swallows the inequality

    def test_invalid_epsilon(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "d.tsv"
        path.write_text("a\tb\t1.0\na\tc\t1.0\nb\tc\t1.0\n")
        for raw in ("banana", "nan", "inf"):
            monkeypatch.setenv("LASSO_EPSILON", raw)
            code, _, err = run(capsys, "closure", str(path))
            assert code == 1, raw


def test_module_entry_point(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("a\tb\t2.0\na\tc\t2.0\nb\tc\t2.0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "treelasso", "reconstruct", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith(";")


def test_deeply_nested_tree_classifies_without_traceback(tmp_path):
    # A 1500-leaf caterpillar nests 1500 levels deep, past the interpreter's
    # default recursion limit; the parser does not recurse.
    newick = "t0001"
    for i in range(2, 1501):
        newick = f"({newick},t{i:04d})"
    tree = tmp_path / "caterpillar.nwk"
    tree.write_text(newick + ";\n")
    cords = tmp_path / "cords.tsv"
    cords.write_text("t0001\tt0002\n")
    proc = subprocess.run(
        [sys.executable, "-m", "treelasso", "classify", str(tree), str(cords)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [
        "connected\tno",
        "non-bipartite\tno",
        "cover\tno",
        "triplet-cover\tno",
        "shellable\tno",
        "2d-tree\tno",
        "edge-weight-lasso\tno\trank-target=2997",
    ]


def test_treefrom2d_on_a_1200_vertex_ladder(tmp_path):
    # Vertex i is adjacent to i-1 and i-2: a 2d-tree with more vertices than
    # the interpreter's default recursion limit.
    cords = tmp_path / "ladder.tsv"
    cords.write_text(
        "".join(f"v{i:04d}\tv{i - k:04d}\n" for i in range(1200) for k in (1, 2) if i >= k)
    )
    proc = subprocess.run(
        [sys.executable, "-m", "treelasso", "treefrom2d", str(cords)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith(";")
    assert parse_newick(lines[0]).taxa == {f"v{i:04d}" for i in range(1200)}
