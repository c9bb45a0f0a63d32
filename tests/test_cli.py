import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from itertools import groupby, permutations, product, repeat
from pathlib import Path

import pytest

from durfee import bijections, cli, marked, partitions, qseries, symbols
from durfee.marked import KMarkedSymbol, PartitionPair, enumerate_kmarked, is_strict_shifted_symbol
from durfee.serialize import parse, render
from durfee.symbols import DurfeeSymbol, Flavor
from durfee import verify as verify_mod
from durfee.verify import Bounds, CheckResult, run_checks, run_suite

ETA = KMarkedSymbol(
    (
        PartitionPair((1,), (1, 1)),
        PartitionPair((3, 3, 2, 2, 1), (3, 3, 1)),
        PartitionPair((6,), (5,)),
    ),
    6,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_count_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# n=4 k=2 flavor=ordinary"
    assert lines[1] == "m1\tm2\tcount"
    assert "0\t0\t2" in lines
    assert lines[-1] == "total\t\t10"


def test_count_single_vector(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--k", "2", "--ranks", "1,1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1\t1\t1"


def test_count_plain_symbols(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--k", "1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t5"


def test_count_odd(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "1", "--k", "1", "--flavor", "odd")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t1"


def test_count_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "count", "--n", "6", "--k", "2")
    _, second, _ = run_cli(capsys, "count", "--n", "6", "--k", "2")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "-3"),
        ("--n", "4", "--k", "0"),
        ("--n", "3", "--k", "2", "--ranks", "1"),
        ("--n", "-3", "--k", "100000"),  # raises before writing a header longer than a block
    ],
)
def test_count_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "count", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_count_checks_ranks_before_counting(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the table was computed before --ranks was checked")

    monkeypatch.setattr(cli, "rank_rows", fail)
    monkeypatch.setattr(cli, "count_kmarked", fail)
    code, out, err = run_cli(capsys, "count", "--n", "40", "--k", "3", "--ranks", "1")
    assert_usage_error(code, out, err)
    assert err == "error: --ranks needs 3 entries\n"


def test_count_rejects_k_above_n_plus_one_before_counting(capsys, monkeypatch):
    # Unguarded, this --k builds a header of 10**20 columns until memory runs
    # out; the stubs make a missing guard fail at once instead.
    def fail(*args):
        raise AssertionError("--k was not checked before counting")

    monkeypatch.setattr(cli, "rank_rows", fail)
    monkeypatch.setattr(cli, "count_kmarked", fail)
    monkeypatch.setattr(cli, "_count_lines", fail)
    huge = "100000000000000000000"
    for ranks in ((), ("--ranks", "0")):
        code, out, err = run_cli(capsys, "count", "--n", "5", "--k", huge, *ranks)
        assert_usage_error(code, out, err)
        assert err == f"error: --k must be at most n + 1 = 6, got {huge}\n"


def test_count_streams_rows_without_the_table(capsys, monkeypatch):
    # The rows come straight from the DP's decoder: the cached table is never built.
    table = marked.kmarked_rank_counts(18, 4)
    expected = ["# n=18 k=4 flavor=ordinary", "m1\tm2\tm3\tm4\tcount"]
    expected += ["\t".join(map(str, (*m, table[m]))) for m in sorted(table)]
    expected.append("total\t\t\t\t" + str(sum(table.values())))

    def fail(*args):
        raise AssertionError("count built the whole table")

    monkeypatch.setattr(marked, "kmarked_rank_counts", fail)
    monkeypatch.setattr(cli, "kmarked_rank_counts", fail, raising=False)
    code, out, _ = run_cli(capsys, "count", "--n", "18", "--k", "4")
    assert code == 0
    assert out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("n, k", [(5, 6), (0, 1)])
def test_count_takes_k_up_to_n_plus_one(capsys, n, k):
    code, out, _ = run_cli(capsys, "count", "--n", str(n), "--k", str(k))
    assert code == 0
    assert out.splitlines()[-1] == "total" + "\t" * k + "0"


def test_count_past_enumeration_guard(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "50", "--k", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t\t9020018"


def _oracle_count_text(n, k, flavor, ranks=None):
    """``count``'s stdout, built from the enumeration oracle instead of the DP."""
    table = marked.kmarked_rank_distribution(n, k, flavor)
    lines = [f"# n={n} k={k} flavor={flavor.value}"]
    lines.append("\t".join([f"m{i}" for i in range(1, k + 1)] + ["count"]))
    if ranks is not None:
        lines.append("\t".join(map(str, (*ranks, table.get(ranks, 0)))))
    else:
        lines += ["\t".join(map(str, (*m, c))) for m, c in sorted(table.items())]
        lines.append("total" + "\t" * k + str(sum(table.values())))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flavor", list(Flavor))
def test_count_matches_the_enumeration_oracle(capsys, flavor):
    # k = n + 1 is the largest --k count takes, and its table is empty.
    for n in range(11):
        for k in sorted({k for k in (1, 2, 3, 4, n + 1) if k <= n + 1}):
            argv = ("count", "--n", str(n), "--k", str(k), "--flavor", flavor.value)
            expected = _oracle_count_text(n, k, flavor)
            assert run_cli(capsys, *argv) == (0, expected, ""), (n, k)
            if k == n + 1:
                assert expected.endswith("\ntotal" + "\t" * k + "0\n")


@pytest.mark.parametrize(
    "n, flavor, ranks, present",
    [
        (8, Flavor.ORDINARY, (1, 0), True),
        (8, Flavor.ORDINARY, (5, 5), False),  # prints 0
        (8, Flavor.ORDINARY, (0, -9), False),  # below the lowest rank of n
        (9, Flavor.ORDINARY, (-1, -2, -1), True),
        (10, Flavor.ODD, (0, 0, 1, -1), True),
        (7, Flavor.ODD, (-4,), True),  # k = 1: no prefix
        (7, Flavor.ODD, (-3,), False),
    ],
)
def test_count_ranks_matches_the_enumeration_oracle(capsys, n, flavor, ranks, present):
    assert (ranks in marked.kmarked_rank_distribution(n, len(ranks), flavor)) is present
    argv = ("count", "--n", str(n), "--k", str(len(ranks)), "--flavor", flavor.value)
    out = run_cli(capsys, *argv, f"--ranks={','.join(map(str, ranks))}")
    assert out == (0, _oracle_count_text(n, len(ranks), flavor, ranks), "")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("count", "--n", "5", "--k", "2"), "--ranks", "1,,0"),
        (("map", "--map", "phi-inv"), "--ranks", ",1"),
        (("map", "--map", "psi-inv"), "--t", "0,2,"),
        (("map", "--map", "symmetry"), "--perm", "2,,1"),
        (("verify", "--suite", "cor11"), "--x", "2,,3,5"),
        (("series", "--gf", "rk", "--order", "3"), "--x", "2, ,3"),
    ],
)
def test_list_flags_reject_an_empty_entry(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    out = capsys.readouterr()
    assert_usage_error(exc.value.code, out.out, out.err)
    kind = "rationals" if flag == "--x" else "integers"
    assert out.err == f"error: argument {flag}: expected comma-separated {kind}, got {value!r}\n"


@pytest.mark.parametrize("argv", [("--n", "3", "--k", "0"), ("--n", "-2")])
def test_enumerate_bad_input_is_usage_error(capsys, argv):
    assert_usage_error(*run_cli(capsys, "enumerate", *argv))


def test_enumerate_json_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--k", "1")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 5
    assert all(doc["derived"]["weight"] == 4 for doc in docs)


def test_map_round_trip(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    code, out, err = run_cli(capsys, "map", "--map", "symmetry", "--perm", "2,1,3", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["derived"]["ranks"] == [1, -2, 0]
    assert "# ranks before: [-2, 1, 0]" in err


def test_map_theta_twice_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    code, once, _ = run_cli(capsys, "map", "--map", "theta", "--p", "1", "--in", str(path))
    assert code == 0
    path2 = tmp_path / "once.json"
    path2.write_text(once)
    code, twice, _ = run_cli(capsys, "map", "--map", "theta", "--p", "1", "--in", str(path2))
    assert code == 0
    assert twice.strip() == render(ETA).strip()


def test_map_split_illustration_round_trip(tmp_path, capsys):
    ds = DurfeeSymbol((6, 6, 3, 3, 3, 3, 2, 2, 1, 1, 1), (5, 5, 4, 2, 1, 1, 1), 6)
    path = tmp_path / "merged.json"
    path.write_text(render(ds))
    code, split_doc, _ = run_cli(
        capsys, "map", "--map", "phi-inv", "--ranks", "1,1,0", "--in", str(path)
    )
    assert code == 0
    assert json.loads(split_doc)["derived"]["ranks"] == [1, 1, 0]
    path2 = tmp_path / "split.json"
    path2.write_text(split_doc)
    code, merged_doc, _ = run_cli(capsys, "map", "--map", "phi", "--in", str(path2))
    assert code == 0
    assert merged_doc.strip() == render(ds).strip()


def test_map_five_step_chain(tmp_path, capsys):
    # theta, psi, phi, phi-inv, psi-inv, theta: the composite transposition
    steps = [
        ("theta", ["--p", "1"]),
        ("psi", []),
        ("phi", []),
        ("phi-inv", ["--ranks", "1,6,0"]),
        ("psi-inv", ["--t", "0,2,0"]),
        ("theta", ["--p", "2"]),
    ]
    doc = render(ETA)
    for idx, (name, extra) in enumerate(steps):
        path = tmp_path / f"step{idx}.json"
        path.write_text(doc)
        code, doc, _ = run_cli(capsys, "map", "--map", name, "--in", str(path), *extra)
        assert code == 0, (name, doc)
    final = json.loads(doc)
    assert final["derived"]["ranks"] == [1, -2, 0]
    assert final["derived"]["weight"] == 68
    assert final["vectors"][1] == {"alpha": [3, 3, 3, 1], "beta": [3, 2, 2, 1, 1]}


def test_map_missing_input_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert_usage_error(*run_cli(capsys, "map", "--map", "theta", "--p", "1", "--in", str(missing)))


def test_map_non_json_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    assert_usage_error(*run_cli(capsys, "map", "--map", "theta", "--p", "1"))


def test_map_deeply_nested_json_is_usage_error(capsys, monkeypatch):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting.
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200000))
    code, out, err = run_cli(capsys, "map", "--map", "phi")
    assert_usage_error(code, out, err)
    assert err.startswith("error: document is not JSON")


def test_map_document_without_flavor(tmp_path, capsys):
    doc = json.loads(render(ETA))
    del doc["flavor"]
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(doc))
    assert_usage_error(*run_cli(capsys, "map", "--map", "theta", "--p", "1", "--in", str(path)))


def test_map_invalid_symbol_document(capsys, monkeypatch):
    # 9 exceeds the entry cap 1 of subscript 1
    doc = {"d": 1, "flavor": "ordinary", "vectors": [{"alpha": [9], "beta": []}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "map", "--map", "theta", "--p", "1")
    assert_usage_error(code, out, err)
    assert "exceeds cap 1" in err


@pytest.mark.parametrize(
    "field, value", [("alpha", [1.9]), ("alpha", [True]), ("alpha", ["1"]), ("d", 1.5)]
)
def test_map_non_integer_document_is_usage_error(capsys, monkeypatch, field, value):
    doc = {"d": 1, "flavor": "ordinary", "vectors": [{"alpha": [1], "beta": []}]}
    if field == "d":
        doc["d"] = value
    else:
        doc["vectors"][0][field] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "map", "--map", "theta", "--p", "1")
    assert_usage_error(code, out, err)
    where = "d" if field == "d" else f"vectors[0].{field}[0]"
    assert err.startswith(f"error: malformed symbol document: {where}: expected an integer, got ")


# An enumerate line with one key no field defines: the map must not read past it.
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
    (lambda doc: doc["vectors"][0].update(gamma=[1]), "vectors[0]: unknown key 'gamma'"),
    (lambda doc: doc["derived"].update(junk=5), "derived: unknown key 'junk'"),
], ids=["top-level", "vector", "derived"])
def test_map_rejects_unknown_keys(capsys, monkeypatch, edit, message):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2")
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    edit(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "map", "--map", "theta", "--p", "1")
    assert_usage_error(code, out, err)
    assert err == f"error: malformed symbol document: {message}\n"


# Each equals the value of the rows under ==: weight 1, rank 0, no balanced part.
@pytest.mark.parametrize(
    "key, value",
    [
        ("weight", 1.0), ("weight", True),
        ("ranks", [0.0]), ("ranks", [False]),
        ("balanced_numbers", [0.0]), ("balanced_numbers", [False]),
    ],
)
def test_derived_numbers_must_be_integers(capsys, monkeypatch, key, value):
    derived = {"weight": 1, "ranks": [0], "balanced_numbers": [0]}
    doc = {"flavor": "ordinary", "d": 1, "vectors": [{"alpha": [], "beta": []}]}
    doc["derived"] = derived
    assert parse(json.dumps(doc)) == KMarkedSymbol((PartitionPair((), ()),), 1)
    derived[key] = value
    with pytest.raises(ValueError, match=f"^document {key} .* disagrees with rows"):
        parse(json.dumps(doc))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "map", "--map", "theta", "--p", "1")
    assert_usage_error(code, out, err)
    assert err.startswith(f"error: document {key} ")


def test_map_missing_parameter(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    code, _, err = run_cli(capsys, "map", "--map", "theta", "--in", str(path))
    assert code == 2 and "needs --p" in err


def _symbol_document(flavor="ordinary", d=1, alpha=(1,), beta=()):
    return {"flavor": flavor, "d": d, "vectors": [{"alpha": list(alpha), "beta": list(beta)}]}


# usage errors that no other case reaches, each with its one line
@pytest.mark.parametrize("argv, doc, message", [
    (["series", "--gf", "rk", "--order", "3"], None, "rk needs --x"),
    (["map", "--map", "phi"], _symbol_document(d=0, alpha=()),
     "invalid symbol document: subscript 0 below minimum for the ordinary flavor"),
    (["map", "--map", "phi"], _symbol_document("odd", d=-1, alpha=()),
     "invalid symbol document: subscript -1 below minimum for the odd flavor"),
    (["map", "--map", "phi"], _symbol_document(alpha=(1, 2)),
     "invalid symbol document: vector 1: top row is not a partition"),
    (["map", "--map", "phi"], _symbol_document(beta=(0,)),
     "invalid symbol document: vector 1: bottom row is not a partition"),
    (["map", "--map", "phi"], {"flavor": "ordinary", "d": 1, "vectors": []},
     "invalid symbol document: symbol must have at least one vector"),
], ids=["rk-without-x", "d-0", "odd-d-negative", "alpha-increasing", "beta-zero",
        "no-vectors"])
def test_each_usage_error_is_its_line(capsys, monkeypatch, argv, doc, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_map_precondition_error(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    code, _, err = run_cli(capsys, "map", "--map", "phi", "--in", str(path))
    assert code == 2 and "strict shifted" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("psi", "--p", "7", "--perm", "9,9"),
        ("phi", "--ranks", "1,1"),
        ("theta", "--p", "1", "--t", "0"),
        ("symmetry", "--perm", "2,1,3", "--p", "1"),
    ],
)
def test_map_rejects_flags_the_map_ignores(capsys, argv):
    name, *flags = argv
    code, out, err = run_cli(capsys, "map", "--map", name, *flags)
    assert_usage_error(code, out, err)
    assert err.startswith(f"error: {name} takes no --")


def test_enumerate_rejects_k_above_n_plus_one(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "5", "--k", "7")
    assert_usage_error(code, out, err)
    assert err == "error: --k must be at most n + 1 = 6, got 7\n"


def test_enumerate_past_guard_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "41", "--k", "2")
    assert_usage_error(code, out, err)
    assert "41" in err


# enumerate flags -> (exit code, sha256 of stdout), recorded before the
# documents and displays were written by the streaming line writers.
GOLDEN_ENUMERATE = [
    (("--n", "12", "--k", "3"),
     (0, "6ca88748373ff5d9a2cb6f23d178a9d1871a15f13b74d5aaa913b18ff7a63c52")),
    (("--n", "13", "--k", "2", "--flavor", "odd"),
     (0, "b1eba675a84904e0a4c840225ae508aaf195460ccd32986a96d334665c81f3bc")),
    (("--n", "10", "--k", "4", "--pretty"),
     (0, "9ec38144f4c7f91aac6ace51bbb73107aca79d16e12b8ecd799f91e4c0de2a6b")),
    (("--n", "12", "--k", "1", "--flavor", "odd", "--pretty"),
     (0, "cc5a193e99911722a0b3286e7349a9fcea94ed315a8d9f4ad2ca5e4acb274fc7")),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_ENUMERATE)
def test_enumerate_output_is_byte_identical(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "enumerate", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected


def test_enumerate_single_vector_edge(capsys):
    # The one vector of k = 1 is vector 1 and vector k at once; at n = 1 both
    # of its rows are empty.
    pretty = run_cli(capsys, "enumerate", "--n", "1", "--k", "1", "--pretty")
    assert pretty == (0, "(  /  )₁\n", "")
    assert run_cli(capsys, "enumerate", "--n", "1", "--k", "1", "--flavor", "odd") == (
        0,
        '{"flavor": "odd", "d": 0, "vectors": [{"alpha": [], "beta": []}], '
        '"derived": {"weight": 1, "ranks": [0], "balanced_numbers": [0]}}\n',
        "",
    )


def _map_inputs() -> dict:
    flipped = bijections.flip_rank(ETA, 1)
    lifted = bijections.symbol_to_strict_shifted(flipped)
    merged = bijections.merge_marks(lifted)
    split = bijections.split_marks(merged, (1, 6, 0))
    return {"eta": ETA, "flipped": flipped, "lifted": lifted, "merged": merged, "split": split}


# (map, input symbol, extra flags) -> (exit code, sha256 of stdout or None
# for an empty stdout, full stderr), recorded before cmd_map became a table.
GOLDEN_MAP = [
    (("phi", "lifted", ()), (
        0, "db48963224a8866841526122eaf6c33b5980d545fff3fbef68e6015c04c304e0",
        "# map: phi\n# ranks before: [2, 5, 0]\n# ranks after: [9]\n",
    )),
    (("phi-inv", "merged", ("--ranks", "1,6,0")), (
        0, "c22df79fb30d3e7d89ff42271dc686a6ec39e36e5c4ca61e0445ad6972e57ae7",
        "# map: phi-inv\n# params: {'ranks': (1, 6, 0)}\n"
        "# ranks before: [9]\n# ranks after: [1, 6, 0]\n",
    )),
    (("psi", "flipped", ()), (
        0, "df1c90c70f2dc819eb68529f78d3a59bde67c289d57ecc783d00eb2b13a66b26",
        "# map: psi\n# ranks before: [2, 1, 0]\n# ranks after: [2, 5, 0]\n",
    )),
    (("psi-inv", "split", ("--t", "0,2,0")), (
        0, "b58c000b16fb68b0cde566874cf6f1d53f29a3e5db35fd084cd926037762b3d7",
        "# map: psi-inv\n# params: {'t': (0, 2, 0)}\n"
        "# ranks before: [1, 6, 0]\n# ranks after: [1, 2, 0]\n",
    )),
    (("theta", "eta", ("--p", "1")), (
        0, "bcd3d5c19d6c48a933031b48dfb7eb574e297fc4348a63612a7832222ee84963",
        "# map: theta\n# params: {'p': 1}\n# ranks before: [-2, 1, 0]\n# ranks after: [2, 1, 0]\n",
    )),
    (("symmetry", "eta", ("--perm", "2,1,3", "--pretty")), (
        0, "2c1d0ba7f0fa007594b40caa8e6ca30cc14516a3669d8ef6ac38f945b2c9567e",
        "# map: symmetry\n# params: {'perm': (2, 1, 3)}\n"
        "# ranks before: [-2, 1, 0]\n# ranks after: [1, -2, 0]\n"
        "# ( 6₃ 3₂ 3₂ 3₂ 1₂ 1₁ 1₁ / 5₃ 3₂ 2₂ 2₂ 1₂ 1₂ )₆\n",
    )),
    (("phi-inv", "merged", ()), (2, None, "error: phi-inv needs --ranks\n")),
    (("psi-inv", "split", ()), (2, None, "error: psi-inv needs --t\n")),
    (("theta", "eta", ()), (2, None, "error: theta needs --p\n")),
    (("symmetry", "eta", ()), (2, None, "error: symmetry needs --perm\n")),
    (("phi-inv", "eta", ("--ranks", "1,6,0")), (
        2, None, "error: phi-inv input must be a one-vector document\n",
    )),
]


@pytest.mark.parametrize("case, expected", GOLDEN_MAP)
def test_map_output_is_byte_identical(capsys, monkeypatch, case, expected):
    name, source, extra = case
    monkeypatch.setattr("sys.stdin", io.StringIO(render(_map_inputs()[source])))
    code, out, err = run_cli(capsys, "map", "--map", name, *extra)
    digest = hashlib.sha256(out.encode()).hexdigest() if out else None
    assert (code, digest, err) == expected


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "main", "--max-n", "6")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("RESULT\tPASS")


@pytest.mark.parametrize("suite", sorted(verify_mod.SUITES))
def test_every_suite_passes_at_small_bounds(capsys, suite):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--max-n", "6", "--order", "5"
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_reports_counterexample_when_core_is_corrupted(capsys, monkeypatch):
    # harness sanity: a deliberately wrong counting routine must surface as a
    # FAIL with a counterexample and exit code 1
    original = verify_mod.moments.marked_count_formula

    def corrupted(m, n, flavor=None):
        value = original(m, n) if flavor is None else original(m, n, flavor)
        return value + (1 if (n, m) == (4, (0, 0)) else 0)

    monkeypatch.setattr(verify_mod.moments, "marked_count_formula", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "main", "--max-n", "6")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out and "m=(0, 0)" in out


def _phi_rows_with_permuted_images(capsys, monkeypatch, patched):
    monkeypatch.setattr(verify_mod.bijections._Permuter, "images", patched)
    code, out, _ = run_cli(capsys, "verify", "--suite", "phi", "--max-n", "6")
    assert code == 1
    return {line.split("\t")[0]: line for line in out.splitlines()[1:-1]}


# The PASS rows of ``verify --suite phi --max-n 6``, byte for byte.
GOLDEN_PHI_PASS = {
    "merge-split-roundtrips": "merge-split-roundtrips\tk in (2, 3), n <= 6\tPASS\t",
    "strict-shifted-counts": "strict-shifted-counts\tk in (2, 3), n <= 6\tPASS\t",
    "flip-involution": "flip-involution\tk = 2, n <= 6, both positions\tPASS\t",
    "durfee-bijection": "durfee-bijection\t1 <= n <= 6\tPASS\t",
}


def test_permute_corpus_fails_on_a_repeated_image(capsys, monkeypatch):
    # Two symbols of one weight and rank vector get the same images: every
    # image still has the right ranks, but one is no longer fresh.
    original = bijections._Permuter.images
    first: dict = {}

    def repeating(permuter, vectors, rows):
        images = original(permuter, vectors, rows)
        s = KMarkedSymbol(vectors, 1)  # one subscript: the weights differ by a constant
        return first.setdefault((s.k, s.weight, s.ranks), images)

    rows = _phi_rows_with_permuted_images(capsys, monkeypatch, repeating)
    fail = rows.pop("permute-corpus").split("\t")
    assert fail[2] == "FAIL" and "image not fresh member" in fail[3]
    assert rows == GOLDEN_PHI_PASS


def test_permute_corpus_makes_each_image_row_once_per_subscript(monkeypatch):
    # permute-corpus passes one row table per (k, n, d) to every member of
    # that subscript, in enumeration order: each row it reads is made once
    # there, the table holds just the rows made, and no table outlives the check.
    made, tables, table = [], {}, [None]  # tables: id -> (table, members mapped with it)
    make_row, original = bijections._images, bijections._Permuter.images

    def tracking(permuter, vectors, rows):
        table[0] = id(rows)
        tables.setdefault(id(rows), (rows, []))[1].append(vectors)
        return original(permuter, vectors, rows)

    def counting(*key):
        made.append((table[0], key))
        return make_row(*key)

    monkeypatch.setattr(bijections._Permuter, "images", tracking)
    monkeypatch.setattr(bijections, "_images", counting)
    assert run_checks(("permute-corpus",), Bounds(max_n=10))[0].ok
    assert [members for _, members in tables.values()] == [
        [(pair, *upper) for (_, upper, lows), _, _ in walk for pair in lows]
        for k in (2, 3) for n in range(11)
        for _, walk in groupby(verify_mod._blocks(n, k), lambda found: found[0][0])
    ]
    assert len(made) == len(set(made)) > len({key for _, key in made})  # rows recur across tables
    for at, (rows, _) in tables.items():
        assert {key for t, key in made if t == at} == set(rows)
    held = [rows for rows, _ in tables.values()]
    assert len(held) == len(set(map(id, held))) and all(held)
    tables.clear()
    gc.collect()
    assert gc.get_referrers(*held) == [held]


def test_rank_orbit_is_every_signed_permutation():
    def orbit(m):  # the definition: every permutation times every sign product
        return {tuple(s * x for s, x in zip(signs, perm))
                for perm in permutations(m) for signs in product((1, -1), repeat=len(m))}

    for k in range(1, 5):
        for m in product(range(-3, 4), repeat=k):
            assert verify_mod._rank_orbit(m) == orbit(m), m


def test_a_raising_check_is_its_own_fail_row(capsys, monkeypatch):
    # A library ValueError inside one check is that check's FAIL row, the
    # other checks still report, and the run exits 1, not 2.
    def raising(permuter, vectors, rows):
        raise ValueError("vector 1: not strict shifted")

    rows = _phi_rows_with_permuted_images(capsys, monkeypatch, raising)
    fail = rows.pop("permute-corpus").split("\t")
    assert fail[2:] == ["FAIL", "counterexample: raised ValueError: vector 1: not strict shifted"]
    assert rows == GOLDEN_PHI_PASS


def test_a_value_error_in_a_later_case_is_the_rows_detail(monkeypatch):
    # The driver runs a check's (k, n) cases in order: cases that pass come
    # first, the one that raises ends the row, and the next row still runs.
    original = verify_mod.moments.check_moment_identity
    seen = []

    def raising(k, n, flavor):
        seen.append((k, n))
        if (k, n) == (2, 3):
            raise ValueError("no moment at k=2 n=3")
        return original(k, n, flavor)

    monkeypatch.setattr(verify_mod.moments, "check_moment_identity", raising)
    row, odd = run_checks(("moment-identity-ordinary", "moment-identity-odd"), Bounds(max_n=6))
    assert row == CheckResult(
        "moment-identity-ordinary", "k in (1, 2), n <= 6", False,
        "counterexample: raised ValueError: no moment at k=2 n=3",
    )
    assert seen[:11] == [(1, n) for n in range(7)] + [(2, n) for n in range(4)]
    assert odd.ok and seen[11:] == [(1, n) for n in range(7)]


def test_permute_corpus_fails_on_unpermuted_ranks(capsys, monkeypatch):
    def unpermuted(permuter, vectors, rows):
        return repeat(vectors)  # the member itself, per perm

    rows = _phi_rows_with_permuted_images(capsys, monkeypatch, unpermuted)
    fail = rows.pop("permute-corpus").split("\t")
    assert fail[2] == "FAIL" and fail[3].startswith("counterexample: ")
    assert " ranks " in fail[3] and "not fresh" not in fail[3]
    assert rows == GOLDEN_PHI_PASS


def _members(n, k, strict=False):
    """``(vectors, d, ranks)`` of each member of the blocks that the checks read."""
    return [
        ((pair, *upper), d, (r, *high))
        for (d, upper, lows), ranks, high in verify_mod._blocks(n, k, strict)
        for pair, r in zip(lows, ranks)
    ]


@pytest.mark.parametrize("k", [2, 3])
def test_strict_shifted_members_follow_the_enumeration(k):
    # the block walk yields the members that the flat enumeration filtered,
    # in its order, so the checks that read it meet the same first failure
    for n in range(13):
        want = [
            (s.vectors, s.d, s.ranks) for s in enumerate_kmarked(n, k)
            if is_strict_shifted_symbol(s) and min(s.ranks) >= 0
        ]
        assert _members(n, k, strict=True) == want, n


@pytest.mark.parametrize("k", [2, 3, 4])
def test_strict_shifted_members_are_the_filtered_walk(k):
    # the walk prunes at every vector, and keeps the members of the full walk
    # with nonnegative ranks and strict shifted vectors below k, in its order
    for n in range(13):
        want = [
            (vectors, d, ranks) for vectors, d, ranks in _members(n, k)
            if min(ranks) >= 0 and all(map(marked.is_strict_shifted_pair, vectors[:-1]))
        ]
        assert _members(n, k, strict=True) == want, n


def test_phi_fails_when_any_longer_top_row_counts_as_strict_shifted(capsys, monkeypatch):
    # ((1, 1), (1,)) then passes for strict shifted: it is counted at n = 4,
    # and the merge, which reads the same routine, takes a symbol that holds
    # it but cannot split it back
    monkeypatch.setattr(
        verify_mod.marked, "is_strict_shifted_pair", lambda p: len(p.alpha) > len(p.beta)
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "phi", "--max-n", "8")
    assert code == 1
    rows = {line.split("\t")[0]: line.split("\t")[2:] for line in out.splitlines()[1:-1]}
    assert rows.pop("strict-shifted-counts") == [
        "FAIL", "counterexample: n=4 k=2 m=(0, 0) counted=2 expected=1"
    ]
    held = KMarkedSymbol((PartitionPair((1, 1), (1,)), PartitionPair((), ())), 1)
    assert rows.pop("merge-split-roundtrips") == [
        "FAIL", f"counterexample: {held!r} fails merge-then-split"
    ]
    assert all(row[0] == "PASS" for row in rows.values())


def test_durfee_bijection_fails_on_swapped_rows(capsys, monkeypatch):
    # The image of (3, 1) with its rows swapped keeps weight and subscript
    # but not the rank, and no longer maps back.
    original = symbols.to_durfee

    def swapped(p):
        s = original(p)
        return DurfeeSymbol(s.beta, s.alpha, s.d) if p == (3, 1) else s

    monkeypatch.setattr(symbols, "to_durfee", swapped)
    code, out, _ = run_cli(capsys, "verify", "--suite", "phi", "--max-n", "6")
    assert code == 1
    rows = {line.split("\t")[0]: line for line in out.splitlines()[1:-1]}
    fail = rows.pop("durfee-bijection").split("\t")
    assert fail[2] == "FAIL" and fail[3].startswith("counterexample: (3, 1) -> ")
    assert all(row.split("\t")[2] == "PASS" for row in rows.values())


def _pair_roundtrips_row(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "psi", "--max-n", "6")
    assert code == 1
    rows = (line.split("\t") for line in out.splitlines())
    return next(row for row in rows if row[0] == "pair-roundtrips")


def test_pair_roundtrips_fails_on_a_target_no_image_reaches(capsys, monkeypatch):
    # ((1, 1), (1,)) has a longer top row, but its second top part does not
    # exceed its bottom part: taken for strict shifted, no image reaches it.
    extra = PartitionPair((1, 1), (1,))
    original = verify_mod.marked.is_strict_shifted_pair
    monkeypatch.setattr(
        verify_mod.marked, "is_strict_shifted_pair", lambda pair: pair == extra or original(pair)
    )
    assert _pair_roundtrips_row(capsys)[2] == "FAIL"


def test_pair_roundtrips_fails_on_a_repeated_image(capsys, monkeypatch):
    # ((2,), ()) goes to the image of ((1, 1), ()); neither has a balanced
    # part, so one (image, r) is hit twice.
    original = bijections.to_strict_shifted
    twin = {PartitionPair((2,), ()): PartitionPair((1, 1), ())}
    monkeypatch.setattr(
        bijections, "to_strict_shifted", lambda pair: original(twin.get(pair, pair))
    )
    assert _pair_roundtrips_row(capsys)[2] == "FAIL"


# A wrong ordinary table at n = 6 must fail rank-symmetry-tables alone among
# checks that do not compare that table with the formula.
_TABLE_NEIGHBOURS = ("theorem-main-odd", "solution-count", "durfee-bijection")


@pytest.mark.parametrize("k,rep,member", [(2, (1, 0), (0, -1)), (3, (2, 1, 0), (0, -1, 2))])
@pytest.mark.parametrize(
    "corruption", ["member count changed", "member deleted", "representative deleted"]
)
def test_rank_symmetry_tables_fails_on_a_corrupted_table(monkeypatch, k, rep, member, corruption):
    edit = {
        "member count changed": lambda dist: dist.update({member: dist[member] + 1}),
        "member deleted": lambda dist: dist.pop(member),
        "representative deleted": lambda dist: dist.pop(rep),
    }[corruption]
    wrong = rep if corruption == "representative deleted" else member
    original = verify_mod.marked.kmarked_rank_distribution
    bounds = Bounds(max_n=6)
    clean = run_checks(("rank-symmetry-tables", *_TABLE_NEIGHBOURS), bounds)

    def corrupted(n, kk, flavor=Flavor.ORDINARY):
        dist = original(n, kk, flavor)
        if (n, kk, flavor) != (6, k, Flavor.ORDINARY):
            return dist
        dist = dict(dist)
        edit(dist)
        return dist

    monkeypatch.setattr(verify_mod.marked, "kmarked_rank_distribution", corrupted)
    fail, *others = run_checks(("rank-symmetry-tables", *_TABLE_NEIGHBOURS), bounds)
    assert clean[0].ok and not fail.ok
    assert fail.detail.startswith(f"counterexample: n=6 k={k} count ")
    assert str(wrong) in fail.detail
    assert others == clean[1:]


# ``verify --suite all --max-n 6 --order 5``, byte for byte, as recorded
# before the checks became registered generators.
GOLDEN_VERIFY_ALL = [
    'check\tbound\tstatus\tdetail',
    'theorem-main-ordinary\tk in (2, 3), n <= 6\tPASS\t',
    'theorem-main-odd\tk = 2, n <= 6\tPASS\t',
    'rank-symmetry-tables\tk in (2, 3), n <= 6\tPASS\t',
    'moment-identity-ordinary\tk in (1, 2), n <= 6\tPASS\t',
    'moment-identity-odd\tk = 1, n <= 6\tPASS\t',
    'solution-count\tn <= 6, k <= 3\tPASS\t',
    "product-form-ordinary\tk in (2, 3), order 5, x = ('2', '3', '5')\tPASS\t",
    "product-form-odd\tk in (2, 3), order 5, x = ('2', '3', '5')\tPASS\t",
    'rank-gf\t|m| <= 6, n <= 6\tPASS\t',
    'odd-rank-gf\t|m| <= 6, n <= 6\tPASS\t',
    "partial-fractions-ordinary\tk in (2, 3), order 5, x = ('2', '3', '5')\tPASS\t",
    "partial-fractions-odd\tk in (2, 3), order 5, x = ('2', '3', '5')\tPASS\t",
    'merge-split-roundtrips\tk in (2, 3), n <= 6\tPASS\t',
    'strict-shifted-counts\tk in (2, 3), n <= 6\tPASS\t',
    'flip-involution\tk = 2, n <= 6, both positions\tPASS\t',
    'permute-corpus\tk in (2, 3), n <= 6, transpositions\tPASS\t',
    'durfee-bijection\t1 <= n <= 6\tPASS\t',
    'pair-roundtrips\t|alpha| + |beta| <= 6\tPASS\t',
    'deficiency-nonnegative\t|alpha| + |beta| <= 6\tPASS\t',
    'lift-roundtrip\tk = 2, n <= 6\tPASS\t',
    'subscript-labels\tstrict shifted pairs, |alpha| + |beta| <= 6\tPASS\t',
    'RESULT\tPASS\t21/21 checks passed',
]


def test_verify_report_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "6", "--order", "5")
    assert code == 0
    assert out == "\n".join(GOLDEN_VERIFY_ALL) + "\n"


def test_verify_bounds_default_to_those_of_bounds(capsys):
    # max-n 10, max-k 3, order 8 and x = 2,3,5 when no bound flag is given
    rows = [
        run_cli(capsys, "verify", "--suite", suite)[1].splitlines()[1]
        for suite in ("thm7", "subscripts")
    ]
    assert rows == [
        "partial-fractions-ordinary\tk in (2, 3), order 8, x = ('2', '3', '5')\tPASS\t",
        "subscript-labels\tstrict shifted pairs, |alpha| + |beta| <= 10\tPASS\t",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("--x", "2,2", "--suite", "thm7"),
        ("--max-k", "2", "--x", "2,2", "--suite", "thm7"),  # pole
        ("--x", "0,1", "--suite", "thm7"),
        ("--x", "2", "--suite", "thm7"),
        ("--order", "-1"),
        ("--max-k", "5"),
        ("--max-k", "1"),
        ("--max-n", "-1"),
        ("--max-n", "41", "--suite", "main"),
    ],
)
def test_verify_bad_input_is_usage_error(capsys, argv):
    assert_usage_error(*run_cli(capsys, "verify", *argv))


@pytest.mark.parametrize("suite", ["cor11", "thm7"])
@pytest.mark.parametrize("flags, need", [((), 3), (("--max-k", "2"), 2)])
def test_verify_short_x_names_the_count_max_k_needs(capsys, suite, flags, need):
    # the largest k is probed first, so the message names the count that
    # would pass, not that of a smaller k
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *flags, "--x", "2")
    assert_usage_error(code, out, err)
    assert err == f"error: need {need} evaluation values, got 1\n"


def test_verify_reports_each_series_route_separately(capsys, monkeypatch):
    # A wrong partial-fraction route must fail exactly the two thm7 rows while
    # the product-form rows stay PASS.  It is wrong at k = 2 for the ordinary
    # flavor and at k = 3 for the odd one, so each row's counterexample also
    # shows which flavor the row ran.
    original = verify_mod.qseries.marked_rank_gf_partial_fractions
    wrong = {(Flavor.ORDINARY, 2), (Flavor.ODD, 3)}

    def corrupted(xs, k, order, flavor):
        series = original(xs, k, order, flavor)
        if (flavor, k) in wrong:
            series = verify_mod.qseries.QSeries(order, (*series.coeffs[:-1], series[order] + 1))
        return series

    monkeypatch.setattr(verify_mod.qseries, "marked_rank_gf_partial_fractions", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "4", "--order", "4")
    assert code == 1
    rows = {line.split("\t")[0]: line.split("\t") for line in out.splitlines()[1:-1]}
    failed = {name for name, row in rows.items() if row[2] == "FAIL"}
    assert failed == {"partial-fractions-ordinary", "partial-fractions-odd"}
    assert rows["partial-fractions-ordinary"][3].startswith("counterexample: k=2 ")
    assert rows["partial-fractions-odd"][3].startswith("counterexample: k=3 ")
    assert rows["product-form-ordinary"][2] == rows["product-form-odd"][2] == "PASS"


def _clear_memos():
    for name, module in list(sys.modules.items()):
        if name.startswith("durfee."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _count_off_by_one(original):
    return lambda *args: original(*args) + 1


def _numerator_off_at_q5(original):
    def patched(m, order, flavor):
        coeffs = original(m, order, flavor)
        if order >= 5:
            coeffs[5] += 1
        return coeffs
    return patched


def _counts_off_at_rank_zero(original):
    def patched(n, k, flavor=Flavor.ORDINARY):
        counts = dict(original(n, k, flavor))
        counts[(0,) * k] = counts.get((0,) * k, 0) + 1
        return counts
    return patched


def _rows_off_at_first_count(original):
    def patched(n, k, flavor):
        rows = list(original(n, k, flavor))
        if rows:
            rows[0][2][0] += 1
        return iter(rows)
    return patched


def _split_one_further(original):
    return lambda gamma, delta, m, extra: original(gamma, delta, m, extra) + bool(delta)


def _reversed(original):
    return lambda pair: original(pair)[::-1]


def _without_smallest(original):
    return lambda pair: (parts := original(pair)) and parts - {min(parts)}


def _two_top_parts_unflipped(original):
    return lambda pair: pair if len(pair.alpha) == 2 else original(pair)


def _one_part_fewer(original):
    return lambda pair, r: original(pair, r - 1 if r > 1 else r)


_SERIES_ROWS = {"product-form-ordinary", "product-form-odd",
                "partial-fractions-ordinary", "partial-fractions-odd"}


@pytest.mark.parametrize("module, name, corrupt, failed", [
    (qseries, "_rank_numerator", _numerator_off_at_q5,
     {"rank-gf", "odd-rank-gf", "theorem-main-ordinary", "theorem-main-odd",
      "moment-identity-ordinary", "moment-identity-odd"}),
    (marked, "kmarked_rank_counts", _counts_off_at_rank_zero, _SERIES_ROWS),
    (marked, "rank_rows", _rows_off_at_first_count,
     {"moment-identity-ordinary", "moment-identity-odd", *_SERIES_ROWS}),
    (partitions, "count_rank", _count_off_by_one, {"rank-gf", "strict-shifted-counts"}),
    (symbols, "count_durfee_rank", _count_off_by_one, {"odd-rank-gf"}),
    (bijections, "_split_point", _split_one_further, {"merge-split-roundtrips", "permute-corpus"}),
    (bijections, "_label_min_indices", _reversed, {"pair-roundtrips", "subscript-labels"}),
    (marked, "balanced_parts", _without_smallest,
     {"deficiency-nonnegative", "lift-roundtrip", "pair-roundtrips", "permute-corpus"}),
    (bijections, "_flip_pair", _two_top_parts_unflipped, {"flip-involution", "permute-corpus"}),
    (bijections, "_lower", _one_part_fewer, {"lift-roundtrip", "pair-roundtrips", "permute-corpus"}),
], ids=[
    "rank-numerator", "kmarked-rank-counts", "rank-rows", "count-rank", "count-durfee-rank",
    "split-point", "label-min-indices", "balanced-parts", "flip-pair", "lower",
])
def test_one_patch_reaches_every_route(monkeypatch, module, name, corrupt, failed):
    # The checks and the library look each other's routines up on their
    # modules, so a routine patched where it is defined is the one every
    # route calls: each row that reads it fails, and no other row.
    _clear_memos()
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    try:
        results = run_suite("all", Bounds(max_n=8))
    finally:
        _clear_memos()
    assert {r.name for r in results if not r.ok} == failed


def _symbol_text(*pairs):
    return repr(KMarkedSymbol(tuple(PartitionPair(*p) for p in pairs), 1))


# The detail of each map check at --max-n 8 under a corrupted routine, recorded
# while every check called its maps once per member.  A check that maps a whole
# block at a time must still meet the members, and each member's failures, in
# enumeration order.  The balanced-parts row was recorded with the routine
# patched where ``bijections`` read it as well as in ``marked``.
_MAP_CHECKS = ("permute-corpus", "flip-involution", "lift-roundtrip", "merge-split-roundtrips")
_FIRST_DETAILS = {
    "flip-pair": (
        "counterexample: n=3 k=2 perm=(2, 1) ranks (0, -1) -> (1, 0)",
        f"counterexample: {_symbol_text(((1, 1), ()), ((), ()))} position 1 flips to (1, 0)",
        "", "",
    ),
    "lower": (
        "counterexample: n=6 k=2 perm=(2, 1) ranks (0, 0) -> (2, 0)",
        "",
        f"counterexample: {_symbol_text(((1,), (1, 1)), ((), ()))} fails the round trip",
        "",
    ),
    "split-point": (
        "counterexample: raised ValueError: vector 1: not strict shifted",
        "", "",
        f"counterexample: {_symbol_text(((1,), ()), ((1,), (1,)))} fails merge-then-split",
    ),
    "balanced-parts": (
        "counterexample: raised ValueError: not strict shifted",
        "",
        f"counterexample: lift of {_symbol_text(((1,), (1,)), ((), ()))} not strict shifted",
        "",
    ),
}


@pytest.mark.parametrize("module, name, corrupt, key", [
    (bijections, "_flip_pair", _two_top_parts_unflipped, "flip-pair"),
    (bijections, "_lower", _one_part_fewer, "lower"),
    (bijections, "_split_point", _split_one_further, "split-point"),
    (marked, "balanced_parts", _without_smallest, "balanced-parts"),
], ids=["flip-pair", "lower", "split-point", "balanced-parts"])
def test_map_checks_keep_their_first_counterexample(monkeypatch, module, name, corrupt, key):
    _clear_memos()
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    try:
        results = run_checks(_MAP_CHECKS, Bounds(max_n=8))
    finally:
        _clear_memos()
    assert tuple(r.detail for r in results) == _FIRST_DETAILS[key]


def test_series_partition(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "partition", "--order", "6")
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        "0\t1", "1\t1", "2\t2", "3\t3", "4\t5", "5\t7", "6\t11",
    ]



# series flags at non-integer points -> sha256 of stdout, recorded from the
# Fraction kernels that the integer-scaled product form replaced
GOLDEN_RATIONAL_SERIES = [
    (("--gf", "rk-product", "--x", "2/7,-3/5", "--order", "60"),
     "ec2e98672ffd7a9b0d62005c2c50cc477c5d6495e9d3cb04caf9c1821badae6d"),
    (("--gf", "rk-product", "--x=-1,1/2,3", "--order", "40", "--flavor", "odd"),
     "b8f713fd955e7b6be9195ce1d4a3fadf6965fc72001e209ee81ceeb958d93d77"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_RATIONAL_SERIES)
def test_series_at_rational_points_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "series", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)

@pytest.mark.parametrize(
    "argv, flag",
    [
        (("partition", "--x", "2", "--m", "5", "--flavor", "odd"), "m"),
        (("partition", "--x", "2"), "x"),
        (("partition", "--flavor", "ordinary"), "flavor"),
        (("rank", "--x", "2"), "x"),
        (("odd-rank", "--m", "1", "--flavor", "odd"), "flavor"),
        (("rk", "--x", "2,3", "--m", "0"), "m"),
        (("rk-product", "--x", "2", "--m", "1"), "m"),
        (("rk-partial", "--x", "2,3", "--m", "0"), "m"),
    ],
)
def test_series_rejects_flags_the_series_ignores(capsys, argv, flag):
    name, *flags = argv
    code, out, err = run_cli(capsys, "series", "--gf", name, "--order", "3", *flags)
    assert_usage_error(code, out, err)
    assert err == f"error: {name} takes no --{flag}\n"


def test_series_defaults_apply_inside_the_entries(capsys):
    for default, explicit in [
        (("rank",), ("rank", "--m", "0")),
        (("odd-rank",), ("odd-rank", "--m", "0")),
        (("rk", "--x", "2,3"), ("rk", "--x", "2,3", "--flavor", "ordinary")),
    ]:
        first = run_cli(capsys, "series", "--order", "6", "--gf", *default)
        assert first == run_cli(capsys, "series", "--order", "6", "--gf", *explicit)
        assert first[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--gf", "partition", "--order", "10000000000000000000"),
        ("verify", "--suite", "cor11", "--order", "10000000000000000000"),
    ],
)
def test_too_large_order_is_usage_error(capsys, argv):
    assert_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize("command", [("series", "--gf", "partition"), ("verify", "--suite", "cor11")])
@pytest.mark.parametrize("order", [str(sys.maxsize), "10000000000000000000"])
def test_too_large_order_names_the_flag(capsys, command, order):
    code, out, err = run_cli(capsys, *command, "--order", order)
    assert_usage_error(code, out, err)
    assert err == f"error: --order must be below {sys.maxsize}, got {order}\n"



@pytest.mark.parametrize("n", [str(sys.maxsize), "10000000000000000000"])
def test_too_large_weight_names_the_flag(n):
    # in a subprocess with a timeout: an unguarded weight counts for minutes
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "durfee.cli", "count", "--n", n, "--k", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: --n must be below {sys.maxsize}, got {n}\n"

def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    def exhausted(order):
        raise MemoryError

    monkeypatch.setattr(qseries, "partition_gf", exhausted)
    code, out, err = run_cli(capsys, "series", "--gf", "partition", "--order", "5")
    assert_usage_error(code, out, err)
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("gf", list(cli._SERIES))
def test_negative_order_is_usage_error(capsys, gf):
    flags = ("--x", "2,3") if gf.startswith("rk") else ()
    code, out, err = run_cli(capsys, "series", "--gf", gf, "--order", "-1", *flags)
    assert_usage_error(code, out, err)
    assert err == "error: truncation order must be nonnegative\n"


@pytest.mark.parametrize("x", ["", ","])
@pytest.mark.parametrize("gf", ["rk", "rk-product", "rk-partial"])
def test_series_at_an_empty_point_is_usage_error(capsys, gf, x):
    # Every entry of an empty point is empty, and the parser rejects each one.
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--gf", gf, "--x", x, "--order", "3"])
    out = capsys.readouterr()
    assert_usage_error(exc.value.code, out.out, out.err)
    assert out.err == f"error: argument --x: expected comma-separated rationals, got {x!r}\n"


def test_series_pole_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "series", "--gf", "rk-partial", "--x", "2,1/2", "--order", "4")
    assert code == 2 and "pole" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--n", "not-a-number"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--n", "abc"), "argument --n: invalid int value: 'abc'"),
        (("count", "--k", "2"), "the following arguments are required: --n"),
        (("series", "--gf", "nope", "--order", "3"), "argument --gf: invalid choice: 'nope'"),
        (("count", "--n", "3", "--ranks"), "argument --ranks: expected one argument"),
        (("enumerate", "--n", "3", "--zzz"), "unrecognized arguments: --zzz"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        ((), "the following arguments are required: command"),
        (("count", "--n", "3", "--flavor", "bogus"),
         "argument --flavor: choose from ordinary, odd (got 'bogus')"),
    ],
)
def test_parser_errors_are_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert_usage_error(exc.value.code, out.out, out.err)
    assert out.err.startswith(f"error: {message}")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: durfee count [-h] --n N")


@pytest.mark.parametrize(
    "flags",
    [
        ("count", "--n", "5", "--k", "2", "--ranks", "-1,0"),
        ("series", "--gf", "rk", "--order", "2", "--x", "-1/2,3"),
        ("series", "--gf", "rk", "--order", "2", "--x", "-.5,3"),
    ],
)
def test_negative_list_values_read_as_values(capsys, flags):
    # A list flag's value given as its own argument reads as the "=" spelling
    # reads it, even where its first entry is negative.
    *head, flag, value = flags
    spaced = run_cli(capsys, *head, flag, value)
    assert spaced == run_cli(capsys, *head, f"{flag}={value}")
    assert spaced[0] == 0
    if head[0] == "count":
        assert spaced[1].splitlines()[-1] == "-1\t0\t2"


def test_closed_stdout_is_not_a_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "durfee.cli", "enumerate", "--n", "19", "--k", "3"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    json.loads(proc.stdout.readline())
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert err == b"" and code == 141


def _process(*args, stdout=subprocess.PIPE, unbuffered=False):
    """``python *args`` from the source tree, run to its end, with buffered
    streams as a plain ``python`` has them, or given ``unbuffered`` as
    ``PYTHONUNBUFFERED=1`` has them: then a write fails where it is made."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60
    )


def _in_process(capsys, argv):
    """``cli.main(argv)``'s exit code, stdout and stderr, its SystemExit read as a code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["count", "--n", "6", "--k", "2"], 0),
        (["series", "--gf", "rk-product", "--x", "2,3", "--order", "8"], 0),
        (["verify", "--suite", "cor13", "--max-n", "5"], 0),
        (["--help"], 0),
        (["count", "--n", "abc"], 2),
        (["count", "--n", "5", "--k", "0"], 2),
    ],
    ids=["count", "series", "verify", "help", "parser-error", "value-error"],
)
def test_process_exits_as_main_returns(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    expected = _in_process(capsys, argv)
    done = _process("-m", "durfee.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == expected
    assert expected[0] == code
    if code == 2:
        assert_usage_error(code, done.stdout.decode(), done.stderr.decode())


def test_process_exits_1_on_a_failed_identity(capsys, monkeypatch):
    failed = ("solution-count", "patched", False, "counterexample: patched")
    argv = ["verify", "--suite", "cor13", "--max-n", "5"]
    probe = (
        "from durfee import cli, verify\n"
        f"verify.CHECKS['solution-count'] = lambda b: verify.CheckResult(*{failed!r})\n"
        f"cli.run({argv!r})"
    )
    monkeypatch.setitem(verify_mod.CHECKS, "solution-count", lambda b: CheckResult(*failed))
    expected = _in_process(capsys, argv)
    done = _process("-c", probe)
    assert (done.returncode, done.stdout, done.stderr) == expected
    assert expected[0] == 1 and expected[1].endswith(b"RESULT\tFAIL\t2/3 checks passed\n")


def _each_buffering(cases: dict) -> pytest.MarkDecorator:
    """Parametrize ``argv, unbuffered`` with each case buffered, then each unbuffered."""
    return pytest.mark.parametrize(
        "argv, unbuffered",
        [(argv, u) for u in (False, True) for argv in cases.values()],
        ids=[name + ("-unbuffered" if u else "") for u in (False, True) for name in cases],
    )


@_each_buffering({
    "help": ["--help"], "count-help": ["count", "--help"], "count": ["count", "--n", "5", "--k", "2"],
    "verify": ["verify", "--suite", "cor13", "--max-n", "5"],
})
def test_closed_stdout_exits_141_silently(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # before the spawn, so the process's first write or flush fails
    try:
        done = _process("-m", "durfee.cli", *argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@_each_buffering({
    "help": ["--help"], "count-help": ["count", "--help"], "count": ["count", "--n", "12", "--k", "3"],
    "verify": ["verify", "--suite", "cor13", "--max-n", "4"],
})
def test_full_stdout_is_one_usage_error(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        done = _process("-m", "durfee.cli", *argv, stdout=full, unbuffered=unbuffered)
    assert done.returncode == 2
    assert done.stderr == b"error: [Errno 28] No space left on device\n"


def test_main_leaves_fd_1_alone_on_a_broken_pipe(monkeypatch):
    # main returns 141 for a stdout that a reader closed, and does not point
    # fd 1 elsewhere: the process's fd 1 is not a library call's to replace.
    # --help meets the closed pipe in its own write, as unbuffered.
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return 1

    class Unbuffered(Closed):
        def write(self, text):
            self.flush()

    def refuse(*args):
        raise AssertionError(f"os.dup2{args} reached from main")

    for stdout, argv in ((Closed(), ["count", "--n", "5", "--k", "2"]), (Unbuffered(), ["--help"])):
        with monkeypatch.context() as patch:  # undone before pytest's own capture dup2s again
            patch.setattr(os, "dup2", refuse)
            patch.setattr(sys, "stdout", stdout)
            assert cli.main(argv) == 141


def test_main_never_ends_the_process(capsys, monkeypatch, tmp_path):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) reached from main")

    monkeypatch.setattr(os, "_exit", refuse)
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    for argv in (
        ["count", "--n", "6", "--k", "2"],
        ["enumerate", "--n", "5", "--k", "2"],
        ["map", "--map", "phi", "--in", str(path)],
        ["verify", "--suite", "cor13", "--max-n", "4"],
        ["series", "--gf", "partition", "--order", "6"],
    ):
        assert type(cli.main(argv)) is int
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert threading.active_count() == 1


def test_run_checks_returns_results_in_order():
    bounds = Bounds(max_n=5, max_k=2, order=4, x=verify_mod.Bounds().x)
    names = ["theorem-main-ordinary", "solution-count", "rank-gf"]
    results = run_checks(names, bounds)
    assert [r.name for r in results] == names
    assert all(isinstance(r, CheckResult) and r.ok for r in results)


def test_cli_import_loads_no_process_pool():
    probe = (
        "import sys, durfee.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", Bounds())


# Modules a ``count`` or ``series`` process never runs, so must not import.
UNUSED_BY_COUNT_AND_SERIES = (
    "dataclasses", "inspect", "durfee.verify", "durfee.bijections", "durfee.serialize",
    "durfee.moments",
)


def _python(*args, cwd=None):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )


@pytest.mark.parametrize(
    "call",
    [
        "pass",
        "cli.main(['count', '--n', '8', '--k', '2'])",
        "cli.main(['series', '--gf', 'rk-product', '--x', '2,3', '--order', '6'])",
        "cli.main(['series', '--gf', 'partition', '--order', '6'])",
    ],
    ids=["import", "count", "series-rk-product", "series-partition"],
)
def test_cli_imports_only_what_a_command_runs(call):
    probe = (
        "import io, sys; sys.stdout = io.StringIO(); import durfee.cli as cli; "
        f"{call}; sys.stdout = sys.__stdout__; "
        f"print(sorted(set({UNUSED_BY_COUNT_AND_SERIES!r}) & set(sys.modules)))"
    )
    assert _python("-c", probe).stdout == "[]\n"


def _modules_loaded(code):
    """Modules a fresh interpreter holds after running ``code``."""
    show = "import sys; sys.stderr.write(' '.join(sys.modules))"
    return set(_python("-c", f"{code}\n{show}").stderr.split())


@pytest.mark.parametrize(
    "argv",
    [["count", "--n", "5", "--k", "2"], ["enumerate", "--n", "4", "--k", "2"], ["--help"]],
    ids=["count", "enumerate", "help"],
)
def test_start_up_loads_only_what_the_command_runs(argv):
    # Against a bare interpreter, so that what a host's site hooks load does not count.
    run = f"from durfee.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass"
    loaded = _modules_loaded(run) - _modules_loaded("pass")
    assert "durfee.marked" in loaded
    never = {"fractions", "decimal", "durfee.qseries", "durfee.bijections", "durfee.verify"}
    assert loaded & never == set()
    writes_json = {"json", "durfee.serialize"}
    if argv[0] == "enumerate":
        assert writes_json <= loaded
    else:
        assert loaded & writes_json == set()


def test_lazy_package_exports(tmp_path):
    probe = (
        "import durfee, sys; "
        "assert 'durfee.qseries' not in sys.modules; "
        "assert durfee.qseries.partition_gf(4).coeffs == durfee.partition_gf(4).coeffs; "
        "assert durfee.bijections.flip_rank is durfee.flip_rank; "
        "assert durfee.verify.run_suite and durfee.serialize.render and durfee.cli.main; "
        "ns = {}; exec('from durfee import *', ns); "
        "print(sorted(n for n in ns if n != '__builtins__') == sorted(durfee.__all__), "
        "len(durfee.__all__))"
    )
    # from outside the source tree, as an installed package is imported
    assert _python("-c", probe, cwd=tmp_path).stdout == "True 55\n"


def test_importtime_lists_lazily_loaded_modules():
    # ``import durfee.cli`` binds ``durfee``, whose lazy attribute loads qseries.
    report = _python("-X", "importtime", "-c", "import durfee.cli; durfee.qseries").stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in report.splitlines()}
    assert {"durfee.cli", "durfee.qseries", "durfee.marked"} <= listed


def test_package_exports_the_same_names():
    import durfee

    assert durfee.__all__ == [
        "DurfeeSymbol", "Flavor", "KMarkedSymbol", "Partition", "PartitionPair", "QSeries",
        "ValidationResult", "balanced_numbers", "balanced_parts", "binom",
        "check_moment_identity", "conjugate", "count_durfee_rank", "count_kmarked",
        "count_rank", "deficiencies", "durfee_rank_distribution", "durfee_side",
        "enumerate_durfee", "enumerate_kmarked", "enumerate_partitions", "flip_rank",
        "from_durfee", "from_strict_shifted", "is_strict_shifted_pair",
        "is_strict_shifted_symbol", "is_valid", "ith_rank", "kmarked_rank_counts",
        "kmarked_rank_distribution", "marked_count_formula", "marked_rank_gf",
        "marked_rank_gf_partial_fractions", "marked_rank_gf_product", "merge_marks",
        "odd_rank_gf", "partition_gf", "permute_ranks", "rank", "rank_distribution",
        "rank_gf", "rank_moment", "rank_permuter", "solution_count",
        "solution_count_brute", "split_marks", "subscript_minima", "subscripts",
        "symbol_from_strict_shifted", "symbol_to_strict_shifted", "symmetrized_moment",
        "to_durfee", "to_strict_shifted", "total_kmarked", "validate",
    ]
    for name in durfee.__all__:
        assert getattr(durfee, name).__name__ == name or name == "Partition"
    with pytest.raises(AttributeError, match="nope"):
        durfee.nope


def test_unknown_suite_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nope")
    assert_usage_error(code, out, err)
    assert err.startswith("error: unknown suite 'nope'; choose from main, ")
