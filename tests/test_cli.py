import json

import pytest

from durfee import cli
from durfee.marked import KMarkedSymbol, PartitionPair
from durfee.serialize import render
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


@pytest.mark.parametrize("argv", [("--n", "-3"), ("--n", "4", "--k", "0")])
def test_count_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "count", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_count_past_enumeration_guard(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "50", "--k", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t\t9020018"


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
    from durfee.symbols import DurfeeSymbol

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


def test_map_missing_parameter(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    code, _, err = run_cli(capsys, "map", "--map", "theta", "--in", str(path))
    assert code == 2 and "needs --p" in err


def test_map_precondition_error(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(render(ETA))
    code, _, err = run_cli(capsys, "map", "--map", "phi", "--in", str(path))
    assert code == 2 and "strict shifted" in err


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


def test_series_partition(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "partition", "--order", "6")
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        "0\t1", "1\t1", "2\t2", "3\t3", "4\t5", "5\t7", "6\t11",
    ]


def test_series_pole_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "series", "--gf", "rk-partial", "--x", "2,1/2", "--order", "4")
    assert code == 2 and "pole" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--n", "not-a-number"])
    assert exc.value.code == 2


def test_run_checks_parallel_matches_serial():
    bounds = Bounds(max_n=5, max_k=2, order=4, x=verify_mod.Bounds().x)
    names = ["theorem-main-ordinary", "solution-count", "rank-gf"]
    serial = run_checks(names, bounds, workers=1)
    parallel = run_checks(names, bounds, workers=3)
    assert serial == parallel
    assert all(isinstance(r, CheckResult) and r.ok for r in serial)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", Bounds())
