import hashlib
import json
import subprocess
import sys

import pytest

from ordsgp import (
    FIXTURES,
    GenerationConfig,
    OrderedSemigroup,
    cli,
    enumerate_ordered_semigroups,
    harness,
    lz2,
    structure_from_dict,
    structure_from_key,
)
from ordsgp.cli import main
from ordsgp.harness import iter_catalog

from conftest import child_env

SL2 = {"order": 2, "table": [[0, 0], [0, 1]], "leq": [[True, True], [False, True]]}
NONASSOC = {"order": 2, "table": [[1, 0], [0, 0]], "leq": [[True, False], [False, True]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    code = main(["validate", write(tmp_path, "s.json", SL2)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "key": "n2:0001:1101"}


def test_validate_invalid_structure(tmp_path, capsys):
    code = main(["validate", write(tmp_path, "s.json", NONASSOC)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]
    assert out["violations"][0] == {"axiom": "associativity", "witness": [0, 0, 1]}


def test_validate_parse_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["validate", write(tmp_path, "s.json", "not json")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["validate", write(tmp_path, "t.json", {"order": 1})])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize(
    "change",
    [
        {"leq": [[True, True], 5]},
        {"table": [[0, 0], 7]},
        {"leq": [[True, "false"], [False, True]]},
    ],
)
def test_malformed_rows_are_parse_errors(tmp_path, capsys, command, change):
    path = write(tmp_path, "s.json", {**SL2, **change})
    with pytest.raises(SystemExit) as err:
        main([command, path])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed structure payload: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("order", [True, 1.0])
def test_an_order_field_that_is_not_an_int_is_a_parse_error(tmp_path, capsys, command, order):
    path = write(tmp_path, "s.json", {"order": order, "table": [[0]], "leq": [[True]]})
    with pytest.raises(SystemExit) as err:
        main([command, path])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed structure payload: order field {order!r} is not an integer\n"


def test_analyze_json(tmp_path, capsys):
    code = main(["analyze", write(tmp_path, "s.json", SL2), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ordered_idempotents"] == [0, 1]
    assert out["predicates"]["left-simple"] is False
    assert out["predicates"]["right-pi-inverse"] is True
    assert out["suites"]["thm2"] == "equivalent"
    assert out["green"]["L"] == [[0], [1]]


def test_analyze_text(tmp_path, capsys):
    lz2_payload = {
        "order": 2,
        "table": [[0, 0], [1, 1]],
        "leq": [[True, False], [False, True]],
    }
    code = main(["analyze", write(tmp_path, "s.json", lz2_payload)])
    assert code == 0
    text = capsys.readouterr().out
    assert "predicate left-simple: yes" in text
    assert "predicate right-pi-inverse: no" in text


def test_enumerate_stdout_roundtrip(capsys):
    code = main(["enumerate", "--order", "2", "--orders", "discrete"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        back = structure_from_dict(json.loads(line))
        assert isinstance(back, OrderedSemigroup)
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    assert manifest["count"] == 8


def test_enumerate_to_file(tmp_path):
    out = tmp_path / "catalog.ndjson"
    code = main(["enumerate", "--order", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    manifest = json.loads((tmp_path / "catalog.ndjson.manifest.json").read_text())
    assert manifest["count"] == 1


def test_enumerate_usage_error_leaves_out_file_alone(tmp_path, capsys):
    kept = tmp_path / "kept.ndjson"
    kept.write_text("keep\n")
    assert main(["enumerate", "--order", "5", "--out", str(kept)]) == 64
    assert kept.read_text() == "keep\n"
    absent = tmp_path / "absent.ndjson"
    assert main(["enumerate", "--order", "5", "--out", str(absent)]) == 64
    assert not absent.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.ndjson"]
    assert "capped at 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify", "--theorem", "thm2", "--max-order", "1"], ["enumerate", "--order", "1"]],
)
def test_out_file_in_missing_directory_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_verify_ok(capsys):
    code = main(["verify", "--theorem", "thm2", "--max-order", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["totals"]["DISCREPANCY"] == 0
    assert out["structures"] == 21
    assert "runtime_seconds" not in out


def test_verify_all_max_order_2(capsys):
    code = main(["verify", "--theorem", "all", "--max-order", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["totals"]["DISCREPANCY"] == 0


def test_verify_thm2_order3(capsys):
    code = main(["verify", "--theorem", "thm2", "--max-order", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["structures"] == 992
    assert out["totals"] == {"equivalent": 992, "hypothesis_not_met": 0, "DISCREPANCY": 0}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--max-order", "3"],
            "bf83155ff7f6d5faa5cb57031595f083b6e1f7d38e24f8551209af4c79d492ac",
        ),
        (
            ["--max-order", "4", "--sample-count", "100", "--sample-seed", "7"],
            "060e4b93ce3668554eb35e9e2149018b59614ad2d40a481989b5ba1145be8194",
        ),
    ],
    ids=["order3", "order4-sample100-seed7"],
)
def test_verify_stdout_digest(capsys, monkeypatch, argv, digest, workers):
    # byte-level guard of the whole verify report, the order-4 regime included
    monkeypatch.setenv("ORDSGP_WORKERS", workers)
    assert main(["verify", "--theorem", "all", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# breaks every axiom: associativity, reflexivity, antisymmetry,
# transitivity and both compatibilities
BROKEN = {
    "order": 3,
    "table": [[1, 0, 2], [0, 2, 1], [2, 1, 0]],
    "leq": [[False, True, True], [True, True, False], [False, True, True]],
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["search", "--satisfy", "left-pi-t-simple", "--violate", "right-pi-t-simple"],
            "e33e5b1fdb099d4db763db8ff9ec37f17cbb0956d3cbb52b0a85c6c62282b08a",
        ),
        (
            ["enumerate", "--order", "3"],
            "aac0711ec639952eea461e4f0a54d7bc45567b2398b6620f4447e626cd9d3acc",
        ),
    ],
    ids=["search-left-not-right-pi-t-simple", "enumerate-order3"],
)
def test_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--order", "4"],
            "73b5fc2633c877c302484891437989535af99a631fc16c1116bf26b1f95c66a4",
        ),
        (
            # the Z2 table ((1, 0), (0, 1)) and the discrete order both occur
            ["--order", "2"],
            "8fe829f690d2856045b7b296ffd65a1be9f1be4ba3b6167f5caa3f60e59fc415",
        ),
        (
            ["--order", "4", "--up-to-iso", "--orders", "discrete"],
            "f9ce8b63a6341029b3959b052b225fc83d6b3fea5525e2036ce8193325afcff9",
        ),
        (
            ["--order", "4", "--orders", "discrete", "--limit", "7"],
            "ea40c3efb6040845953476a0bcd3cfb754e170e7fb13eb8d5c1bd01025274b57",
        ),
    ],
    ids=["order4", "order2", "order4-iso-discrete", "order4-discrete-limit7"],
)
def test_enumerate_stdout_digest(capsys, argv, digest):
    assert main(["enumerate", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_enumerate_out_file_digest(tmp_path):
    out = tmp_path / "iso4.ndjson"
    assert main(["enumerate", "--order", "4", "--up-to-iso", "--out", str(out)]) == 0
    digests = [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out, tmp_path / "iso4.ndjson.manifest.json")
    ]
    assert digests == [
        "079909444c6e32322ee1b5a9bb3401678ca4161d83dcba157f14521b8f80ad5a",
        "bc9a5cb3e290b1c14d3b9e466e045d6974f1cf013b567afa2b8cf97a3b0b209d",
    ]


def old_line(S):
    """The reference line of S: its canonical dump, as `cli._dump` writes it."""
    return json.dumps(S.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def test_structure_lines_equal_the_canonical_dump():
    for structures in (
        list(iter_catalog(3)),
        list(enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True))),
    ):
        assert list(cli._structure_lines(structures)) == list(map(old_line, structures))
    # the Z2 table ((1, 0), (0, 1)) compares equal to the discrete order of order 2
    z2 = OrderedSemigroup([[1, 0], [0, 1]], [[True, False], [False, True]])
    sl2 = structure_from_dict(SL2)
    both = [z2, sl2, z2, OrderedSemigroup(sl2.table, z2.leq)]
    assert list(cli._structure_lines(both)) == list(map(old_line, both))


@pytest.mark.parametrize("fail_fast", [[], ["--fail-fast"]])
def test_verify_writes_each_offender_as_a_structure_line(capsys, monkeypatch, fail_fast):
    real_outcome = harness._outcome

    def faulty_outcome(S, tid):
        row = real_outcome(S, tid)
        if S.order == 2:
            return tid, "DISCREPANCY", row[2]
        return row

    monkeypatch.setenv("ORDSGP_WORKERS", "1")
    monkeypatch.setattr(harness, "_outcome", faulty_outcome)
    assert main(["verify", "--theorem", "thm2", "--max-order", "2", *fail_fast]) == 3
    captured = capsys.readouterr()
    keys = [d["structure_key"] for d in json.loads(captured.out)["discrepancies"]]
    assert len(keys) == (1 if fail_fast else 20)  # the order-2 structures
    offenders = captured.err.splitlines(keepends=True)[-len(keys):]
    assert offenders == [old_line(structure_from_key(k)) for k in keys]


def test_closed_pipe_exits_141_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordsgp.cli", "enumerate", "--order", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env("1"),
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # the 107688 lines outgrow any pipe buffer
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_CLOSED_PIPE == 141
    assert json.loads(first)["order"] == 4
    assert b"Traceback" not in err


def test_analyze_json_digest_on_the_fixtures(tmp_path, capsys):
    out = []
    for name, build in FIXTURES.items():
        assert main(["analyze", write(tmp_path, f"{name}.json", build().to_dict()), "--json"]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "afe97020e0f850d887e04c148d83bdb02ca3acbb87637b8532d80ac598af95b1"
    )


def test_validate_digest_lists_every_violation(tmp_path, capsys):
    assert main(["validate", write(tmp_path, "broken.json", BROKEN)]) == 1
    out = capsys.readouterr().out
    assert {v["axiom"] for v in json.loads(out)["violations"]} == {
        "associativity",
        "reflexivity",
        "antisymmetry",
        "transitivity",
        "left-compatibility",
        "right-compatibility",
    }
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "60f8be48081adcdeefa5241b0f68b4f7969863b49b5eba7f876dec27e2976a69"
    )


def test_verify_bogus_theorem_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--theorem", "bogus", "--max-order", "2"])
    assert err.value.code == 64


def test_order_caps_are_usage_errors(capsys):
    assert main(["verify", "--theorem", "thm2", "--max-order", "5"]) == 64
    assert main(["enumerate", "--order", "5"]) == 64
    assert main(["search", "--satisfy", "regular", "--max-order", "9"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--theorem", "all", "--max-order", "0"], "max_order must be at least 1"),
        (["verify", "--theorem", "all", "--max-order", "-2"], "max_order must be at least 1"),
        (
            ["verify", "--theorem", "all", "--max-order", "4", "--sample-count", "-5"],
            "sample_count must not be negative",
        ),
        (["search", "--satisfy", "regular", "--max-order", "0"], "max_order must be at least 1"),
    ],
)
def test_empty_catalog_is_usage_error(capsys, argv, message):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def left_zero_band(order):
    """x*y = x under the discrete order: one eta-class."""
    return {
        "order": order,
        "table": [[i] * order for i in range(order)],
        "leq": [[i == j for j in range(order)] for i in range(order)],
    }


def null_semigroup(order):
    """x*y = 0 under the discrete order: one eta-class, and 0 the one
    idempotent."""
    return {
        "order": order,
        "table": [[0] * order for _ in range(order)],
        "leq": [[i == j for j in range(order)] for i in range(order)],
    }


def min_chain(order):
    """x*y = min(x, y) under the usual order: eta has a class per element."""
    return {
        "order": order,
        "table": [[min(i, j) for j in range(order)] for i in range(order)],
        "leq": [[i <= j for j in range(order)] for i in range(order)],
    }


@pytest.mark.parametrize(
    "structure, cap",
    [
        pytest.param(
            min_chain(11),
            "partition enumeration capped at 10 classes of the least semilattice congruence",
            id="11-partition enumeration capped at 10",
        ),
        pytest.param(
            null_semigroup(14),
            "subset search capped at 12 non-idempotent elements",
            id="14-subset search capped at 12",
        ),
    ],
)
def test_analyze_beyond_cap_is_usage_error(tmp_path, capsys, structure, cap):
    assert main(["analyze", write(tmp_path, "s.json", structure)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cap}\n"


def test_partition_cap_counts_eta_classes(tmp_path, capsys):
    # 11 elements but a single eta-class, so the partition scan stays small
    assert main(["analyze", "--json", write(tmp_path, "s.json", left_zero_band(11))]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["order"] == 11
    assert captured.err == ""


@pytest.mark.parametrize(
    "structure",
    [left_zero_band(13), null_semigroup(13)],
    ids=["13-left-zero-band", "13-null-semigroup"],
)
def test_subset_cap_counts_non_idempotent_elements(tmp_path, capsys, structure):
    # 0 and 12 non-idempotent elements: both within the cap of 12
    assert main(["analyze", "--json", write(tmp_path, "s.json", structure)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["order"] == 13
    assert captured.err == ""


def test_usage_error_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64


def test_search_found(capsys):
    code = main(
        ["search", "--satisfy", "left-simple", "--violate", "right-simple", "--max-order", "2"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert structure_from_dict(out) == lz2()


def test_search_exhausted(capsys):
    code = main(
        [
            "search",
            "--satisfy",
            "left-simple,right-simple",
            "--violate",
            "simple",
            "--max-order",
            "2",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["found"] is False


def test_search_unknown_predicate(capsys):
    code = main(["search", "--satisfy", "mystery", "--max-order", "2"])
    assert code == 64


def test_workers_env_byte_identical_subprocess():
    cmd = [sys.executable, "-m", "ordsgp.cli", "verify", "--theorem", "all", "--max-order", "2"]
    runs = {}
    for workers in ("1", "2"):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(workers)
        )
        assert proc.returncode == 0, proc.stderr
        runs[workers] = proc.stdout
    assert runs["1"] == runs["2"]


def test_verify_out_file_is_checked_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(**kwargs):
        pytest.fail("run_suite called although --out cannot be written")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_suite", no_run)
        out = tmp_path / "missing" / "x.json"
        assert main(["verify", "--theorem", "all", "--out", str(out)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file")
    assert len(captured.err.splitlines()) == 1
    # a usage error that run_suite finds before any structure is verified
    kept = tmp_path / "kept.json"
    kept.write_text("keep\n")
    for out in (kept, tmp_path / "absent.json"):
        argv = ["verify", "--theorem", "all", "--max-order", "0", "--out", str(out)]
        assert main(argv) == 64
    assert kept.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
    assert capsys.readouterr().out == ""
