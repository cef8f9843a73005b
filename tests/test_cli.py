"""Command-line interface: envelopes, exit codes, output determinism."""

import json

import pytest

from matgroups import cli
from matgroups.errors import NoWitness


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_group_example(capsys):
    code, doc = run_json(capsys, ["group", "--kind", "SL", "--n", "2", "--q", "3"])
    assert code == 0
    assert doc["result"]["order"] == 24
    assert doc["result"]["classes"] == 7
    assert doc["tool"] == "matgroups"
    assert doc["config"]["kind"] == "SL"
    assert doc["config"]["q"] == 3


def test_surface_count_example(capsys):
    code, doc = run_json(capsys, ["count", "surface", "--group", "SL2,q=3", "--genus", "2"])
    assert code == 0
    assert doc["result"]["count"] == 53376
    assert doc["certificates"]["unitarity_residual"] < 1e-8


def test_torsion_bk_example(capsys):
    code, doc = run_json(capsys, ["torsion", "bk", "--l", "7", "--k", "2"])
    assert code == 0
    assert doc["result"]["count"] == 3
    assert [r["set"] for r in doc["result"]["rows"]] == [[1, 6], [2, 5], [3, 4]]


def test_envelope_has_version_and_seed(capsys):
    _, doc = run_json(capsys, ["torsion", "mu3", "--l", "7", "--seed", "9"])
    assert set(doc) >= {"tool", "version", "seed", "config", "result"}
    assert doc["seed"] == 9


def test_compact_group_parser_matches_flags(capsys):
    _, via_compact = run_json(capsys, ["group", "--group", "GL2,q=4"])
    _, via_flags = run_json(capsys, ["group", "--kind", "GL", "--n", "2", "--q", "4"])
    assert via_compact == via_flags
    assert via_compact["config"]["p"] == 2
    assert via_compact["config"]["m"] == 2


def test_worker_count_does_not_change_bytes(capsys):
    argv = ["count", "homs", "--group", "SL2,q=3", "--generators", "2",
            "--relators", "[x1,x2]"]
    assert cli.run(argv + ["--workers", "1"]) == 0
    one = capsys.readouterr().out
    assert cli.run(argv + ["--workers", "4"]) == 0
    four = capsys.readouterr().out
    assert one == four
    assert json.loads(one)["result"]["count"] == 168


def test_csv_projection(capsys):
    code = cli.run(["torsion", "bk", "--l", "7", "--k", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "set"
    assert len(lines) == 4


def test_csv_scalar_result(capsys):
    code = cli.run(["charbound", "gauss", "--a", "4", "--w", "2", "--q", "2",
                    "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["count", "35"]


def test_chartable_subcommand(capsys):
    _, doc = run_json(capsys, ["chartable", "--group", "SL2,q=3"])
    assert doc["result"]["degrees"] == [1, 1, 1, 2, 2, 2, 3]
    assert doc["result"]["fs_indicators"] == [0, 0, 1, -1, 0, 0, 1]
    assert len(doc["result"]["rows"]) == 7


def test_wordmap_eval_subcommand(capsys):
    _, doc = run_json(capsys, [
        "wordmap", "eval", "--group", "SL2,q=3", "--word", "x1 x2",
        "--elements", "1,1;0,1|1,0;1,1",
    ])
    assert doc["result"]["value"] == [[2, 1], [1, 1]]


def test_charbound_bound_subcommand(capsys):
    _, doc = run_json(capsys, [
        "charbound", "bound", "--group", "GL2,q=5", "--alpha", "0.45",
        "--beta", "0.99",
    ])
    assert doc["result"]["num_violations"] == 0
    assert len(doc["result"]["rows"]) == 16
    assert doc["result"]["params_within_theorem"] is False


def test_usage_errors_exit_2(capsys):
    assert cli.run(["group", "--group", "XY2,q=3"]) == 2
    assert cli.run(["group", "--kind", "SL", "--n", "2", "--q", "6"]) == 2
    assert cli.run(["group", "--kind", "SL", "--n", "2"]) == 2
    assert cli.run(["torsion", "mu3", "--l", "5"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-subcommand"])
    assert exc.value.code == 2


def test_budget_errors_exit_3(capsys):
    assert cli.run(["group", "--kind", "GL", "--n", "3", "--q", "5"]) == 3
    assert "budget" in capsys.readouterr().err


def test_certificate_errors_exit_4(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise NoWitness("forced for the exit-code contract")

    monkeypatch.setattr(cli.torsion, "decomposition_witness", refuse)
    assert cli.run(["torsion", "witness", "--l", "7", "--n", "7",
                    "--mode", "cond2"]) == 4
    assert "certificate" in capsys.readouterr().err


def test_unexpected_errors_exit_5(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("forced\nfor the exit-code contract")

    monkeypatch.setattr(cli, "_cmd_group", crash)
    assert cli.run(["group", "--group", "SL2,q=3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: forced for the exit-code contract\n"


def test_verify_exit_zero_and_nonzero(capsys, monkeypatch):
    assert cli.run(["verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["mismatches"] == 0
    assert doc["result"]["checks"] > 100

    def fake_checks(seed, cache):
        yield ("forced mismatch", 1, 2)

    monkeypatch.setattr(cli, "_verify_checks", fake_checks)
    assert cli.run(["verify"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["mismatches"] == 1


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MATGROUPS_CACHE", str(tmp_path))
    assert cli.run(["group", "--group", "SL2,q=3"]) == 0
    capsys.readouterr()
    assert any(tmp_path.iterdir())  # group enumeration landed in the cache
    # a cached rerun emits identical bytes
    assert cli.run(["group", "--group", "SL2,q=3"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["group", "--group", "SL2,q=3"]) == 0
    assert capsys.readouterr().out == first


def test_dimension_subcommand(capsys):
    _, doc = run_json(capsys, [
        "wordmap", "dimension", "--family", "SL2", "--qs", "3,5,7",
        "--generators", "4", "--relators", "[x1,x2][x3,x4]",
    ])
    assert doc["result"]["fitted_dimension"] == pytest.approx(9.341514, abs=1e-5)
    assert doc["result"]["irreducibility_consistent"] is True


def _class_id_out_of_range(doc):
    doc["class_of"][-1] = len(doc["classes"])


def _rep_index_out_of_range(doc):
    doc["classes"][0]["rep_index"] = doc["order"]


def _sizes_miss_order(doc):
    doc["classes"][0]["size"] += 1


def _values_not_square(doc):
    for key in ("values_re", "values_im"):
        doc[key].pop()


# cache file prefix and an edit that keeps the JSON valid but the entry malformed
CACHE_CORRUPTIONS = {
    "group-missing-classes": ("group_", lambda doc: doc.pop("classes")),
    "group-short-class-of": ("group_", lambda doc: doc["class_of"].pop()),
    "group-class-id-range": ("group_", _class_id_out_of_range),
    "group-rep-index-range": ("group_", _rep_index_out_of_range),
    "group-sizes-sum": ("group_", _sizes_miss_order),
    "table-missing-degrees": ("table_", lambda doc: doc.pop("degrees")),
    "table-values-shape": ("table_", _values_not_square),
    "table-short-degrees": ("table_", lambda doc: doc["degrees"].pop()),
}


@pytest.mark.parametrize("name", sorted(CACHE_CORRUPTIONS))
def test_malformed_cache_entry_is_a_miss(tmp_path, capsys, name):
    argv = ["count", "commutator", "--group", "SL2,q=3", "--class-index", "1",
            "--cache", str(tmp_path)]
    assert cli.run(argv) == 0
    cold = capsys.readouterr().out
    prefix, corrupt = CACHE_CORRUPTIONS[name]
    for path in tmp_path.glob("*.json"):
        if not path.name.startswith(prefix):
            path.unlink()  # so the rerun reads the corrupt entry, not a later one
    (path,) = tmp_path.glob(prefix + "*.json")
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == cold
