import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uvbraid
from uvbraid.cli import _TABLE, _json, run
from uvbraid.verify import build_graph
from uvbraid.words import _tables

from test_raag import vertices_commute


def run_json(capsys, argv, expect=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    payload = json.loads(out)
    assert list(payload)[0] == "schema"
    assert payload["schema"] == 1
    return payload


def test_unknown_command_exits_64(capsys):
    assert run(["frobnicate"]) == 64
    assert "unknown command" in capsys.readouterr().err


def test_unknown_mode_exits_64(capsys):
    assert run(["quot", "sideways"]) == 64
    assert run(["hom"]) == 64
    assert run(["hom", "--n", "3"]) == 64
    capsys.readouterr()


# A valid call per mode row, without its command and mode.
MODE_CALLS = {
    ("hom", "check"): ["--n", "3", "--file", "-"],
    ("hom", "phi"): ["--n", "3", "--eps", "1,1", "--word", "s1.1 r2"],
    ("hom", "enumerate"): ["--n", "3", "--m", "2"],
    ("quot", "eval"): ["--n", "3", "--c", "2", "--d", "2", "--word", "s1.2 r1"],
    ("quot", "order"): ["--n", "4", "--c", "2", "--d", "2"],
    ("oracle", "eq"): ["--n", "3", "--depth", "3", "r1 s2.1 r1", "r2 s1.1 r2"],
    ("graph", "dot"): ["--n", "4", "--c", "2"],
    ("graph", "stats"): ["--n", "4", "--c", "2"],
}


@pytest.mark.parametrize("row", [row[:2] for row in _TABLE if row[1]], ids=" ".join)
def test_mode_may_follow_its_options(capsys, monkeypatch, row):
    command, mode = row
    assert run(["hom", "phi", "--n", "3", "--eps", "1,1"]) == 0
    hom = json.dumps(json.loads(capsys.readouterr().out)["hom"])
    outputs = []
    for argv in (
        [command, mode, *MODE_CALLS[command, mode]],
        [command, *MODE_CALLS[command, mode], mode],
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(hom))
        code = run(argv)
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0][0] == 0, outputs[0]
    assert outputs[1] == outputs[0]


def test_no_arguments_prints_help(capsys):
    assert run([]) == 64
    assert "usage" in capsys.readouterr().out.lower()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_bad_word_exits_2(capsys):
    assert run(["nf", "--n", "3", "--c", "1", "--word", "r9"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_params_exit_2(capsys):
    assert run(["vcd", "--n", "0", "--c", "1"]) == 2
    capsys.readouterr()


# (n, c) -> vertex + edge lines of ``graph dot``: just over the line limit
# at c = 1, at c = 2 and with no edges at all, then n = 100 (47 million
# edge lines, under the old vertex limit) and well over it.
DOT_OVER = {
    (40, 1): 1098240, (29, 2): 1141672, (3, 166667): 1000002,
    (100, 1): 47064600, (101, 1): 49005200, (300, 3): 35725716000,
}
# Just under the limit, in the same order.
DOT_UNDER = {(39, 1): 988494, (28, 2): 984312, (3, 166666): 999996}


@pytest.mark.parametrize(
    "argv", [["graph", "dot", "--n", str(n), "--c", str(c)] for n, c in DOT_OVER]
)
def test_graph_commands_refuse_large_inputs(capsys, argv):
    n, c = argv[3], argv[5]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph dot prints at most 1000000 vertex and edge lines,"
        f" got {DOT_OVER[int(n), int(c)]} for n={n}, c={c}\n"
    )


@pytest.mark.parametrize(
    "n, c, lines", [(n, c, lines) for (n, c), lines in {**DOT_OVER, **DOT_UNDER}.items()]
)
def test_graph_stats_take_any_size(capsys, n, c, lines):
    payload = run_json(capsys, ["graph", "stats", "--n", str(n), "--c", str(c)])
    assert payload["vertices"] + payload["edges"] == lines


@pytest.mark.parametrize("n, c", DOT_UNDER)
def test_graph_dot_prints_up_to_the_limit(capsys, monkeypatch, n, c):
    monkeypatch.setattr(uvbraid.raag, "to_dot", lambda params: ["printed\n"])
    assert run(["graph", "dot", "--n", str(n), "--c", str(c)]) == 0
    assert capsys.readouterr().out == "printed\n"


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_graph_stats_match_mask_graph(capsys, n, c):
    g = build_graph(uvbraid.Params(n, c))
    degrees = [m.bit_count() for m in g.adj] or [0]
    payload = run_json(capsys, ["graph", "stats", "--n", str(n), "--c", str(c)])
    assert payload == {
        "schema": 1,
        "vertices": len(g.verts),
        "edges": g.edge_count(),
        "min_degree": min(degrees),
        "max_degree": max(degrees),
    }


@pytest.mark.parametrize("command", ["vcd", "howson", "lerf-witness", "center-witness"])
@pytest.mark.parametrize("n", [300, 100_000])
def test_certificate_commands_run_beyond_graph_limit(capsys, command, n):
    payload = run_json(capsys, [command, "--n", str(n), "--c", "3"])
    assert build_graph.__wrapped__ not in _tables(uvbraid.Params(n, 3))
    if command == "vcd":
        assert payload["clique_number"] == payload["vcd"] == n // 2
    elif command == "howson":
        v1, v2, v3 = payload["p3_witness"]
        assert vertices_commute(v1, v2) and vertices_commute(v2, v3)
        assert not vertices_commute(v1, v3)
    elif command == "lerf-witness":
        x1, x2, y1, y2 = payload["f2xf2_witness"]
        assert not vertices_commute(x1, x2) and not vertices_commute(y1, y2)
        assert all(vertices_commute(x, y) for x in (x1, x2) for y in (y1, y2))
    else:
        assert payload["dominating_vertices"] == [] and payload["commute"] is False


def test_non_ascii_digit_exits_2_with_token_position(capsys):
    assert run(["nf", "--n", "3", "--c", "1", "--word", "r1 r\u00b2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: token 2:")


def test_missing_flag_exits_2(capsys):
    assert run(["nf", "--n", "3"]) == 2
    capsys.readouterr()


def test_nf(capsys):
    payload = run_json(capsys, ["nf", "--n", "3", "--c", "1", "--word", "r1 s2.1"])
    assert payload["delta_nf"] == ["d1.3.1"]
    assert payload["perm"] == [2, 1, 3]
    assert payload["cycles"] == "(1 2)"


def test_eq(capsys):
    payload = run_json(
        capsys, ["eq", "--n", "3", "--c", "1", "r1 s2.1 r1", "r2 s1.1 r2"]
    )
    assert payload["equal"] is True
    assert payload["left"] == payload["right"]
    payload = run_json(capsys, ["eq", "--n", "3", "--c", "1", "r1 s1.1", "s1.1 r1"])
    assert payload["equal"] is False


def test_trivial(capsys):
    payload = run_json(
        capsys,
        ["trivial", "--n", "4", "--c", "1", "--word", "r1 r2 s1.1 r2 r1 S2.1"],
    )
    assert payload["trivial"] is True
    assert payload["delta_nf"] == []
    assert payload["cycles"] == "()"


def test_pure_and_perm(capsys):
    payload = run_json(capsys, ["pure", "--n", "3", "--c", "1", "--word", "s1.1"])
    assert payload["pure"] is False
    assert payload["strand_perm"] == [2, 1, 3]
    payload = run_json(capsys, ["perm", "--n", "3", "--c", "1", "--word", "r1 s2.1"])
    assert payload["strand_cycles"] == "(1 2 3)"
    assert payload["virtual_perm"] == [2, 1, 3]


def test_graph_stats(capsys):
    payload = run_json(capsys, ["graph", "stats", "--n", "4", "--c", "1"])
    assert payload["vertices"] == 12
    # 3 ways to split the 4 strands into two pairs, each giving a
    # 4-edge complete join between the ordered versions
    assert payload["edges"] == 12
    assert payload["min_degree"] == 2
    assert payload["max_degree"] == 2


def test_graph_dot(capsys):
    assert run(["graph", "dot", "--n", "4", "--c", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph commutation {")
    assert '"d1.2.1" -- "d3.4.1";' in out


def test_vcd_example(capsys):
    payload = run_json(capsys, ["vcd", "--n", "6", "--c", "1"])
    assert payload["clique_number"] == 3
    assert payload["vcd"] == 3


def test_vcd_takes_any_n():
    # in a child capped at 1 GB of address space, so that memory linear in n
    # fails at once instead of filling the host
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = Path(uvbraid.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "uvbraid", "vcd", "--n", str(10**20), "--c", "1"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clique_number"] == payload["vcd"] == 10**20 // 2


def test_howson_example(capsys):
    payload = run_json(capsys, ["howson", "--n", "4", "--c", "1"])
    assert payload["howson"] is False
    assert len(payload["p3_witness"]) == 3
    payload = run_json(capsys, ["howson", "--n", "3", "--c", "2"])
    assert payload["howson"] is True
    assert payload["p3_witness"] is None


def test_lerf_witness(capsys):
    payload = run_json(capsys, ["lerf-witness", "--n", "5", "--c", "1"])
    assert payload["lerf"] is False
    assert len(payload["f2xf2_witness"]) == 4
    payload = run_json(capsys, ["lerf-witness", "--n", "2", "--c", "3"])
    assert payload["lerf"] is True


def test_center_witness(capsys):
    payload = run_json(capsys, ["center-witness", "--n", "4", "--c", "2"])
    assert payload["dominating_vertices"] == []
    assert payload["commute"] is False


def test_center_witness_reads_the_same_at_any_n(capsys):
    small = run_json(capsys, ["center-witness", "--n", "4", "--c", "1"])
    assert run_json(capsys, ["center-witness", "--n", str(10**20), "--c", "1"]) == small


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "--word", "r1"],
        ["eq", "r1", "r1"],
        ["trivial", "--word", "r1"],
        ["pure", "--word", "r1"],
        ["perm", "--word", "r1"],
        ["hom", "phi", "--eps", "1,0", "--word", "r1"],
        ["hom", "enumerate", "--m", "2"],
        ["quot", "eval", "--d", "2", "--word", "r1"],
        ["quot", "order", "--d", "2"],
    ],
)
def test_n_beyond_a_machine_int_exits_2(capsys, argv):
    assert run(argv + ["--n", str(10**20), "--c", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--n" in captured.err and str(sys.maxsize) in captured.err


@pytest.mark.parametrize(
    "nc, message",
    [
        # past sys.maxsize the option is named as for the other commands
        (["--n", "3", "--c", str(10**20)], f"--c must be at most sys.maxsize = {sys.maxsize}"),
        (
            ["--n", "3", "--c", "100000000"],
            "the order d^c * n! has about 3.01e+07 digits for n=3, c=100000000, d=2,"
            " more than ORDER_DIGIT_LIMIT = 100000",
        ),
        (
            ["--n", "1000000000", "--c", "1"],
            "the order d^c * n! has about 8.57e+09 digits for n=1000000000, c=1, d=2,"
            " more than ORDER_DIGIT_LIMIT = 100000",
        ),
        (
            ["--n", "2", "--c", "5000"],
            "the units certificate takes (c + 2)(n + c) = 25020004 steps for n=2, c=5000,"
            " more than UNITS_STEP_LIMIT = 10000000",
        ),
    ],
)
def test_quot_order_refuses_huge_orders_up_front(capsys, nc, message):
    assert run(["quot", "order", *nc, "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["vcd"],
        ["howson"],
        ["lerf-witness"],
        ["center-witness"],
        ["graph", "stats"],
        ["ab", "--word", "r1"],
        ["chi", "--t", "1", "--word", "s1.1"],
        ["oracle", "eq", "r1", "r1"],
    ],
)
def test_n_beyond_a_machine_int_still_answers(capsys, argv):
    # closed forms, and a pair that free reduction proves equal
    assert run(argv + ["--n", str(10**20), "--c", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == 1


def test_hom_phi(capsys):
    payload = run_json(
        capsys,
        ["hom", "phi", "--n", "3", "--c", "2", "--eps", "1,0,1", "--word", "s1.1 r2"],
    )
    assert payload["bits"] == [1, 0, 1]
    assert payload["admissible"] is True
    assert payload["hom"]["m"] == 3
    assert payload["image_cycles"] == "(1 2 3)"


def test_hom_phi_rejects_bad_bits(capsys):
    assert run(["hom", "phi", "--n", "3", "--c", "2", "--eps", "1,1"]) == 2
    assert run(["hom", "phi", "--n", "3", "--c", "1", "--eps", "1,x"]) == 2
    capsys.readouterr()


def test_hom_check_file(tmp_path, capsys):
    hom_path = tmp_path / "hom.json"
    phi = run_json(capsys, ["hom", "phi", "--n", "3", "--c", "1", "--eps", "1,1"])
    hom_path.write_text(json.dumps(phi["hom"]))
    payload = run_json(
        capsys, ["hom", "check", "--n", "3", "--c", "1", "--file", str(hom_path)]
    )
    assert payload["homomorphism"] is True
    assert payload["failed_relation"] is None
    assert payload["abelian_image"] is False


def test_hom_check_stdin(capsys, monkeypatch):
    phi = run_json(capsys, ["hom", "phi", "--n", "3", "--c", "1", "--eps", "1,0"])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(phi["hom"])))
    payload = run_json(capsys, ["hom", "check", "--n", "3", "--c", "1"])
    assert payload["homomorphism"] is False
    assert payload["failed_relation"].startswith("slide(")
    assert payload["abelian_image"] is None


def test_hom_check_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["hom", "check", "--n", "3", "--c", "1", "--file", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec, message",
    [('{"m": 3}', "missing rho, sigma"), ("[1,2]", "must be a JSON object")],
)
def test_hom_check_malformed_spec_exits_2(spec, message):
    src = Path(uvbraid.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "uvbraid", "hom", "check", "--n", "3"],
        input=spec, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("m", [0, -1])
def test_hom_check_refuses_a_target_degree_below_1(capsys, monkeypatch, m):
    # at n = 1 there are no images, so only the degree check can refuse
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"m": m, "rho": [], "sigma": []})))
    assert run(["hom", "check", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: target degree must be >= 1, got m={m}\n"


def test_hom_enumerate(capsys):
    payload = run_json(capsys, ["hom", "enumerate", "--n", "3", "--c", "1", "--m", "2"])
    assert payload["count"] == 4
    assert len(payload["homs"]) == 4


def test_ab_and_chi(capsys):
    payload = run_json(
        capsys, ["ab", "--n", "4", "--c", "2", "--word", "s1.2 S2.2 s3.2 r1"]
    )
    assert payload["sigma_exponents"] == [0, 1]
    assert payload["rho_parity"] == 1
    payload = run_json(
        capsys, ["chi", "--n", "4", "--c", "2", "--t", "2", "--word", "s1.2 r1 r2"]
    )
    assert payload["parity"] == 1
    assert run(["chi", "--n", "4", "--c", "2", "--t", "3", "--word", "r1"]) == 2
    capsys.readouterr()


def test_quot_eval_and_order(capsys):
    payload = run_json(
        capsys, ["quot", "eval", "--n", "3", "--c", "1", "--d", "2", "--word", "s1.1 s1.1 r2"]
    )
    assert payload["vec"] == [0]
    assert payload["cycles"] == "(2 3)"
    payload = run_json(capsys, ["quot", "order", "--n", "5", "--c", "2", "--d", "2"])
    assert payload["order"] == 480
    assert payload["n_factorial"] == 120
    assert payload["method"] == "closure"


def test_quot_order_prints_orders_past_the_int_digit_limit(capsys):
    # 2 * 1700! has 4,756 digits, past the default int -> str limit of 4,300
    assert run(["quot", "order", "--n", "1700", "--c", "1", "--d", "2"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_int=Decimal)
    assert payload["order"] == 2 * math.factorial(1700)
    assert payload["n_factorial"] == math.factorial(1700)
    assert payload["method"] == "units"
    # the same digits in a list, as an item or nested
    big = math.factorial(1700)
    assert json.loads(_json([big, 1, [big]]), parse_int=Decimal) == [big, 1, [big]]


def test_oracle_eq(capsys):
    payload = run_json(
        capsys,
        ["oracle", "eq", "--n", "3", "--c", "1", "r1 s2.1 r1", "r2 s1.1 r2"],
    )
    assert payload["verdict"] == "proven_equal"
    assert payload["path"]
    payload = run_json(
        capsys,
        [
            "oracle", "eq", "--n", "3", "--c", "1",
            "--depth", "2", "--width", "50", "r1", "",
        ],
    )
    assert payload["verdict"] == "unknown"
    assert payload["path"] is None


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--depth", "error: search budgets must be >= 0, got depth -1 and width 200000\n"),
        ("--width", "error: search budgets must be >= 0, got depth 8 and width -1\n"),
    ],
)
def test_oracle_eq_negative_budget_exits_2(capsys, flag, message):
    assert run(["oracle", "eq", "--n", "3", flag, "-1", "r1", "r1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_hom_enumerate_negative_node_budget_exits_2(capsys):
    assert run(["hom", "enumerate", "--n", "3", "--m", "1", "--max-nodes", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node budget must be >= 0, got max_nodes=-5\n"


def test_hom_enumerate_nan_time_budget_exits_2(capsys):
    argv = ["hom", "enumerate", "--n", "3", "--m", "3", "--max-seconds"]
    assert run([*argv, "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: time budget must be a number of seconds or inf, got nan\n"
    assert run([*argv, "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 60


def _homspec_document(n, c, m):
    """The ``hom enumerate`` document as ``json.dumps`` writes it from the
    ``HomSpec.to_json_dict`` list of ``enumerate_homs``."""
    found = uvbraid.enumerate_homs(uvbraid.Params(n, c), m)
    doc = {"schema": 1, "m": m, "count": len(found), "homs": [h.to_json_dict() for h in found]}
    return json.dumps(doc, indent=2) + "\n"


class _Sha256Sink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


# The sha256 of ``_homspec_document`` for the two shapes of the grid below
# whose document json.dumps takes seconds and gigabytes to write (138,240
# and 470,016 homomorphisms); each was computed once from that function.
LARGE_HOM_DIGESTS = {
    (2, 3, 4): "8913fbc21ca2c17768be8ef922e1f53f55dc82871de062d54d86e365ebf5a3ec",
    (3, 3, 4): "d3c6277326231292e9d15404f132be84598c86bcc8deca36a9570fa13a3e4edc",
}


@pytest.mark.parametrize(
    "n,c,m", [(n, c, m) for n in range(1, 5) for c in range(1, 4) for m in range(1, 5)]
)
def test_hom_enumerate_writes_the_homspec_document(capsys, n, c, m):
    argv = ["hom", "enumerate", "--n", str(n), "--c", str(c), "--m", str(m)]
    if (n, c, m) in LARGE_HOM_DIGESTS:
        sink = _Sha256Sink()
        with contextlib.redirect_stdout(sink):
            assert run(argv) == 0
        assert sink.hash.hexdigest() == LARGE_HOM_DIGESTS[n, c, m]
        return
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out == _homspec_document(n, c, m)
    if n == 1:
        assert '"rho": [],\n      "sigma": []' in out


@pytest.mark.parametrize("rows_per_write", [1, 4, 5, 59, 60, 61])
def test_hom_enumerate_writes_rows_in_chunks(capsys, monkeypatch, rows_per_write):
    # (3, 1, 3) has 60 homomorphisms: chunks that divide it and that do not
    monkeypatch.setattr(uvbraid.cli, "ROWS_PER_WRITE", rows_per_write)
    writes = []
    real_write = sys.stdout.write

    def write(text):
        writes.append(text)
        return real_write(text)

    monkeypatch.setattr(sys.stdout, "write", write)
    assert run(["hom", "enumerate", "--n", "3", "--m", "3"]) == 0
    assert capsys.readouterr().out == _homspec_document(3, 1, 3)
    # the head, each chunk, a separator before each later chunk, and the tail
    chunks = -(-60 // rows_per_write)
    assert len(writes) == 2 * chunks + 1


def test_hom_enumerate_budget_error_counts_the_homomorphisms_found(capsys):
    with pytest.raises(uvbraid.BudgetExceededError) as err:
        uvbraid.enumerate_homs(uvbraid.Params(3, 1), 4, uvbraid.SearchBudget(max_nodes=30))
    found = len(err.value.partial)
    assert found == 24
    assert run(["hom", "enumerate", "--n", "3", "--m", "4", "--max-nodes", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"search budget exceeded with {found} homomorphisms found\n"


@pytest.mark.parametrize("n", [1, 3])
def test_hom_enumerate_refuses_a_degree_past_one_byte(capsys, monkeypatch, n):
    def no_set_up(*args):
        raise AssertionError("set-up ran before the degree was checked")

    monkeypatch.setattr(uvbraid.homs, "permutations", no_set_up)
    monkeypatch.setattr(uvbraid.homs, "relation_codes", no_set_up)
    assert run(["hom", "enumerate", "--n", str(n), "--m", "257"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a row holds each image point in one byte,"
        " so m must be at most 256, got m=257\n"
    )


def test_hom_enumerate_takes_a_degree_of_256(capsys):
    # UV(1, c) has no generators: one homomorphism, an empty row
    payload = run_json(capsys, ["hom", "enumerate", "--n", "1", "--m", "256"])
    assert payload["count"] == 1
    assert payload["homs"] == [{"m": 256, "rho": [], "sigma": []}]
    # at n = 2 the node budget refuses the 256! first crossing images, as before
    assert run(["hom", "enumerate", "--n", "2", "--m", "256"]) == 2
    assert capsys.readouterr().err == "search budget exceeded with 0 homomorphisms found\n"


def test_hom_enumerate_builds_no_homspec(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("hom enumerate built a HomSpec")

    perms = 0
    real_perm_init = uvbraid.Perm.__init__

    def counting_perm_init(self, *args, **kwargs):
        nonlocal perms
        perms += 1
        real_perm_init(self, *args, **kwargs)

    monkeypatch.setattr(uvbraid.HomSpec, "__init__", refuse)
    monkeypatch.setattr(uvbraid.Perm, "__init__", counting_perm_init)
    with pytest.raises(AssertionError, match="built a HomSpec"):
        uvbraid.enumerate_homs(uvbraid.Params(3, 1), 2)
    perms = 0
    payload = run_json(capsys, ["hom", "enumerate", "--n", "3", "--m", "4"])
    assert payload["count"] == 816
    # the target S_4 is built as byte images: no Perm per element, none per homomorphism
    assert perms == 0


# Strings over every code point, lone surrogates and control characters
# included; ints past 64 bits; floats with nan and inf; keys of every
# type json accepts, so that the writer's fallback runs too.
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**130), 2**130)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
KEYS = TEXT | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | st.floats()
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=5)
        | st.dictionaries(KEYS, inner, max_size=3)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
@example([True, False, 1, 0, None])
@example({"a": [], "b": {}, "c": [[], [{}], ()], "\u00e9\n\x00": "\ud800\t\u2028"})
@example([-(2**64) - 1, 2**64, float("nan"), float("-inf"), {1: {True: [None]}}])
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, indent=2)


def test_output_is_byte_identical(capsys):
    args = ["nf", "--n", "4", "--c", "2", "--word", "r1 s2.2 r3 S1.1"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


# sha256 of verify-paper's stdout: its claims are seeded, so the report's
# bytes change only when a claim or its details do
VERIFY_PAPER_SHA256 = "2cf0bdc428565b4fde083d77c45c369f85b8f342195e41f77641df04c3803f13"


def test_verify_paper_runs_clean(capsys):
    code = run(["verify-paper"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    claims = [r["claim"] for r in payload["results"]]
    assert len(claims) == 15
    assert len(set(claims)) == 15
    assert all(r["ok"] for r in payload["results"])


def test_hom_phi_and_check_refuse_past_the_step_limit(capsys, monkeypatch):
    def no_set_up(*args):
        raise AssertionError("set-up ran before the step limit was checked")

    monkeypatch.setattr(uvbraid.homs, "relation_codes", no_set_up)
    for n in (160, 100_000):
        assert run(["hom", "phi", "--n", str(n), "--eps", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: verifying a homomorphism into S_{n} takes")
        assert captured.err.endswith("more than VERIFY_STEP_LIMIT = 10000000\n")
    # 351 virtual and 351 crossing images of one point: R = 245,351 relations
    doc = {"m": 1, "rho": [[1]] * 351, "sigma": [[[1]]] * 351}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run(["hom", "check", "--n", "352"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verifying a homomorphism into S_1 takes 10059391 steps, R (m + 40)"
        " with R = 245351 relations for n=352, c=1, more than VERIFY_STEP_LIMIT = 10000000\n"
    )


def test_hom_enumerate_past_the_step_limit_exits_2():
    # the relation table, built before the first node, once ran out of
    # memory here whatever the node budget
    src = Path(uvbraid.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "uvbraid", "hom", "enumerate", "--n", "2000", "--m", "2",
         "--max-nodes", "100"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9)),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: verifying a homomorphism into S_2 takes 335412294 steps, R (m + 40)"
        " with R = 7986007 relations for n=2000, c=1, more than VERIFY_STEP_LIMIT = 10000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["ab", "--word", "r1"], ["quot", "eval", "--d", "2", "--word", "r1"]],
    ids=["ab", "quot eval"],
)
def test_exponent_vectors_past_the_limit_exit_2(argv):
    src = Path(uvbraid.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "uvbraid", *argv, "--n", "3", "--c", "1000000000"],
        capture_output=True, text=True, env=env, timeout=60,
        # a dense vector of 10^9 sums would need 8 GB
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9)),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: the abelianisation has c = 1000000000 exponent sums,"
        " more than EXPONENT_LIMIT = 1000000\n"
    )


@pytest.mark.parametrize(
    "argv", [["ab", "--word", "r1"], ["quot", "eval", "--d", "2", "--word", "r1"]]
)
def test_exponent_vectors_past_sys_maxsize_name_the_option(capsys, argv):
    assert run(argv + ["--n", "3", "--c", str(10**20)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --c must be at most sys.maxsize = {sys.maxsize}\n"


def test_chi_answers_at_any_c(capsys):
    for c in ("1000000000", "100000000000000000000"):
        payload = run_json(capsys, ["chi", "--n", "3", "--c", c, "--t", "1", "--word", "s1.1"])
        assert payload["parity"] == 1
        payload = run_json(
            capsys, ["chi", "--n", "3", "--c", c, "--t", c, "--word", f"s1.1 s2.{c} r1"]
        )
        assert payload["parity"] == 1
