"""CLI contract: subcommands, formats, exit codes."""

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from extremal_count import (Graph, _kernels, canonical_form, cli, embeddings,
                            read_graph_file, triangle_free_masks)
from extremal_count.graphs import (write_graph_file, cycle_graph, complete_bipartite,
                                   path_graph, star_graph)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.graph"
    write_graph_file(cycle_graph(4), path)
    return str(path)


@pytest.fixture
def k22_file(tmp_path):
    path = tmp_path / "k22.graph"
    write_graph_file(complete_bipartite(2, 2), path)
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_gen_and_count_roundtrip(tmp_path, capsys):
    t25 = tmp_path / "t25.graph"
    code, _ = run(["gen", "turan2", "--n", "5", "--out", str(t25)], capsys)
    assert code == 0
    g = read_graph_file(t25)
    assert g.n == 5 and g.edge_count() == 6

    k2 = tmp_path / "k2.graph"
    assert run(["gen", "path", "--n", "2", "--out", str(k2)], capsys)[0] == 0
    code, out = run(["count", str(k2), str(t25)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["copies"] == 6
    assert payload["embeddings"] == 12


def test_count_output_fields(c4_file, k22_file, capsys):
    code, out = run(["count", c4_file, k22_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["embeddings"] == 8
    assert payload["automorphisms"] == 8
    assert payload["copies"] == 1
    assert payload["h_degrees"] == [8, 8, 8, 8]


def test_count_twin_free_golden(tmp_path, capsys):
    # C5 has no twins: it is its own quotient, with classes of size 1
    pattern, host = tmp_path / "p3.graph", tmp_path / "c5.graph"
    write_graph_file(path_graph(3), pattern)
    write_graph_file(cycle_graph(5), host)
    code, out = run(["count", str(pattern), str(host)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["embeddings"] == 10
    assert payload["automorphisms"] == 2
    assert payload["copies"] == 5
    assert payload["h_degrees"] == [6, 6, 6, 6, 6]


def test_count_failed_self_check_exit_3(tmp_path, capsys, monkeypatch):
    # on C5 every class size is 1, so a first occupancy moment one too
    # large divides exactly and only the sum identity catches it
    pattern, host = tmp_path / "p3.graph", tmp_path / "c5.graph"
    write_graph_file(path_graph(3), pattern)
    write_graph_file(cycle_graph(5), host)
    real = embeddings.occupancy_moments

    def off_by_one(profile, sizes):
        total, first = real(profile, sizes)
        return total, [first[0] + 1] + first[1:]

    monkeypatch.setattr(embeddings, "occupancy_moments", off_by_one)
    code = cli.main(["count", str(pattern), str(host)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "double counting identity" in captured.err


def test_count_inexact_moment_exit_3(c4_file, k22_file, capsys, monkeypatch):
    # K_{2,2} is counted through its twin quotient; a first occupancy moment
    # that its class size does not divide is a counting bug
    real = embeddings.occupancy_moments

    def off_by_one(profile, sizes):
        total, first = real(profile, sizes)
        return total, [first[0] + 1] + first[1:]

    monkeypatch.setattr(embeddings, "occupancy_moments", off_by_one)
    code = cli.main(["count", c4_file, k22_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "not divisible" in captured.err


def test_count_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("n 3\n0 1\n1 zz\n")
    code = cli.main(["count", str(bad), str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: parse failure at ")
    assert "line 3" in captured.err


def test_verify_chain_failure_exit_1(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code = cli.main(["verify", "thm1-chain", "--x", "5", "--d", "3",
                     "--out", str(out_path)])
    assert code == 1
    cert = json.loads(out_path.read_text())
    assert cert["all_hold"] is False
    assert any(not step["holds"] for step in cert["certificate"]["steps"])


def test_verify_chain_success(capsys):
    code, out = run(["verify", "thm1-chain", "--x", "17", "--d", "1"], capsys)
    assert code == 0
    assert json.loads(out)["all_hold"] is True


def test_verify_lemma2(k22_file, capsys):
    code, out = run(["verify", "lemma2", "--graph", k22_file], capsys)
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["equality"] and cert["equality_is_complete_bipartite"]


def test_verify_thm2_params_exact_fractions(capsys):
    code, out = run(["verify", "thm2-params", "--lam", "1"], capsys)
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["a"] == "683/1024"
    assert all("/" in check["lhs"] for check in cert["checks"])


RELATIONS = {"==": Fraction.__eq__, ">": Fraction.__gt__,
             ">=": Fraction.__ge__, "<=": Fraction.__le__}


def _fraction_strings(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _fraction_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _fraction_strings(value)
    elif isinstance(node, str) and re.fullmatch(r"-?[0-9]+/[0-9]+", node):
        yield node


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# stdout digests of certificates whose bytes the encoder must preserve
THM2_DIGESTS = {
    ("thm2-params", "1/2"): "a1d83e228066a2a0dcb3a8b89d53cbc47b9312a37ba40f6c4ed0d412a7bbc4de",
    ("thm2-params", "1/3"): "b9498fc7c70baf5808e1d3029cabd49adc331f60dbc1aac2dca369957807c597",
    ("thm2-params", "2/3"): "542dd71134c053606106c44d1544d2eb23b95eaf21435a4317e3efb825fd9045",
    ("thm2-e2e", "1/2"): "a6f038346817c1cf467e0254aa3ad5c4b58594b800c5257bad0037374d527ade",
    ("thm2-e2e", "1/3"): "8bf6ce978ba25de71b5b4e2986d14e7faa61446df814b93318c9c8c834e1ee52",
    ("thm2-e2e", "2/3"): "fa69733c64ad9abec931821c6593cd0ef4a29480ca3084deddec7188ea004112",
}


@pytest.mark.parametrize("theorem", ["thm2-params", "thm2-e2e"])
@pytest.mark.parametrize("lam", ["1/2", "1/3", "2/3"])
def test_verify_thm2_exact_past_digit_cap(theorem, lam, capsys):
    # these certificates hold rationals of tens of thousands of digits,
    # past the interpreter's int-to-str cap, which rendering never changes
    cap = sys.get_int_max_str_digits()
    code, out = run(["verify", theorem, "--lam", lam], capsys)
    assert code == 0
    assert sha256(out) == THM2_DIGESTS[theorem, lam]
    assert sys.get_int_max_str_digits() == cap
    payload = json.loads(out)
    assert payload["all_hold"] is True
    cert = payload["certificate"]
    checks = cert["checks"] + cert.get("params", {}).get("checks", [])
    sys.set_int_max_str_digits(0)
    try:
        assert [Fraction(text) for text in _fraction_strings(payload)]
        for check in checks:
            lhs, rhs = Fraction(check["lhs"]), Fraction(check["rhs"])
            assert RELATIONS[check["relation"]](lhs, rhs) == check["holds"]
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("args, digest", [
    (["thm1-coeff", "--sweep-max", "300"],
     "628a07f7a90908b8dc02424222ec807d822a4a1c534afe0e3b8b0d79b68db3ec"),
    (["thm1-chain", "--x", "17", "--d", "1"],
     "eef2534b1b8ffdd1f94e96b78bbcf9ce6d2c58dd41ad5732b0a016e5890c7ba6"),
    (["lemma2", "--graph", "{k65}"],
     "4fc8596416dcde97af23d3bf38a25d0f640de2f7c0e8d98ee05756c51587cadd"),
    (["thm2-params", "--lam", "1", "--format", "csv"],
     "84641435fafc20c1986a2084b04913bc07489dc01fac931a4f018d795e7fc433"),
])
def test_verify_certificate_bytes_golden(args, digest, tmp_path, capsys):
    k65 = tmp_path / "k65.graph"
    write_graph_file(complete_bipartite(6, 5), k65)
    code, out = run(["verify"] + [a.format(k65=k65) for a in args], capsys)
    assert code == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("x, d, digest", [
    (5, 3, "5763888aea76fdd021f841c635f89c6a94d2c102bfbd3f8316af333facf8f12f"),
    (3, 2, "9d25f6b8fcd065d8e8e08d1f547207a8da29dd4cbdfd30e28df8c653b59ef6fd"),
    (17, 2, "1a0443ec527f1ab0044ed92ff8c51f72646d89b81c855c65bf3faf6da899ed6e"),
])
def test_verify_failing_chain_bytes_golden(x, d, digest, capsys):
    # pairs outside Theorem 1's hypothesis, where some step fails
    code, out = run(["verify", "thm1-chain", "--x", str(x), "--d", str(d)], capsys)
    assert code == 1
    assert sha256(out) == digest


def _no_cap_access(*args):
    raise AssertionError("frac_str used the int-to-str digit cap")


def test_frac_str_round_trips_without_touching_the_digit_cap(monkeypatch):
    leaf = cli.STR_BITS
    cap = sys.get_int_max_str_digits()
    cap_bits = math.ceil(cap * math.log2(10))
    values = [0, 1, -1, 10 ** 4300, 10 ** (cap + 1) - 1, 3 ** 40000]
    for k in (leaf - 1, leaf, leaf + 1, 2 * leaf + 1, cap_bits + 7):
        values += [2 ** k - 1, 2 ** k, 2 ** k + 1, 10 ** (k * 3 // 10)]
    values += [-v for v in values]
    texts = {}
    with monkeypatch.context() as patch:
        patch.setattr(sys, "set_int_max_str_digits", _no_cap_access)
        patch.setattr(sys, "get_int_max_str_digits", _no_cap_access)
        for v in values:
            for den in (1, 3, 2 ** (leaf + 3) + 1):
                texts[v, den] = cli.frac_str(Fraction(v, den))
    assert sys.get_int_max_str_digits() == cap
    sys.set_int_max_str_digits(0)
    try:
        for (v, den), text in texts.items():
            q = Fraction(v, den)
            assert text == f"{q.numerator}/{q.denominator}"
            assert Fraction(text) == q
        # the shared table of split powers holds exact powers of two
        assert cli._POWERS
        for j, power in enumerate(cli._POWERS):
            assert int(power) == 1 << (leaf << j)
    finally:
        sys.set_int_max_str_digits(cap)


def test_verify_missing_params_exit_2(capsys):
    assert cli.main(["verify", "thm1-chain", "--x", "5"]) == 2


def test_verify_zero_denominator_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "thm2-params", "--lam", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --lam" in err and "Traceback" not in err


@pytest.mark.parametrize("theorem", ["thm2-params", "thm2-e2e"])
def test_verify_thm2_small_lambda_budget_exit_2(theorem, capsys):
    # the size of the exact x_min power is estimated before any powering
    start = time.monotonic()
    code = cli.main(["verify", theorem, "--lam", "1/10"])
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget" in captured.err


@pytest.mark.parametrize("args", [["verify", "thm1-chain", "--x", "17", "--d", "1",
                                   "--workers", "2"],
                                  ["gen", "cycle", "--n", "4", "--format", "csv"]])
def test_option_without_effect_exit_2(args, capsys):
    # verify runs in one process and gen always writes graph text
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["complete-bipartite", "--a", "-1", "--b", "2"],
                                  ["star", "--n", "-1"]])
def test_gen_negative_size_exit_2(args, capsys):
    code = cli.main(["gen"] + args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("sweep_max", ["1", "-3"])
def test_verify_vacuous_sweep_exit_2(sweep_max, capsys):
    code = cli.main(["verify", "thm1-coeff", "--sweep-max", sweep_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: x_max must be at least 2\n"


@pytest.mark.parametrize("args", [["verify", "thm1-chain", "--x", "17", "--d", "1"],
                                  ["gen", "cycle", "--n", "4"]])
def test_unwritable_out_exit_2(args, tmp_path, capsys):
    missing = tmp_path / "missing" / "report.out"
    code = cli.main(args + ["--out", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_search_reports_witnesses(tmp_path, capsys, c4_file):
    wdir = tmp_path / "witnesses"
    code, out = run(["search", c4_file, "6", "--witness-dir", str(wdir)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_count"] == 9
    assert payload["witness_count"] == 1
    files = sorted(p.name for p in wdir.iterdir())
    assert files == ["witness_000.graph"]
    witness = read_graph_file(wdir / files[0])
    assert witness.edge_count() == 9


def test_search_witness_masks_are_canonical(tmp_path, capsys):
    # a one-vertex pattern fits every host equally often, so every
    # triangle-free class on n vertices is a witness
    k1 = tmp_path / "k1.graph"
    write_graph_file(Graph(1), k1)
    for n in range(1, 8):
        code, out = run(["search", str(k1), str(n)], capsys)
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses) == len(triangle_free_masks(n))
        for w in witnesses:
            assert w["canonical_mask"] == canonical_form(Graph(n, w["edges"]))


def test_search_budget_exit_2(c4_file, capsys, monkeypatch):
    # the budget is checked before any growth or closure starts
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started past the budget")

    monkeypatch.setattr(_kernels, "maximal_triangle_free_growth", no_enumeration)
    monkeypatch.setattr(_kernels, "triangle_free_canonical_masks", no_enumeration)
    for workers in ("1", "2"):
        assert cli.main(["search", c4_file, "10", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at n=9" in captured.err


def test_optimize_k2(tmp_path, capsys):
    k2 = tmp_path / "k2.graph"
    write_graph_file(cycle_graph(4), k2)
    code, out = run(["optimize", str(k2), "k2", "--grid", "10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == ["1/2", "1/2"]
    assert payload["coefficient"] == "1/8"


def test_optimize_c4_c5_golden(c4_file, capsys):
    code, out = run(["optimize", c4_file, "c5", "--grid", "50"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == ["0/1", "0/1", "0/1", "1/2", "1/2"]
    assert payload["coefficient"] == "1/8"
    assert payload["hom_count"] == 2
    assert payload["grid_resolution"] == 50


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_optimize_bad_grid_exit_2(c4_file, grid, capsys):
    assert cli.main(["optimize", c4_file, "k2", "--grid", grid]) == 2
    assert "grid resolution" in capsys.readouterr().err


def test_optimize_grid_budget_exit_2(tmp_path, c4_file, capsys):
    c8 = tmp_path / "c8.graph"
    write_graph_file(cycle_graph(8), c8)
    start = time.monotonic()
    assert cli.main(["optimize", c4_file, str(c8), "--grid", "50"]) == 2
    assert time.monotonic() - start < 1.0
    assert "budget" in capsys.readouterr().err


def test_csv_projection(capsys, c4_file, k22_file):
    code, out = run(["count", c4_file, k22_file, "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "copies,1" in lines


class _RecordingStream(io.StringIO):
    """A text stream that also records the length of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def _payload(args):
    parsed = cli.build_parser().parse_args(args)
    return parsed.func(parsed)[0]


@pytest.mark.parametrize("command", ["thm2-params", "count", "search"])
def test_render_streams_the_json_of_the_encoded_payload(command, tmp_path,
                                                        c4_file, k22_file):
    k1 = tmp_path / "k1.graph"
    write_graph_file(Graph(1), k1)
    payload = _payload({"thm2-params": ["verify", "thm2-params", "--lam", "1/3"],
                        "count": ["count", c4_file, k22_file],
                        # every host ties: about 200 KB of witnesses
                        "search": ["search", str(k1), "8"]}[command])
    expected = json.dumps(cli._encode(payload), indent=2, sort_keys=True) + "\n"
    out = _RecordingStream()
    cli.render(payload, "json", out)
    assert out.getvalue() == expected
    # batches of at least WRITE_BATCH characters, one system call each on
    # an unbuffered stream, and not one write per encoder chunk
    assert all(n >= cli.WRITE_BATCH for n in out.writes[:-1])
    assert len(out.writes) <= len(expected) // cli.WRITE_BATCH + 1


@pytest.mark.parametrize("args", [["verify", "thm2-params", "--lam", "1/3"],
                                  ["count", "{c4}", "{k22}", "--format", "csv"],
                                  ["search", "{c4}", "6"],
                                  ["gen", "blowup", "--pattern", "c5",
                                   "--sizes", "3,1,2,2,1"]])
def test_out_file_bytes_equal_stdout_bytes(args, tmp_path, c4_file, k22_file, capsys):
    args = [a.format(c4=c4_file, k22=k22_file) for a in args]
    code, out = run(args, capsys)
    assert code == 0
    target = tmp_path / "out.txt"
    assert run(args + ["--out", str(target)], capsys) == (code, "")
    assert target.read_bytes() == out.encode()


def test_render_holds_no_whole_certificate(tmp_path):
    # the 201 KB thm2-params certificate at lambda = 1/3, rendered to a
    # file: the encoded payload, a quoted copy of one text and one batch
    # are live at a time (about 513 KB traced), not the whole output text
    # and its copies (about 613 KB)
    payload = _payload(["verify", "thm2-params", "--lam", "1/3"])
    with open(tmp_path / "cert.json", "w", encoding="utf-8") as sink:
        # json, decimal and the table of powers are in place before tracing
        cli.render(payload, "json", sink)
        tracemalloc.start()
        try:
            cli.render(payload, "json", sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 560_000


# sha256 of (stdout, stderr) of the help texts and of usage errors, recorded
# with every subcommand's parser built up front (Python 3.11, 80 columns)
PARSER_DIGESTS = {
    "--help":
        "1bf56bfdebeae5659ccfedfda05bc40d5387ccb3aab8b9586c4e2296142fda08",
    "-h":
        "1bf56bfdebeae5659ccfedfda05bc40d5387ccb3aab8b9586c4e2296142fda08",
    "count --help":
        "615628fafac6f4c026818b370fa40ee89bd7297d7eda3ff4b8ff737735c8488c",
    "verify --help":
        "a8c1bb91adbc941aca60539297f31725260ad6356b1038234a1b9aa47abc4197",
    "optimize --help":
        "69fd4df88e181cf939c2b97e41a4c055e6c5f4f40ecac61fac8942ebce6b9a91",
    "search --help":
        "51ae8353f7f6dfbd7be12c4f7424cd9e68ffeb3e4468620d6db183a3ef997121",
    "gen --help":
        "bb03ffbcd12b288ac95b7d141412b546215736b4ab4f6d0292fcc8e3fd533d98",
    "":
        "d11e90934933cb325e46b6c5694b86ed89305004b57ed41a8f430bbe62b9d02a",
    "bogus":
        "8b399083c3a3adc1cfa5d7b26ddb2c371d202829daf0a552cc9ae827a90680bd",
    "-- count":
        "c817f1a51d3420d8f9dbcb1c6a9b9066bcb205e668b0f07ef7d391ce1ad62521",
    "count":
        "38eb4782a59ea8e2dbf466bffbd4e59373e6a64bd452ab0676c4af14208d3677",
    "count x":
        "e9764bf23371cb0a4cee0bea5c90ccb7a1270005613a822496424bbf1414a827",
    "verify nope":
        "ee5d7b9c363d608f513b42753c7bd039f895f040b55104667c62b6abac7d7268",
    "verify thm1-chain --x":
        "26e0dc960635a198389e9daac1af2b7712af52ae02fbffeeeed873a54fb273f4",
    "optimize x c5 --grid z":
        "c660b80531a627c3f80b8b49cebee67b594beb6ef6648a96f55f7388a111b7c5",
    "search x 5 --workers 0":
        "00b8294effeb9688f19425ac17027f50529563659c8b885c91a05b851783442d",
    "gen":
        "b3c4098fe614bfddcf7e7aac082146b7fd48df835c1ac3c6e59b56dd1b433725",
    "gen cycle --n 4 --format csv":
        "cda78b0bbcb547cc83d06f53a7d8f6c16f8082f340beb44faa393fca9ec4b654",
}


@pytest.mark.parametrize("args", sorted(PARSER_DIGESTS))
def test_help_and_usage_errors_bytes_golden(args, capsys, monkeypatch):
    # each command builds only its own subcommand's parser
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(args.split())
    captured = capsys.readouterr()
    assert exc.value.code == (0 if "-h" in args else 2)
    assert sha256(captured.out + "\0" + captured.err) == PARSER_DIGESTS[args]


def test_command_builds_only_its_parser(monkeypatch, capsys):
    def not_built(parser):
        raise AssertionError(f"built the parser of {parser.prog}")

    for name in ("_count_args", "_optimize_args", "_search_args", "_gen_args"):
        monkeypatch.setattr(cli, name, not_built)
    code, out = run(["verify", "thm1-chain", "--x", "17", "--d", "1"], capsys)
    assert code == 0 and json.loads(out)["all_hold"] is True


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("EXTREMAL_COUNT_WORKERS", "4")
    parser = cli.build_parser()
    args = parser.parse_args(["search", "x", "5"])
    assert args.workers == 4


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["search", "optimize"])
def test_workers_below_one_exit_2(command, workers, c4_file, capsys):
    args = {"search": ["search", c4_file, "5"],
            "optimize": ["optimize", c4_file, "k2", "--grid", "10"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--workers", workers])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --workers: must be at least 1" in captured.err


@pytest.mark.parametrize("value", ["-2", "0", "many"])
def test_bad_workers_env_falls_back_to_one(value, monkeypatch):
    monkeypatch.setenv("EXTREMAL_COUNT_WORKERS", value)
    args = cli.build_parser().parse_args(["search", "x", "5"])
    assert args.workers == 1


@pytest.mark.parametrize("leaves, message", [(13, "capped at 10 vertices"),
                                             (9, "automorphisms")])
def test_optimize_large_star_exit_2(tmp_path, c4_file, capsys, leaves, message):
    # one grid composition per vertex passes the grid budget; the 13-leaf
    # star is over the vertex cap, K_{1,9} over the automorphism budget
    star = tmp_path / "star.graph"
    write_graph_file(star_graph(leaves), star)
    start = time.monotonic()
    assert cli.main(["optimize", c4_file, str(star), "--grid", "1"]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_optimize_triangle_skeleton_exit_2(tmp_path, c4_file, capsys):
    k3 = tmp_path / "k3.graph"
    write_graph_file(Graph(3, [(0, 1), (1, 2), (0, 2)]), k3)
    assert cli.main(["optimize", c4_file, str(k3), "--grid", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "triangle" in captured.err


# Modules each command must not load: `count` opens no process pool and
# needs no certificate, search or enumeration code, and `verify lemma2`
# needs only the graph predicates, not even exact rationals.  `verify
# thm2-e2e` sums over the subtree kinds of its tree with the tree DP
# alone, so it needs no graph, hom-sum plan, embedding search or kernel;
# `verify thm2-params` and `verify thm1-chain` need no graph at all, and
# neither Theorem-2 command compiles Theorem 1.  `optimize` lists its
# skeleton's automorphisms with the placement kernels alone, so it loads
# no embedding counting, enumeration or certificate code.  Only the
# commands that sum over a tree load the tree DP.
# No command loads dataclasses or its inspect, nor csv without --format
# csv, and count does not load fractions.
STARTUP = ("dataclasses", "inspect", "csv")
IMPORT_SCOPE = {
    "count": STARTUP + ("fractions", "multiprocessing",
                        "concurrent.futures.process", "extremal_count.bounds",
                        "extremal_count.blowup", "extremal_count.oracle",
                        "extremal_count._treedp", "extremal_count._pykernels"),
    "lemma2": STARTUP + ("fractions", "decimal", "extremal_count.bounds",
                         "extremal_count.blowup", "extremal_count.oracle",
                         "extremal_count.embeddings", "extremal_count._treedp"),
    "optimize": STARTUP + ("extremal_count.embeddings", "extremal_count.oracle",
                           "extremal_count.bounds", "extremal_count._pykernels"),
    "search": STARTUP + ("multiprocessing", "concurrent.futures.process",
                         "extremal_count.bounds", "extremal_count.blowup",
                         "extremal_count._treedp"),
    "thm1-chain": STARTUP + ("extremal_count.graphs", "extremal_count.blowup",
                             "extremal_count._treedp"),
    "thm2-e2e": STARTUP + ("multiprocessing", "concurrent.futures.process",
                           "extremal_count.graphs", "extremal_count.blowup",
                           "extremal_count.oracle", "extremal_count.embeddings",
                           "extremal_count._pykernels", "extremal_count.thm1"),
    "thm2-params": STARTUP + ("multiprocessing", "extremal_count.graphs",
                              "extremal_count.blowup", "extremal_count._treedp",
                              "extremal_count.thm1"),
}

SCOPE_PROBE = """
import json, sys
from extremal_count import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def _loaded_modules(probe, args=()):
    """(stdout, the last stderr line as JSON) of a fresh interpreter that
    runs `probe` with `args` and finds this package first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.stdout, json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("command", sorted(IMPORT_SCOPE))
def test_command_import_scope(command, tmp_path):
    pattern, host = tmp_path / "p4.graph", tmp_path / "k33.graph"
    write_graph_file(path_graph(4), pattern)
    write_graph_file(complete_bipartite(3, 3), host)
    args = {"count": ["count", str(pattern), str(host)],
            "lemma2": ["verify", "lemma2", "--graph", str(host)],
            "optimize": ["optimize", str(pattern), "c5", "--grid", "10"],
            "search": ["search", str(pattern), "6"],
            "thm1-chain": ["verify", "thm1-chain", "--x", "17", "--d", "1"],
            "thm2-e2e": ["verify", "thm2-e2e", "--lam", "1"],
            "thm2-params": ["verify", "thm2-params", "--lam", "1"]}[command]
    _, (code, loaded) = _loaded_modules(SCOPE_PROBE, args)
    assert code == 0
    assert not set(IMPORT_SCOPE[command]) & set(loaded)


def test_backend_probe_loads_no_enumeration_or_embedding_code():
    # reading BACKEND imports the kernel dispatch alone (and the extension,
    # when built); each pure kernel module is compiled only when one of its
    # kernels is first called
    out, loaded = _loaded_modules(
        "import json, sys, extremal_count\n"
        "print(extremal_count.BACKEND)\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)")
    assert out.strip() in ("compiled", "python")
    package = {name for name in loaded if name.split(".")[0] == "extremal_count"}
    assert "extremal_count._kernels" in package
    # no _pyplace, _pykernels or embeddings
    assert package <= {"extremal_count", "extremal_count._kernels",
                       "extremal_count._fastkernels"}


def test_every_package_export_resolves():
    import extremal_count

    assert extremal_count.BACKEND in ("compiled", "python")
    for name in extremal_count.__all__:
        assert getattr(extremal_count, name) is not None, name
    assert set(extremal_count.__all__) <= set(dir(extremal_count))
    with pytest.raises(AttributeError):
        extremal_count.no_such_name
