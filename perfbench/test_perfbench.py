"""Tests of the benchmark's own checkers, span arithmetic and metadata.

    python -m pytest perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, make_plan, random_tree  # noqa: E402

naive = checks.naive_oracles(ROOT)
from extremal_count import cli  # noqa: E402


def run_cli(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue().encode()


def tamper_last_digit(text: str) -> str:
    return text[:-1] + str((int(text[-1]) + 1) % 10)


def test_chain_certificate_rejects_any_tampered_digit():
    out = run_cli("verify", "thm1-chain", "--x", "17", "--d", "1")
    checks.check_verify(out, "thm1-chain", x=17, d=1)
    payload = json.loads(out)
    cert = payload["certificate"]
    slots = [(cert["expressions"], i) for i in range(len(cert["expressions"]))]
    slots += [(step, key) for step in cert["steps"] for key in ("lhs", "rhs")]
    for container, key in slots:
        original = container[key]
        container[key] = tamper_last_digit(original)
        with pytest.raises(checks.CheckFailure):
            checks.check_verify(json.dumps(payload).encode(), "thm1-chain", x=17, d=1)
        container[key] = original


def test_relation_with_wrong_verdict_is_rejected():
    out = run_cli("verify", "thm2-params", "--lam", "2")
    checks.check_verify(out, "thm2-params", lam="2")
    payload = json.loads(out)
    check = payload["certificate"]["checks"][0]
    check["lhs"] = check["rhs"]          # the strict relation no longer holds
    with pytest.raises(checks.CheckFailure, match="evaluates to False"):
        checks.check_verify(json.dumps(payload).encode(), "thm2-params", lam="2")


def test_wrong_count_fails_the_checker(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("gen", "cycle", "--n", "4", "--out", "c4.graph")
    run_cli("gen", "turan2", "--n", "8", "--out", "k44.graph")
    out = run_cli("count", "c4.graph", "k44.graph")
    texts = {name: (tmp_path / name).read_text() for name in ("c4.graph", "k44.graph")}

    def check(payload):
        checks.check_count(json.dumps(payload).encode(), naive, "c4.graph",
                           texts["c4.graph"], "k44.graph", texts["k44.graph"])

    good = json.loads(out)
    check(good)
    for key, delta in (("embeddings", 1), ("copies", 1), ("automorphisms", 0)):
        bad = dict(good)
        if key == "automorphisms":       # consistent totals, wrong |Aut|
            bad["automorphisms"] *= 2
            bad["copies"] //= 2
        else:
            bad[key] += delta
        with pytest.raises(checks.CheckFailure):
            check(bad)
    bad = dict(good, h_degrees=[good["h_degrees"][0] + 1] + good["h_degrees"][1:])
    with pytest.raises(checks.CheckFailure):
        check(bad)


def test_search_and_optimize_checkers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("gen", "path", "--n", "3", "--out", "p3.graph")
    p3 = (tmp_path / "p3.graph").read_text()
    out = run_cli("search", "p3.graph", "5")
    checks.check_search(out, naive, "p3.graph", p3, 5)
    bad = json.loads(out)
    bad["max_count"] += 1
    with pytest.raises(checks.CheckFailure):
        checks.check_search(json.dumps(bad).encode(), naive, "p3.graph", p3, 5)

    out = run_cli("optimize", "p3.graph", "c5", "--grid", "6")
    checks.check_optimize(out, naive, "p3.graph", p3, "c5", 6)
    bad = json.loads(out)
    bad["coefficient"] = tamper_last_digit(bad["coefficient"])
    with pytest.raises(checks.CheckFailure):
        checks.check_optimize(json.dumps(bad).encode(), naive, "p3.graph", p3, "c5", 6)


def _span(sid, parent, start, end, pid=1, name="x"):
    return {"id": sid, "parent": parent, "name": name, "pid": pid, "cmd": "c",
            "start": start, "end": end}


def test_self_time_subtracts_same_process_children_once():
    records = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 4.0),
        _span("c", "a", 3.0, 6.0),          # overlaps b: union [1, 6]
        _span("e", "b", 2.0, 3.0),          # grandchild: only b loses it
        _span("w", "a", 2.0, 9.0, pid=2),   # pool worker: runs in parallel
        _span("m", "a", 7.0, 7.0),          # a mark
    ]
    selft = spans.self_times(records)
    assert selft == pytest.approx({"a": 5.0, "b": 2.0, "c": 3.0, "e": 1.0,
                                   "w": 7.0, "m": 0.0})


def test_enumeration_metrics_absent_when_backend_hides_them():
    records = [_span("t", None, 0.0, 1.0, name="kernels.triangle_free_canonical_masks"),
               _span("k", "t", 0.5, 0.5, name="pykernels.canonical_mask")]
    records[0]["items"] = 1
    pure = spans.layer_metrics(records, "python", set())
    assert pure["oracle.enum_canonical_forms"] == 1
    assert pure["oracle.enum_yield"] == 1.0
    compiled = spans.layer_metrics(records, "compiled", set())
    assert "oracle.enum_canonical_forms" not in compiled
    assert "oracle.enum_yield" not in compiled


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_seeded_inputs_are_reproducible_trees():
    for seed in range(20):
        n, edges = checks.parse_graph(random_tree(random.Random(seed), 8))
        degrees = [sum(v in e for e in edges) for v in range(n)]
        assert len(edges) == n - 1 and max(degrees) <= 3
        assert checks.two_coloring(n, edges) is not None
    for name in WORKLOADS:
        assert make_plan(name, 3).files == make_plan(name, 3).files
