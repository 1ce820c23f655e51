"""Result records: read-only NamedTuples that pickle, and their rendering."""

import json
import pickle
from fractions import Fraction

import pytest

from extremal_count import (Graph, WeightedPattern, bounds, cli, cycle_graph,
                            degree_stats, edge_bound_check, find_maximizers,
                            leading_coefficient, path_graph, saturation_check,
                            solve_theorem2_params, theorem2_end_to_end,
                            thm1_chain_check, thm1_coefficient, thm1_sweep)
from extremal_count.matchings import check_theorem1_hypothesis, maximum_matching

K2 = path_graph(2)
HALF = (Fraction(1, 2), Fraction(1, 2))


def _records():
    """One record of each kind, made by the code that makes it."""
    wp = WeightedPattern(K2, HALF)
    return [
        degree_stats(cycle_graph(5)),
        maximum_matching(path_graph(4)),
        check_theorem1_hypothesis(path_graph(4)),
        wp,
        leading_coefficient(path_graph(3), wp),
        saturation_check(path_graph(3), wp, 10),
        bounds._check("one half", Fraction(1, 2), Fraction(1, 3), ">"),
        edge_bound_check(cycle_graph(5)),
        thm1_coefficient(5, 0),
        thm1_chain_check(17, 1),
        thm1_sweep(20),
        solve_theorem2_params(1),
        theorem2_end_to_end(1),
        find_maximizers(K2, 4),
    ]


RECORDS = _records()


def test_every_record_kind_is_covered():
    assert len({type(r) for r in RECORDS}) == 14


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_read_only_and_pickle(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert list(record._asdict()) == list(record._fields)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_weighted_pattern_normalises_to_fractions():
    wp = WeightedPattern(cycle_graph(5), [1, 0, 0, 0, 0])
    assert wp.weights == (1, 0, 0, 0, 0)
    assert all(type(w) is Fraction for w in wp.weights)
    assert WeightedPattern(Graph(0), ()).weights == ()


def test_weighted_pattern_checks_on_unpickling_and_replace():
    wp = WeightedPattern(K2, [1, 0])
    copy = pickle.loads(pickle.dumps(wp))
    assert copy == wp and all(type(w) is Fraction for w in copy.weights)
    # unpickling makes the record again, through the same checks
    bad = tuple.__new__(WeightedPattern, (K2, (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError, match="sum to exactly 1"):
        pickle.loads(pickle.dumps(bad))
    assert type(wp._replace(weights=(0, 1)).weights[0]) is Fraction
    with pytest.raises(ValueError, match="non-negative"):
        wp._replace(weights=(2, -1))
    with pytest.raises(ValueError, match="need 2 weights"):
        WeightedPattern._make((K2, ()))


def test_encode_renders_nested_records():
    report = thm1_chain_check(17, 1)
    encoded = cli._encode(report)
    assert list(encoded) == list(report._fields)
    assert encoded["expressions"] == [cli.frac_str(v) for v in report.expressions]
    step = report.steps[0]
    assert encoded["steps"][0] == {"name": step.name, "lhs": cli.frac_str(step.lhs),
                                   "rhs": cli.frac_str(step.rhs),
                                   "relation": step.relation, "holds": step.holds}
    json.dumps(encoded)


def test_encode_renames_theorem2_fields():
    params = solve_theorem2_params(Fraction(1, 2))
    encoded = cli._encode(params)
    assert set(encoded) == {"lambda", "a", "b", "c", "p", "x_min", "checks"}
    assert encoded["lambda"] == "1/2" and encoded["p"] == params.p_float
    cert = cli._encode(theorem2_end_to_end(1))
    assert cert["params"]["lambda"] == "1/1" and "lam" not in cert["params"]
    # a plain tuple, even of the same length, is still an array
    assert cli._encode(tuple(params))[0] == "1/2"


def test_encode_renders_each_distinct_fraction_once(monkeypatch):
    cert = theorem2_end_to_end(Fraction(1, 2))
    expected = cli._encode(cert)
    frac_str, rendered = cli.frac_str, []

    def counting_frac_str(q):
        rendered.append(q)
        return frac_str(q)

    monkeypatch.setattr(cli, "frac_str", counting_frac_str)
    assert cli._encode(cert) == expected
    # coeff_c5, coeff_k2 and single_hom are each held in three places
    assert len(rendered) == len(set(rendered))
    assert {cert.coeff_c5, cert.coeff_k2, cert.single_hom} <= set(rendered)
