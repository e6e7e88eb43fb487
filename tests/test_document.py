"""Problem document parsing, serialization, and value records."""

import json
import math
from pathlib import Path

import pytest

from twistzeta import ProblemDocument, ValueRecord
from twistzeta._rational import rat
from twistzeta.cyclotomic import CyclotomicField
from twistzeta.document import _float_text, parse_document
from twistzeta.errors import DocumentError, EngineError, TwistIsOne

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

MINIMAL = {
    "nvars": 1,
    "nfactors": 1,
    "twist": {"mode": "exact", "order": 2, "exponents": [1]},
    "Q": [{"coef": "1", "exps": [0]}],
    "Ps": [[{"coef": "1", "exps": [1]}]],
}


def _doc(**overrides):
    raw = {**MINIMAL, **overrides}
    return json.dumps(raw)


def test_minimal_document_parses():
    doc = parse_document(_doc())
    assert doc.nvars == 1 and doc.nfactors == 1
    assert doc.mus.mode == "exact"
    assert doc.Q.is_constant
    assert doc.shift is None and doc.queries is None and doc.max_k is None


def test_round_trip_is_identity():
    doc = parse_document(_doc(shift=[1], queries=[[0], [2]]))
    assert isinstance(doc, ProblemDocument)
    again = parse_document(doc.to_json())
    assert again == doc
    third = parse_document(again.to_json())
    assert third == again


def test_round_trip_on_bundled_documents():
    for path in sorted(PROBLEMS.glob("*.json")):
        doc = parse_document(path.read_text())
        assert parse_document(doc.to_json()) == doc


def test_query_range_round_trips():
    doc = parse_document(_doc(queries={"max": [3]}))
    assert doc.max_k == (3,)
    assert doc.queries is None
    assert parse_document(doc.to_json()) == doc


def test_missing_fields_are_rejected():
    for field in ("nvars", "nfactors", "twist", "Q", "Ps"):
        raw = {k: v for k, v in MINIMAL.items() if k != field}
        with pytest.raises(DocumentError):
            parse_document(json.dumps(raw))


def test_unknown_fields_are_rejected():
    with pytest.raises(DocumentError):
        parse_document(_doc(extra=1))


def test_invalid_json_is_a_document_error():
    with pytest.raises(DocumentError):
        parse_document("{nope")
    with pytest.raises(DocumentError):
        parse_document("[1, 2]")
    with pytest.raises(DocumentError, match="nested too deeply"):
        parse_document("[" * 100_000 + "]" * 100_000)


def test_coefficient_strings_are_validated():
    bad = [{"coef": "1.5", "exps": [1]}]
    with pytest.raises(DocumentError):
        parse_document(_doc(Q=bad))
    with pytest.raises(DocumentError):
        parse_document(_doc(Q=[{"coef": "1/0", "exps": [1]}]))
    with pytest.raises(DocumentError):
        parse_document(_doc(Q=[{"coef": True, "exps": [1]}]))


def test_exponent_lists_are_validated():
    with pytest.raises(DocumentError):
        parse_document(_doc(Q=[{"coef": "1", "exps": [0, 0]}]))
    with pytest.raises(DocumentError):
        parse_document(_doc(Q=[{"coef": "1", "exps": [-1]}]))
    with pytest.raises(DocumentError):
        parse_document(
            _doc(Q=[{"coef": "1", "exps": [1]}, {"coef": "2", "exps": [1]}])
        )


def test_zero_factor_is_rejected():
    with pytest.raises(DocumentError):
        parse_document(_doc(Ps=[[]]))
    with pytest.raises(DocumentError):
        parse_document(_doc(Ps=[[{"coef": "0", "exps": [1]}]]))


def test_unit_twist_is_rejected_as_such():
    with pytest.raises(TwistIsOne):
        parse_document(
            _doc(twist={"mode": "exact", "order": 2, "exponents": [0]})
        )


def test_twist_shape_is_validated():
    with pytest.raises(DocumentError):
        parse_document(_doc(twist={"mode": "exact", "order": 2}))
    with pytest.raises(DocumentError):
        parse_document(_doc(twist={"mode": "elliptic", "order": 2}))
    with pytest.raises(DocumentError):
        parse_document(
            _doc(twist={"mode": "approx", "angles": [1.0], "order": 2})
        )


def test_shift_is_validated():
    with pytest.raises(DocumentError):
        parse_document(_doc(shift=[0]))
    with pytest.raises(DocumentError):
        parse_document(_doc(shift=[1, 1]))
    with pytest.raises(DocumentError):
        parse_document(_doc(shift=[-1]))


def test_queries_are_validated():
    with pytest.raises(DocumentError):
        parse_document(_doc(queries=[[1, 2]]))
    with pytest.raises(DocumentError):
        parse_document(_doc(queries={"max": [1, 2]}))
    with pytest.raises(DocumentError):
        parse_document(_doc(queries={"max": [1], "extra": 2}))
    with pytest.raises(DocumentError):
        parse_document(_doc(queries=[[-1]]))


def test_mode_override():
    doc = parse_document(_doc())
    inst = doc.to_instance()
    assert inst.mus.mode == "exact"
    approx = doc.to_instance("approx")
    assert approx.mus.mode == "approx"
    assert abs(approx.mus.mu(1) + 1) < 1e-12

    adoc = parse_document(
        _doc(twist={"mode": "approx", "angles": [math.pi]})
    )
    assert adoc.to_instance("approx").mus.mode == "approx"
    with pytest.raises(DocumentError):
        adoc.to_instance("exact")


def test_machine_line_format_exact():
    field = CyclotomicField.get(4)
    value = field.root(1) * rat(1, 2) - field.constant(rat(1, 4))
    record = ValueRecord(
        k=(1, 0),
        exact=value,
        approx=value.embed(),
        method=("recurrence", "closed"),
        agree=True,
    )
    line = record.machine_line()
    assert line.startswith("k=1,0 exact=[-1/4,1/2] approx=")
    assert line.endswith("method=recurrence,closed")
    re_text, im_text = line.split("approx=")[1].split()[0].split(",")
    assert abs(float(re_text) + 0.25) < 1e-12
    assert float(im_text) == 0.5


def test_machine_line_format_approx():
    record = ValueRecord(
        k=(2,), exact=None, approx=-0.5 + 0j, method=("recurrence",)
    )
    assert record.machine_line() == (
        "k=2 exact=null approx=-0.5,0.0 method=recurrence"
    )


def test_float_text_normalizes_negative_zero():
    assert _float_text(-0.0) == "0.0"
    assert _float_text(-0.25) == "-0.25"
    with pytest.raises(EngineError):
        _float_text(float("nan"))


def test_pretty_value():
    field = CyclotomicField.get(2)
    rec = ValueRecord(
        k=(0,),
        exact=field.constant(rat(-1, 2)),
        approx=-0.5 + 0j,
        method=("recurrence",),
    )
    assert rec.pretty_value() == "-1/2"
