"""The JSON writer: the bytes of json.dumps(sort_keys=True, indent=2) + "\\n"
on every payload the CLI prints, and TypeError on anything else."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from wlpoles.cancel import amplitude_report, report_json
from wlpoles.cli import main
from wlpoles.jsonout import dumps


def reference(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("k, n, seed", [(2, 6, 0), (2, 7, 0), (2, 7, 1), (2, 7, 2)])
def test_cancel_payloads_match_json_dumps(k, n, seed):
    payload = amplitude_report(k, n, seed=seed, trials=10).to_json()
    payload["command"] = "cancel"
    assert dumps(payload) == reference(payload)


def test_k3_failure_strings_match_json_dumps():
    """(3, 7) is incomplete; its failure strings hold brackets, braces and
    commas (quotes are covered by test_strings_escape_like_json)."""
    rep = amplitude_report(3, 7, seed=0, trials=10)
    assert rep.status == "incomplete"
    assert all(c in rep.failures[0] for c in "[]{},")
    assert report_json(rep) == reference(rep.to_json())


def test_cli_documents_match_json_dumps(tmp_path):
    diagram = tmp_path / "d.json"
    diagram.write_text(json.dumps({"n": 7, "props": [[1, 3], [1, 5]]}))
    out = tmp_path / "a.json"
    assert main(["analyze", str(diagram), "--out", str(out)]) == 0
    text = out.read_text()
    assert json.loads(text)["command"] == "analyze"
    assert text == reference(json.loads(text))
    out = tmp_path / "c.json"
    assert main(["cancel", "-k", "1", "-n", "6", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == reference(json.loads(text))


def test_strings_escape_like_json():
    for s in ('a "quoted" \\ path', "tab\there\nnewline", "\x00\x1f\x7f", "Wilson–loop ∮ 😀", ""):
        assert dumps({s: [s]}) == reference({s: [s]})


payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_writer_matches_json_dumps_on_random_payloads(x):
    assert dumps(x) == reference(x)


@pytest.mark.parametrize(
    "bad",
    [1.5, (1, 2), {1, 2}, {1: "a"}, {"a": [0, 2.0]}, [{"ok": None}, {("t",): 1}], b"bytes"],
)
def test_writer_rejects_what_a_payload_never_holds(bad):
    with pytest.raises(TypeError):
        dumps(bad)
