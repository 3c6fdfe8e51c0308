"""Command line interface: exit codes, output formats, determinism."""

import hashlib
import json

import pytest

from wlpoles.cli import main
from wlpoles.matroids import TransversalMatroid

DIAGRAM = {"n": 6, "props": [[1, 3], [1, 5]]}
CROSSING = {"n": 8, "props": [[1, 3], [2, 4]]}
RAW = {"n": 6, "rows": [[1, 2, 4, 5], [1, 2, 3, 4]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_counts(capsys):
    for k, n, count in ((1, 5, 5), (1, 4, 0), (0, 4, 1)):
        code, out, _ = run(capsys, "enumerate", "-k", str(k), "-n", str(n))
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == count
        assert len(payload["diagrams"]) == count
        assert payload["k"] == k and payload["n"] == n


def test_enumerate_formats(capsys):
    code, out, _ = run(capsys, "enumerate", "-k", "1", "-n", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,k,n,seed,trials,diagram"
    assert len(lines) == 6

    code, out, _ = run(capsys, "enumerate", "-k", "1", "-n", "5",
                       "--format", "text")
    assert code == 0
    assert "count=5" in out
    assert "({(2,4)},[5])" in out


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "-k", "1", "-n", "13")
    assert code == 2
    assert "13" in err


def test_analyze_diagram(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(DIAGRAM))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["admissible"] is True
    assert payload["r_equal"] is True
    assert payload["cell"]["dimension"] == 6
    routes = payload["r"]
    assert set(routes) == {"edge", "necklace", "reverse"}
    assert len(routes["edge"]) == 7


def test_analyze_inadmissible_is_a_finding(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(CROSSING))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"]["admissible"] is False
    assert payload["verdict"]["crossing_violations"] == [[[1, 3], [2, 4]]]
    assert "r" not in payload


def test_analyze_raw_rows(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(RAW))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["r_equal"] is True
    labels = {
        f"{f['kind']}:{f.get('row', '')}:{f.get('col', '')}"
        if f["kind"] == "var" else "quad"
        for f in payload["r"]["necklace"]
    }
    assert "var:1:2" in labels and "quad" in labels


def test_analyze_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "analyze", str(bad))[0] == 2

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 6}))
    assert run(capsys, "analyze", str(empty))[0] == 2

    assert run(capsys, "analyze", str(tmp_path / "missing.json"))[0] == 2


@pytest.mark.parametrize("k", [24, 9])
def test_analyze_rejects_more_rows_than_columns(tmp_path, capsys, k):
    # such a system can never have full rank; it is refused before any
    # 2^k subset table is built
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 8, "rows": [list(range(1, 9))] * k}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "never have full rank" in err


def test_analyze_names_an_unstructured_necklace_minor(tmp_path, capsys):
    # twelve cyclic 3-intervals: the necklace minor on 2..13 does not split
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"n": 16, "rows": [[i, i + 1, i + 2] for i in range(1, 13)]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: necklace entry 2 [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]: its minor"
        " does not split into single entries and edge quadratics\n"
    )


@pytest.mark.parametrize("payload, built", [(RAW, 1), (DIAGRAM, 10)], ids=["rows", "diagram"])
def test_analyze_builds_one_matroid_per_input(tmp_path, capsys, monkeypatch, payload, built):
    """Rows: one matroid for the radicals, the cell and the flats.  A diagram:
    one inside check_r_equalities, one for its cell, flats and covers, and
    one per limit system of its codimension-one factors, all distinct: six
    single entries with one system each and a quadratic with two."""
    count = []
    set_rows = TransversalMatroid._set_rows  # every constructor ends here
    monkeypatch.setattr(
        TransversalMatroid, "_set_rows", lambda self, n, masks: count.append(n) or set_rows(self, n, masks)
    )
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "analyze", str(path))[0] == 0
    assert len(count) == built


def test_analyze_diagram_covers_and_bytes(tmp_path, capsys):
    """Diagram mode lists each cover of the cell with the factors that hit
    it; its bytes are pinned for one (2,7) diagram, as CI pins them."""
    path = tmp_path / "d27.json"
    path.write_text(json.dumps({"n": 7, "props": [[1, 3], [1, 5]]}))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c4bc7d2372804ea298ec63a0eeee9817e0907acce90603796ba0e0178974662"
    )
    covers = json.loads(out)["covers"]
    assert len(covers) == 8
    assert [c["permutation"] for c in covers if not c["factors"]] == [[3, 8, 4, 5, 6, 9, 7]]
    assert sorted(len(c["factors"]) for c in covers) == [0] + [1] * 7
    path.write_text(json.dumps(RAW))
    assert "covers" not in json.loads(run(capsys, "analyze", str(path))[1])


def test_analyze_text_format(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(DIAGRAM))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "text")
    assert code == 0
    assert "admissible" in out


def test_cancel_complete(capsys):
    code, out, _ = run(capsys, "cancel", "-k", "1", "-n", "5",
                       "--seed", "2", "--trials", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "complete"
    assert payload["command"] == "cancel"
    assert payload["seed"] == 2 and payload["trials"] == 2
    assert len(payload["groups"]) == 10


def test_cancel_csv(capsys):
    code, out, _ = run(capsys, "cancel", "-k", "1", "-n", "5",
                       "--trials", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "group,case,kind,size,verified,seed,trials,members"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "cancel", "-k", "1", "-n", "5",
                     "--trials", "2", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["status"] == "complete"


def test_force_lifts_cap(capsys):
    code, _, err = run(capsys, "enumerate", "-k", "1", "-n", "13")
    assert code == 2 and "force" in err.lower()
    code, out, _ = run(capsys, "enumerate", "-k", "1", "-n", "13", "--force")
    assert code == 0
    assert json.loads(out)["count"] == len(json.loads(out)["diagrams"])


@pytest.mark.parametrize("payload", [{"n": 17, "props": [[1, 3]]}, {"n": 17, "rows": [[1, 2, 3, 4]]}])
def test_analyze_names_the_flat_limit(tmp_path, capsys, payload):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert "n=17" in err and "n <= 16" in err
    assert "malformed" not in err


def test_analyze_has_no_force(tmp_path, capsys):
    # analyze's flat limit is not a default cap, so there is nothing for --force to lift
    path = tmp_path / "d.json"
    path.write_text(json.dumps(DIAGRAM))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--force"])
    assert exc.value.code == 2


def test_byte_identical_runs(capsys):
    argv = ["cancel", "-k", "1", "-n", "6", "--seed", "4", "--trials", "2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second

    argv = ["enumerate", "-k", "2", "-n", "6"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_trials_below_one_rejected(capsys):
    for trials in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["cancel", "-k", "1", "-n", "5", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cancel_rejects_shapes_without_diagrams(capsys):
    for k, n in ((2, 5), (1, 4), (3, 6)):
        code, out, err = run(capsys, "cancel", "-k", str(k), "-n", str(n))
        assert code == 2
        assert out == ""
        assert f"(k, n) = ({k}, {n})" in err


def factor_rows(routes, labels):
    return "provenance,factor\n" + "".join(f"{r},{lab}\n" for r in routes for lab in labels)


def test_analyze_csv_diagram(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(DIAGRAM))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == 0
    labels = ["quad:1:2:1:2", "var:1:1", "var:1:3", "var:1:4", "var:2:2", "var:2:5", "var:2:6"]
    assert out == factor_rows(("edge", "necklace", "reverse"), labels)
    code, out, _ = run(capsys, "analyze", str(path), "--format", "text")
    assert f"R[edge]: {' '.join(labels)}\n" in out


def test_analyze_csv_rows(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(RAW))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == 0
    labels = ["quad:1:2:1:2", "var:1:2", "var:1:4", "var:1:5", "var:2:1", "var:2:3", "var:2:4"]
    assert out == factor_rows(("necklace", "reverse"), labels)
