import csv
import json

import pytest

from diskflow import cli
from diskflow.cli import main
from diskflow.errors import InversionFailureError


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_catalog_list(tmp_path):
    out = tmp_path / "ids.json"
    assert main(["catalog", "list", "--json", str(out)]) == 0
    assert "quadrant" in _load(out)["ids"]


def test_catalog_show(tmp_path):
    out = tmp_path / "entry.json"
    assert main(["catalog", "show", "bfid-par", "--json", str(out)]) == 0
    report = _load(out)
    assert report["id"] == "bfid-par"
    assert report["truth"]["bfid_counts"] == {"p": 2, "h": 1}


def test_catalog_unknown_id_exits_2():
    assert main(["catalog", "show", "nonsense"]) == 2


def test_validate_verb(tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "--f", "i*(1-z)^2", "--json", str(out)]) == 0
    assert _load(out)["is_generator"] is True


def test_classify_quadrant(tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify", "--catalog", "quadrant", "--json", str(out)]) == 0
    report = _load(out)
    assert abs(report["alpha"] - 0.5) < 0.01
    assert report["regime"] == "tangential"


def test_trace_matches_group_closed_form(tmp_path):
    out_csv = tmp_path / "out.csv"
    code = main([
        "trace", "--f", "-(1-z)^2*i", "--z0", "0", "--t", "10",
        "--csv", str(out_csv), "--json", str(tmp_path / "t.json"),
    ])
    assert code == 0
    with open(out_csv, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "re", "im", "horocycle", "gap"]
    end = complex(float(rows[-1][1]), float(rows[-1][2]))
    # the group with generator ib(1-z)^2, b = -1: (ibz + t(1-z))/(ib + t(1-z))
    b, t, z = -1.0, 10.0, 0j
    ref = (1j * b * z + t * (1 - z)) / (1j * b + t * (1 - z))
    assert abs(end - ref) < 1e-9


@pytest.mark.parametrize("flags, code", [
    (["--t", "nan"], "error"),
    (["--z0", "nan,0"], "not-in-disk"),
])
def test_trace_nan_input_exits_3(flags, code, capsys):
    # a NaN horizon or start point is reported, not traced
    assert main(["trace", "--f", "i*(1-z)^2", *flags]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == code


def test_trace_svg_artifact(tmp_path):
    svg = tmp_path / "p.svg"
    code = main([
        "trace", "--catalog", "parabolic-auto(1)", "--t", "5",
        "--svg", str(svg), "--json", str(tmp_path / "t.json"),
    ])
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_parse_error_exits_2():
    assert main(["classify", "--f", "1+*z"]) == 2


def test_missing_source_exits_2():
    assert main(["classify"]) == 2


def test_numeric_failure_exits_3(capsys, monkeypatch):
    code = main(["conjugate", "--catalog", "no-halfplane"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["error", "code", "message", "context"]
    assert report["error"] == "NotContainedError"
    assert report["code"] == "not-contained"
    assert report["context"] == {"witness": None}

    def fail(model, b):
        raise InversionFailureError("planted", last_iterate=0.5j, target=1 - 2j)

    monkeypatch.setattr(cli, "outer_conjugator", fail)
    assert main(["conjugate", "--catalog", "parabolic-auto(1)"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "inversion-failure"
    assert report["message"] == "planted"
    assert report["context"] == {
        "last_iterate": {"re": 0.0, "im": 0.5},
        "target": {"re": 1.0, "im": -2.0},
    }


def test_conjugate_verb(tmp_path):
    out = tmp_path / "conj.json"
    assert main(["conjugate", "--catalog", "parabolic-auto(1)", "--json", str(out)]) == 0
    report = _load(out)
    assert report["residual_sup"] < 1e-9
    assert report["group"]["a"] == 0


def test_bfid_verb(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bfid", "--f", "i*(1-z)^2", "--json", str(out)]) == 0
    report = _load(out)
    assert report["count"] == 1
    assert report["certificates"][0]["bfid_type"] == "p-type"


def test_linearize_verb(tmp_path):
    out = tmp_path / "l.json"
    assert main(["linearize", "--catalog", "hyperbolic-auto(0.5,0)", "--json", str(out)]) == 0
    report = _load(out)
    assert abs(report["strip_width"] - 3.14159) < 0.01


@pytest.mark.parametrize("argv", [
    ["linearize", "--catalog", "parabolic-auto(1)", "--svg", "x.svg", "--tol", "5"],
    ["validate", "--f", "i*(1-z)^2", "--horizon", "5"],
    ["conjugate", "--catalog", "parabolic-auto(1)", "--seed-grid", "3"],
    ["classify", "--catalog", "parabolic-auto(1)", "--csv", "x.csv"],
    ["bfid", "--catalog", "parabolic-auto(1)", "--tol", "5"],
])
def test_unread_flag_exits_2(argv, tmp_path, monkeypatch):
    # every subcommand declares only the flags it reads
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())
