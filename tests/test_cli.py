import csv
import hashlib
import io
import json
import tracemalloc

import pytest

from heckeiso.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_faces_gl3_row_count(capsys):
    code, out, _ = run(capsys, "faces", "--factors", "3", "--q", "3", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["id", "nodes", "size", "closure_ids"]
    assert len(rows) - 1 == 7


def test_faces_gl2x2_csv(capsys):
    code, out, _ = run(capsys, "faces", "--factors", "2,2", "--q", "3", "--format", "csv")
    assert code == 0
    assert len(csv_rows(out)) - 1 == 9


def test_invalid_q_is_domain_error(capsys):
    code, out, err = run(capsys, "faces", "--factors", "3", "--q", "6")
    assert code == 2
    assert not out
    assert "prime power" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["faces", "--q", "3"])  # missing --factors
    assert exc.value.code == 1


def test_chars_json_schema(capsys):
    code, out, _ = run(capsys, "chars", "--factors", "2", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["columns"][0] == "exponents"
    assert payload["rows"]


def test_classify_exceptional_pair(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(
        json.dumps(
            {
                "chi": {"exponents": [[0, 0, 0]], "torus_exponents": [], "J": ["s1_0", "s1_1"]},
                "lambda": [1],
                "nu": [],
                "field": {"p": 3, "m": 1},
            }
        )
    )
    b.write_text(
        json.dumps(
            {
                "chi": {"exponents": [[0, 0, 0]], "torus_exponents": [], "J": ["s1_1"]},
                "lambda": [1],
                "nu": [],
                "field": {"p": 3, "m": 1},
            }
        )
    )
    code, out, _ = run(
        capsys, "classify", "--factors", "3", "--q", "3", "--format", "json", str(a), str(b)
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row[0] == "False" and row[1] == "True"
    # Identical inputs are isomorphic both ways.
    code, out, _ = run(
        capsys, "classify", "--factors", "3", "--q", "3", "--format", "json", str(a), str(a)
    )
    assert json.loads(out)["rows"][0][:2] == ["True", "True"]


def test_classify_finite_pd_is_domain_error(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(
        json.dumps(
            {
                "chi": {"exponents": [[0, 0]], "torus_exponents": [], "J": ["s1_0"]},
                "lambda": [1],
                "nu": [],
                "field": {"p": 3, "m": 1},
            }
        )
    )
    code, _, err = run(
        capsys, "classify", "--factors", "2", "--q", "3", str(a), str(a)
    )
    assert code == 2
    assert "projective dimension" in err


def test_sweep_gl2_columns_agree(capsys):
    code, out, _ = run(capsys, "sweep", "--factors", "2", "--q", "3", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["id_a", "id_b", "mod_iso", "ho_iso", "witness"]
    for row in rows[1:]:
        assert row[2] == row[3]


def test_oracle_check_gl3_all_agree(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--factors", "3", "--q", "3", "--format", "csv"
    )
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["instance", "predicate_value", "oracle_value", "agree"]
    assert all(row[3] == "True" for row in rows[1:])


@pytest.mark.parametrize(
    "factors,torus_rank,degree,cap,rows",
    [
        # The cap cuts the projectivity instances.
        ("3,2", "0", "1", "200", 200),
        # All 60 projectivity instances fit; the enumeration of 768
        # candidates over GF(9) exceeds the cap.
        ("2", "1", "2", "100", 60),
    ],
)
def test_oracle_check_cap_gives_partial_report(capsys, factors, torus_rank, degree, cap, rows):
    code, out, err = run(
        capsys, "oracle-check", "--factors", factors, "--torus-rank", torus_rank, "--q", "3",
        "--field-degree", degree, "--cap", cap, "--format", "csv",
    )
    assert code == 0
    assert "cap exceeded, report is partial" in err
    body = csv_rows(out)[1:]
    assert len(body) == rows
    assert all(row[3] == "True" for row in body)


_PARTIAL = "warning: cap exceeded, report is partial\n"


@pytest.mark.parametrize(
    "argv,digest,stderr",
    [
        (
            "--factors 3 --q 3",
            "9b78ab63c136c0e8033fc01e3784d970b6b932e888b6bfaad78c278f5f406742",
            "",
        ),
        (
            "--factors 2 --q 3",
            "46206d28898c5b20dedcfc28cb4aaa23ea077b67917ede568b31babe41b5854a",
            "",
        ),
        (
            "--factors 2 --torus-rank 1 --q 3",
            "e99c0405ac1eaf472af4dfd307d09c52ee7dd616c820f7879861950730db11b1",
            "",
        ),
        (
            "--factors 2,2 --q 3",
            "4f7a86baf29a2502d10cff50599b001e9c76711cde2e1c98ee5372e3acd22057",
            "",
        ),
        (
            "--factors 2 --q 5",
            "96ebf3beefbf160d6f020fb1a13dfd188a5c7b984a256353d43c4a5ec2a8bcd7",
            "",
        ),
        # Partial reports that reach the blocks of dimension 36 and 72.
        (
            "--factors 3,2 --q 3 --cap 3000",
            "96f6dff8f35602ee5139289af464bf81fa69abcda1b242ba3afb4c4b62789260",
            _PARTIAL,
        ),
        (
            "--factors 3 --q 5 --cap 3000",
            "5c17d63c6efc8352ce12699bcb6087f4bc19ca3454aa5b0a8d78536f150e6db6",
            _PARTIAL,
        ),
    ],
    ids=["GL3/3", "GL2/3", "GL2xT/3", "GL2xGL2/3", "GL2/5", "GL3xGL2/3-partial", "GL3/5-partial"],
)
def test_oracle_check_output_is_locked(capsys, argv, digest, stderr):
    """The oracle's full report, pinned by the SHA-256 of stdout: a change to
    the oracle's kernels must leave every row and its formatting as it was."""
    code, out, err = run(capsys, "oracle-check", *argv.split())
    assert code == 0
    assert err == stderr
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_byte_identical_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run(
            capsys,
            "sweep", "--factors", "3", "--q", "3", "--format", "csv", "--out", str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_out_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "faces.json"
    code, out, _ = run(
        capsys, "faces", "--factors", "3", "--q", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == 1


def test_cap_exceeded_is_domain_error(capsys):
    code, _, err = run(capsys, "chars", "--factors", "4", "--q", "5", "--cap", "10")
    assert code == 2
    assert "cap" in err


def _module(**overrides):
    obj = {
        "chi": {"exponents": [[0, 0, 0]], "torus_exponents": [0], "J": ["s1_0", "s1_1"]},
        "lambda": [1],
        "nu": [1],
        "field": {"p": 3, "m": 1},
    }
    for key, value in overrides.items():
        if key in ("exponents", "torus_exponents", "J"):
            obj["chi"][key] = value
        elif key in ("p", "m"):
            obj["field"][key] = value
        else:
            obj[key] = value
    return obj


_NON_INTEGER = [
    {"lambda": [True]},
    {"lambda": [1.9]},
    {"lambda": ["1"]},
    {"nu": [True]},
    {"nu": [1.0]},
    {"nu": ["1"]},
    {"exponents": [["0", 0, 0]]},
    {"exponents": [[0, 0.0, 0]]},
    {"exponents": [[0, 0, False]]},
    {"exponents": "000"},
    {"torus_exponents": ["0"]},
    {"p": "3"},
    {"p": 3.0},
    {"m": True},
    {"m": 1.5},
]

# Malformed structure: a dict overrides fields of a good module, a list is
# the whole file.
_MALFORMED = [
    ({"J": [5]}, "node name"),
    ({"J": 5}, "J must be a list"),
    ({"field": [3]}, "field must be a JSON object"),
    ({"chi": [1]}, "chi must be a JSON object"),
    ([1, 2], "module must be a JSON object"),
    ({"field": {}}, "field is missing the key 'p'"),
    ({"chi": {"J": []}}, "chi is missing the key 'exponents'"),
    ({"chi": {"exponents": [[0, 0, 0]]}}, "chi is missing the key 'J'"),
    # Refused before trial division of p or any power p^m.
    ({"p": 2**61 - 1}, "exceeds cap 1024"),
    ({"m": 10**7}, "exceeds cap 1024"),
    ({"m": 10**8}, "exceeds cap 1024"),
]


@pytest.mark.parametrize(
    "overrides,message",
    [pytest.param(o, "integer", id=repr(o)) for o in _NON_INTEGER]
    + [pytest.param(o, msg, id=repr(o)) for o, msg in _MALFORMED],
)
def test_classify_rejects_non_integer_json_fields(tmp_path, capsys, overrides, message):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    good.write_text(json.dumps(_module()))
    bad.write_text(json.dumps(_module(**overrides) if isinstance(overrides, dict) else overrides))
    argv = ["classify", "--factors", "3", "--torus-rank", "1", "--q", "3"]
    code, out, _ = run(capsys, *argv, str(good), str(good))
    assert code == 0
    code, out, err = run(capsys, *argv, str(bad), str(good))
    assert code == 2
    assert not out
    assert message in err


def test_oracle_check_refuses_an_oversized_algebra_before_listing_the_torus(capsys):
    # (4,4)/q=7: H_F of the first face has dimension 6^8 |W_F| > 4096, and
    # T(F_q) alone has 6^8 = 1,679,616 elements.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "oracle-check", "--factors", "4,4", "--q", "7", "--cap", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceeds cap 4096" in err
    assert peak < 5_000_000

