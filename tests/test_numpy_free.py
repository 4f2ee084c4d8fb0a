"""
Parsing, both isomorphism decisions, enumeration and ``heckeiso classify`` do
no linear algebra, so they run in an interpreter where numpy cannot be
imported; the field tables are built on their first read.  Each check runs
in a fresh interpreter, so no earlier import or table build carries over.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import heckeiso
from heckeiso import cli, ff, gln, weyl

a_path, b_path = sys.argv[1:]
spec = weyl.build_spec([3], 0, 3)
with open(a_path) as fa, open(b_path) as fb:
    a = gln.SimpleSS.from_json(spec, json.load(fa))
    b = gln.SimpleSS.from_json(spec, json.load(fb))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["classify", "--factors", "3", "--q", "3", "--format", "json", a_path, b_path])
try:
    ff.np.zeros(1)
    linear_algebra = "ran"
except ImportError:
    linear_algebra = "ImportError"
print(json.dumps({
    "mod_aa": gln.mod_iso_witness(a, a),
    "mod_ab": gln.mod_iso_witness(a, b),
    "ho_ab": gln.ho_iso_witness(a, b),
    "classes": len(gln.enumerate_simples(spec, ff.field(3))),
    "classify": [code, json.loads(out.getvalue())["rows"][0][:2]],
    "linear_algebra": linear_algebra,
}))
"""

TABLES = """
import hashlib, json, sys
import heckeiso
from heckeiso import ff

names = ("place", "exp", "log", "add", "mul", "neg", "inv")
orders = [(p, m) for p in range(2, 82) if ff._is_prime(p) for m in range(1, 7) if p**m <= 81]
numpy_before = "numpy" in sys.modules
built_early, writable = [], []
h = hashlib.sha256()
for k, (p, m) in enumerate(orders):
    f = ff.field(p, m)
    built_early += [(p, m)] if set(names) & set(vars(f)) else []
    getattr(f, names[k % len(names)])  # the first read builds every table
    for name in names:
        t = vars(f)[name]
        writable += [(p, m, name)] if t.flags.writeable else []
        h.update(f"{p},{m},{name},{t.dtype.str},{t.shape}".encode())
        h.update(t.tobytes())
print(json.dumps({
    "fields": len(orders),
    "numpy_before": numpy_before,
    "built_early": built_early,
    "writable": writable,
    "digest": h.hexdigest(),
}))
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def module_json(J):
    return {
        "chi": {"exponents": [[0, 0, 0]], "torus_exponents": [], "J": J},
        "lambda": [1],
        "nu": [],
        "field": {"p": 3, "m": 1},
    }


def test_decisions_enumeration_and_classify_run_without_numpy(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(module_json(["s1_0", "s1_1"])))
    b.write_text(json.dumps(module_json(["s1_1"])))
    got = run_fresh(BLOCKED, str(a), str(b))
    assert got["mod_aa"] == [0]
    assert got["mod_ab"] is None
    assert got["ho_ab"][0] is True and got["ho_ab"][1].startswith("exceptional")
    assert got["classes"] == 16
    assert got["classify"] == [0, ["False", "True"]]
    assert got["linear_algebra"] == "ImportError"


def test_field_tables_are_built_on_first_read_unchanged_and_read_only():
    """The digest is that of the tables when the constructor built them."""
    got = run_fresh(TABLES)
    assert got["fields"] == 32
    assert got["numpy_before"] is False
    assert got["built_early"] == []
    assert got["writable"] == []
    assert got["digest"] == "4f45cf1a81ba427d50e95e19fc2672f29325739d11aa37f608863f457b1ba23d"
