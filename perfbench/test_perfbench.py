"""
Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    CONFIG,
    WORKLOADS,
    Shape,
    candidates,
    canonical_key,
    face_subsets,
    program_module,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def hk():
    return run.import_program()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = WORKLOADS[name]()
    a = [wl.make_round(random.Random(7)) for _ in range(2)]
    assert a[0] == a[1]
    if name != "enumerate":
        assert wl.make_round(random.Random(8)) != a[0]


def _program_args(hk, shape):
    spec = hk.weyl.build_spec(shape.factors, shape.torus_rank, shape.q)
    return spec, hk.ff.FieldCtx(shape.p, shape.field_degree)


def test_generated_modules_pass_build_simple(hk):
    decide, oracle = WORKLOADS["decide"](), WORKLOADS["oracle"]()
    rng = random.Random(3)
    checked = 0
    for wl, ops in ((decide, decide.make_round(rng) + decide.make_round(rng)),
                    (oracle, oracle.make_round(rng))):
        for op in ops:
            if op.kind in ("rotation", "other_lambda", "exceptional", "random", "mod_iso"):
                for m in op.args[-2:]:
                    program_module(hk, *_program_args(hk, wl.shapes[op.shape]), m)
                    checked += 1
    oracle_pairs = sum(sum(e["mod_iso"].values()) for e in CONFIG["oracle"]["round"])
    assert checked == 2 * (2 * CONFIG["decide"]["ops_per_round"] + oracle_pairs)


def test_labels_agree_with_brute_oracle(hk):
    wl = WORKLOADS["decide"]()
    ops = [op for op in wl.make_round(random.Random(11)) if op.shape < 6]  # prime q shapes
    kinds = set()
    for op in ops[:24]:
        spec, field = _program_args(hk, wl.shapes[op.shape])
        a, b = (program_module(hk, spec, field, m) for m in op.args[2:])
        assert hk.oracle.brute_mod_isomorphic(a, b) == op.expected["mod"], op.kind
        kinds.add(op.kind)
    assert kinds == {"rotation", "other_lambda", "exceptional", "random"}


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.LAYER_UNITS
    for name in [*e2e, *layer, *(w["name"] for w in BENCH["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_recorded_round_facts():
    decide = CONFIG["decide"]
    kinds = {}
    for entry in decide["round"]:
        for k, n in entry["kinds"].items():
            kinds[k] = kinds.get(k, 0) + n
    total = sum(kinds.values())
    assert total == decide["ops_per_round"]
    assert {k: n / total for k, n in kinds.items()} == decide["pair_kind_shares"]
    shapes = [Shape.from_config(e) for e in decide["round"]]
    prime_power = sum(
        sum(e["kinds"].values()) for e, s in zip(decide["round"], shapes) if s.q != s.p
    )
    assert prime_power / total == decide["prime_power_share"]
    assert all(s.q == s.p for s in shapes[:6]) and all(s.q != s.p for s in shapes[6:])
    oracle = WORKLOADS["oracle"]()
    assert len(oracle.make_round(random.Random(0))) == CONFIG["oracle"]["ops_per_round"]
    for cfg in (decide, CONFIG["enumerate"], CONFIG["oracle"]):
        # The tail percentile leaves at least ten samples beyond it.
        assert cfg["tail_min_ops"] == math.ceil(10 / (1 - cfg["tail_percentile"] / 100))


def test_recorded_candidate_and_class_counts():
    """Counts from the independent model: every supersingular candidate,
    grouped by its rotation orbit with equal scalars."""
    cfg = CONFIG["enumerate"]
    for entry in cfg["round"]:
        shape = Shape.from_config(entry)
        keys = [canonical_key(shape, m) for m in candidates(shape)]
        assert len(keys) == cfg["candidates"][shape.label]
        assert len(keys) in WORKLOADS["enumerate"]().candidates
        assert len(set(keys)) == cfg["classes"][shape.label]


def test_recorded_face_algebra_dims(hk):
    """|T(F_q)| times |W_F|, where a face's nodes on each cycle split into
    paths and a path of k nodes has Weyl group S_{k+1}."""
    for entry in CONFIG["oracle"]["round"]:
        shape = Shape.from_config(entry)
        key = f"{','.join(map(str, shape.factors))}/t{shape.torus_rank}/q{shape.q}"
        torus = (shape.q - 1) ** (sum(shape.factors) + shape.torus_rank)
        model = [
            torus * math.prod(_weyl_order(face, i, n) for i, n in enumerate(shape.factors, 1))
            for face in face_subsets(shape)
        ]
        spec = hk.weyl.build_spec(shape.factors, shape.torus_rank, shape.q)
        field = hk.ff.FieldCtx(shape.q)
        program = [hk.oracle.build_face_algebra(spec, f, field).dim for f in hk.weyl.faces(spec)]
        assert CONFIG["oracle"]["face_algebra_dims"][key] == model == program


def _weyl_order(face, i, n):
    # Walk the cycle from a node outside the face, so no path wraps around.
    start = next(j for j in range(n) if (i, j) not in face)
    order, length = 1, 0
    for step in range(1, n + 1):
        if (i, (start + step) % n) in face:
            length += 1
        else:
            order *= math.factorial(length + 1)
            length = 0
    return order


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_passes_the_gate(name):
    result = _run("--workload", name, "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    result = _run("--workload", "oracle", "--seed", "2", "--trace", "1")
    assert result["correct"]
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["ff.rref.calls"] > 0 and m["ff.rref.cells"] > 0
    assert m["oracle.face_alg.max_dim"] == 384
    assert 0 < m["oracle.face_alg.hit_ratio"] < 1


def test_fails_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "tracing.py", "workloads.py", "workloads.json"):
        (bench / f).write_text((HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_percentile_is_nearest_rank():
    values = [(v, 1) for v in range(1000, 0, -1)]
    assert run.percentile(values, 99) == 990
    assert run.percentile(values, 100) == 1000
    assert run.percentile(values, 50) == 500
    # A sample of weight w counts as w equal values.
    assert run.percentile([(1.0, 3), (2.0, 1)], 50) == 1.0
    assert run.percentile([(1.0, 1), (2.0, 3)], 50) == 2.0
