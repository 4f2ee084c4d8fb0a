"""
Command-line front end: enumerate faces and characters, decide isomorphisms,
run oracle sweeps, and emit machine-readable tables.

Output is fully deterministic (no randomness, no locale-dependent
formatting); JSON payloads carry a "schema": 1 field and CSV headers are
fixed, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 oracle disagreement.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from . import ff
from .ff import FieldCtx
from .gln import (
    CapExceeded,
    SimpleSS,
    enumerate_simples,
    ho_iso_witness,
    mod_isomorphic,
    mod_iso_witness,
)
from .haff import has_finite_pd, is_supersingular, iter_chars, res_face_projective
from .oracle import brute_mod_isomorphic, brute_res_projective
from .weyl import GroupSpec, build_spec, closure_leq, faces, node_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_DISAGREE = 3

DEFAULT_CAP = 20000


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="heckeiso", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--factors", required=True, help="comma-separated GL ranks, e.g. 3,2")
        p.add_argument("--torus-rank", type=int, default=0)
        p.add_argument("--q", type=int, required=True, help="residue field size (prime power)")
        p.add_argument("--field-degree", type=int, default=1,
                       help="degree of the coefficient field over its prime field")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("faces", help="enumerate faces with closure relations")
    add_common(p)

    p = sub.add_parser("chars", help="enumerate characters of the affine subalgebra")
    add_common(p)

    p = sub.add_parser("classify", help="decide both isomorphisms for a pair of modules")
    add_common(p)
    p.add_argument("module_a", help="JSON file describing the first module")
    p.add_argument("module_b", help="JSON file describing the second module")

    p = sub.add_parser("sweep", help="pairwise isomorphism table over all simple modules")
    add_common(p)

    p = sub.add_parser("oracle-check", help="compare the predicates against the brute oracle")
    add_common(p)

    return parser


def _spec_from_args(args) -> GroupSpec:
    try:
        factors = [int(x) for x in str(args.factors).split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --factors value: {args.factors}") from exc
    return build_spec(factors, args.torus_rank, args.q)


def _field_from_args(spec: GroupSpec, args) -> FieldCtx:
    return ff.field(spec.p, args.field_degree)


def _emit(args, payload: dict, headers: list[str], rows: list[list]) -> None:
    """Render one table as json/csv/text and write it to --out or stdout."""
    if args.format == "json":
        body = dict(payload)
        body["schema"] = 1
        body["columns"] = headers
        body["rows"] = rows
        text = json.dumps(body, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        lines = []
        for key, val in payload.items():
            lines.append(f"# {key}: {val}")
        lines.append("\t".join(headers))
        for row in rows:
            lines.append("\t".join(str(x) for x in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _nodes_str(nodes) -> str:
    return ";".join(node_name(s) for s in sorted(nodes)) or "-"


def cmd_faces(args) -> int:
    spec = _spec_from_args(args)
    all_faces = faces(spec)
    rows = []
    for fid, F in enumerate(all_faces):
        below = [str(gid) for gid, G in enumerate(all_faces) if closure_leq(G, F)]
        rows.append([fid, _nodes_str(F.subset), len(F.subset), ";".join(below)])
    _emit(
        args,
        {"spec": json.dumps(spec.to_json(), sort_keys=True)},
        ["id", "nodes", "size", "closure_ids"],
        rows,
    )
    return EXIT_OK


def cmd_chars(args) -> int:
    spec = _spec_from_args(args)
    rows = []
    for chi in iter_chars(spec):
        if len(rows) >= args.cap:
            raise ValueError(f"character enumeration exceeds cap {args.cap}")
        ss = is_supersingular(spec, chi)
        fpd = str(has_finite_pd(spec, chi)) if ss else ""
        flat = ",".join(str(a) for a in chi.xi.coordinate_exponents())
        rows.append([flat, _nodes_str(chi.J), _nodes_str(chi.xi.sxi), str(ss), fpd])
    _emit(
        args,
        {"spec": json.dumps(spec.to_json(), sort_keys=True)},
        ["exponents", "J", "S_xi", "supersingular", "finite_pd"],
        rows,
    )
    return EXIT_OK


def _load_module(spec: GroupSpec, path: str) -> SimpleSS:
    with open(path) as fh:
        obj = json.load(fh)
    return SimpleSS.from_json(spec, obj)


def cmd_classify(args) -> int:
    spec = _spec_from_args(args)
    a = _load_module(spec, args.module_a)
    b = _load_module(spec, args.module_b)
    mod_iso = mod_isomorphic(a, b)
    ho_iso, witness = ho_iso_witness(a, b)
    rows = [[str(mod_iso), str(ho_iso), witness]]
    _emit(
        args,
        {"spec": json.dumps(spec.to_json(), sort_keys=True)},
        ["mod_iso", "ho_iso", "witness"],
        rows,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    field = _field_from_args(spec, args)
    simples = [
        m
        for m in enumerate_simples(spec, field, cap=args.cap)
        if not has_finite_pd(spec, m.chi)
    ]
    rows = []
    for ia, ib in itertools.combinations_with_replacement(range(len(simples)), 2):
        a, b = simples[ia], simples[ib]
        mod_iso = mod_iso_witness(a, b) is not None
        ho_iso, witness = ho_iso_witness(a, b)
        rows.append([ia, ib, str(mod_iso), str(ho_iso), witness])
    _emit(
        args,
        {
            "spec": json.dumps(spec.to_json(), sort_keys=True),
            "field": f"GF({field.order})",
            "modules": len(simples),
        },
        ["id_a", "id_b", "mod_iso", "ho_iso", "witness"],
        rows,
    )
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    spec = _spec_from_args(args)
    field = _field_from_args(spec, args)
    rows = []
    disagree = 0

    # Projectivity of face restrictions: combinatorial predicate vs the
    # vanishing of stable End in the parahoric algebra model.
    all_faces = faces(spec)
    instances = ((chi, F) for chi in iter_chars(spec) for F in all_faces)
    for chi, F in itertools.islice(instances, args.cap):
        pred = res_face_projective(spec, chi, F)
        orac = brute_res_projective(spec, chi, F, field)
        agree = pred == orac
        disagree += 0 if agree else 1
        label = f"proj[{_nodes_str(F.subset)}|{_nodes_str(chi.J)}|{','.join(map(str, chi.xi.coordinate_exponents()))}]"
        rows.append([label, str(pred), str(orac), str(agree)])
    truncated = next(instances, None) is not None

    # Module-category isomorphism: rotation/scalar matching vs an explicit
    # intertwiner search between the brute module models.  The cap also
    # bounds the candidates the enumeration examines.
    if not truncated:
        try:
            simples = enumerate_simples(spec, field, cap=args.cap)
        except CapExceeded:
            simples = []
            truncated = True
        pairs = itertools.combinations_with_replacement(range(len(simples)), 2)
        for ia, ib in itertools.islice(pairs, args.cap - len(rows)):
            pred = mod_isomorphic(simples[ia], simples[ib])
            orac = brute_mod_isomorphic(simples[ia], simples[ib])
            agree = pred == orac
            disagree += 0 if agree else 1
            rows.append([f"modiso[{ia},{ib}]", str(pred), str(orac), str(agree)])
        truncated = truncated or next(pairs, None) is not None

    if truncated:
        sys.stderr.write("warning: cap exceeded, report is partial\n")
    _emit(
        args,
        {
            "spec": json.dumps(spec.to_json(), sort_keys=True),
            "field": f"GF({field.order})",
            "disagreements": disagree,
        },
        ["instance", "predicate_value", "oracle_value", "agree"],
        rows,
    )
    return EXIT_OK if disagree == 0 else EXIT_DISAGREE


_COMMANDS = {
    "faces": cmd_faces,
    "chars": cmd_chars,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
