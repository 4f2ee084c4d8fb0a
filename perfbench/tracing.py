"""
In-memory span tracing of the program's public functions, installed from
outside the program by replacing module and class attributes.

Every span records its name, start, end and parent span; the spans stay in
flat arrays until ``write`` saves them.  Self time is a span's duration
minus the durations of its direct children (calls are strictly nested in a
single thread, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

# (span name, layer module, class or None, attribute).  Module-level
# functions are replaced in every heckeiso module that imported them, so
# calls between layers are caught; methods are replaced on their class.
WRAPS = [
    ("ff.rref", "ff", None, "rref"),
    ("ff.matmul", "ff", "FFMatrix", "__matmul__"),
    ("ff.kron", "ff", "FFMatrix", "kron"),
    ("ff.fieldctx.build", "ff", "FieldCtx", "__init__"),
    ("weyl.faces", "weyl", None, "faces"),
    ("weyl.affine_dynkin", "weyl", "AffineDynkin", "__init__"),
    ("weyl.coxeter_group.build", "weyl", "CoxeterGroup", "__init__"),
    ("zerohecke.hom_space", "zerohecke", None, "hom_space"),
    ("zerohecke.is_projective", "zerohecke", None, "is_projective"),
    ("zerohecke.stable_hom_dim", "zerohecke", None, "stable_hom_dim"),
    ("haff.conj_char", "haff", None, "conj_char"),
    ("haff.stabilizer", "haff", None, "stabilizer"),
    ("haff.s_xi", "haff", None, "s_xi"),
    ("haff.is_supersingular", "haff", None, "is_supersingular"),
    ("gln.from_json", "gln", "SimpleSS", "from_json"),
    ("gln.mod_iso_witness", "gln", None, "mod_iso_witness"),
    ("gln.ho_iso_witness", "gln", None, "ho_iso_witness"),
    ("gln.enumerate_simples", "gln", None, "enumerate_simples"),
    ("oracle.build_face_algebra", "oracle", None, "build_face_algebra"),
    ("oracle.face_alg.build", "oracle", "BruteFaceAlg", "__init__"),
    ("oracle.brute_res_projective", "oracle", None, "brute_res_projective"),
    ("oracle.brute_mod_isomorphic", "oracle", None, "brute_mod_isomorphic"),
    ("oracle.brute_module_model", "oracle", None, "brute_module_model"),
    ("oracle.brute_stable_hom", "oracle", None, "brute_stable_hom"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.rref_cells = 0
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def install(self, hk):
        """Replace every WRAPS target of the imported package hk."""
        modules = [
            m for k, m in sys.modules.items() if k == "heckeiso" or k.startswith("heckeiso.")
        ]
        for name, layer, cls_name, attr in WRAPS:
            layer_mod = getattr(hk, layer)
            if cls_name is not None:
                cls = getattr(layer_mod, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self.span(name, orig.__func__))
                else:
                    wrapped = self.span(name, orig)
                self._patch(cls, attr, orig, wrapped)
                continue
            orig = getattr(layer_mod, attr)
            wrapped = self.span(name, self._count_cells(orig) if name == "ff.rref" else orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, orig, wrapped)

    def _count_cells(self, rref):
        def counted(M, *args, **kwargs):
            self.rref_cells += M.rows * M.cols
            return rref(M, *args, **kwargs)

        return functools.wraps(rref)(counted)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        import numpy as np

        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path):
        """Save every span as arrays name_id, parent, start, end plus names."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
