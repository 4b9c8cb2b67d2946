"""Spans and counters recorded from outside the library.

The tracer wraps public functions and methods of ``mfchern`` in place and
restores them afterwards; nothing under ``src/`` is edited.  A function
bound into several modules by ``from .exterior import fm_mul`` is replaced
in every loaded ``mfchern`` module that holds it, so calls through any of
those names are seen.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  Hot methods such as ``Poly.__mul__`` are counted, not spanned, so the
span list stays small.
"""
from __future__ import annotations

import json
import sys
import time

# (module, attribute) of each function traced with a span.  The wrapper is
# installed under every name in mfchern.* that is bound to the same object.
SPANNED = {
    "exterior.fm_mul": ("mfchern.exterior", "fm_mul"),
    "ideals.module_buchberger": ("mfchern.ideals", "module_buchberger"),
    "ideals.form_normal_form": ("mfchern.ideals", "form_normal_form"),
    "mf.tensor": ("mfchern.mf", "tensor"),
    "mf.cone": ("mfchern.mf", "cone"),
    "chern.atiyah": ("mfchern.chern", "atiyah"),
    "chern.chern_character": ("mfchern.chern", "chern_character"),
    "chern.check.strictness": ("mfchern.chern", "phi_strictness_check"),
    "chern.check.additivity": ("mfchern.chern", "cone_additivity_check"),
    "chern.check.multiplicativity": ("mfchern.chern", "tensor_multiplicativity_check"),
    "chern.check.functoriality": ("mfchern.chern", "functoriality_check"),
    "chern.check.tower_oracle": ("mfchern.chern", "phi_tower_oracle"),
    "cli.main": ("mfchern.cli", "main"),
}

# Functions only counted: they run far too often for one span per call.
COUNTED_FUNCS = {
    "exterior.wedge": ("mfchern.exterior", "wedge"),
}

# (class path, method names) of each method traced; the counter name is the
# key.  Methods sharing one counter (__mul__/__rmul__) add into it.
COUNTED_METHODS = {
    "ring.Poly.mul": ("mfchern.ring", "Poly", ("__mul__", "__rmul__")),
    "ring.Poly.add": ("mfchern.ring", "Poly", ("__add__", "__radd__")),
    "ring.Poly.new": ("mfchern.ring", "Poly", ("__init__",)),
    "ring.monomial_key": ("mfchern.ring", "RingCtx", ("monomial_key",)),
    "exterior.Form.new": ("mfchern.exterior", "Form", ("__init__",)),
}

SPANNED_METHODS = {
    "mf.MatFac.validate": ("mfchern.mf", "MatFac", "__post_init__"),
}


class Tracer:
    """Installs the wrappers, records spans and counters, and removes them.

    Use as a context manager.  ``spans`` is a list of
    ``[name, start, end, parent_index, attrs]`` (parent -1 for a root) and
    ``counts`` maps counter names to integers.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def begin(self, name, **attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _span_wrapper(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            self.add(name + ".calls")
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        """Rebind every mfchern module attribute that is ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mfchern" or modname.startswith("mfchern.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_class(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self):
        hooks = {
            "exterior.fm_mul": {"before": self._count_products},
            "chern.atiyah": {"after": self._count_atiyah_nonzero},
            "ideals.module_buchberger": {"after": self._count_generators},
        }
        for name, (modname, attr) in SPANNED.items():
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self._span_wrapper(name, fn, **hooks.get(name, {})))
        for name, (modname, attr) in COUNTED_FUNCS.items():
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self._count_wrapper(name, fn))
        for name, (modname, clsname, attrs) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for attr in attrs:
                self._patch_class(cls, attr, self._count_wrapper(name, cls.__dict__[attr]))
        for name, (modname, clsname, attr) in SPANNED_METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            self._patch_class(cls, attr, self._span_wrapper(name, cls.__dict__[attr]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- structure counters, computed from arguments and results ------------
    def _count_products(self, S, T, *rest):
        """Entry products of S*T, and those whose two factors are nonzero."""
        col_nnz = [0] * S.cols
        for row in S.entries:
            for k, e in enumerate(row):
                if not e.is_zero():
                    col_nnz[k] += 1
        useful = sum(
            col_nnz[k] * sum(1 for e in T.entries[k] if not e.is_zero())
            for k in range(min(S.cols, T.rows))
        )
        self.add("exterior.fm_mul.entry_products", S.rows * S.cols * T.cols)
        self.add("exterior.fm_mul.useful_products", useful)

    def _count_atiyah_nonzero(self, at):
        m = at.matrix
        self.add("chern.atiyah.entries", m.rows * m.cols)
        self.add(
            "chern.atiyah.nonzero",
            sum(1 for row in m.entries for e in row if not e.is_zero()),
        )

    def _count_generators(self, gb):
        self.add("ideals.module_buchberger.generators", len(gb.generators))

    # -- reporting ---------------------------------------------------------
    def total_s(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def outermost_total_s(self, prefix):
        """Time in spans named ``prefix*`` that have no such ancestor."""
        total = 0.0
        for s in self.spans:
            if not s[0].startswith(prefix):
                continue
            p = s[3]
            while p >= 0 and not self.spans[p][0].startswith(prefix):
                p = self.spans[p][3]
            if p < 0:
                total += s[2] - s[1]
        return total

    def self_s(self, name):
        """Span time of ``name`` minus the time covered by its child spans."""
        child_time = {}
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        return sum(
            (s[2] - s[1]) - child_time.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[0] == name
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "attrs"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )
