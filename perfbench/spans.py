"""Span tracing of opentropy's layers, installed from outside the package.

``Tracer.install`` replaces each hooked function at every place its object
is bound inside the ``opentropy`` package (``sym_eig`` is bound in
``matcore``, ``perspective``, ``bounds`` and ``gen``, for example) and
patches hooked methods on their classes.  Each call then records a span
``(name, start, end, parent, call, trial)`` in memory; ``per_layer``
turns the spans into per-trial metrics.  A hook whose target no longer
exists makes the metrics built on it *missing* (``None``), never zero.
"""

from __future__ import annotations

import contextlib
import os
import sys
from time import perf_counter

# (span name, module, attribute path); several hooks may share a span name
HOOKS = (
    ("matcore.jacobi", "opentropy.matcore", "jacobi_real"),
    ("matcore.jacobi", "opentropy.matcore", "jacobi_herm"),
    ("matcore.sym_eig", "opentropy.matcore", "sym_eig"),
    ("matcore.SymMatrix", "opentropy.matcore", "SymMatrix.__post_init__"),
    ("matcore.rebuild", "opentropy.matcore", "EigenPair.rebuild"),
    ("matcore.loewner_leq", "opentropy.matcore", "loewner_leq"),
    ("perspective.perspective", "opentropy.perspective", "perspective"),
    ("perspective.PowerFrame", "opentropy.perspective", "PowerFrame.__init__"),
    ("perspective.conjugate", "opentropy.perspective", "PowerFrame.conjugate"),
    ("perspective.whiten", "opentropy.perspective", "PowerFrame.whiten"),
    ("entropy.geo_mean", "opentropy.entropy", "geo_mean"),
    # rel_entropy and rel_entropy_alpha both route through this one
    ("entropy.rel_entropy", "opentropy.entropy", "rel_entropy_alpha_beta"),
    ("entropy.weighted_means", "opentropy.entropy", "weighted_means"),
    ("bounds.chain_check", "opentropy.bounds", "chain_check"),
    ("bounds.check_relation", "opentropy.bounds", "_check_relation"),
    ("bounds.bound", "opentropy.bounds", "bound"),
    ("gen.random_spd", "opentropy.gen", "random_spd"),
    ("gen.random_partner", "opentropy.gen", "random_partner"),
    ("gen.random_diag_pair", "opentropy.gen", "random_diag_pair"),
    ("hermite.hh_record", "opentropy.hermite", "hh_record"),
    ("hermite.grid_verify", "opentropy.hermite", "grid_verify"),
    ("matio.load_matrix", "opentropy.matio", "load_matrix"),
    ("cli.run_suite", "opentropy.cli", "run_suite"),
    ("cli.run_trial", "opentropy.cli", "_run_trial"),
    ("cli.oracle_compare", "opentropy.cli", "oracle_compare"),
    ("cli.oracle_trial", "opentropy.cli", "_oracle_trial"),
    ("cli.compute", "opentropy.cli", "_compute"),
    ("cli.emit", "opentropy.cli", "_emit"),
)
ROOT = "cli.main"  # the harness opens one root span per CLI call
GEN_SPANS = ("gen.random_spd", "gen.random_partner", "gen.random_diag_pair")
CLI_SELF_SPANS = ("cli.run_suite", "cli.run_trial", "cli.oracle_compare",
                  "cli.oracle_trial", "cli.compute")
# chain_check stages, attributed by the name of a span whose parent is
# chain_check; SymMatrix directly under chain_check is the terms loop
STAGES = {
    "frame": ("perspective.PowerFrame",),
    "hypothesis": ("bounds.check_relation",),
    "whiten": ("perspective.whiten", "matcore.sym_eig"),
    "terms": ("matcore.rebuild", "perspective.conjugate", "matcore.SymMatrix"),
    "links": ("matcore.loewner_leq",),
}


def _resolve(module: str, path: str):
    owner = sys.modules.get(module)
    if owner is None:
        return None, None
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr if hasattr(owner, attr) else None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self.call = -1
        self.trial = -1

    def _wrap(self, fn, name, after=None):
        spans, stack, tracer = self.spans, self.stack, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.call,
                              tracer.trial)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after(self, name):
        if name == "matcore.jacobi":
            return lambda a, k, res: self._count("jacobi.sweeps", res[2])
        if name == "matio.load_matrix":
            return lambda a, k, res: self._count(
                "matio.bytes", os.path.getsize(a[0] if a else k["path"]))
        if name == "cli.emit":
            def emitted(a, k, res):
                out = a[1] if len(a) > 1 else k.get("out_path")
                if out:
                    self._count("cli.report_bytes", os.path.getsize(out))
            return emitted
        return None

    def _set_trial(self, fn, name):
        inner = self._wrap(fn, name)

        def wrapper(*args, **kwargs):
            self.trial = args[1] if len(args) > 1 else kwargs.get("trial", -1)
            try:
                return inner(*args, **kwargs)
            finally:
                self.trial = -1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every hook target that exists; remember the ones that do not."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "opentropy" or n.startswith("opentropy.")]
        for name, module, path in HOOKS:
            owner, attr = _resolve(module, path)
            if attr is None:
                self.missing.add(name)
                continue
            fn = getattr(owner, attr)
            if name in ("cli.run_trial", "cli.oracle_trial"):
                wrapped = self._set_trial(fn, name)
            else:
                wrapped = self._wrap(fn, name, self._after(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    @contextlib.contextmanager
    def root(self, call: int):
        """Open the per-call root span around one CLI call."""
        self.call = call
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, call, -1)

    def write(self, path: str, upto: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcall\ttrial\n")
            for span in self.spans[:upto]:
                fh.write("\t".join(map(str, span)) + "\n")


def per_layer(tracer: Tracer, upto: int, counts: dict,
              units: float) -> dict[str, float | None]:
    """Per-layer metrics from ``spans[:upto]`` and the ``counts`` taken at
    the same moment, normalized per unit of work.

    ``.ms`` values are inclusive wall time, ``.self_ms`` subtract the time
    covered by child spans; all are per trial (per call on compute-files).
    """
    spans = tracer.spans[:upto]
    n = len(spans)
    child_ms = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    stage = dict.fromkeys(STAGES, 0.0)
    stage_of = {span: key for key, names in STAGES.items() for span in names}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        ms = (end - start) * 1e3
        total[name] = total.get(name, 0.0) + ms
        own[name] = own.get(name, 0.0) + ms - child_ms[i]
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0 and spans[parent][0] == "bounds.chain_check" \
                and name in stage_of:
            stage[stage_of[name]] += ms
    root_ms = total.get(ROOT, 0.0)
    per = 1.0 / max(units, 1)

    def need(*names):
        return not any(x in tracer.missing for x in names)

    def ms(name):
        return total.get(name, 0.0) * per if need(name) else None

    def selfms(*names):
        return sum(own.get(x, 0.0) for x in names) * per \
            if need(*names) else None

    def ncalls(name):
        return calls.get(name, 0) * per if need(name) else None

    def count(key, *names):
        return counts.get(key, 0) * per if need(*names) else None

    def share(*names):
        if not need(*names) or root_ms <= 0.0:
            return None
        return sum(total.get(x, 0.0) for x in names) / root_ms

    out = {
        "matcore.jacobi.ms": ms("matcore.jacobi"),
        "matcore.jacobi.sweeps": count("jacobi.sweeps", "matcore.jacobi"),
        "matcore.jacobi.share": share("matcore.jacobi"),
        "matcore.sym_eig.calls": ncalls("matcore.sym_eig"),
        "matcore.sym_eig.ms": ms("matcore.sym_eig"),
        "matcore.sym_eig.self_ms": selfms("matcore.sym_eig"),
        "matcore.SymMatrix.calls": ncalls("matcore.SymMatrix"),
        "matcore.SymMatrix.ms": ms("matcore.SymMatrix"),
        "matcore.rebuild.calls": ncalls("matcore.rebuild"),
        "matcore.rebuild.ms": ms("matcore.rebuild"),
        "matcore.loewner_leq.calls": ncalls("matcore.loewner_leq"),
        "matcore.loewner_leq.self_ms": selfms("matcore.loewner_leq"),
        "perspective.perspective.calls": ncalls("perspective.perspective"),
        "perspective.perspective.self_ms": selfms("perspective.perspective"),
        "perspective.PowerFrame.ms": ms("perspective.PowerFrame"),
        "perspective.conjugate.ms": ms("perspective.conjugate"),
        "perspective.whiten.ms": ms("perspective.whiten"),
        "entropy.geo_mean.ms": ms("entropy.geo_mean"),
        "entropy.rel_entropy.ms": ms("entropy.rel_entropy"),
        "entropy.weighted_means.ms": ms("entropy.weighted_means"),
        "bounds.chain_check.ms": ms("bounds.chain_check"),
        "bounds.bound.calls": ncalls("bounds.bound"),
        "bounds.bound.ms": ms("bounds.bound"),
        "gen.random_spd.ms": ms("gen.random_spd"),
        "gen.random_partner.ms": ms("gen.random_partner"),
        "gen.random_diag_pair.ms": ms("gen.random_diag_pair"),
        "gen.share": share(*GEN_SPANS),
        "hermite.hh_record.ms": ms("hermite.hh_record"),
        "hermite.grid_verify.ms": ms("hermite.grid_verify"),
        "matio.load_matrix.ms": ms("matio.load_matrix"),
        "matio.load_matrix.bytes": count("matio.bytes", "matio.load_matrix"),
        "cli.emit.ms": ms("cli.emit"),
        "cli.report_bytes": count("cli.report_bytes", "cli.emit"),
        "cli.self_ms": selfms(*CLI_SELF_SPANS),
        "cli.main.self_ms": selfms(ROOT),
    }
    for key, names in STAGES.items():
        out[f"bounds.stage.{key}_ms"] = stage[key] * per \
            if need("bounds.chain_check", *names) else None
    return out
