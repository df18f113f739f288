"""In-memory spans and counters around the public functions of gapstab.

The tracer wraps module functions and class methods from the outside, so the
program itself carries no tracing code.  A wrapped function records a span
(name, start, end, parent span, operation id); a hot leaf function such as
``AbelianGroup.pairing`` only bumps a counter, because a span per call would
cost more than the call and hold millions of records.  Counted calls are
therefore part of their caller's self time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute path) for every spanned boundary.  The
# end-to-end metric each one should move is listed in perfbench/README.md.
SPANNED = (
    ("codes.measure_from_code", "codes", "measure_from_code"),
    ("codes.distance", "codes", "LinearCode.distance"),
    ("spectral.kappa", "spectral", "kappa"),
    ("spectral.generates", "spectral", "ProbMeasure.generates"),
    ("abelian.rep_from_pvm", "abelian", "rep_from_pvm"),
    ("algebra.PVM.init", "algebra", "PVM.__init__"),
    ("algebra.AlmostHom.init", "algebra", "AlmostHom.__init__"),
    ("algebra.AlmostHom.init", "algebra", "UnitaryRep.__init__"),
    ("algebra.defect", "algebra", "defect"),
    ("games.perturb_strategy", "games", "perturb_strategy"),
    ("games.value", "games", "value"),
    ("games.commutation_bound_check", "games", "commutation_bound_check"),
    ("games.anticommutation_bound_check", "games", "anticommutation_bound_check"),
    ("games.honest_strategy", "games", "honest_strategy"),
    ("games.pauli_rigidity_report", "games", "pauli_rigidity_report"),
    ("games.closeness", "games", "closeness"),
    ("stability.gowers_hatami_round", "stability", "gowers_hatami_round"),
    ("stability.round_pauli_pair", "stability", "round_pauli_pair"),
    ("stability.twisted_amplification_check", "stability", "twisted_amplification_check"),
    ("stability.commutator_amplification_check", "stability", "commutator_amplification_check"),
    ("suites.rigidity_sweep", "suites", "rigidity_sweep"),
)

COUNTED = (
    ("abelian.pairing", "abelian", "AbelianGroup.pairing"),
    ("algebra.norm_inf", "algebra", "TracialAlgebra.norm_inf"),
)

# every FiniteGroup subclass that defines its own ``mul`` is counted here
GROUP_MUL = "groups.mul"

SPAN_METRICS = (
    "codes.measure_from_code.calls",
    "codes.measure_from_code.self_ms",
    "codes.distance.self_ms",
    "spectral.kappa.calls",
    "spectral.kappa.self_ms",
    "spectral.generates.self_ms",
    "abelian.rep_from_pvm.calls",
    "abelian.rep_from_pvm.self_ms",
    "algebra.PVM.init.calls",
    "algebra.PVM.init.self_ms",
    "algebra.AlmostHom.init.calls",
    "algebra.AlmostHom.init.self_ms",
    "algebra.defect.self_ms",
    "games.perturb_strategy.calls",
    "games.perturb_strategy.self_ms",
    "games.value.calls",
    "games.value.self_ms",
    "games.commutation_bound_check.self_ms",
    "games.anticommutation_bound_check.self_ms",
    "games.honest_strategy.self_ms",
    "games.pauli_rigidity_report.self_ms",
    "games.closeness.self_ms",
    "stability.gowers_hatami_round.calls",
    "stability.gowers_hatami_round.self_ms",
    "stability.round_pauli_pair.self_ms",
    "stability.twisted_amplification_check.self_ms",
    "stability.commutator_amplification_check.self_ms",
    "suites.rigidity_sweep.self_ms",
)
COUNT_METRICS = ("abelian.pairing.calls", "groups.mul.calls", "algebra.norm_inf.calls")
MAX_METRICS = ("stability.gowers_hatami_round.max_dim",)


class Tracer:
    """Collects spans, call counts and maxima for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.counts = Counter()
        self.maxima = {}
        self.op = None
        self._restore = []

    # -- recording ------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, on_call=None):
        """Wrap fn in a span; a call nested directly in a span of the same
        name (a subclass constructor calling its base) joins the outer one."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers ------------------------------------------------

    def install(self, package):
        """Wrap every traced boundary of ``package`` (the imported gapstab)."""
        for name, mod, path in SPANNED:
            hook = self._max_dim_hook if name == "stability.gowers_hatami_round" else None
            self._replace(package, mod, path, lambda fn, n=name, h=hook: self.spanned(n, fn, h))
        for name, mod, path in COUNTED:
            self._replace(package, mod, path, lambda fn, n=name: self.counted(n, fn))
        base = package.groups.FiniteGroup
        for mod in (package.groups, package.abelian):
            for obj in vars(mod).values():
                if isinstance(obj, type) and issubclass(obj, base) and "mul" in vars(obj):
                    self._set(obj, "mul", self.counted(GROUP_MUL, vars(obj)["mul"]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def _max_dim_hook(self, phi, *args, **kwargs):
        key = "stability.gowers_hatami_round.max_dim"
        self.maxima[key] = max(self.maxima.get(key, 0), phi.group.order * max(phi.algebra.dims))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, package, mod, path, make):
        module = getattr(package, mod)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, attr, make(vars(cls)[attr]))
            return
        original = getattr(module, path)
        wrapped = make(original)
        # modules that imported the function by name hold their own reference
        for mod_name, other in list(sys.modules.items()):
            if mod_name.split(".")[0] != package.__name__ or other is None:
                continue
            for attr, val in list(vars(other).items()):
                if val is original:
                    self._set(other, attr, wrapped)

    # -- results --------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self):
        """Per-layer metrics over everything recorded so far."""
        selfs = self_times(self.spans)
        calls = Counter()
        self_ms = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_ms[span[0]] += own * 1e3
        out = {}
        for metric in SPAN_METRICS:
            prefix, kind = metric.rsplit(".", 1)
            out[metric] = calls[prefix] if kind == "calls" else self_ms[prefix]
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric.rsplit(".", 1)[0]]
        for metric in MAX_METRICS:
            out[metric] = self.maxima.get(metric, 0)
        return out

    def self_ms(self, name):
        return 1e3 * sum(
            own for span, own in zip(self.spans, self_times(self.spans)) if span[0] == name
        )


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (they never do in one thread, but spans
    from a merged trace can); the covered part is the union of the child
    intervals clipped to the parent's interval, so nothing is subtracted
    twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
