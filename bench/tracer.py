"""Per-layer tracing of t2algebra from outside its source tree.

The traced run replaces each listed function, in every t2algebra module
that holds a reference to it (module globals, dicts of operations and the
``fn`` of ``TruthValueOp`` instances), by a wrapper that records a span.
Classes are traced through the method that does their work, never by
replacing the class, which ``isinstance`` checks use. Spans are aggregated
in memory per function (calls, self time, total time) and written out when
the run ends; self time is a span's duration minus the spans it contains.
"""

from __future__ import annotations

import sys
import time

from t2algebra import axioms, piecewise
from t2algebra.star import TruthValueOp

TRACED = {
    "rationals": ("to_rational", "to_unit"),
    "piecewise": (
        "PiecewiseFn",
        "evaluate",
        "canonicalize",
        "pointwise_min",
        "pointwise_max",
        "pointwise_leq",
        "reflect",
        "envelope_left",
        "envelope_right",
        "thresholds",
        "in_lattice",
        "loads",
        "dumps",
    ),
    "lattice": ("meet", "join", "leq_sub"),
    "star": ("star", "costar"),
    "connectives": ("ScalarConnective",),
    "convolution": ("convolve_meet", "convolve_join"),
    "axioms": ("comparable_pair", "_draw_lattice"),
}
METHODS = {"PiecewiseFn": "__post_init__", "ScalarConnective": "__call__"}
MEMOS = (
    "canonicalize",
    "_indicator",
    "reflect",
    "envelope_left",
    "envelope_right",
    "sup_value",
    "is_convex",
    "left_threshold",
    "right_threshold",
)
# O3'/O5' of the tr-conorm battery report as O3/O5
PHASES = ("O1", "O2", "O3", "O4", "O5", "O6", "O7")
OPS_PER_TRIAL = (2, 4, 1, 2, 1, 1, 1)


def metric_prefix(layer: str, name: str) -> str:
    return f"{layer}.{name.lstrip('_')}"


def _t2_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "t2algebra" or name.startswith("t2algebra."))
    ]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {
            metric_prefix(layer, name): [0, 0.0, 0.0]
            for layer, names in TRACED.items()
            for name in names
        }
        self.batteries: list[dict] = []
        self.counts = {"inner": 0, "combiner": 0}
        self._stack: list[float] = []
        self._undo: list = []
        # taken before install, which hides the lru_cache objects behind wrappers
        self._memos = {
            name: getattr(piecewise, name)
            for name in MEMOS
            if hasattr(getattr(piecewise, name, None), "cache_info")
        }

    # -- spans ---------------------------------------------------------------

    def _span(self, stat: list, fn):
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        modules = _t2_modules()
        for layer, names in TRACED.items():
            module = sys.modules[f"t2algebra.{layer}"]
            for name in names:
                target = getattr(module, name, None)
                if target is None:
                    continue
                stat = self.stats[metric_prefix(layer, name)]
                if name in METHODS:
                    method = METHODS[name]
                    self._set_attr(target, method, self._span(stat, getattr(target, method)))
                else:
                    self._rebind(modules, target, self._span(stat, target))
        self._hook_battery(modules)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set_attr(self, owner, attr: str, value) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _set_item(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def _rebind_op(self, value, original, wrapped) -> None:
        if isinstance(value, TruthValueOp) and value.fn is original:
            object.__setattr__(value, "fn", wrapped)
            self._undo.append(lambda: object.__setattr__(value, "fn", original))

    def _rebind(self, modules: list, original, wrapped) -> None:
        """Replace ``original`` wherever a t2algebra module refers to it."""
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set_item(namespace, attr, wrapped)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._set_item(value, key, wrapped)
                        else:
                            self._rebind_op(item, original, wrapped)
                else:
                    self._rebind_op(value, original, wrapped)

    # -- axiom phases --------------------------------------------------------

    def _hook_battery(self, modules: list) -> None:
        """Record each battery's span and the end time of each op call in it."""
        batteries = self.batteries
        clock = self.clock
        check = axioms.check_tr_axioms

        def hooked_check(*args, **kwargs):
            record = {"start": clock(), "op_ends": []}
            batteries.append(record)
            reports = check(*args, **kwargs)
            record["end"] = clock()
            record["trials"] = [r.trials for r in reports]
            return reports

        self._rebind(modules, check, hooked_check)
        call = TruthValueOp.__call__

        def hooked_call(op, f, g):
            result = call(op, f, g)
            if batteries and "end" not in batteries[-1]:
                batteries[-1]["op_ends"].append(clock())
            return result

        self._set_attr(TruthValueOp, "__call__", hooked_call)

    def battery_phases(self) -> list[dict[str, float]]:
        """Seconds per axiom phase of each battery.

        Each phase makes a fixed number of op calls per trial, so the reports'
        trial counts locate the phase boundaries in the sequence of op calls.
        """
        out = []
        for battery in self.batteries:
            trials, ends = battery["trials"], battery["op_ends"]
            want = sum(t * k for t, k in zip(trials, OPS_PER_TRIAL))
            if len(trials) != len(PHASES) or len(ends) != want:
                raise RuntimeError(
                    f"battery made {len(ends)} op calls over trials {trials}; "
                    f"cannot split it into phases"
                )
            phases, previous, calls = {}, battery["start"], 0
            for phase, count, per_trial in zip(PHASES, trials, OPS_PER_TRIAL):
                calls += count * per_trial
                end = battery["end"] if phase == PHASES[-1] else ends[calls - 1]
                phases[phase] = end - previous
                previous = end
            out.append(phases)
        return out

    def phases(self) -> dict[str, float]:
        """Seconds per axiom phase, summed over batteries."""
        per_battery = self.battery_phases()
        return {phase: sum((b[phase] for b in per_battery), 0.0) for phase in PHASES}

    # -- counters ------------------------------------------------------------

    def counting_connective(self, base, role: str):
        """A copy of ``base`` that counts its evaluations under ``role``."""
        counts, fn = self.counts, base.fn

        def counted(x, y):
            counts[role] += 1
            return fn(x, y)

        return type(base)(base.name, counted, base.profile)

    def memo_counts(self) -> dict[str, tuple[int, int]]:
        counts = {name: (0, 0) for name in MEMOS}
        for name, memo in self._memos.items():
            info = memo.cache_info()
            counts[name] = (info.hits, info.misses)
        return counts

    def metrics(self, before: dict, after: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for prefix, (calls, self_s, _) in self.stats.items():
            out[f"{prefix}.calls"] = (calls, "count")
            out[f"{prefix}.self_s"] = (self_s, "s")
        for name in MEMOS:
            hits = after[name][0] - before[name][0]
            lookups = hits + after[name][1] - before[name][1]
            out[f"{metric_prefix('piecewise', name)}.hit_rate"] = (
                hits / lookups if lookups else 0.0,
                "ratio",
            )
        combiner = self.counts["combiner"]
        out["convolution.band_useful_frac"] = (
            self.counts["inner"] / combiner if combiner else 0.0,
            "ratio",
        )
        for phase, seconds in self.phases().items():
            out[f"axioms.{phase}_s"] = (seconds, "s")
        return out

    def spans(self, before: dict, after: dict) -> dict:
        """Everything the traced run recorded, for writing out at the end."""
        return {
            "functions": {
                prefix: {"calls": calls, "self_s": self_s, "total_s": total_s}
                for prefix, (calls, self_s, total_s) in self.stats.items()
            },
            "memos": {
                name: {
                    "hits": after[name][0] - before[name][0],
                    "misses": after[name][1] - before[name][1],
                }
                for name in MEMOS
            },
            "connective_calls": dict(self.counts),
            "phases_s": self.phases(),
            "batteries": [
                {
                    "trials": b["trials"],
                    "op_calls": len(b["op_ends"]),
                    "seconds": b["end"] - b["start"],
                    "phases_s": phases,
                }
                for b, phases in zip(self.batteries, self.battery_phases())
            ],
        }
