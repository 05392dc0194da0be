"""Spans and work counters for the traced run, recorded from outside radlab.

``Tracer.install`` replaces each traced function at every radlab import
site (module globals, and module-level dicts such as the hunt checker
table) with a wrapper that records one span per call: name, start, end,
parent span and self time (duration minus the wrapped calls made inside
it).  Generators get a counting wrapper whose spans cover each step.
Spans stay in memory; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

WRAPPER_MARK = "__perfbench_wrapper__"


def _n(args, _kwargs) -> int:
    return args[0].n  # every traced counting call takes the vector first


def _half_sums(args, kwargs, _result, add) -> None:
    n = _n(args, kwargs)
    split = (n + 1) // 2
    add("half_sums", (1 << split) + (1 << (n - split)))


def _examined(args, kwargs, result, add) -> None:
    from radlab.search import estimate_search_size

    n, target, bound = args[:3]
    resume = kwargs.get("resume")
    add("examined", result.vectors_examined - (resume.examined if resume else 0))
    add("estimate", estimate_search_size(n, bound, target.min_entry))


# (defining module, function, layer name, counter hook, is a generator)
TRACED = [
    ("radlab.core", "canonicalize", "core.canonicalize", None, False),
    ("radlab.counting", "tail_counts", "counting.tail_counts", None, False),
    ("radlab.counting", "tail_counts_threshold", "counting.tail_counts_threshold",
     lambda a, k, r, add: add("sign_sums", 1 << _n(a, k)), False),
    ("radlab.counting", "tail_counts_mitm", "counting.tail_counts_mitm", _half_sums, False),
    ("radlab.counting", "distribution", "counting.distribution",
     lambda a, k, r, add: add("support", len(r.pairs)), False),
    ("radlab.conjectures", "check_tomaszewski", "conjectures.check_tomaszewski", None, False),
    ("radlab.conjectures", "check_pairing", "conjectures.check_pairing",
     lambda a, k, r, add: add("expanded", 1 << (_n(a, k) - 1)), False),
    ("radlab.conjectures", "combinatorial_fraction", "conjectures.combinatorial_fraction",
     lambda a, k, r, add: add("subsets", 1 << _n(a, k)), False),
    ("radlab.conjectures", "delta_sweep", "conjectures.delta_sweep",
     lambda a, k, r, add: add("points_tested", r.values["points_tested"]), False),
    ("radlab.dominance", "case_lemma_7", "dominance.case_lemma_7", None, False),
    ("radlab.search", "hunt", "search.hunt", None, False),
    ("radlab.search", "exhaustive_integer_search", "search.exhaustive_integer_search",
     _examined, False),
    ("radlab.search", "canonical_vectors", "search.canonical_vectors", None, True),
    ("radlab.cli", "main", "cli.main", None, False),
    ("radlab.cli", "canonical_json_bytes", "cli.emit", None, False),
    ("radlab.cli", "append_ledger", "cli.emit", None, False),
]
LAYERS = sorted({layer for _, _, layer, _, _ in TRACED})
COUNTERS = {
    "counting.tail_counts_threshold": ["sign_sums"],
    "counting.tail_counts_mitm": ["half_sums"],
    "counting.distribution": ["support"],
    "conjectures.check_pairing": ["expanded"],
    "conjectures.combinatorial_fraction": ["subsets"],
    "conjectures.delta_sweep": ["points_tested"],
    "search.canonical_vectors": ["yielded"],
}


class Tracer:
    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counters, as at the start of a pass."""
        # (span id, name id, start, end, parent span id or -1, self time)
        self.spans: list[tuple[int, int, float, float, int, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._hunt_seen: set | None = None

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name_id: int) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append((frame[0], name_id, frame[1], end, parent, duration - frame[2]))

    def _wrap(self, fn, layer: str, hook):
        tracer = self
        name_id = self._name_id(layer)

        def add(counter: str, value) -> None:
            tracer.counters[f"{layer}.{counter}"] += value

        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name_id)
            if hook is not None:
                hook(args, kwargs, result, add)
            return result

        if layer == "core.canonicalize":
            def wrapper(*args, _inner=wrapper, **kwargs):
                result = _inner(*args, **kwargs)
                if tracer._hunt_seen is not None:
                    tracer.counters["search.hunt.evaluated"] += 1
                    tracer._hunt_seen.add(result.entries)
                return result
        elif layer == "search.hunt":
            def wrapper(*args, _inner=wrapper, **kwargs):
                tracer._hunt_seen = set()
                try:
                    return _inner(*args, **kwargs)
                finally:
                    tracer.counters["search.hunt.distinct"] += len(tracer._hunt_seen)
                    tracer._hunt_seen = None
        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _wrap_generator(self, fn, layer: str):
        tracer = self
        name_id = self._name_id(layer)
        key = f"{layer}.yielded"

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, name_id)
                    tracer.counters[key] += 1
                    yield item
            finally:
                inner.close()

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each radlab import site."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, name, layer, hook, is_gen in TRACED:
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (
                self._wrap_generator(fn, layer) if is_gen else self._wrap(fn, layer, hook)
            )
        self.patches = replace_everywhere(wrappers)

    def uninstall(self) -> None:
        restore(self.patches)
        self.patches = []

    # -- summarizing -------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """calls, busy_s and self_s per layer, plus the work counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            for counter in COUNTERS.get(layer, []):
                out[f"{layer}.{counter}"] = 0
        for _sid, name_id, start, end, _parent, self_time in self.spans:
            layer = self.names[name_id]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += end - start
            out[f"{layer}.self_s"] += self_time
        c = self.counters
        out.update({k: v for k, v in c.items() if k in out})
        out["search.hunt.distinct_ratio"] = _ratio(
            c["search.hunt.distinct"], c["search.hunt.evaluated"])
        out["search.canonical_vectors.useful_ratio"] = _ratio(
            c["search.exhaustive_integer_search.examined"],
            c["search.exhaustive_integer_search.estimate"])
        return out

    def top_level_busy(self) -> float:
        return sum(end - start for _, _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "self_s"],
            "names": self.names,
            "spans": self.spans,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def replace_everywhere(replacements: dict[int, object]) -> list[tuple[dict, str, object]]:
    """Swap each object whose id is a key for its replacement in every
    radlab module's globals and module-level dicts; returns the undo list."""
    patches = []
    for module in radlab_modules():
        space = vars(module)
        for name, value in list(space.items()):
            if id(value) in replacements:
                patches.append((space, name, value))
                space[name] = replacements[id(value)]
            elif isinstance(value, dict) and name != "__builtins__":
                for key, item in list(value.items()):
                    if callable(item) and id(item) in replacements:
                        patches.append((value, key, item))
                        value[key] = replacements[id(item)]
    return patches


def restore(patches: list[tuple[dict, str, object]]) -> None:
    for space, key, original in reversed(patches):
        space[key] = original


def radlab_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "radlab" or k.startswith("radlab."))]


def installed_wrappers() -> list[str]:
    """Import sites that still hold a benchmark wrapper."""
    left = []
    for module in radlab_modules():
        for name, value in vars(module).items():
            if getattr(value, WRAPPER_MARK, False):
                left.append(f"{module.__name__}.{name}")
            elif isinstance(value, dict) and name != "__builtins__":
                left += [f"{module.__name__}.{name}[{k!r}]" for k, v in value.items()
                         if getattr(v, WRAPPER_MARK, False)]
    return left
