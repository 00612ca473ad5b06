"""Spans around calls into each layer's public functions, for the traced run.

``Tracer.install`` replaces every public function listed in TRACED, in each
sumsetlab module that holds a reference to it, with a wrapper that times the
call; ``uninstall`` puts the originals back.  No file of the program changes.

A span is (id, name, start, end, parent id, job id); the job id is the index
of the CLI command that caused it.  Spans stay in memory (at most SPAN_CAP,
the rest are counted as dropped) and are written when the run ends.  A
layer's self time is its spans' time minus the time of their child spans, so
the self times of all layers plus the benchmark's own ("bench") add up to the
time of the root spans the benchmark opens.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("groups", "structure", "factor_system", "engine", "rng", "replay",
          "jsonio", "cli")

TRACED = {
    "groups": ("build_group", "validate_group", "element_order",
               "FiniteGroup.op_rows"),
    "structure": ("generated_subgroup", "is_normal", "commutator_subgroup",
                  "derived_of", "derived_series", "is_solvable", "quotient",
                  "subgroup_as_group", "solvable_chain", "minimal_torsion",
                  "choose_decomposition_subgroup"),
    "factor_system": ("build_factor_system", "decompose_subset",
                      "factor_system_json"),
    "engine": ("product_set", "restricted_product_set", "cd_bound",
               "verify_exhaustive", "verify_sampled", "find_extremal"),
    "rng": ("SplitMix64.nonempty_mask", "SplitMix64.subset_of_size"),
    "replay": ("replay_solvable_proof",),
    "jsonio": ("dumps_stable",),
}

# Called hundreds of times per command: timed and counted, but no span kept.
LEAVES = frozenset({"groups.element_order", "groups.FiniteGroup.op_rows",
                    "rng.SplitMix64.nonempty_mask", "rng.SplitMix64.subset_of_size"})

SPAN_CAP = 100_000


def _verify_exhaustive_name(args, kwargs) -> str:
    caps = args[2] if len(args) > 2 else kwargs.get("caps")
    return "engine.verify_exhaustive" if caps is None else "engine.verify_capped"


def _build_group_name(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    is_table = (spec.startswith("table:") if isinstance(spec, str)
                else spec.kind == "table")
    return "groups.load_table" if is_table else "groups.build_group"


# span names that depend on the arguments
_VARIANTS = {"engine.verify_exhaustive": _verify_exhaustive_name,
             "groups.build_group": _build_group_name}


def proof_shape(trace, depth: int = 1) -> tuple[int, int, int]:
    """(nodes, max depth, block checks) of a ProofTrace and its subtraces."""
    nodes, deepest, checks = 1, depth, 0
    for bc in trace.block_checks or ():
        n, d, c = proof_shape(bc.subtrace, depth + 1)
        nodes += n
        deepest = max(deepest, d)
        checks += c + 1
    return nodes, deepest, checks


class Tracer:
    """In-memory spans and per-layer aggregates for one kind of traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)   # layer -> exclusive s
        self.incl_s: dict[str, float] = defaultdict(float)   # span -> outermost s
        self.calls: dict[str, int] = defaultdict(int)        # span -> outermost calls
        self.counts: dict[str, int] = defaultdict(int)       # replay shape, bytes
        self.max_depth = 0
        self.job = -1
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
            self._local.active = defaultdict(int)
        return frames

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (layer = prefix)."""
        variant = _VARIANTS.get(name)
        if variant is not None:
            name = variant(args, kwargs)
        frames = self._frames()
        active = self._local.active
        outermost = active[name] == 0
        parent = frames[-1] if frames else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0.0]
        frames.append(frame)
        active[name] += 1
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            frames.pop()
            active[name] -= 1
            duration = end - start
            hook_s = self._after(name, result) if outermost else 0.0
            with self._lock:
                self.self_s[name.split(".", 1)[0]] += duration - frame[1]
                self.self_s["bench"] += hook_s
                if outermost:
                    self.incl_s[name] += duration
                    self.calls[name] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end,
                                       None if parent is None else parent[0], self.job))
                else:
                    self.dropped += 1
            if parent is not None:
                parent[1] += duration + hook_s

    def leaf(self, name: str, fn, *args, **kwargs):
        """Time a frequently called function without keeping its span."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            frames = self._frames()
            with self._lock:
                self.self_s[name.split(".", 1)[0]] += duration
                self.incl_s[name] += duration
                self.calls[name] += 1
            if frames:
                frames[-1][1] += duration

    def _after(self, name: str, result) -> float:
        """Counts read off a layer's result; returns the time spent reading."""
        if result is None or name not in ("replay.replay_solvable_proof",
                                          "jsonio.dumps_stable"):
            return 0.0
        start = perf_counter()
        if name == "replay.replay_solvable_proof":
            nodes, depth, checks = proof_shape(result)
            self.counts["replay.nodes"] += nodes
            self.counts["replay.block_checks"] += checks
            self.max_depth = max(self.max_depth, depth)
        else:
            self.counts["jsonio.bytes"] += len(result)
        return perf_counter() - start

    def _wrap(self, name: str, fn):
        method = self.leaf if name in LEAVES else self.call

        def traced(*args, **kwargs):
            return method(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Route every function in TRACED through this tracer."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sumsetlab" or key.startswith("sumsetlab.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"sumsetlab.{layer}")
            for attr in names:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[method]
                    self._restore.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans_json(self) -> dict:
        """Spans as JSON rows, times in seconds from the first span's start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "job"],
            "dropped": self.dropped,
            "spans": [[i, n, round(s - origin, 7), round(e - origin, 7), p, j]
                      for i, n, s, e, p, j in sorted(self.spans)],
        }
