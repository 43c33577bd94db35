"""Run the walkbound CLI in this process with spans and counters around its layers.

    python3 bench/layertrace.py TRACE.json [--alloc] -- <walkbound arguments>

The layers are the package modules ``expander``, ``walks``, ``owf`` and
``prob``, plus the ``cmd_*`` handlers of ``cli``.  Before the command runs,
every public function and method of those modules is replaced by a wrapper,
both where it is defined and wherever another walkbound module imported the
name, so the package source stays untouched.  A wrapper either records a span
(name, start, end, parent) or, for the per-element helpers in ``PER_ELEMENT``,
only counts calls: those run once per vertex, walk or oracle query, and a span
each would cost more than the work it measures.  Their time is charged to the
span that called them.

Spans and counters stay in memory and are written to TRACE.json when the
command ends; the report still goes to stdout and the exit code is the
command's.  With ``--alloc`` the wrappers instead record, per layer, the peak
of ``tracemalloc``-tracked memory inside any call into that layer (callees
included).  That pass is separate because allocation tracking slows the
program down and would distort span times.

``summarize`` turns one or more trace files of a single workload iteration
into the per-layer metrics named in ``PER_LAYER_METRICS``.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("expander", "walks", "owf", "prob")

# Called once per vertex, walk, bit packing or oracle query: counted, no span.
PER_ELEMENT = (
    "expander.ColoredRotation.rotate",
    "walks.HybridGraph.step",
    "walks.validate_walk",
    "walks.walk_index",
    "walks.walk_from_index",
    "walks.sample_walk",
    "owf.ToyFunction.apply",
    "owf.ToyFunction.canonical_preimages",
    "owf.WalkRepr.*",
    "owf.forward_repr",
    "owf.forward_inv",
    "owf.reverse_repr",
    "owf.conditioned_reverse_repr",
    "owf.*.invert",
)

INVERTER_CLASSES = (
    "AdversaryOracle",
    "RepeatedInverter",
    "BlockwiseInverter",
    "WalkChainInverter",
    "ReducedDirectInverter",
    "ReducedWalkInverter",
)

# metric -> span-name patterns; time is summed over outermost matching spans
SPAN_TIMES = {
    "expander.rotation_s": ("expander.mgg_rotation", "expander.k4_rotation"),
    "expander.transition_matrix_s": ("expander.transition_matrix",),
    "expander.eigen_s": ("expander.second_eigenvalue_magnitude",),
    "walks.enumerate_s": ("walks.enumerate_walk_vertices",),
    "walks.transition_s": ("walks.HybridGraph.transition",),
    "walks.independence_s": ("walks.verify_walk_independence",),
    "walks.family_probs_enum_s": ("walks.family_event_probs",),
    "walks.family_probs_matrix_s": ("walks.family_event_probs_matrix",),
    "walks.terminal_vector_s": ("walks.terminal_vector",),
    "owf.walk_permutation_s": ("owf.walk_permutation",),
    "owf.success_profile_s": ("owf.*.success_profile",),
    "owf.measure_exact_s": ("owf.measure_inversion.exact",),
    "owf.measure_mc_s": ("owf.measure_inversion.mc",),
    "prob.instance_s": ("prob.random_product_instance", "prob.cube_instance"),
    "prob.bound_s": ("prob.pooled_bound", "prob.percoord_bound"),
}

# metric -> span-name patterns; every matching span counts, nested ones too
SPAN_CALLS = {
    "expander.transition_matrix_calls": ("expander.transition_matrix",),
    "walks.enumerate_calls": ("walks.enumerate_walk_vertices",),
    "walks.transition_calls": ("walks.HybridGraph.transition",),
    "owf.success_profile_calls": ("owf.*.success_profile",),
    "prob.bound_calls": ("prob.pooled_bound", "prob.percoord_bound"),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER_METRICS = (
    *((f"{layer}.self_s", "s", "lower") for layer in ("cli",) + LAYERS),
    ("expander.rotation_s", "s", "lower"),
    ("expander.transition_matrix_s", "s", "lower"),
    ("expander.transition_matrix_calls", "count", "lower"),
    ("expander.transition_matrix_bytes", "bytes", "lower"),
    ("expander.eigen_s", "s", "lower"),
    ("expander.eigen_iterations", "count", "lower"),
    ("walks.enumerate_calls", "count", "lower"),
    ("walks.enumerate_s", "s", "lower"),
    ("walks.enumerated_walks", "count", "lower"),
    ("walks.enumerate_reuse_ratio", "ratio", "higher"),
    ("walks.transition_calls", "count", "lower"),
    ("walks.transition_s", "s", "lower"),
    ("walks.independence_s", "s", "lower"),
    ("walks.families_checked", "count", "higher"),
    ("walks.family_probs_enum_s", "s", "lower"),
    ("walks.family_probs_matrix_s", "s", "lower"),
    ("walks.terminal_vector_s", "s", "lower"),
    ("owf.walk_permutation_s", "s", "lower"),
    ("owf.success_profile_s", "s", "lower"),
    ("owf.success_profile_calls", "count", "lower"),
    ("owf.measure_exact_s", "s", "lower"),
    ("owf.measure_mc_s", "s", "lower"),
    ("owf.mc_query_us", "us", "lower"),
    ("owf.oracle_queries", "count", "lower"),
    *((f"owf.invert_calls.{cls}", "count", "lower") for cls in INVERTER_CLASSES),
    ("prob.instance_s", "s", "lower"),
    ("prob.bound_s", "s", "lower"),
    ("prob.bound_calls", "count", "lower"),
    *((f"{layer}.peak_alloc_mb", "MB", "lower") for layer in ("cli",) + LAYERS),
    ("trace_overhead_s", "s", "lower"),
)


def _matches(name: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


class Tracer:
    """Spans, call counts and derived facts of one process, kept in memory."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []      # [name id, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.facts: Counter = Counter()
        self.walk_spaces: set = set()
        self.peak_bytes: Counter = Counter()
        self._stack: list = [-1]
        self._mem: list = []       # alloc pass: [memory at entry, highest peak seen]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -------------------------------------------------------

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name: str, fn):
        if self.alloc:
            return self._alloc_wrapper(name, fn)
        observe = _OBSERVERS.get(name)
        label = _LABELS.get(name)
        sig = inspect.signature(fn) if label else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        plain_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = plain_id
            if label is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                nid = self._name_id(f"{name}.{label(self, call.arguments)}")
            rec = [nid, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _alloc_wrapper(self, name: str, fn):
        layer = name.split(".", 1)[0]
        mem = self._mem

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if mem:
                mem[-1][1] = max(mem[-1][1], peak)
            tracemalloc.reset_peak()
            mem.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                start, highest = mem.pop()
                highest = max(highest, peak)
                if mem:
                    mem[-1][1] = max(mem[-1][1], highest)
                tracemalloc.reset_peak()
                self.peak_bytes[layer] = max(self.peak_bytes[layer], highest - start)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions and methods in place."""
        import walkbound.cli as cli

        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"walkbound.{layer}"]
            for owner, attr, raw, name in _public_callables(module, layer):
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrap = self.counted if _matches(name, PER_ELEMENT) else self.spanned
                new = wrap(name, fn)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(new)
                setattr(owner, attr, new)
                if owner is module:
                    replaced[id(raw)] = new
        for attr, fn in list(vars(cli).items()):
            if attr.startswith("cmd_") and inspect.isfunction(fn):
                replaced[id(fn)] = self.spanned(f"cli.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "walkbound" or mod_name.startswith("walkbound."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "facts": dict(self.facts),
            "walk_spaces": len(self.walk_spaces),
            "peak_bytes": dict(self.peak_bytes),
        }


def _public_callables(module, layer: str):
    """(owner, attribute, raw attribute, span name) of every public function
    defined in ``module`` and every public method of its classes."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj):
            for meth, raw in list(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield obj, meth, raw, f"{layer}.{obj.__name__}.{meth}"


def _observe_transition_matrix(tracer, args, result):
    tracer.facts["expander.transition_matrix_bytes"] += result.n_dim ** 2 * 8


def _observe_eigen(tracer, args, result):
    tracer.facts["expander.eigen_iterations"] += result.iterations


def _observe_enumerate(tracer, args, result):
    g, t = args[0], args[1]
    tracer.facts["walks.enumerated_walks"] += result.shape[0]
    key = hashlib.sha256()
    for part in (g.rot.neighbors, g.perm):
        key.update(part.tobytes())
    key.update(str(t).encode())
    tracer.walk_spaces.add(key.digest())


def _observe_independence(tracer, args, result):
    tracer.facts["walks.families_checked"] += result.n_single + result.n_sampled


def _label_measure(tracer, arguments) -> str:
    if arguments["mode"] == "mc":
        tracer.facts["owf.mc_trials"] += arguments["trials"]
    return arguments["mode"]


_OBSERVERS = {
    "expander.transition_matrix": _observe_transition_matrix,
    "expander.second_eigenvalue_magnitude": _observe_eigen,
    "walks.enumerate_walk_vertices": _observe_enumerate,
    "walks.verify_walk_independence": _observe_independence,
}

# span name -> function of the bound call arguments giving a name suffix
_LABELS = {"owf.measure_inversion": _label_measure}


def summarize(traces: list, alloc_traces: list = ()) -> dict:
    """Per-layer metrics of one workload iteration from its processes' traces
    (one per CLI process); peak_alloc_mb comes from ``alloc_traces``.
    ``trace_overhead_s`` is left to the caller, which knows both wall times."""
    out = {name: 0 for name, _, _ in PER_LAYER_METRICS}
    out.pop("trace_overhead_s")
    counts: Counter = Counter()
    facts: Counter = Counter()
    walk_spaces = 0
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        counts.update(trace["counts"])
        facts.update(trace["facts"])
        walk_spaces += trace["walk_spaces"]
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        for i, (nid, _, _, _) in enumerate(spans):
            out[f"{names[nid].split('.', 1)[0]}.self_s"] += dur[i] - child[i]
        for metric, patterns in SPAN_TIMES.items():
            hit = _hits(names, spans, patterns)
            for i, (_, _, _, parent) in enumerate(spans):
                if hit[i] and not _has_hit_ancestor(spans, hit, parent):
                    out[metric] += dur[i]
        for metric, patterns in SPAN_CALLS.items():
            out[metric] += sum(_hits(names, spans, patterns))
    for key in ("expander.transition_matrix_bytes", "expander.eigen_iterations",
                "walks.enumerated_walks", "walks.families_checked"):
        out[key] = facts[key]
    calls = out["walks.enumerate_calls"]
    out["walks.enumerate_reuse_ratio"] = walk_spaces / calls if calls else 0.0
    trials = facts["owf.mc_trials"]
    out["owf.mc_query_us"] = out["owf.measure_mc_s"] / trials * 1e6 if trials else 0.0
    for cls in INVERTER_CLASSES:
        out[f"owf.invert_calls.{cls}"] = counts[f"owf.{cls}.invert"]
    out["owf.oracle_queries"] = out["owf.invert_calls.AdversaryOracle"]
    for layer in ("cli",) + LAYERS:
        peak = max((t["peak_bytes"].get(layer, 0) for t in alloc_traces), default=0)
        out[f"{layer}.peak_alloc_mb"] = peak / 2 ** 20
    return out


def _hits(names, spans, patterns) -> list:
    by_name = [_matches(name, patterns) for name in names]
    return [by_name[nid] for nid, _, _, _ in spans]


def _has_hit_ancestor(spans, hit, parent) -> bool:
    while parent >= 0:
        if hit[parent]:
            return True
        parent = spans[parent][3]
    return False


def main(argv: list) -> int:
    if len(argv) < 2 or "--" not in argv:
        print("usage: layertrace.py TRACE.json [--alloc] -- <walkbound arguments>", file=sys.stderr)
        return 2
    sep = argv.index("--")
    out_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    import walkbound.cli

    tracer = Tracer(alloc="--alloc" in flags)
    tracer.install()
    if tracer.alloc:
        tracemalloc.start()
    try:
        code = walkbound.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
