"""In-memory span tracer wrapped around erstoll's public functions.

Nothing in the package is edited: ``install`` replaces each traced
function, in every erstoll module namespace that holds it, by a wrapper
that records a span (name, start, end, parent, tag).  Calls made through
the module globals (``harness.solve``, ``analysis.solve``, ``step`` inside
``dynamics.run`` ...) therefore all pass through the wrappers.

``model.bpr_time`` runs millions of times in one dynamics op and costs
well under a microsecond, so it is only counted, never timed.

Spans live in flat arrays and are written out once, after the run.
"""

from __future__ import annotations

import time
from array import array

# Traced public functions, by layer (= erstoll module).
SPANNED = {
    "cli": ("main",),
    "harness": (
        "resolve_scenario",
        "apply_overrides",
        "run_sweep",
        "solve_row",
        "rows_to_csv",
        "rows_to_yaml",
    ),
    "analysis": ("classify", "metrics", "min_total_travel_time", "toll_bands"),
    "equilibrium": ("solve", "brute_force_equilibrium", "rosenthal_potential"),
    "dynamics": ("discretize_scenario", "agents_from_scenario", "run", "step"),
}
COUNTED = {"model": ("bpr_time",)}

REGIMES = ("interior", "corner_other_on_2", "corner_other_on_1")
TAG_RAISED = -1


def _solve_tag(args, result):
    # solve returns (EquilibriumResult, RegimeTag); tag = 1 + regime index.
    return 1 + REGIMES.index(result[1].value)


def _bands_tag(args, result):
    return 1 if args[0].dwpt_ratio >= 0.5 else 0


def _step_tag(args, result):
    # (switches, visits) packed into one int: visits is len(agents).
    return result[0] * (1 << 32) + len(args[0])


TAGGERS = {
    "equilibrium.solve": _solve_tag,
    "analysis.toll_bands": _bands_tag,
    "dynamics.step": _step_tag,
}


class Tracer:
    """Span store plus the call counters of count-only functions."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tag = array("q")
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap_spanned(self, qualname: str, fn):
        nid = self.name_id.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        tagger = TAGGERS.get(qualname)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.tag.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.tag[idx] = TAG_RAISED
                stack.pop()
                raise
            self.end[idx] = clock()
            stack.pop()
            if tagger is not None:
                self.tag[idx] = tagger(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _wrap_counted(self, qualname: str, fn):
        cell = self.counts.setdefault(qualname, [0])

        def wrapper(*args, **kwargs):
            if self.on:
                cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every erstoll namespace that refers to a traced function."""
        import erstoll
        from erstoll import analysis, cli, dynamics, equilibrium, harness, model

        layers = {
            "cli": cli,
            "harness": harness,
            "analysis": analysis,
            "equilibrium": equilibrium,
            "dynamics": dynamics,
            "model": model,
        }
        namespaces = [erstoll, *layers.values()]
        for table, make in ((SPANNED, self._wrap_spanned), (COUNTED, self._wrap_counted)):
            for layer, funcs in table.items():
                for func in funcs:
                    original = getattr(layers[layer], func)
                    wrapper = make(f"{layer}.{func}", original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._originals.append((ns, attr, original))
                                setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        """Put erstoll's own functions back; ``install`` may follow again."""
        for ns, attr, original in reversed(self._originals):
            setattr(ns, attr, original)
        self._originals.clear()

    def mark(self):
        """The span count and the counters so far, for ``summarize``."""
        return len(self.name), {k: v[0] for k, v in self.counts.items()}

    # -- analysis ---------------------------------------------------------

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, tag."""
        with open(path, "w") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\ttag\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.tag[i]}\n"
                )

    def summarize(self, mark=None) -> dict:
        """Per-function totals and per-layer self time, all in ns.

        Self time of a span is its duration minus the durations of its
        direct children; a layer's self time sums over its spans.  With a
        ``mark``, only the spans and counts recorded before it are used.
        """
        n, counts = mark or self.mark()
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        funcs: dict[str, dict] = {}
        layer_self: dict[str, int] = {}
        step_switches = step_visits = 0
        step_id = self.name_id.get("dynamics.step", -2)
        bands_id = self.name_id.get("analysis.toll_bands", -2)
        solve_id = self.name_id.get("equilibrium.solve", -2)
        # Nearest toll_bands ancestor, so solves per bands call are counted
        # where they happen.  Parents always precede their children.
        in_bands = [False] * n
        solves_in_bands = 0
        for i in range(n):
            nid = self.name[i]
            p = self.parent[i]
            in_bands[i] = nid == bands_id or (p >= 0 and in_bands[p])
            if nid == solve_id and p >= 0 and in_bands[p]:
                solves_in_bands += 1
            if nid == step_id:
                step_switches += self.tag[i] >> 32
                step_visits += self.tag[i] & 0xFFFFFFFF
            name = self.names[nid]
            f = funcs.setdefault(
                name, {"calls": 0, "ns": 0, "self_ns": 0, "raised": 0, "by_tag": {}}
            )
            f["calls"] += 1
            f["ns"] += dur[i]
            f["self_ns"] += dur[i] - child[i]
            tag = self.tag[i]
            if tag == TAG_RAISED:
                f["raised"] += 1
            if nid != step_id:
                entry = f["by_tag"].setdefault(tag, [0, 0])
                entry[0] += 1
                entry[1] += dur[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0) + dur[i] - child[i]
        return {
            "funcs": funcs,
            "layer_self_ns": layer_self,
            "counts": counts,
            "solves_in_bands": solves_in_bands,
            "step_switches": step_switches,
            "step_visits": step_visits,
            "spans": n,
        }
