"""One benchmark process: set up, build the inputs, time the ops, check.

Started by run.py in a fresh interpreter with one-thread math libraries.
It imports erstoll from the checkout's ``src`` directory only, and
writes its result as JSON to the ``--result`` file.

Every pass draws a fresh pool of inputs from ``(workload, seed, pass)``,
and the warm-up draws its own, so no timed op repeats an input seen
earlier in the process: a cache keyed on the input cannot hit.  The
number of passes follows from ``--seconds`` and the workload's
``PASS_MS`` alone, so a seed always runs the same ops, and the same ops
fail.

Op times are taken at the reference host speed, with the raw times kept
as well (see calib.py).

    --setup-only   time the set-up and stop (a set-up sample)
    --trace 1      untraced passes alternate with traced ones for the
                   per-layer numbers (see tracing.py)
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100  # op_p90_ms needs at least ten ops beyond it
WARMUP_S = 1.0


def timed_setup():
    """Seconds from before ``import erstoll`` to after loading table1.cfg."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import erstoll  # noqa: F401
    from erstoll import harness

    t1 = time.perf_counter()
    harness.resolve_scenario("table1.cfg")
    t2 = time.perf_counter()
    if not Path(erstoll.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"erstoll imported from {erstoll.__file__}, not from {SRC}")
    return {"setup_s": t2 - t0, "resolve_ms": (t2 - t1) * 1e3}


def run_pass(workload, pool, clock, on_op):
    """One timed trip over the pool; each op's time goes to ``clock``."""
    timer = time.perf_counter_ns
    for idx, op in enumerate(pool):
        t = timer()
        try:
            out, exc = workload.run(op.arg), None
        except Exception as e:  # an op that raises is a failed op
            out, exc = None, e
        dt = timer() - t
        on_op(idx, op, out, exc)
        clock.record(dt)


def n_passes(cls, seconds, size, tiny):
    """Passes for a run of about ``seconds`` of op time at the reference
    speed, and at least MIN_OPS ops; fixed by the arguments alone."""
    if tiny:
        return 1
    return max(1, round(seconds * 1e3 / cls.PASS_MS), -(-MIN_OPS // size))


class Checker:
    """Checks every op's output and records its digest and input properties.

    A workload's ``check`` may add properties it measured (such as the
    equilibrium regime) to ``op.props``.  Digests go straight to the
    ``digests`` file, so they do not add to the process's memory.
    """

    def __init__(self, workload, known, digests_path):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.known = known
        self.checked = 0
        self.failed = 0
        self.by_kind = {}  # kind -> [count, first detail]
        self.props = {}  # property -> {value: count}
        self.pass_index = 0
        self._first_pass = hashlib.sha256()
        self._digests = open(digests_path, "w")
        self._digests.write("pass\tindex\tsha256\n")

    def __call__(self, idx, op, out, exc):
        if exc is not None:
            text = f"raised {type(exc).__name__}: {exc}"
            failure = (self.workloads.crash_kind(exc), str(exc))
        else:
            text = self.workload.text(op.arg, out)
            try:
                failure = self.workload.check(op, out)
            except Exception as e:  # a check that cannot finish fails the op
                failure = (f"check raised {type(e).__name__}", str(e))
        sha = self.workloads.digest(text)
        self._digests.write(f"{self.pass_index}\t{idx}\t{sha}\n")
        if self.pass_index == 0:
            self._first_pass.update(sha.encode())
        self.checked += 1
        if failure is not None:
            self.failed += 1
            entry = self.by_kind.setdefault(failure[0], [0, failure[1]])
            entry[0] += 1
        for key, value in op.props.items():
            counts = self.props.setdefault(key, {})
            counts[value] = counts.get(value, 0) + 1

    def shares(self):
        """Share of the checked ops per property value (numbers: the mean)."""
        out = {}
        for key, counts in sorted(self.props.items()):
            total = sum(counts.values())
            if all(isinstance(v, (bool, int, float)) for v in counts):
                out[key] = sum(float(v) * c for v, c in counts.items()) / total
            else:
                out[key] = {str(v): c / total for v, c in sorted(counts.items(), key=str)}
        return out

    def summary(self, attempted):
        self._digests.close()
        unknown = sorted(k for k in self.by_kind if k not in self.known)
        return {
            "checked": self.checked,
            "failed": self.failed,
            "failures_by_kind": {
                k: {"count": c, "known_defect": k in self.known, "first": first}
                for k, (c, first) in sorted(self.by_kind.items())
            },
            "unknown_failure_kinds": unknown,
            "correct": self.checked == attempted and not unknown,
            "first_pass_sha256": self._first_pass.hexdigest(),
        }


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    setup = timed_setup()
    if args.setup_only:
        Path(args.result).write_text(json.dumps(setup))
        return 0

    import workloads
    from calib import CALIB_REF_NS, OpClock, calibrate

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.out_dir) if cls is workloads.SweepGrid else cls()
    size = cls.POOL_SIZE[1 if args.tiny else 0]

    def pool(label):
        return workload.pool(random.Random(f"{args.workload}:{args.seed}:{label}"), size)

    digests_path = Path(args.out_dir) / f"{args.workload}-seed{args.seed}-trace{args.trace}-sha256.tsv"
    checker = Checker(workload, workloads.KNOWN_DEFECTS[args.workload], digests_path)

    # Warm-up on inputs of its own: lazy imports, the allocator and the
    # calibration kernel settle.
    warm_until = time.perf_counter() + (0 if args.tiny else WARMUP_S)
    for op in pool("warm-up"):
        try:
            workload.run(op.arg)
        except Exception:
            pass
        calibrate()
        if time.perf_counter() >= warm_until:
            break

    # The imported modules live for the whole run; freezing them keeps
    # full collections inside an op from also walking them.
    gc.collect()
    gc.freeze()

    passes = n_passes(cls, args.seconds, size, args.tiny)
    result = {"workload": args.workload, "seed": args.seed, "pool": size}
    result["setup"] = setup
    result["env"] = environment()
    clock = OpClock()

    if args.trace == 0:
        for k in range(passes):
            checker.pass_index = k
            run_pass(workload, pool(k), clock, checker)
    else:
        import tracing

        tracer = tracing.Tracer()

        def traced_op(idx, op, out, exc):
            tracer.on = False
            checker(idx, op, out, exc)
            tracer.on = True

        # Untraced passes run erstoll's own functions; traced passes run
        # them wrapped.  The two alternate, so the overhead estimate sees
        # the same machine speed on both sides.  Counts come from the
        # first traced pass, whose inputs depend on the seed alone.
        passes += passes % 2
        first_mark = None
        for k in range(passes):
            checker.pass_index = k
            if k % 2 == 0:
                run_pass(workload, pool(k), clock, checker)
            else:
                tracer.install()
                tracer.on = True
                run_pass(workload, pool(k), clock, traced_op)
                tracer.on = False
                tracer.uninstall()
                first_mark = first_mark or tracer.mark()
            clock.close()  # a pass's own ticks bound its ops
        spans_path = Path(args.out_dir) / f"{args.workload}-seed{args.seed}-spans.tsv"
        tracer.write(spans_path)
        norm = [
            sum(clock.normalized(k * size, (k + 1) * size)) for k in range(passes)
        ]
        result["trace"] = tracer.summarize()
        result["trace"]["first_pass"] = tracer.summarize(first_mark)
        result["trace"]["untraced_ns_per_op"] = sum(norm[0::2]) / (passes // 2 * size)
        result["trace"]["traced_ns_per_op"] = sum(norm[1::2]) / (passes // 2 * size)
        result["trace"]["traced_ops"] = passes // 2 * size
        result["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    clock.close()

    attempted = passes * size
    result["passes"] = passes
    result["latencies_ns"] = clock.normalized()
    result["speed_factor"] = sum(clock.raw) / sum(result["latencies_ns"])
    result["raw_latencies_ns"] = clock.raw
    result["ticks_ns"] = clock.ticks
    result["tick_segment"] = clock.segment
    result["calib_ref_ns"] = CALIB_REF_NS
    result["attempted"] = attempted
    result["check"] = checker.summary(attempted)
    result["check"]["digests_file"] = str(digests_path.relative_to(ROOT))
    result["shares"] = checker.shares()
    result["failed"] = checker.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
