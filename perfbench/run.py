"""erctopo benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload semidecide --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload semidecide --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --smoke

One process, one thread, one client: the next op starts when the previous
one has been answered and checked.  ``--trace 0`` runs the workload's op
list pass after pass and reports the end-to-end metrics, every timing
scaled to a fixed reference pace (see ``reference``); ``--trace 1`` replays
the same ops untraced and then traced and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong answer, or a digest that differs between the untraced and the
traced replay, exits nonzero without that line.  See README.md here.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()   # set-up time counts from here, imports included

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # set-ups per run: this process plus four fresh ones
TRACE_SHARE = 1 / 5        # share of --seconds the traced run replays
SMOKE_OPS = 2
REF_S = 0.0012             # pace reference: about the median time of
                           # reference() on the machine the benchmark was
                           # built on (2 shared vCPUs of a Xeon host,
                           # Python 3.11) while the host is quiet
REF_EVERY_S = 0.05         # time a burst of references this often ...
REF_BURST = 3              # ... this many each
SETUP_REFS = 15            # references timed after each set-up


def _die(message: str, code: int) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


if not (ROOT / "src" / "erctopo" / "__init__.py").is_file():
    _die(f"no erctopo sources under {ROOT / 'src'}", 2)
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path set above)
from workloads import WORKLOADS, WrongAnswer  # noqa: E402


# ---------------------------------------------------------------------------
# Pace: how fast the host runs Python right now

def reference() -> None:
    """A fixed computation on the standard library only (Fraction arithmetic
    and a small dict, like erctopo's hot paths).  Its time follows the
    speed the shared host gives this process, and no change to erctopo can
    change it."""
    s, d = Fraction(0), {}
    for i in range(1, 120):
        s = (s + Fraction(1, i)).limit_denominator(10 ** 6)
        d[i % 7] = (s.numerator % 97, i)


def time_reference(count: int) -> list[float]:
    """Times of ``count`` reference runs, with the cyclic collector off so
    that the program's heap cannot make them slower."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(count):
            t0 = time.perf_counter()
            reference()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if enabled:
            gc.enable()


def at_pace(seconds: float, refs: list[float]) -> float:
    """``seconds`` measured while the reference took ``refs``, scaled to the
    reference pace ``REF_S``."""
    return seconds * REF_S / statistics.median(refs)


# ---------------------------------------------------------------------------
# Set-up

def set_up(name: str, seed: int):
    wl = WORKLOADS[name](seed)
    wl.warmup()
    return wl


def setup_time() -> tuple[float, float]:
    """This process's set-up time so far, raw and at the reference pace of
    the moment just after it."""
    raw = time.perf_counter() - _STARTED
    return raw, at_pace(raw, time_reference(SETUP_REFS))


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter: imports, construction, fixtures
    and warm-up, as measured by the child itself, raw and at pace."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, paced = out.stdout.split()[-2:]
    return float(raw), float(paced)


# ---------------------------------------------------------------------------
# The closed loop

class Pass:
    """Ops run in order, each timed alone and checked after its timer stops.
    The workload's op list is run over and over; one run over it is a pass."""

    def __init__(self, size: int) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.texts: list[str] = []
        self.size = size
        self.pass_walls: list[float] = []   # wall time of each whole pass
        self.pass_refs: list[list[float]] = []   # reference times of each
        self.refs: list[float] = []              # ... and of the current one
        self.wall = 0.0

    def record(self, op, res, latency: float) -> None:
        try:
            text, failed = op.check(res)
        except WrongAnswer as exc:
            _die(f"wrong answer on op {len(self.latencies)} ({op.kind}): {exc}", 3)
        self.latencies.append(latency)
        self.failed += failed
        self.texts.append(text)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def digest(self, upto: int | None = None) -> str:
        h = hashlib.sha256()
        for text in self.texts[:upto]:
            h.update(text.encode())
            h.update(b"\n")
        return h.hexdigest()


def run_for(wl, seconds: float, whole_passes: bool = True,
            paced: bool = True) -> Pass:
    """Ops in order for ``seconds``.  With ``whole_passes`` the run stops at
    the pass boundary nearest to ``seconds`` (after one pass at least), so
    every op of the list is timed the same number of times; without, at the
    first op that ends past ``seconds``.  With ``paced``, a burst of
    reference runs follows an op whenever ``REF_EVERY_S`` have passed since
    the last burst, and every pass gets one at least."""
    p = Pass(wl.pass_size)
    start = pass_start = last_refs = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i and i % wl.pass_size == 0:
            if paced and not p.refs:
                p.refs += time_reference(REF_BURST)
                now = time.perf_counter()
            p.pass_walls.append(now - pass_start)
            p.pass_refs.append(p.refs)
            p.refs = []
            pass_start = now
            if whole_passes:
                elapsed = now - start
                if elapsed + elapsed / len(p.pass_walls) / 2 >= seconds:
                    break
        if not whole_passes and now - start >= seconds:
            break
        op = wl.op(i)
        t0 = time.perf_counter()
        res = op.run()
        latency = time.perf_counter() - t0
        p.record(op, res, latency)
        if paced and time.perf_counter() - last_refs >= REF_EVERY_S:
            p.refs += time_reference(REF_BURST)
            last_refs = time.perf_counter()
        i += 1
    p.wall = time.perf_counter() - start
    return p


def replay(wl, count: int, tracer=None) -> Pass:
    p = Pass(wl.pass_size)
    start = time.perf_counter()
    for i in range(count):
        op = wl.op(i)
        t0 = time.perf_counter()
        res = op.run() if tracer is None else tracer.run_op(i, op.kind, op.run)
        latency = time.perf_counter() - t0
        p.record(op, res, latency)
    p.wall = time.perf_counter() - start
    return p


# ---------------------------------------------------------------------------
# Metrics

def paced_latencies(p: Pass) -> list[float]:
    """Each op's latency at the reference pace: its time in every pass,
    scaled by the median reference time of that pass, and the median of
    those over the passes.  Without a whole pass, the raw latencies."""
    if not p.pass_refs:
        return list(p.latencies)
    scales = [REF_S / statistics.median(refs) for refs in p.pass_refs]
    return [statistics.median(p.latencies[k * p.size + j] * scale
                              for k, scale in enumerate(scales))
            for j in range(p.size)]


def raw_latencies(p: Pass) -> list[float]:
    """Each op's median raw latency over the whole passes."""
    passes = max(1, len(p.pass_walls))
    return [statistics.median(p.latencies[j:passes * p.size:p.size])
            for j in range(min(p.size, p.ops))]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: the sample
    of rank n-11 (ascending).  Below 20 samples that rank falls under the
    median, so the maximum is reported as percentile 100 instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(p: Pass, setup_s: float) -> tuple[dict, float, int]:
    paced = paced_latencies(p)
    value, pct, n = tail(paced)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(paced) / math.fsum(paced), "1/s"),
        "latency_p50_s": (statistics.median(paced), "s"),
        "latency_tail_s": (value, "s"),
        "answered_rate": (1 - p.failed / p.ops, "ratio"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }, pct, n


def print_table(name: str, seed: int, metrics: dict, notes: dict) -> None:
    print(f"workload {name} seed {seed}")
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:32s} {value:>16.6g} {unit:10s} {note}")


def print_digest(name: str, seed: int, p: Pass, label: str = "") -> None:
    pre = (p.digest(p.size) if p.ops >= p.size else "n/a")
    print(f"digest{label} {name} seed={seed} ops={p.ops} sha256={p.digest()} "
          f"first{p.size}={pre}")


def emit(p: Pass, metrics: dict) -> None:
    print(json.dumps({
        "correct": True,
        "attempted": p.ops,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Modes

def measure(name: str, seed: int, seconds: float) -> None:
    wl = set_up(name, seed)
    samples = [setup_time()]
    samples += [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    p = run_for(wl, seconds)
    metrics, pct, n = end_to_end(p, statistics.median(s for _, s in samples))
    raw = raw_latencies(p)
    paces = [statistics.median(refs) / REF_S for refs in p.pass_refs]
    at = f"at pace, median of {len(p.pass_walls)} passes"
    notes = {
        "setup_s": ("at pace, median of " + ", ".join(f"{s:.3f}" for _, s in samples)
                    + "; raw " + ", ".join(f"{r:.3f}" for r, _ in samples)),
        "ops_per_s": (f"{p.size} ops {at}, checks excluded; raw "
                      f"{len(raw) / math.fsum(raw):.4g}"),
        "latency_p50_s": f"{at}; raw {statistics.median(raw):.4g}",
        "latency_tail_s": (f"p{pct:.2f} of {n} ops " if n >= 20
                           else f"maximum of {n} ops ")
                          + f"{at}; raw {tail(raw)[0]:.4g}",
        "answered_rate": (f"fail_rate {p.failed / p.ops:.4f} "
                          f"({p.failed} of {p.ops} ended Pending on a true statement)"),
    }
    print_table(name, seed, metrics, notes)
    print(f"pace: the reference took {min(paces):.3f} to {max(paces):.3f} times "
          f"REF_S={REF_S} (median per pass)")
    print_digest(name, seed, p)
    emit(p, metrics)


def traced(name: str, seed: int, seconds: float) -> None:
    from tracing import Tracer

    plain = run_for(set_up(name, seed), seconds * TRACE_SHARE,
                    whole_passes=False, paced=False)
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    wl = set_up(name, seed)
    with_trace = replay(wl, plain.ops, tracer)
    if with_trace.digest() != plain.digest():
        _die(f"traced replay of {plain.ops} ops changed the answers", 4)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{name}-{seed}.jsonl"
    tracer.write_records(str(spans))
    metrics = tracer.metrics(with_trace.ops, with_trace.wall, plain.wall)
    print_table(name, seed, metrics, {
        "trace.overhead":
            f"{with_trace.wall:.3f}s traced / {plain.wall:.3f}s untraced"})
    print(f"spans: {len(tracer.records)} recorded ({tracer.dropped} dropped) "
          f"in {spans.relative_to(ROOT)}")
    print_digest(name, seed, plain, " untraced")
    print_digest(name, seed, with_trace, " traced")
    emit(with_trace, metrics)


def smoke() -> None:
    """A few ops per workload, untraced twice and traced once: the digests
    must agree and every metric named in BENCHMARK.json must be emitted
    with its unit.  Times nothing."""
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        _die("BENCHMARK.json names a workload the benchmark lacks", 5)
    runs = {}
    for name in WORKLOADS:
        first = replay(set_up(name, 1), SMOKE_OPS)
        again = replay(set_up(name, 1), SMOKE_OPS)
        runs[name] = first, again
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    problems = []
    for name, (first, again) in runs.items():
        with_trace = replay(set_up(name, 1), SMOKE_OPS, tracer)
        if not first.digest() == again.digest() == with_trace.digest():
            problems.append(f"{name}: digests differ across replays")
        e2e = {k: u for k, (_, u) in end_to_end(first, 1.0)[0].items()}
        layer = {k: u for k, (_, u) in tracer.metrics(2, 1.0, 1.0).items()}
        for got, want, kind in ((e2e, want_e2e, "end_to_end"),
                                (layer, want_layer, "per_layer")):
            if got != want:
                problems.append(f"{name}: {kind} names/units {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
        print(f"smoke {name}: {SMOKE_OPS} ops, digest {first.digest()[:16]}")
    if problems:
        _die("smoke failed:\n  " + "\n  ".join(problems), 5)
    print("smoke ok")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check metric names and units on a few ops; time nothing")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        smoke()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(*setup_time())
        return
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    (traced if args.trace else measure)(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
