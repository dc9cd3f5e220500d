"""Measured process: warm ordsgp's caches, then run passes of CLI calls.

Started by run.py as ``python3 body.py SPEC RESULT``.  SPEC is a JSON file
with the source directory, the environment, the command lines of one pass,
the measuring window and the trace flag; RESULT receives per-pass timings,
per-call digests, the first pass's stdout, rusage and (traced) layer
metrics.  A pass calls ``ordsgp.cli.main`` in-process once per command line.
A traced run makes two untraced passes, a traced pass and, when SPEC names
pool workers, one more untraced pass with ``ORDSGP_WORKERS`` set to them.
The first pass also fills lazily filled caches (the compatible orders of
sampled tables), so the second untraced pass and the traced pass see the
same cache state.

Every call runs under a ``SpeedSampler``, which gives the host's speed
while the call ran; run.py scales times by it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import iso_class

# A fixed pure-Python computation that uses no ordsgp code: one canonical
# form of an order-4 ordered semigroup.  It took REFERENCE_S seconds on the
# development host when that host was not slowed by other tenants.
REFERENCE = ([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
             [[i <= j for j in range(4)] for i in range(4)])
REFERENCE_S = 0.0002
SAMPLE_EVERY_S = 0.02


def cpu_seconds():
    """(CPU of this process plus its reaped children, CPU of the children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    children = kids.ru_utime + kids.ru_stime
    return own.ru_utime + own.ru_stime + children, children


class SpeedSampler:
    """Times one run of REFERENCE every SAMPLE_EVERY_S while a call runs.

    On a shared virtual machine the same code runs up to 1.7 times slower
    for seconds to minutes while other tenants load the host, and the
    share of slow time drifts from run to run.  The samples see about the
    same slowdown as the CPU-bound call they interrupt, so REFERENCE_S over
    their mean is the host's speed during the call (1.0 at reference speed).  A SIGALRM
    handler takes them in this thread between bytecodes; their time, about
    1% of the call, is reported so it can be subtracted.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        iso_class(*REFERENCE)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:
            self._sample()

    def speed(self):
        return REFERENCE_S / statistics.mean(self.samples)

    def spent_s(self):
        return sum(self.samples)


def warm_caches():
    """First-use caches any ordsgp user fills: the order-4 table catalog
    and the partial orders up to order 4."""
    from ordsgp.enumeration import all_partial_orders, enumerate_tables

    for n in range(1, 5):
        sum(1 for _ in enumerate_tables(n))
        all_partial_orders(n)


def setup_probe():
    """Body of one set-up probe process: warm the caches, then print the
    host's speed meanwhile and the seconds the samples took."""
    with SpeedSampler() as sampler:
        warm_caches()
    print(sampler.speed(), sampler.spent_s())


def run_call(cli, argv, out_file):
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    if out_file and os.path.exists(out_file):
        os.remove(out_file)
    (cpu0, kids0), t0 = cpu_seconds(), time.perf_counter()
    with SpeedSampler() as sampler:
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except Exception as exc:  # a raised error is a failed operation, not a crash
            rc, error = None, repr(exc)
    wall = time.perf_counter() - t0 - sampler.spent_s()
    cpu, kids = cpu_seconds()
    cpu -= sampler.spent_s()
    digest = hashlib.sha256(stdout.getvalue().encode())
    if out_file and os.path.exists(out_file):
        digest.update(Path(out_file).read_bytes())
    return {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu - cpu0,
        "children_cpu_s": kids - kids0,
        "speed": sampler.speed(),
        "digest": digest.hexdigest(),
        "stdout": stdout.getvalue(),
    }


def run_pass(cli, spec):
    calls = [run_call(cli, argv, spec["out_file"]) for argv in spec["calls"]]
    return {
        "wall_s": sum(c["wall_s"] for c in calls),
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "children_cpu_s": sum(c["children_cpu_s"] for c in calls),
        "scaled_wall_s": sum(c["wall_s"] * c["speed"] for c in calls),
        "scaled_cpu_s": sum(c["cpu_s"] * c["speed"] for c in calls),
        "calls": calls,
    }


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    os.environ.update(spec["env"])
    from ordsgp import cli

    warm_caches()
    passes = []
    layers = pool_pass = None
    if spec["trace"]:
        from spans import Tracer

        passes.append(run_pass(cli, spec))
        passes.append(run_pass(cli, spec))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, spec))
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        tracer.write(spec["spans_stem"])
        if spec["pool_workers"]:
            os.environ["ORDSGP_WORKERS"] = str(spec["pool_workers"])
            pool_pass = run_pass(cli, spec)
    else:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(cli, spec))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - started + typical > spec["seconds"]:
                break
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    for later in passes[1:] + ([pool_pass] if pool_pass else []):
        for call in later["calls"]:
            del call["stdout"]
    result = {
        "passes": passes,
        "layers": layers,
        "pool_pass": pool_pass,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
