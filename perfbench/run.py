"""ordsgp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` it runs
passes of the workload's ordsgp commands in one measured process for S
seconds, times ``setup_s`` in fresh processes before and after, and prints
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs two untraced passes and
one traced pass and prints the per-layer metrics instead.  Every output is
checked; the last stdout line is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # fresh processes timed before the workload and again after it
BODY_TIMEOUT_S = 160

SETUP_PROBE = "import sys; sys.path[:0] = [{src!r}, {here!r}]; import body; body.setup_probe()"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_version():
    """sha256 over the ordsgp sources, so stored digests and counters are
    only compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordsgp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def setup_probes():
    """Wall times, scaled to reference speed, of fresh processes that
    import ordsgp and fill its first-use caches.  No timeout: with one,
    ``subprocess`` polls the child every 50 ms and the times come out in
    50 ms steps."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout
        speed, spent = map(float, out.split())
        times.append((time.perf_counter() - t0 - spent) * speed)
    return times


def build_calls(workload, seed, workdir):
    """[argv] of one pass, plus the file the commands write, if any."""
    if workload.kind == "verify":
        return [wl.verify_argv(seed)], None
    argv = wl.enumerate_argv(workdir)
    return [argv], argv[-1]


def run_body(spec, workdir):
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "body.py"), str(spec_path), str(result_path)], cwd=ROOT
    )
    try:
        code = proc.wait(timeout=BODY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"measured process exceeded {BODY_TIMEOUT_S} s") from None
    except BaseException:  # interrupted: stop the child before leaving
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"measured process exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_first_pass(workload, seed, first, workdir):
    """(error messages, structures completed) per call of the first pass."""
    errors, structures = [], []
    for call in first["calls"]:
        errs, done = [f"exit {call['rc']} {call['error'] or ''}".strip()], 0
        if not call["error"] and call["rc"] == 0:
            try:
                if workload.kind == "verify":
                    errs, done = wl.check_verify(call["stdout"], seed)
                else:
                    errs, done = wl.check_enumerate(workdir)
            except (ValueError, KeyError, TypeError) as exc:
                errs, done = [f"unreadable output: {exc!r}"], 0
        errors.append(errs)
        structures.append(done)
    return errors, structures


def remember(path, key, value):
    """The value stored under key in a JSON file of the checkout; stores
    value first when the key is new."""
    store = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key not in store:
        store[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, sort_keys=True, indent=1), encoding="utf-8")
        os.replace(tmp, path)
    return store[key]


def failures(workload, seed, calls, result, workdir, run_key):
    """(attempted, failed, structures completed, messages) over every call
    of every pass.

    The first pass is checked in full and against the digests an earlier
    run of the same code with this seed stored; every later pass, and the
    process-pool pass of a traced catalog-verify run, must print and write
    byte for byte the same.  A call completes the structures its checked
    output reports, and none when it fails.
    """
    first = result["passes"][0]["calls"]
    per_call, structures = check_first_pass(workload, seed, result["passes"][0], workdir)
    digests = [c["digest"] for c in first]
    stored = remember(OUT / "digests.json", run_key, digests)
    for i, (then, now) in enumerate(zip(stored, digests)):
        if then != now:
            per_call[i].append("output differs from an earlier run of this code with this seed")
    passes = [(f"pass {n}", p, True) for n, p in enumerate(result["passes"])]
    if result["pool_pass"]:
        passes.append((f"{wl.POOL_WORKERS}-worker pass", result["pool_pass"], False))
    attempted, failed, done, messages = 0, 0, 0, []
    for label, p, timed in passes:
        for i, call in enumerate(p["calls"]):
            attempted += 1
            errs = list(per_call[i])
            if call["rc"] != 0 or call["digest"] != first[i]["digest"]:
                errs.append(f"exit {call['rc']} or output differs from pass 0")
            if errs:
                failed += 1
                messages.append(f"{label} {' '.join(calls[i][:2])} #{i}: {'; '.join(errs)}")
            elif timed:
                done += structures[i]
    return attempted, failed, done, messages


def end_to_end(result, setup_s, done):
    passes = result["passes"]
    walls = [p["scaled_wall_s"] for p in passes]
    return {
        "setup_s": setup_s,
        "scaled_wall_s": statistics.median(walls),
        "scaled_cpu_s": statistics.median(p["scaled_cpu_s"] for p in passes),
        "structures_per_scaled_s": done / sum(walls),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, run_key):
    """Layer metrics plus (whether the counts repeat an earlier run of the
    same code with the same seed).  The second untraced pass runs in the
    cache state of the traced pass, so it is the base of the overhead."""
    _, untraced, traced = result["passes"]
    layers = dict(result["layers"])
    pool = result["pool_pass"]
    if pool:
        layers["harness.worker_utilization"] = pool["children_cpu_s"] / (
            wl.POOL_WORKERS * pool["wall_s"]
        )
    else:
        layers["harness.worker_utilization"] = untraced["cpu_s"] / untraced["wall_s"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    counts = {k: v for k, v in layers.items() if isinstance(v, int)}
    stored = remember(OUT / "counts.json", run_key, counts)
    return layers, stored == counts


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so the measured process is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "ordsgp" / "__init__.py").is_file():
        print(f"no ordsgp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    workload = wl.WORKLOADS[args.workload]
    run_key = f"{workload.name}:{args.seed}:{code_version()}"
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        probes = [] if args.trace else setup_probes()
        calls, out_file = build_calls(workload, args.seed, workdir)
        spec = {
            "src": str(SRC),
            "env": {"ORDSGP_WORKERS": "1"},
            "calls": calls,
            "out_file": out_file,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "pool_workers": wl.POOL_WORKERS if workload.kind == "verify" else 0,
            "spans_stem": str(OUT / f"spans-{workload.name}"),
        }
        result = run_body(spec, workdir)
        # Other load on the host only ever slows a probe down, and it comes
        # and goes over seconds: the least time of probes taken a workload
        # apart is the steadiest estimate.
        setup_s = None if args.trace else min(probes + setup_probes())
        attempted, failed, done, messages = failures(
            workload, args.seed, calls, result, workdir, run_key
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, repeatable = per_layer(result, run_key)
        attempted += 1
        if not repeatable:
            failed += 1
            messages.append("work counters differ from an earlier traced run of this code with this seed")
    else:
        values = end_to_end(result, setup_s, done)
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(
        f"{workload.name} seed {args.seed}: passes of "
        f"{', '.join('%.2f' % p['wall_s'] for p in result['passes'])} s wall at host speed "
        f"{', '.join('%.2f' % p['calls'][0]['speed'] for p in result['passes'])}, "
        f"{failed}/{attempted} failed (failed_ratio {failed / attempted:.4f})",
        file=sys.stderr,
    )
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:36} {values[m['name']]:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
