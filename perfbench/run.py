"""Time-to-verdict benchmark for quantcat.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; quantcat is imported from `src/`.
With `--trace 0` every request is a fresh `python -m quantcat.cli` child,
run one at a time (a closed loop with one client) for whole passes over
the workload until `--seconds` is used up.  It reports end-to-end
metrics as medians and percentiles over every pass of the run.  With
`--trace 1` the request lists of every workload run in process, untraced
and then traced, followed by the robustness probes; it reports per-layer
metrics.  The last stdout line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REQUEST_TIMEOUT_S = 150.0
SETUP_SAMPLES = 9     # at least this many set-up samples per run
SETUP_PER_PASS = 2
TRACEBACK = b"Traceback (most recent call last)"
CALIBRATION_STEPS = 140_000
# the traced run covers every workload, so every layer reports a figure
TRACE_CORPUS = workloads.WORKLOADS


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args, timeout_s):
    """Run `python args...` in ROOT; time it from spawn to exit.

    The child is killed when `timeout_s` passes.  Its max RSS comes from
    wait4, so it is this child's alone.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                done = select.select([pidfd], [], [], timeout_s)[0]
            finally:
                os.close(pidfd)
            if not done:
                proc.kill()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(seconds, usage.ru_maxrss / 1024, proc.returncode,
                       out.read(), err.read(), not done)


def judge(req, outcome, previous):
    """A failure reason for one timed request, or None."""
    if outcome.timed_out:
        return "harness timeout"
    if TRACEBACK in outcome.stderr:
        return "traceback on stderr"
    reason = req.check(outcome.code, outcome.stdout)
    if reason:
        return reason
    if previous is not None and previous != outcome.stdout:
        return "report differs from the previous pass"
    return None


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def import_seconds():
    """Time for a fresh interpreter to finish `import quantcat.cli`."""
    o = spawn(["-c", "import quantcat.cli"], REQUEST_TIMEOUT_S)
    if o.code != 0:
        raise SystemExit(f"cannot import quantcat.cli:\n{o.stderr.decode()}")
    return o.seconds


def calibration_seconds():
    """A fixed pure-Python Fraction/dict loop, to tell host drift apart."""
    t0 = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(CALIBRATION_STEPS):
        f = Fraction(i % 997, 1 + i % 89)
        table[f] = table.get(f, 0) + 1
        acc += f
    if acc <= 0 or len(table) < 1000:
        raise AssertionError("calibration loop did no work")
    return time.perf_counter() - t0


def provenance():
    digest = hashlib.sha256()
    for path in sorted((SRC / "quantcat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "host": platform.node(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest()}


def materialise(workload):
    for rel, doc in workload.files.items():
        (ROOT / rel).write_text(json.dumps(doc, indent=1))


def timed_passes(workload, seconds):
    """Closed-loop passes until `seconds` is used up; at least one pass.

    A pass runs every request once and is timed as a whole.  Set-up
    samples are taken before each pass, so that they span the run rather
    than one moment of it.  Returns the pass walls, each pass's largest
    max-RSS, every request's times, the set-up times and failure reasons.
    """
    walls, rss, setups, failures, previous = [], [], [], [], {}
    times = {req.name: [] for req in workload.requests}

    import_seconds()  # compiles bytecode once
    t_start = time.perf_counter()
    while True:
        setups += [import_seconds() for _ in range(SETUP_PER_PASS)]
        t0 = time.perf_counter()
        outcomes = [spawn(["-m", "quantcat.cli", *req.argv], REQUEST_TIMEOUT_S)
                    for req in workload.requests]
        walls.append(time.perf_counter() - t0)
        rss.append(max(o.rss_mb for o in outcomes))
        for req, o in zip(workload.requests, outcomes):
            reason = judge(req, o, previous.get(req.name))
            if reason:
                failures.append(f"pass {len(walls) - 1}: {req.name}: {reason}")
            previous[req.name] = o.stdout
            times[req.name].append(o.seconds)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            setups += [import_seconds() for _ in range(SETUP_SAMPLES - len(setups))]
            return walls, rss, times, setups, failures


def run_probes(probes):
    """Robustness probes: the expected exit code, no traceback, in time."""
    failures = []
    for p in probes:
        o = spawn(["-m", "quantcat.cli", *p.argv], p.timeout_s)
        if o.timed_out:
            failures.append(f"probe {p.name}: still running after {p.timeout_s} s")
        elif TRACEBACK in o.stderr:
            failures.append(f"probe {p.name}: traceback, exit {o.code}")
        elif o.code != p.expect_exit:
            failures.append(f"probe {p.name}: exit {o.code}, want {p.expect_exit}")
    return failures


def end_to_end(workload, seconds):
    """The end-to-end metrics of one run: medians over the whole run.

    `req_p50_s` and `req_p90_s` are percentiles of every timed request of
    the run, pooled across the workload's requests and passes.
    """
    walls, rss, times, setups, failures = timed_passes(workload, seconds)
    pooled = [t for ts in times.values() for t in ts]
    values = {"wall_s": statistics.median(walls),
              "req_p50_s": percentile(pooled, 0.5),
              "req_p90_s": percentile(pooled, 0.9),
              "peak_rss_mb": statistics.median(rss),
              "setup_s": statistics.median(setups)}
    metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
               for k, v in values.items()}
    samples = {"passes": len(walls), "requests": len(pooled), "setup": len(setups)}
    return metrics, len(pooled), failures, samples


def layer_value(values, name):
    if name in values:
        return values[name]
    if name.endswith((".calls", ".self_s")):
        return 0  # a traced function that no request reached
    raise KeyError(f"the traced run does not measure {name}")


def per_layer(corpus, spans_path):
    import tracing

    requests = [r for w in corpus for r in w.requests]
    probes = [p for w in corpus for p in w.probes]
    values, failures, spans = tracing.layer_metrics(SRC, requests, spans_path)
    probe_failures = run_probes(probes)
    values["failed_ratio"] = ((len(failures) + len(probe_failures))
                              / (len(requests) + len(probes)))
    values["host.calibration_s"] = calibration_seconds()
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: {"value": layer_value(values, m["name"]), "unit": m["unit"]}
               for m in wanted}
    samples = {"requests": len(requests), "probes": len(probes), "spans": spans,
               "probe_failures": probe_failures}
    return metrics, len(requests), failures, samples


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "quantcat" / "cli.py").is_file():
        print(f"no quantcat sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def build(name):
        w = workloads.build(name, args.seed, f"{OUT.name}/{name}-{args.seed}.json")
        materialise(w)
        return w

    if args.trace:
        metrics, attempted, failures, samples = per_layer(
            [build(n) for n in TRACE_CORPUS], OUT / "spans.json")
    else:
        metrics, attempted, failures, samples = end_to_end(build(args.workload), args.seconds)
        samples["calibration_s"] = calibration_seconds()
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    for f in failures:
        print("# failed " + f)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
