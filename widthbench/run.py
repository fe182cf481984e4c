"""Width benchmark: one closed-loop workload per run, checked answers,
one JSON result line.

    python3 widthbench/run.py --workload service-miss --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from
``src/``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps the program's public functions,
alternates traced and untraced operations, prints the per-layer metrics
and writes the spans to ``widthbench/out/``.  See widthbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STARTED = time.monotonic()

SETUP_PROBES = 5
# Stop measuring this long after process start whatever the count, so a
# run always ends well inside its 180-second limit.
LOOP_DEADLINE_S = 120.0


def hash_seed(seed: int) -> str:
    """The PYTHONHASHSEED pinned for every process of a run (Python
    accepts 0..2**32-1)."""
    return str((1000 + seed) % 2**32)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: time one set-up, then exit")
    parser.add_argument("--reference-imports", action="store_true",
                        help="internal: print what a bare service loads, then exit")
    return parser.parse_args(argv)


def pin_environment(args) -> None:
    """Re-execute under the pinned hash seed with ``src`` importable;
    every process started later inherits both."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: no program to measure at {SRC}/repro")
    if os.environ.get("PYTHONHASHSEED") == hash_seed(args.seed):
        sys.path[:0] = [SRC, HERE]
        return
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(args.seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def third_party_modules() -> set[str]:
    """Loaded modules outside the standard library and this directory."""
    own = {"run", "workloads", "inputs", "oracles", "tracing", "__main__"}
    return {
        name for name in sys.modules
        if name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] not in own
        and not name.startswith("_")
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


# A fixed 10-vertex hypergraph whose tw solve races the portfolio.
REFERENCE_EDGES = {
    f"e{i}": [f"v{i}", f"v{(i + 1) % 10}", f"v{(i + 3) % 10}"] for i in range(10)
}


async def reference_imports() -> None:
    """Print the modules a default service loads on its own: set-up, one
    client and one tw solve, with no file of the benchmark imported."""
    from repro.service import DecompositionService, ServiceClient, ServiceConfig

    service = DecompositionService(ServiceConfig())
    await service.start()
    try:
        client = await ServiceClient.connect(port=service.port)
        response = await client.solve({"edges": REFERENCE_EDGES}, metric="tw")
        await client.close()
    finally:
        await service.close()
    if response.get("status") != "ok":
        raise RuntimeError(f"reference solve failed: {response}")
    print(json.dumps(sorted(third_party_modules())))


def service_modules(args) -> set[str]:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--reference-imports",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, cwd=ROOT, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"reference-imports process failed: {done.stderr[-500:]}")
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


async def probe(workload) -> None:
    spec = json.loads(sys.stdin.read() or "{}")
    state = await workload.setup(spec)
    print("ready", flush=True)
    await workload.teardown(state)


def time_setup(args, spec: dict) -> float:
    """Median wall time, over fresh processes, from process start until
    the workload is ready for its first operation."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            process.stdin.write(json.dumps(spec))
            process.stdin.close()
            line = process.stdout.readline()
            times.append(time.perf_counter() - started)
            process.stdout.read()
            if process.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line.strip()!r}")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    return statistics.median(times)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


def rusage_cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


async def measure(workload, args, spec: dict, tracer) -> dict:
    """The closed loop.  CPU and memory are read when it ends, before
    ``workload.finish`` and the set-up probes start processes of their
    own."""
    from workloads import min_ops

    state = await workload.setup(spec)
    problems = workload.adopt(spec, state)
    loaded = {"after set-up": third_party_modules()}
    if tracer is not None:
        workload.wrap(tracer)
    records = []
    failures = []
    side = 0.0      # wall seconds spent generating and checking
    side_cpu = 0.0  # this process's CPU seconds spent on the same
    cpu0 = rusage_cpu()
    loop_start = time.perf_counter()
    try:
        while True:
            i = len(records)
            traced = tracer is not None and i % 2 == 1
            mark, mark_cpu = time.perf_counter(), time.process_time()
            if traced and workload.paired:
                # The traced twin of the previous, untraced operation.
                prepared = workload.again(previous)
            else:
                prepared = workload.prepare(i)
            side += time.perf_counter() - mark
            side_cpu += time.process_time() - mark_cpu
            started = time.perf_counter()
            try:
                if traced:
                    with tracer.operation():
                        result = await workload.op(state, prepared)
                else:
                    result = await workload.op(state, prepared)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                result = None
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            record = {"traced": traced, "latency_ms": (time.perf_counter() - started) * 1000.0}
            records.append(record)
            mark, mark_cpu = time.perf_counter(), time.process_time()
            if result is not None:
                record["ok"] = True
                record["server_ms"] = workload.server_ms(result)
                record["kept"] = workload.keep(result)
                problems += [f"op {i}: {p}" for p in workload.check(prepared, result)]
            previous = prepared
            del prepared, result
            side += time.perf_counter() - mark
            side_cpu += time.process_time() - mark_cpu
            busy = time.perf_counter() - loop_start - side
            if busy >= args.seconds and len(records) >= min_ops(workload.name):
                break
            if time.monotonic() - STARTED > LOOP_DEADLINE_S:
                break
        busy = time.perf_counter() - loop_start - side
        cpu = rusage_cpu() - cpu0 - side_cpu
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        loaded["after the loop"] = third_party_modules()
        problems += workload.finish(state)
    finally:
        await workload.teardown(state)
    return {"records": records, "failures": failures, "problems": problems,
            "busy": busy, "cpu": cpu, "peak_mb": peak_kb / 1024.0, "loaded": loaded}


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def end_to_end(workload, run: dict, setup_s: float) -> dict:
    from workloads import TAIL

    latencies = [r["latency_ms"] for r in run["records"] if r.get("ok")]
    ops = len(run["records"])
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, TAIL[workload.name]),
        "ops_per_s": ops / run["busy"],
        "cpu_ms_per_op": run["cpu"] * 1000.0 / ops,
        "peak_rss_mb": run["peak_mb"],
    }


def per_layer(workload, run: dict, tracer) -> dict:
    traced = [r for r in run["records"] if r["traced"] and r.get("ok")]
    plain = [r["latency_ms"] for r in run["records"] if not r["traced"] and r.get("ok")]
    values = workload.layers(tracer, traced)
    ops = len(traced)
    values["op.self_ms"] = tracer.self_times().get("op", 0.0) / ops if ops else 0.0
    values["trace.spans_per_op"] = len(tracer.spans) / ops if ops else 0.0
    if traced and plain:
        base = statistics.median(plain)
        over = statistics.median([r["latency_ms"] for r in traced]) - base
        values["trace.overhead_ms"] = over
        values["trace.overhead_pct"] = 100.0 * over / base
    return values


def main() -> int:
    args = parse_args(sys.argv[1:])
    pin_environment(args)
    if args.reference_imports:
        asyncio.run(reference_imports())
        return 0

    import oracles
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.probe:
        asyncio.run(probe(workload))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = [f"oracle self-test: {p}" for p in oracles.self_test()]
    spec = workload.spec()
    tracer = tracing.Tracer() if args.trace else None
    run = asyncio.run(measure(workload, args, spec, tracer))
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    problems += run["problems"]
    if workload.checks_imports:
        # Workers are forked, so an import of the host's own would
        # hide the import cost a request pays.
        allowed = service_modules(args)
        for when, modules in run["loaded"].items():
            if modules - allowed:
                problems.append(f"host imports, {when}, what the service does not: "
                                f"{sorted(modules - allowed)}")
    setup_s = None if args.trace else time_setup(args, spec)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"latencies-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump([r["latency_ms"] for r in run["records"]], handle)
    for line in (problems + run["failures"])[:20]:
        print(line, file=sys.stderr)

    if args.trace:
        values = per_layer(workload, run, tracer)
        names = declared["per_layer"]
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        values = end_to_end(workload, run, setup_s)
        names = declared["end_to_end"]
    unknown = set(values) - {m["name"] for m in names}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run["records"]),
        "failed": len(run["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
