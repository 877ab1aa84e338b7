"""SeGShare benchmark: one command, three workloads, two clocks.

Run from the root of a checkout::

    python3 segbench/run.py --workload team_share --seed 1 --seconds 25 --trace 0

It deploys SeGShare from ``src/`` of the same checkout, runs one seeded
workload (see :mod:`segbench.workloads`), checks every byte it reads
back, and prints a report followed, on the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Every latency is given on
two clocks: ``cpu_*`` is process CPU time of the Python implementation
(the program is one thread over in-memory stores and never blocks, so
its CPU time is its cost), put at a reference machine speed by
:mod:`segbench.speed`; ``model_*`` is virtual time from the calibrated
Azure cost model of ``repro.netsim`` (exactly repeatable for a seed).

``--trace 1`` reports the per-layer ledger: it runs the schedule
untraced, then again on a fresh deployment with every layer's public
methods wrapped (:mod:`segbench.tracer`), and checks that the traced
run's modelled latencies equal the untraced ones exactly and that every
request's root span covers exactly the op's modelled latency and at
least its timed CPU (its layers' self times plus the residual add up to
the root by definition).

Exit status: 0 on a completed run, 1 when a read returned wrong bytes
or the ledger failed its checks, 2 when the program cannot be imported
(for instance, when ``src/`` is missing; nothing is printed then).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A traced run makes two passes over one schedule, untraced then traced;
#: the schedule is sized for this share of ``--seconds`` per pass.
TRACE_PASS_SHARE = 0.35


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no SeGShare sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- end-to-end metrics ---------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_ops_per_s": "ops/s",
    "model_ops_per_s": "ops/s",
    "cpu_read_p50_ms": "ms",
    "cpu_read_p95_ms": "ms",
    "cpu_write_p50_ms": "ms",
    "cpu_write_p95_ms": "ms",
    "cpu_admin_p50_ms": "ms",
    "cpu_admin_p95_ms": "ms",
    "model_read_p50_ms": "ms",
    "model_read_p95_ms": "ms",
    "model_write_p50_ms": "ms",
    "model_write_p95_ms": "ms",
    "model_admin_p50_ms": "ms",
}


def end_to_end(records: list, makespan_s: float, probe=None) -> dict[str, float]:
    """Throughput and per-class latency percentiles of completed ops.

    With a ``probe``, each op's CPU time is put at the reference machine
    speed (see :mod:`segbench.speed`).
    """
    ok = [r for r in records if r.outcome == "ok"]
    cpu = {
        id(r): r.cpu_ns * (probe.factor_at(r.cpu_start_ns) if probe else 1.0) for r in records
    }
    cpu_s = sum(cpu.values()) / 1e9
    out = {
        "cpu_ops_per_s": len(ok) / cpu_s if cpu_s > 0 else 0.0,
        "model_ops_per_s": len(ok) / makespan_s if makespan_s > 0 else 0.0,
    }
    for cls in ("read", "write", "admin"):
        cpu_ms = [cpu[id(r)] / 1e6 for r in ok if r.cls == cls]
        model_ms = [r.model_s * 1e3 for r in ok if r.cls == cls]
        for q in (50, 95):
            out[f"cpu_{cls}_p{q}_ms"] = percentile(cpu_ms, q)
            if cls != "admin" or q == 50:
                out[f"model_{cls}_p{q}_ms"] = percentile(model_ms, q)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- counters -------------------------------------------------------------------------


def snapshot(world) -> dict[str, float]:
    """Cumulative counters of a deployment, flattened (``stats()`` and host side)."""
    flat: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        flat[name] = flat.get(name, 0) + value

    add("sgx.ecalls", sum(server.handle.calls for server in world.servers))
    routed: dict[str, int] = {}
    for server in world.servers:
        stats = server.stats()
        sw = stats["switchless"]
        add("sgx.switchless_fast", sw["fast"])
        add("sgx.switchless_calls", sw["fast"] + sw["fallback"])
        add("sgx.worker_wait_model_s", sw["worker_wait_s"])
        add("authz.membership_updates", stats["authz"]["membership_updates"])
        add("locks.contended", stats["locks"]["contended"])
        add("locks.acquisitions", stats["locks"]["acquisitions"])
        add("locks.wait_model_s", stats["locks"]["wait_seconds"])
        add("cache.hits", stats["cache"]["hits"])
        add("cache.lookups", stats["cache"]["hits"] + stats["cache"]["misses"])
        add("cache.evictions", stats["cache"]["evictions"])
        for guard in ("rollback_guard", "group_guard"):
            for key in ("verifies", "node_saves", "anchor_writes"):
                add(f"rollback.{key}", stats.get(guard, {}).get(key, 0))
        add("engine.commits", stats["engine"]["commits"])
        add("engine.aborts", stats["engine"]["aborts"])
        group = stats.get("group_commit", {})
        add("engine.epoch_members", group.get("members_total", 0))
        add("engine.epochs", group.get("epochs", 0))
        coherence = stats.get("coherence", {})
        add("coherence.invalidations", coherence.get("invalidations_applied", 0))
        add("coherence.full_discards", coherence.get("full_discards", 0))
        flat["epc.peak_bytes"] = max(flat.get("epc.peak_bytes", 0), stats["epc"]["peak"])
        if "cluster" in stats:
            routed = stats["cluster"]["routed_by_member"]
    for member, count in routed.items():
        flat[f"cluster.routed.{member}"] = count
    accounts = world.clock.accounts()
    add("engine.commit_wait_model_s", accounts.get("commit-wait", 0.0))
    add("counters.wait_model_s", accounts.get("counter-wait", 0.0))
    add("netsim.bytes", sum(link.bytes_up + link.bytes_down for link in world.links))
    add(
        "tls.records",
        sum(
            tls._session.records_sent + tls._session.records_received
            for tls in world.tls_clients
        ),
    )
    return flat


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(before: dict, after: dict, world, run) -> dict[str, float]:
    """Measured-phase deltas under their flat names, ratios with their bases."""
    d = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    routed = {k: v for k, v in d.items() if k.startswith("cluster.routed.")}
    stored = sum(backend.total_bytes() for backend in world.backends)
    live = sum(size for _, size in world.expected.values())
    out = {
        "tls.records": d["tls.records"],
        "netsim.bytes": d["netsim.bytes"],
        "sgx.ecalls": d["sgx.ecalls"],
        "sgx.switchless_calls": d["sgx.switchless_calls"],
        "sgx.switchless_fast_share": _ratio(d["sgx.switchless_fast"], d["sgx.switchless_calls"]),
        "sgx.worker_wait_model_s": d["sgx.worker_wait_model_s"],
        "authz.membership_updates": d["authz.membership_updates"],
        "locks.acquisitions": d["locks.acquisitions"],
        "locks.contended": d["locks.contended"],
        "locks.wait_model_s": d["locks.wait_model_s"],
        "cache.lookups": d["cache.lookups"],
        "cache.hit_rate": _ratio(d["cache.hits"], d["cache.lookups"]),
        "cache.evictions": d["cache.evictions"],
        "rollback.verifies": d["rollback.verifies"],
        "rollback.node_saves": d["rollback.node_saves"],
        "rollback.anchor_writes": d["rollback.anchor_writes"],
        "engine.commits": d["engine.commits"],
        "engine.aborts": d["engine.aborts"],
        "engine.epochs": d["engine.epochs"],
        "engine.members_per_epoch": _ratio(d["engine.epoch_members"], d["engine.epochs"]),
        "engine.commit_wait_model_s": d["engine.commit_wait_model_s"],
        "counters.wait_model_s": d["counters.wait_model_s"],
        "store.user_bytes_written": run.user_bytes_written,
        "store.user_bytes_stored": live,
        "store.bytes_stored_per_user_byte": _ratio(stored, live),
        "cluster.requests_routed": sum(routed.values()),
        "cluster.route_share_max": _ratio(max(routed.values(), default=0), sum(routed.values())),
        "coherence.invalidations": d["coherence.invalidations"],
        "coherence.full_discards": d["coherence.full_discards"],
        "epc.peak_bytes": after["epc.peak_bytes"],
    }
    return out


def trace_metrics(
    tracer, layers, untraced_cpu_ns: float, traced_cpu_ns: float, user_bytes: int, factor: float
) -> dict:
    """The per-layer ledger; CPU self times are put at reference speed by ``factor``."""
    out: dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        out[f"{layer}.cpu_self_s"] = tracer.cpu_self_ns.get(layer, 0) * factor / 1e9
        out[f"{layer}.model_self_s"] = tracer.model_self_s.get(layer, 0.0)
    names = tracer.counts
    out["journal.records"] = names.get("journal.record", 0)
    out["counters.increments"] = names.get("counters.increment", 0)
    out["store.gets"] = names.get("store.get", 0)
    out["store.puts"] = names.get("store.put", 0)
    out["store.bytes_written_per_user_byte"] = _ratio(tracer.bytes.get("store", 0), user_bytes)
    out["pae.bytes"] = tracer.bytes.get("pae", 0)
    out["protected_fs.bytes"] = tracer.bytes.get("protected_fs", 0)
    out["cluster.quiesce_ecalls"] = names.get("sgx.call:group_commit_quiesce", 0)
    out["residual.cpu_s"] = tracer.residual_cpu_ns * factor / 1e9
    out["residual.model_s"] = tracer.residual_model_s
    out["trace.requests"] = tracer.requests
    out["trace.detached_model_s"] = tracer.detached_model_s
    out["trace.overhead_cpu_frac"] = _ratio(traced_cpu_ns - untraced_cpu_ns, untraced_cpu_ns)
    return out


# -- one run --------------------------------------------------------------------------


class Outcome:
    """Everything one run measured, before it is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        #: Failed checks of the traced run's ledger.
        self.ledger_errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.report: list[str] = []

    def count(self, records: list, phase: str) -> None:
        self.attempted += len(records)
        for record in records:
            if record.outcome != "ok":
                self.failed += 1
                self.wrong += record.outcome == "wrong"
                if len(self.problems) < 10:
                    self.problems.append(f"{phase} {record.cls}: {record.outcome} {record.detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.ledger_errors


#: A fresh interpreter doing what this process did before its first
#: build: start, and import the benchmark and the program.
STARTUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); from segbench import run; "
    "run._import_program(); import segbench.workloads"
)


def startup_cpu_s() -> float:
    """CPU seconds of one fresh start-up (:data:`STARTUP`), in a child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", STARTUP, str(ROOT)], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime


def build_timed(workload) -> tuple[object, float, float]:
    """Set up once: the world, the CPU seconds of a start-up and a build, and
    the speed factor they ran at.

    The speed probe samples on a CPU-time timer all through the build,
    key generation included; its own CPU is not the build's.  The
    start-up runs just before, in a child the probe cannot sample.
    """
    from segbench.speed import SpeedProbe

    startup_s = startup_cpu_s()
    gc.collect()
    probe = SpeedProbe()
    c0 = time.process_time_ns()
    with probe.on_timer():
        world = workload.build()
    cpu_ns = time.process_time_ns() - c0 - probe.spent_ns
    return world, startup_s + cpu_ns / 1e9, probe.median_factor()


class Untraced:
    """Hooks of an untraced run: no spans, and a speed probe between ops."""

    request = glue = staticmethod(nullcontext)

    def __init__(self) -> None:
        from segbench.speed import SpeedProbe

        self.probe = SpeedProbe()

    def after_op(self) -> None:
        self.probe.after_op()


def measure(workload, world, plan, tracer=None) -> tuple:
    gc.collect()
    before = snapshot(world)
    if tracer is not None:
        tracer.enabled = True
    try:
        hooks = tracer or Untraced()
        result = workload.run(world, plan, hooks)
    finally:
        if tracer is not None:
            tracer.enabled = False
    after = snapshot(world)
    if tracer is None:
        result.probe = hooks.probe
    return result, before, after


def run_untraced(workload, seconds: float, outcome: Outcome) -> None:
    builds = []
    factors = []
    for _ in range(workload.setups):
        world = None
        world, cpu, factor = build_timed(workload)
        builds.append(cpu)
        factors.append(factor)
    plan = workload.plan(max(workload.min_ops, workload.ops_for(seconds)))
    result, before, after = measure(workload, world, plan)
    outcome.count(result.records, "measured")
    outcome.count(workload.sweep(world), "sweep")
    e2e = end_to_end(result.records, result.makespan_s, result.probe)
    e2e["setup_s"] = statistics.median(cpu * factor for cpu, factor in zip(builds, factors))
    e2e["peak_rss_mb"] = peak_rss_mb()
    for name, unit in E2E_UNITS.items():
        outcome.metrics[name] = (e2e[name], unit)
    outcome.report.append(
        "set-up CPU (unscaled; start-up and build): "
        + ", ".join(f"{cpu:.3f} s (speed factor {factor:.3f})" for cpu, factor in zip(builds, factors))
    )
    raw = end_to_end(result.records, result.makespan_s)
    outcome.report.append(
        f"speed probe: {len(result.probe.samples_ns)} slices, median factor "
        f"{result.probe.median_factor():.4f}; unscaled: "
        + ", ".join(f"{k} {v:.5g}" for k, v in raw.items() if k.startswith("cpu_"))
    )
    _report_samples(outcome, result.records)
    counters = counter_metrics(before, after, world, result)
    # Not in the JSON line, whose end-to-end metrics are never 0:
    # ``failed`` and ``attempted`` there carry it.
    outcome.report.append(
        f"error_rate = {_ratio(outcome.failed, outcome.attempted):.6g} fraction "
        f"({outcome.failed} of {outcome.attempted} ops)"
    )
    outcome.report.extend(f"counter {name} = {value:.6g}" for name, value in counters.items())


def _report_samples(outcome: Outcome, records: list) -> None:
    ok = [r for r in records if r.outcome == "ok"]
    counts = {cls: sum(r.cls == cls for r in ok) for cls in ("read", "write", "admin")}
    outcome.report.append(
        "samples: " + ", ".join(f"{cls}={n}" for cls, n in counts.items())
        + f" (ops {len(records)}, completed {len(ok)})"
    )


def run_traced(workload, seconds: float, outcome: Outcome) -> None:
    from segbench.speed import SpeedProbe
    from segbench.tracer import LAYER_NAMES, Tracer

    plan = workload.plan(workload.ops_for(seconds * TRACE_PASS_SHARE))
    # Both passes are put at reference speed the same way, by probe
    # slices just before and after each (a traced request has no room for
    # slices between ops), so the overhead is not the machine drifting.
    probes = [SpeedProbe(), SpeedProbe()]

    world = build_timed(workload)[0]
    probes[0].sample(10)
    base, before, after = measure(workload, world, plan)
    probes[0].sample(10)
    counters = counter_metrics(before, after, world, base)
    outcome.count(base.records, "untraced")
    outcome.count(workload.sweep(world), "untraced sweep")
    base_e2e = end_to_end(base.records, base.makespan_s)
    del world

    world = build_timed(workload)[0]
    tracer = Tracer()
    tracer.clock = world.clock
    tracer.install()
    try:
        # Same harness steps as the untraced pass (the stats() snapshots
        # charge ECALLs), so both passes see the same virtual timestamps.
        probes[1].sample(10)
        traced, _, _ = measure(workload, world, plan, tracer)
        probes[1].sample(10)
    finally:
        tracer.uninstall()
    outcome.count(traced.records, "traced")
    outcome.count(workload.sweep(world), "traced sweep")
    traced_e2e = end_to_end(traced.records, traced.makespan_s)

    errors = outcome.ledger_errors
    if [r.model_s for r in base.records] != [r.model_s for r in traced.records]:
        mismatched = [
            name for name in base_e2e
            if name.startswith("model_") and base_e2e[name] != traced_e2e[name]
        ]
        errors.append(f"traced per-op model latencies differ from untraced ({mismatched})")
    root_errors = tracer.root_errors()
    if root_errors:
        errors.append(f"{len(root_errors)} root spans are not their op's latency: {root_errors[:3]}")
    if tracer.requests != len(traced.records):
        errors.append(f"{tracer.requests} traced requests for {len(traced.records)} ops")
    factors = [probe.median_factor() for probe in probes]
    untraced_cpu = sum(r.cpu_ns for r in base.records) * factors[0]
    traced_cpu = sum(r.cpu_ns for r in traced.records) * factors[1]
    metrics = trace_metrics(
        tracer, LAYER_NAMES, untraced_cpu, traced_cpu, traced.user_bytes_written, factors[1]
    )
    metrics.update(counters)
    for name, value in metrics.items():
        outcome.metrics[name] = (value, _unit(name))
    _report_samples(outcome, traced.records)
    outcome.report.append(
        f"roots: {tracer.requests} requests, {len(root_errors)} not equal to their op's "
        f"modelled latency or short of its timed CPU; root totals cpu "
        f"{tracer.root_cpu_ns / 1e9:.3f} s, model {tracer.root_model_s:.3f} s"
    )
    outcome.report.append(
        "ledger (self time, share of the requests' root spans): "
        + ", ".join(
            f"{layer} cpu {metrics[layer + '.cpu_self_s']:.3f}s "
            f"({_ratio(tracer.cpu_self_ns.get(layer, 0), tracer.root_cpu_ns):.1%}) model "
            f"{metrics[layer + '.model_self_s']:.3f}s "
            f"({_ratio(tracer.model_self_s.get(layer, 0.0), tracer.root_model_s):.1%})"
            for layer in LAYER_NAMES
        )
    )
    out_dir = ROOT / ".segbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"{workload.name}-seed{workload.seed}.trace.json"
    trace_file.write_text(json.dumps(tracer.chrome_trace()))
    outcome.report.append(f"spans of the first {len(tracer.kept)} requests: {trace_file}")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.startswith("store.user_bytes"):
        return "bytes"
    if name.endswith(("_share", "_rate", "_frac", "_max")) or "_per_" in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SeGShare end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small namespace for smoke tests"
    )
    args = parser.parse_args(argv)

    _import_program()
    from segbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    outcome = Outcome()
    if args.trace:
        run_traced(workload, args.seconds, outcome)
    else:
        run_untraced(workload, args.seconds, outcome)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"PROBLEM {problem}")
    for error in outcome.ledger_errors:
        print(f"PROBLEM ledger: {error}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 1 if outcome.wrong or outcome.ledger_errors else 0


if __name__ == "__main__":
    sys.exit(main())
