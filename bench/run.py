"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload records-inproc --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ./src. After one
untimed warm-up unit, the workload's unit of work repeats until --seconds of
wall time are spent (at least MIN_UNITS times); each unit's outputs are
checked against the generator, untimed. With --trace 0 the last line holds
the end-to-end metrics, medians over the units. With --trace 1 it holds the
per-layer metrics, medians over units run with every layer wrapped; these
alternate with unwrapped units, which give the tracing overhead. The spans
are written to .bench_out/trace-<workload>.tsv.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from statistics import median, quantiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_UNITS = 3
CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_ticks() -> tuple[int, int]:
    """(steal, idle) ticks summed over all CPUs, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]), int(fields[4])


def proc_cpu_s(pid) -> float:
    """User plus system CPU seconds of a process, all its threads included."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_kb(pid) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run(args, work_dir: str) -> dict:
    import checks
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer(full=bool(args.trace))
    wl = WORKLOADS[args.workload](work_dir, args.seed, traced=bool(args.trace))
    tally = checks.Tally()

    def cpu_s() -> float:
        server = proc_cpu_s(wl.server_pid) if wl.server_pid else 0.0
        return time.process_time() + server

    def one_unit(traced: bool) -> tuple[float, float, float, float]:
        """(start, end, cpu seconds, records) of one checked unit."""
        wl.prepare()
        if traced:
            tracer.install()
        c0, t0 = cpu_s(), time.perf_counter()
        records = wl.unit()
        t1, c1 = time.perf_counter(), cpu_s()
        if traced:
            tracer.remove()
        wl.check(tally)
        wl.finish_unit()
        return t0, t1, c1 - c0, records

    steal0, idle0 = host_ticks()
    t_start = time.perf_counter()
    trace_file = None
    tracer.install()
    try:
        wl.setup()
        setup_s = time.perf_counter() - T0
        setup_spans = list(tracer.spans)
        if args.trace:
            tracer.remove()
            tracer.layers.append((wl, "transport", "client.transport", None))
            os.makedirs(OUT, exist_ok=True)
            trace_file = open(os.path.join(OUT, f"trace-{args.workload}.tsv"), "w",
                              encoding="utf-8")
            trace_file.write("id\tparent\tname\tstart\tend\titems\tbytes\n")
        one_unit(False)  # warm-up
        deadline = time.perf_counter() + args.seconds
        units, plain, layers = [], [], []
        while len(units) < MIN_UNITS or time.perf_counter() < deadline:
            if not args.trace:
                units.append(one_unit(False))
                continue
            # traced units alternate with plain ones; each traced unit's
            # spans are reduced and written out before the next unit runs
            plain.append(one_unit(False))
            tracer.spans.clear()
            units.append(one_unit(True))
            served, parsed = spans.served_and_parsed(tracer.spans)
            tally.add("trace totals", None if served == parsed == wl.list_items else
                      f"served {served}, parsed {parsed}, expected {wl.list_items} list items")
            layers.append(spans.layer_metrics(tracer.spans, setup_spans, wl.startup_s))
            tracer.write(trace_file)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if wl.server_pid:
            peak_kb += proc_peak_rss_kb(wl.server_pid)
    finally:
        tracer.remove()
        wl.close()
        if trace_file is not None:
            trace_file.close()
    steal1, idle1 = host_ticks()

    if args.trace:
        metrics = {name: (median(unit[name][0] for unit in layers), unit_name)
                   for name, (_, unit_name) in layers[0].items()}
        # each traced unit against the plain unit just before it, so that a
        # slow spell of the host falls on both sides of a pair
        overhead = median((a1 - a0) / (b1 - b0) for (a0, a1, _, _), (b0, b1, _, _)
                          in zip(units, plain)) - 1
        print(f"tracing overhead: {100 * overhead:+.1f}% unit wall time, median of "
              f"{len(units)} traced/untraced pairs")
    else:
        latencies = [s[4] - s[3] for t0, t1, _, _ in units for s in tracer.window(t0, t1)
                     if s[2] == "client.oai_get"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "records_per_s": (median(r / (t1 - t0) for t0, t1, _, r in units), "records/s"),
            "request_ms_p50": (1e3 * median(latencies), "ms"),
            "cpu_ms_per_record": (1e3 * median(c / r for _, _, c, r in units), "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        # a tail percentile is reported only with ten samples beyond it
        p99 = (f"p99 {1e3 * quantiles(latencies, n=100)[98]:.3f} ms"
               if len(latencies) >= 1000 else "too few for a p99")
        print(f"requests: {len(latencies)} oai_get calls, p50 "
              f"{1e3 * median(latencies):.3f} ms, {p99}")
    print(f"host: steal {steal1 - steal0} ticks, idle {idle1 - idle0} ticks "
          f"over {time.perf_counter() - t_start:.1f} s on {os.cpu_count()} CPUs, "
          f"pinned to CPU {min(os.sched_getaffinity(0))}; {len(units)} units")
    for failure in tally.failures[:10]:
        print("FAILED", failure, file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("records-inproc", "getrecord-http", "merge-incremental"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the provider subprocess is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "oaimh", "__init__.py")):
        print(f"no program source at {SRC}/oaimh; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one request is in flight at a time, so the harvester and the provider
    # subprocess never need two CPUs at once; on one CPU their hand-offs
    # avoid cross-CPU wake-ups, which a virtual machine's host delays by a
    # varying amount (steal) that made runs differ by a third
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
