"""nandwalk benchmark runner: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src, never
from an installed copy.  Workloads are defined in workloads.py.

--trace 0 measures the end-to-end metrics: set-up time (median of this
process and SETUP_SAMPLES - 1 fresh child processes), operations per
second, the median and tail per-operation time, and the peak RSS of this
process.  Operation times are wall time less the time the hypervisor stole
from the benchmark's CPU (OpClock).  Operations run until their summed time
reaches --seconds.

--trace 1 runs every input twice, once untraced and once with the per-layer
tracer installed (layers.py), alternating the order, until the untraced
half reaches --seconds / 2.  It reports the per-layer metrics per operation
and the tracing overhead: traced minus untraced wall time per operation.

The process pins BLAS to one thread, itself to one CPU, and keeps freed
memory mapped (keep_freed_memory).  Every output is checked (workloads.py);
an operation that raises or fails its check counts in `failed`.  The last
stdout line is the JSON result; the line before it carries provenance,
failed_frac, the tail percentile and its sample count.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fixed execution environment, applied before numpy is imported: one BLAS
# thread (a shared 2-core machine gives unsteady multi-threaded eigh) and
# the sweep's own process pool off.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NANDWALK_WORKERS": "1",
}
# glibc mallopt parameters: no mmap for large blocks, and no trimming of
# the heap below 2 GiB.  Freed temporaries are then reused by the next
# operation instead of being unmapped and faulted in again.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it
PROBE_TIMEOUT_S = 60


def keep_freed_memory() -> str:
    """Make the C allocator keep freed memory mapped.

    By default glibc returns every block above 32 MB to the kernel when it
    is freed, so each operation that allocates large temporaries (the
    y_bottom fold, hard_query_samples) faults all of them in again.  On a
    shared VM that page-fault time varied from 0.25 to 0.8 s per
    predict_scatter operation, from run to run.  The memory itself still
    shows in peak_rss_mb.  Returns a description for the provenance.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_MAX, 0) != 1 or mallopt(M_TRIM_THRESHOLD, 2**31 - 1) != 1:
        return "default (mallopt refused)"
    return "glibc: M_MMAP_MAX=0, M_TRIM_THRESHOLD=2^31-1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="only set up, and print the set-up time (used for the set-up median)")
    return p.parse_args(argv)


def load_package():
    if not (SRC / "nandwalk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no nandwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nandwalk

    if Path(nandwalk.__file__).resolve().parent != SRC / "nandwalk":
        raise ImportError(f"imported nandwalk from {nandwalk.__file__}, not {SRC}")
    return nandwalk


def set_up(workload, seed, workdir):
    """Import, input generation and warm-up; returns (package, state, seconds
    since this process started running the benchmark)."""
    nw = load_package()
    state = workload.setup(nw, seed, workdir)
    return nw, state, time.perf_counter() - _T0


class OpClock:
    """Wall time less the time the hypervisor stole from this process.

    The benchmark shares a virtual machine's CPUs with other tenants; the
    time they take shows up as steal in /proc/stat.  The process is pinned
    to one CPU so that CPU's steal counter is its own, and each reading
    subtracts that counter from the wall clock.  Where /proc/stat cannot be
    read, this is the plain wall clock.
    """

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
        self.label = f"cpu{self.cpu}"

    def stolen_s(self) -> float:
        try:
            with open("/proc/stat", encoding="ascii") as fh:
                for line in fh:
                    fields = line.split()
                    if fields[0] == self.label:
                        return int(fields[8]) * self.tick_s
        except (OSError, IndexError, ValueError):
            pass
        return 0.0

    def now(self) -> float:
        return time.perf_counter() - self.stolen_s()


def run_ops(nw, workload, state, clock, inputs):
    """Run one operation per input; returns (outputs, times)."""
    outputs, times = [], []
    for inp in inputs:
        t0 = clock.now()
        try:
            out = workload.op(nw, state, inp)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        times.append(clock.now() - t0)
        outputs.append(out)
    return outputs, times


def run_for(nw, workload, state, clock, seconds):
    """Run operations on inputs 0, 1, ... until their summed time reaches
    `seconds`; returns (inputs, outputs, times)."""
    inputs, outputs, times = [], [], []
    while not times or sum(times) < seconds:
        inputs.append(workload.make_input(state, len(inputs)))
        out, dt = run_ops(nw, workload, state, clock, inputs[-1:])
        outputs += out
        times += dt
    return inputs, outputs, times


def run_paired(nw, workload, state, clock, tracer, seconds):
    """Run each input once untraced and once under `tracer`, alternating
    which goes first, until the untraced time reaches `seconds`.  Returns
    (inputs, outputs, untraced times, traced times); every input appears
    twice in inputs and outputs."""
    inputs, outputs, untraced, traced = [], [], [], []
    k = 0
    while not untraced or sum(untraced) < seconds:
        inp = workload.make_input(state, k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    out, dt = run_ops(nw, workload, state, clock, [inp])
                traced += dt
            else:
                out, dt = run_ops(nw, workload, state, clock, [inp])
                untraced += dt
            inputs.append(inp)
            outputs += out
        k += 1
    return inputs, outputs, untraced, traced


def check_all(nw, workload, state, inputs, outputs):
    failures = []
    for k, (inp, out) in enumerate(zip(inputs, outputs)):
        if isinstance(out, Exception):
            failures.append(f"op {k}: raised {out!r}")
            continue
        reason = workload.check(nw, state, inp, out)
        if reason is not None:
            failures.append(f"op {k}: {reason}")
    return failures


def tail(times):
    """The highest percentile with TAIL_BEYOND samples above it, as
    (value, percentile).  With no more than TAIL_BEYOND samples no such
    percentile exists, and the maximum is reported as percentile 100."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n


def probe_setup(name, seed):
    """Set-up time of one fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(seed, clock, allocator):
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "nandwalk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "git_rev": rev,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "pinned_to": clock.label,
        "allocator": allocator,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    allocator = keep_freed_memory()
    os.environ.update(PINNED_ENV)
    from workloads import WORKLOADS
    from layers import Tracer

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            clock = OpClock()
            nw, state, setup_s = set_up(workload, args.seed, workdir)
            if args.probe_setup:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if args.trace:
                tracer = Tracer(nw)
                inputs, outputs, untraced, traced = run_paired(
                    nw, workload, state, clock, tracer, args.seconds / 2.0)
                failures = check_all(nw, workload, state, inputs, outputs)
                attempted = len(inputs)
                ops = len(traced)
                overhead_s = (sum(traced) - sum(untraced)) / ops
                metrics = tracer.layer_metrics(ops, overhead_s)
                info = {"ops_traced": ops,
                        "span_s_per_op": {name: st.total_s / ops
                                          for name, st in sorted(tracer.spans.items())},
                        "hook_errors": tracer.counts["hook_errors"],
                        "op_s_untraced": sum(untraced) / ops,
                        "op_s_traced": sum(traced) / ops}
            else:
                steal0, wall0 = clock.stolen_s(), time.perf_counter()
                inputs, outputs, times = run_for(nw, workload, state, clock, args.seconds)
                steal1, wall1 = clock.stolen_s(), time.perf_counter()
                failures = check_all(nw, workload, state, inputs, outputs)
                attempted = len(inputs)
                setups = [setup_s] + [probe_setup(workload.name, args.seed)
                                      for _ in range(SETUP_SAMPLES - 1)]
                tail_s, tail_pct = tail(times)
                metrics = {
                    "setup_s": {"value": statistics.median(setups), "unit": "s"},
                    "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
                    "op_s_p50": {"value": statistics.median(times), "unit": "s"},
                    "op_s_tail": {"value": tail_s, "unit": "s"},
                    "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                    / 1024.0, "unit": "MB"},
                }
                info = {"setup_samples_s": setups,
                        "op_s_tail_percentile": tail_pct,
                        "op_samples": len(times),
                        "loop_wall_s": wall1 - wall0,
                        "loop_stolen_s": steal1 - steal0}
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info.update({"workload": workload.name, "attempted": attempted,
                 "failed_frac": len(failures) / attempted, "failures": failures[:5],
                 "provenance": provenance(args.seed, clock, allocator)})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
