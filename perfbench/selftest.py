"""Self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. BENCHMARK.json follows the benchmark contract, names the workloads that
   workloads.py defines, and run.py prints exactly its metric names: the
   end-to-end ones with --trace 0, the per-layer ones with --trace 1.
2. The output checks catch corrupted outputs: a perturbed p_right, a
   flipped decision, a truncated or altered sweep CSV, a shifted query
   mean, a wrong randomized value, a perturbed p_inf.  Each corruption
   must raise failed_frac above 0.
3. The references hold: the benchmark's own propagator agrees with the
   package's dense oracle, and reproduces the decide_large constants.
4. Without the package sources, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

os.environ.update(run.PINNED_ENV)

import numpy as np  # noqa: E402

import reference  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import DECIDE_P_RIGHT, WORKLOADS  # noqa: E402

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULTS = []


def report(label, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f"  [{detail}]" if detail else ""), flush=True)


def bench_cmd(workload, trace, seconds=1):
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", str(seconds), "--trace", str(trace)]


def check_spec(spec):
    report("BENCHMARK.json keys", set(spec) == {"command", "paths", "run_seconds", "workloads",
                                                "end_to_end", "per_layer"})
    names = [w["name"] for w in spec["workloads"]]
    report("workloads match workloads.py", names == list(WORKLOADS), f"{names}")
    report("every why is one line of at most 200 characters",
           all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]))
    metrics = spec["end_to_end"] + spec["per_layer"]
    every = names + [m["name"] for m in metrics]
    report("names well formed and unique",
           all(NAME.match(n) for n in every) and len(set(every)) == len(every))
    report("units well formed", all(UNIT.match(m["unit"]) for m in metrics))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report("bounds at most 0.25, setup_s's the largest",
           all(0 < b <= 0.25 for b in bounds.values())
           and all(bounds["setup_s"] >= b for b in bounds.values()), f"{bounds}")
    report("per-layer metrics match layers.py",
           [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS))


def check_printed_names(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(bench_cmd("classical_hard", trace), cwd=ROOT, capture_output=True,
                              text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        report(f"--trace {trace} prints exactly the {key} metrics", printed == wanted,
               f"extra {sorted(set(printed) - set(wanted))}, missing {sorted(set(wanted) - set(printed))}")
        report(f"--trace {trace} result keys and counts",
               set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["attempted"] >= 1 and result["failed"] == 0)


def failed_frac(nw, workload, state, inp, good, bad):
    failures = run.check_all(nw, workload, state, [inp, inp], [good, bad])
    return len(failures) / 2, failures


def check_corruptions(nw, workdir):
    def expect(label, workload, state, inp, good, bad):
        frac, failures = failed_frac(nw, workload, state, inp, good, bad)
        report(f"{workload.name}: {label} raises failed_frac", frac == 0.5,
               failures[0] if failures else "not caught")

    w = WORKLOADS["decide_large"]
    state = w.setup(nw, 7, workdir)
    inp = w.make_input(state, 1)
    good = w.op(nw, state, inp)
    expect("perturbed p_right", w, state, inp, good,
           dataclasses.replace(good, p_right=good.p_right + 1e-6))
    expect("flipped decision", w, state, inp, good,
           dataclasses.replace(good, decision=1 - good.decision))

    w = WORKLOADS["sweep_small"]
    state = w.setup(nw, 7, workdir)
    inp = w.make_input(state, 0)
    rc, text = w.op(nw, state, inp)
    lines = text.splitlines()
    rows = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    expect("truncated CSV", w, state, inp, (rc, text), (rc, "\n".join(lines[:rows[-1]])))
    cells = lines[rows[0]].split(",")
    cells[6] = f"{float(cells[6]) + 1e-6:.12e}"
    altered = lines[:rows[0]] + [",".join(cells)] + lines[rows[0] + 1:]
    expect("perturbed p_right in CSV", w, state, inp, (rc, text), (rc, "\n".join(altered)))
    expect("renamed CSV column", w, state, inp, (rc, text),
           (rc, text.replace("p_right", "p_rite")))

    w = WORKLOADS["classical_hard"]
    state = w.setup(nw, 7, workdir)
    inp = w.make_input(state, 0)
    q, evals = w.op(nw, state, inp)
    expect("shifted query mean", w, state, inp, (q, evals), (q + 25, evals))
    expect("wrong randomized value", w, state, inp, (q, evals),
           (q, [(root, 1 - r, e) for root, r, e in evals]))

    w = WORKLOADS["predict_scatter"]
    state = w.setup(nw, 7, workdir)
    inp = w.make_input(state, 0)
    good = w.op(nw, state, inp)
    expect("perturbed p_inf", w, state, inp, good, (good[0] + 1e-5,) + good[1:])
    expect("failed bound scan", w, state, inp, good, (good[0], False) + good[2:])
    expect("Parseval total off", w, state, inp, good, good[:2] + (1.0 + 1e-9,) + good[3:])


def check_references(nw):
    worst = 0.0
    for s in range(6):
        bits = reference.sweep_instance_bits(16, s)
        for gamma in (4.0, 16.0, 64.0):
            worst = max(worst, abs(reference.walk_p_right(bits, gamma)
                                   - reference.dense_p_right(nw, bits, gamma)))
    report("own propagator agrees with dense_eig + evolve_exact at N=16", worst < 1e-10,
           f"max |diff| {worst:.2e}")
    rng = np.random.default_rng(11)
    for root in (0, 1):
        p = reference.walk_p_right(reference.adversarial_bits(14, rng, root), 16.0)
        diff = abs(p - DECIDE_P_RIGHT[root])
        report(f"decide_large reference p_right, root value {root}", diff < 1e-10,
               f"own propagator {p!r}, constant {DECIDE_P_RIGHT[root]!r}")


def check_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench_cmd("decide_large", 0), cwd=bare, capture_output=True,
                              text=True, timeout=180)
    report("without src/, run.py exits non-zero and prints no result",
           proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"exit {proc.returncode}: {proc.stderr.strip()[:120]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_printed_names(spec)
    nw = run.load_package()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        check_corruptions(nw, workdir)
    check_references(nw)
    check_without_sources()
    print(f"{sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
