"""Command-line harness: single runs, sweeps, bound scans and diagnostics.

Subcommands:
  eval          classical evaluation of an instance
  scatter       y(E)/T(E) table with reflect/transmit bound checks
  run           one packet-scattering decision run at one gamma (JSON verdict)
  sweep         gamma x instance grid of runs (CSV); NANDWALK_WORKERS sets
                the number of worker processes
  embed-parity  build the parity embedding and verify it by brute force
  diagnose      packet-spectrum checks (CSV): Parseval, tail mass, |B|^2 peak

run and sweep decide through dynamics.run_algorithm and its Chebyshev
propagator, with half-runway M = 3L.  eval writes text or json, run and
embed-parity json, the tables csv or json.

Exit status: 0 success, 1 a failed check or an ArithmeticError, 2 a
ValueError, such as an --out path that cannot be opened for writing (found
before any work is done); any other exception escapes.  The tables carry
the configuration hash, package version, column schema and generation time;
run json carries the hash and version; eval and embed-parity carry none.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .nand_core import (
    TreeInput,
    _check_int,
    embed_parity,
    eval_nand,
    parity_blocks,
    parse_input,
    randomized_eval,
)
from .scattering import energy_grid, scan_bounds, CSV_COLUMNS
from .dynamics import RunConfig, run_algorithm
from .spectral import packet_spectrum, parseval_total, tail_mass

SWEEP_COLUMNS = (
    "N", "instance_id", "gamma", "L", "M", "t_run",
    "p_right", "T0_sq", "decision", "nand", "correct",
)
DIAG_COLUMNS = ("L", "eps", "quantity", "value", "bound", "pass")


def config_hash(command: str, params: dict) -> str:
    """Provenance digest of one harness invocation's resolved parameters."""
    canonical = json.dumps({"command": command, **params}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


PARAM_COLUMNS = frozenset({"gamma", "t_run", "T0_sq", "eps"})


def csv_cell(column: str, value) -> str:
    """One CSV cell: true/false, nan for None, %g for parameter columns,
    %.12e for every other float, str for the rest."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:g}" if column in PARAM_COLUMNS else f"{value:.12e}"
    return str(value)


def emit_table(config_digest: str, schema, rows, fmt, out, summary=None, footer=()):
    """Write rows as CSV or JSON, each row keyed by the schema's columns.

    Both formats carry the config hash, package version, schema and
    generation time.  `summary` goes into the JSON object and `footer`
    (comment lines) after the CSV rows.
    """
    rows = [{c: r[c] for c in schema} for r in rows]
    generated_at = datetime.now(timezone.utc).isoformat()
    if fmt == "json":
        payload = {"config_hash": config_digest, "version": __version__,
                   "schema": list(schema), "generated_at": generated_at, "rows": rows}
        if summary is not None:
            payload["summary"] = summary
        _emit(json.dumps(payload, sort_keys=True) + "\n", out)
        return
    lines = [
        f"# config_hash: {config_digest}",
        f"# version: {__version__}",
        f"# schema: {','.join(schema)}",
        f"# generated_at: {generated_at}",
        ",".join(schema),
    ]
    lines += [",".join(csv_cell(c, r[c]) for c in schema) for r in rows]
    lines += footer
    _emit("\n".join(lines) + "\n", out)


def _open_out(out_path, mode="w"):
    """Open out_path for writing; a path that cannot be opened is a usage error."""
    try:
        return open(out_path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc


def _check_out(out_path):
    """Fail before any work when out_path is set and cannot be opened for
    writing.  Opening to append leaves an existing file as it is, and a
    file the check creates is removed again."""
    if not out_path:
        return
    existed = os.path.lexists(out_path)
    _open_out(out_path, "a").close()
    if not existed:
        os.remove(out_path)


def _emit(text: str, out_path):
    """Write text to out_path, or to stdout when it is unset."""
    if not out_path:
        sys.stdout.write(text)
        return
    with _open_out(out_path) as fh:
        fh.write(text)


def _worker_count() -> int:
    """Sweep worker processes from NANDWALK_WORKERS (default 1, serial)."""
    text = os.environ.get("NANDWALK_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"NANDWALK_WORKERS must be an integer >= 1, got {text!r}")
    return workers


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    if args.seed is not None and args.format != "json":
        raise ValueError("--seed needs --format json")
    tree = parse_input(args.input)
    value = eval_nand(tree)
    if args.format == "json":
        payload = {"bits": tree.to_text(), "n": tree.depth, "value": value}
        if args.seed is not None:
            trace = randomized_eval(tree, args.seed)
            payload["randomized_value"] = trace.value
            payload["queries"] = trace.queries
        print(json.dumps(payload, sort_keys=True))
    else:
        print(value)
    return 0


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def _cmd_scatter(args) -> int:
    tree = parse_input(args.input)
    if args.points < 1:  # the empty-grid usage error for both grids, before energy_grid's own
        raise ValueError("energy grid is empty")
    if args.emax == "auto":
        grid = energy_grid(tree.n_leaves, points=args.points)
    else:
        emax = float(args.emax)
        grid = np.geomspace(1e-8, emax, args.points)
    report = scan_bounds(tree, grid)
    digest = config_hash(
        "scatter", {"input": tree.to_text(), "emax": args.emax, "points": args.points},
    )
    emit_table(digest, CSV_COLUMNS, report.rows, args.format, args.out)
    if not report.all_pass:
        print(f"{len(report.violations)} bound violations", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    tree = parse_input(args.input)
    config = RunConfig.for_tree(tree.n_leaves, gamma=args.gamma)
    verdict = run_algorithm(tree, config)
    digest = config_hash("run", {"input": tree.to_text(), "gamma": args.gamma})
    payload = {**asdict(verdict), "config_hash": digest, "version": __version__}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_task(task):
    """One sweep row (SWEEP_COLUMNS) for an (instance_id, bits, gamma) task."""
    instance_id, bits, gamma = task
    tree = TreeInput.from_bits(bits)
    config = RunConfig.for_tree(tree.n_leaves, gamma=gamma)
    verdict = run_algorithm(tree, config)
    nand = eval_nand(tree)
    return dict(zip(SWEEP_COLUMNS, (
        tree.n_leaves, instance_id, gamma, config.L, config.M, config.t_run,
        verdict.p_right, verdict.analytic_T0_sq, verdict.decision, nand,
        int(verdict.decision == nand),
    )))


@dataclass(frozen=True)
class SweepSummary:
    """Per-gamma error_rate and mean_abs_err (ascending gamma), and the
    log-log slope of mean_abs_err against gamma (None for one gamma)."""

    by_gamma: dict[float, dict]
    fit_exponent: float | None


def sweep(n_leaves: int, gammas, instances: int, seed: int):
    """Run the gamma x instance grid; returns (rows, SweepSummary).

    Rows are ordered by (instance, gamma) grid index regardless of worker
    scheduling; instances are drawn once from the seed.
    """
    _check_int("instances", instances, -math.inf)  # below 1 is the empty grid
    if not gammas or instances < 1:
        raise ValueError("sweep grid is empty")
    if len({float(g) for g in gammas}) < len(gammas):
        raise ValueError(f"sweep gamma values repeat: {list(gammas)}")
    _check_int("n_leaves", n_leaves, 0)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    bit_sets = [tuple(int(b) for b in rng.integers(0, 2, n_leaves)) for _ in range(instances)]
    tasks = [(inst_id, bits, float(gamma))
             for inst_id, bits in enumerate(bit_sets) for gamma in gammas]
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    by_gamma = {}
    for gamma in sorted(float(g) for g in gammas):
        sel = [r for r in rows if r["gamma"] == gamma]
        errs = [abs(r["p_right"] - r["T0_sq"]) for r in sel]
        by_gamma[gamma] = {
            "error_rate": 1.0 - sum(r["correct"] for r in sel) / len(sel),
            "mean_abs_err": sum(errs) / len(errs),
        }
    fit = None
    if len(by_gamma) >= 2:
        xs = np.log(list(by_gamma))
        ys = np.log([max(s["mean_abs_err"], 1e-300) for s in by_gamma.values()])
        fit = float(np.polyfit(xs, ys, 1)[0])
    return rows, SweepSummary(by_gamma=by_gamma, fit_exponent=fit)


def _cmd_sweep(args) -> int:
    digest = config_hash("sweep", {
        "n": args.n, "gamma": list(args.gamma), "instances": args.instances,
        "seed": args.seed,
    })
    rows, summary = sweep(args.n, list(args.gamma), args.instances, args.seed)
    json_summary = {f"{g:g}": s for g, s in summary.by_gamma.items()}
    footer = [
        f"# summary gamma={g:g}: error_rate={s['error_rate']:.6f} "
        f"mean_abs_err={s['mean_abs_err']:.6e}"
        for g, s in summary.by_gamma.items()
    ]
    if summary.fit_exponent is not None:
        json_summary["fit_exponent"] = summary.fit_exponent
        footer.append(f"# summary fit: mean_abs_err ~ gamma^{summary.fit_exponent:.3f}")
    emit_table(digest, SWEEP_COLUMNS, rows, args.format, args.out,
               summary=json_summary, footer=footer)
    return 0


# ---------------------------------------------------------------------------
# embed-parity
# ---------------------------------------------------------------------------


def _cmd_embed_parity(args) -> int:
    k = args.k
    if args.bits is not None and len(args.bits) != k:
        raise ValueError(f"--bits has {len(args.bits)} bits; --k {k} needs {k}")
    blocks = parity_blocks(k)  # rejects k that is not a power of two >= 2
    exhaustive = k <= 12
    assignments = (
        [[(m >> j) & 1 for j in range(k)] for m in range(2 ** k)]
        if exhaustive
        else [list(np.random.default_rng(s).integers(0, 2, k)) for s in range(256)]
    )
    failures = 0
    for x in assignments:
        tree = embed_parity(x)
        if eval_nand(tree) != (1 + sum(x)) % 2:
            failures += 1
    payload = {
        "k": k,
        "n_leaves": k * k,
        "assignments_checked": len(assignments),
        "exhaustive": exhaustive,
        "failures": failures,
        "verified": failures == 0,
        "blocks": [list(b) for b in blocks],
    }
    if args.bits is not None:
        instance = embed_parity([int(c) for c in args.bits])
        payload["instance"] = instance.to_text()
        payload["instance_value"] = eval_nand(instance)
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    digest = config_hash("diagnose", {"L": list(args.L), "eps": list(args.eps)})
    checks = []
    for L in args.L:
        total = parseval_total(L)
        checks.append((L, None, "band_total", total, 1.0, abs(total - 1.0) < 1e-10))
        for eps in args.eps:
            tail = tail_mass(L, eps)
            checks.append((L, eps, "tail_mass", tail, math.pi / (L * eps),
                           tail < math.pi / (L * eps)))
            phis = np.linspace(-eps, eps, 1001)
            _, B = packet_spectrum(L, phis)
            worst = float(np.max(np.abs(B) ** 2))
            b_bound = 1.0 / (L * math.cos(eps / 2.0) ** 2)
            checks.append((L, eps, "alt_peak", worst, b_bound, worst < b_bound))
    rows = [dict(zip(DIAG_COLUMNS, c)) for c in checks]
    emit_table(digest, DIAG_COLUMNS, rows, args.format, args.out)
    if not all(r["pass"] for r in rows):
        print("diagnostic inequality violated", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each option's default to its help, except a default of None."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


@functools.cache  # one parser per process; no handler mutates a parsed default
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nandwalk",
        description="NAND-tree evaluation by wave-packet scattering on a tree+runway graph",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, with_out=True):
        if with_out:
            p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=formats, default=formats[0], help="output format")

    def command(name, help, func):
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.set_defaults(func=func)
        return p

    p = command("eval", "classical NAND-tree evaluation", _cmd_eval)
    p.add_argument("--input", required=True, help="leaf bit string, length a power of two")
    p.add_argument("--seed", type=int, default=None,
                   help="also run the randomized evaluator with this seed (needs --format json)")
    add_common(p, ("text", "json"), with_out=False)

    p = command("scatter", "y(E)/T(E) table with bound checks", _cmd_scatter)
    p.add_argument("--input", required=True)
    p.add_argument("--emax", default="auto",
                   help="'auto' for 1/(16 sqrt(N)), or an explicit upper energy")
    p.add_argument("--points", type=int, default=64)
    add_common(p, ("csv", "json"))

    p = command("run", "single decision run", _cmd_run)
    p.add_argument("--input", required=True)
    p.add_argument("--gamma", type=float, default=16.0,
                   help="packet-length multiplier L = gamma sqrt(N)")
    add_common(p, ("json",))

    p = command("sweep", "gamma x instance grid of runs", _cmd_sweep)
    p.add_argument("--n", type=int, required=True, help="number of leaves N (power of two)")
    p.add_argument("--gamma", type=float, nargs="+", default=[4.0, 16.0, 64.0])
    p.add_argument("--instances", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, ("csv", "json"))

    p = command("embed-parity", "build and verify the parity embedding", _cmd_embed_parity)
    p.add_argument("--k", type=int, required=True, help="number of parity variables (power of two)")
    p.add_argument("--bits", default=None, help="emit the instance for this assignment")
    add_common(p, ("json",))

    p = command("diagnose", "packet-spectrum inequality checks", _cmd_diagnose)
    p.add_argument("--L", type=int, nargs="+", default=[16, 64, 256])
    p.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.3])
    add_common(p, ("csv", "json"))

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
