"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions the pipeline calls.  A function is
replaced wherever the package exposes it: in its defining module, in every
module that imported it by name, and on the package itself, so calls made
inside the library (run_algorithm -> build_full, scan_bounds -> y_bottom)
are timed as well.  Nothing under src/ is edited; uninstall() puts every
original back.

Each span records its wall time and the time covered by its direct traced
children, so a layer's self time is total minus children.  A few wrappers
also read counts off the arguments or results (dim, nnz, grid size, trials,
norm drift); the count of Chebyshev terms is the number of sparse
matrix-vector products made inside evolve_cheb, counted by handing it a
CSR subclass whose products tick a counter.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

# (module, function) pairs that are timed.  A name missing from the
# package is skipped and its metrics read 0.
TRACED = (
    ("lattice", "build_full"),
    ("lattice", "dense_eig"),
    ("dynamics", "run_algorithm"),
    ("dynamics", "evolve_cheb"),
    ("dynamics", "evolve_exact"),
    ("dynamics", "initial_packet"),
    ("dynamics", "prob_right"),
    ("scattering", "y_bottom"),
    ("scattering", "transmission"),
    ("scattering", "scan_bounds"),
    ("scattering", "y_at_zero"),
    ("spectral", "packet_spectrum"),
    ("spectral", "band_mass"),
    ("nand_core", "hard_query_samples"),
    ("nand_core", "randomized_eval"),
    ("harness", "sweep"),
    ("harness", "cli_main"),
)

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("lattice.build_full_s", "s"),
    ("lattice.dim", "count"),
    ("lattice.nnz", "count"),
    ("lattice.dense_eig_s", "s"),
    ("dynamics.evolve_cheb_s", "s"),
    ("dynamics.cheb_terms", "count"),
    ("dynamics.term_us", "us"),
    ("dynamics.term_bytes_computed", "B"),
    ("dynamics.evolve_exact_s", "s"),
    ("dynamics.run_self_s", "s"),
    ("dynamics.measure_s", "s"),
    ("dynamics.norm_drift", "1"),
    ("scattering.y_bottom_s", "s"),
    ("scattering.y_bottom_ns_per_leaf_energy", "ns"),
    ("scattering.transmission_s", "s"),
    ("scattering.scan_bounds_s", "s"),
    ("scattering.y_at_zero_s", "s"),
    ("spectral.packet_spectrum_s", "s"),
    ("spectral.band_mass_s", "s"),
    ("nand_core.hard_query_samples_s", "s"),
    ("nand_core.query_samples_per_s", "1/s"),
    ("nand_core.randomized_eval_s", "s"),
    ("harness.sweep_s", "s"),
    ("harness.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    children_s: float = 0.0


class Tracer:
    """Installs timing wrappers on the nandwalk package; use as a context
    manager around the traced phase.  Spans are plain wall time: the
    steal correction of run.OpClock moves in 10 ms ticks, too coarse for
    sub-millisecond spans."""

    def __init__(self, package):
        self.package = package
        self.spans = defaultdict(SpanStats)
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []
        tracer = self

        class CountingCSR(sp.csr_matrix):
            """CSR matrix whose vector products are counted.  Scalar
            multiples keep the subclass, so the rescaled matrix built
            inside evolve_cheb counts too."""

            def _matmul_vector(self, other):
                tracer.counts["spmv"] += 1
                return super()._matmul_vector(other)

            def _matmul_multivector(self, other):
                tracer.counts["spmv"] += other.shape[1]
                return super()._matmul_multivector(other)

        self._counting_csr = CountingCSR

    # -- installation ---------------------------------------------------

    def _modules(self):
        name = self.package.__name__
        return [self.package] + [
            mod for key, mod in sys.modules.items()
            if key.startswith(name + ".") and mod is not None
        ]

    def __enter__(self):
        modules = self._modules()
        for mod_name, fn_name in TRACED:
            defining = sys.modules.get(f"{self.package.__name__}.{mod_name}")
            original = getattr(defining, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        prepare = getattr(self, "_prepare_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = self._guarded(prepare, args, default=args)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                stats = self.spans[name]
                stats.calls += 1
                stats.total_s += elapsed
                stats.children_s += children
                if self._stack:
                    self._stack[-1] += elapsed
            if observe is not None:
                self._guarded(observe, args, result)
            return result

        return wrapper

    def _guarded(self, hook, *args, default=None):
        """Run an observer; one that no longer fits the package's signatures
        is counted in `hook_errors` instead of failing the operation."""
        try:
            return hook(*args)
        except Exception:  # the traced call itself must go on
            self.counts["hook_errors"] += 1
            return default

    # Argument and result hooks, looked up by span name.  They run outside
    # the span's timed interval and read the current signatures: a span's
    # first argument is the graph or tree, y_bottom's second the energies.

    def _observe_lattice_build_full(self, args, H):
        self.counts["dim"] = max(self.counts["dim"], H.dim)
        self.counts["nnz"] = max(self.counts["nnz"], H.matrix.nnz)

    def _prepare_dynamics_evolve_cheb(self, args):
        H = args[0]
        if not isinstance(getattr(H, "matrix", None), sp.csr_matrix):
            return args
        m = H.matrix
        self.counts["term_bytes"] = (
            m.nnz * (m.data.itemsize + m.indices.itemsize)
            + (H.dim + 1) * m.indptr.itemsize
            # SpMV input and output, then the recurrence (read H v and
            # t_prev, write t_next) and the accumulation (read t_next and
            # acc, write acc): eight complex vectors per term.
            + 8 * 16 * H.dim
        )
        counted = dataclasses.replace(H, matrix=self._counting_csr(m, copy=False))
        return (counted,) + tuple(args[1:])

    def _observe_dynamics_evolve_cheb(self, args, psi):
        self._drift(psi)

    def _observe_dynamics_evolve_exact(self, args, psi):
        self._drift(psi)

    def _drift(self, psi):
        drift = abs(float(np.linalg.norm(psi)) - 1.0)
        self.counts["norm_drift"] = max(self.counts["norm_drift"], drift)

    def _observe_scattering_y_bottom(self, args, y):
        tree, E = args[0], args[1]
        self.counts["leaf_energies"] += tree.n_leaves * np.size(E)

    def _observe_nand_core_hard_query_samples(self, args, samples):
        self.counts["query_samples"] += np.size(samples)

    # -- report ---------------------------------------------------------

    def layer_metrics(self, ops: int, overhead_s: float) -> dict:
        """Per-layer metrics; times are seconds per benchmark operation."""
        s = self.spans
        c = self.counts

        def per_op(name):
            return s[name].total_s / ops

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        cheb = s["dynamics.evolve_cheb"]
        values = {
            "lattice.build_full_s": per_op("lattice.build_full"),
            "lattice.dim": c["dim"],
            "lattice.nnz": c["nnz"],
            "lattice.dense_eig_s": per_op("lattice.dense_eig"),
            "dynamics.evolve_cheb_s": per_op("dynamics.evolve_cheb"),
            "dynamics.cheb_terms": ratio(c["spmv"], cheb.calls),
            "dynamics.term_us": ratio(cheb.total_s, c["spmv"], 1e6),
            "dynamics.term_bytes_computed": c["term_bytes"],
            "dynamics.evolve_exact_s": per_op("dynamics.evolve_exact"),
            "dynamics.run_self_s": (s["dynamics.run_algorithm"].total_s
                                    - s["dynamics.run_algorithm"].children_s) / ops,
            "dynamics.measure_s": per_op("dynamics.initial_packet") + per_op("dynamics.prob_right"),
            "dynamics.norm_drift": c["norm_drift"],
            "scattering.y_bottom_s": per_op("scattering.y_bottom"),
            "scattering.y_bottom_ns_per_leaf_energy": ratio(
                s["scattering.y_bottom"].total_s, c["leaf_energies"], 1e9),
            "scattering.transmission_s": per_op("scattering.transmission"),
            "scattering.scan_bounds_s": per_op("scattering.scan_bounds"),
            "scattering.y_at_zero_s": per_op("scattering.y_at_zero"),
            "spectral.packet_spectrum_s": per_op("spectral.packet_spectrum"),
            "spectral.band_mass_s": per_op("spectral.band_mass"),
            "nand_core.hard_query_samples_s": per_op("nand_core.hard_query_samples"),
            "nand_core.query_samples_per_s": ratio(
                c["query_samples"], s["nand_core.hard_query_samples"].total_s),
            "nand_core.randomized_eval_s": per_op("nand_core.randomized_eval"),
            "harness.sweep_s": per_op("harness.sweep"),
            "harness.self_s": (s["harness.cli_main"].total_s
                               - s["dynamics.run_algorithm"].total_s) / ops
            if s["harness.cli_main"].calls else 0.0,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in LAYER_METRICS}
