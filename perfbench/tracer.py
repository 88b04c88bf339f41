"""Outside-in tracing of charsum's public functions.

The tracer swaps every binding of a traced function for a timing wrapper: the
defining module, every charsum module that imported it by name, and class
attributes (so ``CycInt.__rmul__``, an alias of ``__mul__``, is traced too).
A wrapper only on the defining module would miss calls made through
``from .engines import shifted_values_all`` style imports.

Per function it records the call count and self time (span duration minus the
time covered by traced child spans), plus a few operation counts computed from
the call arguments.  ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (metric prefix, module, attribute path) of every traced function, by layer.
TARGETS = (
    ("field.make_ctx", "charsum.field", "make_ctx"),
    ("field.subgroups", "charsum.field", "subgroups"),
    ("field.subgroup_near_sqrt", "charsum.field", "subgroup_near_sqrt"),
    ("characters.value_table", "charsum.characters", "Character.value_table"),
    ("cyclo.cyclotomic_poly", "charsum.cyclo", "cyclotomic_poly"),
    ("cyclo.reduction_rows", "charsum.cyclo", "reduction_rows"),
    ("cyclo.CycInt.reduced", "charsum.cyclo", "CycInt.reduced"),
    ("cyclo.CycInt.mul", "charsum.cyclo", "CycInt.__mul__"),
    ("engines.shifted_values_all", "charsum.engines", "shifted_values_all"),
    ("engines.bilinear_S", "charsum.engines", "bilinear_S"),
    ("engines.bilinear_Sprime", "charsum.engines", "bilinear_Sprime"),
    ("engines.exp_sum_subset", "charsum.engines", "exp_sum_subset"),
    ("verifier.run_suite", "charsum.verifier", "run_suite"),
    ("verifier.check_theorem2", "charsum.verifier", "check_theorem2"),
    ("verifier.check_sharpened_theorem2", "charsum.verifier", "check_sharpened_theorem2"),
    ("verifier.check_eps_corollary", "charsum.verifier", "check_eps_corollary"),
    ("verifier.check_eq2_identity", "charsum.verifier", "check_eq2_identity"),
    ("verifier.check_meanvalue2", "charsum.verifier", "check_meanvalue2"),
    ("verifier.check_granville", "charsum.verifier", "check_granville"),
    ("verifier.check_shkredov_bound", "charsum.verifier", "check_shkredov_bound"),
    ("verifier.check_konyagin", "charsum.verifier", "check_konyagin"),
    ("verifier.check_lemma3", "charsum.verifier", "check_lemma3"),
    ("verifier.check_kernel_cases", "charsum.verifier", "check_kernel_cases"),
    ("verifier.check_nonlinear_bound_all_shifts", "charsum.verifier",
     "check_nonlinear_bound_all_shifts"),
    ("scan.scan_range", "charsum.scan", "scan_range"),
    ("scan.scan_prime", "charsum.scan", "scan_prime"),
    ("cli.main", "charsum.cli", "main"),
)


def _fft_points(ctx, *args, **kwargs):
    return ctx.p


def _diff_cells(ctx, chi, D):
    size = len({d % ctx.p for d in D})
    return size * size * ctx.p


def _grid_cells(ctx, chi, a, pairs=None):
    npairs = ctx.p * ctx.p if pairs is None else len(pairs)
    return npairs * ctx.p


# Operation counts computed from the arguments of a traced call (not measured).
COMPUTED = {
    "engines.shifted_values_all": ("fft_points", _fft_points),
    "verifier.check_eq2_identity": ("diff_cells", _diff_cells),
    "verifier.check_kernel_cases": ("grid_cells", _grid_cells),
}

# lru_cache'd functions whose hit ratio is read from cache_info().
CACHED = ("cyclo.cyclotomic_poly", "cyclo.reduction_rows")


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    computed: int = 0


@dataclass
class Tracer:
    stats: dict = field(default_factory=lambda: {name: _Stat() for name, _, _ in TARGETS})
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)
    _originals: dict = field(default_factory=dict)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        count = COMPUTED.get(name, (None, None))[1]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                stat.computed += count(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat.self_s += dur - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded charsum module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "charsum" or n.startswith("charsum.")) and m is not None]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                # class attributes: the defining class holds every alias
                holders = [owner]
            else:
                holders = modules
            orig = owner.__dict__[attr]
            self._originals[name] = orig
            wrapper = self._wrap(name, orig)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, orig = self._restore.pop()
            setattr(holder, key, orig)

    def metrics(self) -> dict:
        """Per-layer counts, self times, computed operation counts, hit ratios."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
            if name in COMPUTED:
                out[f"{name}.{COMPUTED[name][0]}"] = (stat.computed, "count")
        for name in CACHED:
            hits = looked_up = 0
            if name in self._originals:
                info = self._originals[name].cache_info()
                hits, looked_up = info.hits, info.hits + info.misses
            out[f"{name}.hit_ratio"] = (hits / looked_up if looked_up else 0.0, "ratio")
        return out
