"""Out-of-package tracing: spans and counts around sumdiff's public functions.

Each package module imports names directly (``from .linalg import
eig_hermitian``), so a wrapper is rebound in every ``sumdiff`` module
namespace that holds the original function object.  Hot helpers such as
``max_abs`` and ``dagger`` stay unwrapped.  Spans are kept in memory as
(request, name, start, end, parent) and written out by the caller.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Functions timed in the traced run, by module.
TRACED = {
    "cli": ("main", "build_parser"),
    "channels": ("apply_signed_kraus", "random_density_matrix", "ad2_apply",
                 "check_completeness", "ad2_coefficients"),
    "choi": ("choi_2ad", "ad2_partition", "extract_signed_kraus", "reconstruct_choi",
             "standard_kraus_from_choi"),
    "linalg": ("eig_hermitian", "kron", "partial_transpose", "eig_rank2_pair"),
    "analysis": ("pdc_effective_state", "pdc_kraus", "concurrence", "is_ppt", "eb_report"),
}


def _eig_counts(counts, args, kwargs, result):
    h = np.asarray(args[0] if args else kwargs["h"])
    n = h.shape[0]
    if n in (4, 16):
        counts[f"calls_n{n}"] += 1
    counts["nnz_sum"] += np.count_nonzero(h) / h.size


def _partition_elements(counts, args, kwargs, result):
    counts["elements"] += len(result.elements)


def _extracted_operators(counts, args, kwargs, result):
    counts["operators"] += result.count


def _apply_products(counts, args, kwargs, result):
    # one K rho K^dag product per operator of the set
    counts["products"] += (args[1] if len(args) > 1 else kwargs["ks"]).count


# Extra counts taken at a wrapped call: name -> (counter names, hook).
_HOOKS = {
    "linalg.eig_hermitian": (("calls_n16", "calls_n4", "nnz_sum"), _eig_counts),
    "choi.ad2_partition": (("elements",), _partition_elements),
    "choi.extract_signed_kraus": (("operators",), _extracted_operators),
    "channels.apply_signed_kraus": (("products",), _apply_products),
}


class Tracer:
    """Wrap the TRACED functions, record spans and per-function counts.

    ``with tracer:`` rebinds the wrappers and restores the originals on exit;
    spans and counts accumulate over every ``with`` block.
    """

    def __init__(self):
        self.spans = []  # (request, name, start, end, parent span index)
        self.request = 0
        self.stats = {}  # name -> {"calls", "self_s", "errors", extra counters}
        self._stack = []  # [span index, time covered by child spans]
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._undo = []  # (module, attribute, original)
        for mod_name, names in TRACED.items():
            for fn_name in names:
                original = getattr(sys.modules[f"sumdiff.{mod_name}"], fn_name)
                self._wrappers[id(original)] = (
                    original, self._wrap(f"{mod_name}.{fn_name}", original))

    def _wrap(self, name, fn):
        stats = self.stats[name] = {"calls": 0, "self_s": 0.0, "errors": 0}
        extra, hook = _HOOKS.get(name, ((), None))
        for key in extra:
            stats[key] = 0
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans[frame[0]] = (self.request, name, start, end,
                                   parent[0] if parent is not None else -1)
                stats["calls"] += 1
                stats["self_s"] += end - start - frame[1]
                if not ok:
                    stats["errors"] += 1
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sumdiff" or key.startswith("sumdiff."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Flatten stats into ``module.function.counter`` metric values."""
        out = {}
        for name, st in self.stats.items():
            for key, value in st.items():
                if key == "nnz_sum":  # the hook runs only on calls that returned
                    done = st["calls"] - st["errors"]
                    out[f"{name}.nnz_frac"] = value / done if done else 0.0
                else:
                    out[f"{name}.{key}"] = value
        return out
