"""Spans around the calls into each modlink layer, recorded from outside.

The modules bind each other's functions with ``from .x import f``, so a
wrapper has to replace every module-level name that refers to the
original function, not only the one in the defining module.  Spans are
``(name, start, end, parent, pass_id, flags)`` tuples kept in memory and
written out when the run ends.  A layer's self time is its span's
duration minus the duration of its child spans.

Per-letter helpers (``generator``, ``MatrixPSL2Z.__mul__``, ``Slope``)
are deliberately not wrapped, so tracing adds a few microseconds per
layer call, never per letter.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Public functions wrapped by the tracer, as "module.function".
LAYERS = (
    "cli.main",
    "farey.farey_path",
    "farey.v_orbit",
    "farey.order_as_farey_chain",
    "cutting.slope_to_word",
    "cutting.ab_sequence",
    "cutting.ab_to_lr",
    "psl2z.least_rotation",
    "psl2z.word_to_matrix",
    "psl2z.geodesic_length",
    "psl2z.field_discriminant",
    "links.build_family",
    "links.census",
    "links.volume_length_table",
    "serialize.family_to_json",
    "serialize.report_to_csv",
)

LAYER_METRICS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("errors", "count"))

# Size counts taken from arguments and results: (metric name, unit).
SIZE_METRICS = (
    ("cutting.ab_sequence.letters", "count"),
    ("psl2z.least_rotation.letters", "count"),
    ("psl2z.word_to_matrix.letters", "count"),
    ("psl2z.field_discriminant.trace_bits_sum", "bit"),
    ("psl2z.field_discriminant.trace_bits_max", "bit"),
    ("cli.main.stdout_bytes", "bytes"),
)

ERROR = 1  # an exception escaped the call
RESUMED = 2  # a later segment of a generator call, not a new call


def _ab_letters(sizes, args, result):
    sizes["cutting.ab_sequence.letters"] += len(result)


def _rotation_letters(sizes, args, result):
    sizes["psl2z.least_rotation.letters"] += len(args[0])


def _matrix_letters(sizes, args, result):
    sizes["psl2z.word_to_matrix.letters"] += len(args[0])


def _trace_bits(sizes, args, result):
    bits = args[0].trace().bit_length()
    sizes["psl2z.field_discriminant.trace_bits_sum"] += bits
    key = "psl2z.field_discriminant.trace_bits_max"
    sizes[key] = max(sizes[key], bits)


_MEASURES = {
    "cutting.ab_sequence": _ab_letters,
    "psl2z.least_rotation": _rotation_letters,
    "psl2z.word_to_matrix": _matrix_letters,
    "psl2z.field_discriminant": _trace_bits,
}


class Tracer:
    """Records spans and size counts, one pass at a time."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._pass_id = -1

    def _wrap_function(self, name, fn):
        spans, stack = self.spans, self._stack
        measure = _MEASURES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            flags = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags = ERROR
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._pass_id, flags)
            if measure is not None:
                measure(self.sizes[self._pass_id], args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """One span per resumption; only the first counts as a call."""
        spans, stack = self.spans, self._stack

        def segments(it):
            flags = 0
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = perf_counter()
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                except BaseException:
                    flags |= ERROR
                    raise
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, self._pass_id, flags)
                    flags = RESUMED
                if done:
                    return
                yield item

        def traced(*args, **kwargs):
            return segments(fn(*args, **kwargs))

        return traced

    @contextmanager
    def installed(self, pass_id: int):
        """Wrap every layer function of the loaded modlink for one pass."""
        self._pass_id = pass_id
        self.sizes[pass_id] = Counter()
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "modlink" or key.startswith("modlink.")
        ]
        replaced = []
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            original = getattr(sys.modules[f"modlink.{module_name}"], func_name)
            wrap = (
                self._wrap_generator
                if inspect.isgeneratorfunction(original)
                else self._wrap_function
            )
            wrapper = wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in replaced:
                setattr(mod, attr, original)

    def pass_summary(self, pass_id: int) -> dict[str, float]:
        """calls, total_s, self_s and errors of each layer in one pass."""
        child_time: dict[int, float] = defaultdict(float)
        mine = []
        for idx, span in enumerate(self.spans):
            name, start, end, parent, pid, flags = span
            if pid != pass_id:
                continue
            mine.append((idx, span))
            if parent >= 0:
                child_time[parent] += end - start
        out = {
            f"{layer}.{m}": 0.0 if m.endswith("_s") else 0
            for layer in LAYERS
            for m, _ in LAYER_METRICS
        }
        for idx, (name, start, end, parent, pid, flags) in mine:
            dur = end - start
            out[f"{name}.total_s"] += dur
            out[f"{name}.self_s"] += dur - child_time[idx]
            if not flags & RESUMED:
                out[f"{name}.calls"] += 1
            if flags & ERROR:
                out[f"{name}.errors"] += 1
        sizes = self.sizes[pass_id]
        for key, _ in SIZE_METRICS:
            out[key] = sizes[key]
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans: name, start, end, parent index, pass, flags."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tpass\tflags\n")
            for name, start, end, parent, pid, flags in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pid}\t{flags}\n")


def combine(summaries: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median times over passes; counts must repeat exactly in every pass.

    Returns the combined metrics and a list of counts that differed.
    """
    combined, unstable = {}, []
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key.endswith("_s"):
            combined[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                unstable.append(f"{key} varies between passes: {values}")
            combined[key] = values[0]
    return combined, unstable
