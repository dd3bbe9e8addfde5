"""Counters, gauges and fixed-bucket histograms with labeled series.

A :class:`MetricsRegistry` owns named instruments; each instrument keeps
one series per distinct label set (labels are passed as keyword
arguments, like ``counter.inc(rule="R2")``).  The registry snapshots to a
single JSON-able dict with deterministic ordering, which a trace's
closing ``metrics`` record holds.

Everything is plain stdlib — no client library, no background threads —
because the pipeline is synchronous and single-process.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import ObservabilityError

#: Default histogram bucket upper edges (seconds) for ``Recorder.timed``.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0
)

#: Default bucket upper edges for small counts (affected FCMs, waves, ...).
DEFAULT_COUNT_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_text(key: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class _NullInstrument:
    """Shared no-op stand-in for every instrument type."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        return None

    def set(self, value: float, **labels) -> None:
        return None

    def observe(self, value: float, **labels) -> None:
        return None


NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """Monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.series: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (amount {amount})"
            )
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "series": {
                _label_text(key): value
                for key, value in sorted(self.series.items())
            },
        }


class Gauge:
    """Last-written value per label set."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.series: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        self.series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "series": {
                _label_text(key): value
                for key, value in sorted(self.series.items())
            },
        }


class _HistogramSeries:
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram:
    """Fixed-bucket histogram; a value lands in the first bucket whose
    upper edge is >= the value (``le`` semantics), else in overflow."""

    kind = "histogram"

    def __init__(self, name: str, buckets=None) -> None:
        edges = tuple(sorted(buckets if buckets is not None else DEFAULT_TIME_BUCKETS))
        if not edges:
            raise ObservabilityError(f"histogram {name!r} needs >= 1 bucket")
        if len(set(edges)) != len(edges):
            raise ObservabilityError(
                f"histogram {name!r} has duplicate bucket edges"
            )
        self.name = name
        self.buckets = edges
        self.series: dict[tuple, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _HistogramSeries(len(self.buckets))
        series.counts[bisect_left(self.buckets, value)] += 1
        series.count += 1
        series.sum += value
        series.min = min(series.min, value)
        series.max = max(series.max, value)

    def snapshot(self) -> dict:
        out: dict = {"type": self.kind, "buckets": list(self.buckets), "series": {}}
        for key, series in sorted(self.series.items()):
            out["series"][_label_text(key)] = {
                "counts": list(series.counts),
                "count": series.count,
                "sum": series.sum,
                "min": series.min,
                "max": series.max,
                "mean": series.sum / series.count if series.count else 0.0,
            }
        return out


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able as JSON."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets=None) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def _get(self, name, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif not isinstance(instrument, kind):
            raise ObservabilityError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """One JSON-able dict covering every instrument, sorted by name."""
        return {
            "format": "repro-metrics",
            "version": 1,
            "metrics": {
                name: self._instruments[name].snapshot()
                for name in self.names()
            },
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """Sanitise a dotted metric name into a Prometheus identifier."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def _prom_labels(label_text: str) -> str:
    """Render our ``k=v,k=v`` series key as a ``{k="v",...}`` label set."""
    if not label_text:
        return ""
    parts = []
    for pair in label_text.split(","):
        key, _, value = pair.partition("=")
        # Exposition format: backslash, double-quote and newline must be
        # escaped inside label values.
        escaped = (
            value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{_prom_name(key)}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value: float | None) -> str:
    # A trace writes a non-finite float as null.
    if value is None or value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def to_prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict in Prometheus text
    exposition format (``# TYPE`` comments, cumulative ``_bucket`` lines
    with ``le`` labels plus ``_sum``/``_count`` for histograms)."""
    if snapshot.get("format") != "repro-metrics":
        raise ObservabilityError(
            "not a repro-metrics snapshot (missing format tag)"
        )
    lines: list[str] = []
    for name, data in snapshot.get("metrics", {}).items():
        prom = _prom_name(name)
        kind = data.get("type")
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {prom} {kind}")
            for label_text, value in data.get("series", {}).items():
                lines.append(
                    f"{prom}{_prom_labels(label_text)} {_prom_value(value)}"
                )
        elif kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            edges = data.get("buckets", [])
            for label_text, series in data.get("series", {}).items():
                base = label_text.split(",") if label_text else []
                cumulative = 0
                counts = series.get("counts", [])
                for edge, count in zip(edges, counts):
                    cumulative += count
                    labels = ",".join(base + [f"le={edge}"])
                    lines.append(
                        f"{prom}_bucket{_prom_labels(labels)} {cumulative}"
                    )
                total = series.get("count", 0)
                labels = ",".join(base + ["le=+Inf"])
                lines.append(f"{prom}_bucket{_prom_labels(labels)} {total}")
                plain = _prom_labels(label_text)
                lines.append(
                    f"{prom}_sum{plain} {_prom_value(series.get('sum', 0.0))}"
                )
                lines.append(f"{prom}_count{plain} {total}")
        else:
            raise ObservabilityError(
                f"metric {name!r} has unknown type {kind!r}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
