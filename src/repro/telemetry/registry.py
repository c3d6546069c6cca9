"""Zero-dependency metrics registry (counters, gauges, histograms).

A deliberately small, stdlib-only take on the Prometheus client-library
data model, sized for this reproduction's needs:

* three instrument types — :class:`Counter` (monotone), :class:`Gauge`
  (set/inc/dec) and :class:`Histogram` (fixed bucket bounds, cumulative
  counts plus sum/count) — each optionally labelled;
* one :class:`MetricsRegistry` that owns the instruments and renders
  them as a plain dict (:meth:`~MetricsRegistry.snapshot`), Prometheus
  text exposition (:meth:`~MetricsRegistry.render_prometheus`) or JSON
  (:meth:`~MetricsRegistry.to_json` / :meth:`~MetricsRegistry.write_json`).

The overhead contract mirrors :class:`~repro.sim.trace.TraceRecorder`:
a registry constructed with ``enabled=False`` hands out shared no-op
instruments whose ``inc``/``set``/``observe`` bodies are a bare
``return``, so instrumentation sites stay no-op-cheap when telemetry is
off (the benchmark guard in ``benchmarks/test_bench_telemetry.py`` pins
this).  Most of the simulator is instrumented *pull-style* anyway — the
hot paths maintain plain integer counters and the collectors in
:mod:`repro.telemetry.collectors` sample them into a registry after the
run — so enabling telemetry costs nothing on the event dispatch path.

Label usage follows the Prometheus conventions: an unlabelled
instrument has exactly one time series; a labelled one materializes a
child series per distinct label-value tuple via :meth:`Metric.labels`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.io import atomic_write

#: Default histogram bucket upper bounds (seconds-flavoured, matching
#: the Prometheus client defaults closely enough for wall-time data).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Identifies snapshots written by :meth:`MetricsRegistry.write_json`.
METRICS_FORMAT = "repro-metrics-v1"

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Union[int, float]) -> str:
    # Integers render without a trailing ``.0`` so counter output stays
    # diff-friendly; floats use repr (shortest round-trip form).
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _NoopSeries:
    """Shared do-nothing child handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        return

    def dec(self, amount: Union[int, float] = 1) -> None:
        return

    def set(self, value: Union[int, float]) -> None:
        return

    def observe(self, value: Union[int, float]) -> None:
        return

    @property
    def value(self) -> float:
        return 0.0


_NOOP_SERIES = _NoopSeries()


class _NoopMetric(_NoopSeries):
    """Disabled-registry instrument: ``labels(...)`` returns itself."""

    __slots__ = ()

    def labels(self, **label_values: str) -> "_NoopMetric":
        return self


_NOOP_METRIC = _NoopMetric()


class _CounterSeries:
    """One (label-tuple) time series of a counter."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self._value += amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class _GaugeSeries:
    """One (label-tuple) time series of a gauge."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self._value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._value -= amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class _HistogramSeries:
    """One (label-tuple) time series of a histogram."""

    __slots__ = ("_bounds", "_bucket_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]):
        self._bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum: float = 0.0
        self._count: int = 0

    def observe(self, value: Union[int, float]) -> None:
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self._bounds):
            if value <= bound:
                self._bucket_counts[index] += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def buckets(self) -> "list[tuple[float, int]]":
        """Cumulative ``(upper_bound, count)`` pairs (excluding +Inf)."""
        return list(zip(self._bounds, self._bucket_counts))


class Metric:
    """One named instrument with zero or more labelled child series."""

    _series_type = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._series: "dict[tuple[str, ...], Any]" = {}

    # -- child management ------------------------------------------------

    def _new_series(self):
        raise NotImplementedError

    def labels(self, **label_values: str):
        """The child series for one label-value combination (memoized)."""
        if set(label_values) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.labelnames)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._new_series()
        return series

    def _default_series(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    # -- read-side -------------------------------------------------------

    def series(self) -> "list[tuple[dict[str, str], Any]]":
        """``(labels-dict, series)`` pairs in insertion order."""
        return [
            (dict(zip(self.labelnames, key)), series)
            for key, series in self._series.items()
        ]

    def snapshot(self) -> "dict[str, Any]":
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"series={len(self._series)})")


class Counter(Metric):
    """Monotonically increasing count (events fired, cache hits, ...)."""

    _series_type = "counter"

    def _new_series(self) -> _CounterSeries:
        return _CounterSeries()

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._default_series().inc(amount)

    @property
    def value(self) -> Union[int, float]:
        return self._default_series().value

    def snapshot(self) -> "dict[str, Any]":
        return {
            "type": "counter",
            "help": self.help,
            "values": [
                {"labels": labels, "value": series.value}
                for labels, series in self.series()
            ],
        }


class Gauge(Metric):
    """Point-in-time value (heap depth, queue occupancy, utilization)."""

    _series_type = "gauge"

    def _new_series(self) -> _GaugeSeries:
        return _GaugeSeries()

    def set(self, value: Union[int, float]) -> None:
        self._default_series().set(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._default_series().inc(amount)

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._default_series().dec(amount)

    @property
    def value(self) -> Union[int, float]:
        return self._default_series().value

    def snapshot(self) -> "dict[str, Any]":
        return {
            "type": "gauge",
            "help": self.help,
            "values": [
                {"labels": labels, "value": series.value}
                for labels, series in self.series()
            ],
        }


class Histogram(Metric):
    """Distribution with fixed cumulative buckets (task wall times)."""

    _series_type = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted, got {bounds}")
        self.buckets = bounds

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self.buckets)

    def observe(self, value: Union[int, float]) -> None:
        self._default_series().observe(value)

    def snapshot(self) -> "dict[str, Any]":
        return {
            "type": "histogram",
            "help": self.help,
            "values": [
                {
                    "labels": labels,
                    "sum": series.sum,
                    "count": series.count,
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in series.buckets()
                    ],
                }
                for labels, series in self.series()
            ],
        }


class MetricsRegistry:
    """Owns a named set of instruments and renders them for export.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling them
    twice with the same name returns the same instrument (with a type
    check), so collectors can run repeatedly against one registry.

    A registry constructed with ``enabled=False`` returns shared no-op
    instruments instead — the disabled path allocates nothing and every
    emit degrades to a single attribute call returning immediately.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: "dict[str, Metric]" = {}

    # -- instrument factories -------------------------------------------

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            if tuple(labelnames) != existing.labelnames:
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, not {tuple(labelnames)}"
                )
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        if not self.enabled:
            return _NOOP_METRIC  # type: ignore[return-value]
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        if not self.enabled:
            return _NOOP_METRIC  # type: ignore[return-value]
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NOOP_METRIC  # type: ignore[return-value]
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    # -- read-side -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> "list[str]":
        return sorted(self._metrics)

    def value(self, name: str, **label_values: str) -> Union[int, float]:
        """Convenience: current value of one counter/gauge series.

        Raises ``KeyError`` for unknown metrics — tests use this to
        reconcile counters against independently derived counts.
        """
        metric = self._metrics[name]
        series = metric.labels(**label_values)
        return series.value

    def snapshot(self) -> "dict[str, Any]":
        """All instruments as one plain-data dict (JSON-safe)."""
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }

    # -- exporters -------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: "list[str]" = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric._series_type}")
            for labels, series in metric.series():
                label_text = ",".join(
                    f'{key}="{_escape_label_value(value)}"'
                    for key, value in labels.items()
                )
                if isinstance(metric, Histogram):
                    for bound, count in series.buckets():
                        bucket_labels = label_text + ("," if label_text else "")
                        lines.append(
                            f"{name}_bucket{{{bucket_labels}"
                            f'le="{_format_value(bound)}"}} {count}'
                        )
                    bucket_labels = label_text + ("," if label_text else "")
                    lines.append(
                        f'{name}_bucket{{{bucket_labels}le="+Inf"}} '
                        f"{series.count}"
                    )
                    suffix = f"{{{label_text}}}" if label_text else ""
                    lines.append(f"{name}_sum{suffix} "
                                 f"{_format_value(series.sum)}")
                    lines.append(f"{name}_count{suffix} {series.count}")
                else:
                    suffix = f"{{{label_text}}}" if label_text else ""
                    lines.append(
                        f"{name}{suffix} {_format_value(series.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, metadata: "Mapping[str, Any] | None" = None) -> str:
        """JSON document with the snapshot plus free-form metadata."""
        payload = {
            "format": METRICS_FORMAT,
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
            + "Z",
            "metadata": dict(metadata or {}),
            "metrics": self.snapshot(),
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def write_json(self, path: "str | Path",
                   metadata: "Mapping[str, Any] | None" = None) -> Path:
        """Write :meth:`to_json` to a file; returns the path."""
        target = Path(path)
        atomic_write(target, self.to_json(metadata))
        return target

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, metrics={len(self._metrics)})"


def load_metrics_json(path: "str | Path") -> "dict[str, Any]":
    """Load and validate a ``--metrics-json`` file."""
    payload = json.loads(Path(path).read_text())
    if (not isinstance(payload, dict)
            or payload.get("format") != METRICS_FORMAT
            or not isinstance(payload.get("metrics"), dict)):
        raise ValueError(f"{path} is not a repro metrics snapshot")
    return payload
