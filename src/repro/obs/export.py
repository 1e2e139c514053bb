"""Prometheus text exposition for the metrics registry, plus a parser.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
into the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (version
``0.0.4``) served by ``GET /metrics`` on the ``upcc serve`` daemon:

* one ``# HELP`` / ``# TYPE`` pair per metric family, families sorted by
  name, dotted metric names sanitized to ``snake_case`` identifiers;
* counters and gauges as plain samples with escaped label values;
* histograms as cumulative ``<name>_bucket{le="..."}`` series over the
  fixed log-scale ladder (:data:`repro.obs.metrics.DEFAULT_BUCKETS`),
  closed by ``le="+Inf"``, plus ``<name>_sum`` and ``<name>_count``.

``openmetrics=True`` switches to the `OpenMetrics text format
<https://github.com/OpenObservability/OpenMetrics>`_ instead: bucket
exemplars are emitted (an OpenMetrics-only feature the classic 0.0.4
parser rejects), counter families are named without the ``_total``
sample suffix as the spec requires, and the payload is terminated by
``# EOF``.  The daemon negotiates the variant off the scraper's
``Accept`` header, so a stock Prometheus server always gets a payload
its parser accepts while exemplar-aware scrapers opt in.

:func:`parse_prometheus_text` is the stdlib-only inverse used by the
exposition tests, the CI smoke step and ``upcc top``: it parses an
exposition payload back into metric families and validates the
structural invariants (TYPE before samples, bucket monotonicity,
``_count`` == the ``+Inf`` bucket).  :func:`quantile_from_buckets`
estimates percentiles from a scraped cumulative bucket series, which is
how the load generator and dashboard report server-side p99 without any
access to the raw observations.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricFamily",
    "counter_exposition_name",
    "escape_help_text",
    "escape_label_value",
    "format_value",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "render_prometheus",
    "sanitize_metric_name",
]

#: The content type ``GET /metrics`` answers with by default.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: The content type of the exemplar-bearing OpenMetrics variant, served
#: when the scraper's ``Accept`` header asks for it.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_OK_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """``name`` as a valid Prometheus metric name.

    The registry's dotted names (``serve.request_ms``) become underscore
    names (``serve_request_ms``); any other invalid character maps to
    ``_`` and a leading digit gets a ``_`` prefix.
    """
    if _NAME_OK_RE.match(name):
        return name
    sanitized = _NAME_BAD_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def counter_exposition_name(base_name: str) -> str:
    """The exposition name of a counter: sanitized, with ``_total`` enforced.

    Prometheus convention names every counter ``<thing>_total``; internal
    dotted names that already follow it (``serve.requests_total``) pass
    through, the rest (``serve.model_cache_hits``) gain the suffix.
    """
    name = sanitize_metric_name(base_name)
    return name if name.endswith("_total") else f"{name}_total"


def escape_label_value(value: Any) -> str:
    """A label value escaped per the exposition spec (``\\``, ``"``, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def escape_help_text(text: str) -> str:
    """HELP-line text escaped per the exposition spec (``\\`` and newline)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """A sample value in exposition form (ints stay ints, ``+Inf`` spelled out)."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if math.isinf(as_float):
        return "+Inf" if as_float > 0 else "-Inf"
    if math.isnan(as_float):
        return "NaN"
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def format_le(bound: float) -> str:
    """A bucket bound as its ``le`` label value (``0.25``, ``10``, ``+Inf``)."""
    if math.isinf(bound):
        return "+Inf"
    return format(bound, "g")


def _render_labels(labels: dict[str, Any], extra: str | None = None) -> str:
    parts = [
        f'{key}="{escape_label_value(labels[key])}"' for key in sorted(labels)
    ]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(
    registry: "MetricsRegistry", *, openmetrics: bool = False
) -> str:
    """``registry`` as a Prometheus text exposition payload.

    Deterministic: families sorted by exposition name, series within a
    family sorted by label set, one trailing newline.

    ``openmetrics=True`` renders the OpenMetrics variant instead: bucket
    exemplars included, counter HELP/TYPE lines named without the
    ``_total`` sample suffix, and a closing ``# EOF``.  The default
    classic 0.0.4 payload carries **no** exemplars -- the classic parser
    treats the ``#`` mid-line as a syntax error and fails the whole
    scrape.
    """
    from repro.obs.metrics import description_of

    counters, gauges, histograms = registry.instruments()
    families: dict[str, tuple[str, str, list[str]]] = {}

    def family(base_name: str, kind: str, name: str) -> list[str]:
        if name not in families:
            described = description_of(base_name)
            help_text = escape_help_text(
                described if described is not None
                else f"repro metric {base_name} ({kind})"
            )
            families[name] = (kind, help_text, [])
        return families[name][2]

    for instrument in sorted(counters, key=lambda c: (c.base_name, c.name)):
        name = counter_exposition_name(instrument.base_name)
        # OpenMetrics names the *family* without the ``_total`` suffix
        # its samples carry; the classic format uses one name for both.
        family_name = name[: -len("_total")] if openmetrics else name
        lines = family(instrument.base_name, "counter", family_name)
        lines.append(
            f"{name}{_render_labels(instrument.labels)} "
            f"{format_value(instrument.value)}"
        )
    for instrument in sorted(gauges, key=lambda g: (g.base_name, g.name)):
        name = sanitize_metric_name(instrument.base_name)
        lines = family(instrument.base_name, "gauge", name)
        lines.append(
            f"{name}{_render_labels(instrument.labels)} "
            f"{format_value(float(instrument.value))}"
        )
    for instrument in sorted(histograms, key=lambda h: (h.base_name, h.name)):
        name = sanitize_metric_name(instrument.base_name)
        lines = family(instrument.base_name, "histogram", name)
        pairs = instrument.cumulative_buckets()
        exemplars = (
            instrument.bucket_exemplars() if openmetrics
            else [(bound, None) for bound, _ in pairs]
        )
        with instrument._lock:
            total, count = instrument.total, instrument.count
        for (bound, cumulative), (_, exemplar) in zip(pairs, exemplars):
            le = f'le="{format_le(bound)}"'
            line = (
                f"{name}_bucket{_render_labels(instrument.labels, le)} "
                f"{cumulative}"
            )
            if exemplar is not None:
                line += (
                    f' # {{trace_id="{escape_label_value(exemplar.trace_id)}"'
                    f',request_id="{escape_label_value(exemplar.request_id)}"}}'
                    f" {format_value(round(exemplar.value, 6))}"
                    f" {format_value(round(exemplar.ts, 6))}"
                )
            lines.append(line)
        lines.append(
            f"{name}_sum{_render_labels(instrument.labels)} "
            f"{format_value(round(total, 6))}"
        )
        lines.append(f"{name}_count{_render_labels(instrument.labels)} {count}")

    output: list[str] = []
    for name in sorted(families):
        kind, help_text, lines = families[name]
        output.append(f"# HELP {name} {help_text}")
        output.append(f"# TYPE {name} {kind}")
        output.extend(lines)
    if openmetrics:
        output.append("# EOF")
    return "\n".join(output) + "\n" if output else "\n"


class MetricFamily:
    """One parsed exposition family: type, help, samples and exemplars."""

    __slots__ = ("name", "type", "help", "samples", "exemplars")

    def __init__(self, name: str, type_: str | None = None,
                 help_: str | None = None) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        #: ``(sample name, labels dict, float value)`` in payload order.
        self.samples: list[tuple[str, dict[str, str], float]] = []
        #: OpenMetrics exemplars, kept apart from ``samples`` so existing
        #: 3-tuple consumers keep working:
        #: ``(sample name, sample labels, exemplar labels, value, ts)``.
        self.exemplars: list[
            tuple[str, dict[str, str], dict[str, str], float, float | None]
        ] = []

    def values(self) -> list[float]:
        """The raw sample values, payload order."""
        return [value for _, _, value in self.samples]

    def buckets(self, labels: dict[str, str] | None = None) -> list[tuple[float, int]]:
        """The cumulative ``(le, count)`` series of a histogram family.

        ``labels`` (if given) filters to the series whose non-``le``
        labels equal it; otherwise bucket samples across all series with
        equal ``le`` are summed (scrape-side aggregation).
        """
        by_le: dict[float, int] = {}
        for name, sample_labels, value in self.samples:
            if not name.endswith("_bucket") or "le" not in sample_labels:
                continue
            rest = {k: v for k, v in sample_labels.items() if k != "le"}
            if labels is not None and rest != labels:
                continue
            le_text = sample_labels["le"]
            bound = float("inf") if le_text == "+Inf" else float(le_text)
            by_le[bound] = by_le.get(bound, 0) + int(value)
        return sorted(by_le.items())


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def _scan_labels(text: str, pos: int) -> tuple[dict[str, str], int]:
    """Parse the ``{...}`` label block starting at ``text[pos]``.

    Returns ``(labels, position after the closing brace)``.  The block is
    consumed one ``name="value"`` pair at a time, so a label *value*
    containing ``}``, ``#`` or ``,`` can never end the block early -- the
    only ``}`` that closes it is one outside a quoted value.
    """
    labels: dict[str, str] = {}
    pos += 1  # past the opening brace
    while True:
        if pos >= len(text):
            raise ValueError("unterminated label block")
        if text[pos] == "}":
            return labels, pos + 1
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise ValueError(f"unparsable labels near {text[pos:]!r}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        pos = match.end()
        if pos < len(text) and text[pos] == ",":
            pos += 1


def _parse_sample_line(
    line: str,
) -> tuple[str, dict[str, str], str, tuple[dict[str, str], str, str | None] | None]:
    """Split one sample line into name, labels, value text and exemplar.

    ``name{labels} value`` with an optional OpenMetrics exemplar trailer
    ``# {labels} value [timestamp]``.  Label blocks are scanned
    label-by-label (:func:`_scan_labels`) rather than matched by a
    whole-line regex, so ``'} '`` or ``'# {'`` *inside* a label value is
    plain data, never a phantom block terminator or exemplar.
    """
    match = _METRIC_NAME_RE.match(line)
    if match is None:
        raise ValueError("no metric name")
    name = match.group(0)
    pos = match.end()
    labels: dict[str, str] = {}
    if pos < len(line) and line[pos] == "{":
        labels, pos = _scan_labels(line, pos)
    if pos < len(line) and not line[pos].isspace():
        raise ValueError(f"junk after labels: {line[pos:]!r}")
    rest = line[pos:].strip()
    if not rest:
        raise ValueError("missing value")
    parts = rest.split(None, 1)
    value_text = parts[0]
    trailer = parts[1].strip() if len(parts) > 1 else ""
    if not trailer:
        return name, labels, value_text, None
    if not trailer.startswith("#"):
        raise ValueError(f"junk after value: {trailer!r}")
    body = trailer[1:].lstrip()
    if not body.startswith("{"):
        raise ValueError(f"malformed exemplar: {trailer!r}")
    exemplar_labels, end = _scan_labels(body, 0)
    tokens = body[end:].split()
    if not tokens or len(tokens) > 2:
        raise ValueError(f"malformed exemplar: {trailer!r}")
    exemplar = (exemplar_labels, tokens[0], tokens[1] if len(tokens) == 2 else None)
    return name, labels, value_text, exemplar


def parse_prometheus_text(text: str) -> dict[str, MetricFamily]:
    """Parse an exposition payload into families; raise ``ValueError`` on defects.

    Structural validation beyond raw syntax:

    * a sample's family must match a preceding ``# TYPE`` (untyped
      samples form an implicit ``untyped`` family, as the spec allows);
    * histogram ``_bucket`` series must be cumulative (non-decreasing in
      ``le`` order) and closed by ``le="+Inf"``;
    * a histogram's ``_count`` must equal its ``+Inf`` bucket.
    """
    families: dict[str, MetricFamily] = {}

    def family_for_sample(sample_name: str) -> MetricFamily:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if base in families and families[base].type == "histogram":
                    return families[base]
        # OpenMetrics counter families are declared without the _total
        # suffix their samples carry.
        if sample_name.endswith("_total"):
            base = sample_name[: -len("_total")]
            if base in families and families[base].type == "counter":
                return families[base]
        if sample_name not in families:
            families[sample_name] = MetricFamily(sample_name, "untyped")
        return families[sample_name]

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            family = families.setdefault(name, MetricFamily(name))
            family.help = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ", 1)
            if len(parts) != 2:
                raise ValueError(f"line {line_number}: malformed TYPE line: {line!r}")
            name, type_ = parts
            if type_ not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(
                    f"line {line_number}: unknown metric type {type_!r}"
                )
            family = families.setdefault(name, MetricFamily(name))
            if family.samples:
                raise ValueError(
                    f"line {line_number}: TYPE for {name!r} after its samples"
                )
            family.type = type_
            continue
        if line.startswith("#"):
            continue  # comment (including the OpenMetrics "# EOF")
        try:
            name, labels, value_text, exemplar_parts = _parse_sample_line(line)
        except ValueError as error:
            raise ValueError(
                f"line {line_number}: unparsable sample: {line!r} ({error})"
            ) from None
        try:
            value = _parse_value(value_text)
        except ValueError:
            raise ValueError(
                f"line {line_number}: unparsable value {value_text!r}"
            ) from None
        family = family_for_sample(name)
        family.samples.append((name, labels, value))
        if exemplar_parts is not None:
            exemplar_labels, exemplar_value_text, ts_text = exemplar_parts
            try:
                exemplar_value = _parse_value(exemplar_value_text)
                exemplar_ts = _parse_value(ts_text) if ts_text else None
            except ValueError:
                raise ValueError(
                    f"line {line_number}: unparsable exemplar on {line!r}"
                ) from None
            family.exemplars.append(
                (name, labels, exemplar_labels, exemplar_value, exemplar_ts)
            )

    _validate_histograms(families)
    return families


def _validate_histograms(families: dict[str, MetricFamily]) -> None:
    for family in families.values():
        if family.type != "histogram":
            continue
        series: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
        counts: dict[tuple[tuple[str, str], ...], float] = {}
        for name, labels, value in family.samples:
            rest = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            if name.endswith("_bucket"):
                le_text = labels.get("le")
                if le_text is None:
                    raise ValueError(
                        f"{family.name}: bucket sample without an le label"
                    )
                bound = float("inf") if le_text == "+Inf" else float(le_text)
                series.setdefault(rest, []).append((bound, value))
            elif name.endswith("_count"):
                counts[rest] = value
        for rest, pairs in series.items():
            pairs.sort()
            if not pairs or not math.isinf(pairs[-1][0]):
                raise ValueError(
                    f"{family.name}: bucket series not closed by le=\"+Inf\""
                )
            previous = -1.0
            for bound, value in pairs:
                if value < previous:
                    raise ValueError(
                        f"{family.name}: bucket counts not cumulative at "
                        f"le={format_le(bound)}"
                    )
                previous = value
            if rest in counts and counts[rest] != pairs[-1][1]:
                raise ValueError(
                    f"{family.name}: _count {counts[rest]} != +Inf bucket "
                    f"{pairs[-1][1]}"
                )


def quantile_from_buckets(
    buckets: Sequence[tuple[float, float]] | Iterable[tuple[float, float]],
    q: float,
) -> float:
    """Estimated q-th percentile from a *cumulative* ``(le, count)`` series.

    Linear interpolation inside the bucket containing the target rank.
    The ``+Inf`` bucket has no finite upper edge, so estimates clamp to
    the last finite bound.  0.0 when the series is empty.
    :meth:`repro.obs.metrics.Histogram.quantile` is this estimate over its
    own buckets, clamped to the observed min/max.
    """
    pairs = sorted(buckets)
    if not pairs:
        return 0.0
    total = pairs[-1][1]
    if total <= 0:
        return 0.0
    target = max(1e-12, q / 100.0) * total
    lower = 0.0
    previous_count = 0.0
    last_finite = 0.0
    for bound, cumulative in pairs:
        if cumulative >= target:
            in_bucket = cumulative - previous_count
            if math.isinf(bound):
                return last_finite
            if in_bucket <= 0:
                return bound
            fraction = (target - previous_count) / in_bucket
            return lower + (bound - lower) * fraction
        previous_count = cumulative
        if not math.isinf(bound):
            lower = bound
            last_finite = bound
    return last_finite
