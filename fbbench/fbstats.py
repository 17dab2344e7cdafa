"""Statistics shared by the fairbc benchmark scripts (stdlib only).

- percentiles by nearest rank, with the rule that a reported tail
  percentile needs at least ten samples beyond it;
- quartiles and relative spread, computed exactly as
  statistics.quantiles(values, n=4) gives them;
- a parser for the Prometheus text exposition the server's `metrics`
  command returns;
- the decision rule the comparer applies to two sets of runs.
"""

import math
import re
import statistics

# --- percentiles -------------------------------------------------------------

TAIL_SAMPLES = 10  # samples a reported percentile needs beyond it


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples:
    ceil(p/100 * n), with a tolerance so that 99.9% of 10000 is 9990."""
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def nearest_rank(values, p):
    """The p-th percentile (0 < p <= 100) by nearest rank: the
    ceil(p/100 * n)-th smallest value."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the p-th percentile."""
    return n - _rank(n, p)


def supports(n, p):
    """Whether n samples support reporting the p-th percentile."""
    return samples_beyond(n, p) >= TAIL_SAMPLES


def highest_supported(n, candidates=(99.9, 99.0, 90.0, 50.0)):
    """The highest candidate percentile that n samples support, or None."""
    for p in sorted(candidates, reverse=True):
        if supports(n, p):
            return p
    return None


# --- spread ------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median (0 for a zero
    median with no spread, infinity for a zero median with spread)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


# --- Prometheus text ---------------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\S+)?\s*$")
_LABEL = re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*,?')


def series_key(name, labels=None):
    """Canonical series name: `name` or `name{a="x",b="y"}`, labels sorted."""
    if not labels:
        return name
    inner = ",".join('%s="%s"' % (k, labels[k]) for k in sorted(labels))
    return "%s{%s}" % (name, inner)


def parse_prometheus(text):
    """Parses a text exposition into {series_key: float}. Comment and
    blank lines are skipped; a malformed sample line raises ValueError."""
    series = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("bad exposition line: %r" % line)
        labels = {}
        raw = m.group("labels") or ""
        pos = 0
        while pos < len(raw):
            lm = _LABEL.match(raw, pos)
            if not lm:
                raise ValueError("bad labels: %r" % line)
            labels[lm.group(1)] = lm.group(2)
            pos = lm.end()
        value = m.group("value")
        if value in ("+Inf", "Inf"):
            number = math.inf
        elif value == "-Inf":
            number = -math.inf
        else:
            number = float(value)
        series[series_key(m.group("name"), labels)] = number
    return series


def delta(before, after, key):
    """Counter increase of one series between two scrapes (absent = 0)."""
    return after.get(key, 0.0) - before.get(key, 0.0)


# --- comparing two sets of runs ----------------------------------------------

BETTER, WORSE, UNCHANGED, UNRESOLVED = "better", "worse", "unchanged", "unresolved"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _improvement(parent, change, better):
    """Signed improvement of change over parent (positive = better)."""
    return (parent - change) if better == "lower" else (change - parent)


def decide(parent, change, better, bound, exact=False):
    """Verdict for one (workload, metric) pair.

    parent and change are the metric's values in run order; parent[i] and
    change[i] form pair i (the runs alternated which side went first).

    - exact counts (`exact`): when both sides repeat one value each, they
      are compared as counts: equal is unchanged, otherwise better/worse;
    - better: at least 10 pairs, the change wins at least 9 of 10 of them
      (ties count for neither), and the medians differ in its favour by
      more than the parent's interquartile distance;
    - worse: the change's median is worse than the parent's by more than
      `bound` (a share of the parent's median);
    - unresolved: fewer than 10 pairs, or the parent's own relative spread
      exceeds `bound` and not every change run beats every parent run;
    - unchanged: otherwise.
    """
    if exact and len(set(parent)) == 1 and len(set(change)) == 1:
        diff = _improvement(parent[0], change[0], better)
        return UNCHANGED if diff == 0 else (BETTER if diff > 0 else WORSE)
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        return UNRESOLVED
    wins = sum(1 for p, c in zip(parent, change) if _improvement(p, c, better) > 0)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gain = _improvement(parent_median, change_median, better)
    if wins >= WIN_SHARE * pairs and gain > (q3 - q1):
        return BETTER
    if parent_median != 0 and -gain / abs(parent_median) > bound:
        return WORSE
    if relative_spread(parent) > bound:
        if better == "lower":
            dominates = max(change) < min(parent)
        else:
            dominates = min(change) > max(parent)
        if not dominates:
            return UNRESOLVED
    return UNCHANGED
