#!/usr/bin/env python3
"""Compare two Prometheus text-exposition snapshots and gate on regressions.

The obs exporters (src/obs/export.cc), the examples and the bench binaries
emit metric snapshots (pipeline_metrics.prom, BENCH_churn.prom). This tool
diffs two such files series-by-series so a perf trajectory can be gated in
CI: it exits nonzero when any matched series moved in the regression
direction by more than the threshold.

Usage:
  tools/metrics_diff.py baseline.prom current.prom
      [--threshold PCT]      relative-change gate, percent (default 5)
      [--match REGEX]        only series whose name matches (default: all)
      [--direction up|down|both]
                             which movement is a regression (default up —
                             right for cost metrics like accesses and
                             latency, where bigger is worse)
      [--min-base VALUE]     ignore series whose baseline is below this
                             (default 1: tiny denominators make noise)
  tools/metrics_diff.py --require-nonzero REGEX snapshot.prom
      single-snapshot liveness gate: exits nonzero unless at least one
      series matching REGEX has a nonzero value. Used by tools/ci.sh to
      assert the churn smoke run actually exercised the swap path
      (rib_version_swaps_total > 0) — a zero counter means the bench
      silently stopped doing its job, which no diff against a baseline
      would catch. Composes with the two-snapshot diff form (the check
      then applies to `current`).
  tools/metrics_diff.py --max REGEX:VALUE snapshot.prom   (repeatable)
      absolute-ceiling gate on the current (or only) snapshot: every series
      matching REGEX must be <= VALUE; no matching series at all also
      fails (a vanished gate series means the bench stopped emitting it).
      This is the right tool when the baseline value sits below --min-base
      (a relative diff would skip it — e.g. shard imbalance hovering near
      1.0) or when the bound is a hard contract rather than a trajectory
      (steady_allocs:0). Composes with the two-snapshot diff form.
  tools/metrics_diff.py baseline.prom current.prom \\
      --quantile p99:lookup_accesses:10 [--quantile p50:...:5 ...]
      histogram-aware quantile gate: estimates the given quantile from the
      metric's cumulative `<metric>_bucket{le="..."}` series on each side
      (Prometheus-style linear interpolation inside the bucket) and fails
      when the current estimate exceeds the baseline by more than
      max_regression percent. Raw bucket diffs are noisy under load shifts
      — counts move between buckets without the distribution's tail
      moving — so tail gates should use this, not --threshold.
  tools/metrics_diff.py --self-test

A series is identified by its full exposition form, e.g.
  lookup_case_total{case="3"}
Histogram buckets are compared like any other series (their names carry
_bucket/_sum/_count suffixes). Series present on only one side are reported
but never gate — a new metric family is not a regression.
"""

import argparse
import re
import sys

_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^}]*\})?'
    r'\s+(?P<value>[^\s]+)'
    r'(?:\s+\d+)?$'  # optional timestamp, ignored
)


def parse(text):
    """Returns {series_key: float_value} for one exposition document."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith('#'):
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError('line %d: unparseable sample: %r' % (lineno, line))
        key = m.group('name') + (m.group('labels') or '')
        raw = m.group('value')
        if raw == '+Inf':
            value = float('inf')
        elif raw == '-Inf':
            value = float('-inf')
        else:
            value = float(raw)
        if key in out:
            raise ValueError('line %d: duplicate series %s' % (lineno, key))
        out[key] = value
    return out


def diff(base, cur, threshold_pct, direction, min_base, match):
    """Returns (report_lines, regressions) comparing cur against base."""
    report = []
    regressions = []
    matcher = re.compile(match) if match else None
    for key in sorted(set(base) | set(cur)):
        if matcher is not None and not matcher.search(key):
            continue
        if key not in base:
            report.append('new     %-60s %g' % (key, cur[key]))
            continue
        if key not in cur:
            report.append('gone    %-60s (was %g)' % (key, base[key]))
            continue
        b, c = base[key], cur[key]
        if b == c:
            continue
        if b == 0 or abs(b) < min_base:
            report.append('skip    %-60s %g -> %g (baseline below --min-base)'
                          % (key, b, c))
            continue
        pct = (c - b) / abs(b) * 100.0
        line = '%+8.2f%% %-60s %g -> %g' % (pct, key, b, c)
        worse = (direction == 'both' and abs(pct) > threshold_pct) or \
                (direction == 'up' and pct > threshold_pct) or \
                (direction == 'down' and pct < -threshold_pct)
        if worse:
            regressions.append(line)
        else:
            report.append(line)
    return report, regressions


def require_nonzero(cur, pattern):
    """Returns (matched_series, ok): ok iff any match has a nonzero value."""
    rx = re.compile(pattern)
    hits = {k: v for k, v in cur.items() if rx.search(k)}
    return hits, any(v != 0 for v in hits.values())


def parse_max_spec(spec):
    """'regex:3.5' -> ('regex', 3.5). The regex may itself contain colons
    (label matchers), so the split is on the LAST colon. Raises ValueError."""
    regex, sep, raw = spec.rpartition(':')
    if not sep or not regex:
        raise ValueError('bad --max spec %r (want SERIES_REGEX:VALUE)' % spec)
    try:
        limit = float(raw)
    except ValueError:
        raise ValueError('bad --max limit in %r (not a number)' % spec)
    return regex, limit


def max_gate(cur, specs):
    """Returns (report_lines, regression_lines) for --max specs: every series
    matching the regex must be <= the limit; zero matches is a failure."""
    report, regressions = [], []
    for spec in specs:
        regex, limit = parse_max_spec(spec)
        rx = re.compile(regex)
        hits = {k: v for k, v in cur.items() if rx.search(k)}
        if not hits:
            regressions.append('max %s: no series matching the pattern'
                               % regex)
            continue
        for key in sorted(hits):
            line = 'max     %-60s %g (limit %g)' % (key, hits[key], limit)
            (regressions if hits[key] > limit else report).append(line)
    return report, regressions


_LE = re.compile(r'le="([^"]+)"')


def histogram_quantile(series, metric, q):
    """Estimates quantile q (0..1) of histogram `metric` from its cumulative
    _bucket series, Prometheus-style: find the bucket the rank lands in and
    interpolate linearly between its bounds. Buckets across distinct label
    sets (e.g. per-worker) are summed per `le` first. Returns None when the
    metric has no buckets or no observations."""
    prefix = metric + '_bucket{'
    by_le = {}
    for key, value in series.items():
        if not key.startswith(prefix):
            continue
        m = _LE.search(key)
        if m is None:
            continue
        raw = m.group(1)
        le = float('inf') if raw == '+Inf' else float(raw)
        by_le[le] = by_le.get(le, 0.0) + value
    if float('inf') not in by_le:
        return None
    total = by_le[float('inf')]
    if total <= 0:
        return None
    rank = q * total
    prev_le, prev_cum = 0.0, 0.0
    for le in sorted(by_le):
        cum = by_le[le]
        if cum >= rank:
            if le == float('inf'):
                return prev_le  # tail lands past the last finite bound
            if cum == prev_cum:
                return le
            return prev_le + (le - prev_le) * (rank - prev_cum) / (cum - prev_cum)
        prev_le, prev_cum = le, cum
    return prev_le


def parse_quantile_spec(spec):
    """'p99:metric:10' -> (0.99, 'metric', 10.0). Raises ValueError."""
    parts = spec.split(':')
    if len(parts) != 3 or not parts[0].startswith('p'):
        raise ValueError('bad --quantile spec %r (want pNN:metric:max_pct)'
                         % spec)
    q = float(parts[0][1:]) / 100.0
    if not 0 < q < 1:
        raise ValueError('quantile out of range in %r' % spec)
    return q, parts[1], float(parts[2])


def quantile_gate(base, cur, specs):
    """Returns (report_lines, regression_lines) for --quantile specs."""
    report, regressions = [], []
    for spec in specs:
        q, metric, max_pct = parse_quantile_spec(spec)
        bq = histogram_quantile(base, metric, q)
        cq = histogram_quantile(cur, metric, q)
        label = 'p%g(%s)' % (q * 100, metric)
        if bq is None or cq is None:
            regressions.append('%s: missing histogram (%s side)'
                               % (label, 'baseline' if bq is None else
                                  'current'))
            continue
        if bq == 0:
            report.append('skip    %s baseline is 0 (-> %g)' % (label, cq))
            continue
        pct = (cq - bq) / bq * 100.0
        line = '%+8.2f%% %-60s %g -> %g (max +%g%%)' % (pct, label, bq, cq,
                                                        max_pct)
        (regressions if pct > max_pct else report).append(line)
    return report, regressions


def self_test():
    doc = '''\
# HELP lookup_accesses Dependent memory accesses per lookup
# TYPE lookup_accesses histogram
lookup_accesses_bucket{le="1"} 10
lookup_accesses_bucket{le="+Inf"} 12
lookup_accesses_sum 30
lookup_accesses_count 12
# TYPE temp gauge
temp 1.5
up_total{router="1"} 7 1699999999
'''
    parsed = parse(doc)
    assert parsed['lookup_accesses_bucket{le="1"}'] == 10.0
    assert parsed['lookup_accesses_bucket{le="+Inf"}'] == 12.0
    assert parsed['lookup_accesses_sum'] == 30.0
    assert parsed['temp'] == 1.5
    assert parsed['up_total{router="1"}'] == 7.0  # timestamp stripped
    assert len(parsed) == 6

    base = {'a': 100.0, 'b': 10.0, 'c': 5.0, 'gone': 1.0, 'tiny': 0.1}
    cur = {'a': 104.0, 'b': 12.0, 'c': 5.0, 'new': 3.0, 'tiny': 9.0}
    report, regressions = diff(base, cur, threshold_pct=5.0, direction='up',
                               min_base=1.0, match=None)
    # a: +4% under threshold; b: +20% regression; c unchanged;
    # gone/new informational; tiny skipped by --min-base.
    assert len(regressions) == 1 and ' b ' in regressions[0], regressions
    assert any(r.startswith('new') for r in report)
    assert any(r.startswith('gone') for r in report)
    assert any(r.startswith('skip') for r in report)
    assert not any(' c ' in r for r in report)

    _, down = diff(base, cur, 5.0, 'down', 1.0, None)
    assert down == []
    _, both = diff({'x': 10.0}, {'x': 8.0}, 5.0, 'both', 1.0, None)
    assert len(both) == 1

    _, matched = diff(base, cur, 5.0, 'up', 1.0, match='^a$')
    assert matched == []

    snap = {'rib_version_swaps_total': 120.0, 'rib_version_live_seq': 121.0,
            'rib_version_full_rebuilds_total': 0.0, 'other': 3.0}
    hits, ok = require_nonzero(snap, r'rib_version_swaps_total')
    assert ok and len(hits) == 1
    hits, ok = require_nonzero(snap, r'full_rebuilds')
    assert not ok and len(hits) == 1  # present but zero: not alive
    hits, ok = require_nonzero(snap, r'no_such_series')
    assert not ok and hits == {}

    # Histogram quantiles: 100 observations, 90 in [0,1], 8 in (1,4],
    # 2 in (4,+Inf). p50 interpolates inside the first bucket; p99 lands in
    # the +Inf bucket and clamps to the last finite bound.
    hist = {
        'h_bucket{le="1"}': 90.0,
        'h_bucket{le="4"}': 98.0,
        'h_bucket{le="+Inf"}': 100.0,
        'h_sum': 150.0,
        'h_count': 100.0,
    }
    p50 = histogram_quantile(hist, 'h', 0.50)
    assert abs(p50 - 50.0 / 90.0) < 1e-9, p50
    p95 = histogram_quantile(hist, 'h', 0.95)
    assert abs(p95 - (1.0 + 3.0 * 5.0 / 8.0)) < 1e-9, p95
    assert histogram_quantile(hist, 'h', 0.99) == 4.0
    assert histogram_quantile(hist, 'missing', 0.99) is None
    assert histogram_quantile({'h_bucket{le="+Inf"}': 0.0}, 'h', 0.5) is None
    # Per-worker shards sum before estimating.
    sharded = {
        'h_bucket{worker="0",le="1"}': 40.0,
        'h_bucket{worker="0",le="+Inf"}': 50.0,
        'h_bucket{worker="1",le="1"}': 50.0,
        'h_bucket{worker="1",le="+Inf"}': 50.0,
    }
    assert abs(histogram_quantile(sharded, 'h', 0.5) - 50.0 / 90.0) < 1e-9

    assert parse_quantile_spec('p99:lookup_accesses:10') == \
        (0.99, 'lookup_accesses', 10.0)
    for bad in ('p99:only_two', '99:m:5', 'p0:m:5', 'p100:m:5'):
        try:
            parse_quantile_spec(bad)
        except ValueError:
            pass
        else:
            raise AssertionError('accepted bad spec %r' % bad)

    # Absolute ceilings: at/under the limit passes, over fails, no match
    # fails, colons inside the regex survive (split is on the last one).
    snap = {'steady_allocs': 0.0, 'imbalance': 1.31, 'other': 9.0}
    rep, reg = max_gate(snap, ['steady_allocs:0'])
    assert reg == [] and len(rep) == 1, (rep, reg)
    _, reg = max_gate(snap, ['imbalance:1.25'])
    assert len(reg) == 1 and 'imbalance' in reg[0], reg
    rep, reg = max_gate(snap, ['imbalance:1.6', 'other:10'])
    assert reg == [] and len(rep) == 2, (rep, reg)
    _, reg = max_gate(snap, ['no_such_series:5'])
    assert len(reg) == 1 and 'no series' in reg[0], reg
    rep, reg = max_gate({'h_bucket{le="1"}': 2.0}, [r'le="1":3'])
    assert reg == [] and len(rep) == 1, (rep, reg)
    assert parse_max_spec('a:b:3.5') == ('a:b', 3.5)
    for bad in ('nocolon', ':5', 'x:notanum'):
        try:
            parse_max_spec(bad)
        except ValueError:
            pass
        else:
            raise AssertionError('accepted bad --max spec %r' % bad)

    hist_worse = dict(hist)
    hist_worse['h_bucket{le="1"}'] = 40.0  # tail mass doubled at p50's level
    rep, reg = quantile_gate(hist, hist_worse, ['p50:h:10'])
    assert len(reg) == 1 and 'p50(h)' in reg[0], (rep, reg)
    rep, reg = quantile_gate(hist, hist, ['p50:h:10', 'p99:h:0'])
    assert reg == [] and len(rep) == 2, (rep, reg)
    _, reg = quantile_gate(hist, hist, ['p50:nope:10'])
    assert len(reg) == 1 and 'missing histogram' in reg[0], reg

    try:
        parse('!!! not a metric')
    except ValueError:
        pass
    else:
        raise AssertionError('parse accepted garbage')
    print('metrics_diff.py: self-test OK')
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description='Diff two Prometheus snapshots, exit 1 on regression.')
    ap.add_argument('baseline', nargs='?')
    ap.add_argument('current', nargs='?')
    ap.add_argument('--threshold', type=float, default=5.0,
                    metavar='PCT', help='regression gate in percent')
    ap.add_argument('--match', default=None, metavar='REGEX',
                    help='only compare series matching this regex')
    ap.add_argument('--direction', choices=('up', 'down', 'both'),
                    default='up', help='which movement is a regression')
    ap.add_argument('--min-base', type=float, default=1.0,
                    help='skip series with |baseline| below this')
    ap.add_argument('--require-nonzero', default=None, metavar='REGEX',
                    help='fail unless the current (or only) snapshot has a '
                         'series matching REGEX with a nonzero value')
    ap.add_argument('--max', action='append', default=[],
                    metavar='SERIES_REGEX:VALUE',
                    help='absolute ceiling: fail when any series matching '
                         'the regex exceeds VALUE in the current (or only) '
                         'snapshot, or when none matches (repeatable)')
    ap.add_argument('--quantile', action='append', default=[],
                    metavar='pNN:METRIC:MAX_PCT',
                    help='gate on a histogram quantile estimate: fail when '
                         'pNN of METRIC regressed more than MAX_PCT percent '
                         'vs the baseline (repeatable)')
    ap.add_argument('--self-test', action='store_true')
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    # Single-snapshot modes: the one positional is the file to check.
    if (args.require_nonzero or args.max) and args.baseline \
            and not args.current:
        args.baseline, args.current = None, args.baseline
    if not args.current:
        ap.error('baseline and current snapshots are required')

    with open(args.current) as f:
        cur = parse(f.read())
    if args.require_nonzero:
        hits, ok = require_nonzero(cur, args.require_nonzero)
        if not ok:
            print('require-nonzero FAILED: no series matching %r with a '
                  'nonzero value (%d matched)'
                  % (args.require_nonzero, len(hits)))
            for key in sorted(hits):
                print('  %-60s %g' % (key, hits[key]))
            return 1
        print('require-nonzero OK: %d series matching %r, nonzero present'
              % (len(hits), args.require_nonzero))
    if args.max:
        try:
            mreport, mregressions = max_gate(cur, args.max)
        except ValueError as e:
            ap.error(str(e))
        for line in mreport:
            print(line)
        if mregressions:
            print('%d series over their --max ceiling:' % len(mregressions))
            for line in mregressions:
                print('  ' + line)
            return 1
    if not args.baseline:
        return 0

    with open(args.baseline) as f:
        base = parse(f.read())
    report, regressions = diff(base, cur, args.threshold, args.direction,
                               args.min_base, args.match)
    if args.quantile:
        try:
            qreport, qregressions = quantile_gate(base, cur, args.quantile)
        except ValueError as e:
            ap.error(str(e))
        report += qreport
        regressions += qregressions
    for line in report:
        print(line)
    if regressions:
        print('\n%d series regressed beyond %.1f%% (%s):'
              % (len(regressions), args.threshold, args.direction))
        for line in regressions:
            print('  ' + line)
        return 1
    print('metrics_diff: no regression beyond %.1f%% across %d series'
          % (args.threshold, len(set(base) & set(cur))))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
