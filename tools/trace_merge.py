#!/usr/bin/env python3
"""Merge per-router /trace JSONL span streams into one timeline.

Each cluertd daemon serves its sampled PacketSpans as JSONL on GET /trace
(obs::spansToJsonl — one object per hop a traced packet took). This tool
joins those per-router streams on the 128-bit trace_id and emits a
chrome://tracing JSON with one process row per router (worker threads as
tid rows) plus per-hop and end-to-end latency percentiles, so a three-hop
topology's worth of scrapes becomes one inspectable picture. It is the
repo's one chrome renderer: the in-memory pipeline's spans
(Pipeline::drainSpans, written by examples/pipeline_throughput) are
one-hop traces and merge with --require-hops 1.

All timestamps are CLOCK_MONOTONIC nanoseconds. That clock is system-wide
on Linux, so spans from daemons on the same host (the topo_run.sh loopback
topologies) share a timebase and cross-hop deltas are real; merging scrapes
from different hosts gives per-hop numbers that are still valid but
end-to-end spans that are not.

Usage:
  tools/trace_merge.py hopA.jsonl hopB.jsonl hopC.jsonl \\
      [--out merged.json]        chrome://tracing output (default stdout)
      [--require-hops N]         exit 1 unless >=1 trace is complete: hops
                                 0..N-1 all present, per-hop and cross-hop
                                 timestamps monotone
      [--quiet]                  suppress the stats summary on stderr
  tools/trace_merge.py --self-test

A trace is *complete* for --require-hops N when it has exactly one span per
hop 0..N-1 and time flows forward: rx <= decode <= lookup_start <=
lookup_end (<= tx when forwarded) inside each hop, and hop k's tx precedes
hop k+1's rx. Complete traces feed the latency stats; partial ones still
render (gaps are visible in the timeline, which is the point).
"""

import argparse
import json
import sys


def load_spans(texts):
    """Parses JSONL documents -> flat span list. Raises ValueError."""
    spans = []
    for doc_no, text in enumerate(texts):
        for line_no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                s = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError('input %d line %d: %s'
                                 % (doc_no, line_no, e)) from e
            for field in ('trace_id', 'hop', 'router', 'rx_ns',
                          'lookup_start_ns', 'lookup_end_ns', 'tx_ns',
                          'verdict'):
                if field not in s:
                    raise ValueError('input %d line %d: span missing %r'
                                     % (doc_no, line_no, field))
            spans.append(s)
    return spans


def group_traces(spans):
    """-> {trace_id: [spans sorted by hop]}"""
    traces = {}
    for s in spans:
        traces.setdefault(s['trace_id'], []).append(s)
    for tid in traces:
        traces[tid].sort(key=lambda s: s['hop'])
    return traces


def span_end_ns(s):
    """When this hop was done with the packet: tx if it went out, else the
    end of the lookup that settled its fate."""
    return s['tx_ns'] if s['tx_ns'] else s['lookup_end_ns']


def hop_monotone(s):
    decode = s.get('decode_ns', s['rx_ns'])
    if not (s['rx_ns'] <= decode <= s['lookup_start_ns']
            <= s['lookup_end_ns']):
        return False
    return not s['tx_ns'] or s['lookup_end_ns'] <= s['tx_ns']


def is_complete(spans, require_hops):
    """True iff `spans` (sorted by hop) covers hops 0..require_hops-1 once
    each with monotone time inside and across hops."""
    if [s['hop'] for s in spans] != list(range(require_hops)):
        return False
    if not all(hop_monotone(s) for s in spans):
        return False
    for prev, cur in zip(spans, spans[1:]):
        if not prev['tx_ns'] or prev['tx_ns'] > cur['rx_ns']:
            return False
    return True


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(len(ordered) * q / 100.0 + 0.5) - 1))
    return ordered[rank]


def compute_stats(traces, require_hops):
    """-> stats dict over the complete traces (per-hop + end-to-end p50/99)."""
    complete = {tid: spans for tid, spans in traces.items()
                if is_complete(spans, require_hops)}
    per_hop = {h: [] for h in range(require_hops)}
    end_to_end = []
    for spans in complete.values():
        for s in spans:
            per_hop[s['hop']].append(span_end_ns(s) - s['rx_ns'])
        end_to_end.append(span_end_ns(spans[-1]) - spans[0]['rx_ns'])
    stats = {
        'traces_total': len(traces),
        'traces_complete': len(complete),
        'require_hops': require_hops,
        'per_hop': {},
        'end_to_end': {},
    }
    for h, lat in per_hop.items():
        if lat:
            stats['per_hop'][str(h)] = {
                'count': len(lat),
                'p50_ns': percentile(lat, 50),
                'p99_ns': percentile(lat, 99),
            }
    if end_to_end:
        stats['end_to_end'] = {
            'count': len(end_to_end),
            'p50_ns': percentile(end_to_end, 50),
            'p99_ns': percentile(end_to_end, 99),
        }
    return stats


def to_chrome(traces, stats):
    """chrome://tracing object: one pid row per router, one X event per hop
    span (lookup as a nested slice), flow arrows stitching the hops of each
    trace together."""
    routers = {}  # router name -> pid
    events = []
    epoch = min((s['rx_ns'] for spans in traces.values() for s in spans),
                default=0)

    def pid_for(s):
        name = s['router']
        if name not in routers:
            pid = len(routers) + 1
            routers[name] = pid
            events.append({'ph': 'M', 'pid': pid, 'tid': 0,
                           'name': 'process_name',
                           'args': {'name': name}})
        return routers[name]

    def us(ns):
        return (ns - epoch) / 1000.0

    for tid_str, spans in sorted(traces.items()):
        for s in spans:
            pid = pid_for(s)
            tid = s.get('worker', 0)
            end = span_end_ns(s)
            args = {k: s[k] for k in ('trace_id', 'hop', 'dest', 'clue_len',
                                      'outcome', 'claim1_skip',
                                      'search_failed', 'verdict',
                                      'total_accesses', 'accesses')
                    if k in s}
            events.append({
                'ph': 'X', 'pid': pid, 'tid': tid,
                'name': 'hop%d case=%s %s' % (s['hop'],
                                              s.get('outcome', '?'),
                                              s['verdict']),
                'ts': us(s['rx_ns']),
                'dur': max((end - s['rx_ns']) / 1000.0, 0.001),
                'args': args,
            })
            events.append({
                'ph': 'X', 'pid': pid, 'tid': tid,
                'name': 'lookup',
                'ts': us(s['lookup_start_ns']),
                'dur': max((s['lookup_end_ns'] - s['lookup_start_ns'])
                           / 1000.0, 0.001),
                'args': {'outcome': s.get('outcome'),
                         'total_accesses': s.get('total_accesses')},
            })
        for prev, cur in zip(spans, spans[1:]):
            if not prev['tx_ns']:
                continue
            flow = {'cat': 'trace', 'name': 'fwd', 'id': tid_str}
            events.append(dict(flow, ph='s', pid=pid_for(prev),
                               tid=prev.get('worker', 0),
                               ts=us(prev['tx_ns'])))
            events.append(dict(flow, ph='f', bp='e', pid=pid_for(cur),
                               tid=cur.get('worker', 0),
                               ts=us(cur['rx_ns'])))
    return {'displayTimeUnit': 'ms', 'traceEvents': events, 'stats': stats}


def synth_span(tid, hop, router, t0, forwarded=True):
    return {
        'trace_id': tid, 'hop': hop, 'router': router,
        'router_id': hop + 1, 'worker': 0, 'src_id': hop, 'dest': '10.0.0.1',
        'origin_ns': 1000, 'rx_ns': t0, 'decode_ns': t0 + 10,
        'lookup_start_ns': t0 + 20, 'lookup_end_ns': t0 + 50,
        'tx_ns': t0 + 80 if forwarded else 0,
        'clue_len': 8 if hop else -1, 'outcome': '2' if hop else 'no_clue',
        'claim1_skip': False, 'search_failed': False,
        'verdict': 'forwarded' if forwarded else 'delivered',
        'accesses': {'clue_table': 2}, 'total_accesses': 2,
    }


def self_test():
    tid = '00' * 16
    good = [synth_span(tid, 0, 'hopA', 1000),
            synth_span(tid, 1, 'hopB', 1200),
            synth_span(tid, 2, 'hopC', 1400, forwarded=False)]
    jsonl = [''.join(json.dumps(s) + '\n' for s in good[i:i + 1])
             for i in range(3)]
    traces = group_traces(load_spans(jsonl))
    assert list(traces) == [tid] and len(traces[tid]) == 3
    assert is_complete(traces[tid], 3)
    assert not is_complete(traces[tid], 2)  # extra hop != complete 2-hop

    stats = compute_stats(traces, 3)
    assert stats['traces_complete'] == 1, stats
    assert stats['per_hop']['0']['p50_ns'] == 80   # rx -> tx
    assert stats['per_hop']['2']['p50_ns'] == 50   # delivered: rx -> lookup
    assert stats['end_to_end']['p50_ns'] == 1450 - 1000

    # A hop whose rx precedes the upstream tx is clock nonsense -> partial.
    bad = [dict(s) for s in good]
    bad[1]['rx_ns'] = 1050  # before hop0's tx at 1080
    assert not is_complete(sorted(bad, key=lambda s: s['hop']), 3)

    # Missing middle hop -> partial, but still renders.
    partial = {tid: [good[0], good[2]]}
    assert compute_stats(partial, 3)['traces_complete'] == 0
    doc = to_chrome(partial, {})
    assert any(e.get('name', '').startswith('hop2') for e in
               doc['traceEvents'])

    doc = to_chrome(traces, stats)
    names = [e['args']['name'] for e in doc['traceEvents']
             if e['ph'] == 'M']
    assert names == ['hopA', 'hopB', 'hopC'], names
    assert sum(1 for e in doc['traceEvents'] if e['ph'] == 's') == 2
    json.dumps(doc)  # must serialize

    # A pipeline span (Pipeline::drainSpans) is a one-hop trace: no rx or
    # tx of its own, so rx = decode = lookup_start and tx_ns 0. This is the
    # exact line tests/obs_test.cc's ObsExport.JsonlGolden pins.
    one_hop = ('{"trace_id":"00000001000000070000000000001388","hop":0,'
               '"router":"pipeline","router_id":0,"worker":1,"src_id":0,'
               '"dest":"10.0.0.1","origin_ns":5000,"rx_ns":5000,'
               '"decode_ns":5000,"lookup_start_ns":5000,"lookup_end_ns":5400,'
               '"tx_ns":0,"clue_len":24,"outcome":"3",'
               '"claim1_skip":false,"search_failed":false,'
               '"verdict":"delivered","accesses":{"clue-table":1,'
               '"trie-node":2},"total_accesses":3}\n')
    pipe = group_traces(load_spans([one_hop]))
    assert is_complete(pipe['00000001000000070000000000001388'], 1)
    pipe_stats = compute_stats(pipe, 1)
    assert pipe_stats['traces_complete'] == 1, pipe_stats
    assert pipe_stats['per_hop']['0']['p50_ns'] == 400  # lookup window
    doc = to_chrome(pipe, pipe_stats)
    assert [e['name'] for e in doc['traceEvents'] if e['ph'] == 'X'] == \
        ['hop0 case=3 delivered', 'lookup'], doc
    json.dumps(doc)

    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([5], 99) == 5

    try:
        load_spans(['{"trace_id": "x"}\n'])
    except ValueError:
        pass
    else:
        raise AssertionError('accepted span with missing fields')
    print('trace_merge.py: self-test OK')
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description='Merge /trace JSONL scrapes into a chrome://tracing '
                    'timeline with per-hop latency stats.')
    ap.add_argument('inputs', nargs='*', help='per-router JSONL files')
    ap.add_argument('--out', default=None,
                    help='write the chrome trace here (default stdout)')
    ap.add_argument('--require-hops', type=int, default=0, metavar='N',
                    help='exit 1 unless >=1 complete N-hop trace merged')
    ap.add_argument('--quiet', action='store_true')
    ap.add_argument('--self-test', action='store_true')
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.inputs:
        ap.error('at least one JSONL input is required')

    texts = []
    for path in args.inputs:
        with open(path) as f:
            texts.append(f.read())
    traces = group_traces(load_spans(texts))
    hops = args.require_hops or max(
        (len(spans) for spans in traces.values()), default=0)
    stats = compute_stats(traces, hops) if hops else {
        'traces_total': 0, 'traces_complete': 0, 'require_hops': 0,
        'per_hop': {}, 'end_to_end': {}}
    doc = to_chrome(traces, stats)

    rendered = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, 'w') as f:
            f.write(rendered + '\n')
    else:
        print(rendered)
    if not args.quiet:
        print('trace_merge: %d trace(s), %d complete at %d hop(s)'
              % (stats['traces_total'], stats['traces_complete'], hops),
              file=sys.stderr)
        for h, d in sorted(stats['per_hop'].items()):
            print('  hop %s: n=%d p50=%dns p99=%dns'
                  % (h, d['count'], d['p50_ns'], d['p99_ns']),
                  file=sys.stderr)
        if stats['end_to_end']:
            e = stats['end_to_end']
            print('  end-to-end: n=%d p50=%dns p99=%dns'
                  % (e['count'], e['p50_ns'], e['p99_ns']), file=sys.stderr)

    if args.require_hops and stats['traces_complete'] == 0:
        print('trace_merge FAILED: no complete %d-hop trace '
              '(%d trace(s) seen)' % (args.require_hops,
                                      stats['traces_total']),
              file=sys.stderr)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
