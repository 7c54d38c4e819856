package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/ycsb"
)

// reconcileTolerance bounds |unattributed| as a share of the mean SET
// latency on the open-loop workload, where SETs mostly arrive alone and the
// blocking path is one write call, the commit wait and one flush.
const reconcileTolerance = 0.10

// sampledOpsPerConn caps the ops per connection whose spans a traced phase
// keeps, which bounds the trace's memory whatever the throughput.
const sampledOpsPerConn = 100_000

type tracedRun struct {
	ph     *phase
	tracer *tracer
}

// tracedPhase serves the rest of the run through the tracing wrappers,
// on the same store and cache, and measures it like the untraced phase.
func (b *bench) tracedPhase(un *phase, pos []int) (*tracedRun, error) {
	perConn := 0
	for _, r := range un.ops {
		perConn = max(perConn, r.to-r.from)
	}
	sample := max(1, perConn/sampledOpsPerConn)
	tr := newTracer(b.base, uint32(sample), 6*(perConn/sample)+4096)
	store := traceAbove(hotcache.Wrap(traceBelow(b.st, tr), b.cache), tr)
	sv, err := boot(store, nil, b.streams, pos, b.base)
	if err != nil {
		return nil, fmt.Errorf("traced boot: %w", err)
	}
	b.sv = sv
	b.drivers = append(b.drivers, sv.drivers...)
	ph, err := b.phase(sv, &snapSource{reg: sv.srv.Registry(), st: b.st, cache: b.cache})
	if err != nil {
		return nil, err
	}
	b.sv = nil
	if err := sv.close(); err != nil {
		return nil, fmt.Errorf("traced server shutdown: %w", err)
	}
	return &tracedRun{ph: ph, tracer: tr}, nil
}

// addTrace derives the span-based per-layer metrics, the tracing overhead,
// and checks that the traced phase ran the same server paths.
func (r *result) addTrace(un *phase, tr *tracedRun, b *bench) {
	uv, tv := un.clientView(), tr.ph.clientView()
	r.Attempted += tv.attempted
	r.Failed += tv.failed
	if b.w.rate > 0 {
		r.add("trace_overhead_pct", (pct(tv.set, 0.5)/pct(uv.set, 0.5)-1)*100, "%")
	} else {
		r.add("trace_overhead_pct", (1-tv.kops()/uv.kops())*100, "%")
	}
	for _, m := range []struct{ name, sum, count string }{
		{"server.cmds_per_batch", "server_pipeline_depth", ""},
		{"server.sessions_per_commit", "server_group_commit_flushes", "server_group_commits"},
	} {
		var traced float64
		if m.count == "" {
			traced = ratio(tr.ph.histSum(m.sum), tr.ph.histCount(m.sum))
		} else {
			traced = ratio(tr.ph.counter(m.sum), tr.ph.counter(m.count))
		}
		untraced := r.Metrics[m.name].Value
		r.add("traced."+m.name, traced, "count")
		if d := math.Abs(traced-untraced) / max(untraced, 1e-9); d > pathTolerance {
			r.note("traced %s = %.3f vs untraced %.3f: the traced phase did not run the same server paths", m.name, traced, untraced)
			r.Correct = false
			r.Failed++
		}
	}

	var (
		dropped                  int64
		selfSum, hotSum          float64
		nSelf, nHot              int
		coreGet, coreFlush, wait []int64
		putNs, putKeys           int64
		parts                    [6]float64 // lat, lag, self, hotcache, put, commit wait
		flushBelow               float64
		nSet                     int
	)
	conns := tr.tracer.conns
	for c, ct := range conns {
		dropped += ct.dropped
		if c >= len(tr.ph.ops) {
			break
		}
		rng := tr.ph.ops[c]
		d := rng.d
		child := make([]int64, len(ct.spans))
		var flushes []int32
		for i, sp := range ct.spans {
			dur := sp.end - sp.start
			switch {
			case sp.layer == layerCore:
				if sp.parent >= 0 {
					child[sp.parent] += dur
				}
				switch sp.kind {
				case kindGet:
					coreGet = append(coreGet, dur)
				case kindPut, kindBatch:
					putNs += dur
					putKeys += int64(sp.hi - sp.lo)
				case kindFlush:
					coreFlush = append(coreFlush, dur)
				}
			case sp.kind == kindFlush:
				flushes = append(flushes, int32(i))
				if sp.aux > 0 {
					wait = append(wait, sp.start-sp.aux)
				}
			}
		}
		// flushOf finds the store-layer flush that committed op seq.
		flushOf := func(seq uint32) int32 {
			j, _ := slices.BinarySearchFunc(flushes, seq, func(i int32, s uint32) int {
				if ct.spans[i].hi <= s {
					return -1
				}
				return 1
			})
			if j < len(flushes) && ct.spans[flushes[j]].lo <= seq {
				return flushes[j]
			}
			return -1
		}
		for i, sp := range ct.spans {
			if sp.layer != layerStore || sp.kind == kindFlush || sp.end == 0 {
				continue
			}
			hot := float64(sp.end - sp.start - child[i])
			hotSum += hot
			nHot++
			for seq := sp.lo; seq < sp.hi; seq++ {
				s := int(seq)
				if seq%tr.tracer.sample != 0 || s < rng.from || s >= rng.to {
					continue
				}
				if _, bad := d.bad[s]; bad {
					continue
				}
				lat := int64(d.lat.at(s))
				done := d.done.at(s)
				var lag int64
				if d.lag.n > s {
					lag = int64(d.lag.at(s))
				}
				send := done - lat + lag
				end := sp.end
				f := flushOf(seq)
				if f >= 0 {
					end = ct.spans[f].end
				}
				self := float64(sp.start-send) + float64(done-end)
				selfSum += self
				nSelf++
				if !d.s.set[d.pos(s)] || f < 0 {
					continue
				}
				fs := ct.spans[f]
				nSet++
				parts[0] += float64(lat)
				parts[1] += float64(lag)
				parts[2] += self
				parts[3] += hot + float64(fs.end-fs.start-child[f])
				parts[4] += float64(child[i])
				if fs.aux > 0 {
					parts[5] += float64(fs.start - fs.aux)
				}
				flushBelow += float64(child[f])
			}
		}
	}
	for _, s := range [][]int64{coreGet, coreFlush, wait} {
		slices.Sort(s)
	}
	r.add("server.self_us_mean", ratio(selfSum, float64(nSelf))/1e3, "us")
	r.add("hotcache.self_us_mean", ratio(hotSum, float64(nHot))/1e3, "us")
	r.add("server.commit_wait_us_p50", pct(wait, 0.50)/1e3, "us")
	r.add("server.commit_wait_us_p99", pct(wait, 0.99)/1e3, "us")
	r.add("core.get_us_p50", pct(coreGet, 0.50)/1e3, "us")
	r.add("core.get_us_p99", pct(coreGet, 0.99)/1e3, "us")
	r.add("core.put_us_per_key", ratio(float64(putNs), float64(putKeys))/1e3, "us")
	r.add("core.flush_us_p50", pct(coreFlush, 0.50)/1e3, "us")
	r.add("core.flush_us_p99", pct(coreFlush, 0.99)/1e3, "us")
	r.add("trace.sample_every", float64(tr.tracer.sample), "count")
	r.add("trace.spans_dropped", float64(dropped), "count")

	// The blocking path of a traced SET, as means over sampled SETs: what
	// the client saw, split into schedule lag, server self time, hotcache
	// self time, the core write call, commit wait and the core flush.
	n := float64(nSet)
	mean := ratio(parts[0], n)
	sum := ratio(parts[1]+parts[2]+parts[3]+parts[4]+parts[5]+flushBelow, n)
	r.add("set_path.client_us", mean/1e3, "us")
	r.add("set_path.sched_lag_us", ratio(parts[1], n)/1e3, "us")
	r.add("set_path.server_self_us", ratio(parts[2], n)/1e3, "us")
	r.add("set_path.hotcache_self_us", ratio(parts[3], n)/1e3, "us")
	r.add("set_path.core_put_us", ratio(parts[4], n)/1e3, "us")
	r.add("set_path.commit_wait_us", ratio(parts[5], n)/1e3, "us")
	r.add("set_path.core_flush_us", ratio(flushBelow, n)/1e3, "us")
	r.add("unattributed_us", (mean-sum)/1e3, "us")
	if b.w.rate > 0 && nSet > 0 && math.Abs(mean-sum) > reconcileTolerance*mean {
		r.note("SET path does not reconcile: %.1f us of %.1f us unattributed (tolerance %.0f%%)",
			(mean-sum)/1e3, mean/1e3, reconcileTolerance*100)
	}
	if dropped > 0 {
		r.note("%d spans dropped: the span buffer was too small", dropped)
	}
}

// pathTolerance is how far the traced phase's commands per batch and
// sessions per commit may drift from the untraced phase's before the run
// is marked incorrect: the largest bound BENCHMARK.json gives any metric.
const pathTolerance = 0.25

// ledger is what the clients know about every write when the store
// restarts: lastInvoke[k] is the latest send (closed loop) or due (open
// loop) time of an acked write to key k, -1 if none; ackOf[c][pos] is the
// latest ack time of the SET at position pos of stream c, MaxInt64 when one
// was sent and not acked (in flight or failed), 0 when none was sent.
type ledger struct {
	streams    []*stream
	lastInvoke []int64
	ackOf      [][]int64
}

func newLedger(streams []*stream, drivers []*driver) *ledger {
	l := &ledger{streams: streams, lastInvoke: make([]int64, numKeys), ackOf: make([][]int64, len(streams))}
	for i := range l.lastInvoke {
		l.lastInvoke[i] = -1
	}
	for _, d := range drivers {
		for seq := 0; seq < d.seq; seq++ {
			p := d.pos(seq)
			if !d.s.set[p] {
				continue
			}
			if l.ackOf[d.conn] == nil {
				l.ackOf[d.conn] = make([]int64, d.s.len())
			}
			a := &l.ackOf[d.conn][p]
			if _, bad := d.bad[seq]; bad || seq >= d.lat.n {
				*a = math.MaxInt64
				continue
			}
			done := d.done.at(seq)
			k := d.s.keys[p]
			l.lastInvoke[k] = max(l.lastInvoke[k], done-int64(d.lat.at(seq)))
			if *a != math.MaxInt64 {
				*a = max(*a, done)
			}
		}
	}
	return l
}

// durable reports whether v may be key k's value after a restart: the value
// of a write that no acked write to k strictly followed (its last acked
// value, or one that was in flight), or the preload value if no write to k
// was acked. Two writes to one key in the same pipelined batch have the
// same send time, so their order is not checked.
func (l *ledger) durable(k uint32, v []byte) bool {
	if !validValue(l.streams, k, v) {
		return false
	}
	_, w, pos := decodeValue(v)
	if w == 0 {
		return l.lastInvoke[k] < 0
	}
	if l.ackOf[w-1] == nil {
		return false
	}
	a := l.ackOf[w-1][pos]
	return a != 0 && a >= l.lastInvoke[k]
}

// verify reads every key back from the restarted store and checks it with
// the ledger. It returns the keys checked and the keys wrong.
func (b *bench) verify() (checked, lost int64) {
	l := newLedger(b.streams, b.drivers)
	se := b.st.NewSession(simclock.New(0))
	defer se.(interface{ Release() error }).Release()
	vr := se.(kvstore.ValueReader)
	buf := make([]byte, 0, 64)
	for k := uint32(0); k < numKeys; k++ {
		checked++
		v, ok, err := vr.GetInto(ycsb.Key(int64(k)), buf[:0])
		if err != nil || !ok || !l.durable(k, v) {
			lost++
			if lost <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: after restart key %08x = %x (found=%v err=%v)\n", k, v, ok, err)
			}
		}
	}
	return checked, lost
}
