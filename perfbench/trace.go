package main

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"time"

	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// The traced run serves
//
//	server.New(above, cfg)  with  above = traceAbove(hotcache.Wrap(traceBelow(core), cache))
//
// so every call the server makes into the store is timed twice: once at the
// boundary above the hotcache (layer "store") and once at the core session
// (layer "core"). Spans are recorded from outside the program, around calls
// into public interfaces; nothing inside the server or engine is changed.

type spanKind uint8

const (
	kindGet spanKind = iota
	kindPut
	kindBatch
	kindFlush
	kindOther
)

var kindNames = [...]string{"get", "put", "putbatch", "flush", "other"}

const (
	layerStore = 0 // above hotcache.Wrap: what the server calls
	layerCore  = 1 // the core session under the hotcache
)

var layerNames = [...]string{"store", "core"}

// span is one timed call. Ops are numbered per connection in the order the
// server issues them, which is the order the client sent them; [lo, hi) is
// the range a call covers: one op, a PutBatch run, or for a Flush the ops
// from the first write it commits to the last op issued before it. aux
// is, for a store-layer Flush, when the session's last write call
// returned, so commit wait = start - aux.
type span struct {
	start, end int64
	aux        int64
	lo, hi     uint32
	parent     int32 // index of the enclosing store span on this conn, -1 if none
	layer      uint8
	kind       spanKind
}

// connTrace holds one connection's spans. The server drives a session from
// its connection goroutine, and hands it to the group-commit goroutine only
// while that connection waits, so these fields need no locking.
type connTrace struct {
	conn    int
	spans   []span
	dropped int64

	seq          uint32 // ops issued on this session so far
	dirty        bool   // a write was issued since the last flush
	firstWrite   uint32 // the first such write
	open         int32  // store span in progress, -1 if none
	sampling     bool   // whether the op in progress is sampled
	lastWriteEnd int64
}

// tracer numbers sessions in creation order — the server creates them at
// accept, and the client dials one connection at a time — and keeps every
// connection's spans in memory until the run ends.
type tracer struct {
	base   time.Time
	sample uint32 // record op spans for every sample-th op
	perCap int    // span slots preallocated per connection

	mu    sync.Mutex
	conns []*connTrace
	next  *connTrace // handed from a store-layer NewSession to the core one
}

func newTracer(base time.Time, sample uint32, perCap int) *tracer {
	if sample < 1 {
		sample = 1
	}
	return &tracer{base: base, sample: sample, perCap: perCap}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (ct *connTrace) begin(t0 int64, layer uint8, kind spanKind, lo, hi uint32) int32 {
	if len(ct.spans) == cap(ct.spans) {
		ct.dropped++
		return -1
	}
	parent := int32(-1)
	if layer == layerCore {
		parent = ct.open
	}
	ct.spans = append(ct.spans, span{start: t0, lo: lo, hi: hi, parent: parent, layer: layer, kind: kind})
	return int32(len(ct.spans) - 1)
}

func (ct *connTrace) end(i int32, t1 int64) {
	if i >= 0 {
		ct.spans[i].end = t1
	}
}

// sampled reports whether any op in [lo, hi) is sampled.
func (t *tracer) sampled(lo, hi uint32) bool {
	return hi > lo && (lo%t.sample == 0 || lo/t.sample != (hi-1)/t.sample)
}

// traceStore wraps a kvstore.Store and forwards every optional capability
// the server and hotcache look for: Log (FLUSHALL) and obs.Provider (one
// registry for server and engine counters) on the store; the rest on the
// session.
type traceStore struct {
	inner kvstore.Store
	t     *tracer
	layer uint8
}

func traceAbove(inner kvstore.Store, t *tracer) *traceStore {
	return &traceStore{inner: inner, t: t, layer: layerStore}
}

func traceBelow(inner kvstore.Store, t *tracer) *traceStore {
	return &traceStore{inner: inner, t: t, layer: layerCore}
}

var (
	_ kvstore.Store = (*traceStore)(nil)
	_ obs.Provider  = (*traceStore)(nil)
)

func (s *traceStore) Name() string                    { return s.inner.Name() }
func (s *traceStore) DRAMFootprint() int64            { return s.inner.DRAMFootprint() }
func (s *traceStore) Crash()                          { s.inner.Crash() }
func (s *traceStore) Recover(c *simclock.Clock) error { return s.inner.Recover(c) }
func (s *traceStore) Close() error                    { return s.inner.Close() }

func (s *traceStore) DeviceStats() device.Stats { return s.inner.DeviceStats() }

// Log forwards the server's log hook.
func (s *traceStore) Log() *wlog.Log {
	if l, ok := s.inner.(interface{ Log() *wlog.Log }); ok {
		return l.Log()
	}
	return nil
}

// Registry implements obs.Provider.
func (s *traceStore) Registry() *obs.Registry {
	if p, ok := s.inner.(obs.Provider); ok {
		return p.Registry()
	}
	return nil
}

func (s *traceStore) NewSession(c *simclock.Clock) kvstore.Session {
	t := s.t
	var ct *connTrace
	if s.layer == layerStore {
		t.mu.Lock()
		ct = &connTrace{conn: len(t.conns), spans: make([]span, 0, t.perCap), open: -1}
		t.conns = append(t.conns, ct)
		t.next = ct
		t.mu.Unlock()
	} else {
		t.mu.Lock()
		ct, t.next = t.next, nil
		t.mu.Unlock()
		if ct == nil { // a core session opened without the store layer
			ct = &connTrace{conn: -1, open: -1}
		}
	}
	inner := s.inner.NewSession(c)
	se := &traceSession{inner: inner, t: t, ct: ct, layer: s.layer}
	se.vr, _ = inner.(kvstore.ValueReader)
	se.bw, _ = inner.(kvstore.BatchWriter)
	se.cd, _ = inner.(kvstore.ConditionalDeleter)
	se.incr, _ = inner.(kvstore.Incrementer)
	se.sc, _ = inner.(kvstore.Scanner)
	return se
}

// traceSession times the calls it forwards. Only the store layer numbers
// ops; the core layer reads the number and open span from the shared
// connTrace, since it runs inside the store layer's call.
type traceSession struct {
	inner kvstore.Session
	t     *tracer
	ct    *connTrace
	layer uint8

	vr   kvstore.ValueReader
	bw   kvstore.BatchWriter
	cd   kvstore.ConditionalDeleter
	incr kvstore.Incrementer
	sc   kvstore.Scanner
}

var (
	_ kvstore.Session            = (*traceSession)(nil)
	_ kvstore.ValueReader        = (*traceSession)(nil)
	_ kvstore.BatchWriter        = (*traceSession)(nil)
	_ kvstore.ConditionalDeleter = (*traceSession)(nil)
	_ kvstore.Incrementer        = (*traceSession)(nil)
	_ kvstore.Scanner            = (*traceSession)(nil)
)

// op opens a span for a call covering n ops and returns its index (-1 when
// the call is not sampled).
func (se *traceSession) op(kind spanKind, n uint32) int32 {
	ct := se.ct
	if se.layer == layerStore {
		lo := ct.seq
		ct.seq += n
		if kind != kindGet && !ct.dirty {
			ct.dirty, ct.firstWrite = true, lo
		}
		ct.sampling = se.t.sampled(lo, lo+n)
		if !ct.sampling {
			return -1
		}
		i := ct.begin(se.t.now(), layerStore, kind, lo, lo+n)
		ct.open = i
		return i
	}
	if !ct.sampling {
		return -1
	}
	return ct.begin(se.t.now(), layerCore, kind, ct.seq-n, ct.seq)
}

// done closes span i; a store-layer write also marks when the session's
// last write returned, which starts its commit wait.
func (se *traceSession) done(i int32, write bool) {
	t1 := se.t.now()
	se.ct.end(i, t1)
	if se.layer == layerStore {
		se.ct.open = -1
		if write {
			se.ct.lastWriteEnd = t1
		}
	}
}

func (se *traceSession) Get(key []byte) ([]byte, bool, error) {
	i := se.op(kindGet, 1)
	v, ok, err := se.inner.Get(key)
	se.done(i, false)
	return v, ok, err
}

func (se *traceSession) GetInto(key, dst []byte) ([]byte, bool, error) {
	if se.vr == nil {
		return nil, false, errNoCapability
	}
	i := se.op(kindGet, 1)
	v, ok, err := se.vr.GetInto(key, dst)
	se.done(i, false)
	return v, ok, err
}

func (se *traceSession) Put(key, value []byte) error {
	i := se.op(kindPut, 1)
	err := se.inner.Put(key, value)
	se.done(i, true)
	return err
}

func (se *traceSession) PutBatch(keys, values [][]byte) error {
	if se.bw == nil {
		return errNoCapability
	}
	i := se.op(kindBatch, uint32(len(keys)))
	err := se.bw.PutBatch(keys, values)
	se.done(i, true)
	return err
}

func (se *traceSession) Delete(key []byte) error {
	i := se.op(kindOther, 1)
	err := se.inner.Delete(key)
	se.done(i, true)
	return err
}

func (se *traceSession) DeleteIfPresent(key []byte) (bool, error) {
	if se.cd == nil {
		return false, errNoCapability
	}
	i := se.op(kindOther, 1)
	ok, err := se.cd.DeleteIfPresent(key)
	se.done(i, true)
	return ok, err
}

func (se *traceSession) IncrBy(key []byte, delta int64) (int64, error) {
	if se.incr == nil {
		return 0, errNoCapability
	}
	i := se.op(kindOther, 1)
	n, err := se.incr.IncrBy(key, delta)
	se.done(i, true)
	return n, err
}

func (se *traceSession) Scan(cursor uint64, limit int) ([]kvstore.KV, uint64, error) {
	if se.sc == nil {
		return nil, 0, errNoCapability
	}
	return se.sc.Scan(cursor, limit)
}

func (se *traceSession) Snapshot() (kvstore.Snapshot, error) {
	if se.sc == nil {
		return nil, errNoCapability
	}
	return se.sc.Snapshot()
}

// Flush is always traced: it is the commit, called by the server's
// group-commit goroutine while the connection waits for its acks.
func (se *traceSession) Flush() error {
	ct := se.ct
	i := int32(-1)
	if se.layer == layerStore {
		lo := ct.seq
		if ct.dirty {
			lo = ct.firstWrite
		}
		i = ct.begin(se.t.now(), layerStore, kindFlush, lo, ct.seq)
		if i >= 0 {
			ct.spans[i].aux = ct.lastWriteEnd
		}
		ct.open = i
		ct.dirty = false
		ct.lastWriteEnd = 0
	} else if ct.open >= 0 {
		p := ct.spans[ct.open]
		i = ct.begin(se.t.now(), layerCore, kindFlush, p.lo, p.hi)
	}
	err := se.inner.Flush()
	se.ct.end(i, se.t.now())
	if se.layer == layerStore {
		ct.open = -1
	}
	return err
}

func (se *traceSession) Clock() *simclock.Clock { return se.inner.Clock() }

// Release forwards the session-recycling hook the server calls when a
// connection closes.
func (se *traceSession) Release() error {
	if r, ok := se.inner.(interface{ Release() error }); ok {
		return r.Release()
	}
	return se.inner.Flush()
}

type capabilityError struct{}

func (capabilityError) Error() string { return "perfbench: traced store lacks capability" }

var errNoCapability = capabilityError{}

// writeSpans writes every recorded span as CSV, one line per span.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("conn,index,parent,layer,kind,seq_lo,seq_hi,start_ns,end_ns\n")
	var b []byte
	t.mu.Lock()
	conns := t.conns
	t.mu.Unlock()
	for _, ct := range conns {
		for i, sp := range ct.spans {
			b = strconv.AppendInt(b[:0], int64(ct.conn), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(sp.parent), 10)
			b = append(b, ',')
			b = append(b, layerNames[sp.layer]...)
			b = append(b, ',')
			b = append(b, kindNames[sp.kind]...)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(sp.lo), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(sp.hi), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, sp.start, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, sp.end, 10)
			b = append(b, '\n')
			w.Write(b)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
