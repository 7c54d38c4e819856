package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/resp"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/ycsb"
)

func TestKeysAndValues(t *testing.T) {
	for _, i := range []uint32{0, 1, 0xabc, 999_999} {
		var k [keySize]byte
		putKey(k[:], i)
		if want := ycsb.Key(int64(i)); !bytes.Equal(k[:], want) {
			t.Fatalf("putKey(%d) = %q, want %q", i, k, want)
		}
		if got := keyIndex(k[:]); got != i {
			t.Fatalf("keyIndex(%q) = %d, want %d", k, got, i)
		}
	}
	s := &stream{keys: []uint32{7, 9, 7}, set: []bool{true, false, true}}
	streams := []*stream{s, s}
	v := make([]byte, valueSize)
	for _, c := range []struct {
		key, vkey uint32
		writer    byte
		pos       uint32
		want      bool
	}{
		{7, 7, 0, 0, true},  // preload value
		{7, 7, 0, 1, false}, // preload values carry position 0
		{7, 7, 1, 0, true},  // stream 0 sent SET 7 at 0
		{7, 7, 2, 2, true},  // stream 1 sent SET 7 at 2
		{7, 7, 1, 1, false}, // op 1 is a GET
		{9, 7, 1, 0, false}, // value of another key
		{7, 7, 3, 0, false}, // no such writer
		{7, 7, 1, 3, false}, // past the stream
	} {
		encodeValue(v, c.vkey, c.writer, c.pos)
		if got := validValue(streams, c.key, v); got != c.want {
			t.Errorf("validValue(key %d, value %d/%d/%d) = %v, want %v", c.key, c.vkey, c.writer, c.pos, got, c.want)
		}
	}
}

// TestLedger checks the restart rule: the last acked write to a key, or one
// that overlapped it or was in flight, may survive; a write an acked write
// strictly followed, or the preload value of a written key, may not.
func TestLedger(t *testing.T) {
	s := &stream{keys: []uint32{1, 1, 2, 3, 3}, set: []bool{true, true, true, true, true}}
	d0 := newDriver(0, nil, []*stream{s, s}, 0, time.Now())
	d1 := newDriver(1, nil, []*stream{s, s}, 0, time.Now())
	// conn 0: key 1 sent at 10 acked at 20, key 1 again sent at 30 acked
	// at 40, key 2 failed, key 3 sent at 50 acked at 60.
	d0.record(0, 20, 10, true)
	d0.record(1, 40, 10, true)
	d0.record(2, 50, 0, false)
	d0.record(3, 60, 10, true)
	d0.seq = 5 // op 4 (key 3) was sent and never answered
	// conn 1: key 3 sent at 55 acked at 70, overlapping conn 0's.
	d1.record(0, 0, 0, true)
	d1.record(1, 0, 0, true)
	d1.record(2, 0, 0, true)
	d1.record(3, 70, 15, true)
	d1.seq = 4
	d1.s = &stream{keys: []uint32{9, 9, 9, 3}, set: []bool{false, false, false, true}}
	l := newLedger([]*stream{s, d1.s}, []*driver{d0, d1})
	v := make([]byte, valueSize)
	for _, c := range []struct {
		key    uint32
		writer byte
		pos    uint32
		want   bool
	}{
		{1, 1, 0, false}, // followed by the acked write at 30
		{1, 1, 1, true},  // last acked
		{1, 0, 0, false}, // preload of a written key
		{2, 1, 2, true},  // failed write: may have landed
		{2, 0, 0, true},  // or not
		{3, 1, 3, true},  // overlaps conn 1's write
		{3, 2, 3, true},
		{3, 1, 4, true}, // in flight
		{4, 0, 0, true}, // never written
	} {
		encodeValue(v, c.key, c.writer, c.pos)
		if got := l.durable(c.key, v); got != c.want {
			t.Errorf("durable(key %d, writer %d pos %d) = %v, want %v", c.key, c.writer, c.pos, got, c.want)
		}
	}
}

func smallStore(t *testing.T) *core.Store {
	t.Helper()
	st, err := core.Open(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestTraceKeepsCapabilities fails when a tracing wrapper drops an optional
// interface: the server would fall back to per-key Put, FLUSHALL would lose
// the log, and hotcache.Wrap would return capability errors.
func TestTraceKeepsCapabilities(t *testing.T) {
	st := smallStore(t)
	tr := newTracer(time.Now(), 1, 1024)
	above := traceAbove(hotcache.Wrap(traceBelow(st, tr), hotcache.New(1<<20)), tr)

	if p, ok := kvstore.Store(above).(obs.Provider); !ok || p.Registry() != st.Registry() {
		t.Fatal("traced store does not forward obs.Provider")
	}
	if l, ok := kvstore.Store(above).(interface{ Log() *wlog.Log }); !ok || l.Log() != st.Log() {
		t.Fatal("traced store does not forward Log")
	}
	se := above.NewSession(simclock.New(0))
	if _, ok := se.(interface{ Release() error }); !ok {
		t.Fatal("traced session does not forward Release")
	}
	keys := [][]byte{[]byte("a"), []byte("b")}
	if err := se.(kvstore.BatchWriter).PutBatch(keys, [][]byte{[]byte("1"), []byte("2")}); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if v, ok, err := se.(kvstore.ValueReader).GetInto([]byte("a"), nil); err != nil || !ok || string(v) != "1" {
		t.Fatalf("GetInto = %q %v %v", v, ok, err)
	}
	if n, err := se.(kvstore.Incrementer).IncrBy([]byte("n"), 3); err != nil || n != 3 {
		t.Fatalf("IncrBy = %d %v", n, err)
	}
	if ok, err := se.(kvstore.ConditionalDeleter).DeleteIfPresent([]byte("b")); err != nil || !ok {
		t.Fatalf("DeleteIfPresent = %v %v", ok, err)
	}
	sc := se.(kvstore.Scanner)
	if _, _, err := sc.Scan(0, 10); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	snap, err := sc.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	snap.Release()
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := se.(interface{ Release() error }).Release(); err != nil {
		t.Fatal(err)
	}
	ct := tr.conns[0]
	var nCore, nStore int
	for _, sp := range ct.spans {
		if sp.layer == layerCore {
			nCore++
			if sp.parent < 0 || ct.spans[sp.parent].layer != layerStore {
				t.Fatalf("core span %+v has no store parent", sp)
			}
		} else {
			nStore++
		}
	}
	if nStore == 0 || nCore == 0 {
		t.Fatalf("spans: %d store, %d core", nStore, nCore)
	}
}

// TestTracedServerBatchesSets serves the traced stack and pipelines SETs:
// the server must reach PutBatch through both wrappers, numbering the ops
// the way the client sent them, and commit them with one flush.
func TestTracedServerBatchesSets(t *testing.T) {
	st := smallStore(t)
	tr := newTracer(time.Now(), 1, 1024)
	above := traceAbove(hotcache.Wrap(traceBelow(st, tr), hotcache.New(1<<20)), tr)
	srv := server.New(above, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	c, err := resp.Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k0", "k1", "k2", "k3"} {
		c.SendStrings("SET", k, "v")
	}
	c.SendStrings("GET", "k0")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]string{true: "OK", false: "v"}[i < 4]; string(r.Str) != want {
			t.Fatalf("reply %d = %q, want %q", i, r.Str, want)
		}
	}
	// Shutdown waits for the connection's goroutine, so its spans are
	// safe to read afterwards.
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, sp := range tr.conns[0].spans {
		kinds = append(kinds, layerNames[sp.layer]+":"+kindNames[sp.kind])
	}
	want := "store:putbatch core:putbatch store:get core:get store:flush core:flush"
	if strings.Join(kinds, " ") != want {
		t.Fatalf("spans %q, want %q", kinds, want)
	}
	sp := tr.conns[0].spans
	if sp[0].lo != 0 || sp[0].hi != 4 || sp[2].lo != 4 || sp[4].lo != 0 || sp[4].hi != 5 {
		t.Fatalf("op numbering: %+v", sp)
	}
}

// replayConn answers every command written to it with the reply the
// benchmark checks for (+OK for SET, the preload value for GET), so the
// client loop can be measured without a server.
type replayConn struct {
	net.Conn
	mu   sync.Mutex
	cond sync.Cond
	out  []byte
	read int
}

func newReplayConn() *replayConn {
	c := &replayConn{out: make([]byte, 0, 4096)}
	c.cond.L = &c.mu
	return c
}

func (c *replayConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Signal()
	if c.read == len(c.out) {
		c.out, c.read = c.out[:0], 0
	}
	for i := 0; i < len(b); {
		n := int(b[i+1] - '0') // *2 or *3
		i += 4
		var args [3][]byte
		for a := 0; a < n; a++ {
			l := int(b[i+1] - '0') // $3 or $8
			i += 4
			args[a] = b[i : i+l]
			i += l + 2
		}
		if n == 3 {
			c.out = append(c.out, "+OK\r\n"...)
			continue
		}
		c.out = append(c.out, "$8\r\n"...)
		var v [valueSize]byte
		encodeValue(v[:], keyIndex(args[1]), 0, 0)
		c.out = append(c.out, v[:]...)
		c.out = append(c.out, "\r\n"...)
	}
	return len(b), nil
}

func (c *replayConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.read == len(c.out) {
		c.cond.Wait()
	}
	n := copy(b, c.out[c.read:])
	c.read += n
	return n, nil
}

func (c *replayConn) Close() error { return nil }

// TestTimedLoopAllocatesNothing holds the harness to zero allocations per
// op in the closed loop's send, receive, check and record step, and to a
// per-phase constant in the open loop.
func TestTimedLoopAllocatesNothing(t *testing.T) {
	streams := genStreams(&workload{setPct: 50, streamLen: 1 << 12}, 1)
	d := newDriver(0, newReplayConn(), streams, 0, time.Now())
	d.reserve(1 << 16)
	if err := d.batch(16); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if err := d.batch(16); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("closed loop: %v allocations per batch of 16", a)
	}

	for _, n := range []int{100, 2000} {
		from := d.seq
		a := testing.AllocsPerRun(1, func() {
			now := d.now()
			if err := d.openLoop(now, int64(time.Microsecond), now+int64(n)*int64(time.Microsecond)); err != nil {
				t.Fatal(err)
			}
		})
		if sent := d.seq - from; sent < n/2 || a > 20 {
			t.Fatalf("open loop: %v allocations for %d ops", a, sent)
		}
	}
	if len(d.bad) != 0 {
		t.Fatalf("%d replies failed the check", len(d.bad))
	}
}
