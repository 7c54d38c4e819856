package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
	"chameleondb/internal/simclock"
)

// TestCommandTableArity walks the command table: for every command, one
// argument too few and one too many (and an unpaired MSET-style body) get
// the same wrong-number-of-arguments error outside MULTI and when queued
// inside it, where the refusal also aborts the transaction. A command added
// to the table is covered without touching this test.
func TestCommandTableArity(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)
	for i := range commands {
		cmd := &commands[i]
		if cmd == unknownCommand {
			continue
		}
		var counts []int
		if cmd.min > 1 {
			counts = append(counts, cmd.min-1)
		}
		if cmd.max >= 0 {
			counts = append(counts, cmd.max+1)
		}
		if cmd.pairs {
			counts = append(counts, cmd.min+1)
		}
		names := []string{strings.ToUpper(cmd.name)}
		if cmd.alias != "" {
			names = append(names, cmd.alias)
		}
		want := "-ERR wrong number of arguments for '" + cmd.name + "' command"
		for _, name := range names {
			for _, n := range counts {
				args := []string{name}
				for len(args) < n {
					args = append(args, "x")
				}
				rep, err := c.DoStrings(args...)
				if err != nil || render(rep) != want {
					t.Fatalf("%d-arg %s = %s, %v; want %s", n, name, render(rep), err, want)
				}
				if cmd.multi != multiQueue {
					continue
				}
				if rep, err := c.DoStrings("MULTI"); err != nil || rep.Text() != "OK" {
					t.Fatalf("MULTI = %+v, %v", rep, err)
				}
				rep, err = c.DoStrings(args...)
				if err != nil || render(rep) != want {
					t.Fatalf("queued %d-arg %s = %s, %v; want %s", n, name, render(rep), err, want)
				}
				rep, err = c.DoStrings("EXEC")
				if err != nil || !strings.HasPrefix(render(rep), "-EXECABORT") {
					t.Fatalf("EXEC after bad %s = %s, %v; want EXECABORT", name, render(rep), err)
				}
			}
		}
	}
}

// plainStore hands out sessions with nothing beyond kvstore.Session.
type plainStore struct{ kvstore.Store }

func (s plainStore) NewSession(c *simclock.Clock) kvstore.Session {
	return struct{ kvstore.Session }{s.Store.NewSession(c)}
}

// TestRefusesNonServingStore: a store whose sessions lack the serving
// contract gets one -ERR naming the interface on connect, then the
// connection closes — with and without the hot-key cache in front.
func TestRefusesNonServingStore(t *testing.T) {
	st, err := core.Open(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, cfg := range []Config{{}, {Cache: hotcache.New(1 << 20)}} {
		s, addr := startServer(t, plainStore{st}, cfg)
		// Read without sending: the refusal is unprompted, and a command left
		// unread at close could turn the server's FIN into a reset.
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		r := resp.NewReader(nc)
		rep, err := r.ReadReply()
		if err != nil || rep.Type != resp.TypeError || !strings.Contains(rep.Text(), "kvstore.ServingSession") {
			t.Fatalf("cache=%v: greeting = %+v, %v; want -ERR naming kvstore.ServingSession", cfg.Cache != nil, rep, err)
		}
		if _, err := r.ReadReply(); err == nil {
			t.Fatalf("cache=%v: connection still open after refusal", cfg.Cache != nil)
		}
		if n := s.Metrics().ConnsRejected.Load(); n != 1 {
			t.Fatalf("cache=%v: ConnsRejected = %d, want 1", cfg.Cache != nil, n)
		}
	}
}

// TestMGetErrorKeepsScratch drives MGET's error branch directly: after a
// store error mid-MGET the connection keeps the value buffer and span slice
// the failed call grew, so the next MGET over the same values runs on
// recycled scratch — and returns the right values from it.
func TestMGetErrorKeepsScratch(t *testing.T) {
	st, err := core.Open(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// The conn is driven directly, never served: no Listen, no batcher.
	s := New(&failStore{Store: st}, Config{})
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	c := newConn(s, server, s.store.NewSession(simclock.New(0)).(kvstore.ServingSession))
	t.Cleanup(func() { c.se.Release() })

	big := strings.Repeat("v", 4096)
	for _, k := range []string{"k1", "k2"} {
		if err := c.se.Put([]byte(k), []byte(big)); err != nil {
			t.Fatal(err)
		}
	}
	mget := lookup([]byte("mget"))
	args := func(keys ...string) [][]byte {
		out := [][]byte{[]byte("MGET")}
		for _, k := range keys {
			out = append(out, []byte(k))
		}
		return out
	}

	c.execute(mget, args("k1", "k2", "boom"))
	if cap(c.vbuf) < 2*len(big) || cap(c.mgetSpans) < 2 {
		t.Fatalf("after failed MGET: cap(vbuf)=%d cap(spans)=%d; want the grown scratch kept",
			cap(c.vbuf), cap(c.mgetSpans))
	}
	c.w.Reset()
	vbuf, spans := &c.vbuf[:1][0], &c.mgetSpans[:1][0]
	c.execute(mget, args("k1", "k2"))
	c.w.Reset()
	if &c.vbuf[:1][0] != vbuf || &c.mgetSpans[:1][0] != spans {
		t.Fatal("MGET after a failed MGET reallocated its scratch")
	}
	if got := c.mgetSpans[:2]; got[0] != (mgetSpan{0, len(big), true}) || got[1] != (mgetSpan{len(big), len(big), true}) {
		t.Fatalf("MGET spans = %+v", got)
	}
	if string(c.vbuf[:2*len(big)]) != big+big {
		t.Fatal("MGET values corrupted in the recycled buffer")
	}
}
