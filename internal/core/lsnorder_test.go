package core

import (
	"testing"

	"chameleondb/internal/simclock"
)

// TestLSNOrderAcrossSessions is the regression test for a cross-session LSN
// inversion. Session A reserves its batch chunk first, so its LSNs are lower
// than session B's, whose chunk comes from further up the log tail. When A
// writes a key after B did, the later write must still get the higher LSN:
// recovery and replicas replay in LSN order, so an inverted pair would bring
// back B's older value after a crash.
func TestLSNOrderAcrossSessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		// between runs after B's write and before A's: nothing, or a flush
		// that moves B's version out of the MemTable into a table.
		between func(t *testing.T, s *Store)
	}{
		{"memtable", func(*testing.T, *Store) {}},
		{"flushed", func(t *testing.T, s *Store) {
			if err := s.FlushAll(simclock.New(0)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t)
			a := s.NewSession(simclock.New(0))
			b := s.NewSession(simclock.New(0))
			k := []byte("contended")
			if err := a.Put([]byte("reserve-a"), []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(k, []byte("b")); err != nil {
				t.Fatal(err)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			tc.between(t, s)
			if err := a.Put(k, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := a.Get(k); err != nil || !ok || string(got) != "a" {
				t.Fatalf("before crash Get = %q, %v, %v; want a", got, ok, err)
			}
			s.Crash()
			if err := s.Recover(simclock.New(0)); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.NewSession(simclock.New(0)).Get(k)
			if err != nil || !ok || string(got) != "a" {
				t.Fatalf("after recovery Get = %q, %v, %v; want the acknowledged later write a", got, ok, err)
			}
		})
	}
}
