package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

func fileTestConfig() Config {
	cfg := TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 32
	cfg.Levels = 3
	cfg.Ratio = 2
	cfg.ArenaBytes = 2 << 20
	cfg.LogBytes = 128 << 10
	return cfg
}

// TestOpenFileRestartDurability is the core-level restart test: open a fresh
// directory, write and flush, abandon the store without Close (the in-process
// stand-in for SIGKILL), reopen cold, recover, and read everything back.
func TestOpenFileRestartDurability(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()

	s, existing, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if existing {
		t.Fatal("fresh directory reported as existing")
	}
	se := s.NewSession(simclock.New(0))
	want := make(map[string][]byte)
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i%80)) // overwrites ride along
		v := bytes.Repeat([]byte{byte(i)}, i%96+1)
		if err := se.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[string(k)] = v
	}
	if err := se.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// No Close: the process "dies". The durable files must carry everything
	// acknowledged by the Flush.

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !existing {
		t.Fatal("reopen did not find existing state")
	}
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatalf("recover: %v", err)
	}
	se2 := s2.NewSession(simclock.New(0))
	for k, v := range want {
		got, ok, err := se2.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s after restart: got %q ok=%v err=%v, want %q", k, got, ok, err, v)
		}
	}
	if err := s2.VerifyIntegrity(simclock.New(0)); err != nil {
		t.Fatalf("integrity after restart: %v", err)
	}
	// The recovered store must accept and persist new writes across another
	// restart — including a clean Close this time.
	if err := se2.Put([]byte("post-restart"), []byte("second-generation")); err != nil {
		t.Fatal(err)
	}
	if err := se2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s3, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("third open: existing=%v err=%v", existing, err)
	}
	defer s3.Close()
	if err := s3.Recover(simclock.New(0)); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	se3 := s3.NewSession(simclock.New(0))
	got, ok, err := se3.Get([]byte("post-restart"))
	if err != nil || !ok || string(got) != "second-generation" {
		t.Fatalf("post-restart key after second restart: %q %v %v", got, ok, err)
	}
	for k, v := range want {
		got, ok, err := se3.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s after second restart: got %q ok=%v err=%v", k, got, ok, err)
		}
	}
}

// TestOpenFileRestartWithMaintenance exercises the restart path after enough
// writes to force flushes, spills, compactions, and log GC — so the host
// metadata record has been rewritten by segment churn, tables live above the
// persisted allocator mark, and ReserveFloor does real work on reattach.
func TestOpenFileRestartWithMaintenance(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	se := s.NewSession(c)
	want := make(map[string][]byte)
	for i := 0; i < 1200; i++ {
		k := []byte(fmt.Sprintf("mk-%04d", i%150))
		v := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, i%40+1)
		if err := se.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[string(k)] = v
		if i%200 == 199 {
			if err := s.FlushAll(c); err != nil {
				t.Fatalf("FlushAll at %d: %v", i, err)
			}
			if _, err := s.CompactLog(c, 64<<10); err != nil {
				t.Fatalf("CompactLog at %d: %v", i, err)
			}
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("reopen: existing=%v err=%v", existing, err)
	}
	defer s2.Close()
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := s2.VerifyIntegrity(simclock.New(0)); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	se2 := s2.NewSession(simclock.New(0))
	for k, v := range want {
		got, ok, err := se2.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s after churny restart: got %q ok=%v err=%v", k, got, ok, err)
		}
	}
}

// TestOpenFileColdReopenResident reopens a file-backed store whose 4 GiB
// arena holds about 1 MB: only the pages with segment files materialize, so
// the arena's resident heap is bounded by what the directory holds, not by
// its capacity.
func TestOpenFileColdReopenResident(t *testing.T) {
	cfg := TestConfig()
	cfg.ArenaBytes = 4 << 30
	cfg.LogBytes = 64 << 20
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < 1000; i++ {
		if err := se.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segment files = %v, %v", segs, err)
	}
	loaded := int64(len(segs)) * 2 * pmem.PageBytes

	s2, existing, err := OpenFile(cfg, dir)
	if err != nil || !existing {
		t.Fatalf("reopen: existing=%v err=%v", existing, err)
	}
	defer s2.Close()
	resident := func() int64 { return s2.Registry().Snapshot().Gauges["arena_resident_bytes"] }
	if got := resident(); got != loaded {
		t.Fatalf("arena_resident_bytes after reopen = %d, want %d (%d segment files, both images)", got, loaded, len(segs))
	}
	if err := s2.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s2.NewSession(simclock.New(0))
	for i := 0; i < 1000; i++ {
		if got, ok, err := se2.Get(key(i)); err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("key %d after reopen: ok=%v err=%v", i, ok, err)
		}
	}
	// Recovery and the reads above work inside the loaded pages.
	if got := resident(); got != loaded {
		t.Fatalf("arena_resident_bytes after recovery and reads = %d, want %d", got, loaded)
	}
}

// TestOpenFileGeometryMismatch reopens a directory with a different config
// and expects a refusal.
func TestOpenFileGeometryMismatch(t *testing.T) {
	cfg := fileTestConfig()
	dir := t.TempDir()
	s, _, err := OpenFile(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Shards = 8
	if _, _, err := OpenFile(bad, dir); err == nil {
		t.Fatal("reopen with different shard count succeeded")
	}
}

// TestHostStateRoundtrip round-trips the host metadata blob.
func TestHostStateRoundtrip(t *testing.T) {
	hs := hostState{
		fp:                fingerprintOf(fileTestConfig()),
		ArenaNext:         123456,
		LogHead:           32 << 10,
		LogNext:           96 << 10,
		Segs:              map[int64]int64{1: 256, 2: 33024, 5: 66048},
		ManifestSlotBytes: 512,
		ManifestOffs:      []int64{256, 1280, 2304, 3328},
		ReplID:            "4f2d1c0b9a87654321fedcba0123456789abcdef",
		ReplEpoch:         3,
		ReplApplied:       64 << 10,
	}
	got, err := decodeHostState(encodeHostState(hs))
	if err != nil {
		t.Fatal(err)
	}
	if got.fp != hs.fp || got.ArenaNext != hs.ArenaNext || got.LogHead != hs.LogHead || got.LogNext != hs.LogNext {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, hs)
	}
	if got.ReplID != hs.ReplID || got.ReplEpoch != hs.ReplEpoch || got.ReplApplied != hs.ReplApplied {
		t.Fatalf("roundtrip lost replication identity: %+v vs %+v", got, hs)
	}
	if len(got.Segs) != len(hs.Segs) || len(got.ManifestOffs) != len(hs.ManifestOffs) {
		t.Fatalf("roundtrip lost entries: %+v", got)
	}
	for k, v := range hs.Segs {
		if got.Segs[k] != v {
			t.Fatalf("segment %d: %d != %d", k, got.Segs[k], v)
		}
	}
}

// FuzzHostStateDecode: arbitrary bytes must decode or error, never panic,
// mirroring FuzzFileManifestDecode one layer up.
func FuzzHostStateDecode(f *testing.F) {
	f.Add(encodeHostState(hostState{
		fp:           fingerprintOf(fileTestConfig()),
		ManifestOffs: []int64{256, 512, 768, 1024},
		Segs:         map[int64]int64{0: 256},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, b []byte) {
		hs, err := decodeHostState(b)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something decodable.
		if _, err := decodeHostState(encodeHostState(hs)); err != nil {
			t.Fatalf("roundtrip of decoded state failed: %v", err)
		}
	})
}
