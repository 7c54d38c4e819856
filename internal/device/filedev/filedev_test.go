package filedev

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func testOpts(dir string) Options {
	return Options{
		Dir:           dir,
		Capacity:      1 << 20,
		AccessUnit:    256,
		SegmentBytes:  64 << 10,
		MetaSlotBytes: 4096,
	}
}

// loadImage reloads d into a flat capacity-sized image, the shape the arena's
// durable image had before it was paged.
func loadImage(d *Dev, capacity int64) ([]byte, error) {
	img := make([]byte, capacity)
	err := d.LoadInto(func(off, n int64) ([]byte, error) { return img[off : off+n], nil })
	return img, err
}

func mustOpen(t *testing.T, opt Options) *Dev {
	t.Helper()
	d, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

// TestWriteReadRoundtrip writes across a segment boundary, reopens the
// directory without a clean Close (the SIGKILL image: the page cache survives
// in the test world exactly like synced data), and reads everything back.
func TestWriteReadRoundtrip(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	data := bytes.Repeat([]byte("chameleon"), 20000) // ~180 KB, spans 3 segments
	if err := d.WriteDurable(10_000, data, true); err != nil {
		t.Fatalf("WriteDurable: %v", err)
	}
	if err := d.WriteMeta([]byte("host-state-1"), -1); err != nil {
		t.Fatalf("WriteMeta: %v", err)
	}
	// No Close: reattach cold.
	d2 := mustOpen(t, opt)
	if !d2.Existing() {
		t.Fatal("reopen did not find existing state")
	}
	if got := string(d2.Meta()); got != "host-state-1" {
		t.Fatalf("Meta = %q, want host-state-1", got)
	}
	img, err := loadImage(d2, opt.Capacity)
	if err != nil {
		t.Fatalf("LoadInto: %v", err)
	}
	if !bytes.Equal(img[10_000:10_000+len(data)], data) {
		t.Fatal("reloaded image does not match written data")
	}
	for _, b := range img[:10_000] {
		if b != 0 {
			t.Fatal("bytes before the write are not zero")
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLoadIntoSpansRuns checks the shape of a reload: into is asked once per
// run of consecutive segment files, for exactly the run's span, and never for
// the address space no file covers.
func TestLoadIntoSpansRuns(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	seg := opt.SegmentBytes
	// One write across segments 0 and 1, one inside segment 3.
	a := bytes.Repeat([]byte{0xA1}, int(seg))
	if err := d.WriteDurable(seg/2, a, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDurable(3*seg+100, []byte("three"), true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	defer d2.Close()
	type span struct{ off, n int64 }
	var got []span
	bufs := map[int64][]byte{}
	err := d2.LoadInto(func(off, n int64) ([]byte, error) {
		got = append(got, span{off, n})
		bufs[off] = make([]byte, n)
		return bufs[off], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []span{{0, 2 * seg}, {3 * seg, seg}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("into spans = %v, want %v", got, want)
	}
	if !bytes.Equal(bufs[0][seg/2:seg/2+seg], a) {
		t.Fatal("write across the segment boundary did not reload contiguous")
	}
	if string(bufs[3*seg][100:105]) != "three" {
		t.Fatal("segment 3 reloaded at the wrong offset")
	}
}

// TestMetaRecordAlternation checks that records alternate slots by sequence
// parity and that reopen always returns the newest one.
func TestMetaRecordAlternation(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	for i := 1; i <= 5; i++ {
		payload := []byte{byte(i), 0xAB}
		if err := d.WriteMeta(payload, -1); err != nil {
			t.Fatalf("WriteMeta %d: %v", i, err)
		}
	}
	d2 := mustOpen(t, opt)
	if got := d2.Meta(); len(got) != 2 || got[0] != 5 {
		t.Fatalf("Meta = %v, want [5 171]", got)
	}
}

// TestTornMetaFallsBack writes a good record, then a torn one (the power-cut
// image of a metadata persist); reopen must fall back to the good record.
func TestTornMetaFallsBack(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteMeta([]byte("good-record"), -1); err != nil {
		t.Fatal(err)
	}
	// Tear after 3 payload bytes: the header (with full length and checksum)
	// lands but most of the payload does not.
	if err := d.WriteMeta([]byte("newer-but-torn"), 3); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	if got := string(d2.Meta()); got != "good-record" {
		t.Fatalf("Meta after torn write = %q, want good-record", got)
	}
}

// TestZeroTearKeepsPrevious is the tear=0 case handled one level up (the
// arena skips the write entirely); at this level a zero-byte tear still
// writes the header, which must also fail validation.
func TestZeroTearKeepsPrevious(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteMeta([]byte("kept"), -1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("gone"), 0); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	if got := string(d2.Meta()); got != "kept" {
		t.Fatalf("Meta = %q, want kept", got)
	}
}

// TestGeometryMismatchRejected reopens with different geometry and expects a
// refusal, not a reinterpretation.
func TestGeometryMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	if err := d.WriteMeta([]byte("x"), -1); err != nil {
		t.Fatal(err)
	}
	d.Close()
	opt := testOpts(dir)
	opt.SegmentBytes *= 2
	if _, err := Open(opt); err == nil {
		t.Fatal("Open with mismatched geometry succeeded")
	}
}

// TestBootstrapCrashReinitializes models a crash after the manifest header
// became durable but before the first metadata record: nothing was ever
// acknowledged, so reopen must reinitialize rather than fail.
func TestBootstrapCrashReinitializes(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	// A segment file exists but no record was ever written.
	if err := d.WriteDurable(0, []byte("pre-ack garbage"), true); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, testOpts(dir))
	if d2.Existing() {
		t.Fatal("directory with no metadata record reported as existing")
	}
	img, err := loadImage(d2, testOpts(dir).Capacity)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range img {
		if b != 0 {
			t.Fatal("reinitialized directory still holds old segment data")
		}
	}
}

// TestZeroDurableSkipsMissingSegments zeroes a range with no backing file —
// it must be a no-op, not a file creation.
func TestZeroDurableSkipsMissingSegments(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.ZeroDurable(opt.SegmentBytes*3, opt.SegmentBytes); err != nil {
		t.Fatalf("ZeroDurable: %v", err)
	}
	if _, err := os.Stat(filepath.Join(opt.Dir, "seg-000003.dat")); !os.IsNotExist(err) {
		t.Fatal("ZeroDurable created a segment file")
	}
}

// TestSegmentCreateSyncsDirectory: with the fix in place, a segment file's
// directory entry is fsync'd at creation (UnsyncedCreates stays empty), so a
// crash immediately after the creating persist cannot unlink it.
func TestSegmentCreateSyncsDirectory(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	base := d.DirSyncs() // initialize pays one
	if err := d.WriteDurable(0, []byte("durable"), true); err != nil {
		t.Fatal(err)
	}
	if got := d.UnsyncedCreates(); len(got) != 0 {
		t.Fatalf("UnsyncedCreates = %v, want none", got)
	}
	if d.DirSyncs() != base+1 {
		t.Fatalf("segment creation issued %d dir syncs, want 1", d.DirSyncs()-base)
	}
}

// TestCloseSyncsDirectory is the regression test for the Close bugfix: Close
// must fsync the manifest and the directory entry before returning, so a
// clean shutdown leaves nothing volatile even if creation-time syncs were
// elided. The counter shows the Close-time sync; the DisableDirSync leg
// demonstrates the data-loss scenario the sync prevents.
func TestCloseSyncsDirectory(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteDurable(0, []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	before := d.DirSyncs()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.DirSyncs() != before+1 {
		t.Fatalf("Close issued %d dir syncs, want 1", d.DirSyncs()-before)
	}
}

// TestDirSyncLossScenario demonstrates what the creation-time and Close-time
// directory syncs prevent: with both disabled, a crash can unlink a freshly
// created segment file, silently zeroing everything it held — including data
// whose persist was acknowledged with a real fdatasync.
func TestDirSyncLossScenario(t *testing.T) {
	opt := testOpts(t.TempDir())
	opt.DisableDirSync = true
	d := mustOpen(t, opt)
	payload := []byte("acknowledged-but-doomed")
	if err := d.WriteDurable(opt.SegmentBytes*2, payload, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	lost := d.UnsyncedCreates()
	if len(lost) == 0 {
		t.Fatal("expected the new segment's directory entry to be unsynced")
	}
	// The simulated power failure: unsynced directory entries never became
	// durable, so the files they named do not exist after restart.
	for _, path := range lost {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	reopened := mustOpen(t, testOpts(opt.Dir))
	img, err := loadImage(reopened, opt.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(img, payload) {
		t.Fatal("data survived without directory syncs — the loss scenario no longer reproduces")
	}
}

// TestZeroDurableSyncedBeforeMeta is the regression test for the
// freed-region resurrection bug: zeroes written by ZeroDurable stay
// host-cached, so a metadata record that reuses the region must not become
// durable before them. The synced WriteMeta path must fdatasync every
// zero-dirty segment file (clearing the tracking); the torn path models a
// power failure and must sync nothing.
func TestZeroDurableSyncedBeforeMeta(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	// Put real bytes in segments 0 and 1 so ZeroDurable has files to dirty.
	if err := d.WriteDurable(0, bytes.Repeat([]byte{0xEE}, int(opt.SegmentBytes)+512), true); err != nil {
		t.Fatal(err)
	}
	if err := d.ZeroDurable(256, opt.SegmentBytes); err != nil { // spans seg 0 and 1
		t.Fatal(err)
	}
	if got := d.ZeroDirtySegments(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ZeroDirtySegments after zeroing = %v, want [0 1]", got)
	}
	// A torn metadata persist is the power-cut image: nothing is synced, the
	// zeroes stay pending.
	if err := d.WriteMeta([]byte("torn"), 2); err != nil {
		t.Fatal(err)
	}
	if got := d.ZeroDirtySegments(); len(got) != 2 {
		t.Fatalf("torn WriteMeta synced pending zeroes: dirty = %v", got)
	}
	// The synced record is what can make the region reachable again; it must
	// carry the zeroes to stable storage first.
	if err := d.WriteMeta([]byte("committed"), -1); err != nil {
		t.Fatal(err)
	}
	if got := d.ZeroDirtySegments(); len(got) != 0 {
		t.Fatalf("synced WriteMeta left zero-dirty segments %v", got)
	}
}

// TestParseSegName rejects every non-canonical segment file name a directory
// scan can encounter, so junk names can never alias onto a real index.
func TestParseSegName(t *testing.T) {
	cases := []struct {
		name string
		idx  int64
		ok   bool
	}{
		{"seg-000000.dat", 0, true},
		{"seg-000042.dat", 42, true},
		{"seg-1000000.dat", 1000000, true}, // beyond the %06d padding width
		{"seg-1.dat", 0, false},            // non-canonical padding
		{"seg-0000001.dat", 0, false},      // over-padded
		{"seg-000001.dat.bak", 0, false},   // trailing suffix
		{"seg--00001.dat", 0, false},       // negative
		{"seg-+00001.dat", 0, false},       // signed
		{"seg-00000x.dat", 0, false},
		{"seg-.dat", 0, false},
		{"MANIFEST", 0, false},
	}
	for _, c := range cases {
		idx, ok := parseSegName(c.name)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("parseSegName(%q) = (%d, %v), want (%d, %v)", c.name, idx, ok, c.idx, c.ok)
		}
	}
}

// TestScanIgnoresJunkNames drops non-canonical look-alike files into a valid
// store directory; reopen must ignore them instead of aliasing them onto
// canonical indices (which would fail with ErrNotExist or leak descriptors).
func TestScanIgnoresJunkNames(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	data := []byte("real segment data")
	if err := d.WriteDurable(0, data, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"seg-1.dat", "seg-000000.dat.bak", "seg--00001.dat"} {
		if err := os.WriteFile(filepath.Join(opt.Dir, junk), []byte("junk"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	d2 := mustOpen(t, opt)
	defer d2.Close()
	if !d2.Existing() {
		t.Fatal("junk file names broke reattach")
	}
	img, err := loadImage(d2, opt.Capacity)
	if err != nil {
		t.Fatalf("LoadInto: %v", err)
	}
	if !bytes.Equal(img[:len(data)], data) {
		t.Fatal("junk file content aliased onto a canonical segment")
	}
}

// TestAttachErrorClosesFiles forces attach to fail after the manifest and the
// first segment file were opened (the second canonical segment path is a
// directory) and checks no descriptors leak from the error path.
func TestAttachErrorClosesFiles(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteDurable(0, []byte("seg zero exists"), true); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("meta"), -1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A canonical segment name that cannot be opened as a file.
	if err := os.Mkdir(filepath.Join(opt.Dir, "seg-000001.dat"), 0o777); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	before := openFDs()
	if _, err := Open(opt); err == nil {
		t.Fatal("Open over an unopenable segment path succeeded")
	}
	if after := openFDs(); after != before {
		t.Fatalf("failed Open leaked descriptors: %d open before, %d after", before, after)
	}
}

// TestRecordChecksumCoversHeader corrupts a stale record's seq word to a
// higher value of the right parity — under a payload-only checksum it would
// win newest-record selection over the intact newer record. The header-covered
// checksum must reject it.
func TestRecordChecksumCoversHeader(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteMeta([]byte("stale"), -1); err != nil { // seq 1 -> slot 1
		t.Fatal(err)
	}
	if err := d.WriteMeta([]byte("newest"), -1); err != nil { // seq 2 -> slot 0
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opt.Dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bump slot 1's seq from 1 to 3: same parity (passes the slot check),
	// higher than the genuine newest record's seq 2.
	raw[slot0Off+opt.MetaSlotBytes] = 3
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, opt)
	defer d2.Close()
	if got := string(d2.Meta()); got != "newest" {
		t.Fatalf("Meta = %q, want %q — a corrupted seq word won newest-record selection", got, "newest")
	}
}

// TestWriteOutsideCapacityRejected bounds-checks the write path.
func TestWriteOutsideCapacityRejected(t *testing.T) {
	opt := testOpts(t.TempDir())
	d := mustOpen(t, opt)
	if err := d.WriteDurable(opt.Capacity-4, make([]byte, 8), false); err == nil {
		t.Fatal("write past capacity succeeded")
	}
	if err := d.WriteMeta(make([]byte, opt.MetaSlotBytes), -1); err == nil {
		t.Fatal("oversized metadata record accepted")
	}
}
