package filedev

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzFileManifestDecode feeds arbitrary bytes to the MANIFEST parsing path —
// the geometry header and both record slots — by writing them as the
// superblock of an otherwise empty directory and attaching to it. Open must
// never panic; it either reinitializes (no segment data at risk), refuses
// (corrupt header over data), or attaches with a validated record. Torn
// record tails must be rejected by the checksum, never returned as metadata.
func FuzzFileManifestDecode(f *testing.F) {
	opt := Options{Capacity: 1 << 20, AccessUnit: 256, SegmentBytes: 64 << 10, MetaSlotBytes: 4096}

	// Seed with a valid superblock plus interesting mutations of it.
	valid := func() []byte {
		raw := make([]byte, slot0Off+2*opt.MetaSlotBytes)
		copy(raw, encodeHeader(opt))
		return raw
	}
	f.Add(valid())
	f.Add([]byte{})
	f.Add([]byte("CHAMFD01 but far too short"))
	torn := valid()
	copy(torn[slot0Off:], []byte{1, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0}) // seq=1, len=16, no payload
	f.Add(torn)
	half := valid()[:slot0Off+100]
	f.Add(half)

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o666); err != nil {
			t.Skip()
		}
		o := opt
		o.Dir = dir
		d, err := Open(o)
		if err != nil {
			return
		}
		// Whatever Open accepted must be internally consistent: a reported
		// record decodes, and the device is usable.
		if d.Existing() && len(d.Meta()) == 0 {
			t.Fatal("Existing() with empty metadata record")
		}
		if err := d.WriteDurable(0, []byte("probe"), true); err != nil {
			t.Fatalf("post-attach write: %v", err)
		}
		if err := d.WriteMeta([]byte("probe-meta"), -1); err != nil {
			t.Fatalf("post-attach meta write: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// The probe record must round-trip through a reopen.
		d2, err := Open(o)
		if err != nil {
			t.Fatalf("reopen after probe writes: %v", err)
		}
		if !d2.Existing() || string(d2.Meta()) != "probe-meta" {
			t.Fatalf("probe metadata did not survive reopen: existing=%v meta=%q", d2.Existing(), d2.Meta())
		}
		d2.Close()
	})
}

// FuzzSegmentScan feeds arbitrary file names into the directory scan via real
// files: attach must ignore non-segment names and reject inconsistent
// segment/manifest combinations without panicking.
func FuzzSegmentScan(f *testing.F) {
	f.Add("seg-000001.dat", []byte{1, 2, 3})
	f.Add("seg-999999999999999999.dat", []byte{})
	f.Add("seg--00001.dat", []byte{0})
	f.Add("MANIFEST.bak", []byte("x"))
	f.Fuzz(func(t *testing.T, name string, content []byte) {
		dir := t.TempDir()
		if filepath.Base(name) != name || name == "" || name == "." || name == ".." {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o666); err != nil {
			t.Skip()
		}
		opt := Options{Dir: dir, Capacity: 1 << 20, AccessUnit: 256, SegmentBytes: 64 << 10, MetaSlotBytes: 4096}
		d, err := Open(opt)
		if err != nil {
			return
		}
		_, _ = loadImage(d, opt.Capacity)
		d.Close()
	})
}
