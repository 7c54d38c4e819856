package pmem

import (
	"bytes"
	"runtime"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestHugeArenaOpensEmpty opens an arena of the default configuration's
// 64 GiB: no page may materialize and the heap may grow by less than 1 MiB.
func TestHugeArenaOpensEmpty(t *testing.T) {
	before := heapAlloc()
	a := NewArena(device.New(device.OptanePmem), 64<<30)
	grew := int64(heapAlloc()) - int64(before)
	if a.Resident() != 0 {
		t.Fatalf("Resident = %d on open, want 0", a.Resident())
	}
	if grew >= 1<<20 {
		t.Fatalf("opening a 64 GiB arena grew the heap by %d bytes", grew)
	}
	if a.Capacity() != 64<<30 {
		t.Fatalf("Capacity = %d", a.Capacity())
	}
	runtime.KeepAlive(a)
}

// TestAllocNeverStraddlesPages allocates a mix of sizes that do not divide a
// page: every allocation up to a page stays inside one page, and every larger
// one starts on a page boundary and is one live view.
func TestAllocNeverStraddlesPages(t *testing.T) {
	a := NewArena(device.New(device.OptanePmem), 256<<20)
	sizes := []int64{256, 3 << 20, 1 << 20, 4096, PageBytes, 3 << 20, 9 << 20, 700 << 10}
	for round := 0; round < 3; round++ {
		for _, size := range sizes {
			off, err := a.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if off%256 != 0 {
				t.Fatalf("alloc %d at %d: not 256 B aligned", size, off)
			}
			if size <= PageBytes && off/PageBytes != (off+size-1)/PageBytes {
				t.Fatalf("alloc %d at %d straddles a page boundary", size, off)
			}
			if size > PageBytes && off%PageBytes != 0 {
				t.Fatalf("oversize alloc %d at %d not page aligned", size, off)
			}
			// One live view over the whole allocation: writes through it
			// are visible through fresh views of its first and last byte.
			v := a.Bytes(off, size)
			v[0], v[size-1] = 0xA5, 0x5A
			if a.Bytes(off, 1)[0] != 0xA5 || a.Bytes(off+size-1, 1)[0] != 0x5A {
				t.Fatalf("alloc %d at %d is not one live view", size, off)
			}
		}
	}
}

// TestOversizeFreeReuse frees an oversize allocation and checks the same
// block comes back, still one view.
func TestOversizeFreeReuse(t *testing.T) {
	a := NewArena(device.New(device.OptanePmem), 64<<20)
	off, err := a.Alloc(6 << 20)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(off, 6<<20)
	off2, err := a.Alloc(6 << 20)
	if err != nil || off2 != off {
		t.Fatalf("reuse = %d, %v; want %d", off2, err, off)
	}
	v := a.Bytes(off2, 6<<20)
	v[5<<20] = 1
	if a.Bytes(off2+5<<20, 1)[0] != 1 {
		t.Fatal("reused oversize block is not one live view")
	}
}

// TestUntouchedPagesReadZero persists data on two pages with an untouched
// one between them: Crash copies only the two materialized pages, and the
// untouched pages read as zeros afterwards.
func TestUntouchedPagesReadZero(t *testing.T) {
	a := NewArena(device.New(device.OptanePmem), 16<<20)
	c := simclock.New(0)
	a.StorePersist(c, 100, []byte("page0"))
	a.StorePersist(c, 2*PageBytes+100, []byte("page2"))
	if want := int64(2 * 2 * PageBytes); a.Resident() != want {
		t.Fatalf("Resident = %d, want %d (two pages, both images)", a.Resident(), want)
	}
	a.Crash()
	if a.Resident() != 2*2*PageBytes {
		t.Fatalf("Crash materialized pages: Resident = %d", a.Resident())
	}
	if string(a.Bytes(100, 5)) != "page0" || string(a.Bytes(2*PageBytes+100, 5)) != "page2" {
		t.Fatal("persisted bytes lost across Crash")
	}
	for _, off := range []int64{PageBytes, PageBytes + 12345, 3*PageBytes + 7} {
		if !bytes.Equal(a.Bytes(off, 64), make([]byte, 64)) {
			t.Fatalf("untouched page at %d does not read as zeros", off)
		}
	}
}

// TestTamperDurableAcrossPages tampers a range spanning a page boundary;
// after Crash both halves read back, through a copy since the two pages have
// separate backings.
func TestTamperDurableAcrossPages(t *testing.T) {
	a := NewArena(device.New(device.OptanePmem), 16<<20)
	data := bytes.Repeat([]byte("tamper!"), 100)
	off := int64(PageBytes - 300)
	a.TamperDurable(off, data)
	a.Crash()
	if got := a.Bytes(off, int64(len(data))); !bytes.Equal(got, data) {
		t.Fatal("tampered range spanning two pages did not read back")
	}
	if !bytes.Equal(a.Bytes(PageBytes, 400), data[300:]) {
		t.Fatal("second page of the tampered range lost")
	}
}

// TestLoadDurableSpans reloads two spans: one covering two pages, which must
// come back as one live view, and one on a distant page. Only their pages
// materialize.
func TestLoadDurableSpans(t *testing.T) {
	a := NewArena(device.New(device.OptanePmem), 1<<30)
	err := a.LoadDurable(func(into func(off, n int64) ([]byte, error)) error {
		b, err := into(PageBytes, 2*PageBytes)
		if err != nil {
			return err
		}
		b[0], b[len(b)-1] = 1, 2
		b, err = into(100*PageBytes, 4096)
		if err != nil {
			return err
		}
		b[10] = 3
		_, err = into(1<<30-10, 20)
		if err == nil {
			t.Error("span past the capacity accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * 2 * PageBytes); a.Resident() != want {
		t.Fatalf("Resident = %d, want %d", a.Resident(), want)
	}
	v := a.Bytes(PageBytes, 2*PageBytes)
	if v[0] != 1 || v[len(v)-1] != 2 || a.Bytes(100*PageBytes+10, 1)[0] != 3 {
		t.Fatal("loaded bytes did not reach the volatile image")
	}
	v[PageBytes] = 9
	if a.Bytes(2*PageBytes, 1)[0] != 9 {
		t.Fatal("a two-page load span is not one live view")
	}
}
