// Package pmem implements the simulated Optane persistent memory arena used
// by every store in this repository.
//
// The arena keeps two images of the memory: a volatile image, which models
// the CPU cache hierarchy plus the device and is what running code reads and
// writes, and a durable image, which models the persistent media behind the
// write pending queue. Writes land in the volatile image immediately;
// Persist (clwb+sfence) and PersistNT (ntstore+sfence) copy byte ranges into
// the durable image and charge the device model for the media traffic.
// Crash discards the volatile image, so anything not persisted is lost —
// exactly the failure semantics App Direct mode exposes — and Recover-time
// code sees only what was fenced.
package pmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

// ErrOutOfSpace is returned by Alloc when the arena is exhausted.
var ErrOutOfSpace = errors.New("pmem: arena out of space")

// PageBytes is the granularity at which the arena's images materialize:
// 4 MiB, the file backend's default segment span, so one segment file loads
// into one page.
const PageBytes = 4 << 20

const pageShift = 22 // log2(PageBytes)

// page is one materialized page of both images. A page allocated on its own
// has PageBytes-long images (shorter for a partial last page); the pages of
// an allocation larger than PageBytes share one contiguous backing, and each
// one's slices run from its own first byte to the end of that backing, so a
// view starting in any of them may extend across the rest of the allocation.
type page struct {
	vol, dur []byte
	head     int64 // index of the first page of the backing
}

// Arena is a byte-addressable persistent memory region backed by the device
// timing model. Allocation is thread-safe; data access into disjoint
// allocations is safe without locking, as with real memory.
//
// Both images are a directory of pages allocated on the Go heap the first
// time an Alloc, a load or a read touches them: the cost of opening,
// crashing and reloading an arena tracks the data it holds, not its
// capacity. Untouched pages read as zeros.
type Arena struct {
	dev *device.Device

	// med, when non-nil, is the real persistence backend mirrored behind the
	// in-memory durable image (see Medium). The simulated default is nil.
	med Medium
	// medErr latches the first Medium I/O error: once a persist has failed to
	// reach stable storage the arena can no longer honour durability, so the
	// store fails stop (core checks MediumErr on the session paths).
	medErr atomic.Pointer[error]

	capacity int64
	pages    []atomic.Pointer[page]
	pageMu   sync.Mutex   // serializes materialization
	resident atomic.Int64 // bytes of materialized pages, both images

	mu   sync.Mutex
	next int64
	free map[int64][]int64 // size class -> free offsets

	crashMu sync.RWMutex // held for writing only during Crash
}

// NewArena creates an arena of the given capacity in bytes on device dev.
// Offset 0 is reserved (a zero offset means "nil" throughout the codebase),
// so the first allocation starts at the device access unit boundary. No page
// is materialized yet.
func NewArena(dev *device.Device, capacity int64) *Arena {
	return &Arena{
		dev:      dev,
		capacity: capacity,
		pages:    make([]atomic.Pointer[page], (capacity+PageBytes-1)>>pageShift),
		next:     dev.Profile().AccessUnit,
		free:     make(map[int64][]int64),
	}
}

// pageLen returns the length of page i's own span (the last page can be
// partial).
func (a *Arena) pageLen(i int64) int64 {
	return min(PageBytes, a.capacity-i<<pageShift)
}

// page returns page i, materializing it alone if nothing has touched it.
func (a *Arena) page(i int64) *page {
	if p := a.pages[i].Load(); p != nil {
		return p
	}
	a.materialize(i, i)
	return a.pages[i].Load()
}

// materialize gives pages [first, last] one contiguous backing. Pages
// already inside one backing that covers the range are left alone. Otherwise
// the range is widened to whole existing backings, a fresh backing is
// allocated, and the contents of every materialized page are copied into it.
// That copy detaches views into the old backings, so a merge is legal only
// while nobody holds one: LoadDurable runs before any session, and Alloc
// only ever materializes ranges that are fresh or already contiguous.
func (a *Arena) materialize(first, last int64) {
	a.pageMu.Lock()
	defer a.pageMu.Unlock()
	if p := a.pages[first].Load(); p != nil && first+int64(len(p.vol)-1)>>pageShift >= last {
		return
	}
	if p := a.pages[first].Load(); p != nil {
		first = p.head
	}
	if p := a.pages[last].Load(); p != nil {
		last += int64(len(p.vol)-1) >> pageShift
	}
	base := first << pageShift
	n := last<<pageShift + a.pageLen(last) - base
	vol, dur := make([]byte, n), make([]byte, n)
	for i := first; i <= last; i++ {
		at := i<<pageShift - base
		if old := a.pages[i].Load(); old != nil {
			l := a.pageLen(i)
			copy(vol[at:at+l], old.vol[:l])
			copy(dur[at:at+l], old.dur[:l])
		} else {
			a.resident.Add(2 * a.pageLen(i))
		}
		a.pages[i].Store(&page{vol: vol[at:], dur: dur[at:], head: first})
	}
}

// contiguous reports whether [off, off+size) lies inside one backing, or
// touches no materialized page at all.
func (a *Arena) contiguous(off, size int64) bool {
	first, last := off>>pageShift, (off+size-1)>>pageShift
	if p := a.pages[first].Load(); p != nil {
		return off-first<<pageShift+size <= int64(len(p.vol))
	}
	for i := first + 1; i <= last; i++ {
		if a.pages[i].Load() != nil {
			return false
		}
	}
	return true
}

// spans calls fn for each piece of [off, off+size) that lies in one backing:
// p is the page the piece starts in, in the piece's offset inside p's slices,
// pos its offset inside the range. With create false, pieces on pages never
// materialized are skipped (they read as zeros).
func (a *Arena) spans(off, size int64, create bool, fn func(p *page, in, n, pos int64)) {
	for pos := int64(0); pos < size; {
		i := (off + pos) >> pageShift
		in := (off + pos) - i<<pageShift
		p := a.pages[i].Load()
		if p == nil && !create {
			pos += a.pageLen(i) - in
			continue
		}
		if p == nil {
			p = a.page(i)
		}
		n := min(size-pos, int64(len(p.vol))-in)
		fn(p, in, n, pos)
		pos += n
	}
}

// view returns [off, off+size) of the volatile image. A range
// inside one backing — every allocation is — is a live view; a range across
// two backings, which only corrupt metadata can produce, is a copy.
func (a *Arena) view(off, size int64) []byte {
	if i := off >> pageShift; uint64(i) < uint64(len(a.pages)) {
		// The hot path: a materialized page, a range inside its backing.
		if p, in := a.pages[i].Load(), off&(PageBytes-1); p != nil && size > 0 && in+size <= int64(len(p.vol)) {
			return p.vol[in : in+size]
		}
	}
	if off < 0 || size < 0 || off+size > a.capacity {
		panic(fmt.Sprintf("pmem: range [%d, +%d) outside arena of %d bytes", off, size, a.capacity))
	}
	if size == 0 {
		return nil
	}
	if p, in := a.page(off>>pageShift), off&(PageBytes-1); in+size <= int64(len(p.vol)) {
		return p.vol[in : in+size]
	}
	out := make([]byte, size)
	a.spans(off, size, true, func(p *page, in, n, pos int64) {
		copy(out[pos:pos+n], p.vol[in:in+n])
	})
	return out
}

// Resident returns the bytes of materialized pages, counting both images.
func (a *Arena) Resident() int64 { return a.resident.Load() }

// NewArenaOn creates an arena whose durable image is mirrored write-through
// onto med (a file-backed persistence backend). The in-memory durable image
// is still maintained, so Crash/Recover and the device timing model behave
// exactly as on the simulated backend; med additionally makes every sync
// persist reach real stable storage.
func NewArenaOn(dev *device.Device, capacity int64, med Medium) *Arena {
	a := NewArena(dev, capacity)
	a.med = med
	return a
}

// Device returns the backing device model.
func (a *Arena) Device() *device.Device { return a.dev }

// Medium returns the installed persistence backend, or nil on the simulated
// default.
func (a *Arena) Medium() Medium { return a.med }

// MediumErr reports the first I/O error the persistence backend returned, or
// nil. A non-nil value means some acknowledged persist may not be durable;
// the store must stop acknowledging writes.
func (a *Arena) MediumErr() error {
	if e := a.medErr.Load(); e != nil {
		return *e
	}
	return nil
}

// failMedium latches a backend I/O error (first one wins).
func (a *Arena) failMedium(err error) {
	if err == nil {
		return
	}
	a.medErr.CompareAndSwap(nil, &err)
}

// RestoreAllocator positions the bump allocator at next, used when the arena
// is reattached to existing durable state after a process restart. The free
// list starts empty — like the post-Crash rebuild, reattachment carves fresh
// space rather than trusting host allocator state that died with the process.
func (a *Arena) RestoreAllocator(next int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	unit := a.dev.Profile().AccessUnit
	if next < unit {
		next = unit
	}
	a.next = next
	a.free = make(map[int64][]int64)
}

// ReserveFloor raises the bump allocator to at least floor, so future
// allocations can never land on durable state below it. Recovery calls it for
// every region a durable manifest references: the persisted allocator mark is
// only synced at log-segment granularity and can trail table allocations made
// since. A floor at or below the current mark is a no-op.
func (a *Arena) ReserveFloor(floor int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if floor > a.next {
		a.next = floor
	}
}

// LoadDurable fills the durable image by calling load (a reattach reads the
// medium's segment files), then makes the volatile image identical — the
// state a freshly restarted process observes. load calls into(off, n) for
// each span it fills and writes the span's bytes into the returned durable
// view; the span's pages materialize as one backing, so a span covering a
// multi-page allocation reloads it contiguous. Must be called before any
// session touches the arena.
func (a *Arena) LoadDurable(load func(into func(off, n int64) ([]byte, error)) error) error {
	into := func(off, n int64) ([]byte, error) {
		if off < 0 || n <= 0 || off+n > a.capacity {
			return nil, fmt.Errorf("pmem: load span [%d, +%d) outside arena of %d bytes", off, n, a.capacity)
		}
		a.materialize(off>>pageShift, (off+n-1)>>pageShift)
		in := off & (PageBytes - 1)
		return a.pages[off>>pageShift].Load().dur[in : in+n], nil
	}
	if err := load(into); err != nil {
		return err
	}
	a.resetVolatile()
	return nil
}

// resetVolatile copies the durable image over the volatile one, page by
// materialized page.
func (a *Arena) resetVolatile() {
	for i := range a.pages {
		if p := a.pages[i].Load(); p != nil {
			n := a.pageLen(int64(i))
			copy(p.vol[:n], p.dur[:n])
		}
	}
}

// Capacity returns the arena size in bytes.
func (a *Arena) Capacity() int64 { return a.capacity }

// InUse returns the high-water allocation mark in bytes.
func (a *Arena) InUse() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// Alloc reserves size bytes aligned to the device access unit and returns the
// offset. Freed blocks of the same size class are reused. Allocation itself
// is not charged time: real pmem allocators amortize this into the writes.
//
// An allocation never straddles two pages' backings, so every allocation is
// one contiguous view: one of at most PageBytes starts on the next page when
// it would cross a page boundary, and a larger one starts on a page boundary
// and gets its pages materialized as one backing.
func (a *Arena) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("pmem: invalid alloc size %d", size)
	}
	unit := a.dev.Profile().AccessUnit
	size = (size + unit - 1) / unit * unit
	if p := a.dev.FaultPlan(); p != nil {
		if err := p.AllocError(); err != nil {
			return 0, err
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	off := int64(-1)
	for list := a.free[size]; len(list) > 0 && off < 0; {
		off, list = list[len(list)-1], list[:len(list)-1]
		a.free[size] = list
		if !a.contiguous(off, size) {
			// A block whose pages reloaded as separate backings cannot be
			// one view again; leave it to the post-crash rebuild.
			off = -1
		}
	}
	if off < 0 {
		off = a.next
		if size > PageBytes {
			// Start on a page boundary, past any page a load or a stray
			// read materialized on its own: merging would detach its views.
			off = (off + PageBytes - 1) &^ (PageBytes - 1)
			for off+size <= a.capacity && !a.contiguous(off, size) {
				off += PageBytes
			}
		} else if off>>pageShift != (off+size-1)>>pageShift {
			off = (off + PageBytes - 1) &^ (PageBytes - 1)
		}
		if off+size > a.capacity {
			return 0, fmt.Errorf("%w: need %d bytes, %d available", ErrOutOfSpace, size, a.capacity-a.next)
		}
		a.next = off + size
	}
	if size > PageBytes {
		a.materialize(off>>pageShift, (off+size-1)>>pageShift)
	}
	return off, nil
}

// Free returns an allocation of the given size to the arena's free list. The
// contents are zeroed in both images so stale data cannot leak into the next
// user of the block (the durable zeroing is not charged: real systems defer
// it into the next table write, which we charge in full).
func (a *Arena) Free(off, size int64) {
	if off == 0 || size <= 0 {
		return
	}
	unit := a.dev.Profile().AccessUnit
	size = (size + unit - 1) / unit * unit
	// After a simulated power failure the process is as good as dead: its
	// deferred durable zeroing never happens, and the durable image must stay
	// exactly as the crash left it for recovery to observe.
	live := !a.dev.PowerFailed()
	a.spans(off, size, false, func(p *page, in, n, _ int64) {
		clear(p.vol[in : in+n])
		if live {
			clear(p.dur[in : in+n])
		}
	})
	if live {
		if a.med != nil {
			// The zeroes need not be synced here: the medium guarantees they
			// are durable by the next synced WriteMeta, which is always
			// ordered before a durable mapping can make the region reachable
			// again (see Medium.ZeroDurable).
			a.failMedium(a.med.ZeroDurable(off, size))
		}
	}
	a.mu.Lock()
	a.free[size] = append(a.free[size], off)
	a.mu.Unlock()
}

// Bytes returns the volatile view of [off, off+size). Callers that model
// timed access must charge the device separately (ReadRandom/ReadSeq); this
// accessor exists so index structures can manipulate their backing memory.
func (a *Arena) Bytes(off, size int64) []byte {
	return a.view(off, size)
}

// ReadRandom charges one random device read and returns the volatile view of
// the range (identical to the durable view for persisted data).
func (a *Arena) ReadRandom(c *simclock.Clock, off, size int64) []byte {
	a.dev.ReadRandom(c, off, size)
	return a.view(off, size)
}

// ReadSeq charges a streaming read and returns the volatile view.
func (a *Arena) ReadSeq(c *simclock.Clock, off, size int64) []byte {
	a.dev.ReadSeq(c, off, size)
	return a.view(off, size)
}

// Persist flushes [off, off+size) from the volatile image to the durable
// image (clwb + sfence). Partial-unit writes incur read-modify-write
// charges in the device model.
func (a *Arena) Persist(c *simclock.Clock, off, size int64) {
	if size <= 0 {
		return
	}
	if p := a.dev.FaultPlan(); p != nil {
		keep, normal := p.NotePersist(a.dev.Profile().AccessUnit, off, size)
		if !normal {
			// The power failed on (or before) this persist: only the first
			// keep bytes — a whole-line prefix of the touched range — reach
			// media, and the device is not charged (the timeline ends here).
			if keep > 0 {
				// The torn prefix is what a reopen from the backing store
				// must observe; the dead process never syncs it.
				a.persistRange(off, keep, false)
			}
			return
		}
	}
	// Write-through with sync: the persist point is the durability point.
	a.persistRange(off, size, true)
	a.dev.WritePersist(c, off, size)
}

// persistRange copies [off, off+size) from the volatile to the durable image
// and mirrors it onto the medium, if any.
func (a *Arena) persistRange(off, size int64, sync bool) {
	a.spans(off, size, true, func(p *page, in, n, pos int64) {
		a.crashMu.RLock()
		copy(p.dur[in:in+n], p.vol[in:in+n])
		a.crashMu.RUnlock()
		if a.med != nil {
			a.failMedium(a.med.WriteDurable(off+pos, p.dur[in:in+n], sync))
		}
	})
}

// PersistMeta durably replaces the engine's host-metadata record on the
// persistence backend (a no-op on the simulated default, whose host state
// lives in the process). The write counts as a persist event against any
// installed fault plan — on the file backend it is an fsync like any other
// persist point — and a plan that fires on it tears the freshly framed record,
// which the medium's record checksum must detect on reopen. No virtual time
// is charged: metadata persists exist only on the real backend, which the
// deterministic virtual-time experiments never use.
func (a *Arena) PersistMeta(payload []byte) {
	if a.med == nil {
		return
	}
	tear := int64(-1)
	if p := a.dev.FaultPlan(); p != nil {
		keep, normal := p.NotePersist(a.dev.Profile().AccessUnit, 0, int64(len(payload)))
		if !normal {
			if keep == 0 {
				// Nothing of the record reached the store; the previous
				// record remains the newest valid one.
				return
			}
			tear = keep
		}
	}
	a.failMedium(a.med.WriteMeta(payload, tear))
}

// Store writes data into the volatile image without persisting it. It models
// a plain cached store: free in time (the cost is charged when the line is
// eventually persisted), lost on crash if never fenced.
func (a *Arena) Store(off int64, data []byte) {
	a.spans(off, int64(len(data)), true, func(p *page, in, n, pos int64) {
		copy(p.vol[in:in+n], data[pos:pos+n])
	})
}

// StorePersist writes data and immediately persists it — the common
// store+clwb+sfence (or ntstore+sfence) sequence for small in-place updates,
// the access pattern that makes Pmem-Hash slow in the paper.
func (a *Arena) StorePersist(c *simclock.Clock, off int64, data []byte) {
	a.Store(off, data)
	a.Persist(c, off, int64(len(data)))
}

// Crash simulates a power failure: the volatile image is replaced by the
// durable image, discarding every write that was not persisted. The free list
// is discarded too — it is host allocator state, and after a mid-operation
// crash it can hold blocks the durable metadata still references (a table
// released after a manifest persist that never committed); reusing those
// would overwrite live recovered data. The post-recovery allocator instead
// carves fresh space, modeling an allocator that rebuilds its metadata
// conservatively. Only materialized pages are copied: the rest read as zeros
// in both images. The caller must guarantee no concurrent access (stores stop
// their workers first).
func (a *Arena) Crash() {
	a.crashMu.Lock()
	a.resetVolatile()
	a.crashMu.Unlock()
	a.mu.Lock()
	a.free = make(map[int64][]int64)
	a.mu.Unlock()
}

// TamperDurable overwrites bytes of the durable image directly, bypassing the
// volatile image and the device model. It exists for fault-injection tests
// (fuzzing recovery with corrupted durable state) and must not be used by
// store code.
func (a *Arena) TamperDurable(off int64, data []byte) {
	if off < 0 || off+int64(len(data)) > a.capacity {
		return
	}
	a.crashMu.Lock()
	a.spans(off, int64(len(data)), true, func(p *page, in, n, pos int64) {
		copy(p.dur[in:in+n], data[pos:pos+n])
	})
	a.crashMu.Unlock()
	if a.med != nil {
		a.failMedium(a.med.WriteDurable(off, data, false))
	}
}

// Stats returns the backing device's media counters.
func (a *Arena) Stats() device.Stats { return a.dev.Stats() }
