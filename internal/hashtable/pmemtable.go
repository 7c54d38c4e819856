package hashtable

import (
	"fmt"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
)

// PmemTable is an immutable fixed-size linear-probing hash table persisted in
// the pmem arena: an L0..Ln sub-level table or the last-level table of a
// shard. It is built once (a large, 256 B-aligned sequential write, the
// access pattern Optane rewards) and then only read. Concurrent reads are
// safe; tables are never mutated after Seal.
type PmemTable struct {
	arena *pmem.Arena
	off   int64
	b     []byte // the table's arena view: one allocation is one view
	cap   int    // slots
	count int
	mask  uint64
}

// slotsPerLine is how many 16-byte slots share one 256 B Optane access unit;
// probes within a line after the first are cache hits.
const slotsPerLine = 256 / SlotSize

// NewPmemTable allocates an empty table of the given slot capacity (power of
// two, minimum 8) in the arena.
func NewPmemTable(arena *pmem.Arena, capacity int) (*PmemTable, error) {
	c := 8
	for c < capacity {
		c <<= 1
	}
	off, err := arena.Alloc(int64(c) * SlotSize)
	if err != nil {
		return nil, err
	}
	return &PmemTable{arena: arena, off: off, b: arena.Bytes(off, int64(c)*SlotSize), cap: c, mask: uint64(c - 1)}, nil
}

// OpenPmemTable reattaches to a persisted table at a known offset (recovery
// path). count is restored from the manifest. The geometry comes from durable
// bytes that a torn manifest write could have corrupted, so every field is
// validated before it can index the arena.
func OpenPmemTable(arena *pmem.Arena, off int64, capacity, count int) (*PmemTable, error) {
	if capacity&(capacity-1) != 0 || capacity < 8 {
		return nil, fmt.Errorf("hashtable: invalid persisted capacity %d", capacity)
	}
	if count < 0 || count > capacity {
		return nil, fmt.Errorf("hashtable: persisted count %d out of range for capacity %d", count, capacity)
	}
	if off <= 0 || off+int64(capacity)*SlotSize > arena.Capacity() {
		return nil, fmt.Errorf("hashtable: persisted table [%d, +%d slots] outside arena", off, capacity)
	}
	return &PmemTable{arena: arena, off: off, b: arena.Bytes(off, int64(capacity)*SlotSize),
		cap: capacity, count: count, mask: uint64(capacity - 1)}, nil
}

// Cap returns the slot capacity.
func (t *PmemTable) Cap() int { return t.cap }

// Len returns the number of occupied slots.
func (t *PmemTable) Len() int { return t.count }

// Offset returns the table's arena offset, recorded in shard manifests.
func (t *PmemTable) Offset() int64 { return t.off }

// SizeBytes returns the persisted size.
func (t *PmemTable) SizeBytes() int64 { return int64(t.cap) * SlotSize }

// insertVolatile places a slot in the volatile image without timing charges;
// Build batches the cost into one sequential persist, as a real flush does.
func (t *PmemTable) insertVolatile(s Slot) bool {
	idx := s.Hash & t.mask
	for i := 0; i < t.cap; i++ {
		b := t.b[idx*SlotSize:]
		cur := decodeSlot(b)
		if cur.Ref == 0 {
			encodeSlot(b, s)
			t.count++
			return true
		}
		if cur.Hash == s.Hash {
			return false // caller iterates newest-first; keep the newer entry
		}
		idx = (idx + 1) & t.mask
	}
	return false
}

// BuildPmemTable constructs and persists a table from src. src must yield
// entries newest-first when it contains duplicate hashes: the first
// occurrence of a hash wins. The build charges the DRAM-side staging cost
// per slot and one sequential persist of the whole table — the 256 B-aligned
// batched write that gives ChameleonDB write amplification 1/f per table
// (Section 2.5).
func BuildPmemTable(c *simclock.Clock, arena *pmem.Arena, capacity int, src func(yield func(Slot) bool)) (*PmemTable, error) {
	t, err := NewPmemTable(arena, capacity)
	if err != nil {
		return nil, err
	}
	overflow := false
	src(func(s Slot) bool {
		c.Advance(device.CostCompactionPerSlot) // staging-buffer insert
		if s.Ref == 0 {
			return true
		}
		if t.count >= t.cap {
			overflow = true
			return false
		}
		t.insertVolatile(s)
		return true
	})
	if overflow {
		arena.Free(t.off, t.SizeBytes())
		return nil, fmt.Errorf("hashtable: build overflow (cap %d)", t.cap)
	}
	arena.Persist(c, t.off, t.SizeBytes())
	return t, nil
}

// Get probes for hash h, charging one random pmem read per 256 B line
// touched and a small CPU cost per additional slot within a line — the probe
// cost model behind the paper's Figure 2 and the last-level latencies of
// Figure 13.
func (t *PmemTable) Get(c *simclock.Clock, h uint64) (Slot, bool) {
	idx := h & t.mask
	lastLine := int64(-1)
	for i := 0; i < t.cap; i++ {
		line := int64(idx) / slotsPerLine
		if line != lastLine {
			t.arena.Device().ReadRandom(c, t.off+line*256, 256)
			lastLine = line
		} else {
			c.Advance(device.CostSlotProbe)
		}
		s := decodeSlot(t.b[idx*SlotSize:])
		if s.Ref == 0 {
			return Slot{}, false
		}
		if s.Hash == h {
			return s, true
		}
		idx = (idx + 1) & t.mask
	}
	return Slot{}, false
}

// Peek probes for hash h like Get, but charges no time and counts no device
// read: for bookkeeping lookups the cost model must not see.
func (t *PmemTable) Peek(h uint64) (Slot, bool) {
	idx := h & t.mask
	for i := 0; i < t.cap; i++ {
		s := decodeSlot(t.b[idx*SlotSize:])
		if s.Ref == 0 {
			return Slot{}, false
		}
		if s.Hash == h {
			return s, true
		}
		idx = (idx + 1) & t.mask
	}
	return Slot{}, false
}

// Iterate calls fn for every occupied slot without timing charges; callers
// performing a compaction charge one ReadSeq of the table instead (or no
// read at all when merging from the ABI, Section 2.2/Figure 8).
func (t *PmemTable) Iterate(fn func(Slot) bool) {
	for i := 0; i < t.cap; i++ {
		s := decodeSlot(t.b[i*SlotSize:])
		if s.Ref != 0 {
			if !fn(s) {
				return
			}
		}
	}
}

// ChargeScan books the sequential read of the whole table used by
// Pmem-resident compactions.
func (t *PmemTable) ChargeScan(c *simclock.Clock) {
	t.arena.Device().ReadSeq(c, t.off, t.SizeBytes())
}

// Release returns the table's space to the arena.
func (t *PmemTable) Release() {
	t.arena.Free(t.off, t.SizeBytes())
}
