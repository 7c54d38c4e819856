// Package matrixkv implements the MatrixKV baseline (Yao et al., ATC'20) as
// configured in the paper's Section 3.7: a RocksDB-style LSM whose L0 is a
// "matrix container" in persistent memory — one row per flushed MemTable,
// searched row by row with cross-row hints and no bloom filters — with
// leveled, filtered levels below (placed in the Pmem for this comparison).
// Each row carries RowTable metadata written next to the data (about 45% of
// the KV size at 64 B values), and compactions rewrite values, both of which
// inflate media writes (Figure 17(b)).
package matrixkv

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"

	"chameleondb/internal/blockcache"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/sstable"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// Config sizes the store.
type Config struct {
	// Stripes is the number of independent LSM instances.
	Stripes int
	// MemTableBytes triggers a flush into a matrix row.
	MemTableBytes int64
	// MaxRows is the matrix capacity before a column compaction into L1.
	MaxRows int
	// Ratio is the leveled size ratio below L0.
	Ratio int
	// MaxLevels bounds the level count (excluding the matrix L0).
	MaxLevels int
	// MetaBytesPerEntry models RowTable metadata per KV item.
	MetaBytesPerEntry int
	// ArenaBytes / WALBytes size the arena and the write-ahead log.
	ArenaBytes int64
	WALBytes   int64
	// CacheBytes sizes the in-DRAM data cache (the paper grants MatrixKV
	// 8 GB in Section 3.7; 0 disables it).
	CacheBytes int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Stripes:           1,
		MemTableBytes:     1 << 20,
		MaxRows:           8,
		Ratio:             10,
		MaxLevels:         4,
		MetaBytesPerEntry: 36,
		ArenaBytes:        2 << 30,
		WALBytes:          256 << 20,
	}
}

type memEntry struct {
	key   []byte
	value []byte
	tomb  bool
	seq   int64
}

type stripe struct {
	mu sync.Mutex
	tl simclock.Timeline

	mem        map[uint64]*memEntry
	memBytes   int64
	memSeq     int64
	flushedLSN int64 // WAL watermark: rows cover everything below

	rows   []*sstable.Run // matrix L0, oldest first
	levels []*sstable.Run
	cache  *blockcache.Cache
}

// Store is a MatrixKV instance.
type Store struct {
	cfg   Config
	dev   *device.Device
	arena *pmem.Arena
	wal   *wlog.Log

	stripes []*stripe

	mu      sync.Mutex
	crashed bool

	// compactions is atomic: stripes compact independently under their own
	// locks, so a plain counter would race when Stripes > 1.
	compactions atomic.Int64

	ops obs.OpCounters
	reg *obs.Registry
}

var _ kvstore.Store = (*Store)(nil)

// ErrCrashed is returned between Crash and Recover.
var ErrCrashed = errors.New("matrixkv: store has crashed; call Recover first")

// Open creates a MatrixKV store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a MatrixKV store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		return nil, errors.New("matrixkv: Stripes must be a power of two")
	}
	if cfg.MaxLevels < 1 || cfg.Ratio < 2 || cfg.MaxRows < 2 || cfg.MemTableBytes < 1024 {
		return nil, errors.New("matrixkv: invalid geometry")
	}
	arena := pmem.NewArena(dev, cfg.ArenaBytes)
	wal, err := wlog.New(arena, cfg.WALBytes)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, dev: dev, arena: arena, wal: wal}
	s.reg = obs.NewRegistry("matrixkv")
	s.ops.Register(s.reg)
	obs.RegisterDevice(s.reg, dev)
	obs.RegisterLog(s.reg, wal)
	obs.RegisterArena(s.reg, arena)
	s.reg.CounterFunc("compactions", s.compactions.Load)
	s.stripes = make([]*stripe, cfg.Stripes)
	for i := range s.stripes {
		s.stripes[i] = &stripe{
			mem:        make(map[uint64]*memEntry),
			levels:     make([]*sstable.Run, cfg.MaxLevels),
			flushedLSN: wal.Base(),
			cache:      blockcache.New(cfg.CacheBytes / int64(cfg.Stripes)),
		}
	}
	return s, nil
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "MatrixKV" }

// DeviceStats implements kvstore.Store.
func (s *Store) DeviceStats() device.Stats { return s.dev.Stats() }

// Device exposes the simulated device (the bench harness tunes its
// contention model per thread count).
func (s *Store) Device() *device.Device { return s.dev }

// Compactions reports how many compactions have run.
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// Registry returns the store's metrics registry (generic op, device, WAL,
// and compaction counters).
func (s *Store) Registry() *obs.Registry { return s.reg }

// DRAMFootprint implements kvstore.Store: the DRAM MemTables plus filters.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, st := range s.stripes {
		st.mu.Lock()
		total += st.memBytes + int64(len(st.mem))*48 + st.cache.UsedBytes()
		for _, r := range st.levels {
			if r != nil {
				total += r.DRAMFootprint()
			}
		}
		st.mu.Unlock()
	}
	return total
}

func (s *Store) stripeFor(h uint64) *stripe {
	return s.stripes[(h>>8)&uint64(len(s.stripes)-1)]
}

// Crash implements kvstore.Store: DRAM MemTables are lost; the matrix, the
// levels, and the WAL survive.
func (s *Store) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.arena.Crash()
	s.dev.ResetTimelines()
	for _, st := range s.stripes {
		st.mem = make(map[uint64]*memEntry)
		st.memBytes, st.memSeq = 0, 0
		st.tl.Reset()
		st.cache.Reset()
	}
}

// Recover implements kvstore.Store: replay the WAL tail into the MemTables.
func (s *Store) Recover(c *simclock.Clock) error {
	min := s.wal.Tail()
	for _, st := range s.stripes {
		if st.flushedLSN < min {
			min = st.flushedLSN
		}
	}
	err := s.wal.Scan(c, min, func(e wlog.Entry) bool {
		c.Advance(device.CostHash64)
		st := s.stripeFor(e.Hash)
		if e.LSN < st.flushedLSN {
			return true
		}
		st.insertMem(c, e.Hash, e.Key, e.Value, e.Tombstone())
		return true
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.crashed = false
	s.mu.Unlock()
	return nil
}

// Close implements kvstore.Store.
func (s *Store) Close() error { return nil }

func (s *Store) isCrashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

func (st *stripe) insertMem(c *simclock.Clock, h uint64, key, value []byte, tomb bool) {
	c.Advance(device.CostDRAMRandAccess)
	if old, ok := st.mem[h]; ok {
		st.memBytes -= int64(len(old.key) + len(old.value))
	}
	st.memSeq++
	st.mem[h] = &memEntry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		tomb:  tomb,
		seq:   st.memSeq,
	}
	st.memBytes += int64(len(key) + len(value))
}

// flushLocked writes the MemTable as a new matrix row (data plus RowTable
// metadata, no filter) and compacts the matrix when it is full.
func (s *Store) flushLocked(c *simclock.Clock, st *stripe) error {
	if len(st.mem) == 0 {
		return nil
	}
	entries := make([]sstable.Entry, 0, len(st.mem))
	for h, e := range st.mem {
		entries = append(entries, sstable.Entry{Hash: h, Key: e.key, Value: e.value, Tombstone: e.tomb})
	}
	row, err := sstable.Build(c, s.arena, entries, sstable.BuildOptions{
		WithFilter:        false, // no filters in the matrix L0 (Section 3.7)
		MetaBytesPerEntry: s.cfg.MetaBytesPerEntry,
		SortCost:          true,
	})
	if err != nil {
		return err
	}
	// The stripe's row/level directory plays the role of a durable manifest
	// (it survives Crash): committing a row whose build was interrupted by
	// power failure would present partially-written data as durable.
	if s.dev.PowerFailed() {
		row.Release()
		return device.ErrPowerFailed
	}
	st.rows = append(st.rows, row)
	st.mem = make(map[uint64]*memEntry)
	st.memBytes, st.memSeq = 0, 0
	st.flushedLSN = s.wal.MinNextLSN()
	if len(st.rows) >= s.cfg.MaxRows {
		return s.compactLocked(c, st)
	}
	return nil
}

// compactLocked merges the matrix rows with L1 (fine-grained column
// compactions are modeled in aggregate), then cascades leveled compactions.
func (s *Store) compactLocked(c *simclock.Clock, st *stripe) error {
	s.compactions.Add(1)
	inputs := make([]*sstable.Run, 0, len(st.rows)+1)
	for i := len(st.rows) - 1; i >= 0; i-- {
		inputs = append(inputs, st.rows[i])
	}
	if st.levels[0] != nil {
		inputs = append(inputs, st.levels[0])
	}
	merged, err := sstable.Merge(c, s.arena, inputs, sstable.BuildOptions{WithFilter: true}, s.cfg.MaxLevels == 1)
	if err != nil {
		return err
	}
	if s.dev.PowerFailed() {
		merged.Release()
		return device.ErrPowerFailed
	}
	for _, r := range inputs {
		r.Release()
	}
	st.rows = nil
	st.levels[0] = merged

	levelCap := s.cfg.MemTableBytes * int64(s.cfg.MaxRows)
	for lvl := 0; lvl < s.cfg.MaxLevels-1; lvl++ {
		levelCap *= int64(s.cfg.Ratio)
		r := st.levels[lvl]
		if r == nil || r.SizeBytes() <= levelCap {
			break
		}
		inputs := []*sstable.Run{r}
		if st.levels[lvl+1] != nil {
			inputs = append(inputs, st.levels[lvl+1])
		}
		drop := lvl+1 == s.cfg.MaxLevels-1
		merged, err := sstable.Merge(c, s.arena, inputs, sstable.BuildOptions{WithFilter: true}, drop)
		if err != nil {
			return err
		}
		if s.dev.PowerFailed() {
			merged.Release()
			return device.ErrPowerFailed
		}
		for _, in := range inputs {
			in.Release()
		}
		st.levels[lvl] = nil
		st.levels[lvl+1] = merged
		s.compactions.Add(1)
	}
	return nil
}

// Session is a per-worker handle.
type Session struct {
	store *Store
	clock *simclock.Clock
	ap    *wlog.Appender
}

var _ kvstore.Session = (*Session)(nil)

// NewSession implements kvstore.Store.
func (s *Store) NewSession(c *simclock.Clock) kvstore.Session {
	return &Session{store: s, clock: c, ap: s.wal.NewAppender()}
}

// Clock implements kvstore.Session.
func (se *Session) Clock() *simclock.Clock { return se.clock }

func (se *Session) write(key, value []byte, flags uint16) error {
	if se.store.isCrashed() {
		return ErrCrashed
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	st := se.store.stripeFor(h)
	st.mu.Lock()
	opStart := c.Now()
	_, err := se.ap.Append(c, h, key, value, flags)
	if err == nil {
		st.cache.Invalidate(h)
		st.insertMem(c, h, key, value, flags&wlog.FlagTombstone != 0)
		if st.memBytes >= se.store.cfg.MemTableBytes {
			err = se.store.flushLocked(c, st)
		}
	}
	dur := c.Now() - opStart
	st.mu.Unlock()
	c.AdvanceTo(st.tl.Reserve(opStart, dur))
	if err == nil {
		se.store.ops.CountWrite(flags&wlog.FlagTombstone != 0)
	}
	return err
}

// Put implements kvstore.Session: WAL append plus DRAM MemTable insert.
func (se *Session) Put(key, value []byte) error { return se.write(key, value, 0) }

// Delete implements kvstore.Session.
func (se *Session) Delete(key []byte) error { return se.write(key, nil, wlog.FlagTombstone) }

// Get implements kvstore.Session: DRAM MemTable, then the matrix rows one by
// one (hint + probe each, newest first), then the filtered levels.
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	v, ok, err := se.get(key)
	if err == nil {
		se.store.ops.CountGet(ok)
	}
	return v, ok, err
}

func (se *Session) get(key []byte) ([]byte, bool, error) {
	if se.store.isCrashed() {
		return nil, false, ErrCrashed
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	st := se.store.stripeFor(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	opStart := c.Now()
	defer func() {
		c.AdvanceTo(st.tl.Reserve(opStart, c.Now()-opStart))
	}()

	if v, ok := st.cache.Get(c, h); ok {
		return append([]byte(nil), v...), true, nil
	}
	c.Advance(device.CostDRAMRandAccess)
	if e, ok := st.mem[h]; ok {
		if e.tomb || !bytes.Equal(e.key, key) {
			return nil, false, nil
		}
		return append([]byte(nil), e.value...), true, nil
	}
	for i := len(st.rows) - 1; i >= 0; i-- {
		k, v, tomb, ok := st.rows[i].GetHinted(c, h)
		if !ok {
			continue
		}
		if tomb || !bytes.Equal(k, key) {
			return nil, false, nil
		}
		st.cache.Put(h, v)
		return append([]byte(nil), v...), true, nil
	}
	for _, r := range st.levels {
		if r == nil {
			continue
		}
		k, v, tomb, ok := r.Get(c, h)
		if !ok {
			continue
		}
		if tomb || !bytes.Equal(k, key) {
			return nil, false, nil
		}
		st.cache.Put(h, v)
		return append([]byte(nil), v...), true, nil
	}
	return nil, false, nil
}

// Flush implements kvstore.Session: seals the WAL batch.
func (se *Session) Flush() error {
	if se.store.isCrashed() {
		return ErrCrashed
	}
	return se.ap.Flush(se.clock)
}
