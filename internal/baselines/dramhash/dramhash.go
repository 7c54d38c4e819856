// Package dramhash implements the Dram-Hash baseline (paper Section 3.2): a
// robin-hood hash index held entirely in DRAM over a value log in persistent
// memory. It has the best put and get performance in the evaluation — no
// LSM maintenance, no Pmem index writes — but the largest DRAM footprint,
// and a crash loses the whole index: restart scans the entire log (Table 4's
// 102-second recovery).
package dramhash

import (
	"bytes"
	"errors"
	"sync"

	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/pmem"
	"chameleondb/internal/robinhood"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// Config sizes the store.
type Config struct {
	// Stripes is the number of independently locked index stripes (power of
	// two).
	Stripes int
	// InitialCapacity is each stripe's starting slot count.
	InitialCapacity int
	// ArenaBytes / LogBytes size the pmem arena and value log.
	ArenaBytes int64
	LogBytes   int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Stripes: 256, InitialCapacity: 1024, ArenaBytes: 1 << 30, LogBytes: 1<<30 - 1<<24}
}

type stripe struct {
	mu sync.Mutex
	tl simclock.Timeline
	rh *robinhood.Table
}

// Store is a Dram-Hash instance.
type Store struct {
	cfg   Config
	dev   *device.Device
	arena *pmem.Arena
	log   *wlog.Log

	stripes []*stripe
	shift   uint

	ops obs.OpCounters
	reg *obs.Registry

	crashed   bool
	crashMu   sync.Mutex
	recoverNs int64
}

var _ kvstore.Store = (*Store)(nil)

// ErrCrashed is returned between Crash and Recover.
var ErrCrashed = errors.New("dramhash: store has crashed; call Recover first")

// Open creates a Dram-Hash store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a Dram-Hash store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		return nil, errors.New("dramhash: Stripes must be a power of two")
	}
	arena := pmem.NewArena(dev, cfg.ArenaBytes)
	log, err := wlog.New(arena, cfg.LogBytes)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, dev: dev, arena: arena, log: log, shift: 64 - uint(intLog2(cfg.Stripes))}
	s.reg = obs.NewRegistry("dramhash")
	s.ops.Register(s.reg)
	obs.RegisterDevice(s.reg, dev)
	obs.RegisterLog(s.reg, log)
	obs.RegisterArena(s.reg, arena)
	s.stripes = make([]*stripe, cfg.Stripes)
	for i := range s.stripes {
		s.stripes[i] = &stripe{rh: robinhood.New(cfg.InitialCapacity)}
	}
	return s, nil
}

func intLog2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "Dram-Hash" }

// Registry returns the store's metrics registry (generic op, device, and log
// counters).
func (s *Store) Registry() *obs.Registry { return s.reg }

// DeviceStats implements kvstore.Store.
func (s *Store) DeviceStats() device.Stats { return s.dev.Stats() }

// Device exposes the simulated device (the bench harness tunes its
// contention model per thread count).
func (s *Store) Device() *device.Device { return s.dev }

// DRAMFootprint implements kvstore.Store: the full index lives in DRAM.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, st := range s.stripes {
		total += st.rh.DRAMFootprint()
	}
	return total
}

func (s *Store) stripeFor(h uint64) *stripe {
	if s.shift == 64 {
		return s.stripes[0]
	}
	return s.stripes[h>>s.shift]
}

// Crash implements kvstore.Store: the DRAM index is lost entirely.
func (s *Store) Crash() {
	s.crashMu.Lock()
	s.crashed = true
	s.crashMu.Unlock()
	s.arena.Crash()
	s.dev.ResetTimelines()
	for _, st := range s.stripes {
		st.rh = robinhood.New(s.cfg.InitialCapacity)
		st.tl.Reset()
	}
}

// Recover implements kvstore.Store: the entire log is scanned to rebuild the
// index — the slow restart that motivates keeping index structure in the
// Pmem (Challenge 3).
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	err := s.log.Scan(c, s.log.Base(), func(e wlog.Entry) bool {
		c.Advance(device.CostHash64)
		st := s.stripeFor(e.Hash)
		if e.Tombstone() {
			probes, _ := st.rh.Delete(e.Hash)
			c.Advance(device.DRAMProbeCost(probes))
			return true
		}
		probes, grown := st.rh.Insert(e.Hash, uint64(e.LSN))
		c.Advance(device.DRAMProbeCost(probes) + int64(grown)*device.CostDRAMRandAccess)
		return true
	})
	if err != nil {
		return err
	}
	s.crashMu.Lock()
	s.crashed = false
	s.crashMu.Unlock()
	s.recoverNs = c.Now() - start
	return nil
}

// RecoverTime reports the virtual duration of the last Recover.
func (s *Store) RecoverTime() int64 { return s.recoverNs }

// Close implements kvstore.Store.
func (s *Store) Close() error { return nil }

func (s *Store) isCrashed() bool {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	return s.crashed
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
	return &Session{store: s, clock: c, ap: s.log.NewAppender()}
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
	c.Advance(int64(float64(wlog.EntrySize(len(key), len(value))) * device.CostDRAMSeqPerByte))
	st := se.store.stripeFor(h)
	st.mu.Lock()
	opStart := c.Now()
	lsn, err := se.ap.Append(c, h, key, value, flags)
	if err == nil {
		if flags&wlog.FlagTombstone != 0 {
			probes, _ := st.rh.Delete(h)
			c.Advance(device.DRAMProbeCost(probes))
		} else {
			probes, grown := st.rh.Insert(h, uint64(lsn))
			// A resize re-places every entry (streamed, cache-friendly):
			// the multi-second rehash spike behind Dram-Hash's worst-case
			// put latency (Table 2).
			c.Advance(device.DRAMProbeCost(probes) + int64(grown)*device.CostCompactionPerSlot)
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

// Put implements kvstore.Session.
func (se *Session) Put(key, value []byte) error { return se.write(key, value, 0) }

// Delete implements kvstore.Session.
func (se *Session) Delete(key []byte) error { return se.write(key, nil, wlog.FlagTombstone) }

// Get implements kvstore.Session: one DRAM index lookup plus one Pmem log
// read — the latency floor the other stores are measured against.
func (se *Session) Get(key []byte) ([]byte, bool, error) {
	if se.store.isCrashed() {
		return nil, false, ErrCrashed
	}
	c := se.clock
	c.Advance(device.CostHash64)
	h := xhash.Sum64(key)
	st := se.store.stripeFor(h)
	st.mu.Lock()
	opStart := c.Now()
	ref, probes, ok := st.rh.Get(h)
	c.Advance(device.DRAMProbeCost(probes))
	dur := c.Now() - opStart
	st.mu.Unlock()
	c.AdvanceTo(st.tl.Reserve(opStart, dur))
	if !ok {
		se.store.ops.CountGet(false)
		return nil, false, nil
	}
	e, err := se.store.log.Read(c, int64(ref))
	if err != nil {
		se.store.ops.CountGet(false)
		return nil, false, err
	}
	if !bytes.Equal(e.Key, key) {
		se.store.ops.CountGet(false)
		return nil, false, nil // full hash collision; see core/session.go
	}
	val := make([]byte, len(e.Value))
	copy(val, e.Value)
	se.store.ops.CountGet(true)
	return val, true, nil
}

// Flush implements kvstore.Session.
func (se *Session) Flush() error {
	if se.store.isCrashed() {
		return ErrCrashed
	}
	return se.ap.Flush(se.clock)
}
