// Package pmemhash implements the Pmem-Hash baseline: CCEH (Nam et al.,
// FAST'19), a persistent extendible hash table updated in place in the
// Optane Pmem, over the shared value log. Every put performs small persisted
// writes — the log entry and the 16-byte index slot — each of which the
// device amplifies to a 256 B read-modify-write. That amplification is why
// Pmem-Hash has the lowest put throughput in the paper (Figure 10) despite
// its simple structure, while its one-probe reads keep get latency
// competitive (Figure 13). Its index is persistent, so restart is fast
// (Table 4: 2 s), needing only the volatile directory rebuilt.
package pmemhash

import (
	"bytes"
	"errors"
	"sync"

	"chameleondb/internal/cceh"
	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/xhash"
)

// Config sizes the store.
type Config struct {
	// Stripes is the number of independent CCEH tables (power of two),
	// approximating CCEH's fine-grained segment locking.
	Stripes int
	// InitialDepth is each stripe's initial extendible-hashing depth.
	InitialDepth uint8
	ArenaBytes   int64
	LogBytes     int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Stripes: 64, InitialDepth: 1, ArenaBytes: 2 << 30, LogBytes: 1 << 30}
}

type stripe struct {
	mu sync.Mutex
	tl simclock.Timeline
	t  *cceh.Table
}

// Store is a Pmem-Hash (CCEH) instance.
type Store struct {
	cfg   Config
	dev   *device.Device
	arena *pmem.Arena
	log   *wlog.Log

	stripes []*stripe
	shift   uint

	ops obs.OpCounters
	reg *obs.Registry

	mu        sync.Mutex
	crashed   bool
	recoverNs int64
}

var _ kvstore.Store = (*Store)(nil)

// ErrCrashed is returned between Crash and Recover.
var ErrCrashed = errors.New("pmemhash: store has crashed; call Recover first")

// Open creates a Pmem-Hash store on a fresh device.
func Open(cfg Config) (*Store, error) {
	return OpenOn(cfg, device.New(device.OptanePmem))
}

// OpenOn creates a Pmem-Hash store on an existing device.
func OpenOn(cfg Config, dev *device.Device) (*Store, error) {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		return nil, errors.New("pmemhash: Stripes must be a power of two")
	}
	arena := pmem.NewArena(dev, cfg.ArenaBytes)
	log, err := wlog.New(arena, cfg.LogBytes)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, dev: dev, arena: arena, log: log, shift: 64 - uint(intLog2(cfg.Stripes))}
	s.reg = obs.NewRegistry("pmemhash")
	s.ops.Register(s.reg)
	obs.RegisterDevice(s.reg, dev)
	obs.RegisterLog(s.reg, log)
	obs.RegisterArena(s.reg, arena)
	s.stripes = make([]*stripe, cfg.Stripes)
	for i := range s.stripes {
		t, err := cceh.New(arena, cfg.InitialDepth)
		if err != nil {
			return nil, err
		}
		s.stripes[i] = &stripe{t: t}
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
func (s *Store) Name() string { return "Pmem-Hash" }

// Registry returns the store's metrics registry (generic op, device, and log
// counters).
func (s *Store) Registry() *obs.Registry { return s.reg }

// DeviceStats implements kvstore.Store.
func (s *Store) DeviceStats() device.Stats { return s.dev.Stats() }

// Device exposes the simulated device (the bench harness tunes its
// contention model per thread count).
func (s *Store) Device() *device.Device { return s.dev }

// DRAMFootprint implements kvstore.Store: CCEH keeps its directory and
// per-segment bookkeeping volatile; the slots themselves are in Pmem.
func (s *Store) DRAMFootprint() int64 {
	var total int64
	for _, st := range s.stripes {
		total += st.t.DRAMFootprint()
	}
	return total
}

func (s *Store) stripeFor(h uint64) *stripe {
	// Stripe selection uses middle bits: CCEH's directory consumes the top
	// bits for extendible addressing and the segment slot position uses the
	// low bits, so striping must not correlate with either.
	return s.stripes[(h>>16)&uint64(len(s.stripes)-1)]
}

// Crash implements kvstore.Store. The CCEH segments and directory copy are
// persistent; the in-DRAM directory survives reconstruction (modeled below
// in Recover as a charged scan). Index slots persisted ahead of unflushed
// log entries become dangling and read as misses — the acknowledged-but-
// unbatched window every log-structured store here shares.
func (s *Store) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.arena.Crash()
	s.dev.ResetTimelines()
	for _, st := range s.stripes {
		st.tl.Reset()
	}
}

// Recover implements kvstore.Store: reload the persisted directory and
// validate segment heads — cheap, which is why Pmem-Hash restarts fast.
func (s *Store) Recover(c *simclock.Clock) error {
	start := c.Now()
	for _, st := range s.stripes {
		// Directory copy read (sequential) plus one head probe per segment.
		s.arena.Device().ReadSeq(c, 0, int64(st.t.DirSize())*8)
		for i := 0; i < st.t.DirSize(); i++ {
			s.arena.Device().ReadRandom(c, 0, 64)
		}
	}
	s.mu.Lock()
	s.crashed = false
	s.mu.Unlock()
	s.recoverNs = c.Now() - start
	return nil
}

// RecoverTime reports the virtual duration of the last Recover.
func (s *Store) RecoverTime() int64 { return s.recoverNs }

// Close implements kvstore.Store.
func (s *Store) Close() error { return nil }

func (s *Store) isCrashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	st := se.store.stripeFor(h)
	st.mu.Lock()
	opStart := c.Now()
	// Individual persisted writes, no batching (Section 3.3's explanation
	// of Pmem-Hash's put latency).
	lsn, err := se.ap.AppendSync(c, h, key, value, flags)
	if err == nil {
		if flags&wlog.FlagTombstone != 0 {
			st.t.Delete(c, h)
		} else {
			err = st.t.Insert(c, h, uint64(lsn))
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

// Get implements kvstore.Session: directory lookup, segment probe in Pmem,
// then the log read.
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
	ref, ok := st.t.Get(c, h)
	dur := c.Now() - opStart
	st.mu.Unlock()
	c.AdvanceTo(st.tl.Reserve(opStart, dur))
	if !ok {
		se.store.ops.CountGet(false)
		return nil, false, nil
	}
	e, err := se.store.log.Read(c, int64(ref))
	if err != nil {
		// Dangling slot: the index persisted ahead of a log entry that a
		// crash erased. Treat as missing.
		se.store.ops.CountGet(false)
		return nil, false, nil
	}
	if !bytes.Equal(e.Key, key) {
		se.store.ops.CountGet(false)
		return nil, false, nil
	}
	val := make([]byte, len(e.Value))
	copy(val, e.Value)
	se.store.ops.CountGet(true)
	return val, true, nil
}

// Flush implements kvstore.Session: Pmem-Hash has no write buffer (every
// put is already persisted), so only the appender chunk seal remains.
func (se *Session) Flush() error {
	if se.store.isCrashed() {
		return ErrCrashed
	}
	return se.ap.Flush(se.clock)
}
