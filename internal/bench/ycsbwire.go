package bench

import (
	"fmt"
	"runtime"
	"strconv"

	"chameleondb/internal/hotcache"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/ycsb"
)

func init() {
	register("ycsb", "YCSB A-F over the wire with the hot-key DRAM cache off/on/undersized", runYCSBWire)
}

// ycsbWirePhases is the measured phase order. The burst row reruns C with
// flash-crowd phases (steady traffic alternating with spikes onto the
// steady-state hot set) — the access pattern a read cache exists for.
var ycsbWirePhases = []struct {
	label string
	w     ycsb.Workload
	burst bool
}{
	{"A", ycsb.A, false},
	{"B", ycsb.B, false},
	{"C", ycsb.C, false},
	{"D", ycsb.D, false},
	{"F", ycsb.F, false},
	{"C+burst", ycsb.C, true},
}

const (
	ycsbWireDepth = 16 // pipeline window; amortizes syscalls so engine vs cache cost shows
	ycsbWireReps  = 3  // measured repetitions per cell; the best is reported
)

// ycsbCacheEntry approximates the cache's per-key DRAM cost at this value
// size (hotcache's accounted overhead plus key and value bytes).
func ycsbCacheEntry(valueSize int) int64 { return int64(64 + 8 + valueSize) }

// ycsbServer is one cache configuration's live serving stack.
type ycsbServer struct {
	name  string
	bytes int64
	cache *hotcache.Cache
	*wireServer
}

// runYCSBWire drives live chameleon servers over loopback with the YCSB wire
// driver in three cache configurations: off, sized for the zipfian head
// (~20% of the keyspace), and undersized by 32x so admission and eviction are
// under constant pressure. All three servers run side by side and every
// workload phase measures them back to back (best of ycsbWireReps runs), so
// machine-speed drift over the experiment's lifetime cannot masquerade as a
// configuration effect. The paper's evaluation stops at the engine; this
// experiment measures what a serving tier in front of it buys.
func runYCSBWire(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	workers := opt.Threads
	if workers > 8 {
		workers = 8
	}
	if workers < 1 {
		workers = 1
	}
	onBytes := (opt.Keys / 5) * ycsbCacheEntry(opt.ValueSize)
	tinyBytes := onBytes / 32
	if tinyBytes < 8<<10 {
		tinyBytes = 8 << 10
	}
	rep := &Report{
		ID:    "ycsb",
		Title: "YCSB over loopback RESP: hot-key DRAM cache off vs sized vs undersized",
		Columns: []string{"cache", "workload", "conns", "wall_ms", "kops",
			"rd_p50_us", "rd_p99_us", "rd_p999_us", "wr_p99_us", "hit_pct"},
		Notes: []string{
			fmt.Sprintf("keys=%d ops/phase=%d value=%dB conns=%d depth=%d reps=%d GOMAXPROCS=%d",
				opt.Keys, opt.Ops, opt.ValueSize, workers, ycsbWireDepth, ycsbWireReps, runtime.GOMAXPROCS(0)),
			fmt.Sprintf("cache on=%dKiB tiny=%dKiB; latency is send->reply inside a depth-%d window",
				onBytes>>10, tinyBytes>>10, ycsbWireDepth),
			"C+burst alternates full-keyspace traffic with spikes onto the hottest 1% of ranks",
		},
	}

	var servers []*ycsbServer
	defer func() {
		for _, sv := range servers {
			sv.stop()
		}
	}()
	for _, cc := range []struct {
		name  string
		bytes int64
	}{{"off", 0}, {"on", onBytes}, {"tiny", tinyBytes}} {
		sv, err := startYCSBServer(opt, workers, cc.name, cc.bytes)
		if err != nil {
			return nil, fmt.Errorf("ycsb %s: %w", cc.name, err)
		}
		servers = append(servers, sv)
	}

	for _, ph := range ycsbWirePhases {
		rows, err := ycsbWirePhase(opt, workers, servers, ph.w, ph.label, ph.burst)
		if err != nil {
			return nil, fmt.Errorf("ycsb phase %s: %w", ph.label, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	for _, sv := range servers {
		attachMetrics(rep, sv.store)
	}
	return []*Report{rep}, nil
}

// startYCSBServer boots one cache configuration: store, in-process preload,
// and a RESP server wrapping the store with the given cache capacity.
func startYCSBServer(opt Options, workers int, name string, cacheBytes int64) (*ycsbServer, error) {
	cfg := chameleonConfig(opt.Keys, opt.ValueSize)
	// Every wire connection's session claims a private log segment (and a
	// released appender's partial segment is not refilled), so budget a
	// segment per connection this server will ever see — a warmup and
	// ycsbWireReps measured runs per phase — plus the measured phases' own
	// write volume (A and F are half writes), which lands on top of the
	// preload chameleonConfig sized for.
	headroom := int64((1+ycsbWireReps)*len(ycsbWirePhases)*workers+8)*wlog.DefaultSegmentSize +
		(1+ycsbWireReps)*opt.Ops*int64(40+opt.ValueSize)
	cfg.LogBytes += headroom
	cfg.ArenaBytes += headroom
	cache := hotcache.New(cacheBytes)
	ws, err := bootServer(cfg, server.Config{Cache: cache}, preloadKeys(opt.Keys, opt.ValueSize))
	if err != nil {
		return nil, err
	}
	return &ycsbServer{name: name, bytes: cacheBytes, cache: cache, wireServer: ws}, nil
}

// ycsbWirePhase measures one workload phase across ALL configurations with
// rep-level interleaving: after every server is quiesced and warmed, the
// measured runs round-robin off→on→tiny, ycsbWireReps times, and each server
// reports its best rep. A noisy machine drifts in multi-second epochs; cells
// measured back to back land in the same epoch, so an epoch cannot hand one
// configuration an advantage a neighboring configuration didn't get.
func ycsbWirePhase(opt Options, workers int, servers []*ycsbServer, w ycsb.Workload, label string, burst bool) ([][]string, error) {
	wcfg := ycsb.WireConfig{
		Workload:  w,
		Keys:      opt.Keys,
		Ops:       opt.Ops,
		Workers:   workers,
		Depth:     ycsbWireDepth,
		ValueSize: opt.ValueSize,
		Seed:      opt.Seed,
	}
	if burst {
		wcfg.BurstOps = 1000
		wcfg.SteadyOps = 4000
		wcfg.BurstFrac = 0.01
	}
	for _, sv := range servers {
		// Quiesce: flush memtables and settle log compaction so the previous
		// phase's maintenance debt is paid before this one starts, not
		// randomly during it.
		if err := sv.store.FlushAll(simclock.New(0)); err != nil {
			return nil, err
		}
		if _, err := sv.store.CompactLog(simclock.New(0), 1<<30); err != nil {
			return nil, err
		}
		// A full-length unmeasured warmup at a different seed: TinyLFU
		// admission is deliberately slow to fill (doorkeeper first, admission
		// on re-encounter), so the cache needs a couple of passes over the
		// traffic before its hit ratio — and the throughput it buys — reaches
		// steady state. The cache-off server gets the same warmup so its DRAM
		// structures are equally warm.
		warm := wcfg
		warm.Addr = sv.addr
		warm.Seed = opt.Seed + 7919
		if _, err := ycsb.RunWire(warm); err != nil {
			return nil, fmt.Errorf("%s warmup: %w", sv.name, err)
		}
	}
	best := make([]*ycsb.WireResult, len(servers))
	before := make([]cacheCounters, len(servers))
	for i, sv := range servers {
		before[i] = statsOf(sv)
	}
	for r := 0; r < ycsbWireReps; r++ {
		for i, sv := range servers {
			run := wcfg
			run.Addr = sv.addr
			res, err := ycsb.RunWire(run)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sv.name, err)
			}
			if best[i] == nil || res.Kops() > best[i].Kops() {
				best[i] = res
			}
		}
	}
	rows := make([][]string, 0, len(servers))
	for i, sv := range servers {
		// Hit ratio over ALL reps, not just the best one: the op sequence is
		// seeded, so the combined ratio is stable run to run, which is what
		// lets the CI gate compare it; which rep wins on throughput is not.
		after := statsOf(sv)
		hit := "-"
		if sv.bytes > 0 {
			if lookups := (after.hits - before[i].hits) + (after.misses - before[i].misses); lookups > 0 {
				hit = fmt.Sprintf("%.1f", 100*float64(after.hits-before[i].hits)/float64(lookups))
			}
		}
		b := best[i]
		rows = append(rows, []string{
			sv.name,
			label,
			strconv.Itoa(workers),
			fmt.Sprintf("%d", b.Wall.Milliseconds()),
			fmt.Sprintf("%.1f", b.Kops()),
			fmt.Sprintf("%.1f", b.Reads.P50us),
			fmt.Sprintf("%.1f", b.Reads.P99us),
			fmt.Sprintf("%.1f", b.Reads.P999us),
			fmt.Sprintf("%.1f", b.Writes.P99us),
			hit,
		})
	}
	return rows, nil
}

// cacheCounters is the slice of cache counters the phase loop deltas.
type cacheCounters struct{ hits, misses int64 }

func statsOf(sv *ycsbServer) cacheCounters {
	st := sv.cache.Stats()
	return cacheCounters{hits: st.Hits, misses: st.Misses}
}

// YCSBCacheGain extracts the ycsb headline the CI gate compares: the sized
// cache's hit ratio (as a fraction) on the read-only zipfian workload C.
// The kops and p99 columns record the throughput gain for inspection, but
// they swing with machine noise; the hit ratio is deterministic for fixed
// flags (the workload, scramble, and admission policy are all seeded), so a
// drop means a real regression — admission stopped keeping the hot head
// resident, the interposition lost lookups, or invalidation grew spurious.
func YCSBCacheGain(r *Report) (int, float64, error) {
	for _, row := range r.Rows {
		if len(row) < 10 || row[0] != "on" || row[1] != "C" {
			continue
		}
		conns, err1 := strconv.Atoi(row[2])
		hitPct, err2 := strconv.ParseFloat(row[9], 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("ycsb row %v: malformed", row)
		}
		return conns, hitPct / 100, nil
	}
	return 0, 0, fmt.Errorf("ycsb report lacks a cache-on workload-C row")
}
