// Command perfbench is the repository's end-to-end benchmark: it boots the
// serving stack in-process (core store with chameleon-server's default
// geometry, server.New with the default config, a hotcache where the
// workload has one), drives it over loopback RESP from numConns client
// connections, checks every reply, and prints end-to-end metrics. With
// -trace 1 it also serves the same workload through tracing wrappers around
// the store and core sessions and prints per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: read-zipf, rw-uniform or durable-file")
		seed    = flag.Int64("seed", 1, "workload seed: keys, op mix and values derive from it")
		seconds = flag.Int("seconds", 10, "length of each measured phase")
		traced  = flag.Int("trace", 0, "1: add a traced phase and print per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", ".bench_build", "directory for data files, results and spans")
		compare = flag.Bool("compare", false, "compare two result files given as arguments, warning when their environments differ")
	)
	flag.Parse()
	if *compare {
		return compareResults(flag.Args())
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload read-zipf|rw-uniform|durable-file --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(w, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(*traced == 1)
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traced))
	if err := res.save(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	last, err := json.Marshal(res.line(*traced == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

// bench is one run's state: the final stack and every driver that ever sent
// to it, which the durability check after restart needs.
type bench struct {
	w       *workload
	seconds int
	out     string
	base    time.Time
	streams []*stream
	pre     *preloadData

	dir     string
	st      *core.Store
	cache   *hotcache.Cache
	sv      *serving
	drivers []*driver
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, and the last stack is the one measured.
const setupRepeats = 3

// restartRepeats is how many times a run crashes and recovers the store;
// restart_s is the median, and the store is verified after the last.
const restartRepeats = 7

func execute(w *workload, seed int64, seconds int, traced bool, out string) (*result, error) {
	b := &bench{w: w, seconds: seconds, out: out, base: time.Now()}
	b.streams = genStreams(w, seed)
	b.pre = newPreload()
	res := newResult(w, seed, seconds, traced, out)

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := b.setup(i); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.add("setup_s", median(setups), "s")

	un, err := b.phase(b.sv, nil)
	if err != nil {
		b.teardown()
		return nil, err
	}
	res.addPhase(un, b)
	res.add("dram_mb", float64(b.st.DRAMFootprint()+b.cache.Stats().Bytes)/(1<<20), "MB")
	pos := b.sv.endPositions()
	if err := b.sv.close(); err != nil {
		b.teardown()
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	b.sv = nil

	if traced {
		tr, err := b.tracedPhase(un, pos)
		if err != nil {
			b.teardown()
			return nil, err
		}
		res.addTrace(un, tr, b)
		path := filepath.Join(out, "spans", w.name+".csv")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = tr.tracer.writeSpans(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Println("spans written to", path)
		}
	}

	var restarts []float64
	for i := 0; i < restartRepeats; i++ {
		st := b.st
		b.st = nil
		st, took, err := restart(w, st, b.dir)
		if err != nil {
			b.teardown()
			return nil, err
		}
		b.st = st
		restarts = append(restarts, took.Seconds())
	}
	res.add("restart_s", median(restarts), "s")
	checked, lost := b.verify()
	res.Attempted += checked
	res.Failed += lost
	if err := b.teardown(); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// setup opens a fresh store, preloads it, boots the server and warms up.
func (b *bench) setup(i int) error {
	b.dir = ""
	if b.w.backend == "file" {
		b.dir = filepath.Join(b.out, "data", fmt.Sprintf("%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(b.dir); err != nil {
			return err
		}
	}
	st, err := openStore(b.w, b.dir)
	if err != nil {
		return err
	}
	b.st = st
	if err := preload(st, b.pre); err != nil {
		return err
	}
	b.cache = hotcache.New(b.w.cacheBytes)
	b.sv, err = boot(st, b.cache, b.streams, make([]int, numConns), b.base)
	if err != nil {
		return err
	}
	b.drivers = append(b.drivers[:0], b.sv.drivers...)
	return b.warm(b.sv)
}

// warm runs unmeasured traffic in the workload's own load shape, so caches
// fill and the runtime reaches its steady heap before the clock starts.
func (b *bench) warm(sv *serving) error {
	if b.w.rate > 0 {
		_, err := b.drive(sv, time.Duration(b.w.warmSecs*float64(time.Second)), 0)
		return err
	}
	_, err := b.drive(sv, 0, b.w.warmOps)
	return err
}

// teardown stops whatever the run still holds and frees its memory.
func (b *bench) teardown() error {
	var err error
	if b.sv != nil {
		err = b.sv.close()
		b.sv = nil
	}
	if b.st != nil {
		b.st.Close()
		b.st = nil
	}
	removeDir(b.dir)
	b.cache = nil
	b.drivers = nil
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

// span of ops one driver sent during a phase.
type opRange struct {
	d        *driver
	from, to int
}

// phase is one measured interval of traffic.
type phase struct {
	ops           []opRange
	start, end    int64 // ns since base
	before, after snap
}

// drive sends traffic on every connection at once, for dur (closed or open
// loop) or for ops per connection (closed loop), and returns what each
// connection sent.
func (b *bench) drive(sv *serving, dur time.Duration, ops int) (*phase, error) {
	ph := &phase{}
	errs := make([]error, len(sv.drivers))
	for _, d := range sv.drivers {
		ph.ops = append(ph.ops, opRange{d: d, from: d.seq})
	}
	ph.start = int64(time.Since(b.base))
	until := ph.start + int64(dur)
	var wg sync.WaitGroup
	for i, d := range sv.drivers {
		wg.Add(1)
		go func(i int, d *driver) {
			defer wg.Done()
			if b.w.rate > 0 {
				interval := int64(float64(time.Second) * numConns / b.w.rate)
				first := ph.start + int64(time.Millisecond) + int64(i)*interval/numConns
				errs[i] = d.openLoop(first, interval, until)
				return
			}
			errs[i] = d.closedLoop(b.w.depth, ops, until)
		}(i, d)
	}
	wg.Wait()
	ph.end = int64(time.Since(b.base))
	for i := range ph.ops {
		ph.ops[i].to = ph.ops[i].d.seq
	}
	for _, err := range errs {
		if err != nil {
			return ph, fmt.Errorf("connection: %w", err)
		}
	}
	return ph, nil
}

// phase measures one untraced or traced interval of seconds.
func (b *bench) phase(sv *serving, src *snapSource) (*phase, error) {
	if src == nil {
		src = &snapSource{reg: sv.srv.Registry(), st: b.st, cache: b.cache}
	}
	before := src.take()
	ph, err := b.drive(sv, time.Duration(b.seconds)*time.Second, 0)
	if err != nil {
		return nil, err
	}
	ph.before, ph.after = before, src.take()
	return ph, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
