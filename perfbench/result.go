package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"chameleondb/internal/core"
	"chameleondb/internal/device"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/obs"
)

// The metric names BENCHMARK.json declares, in its order. An untraced run
// reports endToEnd; a traced run reports perLayer.
var endToEnd = []string{"throughput_kops", "op_p50_us", "dram_mb", "setup_s", "restart_s"}

var perLayer = []string{
	"error_pct", "op_p99_us", "get_p50_us", "get_p99_us", "set_p50_us", "set_p99_us",
	"log_bytes_per_user_byte",
	"client.sched_lag_p99_us",
	"server.self_us_mean", "server.cmds_per_batch",
	"server.commit_wait_us_p50", "server.commit_wait_us_p99",
	"server.sessions_per_commit", "server.errors",
	"hotcache.hit_ratio", "hotcache.self_us_mean",
	"hotcache.invalidations_per_set", "hotcache.evictions",
	"core.get_us_p50", "core.get_us_p99", "core.put_us_per_key",
	"core.flush_us_p50", "core.flush_us_p99",
	"core.get_src_pct.memtable", "core.get_src_pct.abi", "core.get_src_pct.dumped",
	"core.get_src_pct.upper", "core.get_src_pct.last",
	"core.put_stalls", "core.put_stall_ms", "core.maint_jobs", "core.maint_busy_ms",
	"core.inline_maintenance",
	"wlog.chunk_fill_pct",
	"device.media_write_bytes_per_user_byte", "device.write_ops_per_commit",
	"trace_overhead_pct", "unattributed_us",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. The file written by save carries
// the environment next to the metrics, so -compare can tell two results
// apart.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Env       map[string]string `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`

	order []string
}

func newResult(w *workload, seed int64, seconds int, traced bool, dataDir string) *result {
	depth := strconv.Itoa(w.depth)
	load := "closed"
	if w.rate > 0 {
		depth, load = "open", "open"
	}
	return &result{
		Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metric{},
		Env: map[string]string{
			"nproc":       strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs":  strconv.Itoa(runtime.GOMAXPROCS(0)),
			"go":          runtime.Version(),
			"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
			"backend":     w.backend,
			"filesystem":  fsType(dataDir),
			"keyspace":    strconv.Itoa(numKeys),
			"key_bytes":   strconv.Itoa(keySize),
			"value_bytes": strconv.Itoa(valueSize),
			"conns":       strconv.Itoa(numConns),
			"loop":        load,
			"depth":       depth,
			"rate_ops_s":  strconv.FormatFloat(w.rate, 'f', -1, 64),
			"hotcache_b":  strconv.FormatInt(w.cacheBytes, 10),
			"seconds":     strconv.Itoa(seconds),
			"seed":        strconv.FormatInt(seed, 10),
		},
	}
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Notes = append(r.Notes, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

func (r *result) finish() { r.Correct = r.Failed == 0 && r.Attempted > 0 }

// line is the final stdout object: the declared metrics of this mode only.
func (r *result) line(traced bool) any {
	names := endToEnd
	if traced {
		names = perLayer
	}
	m := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := r.Metrics[n]
		if !ok {
			r.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", n)
		}
		m[n] = v
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}

// print writes every metric, its unit and the environment for a reader.
func (r *result) print(traced bool) {
	fmt.Printf("workload %s seed %d traced %v: correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, traced, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Printf("  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	env, _ := json.Marshal(r.Env)
	fmt.Printf("env %s\n", env)
}

func (r *result) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareResults prints two saved results side by side and warns about
// every environment field, other than the seed, that differs.
func compareResults(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare OLD.json NEW.json")
		return 2
	}
	var rs [2]result
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	old, cur := rs[0], rs[1]
	if old.Workload != cur.Workload {
		fmt.Fprintf(os.Stderr, "warning: workloads differ: %s vs %s\n", old.Workload, cur.Workload)
	}
	keys := make([]string, 0, len(old.Env))
	for k := range old.Env {
		keys = append(keys, k)
	}
	for k := range cur.Env {
		if _, ok := old.Env[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "seed" && old.Env[k] != cur.Env[k] {
			fmt.Fprintf(os.Stderr, "warning: environment differs: %s = %q vs %q\n", k, old.Env[k], cur.Env[k])
		}
	}
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, ok := old.Metrics[n]
		c := cur.Metrics[n]
		if !ok {
			fmt.Printf("%-40s %14s %14.4f %s\n", n, "-", c.Value, c.Unit)
			continue
		}
		delta := "n/a"
		if o.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (c.Value-o.Value)/o.Value*100)
		}
		fmt.Printf("%-40s %14.4f %14.4f %s %s\n", n, o.Value, c.Value, c.Unit, delta)
	}
	return 0
}

// snapSource names what a phase snapshots: the registry the server counts
// into (the store's own), the engine and the cache.
type snapSource struct {
	reg   *obs.Registry
	st    *core.Store
	cache *hotcache.Cache
}

type snap struct {
	reg            obs.Snapshot
	cache          hotcache.Stats
	tail, appended int64
	dev            device.Stats
}

func (s *snapSource) take() snap {
	return snap{
		reg:      s.reg.Snapshot(),
		cache:    s.cache.Stats(),
		tail:     s.st.Log().Tail(),
		appended: s.st.Log().BytesAppended(),
		dev:      s.st.DeviceStats(),
	}
}

func (p *phase) counter(name string) float64 {
	return float64(p.after.reg.Counters[name] - p.before.reg.Counters[name])
}

func (p *phase) histSum(name string) float64 {
	return float64(p.after.reg.Histograms[name].Sum - p.before.reg.Histograms[name].Sum)
}

func (p *phase) histCount(name string) float64 {
	return float64(p.after.reg.Histograms[name].Count - p.before.reg.Histograms[name].Count)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct returns the q-quantile (nearest rank) of sorted.
func pct[T int64 | uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// phaseOps is what a phase's clients saw.
type phaseOps struct {
	attempted, failed, sets int64
	all, get, set, lag      []uint32 // ns, sorted
	secs                    float64
}

func (p *phase) clientView() phaseOps {
	var v phaseOps
	for _, r := range p.ops {
		d := r.d
		for seq := r.from; seq < r.to; seq++ {
			v.attempted++
			if _, bad := d.bad[seq]; bad {
				v.failed++
				continue
			}
			l := d.lat.at(seq)
			v.all = append(v.all, l)
			if d.s.set[d.pos(seq)] {
				v.sets++
				v.set = append(v.set, l)
			} else {
				v.get = append(v.get, l)
			}
			if d.lag.n > seq {
				v.lag = append(v.lag, d.lag.at(seq))
			}
		}
	}
	for _, s := range [][]uint32{v.all, v.get, v.set, v.lag} {
		slices.Sort(s)
	}
	v.secs = float64(p.end-p.start) / 1e9
	return v
}

func (v phaseOps) kops() float64 { return float64(v.attempted-v.failed) / v.secs / 1e3 }

// addPhase records the untraced phase: every end-to-end metric but setup,
// DRAM and restart, and the per-layer metrics read from counters.
func (r *result) addPhase(p *phase, b *bench) {
	v := p.clientView()
	r.Attempted += v.attempted
	r.Failed += v.failed
	r.add("throughput_kops", v.kops(), "kops/s")
	r.add("get_p50_us", pct(v.get, 0.50)/1e3, "us")
	r.add("get_p99_us", pct(v.get, 0.99)/1e3, "us")
	r.add("op_p50_us", pct(v.all, 0.50)/1e3, "us")
	r.add("op_p99_us", pct(v.all, 0.99)/1e3, "us")
	r.add("error_pct", ratio(float64(v.failed), float64(v.attempted))*100, "%")
	r.add("set_p50_us", pct(v.set, 0.50)/1e3, "us")
	r.add("set_p99_us", pct(v.set, 0.99)/1e3, "us")
	r.add("get_samples", float64(len(v.get)), "count")
	r.add("set_samples", float64(len(v.set)), "count")
	user := float64(v.sets * (keySize + valueSize))
	tail := float64(p.after.tail - p.before.tail)
	r.add("log_bytes_per_user_byte", ratio(tail, user), "ratio")
	r.add("client.sched_lag_p99_us", pct(v.lag, 0.99)/1e3, "us")

	commits := p.counter("server_group_commits")
	r.add("server.cmds_per_batch", ratio(p.histSum("server_pipeline_depth"), p.histCount("server_pipeline_depth")), "count")
	r.add("server.sessions_per_commit", ratio(p.counter("server_group_commit_flushes"), commits), "count")
	r.add("server.errors", p.counter("server_store_errors")+p.counter("server_protocol_errors"), "count")

	hits := float64(p.after.cache.Hits - p.before.cache.Hits)
	misses := float64(p.after.cache.Misses - p.before.cache.Misses)
	r.add("hotcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.add("hotcache.invalidations_per_set", ratio(float64(p.after.cache.Invalidations-p.before.cache.Invalidations), float64(v.sets)), "ratio")
	r.add("hotcache.evictions", float64(p.after.cache.Evictions-p.before.cache.Evictions), "count")

	srcs := []string{"memtable", "abi", "dumped", "upper", "last"}
	var found float64
	for _, s := range srcs {
		found += p.counter("gets_" + s)
	}
	for _, s := range srcs {
		r.add("core.get_src_pct."+s, ratio(p.counter("gets_"+s), found)*100, "%")
	}
	r.add("core.put_stalls", p.counter("put_stalls"), "count")
	r.add("core.put_stall_ms", p.histSum("put_stall_ns")/1e6, "ms")
	r.add("core.maint_jobs", p.counter("maint_jobs_flush")+p.counter("maint_jobs_spill")+
		p.counter("maint_jobs_compact")+p.counter("maint_jobs_last_level"), "count")
	r.add("core.maint_busy_ms", p.histSum("job_duration_ns")/1e6, "ms")
	inline := p.after.reg.Counters["inline_maintenance"]
	r.add("core.inline_maintenance", float64(inline), "count")
	if inline != 0 {
		r.note("%d maintenance jobs ran inline on the put path; the background pool should run them all", inline)
	}

	r.add("wlog.chunk_fill_pct", ratio(float64(p.after.appended-p.before.appended), tail)*100, "%")
	r.add("device.media_write_bytes_per_user_byte", ratio(float64(p.after.dev.MediaBytesWritten-p.before.dev.MediaBytesWritten), user), "ratio")
	r.add("device.write_ops_per_commit", ratio(float64(p.after.dev.WriteOps-p.before.dev.WriteOps), commits), "count")
}
