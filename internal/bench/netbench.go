package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/histogram"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
	"chameleondb/internal/ycsb"
)

func init() {
	register("netbench", "Wire-level RESP throughput and latency over loopback (connections x pipeline depth)", runNetBench)
}

// The netbench sweep: client connections crossed with pipeline depth. Depth 1
// is the request-response client every latency-sensitive app runs; depth 16
// is what a batching proxy achieves. The spread between the two columns is
// the value of pipelining, and the spread across connection counts is how
// well one server process multiplexes sessions.
var (
	NetBenchConns  = []int{1, 8, 32}
	NetBenchDepths = []int{1, 16}
)

const netBenchSetFrac = 10 // 1-in-10 ops is a SET (YCSB-B-shaped mix)

// runNetBench drives a real chameleon server over loopback TCP with the RESP
// client and measures wire-level throughput and batch round-trip latency.
// Unlike every virtual-time experiment in this package, the columns here are
// wall-clock: syscalls, TCP, RESP framing, the group-commit wait — the full
// serving stack the paper's evaluation leaves out.
func runNetBench(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	cfg := chameleonConfig(opt.Keys, opt.ValueSize)
	// Every connection's session owns a log appender that claims a private
	// segment, and a released appender's partial segment is not refilled —
	// so the sweep needs a segment per connection it will ever create, not
	// just per concurrent connection.
	totalConns := 0
	for _, c := range NetBenchConns {
		totalConns += c * len(NetBenchDepths)
	}
	headroom := int64(totalConns+8) * wlog.DefaultSegmentSize
	cfg.LogBytes += headroom
	cfg.ArenaBytes += headroom
	// The wire phase reads only preloaded keys, so every GET miss is a
	// correctness bug, not workload noise.
	ws, err := bootServer(cfg, server.Config{}, preloadKeys(opt.Keys, opt.ValueSize))
	if err != nil {
		return nil, err
	}
	defer ws.stop()

	rep := &Report{
		ID:      "netbench",
		Title:   "RESP over loopback: throughput and batch RTT vs connections x pipeline depth",
		Columns: []string{"conns", "depth", "wall_ms", "kops", "rtt_p50_us", "rtt_p99_us", "rtt_p999_us"},
		Notes: []string{
			fmt.Sprintf("keys=%d ops/cell=%d value=%dB mix=%d%%GET/%d%%SET GOMAXPROCS=%d",
				opt.Keys, opt.Ops, opt.ValueSize, 100-100/netBenchSetFrac, 100/netBenchSetFrac, runtime.GOMAXPROCS(0)),
			"rtt is one pipelined window send->last reply, client-side wall clock;",
			"SET acks are durable (group commit), so depth-1 rtt includes the commit wait",
		},
	}
	for _, conns := range NetBenchConns {
		for _, depth := range NetBenchDepths {
			row, err := netBenchCell(ws.addr, opt, conns, depth)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	attachMetrics(rep, ws.store) // server metrics live in the store's registry
	return []*Report{rep}, nil
}

// wireServer is a serving stack booted in-process for the wire experiments:
// a core store, preloaded through one session, served over RESP on an
// ephemeral loopback port.
type wireServer struct {
	store *core.Store
	addr  string
	stop  func() // shuts the server down, then closes the store
}

// bootServer opens a core store with cfg, runs preload on one session and
// releases it, then serves the store with scfg on 127.0.0.1:0. Callers pad
// cfg's log with a segment per connection they will open (see runNetBench).
func bootServer(cfg core.Config, scfg server.Config, preload func(kvstore.Session) error) (*wireServer, error) {
	s, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	loader := s.NewSession(simclock.New(0))
	err = preload(loader)
	if rerr := releaseSession(loader); err == nil {
		err = rerr
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	scfg.Addr = "127.0.0.1:0"
	srv := server.New(s, scfg)
	if err := srv.Listen(); err != nil {
		s.Close()
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
		s.Close()
	}
	return &wireServer{store: s, addr: srv.Addr().String(), stop: stop}, nil
}

// preloadKeys writes ycsb keys [0, n) with zero-filled values of size bytes.
func preloadKeys(n int64, size int) func(kvstore.Session) error {
	return func(se kvstore.Session) error {
		val := make([]byte, size)
		for i := int64(0); i < n; i++ {
			if err := se.Put(ycsb.Key(i), val); err != nil {
				return err
			}
		}
		return nil
	}
}

// netBenchCell runs one (connections, depth) cell: opt.Ops total operations
// split across conns clients, each sending pipelined windows of depth
// commands and reading the replies back in order.
func netBenchCell(addr string, opt Options, conns, depth int) ([]string, error) {
	var (
		wg     sync.WaitGroup
		rtt    histogram.Histogram
		misses atomic.Int64
		firstE atomic.Value
	)
	per := opt.Ops / int64(conns)
	if per == 0 {
		per = 1
	}
	val := make([]byte, opt.ValueSize)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := resp.Dial(addr, 5*time.Second)
			if err != nil {
				firstE.CompareAndSwap(nil, err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Minute))
			rng := rand.New(rand.NewSource(opt.Seed + int64(w)*7919 + int64(depth)))
			isGet := make([]bool, depth)
			for done := int64(0); done < per; {
				n := depth
				if rem := per - done; int64(n) > rem {
					n = int(rem)
				}
				t0 := time.Now()
				for i := 0; i < n; i++ {
					key := ycsb.Key(rng.Int63n(opt.Keys))
					if rng.Intn(netBenchSetFrac) == 0 {
						c.Send([]byte("SET"), key, val)
						isGet[i] = false
					} else {
						c.Send([]byte("GET"), key)
						isGet[i] = true
					}
				}
				if err := c.Flush(); err != nil {
					firstE.CompareAndSwap(nil, err)
					return
				}
				for i := 0; i < n; i++ {
					rp, err := c.Receive()
					if err != nil {
						firstE.CompareAndSwap(nil, err)
						return
					}
					if rp.Type == resp.TypeError {
						firstE.CompareAndSwap(nil, fmt.Errorf("netbench: server error: %s", rp.Text()))
						return
					}
					if isGet[i] && rp.Null {
						misses.Add(1)
					}
				}
				rtt.Record(time.Since(t0).Nanoseconds())
				done += int64(n)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if e := firstE.Load(); e != nil {
		return nil, e.(error)
	}
	if m := misses.Load(); m > 0 {
		return nil, fmt.Errorf("netbench: %d GET misses on a fully loaded keyspace (conns=%d depth=%d)", m, conns, depth)
	}
	ops := per * int64(conns)
	return []string{
		fmt.Sprintf("%d", conns),
		fmt.Sprintf("%d", depth),
		fmt.Sprintf("%d", wall.Milliseconds()),
		fmt.Sprintf("%.1f", float64(ops)/float64(wall.Nanoseconds())*1e6),
		fmt.Sprintf("%.1f", float64(rtt.Percentile(50))/1e3),
		fmt.Sprintf("%.1f", float64(rtt.Percentile(99))/1e3),
		fmt.Sprintf("%.1f", float64(rtt.Percentile(99.9))/1e3),
	}, nil
}
