package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
	"chameleondb/internal/ycsb"
)

// storeConfig is chameleon-server's default geometry: 64 shards, a 512 MB
// arena, a 256 MB log and the default maintenance pool.
func storeConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = 64
	cfg.ArenaBytes = 512 << 20
	cfg.LogBytes = 256 << 20
	cfg.MaintenanceWorkers = core.DefaultMaintenanceWorkers(cfg.Shards)
	return cfg
}

// openStore opens a fresh store: simulated pmem, or segment files with real
// fdatasync in dir.
func openStore(w *workload, dir string) (*core.Store, error) {
	if w.backend == "sim" {
		return core.Open(storeConfig())
	}
	st, existing, err := core.OpenFile(storeConfig(), dir)
	if err == nil && existing {
		st.Close()
		err = fmt.Errorf("%s is not empty", dir)
	}
	return st, err
}

// preloadData is every key with its preload value, built once before any
// setup is timed.
type preloadData struct {
	keys, vals [][]byte
}

func newPreload() *preloadData {
	p := &preloadData{keys: make([][]byte, numKeys), vals: make([][]byte, numKeys)}
	vals := make([]byte, numKeys*valueSize)
	for i := range p.keys {
		p.keys[i] = ycsb.Key(int64(i))
		p.vals[i] = vals[i*valueSize : (i+1)*valueSize]
		encodeValue(p.vals[i], uint32(i), 0, 0)
	}
	return p
}

// preload writes every key through one core session per CPU, in PutBatch
// runs, and makes it durable.
func preload(st *core.Store, p *preloadData) error {
	const run = 1024
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for g := 0; g < numConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			se := st.NewSession(simclock.New(0))
			bw := se.(kvstore.BatchWriter)
			for i := g * run; i < numKeys && errs[g] == nil; i += numConns * run {
				j := min(i+run, numKeys)
				errs[g] = bw.PutBatch(p.keys[i:j], p.vals[i:j])
			}
			if errs[g] == nil {
				errs[g] = se.Flush()
			}
			if err := se.(interface{ Release() error }).Release(); errs[g] == nil {
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// serving is one booted server and its client connections.
type serving struct {
	srv      *server.Server
	serveErr chan error
	drivers  []*driver
}

// boot starts server.New over store with the default server.Config (and
// cache, when the store is not already wrapped), then dials numConns
// connections, one at a time so that session i serves connection i.
func boot(store kvstore.Store, cache *hotcache.Cache, streams []*stream, pos0 []int, base time.Time) (*serving, error) {
	srv := server.New(store, server.Config{Addr: "127.0.0.1:0", Cache: cache})
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	sv := &serving{srv: srv, serveErr: make(chan error, 1)}
	go func() { sv.serveErr <- srv.Serve() }()
	for c := 0; c < numConns; c++ {
		nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
		if err != nil {
			sv.close()
			return nil, err
		}
		d := newDriver(c, nc, streams, pos0[c], base)
		sv.drivers = append(sv.drivers, d)
		if err := d.ping(); err != nil {
			sv.close()
			return nil, err
		}
	}
	return sv, nil
}

// ping waits for the server to answer, which means it has accepted the
// connection and created its session.
func (d *driver) ping() error {
	w := resp.NewWriter(d.nc)
	w.CommandStrings("PING")
	if err := w.Flush(); err != nil {
		return err
	}
	line, err := d.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if string(line) != "+PONG\r\n" {
		return fmt.Errorf("PING answered %q", line)
	}
	return nil
}

// close hangs up every connection and shuts the server down, waiting for
// its goroutines.
func (sv *serving) close() error {
	for _, d := range sv.drivers {
		d.nc.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	if serr := <-sv.serveErr; err == nil {
		err = serr
	}
	return err
}

// endPositions returns where each connection's stream stopped, so a later
// phase continues with fresh ops.
func (sv *serving) endPositions() []int {
	pos := make([]int, len(sv.drivers))
	for i, d := range sv.drivers {
		pos[i] = d.pos(d.seq)
	}
	return pos
}

// restart simulates power loss and recovers, timing the wall clock from the
// dead store to one ready to serve. The file backend closes its files and
// reopens the directory cold, as a restarted process would. The close, which
// a killed process would not run, and the release of the dead store's
// memory, which a new process would not inherit, happen before the clock
// starts. The caller must hold no other reference to st.
func restart(w *workload, st *core.Store, dir string) (*core.Store, time.Duration, error) {
	st.Crash()
	if w.backend == "file" {
		st.Close()
		st = nil
	}
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	if w.backend == "file" {
		var existing bool
		var err error
		st, existing, err = core.OpenFile(storeConfig(), dir)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen: %w", err)
		}
		if !existing {
			st.Close()
			return nil, 0, fmt.Errorf("reopen of %s found no state", dir)
		}
	}
	if err := st.Recover(simclock.New(0)); err != nil {
		st.Close()
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	return st, time.Since(t0), nil
}

// removeDir deletes a file-backend data directory; the sim backend has none.
func removeDir(dir string) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}
