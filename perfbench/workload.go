package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"chameleondb/internal/ycsb"
)

// Fixed benchmark geometry. Every workload preloads numKeys keys of 8 B with
// 8 B values (the paper's item size, §3.2) and drives the server over
// numConns loopback connections, one per CPU of the 2-CPU reference host.
const (
	numKeys   = 1_000_000
	keySize   = 8
	valueSize = 8
	numConns  = 2
)

// workload is one traffic mix; BENCHMARK.json lists the same names, and
// README.md why each was chosen.
type workload struct {
	name       string
	backend    string  // "sim" or "file"
	cacheBytes int64   // hotcache capacity; 0 = off
	setPct     int     // share of SETs, the rest are GETs
	zipf       bool    // YCSB scrambled zipfian (θ=0.99) keys; else uniform
	depth      int     // closed loop: commands pipelined per batch per conn
	rate       float64 // open loop: offered ops/s over all conns; 0 = closed loop
	streamLen  int     // ops generated per conn; a run that needs more starts over
	warmOps    int     // closed loop: ops per conn sent during warm-up
	warmSecs   float64 // open loop: seconds of scheduled traffic during warm-up
}

// hotcacheBytes holds about 20% of the keyspace at the cache's accounted
// 80 B per entry (8 B key + 8 B value + 64 B bookkeeping).
const hotcacheBytes = 16 << 20

var workloads = []*workload{
	{
		name: "read-zipf", backend: "sim", cacheBytes: hotcacheBytes,
		setPct: 0, zipf: true, depth: 16, streamLen: 1 << 22, warmOps: 1 << 18,
	},
	{
		name: "rw-uniform", backend: "sim", cacheBytes: hotcacheBytes,
		setPct: 50, zipf: false, depth: 16, streamLen: 1 << 21, warmOps: 1 << 14,
	},
	{
		name: "durable-file", backend: "file", cacheBytes: 0,
		setPct: 90, zipf: false, rate: 1000, streamLen: 1 << 16, warmSecs: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Values are 8 bytes that name their writer, so every GET reply can be
// checked: bytes 0-2 hold the key index, byte 3 the writer (0 for the
// preload, c+1 for connection c's stream) and bytes 4-7 the position of the
// SET in that stream.
func encodeValue(dst []byte, key uint32, writer byte, pos uint32) {
	dst[0], dst[1], dst[2] = byte(key>>16), byte(key>>8), byte(key)
	dst[3] = writer
	binary.BigEndian.PutUint32(dst[4:], pos)
}

func decodeValue(v []byte) (key uint32, writer byte, pos uint32) {
	return uint32(v[0])<<16 | uint32(v[1])<<8 | uint32(v[2]), v[3], binary.BigEndian.Uint32(v[4:])
}

// keyIndex inverts ycsb.Key: eight lowercase hex digits.
func keyIndex(k []byte) uint32 {
	var v uint32
	for _, c := range k {
		if c <= '9' {
			v = v<<4 | uint32(c-'0')
		} else {
			v = v<<4 | uint32(c-'a'+10)
		}
	}
	return v
}

// stream is one connection's pre-generated op sequence: key indexes and
// which ops are SETs. The timed loop encodes commands from it with byte
// copies only; nothing there formats, hashes or draws random numbers.
type stream struct {
	keys []uint32
	set  []bool
}

func (s *stream) len() int { return len(s.keys) }

// genStreams builds every connection's op stream from the seed.
func genStreams(w *workload, seed int64) []*stream {
	out := make([]*stream, numConns)
	for c := range out {
		n := w.streamLen
		s := &stream{keys: make([]uint32, n), set: make([]bool, n)}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		var gen *ycsb.Generator
		if w.zipf {
			gen = ycsb.NewGenerator(ycsb.C, numKeys, c, numConns, seed)
		}
		for i := 0; i < n; i++ {
			if gen != nil {
				s.keys[i] = keyIndex(gen.Next().Key)
			} else {
				s.keys[i] = uint32(rng.Int63n(numKeys))
			}
			s.set[i] = rng.Intn(100) < w.setPct
		}
		out[c] = s
	}
	return out
}

// putKey writes key index i as ycsb.Key does, without allocating.
func putKey(dst []byte, i uint32) {
	const digits = "0123456789abcdef"
	for j := keySize - 1; j >= 0; j-- {
		dst[j] = digits[i&0xf]
		i >>= 4
	}
}

// validValue reports whether v is a value some writer sent for key, or the
// preloaded one: the reply check applied to every GET.
func validValue(streams []*stream, key uint32, v []byte) bool {
	if len(v) != valueSize {
		return false
	}
	k, w, pos := decodeValue(v)
	if k != key {
		return false
	}
	if w == 0 {
		return pos == 0
	}
	if int(w) > len(streams) {
		return false
	}
	s := streams[w-1]
	return int(pos) < s.len() && s.set[pos] && s.keys[pos] == key
}
