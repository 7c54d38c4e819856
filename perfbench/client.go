package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"chameleondb/internal/resp"
)

// chunked is an append-only array grown in fixed chunks, so recording one
// sample never copies the samples before it; reserve pre-sizes it so the
// timed loop does not allocate at all.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

const chunkBits = 16

func (c *chunked[T]) add(v T) {
	i := c.n & (1<<chunkBits - 1)
	if i == 0 && c.n>>chunkBits == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, 1<<chunkBits))
	}
	c.chunks[c.n>>chunkBits][i] = v
	c.n++
}

func (c *chunked[T]) at(i int) T { return c.chunks[i>>chunkBits][i&(1<<chunkBits-1)] }

func (c *chunked[T]) reserve(n int) {
	for len(c.chunks)<<chunkBits < n {
		c.chunks = append(c.chunks, make([]T, 1<<chunkBits))
	}
}

var errBadReply = errors.New("malformed reply")

// driver is one client connection. It sends its stream's ops in order and
// records, per op sequence number (ops sent on this connection so far),
// the reply time and latency. The server runs a connection's commands in
// order on one session, so that sequence number is also the session's.
type driver struct {
	conn    int
	nc      net.Conn
	br      *bufio.Reader
	s       *stream
	streams []*stream
	pos0    int // stream position of sequence number 0
	base    time.Time
	w       *resp.Writer
	key     [keySize]byte
	val     [valueSize]byte

	seq  int              // ops sent
	lat  chunked[uint32]  // ns, from send (closed loop) or due time (open loop)
	done chunked[int64]   // reply time, ns since base
	lag  chunked[uint32]  // open loop: ns the send ran behind its due time
	bad  map[int]struct{} // sequence numbers of failed ops
}

func newDriver(conn int, nc net.Conn, streams []*stream, pos0 int, base time.Time) *driver {
	return &driver{
		conn: conn, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), w: resp.NewWriter(nc),
		s: streams[conn], streams: streams, pos0: pos0, base: base,
		bad: make(map[int]struct{}),
	}
}

func (d *driver) now() int64 { return int64(time.Since(d.base)) }

// pos maps a sequence number to its stream position.
func (d *driver) pos(seq int) int { return (d.pos0 + seq) % d.s.len() }

var cmdGet, cmdSet = []byte("GET"), []byte("SET")

// encode buffers op seq as a RESP command. A SET's value names this
// connection's stream and the op's position in it.
func (d *driver) encode(seq int) {
	p := d.pos(seq)
	k := d.s.keys[p]
	putKey(d.key[:], k)
	if d.s.set[p] {
		encodeValue(d.val[:], k, byte(d.conn+1), uint32(p))
		d.w.Command(cmdSet, d.key[:], d.val[:])
	} else {
		d.w.Command(cmdGet, d.key[:])
	}
}

// reserve pre-sizes the per-op records for n more ops.
func (d *driver) reserve(n int) {
	d.lat.reserve(d.seq + n)
	d.done.reserve(d.seq + n)
}

func (d *driver) record(seq int, done int64, lat int64, ok bool) {
	if lat > 1<<32-1 {
		lat = 1<<32 - 1
	}
	d.lat.add(uint32(lat))
	d.done.add(done)
	if !ok {
		d.fail(seq)
	}
}

func (d *driver) fail(seq int) {
	d.bad[seq] = struct{}{}
	if len(d.bad) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: conn %d op %d (key %08x set=%v) failed\n",
			d.conn, seq, d.s.keys[d.pos(seq)], d.s.set[d.pos(seq)])
	}
}

// readReply reads one reply and checks it against op seq: a SET must get
// +OK, a GET the preloaded value or one some writer sent for that key. Only
// a broken connection returns an error; a wrong reply returns false.
func (d *driver) readReply(seq int) (bool, error) {
	line, err := d.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return false, errBadReply
	}
	p := d.pos(seq)
	switch line[0] {
	case '+':
		return d.s.set[p] && string(line) == "+OK\r\n", nil
	case '-':
		if len(d.bad) < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: conn %d op %d: %s", d.conn, seq, line)
		}
		return false, nil
	case '$':
		n := 0
		for _, c := range line[1 : len(line)-2] {
			if c < '0' || c > '9' {
				return false, nil // $-1: every key is preloaded, so null is wrong
			}
			n = n*10 + int(c-'0')
		}
		b, err := d.br.Peek(n + 2)
		if err != nil {
			return false, err
		}
		ok := !d.s.set[p] && validValue(d.streams, d.s.keys[p], b[:n])
		_, err = d.br.Discard(n + 2)
		return ok, err
	default:
		return false, errBadReply
	}
}

// batch sends depth pipelined ops in one write and reads their replies: one
// step of the closed loop.
func (d *driver) batch(depth int) error {
	start := d.seq
	for j := 0; j < depth; j++ {
		d.encode(start + j)
	}
	t0 := d.now()
	if err := d.w.Flush(); err != nil {
		return err
	}
	d.seq += depth
	for j := 0; j < depth; j++ {
		ok, err := d.readReply(start + j)
		if err != nil {
			return err
		}
		t := d.now()
		d.record(start+j, t, t-t0, ok)
	}
	return nil
}

// closedLoop runs batches until ops have been sent (ops > 0) or the clock
// passes until (ns since base), whichever the caller asked for. A broken
// connection fails every op it left unanswered.
func (d *driver) closedLoop(depth, ops int, until int64) error {
	stop := d.seq + ops
	for (ops > 0 && d.seq < stop) || (ops == 0 && d.now() < until) {
		if err := d.batch(depth); err != nil {
			d.abandon()
			return err
		}
	}
	return nil
}

// abandon records every op sent but not answered as failed.
func (d *driver) abandon() {
	for d.lat.n < d.seq {
		d.record(d.lat.n, d.now(), 0, false)
	}
}

// openLoop sends one op every interval ns, starting at first (ns since
// base) and stopping before until, whatever the replies are doing; each
// op's latency runs from when it was due, so a stall is charged to every op
// scheduled behind it.
func (d *driver) openLoop(first, interval, until int64) error {
	n := int((until - first + interval - 1) / interval)
	if n < 0 {
		n = 0
	}
	d.reserve(n)
	d.lag.reserve(d.seq + n)
	// dues carries each sent op's due time to the reader; it holds a whole
	// phase so the sender never waits on the reader and stays on schedule.
	dues := make(chan int64, n+1)
	var wg sync.WaitGroup
	var sendErr, recvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(dues)
		for i := 0; i < n; i++ {
			due := first + int64(i)*interval
			d.encode(d.seq)
			sleepUntil(d.base, due)
			sent := d.now()
			if err := d.w.Flush(); err != nil {
				sendErr = err
				return
			}
			d.lag.add(uint32(min(sent-due, 1<<32-1)))
			d.seq++
			dues <- due
		}
	}()
	seq := d.lat.n
	for due := range dues {
		if recvErr != nil {
			d.record(seq, d.now(), 0, false)
			seq++
			continue
		}
		ok, err := d.readReply(seq)
		if err != nil {
			recvErr = err
			d.nc.Close() // unblocks the sender's next write
			d.record(seq, d.now(), 0, false)
			seq++
			continue
		}
		t := d.now()
		d.record(seq, t, t-due, ok)
		seq++
	}
	wg.Wait()
	if recvErr != nil {
		return recvErr
	}
	return sendErr
}
