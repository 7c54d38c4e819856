package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
)

// pendingCmd tracks one decoded command until its reply reaches the socket,
// so wire latency includes execution, the group-commit wait, and the write.
type pendingCmd struct {
	cmd *command
	t0  time.Time
}

// connScratchRetain caps the per-connection scratch buffers (GET/MGET value
// buffer, MULTI queue arena) kept across batches, mirroring the RESP reader
// and writer retention caps: one burst of huge values does not pin its
// high-water mark for the connection's lifetime.
const connScratchRetain = 1 << 20

// mgetSpan records one MGET result inside the connection's shared value
// buffer. Offsets, not slices: the buffer may reallocate as later values
// append to it.
type mgetSpan struct {
	off, n int
	hit    bool
}

// argSpan is one queued argument's location in the MULTI arena.
type argSpan struct{ off, n int }

// conn is one client connection: one goroutine, one session, one RESP
// reader/writer pair. The writer buffers replies until the batch's group
// commit has completed, so an ack can never reach the wire before the write
// it acknowledges is durable.
//
// The hot path is allocation-free in steady state: decoded args are spans of
// the reader's reused buffer and flow into the engine without copies (Put
// copies into its log batch before returning), GET values land in the reused
// vbuf via GetInto, and runs of pipelined SETs dispatch through PutBatch under
// one shard-lock acquisition per shard touched. Every scratch buffer is
// cap-bounded so one oversized batch cannot pin its high-water mark.
type conn struct {
	srv  *Server
	nc   net.Conn
	r    *resp.Reader
	w    *resp.Writer
	se   kvstore.ServingSession
	done chan error // group-commit ack channel, reused across batches
	pend []pendingCmd

	// Per-batch state: dirty means the batch holds an uncommitted write,
	// closing that QUIT ends the connection after this batch's replies.
	dirty, closing bool

	// vbuf is the reused value buffer for GET/EXISTS/MGET reads (GetInto
	// appends into it); mgetSpans records MGET result spans inside it. num
	// is integer-formatting scratch (SCAN cursors).
	vbuf      []byte
	mgetSpans []mgetSpan
	num       [24]byte

	// runKeys/runVals collect a run of consecutive pipelined SETs whose args
	// are pinned in the reader's buffer (ReadCommandKeep); dispatchRun hands
	// them to PutBatch in one call. MSET borrows the same scratch.
	runKeys [][]byte
	runVals [][]byte

	// MULTI state. Queued commands are copied into the txnBuf arena — decoded
	// args alias the reader's buffer, which is released at batch end — with
	// one argSpan per argument, so queuing allocates nothing in steady state.
	// txnErr latches a queue-time error (unknown command, bad arity); EXEC
	// then aborts the whole transaction, Redis-style. txnArgs is the scratch
	// used to materialize one queued command's args at EXEC time.
	inTxn    bool
	txnErr   bool
	txn      []queuedCmd
	txnBuf   []byte
	txnSpans []argSpan
	txnArgs  [][]byte
}

// queuedCmd is one command buffered between MULTI and EXEC: its args are
// txnSpans[start:start+n] inside the connection's txnBuf arena.
type queuedCmd struct {
	cmd   *command
	start int
	n     int
}

func newConn(s *Server, nc net.Conn, se kvstore.ServingSession) *conn {
	c := &conn{
		srv:  s,
		nc:   nc,
		r:    resp.NewReaderLimits(nc, s.cfg.Limits),
		w:    resp.NewWriter(nc),
		se:   se,
		done: make(chan error, 1),
	}
	if s.cfg.ReplyRetainBytes > 0 {
		c.w.SetMaxRetain(s.cfg.ReplyRetainBytes)
	}
	return c
}

// nudge unblocks a handler parked in a read so shutdown does not wait out the
// idle timeout. The handler observes the expired deadline, sees the server
// draining, and unwinds; a handler mid-batch is untouched — execution never
// reads the socket — and finishes its batch first.
func (c *conn) nudge() { c.nc.SetReadDeadline(time.Now()) }

func (c *conn) serve() {
	defer func() {
		c.se.Release()
		c.nc.Close()
		c.srv.remove(c)
	}()
	m := c.srv.metrics
	for {
		if c.srv.isDraining() {
			return
		}
		if t := c.srv.cfg.ReadTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		// First command of a batch: block until the client sends something.
		// ReadCommand releases whatever the previous batch pinned.
		args, err := c.r.ReadCommand()
		if err != nil {
			c.fail(err)
			return
		}
		var decErr error
		c.dirty, c.closing = false, false
		c.pend = c.pend[:0]
		for {
			t0 := time.Now()
			m.CmdsInFlight.Add(1)
			cmd := lookup(args[0])
			// Shard-affine dispatch: a run of consecutive SETs is collected,
			// not executed — its args stay pinned in the reader's buffer —
			// and dispatchRun applies the whole run through PutBatch, one
			// shard-lock acquisition per destination shard instead of one per
			// SET. Replies stay in command order because the run is contiguous
			// and is dispatched before the command that ends it executes.
			if cmd.putRun && !c.inTxn && cmd.argsOK(len(args)) {
				c.runKeys = append(c.runKeys, args[1])
				c.runVals = append(c.runVals, args[2])
			} else {
				c.dispatchRun()
				c.execute(cmd, args)
			}
			c.pend = append(c.pend, pendingCmd{cmd, t0})
			if c.closing || len(c.pend) >= c.srv.cfg.MaxPipeline || c.r.Buffered() == 0 {
				break
			}
			// Pipelining: drain commands the client already sent without
			// touching the socket for replies in between. ReadCommandKeep
			// pins earlier payloads (the SET run above) while decoding the
			// next command.
			if args, decErr = c.r.ReadCommandKeep(); decErr != nil {
				break
			}
		}
		c.dispatchRun()
		c.r.Release()
		// Durability before acknowledgment: the buffered replies do not move
		// until every write in the batch has been group-committed.
		if c.dirty && !c.srv.cfg.AsyncAck {
			if err := c.srv.batch.commit(c.se, c.done); err != nil {
				// The writes are not durable; acking them would lie. Drop the
				// buffered acks, report the failure, and hang up.
				m.StoreErrors.Add(1)
				m.CmdsInFlight.Add(int64(-len(c.pend)))
				c.w.Reset()
				c.w.Error("ERR commit failed: " + err.Error())
				c.flushReplies()
				return
			}
		}
		if err := c.flushReplies(); err != nil {
			m.CmdsInFlight.Add(int64(-len(c.pend)))
			return
		}
		now := time.Now()
		for _, p := range c.pend {
			m.Wire[p.cmd.hist].Record(now.Sub(p.t0).Nanoseconds())
			m.PerCmd[p.cmd.id].Add(1)
		}
		m.CmdsProcessed.Add(int64(len(c.pend)))
		m.CmdsInFlight.Add(int64(-len(c.pend)))
		m.PipelineDepth.Record(int64(len(c.pend)))
		if decErr != nil {
			c.fail(decErr)
			return
		}
		if c.closing {
			return
		}
	}
}

// dispatchRun applies the collected run of pipelined SETs and emits their
// replies, in command order (the run is contiguous in the pipeline). A
// single SET goes through the plain Put path; longer runs dispatch through
// PutBatch, which groups keys by destination shard and applies each group
// under one shard-lock acquisition. Durability is unchanged — the entries
// land in this connection's session batch and the caller's group commit seals
// them before any +OK reaches the wire. On error every SET in the run reports
// it; a subset of the run may nevertheless have been applied (the same
// ambiguity MSET documents), so the batch stays dirty and commits the subset.
func (c *conn) dispatchRun() {
	n := len(c.runKeys)
	if n == 0 {
		return
	}
	var err error
	if n == 1 {
		err = c.se.Put(c.runKeys[0], c.runVals[0])
	} else {
		err = c.se.PutBatch(c.runKeys, c.runVals)
	}
	c.dirty = true
	if err != nil {
		c.srv.metrics.StoreErrors.Add(int64(n))
		msg := respError(err)
		for i := 0; i < n; i++ {
			c.w.Error(msg)
		}
	} else {
		for i := 0; i < n; i++ {
			c.w.SimpleString("OK")
		}
	}
	c.runKeys = c.runKeys[:0]
	c.runVals = c.runVals[:0]
}

// respError renders a store error as a RESP error string. Errors that carry
// their own Redis error code — today that is core.ErrReadOnly's "READONLY
// You can't write against a read only replica." — pass through verbatim so
// clients see the conventional -READONLY reply; everything else is wrapped
// in the generic ERR code.
func respError(err error) string {
	msg := err.Error()
	if len(msg) >= len("READONLY ") && msg[:len("READONLY ")] == "READONLY " {
		return msg
	}
	return "ERR " + msg
}

// storeErr counts a store error and replies with it.
func (c *conn) storeErr(err error) {
	c.srv.metrics.StoreErrors.Add(1)
	c.w.Error(respError(err))
}

// fail terminates the connection on a read error. Protocol violations get a
// final -ERR so a confused client can tell what happened; EOF and deadline
// expiry (idle timeout or a shutdown nudge) close silently.
func (c *conn) fail(err error) {
	if errors.Is(err, resp.ErrProtocol) {
		c.srv.metrics.ProtocolErrors.Add(1)
		c.w.Reset()
		c.w.Error("ERR Protocol error: " + err.Error())
		c.flushReplies()
	}
}

func (c *conn) flushReplies() error {
	if t := c.srv.cfg.WriteTimeout; t > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	err := c.w.Flush()
	// The shared value buffer follows the same retention policy as the RESP
	// buffers: shrink after the batch that grew it past the cap.
	if cap(c.vbuf) > connScratchRetain {
		c.vbuf = nil
	}
	return err
}

// getInto reads key into the connection's reused (and growing) value buffer.
func (c *conn) getInto(key []byte) ([]byte, bool, error) {
	val, ok, err := c.se.GetInto(key, c.vbuf[:0])
	c.vbuf = val[:0]
	return val, ok, err
}

// execute runs one decoded command through its table row, appending the
// reply to the write buffer — or, while a MULTI is open, queues it. A command
// refused before it runs (unknown name, wrong argument count, not allowed in
// a transaction) gets one -ERR; refused at queue time, it also poisons the
// transaction, so EXEC aborts Redis-style instead of burying the error inside
// the reply array.
func (c *conn) execute(cmd *command, args [][]byte) {
	queue := c.inTxn && cmd.multi != multiRun
	if msg := c.refusal(cmd, args); msg != "" {
		c.txnErr = c.txnErr || queue
		c.w.Error(msg)
		return
	}
	if queue {
		c.enqueue(cmd, args)
		return
	}
	cmd.run(c, args)
}

// refusal is the error a command gets before it runs or is queued, or "".
func (c *conn) refusal(cmd *command, args [][]byte) string {
	switch {
	case cmd == unknownCommand:
		return fmt.Sprintf("ERR unknown command '%s'", args[0])
	case c.inTxn && cmd.multi == multiReject:
		return "ERR " + cmd.name + " is not allowed in transactions"
	case !cmd.argsOK(len(args)):
		return "ERR wrong number of arguments for '" + cmd.name + "' command"
	}
	return ""
}

// resetTxn clears the MULTI queue and its arena, shrinking the arena back
// under the retention cap if one huge transaction grew it.
func (c *conn) resetTxn() {
	c.txn = c.txn[:0]
	c.txnSpans = c.txnSpans[:0]
	if cap(c.txnBuf) > connScratchRetain {
		c.txnBuf = nil
	}
	c.txnBuf = c.txnBuf[:0]
}

// enqueue buffers one command between MULTI and EXEC, copying args into the
// connection's txnBuf arena — the decoded args alias the reader's reused
// buffer, which is released at batch end. One growing arena plus span records
// replaces a fresh [][]byte per command, so a warm connection queues without
// allocating.
func (c *conn) enqueue(cmd *command, args [][]byte) {
	start := len(c.txnSpans)
	for _, a := range args {
		off := len(c.txnBuf)
		c.txnBuf = append(c.txnBuf, a...)
		c.txnSpans = append(c.txnSpans, argSpan{off: off, n: len(a)})
	}
	c.txn = append(c.txn, queuedCmd{cmd: cmd, start: start, n: len(args)})
	c.w.SimpleString("QUEUED")
}
