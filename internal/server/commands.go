package server

import (
	"net"
	"strconv"
	"time"

	"chameleondb/internal/resp"
	"chameleondb/internal/wlog"
)

// command is one row of the command table. Everything the server knows about
// a command lives in its row: dispatch, MULTI queue-time validation, the
// server_cmd_<name> counters, INFO commandstats and the server_wire_ns_*
// histograms all read it, so adding a command is adding a row.
type command struct {
	name  string // lower case; matched ASCII-case-insensitively, names the counter and errors
	alias string // a second accepted name, counted as name
	// min and max bound len(args), the command name included; max < 0 means
	// no upper bound.
	min, max int
	pairs    bool // the args after the name come in key/value pairs
	multi    multiRule
	hist     histBucket
	// putRun marks the command whose consecutive pipelined calls collect into
	// one PutBatch, with args[1] the key and args[2] the value.
	putRun bool
	run    func(c *conn, args [][]byte)
	id     int // row index: the command's slot in Metrics.PerCmd
}

// multiRule says what an open MULTI does with a command.
type multiRule uint8

const (
	multiQueue  multiRule = iota // queued, run by EXEC
	multiRun                     // runs at once: the transaction controls themselves
	multiReject                  // refused, which poisons the transaction
)

// histBucket picks a command's wire-latency histogram: GET, SET, DEL and SCAN
// get their own tails (group commit shows up only on writes), the rest share
// one.
type histBucket uint8

const (
	histGet histBucket = iota
	histSet
	histDel
	histScan
	histOther
	numHists
)

var histNames = [numHists]string{"get", "set", "del", "scan", "other"}

// commands is the command table, in the order INFO commandstats lists it. It
// is filled by init because the INFO handler reads the table, which a
// package-level initializer would make an initialization cycle.
var commands []command

// unknownCommand is the table's last row. Lookup never matches it; it stands
// for every name the table lacks and counts as server_cmd_unknown.
var unknownCommand *command

func init() {
	commands = []command{
		{name: "get", min: 2, max: 2, hist: histGet, run: (*conn).get},
		{name: "set", min: 3, max: 3, hist: histSet, putRun: true, run: (*conn).set},
		{name: "del", min: 2, max: -1, hist: histDel, run: (*conn).del},
		{name: "exists", min: 2, max: -1, hist: histOther, run: (*conn).exists},
		{name: "ping", min: 1, max: 2, hist: histOther, run: (*conn).ping},
		{name: "info", min: 1, max: 2, hist: histOther, run: (*conn).info},
		{name: "flushall", min: 1, max: -1, multi: multiReject, hist: histOther, run: (*conn).flushAll},
		{name: "quit", min: 1, max: -1, multi: multiReject, hist: histOther, run: (*conn).quit},
		{name: "command", min: 1, max: -1, hist: histOther, run: (*conn).command},
		{name: "mget", min: 2, max: -1, hist: histOther, run: (*conn).mget},
		{name: "mset", min: 3, max: -1, pairs: true, hist: histOther, run: (*conn).mset},
		{name: "incr", min: 2, max: 2, hist: histOther, run: (*conn).incr},
		{name: "incrby", min: 3, max: 3, hist: histOther, run: (*conn).incrBy},
		{name: "scan", min: 2, max: 7, hist: histScan, run: (*conn).scan},
		{name: "multi", min: 1, max: -1, multi: multiRun, hist: histOther, run: (*conn).multi},
		{name: "exec", min: 1, max: -1, multi: multiRun, hist: histOther, run: (*conn).exec},
		{name: "discard", min: 1, max: -1, multi: multiRun, hist: histOther, run: (*conn).discard},
		{name: "replicaof", alias: "slaveof", min: 3, max: 3, hist: histOther, run: (*conn).replicaOf},
		{name: "wait", min: 3, max: 3, hist: histOther, run: (*conn).wait},
		{name: "unknown", min: 1, max: -1, hist: histOther},
	}
	for i := range commands {
		commands[i].id = i
	}
	unknownCommand = &commands[len(commands)-1]
}

// lookup finds the row for a command name, or unknownCommand.
func lookup(name []byte) *command {
	for i := range commands[:len(commands)-1] {
		cmd := &commands[i]
		if equalFold(name, cmd.name) || cmd.alias != "" && equalFold(name, cmd.alias) {
			return cmd
		}
	}
	return unknownCommand
}

// argsOK is the one argument-count rule, applied at dispatch and at MULTI
// queue time alike.
func (cmd *command) argsOK(n int) bool {
	return n >= cmd.min && (cmd.max < 0 || n <= cmd.max) && (!cmd.pairs || (n-1)%2 == 0)
}

// equalFold reports whether b equals lower under ASCII case folding; lower
// must already be lower case. No allocation: command names, SCAN options and
// INFO sections match without a strings.ToLower per command.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// The handlers below run with the argument count already checked against
// their row. args alias the reader's buffer (see the buffer-ownership
// contract, DESIGN.md §7): valid for the call, never retained.

func (c *conn) get(args [][]byte) {
	val, ok, err := c.getInto(args[1])
	switch {
	case err != nil:
		c.storeErr(err)
	case !ok:
		c.w.Null()
	default:
		c.w.Bulk(val)
	}
}

// set runs a SET queued by MULTI; pipelined SETs collect into dispatchRun.
func (c *conn) set(args [][]byte) {
	if err := c.se.Put(args[1], args[2]); err != nil {
		c.storeErr(err)
		return
	}
	c.dirty = true
	c.w.SimpleString("OK")
}

// del replies with how many keys existed. DeleteIfPresent probes and writes
// the tombstone under one shard-lock acquisition, so the count is exact even
// when another connection races the same key.
func (c *conn) del(args [][]byte) {
	var n int64
	for _, key := range args[1:] {
		existed, err := c.se.DeleteIfPresent(key)
		if err != nil {
			c.storeErr(err)
			return
		}
		if existed {
			n++
			c.dirty = true
		}
	}
	c.w.Int(n)
}

func (c *conn) exists(args [][]byte) {
	var n int64
	for _, key := range args[1:] {
		_, ok, err := c.getInto(key)
		if err != nil {
			c.storeErr(err)
			return
		}
		if ok {
			n++
		}
	}
	c.w.Int(n)
}

func (c *conn) ping(args [][]byte) {
	if len(args) == 2 {
		c.w.Bulk(args[1])
		return
	}
	c.w.SimpleString("PONG")
}

func (c *conn) info(args [][]byte) {
	var section []byte
	if len(args) > 1 {
		section = args[1]
	}
	c.w.Bulk(c.srv.infoText(section))
}

// flushAll is a store-wide durability barrier, not a wipe (the engine has no
// bulk delete): seal this session's batch, then every appender's, so
// everything acknowledged anywhere is persistent when OK comes back.
// (Documented in DESIGN.md §7.)
func (c *conn) flushAll(args [][]byte) {
	if err := c.se.Flush(); err != nil {
		c.storeErr(err)
		return
	}
	if lp, ok := c.srv.store.(interface{ Log() *wlog.Log }); ok {
		if lg := lp.Log(); lg != nil {
			lg.SyncAll(c.se.Clock())
		}
	}
	// FLUSHALL is also the operator's "known state" point: drop the volatile
	// cache so everything served afterwards is a fresh engine read
	// (over-invalidation is always safe).
	c.srv.cache.InvalidateAll()
	c.w.SimpleString("OK")
}

func (c *conn) quit(args [][]byte) {
	c.w.SimpleString("OK")
	c.closing = true
}

// command answers redis-cli's handshake with an empty array.
func (c *conn) command(args [][]byte) { c.w.ArrayHeader(0) }

// mget collects every result before emitting a single byte: a mid-batch store
// error must produce one canonical -ERR frame, never a partially written
// array stranded in the pipelined reply buffer. Values accumulate in the
// shared vbuf with spans (offsets, because append may move the buffer), so a
// warm connection allocates nothing.
func (c *conn) mget(args [][]byte) {
	buf := c.vbuf[:0]
	spans := c.mgetSpans[:0]
	for _, key := range args[1:] {
		off := len(buf)
		nb, ok, err := c.se.GetInto(key, buf)
		if err != nil {
			c.storeErr(err)
			c.vbuf, c.mgetSpans = nb[:0], spans[:0]
			return
		}
		buf = nb
		spans = append(spans, mgetSpan{off: off, n: len(buf) - off, hit: ok})
	}
	c.vbuf, c.mgetSpans = buf[:0], spans[:0]
	c.w.ArrayHeader(len(spans))
	for _, sp := range spans {
		if sp.hit {
			c.w.Bulk(buf[sp.off : sp.off+sp.n])
		} else {
			c.w.Null()
		}
	}
}

// mset applies its pairs through PutBatch (shard-affine groups). On a store
// error some subset may stay applied (documented deviation: Redis MSET is
// atomic), but the reply is still a single canonical -ERR frame and dirty
// stays set, so whatever applied is group-committed like any other write.
func (c *conn) mset(args [][]byte) {
	keys, vals := c.runKeys[:0], c.runVals[:0]
	for i := 1; i+1 < len(args); i += 2 {
		keys = append(keys, args[i])
		vals = append(vals, args[i+1])
	}
	err := c.se.PutBatch(keys, vals)
	c.runKeys, c.runVals = keys[:0], vals[:0]
	c.dirty = true
	if err != nil {
		c.storeErr(err)
		return
	}
	c.w.SimpleString("OK")
}

func (c *conn) incr(args [][]byte) { c.incrKey(args[1], 1) }

func (c *conn) incrBy(args [][]byte) {
	delta, ok := resp.ParseInt(args[2])
	if !ok {
		c.w.Error("ERR value is not an integer or out of range")
		return
	}
	c.incrKey(args[1], delta)
}

func (c *conn) incrKey(key []byte, delta int64) {
	v, err := c.se.IncrBy(key, delta)
	if err != nil {
		c.storeErr(err)
		return
	}
	c.dirty = true
	c.w.Int(v)
}

// maxScanCount caps a single SCAN batch so one command cannot buffer an
// unbounded reply.
const maxScanCount = 4096

// scan is SCAN cursor [MATCH pattern] [COUNT n] [WITHVALUES]. WITHVALUES is
// this server's extension: values interleave with keys in the reply so a
// scan does not need an MGET per batch. MATCH filters server-side, per page,
// after the engine scan — exactly Redis's contract: COUNT governs how many
// entries the engine visits, not how many survive the filter, so a page may
// come back empty while the cursor still advances.
func (c *conn) scan(args [][]byte) {
	cursor, ok := resp.ParseUint(args[1])
	if !ok {
		c.w.Error("ERR invalid cursor")
		return
	}
	count := 10
	withValues := false
	var match []byte
	for i := 2; i < len(args); i++ {
		switch {
		case equalFold(args[i], "count") && i+1 < len(args):
			n, ok := resp.ParseInt(args[i+1])
			if !ok || n < 1 {
				c.w.Error("ERR value is not an integer or out of range")
				return
			}
			count = int(min(n, maxScanCount))
			i++
		case equalFold(args[i], "match") && i+1 < len(args):
			match = args[i+1]
			i++
		case equalFold(args[i], "withvalues"):
			withValues = true
		default:
			c.w.Error("ERR syntax error")
			return
		}
	}
	pairs, next, err := c.se.Scan(cursor, count)
	if err != nil {
		c.storeErr(err)
		return
	}
	if match != nil {
		kept := pairs[:0]
		for _, kv := range pairs {
			if globMatch(match, kv.Key) {
				kept = append(kept, kv)
			}
		}
		pairs = kept
	}
	c.w.ArrayHeader(2)
	c.w.Bulk(strconv.AppendUint(c.num[:0], next, 10))
	if withValues {
		c.w.ArrayHeader(len(pairs) * 2)
	} else {
		c.w.ArrayHeader(len(pairs))
	}
	for _, kv := range pairs {
		c.w.Bulk(kv.Key)
		if withValues {
			c.w.Bulk(kv.Value)
		}
	}
}

func (c *conn) replicaOf(args [][]byte) {
	repl := c.srv.cfg.Repl
	if repl == nil {
		c.w.Error("ERR replication is not enabled on this server")
		return
	}
	var addr string
	if !equalFold(args[1], "no") || !equalFold(args[2], "one") {
		addr = net.JoinHostPort(string(args[1]), string(args[2]))
	}
	if err := repl.ReplicaOf(addr); err != nil {
		c.storeErr(err)
		return
	}
	c.w.SimpleString("OK")
}

// wait is WAIT numreplicas timeout-ms. It flushes this session first so the
// reply covers every write the connection has issued, then blocks until that
// watermark is durable on numreplicas replicas or the timeout fires. The
// reply is how many replicas had acknowledged.
func (c *conn) wait(args [][]byte) {
	num, ok := resp.ParseInt(args[1])
	if !ok || num < 0 {
		c.w.Error("ERR value is not an integer or out of range")
		return
	}
	ms, ok := resp.ParseInt(args[2])
	if !ok || ms < 0 {
		c.w.Error("ERR timeout is not an integer or out of range")
		return
	}
	repl := c.srv.cfg.Repl
	if repl == nil {
		// No replication subsystem: WAIT degrades to a durability barrier on
		// this node alone, answering 0 replicas — same as Redis with no
		// replicas attached.
		if err := c.se.Flush(); err != nil {
			c.storeErr(err)
			return
		}
		c.w.Int(0)
		return
	}
	n, err := repl.Wait(c.se, int(num), time.Duration(ms)*time.Millisecond)
	if err != nil {
		c.storeErr(err)
		return
	}
	c.w.Int(int64(n))
}

func (c *conn) multi(args [][]byte) {
	if c.inTxn {
		c.w.Error("ERR MULTI calls can not be nested")
		return
	}
	c.inTxn = true
	c.txnErr = false
	c.resetTxn()
	c.w.SimpleString("OK")
}

// exec runs the queued commands back to back on this connection's session;
// their replies land inside one array, and their writes ride the same group
// commit as any pipelined batch — every ack in the array is durable when it
// reaches the wire. Commands from other connections may interleave at the
// engine (documented deviation from Redis's single-threaded isolation). Args
// materialize from the txnBuf arena; queued commands can never grow the queue
// (the transaction controls run at once and are never queued), so iterating
// c.txn while executing is safe.
func (c *conn) exec(args [][]byte) {
	if !c.inTxn {
		c.w.Error("ERR EXEC without MULTI")
		return
	}
	aborted := c.txnErr
	c.inTxn, c.txnErr = false, false
	if aborted {
		c.resetTxn()
		c.w.Error("EXECABORT Transaction discarded because of previous errors.")
		return
	}
	c.w.ArrayHeader(len(c.txn))
	for _, q := range c.txn {
		c.txnArgs = c.txnArgs[:0]
		for _, sp := range c.txnSpans[q.start : q.start+q.n] {
			c.txnArgs = append(c.txnArgs, c.txnBuf[sp.off:sp.off+sp.n])
		}
		c.execute(q.cmd, c.txnArgs)
	}
	c.resetTxn()
}

func (c *conn) discard(args [][]byte) {
	if !c.inTxn {
		c.w.Error("ERR DISCARD without MULTI")
		return
	}
	c.inTxn, c.txnErr = false, false
	c.resetTxn()
	c.w.SimpleString("OK")
}
