package server

import (
	"sync/atomic"

	"chameleondb/internal/histogram"
	"chameleondb/internal/obs"
)

// Metrics is the serving layer's observability block. It registers into the
// store's own registry when the store exposes one (obs.Provider), so wire
// metrics and engine metrics come out of the same /stats.json and /metrics
// scrape; every name carries the server_ prefix to keep the namespaces
// apart.
type Metrics struct {
	ConnsAccepted  atomic.Int64
	ConnsRejected  atomic.Int64
	ConnsClosed    atomic.Int64
	ConnsOpen      atomic.Int64
	CmdsInFlight   atomic.Int64 // decoded, reply not yet on the wire
	CmdsProcessed  atomic.Int64
	ProtocolErrors atomic.Int64
	StoreErrors    atomic.Int64 // engine errors surfaced as -ERR replies

	GroupCommits       atomic.Int64 // batcher flush rounds
	GroupCommitFlushes atomic.Int64 // sessions flushed across all rounds

	// PerCmd counts decoded commands per command-table row (command.id).
	PerCmd []atomic.Int64

	// Wire is wall-clock latency from command decode to its reply reaching
	// the socket, including any group-commit wait — what a loopback client
	// observes minus its own RTT share. Indexed by the rows' histBucket.
	Wire [numHists]histogram.Histogram
	// PipelineDepth is the observed commands-per-batch distribution, the
	// direct measure of how much pipelining clients actually achieve.
	PipelineDepth histogram.Histogram
	// CommitBatch is the sessions-per-group-commit distribution, the direct
	// measure of cross-connection flush coalescing.
	CommitBatch histogram.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{PerCmd: make([]atomic.Int64, len(commands))}
}

// Register wires every metric into r under server_-prefixed names.
func (m *Metrics) Register(r *obs.Registry) {
	r.CounterFunc("server_conns_accepted", m.ConnsAccepted.Load)
	r.CounterFunc("server_conns_rejected", m.ConnsRejected.Load)
	r.CounterFunc("server_conns_closed", m.ConnsClosed.Load)
	r.CounterFunc("server_cmds_processed", m.CmdsProcessed.Load)
	r.CounterFunc("server_protocol_errors", m.ProtocolErrors.Load)
	r.CounterFunc("server_store_errors", m.StoreErrors.Load)
	r.CounterFunc("server_group_commits", m.GroupCommits.Load)
	r.CounterFunc("server_group_commit_flushes", m.GroupCommitFlushes.Load)
	for i := range commands {
		r.CounterFunc("server_cmd_"+commands[i].name, m.PerCmd[i].Load)
	}
	r.GaugeFunc("server_conns_open", m.ConnsOpen.Load)
	r.GaugeFunc("server_cmds_inflight", m.CmdsInFlight.Load)
	for i := range m.Wire {
		r.Histogram("server_wire_ns_"+histNames[i], &m.Wire[i])
	}
	r.Histogram("server_pipeline_depth", &m.PipelineDepth)
	r.Histogram("server_commit_batch", &m.CommitBatch)
}
