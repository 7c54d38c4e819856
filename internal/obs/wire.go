package obs

import (
	"sync/atomic"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/wlog"
)

// RegisterDevice registers the simulated device's media counters — the
// ipmwatch-equivalent readings behind the paper's Figures 1 and 17b — so
// media write amplification is first-class in every store's registry.
func RegisterDevice(r *Registry, dev *device.Device) {
	r.CounterFunc("device_logical_bytes_written", func() int64 { return dev.Stats().LogicalBytesWritten })
	r.CounterFunc("device_media_bytes_written", func() int64 { return dev.Stats().MediaBytesWritten })
	r.CounterFunc("device_media_bytes_read", func() int64 { return dev.Stats().MediaBytesRead })
	r.CounterFunc("device_write_ops", func() int64 { return dev.Stats().WriteOps })
	r.CounterFunc("device_read_ops", func() int64 { return dev.Stats().ReadOps })
	r.GaugeFunc("device_concurrency", func() int64 { return int64(dev.Concurrency()) })
}

// RegisterLog registers the shared storage log's totals, watermarks and
// capacity: log_live_bytes against log_capacity_bytes is how close the log is
// to refusing appends.
func RegisterLog(r *Registry, log *wlog.Log) {
	r.CounterFunc("log_entries_appended", log.Entries)
	r.CounterFunc("log_bytes_appended", log.BytesAppended)
	r.GaugeFunc("log_live_bytes", log.LiveBytes)
	r.GaugeFunc("log_capacity_bytes", log.Capacity)
	r.GaugeFunc("log_head_lsn", log.Base)
	r.GaugeFunc("log_tail_lsn", log.Tail)
	r.GaugeFunc("log_min_next_lsn", log.MinNextLSN)
}

// RegisterArena registers the pmem arena's limits: its capacity, the bump
// allocator's high-water mark (how close Alloc is to ErrOutOfSpace), and the
// heap its materialized pages hold, counting both images.
func RegisterArena(r *Registry, a *pmem.Arena) {
	r.GaugeFunc("arena_capacity_bytes", a.Capacity)
	r.GaugeFunc("arena_in_use_bytes", a.InUse)
	r.GaugeFunc("arena_resident_bytes", a.Resident)
}

// OpCounters is the generic operation counter block every store in the
// comparison set registers, so cross-store reports read the same names
// regardless of engine internals.
type OpCounters struct {
	Puts      atomic.Int64
	Deletes   atomic.Int64
	Gets      atomic.Int64
	GetHits   atomic.Int64
	GetMisses atomic.Int64
}

// Register wires the counters into r under the shared names.
func (o *OpCounters) Register(r *Registry) {
	r.CounterFunc("puts", o.Puts.Load)
	r.CounterFunc("deletes", o.Deletes.Load)
	r.CounterFunc("gets", o.Gets.Load)
	r.CounterFunc("get_hits", o.GetHits.Load)
	r.CounterFunc("get_misses", o.GetMisses.Load)
}

// CountWrite records one put or delete.
func (o *OpCounters) CountWrite(tombstone bool) {
	if tombstone {
		o.Deletes.Add(1)
	} else {
		o.Puts.Add(1)
	}
}

// CountGet records one get and its outcome.
func (o *OpCounters) CountGet(hit bool) {
	o.Gets.Add(1)
	if hit {
		o.GetHits.Add(1)
	} else {
		o.GetMisses.Add(1)
	}
}

// Provider is implemented by stores that expose a metrics registry; the
// benchmark harness and CLI discover it by type assertion so kvstore.Store
// stays minimal.
type Provider interface {
	Registry() *Registry
}
