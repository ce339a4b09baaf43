package main

import (
	"math"
	"runtime/metrics"
)

// Go runtime counters read around each traced run span.
const (
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtGCCycles     = "/gc/cycles/total:gc-cycles"
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtSchedLatency = "/sched/latencies:seconds"
)

type rtSnapshot struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
	sched                              *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{
		{Name: rtAllocBytes}, {Name: rtAllocObjects}, {Name: rtGCCycles},
		{Name: rtGCCPU}, {Name: rtSchedLatency},
	}
	metrics.Read(s)
	var r rtSnapshot
	for _, x := range s {
		switch x.Name {
		case rtAllocBytes:
			r.allocBytes = x.Value.Uint64()
		case rtAllocObjects:
			r.allocObjects = x.Value.Uint64()
		case rtGCCycles:
			r.gcCycles = x.Value.Uint64()
		case rtGCCPU:
			r.gcCPU = x.Value.Float64()
		case rtSchedLatency:
			r.sched = x.Value.Float64Histogram()
		}
	}
	return r
}

// rtDelta is the change of the runtime counters over a span.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
	schedBuckets                       []float64 // histogram boundaries
	schedCounts                        []uint64
}

func (r rtSnapshot) sub(o rtSnapshot) rtDelta {
	d := rtDelta{
		allocBytes:   r.allocBytes - o.allocBytes,
		allocObjects: r.allocObjects - o.allocObjects,
		gcCycles:     r.gcCycles - o.gcCycles,
		gcCPU:        r.gcCPU - o.gcCPU,
		schedBuckets: r.sched.Buckets,
		schedCounts:  make([]uint64, len(r.sched.Counts)),
	}
	for i, c := range r.sched.Counts {
		d.schedCounts[i] = c - o.sched.Counts[i]
	}
	return d
}

func (d *rtDelta) add(o rtDelta) {
	if o.schedCounts == nil {
		return // not read: the job failed before its run span
	}
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	if d.schedCounts == nil {
		d.schedBuckets = o.schedBuckets
		d.schedCounts = make([]uint64, len(o.schedCounts))
	}
	for i, c := range o.schedCounts {
		d.schedCounts[i] += c
	}
}

// schedQuantile returns the q-quantile of the scheduling-latency
// histogram in seconds: the upper boundary of the bucket holding it (the
// lower one for the unbounded last bucket).
func (d *rtDelta) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range d.schedCounts {
		cum += c
		if cum >= rank {
			if hi := d.schedBuckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return d.schedBuckets[i]
		}
	}
	return 0
}
