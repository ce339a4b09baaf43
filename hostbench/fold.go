package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The fold turns the CPU profile of one run span into self time per
// layer. The rule, applied to every sample on its own:
//
//  1. Walk the sample's frames from the innermost outward up to the
//     first latsim frame (the whole stack when there is none). If one of
//     those Go runtime frames is a garbage-collection or allocation frame
//     (gcFrames), the sample goes to runtime.gc.
//  2. Otherwise, if one of them is a channel or scheduler frame
//     (schedFrames), the sample goes to sim.coroutine: today every
//     channel operation and goroutine switch inside a run is the
//     app<->kernel coroutine handoff.
//  3. Otherwise the innermost latsim frame's package names the layer
//     (layerOf). sim is split by type: Coroutine, Kernel (and its event
//     and Task helpers), Resource, Pool.
//  4. A sample with no latsim frame that rules 1 and 2 do not claim is
//     unattributed.
//
// Each layer's self time is the CPU time of its samples, as the profile
// records it. The samples are never scaled to fit the run span. Instead
// unattributed is what is left: machine.run_s minus the sum of the other
// layers. It holds the samples of rule 4, the run time the 100 Hz
// sampling missed and time off the CPU, less the CPU that other threads
// spent during the span (GC mark workers and a spinning scheduler on the
// second core are sampled too). So it can be negative, and the layers
// plus unattributed sum to machine.run_s by definition.

// foldLayers are the layers, in report order.
var foldLayers = []string{
	"sim.coroutine", "sim.kernel", "sim.resource", "sim.pool",
	"cpu", "memsys", "dirset", "mem", "msync", "stats", "apps",
	"machine", "hooks", "other", "runtime.gc", "unattributed",
}

// gcFrames are name prefixes of Go runtime frames that do garbage
// collection or heap allocation.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.gc", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.gcBgMarkWorker",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*mspan)", "runtime.bgscavenge", "runtime.(*scavengerState)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*pageAlloc)", "runtime.wbBufFlush", "runtime.(*wbBuf)",
	"runtime.bulkBarrier", "runtime.findObject", "runtime.heapSetType",
	"runtime.stopTheWorld", "runtime.startTheWorld", "runtime._GC",
}

// schedFrames are name prefixes of Go runtime frames that operate
// channels or switch goroutines.
var schedFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv",
	"runtime.selectgo", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.execute", "runtime.mcall", "runtime.gogo", "runtime.newproc",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark",
	"runtime.runq", "runtime.globrunq", "runtime.stealWork",
	"runtime.notesleep", "runtime.notewakeup", "runtime.futex",
	"runtime.lock", "runtime.unlock", "runtime.casgstatus",
	"runtime.acquirep", "runtime.releasep", "runtime.handoffp",
	"runtime.resetspinning", "runtime.checkTimers", "runtime.netpoll",
	"runtime.gosched", "runtime.usleep", "runtime.osyield", "runtime.sysmon",
}

const latsimPrefix = "latsim/"

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify applies the fold rule to one sample's frames, innermost
// first.
func classify(stack []string) string {
	n := len(stack)
	for i, f := range stack {
		if strings.HasPrefix(f, latsimPrefix) {
			n = i
			break
		}
	}
	outer := stack[:n]
	for _, f := range outer {
		if hasAnyPrefix(f, gcFrames) {
			return "runtime.gc"
		}
	}
	for _, f := range outer {
		if hasAnyPrefix(f, schedFrames) {
			return "sim.coroutine"
		}
	}
	if n == len(stack) {
		return "unattributed"
	}
	return layerOf(stack[n])
}

// layerOf maps a latsim function name to its layer.
func layerOf(fn string) string {
	pkg, rest := splitFuncName(fn)
	switch pkg {
	case "latsim/internal/sim":
		typ := strings.TrimPrefix(rest, "(*")
		switch {
		case strings.HasPrefix(typ, "Coroutine"), strings.HasPrefix(typ, "NewCoroutine"):
			return "sim.coroutine"
		case strings.HasPrefix(typ, "Resource"), strings.HasPrefix(typ, "NewResource"):
			return "sim.resource"
		case strings.HasPrefix(typ, "Pool"):
			return "sim.pool"
		}
		return "sim.kernel"
	case "latsim/internal/cpu":
		return "cpu"
	case "latsim/internal/memsys":
		return "memsys"
	case "latsim/internal/dirset":
		return "dirset"
	case "latsim/internal/mem":
		return "mem"
	case "latsim/internal/msync":
		return "msync"
	case "latsim/internal/stats":
		return "stats"
	case "latsim/internal/machine":
		return "machine"
	case "latsim/internal/obs", "latsim/internal/obs/span", "latsim/internal/check":
		return "hooks"
	}
	if strings.HasPrefix(pkg, "latsim/internal/apps/") {
		return "apps"
	}
	return "other"
}

// splitFuncName splits a profile function name into its package path
// and the rest ("latsim/internal/sim.(*Kernel).Step" ->
// "latsim/internal/sim", "(*Kernel).Step").
func splitFuncName(fn string) (pkg, rest string) {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head, ""
	}
	cut := slash + 1 + dot
	return fn[:cut], fn[cut+1:]
}

// foldProfile returns the sampled CPU seconds per layer of a gzipped CPU
// profile. Rule 4's samples are returned under unattributed; attribute
// replaces that entry with the remainder of the run span.
func foldProfile(prof []byte) (map[string]float64, error) {
	samples, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		out[classify(s.stack)] += float64(s.cpuNs) / 1e9
	}
	return out, nil
}

// attribute sets layers' unattributed entry to run seconds minus the
// sum of the other layers.
func attribute(layers map[string]float64, run float64) {
	rest := run
	for l, v := range layers {
		if l != "unattributed" {
			rest -= v
		}
	}
	layers["unattributed"] = rest
}

// sample is one decoded profile sample: its frames, innermost first, and
// the CPU nanoseconds it stands for.
type sample struct {
	stack []string
	cpuNs int64
}

// parseProfile decodes the parts of a gzipped profile.proto message the
// fold needs: samples, locations (with inlined lines, innermost first),
// functions and the string table.
func parseProfile(prof []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64 // samples/count, cpu/nanoseconds
	}
	var (
		rawSamples []rawSample
		locFuncs   = make(map[uint64][]uint64) // location id -> function ids
		funcName   = make(map[uint64]int64)    // function id -> string index
		strs       []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return eachPacked(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.values) != 2 {
			return nil, fmt.Errorf("profile: sample has %d values, want 2 (count, cpu nanoseconds)", len(rs.values))
		}
		s := sample{cpuNs: rs.values[1]}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, errors.New("profile: function name out of range")
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or its bytes (wire type 2). Fixed
// width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// eachPacked yields the values of a repeated varint field, which may be
// encoded one value per field (data nil) or packed into data.
func eachPacked(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
