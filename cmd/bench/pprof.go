package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// CPU-share attribution without a dependency: the harness takes a
// runtime/pprof CPU profile around the traced rep and reads it back with
// the small gzip + protobuf reader below (go.mod stays dependency-free, and
// no `go tool pprof` subprocess is needed).
//
// Each sample is charged to one layer bucket: the package of the innermost
// frame that belongs to this repository, so runtime and standard-library
// helpers (memmove, map access, malloc) count toward the layer that called
// them. Samples whose stack runs under the garbage collector go to
// runtime_gc, and stacks with no repository frame to other. The buckets
// sum to 1.

// profileHz is the sampling rate: a 1–3 s traced rep yields 500–1500
// samples, enough to resolve a layer's share to about a percentage point.
const profileHz = 500

// layerOf maps a repository package to its layer bucket. Packages that only
// exist to serve one layer are charged to it.
var layerOf = map[string]string{
	"simclock": "simclock", "vclock": "simclock",
	"netsim":    "netsim",
	"transport": "transport",
	"server":    "server", "media": "server", "ratecontrol": "server",
	"player": "player",
	"rdt":    "rdt_rtsp", "rtsp": "rdt_rtsp", "packet": "rdt_rtsp",
	"figures": "figures_stats", "stats": "figures_stats", "trace": "figures_stats",
	"study": "study", "tracer": "study", "workload": "study", "session": "study",
	"campaign": "study", "core": "study", "snap": "study", "geo": "study", "detrand": "study",
}

// cpuBuckets are the *.cpu_share metrics, in catalog order.
var cpuBuckets = []string{"study", "simclock", "netsim", "transport", "server", "player",
	"rdt_rtsp", "figures_stats", "runtime_gc", "other"}

// startProfile begins a CPU profile into buf at profileHz.
func startProfile(buf *bytes.Buffer) error {
	// SetCPUProfileRate before StartCPUProfile is the documented way to
	// pick a rate; StartCPUProfile then logs a harmless "cannot set rate"
	// line to stderr when it tries to apply its own default.
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(buf)
}

// cpuShares parses a finished profile and returns each bucket's share of
// the samples.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		counts[p.bucket(s.locs)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for _, b := range cpuBuckets {
		out[b] = float64(counts[b]) / float64(total)
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost first
	fnName  map[uint64]int64    // function id -> string-table index
	strs    []string
}

// bucket names the layer a stack (leaf first) is charged to.
func (p *profile) bucket(locs []uint64) string {
	layer := ""
	for _, loc := range locs {
		for _, fn := range p.locFns[loc] {
			idx := p.fnName[fn]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			name := p.strs[idx]
			if isGC(name) {
				return "runtime_gc"
			}
			if layer == "" {
				if pkg, ok := repoPackage(name); ok {
					layer = layerOf[pkg]
					if layer == "" {
						layer = "other"
					}
				}
			}
		}
	}
	if layer == "" {
		return "other"
	}
	return layer
}

// gcEntryPoints are the collector's entry points: background mark and sweep
// workers, allocation assists and the scavenger.
var gcEntryPoints = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcDrain", "runtime.(*mheap).reclaim"}

// isGC reports whether a frame is one of the collector's entry points.
func isGC(fn string) bool {
	for _, p := range gcEntryPoints {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// repoPackage extracts the last path element of a realtracer/internal
// function's package ("realtracer/internal/netsim.(*Network).Send" ->
// "netsim"). Harness frames (package main) are not repository layers.
func repoPackage(fn string) (string, bool) {
	const prefix = "realtracer/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// --- the protobuf subset profile.proto needs ---

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocField   = 1
	sampleValueField = 2

	locIDField   = 1
	locLineField = 4

	lineFnField = 1

	fnIDField   = 1
	fnNameField = 2
)

// walk calls visit for every field of a protobuf message. varint carries
// wire types 0, 1 and 5; data carries wire type 2.
func walk(b []byte, visit func(field int, varint uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("cpu profile: bad varint")
			}
			b = b[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("cpu profile: short fixed64")
			}
			if err := visit(field, binary.LittleEndian.Uint64(b), nil); err != nil {
				return err
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("cpu profile: bad length")
			}
			if err := visit(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("cpu profile: short fixed32")
			}
			if err := visit(field, uint64(binary.LittleEndian.Uint32(b)), nil); err != nil {
				return err
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeatedVarints reads a repeated integer field that may arrive packed
// (data) or one element at a time (varint).
func repeatedVarints(dst []uint64, varint uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, varint), nil
	}
	for len(data) > 0 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("cpu profile: bad packed varint")
		}
		dst = append(dst, v)
		data = data[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := walk(raw, func(field int, _ uint64, data []byte) error {
		switch field {
		case profStringField:
			p.strs = append(p.strs, string(data))
		case profSampleField:
			var s profSample
			var values []uint64
			err := walk(data, func(f int, v uint64, d []byte) (err error) {
				switch f {
				case sampleLocField:
					s.locs, err = repeatedVarints(s.locs, v, d)
				case sampleValueField:
					values, err = repeatedVarints(values, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 { // value[0] is the sample count
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case locIDField:
					id = v
				case locLineField:
					return walk(d, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFnField {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFns[id] = fns
		case profFunctionField:
			var id uint64
			var name int64
			err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case fnIDField:
					id = v
				case fnNameField:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.fnName[id] = name
		}
		return nil
	})
	return p, err
}
