package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Profile-to-layer attribution. Each CPU sample is charged to the
// leaf-most frame of a dlion/internal/<pkg> function: runtime frames such
// as memmove, memclr or syscalls go to the nearest dlion caller, and a
// stack with no dlion frame at all (GC workers, the scheduler) goes to
// "runtime". Frames of the benchmark itself (package main) that have no
// dlion frame below them go to "bench".

// layerBuckets are the cpu_s buckets; together they cover every sample.
var layerBuckets = []string{
	"simclock", "cluster", "core", "grad", "nn", "tensor", "wire", "queue",
	"realtime", "data", "serve", "other", "bench", "runtime",
}

// namedLayers are the dlion/internal packages with a bucket of their own;
// every other dlion package goes to "other".
var namedLayers = map[string]bool{
	"simclock": true, "cluster": true, "core": true, "grad": true, "nn": true,
	"tensor": true, "wire": true, "queue": true, "realtime": true, "data": true,
	"serve": true,
}

// cumulativeFrames are functions whose inclusive time is reported as a
// layer metric of its own (any sample with the function on its stack).
var cumulativeFrames = map[string]string{
	"dlion/internal/nn.Spec.Build":        "nn.build_cpu_s",
	"dlion/internal/nn.(*Model).Evaluate": "nn.eval_cpu_s",
	"dlion/internal/wire.Encode":          "wire.encode_cpu_s",
	"dlion/internal/wire.Decode":          "wire.decode_cpu_s",
}

const dlionPrefix = "dlion/internal/"

// layerOf returns the bucket of one stack, given leaf first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, dlionPrefix) {
			pkg := fn[len(dlionPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if namedLayers[pkg] {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// cpuSample is one stack (leaf first) with its CPU time in seconds.
type cpuSample struct {
	stack   []string
	seconds float64
}

// attribution is the per-layer split of one or more CPU profiles.
type attribution struct {
	total      float64            // seconds over all samples
	layers     map[string]float64 // bucket -> self seconds
	cumulative map[string]float64 // cumulativeFrames metric -> seconds
}

func newAttribution() *attribution {
	return &attribution{layers: map[string]float64{}, cumulative: map[string]float64{}}
}

// add charges samples to their layers.
func (a *attribution) add(samples []cpuSample) {
	for _, s := range samples {
		a.total += s.seconds
		a.layers[layerOf(s.stack)] += s.seconds
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if m, ok := cumulativeFrames[fn]; ok && !seen[m] {
				seen[m] = true
				a.cumulative[m] += s.seconds
			}
		}
	}
}

// cpuProfiler collects CPU profiles of the traced rounds of a run.
type cpuProfiler struct {
	buf bytes.Buffer
	att *attribution
}

func newCPUProfiler() *cpuProfiler { return &cpuProfiler{att: newAttribution()} }

// start begins profiling one traced round.
func (p *cpuProfiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the round's profile and attributes its samples.
func (p *cpuProfiler) stop() error {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	p.att.add(samples)
	return nil
}

// parseCPUProfile decodes a gzip-compressed pprof protobuf CPU profile
// into stacks of function names, leaf first (inlined frames included),
// each with its CPU seconds.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcs     = map[uint64]int64{} // function id -> name string index
		locs      = map[uint64][]uint64{}
		rawSample [][]byte
		types     [][]byte
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			types = append(types, b)
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var fnIDs []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fnIDs = append(fnIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fnIDs
			return err
		case 5:
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	// The CPU value is the sample type whose type is "cpu" (nanoseconds).
	cpuIdx := len(types) - 1
	for i, t := range types {
		err := walkProto(t, func(f int, v uint64, _ []byte) error {
			if f == 1 && str(int64(v)) == "cpu" {
				cpuIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]cpuSample, 0, len(rawSample))
	for _, rs := range rawSample {
		var locIDs []uint64
		var values []int64
		err := walkProto(rs, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				if b != nil {
					return unpackVarints(b, func(x uint64) { locIDs = append(locIDs, x) })
				}
				locIDs = append(locIDs, v)
			case 2:
				if b != nil {
					return unpackVarints(b, func(x uint64) { values = append(values, int64(x)) })
				}
				values = append(values, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx < 0 || cpuIdx >= len(values) {
			continue
		}
		var stack []string
		for _, l := range locIDs {
			for _, f := range locs[l] {
				stack = append(stack, str(funcs[f]))
			}
		}
		out = append(out, cpuSample{stack: stack, seconds: float64(values[cpuIdx]) / 1e9})
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// walkProto calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited fields
// (nil for the other wire types).
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wt := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// unpackVarints decodes a packed repeated varint field.
func unpackVarints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
