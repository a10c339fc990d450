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

// layers are the simulator packages the CPU split reports by name; any
// other danas package folds into "other".
var layers = []string{
	"sim", "netsim", "nic", "vi", "wire", "udpip", "rpc", "nfs", "dafs",
	"core", "cache", "stripe", "nas", "host", "fsim", "wb", "workload",
	"trace", "exper", "obs", "metrics",
}

// cpuBuckets lists every bucket of the CPU split in report order: the
// simulator's packages, container/heap, the runtime split four ways,
// and everything else.
func cpuBuckets() []string {
	b := append([]string{}, layers...)
	return append(b, "container_heap", "rt_handoff", "rt_alloc", "rt_gc", "rt_other", "other")
}

// foldProfile decodes a gzipped pprof CPU profile and folds its samples
// by the package of each sample's leaf frame. Runtime samples split by
// what the stack above them is doing: collecting garbage, allocating,
// or handing control between goroutines (select, channels, park and
// ready, the scheduler). It returns sample counts per bucket and the
// total.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	isLayer := make(map[string]bool, len(layers))
	for _, l := range layers {
		isLayer[l] = true
	}
	out := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		stack, err := p.stack(s.locs)
		if err != nil {
			return nil, 0, err
		}
		if len(stack) == 0 || len(s.values) == 0 {
			continue
		}
		out[bucketOf(stack, isLayer)] += s.values[0]
		total += s.values[0]
	}
	return out, total, nil
}

// bucketOf names the split bucket of one sample; stack is leaf first.
func bucketOf(stack []string, isLayer map[string]bool) string {
	pkg := pkgOf(stack[0])
	switch {
	case strings.HasPrefix(pkg, "danas/internal/"):
		if l := strings.TrimPrefix(pkg, "danas/internal/"); isLayer[l] {
			return l
		}
		return "other"
	case pkg == "container/heap":
		return "container_heap"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return runtimeBucket(stack)
	}
	return "other"
}

// runtimeBucket splits a runtime sample by the first matching activity
// anywhere on its stack, garbage collection taking precedence (an
// allocation can assist the collector), then allocation, then handoff.
func runtimeBucket(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, "runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.markroot", "runtime.sweepone", "runtime.scanobject", "runtime.wbBuf") {
			return "rt_gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return "rt_alloc"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, "runtime.select", "runtime.chan", "runtime.gopark", "runtime.goready",
			"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.mcall",
			"runtime.newproc", "runtime.goexit", "runtime.gogo", "runtime.ready") {
			return "rt_handoff"
		}
	}
	return "rt_other"
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a symbol name such as
// "danas/internal/sim.(*Queue[...]).Get" or "container/heap.Push".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile holds the parts of a pprof profile the fold reads: samples,
// locations (id -> function ids, innermost inlined frame first) and
// function names.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64
	funcs   map[uint64]int64
	strs    []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// stack resolves a sample's location ids to function names, leaf first.
func (p *profile) stack(locs []uint64) ([]string, error) {
	var names []string
	for _, id := range locs {
		fns, ok := p.locs[id]
		if !ok {
			return nil, fmt.Errorf("profile: unknown location %d", id)
		}
		for _, f := range fns {
			si, ok := p.funcs[f]
			if !ok || si < 0 || si >= int64(len(p.strs)) {
				return nil, fmt.Errorf("profile: unknown function %d", f)
			}
			names = append(names, p.strs[si])
		}
	}
	return names, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// decodeProfile parses the uncompressed protobuf encoding of
// perftools.profiles.Profile, reading only sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that arrives either
// unpacked (one value v) or packed (a length-delimited run).
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its scalar value or, for length-delimited fields,
// its payload (non-nil, possibly empty).
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}
