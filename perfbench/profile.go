package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// This file charges CPU-profile samples to the simulator's layers. It
// decodes the gzipped profile.proto that runtime/pprof writes with a
// minimal protobuf reader, so the benchmark needs nothing beyond the
// standard library; the raw profile can still be kept (-cpuprofile) and
// read with go tool pprof.

// owners are the host.* layers, in report order. Their shares sum to 1.
var owners = []string{
	"host.sim_share", "host.mem_share", "host.mem_store_share", "host.check_share",
	"host.mesh_share", "host.cmmu_share", "host.rel_share", "host.machine_share",
	"host.core_share", "host.apps_share", "host.stats_share", "host.trace_share",
	"host.stress_share", "host.explore_share", "host.bench_share", "host.harness",
}

// rtKinds are the Go-runtime cost kinds, in report order.
var rtKinds = []string{
	"rt.chan_share", "rt.stack_share", "rt.gc_share", "rt.alloc_share",
	"rt.memclr_share", "rt.map_share",
}

const simPrefix = "alewife/internal/"

// frame is one function of a sample's stack.
type frame struct{ fn, file string }

// owner charges a sample to the layer of its innermost simulator frame.
// The package decides the layer, except for the files that hold a
// layer of their own inside a package: the backing store, the oracles,
// the reliability sublayer and the explorer's state digests.
func owner(stack []frame) string {
	for _, f := range stack {
		if !strings.HasPrefix(f.fn, simPrefix) {
			continue
		}
		pkg := funcPackage(f.fn)
		file := path.Base(f.file)
		switch pkg {
		case "sim", "sim/fanout":
			return "host.sim_share"
		case "mem":
			switch file {
			case "store.go":
				return "host.mem_store_share"
			case "live.go", "check.go":
				return "host.check_share"
			case "digest.go":
				return "host.explore_share"
			}
			return "host.mem_share"
		case "cmmu":
			switch file {
			case "reliable.go":
				return "host.rel_share"
			case "check.go":
				return "host.check_share"
			case "digest.go":
				return "host.explore_share"
			}
			return "host.cmmu_share"
		case "stress":
			if file == "history.go" {
				return "host.check_share"
			}
			return "host.stress_share"
		case "mesh", "machine", "core", "stats", "explore", "bench":
			return "host." + pkg + "_share"
		case "apps", "swdsm":
			return "host.apps_share"
		case "trace", "metrics":
			return "host.trace_share"
		}
	}
	return "host.harness"
}

// funcPackage returns the package path below alewife/internal/ of a
// fully qualified function name such as
// alewife/internal/sim/fanout.Run.func1 or alewife/internal/mem.(*Ctrl).fill.
func funcPackage(fn string) string {
	p := strings.TrimPrefix(fn, simPrefix)
	slash := strings.LastIndexByte(p, '/')
	if dot := strings.IndexByte(p[slash+1:], '.'); dot >= 0 {
		return p[:slash+1+dot]
	}
	return p
}

// rtKindPrefixes classify runtime frames; a sample takes the kind of the
// first classified frame walking from its leaf through the runtime frames
// above it, so a memmove inside copystack is stack growth while a bare
// memclr is zeroing.
var rtKindPrefixes = []struct{ kind, prefix string }{
	{"rt.memclr_share", "runtime.memclr"},
	{"rt.map_share", "runtime.map"},
	{"rt.map_share", "internal/runtime/maps."},
	{"rt.chan_share", "runtime.chansend"},
	{"rt.chan_share", "runtime.chanrecv"},
	{"rt.chan_share", "runtime.selectgo"},
	{"rt.chan_share", "runtime.gopark"},
	{"rt.chan_share", "runtime.park_m"},
	{"rt.chan_share", "runtime.goready"},
	{"rt.chan_share", "runtime.ready"},
	{"rt.chan_share", "runtime.futex"},
	{"rt.chan_share", "runtime.lock"},
	{"rt.chan_share", "runtime.unlock"},
	{"rt.stack_share", "runtime.copystack"},
	{"rt.stack_share", "runtime.newstack"},
	{"rt.stack_share", "runtime.morestack"},
	{"rt.stack_share", "runtime.stackalloc"},
	{"rt.stack_share", "runtime.stackfree"},
	{"rt.gc_share", "runtime.gc"},
	{"rt.gc_share", "runtime.scanobject"},
	{"rt.gc_share", "runtime.scanblock"},
	{"rt.gc_share", "runtime.scanstack"},
	{"rt.gc_share", "runtime.greyobject"},
	{"rt.gc_share", "runtime.markroot"},
	{"rt.gc_share", "runtime.findObject"},
	{"rt.gc_share", "runtime.wbBuf"},
	{"rt.gc_share", "runtime.bulkBarrier"},
	{"rt.gc_share", "runtime.sweepone"},
	{"rt.gc_share", "runtime.bgsweep"},
	{"rt.gc_share", "runtime.(*mspan).sweep"},
	{"rt.gc_share", "runtime.(*sweepLocked)"},
	{"rt.gc_share", "runtime.(*gcWork)"},
	{"rt.gc_share", "runtime.(*gcControllerState)"},
	{"rt.alloc_share", "runtime.mallocgc"},
	{"rt.alloc_share", "runtime.newobject"},
	{"rt.alloc_share", "runtime.makeslice"},
	{"rt.alloc_share", "runtime.growslice"},
	{"rt.alloc_share", "runtime.nextFreeFast"},
	{"rt.alloc_share", "runtime.(*mcache)"},
	{"rt.alloc_share", "runtime.(*mcentral)"},
	{"rt.alloc_share", "runtime.(*mheap)"},
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// rtKind returns the runtime cost kind of a sample, or "" for none.
func rtKind(stack []frame) string {
	for _, f := range stack {
		if !isRuntime(f.fn) {
			return ""
		}
		for _, k := range rtKindPrefixes {
			if strings.HasPrefix(f.fn, k.prefix) {
				return k.kind
			}
		}
	}
	return ""
}

// attribution is the share of sampled CPU time per owner and per runtime
// cost kind.
type attribution struct {
	samples int
	shares  map[string]float64
}

// attribute decodes a gzipped CPU profile and charges every sample.
func attribute(gz []byte) (attribution, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{shares: make(map[string]float64)}
	for _, k := range append(append([]string(nil), owners...), rtKinds...) {
		a.shares[k] = 0
	}
	var total float64
	var stack []frame
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		w := float64(s.weight)
		total += w
		a.shares[owner(stack)] += w
		if k := rtKind(stack); k != "" {
			a.shares[k] += w
		}
		a.samples++
	}
	if total == 0 {
		return a, errors.New("CPU profile holds no samples")
	}
	for k := range a.shares {
		a.shares[k] /= total
	}
	return a, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]frame // location id -> frames, innermost first
}

type sample struct {
	locs   []uint64 // leaf first
	weight int64    // the last sample value: CPU nanoseconds
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
	fFunctionFile = 4
)

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	type function struct{ name, file int64 }
	type location struct {
		id    uint64
		funcs []uint64
	}
	var strs []string
	funcs := make(map[uint64]function)
	var locs []location
	p := &profile{locs: make(map[uint64][]frame)}

	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfileSample:
			var s sample
			err := walk(b, func(field int, v uint64, b []byte) error {
				switch field {
				case fSampleLocation:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(v, b, func(x uint64) { s.weight = int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var l location
			err := walk(b, func(field int, v uint64, b []byte) error {
				switch field {
				case fLocationID:
					l.id = v
				case fLocationLine:
					return walk(b, func(field int, v uint64, _ []byte) error {
						if field == fLineFunction {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case fProfileFunction:
			var id uint64
			var f function
			err := walk(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case fFunctionID:
					id = v
				case fFunctionName:
					f.name = int64(v)
				case fFunctionFile:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, l := range locs {
		frames := make([]frame, 0, len(l.funcs))
		for _, id := range l.funcs {
			f := funcs[id]
			frames = append(frames, frame{fn: str(f.name), file: str(f.file)})
		}
		p.locs[l.id] = frames
	}
	return p, nil
}

// walk calls fn for every field of a protobuf message: v holds a varint
// field's value, b a length-delimited field's bytes. Fixed-width fields,
// which profile.proto does not use, are skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (b set) or not.
func varints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
